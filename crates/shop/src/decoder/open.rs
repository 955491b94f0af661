//! Open-shop decoding.
//!
//! Kokosiński & Studzienny \[32\] encode open-shop solutions as permutations
//! with repetitions and decode them with greedy heuristics; LPT-Task is
//! implemented here alongside a plain operation-order decoder (the flow/job-shop style direct encoding, which
//! the survey notes also applies to open shops).

use crate::instance::OpenShopInstance;
use crate::schedule::{Schedule, ScheduledOp};
use crate::{Problem, Time};

/// Decoder bound to one open-shop instance.
#[derive(Debug, Clone, Copy)]
pub struct OpenDecoder<'a> {
    inst: &'a OpenShopInstance,
}

impl<'a> OpenDecoder<'a> {
    /// A decoder borrowing `inst`.
    pub fn new(inst: &'a OpenShopInstance) -> Self {
        OpenDecoder { inst }
    }

    /// Direct decoding of an explicit operation order: a sequence of
    /// `(job, machine)` pairs covering every pair exactly once, scheduled
    /// semi-actively in order.
    pub fn by_op_order(&self, order: &[(usize, usize)]) -> Schedule {
        let n = self.inst.n_jobs();
        let m = self.inst.n_machines();
        debug_assert_eq!(order.len(), n * m);
        let mut job_free: Vec<Time> = (0..n).map(|j| self.inst.release(j)).collect();
        let mut machine_free = vec![0 as Time; m];
        let mut ops = Vec::with_capacity(order.len());
        for &(j, mach) in order {
            let start = job_free[j].max(machine_free[mach]);
            let end = start + self.inst.proc(j, mach);
            ops.push(ScheduledOp {
                job: j,
                op: mach, // stage index == machine for open shops
                machine: mach,
                start,
                end,
            });
            job_free[j] = end;
            machine_free[mach] = end;
        }
        Schedule::new(ops)
    }

    /// LPT-Task decoding: the chromosome is a permutation with repetition
    /// of *job* ids (each appearing `m` times); each gene schedules the
    /// longest remaining task of that job.
    pub fn lpt_task(&self, job_sequence: &[usize]) -> Schedule {
        let m = self.inst.n_machines();
        let mut done = vec![vec![false; m]; self.inst.n_jobs()];
        let order: Vec<(usize, usize)> = job_sequence
            .iter()
            .map(|&j| {
                let mach = (0..m)
                    .filter(|&k| !done[j][k])
                    .max_by_key(|&k| self.inst.proc(j, k))
                    .expect("gene count exceeds remaining tasks");
                done[j][mach] = true;
                (j, mach)
            })
            .collect();
        self.by_op_order(&order)
    }

    /// Makespan-only fast path for [`lpt_task`](Self::lpt_task): same
    /// greedy fold, flat `done` bitmap, no `Schedule` materialised.
    pub fn lpt_task_makespan(&self, job_sequence: &[usize]) -> Time {
        let n = self.inst.n_jobs();
        let m = self.inst.n_machines();
        let mut done = vec![false; n * m];
        let mut job_free: Vec<Time> = (0..n).map(|j| self.inst.release(j)).collect();
        let mut machine_free = vec![0 as Time; m];
        let mut mk = 0;
        for &j in job_sequence {
            let mach = (0..m)
                .filter(|&k| !done[j * m + k])
                .max_by_key(|&k| self.inst.proc(j, k))
                .expect("gene count exceeds remaining tasks");
            done[j * m + mach] = true;
            let start = job_free[j].max(machine_free[mach]);
            let end = start + self.inst.proc(j, mach);
            job_free[j] = end;
            machine_free[mach] = end;
            mk = mk.max(end);
        }
        mk
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::generate::{open_shop_uniform, GenConfig};

    fn tiny() -> OpenShopInstance {
        OpenShopInstance::new(vec![vec![2, 3], vec![4, 1]]).unwrap()
    }

    fn rep_jobs(n: usize, m: usize) -> Vec<usize> {
        (0..n * m).map(|i| i % n).collect()
    }

    #[test]
    fn op_order_decodes_validly() {
        let inst = tiny();
        let d = OpenDecoder::new(&inst);
        let s = d.by_op_order(&[(0, 1), (1, 0), (0, 0), (1, 1)]);
        s.validate_open(&inst).unwrap();
        // J0@M1 [0,3], J1@M0 [0,4], J0@M0 [4,6], J1@M1 [4,5].
        assert_eq!(s.makespan(), 6);
    }

    #[test]
    fn lpt_task_selects_longest_remaining() {
        let inst = tiny();
        let d = OpenDecoder::new(&inst);
        let s = d.lpt_task(&[0, 1, 0, 1]);
        s.validate_open(&inst).unwrap();
        // First gene of job 0 must take machine 1 (3 > 2); of job 1,
        // machine 0 (4 > 1).
        let seq0 = s.machine_sequence(1);
        assert_eq!(seq0[0].job, 0);
        assert_eq!(seq0[0].start, 0);
    }

    #[test]
    fn decoders_respect_lower_bound() {
        let inst = open_shop_uniform(&GenConfig::new(6, 3, 17));
        let d = OpenDecoder::new(&inst);
        let s = d.lpt_task(&rep_jobs(6, 3));
        s.validate_open(&inst).unwrap();
        assert!(s.makespan() >= inst.makespan_lower_bound());
    }
}
