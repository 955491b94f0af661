//! Job-shop decoding: the semi-active builder for direct operation-based
//! encodings, the Giffler–Thompson (G&T) *active* schedule builder used by
//! Mui et al. \[17\] and the hybrid GAs of Park et al. \[26\], and the
//! non-delay builder for random-key priorities.

use crate::instance::JobShopInstance;
use crate::schedule::{Schedule, ScheduledOp};
use crate::{Problem, Time};

/// Decoder bound to one job-shop instance.
#[derive(Debug, Clone, Copy)]
pub struct JobDecoder<'a> {
    inst: &'a JobShopInstance,
}

impl<'a> JobDecoder<'a> {
    /// A decoder borrowing `inst`.
    pub fn new(inst: &'a JobShopInstance) -> Self {
        JobDecoder { inst }
    }

    /// Semi-active decoding of an *operation sequence*: a permutation with
    /// repetition where job `j` appears `n_ops(j)` times and the `k`-th
    /// occurrence denotes its `k`-th operation. Every prefix of the
    /// sequence schedules greedily at `max(machine free, job free,
    /// release)`.
    ///
    /// This is the classic direct encoding: any repetition-permutation is
    /// feasible, so crossover repair stays cheap.
    pub fn semi_active(&self, op_sequence: &[usize]) -> Schedule {
        let n = self.inst.n_jobs();
        debug_assert_eq!(op_sequence.len(), self.inst.total_ops());
        let mut next_op = vec![0usize; n];
        let mut job_free: Vec<Time> = (0..n).map(|j| self.inst.release(j)).collect();
        let mut machine_free = vec![0 as Time; self.inst.n_machines()];
        let mut ops = Vec::with_capacity(op_sequence.len());
        for &j in op_sequence {
            let s = next_op[j];
            let op = self.inst.op(j, s);
            let start = job_free[j].max(machine_free[op.machine]);
            let end = start + op.duration;
            ops.push(ScheduledOp {
                job: j,
                op: s,
                machine: op.machine,
                start,
                end,
            });
            job_free[j] = end;
            machine_free[op.machine] = end;
            next_op[j] = s + 1;
        }
        Schedule::new(ops)
    }

    /// Makespan-only variant of [`semi_active`](Self::semi_active) — the
    /// fitness hot path; avoids materialising `ScheduledOp`s.
    pub fn semi_active_makespan(&self, op_sequence: &[usize]) -> Time {
        let n = self.inst.n_jobs();
        let mut next_op = vec![0usize; n];
        let mut job_free: Vec<Time> = (0..n).map(|j| self.inst.release(j)).collect();
        let mut machine_free = vec![0 as Time; self.inst.n_machines()];
        let mut mk = 0;
        for &j in op_sequence {
            let s = next_op[j];
            let op = self.inst.op(j, s);
            let start = job_free[j].max(machine_free[op.machine]);
            let end = start + op.duration;
            job_free[j] = end;
            machine_free[op.machine] = end;
            next_op[j] = s + 1;
            mk = mk.max(end);
        }
        mk
    }

    /// Giffler–Thompson *active* schedule builder. `priority(job, op)`
    /// breaks ties inside the conflict set (lower value wins); priorities
    /// typically come from a chromosome (random keys, or the position of
    /// the operation in a sequence chromosome).
    ///
    /// Active schedules are a complete, optimum-containing subset of the
    /// feasible schedules, which is why GA designs like Mui et al. \[17\]
    /// restrict their search to them.
    pub fn giffler_thompson(&self, priority: &dyn Fn(usize, usize) -> f64) -> Schedule {
        let n = self.inst.n_jobs();
        let mut next_op = vec![0usize; n];
        let mut job_free: Vec<Time> = (0..n).map(|j| self.inst.release(j)).collect();
        let mut machine_free = vec![0 as Time; self.inst.n_machines()];
        let mut ops = Vec::with_capacity(self.inst.total_ops());

        loop {
            // Candidate = next unscheduled operation of each unfinished job.
            let mut best: Option<(Time, usize)> = None; // (completion, machine)
            for j in 0..n {
                if next_op[j] >= self.inst.n_ops(j) {
                    continue;
                }
                let op = self.inst.op(j, next_op[j]);
                let start = job_free[j].max(machine_free[op.machine]);
                let done = start + op.duration;
                if best.is_none_or(|(c, _)| done < c) {
                    best = Some((done, op.machine));
                }
            }
            let Some((c_star, m_star)) = best else { break };

            // Conflict set: candidates on m* that could start before C*.
            let mut chosen: Option<(usize, f64)> = None;
            for j in 0..n {
                if next_op[j] >= self.inst.n_ops(j) {
                    continue;
                }
                let op = self.inst.op(j, next_op[j]);
                if op.machine != m_star {
                    continue;
                }
                let start = job_free[j].max(machine_free[m_star]);
                if start < c_star {
                    let p = priority(j, next_op[j]);
                    if chosen.is_none_or(|(_, bp)| p < bp) {
                        chosen = Some((j, p));
                    }
                }
            }
            let (j, _) = chosen.expect("conflict set is non-empty by construction");
            let s = next_op[j];
            let op = self.inst.op(j, s);
            let start = job_free[j].max(machine_free[m_star]);
            let end = start + op.duration;
            ops.push(ScheduledOp {
                job: j,
                op: s,
                machine: m_star,
                start,
                end,
            });
            job_free[j] = end;
            machine_free[m_star] = end;
            next_op[j] = s + 1;
        }
        Schedule::new(ops)
    }

    /// G&T decoding from a random-keys chromosome: one key per operation,
    /// lower key = higher priority.
    pub fn gt_from_keys(&self, keys: &[f64]) -> Schedule {
        let offsets = self.op_offsets();
        self.giffler_thompson(&|j, s| keys[offsets[j] + s])
    }

    /// *Non-delay* schedule builder: like Giffler–Thompson but machines
    /// are never left idle when an operation could start — the conflict
    /// set is the set of operations achieving the globally earliest
    /// possible start time. Non-delay schedules are a smaller (not
    /// optimum-preserving) subset of the active schedules; several
    /// surveyed GA designs restrict their initial populations to them.
    pub fn non_delay(&self, priority: &dyn Fn(usize, usize) -> f64) -> Schedule {
        let n = self.inst.n_jobs();
        let mut next_op = vec![0usize; n];
        let mut job_free: Vec<Time> = (0..n).map(|j| self.inst.release(j)).collect();
        let mut machine_free = vec![0 as Time; self.inst.n_machines()];
        let mut ops = Vec::with_capacity(self.inst.total_ops());

        loop {
            // Earliest possible start over all schedulable operations.
            let mut min_start: Option<Time> = None;
            for j in 0..n {
                if next_op[j] >= self.inst.n_ops(j) {
                    continue;
                }
                let op = self.inst.op(j, next_op[j]);
                let start = job_free[j].max(machine_free[op.machine]);
                if min_start.is_none_or(|m| start < m) {
                    min_start = Some(start);
                }
            }
            let Some(t) = min_start else { break };

            // Conflict set: all ops that can start exactly at `t`.
            let mut chosen: Option<(usize, f64)> = None;
            for j in 0..n {
                if next_op[j] >= self.inst.n_ops(j) {
                    continue;
                }
                let op = self.inst.op(j, next_op[j]);
                let start = job_free[j].max(machine_free[op.machine]);
                if start == t {
                    let p = priority(j, next_op[j]);
                    if chosen.is_none_or(|(_, bp)| p < bp) {
                        chosen = Some((j, p));
                    }
                }
            }
            let (j, _) = chosen.expect("non-empty by construction");
            let s = next_op[j];
            let op = self.inst.op(j, s);
            let start = job_free[j].max(machine_free[op.machine]);
            let end = start + op.duration;
            ops.push(ScheduledOp {
                job: j,
                op: s,
                machine: op.machine,
                start,
                end,
            });
            job_free[j] = end;
            machine_free[op.machine] = end;
            next_op[j] = s + 1;
        }
        Schedule::new(ops)
    }

    /// Non-delay decoding from random keys (lower key = higher priority).
    pub fn non_delay_from_keys(&self, keys: &[f64]) -> Schedule {
        let offsets = self.op_offsets();
        self.non_delay(&|j, s| keys[offsets[j] + s])
    }

    /// Prefix offsets of each job's operations in a flat operation array.
    pub fn op_offsets(&self) -> Vec<usize> {
        let n = self.inst.n_jobs();
        let mut off = vec![0usize; n + 1];
        for j in 0..n {
            off[j + 1] = off[j] + self.inst.n_ops(j);
        }
        off
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::generate::{job_shop_uniform, GenConfig};
    use crate::instance::Op;

    fn tiny() -> JobShopInstance {
        JobShopInstance::new(vec![
            vec![Op::new(0, 3), Op::new(1, 2)],
            vec![Op::new(1, 2), Op::new(0, 4)],
        ])
        .unwrap()
    }

    #[test]
    fn semi_active_hand_checked() {
        let inst = tiny();
        let d = JobDecoder::new(&inst);
        // Sequence 0,1,0,1: J0 op0 [0,3]@M0, J1 op0 [0,2]@M1,
        // J0 op1 [3,5]@M1, J1 op1 [3,7]@M0.
        let s = d.semi_active(&[0, 1, 0, 1]);
        assert_eq!(s.makespan(), 7);
        s.validate_job(&inst).unwrap();
        assert_eq!(d.semi_active_makespan(&[0, 1, 0, 1]), 7);
    }

    #[test]
    fn all_repetition_sequences_feasible() {
        // Property: every permutation with repetition decodes feasibly.
        let inst = job_shop_uniform(&GenConfig::new(4, 3, 21));
        let d = JobDecoder::new(&inst);
        let sequences = [
            vec![0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3],
            vec![3, 2, 1, 0, 3, 2, 1, 0, 3, 2, 1, 0],
            vec![0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3],
        ];
        for seq in &sequences {
            let s = d.semi_active(seq);
            s.validate_job(&inst).unwrap();
            assert_eq!(s.makespan(), d.semi_active_makespan(seq));
        }
    }

    #[test]
    fn gt_produces_valid_active_schedule() {
        let inst = job_shop_uniform(&GenConfig::new(6, 4, 33));
        let d = JobDecoder::new(&inst);
        let keys: Vec<f64> = (0..inst.total_ops()).map(|i| (i * 7 % 13) as f64).collect();
        let s = d.gt_from_keys(&keys);
        s.validate_job(&inst).unwrap();
        assert!(s.makespan() >= inst.makespan_lower_bound());
    }

    #[test]
    fn gt_no_worse_than_naive_sequence_on_average() {
        // Not a theorem for single instances, but G&T should beat the
        // "all of job 0, then all of job 1, ..." serialisation easily.
        let inst = job_shop_uniform(&GenConfig::new(6, 4, 44));
        let d = JobDecoder::new(&inst);
        let serial: Vec<usize> = (0..6).flat_map(|j| std::iter::repeat_n(j, 4)).collect();
        let keys: Vec<f64> = vec![0.0; inst.total_ops()];
        let gt = d.gt_from_keys(&keys).makespan();
        let naive = d.semi_active(&serial).makespan();
        assert!(gt <= naive);
    }

    #[test]
    fn non_delay_is_feasible_and_never_idles_machines_needlessly() {
        let inst = job_shop_uniform(&GenConfig::new(6, 4, 77));
        let d = JobDecoder::new(&inst);
        let keys: Vec<f64> = (0..inst.total_ops())
            .map(|i| (i * 13 % 29) as f64)
            .collect();
        let s = d.non_delay_from_keys(&keys);
        s.validate_job(&inst).unwrap();
        // Non-delay property (spot check): at every op start, no other
        // schedulable op could have started strictly earlier on an idle
        // machine. A cheap necessary condition: the earliest op starts at
        // the earliest release (0 here).
        assert_eq!(s.ops.iter().map(|o| o.start).min(), Some(0));
    }

    #[test]
    fn non_delay_schedules_are_active_schedules_too() {
        // Non-delay ⊆ active, so makespans of both builders bound each
        // other loosely; here we just confirm both are feasible and
        // respect the lower bound for several priority vectors.
        let inst = job_shop_uniform(&GenConfig::new(5, 3, 78));
        let d = JobDecoder::new(&inst);
        for k in 0..5 {
            let keys: Vec<f64> = (0..inst.total_ops())
                .map(|i| ((i * 7 + k * 3) % 11) as f64)
                .collect();
            let nd = d.non_delay_from_keys(&keys);
            let gt = d.gt_from_keys(&keys);
            nd.validate_job(&inst).unwrap();
            gt.validate_job(&inst).unwrap();
            assert!(nd.makespan() >= inst.makespan_lower_bound());
            assert!(gt.makespan() >= inst.makespan_lower_bound());
        }
    }

    #[test]
    fn op_offsets_shape() {
        let inst = tiny();
        let d = JobDecoder::new(&inst);
        assert_eq!(d.op_offsets(), vec![0, 2, 4]);
    }
}
