//! Permutation flow-shop decoding.
//!
//! The standard chromosome for flow shops is a job permutation (survey
//! Section III.A); decoding is the textbook dynamic program over the
//! completion-time frontier. [`FlowDecoder::makespan`] is the hot path
//! used inside fitness evaluation and only keeps one row of the DP;
//! [`FlowDecoder::schedule`] materialises the full schedule.

use crate::instance::FlowShopInstance;
use crate::schedule::{Schedule, ScheduledOp};
use crate::{Problem, Time};

/// Decoder bound to one flow-shop instance.
#[derive(Debug, Clone, Copy)]
pub struct FlowDecoder<'a> {
    inst: &'a FlowShopInstance,
}

impl<'a> FlowDecoder<'a> {
    /// A decoder borrowing `inst`.
    pub fn new(inst: &'a FlowShopInstance) -> Self {
        FlowDecoder { inst }
    }

    /// Makespan of the permutation `perm` (must contain each job exactly
    /// once). O(n·m) time, O(m) space.
    pub fn makespan(&self, perm: &[usize]) -> Time {
        let m = self.inst.n_machines();
        let mut frontier = vec![0 as Time; m];
        for &j in perm {
            let mut prev = frontier[0].max(self.inst.release(j)) + self.inst.proc(j, 0);
            frontier[0] = prev;
            for k in 1..m {
                prev = prev.max(frontier[k]) + self.inst.proc(j, k);
                frontier[k] = prev;
            }
        }
        frontier[m - 1]
    }

    /// Full semi-active schedule for `perm`.
    pub fn schedule(&self, perm: &[usize]) -> Schedule {
        let m = self.inst.n_machines();
        let mut machine_free = vec![0 as Time; m];
        let mut ops = Vec::with_capacity(perm.len() * m);
        for &j in perm {
            let mut job_free = self.inst.release(j);
            for k in 0..m {
                let start = job_free.max(machine_free[k]);
                let end = start + self.inst.proc(j, k);
                ops.push(ScheduledOp {
                    job: j,
                    op: k,
                    machine: k,
                    start,
                    end,
                });
                job_free = end;
                machine_free[k] = end;
            }
        }
        Schedule::new(ops)
    }

    /// NEH-style greedy constructive heuristic: insert jobs (longest total
    /// work first) at the position minimising partial makespan. Used as
    /// the heuristic reference `F̄` of the survey's fitness Eq. 1 and as a
    /// strong seed for populations.
    pub fn neh(&self) -> Vec<usize> {
        let n = self.inst.n_jobs();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&j| std::cmp::Reverse(self.inst.job_row(j).iter().sum::<Time>()));
        let mut seq: Vec<usize> = Vec::with_capacity(n);
        for &j in &order {
            let mut best_pos = 0;
            let mut best_mk = Time::MAX;
            for pos in 0..=seq.len() {
                let mut cand = seq.clone();
                cand.insert(pos, j);
                let mk = self.makespan(&cand);
                if mk < best_mk {
                    best_mk = mk;
                    best_pos = pos;
                }
            }
            seq.insert(best_pos, j);
        }
        seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::generate::{flow_shop_taillard, GenConfig};
    use crate::instance::JobMeta;

    fn tiny() -> FlowShopInstance {
        FlowShopInstance::new(vec![vec![3, 2], vec![1, 4]]).unwrap()
    }

    #[test]
    fn hand_checked_makespan() {
        let inst = tiny();
        let d = FlowDecoder::new(&inst);
        // Order (0,1): M0 done 3/4, M1: 3+2=5, then max(4,5)+4=9.
        assert_eq!(d.makespan(&[0, 1]), 9);
        // Order (1,0): M0 1/4, M1: 1+4=5, then max(4,5)+2=7.
        assert_eq!(d.makespan(&[1, 0]), 7);
    }

    #[test]
    fn schedule_agrees_with_makespan_and_validates() {
        let inst = flow_shop_taillard(&GenConfig::new(12, 4, 99));
        let d = FlowDecoder::new(&inst);
        let perm: Vec<usize> = (0..12).rev().collect();
        let s = d.schedule(&perm);
        assert_eq!(s.makespan(), d.makespan(&perm));
        s.validate_flow(&inst).unwrap();
    }

    #[test]
    fn release_dates_delay_jobs() {
        let meta = JobMeta {
            release: vec![10, 0],
            due: vec![Time::MAX; 2],
            weight: vec![1.0; 2],
        };
        let inst = FlowShopInstance::with_meta(vec![vec![3, 2], vec![1, 4]], meta).unwrap();
        let d = FlowDecoder::new(&inst);
        assert_eq!(d.makespan(&[0, 1]), 10 + 3 + 2 + 4); // job 1 queues behind
        let s = d.schedule(&[0, 1]);
        s.validate_flow(&inst).unwrap();
    }

    #[test]
    fn neh_not_worse_than_identity_on_random() {
        let inst = flow_shop_taillard(&GenConfig::new(10, 5, 123));
        let d = FlowDecoder::new(&inst);
        let neh = d.neh();
        let identity: Vec<usize> = (0..10).collect();
        assert!(d.makespan(&neh) <= d.makespan(&identity));
        // NEH yields a valid permutation.
        let mut sorted = neh.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, identity);
    }

    #[test]
    fn makespan_at_least_lower_bound() {
        let inst = flow_shop_taillard(&GenConfig::new(8, 3, 77));
        let d = FlowDecoder::new(&inst);
        assert!(d.makespan(&d.neh()) >= inst.makespan_lower_bound());
    }
}
