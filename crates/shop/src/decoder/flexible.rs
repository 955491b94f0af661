//! Flexible-shop decoding from the dual-chromosome genome of Belkadi
//! et al. \[37\] and Defersha & Chen \[35\]\[36\]: an *assignment* chromosome
//! (which eligible machine runs each operation) plus a *sequencing*
//! chromosome (permutation with repetition of job ids), decoded
//! semi-actively with optional sequence-dependent setups, machine release
//! dates and inter-operation time lags.

use crate::instance::FlexibleInstance;
use crate::schedule::{Schedule, ScheduledOp};
use crate::setup::{MachineConstraints, SetupKind, SetupMatrix};
use crate::{Problem, Time};

/// Decoder bound to one flexible instance, with optional SDST extensions.
pub struct FlexDecoder<'a> {
    inst: &'a FlexibleInstance,
    setups: Option<&'a SetupMatrix>,
    constraints: MachineConstraints,
    offsets: Vec<usize>,
}

impl<'a> FlexDecoder<'a> {
    /// A decoder borrowing `inst` (no setups, no machine windows).
    pub fn new(inst: &'a FlexibleInstance) -> Self {
        let n = inst.n_jobs();
        let mut offsets = vec![0usize; n + 1];
        for j in 0..n {
            offsets[j + 1] = offsets[j] + inst.n_ops(j);
        }
        FlexDecoder {
            inst,
            setups: None,
            constraints: MachineConstraints::none(inst.n_machines()),
            offsets,
        }
    }

    /// Enables sequence-dependent setup times (Defersha & Chen \[36\]).
    pub fn with_setups(mut self, setups: &'a SetupMatrix) -> Self {
        assert_eq!(setups.n_jobs(), self.inst.n_jobs());
        assert_eq!(setups.n_machines(), self.inst.n_machines());
        self.setups = Some(setups);
        self
    }

    /// Enables machine release dates / lags / attached-vs-detached setup
    /// semantics.
    pub fn with_constraints(mut self, constraints: MachineConstraints) -> Self {
        assert_eq!(constraints.release.len(), self.inst.n_machines());
        self.constraints = constraints;
        self
    }

    /// Number of genes in the assignment chromosome (= total operations).
    pub fn assignment_len(&self) -> usize {
        self.inst.total_ops()
    }

    /// Decodes `(assignment, sequence)`:
    /// * `assignment[k]` = eligible-choice index for the `k`-th operation
    ///   (flat job-major order), reduced modulo the choice count so any
    ///   integer gene is legal;
    /// * `sequence` = permutation with repetition of job ids.
    pub fn decode(&self, assignment: &[usize], sequence: &[usize]) -> Schedule {
        let n = self.inst.n_jobs();
        debug_assert_eq!(assignment.len(), self.assignment_len());
        debug_assert_eq!(sequence.len(), self.assignment_len());
        let mut next_op = vec![0usize; n];
        let mut job_free: Vec<Time> = (0..n).map(|j| self.inst.release(j)).collect();
        let mut machine_free: Vec<Time> = self.constraints.release.clone();
        let mut last_job_on: Vec<Option<usize>> = vec![None; self.inst.n_machines()];
        let mut ops = Vec::with_capacity(sequence.len());

        for &j in sequence {
            let s = next_op[j];
            let flex = self.inst.op(j, s);
            let choice = assignment[self.offsets[j] + s] % flex.choices.len();
            let (machine, duration) = flex.choices[choice];

            let job_ready = if s == 0 {
                job_free[j]
            } else {
                job_free[j] + self.constraints.job_lag
            };
            let setup = self
                .setups
                .map(|su| su.setup(machine, last_job_on[machine], j))
                .unwrap_or(0);
            let start = match self.constraints.setup_kind {
                // Attached: the setup needs the job present.
                SetupKind::Attached => machine_free[machine].max(job_ready) + setup,
                // Detached: setup can be anticipated while the job is away.
                SetupKind::Detached => (machine_free[machine] + setup).max(job_ready),
            };
            let end = start + duration;
            ops.push(ScheduledOp {
                job: j,
                op: s,
                machine,
                start,
                end,
            });
            job_free[j] = end;
            machine_free[machine] = end;
            last_job_on[machine] = Some(j);
            next_op[j] = s + 1;
        }
        Schedule::new(ops)
    }

    /// Makespan-only fast path of [`decode`](Self::decode): the same
    /// fold without materialising a [`Schedule`].
    pub fn makespan(&self, assignment: &[usize], sequence: &[usize]) -> Time {
        let n = self.inst.n_jobs();
        debug_assert_eq!(assignment.len(), self.assignment_len());
        debug_assert_eq!(sequence.len(), self.assignment_len());
        let mut next_op = vec![0usize; n];
        let mut job_free: Vec<Time> = (0..n).map(|j| self.inst.release(j)).collect();
        let mut machine_free: Vec<Time> = self.constraints.release.clone();
        let mut last_job_on: Vec<Option<usize>> = vec![None; self.inst.n_machines()];
        let mut mk = 0;
        for &j in sequence {
            let s = next_op[j];
            let flex = self.inst.op(j, s);
            let choice = assignment[self.offsets[j] + s] % flex.choices.len();
            let (machine, duration) = flex.choices[choice];
            let job_ready = if s == 0 {
                job_free[j]
            } else {
                job_free[j] + self.constraints.job_lag
            };
            let setup = self
                .setups
                .map(|su| su.setup(machine, last_job_on[machine], j))
                .unwrap_or(0);
            let start = match self.constraints.setup_kind {
                SetupKind::Attached => machine_free[machine].max(job_ready) + setup,
                SetupKind::Detached => (machine_free[machine] + setup).max(job_ready),
            };
            let end = start + duration;
            job_free[j] = end;
            machine_free[machine] = end;
            last_job_on[machine] = Some(j);
            next_op[j] = s + 1;
            mk = mk.max(end);
        }
        mk
    }

    /// The all-fastest assignment: the greedy baseline the feasibility
    /// tests decode (test support, audited in `analyze.toml`).
    pub fn fastest_assignment(&self) -> Vec<usize> {
        let mut a = Vec::with_capacity(self.assignment_len());
        for j in 0..self.inst.n_jobs() {
            for s in 0..self.inst.n_ops(j) {
                a.push(self.inst.op(j, s).fastest_choice());
            }
        }
        a
    }

    /// Canonical sequence chromosome: jobs in round-robin order; the
    /// neutral sequence the feasibility tests decode (test support,
    /// audited in `analyze.toml`).
    pub fn round_robin_sequence(&self) -> Vec<usize> {
        let n = self.inst.n_jobs();
        let max_ops = (0..n).map(|j| self.inst.n_ops(j)).max().unwrap_or(0);
        let mut seq = Vec::with_capacity(self.assignment_len());
        let mut emitted = vec![0usize; n];
        for _ in 0..max_ops {
            for j in 0..n {
                if emitted[j] < self.inst.n_ops(j) {
                    seq.push(j);
                    emitted[j] += 1;
                }
            }
        }
        seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::generate::{
        flexible_flow_shop, flexible_job_shop, sdst_matrix, GenConfig,
    };

    fn two_stage() -> FlexibleInstance {
        FlexibleInstance::flexible_flow(
            &[vec![0, 1], vec![2]],
            &[vec![vec![4, 6], vec![3]], vec![vec![2, 2], vec![5]]],
        )
        .unwrap()
    }

    #[test]
    fn hand_checked_decode() {
        let inst = two_stage();
        let d = FlexDecoder::new(&inst);
        // Assignment: J0 stage0 -> choice 0 (M0), J0 stage1 -> M2,
        //             J1 stage0 -> choice 1 (M1), J1 stage1 -> M2.
        let s = d.decode(&[0, 0, 1, 0], &[0, 1, 0, 1]);
        s.validate_flexible(&inst).unwrap();
        // J0: M0 [0,4], M2 [4,7]; J1: M1 [0,2], M2 [7,12].
        assert_eq!(s.makespan(), 12);
    }

    #[test]
    fn parallel_machines_allow_overlap() {
        let inst = two_stage();
        let d = FlexDecoder::new(&inst);
        // Both stage-0 ops on different machines of the same stage overlap
        // in time — that is the whole point of flexible stages.
        let s = d.decode(&[0, 0, 1, 0], &[0, 1, 1, 0]);
        let m0 = s.machine_sequence(0);
        let m1 = s.machine_sequence(1);
        assert_eq!(m0[0].start, 0);
        assert_eq!(m1[0].start, 0);
        s.validate_flexible(&inst).unwrap();
    }

    #[test]
    fn assignment_gene_wraps_modulo() {
        let inst = two_stage();
        let d = FlexDecoder::new(&inst);
        // Gene 7 on a 2-choice op = choice 1.
        let a = d.decode(&[7, 0, 0, 0], &[0, 0, 1, 1]);
        let b = d.decode(&[1, 0, 0, 0], &[0, 0, 1, 1]);
        assert_eq!(a, b);
    }

    #[test]
    fn setups_delay_starts() {
        let inst = two_stage();
        let mut su = SetupMatrix::zero(2, 3);
        su.set(2, None, 0, 5); // initial setup before J0 on M2
        su.set(2, Some(0), 1, 10); // changeover J0 -> J1 on M2
        let d = FlexDecoder::new(&inst).with_setups(&su);
        let s = d.decode(&[0, 0, 1, 0], &[0, 1, 0, 1]);
        // J0 stage1 on M2: ready at 4, setup 5 (attached) -> start 9, end 12.
        // J1 stage1 on M2: ready at 2, machine free 12, setup 10 -> start 22.
        assert_eq!(s.makespan(), 27);
    }

    #[test]
    fn detached_setup_can_anticipate() {
        let inst = two_stage();
        let mut su = SetupMatrix::zero(2, 3);
        su.set(2, None, 0, 3);
        let mut cons = MachineConstraints::none(3);
        cons.setup_kind = SetupKind::Detached;
        let d = FlexDecoder::new(&inst)
            .with_setups(&su)
            .with_constraints(cons);
        let s = d.decode(&[0, 0, 1, 0], &[0, 1, 0, 1]);
        // Detached: setup runs during [0,3] while J0 is still on M0, so J0
        // stage 1 starts at max(0+3, 4) = 4 — no delay.
        let st = s
            .ops
            .iter()
            .find(|o| o.job == 0 && o.op == 1)
            .unwrap()
            .start;
        assert_eq!(st, 4);
    }

    #[test]
    fn machine_release_dates_respected() {
        let inst = two_stage();
        let mut cons = MachineConstraints::none(3);
        cons.release = vec![6, 0, 0];
        let d = FlexDecoder::new(&inst).with_constraints(cons);
        let s = d.decode(&[0, 0, 1, 0], &[0, 1, 0, 1]);
        let first_m0 = s.machine_sequence(0)[0];
        assert!(first_m0.start >= 6);
    }

    #[test]
    fn random_instances_decode_feasibly() {
        let cfg = GenConfig::new(6, 5, 3);
        for inst in [
            flexible_flow_shop(&cfg, &[2, 1, 2], false),
            flexible_job_shop(&cfg, 4, 3),
        ] {
            let d = FlexDecoder::new(&inst);
            let s = d.decode(&d.fastest_assignment(), &d.round_robin_sequence());
            s.validate_flexible(&inst).unwrap();
        }
    }

    #[test]
    fn sdst_decode_still_orders_stages() {
        let cfg = GenConfig::new(5, 4, 9);
        let inst = flexible_job_shop(&cfg, 3, 2);
        let su = sdst_matrix(5, inst.n_machines(), 1, 9, 7);
        let d = FlexDecoder::new(&inst).with_setups(&su);
        let s = d.decode(&d.fastest_assignment(), &d.round_robin_sequence());
        s.validate_flexible(&inst).unwrap();
    }
}
