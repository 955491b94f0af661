//! Schedules and feasibility validation.
//!
//! A [`Schedule`] is the common output of every decoder: a set of
//! scheduled operations with start/end times. [`Schedule::validate_core`]
//! and the per-family wrappers enforce the survey's Table I conditions:
//!
//! 1. each operation is processed by exactly one machine;
//! 2. each machine processes at most one operation at a time;
//! 3. jobs only start after their release time;
//! 4. (relaxed when an explicit setup matrix is supplied) no setup times;
//! 5. infinite intermediate storage — except in *blocking* shops, where
//!    the graph module enforces the stronger no-buffer semantics.

use crate::instance::{FlexibleInstance, FlowShopInstance, JobShopInstance, OpenShopInstance};
use crate::{Problem, ShopError, ShopResult, Time};

/// One scheduled operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledOp {
    /// Job index.
    pub job: usize,
    /// Stage index within the job (route position for flow/job shops,
    /// machine index position for open shops).
    pub op: usize,
    /// Machine the operation runs on.
    pub machine: usize,
    /// Start time.
    pub start: Time,
    /// End time (`start` + processing time).
    pub end: Time,
}

/// A complete schedule: one entry per operation of the instance.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schedule {
    /// The scheduled operations, in any order.
    pub ops: Vec<ScheduledOp>,
}

impl Schedule {
    /// A schedule from its operation list.
    pub fn new(ops: Vec<ScheduledOp>) -> Self {
        Schedule { ops }
    }

    /// Completion time `C_j` of every job (index = job id).
    pub fn completion_times(&self, n_jobs: usize) -> Vec<Time> {
        let mut c = vec![0; n_jobs];
        for op in &self.ops {
            c[op.job] = c[op.job].max(op.end);
        }
        c
    }

    /// Makespan `Cmax` — the latest completion.
    pub fn makespan(&self) -> Time {
        self.ops.iter().map(|o| o.end).max().unwrap_or(0)
    }

    /// Start time of the whole schedule (usually 0).
    pub fn start_time(&self) -> Time {
        self.ops.iter().map(|o| o.start).min().unwrap_or(0)
    }

    /// Ops scheduled on `machine`, ordered by start time.
    pub fn machine_sequence(&self, machine: usize) -> Vec<ScheduledOp> {
        let mut v: Vec<ScheduledOp> = self
            .ops
            .iter()
            .copied()
            .filter(|o| o.machine == machine)
            .collect();
        v.sort_by_key(|o| (o.start, o.end));
        v
    }

    /// Core Table I validation, shared by all families:
    /// exactly `expected_ops` operations with `end = start + duration > start`,
    /// machine exclusivity (condition 2), per-job non-overlap, and release
    /// times (condition 3).
    ///
    /// `op_duration(job, op, machine)` must return the required duration
    /// of the operation on the machine it was placed on, or `None` when
    /// the placement is illegal (wrong machine) — this implements
    /// condition 1.
    pub fn validate_core(
        &self,
        problem: &dyn Problem,
        op_duration: &dyn Fn(usize, usize, usize) -> Option<Time>,
    ) -> ShopResult<()> {
        let expected: usize = problem.total_ops();
        if self.ops.len() != expected {
            return Err(ShopError::Infeasible(format!(
                "schedule has {} ops, instance requires {expected}",
                self.ops.len()
            )));
        }

        // Condition 1: each operation appears exactly once, on a legal
        // machine, with the exact required duration.
        let mut seen = vec![false; expected];
        let mut offsets = vec![0usize; problem.n_jobs() + 1];
        for j in 0..problem.n_jobs() {
            offsets[j + 1] = offsets[j] + problem.n_ops(j);
        }
        for op in &self.ops {
            if op.job >= problem.n_jobs() || op.op >= problem.n_ops(op.job) {
                return Err(ShopError::Infeasible(format!(
                    "unknown operation ({}, {})",
                    op.job, op.op
                )));
            }
            let idx = offsets[op.job] + op.op;
            if seen[idx] {
                return Err(ShopError::Infeasible(format!(
                    "operation ({}, {}) scheduled twice",
                    op.job, op.op
                )));
            }
            seen[idx] = true;
            match op_duration(op.job, op.op, op.machine) {
                None => {
                    return Err(ShopError::Infeasible(format!(
                        "operation ({}, {}) placed on illegal machine {}",
                        op.job, op.op, op.machine
                    )))
                }
                Some(d) => {
                    if op.end != op.start + d {
                        return Err(ShopError::Infeasible(format!(
                            "operation ({}, {}) has span {}..{} but duration {d}",
                            op.job, op.op, op.start, op.end
                        )));
                    }
                }
            }
            // Condition 3: release dates.
            if op.start < problem.release(op.job) {
                return Err(ShopError::Infeasible(format!(
                    "job {} starts at {} before release {}",
                    op.job,
                    op.start,
                    problem.release(op.job)
                )));
            }
        }

        // Condition 2: machine exclusivity.
        for m in 0..problem.n_machines() {
            let seq = self.machine_sequence(m);
            for w in seq.windows(2) {
                if w[1].start < w[0].end {
                    return Err(ShopError::Infeasible(format!(
                        "overlap on M{m}: ({},{}) [{}..{}] vs ({},{}) [{}..{}]",
                        w[0].job,
                        w[0].op,
                        w[0].start,
                        w[0].end,
                        w[1].job,
                        w[1].op,
                        w[1].start,
                        w[1].end
                    )));
                }
            }
        }

        // Per-job exclusivity: a job is on at most one machine at a time.
        for j in 0..problem.n_jobs() {
            let mut seq: Vec<&ScheduledOp> = self.ops.iter().filter(|o| o.job == j).collect();
            seq.sort_by_key(|o| (o.start, o.end));
            for w in seq.windows(2) {
                if w[1].start < w[0].end {
                    return Err(ShopError::Infeasible(format!(
                        "job {j} processed on two machines at once ({}..{} vs {}..{})",
                        w[0].start, w[0].end, w[1].start, w[1].end
                    )));
                }
            }
        }
        Ok(())
    }

    /// Validates against a flow-shop instance: core conditions plus the
    /// fixed technological order `machine s` at stage `s`.
    pub fn validate_flow(&self, inst: &FlowShopInstance) -> ShopResult<()> {
        self.validate_core(inst, &|j, s, m| (m == s).then(|| inst.proc(j, s)))?;
        self.check_stage_order(inst)
    }

    /// Validates against a job-shop instance: core conditions plus each
    /// job's technological route order.
    pub fn validate_job(&self, inst: &JobShopInstance) -> ShopResult<()> {
        self.validate_core(inst, &|j, s, m| {
            let op = inst.op(j, s);
            (op.machine == m).then_some(op.duration)
        })?;
        self.check_stage_order(inst)
    }

    /// Validates against an open-shop instance: core conditions; stage `s`
    /// is interpreted as "the visit to machine `s`", with no order
    /// constraint between stages (open routing).
    pub fn validate_open(&self, inst: &OpenShopInstance) -> ShopResult<()> {
        self.validate_core(inst, &|j, s, m| (m == s).then(|| inst.proc(j, s)))
    }

    /// Validates against a flexible instance: core conditions (machine
    /// must be one of the eligible choices with its exact duration) plus
    /// route order.
    pub fn validate_flexible(&self, inst: &FlexibleInstance) -> ShopResult<()> {
        self.validate_core(inst, &|j, s, m| {
            inst.op(j, s)
                .choices
                .iter()
                .find(|&&(cm, _)| cm == m)
                .map(|&(_, d)| d)
        })?;
        self.check_stage_order(inst)
    }

    /// Checks that within each job, stage `s+1` starts no earlier than
    /// stage `s` ends (technological precedence).
    fn check_stage_order(&self, problem: &dyn Problem) -> ShopResult<()> {
        let mut per_job: Vec<Vec<Option<(Time, Time)>>> = (0..problem.n_jobs())
            .map(|j| vec![None; problem.n_ops(j)])
            .collect();
        for op in &self.ops {
            per_job[op.job][op.op] = Some((op.start, op.end));
        }
        for (j, stages) in per_job.iter().enumerate() {
            for s in 1..stages.len() {
                let (prev, cur) = (stages[s - 1], stages[s]);
                if let (Some((_, pe)), Some((cs, _))) = (prev, cur) {
                    if cs < pe {
                        return Err(ShopError::Infeasible(format!(
                            "job {j}: stage {s} starts {cs} before stage {} ends {pe}",
                            s - 1
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// Renders a small ASCII Gantt chart (one row per machine), mostly for
    /// examples and debugging.
    pub fn gantt(&self, n_machines: usize, width: usize) -> String {
        let mk = self.makespan().max(1);
        let scale = width as f64 / mk as f64;
        let mut out = String::new();
        for m in 0..n_machines {
            let mut row = vec![b'.'; width];
            for op in self.ops.iter().filter(|o| o.machine == m) {
                let a = (op.start as f64 * scale) as usize;
                let b = ((op.end as f64 * scale) as usize).min(width);
                let label = b'A' + (op.job % 26) as u8;
                for cell in row.iter_mut().take(b).skip(a) {
                    *cell = label;
                }
            }
            out.push_str(&format!("M{m:02} |{}|\n", String::from_utf8_lossy(&row)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{JobMeta, Op};

    fn flow2() -> FlowShopInstance {
        FlowShopInstance::new(vec![vec![3, 2], vec![1, 4]]).unwrap()
    }

    fn sched_ok() -> Schedule {
        // Permutation (0, 1) on the flow2 instance.
        Schedule::new(vec![
            ScheduledOp {
                job: 0,
                op: 0,
                machine: 0,
                start: 0,
                end: 3,
            },
            ScheduledOp {
                job: 0,
                op: 1,
                machine: 1,
                start: 3,
                end: 5,
            },
            ScheduledOp {
                job: 1,
                op: 0,
                machine: 0,
                start: 3,
                end: 4,
            },
            ScheduledOp {
                job: 1,
                op: 1,
                machine: 1,
                start: 5,
                end: 9,
            },
        ])
    }

    #[test]
    fn valid_flow_schedule_passes() {
        assert!(sched_ok().validate_flow(&flow2()).is_ok());
        assert_eq!(sched_ok().makespan(), 9);
        assert_eq!(sched_ok().completion_times(2), vec![5, 9]);
    }

    #[test]
    fn machine_overlap_detected() {
        let mut s = sched_ok();
        s.ops[2].start = 2; // overlaps job 0 on machine 0
        s.ops[2].end = 3;
        assert!(matches!(
            s.validate_flow(&flow2()),
            Err(ShopError::Infeasible(_))
        ));
    }

    #[test]
    fn wrong_duration_detected() {
        let mut s = sched_ok();
        s.ops[0].end = 4;
        assert!(s.validate_flow(&flow2()).is_err());
    }

    #[test]
    fn missing_op_detected() {
        let mut s = sched_ok();
        s.ops.pop();
        assert!(s.validate_flow(&flow2()).is_err());
    }

    #[test]
    fn duplicate_op_detected() {
        let mut s = sched_ok();
        s.ops[3] = s.ops[2];
        assert!(s.validate_flow(&flow2()).is_err());
    }

    #[test]
    fn stage_order_violation_detected() {
        let mut s = sched_ok();
        // Move job 0 stage 1 before stage 0 completes.
        s.ops[1].start = 1;
        s.ops[1].end = 3;
        assert!(s.validate_flow(&flow2()).is_err());
    }

    #[test]
    fn release_dates_enforced() {
        let meta = JobMeta {
            release: vec![0, 5],
            due: vec![Time::MAX; 2],
            weight: vec![1.0; 2],
        };
        let inst = FlowShopInstance::with_meta(vec![vec![3, 2], vec![1, 4]], meta).unwrap();
        assert!(sched_ok().validate_flow(&inst).is_err());
    }

    #[test]
    fn job_validation_checks_route_machine() {
        let inst = JobShopInstance::new(vec![
            vec![Op::new(0, 3), Op::new(1, 2)],
            vec![Op::new(1, 2), Op::new(0, 4)],
        ])
        .unwrap();
        let s = Schedule::new(vec![
            ScheduledOp {
                job: 0,
                op: 0,
                machine: 0,
                start: 0,
                end: 3,
            },
            ScheduledOp {
                job: 0,
                op: 1,
                machine: 1,
                start: 3,
                end: 5,
            },
            ScheduledOp {
                job: 1,
                op: 0,
                machine: 1,
                start: 0,
                end: 2,
            },
            ScheduledOp {
                job: 1,
                op: 1,
                machine: 0,
                start: 3,
                end: 7,
            },
        ]);
        assert!(s.validate_job(&inst).is_ok());

        let mut bad = s.clone();
        bad.ops[2].machine = 0; // job 1 op 0 belongs on machine 1
        assert!(bad.validate_job(&inst).is_err());
    }

    #[test]
    fn job_simultaneity_detected() {
        // A job cannot run on two machines at once even if machines are free.
        let inst = JobShopInstance::new(vec![vec![Op::new(0, 3), Op::new(1, 2)]]).unwrap();
        let s = Schedule::new(vec![
            ScheduledOp {
                job: 0,
                op: 0,
                machine: 0,
                start: 0,
                end: 3,
            },
            ScheduledOp {
                job: 0,
                op: 1,
                machine: 1,
                start: 1,
                end: 3,
            },
        ]);
        assert!(s.validate_job(&inst).is_err());
    }

    #[test]
    fn gantt_renders() {
        let g = sched_ok().gantt(2, 18);
        assert!(g.contains("M00"));
        assert!(g.contains('A'));
        assert!(g.contains('B'));
    }
}
