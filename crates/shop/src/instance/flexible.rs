//! Flexible shop instances: at least one stage offers a *choice* of
//! parallel machines (survey Section II). Covers both the flexible flow
//! shop (every job passes the stages in the same order; each stage is a
//! bank of parallel machines, possibly unrelated — Belkadi \[37\],
//! Rashidi \[38\]) and the flexible job shop (per-job routes with eligible
//! machine sets — Defersha & Chen \[36\]), plus the lot-streaming extension
//! of Defersha & Chen \[35\] where each job's batch is split into unequal
//! consistent sublots.

use super::JobMeta;
use crate::{Problem, ShopError, ShopResult, Time};

/// One flexible operation: the set of eligible `(machine, duration)`
/// alternatives. With unrelated parallel machines the durations differ
/// per machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlexOp {
    /// Eligible alternatives, each `(machine index, processing time)`.
    pub choices: Vec<(usize, Time)>,
}

impl FlexOp {
    /// Creates a flexible operation; at least one choice is required and
    /// all durations must be positive.
    pub fn new(choices: Vec<(usize, Time)>) -> ShopResult<Self> {
        if choices.is_empty() {
            return Err(ShopError::BadInstance(
                "operation with no eligible machine".into(),
            ));
        }
        if choices.iter().any(|&(_, d)| d == 0) {
            return Err(ShopError::BadInstance("zero processing time".into()));
        }
        Ok(FlexOp { choices })
    }

    /// Index of the fastest eligible alternative.
    pub fn fastest_choice(&self) -> usize {
        self.choices
            .iter()
            .enumerate()
            .min_by_key(|(_, &(_, d))| d)
            .map(|(k, _)| k)
            .expect("non-empty by construction")
    }
}

/// A flexible shop instance (flow- or job-shop structured routes; the
/// difference is only in how the routes were built).
#[derive(Debug, Clone, PartialEq)]
pub struct FlexibleInstance {
    jobs: Vec<Vec<FlexOp>>,
    n_machines: usize,
    /// Release / due / weight data.
    pub meta: JobMeta,
}

impl FlexibleInstance {
    /// Builds an instance from explicit per-job flexible routes.
    pub fn new(jobs: Vec<Vec<FlexOp>>) -> ShopResult<Self> {
        if jobs.is_empty() || jobs.iter().any(|r| r.is_empty()) {
            return Err(ShopError::BadInstance("empty job route".into()));
        }
        let n_machines = jobs
            .iter()
            .flatten()
            .flat_map(|op| op.choices.iter().map(|&(m, _)| m))
            .max()
            .map(|m| m + 1)
            .unwrap_or(0);
        let n = jobs.len();
        Ok(FlexibleInstance {
            jobs,
            n_machines,
            meta: JobMeta::neutral(n),
        })
    }

    /// Builds a *flexible flow shop*: `stage_machines[s]` lists the
    /// machines of stage `s` and `proc[j][s][k]` gives the processing
    /// time of job `j` on the `k`-th machine of stage `s` (unrelated
    /// machines). Every job passes stages in order.
    pub fn flexible_flow(
        stage_machines: &[Vec<usize>],
        proc: &[Vec<Vec<Time>>],
    ) -> ShopResult<Self> {
        if stage_machines.is_empty() {
            return Err(ShopError::BadInstance("no stages".into()));
        }
        let mut jobs = Vec::with_capacity(proc.len());
        for (j, job_rows) in proc.iter().enumerate() {
            if job_rows.len() != stage_machines.len() {
                return Err(ShopError::BadInstance(format!(
                    "job {j}: {} stage rows, expected {}",
                    job_rows.len(),
                    stage_machines.len()
                )));
            }
            let mut route = Vec::with_capacity(job_rows.len());
            for (s, durs) in job_rows.iter().enumerate() {
                if durs.len() != stage_machines[s].len() {
                    return Err(ShopError::BadInstance(format!(
                        "job {j} stage {s}: duration count mismatch"
                    )));
                }
                let choices = stage_machines[s]
                    .iter()
                    .copied()
                    .zip(durs.iter().copied())
                    .collect();
                route.push(FlexOp::new(choices)?);
            }
            jobs.push(route);
        }
        Self::new(jobs)
    }

    /// Explicit metadata variant of [`new`](Self::new).
    pub fn with_meta(jobs: Vec<Vec<FlexOp>>, meta: JobMeta) -> ShopResult<Self> {
        let mut inst = Self::new(jobs)?;
        if meta.release.len() != inst.n_jobs()
            || meta.due.len() != inst.n_jobs()
            || meta.weight.len() != inst.n_jobs()
        {
            return Err(ShopError::BadInstance("meta length mismatch".into()));
        }
        inst.meta = meta;
        Ok(inst)
    }

    /// The `s`-th flexible operation of `job`.
    #[inline]
    pub fn op(&self, job: usize, s: usize) -> &FlexOp {
        &self.jobs[job][s]
    }

    /// Full flexible route of `job`.
    #[inline]
    pub fn route(&self, job: usize) -> &[FlexOp] {
        &self.jobs[job]
    }

    /// Most eligible machines of any operation: the range of a dual
    /// genome's assignment genes.
    pub fn max_choices(&self) -> usize {
        self.jobs
            .iter()
            .flatten()
            .map(|op| op.choices.len())
            .max()
            .unwrap_or(1)
    }

    /// Lower bound: longest job route using fastest alternatives.
    pub fn makespan_lower_bound(&self) -> Time {
        self.jobs
            .iter()
            .map(|r| {
                r.iter()
                    .map(|op| op.choices.iter().map(|&(_, d)| d).min().unwrap_or(0))
                    .sum::<Time>()
            })
            .max()
            .unwrap_or(0)
    }

    /// Flat `(job, op_index)` listing in job order.
    pub fn all_ops(&self) -> Vec<(usize, usize)> {
        let mut v = Vec::with_capacity(self.total_ops());
        for (j, route) in self.jobs.iter().enumerate() {
            for s in 0..route.len() {
                v.push((j, s));
            }
        }
        v
    }
}

impl Problem for FlexibleInstance {
    fn n_jobs(&self) -> usize {
        self.jobs.len()
    }
    fn n_machines(&self) -> usize {
        self.n_machines
    }
    fn n_ops(&self, job: usize) -> usize {
        self.jobs[job].len()
    }
    fn release(&self, job: usize) -> Time {
        self.meta.release[job]
    }
    fn due(&self, job: usize) -> Time {
        self.meta.due[job]
    }
    fn weight(&self, job: usize) -> f64 {
        self.meta.weight[job]
    }
}

/// Lot-streaming configuration (Defersha & Chen \[35\]): each job is a batch
/// of identical items split into a fixed number of *unequal consistent
/// sublots* that flow through the job's route independently.
#[derive(Debug, Clone, PartialEq)]
pub struct LotStreaming {
    /// `batch[j]` = number of items in job `j`'s batch.
    pub batch: Vec<u32>,
    /// `sublots[j]` = number of sublots job `j` is split into (>= 1).
    pub sublots: Vec<u32>,
}

impl LotStreaming {
    /// Uniform configuration: every job has the same batch size and sublot
    /// count.
    pub fn uniform(n_jobs: usize, batch: u32, sublots: u32) -> Self {
        assert!(sublots >= 1 && batch >= sublots, "batch must cover sublots");
        LotStreaming {
            batch: vec![batch; n_jobs],
            sublots: vec![sublots; n_jobs],
        }
    }

    /// Expands `inst` so that every sublot becomes its own job. Sublot
    /// item counts come from `fractions[j]` (one fraction per sublot,
    /// summing to 1.0); processing times scale with the item count,
    /// where the per-item time is `duration / batch` (rounded up, min 1).
    ///
    /// Returns the expanded instance and a map `sublot -> original job`.
    pub fn expand(
        &self,
        inst: &FlexibleInstance,
        fractions: &[Vec<f64>],
    ) -> ShopResult<(FlexibleInstance, Vec<usize>)> {
        if fractions.len() != inst.n_jobs() {
            return Err(ShopError::BadInstance("fractions per job mismatch".into()));
        }
        let mut jobs = Vec::new();
        let mut origin = Vec::new();
        for j in 0..inst.n_jobs() {
            let fr = &fractions[j];
            if fr.len() != self.sublots[j] as usize {
                return Err(ShopError::BadInstance(format!(
                    "job {j}: {} fractions for {} sublots",
                    fr.len(),
                    self.sublots[j]
                )));
            }
            let sum: f64 = fr.iter().sum();
            if (sum - 1.0).abs() > 1e-6 || fr.iter().any(|&f| f <= 0.0) {
                return Err(ShopError::BadInstance(format!(
                    "job {j}: sublot fractions must be positive and sum to 1"
                )));
            }
            let batch = self.batch[j] as f64;
            for &f in fr {
                let items = (batch * f).max(1.0);
                let route = inst
                    .route(j)
                    .iter()
                    .map(|op| {
                        let choices = op
                            .choices
                            .iter()
                            .map(|&(m, d)| {
                                let per_item = d as f64 / batch;
                                let scaled = (per_item * items).ceil().max(1.0) as Time;
                                (m, scaled)
                            })
                            .collect();
                        FlexOp::new(choices)
                    })
                    .collect::<ShopResult<Vec<_>>>()?;
                jobs.push(route);
                origin.push(j);
            }
        }
        let expanded = FlexibleInstance::new(jobs)?;
        Ok((expanded, origin))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_stage() -> FlexibleInstance {
        // 2 jobs, stage 0 = machines {0,1}, stage 1 = machine {2}.
        FlexibleInstance::flexible_flow(
            &[vec![0, 1], vec![2]],
            &[vec![vec![4, 6], vec![3]], vec![vec![2, 2], vec![5]]],
        )
        .unwrap()
    }

    #[test]
    fn flexible_flow_construction() {
        let inst = two_stage();
        assert_eq!(inst.n_jobs(), 2);
        assert_eq!(inst.n_machines(), 3);
        assert_eq!(inst.op(0, 0).choices, vec![(0, 4), (1, 6)]);
        assert_eq!(inst.op(0, 0).fastest_choice(), 0);
        assert_eq!(inst.ops_per_job(), vec![2, 2]);
        assert_eq!(inst.max_choices(), 2);
    }

    #[test]
    fn bounds() {
        let inst = two_stage();
        assert_eq!(inst.makespan_lower_bound(), 7); // job 0: 4+3, job 1: 2+5
    }

    #[test]
    fn empty_choice_rejected() {
        assert!(FlexOp::new(vec![]).is_err());
        assert!(FlexOp::new(vec![(0, 0)]).is_err());
    }

    #[test]
    fn lot_streaming_expansion() {
        let inst = two_stage();
        let lots = LotStreaming::uniform(2, 10, 2);
        let fr = vec![vec![0.3, 0.7], vec![0.5, 0.5]];
        let (big, origin) = lots.expand(&inst, &fr).unwrap();
        assert_eq!(big.n_jobs(), 4);
        assert_eq!(origin, vec![0, 0, 1, 1]);
        // Job 0 stage 0 machine 0: 4 time units for 10 items ->
        // 0.4/item; sublot of 3 items -> ceil(1.2) = 2.
        assert_eq!(big.op(0, 0).choices[0], (0, 2));
        // Sublot of 7 items -> ceil(2.8) = 3.
        assert_eq!(big.op(1, 0).choices[0], (0, 3));
    }

    #[test]
    fn lot_streaming_bad_fractions() {
        let inst = two_stage();
        let lots = LotStreaming::uniform(2, 10, 2);
        assert!(lots
            .expand(&inst, &[vec![0.5, 0.6], vec![0.5, 0.5]])
            .is_err());
        assert!(lots.expand(&inst, &[vec![1.0], vec![0.5, 0.5]]).is_err());
    }
}
