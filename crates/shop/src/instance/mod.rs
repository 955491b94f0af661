//! Problem-instance types for the four shop families of the survey's
//! Section II, plus generators and classic benchmark data.

pub mod classic;
pub mod flexible;
pub mod flow;
pub mod generate;
pub mod hash;
pub mod job;
pub mod open;
pub mod parse;

pub use flexible::{FlexOp, FlexibleInstance, LotStreaming};
pub use flow::FlowShopInstance;
pub use hash::CanonicalHash;
pub use job::JobShopInstance;
pub use open::OpenShopInstance;

use crate::Time;

/// One operation of a job: a (machine, duration) pair. In the survey's
/// notation this is `(j, s, m)` with processing time `P_jsm`; the job and
/// stage indices are implicit in the containing collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Op {
    /// Machine index in `0..n_machines`.
    pub machine: usize,
    /// Processing time `P_jsm` (> 0 for real operations).
    pub duration: Time,
}

impl Op {
    /// Creates an operation; panics on zero duration, which would break
    /// the strict-progress assumptions of the decoders.
    pub fn new(machine: usize, duration: Time) -> Self {
        assert!(duration > 0, "operation duration must be positive");
        Op { machine, duration }
    }
}

/// Per-job metadata shared by all instance kinds: release time `R_j`,
/// due time `D_j` and weight `w_j`.
#[derive(Debug, Clone, PartialEq)]
pub struct JobMeta {
    /// Release time `R_j` per job.
    pub release: Vec<Time>,
    /// Due time `D_j` per job.
    pub due: Vec<Time>,
    /// Weight `w_j` per job.
    pub weight: Vec<f64>,
}

impl JobMeta {
    /// Neutral metadata: zero releases, "infinite" due dates, unit weights.
    pub fn neutral(n_jobs: usize) -> Self {
        JobMeta {
            release: vec![0; n_jobs],
            due: vec![Time::MAX; n_jobs],
            weight: vec![1.0; n_jobs],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_duration_rejected() {
        let _ = Op::new(0, 0);
    }

    #[test]
    fn neutral_meta_shape() {
        let m = JobMeta::neutral(4);
        assert_eq!(m.release, vec![0; 4]);
        assert_eq!(m.weight.len(), 4);
    }
}
