//! Shop-scheduling substrate for the parallel-GA reproduction of
//! Luo & El Baz, *A Survey on Parallel Genetic Algorithms for Shop
//! Scheduling Problems* (IPPS 2018).
//!
//! This crate contains everything that is *about the problem* rather than
//! about the genetic algorithm: problem instances for the four shop
//! families the survey covers (flow shop, job shop, open shop and flexible
//! shops), seeded instance generators, a handful of classic benchmark
//! instances, schedules with feasibility validation implementing the
//! survey's Table I conditions, schedule builders ("decoders") that turn
//! chromosome-level decisions into feasible schedules, the disjunctive /
//! alternative graph machinery used for blocking job shops, and the
//! canonical optimality criteria of Section II.
//!
//! The crate is deliberately free of any GA notion; the `ga` and `pga`
//! crates build on top of it.
//!
//! # Quick tour
//!
//! ```
//! use shop::instance::generate::{flow_shop_taillard, GenConfig};
//! use shop::decoder::flow::FlowDecoder;
//!
//! // A seeded 20x5 flow-shop instance with Taillard-style U[1,99] times.
//! let inst = flow_shop_taillard(&GenConfig::new(20, 5, 42));
//! let perm: Vec<usize> = (0..20).collect();
//! let decoder = FlowDecoder::new(&inst);
//! let sched = decoder.schedule(&perm);
//! assert!(sched.validate_flow(&inst).is_ok());
//! ```

#![warn(missing_docs)]

pub mod decoder;
pub mod dynamic;
pub mod energy;
pub mod fuzzy;
pub mod gen;
pub mod graph;
pub mod instance;
pub mod objective;
pub mod schedule;
pub mod setup;
pub mod stochastic;

/// Discrete time unit used across the crate. All surveyed instances use
/// integral processing times, and integral times keep decoding exact and
/// platform independent.
pub type Time = u64;

/// Convenience result alias for fallible shop operations.
pub type ShopResult<T> = Result<T, ShopError>;

/// Errors produced by instance construction, parsing and validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShopError {
    /// A schedule violated one of the Table I feasibility conditions; the
    /// payload describes which condition and where.
    Infeasible(String),
    /// Instance data was internally inconsistent (e.g. a route names a
    /// machine that does not exist).
    BadInstance(String),
    /// Text-format parsing failed.
    Parse(String),
    /// The disjunctive graph for a tentative machine ordering contains a
    /// cycle, i.e. the ordering admits no feasible schedule.
    CyclicSelection,
}

impl std::fmt::Display for ShopError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShopError::Infeasible(m) => write!(f, "infeasible schedule: {m}"),
            ShopError::BadInstance(m) => write!(f, "bad instance: {m}"),
            ShopError::Parse(m) => write!(f, "parse error: {m}"),
            ShopError::CyclicSelection => write!(f, "cyclic disjunctive selection"),
        }
    }
}

impl std::error::Error for ShopError {}

/// Metadata shared by every shop-problem family.
///
/// The GA layers only need sizes, release/due data and weights to stay
/// generic; decoding is intentionally *not* part of this trait because the
/// decision variables differ per family (a permutation for flow shops, an
/// operation sequence for job shops, machine assignments for flexible
/// shops, ...).
pub trait Problem {
    /// Number of jobs `n`.
    fn n_jobs(&self) -> usize;
    /// Number of machines `o` (total, over all stages for flexible shops).
    fn n_machines(&self) -> usize;
    /// Number of operations (stages) of `job`.
    fn n_ops(&self, job: usize) -> usize;
    /// Release time `R_j` (Table I condition 3). Defaults to zero.
    fn release(&self, job: usize) -> Time;
    /// Due time `D_j` used by tardiness/unit-penalty criteria.
    fn due(&self, job: usize) -> Time;
    /// Weight `w_j` used by the weighted criteria of Section II.
    fn weight(&self, job: usize) -> f64;
    /// Total operation count over all jobs.
    fn total_ops(&self) -> usize {
        (0..self.n_jobs()).map(|j| self.n_ops(j)).sum()
    }
    /// Operation count of every job, in job order (the shape a
    /// repetition or dual genome is built from).
    fn ops_per_job(&self) -> Vec<usize> {
        (0..self.n_jobs()).map(|j| self.n_ops(j)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = ShopError::Infeasible("overlap on M3".into());
        assert!(e.to_string().contains("overlap on M3"));
        assert!(ShopError::CyclicSelection.to_string().contains("cyclic"));
    }
}
