//! Sequential genetic-algorithm engine for shop scheduling.
//!
//! Implements the survey's Table II "simple GA" with the full operator
//! catalogue its Section III cites: fitness transforms (Eq. 1 and Eq. 2),
//! selection (roulette wheel, stochastic universal sampling, k-way
//! tournament, rank, elitist-roulette), crossover and mutation families
//! for permutation, repetition-permutation, random-key and dual-genome
//! encodings, elitism, the immigration scheme of Huang et al.
//! \[24\], termination criteria, diversity statistics, hill-climbing local
//! search with the Redirect step of Rashidi et al. \[38\], and the
//! quantum-inspired machinery of Gu et al. \[28\].
//!
//! The engine is generic over a genome type and an *evaluator*; batching
//! evaluation behind [`Evaluator`] is what lets the `pga` crate drop in a
//! master-slave parallel evaluator without changing the algorithm
//! (the survey notes the master-slave model "is the only one that does
//! not affect the behavior of the algorithm").

pub mod clock;
pub mod crossover;
pub mod dual;
pub mod engine;
pub mod fitness;
pub mod local_search;
pub mod mutate;
pub mod quantum;
pub mod rng;
pub mod select;
pub mod stats;
pub mod termination;

pub use engine::{run, Engine, GaConfig, GaPhase, Individual, Model, Observer, Toolkit};
pub use fitness::FitnessTransform;
pub use select::Selection;
pub use termination::Termination;

/// Batch evaluator abstraction: maps genomes to *costs* (minimised).
///
/// The default `cost_batch` evaluates in index order on the calling
/// thread, and so does every implementation in the workspace (`pga`'s
/// `BatchedEvaluator` only counts its batches). `cost_batch` is the seam
/// where a fork-join evaluator would fan a batch out. Implementations
/// must be pure (same genome, same cost) so that any batching or
/// parallel evaluation preserves GA behaviour bit-for-bit.
pub trait Evaluator<G>: Sync {
    /// Cost (objective value, lower is better) of one genome.
    fn cost(&self, genome: &G) -> f64;

    /// Costs of a batch; the default maps sequentially.
    fn cost_batch(&self, genomes: &[G]) -> Vec<f64> {
        genomes.iter().map(|g| self.cost(g)).collect()
    }
}

impl<G, F: Fn(&G) -> f64 + Sync> Evaluator<G> for F {
    fn cost(&self, genome: &G) -> f64 {
        self(genome)
    }
}
