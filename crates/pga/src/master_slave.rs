//! Master-slave (global) parallel GA — survey Table III.
//!
//! The master keeps the single population and runs selection, crossover
//! and mutation; slaves evaluate fitness in parallel. Because evaluation
//! is pure, the parallel run is *bit-identical* to the sequential one
//! with the same seed — the survey's footnote that master-slave "is the
//! only one that does not affect the behavior of the algorithm" is a
//! testable property here.
//!
//! Three variants:
//! * [`RayonEvaluator`] — drop-in parallel evaluator (shared-memory
//!   slaves, the GPU-style fan-out of AitZai \[14\] / Somani \[16\]);
//! * [`BatchedEvaluator`] — the master-scheduler/unassigned-queue model
//!   of Akhshabi et al. \[18\]: individuals are dispatched in fixed-size
//!   batches, and batch counts are recorded for the cost model;
//! * [`DistributedSlavesGa`] — Mui et al. \[17\]: each slave runs the *full*
//!   GA on its own stream and the master keeps the global optimum.

use ga::engine::{run, Engine, GaConfig, Individual, Toolkit};
use ga::rng::split_seed;
use ga::termination::Termination;
use ga::Evaluator;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// Wraps any evaluator so batches are mapped in parallel with rayon.
#[derive(Clone)]
pub struct RayonEvaluator<E> {
    inner: E,
}

impl<E> RayonEvaluator<E> {
    pub fn new(inner: E) -> Self {
        RayonEvaluator { inner }
    }
}

// The wrapped evaluator is usually a closure, so Debug is implemented by
// hand rather than derived (a `E: Debug` bound would exclude closures).
impl<E> std::fmt::Debug for RayonEvaluator<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RayonEvaluator")
            .field("inner", &std::any::type_name::<E>())
            .finish()
    }
}

impl<G: Sync, E: Evaluator<G>> Evaluator<G> for RayonEvaluator<E> {
    fn cost(&self, genome: &G) -> f64 {
        self.inner.cost(genome)
    }

    fn cost_batch(&self, genomes: &[G]) -> Vec<f64> {
        genomes.par_iter().map(|g| self.inner.cost(g)).collect()
    }
}

/// Akhshabi-style batched dispatch: the master partitions the unassigned
/// queue into batches of `batch_size` and hands each batch to a slave.
/// Batch structure (count and sizes) is recorded so the `hpc` model can
/// price the per-batch communication.
pub struct BatchedEvaluator<E> {
    inner: E,
    batch_size: usize,
    batches_dispatched: AtomicU64,
}

impl<E> std::fmt::Debug for BatchedEvaluator<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchedEvaluator")
            .field("inner", &std::any::type_name::<E>())
            .field("batch_size", &self.batch_size)
            .field("batches_dispatched", &self.batches())
            .finish()
    }
}

impl<E> BatchedEvaluator<E> {
    pub fn new(inner: E, batch_size: usize) -> Self {
        assert!(batch_size >= 1);
        BatchedEvaluator {
            inner,
            batch_size,
            batches_dispatched: AtomicU64::new(0),
        }
    }

    /// Number of batches dispatched so far.
    pub fn batches(&self) -> u64 {
        self.batches_dispatched.load(Ordering::Relaxed)
    }

    pub fn batch_size(&self) -> usize {
        self.batch_size
    }
}

impl<G: Sync, E: Evaluator<G>> Evaluator<G> for BatchedEvaluator<E> {
    fn cost(&self, genome: &G) -> f64 {
        self.inner.cost(genome)
    }

    fn cost_batch(&self, genomes: &[G]) -> Vec<f64> {
        let n_batches = genomes.len().div_ceil(self.batch_size) as u64;
        self.batches_dispatched
            .fetch_add(n_batches, Ordering::Relaxed);
        genomes
            .par_chunks(self.batch_size)
            .flat_map_iter(|chunk| chunk.iter().map(|g| self.inner.cost(g)))
            .collect()
    }
}

/// Mui et al. \[17\]: the slaves run the complete GA (selection, crossover,
/// mutation *and* evaluation) on independent populations; the master only
/// gathers their best results and keeps the global optimum. Unlike the
/// island model there is no migration — slaves never communicate.
pub struct DistributedSlavesGa<G> {
    results: Vec<Individual<G>>,
    pub total_evaluations: u64,
}

impl<G: Clone + Send + Sync> DistributedSlavesGa<G> {
    /// Runs `n_slaves` independent GAs (seeded from `base_config.seed`)
    /// in parallel and collects each slave's best individual.
    pub fn run<E: Evaluator<G> + Sync>(
        base_config: &GaConfig,
        toolkit_factory: &(dyn Fn() -> Toolkit<G> + Sync),
        evaluator: &E,
        n_slaves: usize,
        termination: &Termination,
    ) -> Self {
        assert!(n_slaves >= 1);
        let runs: Vec<(Individual<G>, u64)> = (0..n_slaves)
            .into_par_iter()
            .map(|slave| {
                let mut cfg = base_config.clone();
                cfg.seed = split_seed(base_config.seed, slave as u64);
                let mut engine = Engine::new(cfg, toolkit_factory(), evaluator);
                let best = run(&mut engine, termination, &mut ());
                (best, engine.evaluations())
            })
            .collect();
        let total_evaluations = runs.iter().map(|(_, e)| e).sum();
        DistributedSlavesGa {
            results: runs.into_iter().map(|(b, _)| b).collect(),
            total_evaluations,
        }
    }

    /// The master's global optimum over the slaves' results.
    pub fn global_best(&self) -> &Individual<G> {
        self.results
            .iter()
            .min_by(|a, b| a.cost.total_cmp(&b.cost))
            .expect("at least one slave")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ga::crossover::PermCrossover;
    use ga::mutate::SeqMutation;
    use ga::stats::History;
    use ga::termination::Termination;

    fn displacement(p: &[usize]) -> f64 {
        p.iter()
            .enumerate()
            .map(|(i, &v)| (i as f64 - v as f64).abs())
            .sum()
    }

    fn toolkit(n: usize) -> Toolkit<Vec<usize>> {
        Toolkit::permutation(n, PermCrossover::Pmx, SeqMutation::Shift)
    }

    #[test]
    fn warm_started_master_slave_starts_at_the_incumbent() {
        // The warm-start API threads through the master-slave model
        // untouched: the parallel evaluator sees the seeded population
        // and the initial best is the incumbent (here: the optimum).
        let parallel = RayonEvaluator::new(|g: &Vec<usize>| displacement(g));
        let cfg = GaConfig {
            pop_size: 24,
            seed: 7,
            ..GaConfig::default()
        };
        let incumbent: Vec<usize> = (0..12).collect();
        let tk = toolkit(12).with_warm_start(vec![incumbent.clone()], 6);
        let engine = Engine::new(cfg, tk, &parallel);
        assert_eq!(engine.best().cost, 0.0);
        assert_eq!(engine.best().genome, incumbent);
    }

    #[test]
    fn parallel_evaluation_is_bit_identical_to_sequential() {
        // The survey's master-slave equivalence property.
        let sequential = |g: &Vec<usize>| displacement(g);
        let parallel = RayonEvaluator::new(|g: &Vec<usize>| displacement(g));
        let cfg = GaConfig {
            pop_size: 30,
            seed: 99,
            ..GaConfig::default()
        };
        let mut a = Engine::new(cfg.clone(), toolkit(10), &sequential);
        let mut b = Engine::new(cfg, toolkit(10), &parallel);
        let term = Termination::Generations(20);
        let (mut history_a, mut history_b) = (History::default(), History::default());
        let best_a = run(&mut a, &term, &mut history_a);
        let best_b = run(&mut b, &term, &mut history_b);
        assert_eq!(best_a.cost, best_b.cost);
        assert_eq!(best_a.genome, best_b.genome);
        // Entire history matches, not just the endpoint.
        assert_eq!(history_a, history_b);
    }

    #[test]
    fn batched_evaluator_counts_batches_and_matches_costs() {
        let batched = BatchedEvaluator::new(|g: &Vec<usize>| displacement(g), 8);
        let genomes: Vec<Vec<usize>> = (0..20).map(|k| vec![k, 0, 1]).collect();
        let costs = batched.cost_batch(&genomes);
        let direct: Vec<f64> = genomes.iter().map(|g| displacement(g)).collect();
        assert_eq!(costs, direct);
        assert_eq!(batched.batches(), 3); // ceil(20 / 8)
    }

    #[test]
    fn distributed_slaves_global_best_is_min() {
        let eval = |g: &Vec<usize>| displacement(g);
        let cfg = GaConfig {
            pop_size: 16,
            seed: 7,
            ..GaConfig::default()
        };
        let out = DistributedSlavesGa::run(
            &cfg,
            &|| toolkit(8),
            &eval,
            4,
            &Termination::Generations(10),
        );
        let best = out.global_best().cost;
        for r in &out.results {
            assert!(best <= r.cost);
        }
        assert_eq!(out.results.len(), 4);
        assert!(out.total_evaluations > 0);
    }

    #[test]
    fn distributed_slaves_deterministic() {
        let eval = |g: &Vec<usize>| displacement(g);
        let cfg = GaConfig {
            pop_size: 12,
            seed: 3,
            ..GaConfig::default()
        };
        let run = || {
            DistributedSlavesGa::run(&cfg, &|| toolkit(6), &eval, 3, &Termination::Generations(8))
                .global_best()
                .cost
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn more_slaves_explore_at_least_as_well_in_expectation() {
        // Not a theorem per-seed, but with the same per-slave budget the
        // 6-slave master keeps the min of 6 runs vs 1 run: must be <=.
        let eval = |g: &Vec<usize>| displacement(g);
        let cfg = GaConfig {
            pop_size: 12,
            seed: 555,
            ..GaConfig::default()
        };
        let term = Termination::Generations(6);
        let one = DistributedSlavesGa::run(&cfg, &|| toolkit(10), &eval, 1, &term);
        let six = DistributedSlavesGa::run(&cfg, &|| toolkit(10), &eval, 6, &term);
        // Slave 0 of the 6-run uses the same seed as the single run.
        assert!(six.global_best().cost <= one.global_best().cost);
    }
}
