//! Parallel genetic-algorithm models for shop scheduling — the survey's
//! Section III taxonomy, implemented over the sequential engine of the
//! `ga` crate:
//!
//! * [`master_slave`] — Table III: one panmictic population whose
//!   fitness batch is the slaves' share of the work, plus the
//!   batched-queue variant of Akhshabi \[18\] and the "slaves run whole
//!   GAs" variant of Mui et al. \[17\].
//! * [`cellular`] — Table IV: the fine-grained / neighbourhood /
//!   diffusion model of Tamaki \[20\] on a 2-D torus.
//! * [`island`] — Table V: coarse-grained subpopulations with migration;
//!   heterogeneous islands, stagnation-triggered merging (Spanos \[29\])
//!   and weighted multi-objective islands (Rashidi \[38\]).
//! * [`topology`] / [`migration`] — the island interconnects (ring, grid,
//!   torus, hypercube, star, fully connected, broadcast, random-epoch,
//!   two-level) and replacement policies the surveyed papers sweep.
//! * [`hybrid`] — Lin et al. \[21\]'s two hybrid models (islands of
//!   cellular grids; island sets wired in a cellular-style topology).
//!
//! What runs: every model steps its islands, cells and slaves in index
//! order on the calling thread. The seams where fork-join parallelism
//! would go are `ga::Evaluator::cost_batch` (the master-slave fan-out)
//! and the per-island, per-cell, per-torus and per-slave loops of
//! [`IslandGa`], [`CellularGa`], [`IslandsOfCellular`] and
//! [`DistributedSlavesGa`]; the `Send` / `Sync` bounds on the models
//! are there for them.
//!
//! Determinism: every model takes a single `u64` seed and derives
//! independent per-worker streams with `ga::rng::split_seed`, so a
//! worker's draws never depend on the order workers run in. Master-slave
//! evaluation in any batching is bit-identical to sequential evaluation
//! with the same seed (the survey's defining property of the model);
//! island and cellular models are deterministic but — as the survey
//! stresses — *do* change the algorithm's trajectory relative to the
//! panmictic GA.

pub mod cellular;
pub mod hybrid;
pub mod island;
pub mod master_slave;
pub mod migration;
pub mod telemetry;
pub mod topology;

// Facade re-exports: every type a downstream consumer (notably the
// `serve` crate's portfolio) needs to configure, run and observe the
// parallel models is available at the crate root — reaching into the
// modules is never required for the public surface.
pub use cellular::{CellularConfig, CellularGa, NeighborhoodShape};
pub use hybrid::{cellular_style_islands, IslandsOfCellular};
pub use island::{IslandConfig, IslandGa, MergeRule};
pub use master_slave::{BatchedEvaluator, DistributedSlavesGa};
pub use migration::{MigrationConfig, MigrationPolicy};
pub use telemetry::{Instrumented, RequestTelemetry, RunTelemetry};
pub use topology::Topology;

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ga::crossover::PermCrossover;
    use ga::engine::{run, Engine, GaConfig, GaPhase, Observer, Toolkit};
    use ga::mutate::SeqMutation;
    use ga::stats::History;
    use ga::termination::Termination;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    /// Accumulates phase nanoseconds through `&self`, as the observer
    /// an island model shares among its engines must.
    #[derive(Default)]
    pub(crate) struct PhaseTimes([AtomicU64; 4]);

    impl PhaseTimes {
        pub(crate) fn ns(&self, phase: GaPhase) -> u64 {
            self.0[phase as usize].load(Ordering::Relaxed)
        }
    }

    impl<G> Observer<G> for PhaseTimes {
        fn wants_phases(&self) -> bool {
            true
        }

        fn on_phase(&self, phase: GaPhase, d: Duration) {
            self.0[phase as usize].fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
        }
    }

    /// Total displacement of a permutation from the identity; its
    /// optimum is 0 at the identity.
    pub(crate) fn displacement(p: &[usize]) -> f64 {
        p.iter()
            .enumerate()
            .map(|(i, &v)| (i as f64 - v as f64).abs())
            .sum()
    }

    /// The flow/open-shop permutation bundle over `n` positions.
    pub(crate) fn toolkit(n: usize) -> Toolkit<Vec<usize>> {
        Toolkit::permutation(n, PermCrossover::Order, SeqMutation::Swap)
    }

    /// Runs three fresh models from `build` — bare, recording samples,
    /// and recording phase times — and checks that observation changed
    /// nothing: same best cost and genome, same whole `RunTelemetry`.
    fn observers_are_passive<M: Instrumented<Vec<usize>>>(name: &str, build: impl Fn() -> M) {
        let t = Termination::Generations(12);
        let mut bare = build();
        let best = run(&mut bare, &t, &mut ());
        let mut sampled = build();
        let mut rec = History::default();
        let best_sampled = run(&mut sampled, &t, &mut rec);
        let mut phased = build();
        let times = &mut PhaseTimes::default();
        let best_phased = run(&mut phased, &t, times);
        for (other, mode) in [(&best_sampled, "sampled"), (&best_phased, "phased")] {
            assert_eq!(best.cost, other.cost, "{name}: {mode} cost differs");
            assert_eq!(best.genome, other.genome, "{name}: {mode} genome differs");
        }
        assert_eq!(bare.telemetry(), sampled.telemetry(), "{name}: sampled");
        assert_eq!(bare.telemetry(), phased.telemetry(), "{name}: phased");
        // Each run recorded what it was asked for.
        assert!(rec.samples.len() >= 12, "{name}: samples");
        assert_eq!(rec.bests.len() as u64, bare.telemetry().improvements + 1);
        assert!(times.ns(GaPhase::Evaluate) > 0, "{name}: evaluate time");
    }

    #[test]
    fn observers_never_change_any_model() {
        let eval = |g: &Vec<usize>| displacement(g);
        let per_island = |_: usize| toolkit(9);
        let cfg = GaConfig {
            pop_size: 16,
            seed: 22,
            ..GaConfig::default()
        };
        observers_are_passive("engine", || Engine::new(cfg.clone(), toolkit(9), &eval));
        observers_are_passive("island", || {
            IslandGa::homogeneous(
                cfg.clone(),
                3,
                &per_island,
                &eval,
                IslandConfig::new(MigrationConfig::ring(3, 1)),
            )
        });
        observers_are_passive("cellular", || {
            CellularGa::new(CellularConfig::new(4, 4, 22), toolkit(9), &eval)
        });
        observers_are_passive("islands_of_cellular", || {
            IslandsOfCellular::new(2, CellularConfig::new(3, 3, 22), &per_island, &eval, 3, 1)
        });
    }
}
