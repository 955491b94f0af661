//! Hybrid parallel models (Lin, Goodman & Punch \[21\]):
//!
//! 1. [`IslandsOfCellular`] — an island GA whose subpopulations are
//!    *cellular grids* (a ring of toruses): migration on the ring is much
//!    less frequent than the within-torus neighbourhood diffusion.
//! 2. `cellular_style_islands` — an island GA whose (many, small) islands
//!    are wired in a torus topology, i.e. islands connected "in a
//!    fine-grained GA style"; Lin et al. found this hybrid produced the
//!    best solutions. This is a configuration of [`IslandGa`], provided
//!    here as a constructor.

use crate::cellular::{CellularConfig, CellularGa};
use crate::island::{IslandConfig, IslandGa};
use crate::migration::{MigrationConfig, MigrationPolicy};
use crate::telemetry::RunTelemetry;
use crate::topology::Topology;
use ga::engine::{GaConfig, GaPhase, Individual, Model, Observer, Status, Toolkit};
use ga::rng::{split_seed, stream_rng};
use ga::stats::GenerationSample;
use ga::Evaluator;
use rand_chacha::ChaCha8Rng;

/// Model 1: a ring of cellular toruses.
pub struct IslandsOfCellular<'a, G> {
    grids: Vec<CellularGa<'a, G>>,
    /// Generations between ring migrations (≫ 1: the survey notes ring
    /// migration is "much less frequent than within the torus").
    ring_interval: u64,
    migrants_per_event: usize,
    generation: u64,
    mig_rng: ChaCha8Rng,
    /// Best individual over all toruses (the first torus wins ties).
    best: Individual<G>,
    pub telemetry: RunTelemetry,
}

impl<'a, G: Clone + Send + Sync> IslandsOfCellular<'a, G> {
    pub fn new<E: Evaluator<G>>(
        n_islands: usize,
        grid: CellularConfig,
        toolkit_factory: &dyn Fn(usize) -> Toolkit<G>,
        evaluator: &'a E,
        ring_interval: u64,
        migrants_per_event: usize,
    ) -> Self {
        assert!(n_islands >= 1);
        let grids: Vec<CellularGa<G>> = (0..n_islands)
            .map(|i| {
                let mut cfg = grid.clone();
                cfg.seed = split_seed(grid.seed, i as u64);
                CellularGa::new(cfg, toolkit_factory(i), evaluator)
            })
            .collect();
        let workers: usize = grids.iter().map(|g| g.grid().len()).sum();
        let evaluations = grids.iter().map(|g| g.telemetry.evaluations).sum();
        IslandsOfCellular {
            best: best_of(&grids).clone(),
            grids,
            ring_interval: ring_interval.max(1),
            migrants_per_event,
            generation: 0,
            mig_rng: stream_rng(grid.seed, 0x48_59_42), // "HYB"
            telemetry: RunTelemetry {
                workers,
                evaluations,
                ..Default::default()
            },
        }
    }

    pub fn best(&self) -> &Individual<G> {
        &self.best
    }

    pub fn grids(&self) -> &[CellularGa<'a, G>] {
        &self.grids
    }

    fn grid_evaluations(&self) -> u64 {
        self.grids.iter().map(|g| g.telemetry.evaluations).sum()
    }
}

/// The best of the toruses' bests, the first torus winning ties.
fn best_of<'g, G: Clone + Send + Sync>(grids: &'g [CellularGa<'_, G>]) -> &'g Individual<G> {
    grids
        .iter()
        .map(|g| g.best())
        .min_by(|a, b| a.cost.total_cmp(&b.cost))
        .expect("at least one torus")
}

impl<G: Clone + Send + Sync> Model<G> for IslandsOfCellular<'_, G> {
    /// One global generation: every torus steps once, in torus order on
    /// the calling thread; on ring epochs the best individuals of each
    /// torus replace random cells of the next torus on the ring (timed
    /// as `Migrate`). When the observer wants
    /// samples, reports one per torus as its own generation left it
    /// (before migration), tagged with the torus index as its `island`,
    /// with `migration: true` on ring epochs.
    fn step(&mut self, obs: &mut dyn Observer<G>) {
        self.generation += 1;
        let best_before = self.best.cost;
        let evals_before = self.grid_evaluations();
        let shared: &dyn Observer<G> = &*obs;
        self.grids.iter_mut().for_each(|g| g.evolve(shared));
        let n = self.grids.len();
        let migrated = n > 1 && self.generation.is_multiple_of(self.ring_interval);
        // Migrants change neither a torus's evaluations nor its
        // stagnation age, so its sample can go out before migration.
        if obs.wants_samples() {
            for (i, g) in self.grids.iter().enumerate() {
                obs.on_sample(GenerationSample {
                    island: Some(i as u32),
                    migration: migrated,
                    ..g.sample()
                });
            }
        }
        let evals_this_gen = self.grid_evaluations() - evals_before;
        self.telemetry.generations += 1;
        self.telemetry.evaluations += evals_this_gen;
        let tm = obs.wants_phases().then(ga::clock::now);
        if migrated {
            let emigrants: Vec<Individual<G>> =
                self.grids.iter().map(|g| g.best().clone()).collect();
            for (i, em) in emigrants.into_iter().enumerate() {
                let dest = (i + 1) % n;
                for _ in 0..self.migrants_per_event {
                    use rand::Rng;
                    let cell = self.mig_rng.gen_range(0..self.grids[dest].grid().len());
                    self.grids[dest].replace(cell, em.clone());
                    self.telemetry.migrants += 1;
                }
                self.telemetry.messages += 1;
            }
        }
        if let Some(tm) = tm {
            obs.on_phase(GaPhase::Migrate, ga::clock::elapsed_since(tm));
        }
        self.best = best_of(&self.grids).clone();
        if self.best.cost < best_before {
            self.telemetry.improvements += 1;
        }
    }

    fn status(&self) -> Status {
        Status {
            generation: self.generation,
            evaluations: self.telemetry.evaluations,
        }
    }

    fn best(&self) -> &Individual<G> {
        &self.best
    }
}

/// Model 2: many small islands wired as a torus — the hybrid Lin et al.
/// found best. Returns a ready-to-run [`IslandGa`].
pub fn cellular_style_islands<'a, G, E>(
    base: GaConfig,
    rows: usize,
    cols: usize,
    toolkit_factory: &dyn Fn(usize) -> Toolkit<G>,
    evaluator: &'a E,
    interval: u64,
    migrants: usize,
) -> IslandGa<'a, G>
where
    G: Clone + Send + Sync,
    E: Evaluator<G>,
{
    let mut mig = MigrationConfig::ring(interval, migrants);
    mig.topology = Topology::Torus2D { cols };
    mig.policy = MigrationPolicy::BestReplaceRandom;
    IslandGa::homogeneous(
        base,
        rows * cols,
        toolkit_factory,
        evaluator,
        IslandConfig::new(mig),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{displacement, toolkit};
    use ga::engine::run;
    use ga::termination::Termination;

    #[test]
    fn islands_of_cellular_improves_and_migrates() {
        let eval = |g: &Vec<usize>| displacement(g);
        let mut h = IslandsOfCellular::new(
            3,
            CellularConfig::new(3, 3, 5),
            &|_| toolkit(8),
            &eval,
            4,
            1,
        );
        let start = h.best().cost;
        run(&mut h, &Termination::Generations(12), &mut ());
        assert!(h.best().cost <= start);
        // 12 generations / interval 4 = 3 events x 3 islands.
        assert_eq!(h.telemetry.messages, 9);
    }

    #[test]
    fn islands_of_cellular_deterministic() {
        let eval = |g: &Vec<usize>| displacement(g);
        let once = || {
            let mut h = IslandsOfCellular::new(
                2,
                CellularConfig::new(3, 3, 9),
                &|_| toolkit(6),
                &eval,
                3,
                1,
            );
            run(&mut h, &Termination::Generations(9), &mut ()).cost
        };
        assert_eq!(once(), once());
    }

    #[test]
    fn islands_of_cellular_counts_evaluations() {
        // Two 3x3 toruses: 18 evaluations at construction and 18 per
        // generation, so an evaluation budget of 100 stops after 5 (the
        // generation cap only turns a miscount into a failure, not a hang).
        let eval = |g: &Vec<usize>| displacement(g);
        let mut h = IslandsOfCellular::new(
            2,
            CellularConfig::new(3, 3, 4),
            &|_| toolkit(6),
            &eval,
            3,
            1,
        );
        assert_eq!(h.telemetry.evaluations, 18);
        let budget = Termination::Any(vec![
            Termination::Evaluations(100),
            Termination::Generations(50),
        ]);
        run(&mut h, &budget, &mut ());
        assert_eq!(h.telemetry.generations, 5);
        assert_eq!(h.telemetry.evaluations, 18 + 5 * 18);
        let grids: u64 = h.grids().iter().map(|g| g.telemetry.evaluations).sum();
        assert_eq!(h.telemetry.evaluations, grids);
    }

    #[test]
    fn cellular_style_islands_runs() {
        let eval = |g: &Vec<usize>| displacement(g);
        let base = GaConfig {
            pop_size: 8,
            seed: 2,
            ..GaConfig::default()
        };
        let mut ig = cellular_style_islands(base, 2, 3, &|_| toolkit(7), &eval, 2, 1);
        let start = ig.best().cost;
        run(&mut ig, &Termination::Generations(10), &mut ());
        assert!(ig.best().cost <= start);
        // Torus 2x3: every island has neighbours, so messages flowed.
        assert!(ig.telemetry.messages > 0);
    }
}
