//! Island (coarse-grained / multi-deme / distributed) GA — survey
//! Table V. Subpopulations evolve independently and exchange individuals
//! through a migration operator at fixed intervals.
//!
//! Supports everything the surveyed island papers vary:
//! * any [`Topology`] and [`MigrationPolicy`](crate::migration::MigrationPolicy),
//!   interval and rate;
//! * heterogeneous islands — per-island GA configs and operator toolkits
//!   (Park et al. \[26\], Bożejko & Wodecki \[30\]);
//! * per-island evaluators — the weighted bi-criteria islands of Rashidi
//!   et al. \[38\];
//! * a second, rarer broadcast level (GN ≪ LN, Harmanani et al. \[33\]);
//! * stagnation-triggered island merging (Spanos et al. \[29\]).

use crate::migration::{emigrant_indices, replacement_indices, MigrationConfig};
use crate::telemetry::RunTelemetry;
use crate::topology::Topology;
use ga::engine::{Engine, GaConfig, GaPhase, Individual, Model, Observer, Status, Toolkit};
use ga::rng::{split_seed, stream_rng};
use ga::stats::{stagnation_fraction, GenerationSample};
use ga::Evaluator;
use rand_chacha::ChaCha8Rng;

/// Island-model configuration beyond the per-island GA configs.
#[derive(Debug, Clone)]
pub struct IslandConfig {
    pub migration: MigrationConfig,
    /// Optional rare broadcast level: every `LN` generations all islands
    /// broadcast their best to all others (Harmanani \[33\]; pair with a
    /// small `migration.interval` = GN).
    pub broadcast_interval: Option<u64>,
    /// Merge an island into its ring successor when more than
    /// `merge_majority` of its individual pairs are closer than
    /// `merge_distance` (normalised Hamming) — Spanos et al. \[29\].
    pub merge_on_stagnation: Option<MergeRule>,
}

/// Stagnation-merge parameters.
#[derive(Debug, Clone, Copy)]
pub struct MergeRule {
    /// Normalised Hamming distance below which a pair counts as "same".
    pub distance: f64,
    /// Fraction of pairs that must be "same" to trigger the merge.
    pub majority: f64,
}

impl IslandConfig {
    pub fn new(migration: MigrationConfig) -> Self {
        IslandConfig {
            migration,
            broadcast_interval: None,
            merge_on_stagnation: None,
        }
    }
}

/// The island GA itself: one [`Engine`] per island.
pub struct IslandGa<'a, G> {
    engines: Vec<Engine<'a, G>>,
    active: Vec<bool>,
    config: IslandConfig,
    generation: u64,
    mig_rng: ChaCha8Rng,
    best_overall: Individual<G>,
    pub telemetry: RunTelemetry,
}

impl<'a, G: Clone + Send + Sync> IslandGa<'a, G> {
    /// Fully heterogeneous construction: one GA config, toolkit and
    /// evaluator per island. Lengths must match.
    pub fn new(
        configs: Vec<GaConfig>,
        toolkits: Vec<Toolkit<G>>,
        evaluators: Vec<&'a dyn Evaluator<G>>,
        island_config: IslandConfig,
    ) -> Self {
        let n = configs.len();
        assert!(n >= 1, "need at least one island");
        assert_eq!(toolkits.len(), n);
        assert_eq!(evaluators.len(), n);
        let seed = configs[0].seed;
        let engines: Vec<Engine<G>> = configs
            .into_iter()
            .zip(toolkits)
            .zip(evaluators)
            .map(|((cfg, tk), ev)| Engine::new(cfg, tk, ev))
            .collect();
        let best_overall = engines
            .iter()
            .map(|e| e.best())
            .min_by(|a, b| a.cost.total_cmp(&b.cost))
            .expect("non-empty")
            .clone();
        let workers = engines.len();
        let evaluations = engines.iter().map(|e| e.evaluations()).sum();
        IslandGa {
            engines,
            active: vec![true; n],
            config: island_config,
            generation: 0,
            mig_rng: stream_rng(seed, 0x004D_3147), // "M1G" stream tag
            best_overall,
            telemetry: RunTelemetry {
                workers,
                evaluations,
                ..Default::default()
            },
        }
    }

    /// Homogeneous construction: `n` islands sharing one evaluator and one
    /// toolkit factory, with per-island derived seeds so the islands start
    /// from different subpopulations.
    pub fn homogeneous<E: Evaluator<G>>(
        base: GaConfig,
        n_islands: usize,
        toolkit_factory: &dyn Fn(usize) -> Toolkit<G>,
        evaluator: &'a E,
        island_config: IslandConfig,
    ) -> Self {
        let configs: Vec<GaConfig> = (0..n_islands)
            .map(|i| {
                let mut c = base.clone();
                c.seed = split_seed(base.seed, i as u64);
                c
            })
            .collect();
        let toolkits = (0..n_islands).map(toolkit_factory).collect();
        let evaluators: Vec<&'a dyn Evaluator<G>> = (0..n_islands)
            .map(|_| evaluator as &dyn Evaluator<G>)
            .collect();
        Self::new(configs, toolkits, evaluators, island_config)
    }

    fn refresh_best(&mut self) {
        for e in &self.engines {
            if e.best().cost < self.best_overall.cost {
                self.best_overall = e.best().clone();
            }
        }
    }

    /// Number of currently active islands.
    pub fn active_islands(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }

    /// One synchronous migration event over `topology`.
    fn migrate_with(&mut self, topology: Topology, count: usize) {
        let n = self.engines.len();
        let epoch = self.generation / self.config.migration.interval.max(1);
        // Gather emigrants from the pre-migration populations.
        let mut outgoing: Vec<Vec<(usize, Individual<G>)>> = vec![Vec::new(); n]; // per destination
        for i in 0..n {
            if !self.active[i] {
                continue;
            }
            let dests: Vec<usize> = topology
                .destinations(i, n, epoch)
                .into_iter()
                .filter(|&d| self.active[d])
                .collect();
            if dests.is_empty() {
                continue;
            }
            let em = emigrant_indices(
                self.engines[i].population(),
                self.config.migration.policy,
                count,
                &mut self.mig_rng,
            );
            for &d in &dests {
                for &e in &em {
                    outgoing[d].push((i, self.engines[i].population()[e].clone()));
                    self.telemetry.migrants += 1;
                }
                self.telemetry.messages += 1;
            }
        }
        // Deliver: replacements chosen per destination.
        for (d, arrivals) in outgoing.into_iter().enumerate() {
            if arrivals.is_empty() {
                continue;
            }
            let slots = replacement_indices(
                self.engines[d].population(),
                self.config.migration.policy,
                arrivals.len(),
                &mut self.mig_rng,
            );
            for ((_, ind), slot) in arrivals.into_iter().zip(slots) {
                self.engines[d].replace(slot, ind);
            }
        }
    }

    /// Spanos-style merging: a stagnated island folds its best half into
    /// its nearest active successor and deactivates. Requires the islands'
    /// toolkits to expose `seq_view` (diversity is measured on sequences).
    fn maybe_merge(&mut self, rule: MergeRule) {
        if self.active_islands() <= 1 {
            return;
        }
        let n = self.engines.len();
        for i in 0..n {
            if !self.active[i] || self.active_islands() <= 1 {
                continue;
            }
            let Some(seqs) = self.seq_population(i) else {
                return;
            };
            if stagnation_fraction(&seqs, rule.distance) <= rule.majority {
                continue;
            }
            // Find the next active island to absorb it.
            let Some(target) = (1..n).map(|k| (i + k) % n).find(|&d| self.active[d]) else {
                continue;
            };
            let mut movers: Vec<Individual<G>> = self.engines[i].population().to_vec();
            movers.sort_by(|a, b| a.cost.total_cmp(&b.cost));
            movers.truncate(self.engines[i].population().len() / 2);
            let slots = replacement_indices(
                self.engines[target].population(),
                crate::migration::MigrationPolicy::BestReplaceWorst,
                movers.len(),
                &mut self.mig_rng,
            );
            for (ind, slot) in movers.into_iter().zip(slots) {
                self.engines[target].replace(slot, ind);
            }
            self.active[i] = false;
        }
    }

    fn seq_population(&self, island: usize) -> Option<Vec<Vec<usize>>> {
        let e = &self.engines[island];
        let view = e.seq_view()?;
        Some(e.population().iter().map(|i| view(&i.genome)).collect())
    }

    /// Best individual found so far across all islands (including merged
    /// ones).
    pub fn best(&self) -> &Individual<G> {
        &self.best_overall
    }

    /// Best individual currently held by each island (active or not) —
    /// the per-weight solutions of the Rashidi Pareto sweep.
    pub fn best_per_island(&self) -> Vec<Individual<G>> {
        self.engines.iter().map(|e| e.best().clone()).collect()
    }

    /// Read access to the underlying engines.
    pub fn engines(&self) -> &[Engine<'a, G>] {
        &self.engines
    }

    fn engine_evaluations(&self) -> u64 {
        self.engines.iter().map(Engine::evaluations).sum()
    }
}

impl<G: Clone + Send + Sync> Model<G> for IslandGa<'_, G> {
    /// Advances every active island one generation, in island order on
    /// the calling thread (the loop a fork-join step would split), then
    /// applies migration / broadcast / merging when due. When the
    /// observer wants samples, reports one per still-active island,
    /// tagged with the island id: best/mean/diversity as the island's
    /// own generation left them (before migration), evaluations and
    /// stagnation age as of the report (after migration, so a migrant
    /// that improved the island resets its age); every sample of a
    /// generation that exchanged migrants has `migration: true`. The
    /// engines share `obs` for their phase timings only, so they emit no
    /// untagged samples of their own; `Migrate` covers migration,
    /// broadcast and stagnation-merging.
    fn step(&mut self, obs: &mut dyn Observer<G>) {
        self.generation += 1;
        let best_before = self.best_overall.cost;
        let evals_before = self.engine_evaluations();
        let shared: &dyn Observer<G> = &*obs;
        self.engines
            .iter_mut()
            .zip(&self.active)
            .filter(|(_, &a)| a)
            .for_each(|(e, _)| e.evolve(shared));
        let evolved = obs.wants_samples().then(|| {
            let islands = self.engines.iter().zip(&self.active);
            islands
                .map(|(e, &a)| a.then(|| e.sample()))
                .collect::<Vec<_>>()
        });
        // An engine generation evaluates only its non-elite children,
        // so count what the engines actually evaluated.
        let evals_this_gen = self.engine_evaluations() - evals_before;
        self.telemetry.generations += 1;
        self.telemetry.evaluations += evals_this_gen;

        let tm = obs.wants_phases().then(ga::clock::now);
        let mut migrated = false;
        if self.config.migration.interval > 0
            && self
                .generation
                .is_multiple_of(self.config.migration.interval)
        {
            let topo = self.config.migration.topology;
            self.migrate_with(topo, self.config.migration.count);
            migrated = true;
        }
        if let Some(ln) = self.config.broadcast_interval {
            if ln > 0 && self.generation.is_multiple_of(ln) {
                self.migrate_with(Topology::FullyConnected, self.config.migration.count);
                migrated = true;
            }
        }
        if let Some(rule) = self.config.merge_on_stagnation {
            self.maybe_merge(rule);
        }
        if let Some(tm) = tm {
            obs.on_phase(GaPhase::Migrate, ga::clock::elapsed_since(tm));
        }
        self.refresh_best();
        if self.best_overall.cost < best_before {
            self.telemetry.improvements += 1;
        }
        for (i, s) in evolved.into_iter().flatten().enumerate() {
            // An island merged away this generation reports no sample.
            if let Some(s) = s.filter(|_| self.active[i]) {
                let e = &self.engines[i];
                obs.on_sample(GenerationSample {
                    island: Some(i as u32),
                    evaluations: e.evaluations(),
                    since_improvement: e.since_improvement(),
                    migration: migrated,
                    ..s
                });
            }
        }
    }

    fn status(&self) -> Status {
        Status {
            generation: self.generation,
            evaluations: self.telemetry.evaluations,
        }
    }

    fn best(&self) -> &Individual<G> {
        &self.best_overall
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::migration::MigrationPolicy;
    use crate::tests::{displacement, toolkit, PhaseTimes};
    use ga::crossover::PermCrossover;
    use ga::engine::run;
    use ga::mutate::SeqMutation;
    use ga::stats::History;
    use ga::termination::Termination;

    fn base_cfg(seed: u64) -> GaConfig {
        GaConfig {
            pop_size: 16,
            seed,
            ..GaConfig::default()
        }
    }

    #[test]
    fn warm_started_islands_all_start_from_the_incumbent() {
        // Each island's toolkit comes from the factory, so a factory
        // returning a warm-started toolkit seeds *every* island with
        // the incumbent — the global best starts at the incumbent's
        // cost and every island's local best is at least as good.
        let eval = |g: &Vec<usize>| displacement(g);
        let incumbent: Vec<usize> = (0..10).rev().collect();
        let incumbent_cost = displacement(&incumbent);
        let ig = IslandGa::homogeneous(
            base_cfg(2),
            4,
            &|_| toolkit(10).with_warm_start(vec![(0..10).rev().collect()], 3),
            &eval,
            IslandConfig::new(MigrationConfig::ring(5, 2)),
        );
        assert!(ig.best().cost <= incumbent_cost);
        for i in 0..4 {
            let island_best = ig.engines.get(i).map(|e| e.best().cost).expect("4 islands");
            assert!(
                island_best <= incumbent_cost,
                "island {i} did not receive the incumbent"
            );
        }
    }

    #[test]
    fn islands_run_and_improve() {
        let eval = |g: &Vec<usize>| displacement(g);
        let mut ig = IslandGa::homogeneous(
            base_cfg(1),
            4,
            &|_| toolkit(10),
            &eval,
            IslandConfig::new(MigrationConfig::ring(5, 2)),
        );
        let start = ig.best().cost;
        run(&mut ig, &Termination::Generations(40), &mut ());
        assert!(ig.best().cost < start);
        assert_eq!(ig.status().generation, 40);
        assert!(ig.telemetry.messages > 0);
        assert!(ig.telemetry.migrants >= ig.telemetry.messages);
    }

    #[test]
    fn deterministic_given_seed() {
        let eval = |g: &Vec<usize>| displacement(g);
        let once = || {
            let mut ig = IslandGa::homogeneous(
                base_cfg(9),
                3,
                &|_| toolkit(8),
                &eval,
                IslandConfig::new(MigrationConfig::ring(4, 1)),
            );
            run(&mut ig, &Termination::Generations(20), &mut ()).cost
        };
        assert_eq!(once(), once());
    }

    #[test]
    fn no_migration_when_interval_zero() {
        let eval = |g: &Vec<usize>| displacement(g);
        let mut cfg = MigrationConfig::ring(0, 2);
        cfg.policy = MigrationPolicy::BestReplaceWorst;
        let mut ig = IslandGa::homogeneous(
            base_cfg(2),
            3,
            &|_| toolkit(6),
            &eval,
            IslandConfig::new(cfg),
        );
        run(&mut ig, &Termination::Generations(10), &mut ());
        assert_eq!(ig.telemetry.messages, 0);
    }

    #[test]
    fn migration_spreads_good_individuals() {
        // Seed island 0 with the optimum; with best-replace-worst ring
        // migration every generation, all islands should hold cost 0
        // copies quickly.
        let eval = |g: &Vec<usize>| displacement(g);
        let mut ig = IslandGa::homogeneous(
            base_cfg(3),
            3,
            &|_| toolkit(8),
            &eval,
            IslandConfig::new(MigrationConfig::ring(1, 2)),
        );
        // Inject optimum into island 0 via replace.
        let opt: Vec<usize> = (0..8).collect();
        let ind = Individual {
            genome: opt,
            cost: 0.0,
        };
        // Safe: direct engine access is test-only.
        ig.engines[0].replace(0, ind);
        run(&mut ig, &Termination::Generations(6), &mut ());
        for e in ig.engines() {
            assert_eq!(e.best().cost, 0.0);
        }
    }

    #[test]
    fn broadcast_level_fires() {
        let eval = |g: &Vec<usize>| displacement(g);
        let mut ic = IslandConfig::new(MigrationConfig::ring(2, 1));
        ic.broadcast_interval = Some(6);
        let mut ig = IslandGa::homogeneous(base_cfg(4), 4, &|_| toolkit(6), &eval, ic);
        run(&mut ig, &Termination::Generations(12), &mut ());
        // Ring: 4 links/event x 6 events = 24; broadcast: 12 links x 2.
        assert_eq!(ig.telemetry.messages, 24 + 24);
    }

    #[test]
    fn merging_deactivates_stagnated_islands() {
        let eval = |_g: &Vec<usize>| 1.0; // flat landscape => fast stagnation
        let mut ic = IslandConfig::new(MigrationConfig::ring(u64::MAX, 0));
        ic.merge_on_stagnation = Some(MergeRule {
            distance: 1.1, // every pair counts as close
            majority: 0.5,
        });
        let mut ig = IslandGa::homogeneous(base_cfg(5), 4, &|_| toolkit(5), &eval, ic);
        run(&mut ig, &Termination::Generations(3), &mut ());
        assert!(
            ig.active_islands() < 4,
            "stagnated islands should have merged"
        );
        assert!(ig.active_islands() >= 1);
    }

    #[test]
    fn termination_stops_on_target_and_stagnation() {
        let eval = |g: &Vec<usize>| displacement(g);
        let mut ig = IslandGa::homogeneous(
            base_cfg(12),
            3,
            &|_| toolkit(6),
            &eval,
            IslandConfig::new(MigrationConfig::ring(3, 1)),
        );
        let t = Termination::Any(vec![
            Termination::TargetCost(0.0),
            Termination::Stagnation(30),
            Termination::Generations(500),
        ]);
        run(&mut ig, &t, &mut ());
        // Tiny instance: expect the optimum before the generation cap.
        assert!(ig.status().generation < 500);
    }

    #[test]
    fn heterogeneous_islands_use_their_own_operators() {
        let eval = |g: &Vec<usize>| displacement(g);
        let configs: Vec<GaConfig> = (0..3)
            .map(|i| GaConfig {
                pop_size: 12,
                seed: split_seed(7, i),
                ..GaConfig::default()
            })
            .collect();
        let toolkits: Vec<Toolkit<Vec<usize>>> = (0..3)
            .map(|i| {
                let op = PermCrossover::ALL[i % PermCrossover::ALL.len()];
                Toolkit::permutation(8, op, SeqMutation::Shift)
            })
            .collect();
        let evals: Vec<&dyn Evaluator<Vec<usize>>> = vec![&eval, &eval, &eval];
        let mut ig = IslandGa::new(
            configs,
            toolkits,
            evals,
            IslandConfig::new(MigrationConfig::ring(5, 1)),
        );
        let start = ig.best().cost;
        run(&mut ig, &Termination::Generations(30), &mut ());
        assert!(ig.best().cost <= start);
    }

    #[test]
    fn sampled_run_tags_islands_and_marks_migrations() {
        let eval = |g: &Vec<usize>| displacement(g);
        let mut ig = IslandGa::homogeneous(
            base_cfg(21),
            3,
            &|_| toolkit(8),
            &eval,
            IslandConfig::new(MigrationConfig::ring(4, 1)),
        );
        let mut rec = History::default();
        run(&mut ig, &Termination::Generations(12), &mut rec);
        let samples = rec.samples;
        // One sample per active island per generation.
        assert_eq!(samples.len(), 12 * 3);
        for (k, s) in samples.iter().enumerate() {
            assert_eq!(s.island, Some((k % 3) as u32));
            assert_eq!(s.generation, (k / 3 + 1) as u64);
            assert!(s.evaluations > 0);
            assert!(s.best_cost <= s.mean_cost);
            assert!((0.0..=1.0).contains(&s.diversity));
            // Ring interval 4: migration marks exactly on gens 4, 8, 12.
            assert_eq!(s.migration, s.generation % 4 == 0);
        }
        // Each island samples its own engine, so per-island diversity is
        // real (random permutations start diverse).
        assert!(samples[0].diversity > 0.0);
    }

    #[test]
    fn profiled_island_run_is_bit_identical_and_times_migration() {
        let eval = |g: &Vec<usize>| displacement(g);
        let build = || {
            IslandGa::homogeneous(
                base_cfg(23),
                3,
                &|_| toolkit(8),
                &eval,
                IslandConfig::new(MigrationConfig::ring(2, 1)),
            )
        };
        let t = Termination::Generations(10);
        let mut bare = build();
        run(&mut bare, &t, &mut ());
        let mut profiled = build();
        let mut times = PhaseTimes::default();
        run(&mut profiled, &t, &mut times);

        assert_eq!(bare.best().cost, profiled.best().cost);
        assert_eq!(bare.best().genome, profiled.best().genome);
        assert!(times.ns(GaPhase::Evaluate) > 0);
        // Migration is timed every generation (the check itself is
        // part of the phase), so the counter must have ticked.
        assert!(times.ns(GaPhase::Migrate) > 0);
    }

    #[test]
    fn telemetry_counts_the_evaluations_the_engines_ran() {
        // With elites, an engine generation evaluates only its
        // pop_size - elites children: the island telemetry must sum
        // what the engines really evaluated, not their population sizes.
        let eval = |g: &Vec<usize>| displacement(g);
        let cfg = GaConfig {
            elites: 2,
            ..base_cfg(24)
        };
        let mut ig = IslandGa::homogeneous(
            cfg,
            3,
            &|_| toolkit(8),
            &eval,
            IslandConfig::new(MigrationConfig::ring(3, 1)),
        );
        let initial = ig.telemetry.evaluations;
        for _ in 0..9 {
            let before = ig.telemetry.evaluations;
            ig.step(&mut ());
            assert_eq!(ig.telemetry.evaluations - before, 3 * 14);
        }
        assert_eq!(ig.telemetry.evaluations, initial + 9 * 3 * 14);
        let engines: u64 = ig.engines().iter().map(Engine::evaluations).sum();
        assert_eq!(ig.telemetry.evaluations, engines);
    }
}
