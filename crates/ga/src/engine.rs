//! The sequential GA engine (survey Table II):
//!
//! ```text
//! initialize();
//! while (termination criteria are not satisfied) {
//!     Generation++;
//!     Selection(); Crossover(); Mutation(); FitnessValueEvaluation();
//! }
//! ```
//!
//! The engine is generic over the genome type `G` via a [`Toolkit`] of
//! operator closures, and over evaluation via [`crate::Evaluator`] — the
//! seam the master-slave model plugs into. All randomness flows through
//! one seeded RNG owned by the engine, so a run is reproducible and, in
//! particular, *identical* under sequential and parallel evaluation (the
//! survey's defining property of the master-slave model).

use crate::crossover::keys::keys_to_permutation;
use crate::crossover::{KeysCrossover, PermCrossover, RepCrossover};
use crate::dual::DualGenome;
use crate::fitness::FitnessTransform;
use crate::mutate::{gaussian_keys, SeqMutation};
use crate::rng::root_rng;
use crate::select::Selection;
use crate::stats::GenerationSample;
use crate::termination::{Progress, Termination};
use crate::Evaluator;
use rand::seq::SliceRandom;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::time::Duration;

/// Fresh-random-genome constructor.
pub type InitFn<G> = dyn Fn(&mut ChaCha8Rng) -> G + Send + Sync;
/// Two parents to two children.
pub type CrossoverFn<G> = dyn Fn(&G, &G, &mut ChaCha8Rng) -> (G, G) + Send + Sync;
/// In-place mutation.
pub type MutateFn<G> = dyn Fn(&mut G, &mut ChaCha8Rng) + Send + Sync;
/// Integer-sequence view of a genome (diversity telemetry).
pub type SeqView<G> = dyn Fn(&G) -> Vec<usize> + Send + Sync;

/// Operator bundle for genome type `G`.
pub struct Toolkit<G> {
    /// Fresh random genome.
    pub init: Box<InitFn<G>>,
    /// Two parents to two children.
    pub crossover: Box<CrossoverFn<G>>,
    /// In-place mutation.
    pub mutate: Box<MutateFn<G>>,
    /// Optional integer-sequence view used for diversity telemetry.
    pub seq_view: Option<Box<SeqView<G>>>,
}

impl<G: Clone + Send + Sync + 'static> Toolkit<G> {
    /// First-class warm start: returns a toolkit whose first
    /// `seeds.len()` initial genomes are the given incumbents
    /// *verbatim*, the next `mutated_clones` are mutated clones of them
    /// (cycling through the seeds, perturbed with this toolkit's own
    /// mutation operator and the caller's RNG stream), and the rest
    /// come from the original random `init` — the standard population
    /// seeding for incremental re-solves, where an incumbent solution
    /// (e.g. the pre-disruption schedule in dynamic rescheduling) is
    /// known to be near-optimal and the GA should start *at* it rather
    /// than rediscover it.
    ///
    /// Placement is tracked with an internal counter, so the warm
    /// genomes land wherever the consuming model initialises its first
    /// individuals (engine population slots, cellular grid cells, one
    /// batch per island when each island receives its own warm-started
    /// toolkit from a factory). Construction-time init order is
    /// deterministic in every model of this workspace, which keeps
    /// warm-started runs seed-reproducible. The guarantee that matters
    /// downstream: with at least one seed and elitism (or any
    /// best-so-far tracking), the model's initial best cost is at most
    /// the best seed's cost.
    ///
    /// Because construction fills population slots in order, an
    /// evaluator sees the seeds first and their mutated clones
    /// immediately after — see the evaluation-order contract on
    /// [`Engine::new`].
    ///
    /// ```
    /// use ga::engine::{Engine, GaConfig, Toolkit};
    /// use rand::Rng;
    ///
    /// // Minimise the number of `true` bits; the all-false incumbent is
    /// // already optimal.
    /// let toolkit = Toolkit::<Vec<bool>> {
    ///     init: Box::new(|rng| (0..16).map(|_| rng.gen_bool(0.5)).collect()),
    ///     crossover: Box::new(|a, _b, _| (a.clone(), a.clone())),
    ///     mutate: Box::new(|g, rng| {
    ///         let i = rng.gen_range(0..g.len());
    ///         g[i] = !g[i];
    ///     }),
    ///     seq_view: None,
    /// }
    /// .with_warm_start(vec![vec![false; 16]], 4);
    /// let eval = |g: &Vec<bool>| g.iter().filter(|&&b| b).count() as f64;
    /// let engine = Engine::new(GaConfig::default(), toolkit, &eval);
    /// assert_eq!(engine.best().cost, 0.0);
    /// ```
    pub fn with_warm_start(self, seeds: Vec<G>, mutated_clones: usize) -> Toolkit<G> {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let Toolkit {
            init,
            crossover,
            mutate,
            seq_view,
        } = self;
        if seeds.is_empty() {
            // Nothing to seed: keep the toolkit untouched (no counter,
            // no indirection on the hot operators).
            return Toolkit {
                init,
                crossover,
                mutate,
                seq_view,
            };
        }
        let mutate: Arc<MutateFn<G>> = Arc::from(mutate);
        let init_mutate = Arc::clone(&mutate);
        let seeds = Arc::new(seeds);
        let handed_out = Arc::new(AtomicUsize::new(0));
        Toolkit {
            init: Box::new(move |rng| {
                let k = handed_out.fetch_add(1, Ordering::Relaxed);
                if k < seeds.len() {
                    return seeds[k].clone();
                }
                if k < seeds.len() + mutated_clones {
                    let mut g = seeds[k % seeds.len()].clone();
                    (init_mutate)(&mut g, rng);
                    return g;
                }
                (init)(rng)
            }),
            crossover,
            mutate: Box::new(move |g, rng| (mutate)(g, rng)),
            seq_view,
        }
    }
}

// The workspace's genome bundles live here and nowhere else: the serve
// path, the experiments, the examples and the test goldens all build
// through these constructors, so a change to one bundle moves every
// caller (and every golden) at once.

impl Toolkit<Vec<usize>> {
    /// Strict permutations of `0..n` (flow shops, open-shop operation
    /// orders, session suffixes): a shuffled `0..n`, the given operators,
    /// and the identity sequence view.
    pub fn permutation(n: usize, crossover: PermCrossover, mutation: SeqMutation) -> Self {
        Toolkit {
            init: Box::new(move |rng| {
                let mut p: Vec<usize> = (0..n).collect();
                p.shuffle(rng);
                p
            }),
            crossover: Box::new(move |a, b, rng| crossover.apply(a, b, rng)),
            mutate: Box::new(move |g, rng| mutation.apply(g, rng)),
            seq_view: Some(Box::new(|g: &Vec<usize>| g.clone())),
        }
    }

    /// Operation sequences (permutation with repetition, job shops): job
    /// `j` appears `ops_per_job[j]` times, grouped by job and then
    /// shuffled; the identity sequence view.
    pub fn repetition(
        ops_per_job: Vec<usize>,
        crossover: RepCrossover,
        mutation: SeqMutation,
    ) -> Self {
        let n_jobs = ops_per_job.len();
        Toolkit {
            init: Box::new(move |rng| {
                let mut seq = Vec::with_capacity(ops_per_job.iter().sum());
                for (j, &k) in ops_per_job.iter().enumerate() {
                    seq.extend(std::iter::repeat_n(j, k));
                }
                seq.shuffle(rng);
                seq
            }),
            crossover: Box::new(move |a, b, rng| crossover.apply(a, b, n_jobs, rng)),
            mutate: Box::new(move |g, rng| mutation.apply(g, rng)),
            seq_view: Some(Box::new(|g: &Vec<usize>| g.clone())),
        }
    }
}

impl Toolkit<DualGenome> {
    /// Dual assignment+sequencing genomes (flexible shops):
    /// [`DualGenome::random`] init, its crossover and mutation, and the
    /// sequencing part as the sequence view.
    pub fn dual(ops_per_job: Vec<usize>, max_choices: usize) -> Self {
        let n_jobs = ops_per_job.len();
        Toolkit {
            init: Box::new(move |rng| DualGenome::random(&ops_per_job, max_choices, rng)),
            crossover: Box::new(move |a, b, rng| DualGenome::crossover(a, b, n_jobs, rng)),
            mutate: Box::new(move |g, rng| g.mutate(max_choices, rng)),
            seq_view: Some(Box::new(|g: &DualGenome| g.seq.clone())),
        }
    }
}

impl Toolkit<Vec<f64>> {
    /// Random-key vectors of length `len`: uniform `[0, 1)` keys,
    /// Gaussian key mutation, and the keys' sort order as the sequence
    /// view.
    pub fn random_keys(len: usize, crossover: KeysCrossover) -> Self {
        Toolkit {
            init: Box::new(move |rng| (0..len).map(|_| rng.gen::<f64>()).collect()),
            crossover: Box::new(move |a, b, rng| crossover.apply(a, b, rng)),
            mutate: Box::new(|g, rng| gaussian_keys(g, 0.1, 0.2, rng)),
            seq_view: Some(Box::new(|g: &Vec<f64>| keys_to_permutation(g))),
        }
    }
}

/// GA hyper-parameters.
#[derive(Debug, Clone)]
pub struct GaConfig {
    pub pop_size: usize,
    /// Probability a selected pair is crossed (else copied).
    pub crossover_rate: f64,
    /// Probability each child is mutated.
    pub mutation_rate: f64,
    /// Individuals carried over unchanged ("elitist strategy").
    pub elites: usize,
    /// Fraction of each generation regenerated randomly — the `c%`
    /// immigration of Huang et al. \[24\]. Usually 0.
    pub immigration_rate: f64,
    pub selection: Selection,
    pub fitness: FitnessTransform,
    pub seed: u64,
}

impl Default for GaConfig {
    fn default() -> Self {
        GaConfig {
            pop_size: 60,
            crossover_rate: 0.9,
            mutation_rate: 0.2,
            elites: 2,
            immigration_rate: 0.0,
            selection: Selection::Tournament(3),
            fitness: FitnessTransform::PopulationGap,
            seed: 0xC0FFEE,
        }
    }
}

/// A genome with its cached cost.
#[derive(Debug, Clone)]
pub struct Individual<G> {
    pub genome: G,
    pub cost: f64,
}

/// Search phase an [`Observer`] attributes time to — the profiler's
/// view of one generation. `Breed` covers crossover *and* mutation (one
/// pipeline stage on the hot path); evaluation is the master-slave
/// fan-out seam; `Migrate` only fires for island models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GaPhase {
    /// Parent selection (tournament/roulette picks).
    Select,
    /// Crossover and mutation of the selected parents.
    Breed,
    /// Fitness evaluation of the bred children.
    Evaluate,
    /// Inter-island individual exchange (island models only).
    Migrate,
}

/// Progress counters a [`Model`] reports to [`run`] between
/// generations.
#[derive(Debug, Clone, Copy)]
pub struct Status {
    /// Generations stepped since construction.
    pub generation: u64,
    /// Fitness evaluations since construction.
    pub evaluations: u64,
}

/// A generational search model: one Table II loop body. [`Engine`],
/// [`QuantumGa`](crate::quantum::QuantumGa) and every `pga` model
/// implement it, and [`run`] drives any of them.
pub trait Model<G> {
    /// Runs one generation, reporting its convergence samples when
    /// [`Observer::wants_samples`] asks and its phase timings when
    /// [`Observer::wants_phases`] asks. A model keeps no per-generation
    /// record of its own.
    fn step(&mut self, obs: &mut dyn Observer<G>);
    /// Counters the termination criteria are checked against.
    fn status(&self) -> Status;
    /// Best individual found so far.
    fn best(&self) -> &Individual<G>;
}

/// A passive watcher of a [`run`]. Every method defaults to a no-op, so
/// `&mut ()` is the bare observer. Nothing a model decides ever reads
/// from its observer (the RNG streams never see it), so an observed run
/// is bit-identical to a bare one. `Sync` because an island model hands
/// one shared reference to all of its engines: they step in island
/// order on one thread today, and a fork-join island step would have
/// them report phase timings concurrently.
pub trait Observer<G>: Sync {
    /// The best-so-far when a run starts, and after every strict
    /// improvement.
    fn on_best(&mut self, _best: &Individual<G>) {}
    /// One per-generation convergence sample (one per island for
    /// island models); only called when
    /// [`wants_samples`](Self::wants_samples) says so.
    fn on_sample(&mut self, _sample: GenerationSample) {}
    /// True when models should build samples for
    /// [`on_sample`](Self::on_sample). A sample costs a pass over the
    /// population (and, for diversity, a `seq_view` of every genome),
    /// so models build one only when this says so.
    fn wants_samples(&self) -> bool {
        false
    }
    /// True when models should time their phases for
    /// [`on_phase`](Self::on_phase). Models read [`crate::clock`] for
    /// phase timing only when this says so.
    fn wants_phases(&self) -> bool {
        false
    }
    /// One phase's accumulated duration within one generation.
    fn on_phase(&self, _phase: GaPhase, _d: Duration) {}
}

impl<G> Observer<G> for () {}

/// The generational loop of survey Table II, shared by every model:
/// steps `model` until `termination` fires and returns its best
/// individual. `obs` sees the starting best, every strict improvement,
/// and whatever each step reports. Improvement stagnation is measured
/// from this call; generation and evaluation counts are the model's
/// own, so a fresh model run for `Termination::Generations(n)` steps
/// exactly `n` times.
pub fn run<G: Clone, M: Model<G> + ?Sized>(
    model: &mut M,
    termination: &Termination,
    obs: &mut dyn Observer<G>,
) -> Individual<G> {
    let mut since_improvement = 0u64;
    let mut last_best = model.best().cost;
    obs.on_best(model.best());
    loop {
        let s = model.status();
        let progress = Progress {
            generation: s.generation,
            evaluations: s.evaluations,
            best_cost: model.best().cost,
            generations_since_improvement: since_improvement,
        };
        if termination.should_stop(&progress) {
            break;
        }
        model.step(obs);
        let now_best = model.best().cost;
        if now_best < last_best {
            last_best = now_best;
            since_improvement = 0;
            obs.on_best(model.best());
        } else {
            since_improvement += 1;
        }
    }
    model.best().clone()
}

/// The engine itself. Create with [`Engine::new`], advance with
/// [`Model::step`] or drive with [`run`].
pub struct Engine<'a, G> {
    config: GaConfig,
    toolkit: Toolkit<G>,
    evaluator: &'a dyn Evaluator<G>,
    population: Vec<Individual<G>>,
    rng: ChaCha8Rng,
    generation: u64,
    evaluations: u64,
    best: Individual<G>,
    gens_since_improvement: u64,
    improvements: u64,
}

impl<'a, G: Clone> Engine<'a, G> {
    /// Initialises and evaluates the starting population.
    ///
    /// **Evaluation-order contract**: genomes are handed to the
    /// evaluator in population order — the initial population in slot
    /// order here, and each generation's children in the order they
    /// were bred (crossover pairs, then immigrants) in
    /// [`evolve`](Self::evolve). `Evaluator::cost_batch` receives them as
    /// one slice in that order, and the default implementation calls
    /// `cost` sequentially over it. Combined with
    /// [`Toolkit::with_warm_start`] placing seeds before their mutated
    /// clones, a stateful evaluator sees each seed just before its
    /// clones. Correctness never depends on the order — evaluators must
    /// return the same cost for the same genome regardless — but the
    /// order is a contract, not an implementation detail (pinned by the
    /// `evaluation_order_is_population_order` test).
    pub fn new(config: GaConfig, toolkit: Toolkit<G>, evaluator: &'a dyn Evaluator<G>) -> Self {
        assert!(config.pop_size >= 2, "population of at least 2 required");
        assert!(config.elites < config.pop_size);
        let mut rng = root_rng(config.seed);
        let genomes: Vec<G> = (0..config.pop_size)
            .map(|_| (toolkit.init)(&mut rng))
            .collect();
        let costs = evaluator.cost_batch(&genomes);
        let population: Vec<Individual<G>> = genomes
            .into_iter()
            .zip(costs)
            .map(|(genome, cost)| Individual { genome, cost })
            .collect();
        let best = population
            .iter()
            .min_by(|a, b| a.cost.total_cmp(&b.cost))
            .expect("non-empty population")
            .clone();
        let evaluations = population.len() as u64;
        Engine {
            config,
            toolkit,
            evaluator,
            population,
            rng,
            generation: 0,
            evaluations,
            best,
            gens_since_improvement: 0,
            improvements: 0,
        }
    }

    /// Seeds some individuals (e.g. NEH or heuristic solutions) into the
    /// initial population, replacing the worst.
    pub fn seed_individuals(&mut self, genomes: Vec<G>) {
        let costs = self.evaluator.cost_batch(&genomes);
        self.evaluations += genomes.len() as u64;
        self.population.sort_by(|a, b| a.cost.total_cmp(&b.cost));
        let n = self.population.len();
        for (k, (genome, cost)) in genomes.into_iter().zip(costs).enumerate() {
            if k >= n {
                break;
            }
            let slot = n - 1 - k;
            self.population[slot] = Individual { genome, cost };
        }
        self.refresh_best();
    }

    fn refresh_best(&mut self) {
        if let Some(b) = self
            .population
            .iter()
            .min_by(|a, b| a.cost.total_cmp(&b.cost))
        {
            if b.cost < self.best.cost {
                self.best = b.clone();
                self.gens_since_improvement = 0;
                self.improvements += 1;
            }
        }
    }

    /// Runs one generation — Selection, Crossover, Mutation, Evaluation
    /// — reporting its `Select`/`Breed`/`Evaluate` timings to `obs`
    /// when [`Observer::wants_phases`] asks, but no sample: the
    /// [`Model::step`] of this engine adds its own, and an island model
    /// adds island-tagged ones. Takes the observer by shared reference
    /// so the engines of one island model could evolve in parallel.
    pub fn evolve(&mut self, obs: &dyn Observer<G>) {
        self.generation += 1;
        let pop = self.config.pop_size;
        let elites = self.config.elites;
        let immigrants = ((pop - elites) as f64 * self.config.immigration_rate).floor() as usize;
        let offspring_target = pop - elites - immigrants;

        // Fitness for selection.
        let costs: Vec<f64> = self.population.iter().map(|i| i.cost).collect();
        let fitness = self.config.fitness.apply_all(&costs);

        // Breed offspring. Phase timing reads the clock only when the
        // observer asks for it; the RNG call sequence is identical
        // either way (the profiled run stays bit-identical to the bare
        // run).
        let profiled = obs.wants_phases();
        let mut select_ns = 0u64;
        let mut breed_ns = 0u64;
        // SUS is a sweep over the whole generation: draw every parent
        // in one `pick_many`, shuffle, and pair them in order. Every
        // other selection picks each pair as it breeds it.
        let mut swept = Vec::new();
        if self.config.selection == Selection::StochasticUniversal {
            let t0 = profiled.then(crate::clock::now);
            swept = self.config.selection.pick_many(
                &fitness,
                2 * offspring_target.div_ceil(2),
                &mut self.rng,
            );
            swept.shuffle(&mut self.rng);
            if let Some(t0) = t0 {
                select_ns += crate::clock::elapsed_since(t0).as_nanos() as u64;
            }
        }
        let mut swept = swept.chunks_exact(2);
        let mut children: Vec<G> = Vec::with_capacity(offspring_target + immigrants);
        while children.len() < offspring_target {
            let t0 = profiled.then(crate::clock::now);
            let (a, b) = match swept.next() {
                Some(&[a, b]) => (a, b),
                _ => (
                    self.config.selection.pick(&fitness, &mut self.rng),
                    self.config.selection.pick(&fitness, &mut self.rng),
                ),
            };
            let t1 = profiled.then(crate::clock::now);
            let (mut c1, mut c2) = if self.rng.gen_bool(self.config.crossover_rate) {
                (self.toolkit.crossover)(
                    &self.population[a].genome,
                    &self.population[b].genome,
                    &mut self.rng,
                )
            } else {
                (
                    self.population[a].genome.clone(),
                    self.population[b].genome.clone(),
                )
            };
            if self.rng.gen_bool(self.config.mutation_rate) {
                (self.toolkit.mutate)(&mut c1, &mut self.rng);
            }
            if self.rng.gen_bool(self.config.mutation_rate) {
                (self.toolkit.mutate)(&mut c2, &mut self.rng);
            }
            if let (Some(t0), Some(t1)) = (t0, t1) {
                select_ns += t1.saturating_duration_since(t0).as_nanos() as u64;
                breed_ns += crate::clock::elapsed_since(t1).as_nanos() as u64;
            }
            children.push(c1);
            if children.len() < offspring_target {
                children.push(c2);
            }
        }
        // Immigration (Huang et al. [24]): brand-new random individuals.
        for _ in 0..immigrants {
            children.push((self.toolkit.init)(&mut self.rng));
        }

        // Batch evaluation — the master-slave seam.
        let te = profiled.then(crate::clock::now);
        let child_costs = self.evaluator.cost_batch(&children);
        self.evaluations += children.len() as u64;
        if let Some(te) = te {
            obs.on_phase(GaPhase::Evaluate, crate::clock::elapsed_since(te));
            obs.on_phase(GaPhase::Select, Duration::from_nanos(select_ns));
            obs.on_phase(GaPhase::Breed, Duration::from_nanos(breed_ns));
        }

        // Elites survive unchanged.
        let mut next: Vec<Individual<G>> = Vec::with_capacity(pop);
        next.extend(
            elite_indices(&costs, elites)
                .into_iter()
                .map(|i| self.population[i].clone()),
        );
        next.extend(
            children
                .into_iter()
                .zip(child_costs)
                .map(|(genome, cost)| Individual { genome, cost }),
        );
        self.population = next;

        self.gens_since_improvement += 1;
        self.refresh_best();
    }

    /// The engine's current state as a [`GenerationSample`] (`island:
    /// None`, `migration: false` — the island model tags its engines'
    /// samples itself). Diversity is the [`mean_hamming`] of the
    /// population's sequence views, `0.0` without a `seq_view`.
    ///
    /// [`mean_hamming`]: crate::stats::mean_hamming
    pub fn sample(&self) -> GenerationSample {
        let mean =
            self.population.iter().map(|i| i.cost).sum::<f64>() / self.population.len() as f64;
        let diversity = self.toolkit.seq_view.as_ref().map_or(0.0, |view| {
            let seqs: Vec<Vec<usize>> = self.population.iter().map(|i| view(&i.genome)).collect();
            crate::stats::mean_hamming(&seqs)
        });
        GenerationSample {
            island: None,
            generation: self.generation,
            evaluations: self.evaluations,
            best_cost: self.best.cost,
            mean_cost: mean,
            diversity,
            since_improvement: self.gens_since_improvement,
            migration: false,
        }
    }

    pub fn best(&self) -> &Individual<G> {
        &self.best
    }

    pub fn population(&self) -> &[Individual<G>] {
        &self.population
    }

    /// Replaces individual `idx` (used by migration operators).
    pub fn replace(&mut self, idx: usize, ind: Individual<G>) {
        self.population[idx] = ind;
        self.refresh_best();
    }

    pub fn generation(&self) -> u64 {
        self.generation
    }

    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// Generations since the best-so-far last improved, counting an
    /// improvement a migrant brought in through [`replace`](Self::replace).
    pub fn since_improvement(&self) -> u64 {
        self.gens_since_improvement
    }

    /// Strict improvements of the best-so-far since construction (the
    /// initial population's best is the baseline, not an improvement),
    /// including those a migrant brought in through
    /// [`replace`](Self::replace).
    pub fn improvements(&self) -> u64 {
        self.improvements
    }

    /// The toolkit's optional integer-sequence view (diversity telemetry
    /// and stagnation detection).
    pub fn seq_view(&self) -> Option<&SeqView<G>> {
        self.toolkit.seq_view.as_deref()
    }
}

impl<G: Clone> Model<G> for Engine<'_, G> {
    fn step(&mut self, obs: &mut dyn Observer<G>) {
        self.evolve(&*obs);
        if obs.wants_samples() {
            obs.on_sample(self.sample());
        }
    }

    fn status(&self) -> Status {
        Status {
            generation: self.generation,
            evaluations: self.evaluations,
        }
    }

    fn best(&self) -> &Individual<G> {
        &self.best
    }
}

/// Indices of the `k` lowest `costs`, listed as a stable sort by cost
/// would list them (ties in index order): a partial selection under
/// the `(cost, index)` key, then a sort of the `k` it picked, instead
/// of sorting the whole population every generation.
fn elite_indices(costs: &[f64], k: usize) -> Vec<usize> {
    let key = |a: &usize, b: &usize| costs[*a].total_cmp(&costs[*b]).then(a.cmp(b));
    let mut idx: Vec<usize> = (0..costs.len()).collect();
    if k < idx.len() {
        idx.select_nth_unstable_by(k, key);
        idx.truncate(k);
    }
    idx.sort_unstable_by(key);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::History;

    /// Minimise total displacement of a permutation from identity.
    fn displacement(p: &[usize]) -> f64 {
        p.iter()
            .enumerate()
            .map(|(i, &v)| (i as f64 - v as f64).abs())
            .sum()
    }

    fn perm_toolkit(n: usize) -> Toolkit<Vec<usize>> {
        Toolkit::permutation(n, PermCrossover::Order, SeqMutation::Swap)
    }

    #[test]
    fn engine_improves_over_generations() {
        let eval = |g: &Vec<usize>| displacement(g);
        let cfg = GaConfig {
            pop_size: 40,
            seed: 11,
            ..GaConfig::default()
        };
        let mut engine = Engine::new(cfg, perm_toolkit(12), &eval);
        let initial = engine.best().cost;
        let mut history = History::default();
        run(&mut engine, &Termination::Generations(60), &mut history);
        assert!(engine.best().cost < initial, "no improvement");
        assert_eq!(engine.generation(), 60);
        assert_eq!(history.best_per_generation().len(), 61);
    }

    #[test]
    fn same_seed_same_result() {
        let eval = |g: &Vec<usize>| displacement(g);
        let once = || {
            let cfg = GaConfig {
                pop_size: 24,
                seed: 5,
                ..GaConfig::default()
            };
            let mut e = Engine::new(cfg, perm_toolkit(9), &eval);
            run(&mut e, &Termination::Generations(25), &mut ());
            (e.best().cost, e.best().genome.clone())
        };
        assert_eq!(once(), once());
    }

    #[test]
    fn different_seeds_usually_differ() {
        let eval = |g: &Vec<usize>| displacement(g);
        let once = |seed| {
            let cfg = GaConfig {
                pop_size: 16,
                seed,
                elites: 0,
                ..GaConfig::default()
            };
            let mut e = Engine::new(cfg, perm_toolkit(10), &eval);
            let mut history = History::default();
            run(&mut e, &Termination::Generations(3), &mut history);
            history.samples.iter().map(|s| s.mean_cost).sum::<f64>()
        };
        assert_ne!(once(1), once(2));
    }

    #[test]
    fn elites_preserve_best_cost_monotonicity() {
        let eval = |g: &Vec<usize>| displacement(g);
        let cfg = GaConfig {
            pop_size: 20,
            elites: 2,
            seed: 3,
            ..GaConfig::default()
        };
        let mut e = Engine::new(cfg, perm_toolkit(8), &eval);
        let mut last = f64::INFINITY;
        for _ in 0..30 {
            e.step(&mut ());
            let best_now = e.best().cost;
            assert!(best_now <= last + 1e-12);
            last = best_now;
        }
    }

    /// Stochastic universal sampling draws a generation's parents in one
    /// sweep, so each individual is drawn `⌊s·N⌋` or `⌈s·N⌉` times out
    /// of `N` parents, `s` being its fitness share — which independent
    /// roulette spins do not guarantee.
    #[test]
    fn sus_draws_each_individual_within_one_of_its_expected_count() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::{Arc, Mutex};
        let eval = |g: &Vec<usize>| (1 + g[0] % 5) as f64;
        for seed in 0..4 {
            // Each genome is its individual's id; the crossover logs the
            // parent ids it is handed.
            let next_id = AtomicUsize::new(0);
            let parents = Arc::new(Mutex::new(Vec::new()));
            let log = Arc::clone(&parents);
            let toolkit = Toolkit::<Vec<usize>> {
                init: Box::new(move |_| vec![next_id.fetch_add(1, Ordering::Relaxed)]),
                crossover: Box::new(move |a, b, _| {
                    log.lock().unwrap().extend([a[0], b[0]]);
                    (a.clone(), b.clone())
                }),
                mutate: Box::new(|_, _| {}),
                seq_view: None,
            };
            let cfg = GaConfig {
                pop_size: 21,
                crossover_rate: 1.0,
                mutation_rate: 0.0,
                elites: 0,
                selection: Selection::StochasticUniversal,
                fitness: FitnessTransform::Reciprocal,
                seed,
                ..GaConfig::default()
            };
            let mut e = Engine::new(cfg.clone(), toolkit, &eval);
            let costs: Vec<f64> = e.population().iter().map(|i| i.cost).collect();
            let fitness = cfg.fitness.apply_all(&costs);
            let total: f64 = fitness.iter().sum();
            e.evolve(&());
            // 21 offspring are bred in 11 pairs.
            let drawn = parents.lock().unwrap().clone();
            assert_eq!(drawn.len(), 22);
            for (id, f) in fitness.iter().enumerate() {
                let expected = f / total * 22.0;
                let got = drawn.iter().filter(|&&p| p == id).count() as f64;
                assert!(
                    got >= expected.floor() && got <= expected.ceil(),
                    "seed {seed}: id {id} drawn {got} times, expected {expected:.3}"
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        // The elites are the first `k` of a stable sort by cost, even
        // when most costs tie (drawn from six values, with `-0.0`, NaN
        // and infinity among them).
        #[test]
        fn elite_indices_match_a_stable_sort(
            picks in proptest::collection::vec(0usize..6, 1..60),
            k in 0usize..64,
        ) {
            const VALUES: [f64; 6] = [0.0, -0.0, 1.0, 2.0, f64::NAN, f64::INFINITY];
            let costs: Vec<f64> = picks.iter().map(|&p| VALUES[p]).collect();
            let k = k % (costs.len() + 1);
            let mut sorted: Vec<usize> = (0..costs.len()).collect();
            sorted.sort_by(|&a, &b| costs[a].total_cmp(&costs[b]));
            sorted.truncate(k);
            proptest::prop_assert_eq!(elite_indices(&costs, k), sorted);
        }
    }

    #[test]
    fn immigration_keeps_population_size() {
        let eval = |g: &Vec<usize>| displacement(g);
        let cfg = GaConfig {
            pop_size: 30,
            immigration_rate: 0.2,
            seed: 8,
            ..GaConfig::default()
        };
        let mut e = Engine::new(cfg, perm_toolkit(7), &eval);
        for _ in 0..5 {
            e.step(&mut ());
            assert_eq!(e.population().len(), 30);
        }
    }

    #[test]
    fn target_cost_termination_stops_early() {
        let eval = |g: &Vec<usize>| displacement(g);
        let cfg = GaConfig {
            pop_size: 40,
            seed: 10,
            ..GaConfig::default()
        };
        let mut e = Engine::new(cfg, perm_toolkit(6), &eval);
        run(
            &mut e,
            &Termination::Any(vec![
                Termination::TargetCost(0.0),
                Termination::Generations(500),
            ]),
            &mut (),
        );
        // Tiny instance: the GA should actually sort it.
        assert_eq!(e.best().cost, 0.0);
        assert!(e.generation() < 500);
    }

    #[test]
    fn observer_sees_every_improvement() {
        let eval = |g: &Vec<usize>| displacement(g);
        let cfg = GaConfig {
            pop_size: 40,
            seed: 11,
            ..GaConfig::default()
        };
        let mut e = Engine::new(cfg, perm_toolkit(12), &eval);
        let mut rec = History::default();
        let best = run(&mut e, &Termination::Generations(60), &mut rec);
        let seen = rec.bests;
        // First report is the initial best, last is the final best, and
        // the sequence is strictly decreasing.
        assert!(seen.len() >= 2, "expected at least one improvement");
        assert_eq!(*seen.last().unwrap(), best.cost);
        assert!(seen.windows(2).all(|w| w[1] < w[0]));
        assert_eq!(seen.len() as u64, e.improvements() + 1);
    }

    #[test]
    fn evaluation_order_is_population_order() {
        use std::sync::Mutex;

        // Records every genome it is asked to cost, in call order.
        struct Recording {
            seen: Mutex<Vec<Vec<usize>>>,
        }
        impl Evaluator<Vec<usize>> for Recording {
            fn cost(&self, g: &Vec<usize>) -> f64 {
                self.seen.lock().unwrap().push(g.clone());
                displacement(g)
            }
        }

        let seed: Vec<usize> = (0..8).collect();
        let toolkit = perm_toolkit(8).with_warm_start(vec![seed.clone()], 3);
        let eval = Recording {
            seen: Mutex::new(Vec::new()),
        };
        let cfg = GaConfig {
            pop_size: 10,
            seed: 5,
            ..GaConfig::default()
        };
        let mut engine = Engine::new(cfg, toolkit, &eval);
        let init_pop: Vec<Vec<usize>> = engine
            .population()
            .iter()
            .map(|i| i.genome.clone())
            .collect();
        {
            let seen = eval.seen.lock().unwrap();
            // The contract Engine::new documents: initial genomes are
            // evaluated in population-slot order, so the warm seed is
            // costed first and its mutated clones immediately after.
            assert_eq!(*seen, init_pop);
            assert_eq!(seen[0], seed);
        }
        eval.seen.lock().unwrap().clear();
        engine.step(&mut ());
        // Children are evaluated in breeding order.
        assert!(!eval.seen.lock().unwrap().is_empty());
    }

    #[test]
    fn warm_start_places_seeds_clones_then_randoms() {
        let eval = |g: &Vec<usize>| displacement(g);
        let best: Vec<usize> = (0..10).collect();
        let second: Vec<usize> = {
            let mut p: Vec<usize> = (0..10).collect();
            p.swap(0, 9);
            p
        };
        let cfg = GaConfig {
            pop_size: 12,
            seed: 6,
            ..GaConfig::default()
        };
        let toolkit = perm_toolkit(10).with_warm_start(vec![best.clone(), second.clone()], 3);
        let e = Engine::new(cfg, toolkit, &eval);
        // Seeds land verbatim in the first slots.
        assert_eq!(e.population()[0].genome, best);
        assert_eq!(e.population()[1].genome, second);
        // The next three are mutated clones: one swap away from their
        // source seed (Hamming distance exactly 2 under SeqMutation::Swap
        // unless the swap was a fixed point, which the RNG here avoids).
        for (k, ind) in e.population().iter().enumerate().skip(2).take(3) {
            let source = if k % 2 == 0 { &best } else { &second };
            let differing = ind
                .genome
                .iter()
                .zip(source)
                .filter(|(a, b)| a != b)
                .count();
            assert!(differing <= 2, "clone {k} strayed: {differing} positions");
        }
        // Initial best is the incumbent: the warm-start guarantee.
        assert_eq!(e.best().cost, 0.0);
        assert_eq!(e.best().genome, best);
    }

    #[test]
    fn warm_start_is_seed_deterministic() {
        let eval = |g: &Vec<usize>| displacement(g);
        let incumbent: Vec<usize> = (0..9).rev().collect();
        let once = || {
            let cfg = GaConfig {
                pop_size: 20,
                seed: 5,
                ..GaConfig::default()
            };
            let toolkit = perm_toolkit(9).with_warm_start(vec![incumbent.clone()], 4);
            let mut e = Engine::new(cfg, toolkit, &eval);
            run(&mut e, &Termination::Generations(15), &mut ());
            (e.best().cost, e.best().genome.clone())
        };
        assert_eq!(once(), once());
    }

    #[test]
    fn warm_start_with_no_seeds_is_the_plain_toolkit() {
        let eval = |g: &Vec<usize>| displacement(g);
        let cfg = GaConfig {
            pop_size: 16,
            seed: 3,
            ..GaConfig::default()
        };
        let plain = Engine::new(cfg.clone(), perm_toolkit(8), &eval);
        let warm = Engine::new(cfg, perm_toolkit(8).with_warm_start(vec![], 5), &eval);
        let genomes = |e: &Engine<Vec<usize>>| -> Vec<Vec<usize>> {
            e.population().iter().map(|i| i.genome.clone()).collect()
        };
        assert_eq!(genomes(&plain), genomes(&warm));
    }

    #[test]
    fn repetition_toolkit_generates_valid_sequences() {
        let tk = Toolkit::repetition(vec![3; 4], RepCrossover::JobOrder, SeqMutation::Swap);
        let mut rng = root_rng(1);
        let g = (tk.init)(&mut rng);
        let mut counts = vec![0usize; 4];
        for &j in &g {
            counts[j] += 1;
        }
        assert_eq!(counts, vec![3, 3, 3, 3]);
        let (c1, _) = (tk.crossover)(&g, &g, &mut rng);
        assert_eq!(c1.len(), 12);
        assert_eq!(tk.seq_view.as_ref().map(|view| view(&g)), Some(g));
    }

    #[test]
    fn dual_toolkit_respects_the_job_shape() {
        let tk = Toolkit::dual(vec![3, 4, 2], 2);
        let mut rng = root_rng(2);
        let mut g = (tk.init)(&mut rng);
        assert_eq!(g.assign.len(), 9);
        assert_eq!(g.seq.len(), 9);
        for _ in 0..20 {
            (tk.mutate)(&mut g, &mut rng);
            assert!(g.assign.iter().all(|&c| c < 2));
        }
        let mut jobs = g.seq.clone();
        jobs.sort_unstable();
        assert_eq!(jobs, [0, 0, 0, 1, 1, 1, 1, 2, 2]);
    }

    #[test]
    fn random_keys_toolkit_views_keys_as_their_sort_order() {
        let tk = Toolkit::random_keys(6, KeysCrossover::Uniform);
        let g = (tk.init)(&mut root_rng(3));
        assert_eq!(g.len(), 6);
        assert!(g.iter().all(|k| (0.0..1.0).contains(k)));
        let view = tk.seq_view.as_ref().unwrap()(&g);
        assert!(view.windows(2).all(|w| g[w[0]] <= g[w[1]]));
    }

    #[test]
    fn seeding_improves_initial_best() {
        let eval = |g: &Vec<usize>| displacement(g);
        let cfg = GaConfig {
            pop_size: 10,
            seed: 4,
            ..GaConfig::default()
        };
        let mut e = Engine::new(cfg, perm_toolkit(15), &eval);
        e.seed_individuals(vec![(0..15).collect()]);
        assert_eq!(e.best().cost, 0.0);
    }

    #[test]
    fn step_emits_one_sample_per_generation() {
        let eval = |g: &Vec<usize>| displacement(g);
        let cfg = GaConfig {
            pop_size: 30,
            seed: 11,
            ..GaConfig::default()
        };
        let mut e = Engine::new(cfg, perm_toolkit(10), &eval);
        let mut rec = History::default();
        let best = run(&mut e, &Termination::Generations(25), &mut rec);
        let samples = rec.samples;
        assert_eq!(samples.len(), 25);
        for (k, s) in samples.iter().enumerate() {
            assert_eq!(s.generation, k as u64 + 1);
            assert_eq!(s.island, None);
            assert!(!s.migration);
            assert!(s.best_cost <= s.mean_cost + 1e-9);
            assert!((0.0..=1.0).contains(&s.diversity));
            assert!(s.evaluations > 0);
        }
        // Best-cost curve is monotone non-increasing and ends at the
        // returned best.
        assert!(samples.windows(2).all(|w| w[1].best_cost <= w[0].best_cost));
        assert_eq!(samples.last().unwrap().best_cost, best.cost);
        // Stagnation age resets to zero on improving generations.
        assert!(samples
            .windows(2)
            .all(|w| w[1].since_improvement == 0
                || w[1].since_improvement == w[0].since_improvement + 1));
    }

    /// Accumulates phase nanoseconds, indexed by [`GaPhase`].
    #[derive(Default)]
    struct PhaseTimes([std::sync::atomic::AtomicU64; 4]);

    impl<G> Observer<G> for PhaseTimes {
        fn wants_phases(&self) -> bool {
            true
        }

        fn on_phase(&self, phase: GaPhase, d: Duration) {
            self.0[phase as usize]
                .fetch_add(d.as_nanos() as u64, std::sync::atomic::Ordering::Relaxed);
        }
    }

    #[test]
    fn profiled_run_is_bit_identical_and_accounts_phase_time() {
        let eval = |g: &Vec<usize>| displacement(g);
        let cfg = GaConfig {
            pop_size: 24,
            seed: 9,
            ..GaConfig::default()
        };
        let t = Termination::Generations(20);
        let mut bare = Engine::new(cfg.clone(), perm_toolkit(12), &eval);
        run(&mut bare, &t, &mut ());
        let mut profiled = Engine::new(cfg, perm_toolkit(12), &eval);
        let mut times = PhaseTimes::default();
        run(&mut profiled, &t, &mut times);

        // The profiler is measurement-only: same seed, same trajectory.
        assert_eq!(bare.best().cost, profiled.best().cost);
        assert_eq!(bare.best().genome, profiled.best().genome);
        let costs = |e: &Engine<Vec<usize>>| -> Vec<f64> {
            e.population().iter().map(|i| i.cost).collect()
        };
        assert_eq!(costs(&bare), costs(&profiled));
        // Evaluation work was actually attributed (select/breed can be
        // sub-nanosecond-rounding small, but 20 generations of batch
        // evaluation cannot be zero), and an engine never migrates.
        let [_, _, evaluate, migrate] = times.0.map(|a| a.into_inner());
        assert!(evaluate > 0);
        assert_eq!(migrate, 0);
    }
}
