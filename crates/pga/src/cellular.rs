//! Fine-grained (cellular / neighbourhood / diffusion / massively
//! parallel) GA — survey Table IV and Tamaki \[20\].
//!
//! One individual lives on each cell of a 2-D torus; selection and mating
//! are restricted to a cell's neighbourhood, and overlapping
//! neighbourhoods diffuse good genes across the grid. Updates are
//! synchronous (the whole grid advances one generation at once), matching
//! the survey's `Parallel_Neighborhood*` pseudo-code, and every cell draws
//! from its own deterministic RNG stream so the result does not depend on
//! the order cells are bred in. Cells are bred in index order on the
//! calling thread.

use crate::telemetry::RunTelemetry;
use ga::engine::{GaPhase, Individual, Model, Observer, Status, Toolkit};
use ga::rng::stream_rng;
use ga::stats::{mean_hamming, GenerationSample};
use ga::Evaluator;

/// Neighbourhood shape on the torus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NeighborhoodShape {
    /// North, south, east, west (4 neighbours).
    VonNeumann,
    /// The 8 surrounding cells.
    Moore,
}

impl NeighborhoodShape {
    /// Offsets (row, col) of the neighbourhood, excluding the centre.
    pub fn offsets(&self) -> &'static [(isize, isize)] {
        match self {
            NeighborhoodShape::VonNeumann => &[(-1, 0), (1, 0), (0, -1), (0, 1)],
            NeighborhoodShape::Moore => &[
                (-1, -1),
                (-1, 0),
                (-1, 1),
                (0, -1),
                (0, 1),
                (1, -1),
                (1, 0),
                (1, 1),
            ],
        }
    }
}

/// Cellular GA configuration.
#[derive(Debug, Clone)]
pub struct CellularConfig {
    pub rows: usize,
    pub cols: usize,
    pub shape: NeighborhoodShape,
    /// Probability each child is mutated.
    pub mutation_rate: f64,
    pub seed: u64,
}

impl CellularConfig {
    pub fn new(rows: usize, cols: usize, seed: u64) -> Self {
        CellularConfig {
            rows,
            cols,
            shape: NeighborhoodShape::VonNeumann,
            mutation_rate: 0.2,
            seed,
        }
    }

    pub fn population(&self) -> usize {
        self.rows * self.cols
    }
}

/// Every cell's torus neighbours, cell by cell, each in
/// [`NeighborhoodShape::offsets`] order (see `CellularGa::neighbours`).
fn torus_neighbours(config: &CellularConfig) -> Vec<usize> {
    let (rows, cols) = (config.rows as isize, config.cols as isize);
    (0..rows * cols)
        .flat_map(|idx| {
            let (r, c) = (idx / cols, idx % cols);
            config.shape.offsets().iter().map(move |&(dr, dc)| {
                let nr = (r + dr).rem_euclid(rows);
                let nc = (c + dc).rem_euclid(cols);
                (nr * cols + nc) as usize
            })
        })
        .collect()
}

/// The cellular GA: a `rows x cols` torus of individuals.
pub struct CellularGa<'a, G> {
    config: CellularConfig,
    toolkit: Toolkit<G>,
    evaluator: &'a dyn Evaluator<G>,
    grid: Vec<Individual<G>>,
    /// Flat torus neighbour table: cell `i`'s neighbours, in
    /// [`NeighborhoodShape::offsets`] order, are the `k` entries from
    /// `i * k` (`k` = offsets per cell). Fixed by `rows`, `cols` and
    /// `shape`, so it is built once in [`CellularGa::new`].
    neighbours: Vec<usize>,
    generation: u64,
    best: Individual<G>,
    pub telemetry: RunTelemetry,
    since_improvement: u64,
}

impl<'a, G: Clone + Send + Sync> CellularGa<'a, G> {
    /// Initialises and evaluates the grid.
    pub fn new<E: Evaluator<G>>(
        config: CellularConfig,
        toolkit: Toolkit<G>,
        evaluator: &'a E,
    ) -> Self {
        assert!(config.rows >= 2 && config.cols >= 2, "grid at least 2x2");
        let n = config.population();
        let genomes: Vec<G> = (0..n)
            .map(|i| {
                let mut rng = stream_rng(config.seed, i as u64);
                (toolkit.init)(&mut rng)
            })
            .collect();
        let costs = evaluator.cost_batch(&genomes);
        let grid: Vec<Individual<G>> = genomes
            .into_iter()
            .zip(costs)
            .map(|(genome, cost)| Individual { genome, cost })
            .collect();
        let best = grid
            .iter()
            .min_by(|a, b| a.cost.total_cmp(&b.cost))
            .expect("non-empty grid")
            .clone();
        let neighbours = torus_neighbours(&config);
        CellularGa {
            telemetry: RunTelemetry {
                workers: n,
                evaluations: n as u64,
                ..Default::default()
            },
            config,
            toolkit,
            evaluator: evaluator as &dyn Evaluator<G>,
            grid,
            neighbours,
            generation: 0,
            best,
            since_improvement: 0,
        }
    }

    fn neighbour_indices(&self, idx: usize) -> &[usize] {
        let k = self.config.shape.offsets().len();
        &self.neighbours[idx * k..(idx + 1) * k]
    }

    /// One synchronous generation: every cell picks its best neighbour,
    /// mates with it, mutates, and the child replaces the incumbent only
    /// if it is at least as good (elitist cellular replacement). Reports
    /// `Breed` (neighbourhood selection + crossover + mutation) and
    /// `Evaluate` (grid-wide fitness batch) timings to `obs` when it
    /// asks, but no sample — [`Model::step`] adds the whole-grid one,
    /// the hybrid a torus-tagged one.
    pub(crate) fn evolve(&mut self, obs: &dyn Observer<G>) {
        self.generation += 1;
        let gen = self.generation;
        let seed = self.config.seed;
        let mutation_rate = self.config.mutation_rate;
        let n = self.grid.len();

        // Phase 1 (read-only grid): breed one child per cell, in cell
        // order on the calling thread — the loop a fork-join step would
        // split, since each cell draws from its own stream.
        // Phase timing reads the clock only when the observer asks.
        let profiled = obs.wants_phases();
        let tb = profiled.then(ga::clock::now);
        let grid = &self.grid;
        let toolkit = &self.toolkit;
        let children: Vec<G> = (0..n)
            .map(|i| {
                let mut rng = stream_rng(seed, gen.wrapping_mul(0x1000_0000) + i as u64);
                let mate = *self
                    .neighbour_indices(i)
                    .iter()
                    .min_by(|&&a, &&b| grid[a].cost.total_cmp(&grid[b].cost))
                    .expect("non-empty neighbourhood");
                let (mut child, _) =
                    (toolkit.crossover)(&grid[i].genome, &grid[mate].genome, &mut rng);
                use rand::Rng;
                if rng.gen_bool(mutation_rate) {
                    (toolkit.mutate)(&mut child, &mut rng);
                }
                child
            })
            .collect();

        // Phase 2: evaluate all children (the massively-parallel fitness
        // phase of the survey's Table IV).
        let te = profiled.then(ga::clock::now);
        if let (Some(tb), Some(te)) = (tb, te) {
            obs.on_phase(GaPhase::Breed, te.saturating_duration_since(tb));
        }
        let costs = self.evaluator.cost_batch(&children);
        if let Some(te) = te {
            obs.on_phase(GaPhase::Evaluate, ga::clock::elapsed_since(te));
        }
        self.telemetry.evaluations += n as u64;
        self.telemetry.generations += 1;
        // Each cell exchanged state with its neighbours once.
        self.telemetry.messages += (n * self.config.shape.offsets().len()) as u64;

        // Phase 3 (synchronous write): elitist replacement.
        let before = self.best.cost;
        for (i, (child, cost)) in children.into_iter().zip(costs).enumerate() {
            if cost <= self.grid[i].cost {
                self.grid[i] = Individual {
                    genome: child,
                    cost,
                };
            }
        }
        for ind in &self.grid {
            if ind.cost < self.best.cost {
                self.best = ind.clone();
            }
        }
        if self.best.cost < before {
            self.since_improvement = 0;
            self.telemetry.improvements += 1;
        } else {
            self.since_improvement += 1;
        }
    }

    /// The grid's current state as one whole-grid [`GenerationSample`]
    /// (`island: None` — the torus is one panmictic sampling unit).
    /// Diversity is the [`mean_hamming`] of the cells' sequence views,
    /// `0.0` without a `seq_view`.
    pub(crate) fn sample(&self) -> GenerationSample {
        let mean = self.grid.iter().map(|i| i.cost).sum::<f64>() / self.grid.len() as f64;
        let diversity = self.toolkit.seq_view.as_ref().map_or(0.0, |view| {
            let seqs: Vec<Vec<usize>> = self.grid.iter().map(|i| view(&i.genome)).collect();
            mean_hamming(&seqs)
        });
        GenerationSample {
            island: None,
            generation: self.generation,
            evaluations: self.telemetry.evaluations,
            best_cost: self.best.cost,
            mean_cost: mean,
            diversity,
            since_improvement: self.since_improvement,
            migration: false,
        }
    }

    pub fn best(&self) -> &Individual<G> {
        &self.best
    }

    pub fn grid(&self) -> &[Individual<G>] {
        &self.grid
    }

    /// Replaces the individual at `cell` (hybrid-model migration hook).
    pub fn replace(&mut self, cell: usize, ind: Individual<G>) {
        if ind.cost < self.best.cost {
            self.best = ind.clone();
        }
        self.grid[cell] = ind;
    }
}

impl<G: Clone + Send + Sync> Model<G> for CellularGa<'_, G> {
    fn step(&mut self, obs: &mut dyn Observer<G>) {
        self.evolve(&*obs);
        if obs.wants_samples() {
            obs.on_sample(self.sample());
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{displacement, toolkit, PhaseTimes};
    use ga::engine::run;
    use ga::stats::History;
    use ga::termination::Termination;

    #[test]
    fn warm_started_grid_places_the_incumbent_on_the_first_cells() {
        // The warm-start counter runs across the grid's sequential
        // construction order: cell 0 holds the incumbent verbatim, the
        // clone cells follow, and the initial best can never be worse
        // than the incumbent.
        let eval = |g: &Vec<usize>| displacement(g);
        let incumbent: Vec<usize> = (0..6).rev().collect();
        let incumbent_cost = displacement(&incumbent);
        let tk = toolkit(6).with_warm_start(vec![incumbent.clone()], 4);
        let cga = CellularGa::new(CellularConfig::new(3, 4, 5), tk, &eval);
        assert_eq!(cga.grid()[0].genome, incumbent);
        assert!(cga.best().cost <= incumbent_cost);
    }

    #[test]
    fn torus_neighbourhoods_have_right_size() {
        let eval = |g: &Vec<usize>| displacement(g);
        let cga = CellularGa::new(CellularConfig::new(4, 5, 1), toolkit(6), &eval);
        for i in 0..20 {
            assert_eq!(cga.neighbour_indices(i).len(), 4);
        }
        let mut cfg = CellularConfig::new(4, 5, 1);
        cfg.shape = NeighborhoodShape::Moore;
        let cga = CellularGa::new(cfg, toolkit(6), &eval);
        for i in 0..20 {
            let nb = cga.neighbour_indices(i);
            assert_eq!(nb.len(), 8);
            assert!(!nb.contains(&i));
        }
    }

    #[test]
    fn improves_and_is_deterministic() {
        let eval = |g: &Vec<usize>| displacement(g);
        let once = || {
            let mut cga = CellularGa::new(CellularConfig::new(4, 4, 17), toolkit(10), &eval);
            let start = cga.best().cost;
            let end = run(&mut cga, &Termination::Generations(25), &mut ()).cost;
            (start, end)
        };
        let (s1, e1) = once();
        let (s2, e2) = once();
        assert_eq!((s1, e1), (s2, e2));
        assert!(e1 < s1);
    }

    #[test]
    fn elitist_replacement_never_worsens_cells() {
        let eval = |g: &Vec<usize>| displacement(g);
        let mut cga = CellularGa::new(CellularConfig::new(3, 3, 2), toolkit(8), &eval);
        let before: Vec<f64> = cga.grid().iter().map(|i| i.cost).collect();
        cga.step(&mut ());
        let after: Vec<f64> = cga.grid().iter().map(|i| i.cost).collect();
        for (b, a) in before.iter().zip(&after) {
            assert!(a <= b);
        }
    }

    #[test]
    fn diversity_decays_but_slower_than_zero() {
        // The cellular model's selling point: diversity declines gradually.
        let eval = |g: &Vec<usize>| displacement(g);
        let mut cga = CellularGa::new(CellularConfig::new(5, 5, 3), toolkit(12), &eval);
        let d0 = cga.sample().diversity;
        let mut h = History::default();
        run(&mut cga, &Termination::Generations(10), &mut h);
        let dn = h.samples.last().unwrap().diversity;
        assert!(d0 > 0.5, "random start should be diverse");
        assert!(dn > 0.0, "cellular grid should retain some diversity");
    }

    #[test]
    fn telemetry_counts_messages() {
        let eval = |g: &Vec<usize>| displacement(g);
        let mut cga = CellularGa::new(CellularConfig::new(3, 3, 4), toolkit(6), &eval);
        run(&mut cga, &Termination::Generations(2), &mut ());
        // 9 cells x 4 neighbours x 2 generations.
        assert_eq!(cga.telemetry.messages, 72);
        assert_eq!(cga.telemetry.evaluations, 9 + 18);
    }

    #[test]
    fn sampled_run_emits_whole_grid_samples() {
        let eval = |g: &Vec<usize>| displacement(g);
        let mut cga = CellularGa::new(CellularConfig::new(4, 4, 6), toolkit(8), &eval);
        let mut rec = History::default();
        let best = run(&mut cga, &Termination::Generations(10), &mut rec);
        let samples = rec.samples;
        assert_eq!(samples.len(), 10);
        let mut prev_best = f64::INFINITY;
        for (k, s) in samples.iter().enumerate() {
            assert_eq!(s.island, None, "torus samples as one unit");
            assert_eq!(s.generation, (k + 1) as u64);
            assert!(!s.migration);
            assert!(s.best_cost <= s.mean_cost);
            assert!(s.best_cost <= prev_best, "elitist best is monotone");
            assert!((0.0..=1.0).contains(&s.diversity));
            prev_best = s.best_cost;
        }
        assert_eq!(samples.last().unwrap().best_cost, best.cost);
        // Stagnation age resets on improvement, else increments.
        let mut prev = samples[0];
        for s in &samples[1..] {
            if s.best_cost < prev.best_cost {
                assert_eq!(s.since_improvement, 0);
            } else {
                assert_eq!(s.since_improvement, prev.since_improvement + 1);
            }
            prev = *s;
        }
    }

    #[test]
    fn profiled_grid_run_is_bit_identical() {
        let eval = |g: &Vec<usize>| displacement(g);
        let t = Termination::Generations(8);
        let mut bare = CellularGa::new(CellularConfig::new(4, 4, 7), toolkit(8), &eval);
        run(&mut bare, &t, &mut ());
        let mut profiled = CellularGa::new(CellularConfig::new(4, 4, 7), toolkit(8), &eval);
        let mut times = PhaseTimes::default();
        run(&mut profiled, &t, &mut times);

        assert_eq!(bare.best().cost, profiled.best().cost);
        assert_eq!(bare.best().genome, profiled.best().genome);
        assert_eq!(bare.sample(), profiled.sample());
        assert!(times.ns(GaPhase::Breed) > 0);
        assert!(times.ns(GaPhase::Evaluate) > 0);
    }
}
