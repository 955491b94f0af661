//! Population diversity and convergence telemetry.
//!
//! Diversity is the quantity the fine-grained model of Tamaki \[20\] is
//! designed to preserve and the stagnation trigger of Spanos et al. \[29\]
//! is defined over (Hamming distance of the majority of individuals).
//! Models compute it only for an observer that asks for samples, and
//! [`History`] is the observer the experiment harnesses record with.

use crate::engine::{Individual, Observer};

/// Mean pairwise Hamming distance of a population of sequences,
/// normalised to `[0, 1]` by the sequence length. Populations of more
/// than 64 individuals are stride-sampled: only every `n / 64`-th
/// individual takes part, pairing with the sampled ones after it.
pub fn mean_hamming(population: &[Vec<usize>]) -> f64 {
    let n = population.len();
    if n < 2 {
        return 0.0;
    }
    let len = population[0].len().max(1);
    let mut total = 0usize;
    let mut pairs = 0usize;
    let stride = if n > 64 { n / 64 } else { 1 };
    let mut i = 0;
    while i < n {
        let mut j = i + stride;
        while j < n {
            total += population[i]
                .iter()
                .zip(&population[j])
                .filter(|(a, b)| a != b)
                .count();
            pairs += 1;
            j += stride;
        }
        i += stride;
    }
    if pairs == 0 {
        return 0.0;
    }
    total as f64 / (pairs as f64 * len as f64)
}

/// Fraction of individual pairs closer than `threshold` (normalised
/// Hamming) — the stagnation measure of Spanos et al. \[29\]: an island
/// stagnates when more than half its pairs fall below the threshold.
pub fn stagnation_fraction(population: &[Vec<usize>], threshold: f64) -> f64 {
    let n = population.len();
    if n < 2 {
        return 1.0;
    }
    let len = population[0].len().max(1);
    let mut close = 0usize;
    let mut pairs = 0usize;
    for i in 0..n {
        for j in i + 1..n {
            let d = population[i]
                .iter()
                .zip(&population[j])
                .filter(|(a, b)| a != b)
                .count() as f64
                / len as f64;
            if d < threshold {
                close += 1;
            }
            pairs += 1;
        }
    }
    close as f64 / pairs as f64
}

/// Positional entropy: mean over positions of the Shannon entropy of the
/// value distribution at that position, normalised by `ln(n_values)`.
pub fn positional_entropy(population: &[Vec<usize>], n_values: usize) -> f64 {
    if population.is_empty() || n_values < 2 {
        return 0.0;
    }
    let len = population[0].len();
    let pop = population.len() as f64;
    let norm = (n_values as f64).ln();
    let mut total = 0.0;
    for pos in 0..len {
        let mut counts = vec![0usize; n_values];
        for ind in population {
            counts[ind[pos] % n_values] += 1;
        }
        let h: f64 = counts
            .iter()
            .filter(|&&c| c > 0)
            .map(|&c| {
                let p = c as f64 / pop;
                -p * p.ln()
            })
            .sum();
        total += h / norm;
    }
    total / len.max(1) as f64
}

/// One generation's convergence telemetry, as a model's `Model::step`
/// reports it to `Observer::on_sample` when the observer
/// [wants samples](Observer::wants_samples): best, mean and diversity
/// plus the anytime counters an external observer needs to judge
/// progress without access to the model — evaluation count, stagnation
/// age, and (for island models) which island produced the sample and
/// whether migration fired on this generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenerationSample {
    /// Island that produced this sample (`None` for panmictic models:
    /// master-slave engines and the cellular torus, which sample their
    /// whole population as one unit).
    pub island: Option<u32>,
    /// Generation the sample describes.
    pub generation: u64,
    /// Fitness evaluations the sampled unit had consumed when the
    /// sample was taken (per island for island models).
    pub evaluations: u64,
    /// Best cost of the sampled unit at this generation.
    pub best_cost: f64,
    /// Mean population cost of the sampled unit.
    pub mean_cost: f64,
    /// Normalised mean-Hamming diversity (see [`mean_hamming`]) of the
    /// sampled unit; `0.0` when the genome has no sequence view.
    pub diversity: f64,
    /// Generations since the sampled unit last improved its best.
    pub since_improvement: u64,
    /// True when a migration (or broadcast) exchange fired on this
    /// generation — the discrete marks on an island convergence curve.
    pub migration: bool,
}

/// The per-generation record of a run: an [`Observer`] that keeps every
/// best-so-far report and every sample (models keep no record of their
/// own). The queries read one best cost per generation: generation 0 is
/// the run's first `on_best`, generation `g ≥ 1` the minimum
/// `best_cost` over generation `g`'s samples (one per island, if any).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct History {
    /// Every `on_best` cost, in report order.
    pub bests: Vec<f64>,
    /// Every sample, in emission order.
    pub samples: Vec<GenerationSample>,
}

impl History {
    /// Best cost per generation, indexed by generation.
    pub fn best_per_generation(&self) -> Vec<f64> {
        let gens = self.samples.chunk_by(|a, b| a.generation == b.generation);
        let per_gen = gens.map(|g| g.iter().fold(f64::INFINITY, |m, s| m.min(s.best_cost)));
        let start = self.bests.first().copied();
        start.into_iter().chain(per_gen).collect()
    }

    pub fn best_final(&self) -> Option<f64> {
        self.best_per_generation().last().copied()
    }

    /// First generation whose best cost reached `target` (time-to-target).
    pub fn generations_to_target(&self, target: f64) -> Option<u64> {
        self.best_per_generation()
            .iter()
            .position(|&c| c <= target)
            .map(|g| g as u64)
    }

    /// Area-under-curve of best cost (lower = faster convergence), summed
    /// over generations `0..=N`.
    pub fn convergence_auc(&self) -> f64 {
        self.best_per_generation().iter().sum()
    }
}

impl<G> Observer<G> for History {
    fn on_best(&mut self, best: &Individual<G>) {
        self.bests.push(best.cost);
    }

    fn on_sample(&mut self, sample: GenerationSample) {
        self.samples.push(sample);
    }

    fn wants_samples(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_population_has_zero_diversity() {
        let pop = vec![vec![0, 1, 2]; 5];
        assert_eq!(mean_hamming(&pop), 0.0);
        assert_eq!(stagnation_fraction(&pop, 0.1), 1.0);
        assert_eq!(positional_entropy(&pop, 3), 0.0);
    }

    #[test]
    fn disjoint_population_has_high_diversity() {
        let pop = vec![vec![0, 0, 0], vec![1, 1, 1], vec![2, 2, 2]];
        assert!(mean_hamming(&pop) > 0.99);
        assert_eq!(stagnation_fraction(&pop, 0.5), 0.0);
        assert!(positional_entropy(&pop, 3) > 0.99);
    }

    #[test]
    fn history_queries() {
        let sample = |island, generation, best_cost| GenerationSample {
            island,
            generation,
            evaluations: 0,
            best_cost,
            mean_cost: best_cost + 10.0,
            diversity: 0.5,
            since_improvement: 0,
            migration: false,
        };
        let mut h = History {
            bests: vec![100.0, 60.0, 50.0],
            ..History::default()
        };
        // Two islands per generation: each generation's best is the
        // better island's.
        for (g, c) in [(1u64, 60.0), (2, 50.0)] {
            h.samples.push(sample(Some(0), g, c + 5.0));
            h.samples.push(sample(Some(1), g, c));
        }
        assert_eq!(h.best_per_generation(), vec![100.0, 60.0, 50.0]);
        assert_eq!(h.best_final(), Some(50.0));
        assert_eq!(h.generations_to_target(60.0), Some(1));
        assert_eq!(h.generations_to_target(10.0), None);
        assert_eq!(h.convergence_auc(), 210.0);
    }

    #[test]
    fn large_population_sampling_is_stable() {
        let pop: Vec<Vec<usize>> = (0..200).map(|i| vec![i % 7; 10]).collect();
        let d = mean_hamming(&pop);
        assert!(d > 0.0 && d <= 1.0);
    }
}
