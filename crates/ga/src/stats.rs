//! Population diversity and convergence telemetry.
//!
//! Diversity is the quantity the fine-grained model of Tamaki \[20\] is
//! designed to preserve and the stagnation trigger of Spanos et al. \[29\]
//! is defined over (Hamming distance of the majority of individuals).
//! Models compute it only for an observer that asks for samples, and
//! [`History`] is the observer the experiment harnesses record with.

use crate::engine::{Individual, Observer};

/// Mean pairwise Hamming distance of a population of sequences,
/// normalised to `[0, 1]` by the sequence length. Exact, in O(n·L):
/// at each locus the differing pairs are all pairs minus the pairs that
/// share a value, so the distance is Σ_loci (C(n,2) − Σ_v C(c_v,2)) /
/// (C(n,2)·L) with c_v the count of gene value v at that locus
/// (Morrison & De Jong, "Measurement of population diversity", LNCS
/// 2310, 2002). One count buffer, indexed by gene value (sequence
/// views hold job or operation indices), is reused across loci.
/// Sequences of unequal length compare over their common prefix.
pub fn mean_hamming(population: &[Vec<usize>]) -> f64 {
    let n = population.len();
    if n < 2 {
        return 0.0;
    }
    let len = population[0].len().max(1);
    let loci = population.iter().map(Vec::len).max().unwrap_or(0);
    let top = population.iter().flatten().max().copied().unwrap_or(0);
    let mut counts = vec![0usize; top + 1];
    let mut total = 0usize;
    for locus in 0..loci {
        let (mut present, mut same) = (0usize, 0usize);
        for &v in population.iter().filter_map(|seq| seq.get(locus)) {
            // Each occurrence pairs with every earlier one of its value.
            same += counts[v];
            counts[v] += 1;
            present += 1;
        }
        total += present * present.saturating_sub(1) / 2 - same;
        for &v in population.iter().filter_map(|seq| seq.get(locus)) {
            counts[v] = 0;
        }
    }
    let pairs = n * (n - 1) / 2;
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
    }

    #[test]
    fn disjoint_population_has_high_diversity() {
        let pop = vec![vec![0, 0, 0], vec![1, 1, 1], vec![2, 2, 2]];
        assert!(mean_hamming(&pop) > 0.99);
        assert_eq!(stagnation_fraction(&pop, 0.5), 0.0);
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
        assert_eq!(h.generations_to_target(60.0), Some(1));
        assert_eq!(h.generations_to_target(10.0), None);
        assert_eq!(h.convergence_auc(), 210.0);
    }

    #[test]
    fn diversity_is_the_exact_all_pairs_mean() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |m: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % m
        };
        for n in [2, 5, 63, 64, 65, 127, 128, 129, 200] {
            let pop: Vec<Vec<usize>> = (0..n).map(|_| (0..12).map(|_| next(5)).collect()).collect();
            let mut diff = 0usize;
            for i in 0..n {
                for j in i + 1..n {
                    diff += pop[i].iter().zip(&pop[j]).filter(|(a, b)| a != b).count();
                }
            }
            let pairs = n * (n - 1) / 2;
            let exact = diff as f64 / (pairs as f64 * 12.0);
            assert_eq!(mean_hamming(&pop), exact, "n = {n}");
        }
        // Unequal lengths compare over the common prefix, as pairwise
        // zipping does.
        let ragged = vec![vec![0, 1, 2], vec![0, 2], vec![1]];
        assert_eq!(mean_hamming(&ragged), 3.0 / (3.0 * 3.0));
    }

    #[test]
    fn large_population_sampling_is_stable() {
        let pop: Vec<Vec<usize>> = (0..200).map(|i| vec![i % 7; 10]).collect();
        let d = mean_hamming(&pop);
        assert!(d > 0.0 && d <= 1.0);
    }
}
