//! Mutation operators. The survey notes that shop-scheduling mutations
//! work on neighbourhoods — shift mutation (insertion neighbourhood) and
//! pairwise-interchange mutation (swap neighbourhood) — rather than on
//! bits; random-key genomes additionally admit Gaussian perturbation
//! (Zajíček \[25\]) and quantum genomes the Not-gate (Gu \[28\], in
//! [`crate::quantum`]).

use rand::Rng;

/// Named mutation over index sequences (permutations or repetition
/// sequences — all variants preserve the multiset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeqMutation {
    /// Pairwise interchange (swap neighbourhood).
    Swap,
    /// Shift / insertion (insertion neighbourhood).
    Shift,
    /// Reverse a random segment.
    Invert,
    /// Shuffle a random segment.
    Scramble,
}

impl SeqMutation {
    pub fn apply(&self, genome: &mut Vec<usize>, rng: &mut impl Rng) {
        let n = genome.len();
        if n < 2 {
            return;
        }
        match self {
            SeqMutation::Swap => {
                let i = rng.gen_range(0..n);
                let j = rng.gen_range(0..n);
                genome.swap(i, j);
            }
            SeqMutation::Shift => {
                let from = rng.gen_range(0..n);
                let to = rng.gen_range(0..n);
                let v = genome.remove(from);
                genome.insert(to.min(genome.len()), v);
            }
            SeqMutation::Invert => {
                let a = rng.gen_range(0..n);
                let b = rng.gen_range(0..n);
                let (lo, hi) = (a.min(b), a.max(b));
                genome[lo..=hi].reverse();
            }
            SeqMutation::Scramble => {
                use rand::seq::SliceRandom;
                let a = rng.gen_range(0..n);
                let b = rng.gen_range(0..n);
                let (lo, hi) = (a.min(b), a.max(b));
                genome[lo..=hi].shuffle(rng);
            }
        }
    }

    /// All sequence mutations in stable order (for heterogeneous-island
    /// sweeps).
    pub const ALL: [SeqMutation; 4] = [
        SeqMutation::Swap,
        SeqMutation::Shift,
        SeqMutation::Invert,
        SeqMutation::Scramble,
    ];
}

/// Gaussian mutation on random keys: each gene is perturbed with
/// probability `per_gene` by `N(0, sigma)` and clamped to `[0, 1]`.
pub fn gaussian_keys(genome: &mut [f64], per_gene: f64, sigma: f64, rng: &mut impl Rng) {
    for g in genome.iter_mut() {
        if rng.gen_bool(per_gene.clamp(0.0, 1.0)) {
            // Box-Muller.
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen();
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            *g = (*g + sigma * z).clamp(0.0, 1.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::root_rng;

    fn multiset_preserved(m: SeqMutation) {
        let mut rng = root_rng(21);
        let orig = vec![0, 1, 1, 2, 2, 2];
        for _ in 0..100 {
            let mut g = orig.clone();
            m.apply(&mut g, &mut rng);
            let mut a = g.clone();
            let mut b = orig.clone();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "{m:?} broke multiset");
        }
    }

    #[test]
    fn all_sequence_mutations_preserve_multiset() {
        for m in SeqMutation::ALL {
            multiset_preserved(m);
        }
    }

    #[test]
    fn swap_changes_at_most_two_positions() {
        let mut rng = root_rng(22);
        let orig = vec![0, 1, 2, 3, 4, 5];
        for _ in 0..50 {
            let mut g = orig.clone();
            SeqMutation::Swap.apply(&mut g, &mut rng);
            let diff = g.iter().zip(&orig).filter(|(a, b)| a != b).count();
            assert!(diff == 0 || diff == 2);
        }
    }

    #[test]
    fn gaussian_keys_stay_bounded() {
        let mut rng = root_rng(23);
        let mut g = vec![0.5; 100];
        gaussian_keys(&mut g, 1.0, 0.5, &mut rng);
        assert!(g.iter().all(|&k| (0.0..=1.0).contains(&k)));
        // With sigma 0.5 and 100 genes, essentially surely something moved.
        assert!(g.iter().any(|&k| (k - 0.5).abs() > 1e-9));
    }

    #[test]
    fn tiny_genomes_are_safe() {
        let mut rng = root_rng(25);
        for m in SeqMutation::ALL {
            let mut g = vec![0usize];
            m.apply(&mut g, &mut rng);
            assert_eq!(g, vec![0]);
        }
    }
}
