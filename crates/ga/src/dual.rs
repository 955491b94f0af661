//! Dual-chromosome genome for flexible shops (Belkadi et al. \[37\],
//! Defersha & Chen \[35\]\[36\]): an *assignment* part (one gene per
//! operation choosing the eligible machine) and a *sequencing* part (a
//! permutation with repetition of job ids). Crossover recombines the two
//! parts independently; mutation picks a part to perturb.

use crate::crossover::rep::job_order;
use crate::mutate::SeqMutation;
use rand::Rng;

/// Assignment + sequencing chromosome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DualGenome {
    /// Eligible-choice index per operation (decoder reduces modulo the
    /// choice count, so any value is legal).
    pub assign: Vec<usize>,
    /// Permutation with repetition of job ids.
    pub seq: Vec<usize>,
}

impl DualGenome {
    /// Random genome: uniform choice genes in `0..max_choices` and a
    /// shuffled repetition sequence where job `j` appears `ops_per_job[j]`
    /// times.
    pub fn random(ops_per_job: &[usize], max_choices: usize, rng: &mut impl Rng) -> Self {
        use rand::seq::SliceRandom;
        let total: usize = ops_per_job.iter().sum();
        let assign = (0..total)
            .map(|_| rng.gen_range(0..max_choices.max(1)))
            .collect();
        let mut seq = Vec::with_capacity(total);
        for (j, &k) in ops_per_job.iter().enumerate() {
            seq.extend(std::iter::repeat_n(j, k));
        }
        seq.shuffle(rng);
        DualGenome { assign, seq }
    }

    /// Crossover: uniform exchange on the assignment part, job-order
    /// crossover on the sequencing part.
    ///
    /// The exchange draws its coins 64 per RNG word: coin `i` is bit
    /// `i % 64` of the `⌊i/64⌋`-th `next_u64`, and a set bit gives the
    /// first child `a`'s gene and the second child `b`'s. Its
    /// `⌈len/64⌉` words come first, in order, then the two `job_order`
    /// calls draw theirs. Both assignment children are built in one
    /// branch-free pass: a per-gene branch on a random coin is one the
    /// predictor misses half the time.
    pub fn crossover(
        a: &DualGenome,
        b: &DualGenome,
        n_jobs: usize,
        rng: &mut impl Rng,
    ) -> (DualGenome, DualGenome) {
        let (a1, a2) = exchange(&a.assign, &b.assign, rng);
        let s1 = job_order(&a.seq, &b.seq, n_jobs, rng);
        let s2 = job_order(&b.seq, &a.seq, n_jobs, rng);
        (
            DualGenome {
                assign: a1,
                seq: s1,
            },
            DualGenome {
                assign: a2,
                seq: s2,
            },
        )
    }

    /// Mutation: with equal probability either reassigns one operation to
    /// a fresh random choice or applies a sequencing-neighbourhood move.
    pub fn mutate(&mut self, max_choices: usize, rng: &mut impl Rng) {
        if rng.gen_bool(0.5) && !self.assign.is_empty() {
            let i = rng.gen_range(0..self.assign.len());
            self.assign[i] = rng.gen_range(0..max_choices.max(1));
        } else {
            SeqMutation::Swap.apply(&mut self.seq, rng);
        }
    }
}

/// Uniform exchange of two equal-length gene vectors, one coin per
/// gene taken 64 at a time from `next_u64` (the scheme
/// [`DualGenome::crossover`] documents). Coin `i` widens to an
/// all-ones or all-zeros mask `m`, so each child gene is a select.
fn exchange(a: &[usize], b: &[usize], rng: &mut impl Rng) -> (Vec<usize>, Vec<usize>) {
    assert_eq!(a.len(), b.len(), "parents differ in length");
    let mut c1 = Vec::with_capacity(a.len());
    let mut c2 = Vec::with_capacity(a.len());
    for (xs, ys) in a.chunks(64).zip(b.chunks(64)) {
        let word = rng.next_u64();
        for (i, (&x, &y)) in xs.iter().zip(ys).enumerate() {
            let m = ((word >> i) as usize & 1).wrapping_neg();
            c1.push((x & m) | (y & !m));
            c2.push((y & m) | (x & !m));
        }
    }
    (c1, c2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::root_rng;
    use proptest::prelude::*;
    use rand::RngCore;

    /// The per-gene branching exchange, reading the same coins (bit
    /// `i % 64` of word `⌊i/64⌋`): the oracle for [`exchange`].
    fn exchange_reference(
        a: &[usize],
        b: &[usize],
        rng: &mut impl Rng,
    ) -> (Vec<usize>, Vec<usize>) {
        let (mut c1, mut c2) = (Vec::new(), Vec::new());
        let mut word = 0;
        for i in 0..a.len() {
            if i % 64 == 0 {
                word = rng.next_u64();
            }
            if (word >> (i % 64)) & 1 == 1 {
                c1.push(a[i]);
                c2.push(b[i]);
            } else {
                c1.push(b[i]);
                c2.push(a[i]);
            }
        }
        (c1, c2)
    }

    /// An RNG that counts its draws; word `k` is a fixed pattern of `k`.
    struct Counting {
        words: u64,
    }

    impl Counting {
        fn word(k: u64) -> u64 {
            0x9e37_79b9_7f4a_7c15u64
                .wrapping_mul(k + 1)
                .rotate_left(k as u32)
        }
    }

    impl RngCore for Counting {
        fn next_u64(&mut self) -> u64 {
            self.words += 1;
            Counting::word(self.words - 1)
        }
    }

    /// An RNG whose every word is the same.
    struct Constant(u64);

    impl RngCore for Constant {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    #[test]
    fn exchange_maps_bit_i_of_word_i_over_64_to_gene_i() {
        let n = 200;
        let a: Vec<usize> = (0..n).collect();
        let b: Vec<usize> = (1000..1000 + n).collect();
        let (c1, c2) = exchange(&a, &b, &mut Counting { words: 0 });
        for i in 0..n {
            let set = (Counting::word((i / 64) as u64) >> (i % 64)) & 1 == 1;
            let want = if set { (a[i], b[i]) } else { (b[i], a[i]) };
            assert_eq!((c1[i], c2[i]), want, "gene {i}");
        }
        // All-ones words give the parents back; all-zeros words swap them.
        assert_eq!(
            exchange(&a, &b, &mut Constant(u64::MAX)),
            (a.clone(), b.clone())
        );
        assert_eq!(exchange(&a, &b, &mut Constant(0)), (b, a));
    }

    #[test]
    fn exchange_draws_one_word_per_64_genes() {
        for n in [0, 1, 63, 64, 65, 160] {
            let genes = vec![0; n];
            let mut rng = Counting { words: 0 };
            exchange(&genes, &genes, &mut rng);
            assert_eq!(rng.words, n.div_ceil(64) as u64, "n = {n}");
        }
    }

    #[test]
    fn crossover_draws_the_exchange_before_the_job_orders() {
        let mut rng = root_rng(4);
        let a = DualGenome::random(&[8; 20], 3, &mut rng);
        let b = DualGenome::random(&[8; 20], 3, &mut rng);
        let (mut r1, mut r2) = (rng.clone(), rng);
        let (c1, c2) = DualGenome::crossover(&a, &b, 20, &mut r1);
        let (a1, a2) = exchange(&a.assign, &b.assign, &mut r2);
        let s1 = job_order(&a.seq, &b.seq, 20, &mut r2);
        let s2 = job_order(&b.seq, &a.seq, 20, &mut r2);
        assert_eq!((c1.assign, c1.seq, c2.assign, c2.seq), (a1, s1, a2, s2));
        assert_eq!(r1.next_u64(), r2.next_u64());
    }

    #[test]
    fn exchange_is_fair_at_every_position() {
        let n = 160;
        let a: Vec<usize> = vec![1; n];
        let b: Vec<usize> = vec![0; n];
        let trials = 4000;
        let mut from_a = vec![0usize; n];
        for seed in 0..trials {
            let (c1, c2) = exchange(&a, &b, &mut root_rng(seed));
            for i in 0..n {
                from_a[i] += c1[i];
                assert_eq!(c1[i] + c2[i], 1);
            }
        }
        // Binomial(4000, 1/2): standard deviation ~32, so ±240 is 7.5σ.
        for (i, &k) in from_a.iter().enumerate() {
            assert!((1760..=2240).contains(&k), "position {i}: {k} of {trials}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn exchange_matches_the_branching_reference(
            genes in prop::collection::vec((0usize..usize::MAX, 0usize..usize::MAX), 0..200),
            seed in 0u64..u64::MAX,
        ) {
            let (a, b): (Vec<usize>, Vec<usize>) = genes.into_iter().unzip();
            let (mut r1, mut r2) = (root_rng(seed), root_rng(seed));
            prop_assert_eq!(
                exchange(&a, &b, &mut r1),
                exchange_reference(&a, &b, &mut r2)
            );
            prop_assert_eq!(r1.next_u64(), r2.next_u64());
        }
    }

    fn counts(seq: &[usize], n: usize) -> Vec<usize> {
        let mut c = vec![0; n];
        for &g in seq {
            c[g] += 1;
        }
        c
    }

    #[test]
    fn random_genome_has_right_shape() {
        let mut rng = root_rng(1);
        let g = DualGenome::random(&[2, 3, 1], 4, &mut rng);
        assert_eq!(g.assign.len(), 6);
        assert_eq!(counts(&g.seq, 3), vec![2, 3, 1]);
        assert!(g.assign.iter().all(|&a| a < 4));
    }

    #[test]
    fn crossover_preserves_both_invariants() {
        let mut rng = root_rng(2);
        let a = DualGenome::random(&[2, 2, 2], 3, &mut rng);
        let b = DualGenome::random(&[2, 2, 2], 3, &mut rng);
        for _ in 0..50 {
            let (c1, c2) = DualGenome::crossover(&a, &b, 3, &mut rng);
            for c in [&c1, &c2] {
                assert_eq!(counts(&c.seq, 3), vec![2, 2, 2]);
                assert_eq!(c.assign.len(), 6);
            }
        }
    }

    #[test]
    fn mutation_keeps_invariants() {
        let mut rng = root_rng(3);
        let mut g = DualGenome::random(&[3, 3], 5, &mut rng);
        for _ in 0..100 {
            g.mutate(5, &mut rng);
            assert_eq!(counts(&g.seq, 2), vec![3, 3]);
            assert!(g.assign.iter().all(|&a| a < 5));
        }
    }
}
