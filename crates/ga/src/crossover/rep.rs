//! Crossovers over permutations with repetition (job-shop operation
//! sequences, where job `j` appears `n_ops(j)` times). All operators
//! preserve the gene multiset, so every child decodes feasibly.

use rand::Rng;

/// Job-order crossover: pick a random subset `S` of jobs; the child keeps
/// `p1`'s genes at positions holding jobs in `S`, and fills the remaining
/// positions with `p2`'s genes of jobs outside `S`, in `p2` order. This is
/// the standard "generalised order crossover" for operation sequences.
pub fn job_order(p1: &[usize], p2: &[usize], n_jobs: usize, rng: &mut impl Rng) -> Vec<usize> {
    let in_set: Vec<usize> = (0..n_jobs)
        .map(|_| usize::from(rng.gen_bool(0.5)).wrapping_neg())
        .collect();
    keep_and_fill(p1, p2, &in_set)
}

/// The child keeps `p1[i]` wherever `keep[p1[i]]` is all ones and takes,
/// in `p2` order, `p2`'s genes whose `keep` word is zero for the other
/// positions. `p1` and `p2` must hold the same multiset. Both passes are
/// branch-free: a random subset makes every per-gene branch a coin flip
/// the predictor misses half the time.
pub(super) fn keep_and_fill(p1: &[usize], p2: &[usize], keep: &[usize]) -> Vec<usize> {
    let mut rest = vec![0; p2.len()];
    let mut k = 0;
    for &g in p2 {
        rest[k] = g;
        k += 1 & !keep[g];
    }
    let mut j = 0;
    p1.iter()
        .map(|&g| {
            let m = keep[g];
            let out = (g & m) | (rest[j] & !m);
            j += 1 & !m;
            out
        })
        .collect()
}

/// Time-horizon exchange (THX, Lin et al. \[21\]), sequence form: the child
/// copies `p1` up to a horizon position (a fraction of the sequence — the
/// "time horizon" of the partial schedule), then completes with the
/// remaining multiset in `p2` order. Lin et al. designed THX so the child
/// inherits the first parent's schedule up to a time horizon and the
/// second parent's decisions after it.
pub fn thx(p1: &[usize], p2: &[usize], horizon_fraction: f64, rng: &mut impl Rng) -> Vec<usize> {
    let n = p1.len();
    let frac = horizon_fraction.clamp(0.0, 1.0);
    // Jitter the horizon a little so repeated applications explore.
    let base = (n as f64 * frac) as usize;
    let h = if base >= n {
        n
    } else {
        rng.gen_range(base.min(n.saturating_sub(1))..=base.max(1).min(n))
    };
    let max_job = p1.iter().copied().max().unwrap_or(0);
    let mut remaining = vec![0isize; max_job + 1];
    for &g in p1 {
        remaining[g] += 1;
    }
    let mut child = Vec::with_capacity(n);
    for &g in &p1[..h] {
        child.push(g);
        remaining[g] -= 1;
    }
    for &g in p2 {
        if remaining[g] > 0 {
            child.push(g);
            remaining[g] -= 1;
        }
    }
    debug_assert_eq!(child.len(), n);
    child
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::root_rng;
    use proptest::prelude::*;
    use rand::seq::SliceRandom;
    use rand::RngCore;

    /// The branching job-order crossover the kernel replaced, kept as the
    /// oracle for its children and its RNG calls.
    fn job_order_reference(
        p1: &[usize],
        p2: &[usize],
        n_jobs: usize,
        rng: &mut impl Rng,
    ) -> Vec<usize> {
        let mut in_set = vec![false; n_jobs];
        for flag in in_set.iter_mut() {
            *flag = rng.gen_bool(0.5);
        }
        let mut child = vec![usize::MAX; p1.len()];
        for (i, &g) in p1.iter().enumerate() {
            if in_set[g] {
                child[i] = g;
            }
        }
        let mut fill = 0;
        for &g in p2 {
            if !in_set[g] {
                while child[fill] != usize::MAX {
                    fill += 1;
                }
                child[fill] = g;
            }
        }
        child
    }

    /// An RNG whose every word is the same: 0 makes `gen_bool(0.5)` draw
    /// `true`, `u64::MAX` makes it draw `false`.
    #[derive(Clone)]
    struct Constant(u64);

    impl RngCore for Constant {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    /// A shuffled operation sequence in which job `j` appears `ops[j]`
    /// times.
    fn op_sequence(ops: &[usize], rng: &mut impl Rng) -> Vec<usize> {
        let mut seq: Vec<usize> = (0..ops.len())
            .flat_map(|j| std::iter::repeat_n(j, ops[j]))
            .collect();
        seq.shuffle(rng);
        seq
    }

    /// `job_order` and its reference, each from a clone of `rng`, give
    /// the same child and leave the RNG at the same position.
    fn assert_matches_reference<R: Rng + Clone>(
        p1: &[usize],
        p2: &[usize],
        n_jobs: usize,
        rng: &R,
    ) {
        let (mut a, mut b) = (rng.clone(), rng.clone());
        assert_eq!(
            job_order(p1, p2, n_jobs, &mut a),
            job_order_reference(p1, p2, n_jobs, &mut b),
            "{p1:?} x {p2:?}"
        );
        assert_eq!(
            a.next_u64(),
            b.next_u64(),
            "RNG position after {p1:?} x {p2:?}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn job_order_matches_the_branching_reference(
            ops in prop::collection::vec(0usize..5, 1..9),
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = root_rng(seed);
            let p1 = op_sequence(&ops, &mut rng);
            let p2 = op_sequence(&ops, &mut rng);
            assert_matches_reference(&p1, &p2, ops.len(), &rng);
        }
    }

    #[test]
    fn job_order_edge_cases_match_the_reference() {
        for seed in 0..32 {
            let rng = root_rng(seed);
            // One job; one-gene genomes.
            assert_matches_reference(&[0, 0, 0], &[0, 0, 0], 1, &rng);
            assert_matches_reference(&[0], &[0], 1, &rng);
            assert_matches_reference(&[2], &[2], 3, &rng);
        }
        // All-in and all-out job subsets.
        let mut rng = root_rng(6);
        let p1 = op_sequence(&[4; 5], &mut rng);
        let p2 = op_sequence(&[4; 5], &mut rng);
        for word in [0, u64::MAX] {
            assert_matches_reference(&p1, &p2, 5, &Constant(word));
        }
        assert_eq!(job_order(&p1, &p2, 5, &mut Constant(0)), p1);
        assert_eq!(job_order(&p1, &p2, 5, &mut Constant(u64::MAX)), p2);
    }

    fn multiset_eq(a: &[usize], b: &[usize]) -> bool {
        let mut x = a.to_vec();
        let mut y = b.to_vec();
        x.sort_unstable();
        y.sort_unstable();
        x == y
    }

    #[test]
    fn job_order_preserves_multiset_and_positions() {
        let mut rng = root_rng(11);
        let p1 = vec![0, 0, 1, 1, 2, 2];
        let p2 = vec![2, 1, 0, 2, 1, 0];
        for _ in 0..100 {
            let c = job_order(&p1, &p2, 3, &mut rng);
            assert!(multiset_eq(&c, &p1));
        }
    }

    #[test]
    fn thx_prefix_comes_from_first_parent() {
        let mut rng = root_rng(12);
        let p1 = vec![0, 1, 2, 0, 1, 2];
        let p2 = vec![2, 2, 1, 1, 0, 0];
        for _ in 0..50 {
            let c = thx(&p1, &p2, 0.5, &mut rng);
            assert!(multiset_eq(&c, &p1));
            // At least the first gene is always p1's.
            assert_eq!(c[0], p1[0]);
        }
    }

    #[test]
    fn thx_extremes() {
        let mut rng = root_rng(13);
        let p1 = vec![0, 1, 0, 1];
        let p2 = vec![1, 1, 0, 0];
        // Full horizon: child == p1.
        assert_eq!(thx(&p1, &p2, 1.0, &mut rng), p1);
    }
}
