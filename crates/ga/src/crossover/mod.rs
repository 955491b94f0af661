//! Crossover operators, grouped by encoding family:
//!
//! * [`perm`] — strict permutations (flow-shop job orders): PMX, order
//!   (OX), linear order (LOX), cycle (CX), position-based.
//! * [`rep`] — permutations with repetition (job-shop operation
//!   sequences): job-order crossover and the time-horizon exchange (THX)
//!   of Lin et al. \[21\].
//! * [`keys`] — real vectors (random keys): n-point, uniform,
//!   parameterized uniform (Huang \[24\]), arithmetic (Zajíček \[25\]).
//! * [`fusion`] — fitness-guided recombination: path relinking
//!   (Spanos \[29\]).
//!
//! The enums here let experiment configs (heterogeneous islands of Park
//! \[26\] / Bożejko \[30\]) name an operator per island.

pub mod fusion;
pub mod keys;
pub mod perm;
pub mod rep;

use rand::Rng;

/// Named crossover over strict permutations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PermCrossover {
    Pmx,
    Order,
    LinearOrder,
    Cycle,
    PositionBased,
}

impl PermCrossover {
    /// Applies the operator, producing two children.
    pub fn apply(
        &self,
        p1: &[usize],
        p2: &[usize],
        rng: &mut impl Rng,
    ) -> (Vec<usize>, Vec<usize>) {
        match self {
            PermCrossover::Pmx => (perm::pmx(p1, p2, rng), perm::pmx(p2, p1, rng)),
            PermCrossover::Order => (perm::order(p1, p2, rng), perm::order(p2, p1, rng)),
            PermCrossover::LinearOrder => (
                perm::linear_order(p1, p2, rng),
                perm::linear_order(p2, p1, rng),
            ),
            PermCrossover::Cycle => perm::cycle(p1, p2),
            PermCrossover::PositionBased => (
                perm::position_based(p1, p2, rng),
                perm::position_based(p2, p1, rng),
            ),
        }
    }

    /// The five operators in a stable order (heterogeneous-island sweeps
    /// index into this).
    pub const ALL: [PermCrossover; 5] = [
        PermCrossover::Pmx,
        PermCrossover::Order,
        PermCrossover::LinearOrder,
        PermCrossover::Cycle,
        PermCrossover::PositionBased,
    ];
}

/// Named crossover over permutations with repetition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RepCrossover {
    /// Job-order crossover: keep a random job subset's genes in place.
    JobOrder,
    /// Time-horizon exchange with the horizon as a fraction of the
    /// sequence length.
    Thx(f64),
}

impl RepCrossover {
    pub fn apply(
        &self,
        p1: &[usize],
        p2: &[usize],
        n_jobs: usize,
        rng: &mut impl Rng,
    ) -> (Vec<usize>, Vec<usize>) {
        match *self {
            RepCrossover::JobOrder => (
                rep::job_order(p1, p2, n_jobs, rng),
                rep::job_order(p2, p1, n_jobs, rng),
            ),
            RepCrossover::Thx(f) => (rep::thx(p1, p2, f, rng), rep::thx(p2, p1, f, rng)),
        }
    }
}

/// Named crossover over random-key vectors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeysCrossover {
    OnePoint,
    TwoPoint,
    Uniform,
    /// Biased uniform: take from the first parent with probability `p`
    /// (Huang et al. \[24\] use p ≈ 0.7).
    ParamUniform(f64),
    /// Convex combination with a random coefficient (Zajíček \[25\]).
    Arithmetic,
}

impl KeysCrossover {
    pub fn apply(&self, p1: &[f64], p2: &[f64], rng: &mut impl Rng) -> (Vec<f64>, Vec<f64>) {
        match *self {
            KeysCrossover::OnePoint => keys::n_point(p1, p2, 1, rng),
            KeysCrossover::TwoPoint => keys::n_point(p1, p2, 2, rng),
            KeysCrossover::Uniform => keys::parameterized_uniform(p1, p2, 0.5, rng),
            KeysCrossover::ParamUniform(p) => keys::parameterized_uniform(p1, p2, p, rng),
            KeysCrossover::Arithmetic => keys::arithmetic(p1, p2, rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::root_rng;

    fn is_perm(v: &[usize]) -> bool {
        let mut s: Vec<usize> = v.to_vec();
        s.sort_unstable();
        s == (0..v.len()).collect::<Vec<_>>()
    }

    #[test]
    fn all_perm_crossovers_preserve_permutation() {
        let mut rng = root_rng(5);
        let p1: Vec<usize> = vec![3, 1, 4, 0, 5, 2, 7, 6];
        let p2: Vec<usize> = vec![0, 1, 2, 3, 4, 5, 6, 7];
        for op in PermCrossover::ALL {
            for _ in 0..50 {
                let (a, b) = op.apply(&p1, &p2, &mut rng);
                assert!(is_perm(&a) && is_perm(&b), "{op:?} broke permutation");
            }
        }
    }

    #[test]
    fn rep_crossovers_preserve_multiset() {
        let mut rng = root_rng(6);
        let p1 = vec![0, 1, 0, 2, 1, 2, 0, 1, 2];
        let p2 = vec![2, 2, 1, 1, 0, 0, 2, 1, 0];
        for op in [RepCrossover::JobOrder, RepCrossover::Thx(0.4)] {
            for _ in 0..50 {
                let (a, b) = op.apply(&p1, &p2, 3, &mut rng);
                for child in [&a, &b] {
                    let mut counts = [0usize; 3];
                    for &g in child.iter() {
                        counts[g] += 1;
                    }
                    assert_eq!(counts, [3, 3, 3], "{op:?} broke multiset");
                }
            }
        }
    }

    #[test]
    fn keys_crossovers_stay_in_bounds() {
        let mut rng = root_rng(7);
        let p1 = vec![0.1, 0.9, 0.5, 0.3];
        let p2 = vec![0.8, 0.2, 0.6, 0.4];
        for op in [
            KeysCrossover::OnePoint,
            KeysCrossover::TwoPoint,
            KeysCrossover::Uniform,
            KeysCrossover::ParamUniform(0.7),
            KeysCrossover::Arithmetic,
        ] {
            let (a, b) = op.apply(&p1, &p2, &mut rng);
            for child in [a, b] {
                assert_eq!(child.len(), 4);
                assert!(child.iter().all(|&k| (0.0..=1.0).contains(&k)));
            }
        }
    }
}
