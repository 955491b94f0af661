//! Fitness-guided recombination: path relinking used by Spanos et al.
//! \[29\].
//!
//! The operator walks from one parent towards the other through a
//! neighbourhood structure, returning the best solution seen, so it needs
//! the cost function — unlike the syntactic crossovers.

/// Path relinking: walks from `from` to `to` by fixing one position per
/// step (swapping the needed value into place), evaluating every
/// intermediate, and returning the best sequence on the path. Works on
/// strict permutations and on repetition sequences alike (it swaps
/// positions, preserving the multiset).
pub fn path_relink(from: &[usize], to: &[usize], cost: &dyn Fn(&[usize]) -> f64) -> Vec<usize> {
    let n = from.len();
    let mut current = from.to_vec();
    let mut best = current.clone();
    let mut best_cost = cost(&best);
    for i in 0..n {
        if current[i] == to[i] {
            continue;
        }
        // Find a later position holding the needed value and swap it in.
        if let Some(j) = (i + 1..n).find(|&j| current[j] == to[i] && current[j] != to[j]) {
            current.swap(i, j);
        } else if let Some(j) = (i + 1..n).find(|&j| current[j] == to[i]) {
            current.swap(i, j);
        } else {
            continue; // multiset mismatch; skip (defensive)
        }
        let c = cost(&current);
        if c < best_cost {
            best_cost = c;
            best = current.clone();
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Positional (Hamming) distance between two equal-length sequences.
    fn hamming(a: &[usize], b: &[usize]) -> usize {
        a.iter().zip(b).filter(|(x, y)| x != y).count()
    }

    fn multiset_eq(a: &[usize], b: &[usize]) -> bool {
        let mut x = a.to_vec();
        let mut y = b.to_vec();
        x.sort_unstable();
        y.sort_unstable();
        x == y
    }

    #[test]
    fn path_relink_reaches_target_through_valid_intermediates() {
        let from = vec![0, 1, 2, 3];
        let to = vec![3, 2, 1, 0];
        // Cost prefers the target exactly; the walk must find it.
        let cost = |s: &[usize]| hamming(s, &[3, 2, 1, 0]) as f64;
        let best = path_relink(&from, &to, &cost);
        assert_eq!(best, to);
        assert!(multiset_eq(&best, &from));
    }

    #[test]
    fn path_relink_returns_best_intermediate() {
        let from = vec![0, 1, 2];
        let to = vec![2, 0, 1];
        // Cost function that likes an intermediate state most.
        let cost = |s: &[usize]| if s == [2, 1, 0] { 0.0 } else { 1.0 };
        let best = path_relink(&from, &to, &cost);
        assert_eq!(best, vec![2, 1, 0]);
    }
}
