//! Triangular fuzzy arithmetic for the fuzzy flow-shop model of Huang,
//! Huang & Lai \[24\]: fuzzy processing times and fuzzy due dates, with the
//! possibility and necessity measures used as optimisation criteria
//! (maximise agreement between fuzzy completion times and fuzzy due
//! dates).

use crate::instance::FlowShopInstance;
use crate::{Problem, Time};

/// A triangular fuzzy number `(a, b, c)` with support `[a, c]` and peak
/// `b` (membership 1 at `b`, linear flanks).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TriFuzzy {
    /// Left end of the support.
    pub a: f64,
    /// Peak (membership 1).
    pub b: f64,
    /// Right end of the support.
    pub c: f64,
}

impl TriFuzzy {
    /// A triangular number; panics unless `a <= b <= c`.
    pub fn new(a: f64, b: f64, c: f64) -> Self {
        assert!(a <= b && b <= c, "triangular numbers need a <= b <= c");
        TriFuzzy { a, b, c }
    }

    /// A crisp value embedded as a degenerate fuzzy number.
    pub fn crisp(x: f64) -> Self {
        TriFuzzy { a: x, b: x, c: x }
    }

    /// Fuzzy addition (exact for triangular numbers). The inherent name
    /// is kept (rather than only `impl std::ops::Add`) so call sites work
    /// without importing the trait.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: TriFuzzy) -> TriFuzzy {
        TriFuzzy {
            a: self.a + other.a,
            b: self.b + other.b,
            c: self.c + other.c,
        }
    }

    /// The component-wise max approximation of fuzzy max, standard in
    /// fuzzy scheduling (it preserves triangularity).
    pub fn max(self, other: TriFuzzy) -> TriFuzzy {
        TriFuzzy {
            a: self.a.max(other.a),
            b: self.b.max(other.b),
            c: self.c.max(other.c),
        }
    }

    /// Possibility measure `Pos(self <= other)`: degree to which the
    /// completion can meet the due date (optimistic agreement index).
    pub fn possibility_le(self, other: TriFuzzy) -> f64 {
        // Pos(X <= Y) = sup_{x <= y} min(mu_X(x), mu_Y(y)).
        // For triangular numbers this is 1 when b_X <= b_Y and otherwise
        // the height of the intersection of the right flank of Y with the
        // left flank of X.
        if self.b <= other.b {
            return 1.0;
        }
        if self.a >= other.c {
            return 0.0;
        }
        // Left flank of X: mu = (x - a_X) / (b_X - a_X);
        // right flank of Y: mu = (c_Y - y) / (c_Y - b_Y).
        let denom = (self.b - self.a) + (other.c - other.b);
        if denom <= f64::EPSILON {
            return if self.a <= other.c { 1.0 } else { 0.0 };
        }
        ((other.c - self.a) / denom).clamp(0.0, 1.0)
    }

    /// Necessity measure `Nec(self <= other) = 1 - Pos(self > other)`:
    /// the pessimistic agreement index of Huang et al. \[24\].
    pub fn necessity_le(self, other: TriFuzzy) -> f64 {
        // Pos(X > Y) for triangular X, Y: 1 when b_X >= b_Y, else the
        // intersection height of the right flank of X with the left flank
        // of Y.
        let pos_gt = if self.b >= other.b {
            1.0
        } else if self.c <= other.a {
            0.0
        } else {
            let denom = (other.b - other.a) + (self.c - self.b);
            if denom <= f64::EPSILON {
                1.0
            } else {
                ((self.c - other.a) / denom).clamp(0.0, 1.0)
            }
        };
        1.0 - pos_gt
    }
}

/// A fuzzy flow-shop instance: crisp machine routing (machines 0..m in
/// order) with triangular fuzzy processing times and due dates.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzyFlowShop {
    /// `proc[j][m]`.
    pub proc: Vec<Vec<TriFuzzy>>,
    /// Fuzzy due date per job.
    pub due: Vec<TriFuzzy>,
}

impl FuzzyFlowShop {
    /// Wraps a crisp instance by spreading each time `p` to the triangle
    /// `(p·(1-spread), p, p·(1+spread))` and each due date likewise —
    /// the standard way fuzzy benchmarks are built from crisp ones.
    pub fn from_crisp(inst: &FlowShopInstance, spread: f64, due_tightness: f64) -> Self {
        assert!((0.0..1.0).contains(&spread));
        let n = inst.n_jobs();
        let m = inst.n_machines();
        let proc: Vec<Vec<TriFuzzy>> = (0..n)
            .map(|j| {
                (0..m)
                    .map(|k| {
                        let p = inst.proc(j, k) as f64;
                        TriFuzzy::new(p * (1.0 - spread), p, p * (1.0 + spread))
                    })
                    .collect()
            })
            .collect();
        let due: Vec<TriFuzzy> = (0..n)
            .map(|j| {
                let work: Time = inst.job_row(j).iter().sum();
                let d = work as f64 * due_tightness;
                TriFuzzy::new(d * (1.0 - spread), d, d * (1.0 + spread))
            })
            .collect();
        FuzzyFlowShop { proc, due }
    }

    /// Number of jobs.
    pub fn n_jobs(&self) -> usize {
        self.proc.len()
    }

    /// Number of machines.
    pub fn n_machines(&self) -> usize {
        self.proc.first().map_or(0, |r| r.len())
    }

    /// Fuzzy completion time of every job under a permutation, using the
    /// fuzzy analogue of the flow-shop DP (addition + component max).
    pub fn completion_times(&self, perm: &[usize]) -> Vec<TriFuzzy> {
        let m = self.n_machines();
        let mut frontier = vec![TriFuzzy::crisp(0.0); m];
        let mut completion = vec![TriFuzzy::crisp(0.0); self.n_jobs()];
        for &j in perm {
            let mut prev = frontier[0].add(self.proc[j][0]);
            frontier[0] = prev;
            for k in 1..m {
                prev = prev.max(frontier[k]).add(self.proc[j][k]);
                frontier[k] = prev;
            }
            completion[j] = frontier[m - 1];
        }
        completion
    }

    /// The Huang et al. \[24\] bi-measure objective: the average over jobs
    /// of `lambda * possibility + (1 - lambda) * necessity` of meeting the
    /// fuzzy due date. Higher is better; callers minimise `1 - value`.
    pub fn agreement(&self, perm: &[usize], lambda: f64) -> f64 {
        let completion = self.completion_times(perm);
        let n = self.n_jobs() as f64;
        completion
            .iter()
            .zip(&self.due)
            .map(|(c, d)| lambda * c.possibility_le(*d) + (1.0 - lambda) * c.necessity_le(*d))
            .sum::<f64>()
            / n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::generate::{flow_shop_taillard, GenConfig};

    #[test]
    fn arithmetic() {
        let x = TriFuzzy::new(1.0, 2.0, 3.0);
        let y = TriFuzzy::new(2.0, 2.0, 4.0);
        assert_eq!(x.add(y), TriFuzzy::new(3.0, 4.0, 7.0));
        assert_eq!(x.max(y), TriFuzzy::new(2.0, 2.0, 4.0));
    }

    #[test]
    fn possibility_ordering() {
        let early = TriFuzzy::new(1.0, 2.0, 3.0);
        let late = TriFuzzy::new(5.0, 6.0, 7.0);
        assert_eq!(early.possibility_le(late), 1.0);
        assert_eq!(late.possibility_le(early), 0.0);
        // Overlapping case lies strictly between.
        let mid = TriFuzzy::new(2.5, 3.5, 4.5);
        let p = mid.possibility_le(early);
        assert!(p > 0.0 && p < 1.0);
    }

    #[test]
    fn necessity_never_exceeds_possibility() {
        let xs = [
            TriFuzzy::new(1.0, 2.0, 4.0),
            TriFuzzy::new(2.0, 3.0, 3.5),
            TriFuzzy::new(0.5, 1.0, 6.0),
        ];
        let d = TriFuzzy::new(2.0, 3.0, 4.0);
        for x in xs {
            assert!(x.necessity_le(d) <= x.possibility_le(d) + 1e-12);
        }
    }

    #[test]
    fn crisp_limit_matches_crisp_decoder() {
        // With zero spread the fuzzy DP degenerates to the crisp one.
        let inst = flow_shop_taillard(&GenConfig::new(6, 3, 31));
        let fz = FuzzyFlowShop::from_crisp(&inst, 0.0, 1.5);
        let perm: Vec<usize> = (0..6).collect();
        let crisp = crate::decoder::flow::FlowDecoder::new(&inst).makespan(&perm) as f64;
        // The last job of the permutation completes at the makespan.
        let last = fz.completion_times(&perm)[5];
        assert_eq!(last, TriFuzzy::crisp(crisp));
    }

    #[test]
    fn agreement_in_unit_interval() {
        let inst = flow_shop_taillard(&GenConfig::new(8, 4, 13));
        let fz = FuzzyFlowShop::from_crisp(&inst, 0.2, 2.0);
        let perm: Vec<usize> = (0..8).collect();
        for lambda in [0.0, 0.5, 1.0] {
            let v = fz.agreement(&perm, lambda);
            assert!((0.0..=1.0).contains(&v), "agreement {v} out of range");
        }
    }
}
