//! Classic constructive heuristics for flow shops: Johnson's rule
//! (optimal for 2 machines), the Campbell–Dudek–Smith (CDS) extension to
//! `m` machines, and Palmer's slope index. The survey's Eq. 1 fitness
//! transform needs "the objective function value of some heuristic
//! solution" (`F̄`); these are the standard choices, and they double as
//! strong population seeds and as test oracles (Johnson is provably
//! optimal on 2 machines).

use super::flow::FlowDecoder;
use crate::instance::FlowShopInstance;
use crate::{Problem, Time};

/// Johnson's rule for a 2-machine flow shop given per-job times
/// `(a_j, b_j)`: jobs with `a <= b` are scheduled first in increasing
/// `a`, the rest last in decreasing `b`. Returns the optimal permutation
/// for the 2-machine makespan problem.
pub fn johnson_two_machine(a: &[Time], b: &[Time]) -> Vec<usize> {
    assert_eq!(a.len(), b.len());
    let n = a.len();
    let mut first: Vec<usize> = (0..n).filter(|&j| a[j] <= b[j]).collect();
    let mut last: Vec<usize> = (0..n).filter(|&j| a[j] > b[j]).collect();
    first.sort_by_key(|&j| (a[j], j));
    last.sort_by_key(|&j| (std::cmp::Reverse(b[j]), j));
    first.extend(last);
    first
}

/// Campbell–Dudek–Smith: builds `m - 1` two-machine surrogate problems
/// (prefix sums vs suffix sums), runs Johnson's rule on each, and keeps
/// the permutation with the best true makespan.
pub fn cds(inst: &FlowShopInstance) -> Vec<usize> {
    let n = inst.n_jobs();
    let m = inst.n_machines();
    let decoder = FlowDecoder::new(inst);
    let mut best: Option<(Time, Vec<usize>)> = None;
    for k in 1..m.max(2) {
        let a: Vec<Time> = (0..n)
            .map(|j| (0..k).map(|s| inst.proc(j, s)).sum())
            .collect();
        let b: Vec<Time> = (0..n)
            .map(|j| (m - k..m).map(|s| inst.proc(j, s)).sum())
            .collect();
        let perm = johnson_two_machine(&a, &b);
        let mk = decoder.makespan(&perm);
        if best.as_ref().is_none_or(|(bmk, _)| mk < *bmk) {
            best = Some((mk, perm));
        }
    }
    best.expect("at least one surrogate").1
}

/// Palmer's slope index: jobs sorted by decreasing
/// `sum_s (2s - m + 1) * p_{j,s}` — jobs that finish with long operations
/// go first.
pub fn palmer(inst: &FlowShopInstance) -> Vec<usize> {
    let m = inst.n_machines() as i64;
    let mut order: Vec<usize> = (0..inst.n_jobs()).collect();
    let slope = |j: usize| -> i64 {
        (0..inst.n_machines())
            .map(|s| (2 * s as i64 - m + 1) * inst.proc(j, s) as i64)
            .sum()
    };
    order.sort_by_key(|&j| (std::cmp::Reverse(slope(j)), j));
    order
}

/// The best of NEH, CDS and Palmer — a strong default `F̄` reference for
/// the survey's Eq. 1 fitness and a good seed bundle for populations.
pub fn best_heuristic(inst: &FlowShopInstance) -> (Vec<usize>, Time) {
    let decoder = FlowDecoder::new(inst);
    let candidates = [decoder.neh(), cds(inst), palmer(inst)];
    candidates
        .into_iter()
        .map(|p| {
            let mk = decoder.makespan(&p);
            (p, mk)
        })
        .min_by_key(|&(_, mk)| mk)
        .expect("non-empty candidate set")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::generate::{flow_shop_taillard, GenConfig};

    fn brute_force_optimum(inst: &FlowShopInstance) -> Time {
        // n <= 8 only.
        let n = inst.n_jobs();
        let decoder = FlowDecoder::new(inst);
        let mut perm: Vec<usize> = (0..n).collect();
        let mut best = Time::MAX;
        permute(&mut perm, 0, &mut |p| {
            best = best.min(decoder.makespan(p));
        });
        best
    }

    fn permute(v: &mut Vec<usize>, k: usize, f: &mut impl FnMut(&[usize])) {
        if k == v.len() {
            f(v);
            return;
        }
        for i in k..v.len() {
            v.swap(k, i);
            permute(v, k + 1, f);
            v.swap(k, i);
        }
    }

    #[test]
    fn johnson_is_optimal_on_two_machines() {
        for seed in 0..10 {
            let inst = flow_shop_taillard(&GenConfig::new(7, 2, seed));
            let decoder = FlowDecoder::new(&inst);
            let a: Vec<Time> = (0..7).map(|j| inst.proc(j, 0)).collect();
            let b: Vec<Time> = (0..7).map(|j| inst.proc(j, 1)).collect();
            let mk = decoder.makespan(&johnson_two_machine(&a, &b));
            assert_eq!(mk, brute_force_optimum(&inst), "seed {seed}");
        }
    }

    #[test]
    fn johnson_classic_textbook_case() {
        // Jobs (a, b): J0 (3,6) J1 (5,2) J2 (1,2) J3 (6,6) J4 (7,5).
        let order = johnson_two_machine(&[3, 5, 1, 6, 7], &[6, 2, 2, 6, 5]);
        // First group (a<=b) sorted by a: J2(1), J0(3), J3(6);
        // second group (a>b) by decreasing b: J4(5), J1(2).
        assert_eq!(order, vec![2, 0, 3, 4, 1]);
    }

    #[test]
    fn heuristics_produce_valid_permutations() {
        let inst = flow_shop_taillard(&GenConfig::new(12, 5, 3));
        for perm in [cds(&inst), palmer(&inst)] {
            let mut s = perm.clone();
            s.sort_unstable();
            assert_eq!(s, (0..12).collect::<Vec<_>>());
        }
    }

    #[test]
    fn cds_beats_or_ties_palmer_usually_and_both_beat_random_mean() {
        let mut cds_wins = 0;
        let mut total = 0;
        for seed in 0..20 {
            let inst = flow_shop_taillard(&GenConfig::new(15, 5, seed));
            let d = FlowDecoder::new(&inst);
            let c = d.makespan(&cds(&inst));
            let p = d.makespan(&palmer(&inst));
            let identity = d.makespan(&(0..15).collect::<Vec<_>>());
            assert!(c <= identity + identity / 10, "CDS should not be terrible");
            if c <= p {
                cds_wins += 1;
            }
            total += 1;
        }
        // CDS is the stronger heuristic in the vast majority of cases.
        assert!(cds_wins * 2 > total, "CDS won only {cds_wins}/{total}");
    }

    #[test]
    fn best_heuristic_is_minimum_of_the_three() {
        let inst = flow_shop_taillard(&GenConfig::new(10, 4, 9));
        let d = FlowDecoder::new(&inst);
        let (_, mk) = best_heuristic(&inst);
        assert!(mk <= d.makespan(&d.neh()));
        assert!(mk <= d.makespan(&cds(&inst)));
        assert!(mk <= d.makespan(&palmer(&inst)));
        assert!(mk >= inst.makespan_lower_bound());
    }
}
