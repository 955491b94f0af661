//! Property and boundary tests for the struct-of-arrays decoder hot
//! path (`shop::decoder::table`) and the dynamic-session suffix
//! re-decoder (`shop::dynamic::SuffixRedecoder`).
//!
//! The contract under test: on genome pairs differing at a single
//! mutation site, a race member's decoder, the full table decode, and
//! the reference decoder's materialised-and-validated schedule all
//! agree bit-identically, for all four shop families. The suffix
//! re-decoder's one-pass dispatch is checked against the materialising
//! rescheduler on folded event storms, on every permutation of a small
//! suffix, and on mutations that land inside a machine-down window
//! inherited from a frozen prefix.

use proptest::prelude::*;
use shop::decoder::flexible::FlexDecoder;
use shop::decoder::flow::FlowDecoder;
use shop::decoder::job::JobDecoder;
use shop::decoder::open::OpenDecoder;
use shop::decoder::table::{
    DecodeScratch, FlexTable, IncrementalFlex, IncrementalFlow, IncrementalJob,
    IncrementalOpenOrder, OpTable,
};
use shop::dynamic::{
    apply_event, frozen_prefix, reschedule_suffix_with_windows, DownWindow, Event, SuffixRedecoder,
};
use shop::instance::generate::{
    flexible_job_shop, flow_shop_taillard, job_shop_uniform, open_shop_uniform, GenConfig,
};
use shop::instance::{JobShopInstance, Op};
use shop::schedule::ScheduledOp;
use shop::Problem;
use std::sync::Arc;

/// An arbitrary permutation of `0..n` built from a shuffle-key vector.
fn permutation(n: usize) -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0u64..u64::MAX, n).prop_map(move |keys| {
        let mut idx: Vec<usize> = (0..n).collect();
        idx.sort_by_key(|&i| keys[i]);
        idx
    })
}

/// An arbitrary operation sequence for `n` jobs x `m` ops (a shuffled
/// permutation with repetition).
fn op_sequence(n: usize, m: usize) -> impl Strategy<Value = Vec<usize>> {
    permutation(n * m).prop_map(move |p| p.into_iter().map(|v| v % n).collect())
}

/// The mutated clone of `g`: positions `i` and `j` swapped (reduced
/// into range). A swap is the multiset-preserving single-site
/// mutation every sequence operator reduces to; when `i == j` the
/// clone is identical and must decode to the same values.
fn swapped(g: &[usize], i: usize, j: usize) -> Vec<usize> {
    let mut out = g.to_vec();
    out.swap(i % g.len(), j % g.len());
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Satellite: full decode, incremental re-decode, and schedule
    // validation agree bit-identically on genome pairs differing at
    // one mutation site — flow family.
    #[test]
    fn flow_incremental_matches_full_and_schedule(
        perm in permutation(9),
        i in 0usize..9,
        j in 0usize..9,
        seed in 0u64..300,
    ) {
        let inst = flow_shop_taillard(&GenConfig::new(9, 4, seed));
        let table = Arc::new(OpTable::from_flow(&inst));
        let reference = FlowDecoder::new(&inst);
        let mut scratch = DecodeScratch::new();
        let mut inc = IncrementalFlow::new(Arc::clone(&table));
        let mutant = swapped(&perm, i, j);
        for g in [&perm, &mutant, &perm] {
            let got = inc.decode(g);
            prop_assert_eq!(got, table.flow_makespan(g, &mut scratch));
            prop_assert_eq!(got, reference.makespan(g));
            let s = reference.schedule(g);
            prop_assert!(s.validate_flow(&inst).is_ok());
            prop_assert_eq!(got, s.makespan());
            let sum: u64 = s.completion_times(inst.n_jobs()).iter().sum();
            prop_assert_eq!(inc.decode_completion_sum(g), sum);
        }
    }

    // Job family: operation sequences with repetition.
    #[test]
    fn job_incremental_matches_full_and_schedule(
        seq in op_sequence(6, 4),
        i in 0usize..24,
        j in 0usize..24,
        seed in 0u64..300,
    ) {
        let inst = job_shop_uniform(&GenConfig::new(6, 4, seed));
        let table = Arc::new(OpTable::from_job(&inst));
        let reference = JobDecoder::new(&inst);
        let mut scratch = DecodeScratch::new();
        let mut inc = IncrementalJob::new(Arc::clone(&table));
        let mutant = swapped(&seq, i, j);
        for g in [&seq, &mutant, &seq] {
            let got = inc.decode(g);
            prop_assert_eq!(got, table.job_makespan(g, &mut scratch));
            prop_assert_eq!(got, reference.semi_active_makespan(g));
            let s = reference.semi_active(g);
            prop_assert!(s.validate_job(&inst).is_ok());
            prop_assert_eq!(got, s.makespan());
            let sum: u64 = s.completion_times(inst.n_jobs()).iter().sum();
            prop_assert_eq!(inc.decode_completion_sum(g), sum);
        }
    }

    // Open family: dense-op-id permutations (gene v = job v/m on
    // machine v%m — the encoding the service races).
    #[test]
    fn open_incremental_matches_full_and_schedule(
        perm in permutation(20),
        i in 0usize..20,
        j in 0usize..20,
        seed in 0u64..300,
    ) {
        let inst = open_shop_uniform(&GenConfig::new(5, 4, seed));
        let m = inst.n_machines();
        let table = Arc::new(OpTable::from_open(&inst));
        let reference = OpenDecoder::new(&inst);
        let mut scratch = DecodeScratch::new();
        let mut inc = IncrementalOpenOrder::new(Arc::clone(&table));
        let mutant = swapped(&perm, i, j);
        for g in [&perm, &mutant, &perm] {
            let got = inc.decode(g);
            prop_assert_eq!(got, table.open_order_makespan(g, &mut scratch));
            let order: Vec<(usize, usize)> = g.iter().map(|&v| (v / m, v % m)).collect();
            let s = reference.by_op_order(&order);
            prop_assert!(s.validate_open(&inst).is_ok());
            prop_assert_eq!(got, s.makespan());
            let sum: u64 = s.completion_times(inst.n_jobs()).iter().sum();
            prop_assert_eq!(inc.decode_completion_sum(g), sum);
        }
    }

    // Flexible family: the dual genome's assignment half admits a true
    // single-position mutation (any gene value is legal), the sequence
    // half mutates by swap.
    #[test]
    fn flexible_incremental_matches_full_and_schedule(
        assign in prop::collection::vec(0usize..100, 15),
        seq in op_sequence(5, 3),
        site in 0usize..15,
        gene in 0usize..100,
        i in 0usize..15,
        j in 0usize..15,
        seed in 0u64..300,
    ) {
        let inst = flexible_job_shop(&GenConfig::new(5, 4, seed), 3, 3);
        let table = Arc::new(FlexTable::from_flexible(&inst));
        let reference = FlexDecoder::new(&inst);
        let mut scratch = DecodeScratch::new();
        let mut inc = IncrementalFlex::new(Arc::clone(&table));
        let mut assign_mut = assign.clone();
        assign_mut[site] = gene;
        let seq_mut = swapped(&seq, i, j);
        for (a, q) in [(&assign, &seq), (&assign_mut, &seq), (&assign, &seq_mut), (&assign, &seq)] {
            let got = inc.decode(a, q);
            prop_assert_eq!(got, table.makespan(a, q, &mut scratch));
            prop_assert_eq!(got, reference.makespan(a, q));
            let s = reference.decode(a, q);
            prop_assert!(s.validate_flexible(&inst).is_ok());
            prop_assert_eq!(got, s.makespan());
            let sum: u64 = s.completion_times(inst.n_jobs()).iter().sum();
            prop_assert_eq!(inc.decode_completion_sum(a, q), sum);
        }
    }

    // The session-path suffix re-decoder against the materialising
    // reference after a storm of 1-3 folded events (breakdowns, which
    // overlap when they hit the same machine, job arrivals and
    // revisions), at the last event's time `now > 0`, across the
    // incumbent order and several full random suffix permutations
    // decoded by one reused decoder.
    #[test]
    fn suffix_redecoder_matches_materialised_reschedule(
        storm in prop::collection::vec((0u32..3, 0u64..1000, 0u64..1000, 0usize..64), 1..4),
        perm_keys in prop::collection::vec(prop::collection::vec(0u64..u64::MAX, 64), 6),
        seed in 0u64..100,
    ) {
        let mut inst = job_shop_uniform(&GenConfig::new(6, 4, seed));
        let m = inst.n_machines();
        let mut schedule = JobDecoder::new(&inst).semi_active(
            &(0..inst.n_jobs() * m).map(|v| v % inst.n_jobs()).collect::<Vec<_>>(),
        );
        let mk = schedule.makespan();
        let mut windows = Vec::new();
        let mut t = mk / 10 + 1;
        for &(kind, a, b, c) in &storm {
            t += a * mk / 4000;
            let event = match kind {
                // Two machines only, so successive outages often overlap.
                0 => Event::Breakdown { machine: c % 2, from: t, duration: b * mk / 2000 },
                1 => Event::JobArrival {
                    at: t,
                    route: (0..1 + c % m)
                        .map(|i| Op::new((c + i) % m, 1 + (b + 7 * i as u64) % 9))
                        .collect(),
                },
                _ => {
                    let unstarted: Vec<_> = schedule.ops.iter().filter(|o| o.start >= t).collect();
                    let Some(o) = unstarted.get(c % unstarted.len().max(1)) else {
                        continue;
                    };
                    Event::Revision { at: t, job: o.job, op: o.op, duration: 1 + b % 20 }
                }
            };
            (inst, windows, schedule) =
                apply_event(&inst, &schedule, &windows, &event).expect("storm applies");
        }
        let (frozen, suffix) = frozen_prefix(&schedule, t);
        prop_assume!(!suffix.is_empty());
        let k = suffix.len();
        let shared = Arc::new(inst);
        let mut r = SuffixRedecoder::new(
            Arc::clone(&shared),
            &frozen,
            Arc::new(suffix.clone()),
            Arc::new(windows.clone()),
            t,
        );
        let mut perms = vec![(0..k).collect::<Vec<usize>>()];
        for keys in &perm_keys {
            let mut perm: Vec<usize> = (0..k).collect();
            perm.sort_by_key(|&p| keys[p]);
            perms.push(perm);
        }
        for g in &perms {
            let order: Vec<(usize, usize)> = g.iter().map(|&p| suffix[p]).collect();
            let s = reschedule_suffix_with_windows(&shared, &frozen, &order, &windows, t);
            prop_assert!(s.validate_job(&shared).is_ok());
            prop_assert_eq!(r.makespan(g), s.makespan());
            let sum: u64 = s.completion_times(shared.n_jobs()).iter().sum();
            prop_assert_eq!(r.completion_sum(g), sum);
        }
    }
}

/// Exhaustive: all 720 orders of a 6-op suffix over three jobs (chains
/// of one, two and three stages) with a frozen prefix, a down-window
/// and `now > 0`, so every pass-over/chain pattern of the one-pass
/// dispatch meets the materialising reference.
#[test]
fn every_order_of_a_small_suffix_decodes_exactly() {
    let inst = JobShopInstance::new(vec![
        vec![Op::new(0, 3), Op::new(1, 2), Op::new(2, 4)],
        vec![Op::new(1, 4), Op::new(0, 3), Op::new(2, 2)],
        vec![Op::new(2, 5), Op::new(0, 2)],
    ])
    .expect("valid instance");
    let now = 1;
    let frozen = [(0, 0, 0, 3), (2, 0, 0, 5)].map(|(job, op, start, end)| ScheduledOp {
        job,
        op,
        machine: inst.op(job, op).machine,
        start,
        end,
    });
    let suffix = vec![(1, 2), (0, 2), (2, 1), (1, 0), (0, 1), (1, 1)];
    let windows = vec![DownWindow {
        machine: 0,
        from: 4,
        until: 9,
    }];
    let shared = Arc::new(inst);
    let mut r = SuffixRedecoder::new(
        Arc::clone(&shared),
        &frozen,
        Arc::new(suffix.clone()),
        Arc::new(windows.clone()),
        now,
    );
    let mut orders = std::collections::HashSet::new();
    for n in 0..720 {
        // The n-th permutation in the factorial number system.
        let mut pool: Vec<usize> = (0..6).collect();
        let mut rest = n;
        let perm: Vec<usize> = (1..=6usize)
            .rev()
            .map(|len| {
                let f: usize = (1..len).product();
                let p = pool.remove(rest / f);
                rest %= f;
                p
            })
            .collect();
        let order: Vec<(usize, usize)> = perm.iter().map(|&p| suffix[p]).collect();
        let s = reschedule_suffix_with_windows(&shared, &frozen, &order, &windows, now);
        s.validate_job(&shared)
            .expect("windowed reschedule stays feasible");
        assert_eq!(r.makespan(&perm), s.makespan(), "order {perm:?}");
        let sum: u64 = s.completion_times(shared.n_jobs()).iter().sum();
        assert_eq!(r.completion_sum(&perm), sum, "order {perm:?}");
        orders.insert(perm);
    }
    assert_eq!(orders.len(), 720);
}

/// Boundary: a mutation whose re-sequenced suffix lands inside a
/// machine-down window inherited from the frozen prefix. The suffix
/// re-decoder must push the affected operations past the window
/// exactly as the materialising rescheduler does.
#[test]
fn mutation_into_frozen_window_stays_exact() {
    let inst = job_shop_uniform(&GenConfig::new(6, 4, 3));
    let seq: Vec<usize> = (0..24).map(|v| v % 6).collect();
    let schedule = JobDecoder::new(&inst).semi_active(&seq);
    let mk = schedule.makespan();
    // A long outage straight through the middle of the horizon: the
    // frozen prefix ends at the event time, so every re-sequenced suffix
    // op on machine 0 must clear the window.
    let event = Event::Breakdown {
        machine: 0,
        from: mk / 3,
        duration: mk / 2,
    };
    let (next_inst, windows, repaired) =
        apply_event(&inst, &schedule, &[], &event).expect("breakdown applies");
    let t = event.at();
    let (frozen, suffix) = frozen_prefix(&repaired, t);
    assert!(
        suffix.len() >= 2,
        "test premise: the outage leaves work to re-sequence"
    );
    let shared = Arc::new(next_inst);
    let windows = Arc::new(windows);
    let suffix = Arc::new(suffix);
    let mut r = SuffixRedecoder::new(
        Arc::clone(&shared),
        &frozen,
        Arc::clone(&suffix),
        Arc::clone(&windows),
        t,
    );
    let identity: Vec<usize> = (0..suffix.len()).collect();
    // Mutate at every position in turn — each mutation crosses the
    // down window at a different depth.
    r.makespan(&identity);
    for site in 0..suffix.len() - 1 {
        let mut perm = identity.clone();
        perm.swap(site, site + 1);
        let order: Vec<(usize, usize)> = perm.iter().map(|&p| suffix[p]).collect();
        let reference = reschedule_suffix_with_windows(&shared, &frozen, &order, &windows, t);
        reference
            .validate_job(&shared)
            .expect("windowed reschedule stays feasible");
        assert_eq!(
            r.makespan(&perm),
            reference.makespan(),
            "mutation at suffix position {site} must re-time exactly"
        );
        // Interleave the incumbent, as a warm-started population does.
        r.makespan(&identity);
    }
}
