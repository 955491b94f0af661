//! Property-based tests (proptest) on the core invariants:
//! * every decoder output satisfies the survey's Table I feasibility
//!   conditions for *arbitrary* chromosomes;
//! * crossover/mutation/repair preserve representation invariants for
//!   arbitrary parents;
//! * the disjunctive-graph evaluation agrees with semi-active decoding;
//! * fuzzy arithmetic and Pareto utilities behave lawfully.

use proptest::prelude::*;
use shop::decoder::flexible::FlexDecoder;
use shop::decoder::flow::FlowDecoder;
use shop::decoder::job::JobDecoder;
use shop::decoder::open::OpenDecoder;
use shop::fuzzy::TriFuzzy;
use shop::graph::{machine_orders_from_sequence, DisjunctiveGraph};
use shop::instance::generate::{
    flexible_job_shop, flow_shop_taillard, job_shop_uniform, open_shop_uniform, GenConfig,
};
use shop::objective::{dominates, pareto_front};

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn flow_decoder_feasible_for_any_permutation(perm in permutation(9), seed in 0u64..500) {
        let inst = flow_shop_taillard(&GenConfig::new(9, 4, seed));
        let d = FlowDecoder::new(&inst);
        let s = d.schedule(&perm);
        prop_assert!(s.validate_flow(&inst).is_ok());
        prop_assert_eq!(s.makespan(), d.makespan(&perm));
        prop_assert!(s.makespan() >= inst.makespan_lower_bound());
        prop_assert!(s.makespan() <= inst.total_work());
    }

    #[test]
    fn job_decoder_feasible_for_any_sequence(seq in op_sequence(6, 4), seed in 0u64..500) {
        let inst = job_shop_uniform(&GenConfig::new(6, 4, seed));
        let d = JobDecoder::new(&inst);
        let s = d.semi_active(&seq);
        prop_assert!(s.validate_job(&inst).is_ok());
        prop_assert_eq!(s.makespan(), d.semi_active_makespan(&seq));
    }

    #[test]
    fn graph_evaluation_matches_semi_active(seq in op_sequence(5, 4), seed in 0u64..300) {
        let inst = job_shop_uniform(&GenConfig::new(5, 4, seed));
        let d = JobDecoder::new(&inst);
        let orders = machine_orders_from_sequence(&inst, &seq);
        let g = DisjunctiveGraph::from_machine_orders(&inst, &orders, false);
        prop_assert_eq!(g.makespan().unwrap(), d.semi_active_makespan(&seq));
    }

    #[test]
    fn blocking_never_shorter_than_classic(seq in op_sequence(5, 3), seed in 0u64..300) {
        let inst = job_shop_uniform(&GenConfig::new(5, 3, seed));
        let orders = machine_orders_from_sequence(&inst, &seq);
        let classic = DisjunctiveGraph::from_machine_orders(&inst, &orders, false)
            .makespan()
            .unwrap();
        if let Ok(blocking) =
            DisjunctiveGraph::from_machine_orders(&inst, &orders, true).makespan()
        {
            prop_assert!(blocking >= classic);
        }
    }

    #[test]
    fn gt_builder_feasible_for_any_keys(keys in prop::collection::vec(0.0f64..1.0, 24), seed in 0u64..300) {
        let inst = job_shop_uniform(&GenConfig::new(6, 4, seed));
        let d = JobDecoder::new(&inst);
        let s = d.gt_from_keys(&keys);
        prop_assert!(s.validate_job(&inst).is_ok());
    }

    #[test]
    fn open_decoders_feasible_for_any_rep_sequence(seq in op_sequence(5, 4), seed in 0u64..300) {
        let inst = open_shop_uniform(&GenConfig::new(5, 4, seed));
        let d = OpenDecoder::new(&inst);
        prop_assert!(d.lpt_task(&seq).validate_open(&inst).is_ok());
    }

    #[test]
    fn flexible_decoder_feasible_for_any_genes(
        assign in prop::collection::vec(0usize..100, 15),
        seq in op_sequence(5, 3),
        seed in 0u64..300,
    ) {
        let inst = flexible_job_shop(&GenConfig::new(5, 4, seed), 3, 3);
        let d = FlexDecoder::new(&inst);
        let s = d.decode(&assign, &seq);
        prop_assert!(s.validate_flexible(&inst).is_ok());
    }

    #[test]
    fn perm_crossovers_preserve_permutation(
        p1 in permutation(12),
        p2 in permutation(12),
        seed in 0u64..1000,
    ) {
        use ga::crossover::PermCrossover;
        let mut rng = ga::rng::root_rng(seed);
        for op in PermCrossover::ALL {
            let (a, b) = op.apply(&p1, &p2, &mut rng);
            for child in [a, b] {
                let mut s = child.clone();
                s.sort_unstable();
                prop_assert_eq!(s, (0..12).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn rep_crossovers_preserve_multiset(
        p1 in op_sequence(4, 5),
        p2 in op_sequence(4, 5),
        seed in 0u64..1000,
    ) {
        use ga::crossover::RepCrossover;
        let mut rng = ga::rng::root_rng(seed);
        for op in [RepCrossover::JobOrder, RepCrossover::Thx(0.5)] {
            let (a, b) = op.apply(&p1, &p2, 4, &mut rng);
            for child in [a, b] {
                let mut counts = [0usize; 4];
                for &g in &child {
                    counts[g] += 1;
                }
                prop_assert_eq!(counts, [5, 5, 5, 5]);
            }
        }
    }

    #[test]
    fn mutations_preserve_multiset(seq in op_sequence(5, 4), seed in 0u64..1000) {
        use ga::mutate::SeqMutation;
        let mut rng = ga::rng::root_rng(seed);
        for m in SeqMutation::ALL {
            let mut g = seq.clone();
            m.apply(&mut g, &mut rng);
            let mut a = g;
            let mut b = seq.clone();
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn fuzzy_addition_monotone_and_measures_bounded(
        a in 0.0f64..50.0, b in 0.0f64..50.0, c in 0.0f64..50.0,
        d in 0.0f64..50.0, e in 0.0f64..50.0, f in 0.0f64..50.0,
    ) {
        let x = TriFuzzy::new(a, a + b, a + b + c);
        let y = TriFuzzy::new(d, d + e, d + e + f);
        let sum = x.add(y);
        prop_assert!(sum.a <= sum.b && sum.b <= sum.c);
        // Possibility/necessity are proper degrees.
        let p = x.possibility_le(y);
        let n = x.necessity_le(y);
        prop_assert!((0.0..=1.0).contains(&p));
        prop_assert!((0.0..=1.0).contains(&n));
        prop_assert!(n <= p + 1e-9);
    }

    #[test]
    fn pareto_front_is_mutually_nondominated(
        points in prop::collection::vec((0.0f64..100.0, 0.0f64..100.0), 1..30)
    ) {
        let vecs: Vec<Vec<f64>> = points.iter().map(|&(x, y)| vec![x, y]).collect();
        let front = pareto_front(&vecs);
        prop_assert!(!front.is_empty());
        for &i in &front {
            for &j in &front {
                if i != j {
                    prop_assert!(!dominates(&vecs[i], &vecs[j]) || vecs[i] == vecs[j]);
                }
            }
        }
        // Every non-front point is dominated by (or equal to) some front point.
        for (k, v) in vecs.iter().enumerate() {
            if !front.contains(&k) {
                prop_assert!(front.iter().any(|&i| dominates(&vecs[i], v) || &vecs[i] == v));
            }
        }
    }

    // Text-format round-trips: for every family, writing an instance
    // (via its `Display`/writer) and parsing it back yields an equal
    // instance. Instances come from the seeded generators, so the
    // property covers arbitrary shapes and times, not just classics.
    #[test]
    fn job_shop_text_roundtrips(n in 2usize..9, m in 2usize..6, seed in 0u64..500) {
        let inst = job_shop_uniform(&GenConfig::new(n, m, seed));
        let back = shop::instance::parse::parse_job_shop(&format!("{inst}")).unwrap();
        prop_assert_eq!(inst, back);
    }

    #[test]
    fn flow_shop_text_roundtrips(n in 2usize..9, m in 2usize..6, seed in 0u64..500) {
        let inst = flow_shop_taillard(&GenConfig::new(n, m, seed));
        let back = shop::instance::parse::parse_flow_shop(&format!("{inst}")).unwrap();
        prop_assert_eq!(inst, back);
    }

    #[test]
    fn open_shop_text_roundtrips(n in 2usize..9, m in 2usize..6, seed in 0u64..500) {
        let inst = open_shop_uniform(&GenConfig::new(n, m, seed));
        let back = shop::instance::parse::parse_open_shop(&format!("{inst}")).unwrap();
        prop_assert_eq!(inst, back);
    }

    #[test]
    fn flexible_text_roundtrips(
        n in 2usize..7,
        m in 2usize..5,
        ops in 1usize..5,
        seed in 0u64..500,
    ) {
        let inst = flexible_job_shop(&GenConfig::new(n, m, seed), ops, m);
        let back = shop::instance::parse::parse_flexible(&format!("{inst}")).unwrap();
        prop_assert_eq!(inst, back);
    }

    // Canonical hashing: reformatting the text never changes the cache
    // key; changing the content does (across 500 seeds).
    #[test]
    fn canonical_hash_is_format_independent(n in 2usize..8, m in 2usize..5, seed in 0u64..500) {
        use shop::instance::CanonicalHash;
        let inst = job_shop_uniform(&GenConfig::new(n, m, seed));
        let noisy = format!("# seed {seed}\n{}", format!("{inst}").replace(' ', "\t "));
        let back = shop::instance::parse::parse_job_shop(&noisy).unwrap();
        prop_assert_eq!(inst.canonical_hash(), back.canonical_hash());
        let other = job_shop_uniform(&GenConfig::new(n, m, seed + 1000));
        prop_assert_ne!(inst.canonical_hash(), other.canonical_hash());
    }

    // Generator determinism + round-trip (ISSUE 3 acceptance
    // criterion): for every family and arbitrary dims/seed/knobs, the
    // same spec builds bit-identical instances, the text writers and
    // parsers round-trip them equal, and the canonical hash survives
    // generate → write → parse. The canonical name is itself a
    // complete recipe: resolving it re-builds the same instance.
    #[test]
    fn generated_instances_roundtrip_bit_identically(
        family_idx in 0usize..4,
        jobs in 1usize..12,
        machines in 1usize..8,
        seed in 0u64..u64::MAX,
        min_time in 1u64..40,
        width in 0u64..60,
        density in 1u64..101,
    ) {
        use shop::gen::{AnyInstance, Family, GenSpec};
        let family = Family::ALL[family_idx];
        let mut spec = GenSpec::new(family, jobs, machines, seed)
            .with_times(min_time, min_time + width);
        if family == Family::Flexible {
            spec = spec.with_density_pct(density as u8);
        }
        // Determinism: same spec, same bits.
        let a = spec.build().unwrap().instance;
        let b = spec.build().unwrap().instance;
        prop_assert_eq!(&a, &b);
        // Text round-trip: generate → write → parse → equal + same hash.
        let back = AnyInstance::parse(family, &a.text()).unwrap();
        prop_assert_eq!(a.canonical_hash(), back.canonical_hash());
        prop_assert_eq!(&a, &back);
        // Name round-trip: the canonical name rebuilds the instance.
        let via_name = AnyInstance::named(&spec.name()).unwrap();
        prop_assert_eq!(a.canonical_hash(), via_name.canonical_hash());
    }

    #[test]
    fn topology_destinations_are_valid(n in 2usize..17, epoch in 0u64..10) {
        use pga::topology::Topology;
        let topos = [
            Topology::Ring,
            Topology::Grid2D { cols: 4 },
            Topology::Hypercube,
            Topology::Star,
            Topology::FullyConnected,
            Topology::RandomEpoch { seed: 3 },
        ];
        for t in topos {
            for i in 0..n {
                for d in t.destinations(i, n, epoch) {
                    prop_assert!(d < n);
                    prop_assert_ne!(d, i);
                }
            }
        }
    }
}
