//! Decoder feasibility suite: every decoder in `shop::decoder` must emit
//! schedules satisfying the survey's Table I conditions (machine
//! capacity, technological precedence, release dates) on classic
//! instances of each shop family, for arbitrary chromosomes — plus
//! negative tests proving the validators actually reject capacity and
//! precedence violations.

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use shop::decoder::flexible::FlexDecoder;
use shop::decoder::flow::FlowDecoder;
use shop::decoder::heuristics::{cds, palmer};
use shop::decoder::job::JobDecoder;
use shop::decoder::open::OpenDecoder;
use shop::instance::classic;
use shop::instance::generate::{
    flexible_job_shop, flow_shop_taillard, job_shop_uniform, open_shop_uniform, GenConfig,
};
use shop::Problem;

/// All permutations of `0..n` (test sizes only).
fn permutations(n: usize) -> Vec<Vec<usize>> {
    fn rec(prefix: &mut Vec<usize>, rest: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if rest.is_empty() {
            out.push(prefix.clone());
            return;
        }
        for i in 0..rest.len() {
            let v = rest.remove(i);
            prefix.push(v);
            rec(prefix, rest, out);
            prefix.pop();
            rest.insert(i, v);
        }
    }
    let mut out = Vec::new();
    rec(&mut Vec::new(), &mut (0..n).collect(), &mut out);
    out
}

fn is_permutation(v: &[usize], n: usize) -> bool {
    let mut s: Vec<usize> = v.to_vec();
    s.sort_unstable();
    s == (0..n).collect::<Vec<_>>()
}

/// A shuffled operation sequence (each job id `j` exactly `n_ops(j)` times).
fn shuffled_opseq(inst: &impl Problem, rng: &mut ChaCha8Rng) -> Vec<usize> {
    let mut seq: Vec<usize> = (0..inst.n_jobs())
        .flat_map(|j| std::iter::repeat_n(j, inst.n_ops(j)))
        .collect();
    seq.shuffle(rng);
    seq
}

// ---------------------------------------------------------------- flow

#[test]
fn flow05_exhaustive_feasibility_and_embedded_optimum() {
    let (inst, best_known) = classic::flow05();
    let d = FlowDecoder::new(&inst);
    let mut best = u64::MAX;
    for perm in permutations(5) {
        let s = d.schedule(&perm);
        s.validate_flow(&inst).expect("flow schedule infeasible");
        assert_eq!(s.makespan(), d.makespan(&perm));
        assert!(s.makespan() >= inst.makespan_lower_bound());
        assert!(s.makespan() <= inst.total_work());
        best = best.min(s.makespan());
    }
    // Ground truth for the embedded optimum: exhaustive search over all
    // 120 permutations.
    assert_eq!(best, best_known);
}

#[test]
fn flow_heuristics_feasible_and_bounded_on_flow05() {
    let (inst, best_known) = classic::flow05();
    let d = FlowDecoder::new(&inst);
    // (Johnson's rule proper needs exactly 2 machines and is covered by
    // the heuristics unit tests; CDS runs it on 2-machine surrogates.)
    for (name, perm) in [
        ("cds", cds(&inst)),
        ("palmer", palmer(&inst)),
        ("neh", d.neh()),
    ] {
        assert!(is_permutation(&perm, 5), "{name} not a permutation");
        let s = d.schedule(&perm);
        s.validate_flow(&inst)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(s.makespan() >= best_known, "{name} beat the optimum");
        assert!(s.makespan() <= inst.total_work());
    }
    // NEH is the strongest of the four on permutation flow shops; on this
    // 5-job instance it should land within 15% of the optimum.
    assert!(d.makespan(&d.neh()) as f64 <= 1.15 * best_known as f64);
}

#[test]
fn flow_decoder_feasible_on_taillard_style_20x5() {
    let inst = flow_shop_taillard(&GenConfig::new(20, 5, 4242));
    let d = FlowDecoder::new(&inst);
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    for _ in 0..20 {
        let mut perm: Vec<usize> = (0..20).collect();
        perm.shuffle(&mut rng);
        let s = d.schedule(&perm);
        s.validate_flow(&inst).expect("flow schedule infeasible");
        assert!(s.makespan() >= inst.makespan_lower_bound());
    }
}

// ---------------------------------------------------------------- job

#[test]
fn job_semi_active_feasible_on_ft06_for_arbitrary_sequences() {
    let bench = classic::ft06();
    let inst = &bench.instance;
    let d = JobDecoder::new(inst);
    let mut rng = ChaCha8Rng::seed_from_u64(606);
    for _ in 0..30 {
        let seq = shuffled_opseq(inst, &mut rng);
        let s = d.semi_active(&seq);
        s.validate_job(inst).expect("job schedule infeasible");
        assert_eq!(s.makespan(), d.semi_active_makespan(&seq));
        // No feasible schedule beats the proven optimum of FT06.
        assert!(s.makespan() >= bench.best_known);
    }
}

#[test]
fn job_gt_and_non_delay_builders_feasible_on_la01() {
    let bench = classic::la01();
    let inst = &bench.instance;
    let d = JobDecoder::new(inst);
    let mut rng = ChaCha8Rng::seed_from_u64(101);
    for _ in 0..15 {
        let keys: Vec<f64> = (0..inst.total_ops()).map(|_| rng.gen()).collect();
        for (name, s) in [
            ("giffler-thompson", d.gt_from_keys(&keys)),
            ("non-delay", d.non_delay_from_keys(&keys)),
        ] {
            s.validate_job(inst)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(s.makespan() >= bench.best_known, "{name} beat LA01 optimum");
        }
    }
}

#[test]
fn job_decoder_feasible_on_generated_instances() {
    let mut rng = ChaCha8Rng::seed_from_u64(77);
    for seed in 0..10 {
        let inst = job_shop_uniform(&GenConfig::new(7, 4, seed));
        let d = JobDecoder::new(&inst);
        let seq = shuffled_opseq(&inst, &mut rng);
        let s = d.semi_active(&seq);
        s.validate_job(&inst).expect("job schedule infeasible");
        assert!(s.makespan() >= inst.makespan_lower_bound());
    }
}

// ---------------------------------------------------------------- open

#[test]
fn open_latin3_lower_bound_is_achieved_by_round_schedule() {
    let (inst, optimum) = classic::open_latin3();
    let d = OpenDecoder::new(&inst);
    // The duration-d operations of the Latin square form a perfect
    // job-machine matching for each d in {1,2,3}; scheduling the rounds
    // in increasing duration keeps every machine busy from 0 to 6.
    let order = [
        (0, 0),
        (1, 2),
        (2, 1), // all duration 1
        (0, 1),
        (1, 0),
        (2, 2), // all duration 2
        (0, 2),
        (1, 1),
        (2, 0), // all duration 3
    ];
    let s = d.by_op_order(&order);
    s.validate_open(&inst)
        .expect("latin open schedule infeasible");
    assert_eq!(s.makespan(), optimum);
    assert_eq!(inst.makespan_lower_bound(), optimum);
}

#[test]
fn open_lpt_decoders_feasible_on_latin3_and_generated() {
    let (latin, lb) = classic::open_latin3();
    let d = OpenDecoder::new(&latin);
    let mut rng = ChaCha8Rng::seed_from_u64(303);
    for _ in 0..10 {
        let seq = shuffled_opseq(&latin, &mut rng);
        let s = d.lpt_task(&seq);
        s.validate_open(&latin).expect("lpt_task infeasible");
        assert!(s.makespan() >= lb);
        assert_eq!(s.makespan(), d.lpt_task_makespan(&seq));
    }

    let gen = open_shop_uniform(&GenConfig::new(6, 5, 99));
    let gd = OpenDecoder::new(&gen);
    for _ in 0..10 {
        let seq = shuffled_opseq(&gen, &mut rng);
        let s = gd.lpt_task(&seq);
        s.validate_open(&gen).expect("lpt_task infeasible");
        assert!(s.makespan() >= gen.makespan_lower_bound());
    }
}

// ------------------------------------------------------------ flexible

#[test]
fn flex03_every_assignment_vector_is_feasible() {
    let inst = classic::flex03();
    let d = FlexDecoder::new(&inst);
    let n_ops = d.assignment_len();
    assert_eq!(n_ops, 6);
    let seq = d.round_robin_sequence();
    // Every op has exactly 2 eligible machines: sweep all 2^6 assignments.
    for mask in 0..(1u32 << n_ops) {
        let assign: Vec<usize> = (0..n_ops).map(|k| ((mask >> k) & 1) as usize).collect();
        let s = d.decode(&assign, &seq);
        s.validate_flexible(&inst)
            .expect("flexible schedule infeasible");
        assert!(s.makespan() >= inst.makespan_lower_bound());
    }
}

#[test]
fn flexible_decoder_feasible_on_generated_for_arbitrary_genes() {
    let inst = flexible_job_shop(&GenConfig::new(6, 5, 11), 4, 3);
    let d = FlexDecoder::new(&inst);
    let mut rng = ChaCha8Rng::seed_from_u64(505);
    for _ in 0..15 {
        let assign: Vec<usize> = (0..d.assignment_len())
            .map(|_| rng.gen_range(0..100))
            .collect();
        let seq = shuffled_opseq(&inst, &mut rng);
        let s = d.decode(&assign, &seq);
        s.validate_flexible(&inst)
            .expect("flexible schedule infeasible");
        assert_eq!(s.makespan(), d.makespan(&assign, &seq));
    }
    // The greedy baselines decode feasibly too.
    let s = d.decode(&d.fastest_assignment(), &d.round_robin_sequence());
    s.validate_flexible(&inst)
        .expect("greedy baseline infeasible");
}

// ------------------------------------------- validator negative tests

#[test]
fn validator_rejects_machine_overlap() {
    let bench = classic::ft06();
    let inst = &bench.instance;
    let d = JobDecoder::new(inst);
    let seq = shuffled_opseq(inst, &mut ChaCha8Rng::seed_from_u64(1));
    let mut s = d.semi_active(&seq);
    // Pull the last operation on machine 0 back so it overlaps its
    // predecessor on the same machine (keeping its duration intact).
    let mut on_m0: Vec<usize> = (0..s.ops.len())
        .filter(|&i| s.ops[i].machine == 0)
        .collect();
    on_m0.sort_by_key(|&i| s.ops[i].start);
    let last = *on_m0.last().unwrap();
    let dur = s.ops[last].end - s.ops[last].start;
    let prev = on_m0[on_m0.len() - 2];
    s.ops[last].start = s.ops[prev].end - 1;
    s.ops[last].end = s.ops[last].start + dur;
    let err = s.validate_job(inst).unwrap_err();
    assert!(err.to_string().contains("overlap") || err.to_string().contains("before"));
}

#[test]
fn validator_rejects_precedence_violation() {
    let bench = classic::ft06();
    let inst = &bench.instance;
    let d = JobDecoder::new(inst);
    let seq = shuffled_opseq(inst, &mut ChaCha8Rng::seed_from_u64(2));
    let mut s = d.semi_active(&seq);
    // Move job 0's second stage to start at time 0, before stage 1 ends.
    let idx = (0..s.ops.len())
        .find(|&i| s.ops[i].job == 0 && s.ops[i].op == 1)
        .unwrap();
    let dur = s.ops[idx].end - s.ops[idx].start;
    s.ops[idx].start = 0;
    s.ops[idx].end = dur;
    assert!(s.validate_job(inst).is_err());
}

#[test]
fn validator_rejects_wrong_duration_and_wrong_machine() {
    let (inst, _) = classic::flow05();
    let d = FlowDecoder::new(&inst);
    let perm: Vec<usize> = (0..5).collect();

    let mut s = d.schedule(&perm);
    s.ops[0].end += 1; // stretched duration
    assert!(s.validate_flow(&inst).is_err());

    let mut s = d.schedule(&perm);
    s.ops[0].machine = (s.ops[0].machine + 1) % 3; // off-route machine
    assert!(s.validate_flow(&inst).is_err());
}

#[test]
fn validator_rejects_missing_and_duplicated_operations() {
    let bench = classic::ft06();
    let inst = &bench.instance;
    let d = JobDecoder::new(inst);
    let seq = shuffled_opseq(inst, &mut ChaCha8Rng::seed_from_u64(3));
    let full = d.semi_active(&seq);

    let mut missing = full.clone();
    missing.ops.pop();
    assert!(missing.validate_job(inst).is_err());

    let mut duplicated = full.clone();
    let dup = duplicated.ops[0];
    duplicated.ops.pop();
    duplicated.ops.push(dup);
    assert!(duplicated.validate_job(inst).is_err());
}
