//! D01 — decoder hot path: throughput of the fast decode kernels
//! against the materialising reference decoders, for all four shop
//! families and the session re-solve.
//!
//! Two paths are timed per row on one decode-dominated instance:
//!
//! * **reference** — the materialising decoder (build a `Schedule`,
//!   take its makespan): the evaluation the solver raced before the
//!   flat tables existed, and still the path that validates every
//!   final answer.
//! * **fast** — the flat-table full decode with reused scratch (no
//!   per-op allocation), the path every race member evaluates through;
//!   for the session row, `SuffixRedecoder`'s one-pass suffix decode,
//!   the evaluator of a session re-solve.
//!
//! The reproduced shape: on every decoded genome both paths return
//! the same makespan, and the flat table at least doubles reference
//! throughput on the flexible and open families (where the reference
//! allocates per op).

use crate::report::Report;
use ga::rng::root_rng;
use hpc::calibrate::measure_adaptive_s;
use rand::seq::SliceRandom;
use shop::decoder::flexible::FlexDecoder;
use shop::decoder::flow::FlowDecoder;
use shop::decoder::job::JobDecoder;
use shop::decoder::open::OpenDecoder;
use shop::decoder::table::{DecodeScratch, FlexTable, OpTable};
use shop::dynamic::{reschedule_suffix_with_windows, SuffixRedecoder};
use shop::instance::generate::{
    flexible_job_shop, flow_shop_taillard, job_shop_uniform, open_shop_uniform, GenConfig,
};
use shop::{Problem, Time};
use std::hint::black_box;
use std::sync::Arc;

/// One measured row.
#[derive(Debug, Clone)]
pub struct DecodeRow {
    /// Row name: the family, or `session suffix`.
    pub name: &'static str,
    /// Total operation count of the measured instance.
    pub total_ops: usize,
    /// Reference (materialising) decodes per second.
    pub ref_per_s: f64,
    /// Fast-path decodes per second.
    pub full_per_s: f64,
    /// Whether both paths returned the same makespan on every genome
    /// the row decodes.
    pub same_value: bool,
}

impl DecodeRow {
    /// Fast-path speedup over the materialising reference.
    pub fn full_x(&self) -> f64 {
        self.full_per_s / self.ref_per_s
    }
}

/// Minimum measured wall per timing (seconds). Small enough that the
/// whole lane runs in a couple of seconds, large enough to be far
/// above timer resolution for every path.
const MIN_S: f64 = 0.04;

/// A deterministic shuffle of `0..n` (odd multiplier → distinct keys).
fn shuffled(n: usize, salt: u64) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    p.sort_by_key(|&i| {
        (i as u64 | 1)
            .wrapping_mul(salt | 1)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
    });
    p
}

/// A shuffled repetition-permutation: each of `n` jobs exactly `m`
/// times.
fn shuffled_seq(n: usize, m: usize, salt: u64) -> Vec<usize> {
    shuffled(n * m, salt).into_iter().map(|v| v % n).collect()
}

/// Timing rounds per path. The two paths of a row are measured in
/// interleaved rounds (ref, full, ref, full, ...) and each keeps its
/// per-round minimum, so a transient slow period on a shared host
/// penalises every path instead of skewing one ratio.
const ROUNDS: usize = 2;

/// Times `reference` against `fast`, each cycling through `genomes`
/// (so the branch predictor cannot learn one genome), and checks that
/// both return the same makespan on every genome.
fn time_pair<G>(
    name: &'static str,
    total_ops: usize,
    genomes: &[G],
    mut reference: impl FnMut(&G) -> Time,
    mut fast: impl FnMut(&G) -> Time,
) -> DecodeRow {
    let same_value = genomes.iter().all(|g| reference(g) == fast(g));
    let (mut ref_s, mut full_s) = (f64::MAX, f64::MAX);
    for _ in 0..ROUNDS {
        let mut next = genomes.iter().cycle();
        ref_s = ref_s.min(measure_adaptive_s(MIN_S, || {
            black_box(reference(next.next().expect("cycle never ends")));
        }));
        let mut next = genomes.iter().cycle();
        full_s = full_s.min(measure_adaptive_s(MIN_S, || {
            black_box(fast(next.next().expect("cycle never ends")));
        }));
    }
    DecodeRow {
        name,
        total_ops,
        ref_per_s: ref_s.recip(),
        full_per_s: full_s.recip(),
        same_value,
    }
}

/// Runs the five measurements and returns the raw rows.
pub fn measure() -> Vec<DecodeRow> {
    let mut scratch = DecodeScratch::new();

    // Flow: permutation DP, 50 jobs x 10 machines.
    let inst = flow_shop_taillard(&GenConfig::new(50, 10, 1));
    let d = FlowDecoder::new(&inst);
    let table = OpTable::from_flow(&inst);
    let flow = time_pair(
        "flow",
        inst.total_ops(),
        &[shuffled(50, 11)],
        |perm| d.schedule(perm).makespan(),
        |perm| table.flow_makespan(perm, &mut scratch),
    );

    // Job: semi-active operation-sequence decode, 20 x 10.
    let inst = job_shop_uniform(&GenConfig::new(20, 10, 2));
    let d = JobDecoder::new(&inst);
    let table = OpTable::from_job(&inst);
    let job = time_pair(
        "job",
        inst.total_ops(),
        &[shuffled_seq(20, 10, 13)],
        |seq| d.semi_active(seq).makespan(),
        |seq| table.job_makespan(seq, &mut scratch),
    );

    // Open: dense op-id order decode, 16 x 10. The genome-to-order
    // mapping is part of the pre-table open decode: the solver raced
    // `by_op_order(&to_order(perm))`, rebuilding the `(job, machine)`
    // pairs per evaluation.
    let inst = open_shop_uniform(&GenConfig::new(16, 10, 3));
    let d = OpenDecoder::new(&inst);
    let m = inst.n_machines();
    let table = OpTable::from_open(&inst);
    let open = time_pair(
        "open",
        inst.total_ops(),
        &[shuffled(16 * 10, 17)],
        |perm| {
            let order: Vec<(usize, usize)> = perm.iter().map(|&v| (v / m, v % m)).collect();
            d.by_op_order(&order).makespan()
        },
        |perm| table.open_order_makespan(perm, &mut scratch),
    );

    // Flexible: dual assignment + sequence decode, 20 jobs x 8 ops.
    let inst = flexible_job_shop(&GenConfig::new(20, 10, 4), 8, 4);
    let d = FlexDecoder::new(&inst);
    let table = FlexTable::from_flexible(&inst);
    let total = table.total_ops();
    let assign: Vec<usize> = (0..total).map(|i| i.wrapping_mul(13)).collect();
    let flexible = time_pair(
        "flexible",
        total,
        &[(assign, shuffled_seq(20, 8, 19))],
        |(assign, seq)| d.decode(assign, seq).makespan(),
        |(assign, seq)| table.makespan(assign, seq, &mut scratch),
    );

    // Session suffix: a 15x8 job shop with an empty frozen prefix
    // (k = 120), 256 seeded orders of the suffix. The reference
    // materialises each order (`perm → Vec<(job, op)>`) through
    // `reschedule_suffix_with_windows`, which serve validates every
    // session winner through.
    let inst = Arc::new(job_shop_uniform(&GenConfig::new(15, 8, 5)));
    let suffix: Arc<Vec<(usize, usize)>> =
        Arc::new((0..8).flat_map(|s| (0..15).map(move |j| (j, s))).collect());
    let mut rng = root_rng(11);
    let orders: Vec<Vec<usize>> = (0..256)
        .map(|_| {
            let mut p: Vec<usize> = (0..suffix.len()).collect();
            p.shuffle(&mut rng);
            p
        })
        .collect();
    let mut redecoder = SuffixRedecoder::new(
        Arc::clone(&inst),
        &[],
        Arc::clone(&suffix),
        Arc::new(Vec::new()),
        0,
    );
    let session = time_pair(
        "session suffix",
        suffix.len(),
        &orders,
        |perm| {
            let order: Vec<(usize, usize)> = perm.iter().map(|&i| suffix[i]).collect();
            reschedule_suffix_with_windows(&inst, &[], &order, &[], 0).makespan()
        },
        |perm| redecoder.makespan(perm),
    );

    vec![flow, job, open, flexible, session]
}

/// Renders the lane as a standard experiment report.
pub fn run() -> Report {
    let rows = measure();
    // Shape: both paths agree on every decoded genome, and the flat
    // table at least doubles the materialising reference on flexible
    // and open (the families whose reference decode allocates per
    // operation).
    let mut shape_holds = !rows.is_empty();
    for r in &rows {
        shape_holds &= r.same_value && r.ref_per_s > 0.0 && r.full_per_s > 0.0;
        if r.name == "flexible" || r.name == "open" {
            shape_holds &= r.full_x() >= 2.0;
        }
    }
    Report {
        id: "D01",
        title: "decoder hot path: struct-of-arrays vs reference",
        paper_claim: "fitness evaluation dominates GA wall time; a data-oriented \
                      decode layout raises decodes/s without changing any \
                      decoded value",
        columns: vec!["row", "ops", "ref/s", "fast/s", "fast x", "same value"],
        rows: rows
            .iter()
            .map(|r| {
                vec![
                    r.name.to_string(),
                    r.total_ops.to_string(),
                    format!("{:.0}", r.ref_per_s),
                    format!("{:.0}", r.full_per_s),
                    format!("{:.1}", r.full_x()),
                    if r.same_value { "yes" } else { "NO" }.to_string(),
                ]
            })
            .collect(),
        shape_holds,
        notes: "one decode-dominated instance per family (flow 50x10, job 20x10, \
                open 16x10, flexible 20x8x4), decoded by the flat table; session \
                suffix: a 15x8 job shop, empty frozen prefix (k = 120), 256 seeded \
                orders cycled, decoded by SuffixRedecoder against \
                reschedule_suffix_with_windows; min-of-3 adaptive timing \
                (hpc::calibrate::measure_adaptive_s) in interleaved rounds, min per \
                path; open reference includes the per-eval genome-to-order mapping \
                the solver raced pre-table."
            .to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The full lane is timing-heavy; tests pin the cheap invariants.
    #[test]
    fn speedup_arithmetic_is_sane() {
        let r = DecodeRow {
            name: "flow",
            total_ops: 500,
            ref_per_s: 1e5,
            full_per_s: 4e5,
            same_value: true,
        };
        assert!((r.full_x() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn shuffles_are_permutations_and_rep_sequences() {
        let p = shuffled(40, 7);
        let mut s = p.clone();
        s.sort_unstable();
        assert_eq!(s, (0..40).collect::<Vec<_>>());
        let seq = shuffled_seq(6, 5, 9);
        for j in 0..6 {
            assert_eq!(seq.iter().filter(|&&v| v == j).count(), 5);
        }
    }
}
