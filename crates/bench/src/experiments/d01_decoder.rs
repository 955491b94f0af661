//! D01 — decoder hot path: throughput of the struct-of-arrays decode
//! kernels (`shop::decoder::table`) against the materialising
//! reference decoders, for all four shop families.
//!
//! Two paths are timed per family on one decode-dominated instance:
//!
//! * **reference** — the materialising decoder (build a `Schedule`,
//!   take its makespan): the evaluation the solver raced before the
//!   flat tables existed, and still the path that validates every
//!   final answer.
//! * **soa full** — the flat-table full decode with reused scratch
//!   (no per-op allocation): the path every race member evaluates
//!   through.
//!
//! The reproduced shape: the flat table at least doubles reference
//! throughput on the flexible and open families (where the reference
//! allocates per op).

use crate::report::Report;
use hpc::calibrate::measure_adaptive_s;
use shop::decoder::flexible::FlexDecoder;
use shop::decoder::flow::FlowDecoder;
use shop::decoder::job::JobDecoder;
use shop::decoder::open::OpenDecoder;
use shop::decoder::table::{DecodeScratch, FlexTable, OpTable};
use shop::instance::generate::{
    flexible_job_shop, flow_shop_taillard, job_shop_uniform, open_shop_uniform, GenConfig,
};
use shop::Problem;

/// One measured family.
#[derive(Debug, Clone)]
pub struct DecodeRow {
    /// Family tag.
    pub family: &'static str,
    /// Total operation count of the measured instance.
    pub total_ops: usize,
    /// Reference (materialising) decodes per second.
    pub ref_per_s: f64,
    /// Struct-of-arrays full decodes per second.
    pub full_per_s: f64,
}

impl DecodeRow {
    /// soa-full speedup over the materialising reference.
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

/// Timing rounds per path. The two paths of a family are measured
/// in interleaved rounds (ref, full, ref, full, ...) and
/// each keeps its per-round minimum, so a transient slow period on a
/// shared host penalises every path instead of skewing one ratio.
const ROUNDS: usize = 2;

/// Runs the four family measurements and returns the raw rows.
pub fn measure() -> Vec<DecodeRow> {
    let mut rows = Vec::new();

    // Flow: permutation DP, 50 jobs x 10 machines.
    {
        let inst = flow_shop_taillard(&GenConfig::new(50, 10, 1));
        let d = FlowDecoder::new(&inst);
        let table = OpTable::from_flow(&inst);
        let mut scratch = DecodeScratch::new();
        let perm = shuffled(50, 11);
        let (mut ref_s, mut full_s) = (f64::MAX, f64::MAX);
        for _ in 0..ROUNDS {
            ref_s = ref_s.min(measure_adaptive_s(MIN_S, || {
                std::hint::black_box(d.schedule(&perm).makespan());
            }));
            full_s = full_s.min(measure_adaptive_s(MIN_S, || {
                std::hint::black_box(table.flow_makespan(&perm, &mut scratch));
            }));
        }
        rows.push(DecodeRow {
            family: "flow",
            total_ops: inst.total_ops(),
            ref_per_s: ref_s.recip(),
            full_per_s: full_s.recip(),
        });
    }

    // Job: semi-active operation-sequence decode, 20 x 10.
    {
        let inst = job_shop_uniform(&GenConfig::new(20, 10, 2));
        let d = JobDecoder::new(&inst);
        let table = OpTable::from_job(&inst);
        let mut scratch = DecodeScratch::new();
        let seq = shuffled_seq(20, 10, 13);
        let (mut ref_s, mut full_s) = (f64::MAX, f64::MAX);
        for _ in 0..ROUNDS {
            ref_s = ref_s.min(measure_adaptive_s(MIN_S, || {
                std::hint::black_box(d.semi_active(&seq).makespan());
            }));
            full_s = full_s.min(measure_adaptive_s(MIN_S, || {
                std::hint::black_box(table.job_makespan(&seq, &mut scratch));
            }));
        }
        rows.push(DecodeRow {
            family: "job",
            total_ops: inst.total_ops(),
            ref_per_s: ref_s.recip(),
            full_per_s: full_s.recip(),
        });
    }

    // Open: dense op-id order decode, 16 x 10.
    {
        let inst = open_shop_uniform(&GenConfig::new(16, 10, 3));
        let d = OpenDecoder::new(&inst);
        let m = inst.n_machines();
        let table = OpTable::from_open(&inst);
        let mut scratch = DecodeScratch::new();
        let perm = shuffled(16 * 10, 17);
        let (mut ref_s, mut full_s) = (f64::MAX, f64::MAX);
        for _ in 0..ROUNDS {
            // The genome-to-order mapping is part of the pre-table
            // open decode: the solver raced
            // `by_op_order(&to_order(perm))`, rebuilding the
            // `(job, machine)` pairs per evaluation.
            ref_s = ref_s.min(measure_adaptive_s(MIN_S, || {
                let order: Vec<(usize, usize)> = perm.iter().map(|&v| (v / m, v % m)).collect();
                std::hint::black_box(d.by_op_order(&order).makespan());
            }));
            full_s = full_s.min(measure_adaptive_s(MIN_S, || {
                std::hint::black_box(table.open_order_makespan(&perm, &mut scratch));
            }));
        }
        rows.push(DecodeRow {
            family: "open",
            total_ops: inst.total_ops(),
            ref_per_s: ref_s.recip(),
            full_per_s: full_s.recip(),
        });
    }

    // Flexible: dual assignment + sequence decode, 20 jobs x 8 ops.
    {
        let inst = flexible_job_shop(&GenConfig::new(20, 10, 4), 8, 4);
        let d = FlexDecoder::new(&inst);
        let table = FlexTable::from_flexible(&inst);
        let mut scratch = DecodeScratch::new();
        let total = table.total_ops();
        let assign: Vec<usize> = (0..total).map(|i| i.wrapping_mul(13)).collect();
        let seq = shuffled_seq(20, 8, 19);
        let (mut ref_s, mut full_s) = (f64::MAX, f64::MAX);
        for _ in 0..ROUNDS {
            ref_s = ref_s.min(measure_adaptive_s(MIN_S, || {
                std::hint::black_box(d.decode(&assign, &seq).makespan());
            }));
            full_s = full_s.min(measure_adaptive_s(MIN_S, || {
                std::hint::black_box(table.makespan(&assign, &seq, &mut scratch));
            }));
        }
        rows.push(DecodeRow {
            family: "flexible",
            total_ops: total,
            ref_per_s: ref_s.recip(),
            full_per_s: full_s.recip(),
        });
    }

    rows
}

/// Renders the lane as a standard experiment report.
pub fn run() -> Report {
    let rows = measure();
    // Shape: the flat table at least doubles the materialising
    // reference on flexible and open (the families whose reference
    // decode allocates per operation).
    let mut shape_holds = !rows.is_empty();
    for r in &rows {
        shape_holds &= r.ref_per_s > 0.0 && r.full_per_s > 0.0;
        if r.family == "flexible" || r.family == "open" {
            shape_holds &= r.full_x() >= 2.0;
        }
    }
    Report {
        id: "D01",
        title: "decoder hot path: struct-of-arrays vs reference",
        paper_claim: "fitness evaluation dominates GA wall time; a data-oriented \
                      decode layout raises decodes/s without changing any \
                      decoded value",
        columns: vec!["family", "ops", "ref/s", "soa/s", "soa x"],
        rows: rows
            .iter()
            .map(|r| {
                vec![
                    r.family.to_string(),
                    r.total_ops.to_string(),
                    format!("{:.0}", r.ref_per_s),
                    format!("{:.0}", r.full_per_s),
                    format!("{:.1}", r.full_x()),
                ]
            })
            .collect(),
        shape_holds,
        notes: "one decode-dominated instance per family (flow 50x10, job 20x10, \
                open 16x10, flexible 20x8x4); min-of-3 adaptive timing \
                (hpc::calibrate::measure_adaptive_s) in interleaved rounds, min \
                per path; open reference includes the per-eval genome-to-order \
                mapping the solver raced pre-table."
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
            family: "flow",
            total_ops: 500,
            ref_per_s: 1e5,
            full_per_s: 4e5,
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
