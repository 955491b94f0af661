//! Host calibration: measures the per-unit costs the models consume.
//!
//! The experiment harnesses measure the *actual* cost of one fitness
//! evaluation (decoding a schedule) and of one generation's serial
//! operator work on this machine, then feed those numbers into
//! [`crate::model`] to predict wall times on the surveyed platforms.

use std::time::Instant;

/// Nominal per-operation evaluation cost of a permutation **flow
/// shop** (seconds per operation, as seen by one individual moving
/// through the serving GA loop).
///
/// These four constants are the evaluation side of the cost model's
/// `RunShape::eval_s`: evaluating one individual of an instance with
/// `V` operations costs roughly `V * DECODE_OP_S_<family>`. They
/// price the *whole* per-individual walk — the struct-of-arrays
/// decode in `shop::decoder::table` plus that individual's share of
/// operator work, cloning and population bookkeeping, which is why
/// they sit well above the raw decode throughput the `d01_decoder`
/// lane measures (the flat decode is now so fast that the GA's own
/// machinery dominates an evaluation). They are *nominal* figures
/// calibrated once against observed portfolio runtimes on generated
/// instances (release build, commodity x86-64; the `g01` sweep
/// re-checks predicted-vs-observed stays within 2x on the largest
/// instance per family) and deliberately kept as fixed constants
/// rather than runtime measurements, so model rankings and the serve
/// lineup stay machine-independent. The *ratios* between families
/// are what matter: a flow evaluation is a tight DP row sweep over a
/// plain permutation, job/open evaluations add dispatch bookkeeping
/// on longer operation-sequence genomes, and flexible evaluations
/// carry the dual assignment + sequence genome through every
/// operator.
pub const DECODE_OP_S_FLOW: f64 = 22e-9;
/// Nominal per-operation evaluation cost of a **job shop**
/// (semi-active operation-sequence decode). See
/// [`DECODE_OP_S_FLOW`].
pub const DECODE_OP_S_JOB: f64 = 160e-9;
/// Nominal per-operation evaluation cost of an **open shop** (dense
/// op-id order decode). See [`DECODE_OP_S_FLOW`].
pub const DECODE_OP_S_OPEN: f64 = 85e-9;
/// Nominal per-operation evaluation cost of a **flexible job shop**
/// (dual assignment + sequence decode). See [`DECODE_OP_S_FLOW`].
pub const DECODE_OP_S_FLEXIBLE: f64 = 280e-9;

/// Measures `f` adaptively: doubles the iteration count until one run
/// takes at least `min_total_s`, then returns the *minimum* per-call
/// time over three runs at that count. The minimum estimates the
/// uncontended cost of `f`; mean-based timing inflates under CPU
/// contention (e.g. a parallel test suite), which would leak the host's
/// load average into the platform-model predictions.
pub fn measure_adaptive_s(min_total_s: f64, mut f: impl FnMut()) -> f64 {
    let mut iters: u32 = 1;
    let first = loop {
        f(); // warm-up / steady state
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= min_total_s || iters >= 1 << 24 {
            break elapsed / iters as f64;
        }
        iters = iters.saturating_mul(2);
    };
    let mut best = first;
    for _ in 0..2 {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(start.elapsed().as_secs_f64() / iters as f64);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_are_positive_and_ordered() {
        let cheap = measure_adaptive_s(1e-4, || {
            std::hint::black_box(1 + 1);
        });
        let costly = measure_adaptive_s(1e-4, || {
            let mut x = 0u64;
            for i in 0..20_000 {
                x = x.wrapping_add(i);
            }
            std::hint::black_box(x);
        });
        assert!(cheap >= 0.0);
        assert!(costly > cheap);
    }

    #[test]
    fn adaptive_measurement_terminates() {
        let t = measure_adaptive_s(1e-4, || {
            std::hint::black_box(42u64.wrapping_mul(7));
        });
        assert!(t >= 0.0);
    }
}
