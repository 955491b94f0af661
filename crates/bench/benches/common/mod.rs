//! The timing harness shared by the `cargo bench` targets: every case
//! is timed by [`hpc::calibrate::measure_adaptive_s`] (the min of three
//! passes, the same harness as d01, `decoder_smoke` and calibration)
//! and printed as one `bench: <group>/<name> <ns> ns/iter` row.

use hpc::calibrate::measure_adaptive_s;

/// Shortest timed pass of one case, in seconds.
const MIN_PASS_S: f64 = 0.05;

/// Times one call of `f` and prints its row. The result goes through
/// `black_box`, so the optimiser cannot drop the timed work.
pub fn row<O>(group: &str, name: &str, mut f: impl FnMut() -> O) {
    let s = measure_adaptive_s(MIN_PASS_S, || {
        std::hint::black_box(f());
    });
    let id = format!("{group}/{name}");
    println!("bench: {id:<55} {:>12.1} ns/iter", s * 1e9);
}
