//! G01 — generated-instance sweep: the `hpc` cost model's predicted
//! solve cost vs the observed portfolio runtime, across sizes of all
//! four generated families (`shop::gen`).
//!
//! The service's lineup planner prices candidate parallel models with
//! per-family decode costs ([`hpc::calibrate`]'s `DECODE_OP_S_*`
//! constants, calibrated against the struct-of-arrays decoders). Two
//! shapes are under test: within every family the sweep's largest
//! instance must both be *predicted* and *observed* slower than its
//! smallest (scaling), and on each family's largest instance —
//! where decode work, not fixed solve overhead, dominates — the
//! prediction must land within 2x of the observed runtime
//! (calibration; this was a 3–10x miss on flexible/open when one
//! shared constant priced every family).

use crate::report::{fmt, Report};
use serve::portfolio::price_lineup;
use serve::scheduler::RacerPool;
use serve::{solve, Objective};
use shop::gen::{Family, GenSpec};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One sweep measurement.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Canonical generated-instance name (`gen-...`).
    pub name: String,
    /// Family tag.
    pub family: &'static str,
    /// Total operation count of the instance.
    pub total_ops: usize,
    /// Cheapest candidate's predicted time, scaled to the sweep's
    /// generation cap (seconds).
    pub predicted_s: f64,
    /// Observed wall time of a capped portfolio race.
    pub observed_ms: f64,
    /// Observed / predicted (1.0 = perfectly calibrated).
    pub ratio: f64,
    /// Best makespan the race found.
    pub makespan: u64,
}

/// Generation cap for the measured races: small enough that the sweep
/// stays in seconds, large enough that runtime is dominated by
/// decoding work (which is what the cost model prices).
const SWEEP_GEN_CAP: u64 = 120;

/// Racer threads per measured solve.
const SWEEP_RACERS: usize = 2;

/// The cost model prices a nominal 100-generation run; the sweep
/// measures `SWEEP_GEN_CAP` generations, so predictions are rescaled
/// by this factor before comparison.
const CAP_SCALE: f64 = SWEEP_GEN_CAP as f64 / 100.0;

/// The swept sizes: `(jobs, machines)` per family, small → large.
fn sweep_sizes() -> Vec<(Family, [(usize, usize); 3])> {
    vec![
        (Family::Flow, [(6, 4), (12, 5), (20, 8)]),
        (Family::Job, [(5, 4), (8, 6), (12, 8)]),
        (Family::Open, [(4, 4), (7, 6), (10, 8)]),
        (Family::Flexible, [(4, 3), (6, 5), (9, 6)]),
    ]
}

/// Runs the sweep and returns the raw measurements.
pub fn measure() -> Vec<SweepRow> {
    let mut rows = Vec::new();
    // One persistent racer pool for the whole sweep, as in the service.
    let pool = RacerPool::new(SWEEP_RACERS);
    for (family, sizes) in sweep_sizes() {
        for (jobs, machines) in sizes {
            let spec = GenSpec::new(family, jobs, machines, 42);
            let generated = spec.build().expect("sweep specs are valid");
            let inst = Arc::new(generated.instance);
            let predicted_s = price_lineup(family, inst.total_ops(), SWEEP_RACERS)
                .first()
                .map(|(s, _)| *s * CAP_SCALE)
                .unwrap_or(f64::NAN);
            let started = Instant::now();
            let outcome = solve(
                &pool,
                &inst,
                Objective::Makespan,
                7,
                started + Duration::from_secs(60),
                SWEEP_GEN_CAP,
                SWEEP_RACERS,
            );
            let observed_ms = started.elapsed().as_secs_f64() * 1e3;
            rows.push(SweepRow {
                name: generated.name,
                family: family.name(),
                total_ops: inst.total_ops(),
                predicted_s,
                observed_ms,
                ratio: observed_ms * 1e-3 / predicted_s,
                makespan: outcome.solution.makespan,
            });
        }
    }
    rows
}

/// Renders the sweep as a standard experiment report.
pub fn run() -> Report {
    let rows = measure();
    // Shape: within each family, the largest instance must be both
    // predicted and observed slower than the smallest (monotone ends;
    // the middle point is reported but not asserted, timing noise on
    // millisecond-scale runs being what it is), and the largest
    // instance's observed/predicted ratio must land within 2x either
    // way — the per-family calibration criterion. Small instances are
    // exempt from the ratio check: their runtime is fixed solve
    // overhead (pool handoff, validation), not the decode work the
    // model prices. Incomplete trailing chunks (callers passing a
    // filtered row set) are skipped rather than asserted on.
    let mut shape_holds = true;
    for chunk in rows.chunks(3).filter(|c| c.len() == 3) {
        let (first, last) = (&chunk[0], &chunk[2]);
        shape_holds &= last.predicted_s > first.predicted_s;
        shape_holds &= last.observed_ms > first.observed_ms;
        shape_holds &= last.ratio >= 0.5 && last.ratio <= 2.0;
    }
    Report {
        id: "G01",
        title: "generated sweep: cost-model prediction vs observed runtime",
        paper_claim: "cost models rank bigger instances as proportionally more \
                      expensive; the real portfolio scales the same way",
        columns: vec![
            "instance",
            "family",
            "ops",
            "predicted (s)",
            "observed (ms)",
            "obs/pred",
            "makespan",
        ],
        rows: rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    r.family.to_string(),
                    r.total_ops.to_string(),
                    format!("{:.4}", r.predicted_s),
                    fmt(r.observed_ms),
                    format!("{:.2}", r.ratio),
                    r.makespan.to_string(),
                ]
            })
            .collect(),
        shape_holds,
        notes: format!(
            "seeded gen-* instances (shop::gen), gen_cap {SWEEP_GEN_CAP}, \
             {SWEEP_RACERS} racers; per-family decode costs from \
             hpc::calibrate, predictions scaled to the gen cap. Largest \
             instance per family must land within 2x observed-vs-predicted."
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_sizes_are_strictly_growing_in_ops() {
        for (family, sizes) in sweep_sizes() {
            let ops: Vec<usize> = sizes
                .iter()
                .map(|&(j, m)| {
                    GenSpec::new(family, j, m, 42)
                        .build()
                        .unwrap()
                        .instance
                        .total_ops()
                })
                .collect();
            assert!(ops.windows(2).all(|w| w[0] < w[1]), "{family:?}: {ops:?}");
        }
    }

    #[test]
    fn family_pricing_orders_flexible_above_flow() {
        // Same op count, same thread budget: the flexible decode must
        // be priced strictly above the flow decode (the per-family
        // constants, not one shared figure).
        let flex = price_lineup(Family::Flexible, 60, SWEEP_RACERS)[0].0;
        let flow = price_lineup(Family::Flow, 60, SWEEP_RACERS)[0].0;
        assert!(flex > flow, "flexible {flex} should out-price flow {flow}");
    }
}
