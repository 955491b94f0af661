//! O01 — observability: instrumentation-overhead lane. The serve tier
//! can observe a race three ways — request tracing, live `watch`
//! streaming and phase profiling (scoped
//! select/breed/evaluate/migrate/decode timers feeding the
//! `serve_phase_us` histograms). Tracing and watching share one
//! per-member frame stream (start / best / sample / finish): a traced
//! race records it through a trace recorder into per-member anytime
//! `(elapsed_us, best)` points plus retained convergence samples, and
//! forwards it to the watch sink when there is one. The service
//! profiles every cold solve, so the *served* mode (phases only, no
//! trace, no watch) is what each cold request pays. Every race is
//! cap-bound (small generation cap, generous wall clock), so all four
//! modes do *identical* search work from identical seeds — any
//! wall-clock gap is pure observation cost.
//!
//! Shape: (a) observation never changes the answer — same best value
//! per instance across all four modes (the observers are passive);
//! (b) traced runs record non-empty timelines, fully-observed runs
//! additionally emit watch frames and accumulate phase time, served
//! runs accumulate phase time but record no timelines or frames, and
//! bare runs record none of it; (c) summed over the sweep, the
//! min-of-repeats wall clock of *every* instrumented mode stays within
//! `MAX_OVERHEAD_PCT` of bare. The unit test checks (a) and (b) from
//! one repeat; (c) is a wall-clock ratio, so only `run_all` and
//! `experiment o01` judge it.

use crate::report::{fmt, Report};
use serve::scheduler::RacerPool;
use serve::solver::{solve_hooked, LoadedInstance, SolveHooks};
use serve::{Frame, Objective, PhaseAcc, WatchSink};
use shop::gen::{Family, GenSpec};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One per-instance measurement.
#[derive(Debug, Clone)]
pub struct OverheadRow {
    /// Canonical generated-instance name (`gen-job-...`).
    pub name: String,
    /// Min-of-repeats bare race wall time, in milliseconds.
    pub untraced_ms: f64,
    /// Min-of-repeats traced race wall time, in milliseconds.
    pub traced_ms: f64,
    /// Min-of-repeats traced+watched+profiled race wall time, in
    /// milliseconds.
    pub watched_ms: f64,
    /// Min-of-repeats profiled-only race wall time (what the service
    /// runs for every cold solve), in milliseconds.
    pub served_ms: f64,
    /// Best objective value (identical for all modes by construction).
    pub value: f64,
    /// Anytime points recorded across members by the traced run.
    pub points: usize,
    /// Watch frames emitted by the fully-observed run.
    pub frames: usize,
    /// True when all four modes returned the same value and the traced
    /// and fully-observed modes actually recorded something.
    pub deterministic: bool,
}

impl OverheadRow {
    /// Traced-over-bare overhead, in percent (0 when the traced lane
    /// was not slower).
    pub fn overhead_pct(&self) -> f64 {
        mode_overhead_pct(self.untraced_ms, self.traced_ms)
    }

    /// Fully-observed-over-bare overhead, in percent (0 when not
    /// slower).
    pub fn watched_overhead_pct(&self) -> f64 {
        mode_overhead_pct(self.untraced_ms, self.watched_ms)
    }

    /// Served-over-bare overhead, in percent (0 when not slower).
    pub fn served_overhead_pct(&self) -> f64 {
        mode_overhead_pct(self.untraced_ms, self.served_ms)
    }
}

fn mode_overhead_pct(bare_ms: f64, mode_ms: f64) -> f64 {
    if mode_ms <= bare_ms || bare_ms == 0.0 {
        return 0.0;
    }
    (mode_ms - bare_ms) / bare_ms * 100.0
}

/// A [`WatchSink`] that pays the realistic emission cost — rendering
/// every frame to its wire line — then counts it instead of crossing
/// a socket, so the lane measures instrumentation, not the network.
#[derive(Default)]
struct CountingSink {
    frames: AtomicU64,
    bytes: AtomicU64,
}

impl WatchSink for CountingSink {
    fn emit(&self, frame: &Frame) {
        let line = frame.to_json().encode();
        self.frames.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(line.len() as u64, Ordering::Relaxed);
    }
}

/// Generation cap: binds before the wall clock so all modes run the
/// same generations and the comparison is work-for-work.
const LANE_GEN_CAP: u64 = 60;

/// Racer threads per race.
const LANE_RACERS: usize = 2;

/// Alternating repeats per mode; min-of-repeats filters scheduler
/// noise out of the wall-clock comparison.
#[cfg(not(test))]
const LANE_REPEATS: usize = 4;

/// The unit test checks only the deterministic shape, which one
/// repeat shows.
#[cfg(test)]
const LANE_REPEATS: usize = 1;

/// The acceptance bound on aggregate overhead, per instrumented mode.
pub const MAX_OVERHEAD_PCT: f64 = 5.0;

/// How a lane run observes the race.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Bare,
    Traced,
    /// Tracing + watch streaming + phase profiling, all at once — the
    /// full production observability stack.
    Full,
    /// Phase profiling alone: an untraced, unwatched cold solve as
    /// the service runs it.
    Served,
}

/// Runs the lane and returns the raw measurements.
pub fn measure() -> Vec<OverheadRow> {
    let pool = RacerPool::new(LANE_RACERS);
    let mut rows = Vec::new();
    // Instances must be large enough that per-generation search work
    // dominates the per-generation frame rendering the full-obs mode
    // pays — on toy shops (6x4) the ~320 frames a race emits are a
    // double-digit share of a 5 ms race, which measures the lane, not
    // the production overhead. 15x8 and 20x10 keep the lane honest.
    for (jobs, machines) in [(15, 8), (20, 10)] {
        let spec = GenSpec::new(Family::Job, jobs, machines, 42);
        let generated = spec.build().expect("lane specs are valid");
        let inst: Arc<LoadedInstance> = Arc::new(generated.instance);
        let run = |mode: Mode| {
            let sink: Option<Arc<CountingSink>> = (mode == Mode::Full).then(Arc::default);
            let phases =
                matches!(mode, Mode::Full | Mode::Served).then(|| Arc::new(PhaseAcc::new()));
            let started = Instant::now();
            let out = solve_hooked(
                &pool,
                &inst,
                Objective::Makespan,
                7,
                Instant::now() + Duration::from_secs(60),
                LANE_GEN_CAP,
                LANE_RACERS,
                SolveHooks {
                    traced: matches!(mode, Mode::Traced | Mode::Full),
                    watch: sink.clone().map(|s| s as Arc<dyn WatchSink>),
                    phases: phases.clone(),
                },
            );
            let ms = started.elapsed().as_secs_f64() * 1e3;
            let frames = sink.map_or(0, |s| s.frames.load(Ordering::Relaxed) as usize);
            if let Some(p) = &phases {
                assert!(!p.is_zero(), "profiled races must accumulate phase time");
            }
            if matches!(mode, Mode::Bare | Mode::Served) {
                assert!(
                    out.timelines.is_empty() && frames == 0,
                    "untraced, unwatched races must record no timelines or frames"
                );
            }
            (ms, out, frames)
        };
        // Warm-up once so no mode pays first-touch costs.
        let _ = run(Mode::Bare);
        let mut untraced_ms = f64::INFINITY;
        let mut traced_ms = f64::INFINITY;
        let mut watched_ms = f64::INFINITY;
        let mut served_ms = f64::INFINITY;
        let mut values = [f64::NAN; 4];
        let mut points = 0usize;
        let mut frames = 0usize;
        for _ in 0..LANE_REPEATS {
            let (ms, out, _) = run(Mode::Bare);
            untraced_ms = untraced_ms.min(ms);
            values[0] = out.solution.value;
            let (ms, out, _) = run(Mode::Traced);
            traced_ms = traced_ms.min(ms);
            values[1] = out.solution.value;
            points = out.timelines.iter().map(|t| t.points.len()).sum();
            let (ms, out, n) = run(Mode::Full);
            watched_ms = watched_ms.min(ms);
            values[2] = out.solution.value;
            frames = n;
            let (ms, out, _) = run(Mode::Served);
            served_ms = served_ms.min(ms);
            values[3] = out.solution.value;
        }
        rows.push(OverheadRow {
            name: generated.name.clone(),
            untraced_ms,
            traced_ms,
            watched_ms,
            served_ms,
            value: values[0],
            points,
            frames,
            deterministic: values.iter().all(|&v| v == values[0])
                && points > 0
                && frames > 0,
        });
    }
    rows
}

/// Renders the lane as a standard experiment report.
pub fn run() -> Report {
    let rows = measure();
    let bare_total: f64 = rows.iter().map(|r| r.untraced_ms).sum();
    let traced_total: f64 = rows.iter().map(|r| r.traced_ms).sum();
    let watched_total: f64 = rows.iter().map(|r| r.watched_ms).sum();
    let traced_pct = mode_overhead_pct(bare_total, traced_total);
    let served_total: f64 = rows.iter().map(|r| r.served_ms).sum();
    let watched_pct = mode_overhead_pct(bare_total, watched_total);
    let served_pct = mode_overhead_pct(bare_total, served_total);
    let shape_holds = !rows.is_empty()
        && rows.iter().all(|r| r.deterministic)
        && traced_pct <= MAX_OVERHEAD_PCT
        && watched_pct <= MAX_OVERHEAD_PCT
        && served_pct <= MAX_OVERHEAD_PCT;
    Report {
        id: "O01",
        title: "observability: trace / watch / profile overhead",
        paper_claim: "search observability must be effectively free: identical \
                      cap-bound races bare vs traced vs traced+watched+profiled vs \
                      profiled (served) stay within 5% wall clock and return \
                      identical answers",
        columns: vec![
            "instance",
            "bare ms",
            "traced ms",
            "full-obs ms",
            "served ms",
            "traced %",
            "full-obs %",
            "served %",
            "value",
            "points",
            "frames",
        ],
        rows: rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    fmt(r.untraced_ms),
                    fmt(r.traced_ms),
                    fmt(r.watched_ms),
                    fmt(r.served_ms),
                    fmt(r.overhead_pct()),
                    fmt(r.watched_overhead_pct()),
                    fmt(r.served_overhead_pct()),
                    fmt(r.value),
                    r.points.to_string(),
                    r.frames.to_string(),
                ]
            })
            .collect(),
        shape_holds,
        notes: format!(
            "2 generated job shops (gen-job-*-s42), gen_cap {LANE_GEN_CAP}, {LANE_RACERS} \
             racers, min of {LANE_REPEATS} alternating repeats per mode after a warm-up; \
             aggregate overhead traced {traced_pct:.2}%, traced+watched+profiled \
             {watched_pct:.2}%, served (profiled only, as every cold solve on the \
             service) {served_pct:.2}% (bound {MAX_OVERHEAD_PCT}% each). The full-obs \
             mode renders every watch frame to its wire line into a counting sink."
        ),
    }
}

#[cfg(test)]
mod tests {
    /// The deterministic half of the shape: identical values across
    /// modes, timelines only on traced runs, frames on full runs (bare
    /// and served runs recording no timeline, and profiled runs
    /// accumulating phase time, are asserted inside `measure`). The
    /// wall-clock bound stays out of `cargo test`, where the whole
    /// workspace suite shares the machine.
    #[test]
    fn shape_holds() {
        let rows = super::measure();
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.deterministic, "{r:?}");
        }
    }
}
