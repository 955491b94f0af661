//! X03 — extension: event-storm session sweep. A dynamic-rescheduling
//! session absorbs a storm of breakdowns and job arrivals through
//! `serve::session::handle_event`, the transition the service runs: at
//! every event right-shift repair races a frozen-prefix re-solve of the
//! unstarted suffix, **warm-started** from the incumbent order
//! (`ga::engine::Toolkit::with_warm_start`), under a bounded budget.
//! The **cold** ablation runs the same resolve leg
//! (`serve::session::resolve`) on the same repair and seed with no
//! warm-start seeds, i.e. a random initial population. The reproduced
//! shape: at equal budget, the warm-started re-solve never loses to
//! right-shift repair and never loses to the cold re-solve *in
//! aggregate* — warm starting is what makes tight event deadlines
//! survivable.
//!
//! The races run cap-bound (small generation cap, generous wall
//! clock), so every number in the sweep is deterministic for the fixed
//! seeds and the shape check is noise-free.

use crate::report::{fmt, Report};
use serve::portfolio::{SolveHooks, StopRule};
use serve::scheduler::RacerPool;
use serve::session::{handle_event, resolve, Repair, SessionState};
use serve::Objective;
use shop::dynamic::Event;
use shop::gen::{AnyInstance, Family, GenSpec};
use shop::instance::Op;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One storm measurement.
#[derive(Debug, Clone)]
pub struct StormRow {
    /// Canonical generated-instance name (`gen-job-...`).
    pub name: String,
    /// Zero-based event index within the storm.
    pub event_idx: usize,
    /// Event kind (`breakdown` | `job_arrival`).
    pub kind: &'static str,
    /// Operations left unstarted at the event time.
    pub suffix_len: usize,
    /// Right-shift repair's makespan (the instant baseline).
    pub repair: u64,
    /// Warm-started re-solve's makespan at the budget.
    pub warm: u64,
    /// Cold re-solve's makespan at the same budget.
    pub cold: u64,
    /// Wall time of the whole session event (repair plus the
    /// warm-started re-solve), in milliseconds.
    pub warm_ms: f64,
}

/// Generation cap for every race in the sweep: the budget knob. Small
/// enough that the storm finishes in seconds, binding well before the
/// wall clock, so the sweep is deterministic.
const STORM_GEN_CAP: u64 = 60;

/// Racer threads per re-solve.
const STORM_RACERS: usize = 2;

/// The swept job-shop sizes, small → large.
fn sweep_sizes() -> [(usize, usize); 3] {
    [(6, 4), (10, 5), (14, 6)]
}

/// The storm for one instance: a breakdown/arrival mix pinned to
/// fractions of the incumbent makespan, so every size gets a
/// comparable disruption profile.
fn storm(mk: u64, n_machines: usize) -> Vec<Event> {
    vec![
        Event::Breakdown {
            machine: 0,
            from: mk / 5,
            duration: mk / 4,
        },
        Event::JobArrival {
            at: mk / 3,
            route: (0..n_machines.min(3))
                .map(|m| Op::new(m, 3 + 2 * m as u64))
                .collect(),
        },
        // Overlapping second outage on the same machine (the
        // multi-event fold under test) plus one on another machine.
        Event::Breakdown {
            machine: 0,
            from: mk * 2 / 5,
            duration: mk / 5,
        },
        Event::JobArrival {
            at: mk / 2,
            route: (0..n_machines.min(4))
                .rev()
                .map(|m| Op::new(m, 2 + m as u64))
                .collect(),
        },
    ]
}

/// The budget of every race: the generation cap binds, the wall clock
/// never does.
fn stop_rule() -> StopRule {
    StopRule {
        deadline: Instant::now() + Duration::from_secs(60),
        gen_cap: STORM_GEN_CAP,
        target: 0.0,
    }
}

/// Runs the sweep and returns the raw measurements.
pub fn measure() -> Vec<StormRow> {
    let mut rows = Vec::new();
    let pool = RacerPool::new(STORM_RACERS);
    for (jobs, machines) in sweep_sizes() {
        let spec = GenSpec::new(Family::Job, jobs, machines, 42);
        let generated = spec.build().expect("sweep specs are valid");
        let AnyInstance::Job(base) = generated.instance else {
            unreachable!("job family generates job shops");
        };
        // Predictive incumbent: a capped portfolio race on the intact
        // instance (the session_open step).
        let any = Arc::new(AnyInstance::Job(base.clone()));
        let stop = stop_rule();
        let opened = serve::solve(
            &pool,
            &any,
            Objective::Makespan,
            7,
            stop.deadline,
            stop.gen_cap,
            STORM_RACERS,
        );
        // Event k races with split_seed(42, k).
        let mut state =
            SessionState::opened(base, Objective::Makespan, 42, Arc::new(opened.solution), 0);
        let mk0 = state.incumbent.makespan;

        for (i, event) in storm(mk0, machines).into_iter().enumerate() {
            // The cold ablation: the session's own resolve leg with no
            // warm-start seeds, on the same repair and seed.
            let repair = Repair::apply(&state, &event).expect("storm events are valid");
            let (cold, _) = resolve(
                &pool,
                &state,
                &repair,
                vec![],
                STORM_RACERS,
                stop_rule(),
                SolveHooks::default(),
            );
            let started = Instant::now();
            let stop = stop_rule();
            let out = handle_event(
                &pool,
                &mut state,
                &event,
                stop.deadline,
                stop.gen_cap,
                STORM_RACERS,
                false,
            )
            .expect("storm events are valid");
            let warm_ms = started.elapsed().as_secs_f64() * 1e3;
            rows.push(StormRow {
                name: generated.name.clone(),
                event_idx: i,
                kind: match event {
                    Event::Breakdown { .. } => "breakdown",
                    Event::JobArrival { .. } => "job_arrival",
                    Event::Revision { .. } => "revision",
                },
                suffix_len: repair.suffix().len(),
                repair: out.repair_value as u64,
                warm: out
                    .resolve_value
                    .expect("every storm event leaves a feasible suffix re-solve")
                    as u64,
                cold: cold.makespan(),
                warm_ms,
            });
        }
    }
    rows
}

/// Renders the sweep as a standard experiment report.
pub fn run() -> Report {
    report_from(&measure())
}

/// Builds the report for an already-measured sweep (lets the unit test
/// pin the rows and check the verdict from one sweep).
fn report_from(rows: &[StormRow]) -> Report {
    // Shape: (a) warm never loses to right-shift repair, per event —
    // the warm-start guarantee; (b) summed over the storm, warm never
    // loses to cold at equal budget — the reason sessions warm-start.
    let mut shape_holds = !rows.is_empty();
    for r in rows {
        shape_holds &= r.warm <= r.repair;
    }
    let warm_total: u64 = rows.iter().map(|r| r.warm).sum();
    let cold_total: u64 = rows.iter().map(|r| r.cold).sum();
    shape_holds &= warm_total <= cold_total;
    Report {
        id: "X03",
        title: "extension: event-storm sessions — warm vs cold re-solve at a budget",
        paper_claim: "predictive-reactive rescheduling exploits the incumbent: a \
                      warm-started re-solve matches/beats repair and beats a cold \
                      restart at equal budget",
        columns: vec![
            "instance", "event", "kind", "suffix", "repair", "warm", "cold", "warm ms",
        ],
        rows: rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    r.event_idx.to_string(),
                    r.kind.to_string(),
                    r.suffix_len.to_string(),
                    r.repair.to_string(),
                    r.warm.to_string(),
                    r.cold.to_string(),
                    fmt(r.warm_ms),
                ]
            })
            .collect(),
        shape_holds,
        notes: format!(
            "3 generated job shops (gen-job-*-s42), 4-event storms (2 breakdowns incl. an \
             overlapping pair, 2 arrivals), gen_cap {STORM_GEN_CAP}, {STORM_RACERS} racers, \
             cap-bound so deterministic; warm total {warm_total} vs cold total {cold_total}; \
             warm ms times the whole session event (repair plus warm re-solve)."
        ),
    }
}

#[cfg(test)]
mod tests {
    /// The sweep is cap-bound, so its `(repair, warm, cold)` makespans
    /// are pinned exactly, one row per storm event.
    #[test]
    fn shape_holds() {
        let rows = super::measure();
        let r = super::report_from(&rows);
        assert!(r.shape_holds, "{}", r.to_text());
        let cols: Vec<(u64, u64, u64)> = rows.iter().map(|r| (r.repair, r.warm, r.cold)).collect();
        assert_eq!(
            cols,
            [
                (497, 497, 497),
                (512, 497, 497),
                (497, 497, 497),
                (499, 499, 499),
                (821, 728, 728),
                (743, 731, 731),
                (836, 836, 836),
                (844, 838, 838),
                (1143, 1143, 1188),
                (1158, 1146, 1148),
                (1285, 1285, 1285),
                (1287, 1287, 1287),
            ]
        );
    }
}
