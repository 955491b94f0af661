//! X03 — extension: event-storm session sweep. A dynamic-rescheduling
//! session (serve::session) absorbs a storm of breakdowns and job
//! arrivals; at every event the unstarted suffix is re-sequenced by a
//! portfolio race under a bounded budget, either **warm-started** from
//! the incumbent order (`ga::engine::Toolkit::with_warm_start` — what
//! the session subsystem does) or **cold** (random initial
//! population, the ablation). The reproduced shape: at equal budget,
//! the warm-started re-solve never loses to right-shift repair and
//! never loses to the cold re-solve *in aggregate* — warm starting is
//! what makes tight event deadlines survivable.
//!
//! The races run cap-bound (small generation cap, generous wall
//! clock), so every number in the sweep is deterministic for the fixed
//! seeds and the shape check is noise-free.

use crate::report::{fmt, Report};
use ga::engine::Toolkit;
use ga::rng::split_seed;
use serve::portfolio::{plan_lineup, race};
use serve::scheduler::RacerPool;
use shop::dynamic::{
    apply_event, frozen_prefix, reschedule_suffix_with_windows, DownWindow, Event, SuffixRedecoder,
};
use shop::gen::{AnyInstance, Family, GenSpec};
use shop::instance::{JobShopInstance, Op};
use shop::schedule::Schedule;
use std::sync::{Arc, Mutex};
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
    /// Wall time of the warm race, in milliseconds.
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

/// Races the suffix permutation, warm-started or cold, and returns the
/// best reschedule found plus its makespan.
fn resolve_race(
    pool: &RacerPool,
    inst: &JobShopInstance,
    frozen: &[shop::schedule::ScheduledOp],
    suffix: &[(usize, usize)],
    windows: &[DownWindow],
    now: u64,
    seed: u64,
    warm: bool,
) -> (u64, Schedule) {
    let k = suffix.len();
    let inst = Arc::new(inst.clone());
    let suffix = Arc::new(suffix.to_vec());
    let windows = Arc::new(windows.to_vec());
    // Every genome is priced through the session path's suffix decoder;
    // only the winner is materialised. `race` shares one evaluator
    // across its racers, so each racer takes whichever decoder is free
    // (a decoder keeps no state between decodes).
    let decoders: Vec<Mutex<SuffixRedecoder>> = (0..STORM_RACERS)
        .map(|_| {
            Mutex::new(SuffixRedecoder::new(
                Arc::clone(&inst),
                frozen,
                Arc::clone(&suffix),
                Arc::clone(&windows),
                now,
            ))
        })
        .collect();
    let eval = move |perm: &Vec<usize>| {
        let mut r = decoders
            .iter()
            .find_map(|d| d.try_lock().ok())
            .unwrap_or_else(|| decoders[0].lock().unwrap());
        r.makespan(perm) as f64
    };
    let toolkit_factory = move || {
        let tk = Toolkit::permutation(
            k,
            ga::crossover::PermCrossover::Order,
            ga::mutate::SeqMutation::Shift,
        );
        if warm {
            tk.with_warm_start(vec![(0..k).collect()], (k / 2).clamp(2, 8))
        } else {
            tk
        }
    };
    let outcome = race(
        pool,
        &plan_lineup(Family::Job, k, STORM_RACERS),
        toolkit_factory,
        eval,
        seed,
        Instant::now() + Duration::from_secs(60),
        STORM_GEN_CAP,
        0.0,
    );
    let order: Vec<(usize, usize)> = outcome.best.genome.iter().map(|&i| suffix[i]).collect();
    let schedule = reschedule_suffix_with_windows(&inst, frozen, &order, &windows, now);
    (schedule.makespan(), schedule)
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
        let opened = serve::solve(
            &pool,
            &any,
            serve::Objective::Makespan,
            7,
            Instant::now() + Duration::from_secs(60),
            STORM_GEN_CAP,
            STORM_RACERS,
        );
        let mut inst = base;
        let mut schedule = Schedule::new(opened.solution.schedule.clone());
        let mut windows: Vec<DownWindow> = Vec::new();
        let mk0 = schedule.makespan();

        for (i, event) in storm(mk0, machines).into_iter().enumerate() {
            let t = event.at();
            let (next_inst, next_windows, repaired) =
                apply_event(&inst, &schedule, &windows, &event).expect("storm events are valid");
            repaired
                .validate_job(&next_inst)
                .expect("repair stays feasible");
            let (frozen, suffix) = frozen_prefix(&repaired, t);
            let seed = split_seed(42, (i + 1) as u64);
            let started = Instant::now();
            let (warm_mk, warm_sched) = resolve_race(
                &pool,
                &next_inst,
                &frozen,
                &suffix,
                &next_windows,
                t,
                seed,
                true,
            );
            let warm_ms = started.elapsed().as_secs_f64() * 1e3;
            let (cold_mk, _) = resolve_race(
                &pool,
                &next_inst,
                &frozen,
                &suffix,
                &next_windows,
                t,
                seed,
                false,
            );
            warm_sched
                .validate_job(&next_inst)
                .expect("warm re-solve stays feasible");
            rows.push(StormRow {
                name: generated.name.clone(),
                event_idx: i,
                kind: match event {
                    Event::Breakdown { .. } => "breakdown",
                    Event::JobArrival { .. } => "job_arrival",
                    Event::Revision { .. } => "revision",
                },
                suffix_len: suffix.len(),
                repair: repaired.makespan(),
                warm: warm_mk,
                cold: cold_mk,
                warm_ms,
            });
            // The session keeps the better of repair / warm re-solve.
            inst = next_inst;
            windows = next_windows;
            schedule = if warm_mk < repaired.makespan() {
                warm_sched
            } else {
                repaired
            };
        }
    }
    rows
}

/// Renders the sweep as a standard experiment report.
pub fn run() -> Report {
    report_from(&measure())
}

/// Builds the report for an already-measured sweep (lets the runner
/// binary measure once and both print and persist the same rows).
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
             cap-bound so deterministic; warm total {warm_total} vs cold total {cold_total}."
        ),
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn shape_holds() {
        let r = super::run();
        assert!(r.shape_holds, "{}", r.to_text());
    }
}
