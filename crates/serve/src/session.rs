//! Stateful dynamic-rescheduling sessions — the serve layer for the
//! survey's *dynamic environment* factor (Tang et al. \[9\]'s
//! predictive-reactive approach, `shop::dynamic`).
//!
//! A session is a long-lived server-side object holding a job-shop
//! instance, the **incumbent** schedule (the best known answer for the
//! current state of the world) and a **virtual clock**. `session_open`
//! solves the instance through the ordinary portfolio race and
//! registers the session; each `session_event` then applies a
//! disruption — machine breakdown, job arrival, or processing-time
//! revision — and must answer within a per-event deadline. Two
//! responders race:
//!
//! * **repair** — right-shift repair
//!   ([`shop::dynamic::apply_event`]): instant, always available,
//!   keeps every sequencing decision;
//! * **resolve** — a frozen-prefix GA re-solve: operations already
//!   started stay frozen, the remaining suffix is re-sequenced by a
//!   portfolio race whose population is **warm-started** from the
//!   incumbent order (`ga::engine::Toolkit::with_warm_start`), so its
//!   very first individual already matches repair and everything the
//!   GA finds on top is profit.
//!
//! The better answer wins, becomes the new incumbent, and the clock
//! advances to the event time. Because greedy dispatch of the unchanged
//! suffix order is never later than right-shift repair (see
//! `shop::dynamic`), the resolve answer is ≤ repair whenever it runs —
//! when the racer pool is saturated past the admission limit the
//! server skips the resolve and degrades to repair, so an event burst
//! is answered within its deadline no matter what.
//!
//! Sessions live in a [`SessionRegistry`] with idle-TTL expiry and LRU
//! capacity eviction; `stats` exposes the gauges. Registry lookups take
//! one short registry lock; event processing locks only the addressed
//! session, so events on different sessions race concurrently while
//! events on one session serialise in arrival order.

use crate::obs::phase::PhaseAcc;
use crate::obs::trace::{Trace, WatchSink};
use crate::portfolio::{
    plan_lineup, race_core, run_member, MemberObs, MemberRunner, SolveHooks, StopRule,
};
use crate::protocol::{Objective, Solution};
use crate::scheduler::RacerPool;
use ga::engine::Toolkit;
use ga::rng::split_seed;
use shop::dynamic::{
    apply_event, frozen_prefix, reschedule_suffix_with_windows, DownWindow, Event, SuffixRedecoder,
};
use shop::gen::Family;
use shop::instance::JobShopInstance;
use shop::schedule::Schedule;
use shop::{Problem, Time};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Registry policy knobs (resolved from `ServeConfig`).
#[derive(Debug, Clone, Copy)]
pub struct SessionConfig {
    /// Idle time-to-live: a session untouched for this long is expired
    /// on the next registry access.
    pub default_ttl: Duration,
    /// Hard cap on `ttl_ms` a client may request.
    pub max_ttl: Duration,
    /// Capacity: opening past it evicts the least-recently-used
    /// session.
    pub max_sessions: usize,
}

/// Everything one session knows. Guarded by its entry's mutex: events
/// on one session serialise, sessions stay independent.
#[derive(Debug)]
pub struct SessionState {
    /// The instance as of the virtual clock (grows with job arrivals,
    /// durations change with revisions).
    pub inst: JobShopInstance,
    /// Criterion the session minimises.
    pub objective: Objective,
    /// Root seed; event `k` (1-based) races with `split_seed(seed, k)`.
    pub seed: u64,
    /// Accumulated breakdown windows.
    pub windows: Vec<DownWindow>,
    /// The virtual clock: the time of the last applied event.
    pub now: Time,
    /// The incumbent solution for the current instance/windows.
    pub incumbent: Arc<Solution>,
    /// Whether the incumbent is budget-degraded: the last event's
    /// re-solve was cut by the clock or skipped under backpressure
    /// (`ResolveSkip::Busy`), so a rerun with more budget could hold a
    /// better schedule. `session_get` reports this as
    /// `deadline_bound`, mirroring the solver's semantics.
    pub deadline_bound: bool,
    /// Events applied so far.
    pub events: u64,
    /// The TTL the client requested at open (0 = server default).
    /// Carried in the state so the WAL can preserve it across a
    /// restart.
    pub ttl_ms: u64,
    /// The ordered event journal: one entry per applied event, in
    /// arrival order. Served by `session_events` and persisted in WAL
    /// snapshots so the full history survives both compaction and a
    /// restart.
    pub journal: Vec<JournalEntry>,
}

/// One line of a session's event journal: the disruption plus the
/// summary of the answer it got (the full winning schedule lives in
/// the incumbent / the WAL, not here).
#[derive(Debug, Clone)]
pub struct JournalEntry {
    /// 1-based event sequence number.
    pub seq: u64,
    /// The disruption that was applied.
    pub event: Event,
    /// `"repair"` or `"resolve"` — which responder won.
    pub winner: String,
    /// The post-event incumbent's objective value.
    pub value: f64,
    /// The post-event incumbent's makespan.
    pub makespan: u64,
    /// Whether the answer was budget-degraded (see
    /// [`SessionState::deadline_bound`]).
    pub deadline_bound: bool,
}

/// One registry slot: the shared session entry plus recency metadata
/// (kept outside the entry mutex so touching never waits on a running
/// event).
struct Slot {
    stamp: u64,
    last_touch: Instant,
    ttl: Duration,
    entry: Arc<Mutex<SessionState>>,
}

/// Monotonic session counters (exposed through the service's `stats`).
#[derive(Debug, Default)]
pub struct SessionCounters {
    /// Sessions ever opened.
    pub opened: AtomicU64,
    /// Sessions closed by request.
    pub closed: AtomicU64,
    /// Sessions expired by idle TTL.
    pub expired: AtomicU64,
    /// Sessions evicted by the LRU capacity cap.
    pub evicted: AtomicU64,
    /// Sessions rebuilt from the write-ahead log (at restart or
    /// lazily on first touch after expiry).
    pub recovered: AtomicU64,
}

/// Point-in-time copy of [`SessionCounters`] plus the open gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionGauges {
    /// Sessions currently registered.
    pub open: u64,
    /// Sessions ever opened.
    pub opened: u64,
    /// Sessions closed by request.
    pub closed: u64,
    /// Sessions expired by idle TTL.
    pub expired: u64,
    /// Sessions evicted by the LRU capacity cap.
    pub evicted: u64,
    /// Sessions rebuilt from the write-ahead log.
    pub recovered: u64,
}

/// The TTL/LRU session registry. One short mutex guards the map;
/// session state sits behind per-session `Arc<Mutex<_>>` entries, so
/// the registry lock is never held across a solve.
pub struct SessionRegistry {
    config: SessionConfig,
    slots: Mutex<HashMap<String, Slot>>,
    clock: AtomicU64,
    next_id: AtomicU64,
    counters: SessionCounters,
}

impl std::fmt::Debug for SessionRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionRegistry")
            .field("open", &self.len())
            .field("max_sessions", &self.config.max_sessions)
            .finish()
    }
}

impl SessionRegistry {
    /// An empty registry with the given policy.
    pub fn new(config: SessionConfig) -> Self {
        assert!(
            config.max_sessions >= 1,
            "need room for at least one session"
        );
        SessionRegistry {
            config,
            slots: Mutex::new(HashMap::new()),
            clock: AtomicU64::new(0),
            next_id: AtomicU64::new(0),
            counters: SessionCounters::default(),
        }
    }

    /// The registry policy in force.
    pub fn config(&self) -> SessionConfig {
        self.config
    }

    /// Sessions currently registered (after sweeping expired ones).
    pub fn len(&self) -> usize {
        let mut slots = self.slots.lock().expect("session registry poisoned");
        self.sweep(&mut slots);
        slots.len()
    }

    /// Whether no session is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot plus the open gauge.
    pub fn gauges(&self) -> SessionGauges {
        SessionGauges {
            open: self.len() as u64,
            opened: self.counters.opened.load(Ordering::Relaxed),
            closed: self.counters.closed.load(Ordering::Relaxed),
            expired: self.counters.expired.load(Ordering::Relaxed),
            evicted: self.counters.evicted.load(Ordering::Relaxed),
            recovered: self.counters.recovered.load(Ordering::Relaxed),
        }
    }

    /// Drops every session idle past its TTL. Called with the map lock
    /// held, on every registry access.
    fn sweep(&self, slots: &mut HashMap<String, Slot>) {
        let before = slots.len();
        slots.retain(|_, s| s.last_touch.elapsed() <= s.ttl);
        let dropped = (before - slots.len()) as u64;
        if dropped > 0 {
            self.counters.expired.fetch_add(dropped, Ordering::Relaxed);
        }
    }

    /// Registers a fresh session and returns its id (`sess-<n>`).
    /// `ttl_ms` 0 means the registry default; the configured maximum
    /// clamps it either way. At capacity the least-recently-used
    /// session is evicted.
    pub fn open(&self, state: SessionState, ttl_ms: u64) -> String {
        let ttl = match ttl_ms {
            0 => self.config.default_ttl,
            ms => Duration::from_millis(ms).min(self.config.max_ttl),
        };
        let id = format!("sess-{}", self.next_id.fetch_add(1, Ordering::Relaxed) + 1);
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let mut slots = self.slots.lock().expect("session registry poisoned");
        self.sweep(&mut slots);
        while slots.len() >= self.config.max_sessions {
            let Some(lru) = slots
                .iter()
                .min_by_key(|(_, s)| s.stamp)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            slots.remove(&lru);
            self.counters.evicted.fetch_add(1, Ordering::Relaxed);
        }
        slots.insert(
            id.clone(),
            Slot {
                stamp,
                last_touch: Instant::now(),
                ttl,
                entry: Arc::new(Mutex::new(state)),
            },
        );
        self.counters.opened.fetch_add(1, Ordering::Relaxed);
        id
    }

    /// Re-registers a session rebuilt from its write-ahead log under
    /// its *original* id — restart recovery and lazy recovery after an
    /// idle-TTL expiry both land here. Keep-existing semantics: when
    /// the id is already live (two requests racing the same recovery)
    /// the state on hand is dropped and the live entry returned, so a
    /// session never forks. Returns the entry plus whether this call
    /// actually inserted (and counted) the recovery.
    ///
    /// The id minter is bumped past any recovered `sess-<n>` so a
    /// post-restart `session_open` can never re-issue a recovered id.
    pub fn restore(
        &self,
        id: &str,
        state: SessionState,
        ttl_ms: u64,
    ) -> (Arc<Mutex<SessionState>>, bool) {
        if let Some(n) = id.strip_prefix("sess-").and_then(|n| n.parse::<u64>().ok()) {
            self.next_id.fetch_max(n, Ordering::Relaxed);
        }
        let ttl = match ttl_ms {
            0 => self.config.default_ttl,
            ms => Duration::from_millis(ms).min(self.config.max_ttl),
        };
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let mut slots = self.slots.lock().expect("session registry poisoned");
        self.sweep(&mut slots);
        if let Some(live) = slots.get(id) {
            return (Arc::clone(&live.entry), false);
        }
        while slots.len() >= self.config.max_sessions {
            let Some(lru) = slots
                .iter()
                .min_by_key(|(_, s)| s.stamp)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            slots.remove(&lru);
            self.counters.evicted.fetch_add(1, Ordering::Relaxed);
        }
        let entry = Arc::new(Mutex::new(state));
        slots.insert(
            id.to_string(),
            Slot {
                stamp,
                last_touch: Instant::now(),
                ttl,
                entry: Arc::clone(&entry),
            },
        );
        self.counters.recovered.fetch_add(1, Ordering::Relaxed);
        (entry, true)
    }

    /// Looks up (and touches) a session. `None` when unknown or
    /// expired.
    pub fn get(&self, id: &str) -> Option<Arc<Mutex<SessionState>>> {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let mut slots = self.slots.lock().expect("session registry poisoned");
        self.sweep(&mut slots);
        slots.get_mut(id).map(|s| {
            s.stamp = stamp;
            s.last_touch = Instant::now();
            Arc::clone(&s.entry)
        })
    }

    /// Removes a session; returns its entry for a final summary.
    pub fn close(&self, id: &str) -> Option<Arc<Mutex<SessionState>>> {
        let mut slots = self.slots.lock().expect("session registry poisoned");
        self.sweep(&mut slots);
        let slot = slots.remove(id)?;
        self.counters.closed.fetch_add(1, Ordering::Relaxed);
        Some(slot.entry)
    }
}

/// Why the resolve leg of an event was skipped (repair answered alone).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolveSkip {
    /// The racer-pool queue was past the admission limit: shedding the
    /// GA keeps the event answer inside its deadline.
    Busy,
    /// Every operation had already started at the event time — there
    /// is nothing left to re-sequence.
    EmptySuffix,
    /// The re-solve decoded to an infeasible schedule (an internal
    /// anomaly, counted in the service's `errors`); repair answered.
    Infeasible,
}

impl ResolveSkip {
    /// Stable wire label.
    pub fn name(&self) -> &'static str {
        match self {
            ResolveSkip::Busy => "busy",
            ResolveSkip::EmptySuffix => "empty_suffix",
            ResolveSkip::Infeasible => "infeasible",
        }
    }
}

/// The answer to one `session_event`.
#[derive(Debug, Clone)]
pub struct EventOutcome {
    /// `"repair"` or `"resolve"` — which responder's schedule won
    /// (ties go to repair: its schedule moves least).
    pub winner: &'static str,
    /// Right-shift repair's objective value (always computed).
    pub repair_value: f64,
    /// The GA re-solve's objective value, when it ran.
    pub resolve_value: Option<f64>,
    /// Why the re-solve was skipped, if it was.
    pub resolve_skipped: Option<ResolveSkip>,
    /// Generations the winning re-solve member ran (0 when skipped).
    pub resolve_generations: u64,
    /// True when the re-solve race was cut by the clock rather than
    /// its generation cap (see `portfolio::RaceResult::deadline_bound`).
    pub deadline_bound: bool,
    /// The new incumbent (also stored back into the session).
    pub solution: Arc<Solution>,
    /// The virtual clock after the event.
    pub now: Time,
}

/// Computes one session event: validates it against the session clock,
/// applies it (right-shift repair), optionally races the warm-started
/// frozen-prefix re-solve on `pool` until `deadline`, picks the better
/// schedule, and **mutates `state`** to the post-event world. On error
/// the session state is untouched.
///
/// `skip_resolve` is the admission-control hook: when the caller saw
/// the racer queue past its limit, repair answers alone.
pub fn handle_event(
    pool: &RacerPool,
    state: &mut SessionState,
    event: &Event,
    deadline: Instant,
    gen_cap: u64,
    racers: usize,
    skip_resolve: bool,
) -> Result<EventOutcome, String> {
    handle_event_hooked(
        pool,
        state,
        event,
        deadline,
        gen_cap,
        racers,
        skip_resolve,
        None,
        None,
        None,
    )
}

/// [`handle_event`] with the observability hooks (see [`SolveHooks`]):
/// a `trace` records the right-shift repair and the GA re-solve as
/// distinct `repair` / `resolve` spans plus the re-solve race's
/// `member/<model>` spans, a [`WatchSink`] streams its frames, and a
/// [`PhaseAcc`] accumulates its per-phase search time. None of them changes the race's trajectory — the event outcome is
/// bit-identical with or without them.
#[allow(clippy::too_many_arguments)]
pub(crate) fn handle_event_hooked(
    pool: &RacerPool,
    state: &mut SessionState,
    event: &Event,
    deadline: Instant,
    gen_cap: u64,
    racers: usize,
    skip_resolve: bool,
    mut trace: Option<&mut Trace>,
    watch: Option<Arc<dyn WatchSink>>,
    phases: Option<Arc<PhaseAcc>>,
) -> Result<EventOutcome, String> {
    let t = event.at();
    if t < state.now {
        return Err(format!(
            "event at {t} is behind the session clock {}",
            state.now
        ));
    }
    let incumbent_schedule = Schedule::new(state.incumbent.schedule.clone());
    let repair_start = trace.as_deref().map(|tr| tr.elapsed_us());
    let (inst, windows, repaired) =
        apply_event(&state.inst, &incumbent_schedule, &state.windows, event)
            .map_err(|e| e.to_string())?;
    if let Err(e) = repaired.validate_job(&inst) {
        return Err(format!("internal: repair produced {e}"));
    }
    let repair_value = objective_value(&inst, &repaired, state.objective);
    if let (Some(tr), Some(start)) = (trace.as_deref_mut(), repair_start) {
        tr.span(
            "repair",
            start,
            vec![("value".to_string(), repair_value.into())],
        );
    }

    let (frozen, suffix) = frozen_prefix(&repaired, t);
    let mut skip = None;
    if suffix.is_empty() {
        skip = Some(ResolveSkip::EmptySuffix);
    } else if skip_resolve {
        skip = Some(ResolveSkip::Busy);
    }

    let mut resolve: Option<(f64, Schedule, String, u64, bool)> = None;
    if skip.is_none() {
        let k = suffix.len();
        let objective = state.objective;
        let shared_inst = Arc::new(inst.clone());
        let shared_frozen = Arc::new(frozen.clone());
        let shared_suffix = Arc::new(suffix.clone());
        let shared_windows = Arc::new(windows.clone());
        // Warm start: the identity permutation *is* the incumbent
        // order, so the race's first individual already matches (or
        // beats — greedy dispatch) right-shift repair; a handful of
        // mutated clones around it seeds the neighbourhood.
        let clones = (k / 2).clamp(2, 8);
        let lineup = plan_lineup(Family::Job, k, racers.max(1));
        // Every race member shares the Arc'd (instance, frozen,
        // suffix, windows) base data and wraps it in its own
        // incremental suffix re-decoder: evaluations are bit-identical
        // to materialising via reschedule_suffix_with_windows (with
        // the `now` floor at the event time, which is what keeps
        // resolve <= repair), but a warm-started population's
        // mutated-clone traffic re-times only the changed tail.
        let runner: Arc<MemberRunner<Vec<usize>>> = {
            let inst = Arc::clone(&shared_inst);
            let frozen = Arc::clone(&shared_frozen);
            let suffix = Arc::clone(&shared_suffix);
            let windows = Arc::clone(&shared_windows);
            Arc::new(move |member, mseed, stop: &StopRule, obs: &mut MemberObs| {
                // Per-member mutable decode state; the mutex satisfies
                // the `Fn + Sync` evaluator bound and is uncontended
                // (one evaluator per member run).
                let redecoder = Mutex::new(SuffixRedecoder::new(
                    Arc::clone(&inst),
                    &frozen,
                    Arc::clone(&suffix),
                    Arc::clone(&windows),
                    t,
                ));
                let eval = move |perm: &Vec<usize>| {
                    let mut r = redecoder.lock().unwrap();
                    match objective {
                        Objective::Makespan => r.makespan(perm) as f64,
                        Objective::TotalCompletion => r.completion_sum(perm) as f64,
                    }
                };
                let toolkit_factory =
                    || suffix_toolkit(k).with_warm_start(vec![identity(k)], clones);
                run_member(member, mseed, &toolkit_factory, &eval, stop, obs)
            })
        };
        let resolve_start = trace.as_deref().map(|tr| tr.elapsed_us());
        let outcome = race_core(
            pool,
            &lineup,
            runner,
            split_seed(state.seed, state.events + 1),
            deadline,
            gen_cap,
            0.0, // no cheap certificate for a frozen-prefix re-solve
            SolveHooks {
                traced: trace.is_some(),
                watch,
                phases,
            },
        );
        // The winner is materialised and validated by the reference
        // path — the incremental decoder never answers unchecked.
        let order: Vec<(usize, usize)> = outcome
            .best
            .genome
            .iter()
            .map(|&i| shared_suffix[i])
            .collect();
        let schedule = reschedule_suffix_with_windows(
            &shared_inst,
            &shared_frozen,
            &order,
            &shared_windows,
            t,
        );
        let value = objective_value(&inst, &schedule, state.objective);
        let generations = outcome
            .models
            .iter()
            .map(|(_, t)| t.generations)
            .max()
            .unwrap_or(0);
        if let (Some(tr), Some(start)) = (trace, resolve_start) {
            tr.member_spans(start, &outcome.timelines);
            tr.span(
                "resolve",
                start,
                vec![
                    ("value".to_string(), value.into()),
                    ("winner".to_string(), outcome.winner.as_str().into()),
                    ("generations".to_string(), generations.into()),
                ],
            );
        }
        match schedule.validate_job(&inst) {
            Ok(()) => {
                resolve = Some((
                    value,
                    schedule,
                    outcome.winner,
                    generations,
                    outcome.deadline_bound,
                ))
            }
            // A decode bug must degrade to repair, never to an
            // infeasible answer; the server counts the anomaly.
            Err(_) => skip = Some(ResolveSkip::Infeasible),
        }
    }

    let mut resolve_value = None;
    let mut generations = 0;
    // A backpressure skip is a budget-degraded answer — the repaired
    // schedule stands in because the service had no re-solve capacity,
    // exactly the solver's "never got a slot" semantics — so it must
    // surface as deadline_bound, not masquerade as a settled incumbent.
    let mut deadline_bound = matches!(skip, Some(ResolveSkip::Busy));
    let (winner, value, schedule, model) = match resolve {
        Some((rv, schedule, member, gens, bound)) => {
            resolve_value = Some(rv);
            generations = gens;
            deadline_bound = bound;
            if rv < repair_value {
                ("resolve", rv, schedule, format!("resolve/{member}"))
            } else {
                // Resolve ran but did not strictly beat repair:
                // repair's schedule moves the fewest operations, so it
                // wins ties.
                ("repair", repair_value, repaired, "right_shift".to_string())
            }
        }
        None => ("repair", repair_value, repaired, "right_shift".to_string()),
    };

    let solution = Arc::new(Solution {
        objective: state.objective,
        value,
        makespan: schedule.makespan(),
        model,
        schedule: schedule.ops,
    });
    state.inst = inst;
    state.windows = windows;
    state.now = t;
    state.incumbent = Arc::clone(&solution);
    state.deadline_bound = deadline_bound;
    state.events += 1;
    state.journal.push(JournalEntry {
        seq: state.events,
        event: event.clone(),
        winner: winner.to_string(),
        value,
        makespan: solution.makespan,
        deadline_bound,
    });
    Ok(EventOutcome {
        winner,
        repair_value,
        resolve_value,
        resolve_skipped: skip,
        resolve_generations: generations,
        deadline_bound,
        solution,
        now: t,
    })
}

/// Objective value of `schedule` for the session's instance.
pub(crate) fn objective_value(
    inst: &JobShopInstance,
    schedule: &Schedule,
    objective: Objective,
) -> f64 {
    match objective {
        Objective::Makespan => schedule.makespan() as f64,
        Objective::TotalCompletion => schedule
            .completion_times(inst.n_jobs())
            .iter()
            .map(|&c| c as f64)
            .sum(),
    }
}

/// The identity permutation `0..k`.
fn identity(k: usize) -> Vec<usize> {
    (0..k).collect()
}

/// Toolkit over permutations of the suffix indices.
fn suffix_toolkit(k: usize) -> Toolkit<Vec<usize>> {
    use ga::crossover::PermCrossover;
    use ga::mutate::SeqMutation;
    Toolkit {
        init: Box::new(move |rng| {
            use rand::seq::SliceRandom;
            let mut p: Vec<usize> = (0..k).collect();
            p.shuffle(rng);
            p
        }),
        crossover: Box::new(|a, b, rng| PermCrossover::Order.apply(a, b, rng)),
        mutate: Box::new(|g, rng| SeqMutation::Shift.apply(g, rng)),
        seq_view: Some(Box::new(|g: &Vec<usize>| g.clone())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shop::instance::classic;
    use shop::instance::Op;

    fn open_state(seed: u64) -> SessionState {
        let inst = classic::ft06().instance;
        let pool = RacerPool::new(2);
        let any = Arc::new(shop::gen::AnyInstance::Job(inst.clone()));
        let out = crate::solver::solve(
            &pool,
            &any,
            Objective::Makespan,
            seed,
            Instant::now() + Duration::from_secs(10),
            80,
            2,
        );
        SessionState {
            inst,
            objective: Objective::Makespan,
            seed,
            windows: Vec::new(),
            now: 0,
            incumbent: Arc::new(out.solution),
            deadline_bound: false,
            events: 0,
            ttl_ms: 0,
            journal: Vec::new(),
        }
    }

    fn cfg() -> SessionConfig {
        SessionConfig {
            default_ttl: Duration::from_secs(60),
            max_ttl: Duration::from_secs(600),
            max_sessions: 4,
        }
    }

    #[test]
    fn registry_opens_touches_and_closes() {
        let reg = SessionRegistry::new(cfg());
        assert!(reg.is_empty());
        let id = reg.open(open_state(1), 0);
        assert_eq!(id, "sess-1");
        assert_eq!(reg.len(), 1);
        assert!(reg.get(&id).is_some());
        assert!(reg.get("sess-999").is_none());
        assert!(reg.close(&id).is_some());
        assert!(reg.close(&id).is_none());
        let g = reg.gauges();
        assert_eq!((g.open, g.opened, g.closed), (0, 1, 1));
    }

    #[test]
    fn restore_reuses_ids_and_never_forks_a_live_session() {
        let reg = SessionRegistry::new(cfg());
        let (a, b) = (open_state(1), open_state(2));
        let (_, inserted) = reg.restore("sess-7", a, 0);
        assert!(inserted);
        assert_eq!(reg.gauges().recovered, 1);
        // A live id is never forked: the second restore returns the
        // existing entry and counts nothing.
        let entry = reg.get("sess-7").unwrap();
        let (same, inserted) = reg.restore("sess-7", b, 0);
        assert!(!inserted);
        assert!(Arc::ptr_eq(&entry, &same));
        assert_eq!(reg.gauges().recovered, 1);
        // The minter was bumped past the recovered id.
        let fresh = reg.open(open_state(3), 0);
        assert_eq!(fresh, "sess-8");
    }

    #[test]
    fn registry_expires_idle_sessions_by_ttl() {
        let reg = SessionRegistry::new(SessionConfig {
            default_ttl: Duration::from_millis(60),
            ..cfg()
        });
        // Solve both incumbents *before* opening: the portfolio race
        // takes longer than the tiny TTL under test.
        let (a, b) = (open_state(1), open_state(2));
        let id = reg.open(a, 0);
        // A generous per-request TTL is clamped to max_ttl, not default.
        let long = reg.open(b, 3_600_000);
        assert_eq!(reg.len(), 2);
        std::thread::sleep(Duration::from_millis(150));
        assert!(reg.get(&id).is_none(), "idle session must expire");
        assert!(reg.get(&long).is_some(), "per-request TTL still alive");
        let g = reg.gauges();
        assert_eq!(g.expired, 1);
        assert_eq!(g.open, 1);
    }

    #[test]
    fn registry_evicts_lru_at_capacity() {
        let reg = SessionRegistry::new(SessionConfig {
            max_sessions: 2,
            ..cfg()
        });
        let a = reg.open(open_state(1), 0);
        let b = reg.open(open_state(2), 0);
        // Touch a so b becomes the LRU.
        assert!(reg.get(&a).is_some());
        let c = reg.open(open_state(3), 0);
        assert_eq!(reg.len(), 2);
        assert!(reg.get(&b).is_none(), "LRU session must be evicted");
        assert!(reg.get(&a).is_some());
        assert!(reg.get(&c).is_some());
        assert_eq!(reg.gauges().evicted, 1);
    }

    #[test]
    fn breakdown_event_resolve_never_loses_to_repair() {
        let pool = RacerPool::new(2);
        let mut state = open_state(42);
        let incumbent_before = state.incumbent.schedule.clone();
        let mk = state.incumbent.makespan;
        let event = Event::Breakdown {
            machine: 2,
            from: mk / 4,
            duration: mk / 2,
        };
        let out = handle_event(
            &pool,
            &mut state,
            &event,
            Instant::now() + Duration::from_secs(10),
            60,
            2,
            false,
        )
        .unwrap();
        assert!(out.solution.value <= out.repair_value);
        assert_eq!(out.now, mk / 4);
        assert_eq!(state.events, 1);
        assert_eq!(state.windows.len(), 1);
        Schedule::new(out.solution.schedule.clone())
            .validate_job(&state.inst)
            .unwrap();
        if out.winner == "resolve" {
            assert!(out.resolve_value.unwrap() < out.repair_value);
        }
        // No time travel: every op in the answer either already
        // started before the event (then it is the incumbent's frozen
        // op, span unchanged) or starts at/after the event time.
        for o in &out.solution.schedule {
            if o.start < out.now {
                assert!(
                    incumbent_before.contains(o),
                    "op {o:?} claims to have started in the past but was not frozen"
                );
            }
        }
    }

    #[test]
    fn event_sequence_is_deterministic_under_a_generation_cap() {
        let run = || {
            let pool = RacerPool::new(2);
            let mut state = open_state(7);
            let mk = state.incumbent.makespan;
            let events = [
                Event::Breakdown {
                    machine: 1,
                    from: mk / 5,
                    duration: mk / 3,
                },
                Event::JobArrival {
                    at: mk / 3,
                    route: vec![Op::new(0, 5), Op::new(3, 7), Op::new(1, 4)],
                },
            ];
            let mut answers = Vec::new();
            for e in &events {
                let out = handle_event(
                    &pool,
                    &mut state,
                    e,
                    Instant::now() + Duration::from_secs(30),
                    50,
                    2,
                    false,
                )
                .unwrap();
                answers.push((
                    out.winner,
                    out.solution.value,
                    out.solution.schedule.clone(),
                ));
                assert!(!out.deadline_bound, "cap-bound events are deterministic");
            }
            answers
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn busy_event_degrades_to_repair_within_semantics() {
        let pool = RacerPool::new(1);
        let mut state = open_state(3);
        let mk = state.incumbent.makespan;
        let event = Event::Breakdown {
            machine: 0,
            from: mk / 3,
            duration: mk / 4,
        };
        let out = handle_event(
            &pool,
            &mut state,
            &event,
            Instant::now() + Duration::from_secs(5),
            60,
            2,
            true, // admission control said: shed the resolve
        )
        .unwrap();
        assert_eq!(out.winner, "repair");
        assert_eq!(out.resolve_skipped, Some(ResolveSkip::Busy));
        assert!(out.resolve_value.is_none());
        assert_eq!(out.solution.value, out.repair_value);
        Schedule::new(out.solution.schedule.clone())
            .validate_job(&state.inst)
            .unwrap();
    }

    #[test]
    fn stale_and_malformed_events_leave_the_session_untouched() {
        let pool = RacerPool::new(1);
        let mut state = open_state(5);
        let mk = state.incumbent.makespan;
        let ok = Event::Breakdown {
            machine: 0,
            from: mk / 2,
            duration: 5,
        };
        handle_event(
            &pool,
            &mut state,
            &ok,
            Instant::now() + Duration::from_secs(5),
            30,
            1,
            false,
        )
        .unwrap();
        let events_before = state.events;
        let now_before = state.now;
        // Clock runs backwards.
        let stale = Event::Breakdown {
            machine: 0,
            from: mk / 4,
            duration: 5,
        };
        assert!(handle_event(
            &pool,
            &mut state,
            &stale,
            Instant::now() + Duration::from_secs(5),
            30,
            1,
            false
        )
        .is_err());
        // Unknown machine.
        let bad = Event::Breakdown {
            machine: state.inst.n_machines(),
            from: mk,
            duration: 5,
        };
        assert!(handle_event(
            &pool,
            &mut state,
            &bad,
            Instant::now() + Duration::from_secs(5),
            30,
            1,
            false
        )
        .is_err());
        assert_eq!(state.events, events_before);
        assert_eq!(state.now, now_before);
    }

    #[test]
    fn arrival_after_the_horizon_resolves_with_an_empty_suffix_guard() {
        // An event beyond every op's start leaves nothing to
        // re-sequence *except* the arriving job itself — the suffix is
        // the new job, so resolve still runs and stays feasible.
        let pool = RacerPool::new(1);
        let mut state = open_state(9);
        let mk = state.incumbent.makespan;
        let event = Event::JobArrival {
            at: mk + 10,
            route: vec![Op::new(1, 3), Op::new(2, 4)],
        };
        let out = handle_event(
            &pool,
            &mut state,
            &event,
            Instant::now() + Duration::from_secs(5),
            30,
            1,
            false,
        )
        .unwrap();
        assert!(out.resolve_skipped.is_none());
        assert_eq!(state.inst.n_jobs(), 7);
        Schedule::new(out.solution.schedule.clone())
            .validate_job(&state.inst)
            .unwrap();
    }
}
