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
//! This module is the one place a session is born
//! ([`SessionState::opened`]) and advanced: an event is [`Repair::apply`],
//! then the [`resolve`] leg, then one commit of the better answer, which
//! WAL replay shares for the logged answer.
//!
//! Sessions live in [`crate::wal::SessionStore`], which owns their whole
//! lifecycle: idle-TTL expiry, LRU capacity eviction and the write-ahead
//! log; `stats` exposes the gauges. Lookups take one short map lock;
//! event processing locks only the addressed session, so events on
//! different sessions race concurrently while events on one session
//! serialise in arrival order.

use crate::obs::trace::{Trace, WatchSink};
use crate::portfolio::{plan_lineup, race, RaceResult, SolveHooks, StopRule};
use crate::protocol::{Objective, Solution};
use crate::scheduler::RacerPool;
use ga::crossover::PermCrossover;
use ga::engine::Toolkit;
use ga::mutate::SeqMutation;
use ga::rng::split_seed;
use shop::dynamic::{
    apply_event, frozen_prefix, reschedule_suffix_with_windows, DownWindow, Event, SuffixRedecoder,
};
use shop::gen::Family;
use shop::instance::JobShopInstance;
use shop::schedule::{Schedule, ScheduledOp};
use shop::Time;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Everything one session knows. Guarded by its entry's mutex: events
/// on one session serialise, sessions stay independent.
#[derive(Debug, PartialEq)]
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

impl SessionState {
    /// A session just opened on `inst`: `incumbent` answers it at clock
    /// 0 and no event has been applied yet. `deadline_bound` tracks
    /// *event* degradation, so a fresh incumbent starts settled.
    pub fn opened(
        inst: JobShopInstance,
        objective: Objective,
        seed: u64,
        incumbent: Arc<Solution>,
        ttl_ms: u64,
    ) -> SessionState {
        SessionState {
            inst,
            objective,
            seed,
            windows: Vec::new(),
            now: 0,
            incumbent,
            deadline_bound: false,
            events: 0,
            ttl_ms,
            journal: Vec::new(),
        }
    }

    /// Commits one event's outcome — the one place an event changes a
    /// session, shared by the live path and WAL replay: the world moves
    /// to `inst` and `windows` at the event time, `incumbent` answers
    /// it, and the journal gains the event's row. `inst` and `windows`
    /// come from the event's [`Repair`]; once the re-solve's decoders
    /// are gone they are taken back without a copy.
    pub(crate) fn commit(
        &mut self,
        event: &Event,
        inst: Arc<JobShopInstance>,
        windows: Arc<Vec<DownWindow>>,
        incumbent: Arc<Solution>,
        deadline_bound: bool,
        winner: &str,
    ) {
        self.inst = Arc::unwrap_or_clone(inst);
        self.windows = Arc::unwrap_or_clone(windows);
        self.now = event.at();
        self.events += 1;
        self.journal.push(JournalEntry {
            seq: self.events,
            event: event.clone(),
            winner: winner.to_string(),
            value: incumbent.value,
            makespan: incumbent.makespan,
            deadline_bound,
        });
        self.incumbent = incumbent;
        self.deadline_bound = deadline_bound;
    }
}

/// An event applied by right-shift repair, before a responder is
/// picked: the post-event world, the repaired incumbent, and its split
/// at the event time into what has started and what a re-solve may
/// re-sequence. Built only by [`Repair::apply`], so the split always
/// matches the schedule. The instance, windows and suffix sit behind
/// `Arc`s that the re-solve's decoders share instead of copying.
#[derive(Debug)]
pub struct Repair {
    /// The instance after the event.
    pub(crate) inst: Arc<JobShopInstance>,
    /// The breakdown windows after the event.
    pub(crate) windows: Arc<Vec<DownWindow>>,
    /// The incumbent, right-shift repaired around the event.
    pub(crate) schedule: Schedule,
    /// The event time: the session clock after the event.
    pub(crate) at: Time,
    /// The repaired schedule's operations that started before `at`.
    pub(crate) frozen: Vec<ScheduledOp>,
    /// The unstarted `(job, op)`s, in repaired start order.
    pub(crate) suffix: Arc<Vec<(usize, usize)>>,
}

impl Repair {
    /// Validates `event` against `state`'s clock and applies it to the
    /// incumbent by right-shift repair; `state` itself is not changed.
    pub fn apply(state: &SessionState, event: &Event) -> Result<Repair, String> {
        let at = event.at();
        if at < state.now {
            return Err(format!(
                "event at {at} is behind the session clock {}",
                state.now
            ));
        }
        let incumbent = Schedule::new(state.incumbent.schedule.clone());
        let (inst, windows, schedule) = apply_event(&state.inst, &incumbent, &state.windows, event)
            .map_err(|e| e.to_string())?;
        if let Err(e) = schedule.validate_job(&inst) {
            return Err(format!("internal: repair produced {e}"));
        }
        let (frozen, suffix) = frozen_prefix(&schedule, at);
        Ok(Repair {
            inst: Arc::new(inst),
            windows: Arc::new(windows),
            schedule,
            at,
            frozen,
            suffix: Arc::new(suffix),
        })
    }

    /// The unstarted `(job, op)`s a re-solve re-sequences, in repaired
    /// start order.
    pub fn suffix(&self) -> &[(usize, usize)] {
        &self.suffix
    }
}

/// One line of a session's event journal: the disruption plus the
/// summary of the answer it got (the full winning schedule lives in
/// the incumbent / the WAL, not here).
#[derive(Debug, Clone, PartialEq)]
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

/// A session entry: the session state behind its own mutex. `None`
/// once the session is closed — close takes the state out under this
/// lock, so a request that looked the entry up before the close finds
/// it gone instead of acting on (or logging for) a forgotten session.
pub type SessionEntry = Arc<Mutex<Option<SessionState>>>;

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
    )
}

/// [`handle_event`] with the observability hooks (see [`SolveHooks`]):
/// a `trace` records the right-shift repair and the GA re-solve as
/// distinct `repair` / `resolve` spans plus the re-solve race's
/// `member/<model>` spans, and a [`WatchSink`] streams its frames.
/// Neither changes the race's trajectory — the event outcome is
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
) -> Result<EventOutcome, String> {
    let repair_start = trace.as_deref().map(|tr| tr.elapsed_us());
    let repair = Repair::apply(state, event)?;
    let repair_value = state.objective.value(&*repair.inst, &repair.schedule);
    if let (Some(tr), Some(start)) = (trace.as_deref_mut(), repair_start) {
        tr.span(
            "repair",
            start,
            vec![("value".to_string(), repair_value.into())],
        );
    }

    let mut skip = None;
    if repair.suffix.is_empty() {
        skip = Some(ResolveSkip::EmptySuffix);
    } else if skip_resolve {
        skip = Some(ResolveSkip::Busy);
    }
    // A backpressure skip is a budget-degraded answer — the repaired
    // schedule stands in because the service had no re-solve capacity,
    // exactly the solver's "never got a slot" semantics — so it must
    // surface as deadline_bound, not masquerade as a settled incumbent.
    let mut deadline_bound = skip == Some(ResolveSkip::Busy);
    let (mut resolve_value, mut generations) = (None, 0);
    // The resolve answer, kept only when it strictly beats repair: ties
    // go to repair, whose schedule moves the fewest operations.
    let mut better = None;
    if skip.is_none() {
        // Warm start: the identity permutation *is* the incumbent
        // order, so the race's first individual already matches (or
        // beats — greedy dispatch) right-shift repair.
        let warm = vec![(0..repair.suffix.len()).collect()];
        let resolve_start = trace.as_deref().map(|tr| tr.elapsed_us());
        let (schedule, outcome) = resolve(
            pool,
            state,
            &repair,
            warm,
            racers,
            StopRule {
                deadline,
                gen_cap,
                target: 0.0, // no cheap certificate for a frozen-prefix re-solve
            },
            SolveHooks {
                traced: trace.is_some(),
                watch,
                phases: None,
            },
        );
        let value = state.objective.value(&*repair.inst, &schedule);
        let gens = outcome.models.iter().map(|(_, t)| t.generations).max();
        if let (Some(tr), Some(start)) = (trace, resolve_start) {
            tr.member_spans(start, &outcome.timelines);
            tr.span(
                "resolve",
                start,
                vec![
                    ("value".to_string(), value.into()),
                    ("winner".to_string(), outcome.winner.as_str().into()),
                    ("generations".to_string(), gens.unwrap_or(0).into()),
                ],
            );
        }
        if schedule.validate_job(&repair.inst).is_err() {
            // A decode bug must degrade to repair, never to an
            // infeasible answer; the server counts the anomaly.
            skip = Some(ResolveSkip::Infeasible);
        } else {
            resolve_value = Some(value);
            generations = gens.unwrap_or(0);
            deadline_bound = outcome.deadline_bound;
            if value < repair_value {
                better = Some((value, schedule, format!("resolve/{}", outcome.winner)));
            }
        }
    }
    let winner = better.as_ref().map_or("repair", |_| "resolve");
    let (value, schedule, model) =
        better.unwrap_or((repair_value, repair.schedule, "right_shift".into()));

    let solution = Arc::new(Solution {
        objective: state.objective,
        value,
        makespan: schedule.makespan(),
        model,
        schedule: schedule.ops,
    });
    state.commit(
        event,
        repair.inst,
        repair.windows,
        Arc::clone(&solution),
        deadline_bound,
        winner,
    );
    Ok(EventOutcome {
        winner,
        repair_value,
        resolve_value,
        resolve_skipped: skip,
        resolve_generations: generations,
        deadline_bound,
        solution,
        now: repair.at,
    })
}

/// The resolve leg of an event: a portfolio race on `pool` re-sequences
/// `repair`'s unstarted suffix behind its frozen prefix, never before
/// the event time, with `split_seed(state.seed, state.events + 1)` —
/// the seed of `state`'s next event. Each genome is a permutation of
/// suffix positions; `warm` seeds the initial population with those
/// orders plus a handful of mutated clones around them, and no seeds
/// leave the population random (the cold ablation). Returns the race
/// and its winner materialised by the reference suffix decode
/// (`reschedule_suffix_with_windows`), which the caller validates.
pub fn resolve(
    pool: &RacerPool,
    state: &SessionState,
    repair: &Repair,
    warm: Vec<Vec<usize>>,
    racers: usize,
    stop: StopRule,
    hooks: SolveHooks,
) -> (Schedule, RaceResult<Vec<usize>>) {
    let Repair {
        inst,
        windows,
        at,
        frozen,
        suffix,
        ..
    } = repair;
    let k = suffix.len();
    let clones = (k / 2).clamp(2, 8);
    let objective = state.objective;
    // Every race member decodes through its own clone of one suffix
    // decoder, which shares the Arc'd (instance, suffix, windows)
    // base data: evaluations are bit-identical to materialising via
    // reschedule_suffix_with_windows (with the `now` floor at the
    // event time, which is what keeps resolve <= repair), in one
    // allocation-free pass per genome.
    let decoder = SuffixRedecoder::new(
        Arc::clone(inst),
        frozen,
        Arc::clone(suffix),
        Arc::clone(windows),
        *at,
    );
    let outcome = race(
        pool,
        &plan_lineup(Family::Job, k, racers.max(1)),
        move || {
            Toolkit::permutation(k, PermCrossover::Order, SeqMutation::Shift)
                .with_warm_start(warm.clone(), clones)
        },
        move || decoder.clone(),
        move |r: &mut SuffixRedecoder, perm: &Vec<usize>| match objective {
            Objective::Makespan => r.makespan(perm) as f64,
            Objective::TotalCompletion => r.completion_sum(perm) as f64,
        },
        split_seed(state.seed, state.events + 1),
        stop,
        hooks,
    );
    let order: Vec<_> = outcome.best.genome.iter().map(|&i| suffix[i]).collect();
    let schedule = reschedule_suffix_with_windows(inst, frozen, &order, windows, *at);
    (schedule, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::metrics::Registry;
    use crate::server::{ServeConfig, ServiceStats};
    use crate::wal::tests::seed_state;
    use crate::wal::{read_frames, RecoverOutcome, SessionStore};
    use shop::instance::classic;
    use shop::instance::Op;
    use shop::Problem;
    use std::path::PathBuf;
    use std::time::Duration;

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
        SessionState::opened(inst, Objective::Makespan, seed, Arc::new(out.solution), 0)
    }

    // The session lifecycle (open, touch, expiry, eviction, restore,
    // close) is owned by `crate::wal::SessionStore`; its tests sit here
    // beside the event tests.

    fn cfg() -> ServeConfig {
        ServeConfig {
            session_ttl_ms: 60_000,
            max_sessions: 4,
            wal_fsync: false,
            ..ServeConfig::default()
        }
    }

    /// `config` with a fresh WAL directory named after the test.
    fn durable(name: &str, config: ServeConfig) -> (ServeConfig, PathBuf) {
        let dir = std::env::temp_dir().join(format!("pga-session-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let wal_dir = Some(dir.display().to_string());
        (ServeConfig { wal_dir, ..config }, dir)
    }

    /// A store over a fresh registry, plus the registry cells it counts
    /// into.
    fn store(config: &ServeConfig) -> (SessionStore, ServiceStats) {
        let registry = Registry::new();
        let store = SessionStore::new(config, &registry).unwrap();
        (store, ServiceStats::new(&registry))
    }

    /// Every session that entered the map, opened or recovered, is
    /// accounted for exactly once.
    fn assert_accounted(store: &SessionStore, s: &ServiceStats) {
        let open = store.open_count();
        assert_eq!(
            s.sessions_opened.get() + s.sessions_recovered.get(),
            open + s.sessions_closed.get() + s.sessions_expired.get() + s.sessions_evicted.get(),
            "{s:?} with {open} open"
        );
    }

    #[test]
    fn registry_opens_touches_and_closes() {
        let (store, s) = store(&cfg());
        assert_eq!(store.open_count(), 0);
        let id = store.open(seed_state());
        assert_eq!(id, "sess-1");
        assert_eq!(store.open_count(), 1);
        assert!(store.entry(&id).is_some());
        assert!(store.entry("sess-999").is_none());
        assert!(store.close(&id).is_some());
        assert!(store.close(&id).is_none());
        assert_eq!(
            (
                store.open_count(),
                s.sessions_opened.get(),
                s.sessions_closed.get()
            ),
            (0, 1, 1)
        );
    }

    #[test]
    fn open_publishes_the_session_only_after_its_log_exists() {
        use std::sync::atomic::AtomicBool;
        use std::sync::atomic::Ordering::Relaxed;
        let (config, dir) = durable("publish", cfg());
        let (store, s) = store(&config);
        // The open record is on disk in full, not merely created.
        let log = dir.join("sess-1.wal");
        let logged = || std::fs::read(&log).is_ok_and(|b| read_frames(&b).0.len() == 1);
        let ready = std::sync::Barrier::new(3);
        let opened = AtomicBool::new(false);
        std::thread::scope(|scope| {
            // Looks the id up the way a request would: a miss takes the
            // recovery path.
            let watcher = scope.spawn(|| {
                ready.wait();
                loop {
                    if let Some(entry) = store.entry("sess-1") {
                        assert!(logged(), "session reachable before its log exists");
                        return entry;
                    }
                }
            });
            // Polls the map alone, never waiting on recovery.
            let prober = scope.spawn(|| {
                ready.wait();
                while !opened.load(Relaxed) {
                    if store.open_count() > 0 {
                        assert!(logged(), "session published before its log exists");
                    }
                }
            });
            ready.wait();
            let id = store.open(seed_state());
            opened.store(true, Relaxed);
            let seen = watcher.join().unwrap();
            prober.join().unwrap();
            assert!(Arc::ptr_eq(&seen, &store.entry(&id).unwrap()));
        });
        // The watcher never replayed a copy from the fresh log.
        assert_eq!(
            (s.sessions_opened.get(), s.sessions_recovered.get()),
            (1, 0)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_reuses_ids_and_never_forks_a_live_session() {
        let (config, dir) = durable("restore", cfg());
        let wal = crate::wal::Wal::new(crate::wal::WalConfig {
            dir: dir.clone(),
            snapshot_every: 64,
            fsync: false,
        })
        .unwrap();
        wal.begin("sess-7", &crate::wal::open_record("sess-7", &seed_state()))
            .unwrap();
        let (store, s) = store(&config);
        assert_eq!(s.sessions_recovered.get(), 1);
        // A live id is never forked: restoring it again returns the
        // existing entry and counts nothing.
        let entry = store.entry("sess-7").unwrap();
        let RecoverOutcome::Recovered(rec) = wal.recover_one("sess-7").unwrap() else {
            panic!("the log must replay");
        };
        assert!(Arc::ptr_eq(&entry, &store.restore(*rec)));
        assert_eq!(s.sessions_recovered.get(), 1);
        // The minter was bumped past the recovered id.
        assert_eq!(store.open(seed_state()), "sess-8");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn registry_expires_idle_sessions_by_ttl() {
        let (store, s) = store(&ServeConfig {
            session_ttl_ms: 100,
            ..cfg()
        });
        let id = store.open(seed_state());
        // A generous per-request TTL is clamped to ten times the default.
        let long = store.open(SessionState {
            ttl_ms: 3_600_000,
            ..seed_state()
        });
        assert_eq!(store.open_count(), 2);
        std::thread::sleep(Duration::from_millis(250));
        assert!(store.entry(&id).is_none(), "idle session must expire");
        assert!(store.entry(&long).is_some(), "per-request TTL still alive");
        assert_eq!((store.open_count(), s.sessions_expired.get()), (1, 1));
        std::thread::sleep(Duration::from_millis(1_100));
        assert!(store.entry(&long).is_none(), "clamped TTL must expire");
        assert_eq!(s.sessions_expired.get(), 2);
    }

    #[test]
    fn registry_evicts_lru_at_capacity() {
        let (store, s) = store(&ServeConfig {
            max_sessions: 2,
            ..cfg()
        });
        let a = store.open(seed_state());
        let b = store.open(seed_state());
        // Touch a so b becomes the LRU.
        assert!(store.entry(&a).is_some());
        let c = store.open(seed_state());
        assert_eq!(store.open_count(), 2);
        assert!(store.entry(&b).is_none(), "LRU session must be evicted");
        assert!(store.entry(&a).is_some());
        assert!(store.entry(&c).is_some());
        assert_eq!(s.sessions_evicted.get(), 1);
    }

    #[test]
    fn eviction_skips_a_session_a_request_holds() {
        let (config, dir) = durable(
            "evict-held",
            ServeConfig {
                max_sessions: 1,
                ..cfg()
            },
        );
        let (store, s) = store(&config);
        let a = store.open(seed_state());
        assert_accounted(&store, &s);
        // A request holds a's entry and lock (an event mid-race)
        // across an open that finds the store at capacity.
        let held = store.entry(&a).unwrap();
        let guard = held.lock().unwrap();
        store.open(seed_state());
        assert_accounted(&store, &s);
        assert_eq!(store.open_count(), 2, "an open past a held cap exceeds it");
        let again = store.entry(&a).unwrap();
        assert!(
            Arc::ptr_eq(&held, &again),
            "a replayed copy beside the held one"
        );
        assert_eq!(
            (s.sessions_evicted.get(), s.sessions_recovered.get()),
            (0, 0)
        );
        assert_accounted(&store, &s);
        // Released, both sessions are evictable again.
        drop(guard);
        drop((held, again));
        store.open(seed_state());
        assert_eq!(
            (
                store.open_count(),
                s.sessions_evicted.get(),
                s.sessions_recovered.get()
            ),
            (1, 2, 0)
        );
        assert_accounted(&store, &s);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ttl_expiry_skips_a_session_a_request_holds() {
        let (config, dir) = durable(
            "expire-held",
            ServeConfig {
                session_ttl_ms: 300,
                max_sessions: 1,
                ..cfg()
            },
        );
        let (store, s) = store(&config);
        let a = store.open(seed_state());
        assert_accounted(&store, &s);
        let held = store.entry(&a).unwrap();
        let guard = held.lock().unwrap();
        std::thread::sleep(Duration::from_millis(500));
        // a is idle past its TTL but held: neither the open's sweep
        // nor its capacity check may drop it.
        store.open(seed_state());
        assert_accounted(&store, &s);
        let again = store.entry(&a).unwrap();
        assert!(
            Arc::ptr_eq(&held, &again),
            "a replayed copy beside the held one"
        );
        assert_eq!(
            (
                store.open_count(),
                s.sessions_expired.get(),
                s.sessions_evicted.get(),
                s.sessions_recovered.get()
            ),
            (2, 0, 0, 0)
        );
        assert_accounted(&store, &s);
        // Released and idle again, both expire on the next sweep.
        drop(guard);
        drop((held, again));
        std::thread::sleep(Duration::from_millis(500));
        store.open(seed_state());
        assert_eq!(
            (
                store.open_count(),
                s.sessions_expired.get(),
                s.sessions_evicted.get(),
                s.sessions_recovered.get()
            ),
            (1, 2, 0, 0)
        );
        assert_accounted(&store, &s);
        let _ = std::fs::remove_dir_all(&dir);
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
