//! The session handlers: `session_open`, `session_event` (plain and
//! watched), `session_get`, `session_events` and `session_close`, over
//! the durable [`crate::wal::SessionStore`].

use super::solve::{fail_json, solve_core, SolveJob};
use super::{attach_trace, start_trace, Shared};
use crate::json::{obj, Json};
use crate::obs::trace::WatchSink;
use crate::protocol::{
    encode_error, error_json, extended, reply, schedule_to_json, solution_json,
    SessionEventRequest, SessionOpenRequest, SessionRef,
};
use crate::session::{handle_event_hooked, ResolveSkip, SessionState};
use crate::solver::{load_instance, LoadedInstance};
use crate::wal::{journal_entry_to_json, windows_to_json};
use shop::Problem;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The `status:"error"` body for a session id that is not (or no
/// longer) registered, counted in `errors`. `code:"unknown_session"`
/// lets clients tell an expired session apart from a malformed request:
/// the fix is to re-open, not to re-spell.
fn unknown_session(id: Option<&str>, session: &str, shared: &Shared) -> Json {
    shared.stats.errors.inc();
    reply(
        id,
        "error",
        [
            ("code", "unknown_session".into()),
            (
                "error",
                format!("unknown session {session:?} (never opened, closed, or expired)").into(),
            ),
        ],
    )
}

/// Opens a dynamic-rescheduling session: resolve the instance (job
/// shops only — the `shop::dynamic` machinery is the job-shop
/// predictive-reactive stack), solve it through the shared cache-aware
/// core, and register the session with the solution as its incumbent.
pub(super) fn handle_session_open(
    req: &SessionOpenRequest,
    queue_wait: Duration,
    parse_us: u64,
    shared: &Shared,
) -> String {
    let id = req.id.as_deref();
    let mut trace = start_trace(req.trace, "session_open", parse_us, shared);
    let inst = match load_instance(&req.instance) {
        Ok(inst) => Arc::new(inst),
        Err(e) => {
            shared.stats.errors.inc();
            return encode_error(id, &e.to_string());
        }
    };
    let LoadedInstance::Job(job) = &*inst else {
        shared.stats.errors.inc();
        return encode_error(
            id,
            &format!(
                "sessions require a job-shop instance, got family {:?}",
                inst.family().name()
            ),
        );
    };
    let solve = SolveJob::new(
        &inst,
        req.objective,
        req.seed,
        req.deadline_ms,
        queue_wait,
        shared,
    )
    .traced(trace.as_mut());
    let out = match solve_core(solve, shared) {
        Ok(out) => out,
        Err(fail) => return fail_json(id, fail, shared).encode(),
    };
    let state = SessionState::opened(
        job.clone(),
        req.objective,
        req.seed,
        Arc::clone(&out.solution),
        req.ttl_ms,
    );
    // Durability: the open record is on disk (and fsync'd) before the
    // session is reachable, let alone answered.
    let session = shared.sessions.open(state);
    if let Some(tr) = trace.as_mut() {
        tr.session = Some(session.clone());
    }
    let body = extended(
        solution_json(id, &out.solution, out.cached, &out.telemetry),
        [
            ("session", session.as_str().into()),
            ("now", 0u64.into()),
            ("events", 0u64.into()),
        ],
    );
    attach_trace(body, trace, shared).encode()
}

/// Applies one disruption to a session, for both the plain command and
/// the watched variant: right-shift repair races the warm-started
/// frozen-prefix re-solve under the event deadline (see
/// `crate::session`), streaming frames into `watch` when subscribed; a
/// racer queue past the admission limit sheds the re-solve leg so the
/// event still answers — with repair — inside its deadline. The event
/// is logged before the response body is built.
pub(super) fn session_event_body(
    req: &SessionEventRequest,
    parse_us: u64,
    watch: Option<Arc<dyn WatchSink>>,
    shared: &Shared,
) -> Json {
    let id = req.id.as_deref();
    let kind = watch.as_ref().map_or("session_event", |_| "watch");
    let mut trace = start_trace(req.trace, kind, parse_us, shared);
    if let Some(tr) = trace.as_mut() {
        tr.session = Some(req.session.clone());
    }
    let Some(entry) = shared.sessions.entry(&req.session) else {
        return unknown_session(id, &req.session, shared);
    };
    let deadline_ms = match req.deadline_ms {
        0 => shared.config.default_event_deadline_ms,
        d => d.min(shared.config.max_deadline_ms),
    };
    let deadline = Instant::now() + Duration::from_millis(deadline_ms);
    // Admission control mirrors cold solves: shedding here skips only
    // the GA leg — repair needs no pool and always answers.
    let skip_resolve = shared.pool.queue_depth() >= shared.config.max_queue_depth;
    let started = Instant::now();
    let mut slot = entry.lock().expect("session poisoned"); // panic-safe: poisoned = a handler already panicked; never serve corrupt state
                                                            // A close that won the lock while this event waited: the session
                                                            // is gone, and nothing may be logged for it.
    let Some(state) = slot.as_mut() else {
        return unknown_session(id, &req.session, shared);
    };
    let outcome = handle_event_hooked(
        &shared.pool,
        state,
        &req.event,
        deadline,
        shared.config.gen_cap,
        shared.config.racers,
        skip_resolve,
        trace.as_mut(),
        watch,
    );
    shared
        .metrics
        .session_event_us
        .observe(started.elapsed().as_micros() as u64);
    let out = match outcome {
        Ok(out) => out,
        Err(msg) => {
            shared.stats.errors.inc();
            return error_json(id, &msg);
        }
    };
    shared.stats.session_events.inc();
    let winners = match out.winner {
        "resolve" => &shared.stats.session_resolve_wins,
        _ => &shared.stats.session_repair_wins,
    };
    winners.inc();
    match out.resolve_skipped {
        Some(ResolveSkip::Busy) => shared.stats.session_resolve_busy.inc(),
        Some(ResolveSkip::Infeasible) => shared.stats.errors.inc(),
        _ => {}
    }
    // Still under the session lock: the record hits disk (and fsyncs)
    // before the wire answer, and appends stay ordered per session.
    shared
        .sessions
        .record_event(&req.session, state, &req.event, &out);
    let telemetry = obj([
        ("event_ms", (started.elapsed().as_millis() as u64).into()),
        ("deadline_ms", deadline_ms.into()),
        ("resolve_generations", out.resolve_generations.into()),
    ]);
    let body = reply(
        id,
        "ok",
        [
            ("session", req.session.as_str().into()),
            ("now", out.now.into()),
            ("events", state.events.into()),
            ("winner", out.winner.into()),
            ("objective", out.solution.objective.name().into()),
            ("value", out.solution.value.into()),
            ("makespan", out.solution.makespan.into()),
            ("model", out.solution.model.as_str().into()),
            ("repair_value", out.repair_value.into()),
            (
                "resolve_value",
                out.resolve_value.map(Json::from).unwrap_or(Json::Null),
            ),
            (
                "resolve_skipped",
                out.resolve_skipped
                    .map(|s| Json::from(s.name()))
                    .unwrap_or(Json::Null),
            ),
            ("deadline_bound", out.deadline_bound.into()),
            ("schedule", schedule_to_json(&out.solution.schedule)),
            ("telemetry", telemetry),
        ],
    );
    attach_trace(body, trace, shared)
}

/// Answers from a live session's state, read under its entry lock; an
/// unknown session, or one closed while this request waited for the
/// lock, answers `unknown_session`.
fn with_session(
    r: &SessionRef,
    shared: &Shared,
    answer: impl FnOnce(Option<&str>, &SessionState) -> Json,
) -> String {
    let id = r.id.as_deref();
    let Some(entry) = shared.sessions.entry(&r.session) else {
        return unknown_session(id, &r.session, shared).encode();
    };
    let slot = entry.lock().expect("session poisoned"); // panic-safe: poisoned = a handler already panicked; never serve corrupt state
    match slot.as_ref() {
        Some(state) => answer(id, state),
        None => unknown_session(id, &r.session, shared),
    }
    .encode()
}

/// Returns a session's current incumbent, clock and down-windows.
pub(super) fn handle_session_get(r: &SessionRef, shared: &Shared) -> String {
    with_session(r, shared, |id, state| {
        reply(
            id,
            "ok",
            [
                ("session", r.session.as_str().into()),
                ("now", state.now.into()),
                ("events", state.events.into()),
                ("jobs", (state.inst.n_jobs() as u64).into()),
                ("machines", (state.inst.n_machines() as u64).into()),
                ("objective", state.incumbent.objective.name().into()),
                ("value", state.incumbent.value.into()),
                ("makespan", state.incumbent.makespan.into()),
                ("deadline_bound", state.deadline_bound.into()),
                ("windows", windows_to_json(&state.windows)),
                ("schedule", schedule_to_json(&state.incumbent.schedule)),
            ],
        )
    })
}

/// Returns a session's whole ordered event log in one round trip: one
/// row per accepted event with the disruption, the winning leg and the
/// post-event incumbent summary. Served from the journal the WAL
/// persists, so the history survives restarts and compaction.
pub(super) fn handle_session_events(r: &SessionRef, shared: &Shared) -> String {
    with_session(r, shared, |id, state| {
        let log = state.journal.iter().map(journal_entry_to_json).collect();
        reply(
            id,
            "ok",
            [
                ("session", r.session.as_str().into()),
                ("now", state.now.into()),
                ("events", state.events.into()),
                ("log", Json::Arr(log)),
            ],
        )
    })
}

/// Closes a session and reports how many events it absorbed. With a
/// WAL the log is deleted too — close is the one path that forgets a
/// durable session, and it is ordered after any in-flight event.
pub(super) fn handle_session_close(r: &SessionRef, shared: &Shared) -> String {
    let id = r.id.as_deref();
    let Some(state) = shared.sessions.close(&r.session) else {
        return unknown_session(id, &r.session, shared).encode();
    };
    reply(
        id,
        "ok",
        [
            ("session", r.session.as_str().into()),
            ("closed", true.into()),
            ("events", state.events.into()),
        ],
    )
    .encode()
}
