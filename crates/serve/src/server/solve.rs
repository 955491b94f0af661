//! The cache-aware solve core and the handlers built on it: `solve`,
//! `generate`, `batch` and `watch`.

use super::sessions::session_event_body;
use super::{attach_trace, start_trace, ServeConfig, Shared};
use crate::cache::{CacheKey, CachedSolve};
use crate::json::{obj, Json};
use crate::obs::phase::PhaseAcc;
use crate::obs::trace::{Trace, WatchSink};
use crate::protocol::{
    busy_json, encode_error, error_json, reply, schedule_to_json, solution_json, write_line,
    BatchItem, BatchRequest, BatchSource, GenerateRequest, InstanceSpec, Objective, Solution,
    SolveRequest, WatchTarget,
};
use crate::solver::{load_instance, solve_hooked, LoadError, LoadedInstance, SolveHooks};
use pga::telemetry::RequestTelemetry;
use shop::schedule::Schedule;
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Clamps a request's deadline to the service policy (0 = default).
pub(super) fn effective_deadline_ms(requested: u64, config: &ServeConfig) -> u64 {
    match requested {
        0 => config.default_deadline_ms,
        d => d.min(config.max_deadline_ms),
    }
}

/// A job's instance as far as the cache needs it: always its canonical
/// hash, and the instance itself only once something had to build it.
#[derive(Clone)]
pub(super) enum JobInstance<'a> {
    /// Materialised: generated, opened as a session, or loaded because
    /// the spec memo did not know the request's spec.
    Loaded {
        inst: Arc<LoadedInstance>,
        hash: u64,
    },
    /// A request spec the memo maps to its hash. [`solve_core`] loads
    /// it only when the cache cannot answer.
    Memoised { spec: &'a InstanceSpec, hash: u64 },
}

impl<'a> JobInstance<'a> {
    /// An instance already in hand.
    pub(super) fn loaded(inst: Arc<LoadedInstance>) -> JobInstance<'a> {
        let hash = inst.canonical_hash();
        JobInstance::Loaded { inst, hash }
    }

    /// Resolves a request's spec: the memoised hash when the memo holds
    /// the spec, so no instance is generated, parsed or hashed;
    /// otherwise the loaded instance, whose spec is memoised on
    /// success.
    pub(super) fn resolve(
        spec: &'a InstanceSpec,
        shared: &Shared,
    ) -> Result<JobInstance<'a>, LoadError> {
        if let Some(hash) = shared.memo.get(spec) {
            return Ok(JobInstance::Memoised { spec, hash });
        }
        let loaded = JobInstance::loaded(Arc::new(load_instance(spec)?));
        shared.memo.insert(spec, loaded.hash());
        Ok(loaded)
    }

    fn hash(&self) -> u64 {
        match self {
            JobInstance::Loaded { hash, .. } | JobInstance::Memoised { hash, .. } => *hash,
        }
    }

    /// The instance, loading a memoised spec.
    fn materialise(self) -> Result<Arc<LoadedInstance>, LoadError> {
        match self {
            JobInstance::Loaded { inst, .. } => Ok(inst),
            JobInstance::Memoised { spec, .. } => load_instance(spec).map(Arc::new),
        }
    }
}

/// One cache-aware solve: what to solve, the budget it may spend, and
/// who observes it.
pub(super) struct SolveJob<'a> {
    instance: JobInstance<'a>,
    objective: Objective,
    seed: u64,
    /// Absolute deadline of the race.
    deadline: Instant,
    /// The wall-clock budget this caller can actually spend: the
    /// effective deadline for a plain solve, the *remaining* batch
    /// budget for a batch item, so cache entries never claim more
    /// budget than the race really had.
    budget_ms: u64,
    queue_wait: Duration,
    /// Span recorder of a traced request.
    trace: Option<&'a mut Trace>,
    /// Live convergence frames for a `watch` subscriber; cache hits
    /// race nothing and therefore stream nothing.
    watch: Option<Arc<dyn WatchSink>>,
}

impl<'a> SolveJob<'a> {
    /// A job under a request's `deadline_ms` (0 = the service default,
    /// clamped to the maximum), starting now, untraced and unwatched.
    pub(super) fn new(
        instance: JobInstance<'a>,
        objective: Objective,
        seed: u64,
        deadline_ms: u64,
        queue_wait: Duration,
        shared: &Shared,
    ) -> SolveJob<'a> {
        let budget_ms = effective_deadline_ms(deadline_ms, &shared.config);
        SolveJob {
            instance,
            objective,
            seed,
            deadline: Instant::now() + Duration::from_millis(budget_ms),
            budget_ms,
            queue_wait,
            trace: None,
            watch: None,
        }
    }

    /// This job, recording its spans into `trace`.
    pub(super) fn traced(self, trace: Option<&'a mut Trace>) -> SolveJob<'a> {
        SolveJob { trace, ..self }
    }
}

/// What [`solve_core`] hands back on success: the (possibly memoised)
/// solution plus the telemetry describing how it was obtained.
pub(super) struct CoreOutcome {
    pub(super) solution: Arc<Solution>,
    /// A replay's stored encoded schedule, spliced into its body.
    schedule: Option<Arc<str>>,
    pub(super) cached: bool,
    pub(super) telemetry: RequestTelemetry,
}

impl CoreOutcome {
    /// The solve-shaped response body.
    pub(super) fn body(&self, id: Option<&str>) -> Json {
        solution_json(
            id,
            &self.solution,
            self.schedule.clone(),
            self.cached,
            &self.telemetry,
        )
    }
}

/// Why [`solve_core`] could not answer.
pub(super) enum CoreFail {
    /// Admission control refused the cold solve (racer queue past the
    /// limit); carries the observed depth for the `busy` wire body.
    Busy { depth: usize },
    /// The race produced an internally invalid schedule and no cached
    /// entry could cover for it.
    Internal(String),
}

/// The shared solve core: answer a [`SolveJob`] with full cache
/// integration. Shared by plain solves, generate+solve, batch items and
/// `session_open` (which needs the [`Solution`] itself, not a wire
/// body — hence the split from [`solve_cached`]).
pub(super) fn solve_core(job: SolveJob<'_>, shared: &Shared) -> Result<CoreOutcome, CoreFail> {
    let SolveJob {
        instance,
        objective,
        seed,
        deadline,
        budget_ms,
        queue_wait,
        mut trace,
        watch,
    } = job;
    let key = CacheKey {
        instance: instance.hash(),
        objective,
        seed,
    };
    // Fast path: a memoised solution that fully honours this request's
    // budget (only the key's cache shard is locked, for the lookup; no
    // racer-pool work spent, and a memoised spec builds no instance).
    // A deadline-bound entry whose stored budget is smaller than this
    // request's falls through to a re-race below — replaying it would
    // silently answer a long-deadline request with short-deadline
    // quality.
    let lookup_start = trace.as_deref().map(Trace::elapsed_us);
    let found = shared.cache.lookup(&key);
    let replayable = found
        .as_ref()
        .is_some_and(|(hit, _)| hit.replayable_for(budget_ms));
    if let (Some(tr), Some(start)) = (trace.as_deref_mut(), lookup_start) {
        tr.span(
            "cache_lookup",
            start,
            vec![("hit".to_string(), replayable.into())],
        );
    }
    if let (true, Some((hit, stored))) = (replayable, &found) {
        shared.stats.cache_hits.inc();
        // The entry's first hit encodes its schedule, outside the shard
        // lock, and stores it for later hits; encoding on insert instead
        // would cost every entry that is never hit.
        let schedule = stored.clone().unwrap_or_else(|| {
            let encoded: Arc<str> = schedule_to_json(&hit.solution.schedule).encode().into();
            shared
                .cache
                .keep_schedule(&key, &hit.solution, Arc::clone(&encoded));
            encoded
        });
        let telemetry = RequestTelemetry {
            queue_wait,
            cache_hit: true,
            ..Default::default()
        };
        return Ok(CoreOutcome {
            solution: Arc::clone(&hit.solution),
            schedule: Some(schedule),
            cached: true,
            telemetry,
        });
    }
    let prev = found.map(|(entry, _)| entry);
    // Admission control (after the cache lookup, so a saturated
    // service keeps answering cached traffic): a cold solve whose race
    // tasks would join a queue already past the limit is refused
    // immediately — an honest `busy` within the deadline beats a
    // deadline-starved race. Shed requests count only as
    // busy_rejections, not as cache misses, so the documented
    // hits/misses-vs-solved relationship survives saturation.
    let admission_start = trace.as_deref().map(Trace::elapsed_us);
    let depth = shared.pool.queue_depth();
    let admitted = depth < shared.config.max_queue_depth;
    if let (Some(tr), Some(start)) = (trace.as_deref_mut(), admission_start) {
        tr.span(
            "admission",
            start,
            vec![
                ("admitted".to_string(), admitted.into()),
                ("queue_depth".to_string(), (depth as u64).into()),
            ],
        );
    }
    if !admitted {
        shared.stats.busy_rejections.inc();
        return Err(CoreFail::Busy { depth });
    }
    // Memoised specs only ever loaded successfully, and loading is
    // deterministic, so this fails only on an internal fault.
    let inst = match instance.materialise() {
        Ok(inst) => inst,
        Err(e) => {
            shared.stats.errors.inc();
            return Err(CoreFail::Internal(format!("internal: {e}")));
        }
    };
    shared.stats.cache_misses.inc();

    let solve_started = Instant::now();
    let race_start = trace.as_deref().map(Trace::elapsed_us);
    // Every cold solve is phase-profiled for `serve_phase_us`: the
    // engine then reads the clock three times per pair of children,
    // and each member twice per decode. o01's served mode measures
    // that cost against a bare race. The drift gauge needs no
    // profiling: it reads the members' summed wall time (`run_ns`).
    let phases = Arc::new(PhaseAcc::new());
    let outcome = solve_hooked(
        &shared.pool,
        &inst,
        objective,
        seed,
        deadline,
        shared.config.gen_cap,
        shared.config.racers,
        SolveHooks {
            traced: trace.is_some(),
            watch,
            phases: Some(Arc::clone(&phases)),
        },
    );
    // Drift compares the observed per-operation evaluation cost
    // against the calibrated `DECODE_OP_S_*` constants, in the unit
    // those constants price: one individual's whole walk through the
    // GA loop costs `total_ops * DECODE_OP_S_<family>`.
    let eval_ops: u64 = outcome
        .models
        .iter()
        .map(|(_, t)| t.evaluations)
        .sum::<u64>()
        .saturating_mul(inst.total_ops() as u64);
    shared
        .metrics
        .observe_race_profile(inst.family(), &phases, outcome.run_ns, eval_ops);
    if let (Some(tr), Some(start)) = (trace, race_start) {
        tr.member_spans(start, &outcome.timelines);
        let decodes: u64 = outcome.models.iter().map(|(_, t)| t.decode_calls).sum();
        let retimed: u64 = outcome
            .models
            .iter()
            .map(|(_, t)| t.retimed_positions)
            .sum();
        tr.span(
            "race",
            start,
            vec![
                ("winner".to_string(), outcome.solution.model.as_str().into()),
                ("deadline_bound".to_string(), outcome.deadline_bound.into()),
                (
                    "pool_wait_us".to_string(),
                    (outcome.pool_wait.as_micros() as u64).into(),
                ),
                ("decode_calls".to_string(), decodes.into()),
                ("retimed_positions".to_string(), retimed.into()),
            ],
        );
    }
    shared.metrics.count_win(&outcome.solution.model);

    // Never hand out an infeasible schedule: validate before replying
    // (and before caching). If the fresh race misbehaves while a valid
    // (outgrown) entry is in hand, degrade to replaying that entry
    // rather than failing a request the cache can still answer.
    let schedule = Schedule::new(outcome.solution.schedule.clone());
    if let Err(e) = inst.validate(&schedule) {
        shared.stats.errors.inc();
        if let Some(prev) = prev {
            // Served from the cache after all: count the hit so the
            // counter stays consistent with the response's cache_hit
            // flag (the error counter already records the anomaly).
            shared.stats.cache_hits.inc();
            let telemetry = RequestTelemetry {
                queue_wait,
                solve_time: solve_started.elapsed(),
                cache_hit: true,
                ..Default::default()
            };
            return Ok(CoreOutcome {
                solution: prev.solution,
                schedule: None,
                cached: true,
                telemetry,
            });
        }
        return Err(CoreFail::Internal(format!("internal: produced {e}")));
    }

    // An outgrown entry still holds the best solution known for the
    // key: keep whichever of (snapshot, fresh) is better, preferring
    // the stored one on ties so already-published schedules stay
    // stable. The `prev` snapshot only covers the entry surviving an
    // eviction during the solve; `insert_best` repeats the merge under
    // the cache lock against whatever a concurrent solve of the same
    // key may have landed mid-flight, so a slow short-deadline race can
    // never downgrade a better entry, and the merged result is what
    // this request answers with.
    let solution = match prev {
        Some(prev) if prev.solution.value <= outcome.solution.value => prev.solution,
        _ => Arc::new(outcome.solution),
    };
    let merged = shared.cache.insert_best(
        key,
        CachedSolve {
            solution,
            budget_ms,
            deadline_bound: outcome.deadline_bound,
        },
    );

    shared
        .stats
        .pool_wait_us
        .add(outcome.pool_wait.as_micros() as u64);
    let telemetry = RequestTelemetry {
        queue_wait,
        pool_wait: outcome.pool_wait,
        solve_time: solve_started.elapsed(),
        winning_model: Some(merged.solution.model.clone()),
        models: outcome.models,
        cache_hit: false,
        ..Default::default()
    }
    .with_decodes_from_models();

    shared.stats.solved.inc();
    shared.metrics.count_solved(inst.family());
    Ok(CoreOutcome {
        solution: merged.solution,
        schedule: None,
        cached: false,
        telemetry,
    })
}

/// [`solve_core`] rendered as a solve-shaped response body.
fn solve_cached(id: Option<&str>, job: SolveJob<'_>, shared: &Shared) -> Json {
    match solve_core(job, shared) {
        Ok(out) => out.body(id),
        Err(fail) => fail_json(id, fail, shared),
    }
}

/// The wire body of a failed [`solve_core`].
pub(super) fn fail_json(id: Option<&str>, fail: CoreFail, shared: &Shared) -> Json {
    match fail {
        CoreFail::Busy { depth } => {
            busy_json(id, depth as u64, shared.config.max_queue_depth as u64)
        }
        CoreFail::Internal(msg) => error_json(id, &msg),
    }
}

/// Serves one `watch` subscription on the subscriber's own socket:
/// runs (or attaches to) a race, pushing line-delimited JSON frames as
/// the race produces them; the final line is a `{"frame":"answer",...}`
/// object carrying the ordinary response body. The connection stays
/// usable for further requests afterwards.
pub(super) fn handle_watch(
    writer: &mut TcpStream,
    target: &WatchTarget,
    queue_wait: Duration,
    parse_us: u64,
    shared: &Shared,
) -> std::io::Result<()> {
    let started = Instant::now();
    let result = match target {
        // Only races still running are attachable; a finished (or
        // never-watched) id answers with an error line.
        WatchTarget::Attach { request } => match shared.watches.attach(request) {
            Some(log) => log.follow(writer),
            None => watch_error(
                writer,
                None,
                &format!("no in-flight watched race with request id {request:?}"),
                shared,
            ),
        },
        WatchTarget::Solve(req) => watch_solve(writer, req, queue_wait, parse_us, shared),
        WatchTarget::SessionEvent(req) => stream_race(writer, req.id.as_deref(), shared, |sink| {
            session_event_body(req, parse_us, Some(sink), shared)
        }),
    };
    shared
        .metrics
        .request_us
        .observe(started.elapsed().as_micros() as u64);
    result
}

/// `{"cmd":"watch", ...solve fields...}` — a solve whose race streams
/// convergence frames to this connection as it runs.
fn watch_solve(
    writer: &mut TcpStream,
    req: &SolveRequest,
    queue_wait: Duration,
    parse_us: u64,
    shared: &Shared,
) -> std::io::Result<()> {
    let id = req.id.as_deref();
    let instance = match JobInstance::resolve(&req.instance, shared) {
        Ok(instance) => instance,
        Err(e) => return watch_error(writer, id, &e.to_string(), shared),
    };
    stream_race(writer, id, shared, |sink| {
        let mut trace = start_trace(req.trace, "watch", parse_us, shared);
        let job = SolveJob {
            watch: Some(sink),
            ..SolveJob::new(
                instance,
                req.objective,
                req.seed,
                req.deadline_ms,
                queue_wait,
                shared,
            )
        }
        .traced(trace.as_mut());
        let body = solve_cached(id, job, shared);
        attach_trace(body, trace, shared)
    })
}

/// Streams one watched race to this connection: subscribes `id` in
/// the watch hub (see [`crate::watch`]), runs `race` with the log as
/// its sink, and sends its body as the answer frame. An id another
/// in-flight watched race holds is rejected with an error line.
fn stream_race(
    writer: &mut TcpStream,
    id: Option<&str>,
    shared: &Shared,
    race: impl FnOnce(Arc<dyn WatchSink>) -> Json,
) -> std::io::Result<()> {
    let Some(sub) = shared.watches.subscribe(id, writer)? else {
        let msg = format!(
            "a watched race with request id {:?} is already in flight; attach to it or pick a \
             fresh id",
            id.unwrap_or_default()
        );
        return watch_error(writer, id, &msg, shared);
    };
    let body = race(sub.sink());
    let (dropped, result) = sub.finish(body);
    shared.metrics.watch_drops.add(dropped);
    result
}

/// Answers a watch request with a single error line instead of a stream.
fn watch_error(
    writer: &mut TcpStream,
    id: Option<&str>,
    msg: &str,
    shared: &Shared,
) -> std::io::Result<()> {
    shared.stats.errors.inc();
    write_line(writer, encode_error(id, msg))
}

pub(super) fn handle_solve(
    req: &SolveRequest,
    queue_wait: Duration,
    parse_us: u64,
    shared: &Shared,
) -> String {
    let id = req.id.as_deref();
    let mut trace = start_trace(req.trace, "solve", parse_us, shared);
    let instance = match JobInstance::resolve(&req.instance, shared) {
        Ok(instance) => instance,
        Err(e) => {
            shared.stats.errors.inc();
            return encode_error(id, &e.to_string());
        }
    };
    let job = SolveJob::new(
        instance,
        req.objective,
        req.seed,
        req.deadline_ms,
        queue_wait,
        shared,
    )
    .traced(trace.as_mut());
    let body = solve_cached(id, job, shared);
    attach_trace(body, trace, shared).encode()
}

pub(super) fn handle_generate(
    req: &GenerateRequest,
    queue_wait: Duration,
    shared: &Shared,
) -> String {
    let id = req.id.as_deref();
    let generated = match req.spec.build() {
        Ok(g) => g,
        Err(e) => {
            shared.stats.errors.inc();
            return encode_error(id, &e.to_string());
        }
    };
    let inst = Arc::new(generated.instance);
    let hash = inst.canonical_hash();
    let solution = req.solve.then(|| {
        let instance = JobInstance::Loaded {
            inst: Arc::clone(&inst),
            hash,
        };
        let job = SolveJob::new(
            instance,
            req.objective,
            req.seed,
            req.deadline_ms,
            queue_wait,
            shared,
        );
        ("solution", solve_cached(None, job, shared))
    });
    let fields = [
        ("name", generated.name.as_str().into()),
        ("family", inst.family().name().into()),
        ("jobs", (inst.problem().n_jobs() as u64).into()),
        ("machines", (inst.problem().n_machines() as u64).into()),
        ("total_ops", (inst.total_ops() as u64).into()),
        // The canonical hash exceeds 2^53 in general, so it travels as
        // a hex string, never as a JSON number.
        ("hash", format!("{hash:#018x}").into()),
        ("instance", inst.text().into()),
    ];
    reply(id, "ok", fields.into_iter().chain(solution)).encode()
}

/// Resolves a batch item's instance: a named or inline spec through
/// the spec memo, a generated one by building it.
fn resolve_batch_source<'a>(
    source: &'a BatchSource,
    shared: &Shared,
) -> Result<JobInstance<'a>, String> {
    match source {
        BatchSource::Instance(spec) => {
            JobInstance::resolve(spec, shared).map_err(|e| e.to_string())
        }
        BatchSource::Generate(spec) => spec
            .build()
            .map(|g| JobInstance::loaded(Arc::new(g.instance)))
            .map_err(|e| e.to_string()),
    }
}

/// Solves one batch item (instance already resolved by its group)
/// against the batch's shared absolute deadline.
fn solve_batch_item(
    item: &BatchItem,
    index: usize,
    batch: &BatchRequest,
    instance: JobInstance<'_>,
    deadline: Instant,
    shared: &Shared,
) -> Json {
    let id = item.id.as_deref();
    let objective = item.objective.unwrap_or(batch.objective);
    let seed = item.seed.unwrap_or(batch.seed);
    // The honest per-item budget is whatever batch wall-clock is left
    // when this item starts — that (not the whole batch budget) is
    // what a cache entry may claim was spent on it. An exhausted
    // budget still answers: the race degrades to its first evaluated
    // generation (anytime semantics), and cache replays stay free.
    let remaining_ms = deadline
        .saturating_duration_since(Instant::now())
        .as_millis() as u64;
    let job = SolveJob {
        deadline,
        budget_ms: remaining_ms,
        ..SolveJob::new(instance, objective, seed, 0, Duration::ZERO, shared)
    };
    with_index(solve_cached(id, job, shared), index)
}

/// Prepends the item's zero-based `index` to a batch entry body.
fn with_index(body: Json, index: usize) -> Json {
    match body {
        Json::Obj(mut fields) => {
            fields.insert(0, ("index".into(), (index as u64).into()));
            Json::Obj(fields)
        }
        other => other,
    }
}

pub(super) fn handle_batch(req: &BatchRequest, queue_wait: Duration, shared: &Shared) -> String {
    let id = req.id.as_deref();
    let started = Instant::now();
    let deadline_ms = effective_deadline_ms(req.deadline_ms, &shared.config);
    let deadline = started + Duration::from_millis(deadline_ms);
    let n = req.items.len();
    // Identical items (same source, seed, objective) would all miss a
    // cold cache at the same instant and race the portfolio in
    // duplicate, stealing wall-clock from the rest of the batch.
    // Group them so a group's first item races and the later ones
    // replay the entry it lands (their remaining budget can only be
    // smaller, so the replay rule always accepts), and the shared
    // instance is resolved once per group rather than per item.
    // Grouping keys on the request *spec*; differently-spelled
    // duplicates still race separately and reconcile through
    // `insert_best`.
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut group_of: std::collections::HashMap<(&BatchSource, u64, Objective), usize> =
        std::collections::HashMap::new();
    for (i, item) in req.items.iter().enumerate() {
        let key = (
            &item.source,
            item.seed.unwrap_or(req.seed),
            item.objective.unwrap_or(req.objective),
        );
        match group_of.entry(key) {
            // panic-safe: the stored value is the index groups had when it was pushed.
            std::collections::hash_map::Entry::Occupied(e) => groups[*e.get()].push(i),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(groups.len());
                groups.push(vec![i]);
            }
        }
    }
    // Fan the groups out across scoped lane threads, reusing the
    // service's configured worker width as the parallelism knob.
    // Each lane runs its race's member 0 inline and leaves the rest to
    // the shared racer pool, so one batch runs up to `fanout` inline
    // members and `workers` concurrent batches up to `workers²`: under
    // batch load compute threads are bounded by `workers² + racer_pool`,
    // not `workers + racer_pool`. Groups are pulled from a shared
    // counter so early finishers keep the lanes busy; results land in
    // their slot, preserving request order on the wire.
    let fanout = shared.config.workers.clamp(1, groups.len());
    let slots: Vec<Mutex<Option<Json>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..fanout {
            scope.spawn(|| loop {
                let g = next.fetch_add(1, Ordering::SeqCst);
                let Some(group) = groups.get(g) else { break };
                // Sources are identical within a group by construction.
                // panic-safe: every group is created non-empty and indexes req.items.
                match resolve_batch_source(&req.items[group[0]].source, shared) {
                    Err(e) => {
                        shared.stats.errors.add(group.len() as u64);
                        for &i in group {
                            // panic-safe: group indices enumerate req.items; slots has one
                            // entry per item; poisoning means a sibling already panicked.
                            let id = req.items[i].id.as_deref();
                            *slots[i].lock().expect("slot poisoned") = // panic-safe: as above
                                Some(with_index(error_json(id, &e), i));
                        }
                    }
                    Ok(instance) => {
                        for &i in group {
                            // panic-safe: group indices enumerate req.items; slots has one
                            // entry per item; poisoning means a sibling already panicked.
                            let item = &req.items[i];
                            let body =
                                solve_batch_item(item, i, req, instance.clone(), deadline, shared);
                            // panic-safe: as above
                            *slots[i].lock().expect("slot poisoned") = Some(body);
                        }
                    }
                }
            });
        }
    });
    let items: Vec<Json> = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot poisoned") // panic-safe: poisoning means a worker already panicked
                .expect("every item answered") // panic-safe: the scope loop fills every slot
        })
        .collect();
    let ok = items
        .iter()
        .filter(|b| b.get("status").and_then(Json::as_str) == Some("ok"))
        .count();
    let hits = items
        .iter()
        .filter(|b| b.get("cached").and_then(Json::as_bool) == Some(true))
        .count();

    let telemetry = obj([
        ("queue_wait_us", (queue_wait.as_micros() as u64).into()),
        ("batch_ms", (started.elapsed().as_millis() as u64).into()),
        ("deadline_ms", deadline_ms.into()),
        ("fanout", (fanout as u64).into()),
        ("cache_hits", (hits as u64).into()),
        ("errors", ((n - ok) as u64).into()),
    ]);
    reply(
        id,
        "ok",
        [
            ("count", (n as u64).into()),
            ("ok", (ok as u64).into()),
            ("items", Json::Arr(items)),
            ("telemetry", telemetry),
        ],
    )
    .encode()
}
