//! The line-delimited JSON wire protocol.
//!
//! One request per line, one response line per request, in order. A
//! solve request names an instance (an embedded classic) or carries it
//! inline in the `shop::instance::parse` text formats:
//!
//! ```text
//! {"id":"r1","instance":{"name":"ft06"},"objective":"makespan","seed":42,"deadline_ms":2000}
//! {"id":"r2","instance":{"kind":"flow","data":"2 2\n3 4\n5 1\n"},"seed":7,"deadline_ms":500}
//! {"cmd":"stats"}
//! {"cmd":"shutdown"}
//! ```
//!
//! A solve response carries the schedule as `[job, op, machine, start,
//! end]` rows plus per-request telemetry:
//!
//! ```text
//! {"id":"r1","status":"ok","objective":"makespan","value":55,"makespan":55,
//!  "model":"island","cached":false,"schedule":[[0,0,2,0,1],...],
//!  "telemetry":{"queue_wait_us":12,"solve_ms":104,"decode_count":48000,
//!               "winning_model":"island","cache_hit":false}}
//! ```
//!
//! `model` / `winning_model` are informational (see [`Solution`]):
//! the deterministic part of a response is the schedule and its
//! objective values, not which portfolio member produced them.

use crate::json::{obj, Json};
use pga::telemetry::RequestTelemetry;
use shop::dynamic::Event;
use shop::gen::GenSpec;
use shop::instance::Op;
use shop::schedule::{Schedule, ScheduledOp};
use shop::Problem;

pub use shop::gen::Family;

/// Objective the service minimises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Objective {
    /// Maximum completion time `C_max` (the survey's default criterion).
    #[default]
    Makespan,
    /// Sum of job completion times `ΣC_j`.
    TotalCompletion,
}

impl Objective {
    /// Stable wire label (`makespan` | `total_completion`).
    pub fn name(&self) -> &'static str {
        match self {
            Objective::Makespan => "makespan",
            Objective::TotalCompletion => "total_completion",
        }
    }

    /// Parses a wire label back into the objective.
    pub fn from_name(s: &str) -> Option<Self> {
        match s {
            "makespan" => Some(Objective::Makespan),
            "total_completion" => Some(Objective::TotalCompletion),
            _ => None,
        }
    }

    /// This objective's value of `schedule`, a schedule of `problem`.
    pub(crate) fn value(&self, problem: &dyn Problem, schedule: &Schedule) -> f64 {
        match self {
            Objective::Makespan => schedule.makespan() as f64,
            Objective::TotalCompletion => schedule
                .completion_times(problem.n_jobs())
                .iter()
                .map(|&c| c as f64)
                .sum(),
        }
    }
}

/// How a request names its problem instance.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum InstanceSpec {
    /// One of the embedded classics (`ft06`, `ft10`, `ft20`, `la01`,
    /// `flow05`, `open_latin3`, `flex03`) or a canonical `gen-*`
    /// generated name (`shop::gen::GenSpec::from_name`).
    Named(String),
    /// Inline text in the family's `shop::instance::parse` format.
    Inline {
        /// Which family's text format `text` is in.
        family: Family,
        /// The instance text.
        text: String,
    },
}

/// A solve request.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveRequest {
    /// Echoed verbatim in the response (optional).
    pub id: Option<String>,
    /// The instance to solve.
    pub instance: InstanceSpec,
    /// Criterion to minimise.
    pub objective: Objective,
    /// Root seed of the whole portfolio (deterministic racing).
    pub seed: u64,
    /// Wall-clock budget for this request in milliseconds.
    pub deadline_ms: u64,
    /// When true, the server records a request trace (spans for parse,
    /// cache lookup, admission and the race, plus per-member anytime
    /// timelines), attaches it to the response as `trace`, and retains
    /// it in the trace ring for `trace_dump`.
    pub trace: bool,
}

/// A `generate` request: mint a reproducible instance from a
/// [`GenSpec`] (family, dims, seed, knobs) and optionally solve it in
/// the same round trip.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerateRequest {
    /// Echoed verbatim in the response (optional).
    pub id: Option<String>,
    /// What to generate. The response names the instance with
    /// `spec.name()` (a `gen-*` name later solve requests can use).
    pub spec: GenSpec,
    /// When true, the server also races the portfolio on the minted
    /// instance and attaches a full solve response as `solution`.
    pub solve: bool,
    /// Objective for the optional solve.
    pub objective: Objective,
    /// Portfolio seed for the optional solve.
    pub seed: u64,
    /// Wall-clock budget for the optional solve (0 = server default).
    pub deadline_ms: u64,
}

/// Where one batch item's instance comes from.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum BatchSource {
    /// A named or inline instance, as in a plain solve request.
    Instance(InstanceSpec),
    /// An instance the server mints on the fly from a generator spec.
    Generate(GenSpec),
}

/// One item of a batch request.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchItem {
    /// Echoed in the item's response entry (optional; every entry also
    /// carries its zero-based `index`).
    pub id: Option<String>,
    /// The item's instance.
    pub source: BatchSource,
    /// Per-item portfolio seed; `None` inherits the batch seed.
    pub seed: Option<u64>,
    /// Per-item objective; `None` inherits the batch objective.
    pub objective: Option<Objective>,
}

/// A `batch` request: solve every item under **one** shared wall-clock
/// deadline. Items fan out across the server's worker pool; each item
/// gets the full per-request treatment (cache lookup, portfolio race,
/// validation, telemetry).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchRequest {
    /// Echoed verbatim in the response (optional).
    pub id: Option<String>,
    /// The work items (1 ..= [`MAX_BATCH_ITEMS`]).
    pub items: Vec<BatchItem>,
    /// Default objective for items that carry none.
    pub objective: Objective,
    /// Default portfolio seed for items that carry none.
    pub seed: u64,
    /// Shared wall-clock budget for the whole batch in milliseconds
    /// (0 = server default).
    pub deadline_ms: u64,
}

/// Upper bound on `items` in one batch request.
pub const MAX_BATCH_ITEMS: usize = 1024;

/// A `session_open` request: solve a job-shop instance through the
/// portfolio race and register a stateful dynamic-rescheduling session
/// holding the instance, the incumbent schedule and a virtual clock
/// (see `serve::session`). Only job-shop instances (the family the
/// `shop::dynamic` machinery covers) can open sessions.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionOpenRequest {
    /// Echoed verbatim in the response (optional).
    pub id: Option<String>,
    /// The instance to solve and track (must resolve to a job shop).
    pub instance: InstanceSpec,
    /// Criterion the session minimises (initial solve and every event).
    pub objective: Objective,
    /// Root seed: the initial solve races with it, and event `k`
    /// re-solves with `split_seed(seed, k)` — a session's whole
    /// trajectory is a pure function of `(instance, seed, events)`
    /// when generation caps bind.
    pub seed: u64,
    /// Wall-clock budget for the initial solve (0 = server default).
    pub deadline_ms: u64,
    /// Session idle time-to-live in milliseconds (0 = server default).
    /// A session untouched for this long is evicted.
    pub ttl_ms: u64,
    /// When true, the initial solve is traced (see
    /// [`SolveRequest::trace`]).
    pub trace: bool,
}

/// A `session_event` request: apply one disruption to a session under a
/// per-event deadline. The server answers with whichever of right-shift
/// *repair* (instant) and the warm-started frozen-prefix GA *re-solve*
/// is better, plus repair-vs-resolve telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionEventRequest {
    /// Echoed verbatim in the response (optional).
    pub id: Option<String>,
    /// The session to disrupt (`session_open`'s `session` field).
    pub session: String,
    /// The disruption (breakdown / job arrival / revision).
    pub event: Event,
    /// Wall-clock budget for the repair-vs-resolve race
    /// (0 = the server's per-event default).
    pub deadline_ms: u64,
    /// When true, the event is traced: distinct `repair` and `resolve`
    /// spans plus per-member anytime timelines, attached to the
    /// response as `trace` and retained for `trace_dump`.
    pub trace: bool,
}

/// What a `watch` request subscribes to. A watch runs (or attaches to)
/// a portfolio race and streams line-delimited JSON frames — member
/// lifecycle, per-generation convergence samples, best-so-far
/// improvements — while it runs, ending with a terminal
/// `{"frame":"answer",...}` line that carries the ordinary response
/// body.
#[derive(Debug, Clone, PartialEq)]
pub enum WatchTarget {
    /// Run a solve and stream its frames
    /// (`{"cmd":"watch","instance":...}` — same fields as a solve
    /// request).
    Solve(SolveRequest),
    /// Apply a session disruption and stream the repair-vs-resolve
    /// race's frames (`{"cmd":"watch","session":...,"event":...}` —
    /// same fields as a `session_event` request).
    SessionEvent(SessionEventRequest),
    /// Re-attach to an in-flight watched race by the `id` its
    /// originating watch request carried
    /// (`{"cmd":"watch","request":"r1"}`). Frames already emitted are
    /// replayed from the start, then the stream continues live.
    Attach {
        /// The originating watch request's `id`.
        request: String,
    },
}

/// A `session_get` / `session_close` request: fetch a session's current
/// incumbent, or end the session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionRef {
    /// Echoed verbatim in the response (optional).
    pub id: Option<String>,
    /// The session addressed.
    pub session: String,
}

/// Any protocol request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Solve one instance (the default, `cmd`-less request shape).
    Solve(Box<SolveRequest>),
    /// Solve many instances under one deadline (`{"cmd":"batch",...}`).
    Batch(Box<BatchRequest>),
    /// Mint (and optionally solve) a generated instance
    /// (`{"cmd":"generate",...}`).
    Generate(Box<GenerateRequest>),
    /// Open a dynamic-rescheduling session
    /// (`{"cmd":"session_open",...}`).
    SessionOpen(Box<SessionOpenRequest>),
    /// Apply a disruption to a session
    /// (`{"cmd":"session_event",...}`).
    SessionEvent(Box<SessionEventRequest>),
    /// Fetch a session's current incumbent
    /// (`{"cmd":"session_get",...}`).
    SessionGet(SessionRef),
    /// Fetch a session's whole ordered event log in one round trip
    /// (`{"cmd":"session_events",...}`). Served from the session's
    /// journal, which the write-ahead log persists — the history
    /// survives restarts.
    SessionEvents(SessionRef),
    /// Close a session (`{"cmd":"session_close",...}`).
    SessionClose(SessionRef),
    /// Service counters (`{"cmd":"stats"}`).
    Stats,
    /// Metrics-registry exposition, JSON and Prometheus-style text
    /// (`{"cmd":"metrics"}`).
    Metrics,
    /// Recent retained request traces (`{"cmd":"trace_dump"}`),
    /// most recent first limited to `limit` (0 = the whole ring),
    /// optionally filtered by trace kind and/or session id.
    TraceDump {
        /// Maximum traces to return (0 = the ring's full capacity).
        limit: u64,
        /// When set, only traces whose `kind` equals this (`solve`,
        /// `session_open`, `session_event`, ...). Wire field: `type`.
        kind: Option<String>,
        /// When set, only traces tagged with this session id.
        session: Option<String>,
    },
    /// Subscribe to a race and stream its convergence frames
    /// (`{"cmd":"watch",...}`; see [`WatchTarget`]).
    Watch(Box<WatchTarget>),
    /// Graceful shutdown (`{"cmd":"shutdown"}`).
    Shutdown,
}

/// Protocol-level failure (bad request line). The server answers with a
/// `status:"error"` line instead of dropping the connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError(pub String);

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "protocol error: {}", self.0)
    }
}

impl std::error::Error for ProtocolError {}

fn bad(msg: impl Into<String>) -> ProtocolError {
    ProtocolError(msg.into())
}

/// Optional u64 field with a default. `Json::as_u64` enforces the
/// range/integrality check (non-negative exact integer ≤ 2^53 − 1);
/// this wrapper turns a failure into a descriptive wire error naming
/// the offending value, so `"deadline_ms": -5` is rejected loudly
/// instead of ever being coerced.
fn u64_field(v: &Json, key: &str, default: u64) -> Result<u64, ProtocolError> {
    match v.get(key) {
        None => Ok(default),
        Some(x) => x.as_u64().ok_or_else(|| {
            bad(format!(
                "{key} must be a non-negative integer <= 2^53-1, got {x}"
            ))
        }),
    }
}

/// Optional bool field defaulting to `false`; a present non-bool is a
/// wire error (so `"trace": "yes"` is rejected, not truthy-coerced).
fn bool_field(v: &Json, key: &str) -> Result<bool, ProtocolError> {
    match v.get(key) {
        None => Ok(false),
        Some(b) => b
            .as_bool()
            .ok_or_else(|| bad(format!("{key} must be a bool"))),
    }
}

/// Optional objective field (`None` on the wire = `None` here).
fn objective_field(v: &Json) -> Result<Option<Objective>, ProtocolError> {
    match v.get("objective") {
        None => Ok(None),
        Some(o) => o
            .as_str()
            .and_then(Objective::from_name)
            .map(Some)
            .ok_or_else(|| bad("unknown objective")),
    }
}

fn id_field(v: &Json) -> Option<String> {
    v.get("id").and_then(Json::as_str).map(str::to_string)
}

/// Optional string field; a present non-string is a wire error.
fn opt_str_field(v: &Json, key: &str) -> Result<Option<String>, ProtocolError> {
    match v.get(key) {
        None => Ok(None),
        Some(s) => s
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| bad(format!("{key} must be a string"))),
    }
}

/// Parses an instance spec object (`{"name":...}` or
/// `{"kind":...,"data":...}`).
fn instance_spec_from_json(inst: &Json) -> Result<InstanceSpec, ProtocolError> {
    if let Some(name) = inst.get("name").and_then(Json::as_str) {
        return Ok(InstanceSpec::Named(name.to_string()));
    }
    let family = inst
        .get("kind")
        .and_then(Json::as_str)
        .and_then(Family::from_name)
        .ok_or_else(|| bad("instance needs a name or a valid kind"))?;
    let text = inst
        .get("data")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("inline instance needs data"))?
        .to_string();
    Ok(InstanceSpec::Inline { family, text })
}

/// Parses a generator spec object: `family`, `jobs`, `machines`,
/// `seed` plus the optional knobs `min_time`, `max_time`,
/// `ops_per_job`, `density_pct`. Range checking happens server-side
/// via `GenSpec::check` so the client gets a descriptive error line.
pub fn gen_spec_from_json(v: &Json) -> Result<GenSpec, ProtocolError> {
    let family = v
        .get("family")
        .and_then(Json::as_str)
        .and_then(Family::from_name)
        .ok_or_else(|| bad("generator spec needs a valid family"))?;
    let jobs = v
        .get("jobs")
        .and_then(Json::as_u64)
        .ok_or_else(|| bad("generator spec needs jobs"))? as usize;
    let machines = v
        .get("machines")
        .and_then(Json::as_u64)
        .ok_or_else(|| bad("generator spec needs machines"))? as usize;
    let seed = u64_field(v, "seed", 0)?;
    let mut spec = GenSpec::new(family, jobs, machines, seed);
    spec.min_time = u64_field(v, "min_time", spec.min_time)?;
    spec.max_time = u64_field(v, "max_time", spec.max_time)?;
    if let Some(ops) = v.get("ops_per_job") {
        spec.ops_per_job = Some(
            ops.as_u64()
                .ok_or_else(|| bad("ops_per_job must be a u64"))? as usize,
        );
    }
    if let Some(d) = v.get("density_pct") {
        let d = d
            .as_u64()
            .filter(|&d| d <= 100)
            .ok_or_else(|| bad("density_pct must be in 1..=100"))?;
        spec.density_pct = d as u8;
    }
    Ok(spec)
}

/// Encodes a generator spec (client side); omits default-valued knobs.
pub fn gen_spec_to_json(spec: &GenSpec) -> Json {
    let mut fields: Vec<(String, Json)> = vec![
        ("family".into(), spec.family.name().into()),
        ("jobs".into(), (spec.jobs as u64).into()),
        ("machines".into(), (spec.machines as u64).into()),
        ("seed".into(), spec.seed.into()),
    ];
    if (spec.min_time, spec.max_time) != shop::gen::DEFAULT_TIME_RANGE {
        fields.push(("min_time".into(), spec.min_time.into()));
        fields.push(("max_time".into(), spec.max_time.into()));
    }
    if let Some(ops) = spec.ops_per_job {
        fields.push(("ops_per_job".into(), (ops as u64).into()));
    }
    if spec.density_pct != shop::gen::DEFAULT_DENSITY_PCT {
        fields.push(("density_pct".into(), (spec.density_pct as u64).into()));
    }
    Json::Obj(fields)
}

/// Parses a disruption-event object. Three shapes, discriminated by
/// `type`:
///
/// ```text
/// {"type":"breakdown","machine":2,"from":40,"duration":25}
/// {"type":"job_arrival","at":40,"route":[[0,3],[2,5],[1,4]]}
/// {"type":"revision","at":40,"job":1,"op":2,"duration":9}
/// ```
///
/// Route rows are `[machine, duration]` pairs; durations must be
/// positive (zero durations are rejected here rather than panicking in
/// `shop::instance::Op::new`).
pub fn event_from_json(v: &Json) -> Result<Event, ProtocolError> {
    let kind = v
        .get("type")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("event needs a type (breakdown | job_arrival | revision)"))?;
    let field = |key: &str| {
        v.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| bad(format!("event needs a u64 {key}")))
    };
    match kind {
        "breakdown" => Ok(Event::Breakdown {
            machine: field("machine")? as usize,
            from: field("from")?,
            duration: field("duration")?,
        }),
        "job_arrival" => {
            let rows = v
                .get("route")
                .and_then(Json::as_arr)
                .ok_or_else(|| bad("job_arrival needs a route array"))?;
            let mut route = Vec::with_capacity(rows.len());
            for row in rows {
                let pair = row
                    .as_arr()
                    .filter(|p| p.len() == 2)
                    .ok_or_else(|| bad("route row must be [machine, duration]"))?;
                let machine = pair[0]
                    .as_u64()
                    .ok_or_else(|| bad("route machine must be a u64"))?
                    as usize;
                let duration = pair[1]
                    .as_u64()
                    .filter(|&d| d > 0)
                    .ok_or_else(|| bad("route duration must be a positive u64"))?;
                route.push(Op::new(machine, duration));
            }
            Ok(Event::JobArrival {
                at: field("at")?,
                route,
            })
        }
        "revision" => Ok(Event::Revision {
            at: field("at")?,
            job: field("job")? as usize,
            op: field("op")? as usize,
            duration: field("duration")?,
        }),
        other => Err(bad(format!("unknown event type {other:?}"))),
    }
}

/// Encodes a disruption event (client side); inverse of
/// [`event_from_json`].
pub fn event_to_json(event: &Event) -> Json {
    match event {
        Event::Breakdown {
            machine,
            from,
            duration,
        } => obj([
            ("type", "breakdown".into()),
            ("machine", (*machine as u64).into()),
            ("from", (*from).into()),
            ("duration", (*duration).into()),
        ]),
        Event::JobArrival { at, route } => obj([
            ("type", "job_arrival".into()),
            ("at", (*at).into()),
            (
                "route",
                Json::Arr(
                    route
                        .iter()
                        .map(|op| Json::Arr(vec![(op.machine as u64).into(), op.duration.into()]))
                        .collect(),
                ),
            ),
        ]),
        Event::Revision {
            at,
            job,
            op,
            duration,
        } => obj([
            ("type", "revision".into()),
            ("at", (*at).into()),
            ("job", (*job as u64).into()),
            ("op", (*op as u64).into()),
            ("duration", (*duration).into()),
        ]),
    }
}

fn parse_session_open(v: &Json) -> Result<Request, ProtocolError> {
    let instance =
        instance_spec_from_json(v.get("instance").ok_or_else(|| bad("missing instance"))?)?;
    Ok(Request::SessionOpen(Box::new(SessionOpenRequest {
        id: id_field(v),
        instance,
        objective: objective_field(v)?.unwrap_or_default(),
        seed: u64_field(v, "seed", 0)?,
        deadline_ms: u64_field(v, "deadline_ms", 0)?,
        ttl_ms: u64_field(v, "ttl_ms", 0)?,
        trace: bool_field(v, "trace")?,
    })))
}

fn session_field(v: &Json) -> Result<String, ProtocolError> {
    v.get("session")
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| bad("missing session"))
}

fn session_event_from_json(v: &Json) -> Result<SessionEventRequest, ProtocolError> {
    let event = event_from_json(v.get("event").ok_or_else(|| bad("missing event"))?)?;
    Ok(SessionEventRequest {
        id: id_field(v),
        session: session_field(v)?,
        event,
        deadline_ms: u64_field(v, "deadline_ms", 0)?,
        trace: bool_field(v, "trace")?,
    })
}

fn parse_session_event(v: &Json) -> Result<Request, ProtocolError> {
    Ok(Request::SessionEvent(Box::new(session_event_from_json(v)?)))
}

fn parse_session_ref(v: &Json) -> Result<SessionRef, ProtocolError> {
    Ok(SessionRef {
        id: id_field(v),
        session: session_field(v)?,
    })
}

/// Encodes a `session_open` request (client side).
pub fn encode_session_open(req: &SessionOpenRequest) -> String {
    let fields = [
        ("cmd", "session_open".into()),
        ("instance", instance_spec_to_json(&req.instance)),
        ("objective", req.objective.name().into()),
        ("seed", req.seed.into()),
        ("deadline_ms", req.deadline_ms.into()),
    ];
    let ttl = (req.ttl_ms != 0).then(|| ("ttl_ms", req.ttl_ms.into()));
    let rest = ttl.into_iter().chain(trace_flag(req.trace));
    with_id(req.id.as_deref(), fields.into_iter().chain(rest)).encode()
}

/// Encodes a `session_event` request (client side).
pub fn encode_session_event(req: &SessionEventRequest) -> String {
    let fields = [
        ("cmd", "session_event".into()),
        ("session", req.session.as_str().into()),
        ("event", event_to_json(&req.event)),
        ("deadline_ms", req.deadline_ms.into()),
    ];
    with_id(
        req.id.as_deref(),
        fields.into_iter().chain(trace_flag(req.trace)),
    )
    .encode()
}

/// Encodes a `session_get`, `session_events` or `session_close`
/// request (client side); `cmd` must be one of those three strings.
pub fn encode_session_ref(cmd: &str, r: &SessionRef) -> String {
    let fields = [("cmd", cmd.into()), ("session", r.session.as_str().into())];
    with_id(r.id.as_deref(), fields).encode()
}

/// The `"trace":true` opt-in field, present only when set.
fn trace_flag(on: bool) -> Option<(&'static str, Json)> {
    on.then(|| ("trace", true.into()))
}

fn parse_generate(v: &Json) -> Result<Request, ProtocolError> {
    let spec_v = v
        .get("spec")
        .ok_or_else(|| bad("generate needs a spec object"))?;
    let spec = gen_spec_from_json(spec_v)?;
    let solve = bool_field(v, "solve")?;
    Ok(Request::Generate(Box::new(GenerateRequest {
        id: id_field(v),
        spec,
        solve,
        objective: objective_field(v)?.unwrap_or_default(),
        seed: u64_field(v, "seed", 0)?,
        deadline_ms: u64_field(v, "deadline_ms", 0)?,
    })))
}

fn parse_batch(v: &Json) -> Result<Request, ProtocolError> {
    let items_v = v
        .get("items")
        .and_then(Json::as_arr)
        .ok_or_else(|| bad("batch needs an items array"))?;
    if items_v.is_empty() {
        return Err(bad("batch needs at least one item"));
    }
    if items_v.len() > MAX_BATCH_ITEMS {
        return Err(bad(format!(
            "batch is capped at {MAX_BATCH_ITEMS} items, got {}",
            items_v.len()
        )));
    }
    let mut items = Vec::with_capacity(items_v.len());
    for (i, item_v) in items_v.iter().enumerate() {
        let item_err = |e: ProtocolError| bad(format!("item {i}: {}", e.0));
        let source = match (item_v.get("instance"), item_v.get("generate")) {
            (Some(inst), None) => {
                BatchSource::Instance(instance_spec_from_json(inst).map_err(item_err)?)
            }
            (None, Some(spec)) => {
                BatchSource::Generate(gen_spec_from_json(spec).map_err(item_err)?)
            }
            _ => {
                return Err(bad(format!(
                    "item {i}: needs exactly one of instance / generate"
                )))
            }
        };
        let seed = match item_v.get("seed") {
            None => None,
            Some(s) => Some(
                s.as_u64()
                    .ok_or_else(|| bad(format!("item {i}: seed must be a u64")))?,
            ),
        };
        items.push(BatchItem {
            id: id_field(item_v),
            source,
            seed,
            objective: objective_field(item_v).map_err(item_err)?,
        });
    }
    Ok(Request::Batch(Box::new(BatchRequest {
        id: id_field(v),
        items,
        objective: objective_field(v)?.unwrap_or_default(),
        seed: u64_field(v, "seed", 0)?,
        deadline_ms: u64_field(v, "deadline_ms", 0)?,
    })))
}

fn solve_request_from_json(v: &Json) -> Result<SolveRequest, ProtocolError> {
    let instance =
        instance_spec_from_json(v.get("instance").ok_or_else(|| bad("missing instance"))?)?;
    Ok(SolveRequest {
        id: id_field(v),
        instance,
        objective: objective_field(v)?.unwrap_or_default(),
        seed: u64_field(v, "seed", 0)?,
        deadline_ms: u64_field(v, "deadline_ms", 0)?,
        trace: bool_field(v, "trace")?,
    })
}

/// Parses a `watch` request body. Shape is discriminated by field:
/// `request` ⇒ attach, `session` ⇒ session event, otherwise a solve
/// (which then requires `instance`).
fn parse_watch(v: &Json) -> Result<Request, ProtocolError> {
    let target = if let Some(req) = v.get("request") {
        let request = req
            .as_str()
            .ok_or_else(|| bad("request must be a string"))?
            .to_string();
        WatchTarget::Attach { request }
    } else if v.get("session").is_some() {
        WatchTarget::SessionEvent(session_event_from_json(v)?)
    } else if v.get("instance").is_some() {
        WatchTarget::Solve(solve_request_from_json(v)?)
    } else {
        return Err(bad(
            "watch needs an instance (solve), session+event, or request (attach)",
        ));
    };
    Ok(Request::Watch(Box::new(target)))
}

/// Encodes a `watch` request (client side).
pub fn encode_watch(target: &WatchTarget) -> String {
    match target {
        WatchTarget::Solve(req) => {
            let base = encode_request(req);
            // Splice `"cmd":"watch"` in as the leading field.
            format!(r#"{{"cmd":"watch",{}"#, &base[1..])
        }
        WatchTarget::SessionEvent(req) => {
            let line = encode_session_event(req);
            line.replace(r#""cmd":"session_event""#, r#""cmd":"watch""#)
        }
        WatchTarget::Attach { request } => obj([
            ("cmd", "watch".into()),
            ("request", request.as_str().into()),
        ])
        .encode(),
    }
}

/// Decodes one request line.
pub fn parse_request(line: &str) -> Result<Request, ProtocolError> {
    let v = crate::json::parse(line).map_err(|e| bad(e.to_string()))?;
    if let Some(cmd) = v.get("cmd").and_then(Json::as_str) {
        return match cmd {
            "stats" => Ok(Request::Stats),
            "metrics" => Ok(Request::Metrics),
            "trace_dump" => Ok(Request::TraceDump {
                limit: u64_field(&v, "limit", 0)?,
                kind: opt_str_field(&v, "type")?,
                session: opt_str_field(&v, "session")?,
            }),
            "shutdown" => Ok(Request::Shutdown),
            "generate" => parse_generate(&v),
            "batch" => parse_batch(&v),
            "watch" => parse_watch(&v),
            "session_open" => parse_session_open(&v),
            "session_event" => parse_session_event(&v),
            "session_get" => parse_session_ref(&v).map(Request::SessionGet),
            "session_events" => parse_session_ref(&v).map(Request::SessionEvents),
            "session_close" => parse_session_ref(&v).map(Request::SessionClose),
            other => Err(bad(format!("unknown cmd {other:?}"))),
        };
    }
    Ok(Request::Solve(Box::new(solve_request_from_json(&v)?)))
}

fn instance_spec_to_json(spec: &InstanceSpec) -> Json {
    match spec {
        InstanceSpec::Named(name) => obj([("name", name.as_str().into())]),
        InstanceSpec::Inline { family, text } => obj([
            ("kind", family.name().into()),
            ("data", text.as_str().into()),
        ]),
    }
}

/// Encodes a solve request (client side).
pub fn encode_request(req: &SolveRequest) -> String {
    let fields = [
        ("instance", instance_spec_to_json(&req.instance)),
        ("objective", req.objective.name().into()),
        ("seed", req.seed.into()),
        ("deadline_ms", req.deadline_ms.into()),
    ];
    with_id(
        req.id.as_deref(),
        fields.into_iter().chain(trace_flag(req.trace)),
    )
    .encode()
}

/// Encodes a generate request (client side).
pub fn encode_generate_request(req: &GenerateRequest) -> String {
    let fields = [
        ("cmd", "generate".into()),
        ("spec", gen_spec_to_json(&req.spec)),
    ];
    let solve = req.solve.then(|| {
        [
            ("solve", true.into()),
            ("objective", req.objective.name().into()),
            ("seed", req.seed.into()),
            ("deadline_ms", req.deadline_ms.into()),
        ]
    });
    with_id(
        req.id.as_deref(),
        fields.into_iter().chain(solve.into_iter().flatten()),
    )
    .encode()
}

/// Encodes a batch request (client side).
pub fn encode_batch_request(req: &BatchRequest) -> String {
    let items: Vec<Json> = req
        .items
        .iter()
        .map(|item| {
            let source = match &item.source {
                BatchSource::Instance(spec) => ("instance", instance_spec_to_json(spec)),
                BatchSource::Generate(spec) => ("generate", gen_spec_to_json(spec)),
            };
            let seed = item.seed.map(|seed| ("seed", seed.into()));
            let objective = item.objective.map(|o| ("objective", o.name().into()));
            with_id(
                item.id.as_deref(),
                [source].into_iter().chain(seed).chain(objective),
            )
        })
        .collect();
    let fields = [
        ("cmd", "batch".into()),
        ("items", Json::Arr(items)),
        ("objective", req.objective.name().into()),
        ("seed", req.seed.into()),
        ("deadline_ms", req.deadline_ms.into()),
    ];
    with_id(req.id.as_deref(), fields).encode()
}

/// The solution part of a solve response (what the cache stores).
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// The criterion that was minimised.
    pub objective: Objective,
    /// Objective value of `schedule` under `objective`.
    pub value: f64,
    /// Makespan of `schedule` (equals `value` for `Makespan`).
    pub makespan: u64,
    /// Portfolio member that found it. Informational only — when a race
    /// exits early on a certified target, which member ends up holding
    /// the best solution is timing-dependent, so `model` (and the
    /// telemetry's `winning_model`) is not part of the deterministic
    /// response contract; `schedule`, `value` and `makespan` are.
    pub model: String,
    /// The schedule itself, as `[job, op, machine, start, end]` rows.
    pub schedule: Vec<ScheduledOp>,
}

pub(crate) fn schedule_to_json(ops: &[ScheduledOp]) -> Json {
    Json::Arr(
        ops.iter()
            .map(|o| {
                Json::Arr(vec![
                    (o.job as u64).into(),
                    (o.op as u64).into(),
                    (o.machine as u64).into(),
                    o.start.into(),
                    o.end.into(),
                ])
            })
            .collect(),
    )
}

/// Parses a `[[job,op,machine,start,end],...]` schedule array (client /
/// test side).
pub fn schedule_from_json(v: &Json) -> Result<Vec<ScheduledOp>, ProtocolError> {
    let rows = v.as_arr().ok_or_else(|| bad("schedule must be an array"))?;
    rows.iter()
        .map(|row| {
            let f = row
                .as_arr()
                .filter(|f| f.len() == 5)
                .ok_or_else(|| bad("schedule row must be [job, op, machine, start, end]"))?;
            let g = |i: usize| f[i].as_u64().ok_or_else(|| bad("schedule entry not a u64"));
            Ok(ScheduledOp {
                job: g(0)? as usize,
                op: g(1)? as usize,
                machine: g(2)? as usize,
                start: g(3)?,
                end: g(4)?,
            })
        })
        .collect()
}

fn telemetry_to_json(t: &RequestTelemetry) -> Json {
    obj([
        ("queue_wait_us", (t.queue_wait.as_micros() as u64).into()),
        ("pool_wait_us", (t.pool_wait.as_micros() as u64).into()),
        ("solve_ms", (t.solve_time.as_millis() as u64).into()),
        ("decode_count", t.decode_count.into()),
        (
            "winning_model",
            t.winning_model
                .as_deref()
                .map(Json::from)
                .unwrap_or(Json::Null),
        ),
        ("cache_hit", t.cache_hit.into()),
    ])
}

/// An object led by the echoed request `id` (when there is one), then
/// `fields` in order — the preamble every request and response shares.
pub(crate) fn with_id<'a>(
    id: Option<&str>,
    fields: impl IntoIterator<Item = (&'a str, Json)>,
) -> Json {
    let head = id.map(|id| ("id", Json::from(id)));
    extended(Json::Obj(Vec::new()), head.into_iter().chain(fields))
}

/// A response body: `id` (when the request carried one), `status`, then
/// `fields` in order.
pub(crate) fn reply<'a>(
    id: Option<&str>,
    status: &str,
    fields: impl IntoIterator<Item = (&'a str, Json)>,
) -> Json {
    with_id(id, std::iter::once(("status", status.into())).chain(fields))
}

/// Appends `fields` to an object body (any other value passes through).
pub(crate) fn extended<'a>(body: Json, fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
    match body {
        Json::Obj(mut out) => {
            out.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
            Json::Obj(out)
        }
        other => other,
    }
}

/// Builds a successful solve response body (also used verbatim as a
/// batch item entry and a generate response's `solution` field).
pub fn solution_json(
    id: Option<&str>,
    sol: &Solution,
    cached: bool,
    telemetry: &RequestTelemetry,
) -> Json {
    reply(
        id,
        "ok",
        [
            ("objective", sol.objective.name().into()),
            ("value", sol.value.into()),
            ("makespan", sol.makespan.into()),
            ("model", sol.model.as_str().into()),
            ("cached", cached.into()),
            ("schedule", schedule_to_json(&sol.schedule)),
            ("telemetry", telemetry_to_json(telemetry)),
        ],
    )
}

/// Encodes a successful solve response line.
pub fn encode_solution(
    id: Option<&str>,
    sol: &Solution,
    cached: bool,
    telemetry: &RequestTelemetry,
) -> String {
    solution_json(id, sol, cached, telemetry).encode()
}

/// Builds an error response body (also used as a batch item entry).
pub fn error_json(id: Option<&str>, message: &str) -> Json {
    reply(id, "error", [("error", message.into())])
}

/// Builds the `busy` backpressure response: the racer-pool queue is
/// past the service's admission limit, so a cold solve was refused
/// *before* queueing work it could not start in time. Distinguished
/// from generic errors by `"code":"busy"`; carries the queue depth
/// observed at admission so clients can implement informed backoff.
/// Cached requests are still answered while the service is busy —
/// retrying an identical request after another client's solve lands
/// can succeed without racing at all.
pub fn busy_json(id: Option<&str>, queue_depth: u64, limit: u64) -> Json {
    reply(
        id,
        "error",
        [
            ("code", "busy".into()),
            (
                "error",
                format!("server busy: {queue_depth} race tasks queued (admission limit {limit})")
                    .into(),
            ),
            ("queue_depth", queue_depth.into()),
        ],
    )
}

/// Encodes an error response line.
pub fn encode_error(id: Option<&str>, message: &str) -> String {
    error_json(id, message).encode()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_request_roundtrips() {
        let req = SolveRequest {
            id: Some("r1".into()),
            instance: InstanceSpec::Named("ft06".into()),
            objective: Objective::Makespan,
            seed: 42,
            deadline_ms: 2000,
            trace: false,
        };
        let line = encode_request(&req);
        assert!(!line.contains("trace"), "trace=false stays off the wire");
        let Request::Solve(back) = parse_request(&line).unwrap() else {
            panic!("expected solve");
        };
        assert_eq!(*back, req);

        let traced = SolveRequest {
            trace: true,
            ..req.clone()
        };
        let Request::Solve(back) = parse_request(&encode_request(&traced)).unwrap() else {
            panic!("expected solve");
        };
        assert_eq!(*back, traced);
        // A non-bool trace is a wire error, never truthy-coerced.
        assert!(parse_request(r#"{"instance":{"name":"ft06"},"trace":1}"#).is_err());
    }

    #[test]
    fn inline_instance_roundtrips_with_newlines() {
        let req = SolveRequest {
            id: None,
            instance: InstanceSpec::Inline {
                family: Family::Flow,
                text: "2 2\n3 4\n5 1\n".into(),
            },
            objective: Objective::TotalCompletion,
            seed: 7,
            deadline_ms: 100,
            trace: false,
        };
        let Request::Solve(back) = parse_request(&encode_request(&req)).unwrap() else {
            panic!("expected solve");
        };
        assert_eq!(*back, req);
    }

    #[test]
    fn generate_request_roundtrips() {
        let req = GenerateRequest {
            id: Some("g1".into()),
            spec: GenSpec {
                ops_per_job: Some(3),
                ..GenSpec::new(Family::Flexible, 6, 4, 9)
            }
            .with_density_pct(75),
            solve: true,
            objective: Objective::Makespan,
            seed: 42,
            deadline_ms: 500,
        };
        let Request::Generate(back) = parse_request(&encode_generate_request(&req)).unwrap() else {
            panic!("expected generate");
        };
        assert_eq!(*back, req);
        // Solve-less variant: solve fields default.
        let bare = GenerateRequest {
            solve: false,
            ..req.clone()
        };
        let Request::Generate(back) = parse_request(&encode_generate_request(&bare)).unwrap()
        else {
            panic!("expected generate");
        };
        assert!(!back.solve);
        assert_eq!(back.spec, req.spec);
        assert_eq!(back.seed, 0, "solve seed omitted => default");
    }

    #[test]
    fn batch_request_roundtrips() {
        let req = BatchRequest {
            id: Some("b1".into()),
            items: vec![
                BatchItem {
                    id: Some("i0".into()),
                    source: BatchSource::Instance(InstanceSpec::Named("ft06".into())),
                    seed: Some(7),
                    objective: Some(Objective::TotalCompletion),
                },
                BatchItem {
                    id: None,
                    source: BatchSource::Generate(GenSpec::new(Family::Flow, 8, 4, 3)),
                    seed: None,
                    objective: None,
                },
                BatchItem {
                    id: None,
                    source: BatchSource::Instance(InstanceSpec::Inline {
                        family: Family::Open,
                        text: "2 2\n1 2\n3 4\n".into(),
                    }),
                    seed: None,
                    objective: None,
                },
            ],
            objective: Objective::Makespan,
            seed: 42,
            deadline_ms: 4_000,
        };
        let Request::Batch(back) = parse_request(&encode_batch_request(&req)).unwrap() else {
            panic!("expected batch");
        };
        assert_eq!(*back, req);
    }

    #[test]
    fn batch_parse_errors() {
        assert!(parse_request(r#"{"cmd":"batch"}"#).is_err());
        assert!(parse_request(r#"{"cmd":"batch","items":[]}"#).is_err());
        // An item with both sources (or neither) is rejected.
        assert!(parse_request(
            r#"{"cmd":"batch","items":[{"instance":{"name":"ft06"},"generate":{"family":"job","jobs":2,"machines":2}}]}"#
        )
        .is_err());
        assert!(parse_request(r#"{"cmd":"batch","items":[{}]}"#).is_err());
        // Bad nested spec is flagged with its index.
        let err = parse_request(r#"{"cmd":"batch","items":[{"generate":{"family":"nope"}}]}"#)
            .unwrap_err();
        assert!(err.0.contains("item 0"), "{err}");
    }

    #[test]
    fn generate_parse_errors() {
        assert!(parse_request(r#"{"cmd":"generate"}"#).is_err());
        assert!(parse_request(r#"{"cmd":"generate","spec":{"family":"job"}}"#).is_err());
        assert!(parse_request(
            r#"{"cmd":"generate","spec":{"family":"job","jobs":2,"machines":2},"solve":3}"#
        )
        .is_err());
        assert!(parse_request(
            r#"{"cmd":"generate","spec":{"family":"job","jobs":2,"machines":2,"density_pct":200}}"#
        )
        .is_err());
    }

    #[test]
    fn session_requests_roundtrip() {
        let open = SessionOpenRequest {
            id: Some("o1".into()),
            instance: InstanceSpec::Named("ft06".into()),
            objective: Objective::Makespan,
            seed: 42,
            deadline_ms: 2_000,
            ttl_ms: 30_000,
            trace: true,
        };
        let Request::SessionOpen(back) = parse_request(&encode_session_open(&open)).unwrap() else {
            panic!("expected session_open");
        };
        assert_eq!(*back, open);

        for event in [
            Event::Breakdown {
                machine: 2,
                from: 40,
                duration: 25,
            },
            Event::JobArrival {
                at: 40,
                route: vec![Op::new(0, 3), Op::new(2, 5)],
            },
            Event::Revision {
                at: 41,
                job: 1,
                op: 2,
                duration: 9,
            },
        ] {
            let req = SessionEventRequest {
                id: None,
                session: "sess-1".into(),
                event,
                deadline_ms: 150,
                trace: true,
            };
            let Request::SessionEvent(back) = parse_request(&encode_session_event(&req)).unwrap()
            else {
                panic!("expected session_event");
            };
            assert_eq!(*back, req);
        }

        let r = SessionRef {
            id: Some("g".into()),
            session: "sess-9".into(),
        };
        assert_eq!(
            parse_request(&encode_session_ref("session_get", &r)).unwrap(),
            Request::SessionGet(r.clone())
        );
        assert_eq!(
            parse_request(&encode_session_ref("session_events", &r)).unwrap(),
            Request::SessionEvents(r.clone())
        );
        assert_eq!(
            parse_request(&encode_session_ref("session_close", &r)).unwrap(),
            Request::SessionClose(r)
        );
    }

    #[test]
    fn session_parse_errors() {
        // Missing pieces.
        assert!(parse_request(r#"{"cmd":"session_open"}"#).is_err());
        assert!(parse_request(r#"{"cmd":"session_event","session":"s"}"#).is_err());
        assert!(parse_request(r#"{"cmd":"session_event","event":{"type":"breakdown","machine":0,"from":1,"duration":1}}"#).is_err());
        assert!(parse_request(r#"{"cmd":"session_get"}"#).is_err());
        // Bad event shapes.
        let ev = |e: &str| {
            parse_request(&format!(
                r#"{{"cmd":"session_event","session":"s","event":{e}}}"#
            ))
        };
        assert!(
            ev(r#"{"machine":0,"from":1,"duration":1}"#).is_err(),
            "no type"
        );
        assert!(ev(r#"{"type":"meteor"}"#).is_err());
        assert!(ev(r#"{"type":"breakdown","machine":0,"from":-1,"duration":1}"#).is_err());
        assert!(ev(r#"{"type":"job_arrival","at":0,"route":[[0]]}"#).is_err());
        assert!(
            ev(r#"{"type":"job_arrival","at":0,"route":[[0,0]]}"#).is_err(),
            "zero route duration must be a wire error, not an Op::new panic"
        );
        assert!(ev(r#"{"type":"revision","at":0,"job":0,"op":0}"#).is_err());
    }

    #[test]
    fn commands_parse() {
        assert_eq!(parse_request(r#"{"cmd":"stats"}"#).unwrap(), Request::Stats);
        assert_eq!(
            parse_request(r#"{"cmd":"metrics"}"#).unwrap(),
            Request::Metrics
        );
        assert_eq!(
            parse_request(r#"{"cmd":"trace_dump"}"#).unwrap(),
            Request::TraceDump {
                limit: 0,
                kind: None,
                session: None
            }
        );
        assert_eq!(
            parse_request(r#"{"cmd":"trace_dump","limit":4}"#).unwrap(),
            Request::TraceDump {
                limit: 4,
                kind: None,
                session: None
            }
        );
        assert_eq!(
            parse_request(r#"{"cmd":"trace_dump","type":"session_event","session":"s-1"}"#)
                .unwrap(),
            Request::TraceDump {
                limit: 0,
                kind: Some("session_event".into()),
                session: Some("s-1".into())
            }
        );
        assert!(parse_request(r#"{"cmd":"trace_dump","limit":-1}"#).is_err());
        assert!(parse_request(r#"{"cmd":"trace_dump","type":3}"#).is_err());
        assert_eq!(
            parse_request(r#"{"cmd":"shutdown"}"#).unwrap(),
            Request::Shutdown
        );
        assert!(parse_request(r#"{"cmd":"dance"}"#).is_err());
    }

    #[test]
    fn watch_requests_roundtrip() {
        // Solve-shaped watch: same fields as a solve request.
        let solve = SolveRequest {
            id: Some("w1".into()),
            instance: InstanceSpec::Named("ft06".into()),
            objective: Objective::Makespan,
            seed: 42,
            deadline_ms: 500,
            trace: false,
        };
        let target = WatchTarget::Solve(solve.clone());
        let Request::Watch(back) = parse_request(&encode_watch(&target)).unwrap() else {
            panic!("expected watch");
        };
        assert_eq!(*back, target);

        // Session-event-shaped watch.
        let ev = WatchTarget::SessionEvent(SessionEventRequest {
            id: Some("w2".into()),
            session: "sess-1".into(),
            event: Event::Breakdown {
                machine: 2,
                from: 40,
                duration: 25,
            },
            deadline_ms: 150,
            trace: false,
        });
        let Request::Watch(back) = parse_request(&encode_watch(&ev)).unwrap() else {
            panic!("expected watch");
        };
        assert_eq!(*back, ev);

        // Attach-shaped watch.
        let attach = WatchTarget::Attach {
            request: "w1".into(),
        };
        let Request::Watch(back) = parse_request(&encode_watch(&attach)).unwrap() else {
            panic!("expected watch");
        };
        assert_eq!(*back, attach);

        // `request` wins over other fields (it is the discriminator).
        let Request::Watch(back) =
            parse_request(r#"{"cmd":"watch","request":"r9","session":"s"}"#).unwrap()
        else {
            panic!("expected watch");
        };
        assert_eq!(
            *back,
            WatchTarget::Attach {
                request: "r9".into()
            }
        );
    }

    #[test]
    fn watch_parse_errors() {
        // No discriminating field at all.
        assert!(parse_request(r#"{"cmd":"watch"}"#).is_err());
        // Attach request id must be a string.
        assert!(parse_request(r#"{"cmd":"watch","request":7}"#).is_err());
        // Session shape still needs a valid event.
        assert!(parse_request(r#"{"cmd":"watch","session":"s"}"#).is_err());
        // Solve shape still needs a resolvable instance.
        assert!(parse_request(r#"{"cmd":"watch","instance":{"kind":"nope","data":""}}"#).is_err());
    }

    #[test]
    fn defaults_and_errors() {
        let Request::Solve(req) = parse_request(r#"{"instance":{"name":"ft06"}}"#).unwrap() else {
            panic!("expected solve");
        };
        assert_eq!(req.objective, Objective::Makespan);
        assert_eq!(req.seed, 0);
        assert_eq!(req.deadline_ms, 0);
        assert!(parse_request("{}").is_err());
        assert!(parse_request(r#"{"instance":{"kind":"nope","data":""}}"#).is_err());
        assert!(parse_request(r#"{"instance":{"name":"x"},"seed":-1}"#).is_err());
        assert!(parse_request("not json").is_err());
    }

    #[test]
    fn schedule_roundtrips() {
        let ops = vec![
            ScheduledOp {
                job: 0,
                op: 0,
                machine: 2,
                start: 0,
                end: 1,
            },
            ScheduledOp {
                job: 1,
                op: 0,
                machine: 1,
                start: 0,
                end: 8,
            },
        ];
        let back = schedule_from_json(&schedule_to_json(&ops)).unwrap();
        assert_eq!(back, ops);
    }

    #[test]
    fn response_encoding_is_deterministic() {
        let sol = Solution {
            objective: Objective::Makespan,
            value: 55.0,
            makespan: 55,
            model: "island".into(),
            schedule: vec![],
        };
        let t = RequestTelemetry::default();
        assert_eq!(
            encode_solution(Some("a"), &sol, false, &t),
            encode_solution(Some("a"), &sol, false, &t)
        );
        let line = encode_error(Some("a"), "boom");
        assert!(line.contains("\"status\":\"error\""));
    }
}
