//! The TCP service: an acceptor thread feeding a queue of connections
//! to a pool of worker threads, line-delimited JSON per connection,
//! graceful shutdown, per-request telemetry and service-wide counters.
//!
//! Concurrency layout (std only — no async runtime, consistent with the
//! offline-shim policy):
//!
//! ```text
//! acceptor ──► queue: Mutex<VecDeque<(TcpStream, enqueued_at)>> ──► N workers
//!                          ▲ Condvar                                   │
//!                          └── shutdown: AtomicBool ◄──────────────────┘
//! ```
//!
//! Each worker owns one connection at a time and answers its requests
//! in order; a cold solve races the portfolio on the service's
//! **persistent racer pool** (see [`crate::scheduler`]) — the worker
//! runs the cheapest member inline and the pool runs the rest, so
//! compute threads are bounded by `workers + racer_pool` regardless of
//! in-flight requests, and a saturated pool triggers an explicit
//! `busy` wire error instead of unbounded queueing. Reads use a 100 ms
//! timeout so idle keep-alive connections observe shutdown promptly,
//! and writes time out after the idle timeout so a client that stops
//! reading cannot pin a worker. `watch` streams follow a per-race frame
//! log (the crate-private `watch` module). Shutdown is graceful: the
//! acceptor stops accepting, workers finish the connection they hold
//! and drain the queue, then exit.

use crate::cache::{CacheKey, CachedSolve, ShardedCache};
use crate::json::{obj, Json};
use crate::obs::metrics::{Counter, Gauge, Histogram, Registry};
use crate::obs::phase::{PhaseAcc, PHASE_NAMES};
use crate::obs::trace::{Trace, TraceRing, WatchSink};
use crate::protocol::{
    busy_json, encode_error, error_json, parse_request, solution_json, BatchItem, BatchRequest,
    BatchSource, GenerateRequest, Objective, Request, SessionEventRequest, SessionOpenRequest,
    SessionRef, Solution, SolveRequest, WatchTarget,
};
use crate::scheduler::RacerPool;
use crate::session::{SessionConfig, SessionGauges, SessionRegistry, SessionState};
use crate::solver::{load_instance, solve_hooked, LoadedInstance, SolveHooks};
use crate::watch::WatchHub;
use pga::telemetry::RequestTelemetry;
use shop::schedule::Schedule;
use shop::Problem;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads (concurrent connections being served). Also the
    /// fan-out width of a batch request's item lanes. Workers do not
    /// own racer threads any more: a race runs its first member on the
    /// worker itself and the rest on the shared racer pool, so total
    /// compute threads are bounded by `workers + racer_pool` however
    /// many requests are in flight (the old `workers * racers` blow-up
    /// is gone).
    pub workers: usize,
    /// LRU solution-cache capacity (entries, split over
    /// `cache_shards`).
    pub cache_capacity: usize,
    /// Deadline applied when a request carries none (`deadline_ms` 0).
    pub default_deadline_ms: u64,
    /// Upper bound on any request's deadline.
    pub max_deadline_ms: u64,
    /// Per-racer generation cap — the determinism anchor: when every
    /// racer hits the cap before the deadline, a request's outcome is
    /// machine-independent.
    pub gen_cap: u64,
    /// Portfolio width per request (racing models, at most 3). One
    /// member runs inline on the serving worker; the remaining
    /// `racers - 1` become racer-pool tasks.
    pub racers: usize,
    /// Racer-pool size: the fixed number of persistent racer threads
    /// shared by all connections. 0 (the default) sizes it from the
    /// host's core count (`hpc::host_cores`) — the paper's
    /// provisioning rule: parallel throughput is bounded by the
    /// platform, so the pool tracks the hardware, not request volume.
    pub racer_pool: usize,
    /// Admission limit: when this many race tasks are already queued
    /// (not yet started), new cold solves are refused with a `busy`
    /// wire error instead of queueing work the pool cannot start in
    /// time. Cache hits are still served while saturated. 0 (the
    /// default) resolves to `16 * workers * racers`.
    pub max_queue_depth: usize,
    /// Solution-cache shard count (independently locked LRU shards
    /// selected by instance-hash prefix). 0 (the default) resolves to
    /// `min(8, cache_capacity)`. Use 1 to recover exact global LRU
    /// eviction order.
    pub cache_shards: usize,
    /// Default idle time-to-live for dynamic-rescheduling sessions, in
    /// milliseconds: a session untouched for this long is evicted. A
    /// `session_open` may request a different `ttl_ms`, clamped to ten
    /// times this default.
    pub session_ttl_ms: u64,
    /// Maximum concurrently open sessions; opening past the cap evicts
    /// the least-recently-used session.
    pub max_sessions: usize,
    /// Deadline applied to a `session_event` that carries none
    /// (`deadline_ms` 0). Deliberately much tighter than
    /// `default_deadline_ms`: an event answer gates a running factory,
    /// and right-shift repair guarantees *some* feasible answer
    /// whatever the budget.
    pub default_event_deadline_ms: u64,
    /// When nonzero, a background thread prints a one-line service
    /// summary (requests, solves, cache hits, queue depth, sessions,
    /// worker panics) to stderr every this-many milliseconds.
    pub metrics_interval_ms: u64,
    /// Capacity of the retained-trace ring served by `trace_dump`
    /// (0, the default, resolves to 64).
    pub trace_ring: usize,
    /// Write-ahead-log directory for durable sessions (`None`, the
    /// default, keeps sessions memory-only). With a directory set,
    /// every session's open + events are logged and fsync'd before the
    /// wire answer, and the registry is rebuilt from the logs at bind
    /// — see `crate::wal`.
    pub wal_dir: Option<String>,
    /// Compact a session's log into a single snapshot record every
    /// this-many events (0, the default, resolves to 64).
    pub wal_snapshot_every: u64,
    /// Whether WAL appends fsync before the wire answer (default
    /// true). Turning it off trades crash durability for event
    /// throughput.
    pub wal_fsync: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            cache_capacity: 256,
            default_deadline_ms: 1_000,
            max_deadline_ms: 30_000,
            gen_cap: 2_000,
            racers: 3,
            racer_pool: 0,
            max_queue_depth: 0,
            cache_shards: 0,
            session_ttl_ms: 600_000,
            max_sessions: 256,
            default_event_deadline_ms: 200,
            metrics_interval_ms: 0,
            trace_ring: 0,
            wal_dir: None,
            wal_snapshot_every: 0,
            wal_fsync: true,
        }
    }
}

impl ServeConfig {
    /// Resolves the auto (zero) knobs against the host: pool size from
    /// core count, admission depth from serving width, shard count
    /// from capacity. Called by [`Service::bind`]; public so tools can
    /// display the effective configuration.
    pub fn resolved(mut self) -> ServeConfig {
        if self.racer_pool == 0 {
            self.racer_pool = hpc::host_cores();
        }
        if self.max_queue_depth == 0 {
            self.max_queue_depth = 16 * self.workers.max(1) * self.racers.max(1);
        }
        if self.cache_shards == 0 {
            self.cache_shards = self.cache_capacity.clamp(1, 8);
        }
        if self.trace_ring == 0 {
            self.trace_ring = 64;
        }
        if self.wal_snapshot_every == 0 {
            self.wal_snapshot_every = 64;
        }
        self
    }
}

/// Monotonic service counters (lock-free; read with
/// [`Service::stats`]). Since the observability layer landed these are
/// *views over the metrics registry*: each field is the
/// `serve_<field>_total` counter registered at construction, so
/// `stats`, `metrics` and the periodic stderr summary all read the
/// same cells and can never disagree.
///
/// `cache_hits` counts responses answered from the memoised solution
/// (including the rare validation-failure fallback); `cache_misses`
/// counts lookups that could not be replayed directly. A fallback
/// request increments both, so `cache_hits + cache_misses` can exceed
/// the number of solve requests by the (error-counted) fallbacks —
/// hit-rate consumers should divide by `requests` instead.
#[derive(Debug)]
pub struct ServiceStats {
    /// Request lines received (any kind, including malformed).
    pub requests: Arc<Counter>,
    /// Portfolio races run to completion (batch items included;
    /// cache replays excluded).
    pub solved: Arc<Counter>,
    /// Responses answered from the memoised solution.
    pub cache_hits: Arc<Counter>,
    /// Cache lookups that could not be replayed directly.
    pub cache_misses: Arc<Counter>,
    /// Protocol, load and internal-validation failures.
    pub errors: Arc<Counter>,
    /// Cold solves refused with the `busy` backpressure error because
    /// the racer-pool queue was past the admission limit. Not counted
    /// under `errors`: shedding load is the service working as
    /// configured, not failing.
    pub busy_rejections: Arc<Counter>,
    /// Summed connection queue wait, in microseconds.
    pub queue_wait_us: Arc<Counter>,
    /// Summed racer-pool queue wait over solved requests, in
    /// microseconds (each request contributes its longest member
    /// wait).
    pub pool_wait_us: Arc<Counter>,
    /// Session disruption events applied (errors excluded).
    pub session_events: Arc<Counter>,
    /// Events where right-shift repair held the answer (the GA
    /// re-solve lost the tie, was skipped, or was shed as busy).
    pub session_repair_wins: Arc<Counter>,
    /// Events where the warm-started re-solve strictly beat repair.
    pub session_resolve_wins: Arc<Counter>,
    /// Events whose re-solve was shed by admission control (answered
    /// with repair alone). Like `busy_rejections`, not an error: the
    /// repair answer is feasible and within the deadline.
    pub session_resolve_busy: Arc<Counter>,
    /// Write-ahead-log records durably appended (session opens, event
    /// records and compaction snapshots; zero when no `wal_dir` is
    /// configured).
    pub wal_appends: Arc<Counter>,
    /// Write-ahead-log records replayed into sessions (restart
    /// recovery plus lazy recovery on first touch).
    pub wal_replays: Arc<Counter>,
}

/// Point-in-time copy of the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Request lines received (any kind, including malformed).
    pub requests: u64,
    /// Portfolio races run to completion.
    pub solved: u64,
    /// Responses answered from the memoised solution.
    pub cache_hits: u64,
    /// Cache lookups that could not be replayed directly.
    pub cache_misses: u64,
    /// Protocol, load and internal-validation failures.
    pub errors: u64,
    /// Cold solves refused with the `busy` backpressure error.
    pub busy_rejections: u64,
    /// Summed connection queue wait, in microseconds.
    pub queue_wait_us: u64,
    /// Summed racer-pool queue wait over solved requests, in
    /// microseconds.
    pub pool_wait_us: u64,
    /// Session disruption events applied.
    pub session_events: u64,
    /// Events answered by right-shift repair.
    pub session_repair_wins: u64,
    /// Events answered by the warm-started re-solve.
    pub session_resolve_wins: u64,
    /// Events whose re-solve was shed by admission control.
    pub session_resolve_busy: u64,
    /// Write-ahead-log records durably appended.
    pub wal_appends: u64,
    /// Write-ahead-log records replayed into sessions.
    pub wal_replays: u64,
}

impl ServiceStats {
    /// Registers every legacy stats counter in `registry` (names below)
    /// and returns the view. The mapping is 1:1 — the
    /// snapshot-equivalence test in this module walks it field by
    /// field.
    fn new(registry: &Registry) -> ServiceStats {
        ServiceStats {
            requests: registry.counter(
                "serve_requests_total",
                "request lines received (any kind, including malformed)",
            ),
            solved: registry.counter(
                "serve_solved_total",
                "portfolio races run to completion (cache replays excluded)",
            ),
            cache_hits: registry.counter(
                "serve_cache_hits_total",
                "responses answered from the memoised solution",
            ),
            cache_misses: registry.counter(
                "serve_cache_misses_total",
                "cache lookups that could not be replayed directly",
            ),
            errors: registry.counter(
                "serve_errors_total",
                "protocol, load and internal-validation failures",
            ),
            busy_rejections: registry.counter(
                "serve_busy_rejections_total",
                "cold solves refused by admission control",
            ),
            queue_wait_us: registry.counter(
                "serve_queue_wait_us_total",
                "summed connection queue wait in microseconds",
            ),
            pool_wait_us: registry.counter(
                "serve_pool_wait_us_total",
                "summed racer-pool queue wait over solved requests in microseconds",
            ),
            session_events: registry.counter(
                "serve_session_events_total",
                "session disruption events applied",
            ),
            session_repair_wins: registry.counter(
                "serve_session_repair_wins_total",
                "events answered by right-shift repair",
            ),
            session_resolve_wins: registry.counter(
                "serve_session_resolve_wins_total",
                "events answered by the warm-started re-solve",
            ),
            session_resolve_busy: registry.counter(
                "serve_session_resolve_busy_total",
                "events whose re-solve was shed by admission control",
            ),
            wal_appends: registry.counter(
                "serve_wal_appends_total",
                "write-ahead-log records durably appended",
            ),
            wal_replays: registry.counter(
                "serve_wal_replays_total",
                "write-ahead-log records replayed into sessions",
            ),
        }
    }

    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            requests: self.requests.get(),
            solved: self.solved.get(),
            cache_hits: self.cache_hits.get(),
            cache_misses: self.cache_misses.get(),
            errors: self.errors.get(),
            busy_rejections: self.busy_rejections.get(),
            queue_wait_us: self.queue_wait_us.get(),
            pool_wait_us: self.pool_wait_us.get(),
            session_events: self.session_events.get(),
            session_repair_wins: self.session_repair_wins.get(),
            session_resolve_wins: self.session_resolve_wins.get(),
            session_resolve_busy: self.session_resolve_busy.get(),
            wal_appends: self.wal_appends.get(),
            wal_replays: self.wal_replays.get(),
        }
    }
}

/// Wire request type labels of the `serve_requests_by_type_total`
/// series; `invalid` covers lines that failed to parse.
const REQUEST_TYPES: [&str; 14] = [
    "solve",
    "generate",
    "batch",
    "watch",
    "session_open",
    "session_event",
    "session_get",
    "session_events",
    "session_close",
    "stats",
    "metrics",
    "trace_dump",
    "shutdown",
    "invalid",
];

/// Instance families of `serve_solved_by_family_total` (must match
/// [`shop::gen::Family::name`]).
const FAMILIES: [&str; 4] = ["flow", "job", "open", "flexible"];

/// Race member kinds of `serve_race_wins_total` (must match
/// `portfolio::ModelKind` names).
const MEMBERS: [&str; 3] = ["master_slave", "island", "cellular"];

/// Registry handles beyond the legacy [`ServiceStats`] counters:
/// latency histograms, labeled counters (static label sets registered
/// once at bind), and the gauges the exposition path refreshes at
/// scrape time.
struct ServeMetrics {
    /// End-to-end per-request latency (any request kind), µs.
    request_us: Arc<Histogram>,
    /// Per-`session_event` latency (repair + optional re-solve), µs.
    session_event_us: Arc<Histogram>,
    /// Per-record WAL append latency (frame + write + fsync, and the
    /// periodic snapshot rewrite when one triggers), µs.
    wal_append_us: Arc<Histogram>,
    /// `serve_requests_by_type_total{type=...}` — one pre-registered
    /// counter per [`REQUEST_TYPES`] label.
    by_type: Vec<(&'static str, Arc<Counter>)>,
    /// `serve_solved_by_family_total{family=...}` per [`FAMILIES`].
    by_family: Vec<(&'static str, Arc<Counter>)>,
    /// `serve_race_wins_total{member=...}` per [`MEMBERS`].
    race_wins: Vec<(&'static str, Arc<Counter>)>,
    /// `serve_phase_us{family=...,phase=...}` — per-race search-phase
    /// time histograms, one per ([`FAMILIES`] × [`PHASE_NAMES`]) pair.
    phase_us: Vec<((&'static str, &'static str), Arc<Histogram>)>,
    /// `serve_cost_model_drift_milli{family=...}` — cumulative observed
    /// decode ns/op over the calibrated `hpc::calibrate` constant, in
    /// thousandths (1000 = exactly calibrated; 2000 = 2× slower).
    drift_milli: Vec<(&'static str, Arc<Gauge>)>,
    /// Drift accumulators per family: summed observed decode
    /// nanoseconds and summed decoded operations (`decode calls ×
    /// instance total_ops`) across every profiled race.
    drift_acc: Vec<(&'static str, AtomicU64, AtomicU64)>,
    /// `serve_watch_frames_dropped_total` — frames dropped instead of
    /// blocking a race on a watch subscriber that stopped reading.
    watch_drops: Arc<Counter>,
    uptime_ms: Arc<Gauge>,
    cache_len: Arc<Gauge>,
    queue_depth: Arc<Gauge>,
    worker_panics: Arc<Gauge>,
    sessions_open: Arc<Gauge>,
    sessions_opened: Arc<Gauge>,
    sessions_closed: Arc<Gauge>,
    sessions_expired: Arc<Gauge>,
    sessions_evicted: Arc<Gauge>,
    sessions_recovered: Arc<Gauge>,
    workers: Arc<Gauge>,
    racer_pool: Arc<Gauge>,
    max_queue_depth: Arc<Gauge>,
    max_sessions: Arc<Gauge>,
}

impl ServeMetrics {
    fn new(registry: &Registry) -> ServeMetrics {
        let labeled = |base: &str, label: &str, values: &[&'static str], help: &'static str| {
            values
                .iter()
                .map(|&v| {
                    (
                        v,
                        registry.counter(&format!("{base}{{{label}=\"{v}\"}}"), help),
                    )
                })
                .collect::<Vec<_>>()
        };
        ServeMetrics {
            request_us: registry.histogram(
                "serve_request_us",
                "end-to-end request latency in microseconds",
            ),
            session_event_us: registry.histogram(
                "serve_session_event_us",
                "session_event latency (repair + re-solve race) in microseconds",
            ),
            wal_append_us: registry.histogram(
                "serve_wal_append_us",
                "write-ahead-log append latency (write + fsync) in microseconds",
            ),
            by_type: labeled(
                "serve_requests_by_type_total",
                "type",
                &REQUEST_TYPES,
                "requests by wire request type",
            ),
            by_family: labeled(
                "serve_solved_by_family_total",
                "family",
                &FAMILIES,
                "completed races by instance family",
            ),
            race_wins: labeled(
                "serve_race_wins_total",
                "member",
                &MEMBERS,
                "race wins by portfolio member kind",
            ),
            phase_us: FAMILIES
                .iter()
                .flat_map(|&f| PHASE_NAMES.iter().map(move |&p| (f, p)))
                .map(|(f, p)| {
                    (
                        (f, p),
                        registry.histogram(
                            &format!("serve_phase_us{{family=\"{f}\",phase=\"{p}\"}}"),
                            "per-race search-phase time in microseconds",
                        ),
                    )
                })
                .collect(),
            drift_milli: FAMILIES
                .iter()
                .map(|&f| {
                    (
                        f,
                        registry.gauge(
                            &format!("serve_cost_model_drift_milli{{family=\"{f}\"}}"),
                            "observed per-op evaluation cost over the calibrated \
                             cost model, in thousandths",
                        ),
                    )
                })
                .collect(),
            drift_acc: FAMILIES
                .iter()
                .map(|&f| (f, AtomicU64::new(0), AtomicU64::new(0)))
                .collect(),
            watch_drops: registry.counter(
                "serve_watch_frames_dropped_total",
                "watch frames dropped to a slow subscriber instead of blocking the race",
            ),
            uptime_ms: registry.gauge("serve_uptime_ms", "milliseconds since bind"),
            cache_len: registry.gauge("serve_cache_len", "memoised solutions currently held"),
            queue_depth: registry.gauge(
                "serve_queue_depth",
                "race tasks currently queued on the racer pool",
            ),
            worker_panics: registry.gauge(
                "serve_worker_panics_total",
                "racer-pool tasks recovered from a panic",
            ),
            sessions_open: registry.gauge("serve_sessions_open", "sessions currently open"),
            sessions_opened: registry.gauge("serve_sessions_opened", "sessions ever opened"),
            sessions_closed: registry.gauge("serve_sessions_closed", "sessions explicitly closed"),
            sessions_expired: registry.gauge("serve_sessions_expired", "sessions expired by TTL"),
            sessions_evicted: registry
                .gauge("serve_sessions_evicted", "sessions evicted by the LRU cap"),
            sessions_recovered: registry.gauge(
                "serve_sessions_recovered",
                "sessions rebuilt from the write-ahead log",
            ),
            workers: registry.gauge("serve_workers", "worker threads serving connections"),
            racer_pool: registry.gauge("serve_racer_pool", "persistent racer threads"),
            max_queue_depth: registry.gauge("serve_max_queue_depth", "admission limit"),
            max_sessions: registry.gauge("serve_max_sessions", "open-session cap"),
        }
    }

    /// The pre-registered counter for a static label value; `None` for
    /// a value outside the set fixed at bind.
    fn labeled(set: &[(&'static str, Arc<Counter>)], value: &str) -> Option<Arc<Counter>> {
        set.iter()
            .find(|(label, _)| *label == value)
            .map(|(_, c)| Arc::clone(c))
    }

    /// Folds one profiled race into the family's phase histograms and
    /// (when the race counted evaluations) the cost-model drift gauge.
    /// `run_ns` is the summed wall-clock run time of the race's
    /// members and `eval_ops` the race's fitness-evaluation count
    /// times the instance's operation count — the unit the calibrated
    /// `DECODE_OP_S_*` constants price: those nominal figures cost
    /// one individual's *whole* walk through the GA loop (decode plus
    /// its share of operator work, cloning and bookkeeping, see
    /// `hpc::calibrate`), so the observed numerator is total member
    /// time, not any scoped phase slice.
    fn observe_race_profile(&self, family: &str, phases: &PhaseAcc, run_ns: u64, eval_ops: u64) {
        let snapshot = phases.snapshot_ns();
        for (i, &p) in PHASE_NAMES.iter().enumerate() {
            // panic-safe: i < PHASE_NAMES.len() == snapshot_ns() length (5).
            if snapshot[i] == 0 {
                continue;
            }
            if let Some((_, h)) = self
                .phase_us
                .iter()
                .find(|((f, ph), _)| *f == family && *ph == p)
            {
                // panic-safe: as above — i indexes the fixed 5-phase array.
                h.observe(snapshot[i] / 1_000);
            }
        }
        if run_ns == 0 || eval_ops == 0 {
            return;
        }
        let Some((_, ns_acc, ops_acc)) = self.drift_acc.iter().find(|(f, _, _)| *f == family)
        else {
            return;
        };
        // Cumulative ratio: one slow outlier race cannot whipsaw the
        // gauge the way a per-race ratio would.
        let ns = ns_acc.fetch_add(run_ns, Ordering::Relaxed) + run_ns;
        let ops = ops_acc.fetch_add(eval_ops, Ordering::Relaxed) + eval_ops;
        let observed_ns_per_op = ns as f64 / ops as f64;
        let calibrated_ns_per_op = calibrated_op_s(family) * 1e9;
        let milli = (observed_ns_per_op / calibrated_ns_per_op * 1000.0).round();
        if let Some((_, g)) = self.drift_milli.iter().find(|(f, _)| *f == family) {
            g.set(milli.max(0.0) as u64);
        }
    }

    /// Current drift gauge for a family, in thousandths of the
    /// calibrated cost (0 = no profiled decode yet).
    fn drift_reading(&self, family: &str) -> u64 {
        self.drift_milli
            .iter()
            .find(|(f, _)| *f == family)
            .map(|(_, g)| g.get())
            .unwrap_or(0)
    }
}

/// Calibrated whole-walk decode cost for a family, seconds per
/// operation (see `hpc::calibrate`).
fn calibrated_op_s(family: &str) -> f64 {
    match family {
        "flow" => hpc::calibrate::DECODE_OP_S_FLOW,
        "job" => hpc::calibrate::DECODE_OP_S_JOB,
        "open" => hpc::calibrate::DECODE_OP_S_OPEN,
        _ => hpc::calibrate::DECODE_OP_S_FLEXIBLE,
    }
}

struct Shared {
    config: ServeConfig,
    queue: Mutex<VecDeque<(TcpStream, Instant)>>,
    ready: Condvar,
    shutdown: AtomicBool,
    cache: ShardedCache,
    /// The persistent racer pool every race on this service shares
    /// (see [`crate::scheduler`]): compute threads are bounded by its
    /// size plus the worker count, independent of in-flight requests.
    pool: RacerPool,
    /// Dynamic-rescheduling sessions (see [`crate::session`]).
    sessions: SessionRegistry,
    /// Per-session write-ahead log (`None` without `wal_dir`); see
    /// [`crate::wal`].
    wal: Option<crate::wal::Wal>,
    stats: ServiceStats,
    /// The metrics registry behind `stats`, `metrics` and the periodic
    /// stderr summary.
    registry: Registry,
    metrics: ServeMetrics,
    /// Recently finished request traces, served by `trace_dump`.
    traces: TraceRing,
    /// In-flight watched races keyed by request id, for re-attach
    /// (`{"cmd":"watch","request":ID}`); see [`crate::watch`].
    watches: WatchHub,
    /// Bind instant — the base of `uptime_ms`.
    started: Instant,
}

impl Shared {
    /// Refreshes the point-in-time gauges from their sources (cache,
    /// pool, session registry, clock). Called at exposition and by the
    /// periodic summary — gauges mirror live state, they are not
    /// updated on the hot path.
    fn refresh_gauges(&self) {
        let m = &self.metrics;
        m.uptime_ms.set(self.started.elapsed().as_millis() as u64);
        m.cache_len.set(self.cache.len() as u64);
        m.queue_depth.set(self.pool.queue_depth() as u64);
        m.worker_panics.set(self.pool.panics());
        let sg = self.sessions.gauges();
        m.sessions_open.set(sg.open);
        m.sessions_opened.set(sg.opened);
        m.sessions_closed.set(sg.closed);
        m.sessions_expired.set(sg.expired);
        m.sessions_evicted.set(sg.evicted);
        m.sessions_recovered.set(sg.recovered);
    }
}

/// A running solver service. Binds eagerly in [`Service::bind`]; stops
/// accepting and joins all threads on [`Service::shutdown`] (or when a
/// client sends `{"cmd":"shutdown"}` and the owner calls
/// [`Service::wait`]). Dropping a still-running service shuts it down.
pub struct Service {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("addr", &self.addr)
            .field("workers", &self.shared.config.workers)
            .finish()
    }
}

impl Service {
    /// Binds the listener and spawns the acceptor, the worker pool and
    /// the persistent racer pool (auto knobs resolved via
    /// [`ServeConfig::resolved`]).
    pub fn bind(config: ServeConfig) -> std::io::Result<Service> {
        // panic-safe: operator-config validation at bind time, before any request.
        assert!(config.workers >= 1, "need at least one worker");
        let config = config.resolved();
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let registry = Registry::new();
        let stats = ServiceStats::new(&registry);
        let metrics = ServeMetrics::new(&registry);
        metrics.workers.set(config.workers as u64);
        metrics.max_queue_depth.set(config.max_queue_depth as u64);
        metrics.max_sessions.set(config.max_sessions as u64);
        let wal = match &config.wal_dir {
            Some(dir) => Some(crate::wal::Wal::new(crate::wal::WalConfig {
                dir: std::path::PathBuf::from(dir),
                snapshot_every: config.wal_snapshot_every,
                fsync: config.wal_fsync,
            })?),
            None => None,
        };
        let shared = Arc::new(Shared {
            cache: ShardedCache::new(config.cache_capacity, config.cache_shards),
            pool: RacerPool::new(config.racer_pool),
            sessions: SessionRegistry::new(SessionConfig {
                default_ttl: Duration::from_millis(config.session_ttl_ms.max(1)),
                max_ttl: Duration::from_millis(config.session_ttl_ms.max(1).saturating_mul(10)),
                max_sessions: config.max_sessions.max(1),
            }),
            traces: TraceRing::new(config.trace_ring),
            watches: WatchHub::default(),
            wal,
            config,
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
            stats,
            registry,
            metrics,
            started: Instant::now(),
        });
        shared.metrics.racer_pool.set(shared.pool.size() as u64);
        // Restart recovery: rebuild the registry from every log on
        // disk before accepting a single connection, so a client that
        // reconnects immediately after a crash sees its session (a
        // corrupt or unreadable log is quarantined, never fatal).
        if let Some(wal) = shared.wal.as_ref() {
            match wal.recover_all() {
                Ok(recovered) => {
                    for rec in recovered {
                        if let Some(salvaged) = &rec.salvaged {
                            eprintln!("[serve::wal] {}: {salvaged}", rec.session);
                        }
                        shared.stats.wal_replays.add(rec.records);
                        let id = rec.session;
                        shared.sessions.restore(&id, rec.state, rec.ttl_ms);
                    }
                }
                Err(e) => eprintln!("[serve::wal] recovery scan failed: {e}"),
            }
        }
        let mut threads = Vec::with_capacity(shared.config.workers + 2);
        {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("serve-acceptor".into())
                    .spawn(move || acceptor_loop(listener, &shared))
                    .expect("spawn acceptor"), // panic-safe: bind-time startup, before any request
            );
        }
        for i in 0..shared.config.workers {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker"), // panic-safe: bind-time startup, before any request
            );
        }
        if shared.config.metrics_interval_ms > 0 {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("serve-metrics".into())
                    .spawn(move || metrics_summary_loop(&shared))
                    .expect("spawn metrics summary"), // panic-safe: bind-time startup, before any request
            );
        }
        Ok(Service {
            addr,
            shared,
            threads,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// The service's metrics registry — every counter, gauge and
    /// histogram behind the `metrics` wire command, for embedders that
    /// want programmatic access instead of a scrape.
    pub fn registry(&self) -> &Registry {
        &self.shared.registry
    }

    /// Entries currently memoised (summed over cache shards).
    pub fn cache_len(&self) -> usize {
        self.shared.cache.len()
    }

    /// Race tasks currently queued on the racer pool (the admission
    /// gauge behind `busy` rejections).
    pub fn queue_depth(&self) -> usize {
        self.shared.pool.queue_depth()
    }

    /// Racer-pool thread count after auto-sizing.
    pub fn racer_pool_size(&self) -> usize {
        self.shared.pool.size()
    }

    /// Session registry gauges (open / opened / closed / expired /
    /// evicted).
    pub fn session_gauges(&self) -> SessionGauges {
        self.shared.sessions.gauges()
    }

    /// Requests shutdown and joins every thread (graceful: in-flight
    /// connections finish, the queue drains).
    pub fn shutdown(mut self) {
        self.request_shutdown();
        self.join_threads();
    }

    /// Blocks until the service shuts down (a client sent
    /// `{"cmd":"shutdown"}`), then joins every thread.
    pub fn wait(mut self) {
        self.join_threads();
    }

    fn request_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.ready.notify_all();
    }

    fn join_threads(&mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        if !self.threads.is_empty() {
            self.request_shutdown();
            self.join_threads();
        }
    }
}

/// Prints a one-line service summary to stderr every
/// `metrics_interval_ms`, sleeping in short slices so shutdown is
/// observed promptly.
fn metrics_summary_loop(shared: &Shared) {
    let interval = Duration::from_millis(shared.config.metrics_interval_ms.max(1));
    let mut last = Instant::now();
    while !shared.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(interval.as_millis().min(25) as u64));
        if last.elapsed() < interval {
            continue;
        }
        last = Instant::now();
        shared.refresh_gauges();
        let s = shared.stats.snapshot();
        eprintln!(
            "[serve] up {}s: {} requests ({} solved, {} cache hits, {} errors, {} busy), \
             queue depth {}, {} sessions open, {} session events, {} worker panics",
            shared.started.elapsed().as_secs(),
            s.requests,
            s.solved,
            s.cache_hits,
            s.errors,
            s.busy_rejections,
            shared.pool.queue_depth(),
            shared.sessions.gauges().open,
            s.session_events,
            shared.pool.panics(),
        );
        // Cost-model drift check: observed per-op evaluation cost vs
        // the calibrated `hpc::calibrate::DECODE_OP_S_*` constant.
        // Beyond 2x either way the calibration no longer describes
        // this host.
        for &family in &FAMILIES {
            let milli = shared.metrics.drift_reading(family);
            if milli > 0 && !(500..=2000).contains(&milli) {
                eprintln!(
                    "[serve] cost-model drift: family {family} evaluates at {:.2}x \
                     its calibrated cost (re-run calibration for this host)",
                    milli as f64 / 1000.0,
                );
            }
        }
    }
}

fn acceptor_loop(listener: TcpListener, shared: &Shared) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                // panic-safe: queue poisoning means a worker already panicked;
                // taking the acceptor down with it is the intended failure mode.
                let mut q = shared.queue.lock().expect("queue poisoned");
                q.push_back((stream, Instant::now()));
                drop(q);
                shared.ready.notify_one();
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let picked = {
            // panic-safe: queue poisoning means a sibling worker already
            // panicked; stopping this worker too is the intended failure mode.
            let mut q = shared.queue.lock().expect("queue poisoned");
            loop {
                if let Some(item) = q.pop_front() {
                    break Some(item);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                let (guard, _) = shared
                    .ready
                    .wait_timeout(q, Duration::from_millis(100))
                    .expect("queue poisoned"); // panic-safe: as above
                q = guard;
            }
        };
        let Some((stream, enqueued_at)) = picked else {
            return;
        };
        let queue_wait = enqueued_at.elapsed();
        shared
            .stats
            .queue_wait_us
            .add(queue_wait.as_micros() as u64);
        handle_connection(stream, queue_wait, shared);
    }
}

/// Requests larger than this are rejected and the connection closed
/// (the stream position is no longer trustworthy past a giant line).
/// Generous enough for multi-megabyte inline instances.
const MAX_REQUEST_BYTES: usize = 8 * 1024 * 1024;

/// A connection that completes no request for this long is closed, and
/// a write to it blocked this long fails, so neither idle keep-alive
/// clients nor clients that stop reading can pin workers (and thereby
/// starve the queue) indefinitely.
const IDLE_TIMEOUT: Duration = Duration::from_secs(60);

/// Outcome of one bounded line read.
enum LineRead {
    /// A complete newline-terminated line is in the buffer.
    Line,
    /// The peer closed its write side (a final unterminated request may
    /// be in the buffer).
    Eof,
    /// The line exceeded [`MAX_REQUEST_BYTES`] (possibly mid-line).
    TooLarge,
}

/// Reads towards the next newline, appending to `buf`, enforcing the
/// size cap *as bytes arrive* (a `read_until` call would buffer a fast
/// newline-free stream without bound before returning). Timeout errors
/// surface as `Err(WouldBlock)` with all consumed bytes kept in `buf`.
fn read_bounded_line(
    reader: &mut BufReader<TcpStream>,
    buf: &mut Vec<u8>,
) -> std::io::Result<LineRead> {
    loop {
        let used = {
            let available = reader.fill_buf()?;
            if available.is_empty() {
                return Ok(LineRead::Eof);
            }
            match available.iter().position(|&b| b == b'\n') {
                Some(i) => {
                    // panic-safe: position() returned i, so i < available.len().
                    buf.extend_from_slice(&available[..=i]);
                    i + 1
                }
                None => {
                    buf.extend_from_slice(available);
                    available.len()
                }
            }
        };
        let found_newline = buf.ends_with(b"\n");
        reader.consume(used);
        if buf.len() > MAX_REQUEST_BYTES {
            return Ok(LineRead::TooLarge);
        }
        if found_newline {
            return Ok(LineRead::Line);
        }
    }
}

fn handle_connection(stream: TcpStream, queue_wait: Duration, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    // A client that stops reading must not pin this worker (and with
    // it `Service::shutdown`) on a full socket: a write blocked this
    // long fails. Clones share the socket, so a watch writer thread
    // inherits the timeout.
    let _ = stream.set_write_timeout(Some(IDLE_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    // Raw bytes, not `read_line`: byte accumulation keeps partial data
    // across timeouts (read_line's UTF-8 guard can silently drop a
    // chunk that ends mid multi-byte character), and the cap is
    // enforced before decoding.
    let mut buf: Vec<u8> = Vec::new();
    // Queue wait is attributed to the connection's first request only;
    // later requests on a keep-alive connection never waited.
    let mut queue_wait = Some(queue_wait);
    let mut last_activity = Instant::now();
    loop {
        match read_bounded_line(&mut reader, &mut buf) {
            // EOF: serve a final request that arrived without a
            // trailing newline before closing.
            Ok(LineRead::Eof) => {
                if buf.iter().any(|b| !b.is_ascii_whitespace()) {
                    let _ = respond(&mut writer, &mut buf, &mut queue_wait, shared);
                }
                return;
            }
            Ok(LineRead::TooLarge) => {
                let _ = writeln!(writer, "{}", encode_error(None, "request too large"));
                return;
            }
            Ok(LineRead::Line) => {
                last_activity = Instant::now();
                if buf.iter().all(|b| b.is_ascii_whitespace()) {
                    buf.clear();
                    continue;
                }
                match respond(&mut writer, &mut buf, &mut queue_wait, shared) {
                    Ok(true) => {}
                    Ok(false) | Err(_) => return,
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if last_activity.elapsed() > IDLE_TIMEOUT {
                    return; // idle keep-alive: free the worker
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Decodes, handles and answers one buffered request line. Returns
/// `Ok(false)` when the connection should close (shutdown command).
fn respond(
    writer: &mut TcpStream,
    buf: &mut Vec<u8>,
    queue_wait: &mut Option<Duration>,
    shared: &Shared,
) -> std::io::Result<bool> {
    let text = String::from_utf8_lossy(buf).trim().to_string();
    buf.clear();
    let wait = queue_wait.take().unwrap_or(Duration::ZERO);
    match handle_line(&text, wait, shared) {
        LineOutcome::Reply(response, stop) => {
            writeln!(writer, "{response}")?;
            writer.flush()?;
            Ok(!stop)
        }
        LineOutcome::Watch(target, parse_us) => {
            handle_watch(writer, &target, wait, parse_us, shared)?;
            Ok(true)
        }
    }
}

/// What [`handle_line`] decided: either an ordinary one-line reply, or
/// a watch subscription the connection loop must stream itself (the
/// streaming path needs to own the socket for the race's duration).
enum LineOutcome {
    /// The response line, and whether the service should stop.
    Reply(String, bool),
    /// A `watch` request and its parse µs; [`handle_watch`] streams it.
    Watch(Box<WatchTarget>, u64),
}

/// The `serve_requests_by_type_total` label of a parse outcome.
fn request_type_label(parsed: &Result<Request, crate::protocol::ProtocolError>) -> &'static str {
    match parsed {
        Err(_) => "invalid",
        Ok(Request::Solve(_)) => "solve",
        Ok(Request::Generate(_)) => "generate",
        Ok(Request::Batch(_)) => "batch",
        Ok(Request::SessionOpen(_)) => "session_open",
        Ok(Request::SessionEvent(_)) => "session_event",
        Ok(Request::SessionGet(_)) => "session_get",
        Ok(Request::SessionEvents(_)) => "session_events",
        Ok(Request::SessionClose(_)) => "session_close",
        Ok(Request::Stats) => "stats",
        Ok(Request::Metrics) => "metrics",
        Ok(Request::TraceDump { .. }) => "trace_dump",
        Ok(Request::Watch(_)) => "watch",
        Ok(Request::Shutdown) => "shutdown",
    }
}

/// Handles one request line; ordinary requests come back as a
/// [`LineOutcome::Reply`] (response line plus whether the service
/// should stop), `watch` subscriptions as [`LineOutcome::Watch`] for
/// the connection loop to stream.
fn handle_line(text: &str, queue_wait: Duration, shared: &Shared) -> LineOutcome {
    let started = Instant::now();
    shared.stats.requests.inc();
    let parsed = parse_request(text);
    let parse_us = started.elapsed().as_micros() as u64;
    if let Some(c) = ServeMetrics::labeled(&shared.metrics.by_type, request_type_label(&parsed)) {
        c.inc();
    }
    let answer = match parsed {
        Ok(Request::Watch(target)) => {
            // Streamed on the caller's socket; its latency is observed
            // by handle_watch when the final frame lands.
            return LineOutcome::Watch(target, parse_us);
        }
        Err(e) => {
            shared.stats.errors.inc();
            (encode_error(None, &e.to_string()), false)
        }
        Ok(Request::Stats) => {
            let s = shared.stats.snapshot();
            let sg = shared.sessions.gauges();
            let cache_len = shared.cache.len() as u64;
            let body = obj([
                ("status", "ok".into()),
                ("requests", s.requests.into()),
                ("solved", s.solved.into()),
                ("cache_hits", s.cache_hits.into()),
                ("cache_misses", s.cache_misses.into()),
                ("errors", s.errors.into()),
                ("busy_rejections", s.busy_rejections.into()),
                ("queue_wait_us", s.queue_wait_us.into()),
                ("pool_wait_us", s.pool_wait_us.into()),
                ("cache_len", cache_len.into()),
                ("workers", (shared.config.workers as u64).into()),
                ("racer_pool", (shared.pool.size() as u64).into()),
                ("queue_depth", (shared.pool.queue_depth() as u64).into()),
                (
                    "max_queue_depth",
                    (shared.config.max_queue_depth as u64).into(),
                ),
                ("sessions_open", sg.open.into()),
                ("sessions_opened", sg.opened.into()),
                ("sessions_closed", sg.closed.into()),
                ("sessions_expired", sg.expired.into()),
                ("sessions_evicted", sg.evicted.into()),
                ("session_events", s.session_events.into()),
                ("session_repair_wins", s.session_repair_wins.into()),
                ("session_resolve_wins", s.session_resolve_wins.into()),
                ("session_resolve_busy", s.session_resolve_busy.into()),
                ("sessions_recovered", sg.recovered.into()),
                ("wal_appends", s.wal_appends.into()),
                ("wal_replays", s.wal_replays.into()),
                ("max_sessions", (shared.config.max_sessions as u64).into()),
                (
                    "uptime_ms",
                    (shared.started.elapsed().as_millis() as u64).into(),
                ),
                ("worker_panics", shared.pool.panics().into()),
                (
                    "cost_model_drift_milli",
                    Json::Obj(
                        FAMILIES
                            .iter()
                            .map(|&f| (f.to_string(), shared.metrics.drift_reading(f).into()))
                            .collect(),
                    ),
                ),
                ("version", env!("CARGO_PKG_VERSION").into()),
            ]);
            (body.encode(), false)
        }
        Ok(Request::Metrics) => {
            shared.refresh_gauges();
            let body = obj([
                ("status", "ok".into()),
                ("json", shared.registry.expose_json()),
                ("text", shared.registry.expose_text().into()),
            ]);
            (body.encode(), false)
        }
        Ok(Request::TraceDump {
            limit,
            kind,
            session,
        }) => {
            let limit = match limit {
                0 => shared.traces.capacity(),
                n => n as usize,
            };
            let filtered = kind.is_some() || session.is_some();
            // Filters scan the whole ring so `limit` bounds *matching*
            // traces, not the window they are searched in.
            let mut traces = shared.traces.dump(if filtered {
                shared.traces.capacity()
            } else {
                limit
            });
            if let Some(k) = &kind {
                traces.retain(|t| t.get("kind").and_then(Json::as_str) == Some(k));
            }
            if let Some(sid) = &session {
                traces.retain(|t| t.get("session").and_then(Json::as_str) == Some(sid));
            }
            if traces.len() > limit {
                // The dump renders oldest first: drop from the front to
                // keep the most recent `limit` matches.
                traces.drain(..traces.len() - limit);
            }
            let body = obj([
                ("status", "ok".into()),
                ("count", (traces.len() as u64).into()),
                ("capacity", (shared.traces.capacity() as u64).into()),
                ("traces", Json::Arr(traces)),
            ]);
            (body.encode(), false)
        }
        Ok(Request::Shutdown) => {
            shared.shutdown.store(true, Ordering::SeqCst);
            shared.ready.notify_all();
            let body = obj([("status", "ok".into()), ("shutting_down", true.into())]);
            (body.encode(), true)
        }
        Ok(Request::Solve(req)) => (handle_solve(&req, queue_wait, parse_us, shared), false),
        Ok(Request::Generate(req)) => (handle_generate(&req, queue_wait, shared), false),
        Ok(Request::Batch(req)) => (handle_batch(&req, queue_wait, shared), false),
        Ok(Request::SessionOpen(req)) => (
            handle_session_open(&req, queue_wait, parse_us, shared),
            false,
        ),
        Ok(Request::SessionEvent(req)) => (handle_session_event(&req, parse_us, shared), false),
        Ok(Request::SessionGet(r)) => (handle_session_get(&r, shared), false),
        Ok(Request::SessionEvents(r)) => (handle_session_events(&r, shared), false),
        Ok(Request::SessionClose(r)) => (handle_session_close(&r, shared), false),
    };
    shared
        .metrics
        .request_us
        .observe(started.elapsed().as_micros() as u64);
    LineOutcome::Reply(answer.0, answer.1)
}

/// Clamps a request's deadline to the service policy (0 = default).
fn effective_deadline_ms(requested: u64, config: &ServeConfig) -> u64 {
    match requested {
        0 => config.default_deadline_ms,
        d => d.min(config.max_deadline_ms),
    }
}

/// What [`solve_core`] hands back on success: the (possibly memoised)
/// solution plus the telemetry describing how it was obtained.
struct CoreOutcome {
    solution: Arc<Solution>,
    cached: bool,
    telemetry: RequestTelemetry,
}

/// Why [`solve_core`] could not answer.
enum CoreFail {
    /// Admission control refused the cold solve (racer queue past the
    /// limit); carries the observed depth for the `busy` wire body.
    Busy { depth: usize },
    /// The race produced an internally invalid schedule and no cached
    /// entry could cover for it.
    Internal(String),
}

/// The shared solve core: answer `(inst, objective, seed)` under the
/// absolute `deadline`, with full cache integration. `budget_ms` is the
/// wall-clock budget this caller can actually spend (for a plain solve
/// that equals the effective deadline; for a batch item it is the
/// *remaining* batch budget, so cache entries never claim more budget
/// than the race really had). Shared by plain solves, generate+solve,
/// batch items and `session_open` (which needs the [`Solution`] itself,
/// not a wire body — hence the split from [`solve_cached`]). A `watch`
/// sink subscribes the caller to the race's live convergence frames;
/// cache hits race nothing and therefore stream nothing.
#[allow(clippy::too_many_arguments)]
fn solve_core(
    inst: &Arc<LoadedInstance>,
    objective: Objective,
    seed: u64,
    deadline: Instant,
    budget_ms: u64,
    queue_wait: Duration,
    mut trace: Option<&mut Trace>,
    watch: Option<Arc<dyn WatchSink>>,
    shared: &Shared,
) -> Result<CoreOutcome, CoreFail> {
    let key = CacheKey {
        instance: inst.canonical_hash(),
        objective,
        seed,
    };
    // Fast path: a memoised solution that fully honours this request's
    // budget (only the key's cache shard is locked, for the lookup; no
    // racer-pool work spent). A deadline-bound entry whose stored
    // budget is smaller than this request's falls through to a re-race
    // below — replaying it would silently answer a long-deadline
    // request with short-deadline quality.
    let lookup_start = trace.as_deref().map(Trace::elapsed_us);
    let prev = shared.cache.get(&key);
    let replayable = prev
        .as_ref()
        .is_some_and(|hit| hit.replayable_for(budget_ms));
    if let (Some(tr), Some(start)) = (trace.as_deref_mut(), lookup_start) {
        tr.span(
            "cache_lookup",
            start,
            vec![("hit".to_string(), replayable.into())],
        );
    }
    if replayable {
        // panic-safe: replayable is only set when prev matched Some above.
        let hit = prev.as_ref().expect("replayable implies a cache entry");
        shared.stats.cache_hits.inc();
        let telemetry = RequestTelemetry {
            queue_wait,
            cache_hit: true,
            ..Default::default()
        };
        return Ok(CoreOutcome {
            solution: Arc::clone(&hit.solution),
            cached: true,
            telemetry,
        });
    }
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
    shared.stats.cache_misses.inc();

    let solve_started = Instant::now();
    let race_start = trace.as_deref().map(Trace::elapsed_us);
    // Every cold solve is phase-profiled: the scoped timers behind
    // `serve_phase_us` and the cost-model drift gauge cost one
    // monotonic-clock read per phase boundary, cheap enough to leave
    // always on (the o01 bench lane holds the whole observability
    // stack under its overhead bound).
    let phases = Arc::new(PhaseAcc::new());
    let outcome = solve_hooked(
        &shared.pool,
        inst,
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
        .observe_race_profile(inst.family().name(), &phases, outcome.run_ns, eval_ops);
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
    if let Some(c) = ServeMetrics::labeled(&shared.metrics.race_wins, &outcome.solution.model) {
        c.inc();
    }

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
    if let Some(c) = ServeMetrics::labeled(&shared.metrics.by_family, inst.family().name()) {
        c.inc();
    }
    Ok(CoreOutcome {
        solution: merged.solution,
        cached: false,
        telemetry,
    })
}

/// [`solve_core`] rendered as a solve-shaped response body.
#[allow(clippy::too_many_arguments)]
fn solve_cached(
    id: Option<&str>,
    inst: &Arc<LoadedInstance>,
    objective: Objective,
    seed: u64,
    deadline: Instant,
    budget_ms: u64,
    queue_wait: Duration,
    trace: Option<&mut Trace>,
    watch: Option<Arc<dyn WatchSink>>,
    shared: &Shared,
) -> Json {
    match solve_core(
        inst, objective, seed, deadline, budget_ms, queue_wait, trace, watch, shared,
    ) {
        Ok(out) => solution_json(id, &out.solution, out.cached, &out.telemetry),
        Err(CoreFail::Busy { depth }) => {
            busy_json(id, depth as u64, shared.config.max_queue_depth as u64)
        }
        Err(CoreFail::Internal(msg)) => error_json(id, &msg),
    }
}

/// Starts a request trace when the request opted in (`"trace": true`):
/// mints a ring id and records the already-measured `parse` span.
fn start_trace(
    opted_in: bool,
    kind: &'static str,
    parse_us: u64,
    shared: &Shared,
) -> Option<Trace> {
    opted_in.then(|| {
        let mut tr = Trace::new(shared.traces.next_id(), kind);
        tr.span_at("parse", 0, parse_us, Vec::new());
        tr
    })
}

/// Finishes a trace: renders it once, retains it in the service ring
/// for `trace_dump`, and attaches it to the response body as `trace`.
fn attach_trace(body: Json, trace: Option<Trace>, shared: &Shared) -> Json {
    let Some(tr) = trace else { return body };
    let rendered = tr.to_json();
    shared.traces.push(rendered.clone());
    match body {
        Json::Obj(mut fields) => {
            fields.push(("trace".into(), rendered));
            Json::Obj(fields)
        }
        other => other,
    }
}

/// Serves one `watch` subscription on the subscriber's own socket:
/// runs (or attaches to) a race, pushing line-delimited JSON frames as
/// the race produces them; the final line is a `{"frame":"answer",...}`
/// object carrying the ordinary response body. The connection stays
/// usable for further requests afterwards.
fn handle_watch(
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
    let inst = match load_instance(&req.instance) {
        Ok(inst) => Arc::new(inst),
        Err(e) => return watch_error(writer, id, &e.to_string(), shared),
    };
    stream_race(writer, id, shared, |sink| {
        let mut trace = start_trace(req.trace, "watch", parse_us, shared);
        let deadline_ms = effective_deadline_ms(req.deadline_ms, &shared.config);
        let deadline = Instant::now() + Duration::from_millis(deadline_ms);
        let body = solve_cached(
            id,
            &inst,
            req.objective,
            req.seed,
            deadline,
            deadline_ms,
            queue_wait,
            trace.as_mut(),
            Some(sink),
            shared,
        );
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
    writeln!(writer, "{}", encode_error(id, msg))?;
    writer.flush()
}

/// The `status:"error"` body for a session id that is not (or no
/// longer) registered. `code:"unknown_session"` lets clients tell an
/// expired session apart from a malformed request: the fix is to
/// re-open, not to re-spell.
fn unknown_session_json(id: Option<&str>, session: &str) -> Json {
    let mut fields: Vec<(String, Json)> = Vec::new();
    if let Some(id) = id {
        fields.push(("id".into(), id.into()));
    }
    fields.push(("status".into(), "error".into()));
    fields.push(("code".into(), "unknown_session".into()));
    fields.push((
        "error".into(),
        format!("unknown session {session:?} (never opened, closed, or expired)").into(),
    ));
    Json::Obj(fields)
}

/// Session down-windows on the wire: `[machine, from, until]` rows in
/// machine order.
fn windows_json(windows: &[shop::dynamic::DownWindow]) -> Json {
    Json::Arr(
        windows
            .iter()
            .map(|w| {
                Json::Arr(vec![
                    (w.machine as u64).into(),
                    w.from.into(),
                    w.until.into(),
                ])
            })
            .collect(),
    )
}

/// Looks up a session, falling back to write-ahead-log replay when the
/// registry no longer holds it — idle-TTL expiry, LRU eviction, or a
/// restart that has not touched this id yet. Durability beats expiry:
/// a session with a log on disk stays reachable until explicitly
/// closed.
fn session_entry(session: &str, shared: &Shared) -> Option<Arc<Mutex<SessionState>>> {
    if let Some(entry) = shared.sessions.get(session) {
        return Some(entry);
    }
    let wal = shared.wal.as_ref()?;
    match wal.recover_one(session) {
        Ok(crate::wal::RecoverOutcome::Recovered(rec)) => {
            if let Some(salvaged) = &rec.salvaged {
                eprintln!("[serve::wal] {session}: {salvaged}");
            }
            shared.stats.wal_replays.add(rec.records);
            let (entry, _) = shared.sessions.restore(session, rec.state, rec.ttl_ms);
            Some(entry)
        }
        Ok(crate::wal::RecoverOutcome::Missing) => None,
        Ok(crate::wal::RecoverOutcome::Quarantined { path, error }) => {
            eprintln!(
                "[serve::wal] {session}: quarantined {} ({error})",
                path.display()
            );
            shared.stats.errors.inc();
            None
        }
        Err(e) => {
            eprintln!("[serve::wal] {session}: recovery failed: {e}");
            shared.stats.errors.inc();
            None
        }
    }
}

/// Durably appends one accepted event to a session's log (and compacts
/// it into a snapshot when the cadence triggers), before the caller
/// writes the wire answer. WAL IO failure degrades to memory-only
/// service — the event was already applied, losing the answer would be
/// worse than losing durability.
fn wal_append_event(
    session: &str,
    state: &SessionState,
    event: &shop::dynamic::Event,
    out: &crate::session::EventOutcome,
    shared: &Shared,
) {
    let Some(wal) = shared.wal.as_ref() else {
        return;
    };
    let started = Instant::now();
    let mut result = wal.append(session, &crate::wal::event_record(state.events, event, out));
    let every = wal.config().snapshot_every;
    if result.is_ok() && every > 0 && state.events.is_multiple_of(every) {
        result = wal.rewrite(session, &crate::wal::snapshot_record(session, state));
    }
    shared
        .metrics
        .wal_append_us
        .observe(started.elapsed().as_micros() as u64);
    match result {
        Ok(()) => shared.stats.wal_appends.inc(),
        Err(e) => {
            eprintln!("[serve::wal] {session}: append failed: {e} (continuing without durability)");
            shared.stats.errors.inc();
        }
    }
}

/// Opens a dynamic-rescheduling session: resolve the instance (job
/// shops only — the `shop::dynamic` machinery is the job-shop
/// predictive-reactive stack), solve it through the shared cache-aware
/// core, and register the session with the solution as its incumbent.
fn handle_session_open(
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
    let deadline_ms = effective_deadline_ms(req.deadline_ms, &shared.config);
    let deadline = Instant::now() + Duration::from_millis(deadline_ms);
    match solve_core(
        &inst,
        req.objective,
        req.seed,
        deadline,
        deadline_ms,
        queue_wait,
        trace.as_mut(),
        None,
        shared,
    ) {
        Err(CoreFail::Busy { depth }) => {
            busy_json(id, depth as u64, shared.config.max_queue_depth as u64).encode()
        }
        Err(CoreFail::Internal(msg)) => error_json(id, &msg).encode(),
        Ok(out) => {
            let state = SessionState {
                inst: job.clone(),
                objective: req.objective,
                seed: req.seed,
                windows: Vec::new(),
                now: 0,
                incumbent: Arc::clone(&out.solution),
                // Tracks *event* degradation (busy-skips, clock-cut
                // re-solves); a fresh incumbent starts settled.
                deadline_bound: false,
                events: 0,
                ttl_ms: req.ttl_ms,
                journal: Vec::new(),
            };
            let session = shared.sessions.open(state, req.ttl_ms);
            if let Some(tr) = trace.as_mut() {
                tr.session = Some(session.clone());
            }
            // Durability: the open record is on disk (and fsync'd)
            // before the client hears the session id.
            if let Some(wal) = shared.wal.as_ref() {
                if let Some(entry) = shared.sessions.get(&session) {
                    let state = entry.lock().expect("session poisoned"); // panic-safe: poisoned = a handler already panicked; never serve corrupt state
                    let started = Instant::now();
                    let result = wal.begin(&session, &crate::wal::open_record(&session, &state));
                    shared
                        .metrics
                        .wal_append_us
                        .observe(started.elapsed().as_micros() as u64);
                    match result {
                        Ok(()) => shared.stats.wal_appends.inc(),
                        Err(e) => {
                            eprintln!(
                                "[serve::wal] {session}: open append failed: {e} \
                                 (continuing without durability)"
                            );
                            shared.stats.errors.inc();
                        }
                    }
                }
            }
            let body = solution_json(id, &out.solution, out.cached, &out.telemetry);
            let Json::Obj(mut fields) = body else {
                // panic-safe: solution_json returns Json::Obj unconditionally.
                unreachable!("solution_json builds an object")
            };
            fields.push(("session".into(), session.as_str().into()));
            fields.push(("now".into(), 0u64.into()));
            fields.push(("events".into(), 0u64.into()));
            attach_trace(Json::Obj(fields), trace, shared).encode()
        }
    }
}

/// Applies one disruption to a session: right-shift repair races the
/// warm-started frozen-prefix re-solve under the event deadline (see
/// `crate::session`); a racer queue past the admission limit sheds the
/// re-solve leg so the event still answers — with repair — inside its
/// deadline.
fn handle_session_event(req: &SessionEventRequest, parse_us: u64, shared: &Shared) -> String {
    session_event_body(req, parse_us, None, shared).encode()
}

/// The session-event core behind both the plain command and the
/// watched variant: applies the disruption, races repair against the
/// re-solve (streaming frames into `watch` when subscribed) and builds
/// the response body.
fn session_event_body(
    req: &SessionEventRequest,
    parse_us: u64,
    watch: Option<Arc<dyn WatchSink>>,
    shared: &Shared,
) -> Json {
    let id = req.id.as_deref();
    let kind = if watch.is_some() {
        "watch"
    } else {
        "session_event"
    };
    let mut trace = start_trace(req.trace, kind, parse_us, shared);
    if let Some(tr) = trace.as_mut() {
        tr.session = Some(req.session.clone());
    }
    let Some(entry) = session_entry(&req.session, shared) else {
        shared.stats.errors.inc();
        return unknown_session_json(id, &req.session);
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
    let phases = Arc::new(PhaseAcc::new());
    let mut state = entry.lock().expect("session poisoned"); // panic-safe: poisoned = a handler already panicked; never serve corrupt state
    let outcome = crate::session::handle_event_hooked(
        &shared.pool,
        &mut state,
        &req.event,
        deadline,
        shared.config.gen_cap,
        shared.config.racers,
        skip_resolve,
        trace.as_mut(),
        watch,
        Some(Arc::clone(&phases)),
    );
    shared
        .metrics
        .session_event_us
        .observe(started.elapsed().as_micros() as u64);
    // Sessions are job-shop only; their suffix decodes are not timed
    // per-op, so only the engine phases land (drift stays untouched).
    shared.metrics.observe_race_profile("job", &phases, 0, 0);
    match outcome {
        Err(msg) => {
            shared.stats.errors.inc();
            error_json(id, &msg)
        }
        Ok(out) => {
            shared.stats.session_events.inc();
            let winners = match out.winner {
                "resolve" => &shared.stats.session_resolve_wins,
                _ => &shared.stats.session_repair_wins,
            };
            winners.inc();
            match out.resolve_skipped {
                Some(crate::session::ResolveSkip::Busy) => {
                    shared.stats.session_resolve_busy.inc();
                }
                Some(crate::session::ResolveSkip::Infeasible) => {
                    shared.stats.errors.inc();
                }
                _ => {}
            }
            // Still under the session lock: the record hits disk (and
            // fsyncs) before the wire answer, and appends stay ordered
            // per session.
            wal_append_event(&req.session, &state, &req.event, &out, shared);
            let mut fields: Vec<(String, Json)> = Vec::new();
            if let Some(id) = id {
                fields.push(("id".into(), id.into()));
            }
            fields.push(("status".into(), "ok".into()));
            fields.push(("session".into(), req.session.as_str().into()));
            fields.push(("now".into(), out.now.into()));
            fields.push(("events".into(), state.events.into()));
            fields.push(("winner".into(), out.winner.into()));
            fields.push(("objective".into(), out.solution.objective.name().into()));
            fields.push(("value".into(), out.solution.value.into()));
            fields.push(("makespan".into(), out.solution.makespan.into()));
            fields.push(("model".into(), out.solution.model.as_str().into()));
            fields.push(("repair_value".into(), out.repair_value.into()));
            fields.push((
                "resolve_value".into(),
                out.resolve_value.map(Json::from).unwrap_or(Json::Null),
            ));
            fields.push((
                "resolve_skipped".into(),
                out.resolve_skipped
                    .map(|s| Json::from(s.name()))
                    .unwrap_or(Json::Null),
            ));
            fields.push(("deadline_bound".into(), out.deadline_bound.into()));
            fields.push((
                "schedule".into(),
                crate::protocol::schedule_to_json(&out.solution.schedule),
            ));
            fields.push((
                "telemetry".into(),
                obj([
                    ("event_ms", (started.elapsed().as_millis() as u64).into()),
                    ("deadline_ms", deadline_ms.into()),
                    ("resolve_generations", out.resolve_generations.into()),
                ]),
            ));
            attach_trace(Json::Obj(fields), trace, shared)
        }
    }
}

/// Returns a session's current incumbent, clock and down-windows.
fn handle_session_get(r: &SessionRef, shared: &Shared) -> String {
    let id = r.id.as_deref();
    let Some(entry) = session_entry(&r.session, shared) else {
        shared.stats.errors.inc();
        return unknown_session_json(id, &r.session).encode();
    };
    let state = entry.lock().expect("session poisoned"); // panic-safe: poisoned = a handler already panicked; never serve corrupt state
    let mut fields: Vec<(String, Json)> = Vec::new();
    if let Some(id) = id {
        fields.push(("id".into(), id.into()));
    }
    fields.push(("status".into(), "ok".into()));
    fields.push(("session".into(), r.session.as_str().into()));
    fields.push(("now".into(), state.now.into()));
    fields.push(("events".into(), state.events.into()));
    fields.push(("jobs".into(), (state.inst.n_jobs() as u64).into()));
    fields.push(("machines".into(), (state.inst.n_machines() as u64).into()));
    fields.push(("objective".into(), state.incumbent.objective.name().into()));
    fields.push(("value".into(), state.incumbent.value.into()));
    fields.push(("makespan".into(), state.incumbent.makespan.into()));
    fields.push(("deadline_bound".into(), state.deadline_bound.into()));
    fields.push(("windows".into(), windows_json(&state.windows)));
    fields.push((
        "schedule".into(),
        crate::protocol::schedule_to_json(&state.incumbent.schedule),
    ));
    Json::Obj(fields).encode()
}

/// Returns a session's whole ordered event log in one round trip: one
/// row per accepted event with the disruption, the winning leg and the
/// post-event incumbent summary. Served from the journal the WAL
/// persists, so the history survives restarts and compaction.
fn handle_session_events(r: &SessionRef, shared: &Shared) -> String {
    let id = r.id.as_deref();
    let Some(entry) = session_entry(&r.session, shared) else {
        shared.stats.errors.inc();
        return unknown_session_json(id, &r.session).encode();
    };
    let state = entry.lock().expect("session poisoned"); // panic-safe: poisoned = a handler already panicked; never serve corrupt state
    let log: Vec<Json> = state
        .journal
        .iter()
        .map(|e| {
            obj([
                ("seq", e.seq.into()),
                ("event", crate::protocol::event_to_json(&e.event)),
                ("winner", e.winner.as_str().into()),
                ("value", e.value.into()),
                ("makespan", e.makespan.into()),
                ("deadline_bound", e.deadline_bound.into()),
            ])
        })
        .collect();
    let mut fields: Vec<(String, Json)> = Vec::new();
    if let Some(id) = id {
        fields.push(("id".into(), id.into()));
    }
    fields.push(("status".into(), "ok".into()));
    fields.push(("session".into(), r.session.as_str().into()));
    fields.push(("now".into(), state.now.into()));
    fields.push(("events".into(), state.events.into()));
    fields.push(("log".into(), Json::Arr(log)));
    Json::Obj(fields).encode()
}

/// Closes a session and reports how many events it absorbed. With a
/// WAL the log is deleted too — close is the one path that forgets a
/// durable session.
fn handle_session_close(r: &SessionRef, shared: &Shared) -> String {
    let id = r.id.as_deref();
    let entry = shared.sessions.close(&r.session).or_else(|| {
        // An expired-but-durable session must be closable: recover it,
        // then close it (and drop its log below).
        session_entry(&r.session, shared)?;
        shared.sessions.close(&r.session)
    });
    let Some(entry) = entry else {
        shared.stats.errors.inc();
        return unknown_session_json(id, &r.session).encode();
    };
    if let Some(wal) = shared.wal.as_ref() {
        if let Err(e) = wal.remove(&r.session) {
            eprintln!("[serve::wal] {}: remove failed: {e}", r.session);
            shared.stats.errors.inc();
        }
    }
    let state = entry.lock().expect("session poisoned"); // panic-safe: poisoned = a handler already panicked; never serve corrupt state
    let mut fields: Vec<(String, Json)> = Vec::new();
    if let Some(id) = id {
        fields.push(("id".into(), id.into()));
    }
    fields.push(("status".into(), "ok".into()));
    fields.push(("session".into(), r.session.as_str().into()));
    fields.push(("closed".into(), true.into()));
    fields.push(("events".into(), state.events.into()));
    Json::Obj(fields).encode()
}

fn handle_solve(
    req: &SolveRequest,
    queue_wait: Duration,
    parse_us: u64,
    shared: &Shared,
) -> String {
    let id = req.id.as_deref();
    let mut trace = start_trace(req.trace, "solve", parse_us, shared);
    let inst = match load_instance(&req.instance) {
        Ok(inst) => Arc::new(inst),
        Err(e) => {
            shared.stats.errors.inc();
            return encode_error(id, &e.to_string());
        }
    };
    let deadline_ms = effective_deadline_ms(req.deadline_ms, &shared.config);
    let deadline = Instant::now() + Duration::from_millis(deadline_ms);
    let body = solve_cached(
        id,
        &inst,
        req.objective,
        req.seed,
        deadline,
        deadline_ms,
        queue_wait,
        trace.as_mut(),
        None,
        shared,
    );
    attach_trace(body, trace, shared).encode()
}

fn handle_generate(req: &GenerateRequest, queue_wait: Duration, shared: &Shared) -> String {
    let id = req.id.as_deref();
    let generated = match req.spec.build() {
        Ok(g) => g,
        Err(e) => {
            shared.stats.errors.inc();
            return encode_error(id, &e.to_string());
        }
    };
    let inst = Arc::new(generated.instance);
    let mut fields: Vec<(String, Json)> = Vec::new();
    if let Some(id) = id {
        fields.push(("id".into(), id.into()));
    }
    fields.push(("status".into(), "ok".into()));
    fields.push(("name".into(), generated.name.as_str().into()));
    fields.push(("family".into(), inst.family().name().into()));
    fields.push(("jobs".into(), (inst.problem().n_jobs() as u64).into()));
    fields.push((
        "machines".into(),
        (inst.problem().n_machines() as u64).into(),
    ));
    fields.push(("total_ops".into(), (inst.total_ops() as u64).into()));
    // The canonical hash exceeds 2^53 in general, so it travels as a
    // hex string, never as a JSON number.
    fields.push((
        "hash".into(),
        format!("{:#018x}", inst.canonical_hash()).into(),
    ));
    fields.push(("instance".into(), inst.text().into()));
    if req.solve {
        let deadline_ms = effective_deadline_ms(req.deadline_ms, &shared.config);
        let deadline = Instant::now() + Duration::from_millis(deadline_ms);
        let body = solve_cached(
            None,
            &inst,
            req.objective,
            req.seed,
            deadline,
            deadline_ms,
            queue_wait,
            None,
            None,
            shared,
        );
        fields.push(("solution".into(), body));
    }
    Json::Obj(fields).encode()
}

/// Materialises a batch item's instance (named, inline or generated).
fn resolve_batch_source(source: &BatchSource) -> Result<Arc<LoadedInstance>, String> {
    match source {
        BatchSource::Instance(spec) => load_instance(spec).map(Arc::new).map_err(|e| e.to_string()),
        BatchSource::Generate(spec) => spec
            .build()
            .map(|g| Arc::new(g.instance))
            .map_err(|e| e.to_string()),
    }
}

/// Solves one batch item (instance already materialised by its group)
/// against the batch's shared absolute deadline.
fn solve_batch_item(
    item: &BatchItem,
    index: usize,
    batch: &BatchRequest,
    inst: &Arc<LoadedInstance>,
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
    with_index(
        solve_cached(
            id,
            inst,
            objective,
            seed,
            deadline,
            remaining_ms,
            Duration::ZERO,
            None,
            None,
            shared,
        ),
        index,
    )
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

fn handle_batch(req: &BatchRequest, queue_wait: Duration, shared: &Shared) -> String {
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
    // instance is materialised once per group rather than per item.
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
    // Lanes are coordinators, not racers: each runs one portfolio
    // member inline and leaves the rest to the shared racer pool, so
    // compute threads stay bounded by `workers + racer_pool` even
    // under concurrent batch load. Groups are pulled from a shared
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
                match resolve_batch_source(&req.items[group[0]].source) {
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
                    Ok(inst) => {
                        for &i in group {
                            // panic-safe: group indices enumerate req.items; slots has one
                            // entry per item; poisoning means a sibling already panicked.
                            let body = // panic-safe: as above
                                solve_batch_item(&req.items[i], i, req, &inst, deadline, shared);
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

    let mut fields: Vec<(String, Json)> = Vec::new();
    if let Some(id) = id {
        fields.push(("id".into(), id.into()));
    }
    fields.push(("status".into(), "ok".into()));
    fields.push(("count".into(), (n as u64).into()));
    fields.push(("ok".into(), (ok as u64).into()));
    fields.push(("items".into(), Json::Arr(items)));
    fields.push((
        "telemetry".into(),
        obj([
            ("queue_wait_us", (queue_wait.as_micros() as u64).into()),
            ("batch_ms", (started.elapsed().as_millis() as u64).into()),
            ("deadline_ms", deadline_ms.into()),
            ("fanout", (fanout as u64).into()),
            ("cache_hits", (hits as u64).into()),
            ("errors", ((n - ok) as u64).into()),
        ]),
    ));
    Json::Obj(fields).encode()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{encode_request, InstanceSpec, Objective};

    fn send_lines(addr: SocketAddr, lines: &[String]) -> Vec<String> {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream.set_nodelay(true).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let mut out = Vec::new();
        for l in lines {
            writeln!(writer, "{l}").unwrap();
            writer.flush().unwrap();
            let mut resp = String::new();
            reader.read_line(&mut resp).unwrap();
            out.push(resp.trim().to_string());
        }
        out
    }

    fn tiny_config() -> ServeConfig {
        ServeConfig {
            workers: 2,
            gen_cap: 60,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn serves_solves_stats_and_errors_over_tcp() {
        let service = Service::bind(tiny_config()).unwrap();
        let addr = service.local_addr();
        let req = encode_request(&SolveRequest {
            id: Some("t1".into()),
            instance: InstanceSpec::Named("flow05".into()),
            objective: Objective::Makespan,
            seed: 9,
            deadline_ms: 2_000,
            trace: false,
        });
        let responses = send_lines(
            addr,
            &[
                req.clone(),
                req, // second hit must come from the cache
                "garbage".to_string(),
                r#"{"cmd":"stats"}"#.to_string(),
            ],
        );
        let first = crate::json::parse(&responses[0]).unwrap();
        assert_eq!(first.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(first.get("cached").unwrap().as_bool(), Some(false));
        let second = crate::json::parse(&responses[1]).unwrap();
        assert_eq!(second.get("cached").unwrap().as_bool(), Some(true));
        assert_eq!(
            first.get("schedule").unwrap(),
            second.get("schedule").unwrap()
        );
        let err = crate::json::parse(&responses[2]).unwrap();
        assert_eq!(err.get("status").unwrap().as_str(), Some("error"));
        let stats = crate::json::parse(&responses[3]).unwrap();
        assert_eq!(stats.get("cache_hits").unwrap().as_u64(), Some(1));
        assert_eq!(stats.get("cache_misses").unwrap().as_u64(), Some(1));
        assert_eq!(stats.get("errors").unwrap().as_u64(), Some(1));
        assert_eq!(service.stats().cache_hits, 1);
        assert_eq!(service.cache_len(), 1);
        service.shutdown();
    }

    #[test]
    fn request_without_trailing_newline_is_served_at_eof() {
        let service = Service::bind(tiny_config()).unwrap();
        let addr = service.local_addr();
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        // No trailing newline; half-close the write side to signal EOF.
        write!(writer, r#"{{"cmd":"stats"}}"#).unwrap();
        writer.flush().unwrap();
        writer.shutdown(std::net::Shutdown::Write).unwrap();
        let mut resp = String::new();
        BufReader::new(stream).read_line(&mut resp).unwrap();
        let v = crate::json::parse(resp.trim()).unwrap();
        assert_eq!(v.get("status").unwrap().as_str(), Some("ok"));
        service.shutdown();
    }

    #[test]
    fn oversized_request_line_is_rejected() {
        let service = Service::bind(tiny_config()).unwrap();
        let addr = service.local_addr();
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        // One 9 MiB line (over MAX_REQUEST_BYTES) must be answered with
        // an error, not buffered indefinitely.
        let chunk = vec![b'x'; 1024 * 1024];
        for _ in 0..9 {
            if writer.write_all(&chunk).is_err() {
                break; // server may close early once over the cap
            }
        }
        let _ = writer.write_all(b"\n");
        let _ = writer.flush();
        let mut resp = String::new();
        let _ = BufReader::new(stream).read_line(&mut resp);
        if !resp.trim().is_empty() {
            assert!(resp.contains("request too large"), "got: {resp}");
        }
        service.shutdown();
    }

    #[test]
    fn longer_deadline_outgrows_a_deadline_bound_cache_entry() {
        // gen_cap effectively unbounded and ft06's target (the makespan
        // lower bound) unreachable: every race is cut by its deadline,
        // so cached entries are deadline-bound.
        let service = Service::bind(ServeConfig {
            workers: 1,
            gen_cap: u64::MAX,
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = service.local_addr();
        let mk = |deadline_ms: u64| {
            encode_request(&SolveRequest {
                id: None,
                instance: InstanceSpec::Named("ft06".into()),
                objective: Objective::Makespan,
                seed: 5,
                deadline_ms,
                trace: false,
            })
        };
        let responses = send_lines(addr, &[mk(60), mk(400), mk(300)]);
        let v: Vec<_> = responses
            .iter()
            .map(|r| crate::json::parse(r).unwrap())
            .collect();
        let cached = |i: usize| v[i].get("cached").unwrap().as_bool().unwrap();
        let value = |i: usize| v[i].get("value").unwrap().as_f64().unwrap();
        // Cold 60 ms solve, memoised as deadline-bound.
        assert!(!cached(0));
        // A 400 ms budget outgrows the entry: the service must re-race
        // rather than replay 60 ms-quality, and never worsen the answer.
        assert!(!cached(1), "larger budget must not replay a bound entry");
        assert!(
            value(1) <= value(0),
            "upgrade must keep the better solution"
        );
        // A follow-up within the enlarged budget replays the entry.
        assert!(cached(2));
        assert_eq!(value(2), value(1));
        let stats = service.stats();
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 2);
        assert_eq!(stats.solved, 2);
        assert_eq!(service.cache_len(), 1, "upgrade replaces, never duplicates");
        service.shutdown();
    }

    #[test]
    fn generate_request_mints_reproducibly_and_solves_into_the_shared_cache() {
        let service = Service::bind(tiny_config()).unwrap();
        let addr = service.local_addr();
        let spec = r#"{"family":"job","jobs":4,"machines":3,"seed":11}"#;
        let responses = send_lines(
            addr,
            &[
                format!(r#"{{"id":"g0","cmd":"generate","spec":{spec}}}"#),
                format!(
                    r#"{{"id":"g1","cmd":"generate","spec":{spec},"solve":true,"seed":5,"deadline_ms":2000}}"#
                ),
                // The minted name is directly solvable; same canonical
                // hash + seed => answered from the cache entry the
                // generate+solve just created.
                r#"{"id":"s","instance":{"name":"gen-job-4x3-s11"},"seed":5,"deadline_ms":2000}"#
                    .to_string(),
            ],
        );
        let bare = crate::json::parse(&responses[0]).unwrap();
        assert_eq!(bare.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(bare.get("name").unwrap().as_str(), Some("gen-job-4x3-s11"));
        assert_eq!(bare.get("family").unwrap().as_str(), Some("job"));
        assert_eq!(bare.get("total_ops").unwrap().as_u64(), Some(12));
        assert!(bare.get("solution").is_none(), "solve not requested");
        // The instance text round-trips to the advertised hash.
        let text = bare.get("instance").unwrap().as_str().unwrap();
        let parsed = shop::gen::AnyInstance::parse(shop::gen::Family::Job, text).unwrap();
        let hash = bare.get("hash").unwrap().as_str().unwrap().to_string();
        assert_eq!(hash, format!("{:#018x}", parsed.canonical_hash()));

        let solved = crate::json::parse(&responses[1]).unwrap();
        let solution = solved.get("solution").expect("solution attached");
        assert_eq!(solution.get("status").unwrap().as_str(), Some("ok"));
        assert!(solution.get("makespan").unwrap().as_u64().unwrap() > 0);

        let named = crate::json::parse(&responses[2]).unwrap();
        assert_eq!(named.get("cached").unwrap().as_bool(), Some(true));
        assert_eq!(
            named.get("schedule").unwrap().encode(),
            solution.get("schedule").unwrap().encode(),
            "named gen-* solve must replay the generate+solve entry"
        );

        // Bad spec => protocol-level error line, not a dropped request.
        let err = send_lines(
            addr,
            &[r#"{"cmd":"generate","spec":{"family":"job","jobs":0,"machines":3}}"#.to_string()],
        );
        let err_v = crate::json::parse(&err[0]).unwrap();
        assert_eq!(err_v.get("status").unwrap().as_str(), Some("error"));
        service.shutdown();
    }

    #[test]
    fn batch_cache_hits_do_not_consume_racer_threads() {
        let service = Service::bind(tiny_config()).unwrap();
        let addr = service.local_addr();
        // Prime the cache with one cold solve.
        let prime = encode_request(&SolveRequest {
            id: None,
            instance: InstanceSpec::Named("flow05".into()),
            objective: Objective::Makespan,
            seed: 3,
            deadline_ms: 2_000,
            trace: false,
        });
        // A batch of 8 copies of the primed key: every item must replay
        // the entry, and no new portfolio race may start.
        let items: Vec<String> = (0..8)
            .map(|_| r#"{"instance":{"name":"flow05"}}"#.to_string())
            .collect();
        let batch = format!(
            r#"{{"id":"b","cmd":"batch","items":[{}],"seed":3,"deadline_ms":2000}}"#,
            items.join(",")
        );
        let responses = send_lines(addr, &[prime, batch]);
        let v = crate::json::parse(&responses[1]).unwrap();
        assert_eq!(v.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(v.get("count").unwrap().as_u64(), Some(8));
        assert_eq!(v.get("ok").unwrap().as_u64(), Some(8));
        let entries = v.get("items").unwrap().as_arr().unwrap();
        assert_eq!(entries.len(), 8);
        for (i, e) in entries.iter().enumerate() {
            assert_eq!(e.get("index").unwrap().as_u64(), Some(i as u64));
            assert_eq!(e.get("cached").unwrap().as_bool(), Some(true), "item {i}");
        }
        let t = v.get("telemetry").unwrap();
        assert_eq!(t.get("cache_hits").unwrap().as_u64(), Some(8));
        assert_eq!(t.get("errors").unwrap().as_u64(), Some(0));
        let stats = service.stats();
        assert_eq!(stats.solved, 1, "cache hits must not race the portfolio");
        assert_eq!(stats.cache_hits, 8);
        service.shutdown();
    }

    #[test]
    fn batch_evicts_lru_when_overflowing_the_cache() {
        // Capacity 3, one worker (sequential item order, so eviction
        // order is deterministic), one cache shard (exact global LRU
        // order — the property under test), batch of 5 distinct
        // generated instances: the cache must end at capacity holding
        // exactly the three *most recently inserted* entries (seeds 2,
        // 3, 4), and every item must still be answered.
        let service = Service::bind(ServeConfig {
            cache_capacity: 3,
            cache_shards: 1,
            workers: 1,
            gen_cap: 60,
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = service.local_addr();
        let items: Vec<String> = (0..5)
            .map(|s| {
                format!(r#"{{"generate":{{"family":"flow","jobs":3,"machines":2,"seed":{s}}}}}"#)
            })
            .collect();
        let batch = format!(
            r#"{{"cmd":"batch","items":[{}],"deadline_ms":2000}}"#,
            items.join(",")
        );
        let responses = send_lines(addr, &[batch]);
        let v = crate::json::parse(&responses[0]).unwrap();
        assert_eq!(v.get("ok").unwrap().as_u64(), Some(5));
        assert_eq!(service.cache_len(), 3, "cache must stay at capacity");
        assert_eq!(service.stats().solved, 5);

        // LRU order preserved under batch load: the last three inserts
        // survive (replay), the first two were evicted (re-solve).
        let probe = |seed: u64| format!(r#"{{"instance":{{"name":"gen-flow-3x2-s{seed}"}}}}"#);
        let responses = send_lines(addr, &[probe(2), probe(3), probe(4), probe(0)]);
        let cached = |i: usize| {
            crate::json::parse(&responses[i])
                .unwrap()
                .get("cached")
                .unwrap()
                .as_bool()
                .unwrap()
        };
        assert!(cached(0), "seed 2 must have survived the batch");
        assert!(cached(1), "seed 3 must have survived the batch");
        assert!(cached(2), "seed 4 must have survived the batch");
        assert!(!cached(3), "seed 0 must have been evicted as LRU");
        assert_eq!(service.cache_len(), 3);
        service.shutdown();
    }

    #[test]
    fn duplicate_batch_items_race_once_and_replay() {
        // A cold batch listing the same spec three times (mixed with a
        // distinct item) must race each unique key once: duplicates
        // serialize behind their first occurrence and replay its entry.
        let service = Service::bind(tiny_config()).unwrap();
        let addr = service.local_addr();
        let batch = concat!(
            r#"{"cmd":"batch","items":["#,
            r#"{"generate":{"family":"job","jobs":4,"machines":3,"seed":1}},"#,
            r#"{"generate":{"family":"job","jobs":4,"machines":3,"seed":1}},"#,
            r#"{"instance":{"name":"gen-job-4x3-s1"}},"#,
            r#"{"generate":{"family":"job","jobs":4,"machines":3,"seed":2}}"#,
            r#"],"seed":7,"deadline_ms":2000}"#
        );
        let responses = send_lines(addr, &[batch.to_string()]);
        let v = crate::json::parse(&responses[0]).unwrap();
        assert_eq!(v.get("ok").unwrap().as_u64(), Some(4));
        let entries = v.get("items").unwrap().as_arr().unwrap();
        let cached = |i: usize| entries[i].get("cached").unwrap().as_bool().unwrap();
        assert!(!cached(0), "first occurrence races");
        assert!(cached(1), "duplicate generate spec replays");
        assert!(!cached(3), "distinct seed is its own race");
        // Item 2 names the same instance via the gen-* grammar: it is a
        // different spelling, so it may race separately — but the cache
        // key is the canonical hash, so at most one extra race runs and
        // the answers agree.
        assert_eq!(
            entries[1].get("makespan").unwrap().as_u64(),
            entries[0].get("makespan").unwrap().as_u64()
        );
        let stats = service.stats();
        assert!(
            stats.solved <= 3,
            "4 items, 2 unique specs of one key + 1 distinct: at most 3 races, got {}",
            stats.solved
        );
        assert!(stats.cache_hits >= 1);
        service.shutdown();
    }

    #[test]
    fn bad_gen_name_parameters_get_the_generator_error() {
        // A name in the gen-* grammar with an invalid parameter space
        // must surface GenSpec::check's message, not "unknown named
        // instance".
        let service = Service::bind(tiny_config()).unwrap();
        let addr = service.local_addr();
        let responses = send_lines(
            addr,
            &[
                r#"{"instance":{"name":"gen-job-20000x3-s1"}}"#.to_string(),
                r#"{"instance":{"name":"gen-flow-5x3-s1-t9x2"}}"#.to_string(),
                r#"{"instance":{"name":"gen-job-6x6"}}"#.to_string(), // bad grammar
            ],
        );
        let err = |i: usize| {
            crate::json::parse(&responses[i])
                .unwrap()
                .get("error")
                .unwrap()
                .as_str()
                .unwrap()
                .to_string()
        };
        assert!(err(0).contains("capped"), "{}", err(0));
        assert!(err(1).contains("min_time"), "{}", err(1));
        assert!(err(2).contains("unknown named instance"), "{}", err(2));
        assert_eq!(service.stats().errors, 3);
        service.shutdown();
    }

    #[test]
    fn batch_reports_per_item_errors_without_failing_the_batch() {
        let service = Service::bind(tiny_config()).unwrap();
        let addr = service.local_addr();
        let batch = concat!(
            r#"{"cmd":"batch","items":["#,
            r#"{"instance":{"name":"nope"}},"#,
            r#"{"generate":{"family":"job","jobs":0,"machines":2}},"#,
            r#"{"instance":{"name":"flow05"}}"#,
            r#"],"deadline_ms":2000}"#
        );
        let responses = send_lines(addr, &[batch.to_string()]);
        let v = crate::json::parse(&responses[0]).unwrap();
        assert_eq!(v.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(v.get("count").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("ok").unwrap().as_u64(), Some(1));
        let entries = v.get("items").unwrap().as_arr().unwrap();
        assert_eq!(entries[0].get("status").unwrap().as_str(), Some("error"));
        assert_eq!(entries[1].get("status").unwrap().as_str(), Some("error"));
        assert_eq!(entries[2].get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(
            v.get("telemetry").unwrap().get("errors").unwrap().as_u64(),
            Some(2)
        );
        assert_eq!(service.stats().errors, 2);
        service.shutdown();
    }

    /// The backpressure contract end to end: a saturated racer pool
    /// makes cold solves fail fast with `code:"busy"` (well within the
    /// request deadline — no hang), while cached hits keep being
    /// served, and the pool recovers once the load passes.
    #[test]
    fn saturated_pool_returns_busy_and_still_serves_cached_hits() {
        let service = Service::bind(ServeConfig {
            workers: 3,
            racers: 3,
            racer_pool: 1,
            max_queue_depth: 1,
            gen_cap: u64::MAX, // unreachable cap: races run to their deadline
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = service.local_addr();
        // Prime a cache entry under a small budget while the pool is
        // idle (2 s deadline, but ft06 races finish earlier only via
        // deadline here, so the entry is deadline-bound with budget
        // 800 ms — replayable for any request of budget <= 800 ms).
        let prime = encode_request(&SolveRequest {
            id: None,
            instance: InstanceSpec::Named("flow05".into()),
            objective: Objective::Makespan,
            seed: 3,
            deadline_ms: 800,
            trace: false,
        });
        send_lines(addr, &[prime]);

        // Saturate: a long cold race occupies the inline slot of one
        // worker and parks its 2 remaining members on the pool (depth
        // hits 1 as soon as the single racer thread picks one up).
        let long = encode_request(&SolveRequest {
            id: Some("long".into()),
            instance: InstanceSpec::Named("ft06".into()),
            objective: Objective::Makespan,
            seed: 77,
            deadline_ms: 2_500,
            trace: false,
        });
        std::thread::scope(|s| {
            let saturator = s.spawn(|| send_lines(addr, std::slice::from_ref(&long)));
            // Give the long race time to be admitted and queue its
            // members.
            std::thread::sleep(Duration::from_millis(400));
            assert!(service.queue_depth() >= 1, "pool must be saturated");

            // A cold solve must now be refused fast with code busy.
            let cold = encode_request(&SolveRequest {
                id: Some("cold".into()),
                instance: InstanceSpec::Named("la01".into()),
                objective: Objective::Makespan,
                seed: 5,
                deadline_ms: 2_000,
                trace: false,
            });
            let asked = Instant::now();
            let resp = send_lines(addr, &[cold]);
            let answered_in = asked.elapsed();
            let v = crate::json::parse(&resp[0]).unwrap();
            assert_eq!(v.get("status").unwrap().as_str(), Some("error"));
            assert_eq!(v.get("code").unwrap().as_str(), Some("busy"));
            assert!(v.get("queue_depth").unwrap().as_u64().unwrap() >= 1);
            assert!(
                answered_in < Duration::from_millis(1_000),
                "busy must be immediate (took {answered_in:?}), not a hang"
            );

            // A cached hit (budget <= the primed 800 ms) is still
            // answered while saturated.
            let cached = encode_request(&SolveRequest {
                id: Some("hit".into()),
                instance: InstanceSpec::Named("flow05".into()),
                objective: Objective::Makespan,
                seed: 3,
                deadline_ms: 500,
                trace: false,
            });
            let hit = send_lines(addr, &[cached]);
            let v = crate::json::parse(&hit[0]).unwrap();
            assert_eq!(v.get("status").unwrap().as_str(), Some("ok"));
            assert_eq!(v.get("cached").unwrap().as_bool(), Some(true));

            let responses = saturator.join().unwrap();
            let v = crate::json::parse(&responses[0]).unwrap();
            assert_eq!(v.get("status").unwrap().as_str(), Some("ok"));
        });

        let stats = service.stats();
        assert_eq!(stats.busy_rejections, 1);
        assert!(stats.cache_hits >= 1);
        // Deadline cancellation freed the queued members: once the
        // long race's deadline passed, its stranded tasks drain.
        let waited = Instant::now();
        while service.queue_depth() > 0 && waited.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(service.queue_depth(), 0, "cancellation frees pool slots");
        // And the recovered pool admits cold solves again.
        let retry = encode_request(&SolveRequest {
            id: None,
            instance: InstanceSpec::Named("la01".into()),
            objective: Objective::Makespan,
            seed: 5,
            deadline_ms: 300,
            trace: false,
        });
        let resp = send_lines(addr, &[retry]);
        let v = crate::json::parse(&resp[0]).unwrap();
        assert_eq!(v.get("status").unwrap().as_str(), Some("ok"));
        service.shutdown();
    }

    #[test]
    fn stats_report_pool_and_admission_configuration() {
        let service = Service::bind(ServeConfig {
            workers: 2,
            racer_pool: 2,
            max_queue_depth: 7,
            ..ServeConfig::default()
        })
        .unwrap();
        assert_eq!(service.racer_pool_size(), 2);
        let addr = service.local_addr();
        let responses = send_lines(addr, &[r#"{"cmd":"stats"}"#.to_string()]);
        let v = crate::json::parse(&responses[0]).unwrap();
        assert_eq!(v.get("racer_pool").unwrap().as_u64(), Some(2));
        assert_eq!(v.get("max_queue_depth").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("queue_depth").unwrap().as_u64(), Some(0));
        assert_eq!(v.get("busy_rejections").unwrap().as_u64(), Some(0));
        assert!(v.get("pool_wait_us").unwrap().as_u64().is_some());
        service.shutdown();
    }

    #[test]
    fn session_lifecycle_over_tcp() {
        let service = Service::bind(ServeConfig {
            workers: 2,
            gen_cap: 60,
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = service.local_addr();
        let responses = send_lines(
            addr,
            &[
                // Non-job families cannot open sessions.
                r#"{"cmd":"session_open","instance":{"name":"flow05"},"deadline_ms":2000}"#
                    .to_string(),
                r#"{"id":"o","cmd":"session_open","instance":{"name":"ft06"},"seed":42,"deadline_ms":2000}"#
                    .to_string(),
            ],
        );
        let err = crate::json::parse(&responses[0]).unwrap();
        assert_eq!(err.get("status").unwrap().as_str(), Some("error"));
        assert!(err
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("job-shop"));
        let opened = crate::json::parse(&responses[1]).unwrap();
        assert_eq!(opened.get("status").unwrap().as_str(), Some("ok"));
        let sid = opened.get("session").unwrap().as_str().unwrap().to_string();
        assert_eq!(opened.get("now").unwrap().as_u64(), Some(0));
        let mk = opened.get("makespan").unwrap().as_u64().unwrap();

        // A breakdown event: answered ok, winner's value never worse
        // than repair's, clock advanced, session mutated.
        let from = mk / 4;
        let responses = send_lines(
            addr,
            &[
                format!(
                    r#"{{"id":"e1","cmd":"session_event","session":"{sid}","event":{{"type":"breakdown","machine":2,"from":{from},"duration":{}}},"deadline_ms":1500}}"#,
                    mk / 3
                ),
                format!(r#"{{"cmd":"session_get","session":"{sid}"}}"#),
                r#"{"cmd":"stats"}"#.to_string(),
                format!(r#"{{"cmd":"session_close","session":"{sid}"}}"#),
                format!(r#"{{"cmd":"session_close","session":"{sid}"}}"#),
            ],
        );
        let event = crate::json::parse(&responses[0]).unwrap();
        assert_eq!(
            event.get("status").unwrap().as_str(),
            Some("ok"),
            "{event:?}"
        );
        assert_eq!(event.get("now").unwrap().as_u64(), Some(from));
        assert_eq!(event.get("events").unwrap().as_u64(), Some(1));
        let value = event.get("value").unwrap().as_f64().unwrap();
        let repair = event.get("repair_value").unwrap().as_f64().unwrap();
        assert!(
            value <= repair,
            "winner {value} must not lose to repair {repair}"
        );
        let winner = event.get("winner").unwrap().as_str().unwrap();
        assert!(winner == "repair" || winner == "resolve");

        // session_get replays the incumbent the event installed.
        let got = crate::json::parse(&responses[1]).unwrap();
        assert_eq!(got.get("value").unwrap().as_f64(), Some(value));
        assert_eq!(
            got.get("schedule").unwrap().encode(),
            event.get("schedule").unwrap().encode()
        );

        let stats = crate::json::parse(&responses[2]).unwrap();
        assert_eq!(stats.get("sessions_open").unwrap().as_u64(), Some(1));
        assert_eq!(stats.get("sessions_opened").unwrap().as_u64(), Some(1));
        assert_eq!(stats.get("session_events").unwrap().as_u64(), Some(1));
        let wins = stats.get("session_repair_wins").unwrap().as_u64().unwrap()
            + stats.get("session_resolve_wins").unwrap().as_u64().unwrap();
        assert_eq!(wins, 1);

        let closed = crate::json::parse(&responses[3]).unwrap();
        assert_eq!(closed.get("closed").unwrap().as_bool(), Some(true));
        assert_eq!(closed.get("events").unwrap().as_u64(), Some(1));
        let gone = crate::json::parse(&responses[4]).unwrap();
        assert_eq!(gone.get("code").unwrap().as_str(), Some("unknown_session"));
        assert_eq!(service.session_gauges().open, 0, "registry drains on close");
        service.shutdown();
    }

    #[test]
    fn session_events_validate_against_the_session_clock() {
        let service = Service::bind(ServeConfig {
            workers: 1,
            gen_cap: 40,
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = service.local_addr();
        let responses = send_lines(
            addr,
            &[
                r#"{"cmd":"session_open","instance":{"name":"ft06"},"seed":1,"deadline_ms":1000}"#
                    .to_string(),
            ],
        );
        let sid = crate::json::parse(&responses[0])
            .unwrap()
            .get("session")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        let event = |body: &str| {
            format!(
                r#"{{"cmd":"session_event","session":"{sid}","event":{body},"deadline_ms":400}}"#
            )
        };
        let responses = send_lines(
            addr,
            &[
                event(r#"{"type":"breakdown","machine":1,"from":30,"duration":10}"#),
                // Clock at 30 now: an earlier event must be refused.
                event(r#"{"type":"breakdown","machine":1,"from":10,"duration":5}"#),
                // Unknown machine.
                event(r#"{"type":"breakdown","machine":99,"from":40,"duration":5}"#),
                // Revising an op that started before the event time.
                event(r#"{"type":"revision","at":31,"job":0,"op":0,"duration":9}"#),
                format!(r#"{{"cmd":"session_get","session":"{sid}"}}"#),
            ],
        );
        assert_eq!(
            crate::json::parse(&responses[0])
                .unwrap()
                .get("status")
                .unwrap()
                .as_str(),
            Some("ok")
        );
        for (i, why) in [
            (1, "stale clock"),
            (2, "unknown machine"),
            (3, "started op"),
        ] {
            let v = crate::json::parse(&responses[i]).unwrap();
            assert_eq!(v.get("status").unwrap().as_str(), Some("error"), "{why}");
        }
        // The failed events left the session at one applied event.
        let got = crate::json::parse(&responses[4]).unwrap();
        assert_eq!(got.get("events").unwrap().as_u64(), Some(1));
        assert_eq!(got.get("now").unwrap().as_u64(), Some(30));
        service.shutdown();
    }

    #[test]
    fn busy_degraded_event_reports_deadline_bound_in_session_get() {
        let service = Service::bind(ServeConfig {
            workers: 2,
            gen_cap: 60,
            max_queue_depth: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = service.local_addr();
        let responses = send_lines(
            addr,
            &[
                r#"{"cmd":"session_open","instance":{"name":"ft06"},"seed":5,"deadline_ms":2000}"#
                    .to_string(),
            ],
        );
        let opened = crate::json::parse(&responses[0]).unwrap();
        assert_eq!(
            opened.get("status").unwrap().as_str(),
            Some("ok"),
            "{opened:?}"
        );
        let sid = opened.get("session").unwrap().as_str().unwrap().to_string();
        let mk = opened.get("makespan").unwrap().as_u64().unwrap();

        // Saturate the racer pool so the event's re-solve leg is shed:
        // one gated job per racer thread occupies every slot, and two
        // more sit queued, holding `queue_depth` over the admission
        // limit for as long as the gate stays closed.
        let gate = Arc::new((Mutex::new(false), std::sync::Condvar::new()));
        let cancel = Arc::new(crate::scheduler::CancelToken::default());
        let job_deadline = Instant::now() + Duration::from_secs(30);
        for _ in 0..service.racer_pool_size() + 2 {
            let gate = Arc::clone(&gate);
            service.shared.pool.submit(
                job_deadline,
                Arc::clone(&cancel),
                Box::new(move |_run| {
                    let (lock, cv) = &*gate;
                    let mut open = lock.lock().unwrap();
                    while !*open {
                        open = cv.wait(open).unwrap();
                    }
                }),
            );
        }
        for _ in 0..400 {
            if service.queue_depth() >= 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(service.queue_depth() >= 1, "pool saturation did not take");

        let responses = send_lines(
            addr,
            &[format!(
                r#"{{"id":"e1","cmd":"session_event","session":"{sid}","event":{{"type":"breakdown","machine":1,"from":{},"duration":{}}},"deadline_ms":500}}"#,
                mk / 4,
                mk / 3
            )],
        );
        let event = crate::json::parse(&responses[0]).unwrap();
        assert_eq!(
            event.get("status").unwrap().as_str(),
            Some("ok"),
            "{event:?}"
        );
        assert_eq!(event.get("resolve_skipped").unwrap().as_str(), Some("busy"));
        assert_eq!(event.get("winner").unwrap().as_str(), Some("repair"));
        assert_eq!(event.get("deadline_bound").unwrap().as_bool(), Some(true));
        let value = event.get("value").unwrap().as_f64().unwrap();
        assert_eq!(
            Some(value),
            event.get("repair_value").unwrap().as_f64(),
            "a shed re-solve answers with the repaired schedule"
        );

        // The regression under test: session_get must replay the busy
        // event's degraded incumbent — the repaired value, flagged
        // deadline_bound — not a stale or settled view of it.
        let responses = send_lines(
            addr,
            &[format!(r#"{{"cmd":"session_get","session":"{sid}"}}"#)],
        );
        let got = crate::json::parse(&responses[0]).unwrap();
        assert_eq!(
            got.get("deadline_bound").unwrap().as_bool(),
            Some(true),
            "{got:?}"
        );
        assert_eq!(got.get("value").unwrap().as_f64(), Some(value));
        assert_eq!(
            got.get("schedule").unwrap().encode(),
            event.get("schedule").unwrap().encode()
        );

        // Release the pool: the next event gets its re-solve slot and
        // the session settles back to deadline_bound=false.
        {
            let (lock, cv) = &*gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
        cancel.cancel();
        for _ in 0..400 {
            if service.queue_depth() == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let responses = send_lines(
            addr,
            &[
                format!(
                    r#"{{"cmd":"session_event","session":"{sid}","event":{{"type":"breakdown","machine":0,"from":{},"duration":5}},"deadline_ms":2000}}"#,
                    mk / 2
                ),
                format!(r#"{{"cmd":"session_get","session":"{sid}"}}"#),
            ],
        );
        let second = crate::json::parse(&responses[0]).unwrap();
        assert_eq!(
            second.get("status").unwrap().as_str(),
            Some("ok"),
            "{second:?}"
        );
        let settled = crate::json::parse(&responses[1]).unwrap();
        assert_eq!(
            settled.get("deadline_bound").unwrap().as_bool(),
            Some(false),
            "a full-budget event settles the session again: {settled:?}"
        );
        service.shutdown();
    }

    #[test]
    fn sessions_expire_by_ttl_and_count_in_stats() {
        let service = Service::bind(ServeConfig {
            workers: 1,
            gen_cap: 30,
            session_ttl_ms: 80,
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = service.local_addr();
        let responses = send_lines(
            addr,
            &[
                r#"{"cmd":"session_open","instance":{"name":"ft06"},"seed":2,"deadline_ms":1000}"#
                    .to_string(),
            ],
        );
        let sid = crate::json::parse(&responses[0])
            .unwrap()
            .get("session")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        assert_eq!(service.session_gauges().open, 1);
        std::thread::sleep(Duration::from_millis(200));
        let responses = send_lines(
            addr,
            &[
                format!(r#"{{"cmd":"session_get","session":"{sid}"}}"#),
                r#"{"cmd":"stats"}"#.to_string(),
            ],
        );
        let v = crate::json::parse(&responses[0]).unwrap();
        assert_eq!(v.get("code").unwrap().as_str(), Some("unknown_session"));
        let stats = crate::json::parse(&responses[1]).unwrap();
        assert_eq!(stats.get("sessions_open").unwrap().as_u64(), Some(0));
        assert_eq!(stats.get("sessions_expired").unwrap().as_u64(), Some(1));
        service.shutdown();
    }

    /// A scratch WAL directory, removed on drop.
    struct TmpWalDir(std::path::PathBuf);

    impl TmpWalDir {
        fn new(tag: &str) -> TmpWalDir {
            let dir = std::env::temp_dir().join(format!("pga-wal-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            TmpWalDir(dir)
        }

        fn path(&self) -> String {
            self.0.to_string_lossy().into_owned()
        }
    }

    impl Drop for TmpWalDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    // The TTL-vs-durability regression: an idle-expired session whose
    // log is on disk must come back via replay — bit-identically — not
    // answer `unknown_session`, and stats must count the recovery.
    #[test]
    fn expired_session_with_wal_recovers_via_replay() {
        let tmp = TmpWalDir::new("ttl");
        let service = Service::bind(ServeConfig {
            workers: 1,
            gen_cap: 30,
            session_ttl_ms: 80,
            wal_dir: Some(tmp.path()),
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = service.local_addr();
        let responses = send_lines(
            addr,
            &[
                r#"{"cmd":"session_open","instance":{"name":"ft06"},"seed":2,"deadline_ms":1000}"#
                    .to_string(),
            ],
        );
        let opened = crate::json::parse(&responses[0]).unwrap();
        let sid = opened.get("session").unwrap().as_str().unwrap().to_string();
        let responses = send_lines(
            addr,
            &[format!(
                r#"{{"cmd":"session_event","session":"{sid}","event":{{"type":"breakdown","machine":2,"from":10,"duration":12}},"deadline_ms":1000}}"#
            )],
        );
        let event = crate::json::parse(&responses[0]).unwrap();
        assert_eq!(event.get("status").unwrap().as_str(), Some("ok"));
        std::thread::sleep(Duration::from_millis(200));
        assert_eq!(service.session_gauges().open, 0, "session must expire");
        let responses = send_lines(
            addr,
            &[
                format!(r#"{{"cmd":"session_get","session":"{sid}"}}"#),
                r#"{"cmd":"stats"}"#.to_string(),
            ],
        );
        let got = crate::json::parse(&responses[0]).unwrap();
        assert_eq!(got.get("status").unwrap().as_str(), Some("ok"), "{got:?}");
        assert_eq!(got.get("events").unwrap().as_u64(), Some(1));
        assert_eq!(got.get("now").unwrap().as_u64(), Some(10));
        assert_eq!(
            got.get("value").unwrap().as_f64(),
            event.get("value").unwrap().as_f64()
        );
        assert_eq!(
            got.get("schedule").unwrap().encode(),
            event.get("schedule").unwrap().encode(),
            "replayed incumbent must be bit-identical"
        );
        assert_eq!(got.get("windows").unwrap().encode(), "[[2,10,22]]");
        let stats = crate::json::parse(&responses[1]).unwrap();
        assert_eq!(stats.get("sessions_recovered").unwrap().as_u64(), Some(1));
        assert_eq!(stats.get("wal_replays").unwrap().as_u64(), Some(2));
        assert!(stats.get("wal_appends").unwrap().as_u64().unwrap() >= 2);
        service.shutdown();
    }

    #[test]
    fn session_events_returns_the_ordered_log() {
        let service = Service::bind(tiny_config()).unwrap();
        let addr = service.local_addr();
        let responses = send_lines(
            addr,
            &[
                r#"{"cmd":"session_open","instance":{"name":"ft06"},"seed":5,"deadline_ms":1000}"#
                    .to_string(),
            ],
        );
        let sid = crate::json::parse(&responses[0])
            .unwrap()
            .get("session")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        let responses = send_lines(
            addr,
            &[
                format!(
                    r#"{{"cmd":"session_event","session":"{sid}","event":{{"type":"breakdown","machine":1,"from":8,"duration":6}},"deadline_ms":800}}"#
                ),
                format!(
                    r#"{{"cmd":"session_event","session":"{sid}","event":{{"type":"job_arrival","at":15,"route":[[0,5],[3,7]]}},"deadline_ms":800}}"#
                ),
                format!(r#"{{"id":"log","cmd":"session_events","session":"{sid}"}}"#),
                r#"{"cmd":"session_events","session":"sess-unknown"}"#.to_string(),
            ],
        );
        let second = crate::json::parse(&responses[1]).unwrap();
        assert_eq!(second.get("status").unwrap().as_str(), Some("ok"));
        let log = crate::json::parse(&responses[2]).unwrap();
        assert_eq!(log.get("id").unwrap().as_str(), Some("log"));
        assert_eq!(log.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(log.get("events").unwrap().as_u64(), Some(2));
        let rows = log.get("log").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("seq").unwrap().as_u64(), Some(1));
        assert_eq!(
            rows[0].get("event").unwrap().get("type").unwrap().as_str(),
            Some("breakdown")
        );
        assert_eq!(rows[1].get("seq").unwrap().as_u64(), Some(2));
        assert_eq!(
            rows[1].get("event").unwrap().get("type").unwrap().as_str(),
            Some("job_arrival")
        );
        // The last row mirrors the session's incumbent summary.
        assert_eq!(
            rows[1].get("value").unwrap().as_f64(),
            second.get("value").unwrap().as_f64()
        );
        let missing = crate::json::parse(&responses[3]).unwrap();
        assert_eq!(
            missing.get("code").unwrap().as_str(),
            Some("unknown_session")
        );
        service.shutdown();
    }

    #[test]
    fn shutdown_command_stops_the_service() {
        let service = Service::bind(tiny_config()).unwrap();
        let addr = service.local_addr();
        let responses = send_lines(addr, &[r#"{"cmd":"shutdown"}"#.to_string()]);
        let v = crate::json::parse(&responses[0]).unwrap();
        assert_eq!(v.get("shutting_down").unwrap().as_bool(), Some(true));
        // wait() returns because the protocol shutdown stopped every
        // thread; afterwards new connections are refused eventually.
        service.wait();
    }

    #[test]
    fn concurrent_connections_are_served() {
        let service = Service::bind(tiny_config()).unwrap();
        let addr = service.local_addr();
        let mk = |seed: u64| {
            encode_request(&SolveRequest {
                id: None,
                instance: InstanceSpec::Named("open_latin3".into()),
                objective: Objective::Makespan,
                seed,
                deadline_ms: 2_000,
                trace: false,
            })
        };
        std::thread::scope(|s| {
            for seed in 0..4u64 {
                let req = mk(seed);
                s.spawn(move || {
                    let resp = send_lines(addr, &[req]);
                    let v = crate::json::parse(&resp[0]).unwrap();
                    assert_eq!(v.get("status").unwrap().as_str(), Some("ok"));
                });
            }
        });
        assert_eq!(service.stats().solved, 4);
        service.shutdown();
    }

    /// Every legacy `ServiceStats` field must read back identically
    /// through the metrics registry — the snapshot is a *view*, not a
    /// second set of counters that could drift.
    #[test]
    fn stats_snapshot_matches_metrics_registry() {
        let service = Service::bind(tiny_config()).unwrap();
        let addr = service.local_addr();
        let req = encode_request(&SolveRequest {
            id: None,
            instance: InstanceSpec::Named("flow05".into()),
            objective: Objective::Makespan,
            seed: 11,
            deadline_ms: 1_000,
            trace: false,
        });
        send_lines(addr, &[req.clone(), req, "nonsense".to_string()]);
        let snap = service.stats();
        let reg = service.registry();
        for (name, value) in [
            ("serve_requests_total", snap.requests),
            ("serve_solved_total", snap.solved),
            ("serve_cache_hits_total", snap.cache_hits),
            ("serve_cache_misses_total", snap.cache_misses),
            ("serve_errors_total", snap.errors),
            ("serve_busy_rejections_total", snap.busy_rejections),
            ("serve_queue_wait_us_total", snap.queue_wait_us),
            ("serve_pool_wait_us_total", snap.pool_wait_us),
            ("serve_session_events_total", snap.session_events),
            ("serve_session_repair_wins_total", snap.session_repair_wins),
            (
                "serve_session_resolve_wins_total",
                snap.session_resolve_wins,
            ),
            (
                "serve_session_resolve_busy_total",
                snap.session_resolve_busy,
            ),
            ("serve_wal_appends_total", snap.wal_appends),
            ("serve_wal_replays_total", snap.wal_replays),
        ] {
            assert_eq!(reg.value(name), Some(value), "{name} drifted");
        }
        assert_eq!(snap.requests, 3);
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.errors, 1);
        service.shutdown();
    }

    #[test]
    fn metrics_command_exposes_json_and_text() {
        let service = Service::bind(tiny_config()).unwrap();
        let addr = service.local_addr();
        let solve = encode_request(&SolveRequest {
            id: None,
            instance: InstanceSpec::Named("flow05".into()),
            objective: Objective::Makespan,
            seed: 4,
            deadline_ms: 1_000,
            trace: false,
        });
        let responses = send_lines(
            addr,
            &[
                solve,
                r#"{"cmd":"stats"}"#.to_string(),
                r#"{"cmd":"metrics"}"#.to_string(),
            ],
        );
        let stats = crate::json::parse(&responses[1]).unwrap();
        let metrics = crate::json::parse(&responses[2]).unwrap();
        assert_eq!(metrics.get("status").unwrap().as_str(), Some("ok"));
        let json = metrics.get("json").expect("json exposition");
        // The exposition must round-trip every legacy stats field. The
        // metrics request itself is the one extra request since the
        // stats snapshot was taken.
        assert_eq!(
            json.get("serve_requests_total").and_then(Json::as_u64),
            stats.get("requests").and_then(Json::as_u64).map(|n| n + 1)
        );
        for (wire, metric) in [
            ("solved", "serve_solved_total"),
            ("cache_hits", "serve_cache_hits_total"),
            ("cache_misses", "serve_cache_misses_total"),
            ("errors", "serve_errors_total"),
            ("busy_rejections", "serve_busy_rejections_total"),
            ("queue_wait_us", "serve_queue_wait_us_total"),
            ("pool_wait_us", "serve_pool_wait_us_total"),
            ("session_events", "serve_session_events_total"),
            ("session_repair_wins", "serve_session_repair_wins_total"),
            ("session_resolve_wins", "serve_session_resolve_wins_total"),
            ("session_resolve_busy", "serve_session_resolve_busy_total"),
            ("wal_appends", "serve_wal_appends_total"),
            ("wal_replays", "serve_wal_replays_total"),
            ("sessions_recovered", "serve_sessions_recovered"),
        ] {
            assert_eq!(
                json.get(metric).and_then(Json::as_u64),
                stats.get(wire).and_then(Json::as_u64),
                "{metric} must match stats.{wire}"
            );
        }
        // Labelled families, gauges and histograms ride along.
        assert_eq!(
            json.get("serve_requests_by_type_total{type=\"solve\"}")
                .and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(
            json.get("serve_solved_by_family_total{family=\"flow\"}")
                .and_then(Json::as_u64),
            Some(1)
        );
        assert!(json.get("serve_uptime_ms").is_some());
        assert!(
            json.get("serve_request_us")
                .and_then(|h| h.get("count"))
                .and_then(Json::as_u64)
                .is_some_and(|n| n >= 1),
            "request latency histogram observed the solve"
        );
        let text = metrics.get("text").unwrap().as_str().unwrap();
        assert!(text.contains("# TYPE serve_requests_total counter"));
        assert!(text.contains("# TYPE serve_request_us histogram"));
        assert!(text.contains("serve_requests_by_type_total{type=\"solve\"} 1"));
        // The stats body itself gained uptime and version.
        assert!(stats.get("uptime_ms").is_some());
        assert_eq!(
            stats.get("version").unwrap().as_str(),
            Some(env!("CARGO_PKG_VERSION"))
        );
        service.shutdown();
    }

    /// A traced solve returns the request's span tree inline and
    /// retains it for `trace_dump`; the race leg carries per-member
    /// anytime timelines.
    #[test]
    fn traced_solve_attaches_spans_and_timelines() {
        let service = Service::bind(tiny_config()).unwrap();
        let addr = service.local_addr();
        let mk = |trace: bool| {
            encode_request(&SolveRequest {
                id: None,
                instance: InstanceSpec::Named("flow05".into()),
                objective: Objective::Makespan,
                seed: 21,
                deadline_ms: 1_500,
                trace,
            })
        };
        let responses = send_lines(
            addr,
            &[
                mk(true),
                mk(false),
                mk(true),
                r#"{"cmd":"trace_dump"}"#.to_string(),
            ],
        );
        let cold = crate::json::parse(&responses[0]).unwrap();
        let trace = cold.get("trace").expect("traced solve returns a trace");
        assert_eq!(trace.get("kind").unwrap().as_str(), Some("solve"));
        let spans = trace.get("spans").unwrap().as_arr().unwrap();
        let names: Vec<&str> = spans
            .iter()
            .filter_map(|s| s.get("name").and_then(Json::as_str))
            .collect();
        for expected in ["parse", "cache_lookup", "admission", "race"] {
            assert!(
                names.contains(&expected),
                "missing span {expected}: {names:?}"
            );
        }
        // At least one member span with a non-empty anytime timeline
        // whose points are (elapsed_us, best) with non-increasing best.
        let member = spans
            .iter()
            .find(|s| {
                s.get("name")
                    .and_then(Json::as_str)
                    .is_some_and(|n| n.starts_with("member/"))
            })
            .expect("race records member spans");
        let points = member.get("timeline").unwrap().as_arr().unwrap();
        assert!(!points.is_empty(), "anytime timeline has points");
        let values: Vec<f64> = points
            .iter()
            .filter_map(|p| p.as_arr().and_then(|xy| xy[1].as_f64()))
            .collect();
        assert!(values.windows(2).all(|w| w[1] <= w[0]), "{values:?}");
        // Untraced requests stay clean; a traced cache hit records the
        // lookup but no race.
        let untraced = crate::json::parse(&responses[1]).unwrap();
        assert!(untraced.get("trace").is_none());
        let hit = crate::json::parse(&responses[2]).unwrap();
        let hit_spans = hit.get("trace").unwrap().get("spans").unwrap();
        let hit_names: Vec<&str> = hit_spans
            .as_arr()
            .unwrap()
            .iter()
            .filter_map(|s| s.get("name").and_then(Json::as_str))
            .collect();
        assert!(hit_names.contains(&"cache_lookup"));
        assert!(!hit_names.contains(&"race"));
        // The ring retained both traced requests, oldest first.
        let dump = crate::json::parse(&responses[3]).unwrap();
        assert_eq!(dump.get("count").unwrap().as_u64(), Some(2));
        let traces = dump.get("traces").unwrap().as_arr().unwrap();
        assert_eq!(
            traces[0].get("id").unwrap().as_u64(),
            trace.get("id").unwrap().as_u64()
        );
        service.shutdown();
    }

    /// The acceptance path: a traced disruption shows the repair and
    /// re-solve legs as distinct spans, with each race member's anytime
    /// points riding on its member span.
    #[test]
    fn traced_session_event_shows_repair_and_resolve_legs() {
        let service = Service::bind(tiny_config()).unwrap();
        let addr = service.local_addr();
        let responses = send_lines(
            addr,
            &[
                r#"{"cmd":"session_open","instance":{"name":"ft06"},"seed":7,"deadline_ms":1500,"trace":true}"#
                    .to_string(),
            ],
        );
        let opened = crate::json::parse(&responses[0]).unwrap();
        assert_eq!(opened.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(
            opened.get("trace").unwrap().get("kind").unwrap().as_str(),
            Some("session_open")
        );
        let sid = opened.get("session").unwrap().as_str().unwrap().to_string();
        let mk = opened.get("makespan").unwrap().as_u64().unwrap();
        let responses = send_lines(
            addr,
            &[format!(
                r#"{{"cmd":"session_event","session":"{sid}","event":{{"type":"breakdown","machine":1,"from":{},"duration":{}}},"deadline_ms":1200,"trace":true}}"#,
                mk / 4,
                mk / 3
            )],
        );
        let event = crate::json::parse(&responses[0]).unwrap();
        assert_eq!(event.get("status").unwrap().as_str(), Some("ok"));
        let trace = event.get("trace").expect("traced event returns a trace");
        assert_eq!(trace.get("kind").unwrap().as_str(), Some("session_event"));
        let spans = trace.get("spans").unwrap().as_arr().unwrap();
        let span = |name: &str| {
            spans
                .iter()
                .find(|s| s.get("name").and_then(Json::as_str) == Some(name))
        };
        let repair = span("repair").expect("distinct repair span");
        let resolve = span("resolve").expect("distinct resolve span");
        assert!(repair.get("value").unwrap().as_f64().is_some());
        assert!(resolve.get("value").unwrap().as_f64().is_some());
        let timelines = spans
            .iter()
            .filter(|s| {
                s.get("name")
                    .and_then(Json::as_str)
                    .is_some_and(|n| n.starts_with("member/"))
            })
            .count();
        assert!(timelines >= 1, "re-solve race records member timelines");
        service.shutdown();
    }

    /// Sends one request and reads streamed lines until a terminal one:
    /// a `{"frame":"answer",...}` object or a frame-less line (error
    /// bodies). Returns every line read, terminal included.
    fn watch_lines(addr: SocketAddr, line: &str) -> Vec<String> {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream.set_nodelay(true).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        writeln!(writer, "{line}").unwrap();
        writer.flush().unwrap();
        let mut lines = Vec::new();
        loop {
            let mut l = String::new();
            if reader.read_line(&mut l).unwrap() == 0 {
                panic!("connection closed before a terminal frame: {lines:?}");
            }
            let l = l.trim().to_string();
            let frame = crate::json::parse(&l)
                .ok()
                .and_then(|j| j.get("frame").and_then(Json::as_str).map(String::from));
            let terminal = !matches!(frame.as_deref(), Some(f) if f != "answer");
            lines.push(l);
            if terminal {
                return lines;
            }
        }
    }

    /// The frame kinds of a streamed transcript, in order.
    fn frame_kinds(lines: &[String]) -> Vec<String> {
        lines
            .iter()
            .filter_map(|l| {
                crate::json::parse(l)
                    .ok()?
                    .get("frame")?
                    .as_str()
                    .map(String::from)
            })
            .collect()
    }

    /// A watched solve streams convergence frames and ends with an
    /// answer bit-identical to an unwatched run of the same request;
    /// the race also populates the phase histograms and the cost-model
    /// drift gauge.
    #[test]
    fn watched_solve_streams_frames_then_bit_identical_answer() {
        let req = encode_request(&SolveRequest {
            id: None,
            instance: InstanceSpec::Named("flow05".into()),
            objective: Objective::Makespan,
            seed: 33,
            deadline_ms: 2_000,
            trace: false,
        });
        // Reference run on its own service: own cache, own pool, no
        // watch hooks anywhere near the race.
        let bare = Service::bind(tiny_config()).unwrap();
        let reference =
            crate::json::parse(&send_lines(bare.local_addr(), std::slice::from_ref(&req))[0])
                .unwrap();
        bare.shutdown();

        let service = Service::bind(tiny_config()).unwrap();
        let addr = service.local_addr();
        let watch_req = crate::protocol::encode_watch(&WatchTarget::Solve(
            crate::protocol::parse_request(&req)
                .ok()
                .and_then(|r| match r {
                    Request::Solve(s) => Some(*s),
                    _ => None,
                })
                .unwrap(),
        ));
        let lines = watch_lines(addr, &watch_req);
        let kinds = frame_kinds(&lines);
        assert!(kinds.contains(&"start".to_string()), "{kinds:?}");
        let sample_at = kinds.iter().position(|k| k == "sample");
        let answer_at = kinds.iter().position(|k| k == "answer");
        assert!(
            sample_at.is_some_and(|s| answer_at.is_some_and(|a| s < a)),
            "a convergence sample precedes the answer: {kinds:?}"
        );
        let sample = crate::json::parse(&lines[sample_at.unwrap()]).unwrap();
        for field in ["generation", "evaluations", "best", "mean", "diversity"] {
            assert!(sample.get(field).is_some(), "sample carries {field}");
        }
        let answer = crate::json::parse(lines.last().unwrap()).unwrap();
        assert_eq!(answer.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(
            answer.get("value").unwrap(),
            reference.get("value").unwrap()
        );
        assert_eq!(
            answer.get("schedule").unwrap(),
            reference.get("schedule").unwrap()
        );

        // A watched cache hit races nothing: the answer frame arrives
        // alone. The connection stayed usable after the first stream —
        // this request rides the same socket in a fresh connection.
        let replay = watch_lines(addr, &watch_req);
        assert_eq!(frame_kinds(&replay), vec!["answer".to_string()]);
        let hit = crate::json::parse(&replay[0]).unwrap();
        assert_eq!(hit.get("cached").unwrap().as_bool(), Some(true));

        // The cold race fed the profiler: phase histograms and the
        // drift gauge for the solved family are populated.
        let metrics =
            crate::json::parse(&send_lines(addr, &[r#"{"cmd":"metrics"}"#.to_string()])[0])
                .unwrap();
        let text = metrics.get("text").unwrap().as_str().unwrap();
        let count_line = text
            .lines()
            .find(|l| l.starts_with(r#"serve_phase_us_count{family="flow",phase="evaluate"}"#))
            .expect("evaluate phase histogram exposed");
        let count: u64 = count_line.rsplit(' ').next().unwrap().parse().unwrap();
        assert!(count >= 1, "{count_line}");
        let drift_line = text
            .lines()
            .find(|l| l.starts_with(r#"serve_cost_model_drift_milli{family="flow"}"#))
            .expect("drift gauge exposed");
        let drift: u64 = drift_line.rsplit(' ').next().unwrap().parse().unwrap();
        assert!(drift > 0, "{drift_line}");
        let stats =
            crate::json::parse(&send_lines(addr, &[r#"{"cmd":"stats"}"#.to_string()])[0]).unwrap();
        assert_eq!(
            stats
                .get("cost_model_drift_milli")
                .unwrap()
                .get("flow")
                .unwrap()
                .as_u64(),
            Some(drift)
        );
        service.shutdown();
    }

    /// The spans of the trace a streamed answer frame carries.
    fn answer_spans(lines: &[String]) -> Vec<Json> {
        let answer = crate::json::parse(lines.last().unwrap()).unwrap();
        assert_eq!(answer.get("frame").unwrap().as_str(), Some("answer"));
        let trace = answer.get("trace").expect("traced watch carries a trace");
        trace.get("spans").unwrap().as_arr().unwrap().to_vec()
    }

    /// A traced and watched solve: each `member/<model>` span is the
    /// recording of exactly that member's frames on the wire — its
    /// timeline is the `best` frames, its duration runs from the
    /// `start` to the `finish` frame, and its retained samples are
    /// `sample` frames.
    #[test]
    fn watched_trace_is_the_recording_of_the_stream() {
        // A pool slot per pooled member: none can be cancelled while
        // queued, so every member runs and records a span.
        let service = Service::bind(ServeConfig {
            racer_pool: 2,
            ..tiny_config()
        })
        .unwrap();
        let lines = watch_lines(
            service.local_addr(),
            r#"{"cmd":"watch","instance":{"name":"ft06"},"seed":19,"deadline_ms":20000,"trace":true}"#,
        );
        let frames: Vec<Json> = lines[..lines.len() - 1]
            .iter()
            .map(|l| crate::json::parse(l).unwrap())
            .collect();
        let members: Vec<Json> = answer_spans(&lines)
            .into_iter()
            .filter(|s| {
                s.get("name")
                    .and_then(Json::as_str)
                    .is_some_and(|n| n.starts_with("member/"))
            })
            .collect();
        assert_eq!(members.len(), 3, "a cap-bound race records every member");
        for span in &members {
            let model = &span.get("name").unwrap().as_str().unwrap()["member/".len()..];
            let of = |kind: &str| -> Vec<&Json> {
                frames
                    .iter()
                    .filter(|f| {
                        f.get("model").and_then(Json::as_str) == Some(model)
                            && f.get("frame").and_then(Json::as_str) == Some(kind)
                    })
                    .collect()
            };
            let us = |f: &Json| f.get("elapsed_us").unwrap().as_u64().unwrap();
            let bests: Vec<Json> = of("best")
                .into_iter()
                .map(|f| Json::Arr(vec![us(f).into(), f.get("value").unwrap().clone()]))
                .collect();
            assert!(!bests.is_empty(), "{model} streamed its starting best");
            assert_eq!(span.get("timeline").unwrap().as_arr().unwrap(), &bests[..]);
            let (start, finish) = (of("start"), of("finish"));
            assert_eq!((start.len(), finish.len()), (1, 1), "{model}");
            assert_eq!(
                span.get("dur_us").unwrap().as_u64().unwrap(),
                us(finish[0]) - us(start[0]),
                "{model}"
            );
            let streamed: Vec<Json> = of("sample")
                .into_iter()
                .map(|f| match f {
                    // A sample frame is the sample object behind the
                    // frame/member/model header.
                    Json::Obj(fields) => Json::Obj(fields[3..].to_vec()),
                    other => panic!("frame is not an object: {other:?}"),
                })
                .collect();
            let retained = span.get("samples").unwrap().as_arr().unwrap();
            assert!(!retained.is_empty(), "{model} retained samples");
            for s in retained {
                assert!(streamed.contains(s), "{model} retained {s:?}");
            }
        }
        service.shutdown();
    }

    /// A traced watch reports the time spent parsing its request line,
    /// like any other traced request.
    #[test]
    fn traced_watch_reports_its_parse_time() {
        let family = shop::gen::Family::Flow;
        let inst = shop::gen::GenSpec::new(family, 200, 50, 3)
            .build()
            .unwrap()
            .instance;
        let req = crate::protocol::encode_watch(&WatchTarget::Solve(SolveRequest {
            id: None,
            instance: InstanceSpec::Inline {
                family,
                text: inst.text(),
            },
            objective: Objective::Makespan,
            seed: 1,
            deadline_ms: 200,
            trace: true,
        }));
        assert!(req.len() > 20_000, "{} request bytes", req.len());
        let service = Service::bind(tiny_config()).unwrap();
        let lines = watch_lines(service.local_addr(), &req);
        let spans = answer_spans(&lines);
        let parse = spans
            .iter()
            .find(|s| s.get("name").and_then(Json::as_str) == Some("parse"))
            .expect("parse span");
        assert!(parse.get("dur_us").unwrap().as_u64().unwrap() > 0);
        service.shutdown();
    }

    /// A second connection can attach to an in-flight watched race by
    /// request id: it replays every frame streamed so far, follows the
    /// rest live, and sees the same terminal answer. Once the race
    /// finishes the id is gone.
    #[test]
    fn watch_attach_replays_the_stream_and_follows_live() {
        let service = Service::bind(ServeConfig {
            workers: 2,
            gen_cap: u64::MAX,
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = service.local_addr();
        // ft10's optimum sits above its lower bound, so the race runs
        // the full deadline — long enough to attach mid-flight.
        let watch_req =
            r#"{"cmd":"watch","id":"w-1","instance":{"name":"ft10"},"seed":5,"deadline_ms":1500}"#;
        let origin = std::thread::spawn(move || watch_lines(addr, watch_req));
        std::thread::sleep(Duration::from_millis(300));
        let attached = watch_lines(addr, r#"{"cmd":"watch","request":"w-1"}"#);
        let origin_lines = origin.join().unwrap();
        assert!(
            frame_kinds(&origin_lines)
                .iter()
                .filter(|k| *k == "sample")
                .count()
                >= 1,
            "origin saw samples"
        );
        // The channel mirrors the origin stream frame for frame.
        assert_eq!(attached, origin_lines);
        let gone = watch_lines(addr, r#"{"cmd":"watch","request":"w-1"}"#);
        assert_eq!(gone.len(), 1);
        let err = crate::json::parse(&gone[0]).unwrap();
        assert_eq!(err.get("status").unwrap().as_str(), Some("error"));
        service.shutdown();
    }

    /// Watching a session disruption streams the repair-vs-resolve
    /// race's frames and terminates with the ordinary event answer.
    #[test]
    fn watched_session_event_streams_resolve_race() {
        let service = Service::bind(tiny_config()).unwrap();
        let addr = service.local_addr();
        let opened = crate::json::parse(
            &send_lines(
                addr,
                &[
                    r#"{"cmd":"session_open","instance":{"name":"ft06"},"seed":3,"deadline_ms":1500}"#
                        .to_string(),
                ],
            )[0],
        )
        .unwrap();
        let sid = opened.get("session").unwrap().as_str().unwrap().to_string();
        let mk = opened.get("makespan").unwrap().as_u64().unwrap();
        let lines = watch_lines(
            addr,
            &format!(
                r#"{{"cmd":"watch","session":"{sid}","event":{{"type":"breakdown","machine":1,"from":{},"duration":{}}},"deadline_ms":1200}}"#,
                mk / 4,
                mk / 3
            ),
        );
        let kinds = frame_kinds(&lines);
        assert_eq!(kinds.last().map(String::as_str), Some("answer"));
        assert!(kinds.contains(&"start".to_string()), "{kinds:?}");
        let answer = crate::json::parse(lines.last().unwrap()).unwrap();
        assert_eq!(answer.get("status").unwrap().as_str(), Some("ok"));
        assert!(answer.get("winner").unwrap().as_str().is_some());
        service.shutdown();
    }

    /// A watch id already carried by an in-flight race is rejected
    /// with an error line: re-attach must be unambiguous, and the
    /// rejection must leave the running race's registration (and its
    /// stream) untouched.
    #[test]
    fn watch_rejects_a_duplicate_in_flight_id() {
        let service = Service::bind(ServeConfig {
            workers: 2,
            gen_cap: u64::MAX,
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = service.local_addr();
        let watch_req =
            r#"{"cmd":"watch","id":"dup","instance":{"name":"ft10"},"seed":5,"deadline_ms":1500}"#;
        let origin = std::thread::spawn(move || watch_lines(addr, watch_req));
        std::thread::sleep(Duration::from_millis(300));
        let clash = watch_lines(
            addr,
            r#"{"cmd":"watch","id":"dup","instance":{"name":"ft06"},"seed":1,"deadline_ms":400}"#,
        );
        assert_eq!(clash.len(), 1, "{clash:?}");
        let err = crate::json::parse(&clash[0]).unwrap();
        assert_eq!(err.get("status").unwrap().as_str(), Some("error"));
        assert!(
            err.get("error")
                .unwrap()
                .as_str()
                .unwrap()
                .contains("already in flight"),
            "{clash:?}"
        );
        let origin_lines = origin.join().unwrap();
        assert_eq!(
            frame_kinds(&origin_lines).last().map(String::as_str),
            Some("answer"),
            "the original race streamed to its answer untouched"
        );
        // The id is free again after the race finished.
        assert!(service.shared.watches.attach("dup").is_none());
        service.shutdown();
    }

    /// A watch handler that unwinds before `finish` (a panicking inline
    /// member is an expected failure mode) must not leak its hub
    /// registration or strand attached followers on the log's condvar.
    /// Dropping the subscription unfinished is exactly what the unwind
    /// does.
    #[test]
    fn watch_guard_unregisters_and_releases_followers_on_unwind() {
        let service = Service::bind(tiny_config()).unwrap();
        let hub = &service.shared.watches;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut server_side, _) = listener.accept().unwrap();
        let sub = hub
            .subscribe(Some("leak-1"), &server_side)
            .unwrap()
            .expect("fresh id registers");
        let log = hub.attach("leak-1").expect("registered while in flight");
        drop(sub);
        assert!(
            hub.attach("leak-1").is_none(),
            "unwind removes the hub entry"
        );
        // A follower's follow terminates instead of waiting forever.
        log.follow(&mut server_side).unwrap();
        service.shutdown();
    }

    /// `trace_dump` narrows by request type and session id.
    #[test]
    fn trace_dump_filters_by_type_and_session() {
        let service = Service::bind(tiny_config()).unwrap();
        let addr = service.local_addr();
        let opened = crate::json::parse(
            &send_lines(
                addr,
                &[
                    r#"{"cmd":"session_open","instance":{"name":"ft06"},"seed":11,"deadline_ms":1500,"trace":true}"#
                        .to_string(),
                ],
            )[0],
        )
        .unwrap();
        let sid = opened.get("session").unwrap().as_str().unwrap().to_string();
        let mk = opened.get("makespan").unwrap().as_u64().unwrap();
        let responses = send_lines(
            addr,
            &[
                format!(
                    r#"{{"cmd":"session_event","session":"{sid}","event":{{"type":"breakdown","machine":0,"from":{},"duration":{}}},"deadline_ms":800,"trace":true}}"#,
                    mk / 4,
                    mk / 4
                ),
                r#"{"instance":{"name":"flow05"},"seed":2,"deadline_ms":1000,"trace":true}"#
                    .to_string(),
                r#"{"cmd":"trace_dump","type":"solve"}"#.to_string(),
                format!(r#"{{"cmd":"trace_dump","session":"{sid}"}}"#),
                format!(r#"{{"cmd":"trace_dump","type":"session_event","session":"{sid}"}}"#),
                r#"{"cmd":"trace_dump","type":"watch"}"#.to_string(),
            ],
        );
        let kinds_of = |resp: &str| -> Vec<String> {
            crate::json::parse(resp)
                .unwrap()
                .get("traces")
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .map(|t| t.get("kind").unwrap().as_str().unwrap().to_string())
                .collect()
        };
        assert_eq!(kinds_of(&responses[2]), vec!["solve".to_string()]);
        // The session filter catches the open and the event, not the
        // unrelated solve.
        assert_eq!(
            kinds_of(&responses[3]),
            vec!["session_open".to_string(), "session_event".to_string()]
        );
        assert_eq!(kinds_of(&responses[4]), vec!["session_event".to_string()]);
        assert!(kinds_of(&responses[5]).is_empty());
        service.shutdown();
    }
}
