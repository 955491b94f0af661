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
//!
//! Layout by concern: this module holds the configuration, the
//! connection loops and request dispatch (with the `stats`, `metrics`
//! and `trace_dump` bodies); `solve` the cache-aware solve core and the
//! solve, generate, batch and watch handlers; `sessions` the session
//! handlers over [`crate::wal::SessionStore`], which owns the session
//! registry and its durability; `metrics` the counters, histograms and
//! the periodic stderr summary.

use crate::cache::ShardedCache;
use crate::json::{obj, Json};
use crate::obs::metrics::Registry;
use crate::obs::trace::{Trace, TraceRing};
use crate::protocol::{encode_error, extended, parse_request, Request, WatchTarget};
use crate::scheduler::RacerPool;
use crate::session::SessionGauges;
use crate::wal::SessionStore;
use crate::watch::WatchHub;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

mod metrics;
mod sessions;
mod solve;
#[path = "../server_tests.rs"]
mod tests;

use metrics::{metrics_summary_loop, ServeMetrics, FAMILIES};
pub use metrics::{ServiceStats, StatsSnapshot};
use sessions::{
    handle_session_close, handle_session_events, handle_session_get, handle_session_open,
    session_event_body,
};
use solve::{handle_batch, handle_generate, handle_solve, handle_watch};

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
    /// Dynamic-rescheduling sessions and their write-ahead log (see
    /// [`crate::session`] and [`crate::wal`]).
    sessions: SessionStore,
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
        let sessions = SessionStore::new(&config, &stats, Arc::clone(&metrics.wal_append_us))?;
        let shared = Arc::new(Shared {
            cache: ShardedCache::new(config.cache_capacity, config.cache_shards),
            pool: RacerPool::new(config.racer_pool),
            sessions,
            traces: TraceRing::new(config.trace_ring),
            watches: WatchHub::default(),
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
        let mut threads = vec![spawn("serve-acceptor".into(), &shared, move |s| {
            acceptor_loop(listener, s)
        })];
        for i in 0..shared.config.workers {
            threads.push(spawn(format!("serve-worker-{i}"), &shared, worker_loop));
        }
        if shared.config.metrics_interval_ms > 0 {
            threads.push(spawn("serve-metrics".into(), &shared, metrics_summary_loop));
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

/// Spawns a named service thread running `body` over the shared state.
fn spawn(
    name: String,
    shared: &Arc<Shared>,
    body: impl FnOnce(&Shared) + Send + 'static,
) -> std::thread::JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(name)
        .spawn(move || body(&shared))
        .expect("spawn service thread") // panic-safe: bind-time startup, before any request
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
            let cfg = &shared.config;
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
                ("workers", (cfg.workers as u64).into()),
                ("racer_pool", (shared.pool.size() as u64).into()),
                ("queue_depth", (shared.pool.queue_depth() as u64).into()),
                ("max_queue_depth", (cfg.max_queue_depth as u64).into()),
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
                ("max_sessions", (cfg.max_sessions as u64).into()),
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
        Ok(Request::SessionEvent(req)) => {
            let body = session_event_body(&req, parse_us, None, shared);
            (body.encode(), false)
        }
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
    extended(body, [("trace", rendered)])
}
