//! Service counters and metrics: the `stats` counters as handles into
//! the metrics registry, the histograms and labeled families behind
//! the `metrics` command, and the periodic stderr summary. The
//! registry is the only store of every count: `stats`, `metrics` and
//! the summary all read its cells.

use super::Shared;
use crate::obs::metrics::{Counter, Gauge, Histogram, Registry};
use crate::obs::phase::{PhaseAcc, PHASE_NAMES};
use crate::portfolio::decode_op_s;
use shop::gen::Family;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The service counts behind the `stats` reply (lock-free; read each
/// with `.get()` through [`super::Service::stats`]). Every field is a
/// handle to a cell of the metrics registry, registered at
/// construction as the `serve_<field>_total` counter. There is no
/// second copy, so `stats`, `metrics` and the periodic stderr summary
/// can never disagree.
///
/// `cache_hits` counts responses answered from the memoised solution
/// (including the rare validation-failure fallback); `cache_misses`
/// counts lookups that could not be replayed directly. A fallback
/// request increments both, so `cache_hits + cache_misses` can exceed
/// the number of solve requests by the (error-counted) fallbacks —
/// hit-rate consumers should divide by `requests` instead.
///
/// The session tallies satisfy `sessions_opened + sessions_recovered
/// = open + sessions_closed + sessions_expired + sessions_evicted`,
/// where `open` is the live map size
/// ([`crate::wal::SessionStore::open_count`]).
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
    /// Sessions ever opened by a `session_open`.
    pub sessions_opened: Arc<Counter>,
    /// Sessions closed by request.
    pub sessions_closed: Arc<Counter>,
    /// Sessions expired by idle TTL.
    pub sessions_expired: Arc<Counter>,
    /// Sessions evicted by the LRU capacity cap.
    pub sessions_evicted: Arc<Counter>,
    /// Sessions rebuilt from the write-ahead log.
    pub sessions_recovered: Arc<Counter>,
}

impl ServiceStats {
    /// Registers every stats cell in `registry` (names below) and
    /// returns the handles. Registration is idempotent by name, so a
    /// second call (the session store fetching the cells it counts
    /// into) returns the same cells.
    pub(crate) fn new(registry: &Registry) -> ServiceStats {
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
            sessions_opened: registry
                .counter("serve_sessions_opened_total", "sessions ever opened"),
            sessions_closed: registry
                .counter("serve_sessions_closed_total", "sessions explicitly closed"),
            sessions_expired: registry
                .counter("serve_sessions_expired_total", "sessions expired by TTL"),
            sessions_evicted: registry.counter(
                "serve_sessions_evicted_total",
                "sessions evicted by the LRU cap",
            ),
            sessions_recovered: registry.counter(
                "serve_sessions_recovered_total",
                "sessions rebuilt from the write-ahead log",
            ),
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
pub(super) const FAMILIES: [&str; 4] = ["flow", "job", "open", "flexible"];

/// Race member kinds of `serve_race_wins_total` (must match
/// `portfolio::ModelKind` names).
const MEMBERS: [&str; 3] = ["master_slave", "island", "cellular"];

/// Registry handles beyond the [`ServiceStats`] counters:
/// latency histograms, labeled counters (static label sets registered
/// once at bind), and the gauges the exposition path refreshes at
/// scrape time.
pub(super) struct ServeMetrics {
    /// End-to-end per-request latency (any request kind), µs.
    pub(super) request_us: Arc<Histogram>,
    /// Per-`session_event` latency (repair + optional re-solve), µs.
    pub(super) session_event_us: Arc<Histogram>,
    /// `serve_requests_by_type_total{type=...}` — one pre-registered
    /// counter per [`REQUEST_TYPES`] label.
    pub(super) by_type: Vec<(&'static str, Arc<Counter>)>,
    /// `serve_solved_by_family_total{family=...}` per [`FAMILIES`].
    pub(super) by_family: Vec<(&'static str, Arc<Counter>)>,
    /// `serve_race_wins_total{member=...}` per [`MEMBERS`].
    pub(super) race_wins: Vec<(&'static str, Arc<Counter>)>,
    /// `serve_phase_us{family=...,phase=...}` — per-cold-race
    /// search-phase time histograms, one per ([`FAMILIES`] ×
    /// [`PHASE_NAMES`]) pair.
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
    pub(super) watch_drops: Arc<Counter>,
    uptime_ms: Arc<Gauge>,
    cache_len: Arc<Gauge>,
    queue_depth: Arc<Gauge>,
    worker_panics: Arc<Gauge>,
    sessions_open: Arc<Gauge>,
    pub(super) workers: Arc<Gauge>,
    pub(super) racer_pool: Arc<Gauge>,
    pub(super) max_queue_depth: Arc<Gauge>,
    pub(super) max_sessions: Arc<Gauge>,
}

impl ServeMetrics {
    pub(super) fn new(registry: &Registry) -> ServeMetrics {
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
            workers: registry.gauge("serve_workers", "worker threads serving connections"),
            racer_pool: registry.gauge("serve_racer_pool", "persistent racer threads"),
            max_queue_depth: registry.gauge("serve_max_queue_depth", "admission limit"),
            max_sessions: registry.gauge("serve_max_sessions", "open-session cap"),
        }
    }

    /// The pre-registered counter for a static label value; `None` for
    /// a value outside the set fixed at bind.
    pub(super) fn labeled(
        set: &[(&'static str, Arc<Counter>)],
        value: &str,
    ) -> Option<Arc<Counter>> {
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
    pub(super) fn observe_race_profile(
        &self,
        family: Family,
        phases: &PhaseAcc,
        run_ns: u64,
        eval_ops: u64,
    ) {
        let name = family.name();
        let snapshot = phases.snapshot_ns();
        for (i, &p) in PHASE_NAMES.iter().enumerate() {
            // panic-safe: i < PHASE_NAMES.len() == snapshot_ns() length (5).
            if snapshot[i] == 0 {
                continue;
            }
            if let Some((_, h)) = self
                .phase_us
                .iter()
                .find(|((f, ph), _)| *f == name && *ph == p)
            {
                // panic-safe: as above — i indexes the fixed 5-phase array.
                h.observe(snapshot[i] / 1_000);
            }
        }
        if run_ns == 0 || eval_ops == 0 {
            return;
        }
        let Some((_, ns_acc, ops_acc)) = self.drift_acc.iter().find(|(f, _, _)| *f == name) else {
            return;
        };
        // Cumulative ratio: one slow outlier race cannot whipsaw the
        // gauge the way a per-race ratio would.
        let ns = ns_acc.fetch_add(run_ns, Ordering::Relaxed) + run_ns;
        let ops = ops_acc.fetch_add(eval_ops, Ordering::Relaxed) + eval_ops;
        let observed_ns_per_op = ns as f64 / ops as f64;
        let calibrated_ns_per_op = decode_op_s(family) * 1e9;
        let milli = (observed_ns_per_op / calibrated_ns_per_op * 1000.0).round();
        if let Some((_, g)) = self.drift_milli.iter().find(|(f, _)| *f == name) {
            g.set(milli.max(0.0) as u64);
        }
    }

    /// Current drift gauge for a family, in thousandths of the
    /// calibrated cost (0 = no profiled decode yet).
    pub(super) fn drift_reading(&self, family: &str) -> u64 {
        self.drift_milli
            .iter()
            .find(|(f, _)| *f == family)
            .map(|(_, g)| g.get())
            .unwrap_or(0)
    }
}

/// Prints a one-line service summary to stderr every
/// `metrics_interval_ms`, sleeping in short slices so shutdown is
/// observed promptly.
pub(super) fn metrics_summary_loop(shared: &Shared) {
    let interval = Duration::from_millis(shared.config.metrics_interval_ms.max(1));
    let mut last = Instant::now();
    while !shared.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(interval.as_millis().min(25) as u64));
        if last.elapsed() < interval {
            continue;
        }
        last = Instant::now();
        let s = &shared.stats;
        eprintln!(
            "[serve] up {}s: {} requests ({} solved, {} cache hits, {} errors, {} busy), \
             queue depth {}, {} sessions open, {} session events, {} worker panics",
            shared.started.elapsed().as_secs(),
            s.requests.get(),
            s.solved.get(),
            s.cache_hits.get(),
            s.errors.get(),
            s.busy_rejections.get(),
            shared.pool.queue_depth(),
            shared.sessions.open_count(),
            s.session_events.get(),
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

impl Shared {
    /// Sets the point-in-time gauges from their live sources (cache,
    /// pool, session map, clock) at exposition. Counts are never copied
    /// here: every counter and session tally is its own registry cell.
    pub(super) fn refresh_gauges(&self) {
        let m = &self.metrics;
        m.uptime_ms.set(self.started.elapsed().as_millis() as u64);
        m.cache_len.set(self.cache.len() as u64);
        m.queue_depth.set(self.pool.queue_depth() as u64);
        m.worker_panics.set(self.pool.panics());
        m.sessions_open.set(self.sessions.open_count());
    }
}
