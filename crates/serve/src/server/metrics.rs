//! Service counters and metrics: the `stats` counters as handles into
//! the metrics registry, and the histograms and labeled families
//! behind the `metrics` command. The registry is the only store of
//! every count: `stats` and `metrics` both read its cells. Each label
//! set belongs to the type it labels ([`Request::TYPES`],
//! [`Family::ALL`], [`ModelKind::NAMES`], [`PHASE_NAMES`]); none is
//! copied here.

use super::Shared;
use crate::obs::metrics::{Counter, Gauge, Histogram, Registry};
use crate::obs::phase::{PhaseAcc, PHASE_NAMES};
use crate::portfolio::{decode_op_s, ModelKind};
use crate::protocol::Request;
use shop::gen::Family;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The service counts behind the `stats` reply (lock-free; read each
/// with `.get()` through [`super::Service::stats`]). Every field is a
/// handle to a cell of the metrics registry, registered at
/// construction as the `serve_<field>_total` counter. There is no
/// second copy, so `stats` and `metrics` can never disagree.
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
    /// counter per [`Request::TYPES`] label.
    by_type: Vec<(&'static str, Arc<Counter>)>,
    /// `serve_solved_by_family_total{family=...}`, indexed by
    /// [`Family`].
    by_family: [Arc<Counter>; 4],
    /// `serve_race_wins_total{member=...}` per [`ModelKind::NAMES`]
    /// label.
    race_wins: Vec<(&'static str, Arc<Counter>)>,
    /// `serve_phase_us{family=...,phase=...}` — per-cold-race
    /// search-phase time histograms, indexed by [`Family`], then by
    /// [`PHASE_NAMES`] position.
    phase_us: [[Arc<Histogram>; 5]; 4],
    /// `serve_cost_model_drift_milli{family=...}` — cumulative member
    /// run ns per evaluated operation over the calibrated
    /// `hpc::calibrate` constant, in thousandths (1000 = exactly
    /// calibrated; 2000 = 2× slower), indexed by [`Family`].
    drift_milli: [Arc<Gauge>; 4],
    /// Drift accumulators per [`Family`]: summed member run
    /// nanoseconds and summed evaluated operations (`evaluations ×
    /// instance total_ops`) across every profiled race.
    drift_acc: [(AtomicU64, AtomicU64); 4],
    /// `serve_watch_frames_dropped_total` — frames dropped instead of
    /// blocking a race on a watch subscriber that stopped reading.
    pub(super) watch_drops: Arc<Counter>,
    uptime_ms: Arc<Gauge>,
    cache_len: Arc<Gauge>,
    queue_depth: Arc<Gauge>,
    worker_panics: Arc<Counter>,
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
                &Request::TYPES,
                "requests by wire request type",
            ),
            by_family: Family::ALL.map(|f| {
                registry.counter(
                    &format!("serve_solved_by_family_total{{family=\"{}\"}}", f.name()),
                    "completed races by instance family",
                )
            }),
            race_wins: labeled(
                "serve_race_wins_total",
                "member",
                &ModelKind::NAMES,
                "race wins by portfolio member kind",
            ),
            phase_us: Family::ALL.map(|f| {
                PHASE_NAMES.map(|p| {
                    registry.histogram(
                        &format!("serve_phase_us{{family=\"{}\",phase=\"{p}\"}}", f.name()),
                        "per-race search-phase time in microseconds",
                    )
                })
            }),
            drift_milli: Family::ALL.map(|f| {
                registry.gauge(
                    &format!("serve_cost_model_drift_milli{{family=\"{}\"}}", f.name()),
                    "observed per-op evaluation cost over the calibrated cost model, in \
                     thousandths",
                )
            }),
            drift_acc: Family::ALL.map(|_| (AtomicU64::new(0), AtomicU64::new(0))),
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
            worker_panics: registry.counter(
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

    /// Counts one request line under its `type` label.
    pub(super) fn count_request(&self, label: &str) {
        inc_labeled(&self.by_type, label);
    }

    /// Counts one race win under the winning member's label.
    pub(super) fn count_win(&self, model: &str) {
        inc_labeled(&self.race_wins, model);
    }

    /// Counts one completed race on a `family` instance.
    pub(super) fn count_solved(&self, family: Family) {
        // panic-safe: by_family has one cell per Family::ALL entry, and
        // ALL[f as usize] == f.
        self.by_family[family as usize].inc();
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
        let f = family as usize;
        // panic-safe: phase_us has one row per Family::ALL entry, and
        // ALL[f] == family.
        for (h, ns) in self.phase_us[f].iter().zip(phases.snapshot_ns()) {
            if ns > 0 {
                h.observe(ns / 1_000);
            }
        }
        if run_ns == 0 || eval_ops == 0 {
            return;
        }
        // panic-safe: drift_acc has one entry per Family::ALL entry.
        let (ns_acc, ops_acc) = &self.drift_acc[f];
        // Cumulative ratio: one slow outlier race cannot whipsaw the
        // gauge the way a per-race ratio would.
        let ns = ns_acc.fetch_add(run_ns, Ordering::Relaxed) + run_ns;
        let ops = ops_acc.fetch_add(eval_ops, Ordering::Relaxed) + eval_ops;
        let observed_ns_per_op = ns as f64 / ops as f64;
        let calibrated_ns_per_op = decode_op_s(family) * 1e9;
        let milli = (observed_ns_per_op / calibrated_ns_per_op * 1000.0).round();
        // panic-safe: drift_milli has one gauge per Family::ALL entry.
        self.drift_milli[f].set(milli.max(0.0) as u64);
    }

    /// Current drift gauge for a family, in thousandths of the
    /// calibrated cost (0 = no profiled race yet).
    pub(super) fn drift_reading(&self, family: Family) -> u64 {
        // panic-safe: drift_milli has one gauge per Family::ALL entry.
        self.drift_milli[family as usize].get()
    }
}

/// Adds one to the counter of `label` in a label set fixed at bind; a
/// label outside the set counts nowhere.
fn inc_labeled(set: &[(&'static str, Arc<Counter>)], label: &str) {
    if let Some((_, c)) = set.iter().find(|(l, _)| *l == label) {
        c.inc();
    }
}

impl Shared {
    /// Sets the point-in-time gauges from their live sources (cache,
    /// pool, session map, clock) at exposition, and raises the worker
    /// panic counter to the pool's own tally (the one count kept
    /// outside the registry). Every other counter and session tally is
    /// its own registry cell.
    pub(super) fn refresh_gauges(&self) {
        let m = &self.metrics;
        m.uptime_ms.set(self.started.elapsed().as_millis() as u64);
        m.cache_len.set(self.cache.len() as u64);
        m.queue_depth.set(self.pool.queue_depth() as u64);
        m.worker_panics.raise_to(self.pool.panics());
        m.sessions_open.set(self.sessions.open_count());
    }
}
