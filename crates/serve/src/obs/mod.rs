//! Zero-dependency observability: a process-wide metrics registry
//! (lock-free counters, gauges and log2 histograms with a
//! Prometheus-style text exposition) and bounded per-request tracing
//! (timestamped spans plus per-race-member anytime-improvement
//! timelines).
//!
//! Everything here is plain `std` — atomics, one short mutex around the
//! trace ring — because the service's zero-dependency contract extends
//! to its instrumentation. The design splits along the two classic
//! axes:
//!
//! - [`metrics`]: *aggregate* state. Counters and gauges are single
//!   relaxed atomics; histograms are fixed arrays of per-bucket atomics
//!   (no allocation, no locking on the hot path). The
//!   [`metrics::Registry`] hands out `Arc` handles at service start and
//!   renders every registered series as JSON or Prometheus text on
//!   demand. It is the only store of every service count: the `stats`
//!   reply and the `metrics` exposition both read its cells.
//! - [`trace`]: *per-request* state. A [`trace::Trace`] is built by the
//!   one worker thread handling the request (no synchronisation), race
//!   members emit one [`trace::Frame`] stream that a traced race
//!   records into improvement timelines and per-generation convergence
//!   samples, and finished traces land in a bounded
//!   [`trace::TraceRing`] that evicts oldest-first.
//! - [`phase`]: *per-race* time accounting. A [`phase::PhaseAcc`] is a
//!   fixed set of relaxed atomics one race's members add
//!   select/breed/evaluate/migrate/decode nanoseconds into via the
//!   member observer's `on_phase`; the server folds the totals into
//!   per-family `serve_phase_us` histograms.
//!
//! Overhead budget: an untraced request pays a handful of relaxed
//! atomic increments and two `Instant::now` calls. Every cold solve is
//! also phase-profiled, which reads the clock three times per pair of
//! children and twice per decode. Tracing is opt-in per request
//! (`"trace": true`) and bounded by the improvement count. The o01
//! bench lane checks the served (profiled), traced and fully observed
//! modes each against a 5% bound on a bare race's wall time.

pub mod metrics;
pub mod phase;
pub mod trace;
