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
//!   reply, the `metrics` exposition and the periodic stderr summary
//!   all read its cells.
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
//!   per-family `serve_phase_us` histograms and the
//!   `serve_cost_model_drift_milli` gauges that compare observed ns/op
//!   against the calibrated `hpc::calibrate` constants.
//!
//! Overhead budget: an untraced request pays a handful of relaxed
//! atomic increments and two `Instant::now` calls; tracing is opt-in
//! per request (`"trace": true`) and bounded by the improvement count,
//! which the o01 bench lane holds to within 5% of untraced cold-solve
//! throughput — the bound now also covers the phase timers and a live
//! watch subscriber.

pub mod metrics;
pub mod phase;
pub mod trace;
