//! # serve — an anytime solver service for shop scheduling
//!
//! The request/response layer on top of the `shop` / `ga` / `pga` /
//! `hpc` stack: a long-lived multi-threaded TCP service that accepts
//! scheduling instances, races a **portfolio** of the survey's parallel
//! GA models (master-slave, island, cellular — lineup picked per
//! instance size by the `hpc` cost models) against a wall-clock
//! **deadline**, and returns the best feasible schedule found —
//! **anytime** behaviour via `ga::termination::Termination::Deadline`
//! plus cooperative best-so-far reporting. Races run on a
//! **persistent racer pool** ([`scheduler`]) sized from the host's
//! core count: compute threads are bounded by the hardware rather
//! than by request volume, expired queued work is cancelled in O(1),
//! and past the admission limit cold solves are shed with an explicit
//! `busy` wire error while cached traffic keeps flowing. Results are memoised in an
//! LRU **solution cache** keyed by the canonical instance hash
//! (`shop::instance::hash`), objective and seed, so repeated traffic is
//! served in microseconds with responses that are bit-identical between
//! budget upgrades. Each entry remembers the budget it was solved
//! under: a request whose deadline outgrows a deadline-bound entry is
//! re-raced (keeping the better solution) instead of being
//! short-changed with a replay — after which identical requests replay
//! the improved answer.
//!
//! Beyond single solves, the service is a **workload engine**: a
//! `batch` request solves up to 1024 items under one shared deadline,
//! fanned out across the worker pool with per-item telemetry and full
//! cache integration, and a `generate` request mints a reproducible
//! instance from `{family, dims, seed}` via the `shop::gen`
//! generator subsystem — generated instances are addressable by
//! canonical `gen-*` names anywhere an instance name is accepted.
//!
//! The service is also a **live scheduler**: a `session_open` request
//! solves a job-shop instance and registers a stateful
//! dynamic-rescheduling session ([`session`]) holding the instance,
//! the incumbent schedule and a virtual clock; `session_event`
//! requests then apply disruptions — machine breakdowns, job
//! arrivals, processing-time revisions — each answered within a
//! per-event deadline by racing instant *right-shift repair* against a
//! *frozen-prefix GA re-solve* warm-started from the incumbent
//! (`ga::engine::Toolkit::with_warm_start` + `shop::dynamic`), keeping
//! whichever schedule is better. Sessions live in a TTL/LRU registry
//! and surface gauges through `stats`.
//!
//! With `--wal-dir` the session tier is a **system of record**: every
//! open and accepted event is appended to a per-session
//! length-prefixed, checksummed write-ahead log ([`wal`]), fsync'd
//! before the wire answer, compacted into snapshots on a cadence, and
//! replayed bit-identically at restart (or lazily on first touch — a
//! TTL-expired session with a log on disk is recovered, not
//! `unknown_session`). A `session_events` request returns the whole
//! ordered event journal in one round trip.
//!
//! The wire protocol is line-delimited JSON over TCP (hand-rolled
//! [`json`] module — no external dependencies, consistent with the
//! workspace's offline-shim policy); see [`protocol`] for the request
//! and response shapes, `docs/PROTOCOL.md` for the complete wire
//! reference with copy-pasteable transcripts, and `pga-shop-serve
//! --help` for the bundled binary. DESIGN.md §5 documents the
//! protocol, portfolio policy and cache-key canonicalisation; §6 the
//! generator subsystem.

#![warn(missing_docs)]

pub mod cache;
pub mod json;
pub mod obs;
pub mod portfolio;
pub mod protocol;
pub mod scheduler;
pub mod server;
pub mod session;
pub mod solver;
pub mod wal;
mod watch;

pub use cache::{CacheKey, CachedSolve, ShardedCache, SolutionCache};
pub use json::Json;
pub use obs::metrics::{Counter, Gauge, Histogram, Registry};
pub use obs::phase::{PhaseAcc, PHASE_NAMES};
pub use obs::trace::{
    Frame, GenerationSample, MemberTrace, Payload, Span, Trace, TraceRing, WatchSink,
};
pub use portfolio::{plan_lineup, price_lineup, BestSoFar, ModelKind};
pub use protocol::{
    encode_watch, BatchItem, BatchRequest, BatchSource, Family, GenerateRequest, InstanceSpec,
    Objective, Request, SessionEventRequest, SessionOpenRequest, SessionRef, Solution,
    SolveRequest, WatchTarget, MAX_BATCH_ITEMS,
};
pub use scheduler::{CancelToken, RacerPool};
pub use server::{ServeConfig, Service, ServiceStats};
pub use session::{EventOutcome, JournalEntry, ResolveSkip, SessionEntry, SessionState};
pub use solver::{load_instance, solve, solve_hooked, LoadedInstance, SolveHooks, SolveOutcome};
pub use wal::{RecoverOutcome, RecoveredSession, SessionStore, Wal, WalConfig};
