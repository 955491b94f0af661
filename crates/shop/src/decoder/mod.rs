//! Schedule builders ("decoders") that turn chromosome-level decisions
//! into feasible schedules, one module per shop family.
//!
//! The survey's Section III.A describes the two classic styles:
//! *direct* encodings whose genes are a job/operation ordering (decoded
//! semi-actively here), and *indirect* encodings whose genes are
//! priorities (random keys decoded through the Giffler–Thompson
//! procedure in [`job`]).

pub mod flexible;
pub mod flow;
pub mod heuristics;
pub mod job;
pub mod open;
pub mod table;
