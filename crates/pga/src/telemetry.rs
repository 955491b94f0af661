//! Structural run telemetry consumed by the `hpc` cost models.
//!
//! The surveyed speedup numbers come from hardware we do not have, so the
//! experiment harnesses replay a run's *structure* — how many evaluations
//! per generation, how much of the work is serial, how many migration
//! messages of what size — through a platform cost model. The parallel
//! models in this crate record that structure here.

use crate::{CellularGa, IslandGa, IslandsOfCellular};
use ga::engine::{Engine, Model};

/// Counters describing one run of any parallel GA model.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunTelemetry {
    /// Generations executed: model steps, where one island-model step
    /// advances every island by one generation.
    pub generations: u64,
    /// Total fitness evaluations.
    pub evaluations: u64,
    /// Migration (or neighbour-exchange) messages sent.
    pub messages: u64,
    /// Total migrated individuals (message payload, in genomes).
    pub migrants: u64,
    /// Number of parallel workers the model logically used.
    pub workers: usize,
    /// Strict best-so-far improvements during the run (the starting
    /// best is the baseline, not an improvement) — the points on an
    /// anytime convergence curve. Each model counts them in its own
    /// step, so bare and observed runs report the same number.
    pub improvements: u64,
    /// Decoder invocations behind this run's evaluations. A member of
    /// a `serve` portfolio race counts one per evaluation; a model run
    /// outside a race leaves it zero.
    pub decode_calls: u64,
    /// Genome positions timed by those decodes. Every decode is a full
    /// decode, so this is `decode_calls` times the genome length.
    pub retimed_positions: u64,
}

/// A [`Model`] that accounts its run structure in a [`RunTelemetry`].
pub trait Instrumented<G>: Model<G> {
    /// The structural counters of the run so far.
    fn telemetry(&self) -> RunTelemetry;
}

/// The panmictic engine as the master-slave model: one logical master,
/// whose fitness batch runs in index order on the calling thread.
impl<G: Clone> Instrumented<G> for Engine<'_, G> {
    fn telemetry(&self) -> RunTelemetry {
        RunTelemetry {
            generations: self.generation(),
            evaluations: self.evaluations(),
            improvements: self.improvements(),
            workers: 1,
            ..Default::default()
        }
    }
}

impl<G: Clone + Send + Sync> Instrumented<G> for IslandGa<'_, G> {
    fn telemetry(&self) -> RunTelemetry {
        self.telemetry.clone()
    }
}

impl<G: Clone + Send + Sync> Instrumented<G> for CellularGa<'_, G> {
    fn telemetry(&self) -> RunTelemetry {
        self.telemetry.clone()
    }
}

impl<G: Clone + Send + Sync> Instrumented<G> for IslandsOfCellular<'_, G> {
    fn telemetry(&self) -> RunTelemetry {
        self.telemetry.clone()
    }
}

/// Per-request telemetry for a *served* solve: what the anytime solver
/// service records about one request racing a portfolio of parallel
/// models against a deadline. Structural counters per model are the
/// same [`RunTelemetry`] the cost models consume.
#[derive(Debug, Clone, Default)]
pub struct RequestTelemetry {
    /// Time the request waited in the service's connection queue before
    /// a worker picked it up.
    pub queue_wait: std::time::Duration,
    /// Longest time any of the request's racer-pool tasks waited for a
    /// racer thread (zero for cache hits, single-member lineups, and
    /// races whose members all started immediately). Rising pool waits
    /// under load are the server-side signal that the racer pool — not
    /// the search itself — is the bottleneck.
    pub pool_wait: std::time::Duration,
    /// Wall-clock time spent solving (zero for cache hits).
    pub solve_time: std::time::Duration,
    /// Chromosome decodes (= fitness evaluations) across all portfolio
    /// members.
    pub decode_count: u64,
    /// Name of the portfolio member that produced the returned solution
    /// (`None` for cache hits). After a budget-upgrade merge this can
    /// name a member of the *earlier* race whose solution was kept,
    /// while `models` describes the race run for this request — join
    /// the two only for fresh (non-merged) solves.
    pub winning_model: Option<String>,
    /// Structural counters per portfolio member, by model name, for the
    /// race run by this request.
    pub models: Vec<(String, RunTelemetry)>,
    /// True when the response was served from the solution cache.
    pub cache_hit: bool,
}

impl RequestTelemetry {
    /// Sums decode counts from the per-model counters into
    /// `decode_count` and returns self (builder-style).
    pub fn with_decodes_from_models(mut self) -> Self {
        self.decode_count = self.models.iter().map(|(_, t)| t.evaluations).sum();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_telemetry_sums_model_decodes() {
        let t = RequestTelemetry {
            models: vec![
                (
                    "island".into(),
                    RunTelemetry {
                        evaluations: 120,
                        ..Default::default()
                    },
                ),
                (
                    "cellular".into(),
                    RunTelemetry {
                        evaluations: 80,
                        ..Default::default()
                    },
                ),
            ],
            ..Default::default()
        }
        .with_decodes_from_models();
        assert_eq!(t.decode_count, 200);
        assert!(!t.cache_hit);
    }
}
