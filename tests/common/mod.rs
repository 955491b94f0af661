//! Helpers shared by the facade-level integration suites.

use ga::crossover::RepCrossover;
use ga::engine::Toolkit;
use ga::mutate::SeqMutation;
use shop::instance::JobShopInstance;
use shop::Problem;

/// The job-shop bundle `serve::solver` races: operation sequences under
/// job-order crossover and swap mutation, built by the same `ga`
/// constructor, so every suite exercises the serve path's bundle.
pub fn opseq_toolkit(inst: &JobShopInstance) -> Toolkit<Vec<usize>> {
    Toolkit::repetition(
        inst.ops_per_job(),
        RepCrossover::JobOrder,
        SeqMutation::Swap,
    )
}
