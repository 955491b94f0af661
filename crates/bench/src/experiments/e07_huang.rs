//! E07 — Huang, Huang & Lai \[24\]: fuzzy flow shop (fuzzy processing
//! times and due dates, possibility/necessity objectives), random-key
//! chromosomes with parameterized uniform crossover and the a%/b%/c%
//! immigration split, CUDA island-per-block with *no migration*.
//!
//! Paper outcome: ~19x speedup at 200 jobs on a GTX 285 vs the CPU GA,
//! while the modified GA keeps improving the fuzzy agreement objective.

use crate::report::{fmt, Report};
use crate::toolkits::run_shape;
use ga::crossover::keys::keys_to_permutation;
use ga::crossover::KeysCrossover;
use ga::engine::{GaConfig, Toolkit};
use ga::fitness::FitnessTransform;
use ga::termination::Termination;
use hpc::model::{island_time, sequential_time, speedup};
use hpc::Platform;
use pga::island::{IslandConfig, IslandGa};
use pga::migration::MigrationConfig;
use shop::fuzzy::FuzzyFlowShop;
use shop::instance::generate::{flow_shop_taillard, GenConfig};

pub fn run() -> Report {
    // The paper's headline case is 200 jobs; we run 40 jobs for the real
    // GA (host is a single core) and model the 200-job shape for speed.
    let crisp = flow_shop_taillard(&GenConfig::new(40, 5, 0xE07));
    let fuzzy = FuzzyFlowShop::from_crisp(&crisp, 0.2, 1.6);
    // Minimise 1 - agreement (possibility/necessity mix, lambda = 0.5).
    let eval = move |keys: &Vec<f64>| {
        let perm = keys_to_permutation(keys);
        1.0 - fuzzy.agreement(&perm, 0.5)
    };

    // Island-per-block, no migration, with the immigration split
    // (a% elites, b% crossover offspring, c% immigrants).
    let base = GaConfig {
        pop_size: 32,
        elites: 3,              // a ~ 10%
        immigration_rate: 0.15, // c ~ 15%
        crossover_rate: 0.9,
        fitness: FitnessTransform::PopulationGap,
        seed: 0xE07,
        ..GaConfig::default()
    };
    let mut islands = IslandGa::homogeneous(
        base,
        8,
        &|_| Toolkit::random_keys(40, KeysCrossover::ParamUniform(0.7)),
        &eval,
        IslandConfig::new(MigrationConfig::ring(0, 0)), // no migration
    );
    let start = islands.best().cost;
    ga::run(&mut islands, &Termination::Generations(40), &mut ());
    let end = islands.best().cost;

    // 200-job speed model on a GTX 285 (240 cores): one chromosome per
    // block, random keys resident in shared memory (the paper's memory
    // design), so the run is effectively device-resident.
    let crisp200 = flow_shop_taillard(&GenConfig::new(200, 10, 0xE07));
    let fuzzy200 = FuzzyFlowShop::from_crisp(&crisp200, 0.2, 1.6);
    let eval200 = move |keys: &Vec<f64>| {
        let perm = keys_to_permutation(keys);
        1.0 - fuzzy200.agreement(&perm, 0.5)
    };
    let sample: Vec<f64> = (0..200).map(|i| (i as f64) / 200.0).collect();
    let shape = run_shape(100, 256, 200.0 * 8.0, &sample, &eval200);
    let t_seq = sequential_time(&shape);
    let gpu = Platform::cuda_gpu_resident(240, 0.1);
    let t_gpu = island_time(&shape, 256, 0, 0, 0, &gpu);
    let sp = speedup(t_seq, t_gpu);

    Report {
        id: "E07",
        title: "Huang [24]: fuzzy flow shop, random keys + immigration, CUDA blocks",
        paper_claim: "~19x speedup at 200 jobs (GTX 285) for the modified GA with random keys, parameterized uniform crossover and immigration; no migration between blocks",
        columns: vec!["metric", "value"],
        rows: vec![
            vec!["1 - agreement, start".into(), format!("{start:.4}")],
            vec!["1 - agreement, after 40 gens x 8 blocks".into(), format!("{end:.4}")],
            vec!["migration messages (must be 0)".into(), islands.telemetry.messages.to_string()],
            vec!["predicted GPU speedup @ 200 jobs".into(), format!("{}x", fmt(sp))],
        ],
        shape_holds: end < start
            && islands.telemetry.messages == 0
            && sp > 8.0
            && sp < 60.0,
        notes: "Fuzzy arithmetic, possibility and necessity measures in shop::fuzzy; the \
                agreement objective is the paper's bi-measure criterion. The GPU figure \
                uses the device-resident island model (one chromosome per block, keys in \
                shared memory), matching the paper's memory layout."
            .into(),
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn shape_holds() {
        let r = super::run();
        assert!(r.shape_holds, "{}", r.to_text());
    }
}
