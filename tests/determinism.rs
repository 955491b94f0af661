//! Determinism contract: identical `rand_chacha` seeds must produce
//! identical results for every parallel model, regardless of how many
//! times (or in what environment) the run is repeated. This is the
//! workspace-wide reproducibility guarantee the pga crate documents:
//! per-worker streams are derived with `ga::rng::split_seed`, so thread
//! scheduling can never leak into the trajectory, and the rayon
//! master-slave evaluator reduces on the single-threaded path.

use ga::engine::{Engine, GaConfig};
use ga::stats::History;
use ga::termination::Termination;
use pga::cellular::{CellularConfig, CellularGa};
use pga::island::{IslandConfig, IslandGa};
use pga::master_slave::RayonEvaluator;
use pga::migration::MigrationConfig;
use shop::decoder::job::JobDecoder;
use shop::instance::classic;

mod common;
use common::opseq_toolkit;

fn cfg(pop: usize, seed: u64) -> GaConfig {
    GaConfig {
        pop_size: pop,
        seed,
        ..GaConfig::default()
    }
}

#[test]
fn island_ga_is_deterministic_for_fixed_seed() {
    let bench = classic::ft06();
    let inst = &bench.instance;
    let decoder = JobDecoder::new(inst);
    let eval = move |seq: &Vec<usize>| decoder.semi_active_makespan(seq) as f64;
    let run = |seed: u64| {
        let mut ig = IslandGa::homogeneous(
            cfg(12, seed),
            4,
            &|_| opseq_toolkit(inst),
            &eval,
            IslandConfig::new(MigrationConfig::ring(5, 2)),
        );
        let best = ga::run(&mut ig, &Termination::Generations(40), &mut ());
        (best.cost, best.genome)
    };
    let (c1, g1) = run(2024);
    let (c2, g2) = run(2024);
    assert_eq!(c1, c2, "island best makespan diverged for identical seeds");
    assert_eq!(g1, g2, "island best genome diverged for identical seeds");
    // A different seed explores a different trajectory (not a constant
    // function of the instance).
    let (_, g3) = run(2025);
    assert_ne!(g1, g3, "different seeds produced identical genomes");
}

#[test]
fn cellular_ga_is_deterministic_for_fixed_seed() {
    let bench = classic::ft06();
    let inst = &bench.instance;
    let decoder = JobDecoder::new(inst);
    let eval = move |seq: &Vec<usize>| decoder.semi_active_makespan(seq) as f64;
    let run = |seed: u64| {
        let mut cga = CellularGa::new(CellularConfig::new(4, 4, seed), opseq_toolkit(inst), &eval);
        let best = ga::run(&mut cga, &Termination::Generations(40), &mut ());
        (best.cost, best.genome)
    };
    let (c1, g1) = run(7);
    let (c2, g2) = run(7);
    assert_eq!(
        c1, c2,
        "cellular best makespan diverged for identical seeds"
    );
    assert_eq!(g1, g2, "cellular best genome diverged for identical seeds");
}

#[test]
fn rayon_master_slave_is_deterministic_and_matches_sequential() {
    let bench = classic::la01();
    let inst = &bench.instance;
    let decoder = JobDecoder::new(inst);
    let eval = move |seq: &Vec<usize>| decoder.semi_active_makespan(seq) as f64;
    let term = Termination::Generations(25);

    let run_parallel = || {
        let parallel_eval = RayonEvaluator::new(eval);
        let mut e = Engine::new(cfg(20, 31), opseq_toolkit(inst), &parallel_eval);
        let mut history = History::default();
        let best = ga::run(&mut e, &term, &mut history);
        (best.cost, best.genome, history)
    };
    let (c1, g1, h1) = run_parallel();
    let (c2, g2, h2) = run_parallel();
    assert_eq!(
        c1, c2,
        "master-slave best makespan diverged for identical seeds"
    );
    assert_eq!(g1, g2);
    assert_eq!(h1, h2, "master-slave history diverged for identical seeds");

    // The survey's defining master-slave property: the parallel evaluator
    // (single-threaded reduction path) is bit-identical to sequential
    // evaluation with the same seed.
    let mut seq_engine = Engine::new(cfg(20, 31), opseq_toolkit(inst), &eval);
    let mut seq_history = History::default();
    let seq_best = ga::run(&mut seq_engine, &term, &mut seq_history);
    assert_eq!(seq_best.cost, c1);
    assert_eq!(seq_best.genome, g1);
    assert_eq!(seq_history, h1);
}
