//! Determinism contract: identical `rand_chacha` seeds must produce
//! identical results for every parallel model, regardless of how many
//! times (or in what environment) the run is repeated. This is the
//! workspace-wide reproducibility guarantee the pga crate documents.
//! The models step their islands and cells in index order on one
//! thread, and per-worker streams are derived with `ga::rng::split_seed`,
//! so a worker's draws would not depend on that order either; batched
//! master-slave dispatch leaves the trajectory bit-identical to the bare
//! evaluator's.

use ga::engine::{Engine, GaConfig};
use ga::stats::History;
use ga::termination::Termination;
use pga::cellular::{CellularConfig, CellularGa};
use pga::island::{IslandConfig, IslandGa};
use pga::master_slave::BatchedEvaluator;
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
fn batched_master_slave_is_deterministic_and_matches_sequential() {
    let bench = classic::la01();
    let inst = &bench.instance;
    let decoder = JobDecoder::new(inst);
    let eval = move |seq: &Vec<usize>| decoder.semi_active_makespan(seq) as f64;
    let term = Termination::Generations(25);
    let pop = 20;

    let run_batched = |batch_size: usize| {
        let batched = BatchedEvaluator::new(eval, batch_size);
        let mut e = Engine::new(cfg(pop, 31), opseq_toolkit(inst), &batched);
        let mut history = History::default();
        let best = ga::run(&mut e, &term, &mut history);
        let dispatch = (batched.batches(), e.evaluations());
        (best.cost, best.genome, history, dispatch)
    };
    let (c1, g1, h1, _) = run_batched(7);
    let (c2, g2, h2, _) = run_batched(7);
    assert_eq!(
        c1, c2,
        "master-slave best makespan diverged for identical seeds"
    );
    assert_eq!(g1, g2);
    assert_eq!(h1, h2, "master-slave history diverged for identical seeds");

    // The survey's defining master-slave property: however the master
    // splits each generation's batch (one individual per slave, uneven
    // batches of 7, the whole population at once), the run is
    // bit-identical to the bare evaluator's with the same seed.
    let mut seq_engine = Engine::new(cfg(pop, 31), opseq_toolkit(inst), &eval);
    let mut seq_history = History::default();
    let seq_best = ga::run(&mut seq_engine, &term, &mut seq_history);
    for batch_size in [1, 7, pop] {
        let (c, g, h, (batches, evaluations)) = run_batched(batch_size);
        assert_eq!(seq_best.cost, c, "batch size {batch_size}: best makespan");
        assert_eq!(seq_best.genome, g, "batch size {batch_size}: best genome");
        assert_eq!(seq_history, h, "batch size {batch_size}: history");
        if batch_size == 1 {
            // Every evaluation went through the batched dispatch.
            assert_eq!(batches, evaluations);
        }
    }
}
