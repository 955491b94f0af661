//! Benches of one generation of each parallel-GA model (the
//! per-generation critical path the `hpc` cost models price) plus a
//! migration event and a cost-model evaluation.

mod common;

use ga::crossover::RepCrossover;
use ga::engine::{Engine, Model, Toolkit};
use ga::mutate::SeqMutation;
use hpc::model::{island_time, master_slave_time, RunShape};
use hpc::Platform;
use pga::cellular::{CellularConfig, CellularGa};
use pga::island::{IslandConfig, IslandGa};
use pga::migration::MigrationConfig;
use shop::decoder::job::JobDecoder;
use shop::instance::generate::{job_shop_uniform, GenConfig};
use shop::Problem;
use std::hint::black_box;

/// Times one model case as a `models/<name>` row.
fn row<O>(name: &str, f: impl FnMut() -> O) {
    common::row("models", name, f);
}

/// Each generation row steps one model built once, so a row prices a
/// steady-state generation, not construction.
fn main() {
    let inst = job_shop_uniform(&GenConfig::new(10, 6, 9));
    let decoder = JobDecoder::new(&inst);
    let eval = move |seq: &Vec<usize>| decoder.semi_active_makespan(seq) as f64;
    let toolkit = || {
        Toolkit::repetition(
            inst.ops_per_job(),
            RepCrossover::JobOrder,
            SeqMutation::Swap,
        )
    };
    let cfg = crate_cfg(48);

    let mut e = Engine::new(cfg, toolkit(), &eval);
    row("engine_generation_pop48", || e.step(&mut ()));

    let mut cga = CellularGa::new(CellularConfig::new(7, 7, 3), toolkit(), &eval);
    row("cellular_generation_7x7", || cga.step(&mut ()));

    let mut ig = IslandGa::homogeneous(
        crate_cfg(12),
        4,
        &|_| toolkit(),
        &eval,
        IslandConfig::new(MigrationConfig::ring(1, 2)), // migrate every gen
    );
    row("island_generation_4x12_ring", || ig.step(&mut ()));

    let shape = RunShape {
        generations: 100,
        evals_per_gen: 1024,
        eval_s: 5e-6,
        serial_gen_s: 2e-4,
        genome_bytes: 480.0,
    };
    row("cost_model_master_slave", || {
        master_slave_time(black_box(&shape), &Platform::cuda_gpu(448, 0.1))
    });
    row("cost_model_island", || {
        island_time(black_box(&shape), 16, 10, 2, 16, &Platform::mpi_cluster(16))
    });
}

fn crate_cfg(pop: usize) -> ga::engine::GaConfig {
    ga::engine::GaConfig {
        pop_size: pop,
        seed: 7,
        ..ga::engine::GaConfig::default()
    }
}
