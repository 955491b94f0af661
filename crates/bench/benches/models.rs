//! Criterion benches of one generation of each parallel-GA model (the
//! per-generation critical path the `hpc` cost models price) plus a
//! migration event and a cost-model evaluation.

use criterion::{criterion_group, criterion_main, Criterion};
use ga::crossover::RepCrossover;
use ga::engine::{Engine, Model, Toolkit};
use ga::mutate::SeqMutation;
use hpc::model::{island_time, master_slave_time, RunShape};
use hpc::Platform;
use pga::cellular::{CellularConfig, CellularGa};
use pga::island::{IslandConfig, IslandGa};
use pga::master_slave::RayonEvaluator;
use pga::migration::MigrationConfig;
use shop::decoder::job::JobDecoder;
use shop::instance::generate::{job_shop_uniform, GenConfig};
use shop::Problem;
use std::time::Duration;

fn bench_models(c: &mut Criterion) {
    let mut g = c.benchmark_group("models");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));

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

    g.bench_function("engine_generation_pop48", |b| {
        let mut e = Engine::new(cfg.clone(), toolkit(), &eval);
        b.iter(|| e.step(&mut ()));
    });

    let rayon_eval = RayonEvaluator::new(eval);
    g.bench_function("master_slave_generation_pop48", |b| {
        let mut e = Engine::new(cfg.clone(), toolkit(), &rayon_eval);
        b.iter(|| e.step(&mut ()));
    });

    g.bench_function("cellular_generation_7x7", |b| {
        let mut cga = CellularGa::new(CellularConfig::new(7, 7, 3), toolkit(), &eval);
        b.iter(|| cga.step(&mut ()));
    });

    g.bench_function("island_generation_4x12_ring", |b| {
        let mut ig = IslandGa::homogeneous(
            crate_cfg(12),
            4,
            &|_| toolkit(),
            &eval,
            IslandConfig::new(MigrationConfig::ring(1, 2)), // migrate every gen
        );
        b.iter(|| ig.step(&mut ()));
    });

    let shape = RunShape {
        generations: 100,
        evals_per_gen: 1024,
        eval_s: 5e-6,
        serial_gen_s: 2e-4,
        genome_bytes: 480.0,
    };
    g.bench_function("cost_model_master_slave", |b| {
        b.iter(|| master_slave_time(std::hint::black_box(&shape), &Platform::cuda_gpu(448, 0.1)))
    });
    g.bench_function("cost_model_island", |b| {
        b.iter(|| {
            island_time(
                std::hint::black_box(&shape),
                16,
                10,
                2,
                16,
                &Platform::mpi_cluster(16),
            )
        })
    });
    g.finish();
}

fn crate_cfg(pop: usize) -> ga::engine::GaConfig {
    ga::engine::GaConfig {
        pop_size: pop,
        seed: 7,
        ..ga::engine::GaConfig::default()
    }
}

criterion_group!(benches, bench_models);
criterion_main!(benches);
