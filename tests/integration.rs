//! Cross-crate integration tests: GA engines from `ga`, parallel models
//! from `pga`, decoding and validation from `shop`, and cost predictions
//! from `hpc` working together through the public API.

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

#[test]
fn island_ga_solves_ft06_close_to_optimum() {
    let bench = classic::ft06();
    let inst = &bench.instance;
    let decoder = JobDecoder::new(inst);
    let eval = move |seq: &Vec<usize>| decoder.semi_active_makespan(seq) as f64;
    let base = GaConfig {
        pop_size: 40,
        selection: ga::select::Selection::Tournament(5),
        mutation_rate: 0.1,
        seed: 2024,
        ..GaConfig::default()
    };
    let mut islands = IslandGa::homogeneous(
        base,
        4,
        &|_| opseq_toolkit(inst),
        &eval,
        IslandConfig::new(MigrationConfig::ring(10, 2)),
    );
    let best = ga::run(&mut islands, &Termination::Generations(300), &mut ());
    // FT06's optimum is 55; a healthy GA lands within 10%.
    assert!(
        best.cost <= 1.10 * bench.best_known as f64,
        "ft06 best {} too far from optimum {}",
        best.cost,
        bench.best_known
    );
    // And the winning genome must decode to a feasible schedule.
    let schedule = JobDecoder::new(inst).semi_active(&best.genome);
    schedule.validate_job(inst).unwrap();
    assert_eq!(schedule.makespan() as f64, best.cost);
}

#[test]
fn master_slave_trajectory_equals_sequential_on_real_instance() {
    let bench = classic::la01();
    let inst = &bench.instance;
    let decoder = JobDecoder::new(inst);
    let eval = move |seq: &Vec<usize>| decoder.semi_active_makespan(seq) as f64;
    let cfg = GaConfig {
        pop_size: 30,
        seed: 555,
        ..GaConfig::default()
    };
    let term = Termination::Generations(30);

    let mut sequential = Engine::new(cfg.clone(), opseq_toolkit(inst), &eval);
    let mut sequential_history = History::default();
    ga::run(&mut sequential, &term, &mut sequential_history);

    let parallel_eval = RayonEvaluator::new(eval);
    let mut parallel = Engine::new(cfg, opseq_toolkit(inst), &parallel_eval);
    let mut parallel_history = History::default();
    ga::run(&mut parallel, &term, &mut parallel_history);

    assert_eq!(sequential_history, parallel_history);
    assert_eq!(sequential.best().genome, parallel.best().genome);
}

#[test]
fn cellular_ga_produces_feasible_improving_schedules() {
    let inst = shop::instance::generate::job_shop_uniform(
        &shop::instance::generate::GenConfig::new(8, 5, 31),
    );
    let decoder = JobDecoder::new(&inst);
    let eval = move |seq: &Vec<usize>| decoder.semi_active_makespan(seq) as f64;
    let mut cga = CellularGa::new(CellularConfig::new(5, 5, 3), opseq_toolkit(&inst), &eval);
    let start = cga.best().cost;
    let best = ga::run(&mut cga, &Termination::Generations(60), &mut ());
    assert!(best.cost <= start);
    let schedule = JobDecoder::new(&inst).semi_active(&best.genome);
    schedule.validate_job(&inst).unwrap();
    assert!(best.cost >= inst.makespan_lower_bound() as f64);
}

#[test]
fn cost_model_orders_platforms_consistently_with_telemetry() {
    // Telemetry from a real island run feeds the hpc model, and the model
    // must respect basic dominance (more workers never slower for the
    // compute part at zero migration).
    let inst = shop::instance::generate::job_shop_uniform(
        &shop::instance::generate::GenConfig::new(6, 4, 7),
    );
    let decoder = JobDecoder::new(&inst);
    let eval = move |seq: &Vec<usize>| decoder.semi_active_makespan(seq) as f64;
    let base = GaConfig {
        pop_size: 8,
        seed: 77,
        ..GaConfig::default()
    };
    let mut ig = IslandGa::homogeneous(
        base,
        4,
        &|_| opseq_toolkit(&inst),
        &eval,
        IslandConfig::new(MigrationConfig::ring(5, 1)),
    );
    ga::run(&mut ig, &Termination::Generations(20), &mut ());
    let per_gen = &ig.telemetry.evals_per_generation;
    let shape = hpc::model::RunShape {
        generations: ig.telemetry.generations,
        evals_per_gen: per_gen.iter().sum::<u64>() / per_gen.len() as u64,
        eval_s: 2e-6,
        serial_gen_s: 1e-6,
        genome_bytes: 200.0,
    };
    let t2 = hpc::model::island_time(&shape, 4, 5, 1, 4, &hpc::Platform::multicore(2));
    let t4 = hpc::model::island_time(&shape, 4, 5, 1, 4, &hpc::Platform::multicore(4));
    assert!(t4 <= t2);
    assert!(hpc::model::sequential_time(&shape) > t4);
}

#[test]
fn facade_crate_reexports_everything() {
    // The `pga-shop` facade exposes the four member crates.
    let inst = pga_shop::shop::instance::generate::flow_shop_taillard(
        &pga_shop::shop::instance::generate::GenConfig::new(5, 3, 1),
    );
    let d = pga_shop::shop::decoder::flow::FlowDecoder::new(&inst);
    assert!(d.makespan(&[0, 1, 2, 3, 4]) > 0);
    let _ = pga_shop::hpc::Platform::multicore(4);
    let _ = pga_shop::pga::Topology::Ring;
    let _ = pga_shop::ga::Selection::RouletteWheel;
}
