//! Master-slave parallelism: demonstrates the survey's defining property
//! of the model — splitting each generation's fitness batch across
//! slaves leaves the GA's trajectory bit-identical — and prices the run
//! on three modelled HPC platforms. The batches are evaluated in order on
//! this thread; the platform prices are model predictions.
//!
//! Run with: `cargo run --release --example flowshop_masterslave`

use ga::crossover::PermCrossover;
use ga::engine::{Engine, GaConfig, Toolkit};
use ga::mutate::SeqMutation;
use ga::termination::Termination;
use hpc::calibrate::measure_adaptive_s;
use hpc::model::{master_slave_time, sequential_time, speedup, RunShape};
use hpc::Platform;
use pga::master_slave::BatchedEvaluator;
use shop::decoder::flow::FlowDecoder;
use shop::instance::generate::{flow_shop_taillard, GenConfig};

fn toolkit(n: usize) -> Toolkit<Vec<usize>> {
    Toolkit::permutation(n, PermCrossover::Pmx, SeqMutation::Swap)
}

fn main() {
    let inst = flow_shop_taillard(&GenConfig::new(50, 10, 11));
    let decoder = FlowDecoder::new(&inst);
    let eval = move |perm: &Vec<usize>| decoder.makespan(perm) as f64;
    let cfg = GaConfig {
        pop_size: 60,
        seed: 3,
        ..Default::default()
    };
    let term = Termination::Generations(100);

    // Sequential evaluation.
    let mut seq_engine = Engine::new(cfg.clone(), toolkit(50), &eval);
    let seq_best = ga::run(&mut seq_engine, &term, &mut ());

    // Master-slave: same algorithm, fitness dispatched to slaves in
    // batches of 8 individuals.
    let batched = BatchedEvaluator::new(eval, 8);
    let mut ms_engine = Engine::new(cfg, toolkit(50), &batched);
    let ms_best = ga::run(&mut ms_engine, &term, &mut ());

    println!("sequential best:  {}", seq_best.cost);
    println!(
        "master-slave best: {} (identical: {})",
        ms_best.cost,
        seq_best.genome == ms_best.genome
    );

    // Price the run on the survey's platforms using the measured
    // evaluation cost.
    let sample: Vec<usize> = (0..50).collect();
    let eval_s = measure_adaptive_s(1e-3, || {
        std::hint::black_box(decoder.makespan(std::hint::black_box(&sample)));
    });
    let shape = RunShape {
        generations: 100,
        evals_per_gen: 60,
        eval_s,
        serial_gen_s: 0.05 * 60.0 * eval_s,
        genome_bytes: 400.0,
    };
    let t_seq = sequential_time(&shape);
    println!("\nmeasured evaluation cost: {:.2} us", 1e6 * eval_s);
    for p in [
        Platform::multicore(8),
        Platform::mpi_cluster(16),
        Platform::cuda_gpu(448, 0.1),
    ] {
        let t = master_slave_time(&shape, &p);
        println!(
            "predicted speedup on {:<12}: {:.2}x",
            p.name,
            speedup(t_seq, t)
        );
    }
}
