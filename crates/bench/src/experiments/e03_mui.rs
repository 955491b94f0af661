//! E03 — Mui et al. \[17\]: master-slave GA where the *slaves run the full
//! GA evolutionary operators* on GT-active schedules and the master keeps
//! the global optimum; 6-computer CSS server system.
//!
//! Paper outcome: the 6-processor master-slave version saves 3–4x
//! execution time compared to the sequential version.

use crate::report::{fmt, Report};
use crate::toolkits::run_shape;
use ga::crossover::KeysCrossover;
use ga::engine::{GaConfig, Toolkit};
use ga::termination::Termination;
use hpc::model::{island_time, sequential_time, speedup};
use hpc::Platform;
use pga::master_slave::DistributedSlavesGa;
use shop::decoder::job::JobDecoder;
use shop::instance::generate::{job_shop_uniform, GenConfig};
use shop::Problem;

pub fn run() -> Report {
    let inst = job_shop_uniform(&GenConfig::new(10, 6, 0xE03));
    let decoder = JobDecoder::new(&inst);
    // GT active schedules from random-keys priorities, as in the paper's
    // prior-rule active schedule design.
    let eval = move |keys: &Vec<f64>| decoder.gt_from_keys(keys).makespan() as f64;

    let total_ops = inst.total_ops();
    let cfg = GaConfig {
        pop_size: 30,
        seed: 0xE03,
        ..GaConfig::default()
    };
    let term = Termination::Generations(30);
    let tk_factory = || Toolkit::random_keys(total_ops, KeysCrossover::Uniform);

    let single = DistributedSlavesGa::run(&cfg, &tk_factory, &eval, 1, &term);
    let six = DistributedSlavesGa::run(&cfg, &tk_factory, &eval, 6, &term);

    // Predicted wall times: the 6 slaves are whole GAs (serial part
    // included), i.e. the island formula with zero migration, on a
    // 6-node server; the sequential baseline does the 6 slaves' work one
    // after another.
    let sample: Vec<f64> = (0..total_ops)
        .map(|i| i as f64 / total_ops as f64)
        .collect();
    let mut shape = run_shape(30, 6 * 30, (total_ops * 8) as f64, &sample, &eval);
    shape.serial_gen_s *= 1.0; // operators also replicated per slave
    let t_seq = sequential_time(&shape);
    let t_par = island_time(&shape, 6, 0, 0, 0, &Platform::mpi_cluster(6));
    let sp = speedup(t_seq, t_par);

    let quality_ok = six.global_best().cost <= single.global_best().cost;
    let speed_ok = sp > 2.5 && sp < 6.5;
    Report {
        id: "E03",
        title: "Mui [17]: slaves run full GAs on GT-active schedules (6 CPUs)",
        paper_claim:
            "Master-slave GA with 6 processors saves 3-4x execution time vs the sequential version",
        columns: vec!["metric", "value"],
        rows: vec![
            vec![
                "best makespan, 1 slave".into(),
                fmt(single.global_best().cost),
            ],
            vec![
                "best makespan, 6 slaves (master keeps global opt)".into(),
                fmt(six.global_best().cost),
            ],
            vec![
                "total evaluations, 6 slaves".into(),
                six.total_evaluations.to_string(),
            ],
            vec![
                "predicted time saving on 6-node cluster".into(),
                format!("{}x", fmt(sp)),
            ],
        ],
        shape_holds: quality_ok && speed_ok,
        notes: "Giffler-Thompson active-schedule decoding (shop::decoder::job) with random-key \
                priorities; slaves are fully independent GAs per the paper, so the predicted \
                saving is the zero-migration island bound minus cluster overhead."
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
