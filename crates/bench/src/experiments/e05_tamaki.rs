//! E05 — Tamaki \[20\]: the fine-grained (neighbourhood-model) GA for job
//! shops on a 16-Transputer MIMD machine.
//!
//! Paper outcomes: (a) the neighbourhood model suppresses premature
//! convergence (better diversity than the panmictic GA), and (b) 16
//! processors shorten calculation time dramatically but *below* the ideal
//! level because the Transputer has no shared memory.

use crate::report::{fmt, Report};
use crate::toolkits::run_shape;
use ga::crossover::RepCrossover;
use ga::engine::{Engine, GaConfig, Toolkit};
use ga::mutate::SeqMutation;
use ga::stats::History;
use ga::termination::Termination;
use hpc::model::{cellular_time, sequential_time, speedup};
use hpc::Platform;
use pga::cellular::{CellularConfig, CellularGa};
use shop::decoder::job::JobDecoder;
use shop::instance::generate::{job_shop_uniform, GenConfig};
use shop::Problem;

pub fn run() -> Report {
    let inst = job_shop_uniform(&GenConfig::new(8, 5, 0xE05));
    let decoder = JobDecoder::new(&inst);
    let eval = move |seq: &Vec<usize>| decoder.semi_active_makespan(seq) as f64;
    let toolkit = || {
        Toolkit::repetition(
            inst.ops_per_job(),
            RepCrossover::JobOrder,
            SeqMutation::Swap,
        )
    };

    let generations = 30u64;

    // Panmictic baseline, same population size as the grid.
    let cfg = GaConfig {
        pop_size: 36,
        seed: 0xE05,
        ..GaConfig::default()
    };
    let tk = toolkit();
    let mut pan = Engine::new(cfg, tk, &eval);
    let mut pan_history = History::default();
    ga::run(
        &mut pan,
        &Termination::Generations(generations),
        &mut pan_history,
    );

    // 6x6 cellular grid.
    let tk2 = toolkit();
    let mut cell = CellularGa::new(CellularConfig::new(6, 6, 0xE05), tk2, &eval);
    let mut cell_history = History::default();
    ga::run(
        &mut cell,
        &Termination::Generations(generations),
        &mut cell_history,
    );

    let final_diversity = |h: &History| h.samples.last().map_or(0.0, |s| s.diversity);
    let pan_div = final_diversity(&pan_history);
    let cell_div = final_diversity(&cell_history);

    // Predicted times on a 16-Transputer array. Compute speeds are
    // emulated at the period's scale: a 1992 25 MHz T800 evaluates a
    // schedule roughly three orders of magnitude slower than this host
    // core, so the measured per-evaluation cost is scaled by 1000 before
    // being priced against the (equally period-accurate) 10 Mbit/s links.
    let sample: Vec<usize> = (0..5).flat_map(|_| 0..8).collect();
    let mut shape = run_shape(generations, 36, (sample.len() * 8) as f64, &sample, &eval);
    shape.eval_s *= 1000.0;
    shape.serial_gen_s *= 1000.0;
    let t_seq = sequential_time(&shape);
    let t_tp = cellular_time(&shape, 36, 4, &Platform::transputer(16));
    let sp = speedup(t_seq, t_tp);

    let diversity_ok = cell_div > pan_div;
    let speed_ok = sp > 2.0 && sp < 16.0;
    Report {
        id: "E05",
        title: "Tamaki [20]: neighbourhood-model GA on a Transputer array",
        paper_claim: "16 processors shorten calculation time dramatically but sub-ideally (no shared memory); the neighbourhood model suppresses premature convergence",
        columns: vec!["metric", "panmictic GA", "fine-grained GA"],
        rows: vec![
            vec![
                "best makespan".into(),
                fmt(pan.best().cost),
                fmt(cell.best().cost),
            ],
            vec![
                format!("population diversity at gen {generations}"),
                format!("{pan_div:.3}"),
                format!("{cell_div:.3}"),
            ],
            vec![
                "predicted speedup on 16 Transputers".into(),
                "1.0 (baseline)".into(),
                format!("{}x (ideal 16x)", fmt(sp)),
            ],
        ],
        shape_holds: diversity_ok && speed_ok,
        notes: "Diversity = mean pairwise normalised Hamming distance over operation \
                sequences; the torus neighbourhood keeps it higher at equal generation, \
                which is the premature-convergence suppression the paper reports. \
                Transputer links are priced at 10 Mbit/s and compute at period (T800) \
                speed, keeping the predicted speedup below ideal as observed."
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
