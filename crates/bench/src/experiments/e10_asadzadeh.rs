//! E10 — Asadzadeh & Zamanifar \[27\]: agent-based parallel GA for the job
//! shop; eight processor agents form a virtual cube (each with three
//! neighbours) and exchange migrants through a synchronisation agent.
//!
//! Paper outcome: compared with the serial agent-based GA, the parallel
//! version obtains shorter schedule lengths *and* converges faster on
//! large problem instances.

use crate::report::{fmt, Report};
use ga::crossover::RepCrossover;
use ga::engine::{Engine, Toolkit};
use ga::mutate::SeqMutation;
use ga::rng::split_seed;
use ga::stats::History;
use ga::termination::Termination;
use pga::island::{IslandConfig, IslandGa};
use pga::migration::{MigrationConfig, MigrationPolicy};
use pga::topology::Topology;
use shop::decoder::job::JobDecoder;
use shop::instance::generate::{job_shop_uniform, GenConfig};
use shop::Problem;

pub fn run() -> Report {
    // "Large" instance relative to this harness: 15 jobs x 8 machines.
    let inst = job_shop_uniform(&GenConfig::new(15, 8, 0xE10));
    let decoder = JobDecoder::new(&inst);
    let eval = move |seq: &Vec<usize>| decoder.semi_active_makespan(seq) as f64;
    let toolkit = || {
        Toolkit::repetition(
            inst.ops_per_job(),
            RepCrossover::JobOrder,
            SeqMutation::Swap,
        )
    };
    let generations = 250u64;
    let seeds = [5u64, 6, 7];

    let mut serial_best = Vec::new();
    let mut cube_best = Vec::new();
    let mut serial_auc = Vec::new();
    let mut cube_auc = Vec::new();
    for &s in &seeds {
        // Serial agent-based GA = one population of the full size.
        let cfg = crate::toolkits::survey_config(96, split_seed(0xE10, s));
        let tk = toolkit();
        let mut e = Engine::new(cfg, tk, &eval);
        let mut history = History::default();
        ga::run(&mut e, &Termination::Generations(generations), &mut history);
        serial_best.push(e.best().cost);
        serial_auc.push(history.convergence_auc());

        // Eight processor agents on the virtual cube.
        let base = crate::toolkits::survey_config(12, split_seed(0xE10, s));
        let mut mig = MigrationConfig::ring(10, 2);
        mig.topology = Topology::Hypercube;
        mig.policy = MigrationPolicy::BestReplaceRandom;
        let mut ig = IslandGa::homogeneous(base, 8, &|_| toolkit(), &eval, IslandConfig::new(mig));
        let mut history = History::default();
        ga::run(
            &mut ig,
            &Termination::Generations(generations),
            &mut history,
        );
        cube_best.push(ig.best().cost);
        cube_auc.push(history.convergence_auc());
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let sb = mean(&serial_best);
    let cb = mean(&cube_best);
    let sa = mean(&serial_auc);
    let ca = mean(&cube_auc);

    Report {
        id: "E10",
        title: "Asadzadeh [27]: 8 agents on a virtual cube (JADE middleware)",
        paper_claim: "Parallel agent-based GA yields shorter schedules and faster convergence than the serial agent-based GA on large instances",
        columns: vec!["metric", "serial GA", "8-agent cube"],
        rows: vec![
            vec!["mean best makespan (3 seeds)".into(), fmt(sb), fmt(cb)],
            vec!["convergence AUC (lower = faster)".into(), fmt(sa), fmt(ca)],
        ],
        shape_holds: cb <= sb && ca <= sa,
        notes: "The JADE multi-agent middleware is modelled as islands on a hypercube \
                topology (each of the 8 islands has exactly 3 neighbours — the paper's \
                virtual cube); the synchronisation agent is the synchronous migration \
                step. Equal total population (96) and generation budget."
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
