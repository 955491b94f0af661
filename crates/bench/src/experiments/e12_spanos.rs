//! E12 — Spanos et al. \[29\]: island GA for the job shop with elitist
//! selection, path-relinking crossover and swap mutation, where islands
//! *merge* once their individuals stagnate (more than half the pairwise
//! Hamming distances below a threshold), continuing until a single
//! subpopulation remains.
//!
//! Paper outcome: the merging design attains performance comparable to
//! recent approaches (i.e. merging does not hurt solution quality while
//! concentrating the search).

use crate::report::{fmt, Report};
use ga::crossover::fusion::path_relink;
use ga::engine::{GaConfig, Toolkit};
use ga::mutate::SeqMutation;
use ga::rng::split_seed;
use ga::termination::Termination;
use pga::island::{IslandConfig, IslandGa, MergeRule};
use pga::migration::MigrationConfig;
use shop::decoder::job::JobDecoder;
use shop::instance::generate::{job_shop_uniform, GenConfig};
use shop::Problem;

pub fn run() -> Report {
    let inst = job_shop_uniform(&GenConfig::new(10, 5, 0xE12));
    let decoder = JobDecoder::new(&inst);
    let eval = move |seq: &Vec<usize>| decoder.semi_active_makespan(seq) as f64;
    let generations = 60u64;
    let seeds = [3u64, 4, 5];

    // Path-relinking crossover: child = best point on the relink path.
    let pr_toolkit = |_: usize| -> Toolkit<Vec<usize>> {
        let base = Toolkit::repetition(
            inst.ops_per_job(),
            ga::crossover::RepCrossover::JobOrder,
            SeqMutation::Swap,
        );
        let owned = inst.clone(); // boxed operators must be 'static
        Toolkit {
            init: base.init,
            crossover: Box::new(move |a, b, _rng| {
                let decoder = JobDecoder::new(&owned);
                let cost = |s: &[usize]| decoder.semi_active_makespan(s) as f64;
                (path_relink(a, b, &cost), path_relink(b, a, &cost))
            }),
            mutate: base.mutate,
            seq_view: base.seq_view,
        }
    };

    let mut merged_best = Vec::new();
    let mut fixed_best = Vec::new();
    let mut final_islands = Vec::new();
    for &s in &seeds {
        let base = GaConfig {
            pop_size: 12,
            seed: split_seed(0xE12, s),
            ..GaConfig::default()
        };
        let mut ic = IslandConfig::new(MigrationConfig::ring(10, 1));
        ic.merge_on_stagnation = Some(MergeRule {
            distance: 0.25,
            majority: 0.5,
        });
        let mut merging = IslandGa::homogeneous(base.clone(), 4, &pr_toolkit, &eval, ic);
        merged_best.push(
            ga::run(
                &mut merging,
                &Termination::Generations(generations),
                &mut (),
            )
            .cost,
        );
        final_islands.push(merging.active_islands());

        let mut fixed = IslandGa::homogeneous(
            base,
            4,
            &pr_toolkit,
            &eval,
            IslandConfig::new(MigrationConfig::ring(10, 1)),
        );
        fixed_best.push(ga::run(&mut fixed, &Termination::Generations(generations), &mut ()).cost);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let mb = mean(&merged_best);
    let fb = mean(&fixed_best);
    let merged_any = final_islands.iter().any(|&k| k < 4);

    // Shape: merging happened and quality stays comparable (within 5%).
    let comparable = mb <= fb * 1.05;
    Report {
        id: "E12",
        title: "Spanos [29]: stagnation-triggered island merging with path relinking",
        paper_claim: "Merging stagnated subpopulations (Hamming-distance majority rule) attains comparable performance; the process continues until one subpopulation remains",
        columns: vec!["variant", "mean best makespan (3 seeds)", "final active islands"],
        rows: vec![
            vec![
                "merging islands".into(),
                fmt(mb),
                format!("{:?}", final_islands),
            ],
            vec!["fixed islands".into(), fmt(fb), "[4, 4, 4]".into()],
        ],
        shape_holds: merged_any && comparable,
        notes: "Stagnation rule: >50% of an island's pairwise normalised Hamming distances \
                below 0.25 (ga::stats::stagnation_fraction). The merged island folds its \
                best half into its ring successor (pga::island::MergeRule)."
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
