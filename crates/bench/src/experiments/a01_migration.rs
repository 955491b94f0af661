//! A01 — ablation: migration interval x rate x policy on a fixed job
//! shop. The survey closes Section III.D noting "a completely
//! understanding for the effects of migration is still missing"; this
//! grid quantifies the effect of each knob in isolation on this codebase.

use crate::report::{fmt, Report};
use crate::toolkits::survey_config;
use ga::crossover::RepCrossover;
use ga::engine::Toolkit;
use ga::mutate::SeqMutation;
use ga::rng::split_seed;
use ga::termination::Termination;
use pga::island::{IslandConfig, IslandGa};
use pga::migration::{MigrationConfig, MigrationPolicy};
use pga::topology::Topology;
use shop::decoder::job::JobDecoder;
use shop::instance::generate::{job_shop_uniform, GenConfig};
use shop::Problem;

pub fn run() -> Report {
    let inst = job_shop_uniform(&GenConfig::new(12, 6, 0xA01));
    let decoder = JobDecoder::new(&inst);
    let eval = move |seq: &Vec<usize>| decoder.semi_active_makespan(seq) as f64;
    let generations = 150u64;
    let seeds = [1u64, 2, 3];
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;

    let run_cfg = |interval: u64, count: usize, policy: MigrationPolicy| -> f64 {
        let costs: Vec<f64> = seeds
            .iter()
            .map(|&s| {
                let base = survey_config(12, split_seed(0xA01, s));
                let mig = MigrationConfig {
                    interval,
                    count,
                    policy,
                    topology: Topology::Ring,
                };
                let mut ig = IslandGa::homogeneous(
                    base,
                    4,
                    &|_| {
                        Toolkit::repetition(
                            inst.ops_per_job(),
                            RepCrossover::JobOrder,
                            SeqMutation::Swap,
                        )
                    },
                    &eval,
                    IslandConfig::new(mig),
                );
                ga::run(&mut ig, &Termination::Generations(generations), &mut ()).cost
            })
            .collect();
        mean(&costs)
    };

    let isolated = run_cfg(0, 0, MigrationPolicy::BestReplaceWorst);
    let mut rows = vec![vec![
        "no migration (isolated islands)".into(),
        fmt(isolated),
    ]];

    let mut best_with_migration = f64::INFINITY;
    for interval in [2u64, 10, 50] {
        for count in [1usize, 3] {
            let v = run_cfg(interval, count, MigrationPolicy::BestReplaceWorst);
            best_with_migration = best_with_migration.min(v);
            rows.push(vec![
                format!("interval {interval}, {count} migrants, best-replace-worst"),
                fmt(v),
            ]);
        }
    }
    for policy in [
        MigrationPolicy::BestReplaceRandom,
        MigrationPolicy::RandomReplaceRandom,
    ] {
        let v = run_cfg(10, 2, policy);
        best_with_migration = best_with_migration.min(v);
        rows.push(vec![format!("interval 10, 2 migrants, {policy:?}"), fmt(v)]);
    }

    Report {
        id: "A01",
        title: "Ablation: migration interval x rate x policy (4-island ring)",
        paper_claim: "Migration should add value over isolated islands; the interval is the dominant knob (Belkadi [37])",
        columns: vec!["configuration", "mean best Cmax (3 seeds)"],
        rows,
        shape_holds: best_with_migration <= isolated,
        notes: "All runs share total population 48, 150 generations and the survey-baseline \
                GA profile; only the migration knobs vary."
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
