//! E17 — Defersha & Chen \[36\]: parallel GA for a flexible job shop with
//! sequence-dependent (attached/detached) setup times, machine release
//! dates and time lags; islands connected by a *randomly generated
//! topology per communication epoch*.
//!
//! Paper outcomes: on medium problems the island GA improves solution
//! quality; on large problems it converges to a good solution within the
//! allowed time where the single GA fails to.

use crate::report::{fmt, Report};
use ga::dual::DualGenome;
use ga::engine::{Engine, Toolkit};
use ga::rng::split_seed;
use ga::stats::History;
use ga::termination::Termination;
use pga::island::{IslandConfig, IslandGa};
use pga::migration::{MigrationConfig, MigrationPolicy};
use pga::topology::Topology;
use shop::decoder::flexible::FlexDecoder;
use shop::instance::generate::{flexible_job_shop, sdst_matrix, GenConfig};
use shop::setup::{MachineConstraints, SetupKind};
use shop::Problem;

fn evaluate_case(n_jobs: usize, ops: usize, seed: u64, generations: u64) -> (f64, f64, u64, u64) {
    let inst = flexible_job_shop(&GenConfig::new(n_jobs, 6, seed), ops, 3);
    let setups = sdst_matrix(n_jobs, 6, 3, 15, seed);
    let mut cons = MachineConstraints::none(6);
    cons.release = (0..6).map(|m| (m as u64) * 3).collect();
    cons.job_lag = 1;
    cons.setup_kind = SetupKind::Detached;
    let decoder = FlexDecoder::new(&inst)
        .with_setups(&setups)
        .with_constraints(cons);
    let eval = move |g: &DualGenome| decoder.makespan(&g.assign, &g.seq) as f64;

    let seeds = [4u64, 5, 6];
    let mut single_best = Vec::new();
    let mut island_best = Vec::new();
    let mut single_hit = 0u64;
    let mut island_hit = 0u64;
    for &s in &seeds {
        let cfg = crate::toolkits::pressure_config(48, split_seed(seed, s));
        let mut e = Engine::new(
            cfg.clone(),
            Toolkit::dual(inst.ops_per_job(), inst.max_choices()),
            &eval,
        );
        let mut single_history = History::default();
        ga::run(
            &mut e,
            &Termination::Generations(generations),
            &mut single_history,
        );
        single_best.push(e.best().cost);

        let base = crate::toolkits::pressure_config(12, split_seed(seed, s));
        let mig = MigrationConfig {
            interval: 10,
            count: 2,
            policy: MigrationPolicy::BestReplaceRandom,
            topology: Topology::RandomEpoch {
                seed: split_seed(seed, 999),
            },
        };
        let mut ig = IslandGa::homogeneous(
            base,
            4,
            &|_| Toolkit::dual(inst.ops_per_job(), inst.max_choices()),
            &eval,
            IslandConfig::new(mig),
        );
        let mut island_history = History::default();
        ga::run(
            &mut ig,
            &Termination::Generations(generations),
            &mut island_history,
        );
        island_best.push(ig.best().cost);

        // "Converges within the allowable time": reaching within 5% of
        // the better of the two finals counts as a hit.
        let target = 1.05 * e.best().cost.min(ig.best().cost);
        if single_history.generations_to_target(target).is_some() {
            single_hit += 1;
        }
        if island_history.generations_to_target(target).is_some() {
            island_hit += 1;
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    (
        mean(&single_best),
        mean(&island_best),
        single_hit,
        island_hit,
    )
}

pub fn run() -> Report {
    let generations = 200u64;
    let (med_single, med_island, _, _) = evaluate_case(6, 3, 0xE17, generations);
    let (lg_single, lg_island, lg_single_hits, lg_island_hits) =
        evaluate_case(14, 4, 0xE17 + 1, generations);

    let medium_ok = med_island <= med_single * 1.02;
    let large_ok = lg_island <= lg_single && lg_island_hits >= lg_single_hits;
    Report {
        id: "E17",
        title: "Defersha [36]: flexible job shop + SDST, random per-epoch topology",
        paper_claim: "Island GA improves quality on medium problems and converges within the allowed time on large problems where the single GA fails",
        columns: vec!["case", "single GA best", "island GA best", "target hits (single/island)"],
        rows: vec![
            vec![
                "medium (6 jobs x 3 ops)".into(),
                fmt(med_single),
                fmt(med_island),
                "-".into(),
            ],
            vec![
                "large (14 jobs x 4 ops)".into(),
                fmt(lg_single),
                fmt(lg_island),
                format!("{lg_single_hits}/3 vs {lg_island_hits}/3"),
            ],
        ],
        shape_holds: medium_ok && large_ok,
        notes: "Full [36] constraint set: sequence-dependent setups (detached), machine \
                release dates and inter-operation lags (shop::setup); the topology draws a \
                fresh random route assignment every migration epoch \
                (pga::topology::Topology::RandomEpoch)."
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
