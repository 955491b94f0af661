//! E16 — Defersha & Chen \[35\]: coarse-grain parallel GA for a flexible
//! flow shop with *lot streaming* (each job's batch split into unequal
//! consistent sublots), k-way tournament selection, run on up to 48 cores
//! with MPI; sweeps of migration topology (ring / mesh / fully connected)
//! and migration policy (random-replace-random / best-replace-random /
//! best-replace-worst).
//!
//! Paper outcomes: the island GA reduces makespan vs the serial GA on all
//! problems; fully connected outperforms ring and mesh; the policy has
//! little effect with best-replace-random slightly ahead.

use crate::report::{fmt, Report};
use ga::dual::DualGenome;
use ga::engine::{Engine, GaConfig, Toolkit};
use ga::rng::split_seed;
use ga::select::Selection;
use ga::termination::Termination;
use pga::island::{IslandConfig, IslandGa};
use pga::migration::{MigrationConfig, MigrationPolicy};
use pga::topology::Topology;
use shop::decoder::flexible::FlexDecoder;
use shop::instance::generate::{flexible_flow_shop, GenConfig};
use shop::instance::LotStreaming;
use shop::Problem;

pub fn run() -> Report {
    // 5 jobs x 3 stages (2,1,2 machines), batches of 20 split into 2
    // sublots of 30%/70% — the lot-streaming expansion doubles the jobs.
    let base_inst = flexible_flow_shop(&GenConfig::new(5, 0, 0xE16), &[2, 1, 2], false);
    let lots = LotStreaming::uniform(5, 20, 2);
    let fractions = vec![vec![0.3, 0.7]; 5];
    let (inst, _origin) = lots
        .expand(&base_inst, &fractions)
        .expect("valid fractions");
    let decoder = FlexDecoder::new(&inst);
    let eval = move |g: &DualGenome| decoder.makespan(&g.assign, &g.seq) as f64;

    let generations = 40u64;
    let seeds = [1u64, 2, 3];
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;

    // Serial baseline.
    let serial: Vec<f64> = seeds
        .iter()
        .map(|&s| {
            let cfg = GaConfig {
                pop_size: 36,
                selection: Selection::Tournament(4),
                seed: split_seed(0xE16, s),
                ..GaConfig::default()
            };
            let mut e = Engine::new(
                cfg,
                Toolkit::dual(inst.ops_per_job(), inst.max_choices()),
                &eval,
            );
            ga::run(&mut e, &Termination::Generations(generations), &mut ());
            e.best().cost
        })
        .collect();

    let run_island = |topology: Topology, policy: MigrationPolicy, seed: u64| -> f64 {
        let base = GaConfig {
            pop_size: 6,
            selection: Selection::Tournament(4),
            seed,
            ..GaConfig::default()
        };
        let mig = MigrationConfig {
            interval: 8,
            count: 1,
            policy,
            topology,
        };
        let mut ig = IslandGa::homogeneous(
            base,
            6,
            &|_| Toolkit::dual(inst.ops_per_job(), inst.max_choices()),
            &eval,
            IslandConfig::new(mig),
        );
        ga::run(&mut ig, &Termination::Generations(generations), &mut ()).cost
    };

    let topologies = [
        ("ring", Topology::Ring),
        ("mesh 2x3", Topology::Grid2D { cols: 3 }),
        ("fully connected", Topology::FullyConnected),
    ];
    let mut topo_rows = Vec::new();
    let mut topo_means = Vec::new();
    for (name, t) in &topologies {
        let costs: Vec<f64> = seeds
            .iter()
            .map(|&s| run_island(*t, MigrationPolicy::BestReplaceRandom, split_seed(0xE16, s)))
            .collect();
        topo_means.push(mean(&costs));
        topo_rows.push(vec![format!("topology: {name}"), fmt(mean(&costs))]);
    }

    let policies = [
        (
            "random-replace-random",
            MigrationPolicy::RandomReplaceRandom,
        ),
        ("best-replace-random", MigrationPolicy::BestReplaceRandom),
        ("best-replace-worst", MigrationPolicy::BestReplaceWorst),
    ];
    let mut pol_means = Vec::new();
    for (name, p) in &policies {
        let costs: Vec<f64> = seeds
            .iter()
            .map(|&s| run_island(Topology::FullyConnected, *p, split_seed(0xE16, s)))
            .collect();
        pol_means.push(mean(&costs));
        topo_rows.push(vec![format!("policy: {name}"), fmt(mean(&costs))]);
    }

    let serial_mean = mean(&serial);
    let best_island = topo_means
        .iter()
        .chain(&pol_means)
        .fold(f64::INFINITY, |a, &b| a.min(b));
    let fully = topo_means[2];
    let fully_best = fully <= topo_means[0] * 1.02 && fully <= topo_means[1] * 1.02;
    let policy_spread = {
        let max = pol_means.iter().fold(f64::MIN, |a, &b| a.max(b));
        let min = pol_means.iter().fold(f64::MAX, |a, &b| a.min(b));
        (max - min) / min
    };

    let mut rows = vec![vec!["serial GA (pop 36)".into(), fmt(serial_mean)]];
    rows.extend(topo_rows);
    rows.push(vec![
        "policy sensitivity (max-min)/min".into(),
        format!("{:.2}%", 100.0 * policy_spread),
    ]);

    Report {
        id: "E16",
        title: "Defersha [35]: flexible flow shop + lot streaming; topology & policy sweeps",
        paper_claim: "Island GA reduces makespan on all problems; fully connected beats ring and mesh; migration policy matters little with best-replace-random slightly ahead",
        columns: vec!["configuration (6 islands x 6)", "mean best Cmax (3 seeds)"],
        rows,
        shape_holds: best_island <= serial_mean && fully_best && policy_spread < 0.10,
        notes: "Lot streaming expands each job into 2 unequal consistent sublots \
                (shop::instance::flexible::LotStreaming), doubling the scheduled entities; \
                genomes are dual assignment+sequencing chromosomes with k-way tournament \
                selection as in the paper."
            .into(),
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn runs_and_reports() {
        let r = super::run();
        assert!(r.rows.len() >= 7);
    }
}
