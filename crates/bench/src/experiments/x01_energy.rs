//! X01 — extension: energy-aware scheduling (survey Section II "new
//! integrated factors", Xu et al. \[8\] / Tang et al. \[9\]). Each stage of a
//! flexible flow shop offers a *fast but power-hungry* and a *slow but
//! frugal* machine (the classic speed-scaling trade-off); weighted
//! bi-objective islands sweep energy vs makespan. The reproduced shape is
//! a genuine trade-off: the makespan champion burns measurably more
//! energy than the energy champion, and the weighted islands cover a
//! multi-point Pareto front.

use crate::report::{fmt, Report};
use ga::dual::DualGenome;
use ga::engine::{GaConfig, Toolkit};
use ga::rng::split_seed;
use ga::termination::Termination;
use pga::island::{IslandConfig, IslandGa};
use pga::migration::MigrationConfig;
use rand::Rng;
use shop::decoder::flexible::FlexDecoder;
use shop::energy::{MachinePower, PowerProfile};
use shop::instance::{FlexOp, FlexibleInstance};
use shop::objective::pareto_front;
use shop::Problem;

/// Builds the speed-scaled shop: `stages` stages, each with a fast
/// machine (duration `d`, power 24) and a slow one (duration `2d`,
/// power 6) — the slow machine halves the energy of an operation at twice
/// the time.
fn speed_scaled_shop(n_jobs: usize, stages: usize, seed: u64) -> (FlexibleInstance, PowerProfile) {
    let mut rng = ga::rng::root_rng(seed);
    let jobs = (0..n_jobs)
        .map(|_| {
            (0..stages)
                .map(|s| {
                    let d: u64 = rng.gen_range(5..40);
                    FlexOp::new(vec![(2 * s, d), (2 * s + 1, 2 * d)]).expect("positive")
                })
                .collect()
        })
        .collect();
    let inst = FlexibleInstance::new(jobs).expect("well-formed");
    let machines = (0..2 * stages)
        .map(|m| {
            if m % 2 == 0 {
                MachinePower::new(24.0, 1.0) // fast, hungry
            } else {
                MachinePower::new(6.0, 1.0) // slow, frugal
            }
        })
        .collect();
    (inst, PowerProfile { machines })
}

pub fn run() -> Report {
    let (inst, power) = speed_scaled_shop(10, 3, 0x01E);

    let decode = |g: &DualGenome| FlexDecoder::new(&inst).decode(&g.assign, &g.seq);
    let objectives = |g: &DualGenome| -> (f64, f64) {
        let s = decode(g);
        (s.makespan() as f64, power.energy(&s))
    };

    let weights = [0.02, 0.25, 0.5, 0.75, 0.98];
    let energy_scale = 30.0;
    let (decode, power) = (&decode, &power);
    let scalar_evals: Vec<_> = weights
        .iter()
        .map(|&w| move |g: &DualGenome| power.energy_makespan_cost(&decode(g), w, energy_scale))
        .collect();

    let mut points = Vec::new();
    for (i, f) in scalar_evals.iter().enumerate() {
        let base = GaConfig {
            pop_size: 20,
            seed: split_seed(0x01E, i as u64),
            ..GaConfig::default()
        };
        let mut ig = IslandGa::homogeneous(
            base,
            2,
            &|_| Toolkit::dual(inst.ops_per_job(), inst.max_choices()),
            f,
            IslandConfig::new(MigrationConfig::ring(10, 1)),
        );
        let best = ga::run(&mut ig, &Termination::Generations(150), &mut ());
        points.push(objectives(&best.genome));
    }

    let vecs: Vec<Vec<f64>> = points.iter().map(|&(a, b)| vec![a, b]).collect();
    let front = pareto_front(&vecs);
    let mk_opt = points
        .iter()
        .cloned()
        .fold((f64::MAX, 0.0), |a, b| if b.0 < a.0 { b } else { a });
    let en_opt = points
        .iter()
        .cloned()
        .fold((0.0, f64::MAX), |a, b| if b.1 < a.1 { b } else { a });

    let mut rows: Vec<Vec<String>> = weights
        .iter()
        .zip(&points)
        .map(|(&w, &(mk, en))| vec![format!("w = {w}"), fmt(mk), fmt(en)])
        .collect();
    rows.push(vec![
        "Pareto points".into(),
        front.len().to_string(),
        String::new(),
    ]);

    let tradeoff = mk_opt.1 > en_opt.1 * 1.05 && en_opt.0 > mk_opt.0 * 1.05;
    Report {
        id: "X01",
        title: "Extension: energy vs makespan weighted islands (Section II factors)",
        paper_claim: "Energy-aware models trade production efficiency against energy (Xu [8], Tang [9]) — the speed-scaling trade-off is real and weighted islands cover it",
        columns: vec!["island weight (w on makespan)", "makespan", "energy"],
        rows,
        shape_holds: tradeoff && front.len() >= 2,
        notes: "Each stage offers a fast machine at 24 power-units and a half-speed machine \
                at 6 (shop::energy): running slow halves an operation's energy at twice its \
                duration, so the assignment chromosome carries the trade-off."
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
