//! E14 — Kokosiński & Studzienny \[32\]: open-shop GA with LPT-Task /
//! LPT-Machine decoding, 2-element tournament selection, linear-order
//! crossover and swap/invert mutation; the parallel version is an island
//! GA where every island broadcasts its best emigrants to all others.
//!
//! Paper outcome — a *negative* result the reproduction must preserve:
//! "this parallelization did not reveal obvious advantages".

use crate::report::{fmt, Report};
use ga::engine::{Engine, GaConfig, Toolkit};
use ga::mutate::SeqMutation;
use ga::rng::split_seed;
use ga::select::Selection;
use ga::termination::Termination;
use pga::island::{IslandConfig, IslandGa};
use pga::migration::{MigrationConfig, MigrationPolicy};
use pga::topology::Topology;
use shop::decoder::open::OpenDecoder;
use shop::instance::generate::{open_shop_uniform, GenConfig};

fn rep_toolkit(n_jobs: usize, n_machines: usize) -> Toolkit<Vec<usize>> {
    // Permutation with repetition of job ids (each appears m times),
    // linear-order crossover generalised to repetition sequences via the
    // job-order operator, swap/invert mutation.
    Toolkit {
        init: Box::new(move |rng| {
            use rand::seq::SliceRandom;
            let mut seq: Vec<usize> = (0..n_jobs * n_machines).map(|i| i % n_jobs).collect();
            seq.shuffle(rng);
            seq
        }),
        crossover: Box::new(move |a, b, rng| {
            let c1 = ga::crossover::rep::job_order(a, b, n_jobs, rng);
            let c2 = ga::crossover::rep::job_order(b, a, n_jobs, rng);
            (c1, c2)
        }),
        mutate: Box::new(|g, rng| {
            use rand::Rng;
            if rng.gen_bool(0.5) {
                SeqMutation::Swap.apply(g, rng);
            } else {
                SeqMutation::Invert.apply(g, rng);
            }
        }),
        seq_view: Some(Box::new(|g: &Vec<usize>| g.clone())),
    }
}

pub fn run() -> Report {
    let inst = open_shop_uniform(&GenConfig::new(8, 5, 0xE14));
    let decoder = OpenDecoder::new(&inst);
    let eval = move |seq: &Vec<usize>| decoder.lpt_task_makespan(seq) as f64;
    let generations = 50u64;
    let seeds = [1u64, 2, 3, 4];

    let mut serial = Vec::new();
    let mut parallel = Vec::new();
    for &s in &seeds {
        let cfg = GaConfig {
            pop_size: 40,
            selection: Selection::Tournament(2),
            seed: split_seed(0xE14, s),
            ..GaConfig::default()
        };
        let mut e = Engine::new(cfg.clone(), rep_toolkit(8, 5), &eval);
        ga::run(&mut e, &Termination::Generations(generations), &mut ());
        serial.push(e.best().cost);

        let base = GaConfig {
            pop_size: 10,
            ..cfg
        };
        let mut mig = MigrationConfig::ring(10, 1);
        mig.topology = Topology::FullyConnected; // broadcast to all islands
        mig.policy = MigrationPolicy::BestReplaceRandom; // random host replacement
        let mut ig = IslandGa::homogeneous(
            base,
            4,
            &|_| rep_toolkit(8, 5),
            &eval,
            IslandConfig::new(mig),
        );
        parallel.push(ga::run(&mut ig, &Termination::Generations(generations), &mut ()).cost);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let sm = mean(&serial);
    let pm = mean(&parallel);
    let rel_gain = (sm - pm) / sm;

    // Negative-result shape: the island version shows no clear advantage
    // (within a few percent either way).
    let shape_holds = rel_gain.abs() < 0.05;
    Report {
        id: "E14",
        title: "Kokosiński [32]: open shop, LPT decoding, broadcast islands (negative result)",
        paper_claim: "The island parallelization did not reveal obvious advantages over the sequential hybrid GA",
        columns: vec!["variant", "mean best Cmax (4 seeds)", "relative"],
        rows: vec![
            vec!["sequential GA (pop 40)".into(), fmt(sm), "baseline".into()],
            vec![
                "island GA (4 x 10, broadcast best)".into(),
                fmt(pm),
                format!("{:+.2}%", -100.0 * rel_gain),
            ],
        ],
        shape_holds,
        notes: "Chromosomes are permutations with repetitions decoded by the LPT-Task \
                greedy heuristic (shop::decoder::open); incoming migrants replace random \
                host chromosomes, per the paper. The reproduced outcome is the *absence* \
                of a clear island advantage at equal evaluation budget."
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
