//! A02 — ablation: schedule-builder choice (semi-active vs
//! Giffler–Thompson active vs non-delay) under the same GA and budget.
//! The survey's Section III.A surveys these encodings/decoders without
//! ranking them; this harness measures the trade-off directly.

use crate::report::{fmt, Report};
use crate::toolkits::pressure_config;
use ga::crossover::{KeysCrossover, RepCrossover};
use ga::engine::{Engine, Toolkit};
use ga::mutate::SeqMutation;
use ga::rng::split_seed;
use ga::termination::Termination;
use shop::decoder::job::JobDecoder;
use shop::instance::generate::{job_shop_uniform, GenConfig};
use shop::Problem;

pub fn run() -> Report {
    let inst = job_shop_uniform(&GenConfig::new(10, 6, 0xA02));
    let total_ops = inst.total_ops();
    let generations = 150u64;
    let seeds = [1u64, 2, 3];
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;

    // Semi-active decoding of operation sequences.
    let semi: Vec<f64> = seeds
        .iter()
        .map(|&s| {
            let decoder = JobDecoder::new(&inst);
            let eval = move |seq: &Vec<usize>| decoder.semi_active_makespan(seq) as f64;
            let mut e = Engine::new(
                pressure_config(40, split_seed(0xA02, s)),
                Toolkit::repetition(
                    inst.ops_per_job(),
                    RepCrossover::JobOrder,
                    SeqMutation::Swap,
                ),
                &eval,
            );
            ga::run(&mut e, &Termination::Generations(generations), &mut ()).cost
        })
        .collect();

    // Giffler-Thompson active schedules from random keys.
    let active: Vec<f64> = seeds
        .iter()
        .map(|&s| {
            let decoder = JobDecoder::new(&inst);
            let eval = move |keys: &Vec<f64>| decoder.gt_from_keys(keys).makespan() as f64;
            let mut e = Engine::new(
                pressure_config(40, split_seed(0xA02, s)),
                Toolkit::random_keys(total_ops, KeysCrossover::Uniform),
                &eval,
            );
            ga::run(&mut e, &Termination::Generations(generations), &mut ()).cost
        })
        .collect();

    // Non-delay schedules from random keys.
    let nondelay: Vec<f64> = seeds
        .iter()
        .map(|&s| {
            let decoder = JobDecoder::new(&inst);
            let eval = move |keys: &Vec<f64>| decoder.non_delay_from_keys(keys).makespan() as f64;
            let mut e = Engine::new(
                pressure_config(40, split_seed(0xA02, s)),
                Toolkit::random_keys(total_ops, KeysCrossover::Uniform),
                &eval,
            );
            ga::run(&mut e, &Termination::Generations(generations), &mut ()).cost
        })
        .collect();

    let (sm, am, nm) = (mean(&semi), mean(&active), mean(&nondelay));
    // Shape: the constrained builders (active / non-delay) should not be
    // *worse* than raw semi-active decoding at equal budget — they search
    // a smaller, better-structured space. Ties allowed.
    let structured_best = am.min(nm);
    Report {
        id: "A02",
        title: "Ablation: semi-active vs G&T active vs non-delay schedule builders",
        paper_claim: "Restricting the GA to active schedules (Mui [17]) / structured subsets should not hurt at equal budget",
        columns: vec!["builder", "mean best Cmax (3 seeds)"],
        rows: vec![
            vec!["semi-active (operation sequence)".into(), fmt(sm)],
            vec!["Giffler-Thompson active (random keys)".into(), fmt(am)],
            vec!["non-delay (random keys)".into(), fmt(nm)],
        ],
        shape_holds: structured_best <= sm * 1.03,
        notes: "Identical GA profile and evaluation budget everywhere; only the \
                chromosome-to-schedule builder differs."
            .into(),
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn runs_and_reports() {
        let r = super::run();
        assert_eq!(r.rows.len(), 3);
    }
}
