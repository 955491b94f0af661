//! E11 — Gu, Gu & Gu \[28\]: stochastic job shop (expected-value model)
//! solved by a parallel *quantum* GA: islands of Q-bit individuals in a
//! star-shaped topology with penetration migration (sharing the best
//! observation) at the upper level.
//!
//! Paper outcome: better optima with faster convergence than both the
//! conventional GA and the serial quantum GA on large instances.

use crate::report::{fmt, Report};
use ga::crossover::RepCrossover;
use ga::engine::{Engine, GaConfig, Toolkit};
use ga::mutate::SeqMutation;
use ga::quantum::QuantumGa;
use ga::stats::History;
use ga::termination::Termination;
use ga::Model;
use shop::instance::generate::{job_shop_uniform, GenConfig};
use shop::stochastic::StochasticJobShop;
use shop::Problem;

/// Maps a permutation of all operations to a repetition sequence of job
/// ids (job of the k-th smallest key), then evaluates expected makespan.
fn perm_to_expected(shop: &StochasticJobShop, job_of_op: &[usize], perm: &[usize]) -> f64 {
    let seq: Vec<usize> = perm.iter().map(|&p| job_of_op[p]).collect();
    shop.expected_makespan(&seq, 12, 0xE11)
}

pub fn run() -> Report {
    let crisp = job_shop_uniform(&GenConfig::new(10, 5, 0xE11));
    let shop = StochasticJobShop::from_crisp(&crisp, 0.25);
    let n_ops = crisp.total_ops();
    let job_of_op: Vec<usize> = (0..crisp.n_jobs())
        .flat_map(|j| std::iter::repeat_n(j, crisp.n_ops(j)))
        .collect();

    let generations = 30u64;
    let seeds = [0xE11u64, 0xE12, 0xE13];

    let eval = {
        let shop = shop.clone();
        move |seq: &Vec<usize>| shop.expected_makespan(seq, 12, 0xE11)
    };
    let qcost = {
        let shop = shop.clone();
        let job_of_op = job_of_op.clone();
        move |perm: &[usize]| perm_to_expected(&shop, &job_of_op, perm)
    };

    let mut conv_v = Vec::new();
    let mut conv_auc_v = Vec::new();
    let mut sq_v = Vec::new();
    let mut sq_auc_v = Vec::new();
    let mut pq_v = Vec::new();
    let mut pq_auc_v = Vec::new();
    for &seed in &seeds {
        // Conventional GA on operation sequences, same evaluation.
        let cfg = GaConfig {
            pop_size: 24,
            seed,
            ..GaConfig::default()
        };
        let tk = Toolkit::repetition(
            crisp.ops_per_job(),
            RepCrossover::JobOrder,
            SeqMutation::Swap,
        );
        let mut conventional = Engine::new(cfg, tk, &eval);
        let mut history = History::default();
        ga::run(
            &mut conventional,
            &Termination::Generations(generations),
            &mut history,
        );
        conv_v.push(conventional.best().cost);
        conv_auc_v.push(history.convergence_auc());

        // Serial quantum GA.
        let mut serial_q = QuantumGa::new(24, n_ops, 5, seed, &qcost).with_rates(0.06, 0.01);
        let mut history = History::default();
        ga::run(
            &mut serial_q,
            &Termination::Generations(generations),
            &mut history,
        );
        sq_v.push(serial_q.best().cost);
        sq_auc_v.push(history.convergence_auc());

        // Parallel quantum GA: 4 islands in a star; every 5 generations
        // the hub collects the globally best observation and the leaves
        // rotate towards it ("penetration migration" at the upper level).
        let mut islands: Vec<QuantumGa> = (0..4)
            .map(|i| {
                QuantumGa::new(6, n_ops, 5, seed ^ ((i as u64) << 8), &qcost).with_rates(0.06, 0.01)
            })
            .collect();
        let mut best_cost = f64::INFINITY;
        let mut best_bits: Vec<bool> = Vec::new();
        // The AUC sums generations 0..=N, like the two runs above.
        let mut auc = islands
            .iter()
            .map(|isl| isl.best().cost)
            .fold(f64::INFINITY, f64::min);
        for gen in 0..generations {
            for isl in islands.iter_mut() {
                isl.step(&mut ());
                if isl.best().cost < best_cost {
                    best_cost = isl.best().cost;
                    best_bits = isl.best_bits.clone();
                }
            }
            auc += best_cost;
            if (gen + 1) % 5 == 0 {
                for isl in islands.iter_mut() {
                    for g in isl.population.iter_mut() {
                        g.rotate_toward(&best_bits, 0.08);
                    }
                }
            }
        }
        pq_v.push(best_cost);
        pq_auc_v.push(auc);
    }

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let conv = mean(&conv_v);
    let sq = mean(&sq_v);
    let pq = mean(&pq_v);

    // Shape: the parallel QGA at least matches the serial QGA, and is
    // competitive with (or better than) the conventional GA (means over
    // 3 seeds; equal total evaluation budget everywhere).
    let shape_holds = pq <= sq * 1.005 && pq <= conv * 1.05;
    Report {
        id: "E11",
        title: "Gu [28]: parallel quantum GA for the stochastic job shop (star topology)",
        paper_claim: "Parallel quantum GA finds better (near-)optimal solutions with faster convergence than the GA and the serial quantum GA on large instances",
        columns: vec!["algorithm", "mean expected makespan", "mean convergence AUC"],
        rows: vec![
            vec!["conventional GA".into(), fmt(conv), fmt(mean(&conv_auc_v))],
            vec!["serial quantum GA".into(), fmt(sq), fmt(mean(&sq_auc_v))],
            vec!["parallel quantum GA (4 islands, star)".into(), fmt(pq), fmt(mean(&pq_auc_v))],
        ],
        shape_holds,
        notes: "Expected makespans via common-random-number sampling (12 scenarios, \
                shop::stochastic). Q-bit genomes, rotation gates and Not-gate mutation in \
                ga::quantum; the star's penetration migration shares the hub's best \
                observed bit string as every island's rotation target. Means over 3 seeds."
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
