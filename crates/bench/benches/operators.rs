//! Micro-benches for the GA operator catalogue — the per-generation
//! serial work that bounds master-slave speedup (Amdahl).

mod common;

use ga::crossover::{KeysCrossover, PermCrossover, RepCrossover};
use ga::dual::DualGenome;
use ga::mutate::{gaussian_keys, SeqMutation};
use ga::rng::root_rng;
use ga::select::Selection;
use rand::seq::SliceRandom;
use std::hint::black_box;

/// Times one operator case as an `operators/<name>` row.
fn row<O>(name: &str, f: impl FnMut() -> O) {
    common::row("operators", name, f);
}

/// `count` seeded pairs of shuffles of `genes`. The benches cycle
/// through them: structured parents (identity against its reverse, one
/// fixed pair) let the branch predictor learn a data-dependent kernel
/// and under-price it against the random genomes a race breeds.
fn shuffled_pairs(genes: &[usize], count: usize) -> Vec<(Vec<usize>, Vec<usize>)> {
    let mut rng = root_rng(7);
    let mut shuffled = || {
        let mut g = genes.to_vec();
        g.shuffle(&mut rng);
        g
    };
    (0..count).map(|_| (shuffled(), shuffled())).collect()
}

fn bench_crossovers() {
    let mut rng = root_rng(1);
    // The serve path's permutation sizes.
    for n in [50, 160] {
        let pairs = shuffled_pairs(&(0..n).collect::<Vec<_>>(), 64);
        for op in PermCrossover::ALL {
            let mut next = pairs.iter().cycle();
            row(&format!("perm_{op:?}_n{n}"), || {
                let (p1, p2) = next.next().expect("cycle never ends");
                op.apply(black_box(p1), black_box(p2), &mut rng)
            });
        }
    }
    // A serve-size job-shop sequence: 20 jobs x 10 operations.
    let pairs = shuffled_pairs(&(0..200).map(|i| i % 20).collect::<Vec<_>>(), 64);
    for (name, op) in [
        ("job_order", RepCrossover::JobOrder),
        ("thx", RepCrossover::Thx(0.5)),
    ] {
        let mut next = pairs.iter().cycle();
        row(&format!("rep_{name}"), || {
            let (p1, p2) = next.next().expect("cycle never ends");
            op.apply(black_box(p1), black_box(p2), 20, &mut rng)
        });
    }
    // The flexible-shop dual genome at the serve size: 20 jobs x 8
    // operations, 3 eligible machines per operation.
    let mut pair_rng = root_rng(7);
    let dual_pairs: Vec<(DualGenome, DualGenome)> = (0..64)
        .map(|_| {
            let a = DualGenome::random(&[8; 20], 3, &mut pair_rng);
            let b = DualGenome::random(&[8; 20], 3, &mut pair_rng);
            (a, b)
        })
        .collect();
    let mut next = dual_pairs.iter().cycle();
    row("dual_crossover", || {
        let (p1, p2) = next.next().expect("cycle never ends");
        DualGenome::crossover(black_box(p1), black_box(p2), 20, &mut rng)
    });
    let k1: Vec<f64> = (0..100).map(|i| i as f64 / 100.0).collect();
    let k2: Vec<f64> = k1.iter().rev().copied().collect();
    for (name, op) in [
        ("uniform", KeysCrossover::Uniform),
        ("arithmetic", KeysCrossover::Arithmetic),
        ("two_point", KeysCrossover::TwoPoint),
    ] {
        row(&format!("keys_{name}"), || {
            op.apply(black_box(&k1), black_box(&k2), &mut rng)
        });
    }
}

/// Mutations run in place on one 100-gene genome, so a row prices the
/// operator alone, with no per-call allocation.
fn bench_mutation_selection() {
    let mut rng = root_rng(2);
    for m in SeqMutation::ALL {
        let mut genome: Vec<usize> = (0..100).collect();
        row(&format!("mutate_{m:?}"), || m.apply(&mut genome, &mut rng));
    }
    let mut keys = vec![0.5f64; 100];
    row("mutate_gaussian_keys", || {
        gaussian_keys(&mut keys, 0.1, 0.2, &mut rng)
    });
    let fitness: Vec<f64> = (1..=100).map(|i| i as f64).collect();
    for (name, sel) in [
        ("roulette", Selection::RouletteWheel),
        ("tournament5", Selection::Tournament(5)),
        ("rank", Selection::LinearRank),
    ] {
        row(&format!("select_{name}"), || {
            sel.pick(black_box(&fitness), &mut rng)
        });
    }
    row("select_sus_pick100", || {
        Selection::StochasticUniversal.pick_many(black_box(&fitness), 100, &mut rng)
    });
}

fn main() {
    bench_crossovers();
    bench_mutation_selection();
}
