//! Criterion micro-benches for the GA operator catalogue — the
//! per-generation serial work that bounds master-slave speedup (Amdahl).

use criterion::{criterion_group, criterion_main, Criterion};
use ga::crossover::{KeysCrossover, PermCrossover, RepCrossover};
use ga::dual::DualGenome;
use ga::mutate::{gaussian_keys, SeqMutation};
use ga::rng::root_rng;
use ga::select::Selection;
use rand::seq::SliceRandom;
use std::time::Duration;

fn quick(c: &mut Criterion) -> criterion::BenchmarkGroup<'_, criterion::measurement::WallTime> {
    let mut g = c.benchmark_group("operators");
    g.sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    g
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

fn bench_crossovers(c: &mut Criterion) {
    let mut g = quick(c);
    let mut rng = root_rng(1);
    // The serve path's permutation sizes.
    for n in [50, 160] {
        let pairs = shuffled_pairs(&(0..n).collect::<Vec<_>>(), 64);
        for op in PermCrossover::ALL {
            let mut next = pairs.iter().cycle();
            g.bench_function(format!("perm_{op:?}_n{n}"), |b| {
                b.iter(|| {
                    let (p1, p2) = next.next().expect("cycle never ends");
                    op.apply(std::hint::black_box(p1), std::hint::black_box(p2), &mut rng)
                })
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
        g.bench_function(format!("rep_{name}"), |b| {
            b.iter(|| {
                let (p1, p2) = next.next().expect("cycle never ends");
                op.apply(
                    std::hint::black_box(p1),
                    std::hint::black_box(p2),
                    20,
                    &mut rng,
                )
            })
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
    g.bench_function("dual_crossover", |b| {
        b.iter(|| {
            let (p1, p2) = next.next().expect("cycle never ends");
            DualGenome::crossover(
                std::hint::black_box(p1),
                std::hint::black_box(p2),
                20,
                &mut rng,
            )
        })
    });
    let k1: Vec<f64> = (0..100).map(|i| i as f64 / 100.0).collect();
    let k2: Vec<f64> = k1.iter().rev().copied().collect();
    for (name, op) in [
        ("uniform", KeysCrossover::Uniform),
        ("arithmetic", KeysCrossover::Arithmetic),
        ("two_point", KeysCrossover::TwoPoint),
    ] {
        g.bench_function(format!("keys_{name}"), |b| {
            b.iter(|| {
                op.apply(
                    std::hint::black_box(&k1),
                    std::hint::black_box(&k2),
                    &mut rng,
                )
            })
        });
    }
    g.finish();
}

fn bench_mutation_selection(c: &mut Criterion) {
    let mut g = quick(c);
    let mut rng = root_rng(2);
    for m in SeqMutation::ALL {
        g.bench_function(format!("mutate_{m:?}"), |b| {
            b.iter_batched(
                || (0..100usize).collect::<Vec<_>>(),
                |mut v| m.apply(&mut v, &mut rng),
                criterion::BatchSize::SmallInput,
            )
        });
    }
    g.bench_function("mutate_gaussian_keys", |b| {
        b.iter_batched(
            || vec![0.5f64; 100],
            |mut v| gaussian_keys(&mut v, 0.1, 0.2, &mut rng),
            criterion::BatchSize::SmallInput,
        )
    });
    let fitness: Vec<f64> = (1..=100).map(|i| i as f64).collect();
    for (name, sel) in [
        ("roulette", Selection::RouletteWheel),
        ("tournament5", Selection::Tournament(5)),
        ("rank", Selection::LinearRank),
    ] {
        g.bench_function(format!("select_{name}"), |b| {
            b.iter(|| sel.pick(std::hint::black_box(&fitness), &mut rng))
        });
    }
    g.bench_function("select_sus_pick100", |b| {
        b.iter(|| {
            Selection::StochasticUniversal.pick_many(std::hint::black_box(&fitness), 100, &mut rng)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_crossovers, bench_mutation_selection);
criterion_main!(benches);
