//! Criterion micro-benches for every schedule decoder — the fitness
//! kernels whose cost drives all of the survey's speedup arithmetic.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ga::rng::root_rng;
use rand::seq::SliceRandom;
use shop::decoder::flexible::FlexDecoder;
use shop::decoder::flow::FlowDecoder;
use shop::decoder::job::JobDecoder;
use shop::decoder::open::OpenDecoder;
use shop::decoder::table::{DecodeScratch, FlexTable, OpTable};
use shop::dynamic::SuffixRedecoder;
use shop::graph::{machine_orders_from_sequence, DisjunctiveGraph};
use shop::instance::generate::{
    flexible_job_shop, flow_shop_taillard, job_shop_uniform, open_shop_uniform, GenConfig,
};
use std::sync::Arc;
use std::time::Duration;

fn quick(c: &mut Criterion) -> criterion::BenchmarkGroup<'_, criterion::measurement::WallTime> {
    let mut g = c.benchmark_group("decoders");
    g.sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    g
}

fn bench_flow(c: &mut Criterion) {
    let mut g = quick(c);
    for (n, m) in [(20usize, 5usize), (100, 10)] {
        let inst = flow_shop_taillard(&GenConfig::new(n, m, 1));
        let d = FlowDecoder::new(&inst);
        let perm: Vec<usize> = (0..n).collect();
        g.bench_with_input(
            BenchmarkId::new("flow_makespan", format!("{n}x{m}")),
            &perm,
            |b, p| b.iter(|| d.makespan(std::hint::black_box(p))),
        );
    }
    g.finish();
}

fn bench_job(c: &mut Criterion) {
    let mut g = quick(c);
    for (n, m) in [(10usize, 5usize), (30, 10)] {
        let inst = job_shop_uniform(&GenConfig::new(n, m, 2));
        let d = JobDecoder::new(&inst);
        let seq: Vec<usize> = (0..m).flat_map(|_| 0..n).collect();
        g.bench_with_input(
            BenchmarkId::new("job_semi_active", format!("{n}x{m}")),
            &seq,
            |b, s| b.iter(|| d.semi_active_makespan(std::hint::black_box(s))),
        );
        let keys: Vec<f64> = (0..n * m).map(|i| (i % 17) as f64 / 17.0).collect();
        g.bench_with_input(
            BenchmarkId::new("job_giffler_thompson", format!("{n}x{m}")),
            &keys,
            |b, k| b.iter(|| d.gt_from_keys(std::hint::black_box(k)).makespan()),
        );
        let orders = machine_orders_from_sequence(&inst, &seq);
        g.bench_with_input(
            BenchmarkId::new("graph_longest_path", format!("{n}x{m}")),
            &orders,
            |b, o| {
                b.iter(|| {
                    DisjunctiveGraph::from_machine_orders(&inst, std::hint::black_box(o), false)
                        .makespan()
                        .unwrap()
                })
            },
        );
        g.bench_with_input(
            BenchmarkId::new("graph_blocking", format!("{n}x{m}")),
            &orders,
            |b, o| {
                b.iter(|| {
                    DisjunctiveGraph::from_machine_orders(&inst, std::hint::black_box(o), true)
                        .makespan()
                        .ok()
                })
            },
        );
    }
    g.finish();
}

fn bench_open_flexible(c: &mut Criterion) {
    let mut g = quick(c);
    let open = open_shop_uniform(&GenConfig::new(10, 8, 3));
    let od = OpenDecoder::new(&open);
    let genes: Vec<usize> = (0..80).map(|i| i % 10).collect();
    g.bench_function("open_lpt_task_10x8", |b| {
        b.iter(|| od.lpt_task_makespan(std::hint::black_box(&genes)))
    });

    let flex = flexible_job_shop(&GenConfig::new(10, 6, 4), 5, 3);
    let fd = FlexDecoder::new(&flex);
    let assign = fd.fastest_assignment();
    let seq = fd.round_robin_sequence();
    g.bench_function("flexible_decode_10x5ops", |b| {
        b.iter(|| fd.makespan(std::hint::black_box(&assign), std::hint::black_box(&seq)))
    });
    g.finish();
}

/// The struct-of-arrays hot path per family: the full table decode a
/// race member evaluates through (the decodes/s figures behind the
/// serve lineup's per-family pricing).
fn bench_table_paths(c: &mut Criterion) {
    let mut g = quick(c);

    let flow = flow_shop_taillard(&GenConfig::new(50, 10, 1));
    let flow_table = OpTable::from_flow(&flow);
    let mut scratch = DecodeScratch::new();
    let perm: Vec<usize> = (0..50).collect();
    g.bench_with_input(
        BenchmarkId::new("flow_table_full", "50x10"),
        &perm,
        |b, p| b.iter(|| flow_table.flow_makespan(std::hint::black_box(p), &mut scratch)),
    );

    let job = job_shop_uniform(&GenConfig::new(30, 10, 2));
    let job_table = OpTable::from_job(&job);
    let seq: Vec<usize> = (0..300).map(|v| v % 30).collect();
    g.bench_with_input(BenchmarkId::new("job_table_full", "30x10"), &seq, |b, s| {
        b.iter(|| job_table.job_makespan(std::hint::black_box(s), &mut scratch))
    });

    let open = open_shop_uniform(&GenConfig::new(10, 8, 3));
    let open_table = OpTable::from_open(&open);
    let order: Vec<usize> = (0..80).collect();
    g.bench_with_input(
        BenchmarkId::new("open_table_full", "10x8"),
        &order,
        |b, p| b.iter(|| open_table.open_order_makespan(std::hint::black_box(p), &mut scratch)),
    );

    let flex = flexible_job_shop(&GenConfig::new(10, 6, 4), 5, 3);
    let flex_table = FlexTable::from_flexible(&flex);
    let total = flex_table.total_ops();
    let assign: Vec<usize> = (0..total).map(|i| i.wrapping_mul(13)).collect();
    let fseq: Vec<usize> = (0..total).map(|v| v % 10).collect();
    g.bench_function("flexible_table_full/10x5ops", |b| {
        b.iter(|| {
            flex_table.makespan(
                std::hint::black_box(&assign),
                std::hint::black_box(&fseq),
                &mut scratch,
            )
        })
    });
    g.finish();
}

/// The session re-solve evaluator, `SuffixRedecoder`, on a 15x8 job
/// shop with an empty frozen prefix (k = 120), next to the table
/// decode of the same op multisets. Both cycle through 256 seeded
/// random orders, so the branch predictor cannot learn one genome.
fn bench_suffix(c: &mut Criterion) {
    let mut g = quick(c);
    let inst = job_shop_uniform(&GenConfig::new(15, 8, 5));
    let suffix: Vec<(usize, usize)> = (0..8).flat_map(|s| (0..15).map(move |j| (j, s))).collect();
    let mut rng = root_rng(11);
    let perms: Vec<Vec<usize>> = (0..256)
        .map(|_| {
            let mut p: Vec<usize> = (0..suffix.len()).collect();
            p.shuffle(&mut rng);
            p
        })
        .collect();
    let seqs: Vec<Vec<usize>> = perms
        .iter()
        .map(|p| p.iter().map(|&i| suffix[i].0).collect())
        .collect();

    let table = OpTable::from_job(&inst);
    let mut redecoder = SuffixRedecoder::new(
        Arc::new(inst),
        &[],
        Arc::new(suffix),
        Arc::new(Vec::new()),
        0,
    );
    let mut next = perms.iter().cycle();
    g.bench_function("suffix_redecode/15x8", |b| {
        b.iter(|| redecoder.makespan(std::hint::black_box(next.next().expect("cycle never ends"))))
    });
    let mut scratch = DecodeScratch::new();
    let mut next = seqs.iter().cycle();
    g.bench_function("job_table_shuffled/15x8", |b| {
        b.iter(|| {
            table.job_makespan(
                std::hint::black_box(next.next().expect("cycle never ends")),
                &mut scratch,
            )
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_flow,
    bench_job,
    bench_open_flexible,
    bench_table_paths,
    bench_suffix
);
criterion_main!(benches);
