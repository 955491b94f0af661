//! Micro-benches for every schedule decoder — the fitness kernels
//! whose cost drives all of the survey's speedup arithmetic.

mod common;

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
use std::hint::black_box;
use std::sync::Arc;

/// Times one decoder case as a `decoders/<name>` row.
fn row<O>(name: &str, f: impl FnMut() -> O) {
    common::row("decoders", name, f);
}

fn bench_flow() {
    for (n, m) in [(20usize, 5usize), (100, 10)] {
        let inst = flow_shop_taillard(&GenConfig::new(n, m, 1));
        let d = FlowDecoder::new(&inst);
        let perm: Vec<usize> = (0..n).collect();
        row(&format!("flow_makespan/{n}x{m}"), || {
            d.makespan(black_box(&perm))
        });
    }
}

fn bench_job() {
    for (n, m) in [(10usize, 5usize), (30, 10)] {
        let inst = job_shop_uniform(&GenConfig::new(n, m, 2));
        let d = JobDecoder::new(&inst);
        let seq: Vec<usize> = (0..m).flat_map(|_| 0..n).collect();
        row(&format!("job_semi_active/{n}x{m}"), || {
            d.semi_active_makespan(black_box(&seq))
        });
        let keys: Vec<f64> = (0..n * m).map(|i| (i % 17) as f64 / 17.0).collect();
        row(&format!("job_giffler_thompson/{n}x{m}"), || {
            d.gt_from_keys(black_box(&keys)).makespan()
        });
        let orders = machine_orders_from_sequence(&inst, &seq);
        row(&format!("graph_longest_path/{n}x{m}"), || {
            DisjunctiveGraph::from_machine_orders(&inst, black_box(&orders), false)
                .makespan()
                .unwrap()
        });
        row(&format!("graph_blocking/{n}x{m}"), || {
            DisjunctiveGraph::from_machine_orders(&inst, black_box(&orders), true)
                .makespan()
                .ok()
        });
    }
}

fn bench_open_flexible() {
    let open = open_shop_uniform(&GenConfig::new(10, 8, 3));
    let od = OpenDecoder::new(&open);
    let genes: Vec<usize> = (0..80).map(|i| i % 10).collect();
    row("open_lpt_task_10x8", || {
        od.lpt_task_makespan(black_box(&genes))
    });

    let flex = flexible_job_shop(&GenConfig::new(10, 6, 4), 5, 3);
    let fd = FlexDecoder::new(&flex);
    let assign = fd.fastest_assignment();
    let seq = fd.round_robin_sequence();
    row("flexible_decode_10x5ops", || {
        fd.makespan(black_box(&assign), black_box(&seq))
    });
}

/// The struct-of-arrays hot path per family: the full table decode a
/// race member evaluates through (the decodes/s figures behind the
/// serve lineup's per-family pricing).
fn bench_table_paths() {
    let flow = flow_shop_taillard(&GenConfig::new(50, 10, 1));
    let flow_table = OpTable::from_flow(&flow);
    let mut scratch = DecodeScratch::new();
    let perm: Vec<usize> = (0..50).collect();
    row("flow_table_full/50x10", || {
        flow_table.flow_makespan(black_box(&perm), &mut scratch)
    });

    let job = job_shop_uniform(&GenConfig::new(30, 10, 2));
    let job_table = OpTable::from_job(&job);
    let seq: Vec<usize> = (0..300).map(|v| v % 30).collect();
    row("job_table_full/30x10", || {
        job_table.job_makespan(black_box(&seq), &mut scratch)
    });

    let open = open_shop_uniform(&GenConfig::new(10, 8, 3));
    let open_table = OpTable::from_open(&open);
    let order: Vec<usize> = (0..80).collect();
    row("open_table_full/10x8", || {
        open_table.open_order_makespan(black_box(&order), &mut scratch)
    });

    let flex = flexible_job_shop(&GenConfig::new(10, 6, 4), 5, 3);
    let flex_table = FlexTable::from_flexible(&flex);
    let total = flex_table.total_ops();
    let assign: Vec<usize> = (0..total).map(|i| i.wrapping_mul(13)).collect();
    let fseq: Vec<usize> = (0..total).map(|v| v % 10).collect();
    row("flexible_table_full/10x5ops", || {
        flex_table.makespan(black_box(&assign), black_box(&fseq), &mut scratch)
    });
}

/// The session re-solve evaluator, `SuffixRedecoder`, on a 15x8 job
/// shop with an empty frozen prefix (k = 120), next to the table
/// decode of the same op multisets. Both cycle through 256 seeded
/// random orders, so the branch predictor cannot learn one genome.
fn bench_suffix() {
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
    row("suffix_redecode/15x8", || {
        redecoder.makespan(black_box(next.next().expect("cycle never ends")))
    });
    let mut scratch = DecodeScratch::new();
    let mut next = seqs.iter().cycle();
    row("job_table_shuffled/15x8", || {
        table.job_makespan(
            black_box(next.next().expect("cycle never ends")),
            &mut scratch,
        )
    });
}

fn main() {
    bench_flow();
    bench_job();
    bench_open_flexible();
    bench_table_paths();
    bench_suffix();
}
