//! CI smoke gate for the decode path the race runs: on a small
//! flexible instance, the struct-of-arrays table decode
//! (`FlexTable::makespan`, what every race member evaluates through)
//! must sustain at least the throughput of the materialising reference
//! decoder (`FlexDecoder::decode`) and return the same makespan.
//! Losing to the reference means the flat table path regressed. Exits
//! non-zero on failure so CI fails the step.
//!
//! Usage: `cargo run -p bench --release --bin decoder_smoke`

use hpc::calibrate::measure_adaptive_s;
use shop::decoder::flexible::FlexDecoder;
use shop::decoder::table::{DecodeScratch, FlexTable};
use shop::instance::generate::{flexible_job_shop, GenConfig};

fn main() {
    let inst = flexible_job_shop(&GenConfig::new(12, 8, 9), 8, 3);
    let reference = FlexDecoder::new(&inst);
    let table = FlexTable::from_flexible(&inst);
    let total = table.total_ops();
    let assign: Vec<usize> = (0..total).map(|i| i.wrapping_mul(13)).collect();
    let seq: Vec<usize> = (0..total).map(|v| v % 12).collect();

    let mut scratch = DecodeScratch::new();
    let want = reference.decode(&assign, &seq).makespan();
    let got = table.makespan(&assign, &seq, &mut scratch);
    if got != want {
        eprintln!("decoder_smoke: FAIL — table {got} != reference {want}");
        std::process::exit(1);
    }

    let ref_s = measure_adaptive_s(0.05, || {
        std::hint::black_box(reference.decode(&assign, &seq).makespan());
    });
    let table_s = measure_adaptive_s(0.05, || {
        std::hint::black_box(table.makespan(&assign, &seq, &mut scratch));
    });

    let ref_per_s = ref_s.recip();
    let table_per_s = table_s.recip();
    println!(
        "decoder_smoke: flexible {total} ops — reference {ref_per_s:.0}/s, \
         table {table_per_s:.0}/s ({:.1}x)",
        table_per_s / ref_per_s
    );
    if table_per_s < ref_per_s {
        eprintln!("decoder_smoke: FAIL — table decode slower than the reference decoder");
        std::process::exit(1);
    }
    println!("decoder_smoke: OK");
}
