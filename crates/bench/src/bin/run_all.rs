//! Runs every experiment harness (DESIGN.md §3) and regenerates
//! EXPERIMENTS.md with paper-vs-measured tables.
//!
//! Usage: `cargo run -p bench --release --bin run_all [output-path]`

use std::time::Instant;

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "EXPERIMENTS.md".to_string());
    let mut md = String::new();
    md.push_str("# EXPERIMENTS — paper vs measured\n\n");
    md.push_str(
        "Generated by `cargo run -p bench --release --bin run_all`. One section per \
         experiment in the DESIGN.md §3 index; *shape* verdicts check the qualitative \
         claim of the surveyed work (who wins, by roughly what factor, negative results \
         staying negative). Speed figures come from the `hpc` platform cost models \
         calibrated with per-evaluation costs measured on this host (see DESIGN.md §4 \
         substitutions); quality figures come from real runs of the `pga` models.\n\n",
    );

    let mut held = 0usize;
    let experiments = bench::experiments::all();
    let total = experiments.len();
    for experiment in experiments {
        let t0 = Instant::now();
        let report = (experiment.run)();
        let dt = t0.elapsed().as_secs_f64();
        println!("{}", report.to_text());
        println!("  ({dt:.1}s)\n");
        if report.shape_holds {
            held += 1;
        }
        md.push_str(&report.to_markdown());
    }
    md.push_str(&format!(
        "---\n\n**Summary: {held}/{total} experiment shapes hold.**\n"
    ));
    std::fs::write(&out_path, md).expect("write EXPERIMENTS.md");
    println!("== {held}/{total} shapes hold; wrote {out_path} ==");
}
