//! Runs the experiments named on the command line (DESIGN.md §3) and
//! prints each report. A name is an experiment's module name or its id
//! prefix: `e06_lin` and `e06` both pick E06.
//!
//! Exits 1 when any selected experiment's shape does not hold, and 2,
//! before running anything, on a missing, unknown or ambiguous name.
//!
//! Usage: `cargo run -p bench --release --bin experiment -- <name>...`

use std::process::exit;

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let selected = bench::experiments::select(&names).unwrap_or_else(|err| {
        eprintln!("experiment: {err}");
        exit(2);
    });
    let mut all_hold = true;
    for experiment in selected {
        let report = (experiment.run)();
        println!("{}", report.to_text());
        all_hold &= report.shape_holds;
    }
    if !all_hold {
        exit(1);
    }
}
