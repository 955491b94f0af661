//! O01 — observability-overhead lane runner: prints the report and
//! exits non-zero when the overhead shape does not hold.
//!
//! Usage: `cargo run -p bench --release --bin o01_trace_overhead`

fn main() {
    let report = bench::experiments::o01_overhead::run();
    println!("{}", report.to_text());
    if !report.shape_holds {
        std::process::exit(1);
    }
}
