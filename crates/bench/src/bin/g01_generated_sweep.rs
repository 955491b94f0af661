//! G01 — generated-instance sweep runner: prints the report.
//!
//! Usage: `cargo run -p bench --release --bin g01_generated_sweep`

fn main() {
    println!("{}", bench::experiments::g01_generated::run().to_text());
}
