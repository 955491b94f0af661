//! D01 — decoder hot-path lane runner: prints the report.
//!
//! Usage: `cargo run -p bench --release --bin d01_decoder_lane`

fn main() {
    println!("{}", bench::experiments::d01_decoder::run().to_text());
}
