//! X03 — event-storm session sweep runner: prints the report.
//!
//! Usage: `cargo run -p bench --release --bin x03_session_storm`

fn main() {
    println!("{}", bench::experiments::x03_session::run().to_text());
}
