//! perfbench — the benchmark of the pga-shop solver service.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold_race|cached_replay|session_storm|all \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run from the repository root. With `--trace 0` it builds the shipped
//! `pga-shop-serve` release binary, drives it as a child process over
//! loopback TCP with the workload, checks every answer, and reports the
//! end-to-end metrics. With `--trace 1` it runs the traced per-layer
//! probes in process on the same instances and seeds, and prints the
//! boundary-ratio table. `--workload all` does all of it in one go.
//!
//! The end-to-end metrics carry the same names on every workload, so
//! that every run reports all of them: `setup_s` (median over the
//! set-ups, spawn until the measured phase can start), `peak_rss_mb`
//! (the server's `VmHWM`), `latency_ms.p50`/`.p90` (the workload's main
//! request — a cold solve, a cached hit or a session event — from send
//! to the full response line) and `throughput_per_s` (main requests per
//! second of the closed loop). Workload-specific figures such as
//! `hit_us.p99` or `get_us.p50` are printed and kept in the ledger.
//!
//! The last stdout line is one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}`.
//! Every run also appends a row to the run ledger
//! (`.perfbench_tmp/ledger.jsonl`, outside version control) carrying the
//! host's core count, the git revision, the seed and the effective
//! server configuration. Rows worth keeping are copied into a tracked
//! record by hand; no run edits a tracked file.

#![forbid(unsafe_code)]

mod layers;
mod plan;
mod stats;
mod wire;
mod workloads;

use serve::json::Json;
use serve::ServeConfig;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Ctx, Outcome};

/// The run's scratch directory, relative to the repository root.
const SCRATCH: &str = ".perfbench_tmp";

/// The end-to-end workloads.
const WORKLOADS: [&str; 3] = ["cold_race", "cached_replay", "session_storm"];

/// Host cores: the load generator uses at most this many connections.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?} or all, not {:?}",
            args.workload
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Output checks: how many were made and how many failed.
#[derive(Default)]
pub struct Tally {
    /// Checks attempted.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    /// The first failure messages (for stderr).
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one check.
    pub fn check(&mut self, ok: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = ok {
            self.fail(1, msg);
        }
    }

    /// Counts `n` failed checks under one message.
    pub fn fail(&mut self, n: u64, msg: String) {
        self.failed += n;
        if self.failures.len() < 8 {
            self.failures.push(msg);
        }
    }
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// Sample context for percentiles: `(samples, beyond)`.
    samples: Option<(usize, usize)>,
}

/// What a run reports.
#[derive(Default)]
struct Report {
    tally: Tally,
    metrics: Vec<Metric>,
    detail: Vec<(String, f64, &'static str)>,
    /// The effective server configuration, for the ledger.
    config: String,
    flags: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples: None,
        });
    }

    fn correct(&self) -> bool {
        self.tally.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }
}

/// The end-to-end metrics of one workload, as `BENCHMARK.json` names them.
fn e2e_report(out: Outcome) -> Report {
    for msg in &out.tally.failures {
        eprintln!("perfbench: check failed: {msg}");
    }
    let failed_share = out.tally.failed as f64 / out.tally.attempted.max(1) as f64;
    let setup_s = out.setup_s();
    let mut r = Report {
        tally: out.tally,
        config: effective_config(&out.flags),
        flags: out.flags,
        ..Report::default()
    };
    r.metric("setup_s", setup_s, "s");
    r.metric("peak_rss_mb", out.peak_rss_mb, "MB");
    for (name, q) in [("latency_ms.p50", 0.5), ("latency_ms.p90", 0.9)] {
        r.metrics.push(Metric {
            name: name.into(),
            value: out.latency_ms.pct(q),
            unit: "ms",
            samples: Some((out.latency_ms.len(), out.latency_ms.beyond(q))),
        });
    }
    r.metric("throughput_per_s", out.throughput, "1/s");
    r.detail = out.detail;
    r.detail
        .push(("failed_share".into(), failed_share, "ratio"));
    r.detail
        .push(("setup_runs".into(), out.setups.len() as f64, "count"));
    r
}

fn layers_report(l: layers::Layers) -> Report {
    for msg in &l.tally.failures {
        eprintln!("perfbench: check failed: {msg}");
    }
    let mut r = Report {
        tally: l.tally,
        config: layers::config(),
        ..Report::default()
    };
    for (name, value, unit) in l.metrics {
        r.metric(&name, value, unit);
    }
    println!("boundary ratios (each layer's cost over the layer below it):");
    for line in l.table {
        println!("{line}");
    }
    r
}

fn print_report(title: &str, r: &Report) {
    println!("{title}");
    for m in &r.metrics {
        let samples = m
            .samples
            .map(|(n, beyond)| format!("  (n={n}, {beyond} beyond)"))
            .unwrap_or_default();
        println!("  {:<34} {:>14.4} {}{samples}", m.name, m.value, m.unit);
    }
    for (name, value, unit) in &r.detail {
        println!("  {name:<34} {value:>14.4} {unit}");
    }
    println!(
        "  checks: {} attempted, {} failed",
        r.tally.attempted, r.tally.failed
    );
}

/// The result line: a JSON object, every value with all its digits.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, &Metric)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, m)| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(r#""{name}":{{"value":{value:?},"unit":"{}"}}"#, m.unit)
        })
        .collect();
    format!(
        r#"{{"correct":{correct},"attempted":{},"failed":{failed},"metrics":{{{}}}}}"#,
        attempted.max(1),
        body.join(",")
    )
}

/// The git revision of the checkout, read from `.git` without leaving
/// it; `unknown` outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => read(r)
            .or_else(|| {
                read("packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .map(|l| l.split(' ').next().unwrap_or_default().to_string())
            })
            .map_or("unknown".into(), |s| s.trim().to_string()),
    }
}

/// The server configuration a run's flags resolve to on this host.
fn effective_config(flags: &[String]) -> String {
    let mut c = ServeConfig::default();
    for pair in flags.chunks(2) {
        match (pair[0].as_str(), pair.get(1)) {
            ("--gen-cap", Some(v)) => c.gen_cap = v.parse().unwrap_or(c.gen_cap),
            ("--wal-dir", Some(v)) => c.wal_dir = Some(v.clone()),
            _ => {}
        }
    }
    let c = c.resolved();
    format!(
        "workers={} racers={} racer_pool={} max_queue_depth={} cache={} cache_shards={} \
         gen_cap={} default_deadline_ms={} max_deadline_ms={} event_deadline_ms={} \
         wal={} wal_fsync={}",
        c.workers,
        c.racers,
        c.racer_pool,
        c.max_queue_depth,
        c.cache_capacity,
        c.cache_shards,
        c.gen_cap,
        c.default_deadline_ms,
        c.max_deadline_ms,
        c.default_event_deadline_ms,
        c.wal_dir.is_some(),
        c.wal_fsync
    )
}

fn ledger_row(args: &Args, scope: &str, trace: bool, r: &Report) -> String {
    let num = |v: f64| Json::Num(if v.is_finite() { v } else { 0.0 });
    let map = |items: Vec<(String, f64)>| {
        Json::Obj(items.into_iter().map(|(k, v)| (k, num(v))).collect())
    };
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    Json::Obj(vec![
        ("unix_s".into(), now.into()),
        ("rev".into(), git_rev().into()),
        ("nproc".into(), (nproc() as u64).into()),
        ("workload".into(), scope.into()),
        ("seed".into(), args.seed.into()),
        ("seconds".into(), num(args.seconds)),
        ("trace".into(), trace.into()),
        (
            "server_flags".into(),
            Json::Arr(r.flags.iter().map(|f| f.as_str().into()).collect()),
        ),
        ("server_config".into(), r.config.as_str().into()),
        ("correct".into(), r.correct().into()),
        ("attempted".into(), r.tally.attempted.into()),
        ("failed".into(), r.tally.failed.into()),
        (
            "metrics".into(),
            map(r
                .metrics
                .iter()
                .map(|m| (m.name.clone(), m.value))
                .collect()),
        ),
        (
            "detail".into(),
            map(r.detail.iter().map(|(n, v, _)| (n.clone(), *v)).collect()),
        ),
    ])
    .encode()
}

fn append_ledger(path: &Path, rows: &[String]) -> Result<(), String> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let text: String = rows.iter().map(|r| format!("{r}\n")).collect();
    f.write_all(text.as_bytes())
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Removes the run's scratch directory however the run ends.
struct TmpDir(PathBuf);

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(args: &Args) -> Result<String, String> {
    let scratch = PathBuf::from(SCRATCH);
    let tmp = TmpDir(scratch.join(format!("run-{}", std::process::id())));
    std::fs::create_dir_all(&tmp.0).map_err(|e| format!("{}: {e}", tmp.0.display()))?;
    let e2e: Vec<&str> = match (args.workload.as_str(), args.trace) {
        ("all", _) => WORKLOADS.to_vec(),
        (_, true) => Vec::new(),
        (w, false) => vec![w],
    };
    // `(scope, traced, report)`: the scope is the workload, or `layers`
    // for the traced run, which covers every layer whatever the workload.
    let mut reports: Vec<(String, bool, Report)> = Vec::new();
    if !e2e.is_empty() {
        let ctx = Ctx {
            bin: wire::build_server()?,
            seed: args.seed,
            seconds: args.seconds,
            tmp: tmp.0.clone(),
            digests: scratch.join("digests"),
        };
        for w in e2e {
            let out = match w {
                "cold_race" => workloads::cold_race(&ctx)?,
                "cached_replay" => workloads::cached_replay(&ctx)?,
                _ => workloads::session_storm(&ctx)?,
            };
            let r = e2e_report(out);
            print_report(
                &format!(
                    "perfbench {w} seed={} nproc={} rev={} server: {}",
                    args.seed,
                    nproc(),
                    git_rev(),
                    r.config
                ),
                &r,
            );
            reports.push((w.to_string(), false, r));
        }
    }
    if args.trace || args.workload == "all" {
        let r = layers_report(layers::run(args.seed, &tmp.0)?);
        print_report(
            &format!(
                "perfbench per-layer (traced, in process) seed={} nproc={}",
                args.seed,
                nproc()
            ),
            &r,
        );
        reports.push(("layers".to_string(), true, r));
    }

    let rows: Vec<String> = reports
        .iter()
        .map(|(scope, trace, r)| ledger_row(args, scope, *trace, r))
        .collect();
    // The record is a by-product: failing to write it costs the row, not
    // the run.
    if let Err(e) = append_ledger(&scratch.join("ledger.jsonl"), &rows) {
        eprintln!("perfbench: ledger not written: {e}");
    }
    let prefix = reports.len() > 1;
    let metrics: Vec<(String, &Metric)> = reports
        .iter()
        .flat_map(|(scope, _, r)| {
            r.metrics.iter().map(move |m| {
                let name = if prefix {
                    format!("{scope}.{}", m.name)
                } else {
                    m.name.clone()
                };
                (name, m)
            })
        })
        .collect();
    let correct = reports.iter().all(|(_, _, r)| r.correct());
    let attempted = reports.iter().map(|(_, _, r)| r.tally.attempted).sum();
    let failed = reports.iter().map(|(_, _, r)| r.tally.failed).sum();
    Ok(result_line(correct, attempted, failed, &metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
