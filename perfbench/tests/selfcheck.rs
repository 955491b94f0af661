//! Self-check of the benchmark: a short run of every workload, and one
//! traced run, must emit every metric `BENCHMARK.json` names with its
//! unit, pass every output check, and keep at least ten samples beyond
//! each reported percentile. A metric dropped from the harness fails
//! here before it silently vanishes from the record.
//!
//! Run from anywhere: `cargo test --release --manifest-path perfbench/Cargo.toml`.

use serve::json::{self, Json};
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits inside the repository")
        .to_path_buf()
}

fn benchmark() -> Json {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json is valid JSON")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    benchmark()
        .get(section)
        .and_then(Json::as_arr)
        .expect("section present")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs a short benchmark; returns its stdout and parsed result line.
fn short_run(workload: &str, trace: &str) -> (String, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", trace])
        .current_dir(repo_root())
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 report");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line").to_string();
    (stdout, json::parse(&last).expect("the result line is JSON"))
}

fn assert_emits(result: &Json, expected: &[(String, String)], what: &str) {
    assert_eq!(
        result.get("correct").and_then(Json::as_bool),
        Some(true),
        "{what}: not correct"
    );
    assert_eq!(
        result.get("failed").and_then(Json::as_u64),
        Some(0),
        "{what}: failures"
    );
    let metrics = result.get("metrics").expect("metrics object");
    let Json::Obj(fields) = metrics else {
        panic!("{what}: metrics is not an object");
    };
    assert_eq!(
        fields.len(),
        expected.len(),
        "{what}: extra or missing metrics"
    );
    for (name, unit) in expected {
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{what}: metric {name} missing"));
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{what}: {name} unit"
        );
        let value = m.get("value").and_then(Json::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{what}: {name} has no finite value"
        );
    }
}

/// Every `(n=N, K beyond)` annotation of a reported percentile.
fn beyond_counts(report: &str) -> Vec<usize> {
    report
        .lines()
        .filter_map(|l| l.split(", ").nth(1)?.strip_suffix(" beyond)")?.parse().ok())
        .collect()
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    let workloads: Vec<String> = benchmark()
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    let end_to_end = declared("end_to_end");
    for w in &workloads {
        let (report, result) = short_run(w, "0");
        assert_emits(&result, &end_to_end, w);
        let beyond = beyond_counts(&report);
        assert!(!beyond.is_empty(), "{w}: no percentile annotations");
        assert!(
            beyond.iter().all(|&k| k >= 10),
            "{w}: a percentile has <10 samples beyond it"
        );
    }
    let (report, result) = short_run(&workloads[0], "1");
    assert_emits(&result, &declared("per_layer"), "traced run");
    assert!(
        report.contains("boundary ratios"),
        "traced run printed no ratio table"
    );
}
