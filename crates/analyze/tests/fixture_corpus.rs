//! Fixture-corpus tests: each rule has a known-bad snippet and an
//! allowlisted/justified twin under `tests/fixtures/`, and the rules
//! must report exactly the expected findings at stable `file:line`
//! anchors — no more, no less.

use analyze::config::Config;
use analyze::scan::Workspace;

fn fixture_report() -> analyze::Report {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let ws = Workspace::load_dir(&dir).expect("fixture corpus readable");
    let toml = std::fs::read_to_string(dir.join("analyze.toml")).expect("fixture config readable");
    let cfg = Config::parse(&toml).expect("fixture config parses");
    analyze::run(&ws, &cfg)
}

#[test]
fn exact_findings_at_stable_anchors() {
    let report = fixture_report();
    let got: Vec<(&str, &str, u32, &str)> = report
        .findings
        .iter()
        .map(|f| (f.rule, f.path.as_str(), f.line, f.function.as_str()))
        .collect();
    let want: Vec<(&str, &str, u32, &str)> = vec![
        ("determinism", "det_bad.rs", 5, "naughty_clock"),
        ("determinism", "det_bad.rs", 6, "naughty_clock"),
        ("determinism", "det_bad.rs", 10, "naughty_entropy"),
        ("durability", "dur_bad.rs", 5, "handle_event"),
        ("durability", "dur_bad.rs", 11, "append"),
        ("lock_order", "lock_bad.rs", 5, "take_ab"),
        ("panic_path", "panic_bad.rs", 4, "handle"),
        ("panic_path", "panic_bad.rs", 5, "handle"),
        ("panic_path", "panic_bad.rs", 6, "handle"),
        ("panic_path", "panic_bad.rs", 8, "handle"),
    ];
    let rendered: Vec<String> = report.findings.iter().map(|f| f.render()).collect();
    assert_eq!(got, want, "full output:\n{}", rendered.join("\n"));
}

/// `unused_pub` counts references across the whole workspace, and the
/// other fixtures define `pub fn`s that nothing calls, so the rule runs
/// over its own two fixtures only.
#[test]
fn unused_pub_findings_at_stable_anchors() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut ws = Workspace::load_dir(&dir).expect("fixture corpus readable");
    ws.files.retain(|f| f.rel.starts_with("unused_pub_"));
    assert_eq!(ws.files.len(), 2);
    let cfg = Config::parse("[unused_pub]\n").expect("config parses");
    let report = analyze::run(&ws, &cfg);
    let got: Vec<(&str, u32, &str)> = report
        .findings
        .iter()
        .map(|f| (f.path.as_str(), f.line, f.function.as_str()))
        .collect();
    let rendered: Vec<String> = report.findings.iter().map(|f| f.render()).collect();
    // Flagged: a fn called only from `#[cfg(test)]`, a fn reached only
    // through a `pub use`, and a struct named only inside its own impl.
    // Clean: `Counter::bump` (called as `.bump(`) and `BATCH` (read
    // from the other file).
    assert_eq!(
        got,
        vec![
            ("unused_pub_bad.rs", 3, "only_tested"),
            ("unused_pub_bad.rs", 7, "only_reexported"),
            ("unused_pub_bad.rs", 25, "Orphan"),
        ],
        "full output:\n{}",
        rendered.join("\n")
    );
}

#[test]
fn twins_are_clean_and_allowlist_is_exercised() {
    let report = fixture_report();
    for f in &report.findings {
        assert!(
            !f.path.ends_with("_ok.rs"),
            "twin fixture produced a finding: {}",
            f.render()
        );
    }
    // The one audited exception is suppressed, and no entry is stale.
    assert_eq!(report.suppressed.len(), 1);
    assert_eq!(report.suppressed[0].path, "panic_ok.rs");
    assert_eq!(report.suppressed[0].function, "audited");
    assert!(report.unused_allows.is_empty());
}

#[test]
fn render_format_is_stable() {
    let report = fixture_report();
    let lock = report
        .findings
        .iter()
        .find(|f| f.rule == "lock_order")
        .expect("lock fixture finding");
    assert_eq!(
        lock.render(),
        "lock_order: lock_bad.rs:5 (fn take_ab): lock-order cycle in crate `lock_bad`: \
         s.a -> s.b (lock_bad.rs:5), s.b -> s.a (lock_bad.rs:11) — a fixed acquisition \
         hierarchy is required (DESIGN.md §7–§8)"
    );
}

#[test]
fn stale_allow_entries_are_reported() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let ws = Workspace::load_dir(&dir).expect("fixture corpus readable");
    let toml = "\
[panic_path]
paths = [\"panic_bad.rs\"]
macros = [\"panic\"]

[[allow]]
rule = \"panic_path\"
path = \"nonexistent.rs\"
reason = \"matches nothing — must be reported stale\"
";
    let cfg = Config::parse(toml).expect("config parses");
    let report = analyze::run(&ws, &cfg);
    assert_eq!(report.unused_allows.len(), 1);
    assert_eq!(report.unused_allows[0].path, "nonexistent.rs");
    assert!(!report.clean(), "a stale allow entry must fail the gate");
}

#[test]
fn paths_entries_matching_no_file_are_reported() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let ws = Workspace::load_dir(&dir).expect("fixture corpus readable");
    let toml = "\
[panic_path]
paths = [\"panic_bad.rs\", \"moved_away/\"]
macros = [\"panic\"]

[durability]
paths = [\"dur_ok.rs\", \"gone.rs\"]
append = [\"append\"]
fsync = [\"sync_all\"]
answer = [\"encode\"]
write = [\"write_all\"]
";
    let cfg = Config::parse(toml).expect("config parses");
    let report = analyze::run(&ws, &cfg);
    let stale: Vec<(&str, &str)> = report
        .stale_paths
        .iter()
        .map(|p| (p.rule, p.path.as_str()))
        .collect();
    assert_eq!(
        stale,
        vec![("panic_path", "moved_away/"), ("durability", "gone.rs")]
    );
    assert!(!report.clean(), "a stale paths entry must fail the gate");
}

#[test]
fn inner_cfg_test_marks_the_whole_file_as_test_code() {
    let src =
        "//! tests\n#![cfg(test)]\nfn helper() { x.unwrap(); }\n#[test]\nfn t() { y.unwrap(); }\n";
    let file = analyze::scan::SourceFile::parse("t.rs", "t", "t", src);
    assert_eq!(file.fns.len(), 2);
    assert!(file.fns.iter().all(|f| f.is_test));
}
