//! The workspace must pass its own gates: running the analyzer over
//! the real source tree with the committed `analyze.toml` yields zero
//! findings and zero stale allowlist entries. This is the same check
//! CI runs via `pga-shop-analyze --deny`.

use analyze::config::Config;
use analyze::scan::Workspace;

#[test]
fn workspace_self_analysis_is_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root resolves");
    let ws = Workspace::load(&root).expect("workspace loads");
    assert!(
        ws.files.len() > 50,
        "workspace walk looks wrong: only {} files",
        ws.files.len()
    );
    let toml = std::fs::read_to_string(root.join("analyze.toml")).expect("analyze.toml readable");
    let cfg = Config::parse(&toml).expect("analyze.toml parses");
    let report = analyze::run(&ws, &cfg);
    let rendered: Vec<String> = report.findings.iter().map(|f| f.render()).collect();
    assert!(
        report.clean(),
        "self-analysis found violations or stale allows:\n{}\nstale: {:?}",
        rendered.join("\n"),
        report
            .unused_allows
            .iter()
            .map(|a| format!("{}:{} ({})", a.path, a.line, a.rule))
            .collect::<Vec<_>>()
    );
}

/// The committed `[durability]` markers cover the session handlers'
/// idiom: an event logged with `record_event` after its answer was
/// built with `reply` / `attach_trace` is flagged, and the logged-first
/// order is clean.
#[test]
fn committed_durability_markers_flag_an_event_logged_after_its_answer() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let toml = std::fs::read_to_string(root.join("analyze.toml")).expect("analyze.toml readable");
    let cfg = Config::parse(&toml).expect("analyze.toml parses");
    let handler = |body: &str| {
        let src = format!(
            "fn session_event_body(req: &Req, shared: &Shared) -> Json {{\n    \
             let out = apply(req);\n{body}}}\n"
        );
        let file = analyze::scan::SourceFile::parse(
            "crates/serve/src/server/sessions.rs",
            "serve",
            "serve::server::sessions",
            &src,
        );
        let report = analyze::run(
            &Workspace {
                files: vec![file],
                refs: Vec::new(),
            },
            &cfg,
        );
        report
            .findings
            .iter()
            .map(|f| (f.rule, f.line))
            .collect::<Vec<_>>()
    };
    let logged_late =
        "    let body = attach_trace(reply(req.id, \"ok\", [out.now]), req.trace, shared);\n    \
                       shared.sessions.record_event(&req.session, &out);\n    body\n";
    assert_eq!(handler(logged_late), vec![("durability", 3)]);
    let logged_first = "    shared.sessions.record_event(&req.session, &out);\n    \
                        attach_trace(reply(req.id, \"ok\", [out.now]), req.trace, shared)\n";
    assert!(handler(logged_first).is_empty());
}
