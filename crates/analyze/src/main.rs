//! `pga-shop-analyze` — run the repo-specific lint rules.
//!
//! ```text
//! pga-shop-analyze [--root DIR] [--config FILE] [--json] [--deny] [--list]
//! ```
//!
//! * `--root DIR`    workspace root (default: current directory)
//! * `--config FILE` config + allowlist (default: `<root>/analyze.toml`)
//! * `--json`        machine-readable output
//! * `--deny`        exit 1 on any finding, stale allowlist entry or
//!   stale `paths` entry
//! * `--list`        also print suppressed findings (audit view)
//!
//! Exit codes: 0 clean (or findings without `--deny`), 1 findings under
//! `--deny`, 2 usage/config error.

use analyze::{config::Config, run, scan::Workspace};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut config_path: Option<PathBuf> = None;
    let mut json = false;
    let mut deny = false;
    let mut list = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => match args.next() {
                Some(v) => root = PathBuf::from(v),
                None => return usage("--root needs a directory"),
            },
            "--config" => match args.next() {
                Some(v) => config_path = Some(PathBuf::from(v)),
                None => return usage("--config needs a file"),
            },
            "--json" => json = true,
            "--deny" => deny = true,
            "--list" => list = true,
            "--help" | "-h" => {
                eprintln!("usage: pga-shop-analyze [--root DIR] [--config FILE] [--json] [--deny] [--list]");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown flag `{other}`")),
        }
    }
    let config_path = config_path.unwrap_or_else(|| root.join("analyze.toml"));
    let config_text = match std::fs::read_to_string(&config_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!(
                "pga-shop-analyze: cannot read {}: {e}",
                config_path.display()
            );
            return ExitCode::from(2);
        }
    };
    let cfg = match Config::parse(&config_text) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("pga-shop-analyze: {}: {e}", config_path.display());
            return ExitCode::from(2);
        }
    };
    let ws = match Workspace::load(&root) {
        Ok(w) => w,
        Err(e) => {
            eprintln!(
                "pga-shop-analyze: cannot load workspace at {}: {e}",
                root.display()
            );
            return ExitCode::from(2);
        }
    };
    let report = run(&ws, &cfg);

    if json {
        println!("{}", to_json(&report, list));
    } else {
        for f in &report.findings {
            println!("{}", f.render());
        }
        if list {
            for f in &report.suppressed {
                println!("allowed: {}", f.render());
            }
        }
        for a in &report.unused_allows {
            println!(
                "stale-allow: analyze.toml:{} ({} @ {}{}) matches nothing — remove it",
                a.line,
                a.rule,
                a.path,
                a.function
                    .as_ref()
                    .map(|f| format!(" fn {f}"))
                    .unwrap_or_default()
            );
        }
        for p in &report.stale_paths {
            println!(
                "stale-path: analyze.toml [{}] paths entry {:?} matches no scanned file — \
                 point it at the moved code or remove it",
                p.rule, p.path
            );
        }
        eprintln!(
            "pga-shop-analyze: {} file(s), {} finding(s), {} allowed, {} stale allow(s), \
             {} stale path(s)",
            ws.files.len(),
            report.findings.len(),
            report.suppressed.len(),
            report.unused_allows.len(),
            report.stale_paths.len()
        );
    }
    if deny && !report.clean() {
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("pga-shop-analyze: {msg}");
    ExitCode::from(2)
}

/// Hand-rolled JSON encoding (the analyzer depends on nothing, in the
/// spirit of `serve::json`).
fn to_json(report: &analyze::Report, list: bool) -> String {
    let mut s = String::from("{\"findings\":[");
    push_findings(&mut s, &report.findings);
    s.push(']');
    if list {
        s.push_str(",\"allowed\":[");
        push_findings(&mut s, &report.suppressed);
        s.push(']');
    }
    s.push_str(",\"stale_allows\":[");
    for (i, a) in report.unused_allows.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("{\"rule\":");
        esc(&mut s, &a.rule);
        s.push_str(",\"path\":");
        esc(&mut s, &a.path);
        if let Some(f) = &a.function {
            s.push_str(",\"function\":");
            esc(&mut s, f);
        }
        s.push_str(&format!(",\"config_line\":{}", a.line));
        s.push('}');
    }
    s.push_str("],\"stale_paths\":[");
    for (i, p) in report.stale_paths.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("{\"rule\":");
        esc(&mut s, p.rule);
        s.push_str(",\"path\":");
        esc(&mut s, &p.path);
        s.push('}');
    }
    s.push_str(&format!(
        "],\"count\":{},\"clean\":{}}}",
        report.findings.len(),
        report.clean()
    ));
    s
}

fn push_findings(s: &mut String, findings: &[analyze::Finding]) {
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("{\"rule\":");
        esc(s, f.rule);
        s.push_str(",\"path\":");
        esc(s, &f.path);
        s.push_str(&format!(",\"line\":{},\"function\":", f.line));
        esc(s, &f.function);
        s.push_str(",\"message\":");
        esc(s, &f.message);
        s.push('}');
    }
}

/// Minimal JSON string escaping.
fn esc(s: &mut String, v: &str) {
    s.push('"');
    for c in v.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\t' => s.push_str("\\t"),
            c if (c as u32) < 0x20 => s.push_str(&format!("\\u{:04x}", c as u32)),
            c => s.push(c),
        }
    }
    s.push('"');
}
