//! `pga-shop-analyze` — repo-specific static analysis for this
//! workspace.
//!
//! The crates carry invariants no off-the-shelf tool checks: seeded
//! bit-identical determinism (DESIGN.md §2/§6), a two-level locking
//! discipline across the session registry, racer pool and sharded
//! cache (§7–§8), the serve tier's no-panic degrade-to-memory contract,
//! the WAL's append+fsync-before-answer ordering (§11) and a public
//! API with no dead items. This crate
//! machine-checks them on every PR, the same way fmt/clippy/docs gate
//! style and documentation. See DESIGN.md §12 for the architecture.
//!
//! Zero dependencies by design: a hand-rolled lexer ([`lexer`]), a
//! brace-matching item scanner ([`scan`]), a hand-parsed config +
//! audited allowlist ([`config`]) and five rules ([`rules`]):
//!
//! | rule | invariant |
//! |------|-----------|
//! | `determinism` | no ambient clock/entropy outside audited clock modules |
//! | `lock_order`  | the lock-acquisition graph stays acyclic |
//! | `panic_path`  | request paths justify every `unwrap`/`expect`/index |
//! | `durability`  | WAL append+fsync precedes the wire answer |
//! | `unused_pub`  | every public item has a non-test reference (word match; `use` lines do not count; perfbench, examples and benches are reference-only) |
//!
//! Everything is approximate — the scanner has no type information —
//! so every rule pairs with the allowlist in `analyze.toml`: findings
//! are suppressed only by an entry carrying a written `reason`, and
//! unused entries are themselves reported so the allowlist can only
//! shrink.

#![forbid(unsafe_code)]

pub mod config;
pub mod lexer;
pub mod rules;
pub mod scan;

use config::Config;
use scan::Workspace;

/// One rule violation at a stable `file:line` anchor.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Emitting rule (`determinism`, `lock_order`, `panic_path`,
    /// `durability`, `unused_pub`).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Enclosing function name (empty when file-scoped); for
    /// `unused_pub`, the flagged item's own name.
    pub function: String,
    /// Human explanation of the violation.
    pub message: String,
}

impl Finding {
    /// `rule path:line (fn f): message` — the stable human format the
    /// fixture tests assert on.
    pub fn render(&self) -> String {
        if self.function.is_empty() {
            format!(
                "{}: {}:{}: {}",
                self.rule, self.path, self.line, self.message
            )
        } else {
            format!(
                "{}: {}:{} (fn {}): {}",
                self.rule, self.path, self.line, self.function, self.message
            )
        }
    }
}

/// A `paths` entry of a path-scoped rule that matches no scanned file:
/// code that moved without its gate following it.
#[derive(Debug, Clone)]
pub struct StalePath {
    /// The rule whose `paths` list holds the entry.
    pub rule: &'static str,
    /// The entry as written in the config.
    pub path: String,
}

/// Rules whose `[section]` scopes them with a `paths` list.
const PATH_SCOPED: [&str; 2] = ["panic_path", "durability"];

/// The outcome of one analysis run.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings that survived the allowlist, sorted by
    /// (path, line, rule).
    pub findings: Vec<Finding>,
    /// Findings suppressed by allowlist entries.
    pub suppressed: Vec<Finding>,
    /// Allowlist entries that matched nothing — stale exceptions are
    /// reported so the allowlist can only shrink over time.
    pub unused_allows: Vec<config::Allow>,
    /// `paths` entries that match no scanned file — reported like stale
    /// allows, so a rule cannot silently stop covering moved code.
    pub stale_paths: Vec<StalePath>,
}

impl Report {
    /// Gate verdict: true when nothing unsuppressed was found and no
    /// allowlist entry or `paths` entry is stale.
    pub fn clean(&self) -> bool {
        self.findings.is_empty() && self.unused_allows.is_empty() && self.stale_paths.is_empty()
    }
}

/// Runs every configured rule over the workspace and applies the
/// allowlist. A rule only runs when its config section is present, so
/// fixture corpora can exercise rules in isolation.
pub fn run(ws: &Workspace, cfg: &Config) -> Report {
    let mut raw: Vec<Finding> = Vec::new();
    for rule in rules::all() {
        if cfg.has_section(rule.name()) {
            rule.check(ws, cfg, &mut raw);
        }
    }
    raw.sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));

    let mut used = vec![false; cfg.allows.len()];
    let mut report = Report::default();
    for f in raw {
        let hit = cfg.allows.iter().enumerate().find(|(_, a)| {
            a.rule == f.rule
                && f.path.starts_with(a.path.as_str())
                && a.function
                    .as_ref()
                    .map(|g| *g == f.function)
                    .unwrap_or(true)
        });
        match hit {
            Some((i, _)) => {
                used[i] = true;
                report.suppressed.push(f);
            }
            None => report.findings.push(f),
        }
    }
    for (i, a) in cfg.allows.iter().enumerate() {
        if !used[i] {
            report.unused_allows.push(a.clone());
        }
    }
    for rule in PATH_SCOPED {
        if !cfg.has_section(rule) {
            continue;
        }
        for path in cfg.list(rule, "paths") {
            if !ws.files.iter().any(|f| f.rel.starts_with(path.as_str())) {
                report.stale_paths.push(StalePath { rule, path });
            }
        }
    }
    report
}
