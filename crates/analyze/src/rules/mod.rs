//! The rule engine: one trait, five repo-specific rules.
//!
//! Each rule reads its own `[section]` of `analyze.toml` (rule
//! behaviour is data, not code, so fixtures and future tightening
//! don't touch the engine) and pushes [`Finding`]s with stable
//! `file:line` anchors. Rules must stay deterministic: the fixture
//! tests assert exact counts and anchors, and CI diffs output across
//! runs.

use crate::config::Config;
use crate::lexer::{Tok, Token};
use crate::scan::Workspace;
use crate::Finding;

mod determinism;
mod durability;
mod lock_order;
mod panic_path;
mod unused_pub;

/// A single analysis pass.
pub trait Rule {
    /// Rule name — also its config-section name and the `rule` key in
    /// allowlist entries.
    fn name(&self) -> &'static str;
    /// Scans the workspace and appends findings.
    fn check(&self, ws: &Workspace, cfg: &Config, out: &mut Vec<Finding>);
}

/// All rules, in reporting order.
pub fn all() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(determinism::Determinism),
        Box::new(lock_order::LockOrder),
        Box::new(panic_path::PanicPath),
        Box::new(durability::Durability),
        Box::new(unused_pub::UnusedPub),
    ]
}

/// True when the identifier token at `i` is a call head (next token is
/// `(`). Macro invocations (`name!`) are not calls.
pub(crate) fn is_call(tokens: &[Token], i: usize) -> bool {
    matches!(tokens.get(i).map(|t| &t.tok), Some(Tok::Ident(_)))
        && matches!(tokens.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('(')))
}

/// Rust keywords that can directly precede `(` or `[` without forming
/// a call/index expression.
pub(crate) fn is_keyword(w: &str) -> bool {
    matches!(
        w,
        "if" | "else"
            | "while"
            | "for"
            | "in"
            | "loop"
            | "match"
            | "return"
            | "break"
            | "continue"
            | "let"
            | "mut"
            | "ref"
            | "move"
            | "as"
            | "where"
            | "fn"
            | "impl"
            | "dyn"
            | "pub"
            | "use"
            | "mod"
            | "struct"
            | "enum"
            | "trait"
            | "type"
            | "const"
            | "static"
            | "unsafe"
            | "await"
            | "yield"
            | "box"
    )
}

/// Matches a banned-pattern string at token index `i`.
///
/// Three pattern shapes:
/// * `"A::B"` (any `::` depth) — a path call; matches the token
///   sequence `A :: B` immediately followed by `(`, so a call through
///   a longer path (`std::time::Instant::now()`) matches its suffix.
/// * `".name"` — a method call `.name(`.
/// * `"name"` — a bare call `name(` not preceded by `.` or `::`.
///
/// Returns the 1-based line on a match.
pub(crate) fn match_banned(tokens: &[Token], i: usize, pat: &str) -> Option<u32> {
    if let Some(meth) = pat.strip_prefix('.') {
        if !matches!(tokens.get(i).map(|t| &t.tok), Some(Tok::Punct('.'))) {
            return None;
        }
        match tokens.get(i + 1).map(|t| &t.tok) {
            Some(Tok::Ident(w)) if w == meth => {}
            _ => return None,
        }
        if !matches!(tokens.get(i + 2).map(|t| &t.tok), Some(Tok::Punct('('))) {
            return None;
        }
        return Some(tokens[i + 1].line);
    }
    let segs: Vec<&str> = pat.split("::").collect();
    let mut j = i;
    for (k, seg) in segs.iter().enumerate() {
        match tokens.get(j).map(|t| &t.tok) {
            Some(Tok::Ident(w)) if w == seg => j += 1,
            _ => return None,
        }
        if k + 1 < segs.len() {
            if !(matches!(tokens.get(j).map(|t| &t.tok), Some(Tok::Punct(':')))
                && matches!(tokens.get(j + 1).map(|t| &t.tok), Some(Tok::Punct(':'))))
            {
                return None;
            }
            j += 2;
        }
    }
    if !matches!(tokens.get(j).map(|t| &t.tok), Some(Tok::Punct('('))) {
        return None;
    }
    if segs.len() == 1 {
        // A bare call must not be a method or path tail.
        if i >= 1 {
            if let Some(Tok::Punct(c)) = tokens.get(i - 1).map(|t| &t.tok) {
                if *c == '.' || *c == ':' {
                    return None;
                }
            }
        }
    }
    Some(tokens[i].line)
}
