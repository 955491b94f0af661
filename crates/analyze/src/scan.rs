//! Item scanner and workspace walker.
//!
//! Sits directly on the token stream from [`crate::lexer`]: finds
//! function items by brace matching (no parser), assigns each a module
//! path derived from the file location plus inline `mod` nesting, and
//! marks test code (`#[test]` functions, `#[cfg(test)]` modules and
//! files under `#![cfg(test)]`) so rules can skip it. Known approximations are documented on
//! [`FnItem`]; they are the price of a zero-dependency scanner and are
//! acceptable because the rules run with an audited allowlist on top.

use crate::lexer::{lex, Tok, Token};
use std::path::{Path, PathBuf};

/// A scanned function item.
///
/// Approximations: closures belong to their enclosing function; a
/// nested `fn` is its own item and wins attribution for its tokens
/// (innermost-containing-range); trait method *declarations* without a
/// body are skipped.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Bare function name (no path, no generics).
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token-index range of the body, `{` inclusive to matching `}`
    /// inclusive.
    pub body: (usize, usize),
    /// True for `#[test]` functions and anything inside a
    /// `#[cfg(test)]` module or after a `#![cfg(test)]` attribute.
    pub is_test: bool,
}

/// One lexed and scanned source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with forward slashes
    /// (e.g. `crates/serve/src/wal.rs`).
    pub rel: String,
    /// Owning crate's package name (`serve`, `ga`, … or `pga-shop` for
    /// the facade's `src/`).
    pub crate_name: String,
    /// Rust module path (e.g. `serve::obs::metrics`), derived from the
    /// file location; inline `mod` names are appended per item, not
    /// here.
    pub module: String,
    /// Full token stream.
    pub tokens: Vec<Token>,
    /// Scanned function items in source order.
    pub fns: Vec<FnItem>,
}

impl SourceFile {
    /// Parses `src` into a scanned file.
    pub fn parse(rel: &str, crate_name: &str, module: &str, src: &str) -> SourceFile {
        let tokens = lex(src);
        let fns = scan_fns(&tokens);
        SourceFile {
            rel: rel.to_string(),
            crate_name: crate_name.to_string(),
            module: module.to_string(),
            tokens,
            fns,
        }
    }

    /// The innermost function whose body contains token index `idx`.
    pub fn fn_at(&self, idx: usize) -> Option<&FnItem> {
        self.fns
            .iter()
            .filter(|f| f.body.0 <= idx && idx <= f.body.1)
            .min_by_key(|f| f.body.1 - f.body.0)
    }
}

/// The set of scanned files the rules run over.
#[derive(Debug)]
pub struct Workspace {
    /// All scanned files, in deterministic (sorted-by-path) order.
    pub files: Vec<SourceFile>,
    /// Reference-only files (`perfbench/src`, `examples/`,
    /// `crates/*/benches`): `unused_pub` counts the names they use,
    /// and no rule checks them.
    pub refs: Vec<SourceFile>,
}

impl Workspace {
    /// Loads a cargo workspace: `src/` of the facade plus every
    /// `crates/*/src/` tree. `shims/` is intentionally excluded — the
    /// shims reproduce *external* crate APIs and are not subject to
    /// repo-local invariants. Test/bench/example trees are likewise
    /// out of scope: the gates protect shipped library and binary
    /// code; the perfbench, example and bench trees that call it are
    /// loaded as [`Workspace::refs`].
    pub fn load(root: &Path) -> std::io::Result<Workspace> {
        let mut files = Vec::new();
        let mut refs = Vec::new();
        for (tree, name) in [("perfbench/src", "perfbench"), ("examples", "examples")] {
            let dir = root.join(tree);
            if dir.is_dir() {
                collect_tree(&dir, root, name, name, &mut refs)?;
            }
        }
        let facade = root.join("src");
        if facade.is_dir() {
            collect_tree(&facade, root, "pga-shop", "pga_shop", &mut files)?;
        }
        let crates = root.join("crates");
        if crates.is_dir() {
            let mut dirs: Vec<PathBuf> = std::fs::read_dir(&crates)?
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.is_dir())
                .collect();
            dirs.sort();
            for dir in dirs {
                let name = dir
                    .file_name()
                    .and_then(|s| s.to_str())
                    .unwrap_or_default()
                    .to_string();
                let src = dir.join("src");
                if src.is_dir() {
                    collect_tree(&src, root, &name, &name, &mut files)?;
                }
                let benches = dir.join("benches");
                if benches.is_dir() {
                    collect_tree(&benches, root, &name, &name, &mut refs)?;
                }
            }
        }
        files.sort_by(|a, b| a.rel.cmp(&b.rel));
        Ok(Workspace { files, refs })
    }

    /// Loads a flat directory of `.rs` files (the fixture corpus):
    /// every file becomes its own single-module crate named after the
    /// file stem.
    pub fn load_dir(dir: &Path) -> std::io::Result<Workspace> {
        let mut files = Vec::new();
        let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("rs"))
            .collect();
        paths.sort();
        for p in paths {
            let stem = p
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or_default()
                .to_string();
            let rel = p
                .file_name()
                .and_then(|s| s.to_str())
                .unwrap_or_default()
                .to_string();
            let src = std::fs::read_to_string(&p)?;
            files.push(SourceFile::parse(&rel, &stem, &stem, &src));
        }
        files.sort_by(|a, b| a.rel.cmp(&b.rel));
        Ok(Workspace {
            files,
            refs: Vec::new(),
        })
    }
}

/// Recursively collects `tree/**/*.rs` into scanned files.
fn collect_tree(
    tree: &Path,
    root: &Path,
    crate_name: &str,
    module_base: &str,
    out: &mut Vec<SourceFile>,
) -> std::io::Result<()> {
    let mut stack = vec![tree.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for p in entries {
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().and_then(|e| e.to_str()) == Some("rs") {
                let rel = p
                    .strip_prefix(root)
                    .unwrap_or(&p)
                    .to_string_lossy()
                    .replace('\\', "/");
                let module = module_of(&rel, tree, root, module_base, &p);
                let src = std::fs::read_to_string(&p)?;
                out.push(SourceFile::parse(&rel, crate_name, &module, &src));
            }
        }
    }
    Ok(())
}

/// Derives the Rust module path for a file inside a crate's src tree:
/// `crates/serve/src/obs/metrics.rs` → `serve::obs::metrics`,
/// `…/obs/mod.rs` → `serve::obs`, `…/lib.rs` / `main.rs` → `serve`.
fn module_of(_rel: &str, tree: &Path, _root: &Path, module_base: &str, path: &Path) -> String {
    let inner = path.strip_prefix(tree).unwrap_or(path);
    let mut parts: Vec<String> = vec![module_base.replace('-', "_")];
    let comps: Vec<String> = inner
        .components()
        .map(|c| c.as_os_str().to_string_lossy().to_string())
        .collect();
    for (i, c) in comps.iter().enumerate() {
        if i + 1 == comps.len() {
            let stem = c.trim_end_matches(".rs");
            if stem != "lib" && stem != "main" && stem != "mod" {
                parts.push(stem.to_string());
            }
        } else {
            parts.push(c.clone());
        }
    }
    parts.join("::")
}

/// Scans the token stream for function items, tracking `#[cfg(test)]`
/// module regions, `#![cfg(test)]` files and `#[test]` attributes.
fn scan_fns(tokens: &[Token]) -> Vec<FnItem> {
    let mut fns = Vec::new();
    let mut i = 0usize;
    let n = tokens.len();
    let mut depth: i32 = 0;
    // Brace depths at which a test region closes.
    let mut test_regions: Vec<i32> = Vec::new();
    let mut pending_test = false;
    while i < n {
        match &tokens[i].tok {
            Tok::Punct('{') => {
                depth += 1;
                i += 1;
            }
            Tok::Punct('}') => {
                depth -= 1;
                if test_regions.last() == Some(&depth) {
                    test_regions.pop();
                }
                i += 1;
            }
            // Inner `#![cfg(test)]`: everything to the end of the
            // enclosing module (or file) is test code.
            Tok::Punct('#')
                if matches!(tokens.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('!')))
                    && matches!(tokens.get(i + 2).map(|t| &t.tok), Some(Tok::Punct('['))) =>
            {
                let (text, j) = attr_text(tokens, i + 3);
                if text.contains("cfg(test)") {
                    test_regions.push(depth - 1);
                }
                i = j;
            }
            Tok::Punct('#')
                if matches!(tokens.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('['))) =>
            {
                // Attribute: collect its flattened text.
                let (text, j) = attr_text(tokens, i + 2);
                if is_test_attr(&text) {
                    pending_test = true;
                }
                i = j;
            }
            Tok::Ident(w) if w == "mod" => {
                // `mod name {` opens a region; `mod name;` does not.
                let mut j = i + 1;
                if matches!(tokens.get(j).map(|t| &t.tok), Some(Tok::Ident(_))) {
                    j += 1;
                }
                if matches!(tokens.get(j).map(|t| &t.tok), Some(Tok::Punct('{'))) {
                    if pending_test {
                        test_regions.push(depth);
                    }
                    depth += 1;
                    j += 1;
                }
                pending_test = false;
                i = j;
            }
            Tok::Ident(w) if w == "fn" => {
                let is_test = pending_test || !test_regions.is_empty();
                pending_test = false;
                // `fn` in a function-pointer type has no name ident.
                let name = match tokens.get(i + 1).map(|t| &t.tok) {
                    Some(Tok::Ident(name)) => name.clone(),
                    _ => {
                        i += 1;
                        continue;
                    }
                };
                let line = tokens[i].line;
                // Skip the signature to the body `{` or a `;`.
                let mut j = i + 2;
                let mut paren = 0i32;
                let mut bracket = 0i32;
                let mut angle = 0i32;
                let mut body = None;
                while j < n {
                    match &tokens[j].tok {
                        Tok::Punct('(') => paren += 1,
                        Tok::Punct(')') => paren -= 1,
                        Tok::Punct('[') => bracket += 1,
                        Tok::Punct(']') => bracket -= 1,
                        Tok::Punct('<') => angle += 1,
                        // `->` is not an angle close.
                        Tok::Punct('>')
                            if !matches!(
                                tokens.get(j - 1).map(|t| &t.tok),
                                Some(Tok::Punct('-'))
                            ) =>
                        {
                            angle -= 1;
                        }
                        Tok::Punct('{') if paren == 0 && bracket == 0 && angle <= 0 => {
                            body = Some(j);
                            break;
                        }
                        Tok::Punct(';') if paren == 0 && bracket == 0 && angle <= 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                let Some(open) = body else {
                    i = j.max(i + 1);
                    continue;
                };
                // Match the body braces.
                let mut d = 0i32;
                let mut k = open;
                let mut close = n.saturating_sub(1);
                while k < n {
                    match &tokens[k].tok {
                        Tok::Punct('{') => d += 1,
                        Tok::Punct('}') => {
                            d -= 1;
                            if d == 0 {
                                close = k;
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                fns.push(FnItem {
                    name,
                    line,
                    body: (open, close),
                    is_test,
                });
                // Continue scanning *inside* the body (nested fns,
                // brace/test-region bookkeeping happens naturally).
                i = open;
            }
            Tok::Ident(w)
                if pending_test
                    && matches!(
                        w.as_str(),
                        "struct" | "enum" | "impl" | "trait" | "use" | "static" | "const" | "type"
                    ) =>
            {
                // An attribute we flagged actually decorates a non-fn,
                // non-mod item (e.g. `#[cfg(test)] use …`): drop it.
                pending_test = false;
                i += 1;
            }
            _ => i += 1,
        }
    }
    fns
}

/// True for a flattened attribute (see [`attr_text`]) that marks test
/// code: `#[test]`, `#[tokio::test]`-style paths, `#[cfg(test)]` and
/// `#[cfg(any(test, …))]`.
pub(crate) fn is_test_attr(text: &str) -> bool {
    text == "test"
        || text.ends_with("::test")
        || text.contains("cfg(test)")
        || text.contains("cfg(any(test")
}

/// Flattens an attribute body (after `#[`) to a compact string like
/// `cfg(test)`; returns the text and the index past the closing `]`.
pub(crate) fn attr_text(tokens: &[Token], start: usize) -> (String, usize) {
    let mut depth = 1i32; // the `[` already consumed by caller offset
    let mut j = start;
    let mut s = String::new();
    while j < tokens.len() && depth > 0 {
        match &tokens[j].tok {
            Tok::Punct('[') => {
                depth += 1;
                s.push('[');
            }
            Tok::Punct(']') => {
                depth -= 1;
                if depth > 0 {
                    s.push(']');
                }
            }
            Tok::Ident(w) => {
                s.push_str(w);
            }
            Tok::Punct(c) => s.push(*c),
            Tok::Num(t) => s.push_str(t),
            _ => {}
        }
        j += 1;
    }
    (s, j)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_fns_and_test_regions() {
        let src = r#"
            pub fn outer(x: usize) -> usize { inner(x) }
            fn inner(x: usize) -> usize { x[0] }
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { super::outer(1); }
            }
            fn after() {}
        "#;
        let f = SourceFile::parse("a.rs", "a", "a", src);
        let names: Vec<(&str, bool)> = f.fns.iter().map(|x| (x.name.as_str(), x.is_test)).collect();
        assert_eq!(
            names,
            vec![
                ("outer", false),
                ("inner", false),
                ("t", true),
                ("after", false)
            ]
        );
    }

    #[test]
    fn generic_signatures_and_fn_pointers() {
        let src = r#"
            fn apply<F: Fn(usize) -> usize>(f: F, g: fn(usize) -> usize) -> usize { f(g(1)) }
            trait T { fn decl(&self); fn with_default(&self) { } }
        "#;
        let f = SourceFile::parse("a.rs", "a", "a", src);
        let names: Vec<&str> = f.fns.iter().map(|x| x.name.as_str()).collect();
        assert_eq!(names, vec!["apply", "with_default"]);
    }

    #[test]
    fn innermost_attribution() {
        let src = "fn outer() { fn nested() { lock(); } nested(); }";
        let f = SourceFile::parse("a.rs", "a", "a", src);
        let lock_idx = f
            .tokens
            .iter()
            .position(|t| matches!(&t.tok, Tok::Ident(s) if s == "lock"))
            .unwrap();
        assert_eq!(f.fn_at(lock_idx).unwrap().name, "nested");
    }

    #[test]
    fn cfg_test_on_use_does_not_leak() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn real() {}";
        let f = SourceFile::parse("a.rs", "a", "a", src);
        assert_eq!(f.fns.len(), 1);
        assert!(!f.fns[0].is_test);
    }
}
