//! Rule `unused_pub` — every public item has a non-test caller.
//!
//! A `pub` or `pub(crate)` fn, method, struct, enum, trait, type alias
//! or const is flagged when no non-test code names it outside its own
//! definition. Definitions come from the scanned trees (`src/` and
//! `crates/*/src`); references come from those trees plus the
//! reference-only trees ([`Workspace::refs`]: `perfbench/src`,
//! `examples/`, `crates/*/benches`).
//!
//! Approximations, all lexical:
//! * a reference is any identifier token with the item's name (word
//!   match), so a method shares its count with every same-named item;
//! * `use` / `pub use` declarations do not count (a re-export is not a
//!   caller);
//! * test code does not count: `#[test]` / `#[cfg(test)]` items and
//!   everything after a `#![cfg(test)]`;
//! * a type named inside its own `impl` blocks (`-> Foo`, `Foo { .. }`)
//!   is not referenced by that.

use super::Rule;
use crate::config::Config;
use crate::lexer::{Tok, Token};
use crate::scan::{attr_text, is_test_attr, SourceFile, Workspace};
use crate::Finding;
use std::collections::{BTreeMap, BTreeSet};

/// See module docs.
pub struct UnusedPub;

/// The item keywords a `pub` definition can carry.
const KINDS: [&str; 6] = ["fn", "struct", "enum", "trait", "type", "const"];

/// One public item definition.
struct Def {
    kind: &'static str,
    name: String,
    line: u32,
    /// The whole item, `pub` to its last token.
    span: Span,
}

/// Tokens `first..=last` of one file (an index into the scanned files
/// followed by the reference-only ones).
#[derive(Clone, Copy)]
struct Span {
    file: usize,
    first: usize,
    last: usize,
}

impl Span {
    fn contains(&self, (file, i): (usize, usize)) -> bool {
        self.file == file && self.first <= i && i <= self.last
    }
}

impl Rule for UnusedPub {
    fn name(&self) -> &'static str {
        "unused_pub"
    }

    fn check(&self, ws: &Workspace, _cfg: &Config, out: &mut Vec<Finding>) {
        let files: Vec<&SourceFile> = ws.files.iter().chain(&ws.refs).collect();
        let masks: Vec<Vec<bool>> = files
            .iter()
            .map(|f| non_reference_mask(&f.tokens))
            .collect();
        let mut defs = Vec::new();
        for (k, file) in ws.files.iter().enumerate() {
            collect_defs(k, &file.tokens, &masks[k], &mut defs);
        }
        let names: BTreeSet<&str> = defs.iter().map(|d| d.name.as_str()).collect();
        // Every counted (file, token) occurrence of a defined name, and
        // every impl block keyed by its self type.
        let mut uses: BTreeMap<&str, Vec<(usize, usize)>> = BTreeMap::new();
        let mut impls: BTreeMap<String, Vec<Span>> = BTreeMap::new();
        for (k, file) in files.iter().enumerate() {
            for (i, t) in file.tokens.iter().enumerate() {
                if let Tok::Ident(w) = &t.tok {
                    if masks[k][i] {
                        continue;
                    }
                    if let Some(name) = names.get(w.as_str()) {
                        uses.entry(name).or_default().push((k, i));
                    }
                    if w == "impl" {
                        if let Some(self_ty) = impl_self_type(&file.tokens, i) {
                            let last = item_end(&file.tokens, i);
                            let span = Span {
                                file: k,
                                first: i,
                                last,
                            };
                            impls.entry(self_ty).or_default().push(span);
                        }
                    }
                }
            }
        }
        for d in &defs {
            let own_impls = impls.get(&d.name).map(Vec::as_slice).unwrap_or(&[]);
            let used =
                uses.get(d.name.as_str()).into_iter().flatten().any(|&at| {
                    !d.span.contains(at) && !own_impls.iter().any(|imp| imp.contains(at))
                });
            if !used {
                out.push(Finding {
                    rule: "unused_pub",
                    path: files[d.span.file].rel.clone(),
                    line: d.line,
                    function: d.name.clone(),
                    message: format!(
                        "`pub {} {}` has no non-test reference outside its definition; \
                         delete it, make it private or give it a caller",
                        d.kind, d.name
                    ),
                });
            }
        }
    }
}

/// Marks the tokens that are not references: test code and `use`
/// declarations.
fn non_reference_mask(tokens: &[Token]) -> Vec<bool> {
    let n = tokens.len();
    let mut mask = vec![false; n];
    let mut i = 0;
    while i < n {
        match &tokens[i].tok {
            Tok::Punct('#') => {
                let inner = punct(tokens, i + 1, '!');
                let open = i + 1 + usize::from(inner);
                if !punct(tokens, open, '[') {
                    i += 1;
                    continue;
                }
                let (text, j) = attr_text(tokens, open + 1);
                if !is_test_attr(&text) {
                    i = j;
                    continue;
                }
                // `#![cfg(test)]` covers the rest of its module (or
                // file), an outer test attribute its item.
                let end = if inner {
                    enclosing_close(tokens, j)
                } else {
                    item_end(tokens, j)
                };
                mask[i..=end].fill(true);
                i = end + 1;
            }
            Tok::Ident(w) if w == "use" => {
                while i < n && !punct(tokens, i, ';') {
                    mask[i] = true;
                    i += 1;
                }
            }
            _ => i += 1,
        }
    }
    mask
}

/// Collects the public item definitions of one file, skipping test
/// code.
fn collect_defs(file: usize, tokens: &[Token], mask: &[bool], out: &mut Vec<Def>) {
    for (i, t) in tokens.iter().enumerate() {
        if mask[i] || !matches!(&t.tok, Tok::Ident(w) if w == "pub") {
            continue;
        }
        let mut j = i + 1;
        if punct(tokens, j, '(') {
            // `pub(crate)` counts; `pub(super)` / `pub(in …)` do not.
            if !ident(tokens, j + 1, "crate") || !punct(tokens, j + 2, ')') {
                continue;
            }
            j += 3;
        }
        if ident(tokens, j, "const") && ident(tokens, j + 1, "fn") {
            j += 1;
        }
        let Some(kind) = KINDS.into_iter().find(|k| ident(tokens, j, k)) else {
            continue;
        };
        let Some(Tok::Ident(name)) = tokens.get(j + 1).map(|t| &t.tok) else {
            continue;
        };
        out.push(Def {
            kind,
            name: name.clone(),
            line: tokens[j + 1].line,
            span: Span {
                file,
                first: i,
                last: item_end(tokens, j),
            },
        });
    }
}

/// For an `impl` keyword at item position, the self type's name.
/// `impl Trait` in a signature is not a block and yields `None`.
fn impl_self_type(tokens: &[Token], i: usize) -> Option<String> {
    let prev = tokens[..i]
        .iter()
        .rev()
        .find(|t| !matches!(t.tok, Tok::LineComment(_)));
    let at_item = match prev.map(|t| &t.tok) {
        None => true,
        Some(Tok::Punct(c)) => matches!(c, '}' | ';' | '{' | ']'),
        Some(Tok::Ident(w)) => w == "unsafe",
        _ => false,
    };
    if !at_item {
        return None;
    }
    let mut angle = 0i32;
    let mut self_ty = None;
    for j in i + 1..tokens.len() {
        match &tokens[j].tok {
            Tok::Punct('<') => angle += 1,
            Tok::Punct('>') if !punct(tokens, j - 1, '-') => angle -= 1,
            Tok::Punct('{') | Tok::Punct(';') if angle <= 0 => break,
            Tok::Ident(w) if angle == 0 => match w.as_str() {
                "where" => break,
                // `impl Trait for Foo`: the self type follows `for`.
                "for" => self_ty = None,
                "dyn" => {}
                _ => self_ty = Some(w.clone()),
            },
            _ => {}
        }
    }
    self_ty
}

/// Index of the last token of the item that starts at `start`: the
/// first `;` outside brackets, or the `}` matching the first `{`.
fn item_end(tokens: &[Token], start: usize) -> usize {
    let n = tokens.len();
    let mut nest = 0i32;
    let mut j = start;
    while j < n {
        match &tokens[j].tok {
            Tok::Punct('(') | Tok::Punct('[') => nest += 1,
            Tok::Punct(')') | Tok::Punct(']') => nest -= 1,
            Tok::Punct(';') if nest == 0 => return j,
            Tok::Punct('{') if nest == 0 => return enclosing_close(tokens, j + 1),
            _ => {}
        }
        j += 1;
    }
    n.saturating_sub(1)
}

/// Index of the `}` that closes the block open at `start` (or the last
/// token when the block runs to end of file).
fn enclosing_close(tokens: &[Token], start: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in tokens.iter().enumerate().skip(start) {
        match &t.tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') if depth == 0 => return j,
            Tok::Punct('}') => depth -= 1,
            _ => {}
        }
    }
    tokens.len().saturating_sub(1)
}

fn punct(tokens: &[Token], i: usize, c: char) -> bool {
    matches!(tokens.get(i).map(|t| &t.tok), Some(Tok::Punct(p)) if *p == c)
}

fn ident(tokens: &[Token], i: usize, w: &str) -> bool {
    matches!(tokens.get(i).map(|t| &t.tok), Some(Tok::Ident(s)) if s == w)
}
