//! Hand-parsed configuration and allowlist (`analyze.toml`).
//!
//! In the spirit of `serve::json`, the analyzer parses its own config
//! with no external TOML crate. The accepted grammar is the subset the
//! repo actually needs — and nothing more:
//!
//! ```toml
//! [section]                  # one-level table headers
//! key = "string"             # strings, booleans, integers
//! key = ["a", "b"]           # arrays of strings (may span lines)
//!
//! [[allow]]                  # audited allowlist entries
//! rule = "panic_path"
//! path = "crates/serve/src/server/"
//! function = "run_workers"   # optional: omit to cover the whole file
//! reason = "why this is sound — required, this is an audit record"
//! ```
//!
//! Unknown keys are preserved (rules look up what they understand), a
//! missing `reason` on an allow entry is a hard parse error, and
//! `#` comments are stripped outside strings.

use std::collections::BTreeMap;

/// A parsed config value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A quoted string.
    Str(String),
    /// `true` / `false`.
    Bool(bool),
    /// An integer.
    Int(i64),
    /// An array of quoted strings.
    List(Vec<String>),
}

/// One audited exception. Matching is by rule name, path prefix and
/// (when present) exact function name.
#[derive(Debug, Clone)]
pub struct Allow {
    /// Rule the exception applies to.
    pub rule: String,
    /// Workspace-relative path prefix the exception covers.
    pub path: String,
    /// Restrict to one function; `None` covers the file.
    pub function: Option<String>,
    /// Human audit trail — required.
    pub reason: String,
    /// 1-based line of the `[[allow]]` header, for unused-entry
    /// reporting.
    pub line: u32,
}

/// Parsed `analyze.toml`.
#[derive(Debug, Default)]
pub struct Config {
    /// `[section]` tables.
    pub sections: BTreeMap<String, BTreeMap<String, Value>>,
    /// `[[allow]]` entries in file order.
    pub allows: Vec<Allow>,
}

impl Config {
    /// String-list lookup with empty default.
    pub fn list(&self, section: &str, key: &str) -> Vec<String> {
        match self.sections.get(section).and_then(|s| s.get(key)) {
            Some(Value::List(v)) => v.clone(),
            Some(Value::Str(s)) => vec![s.clone()],
            _ => Vec::new(),
        }
    }

    /// Whether a section is present at all.
    pub fn has_section(&self, section: &str) -> bool {
        self.sections.contains_key(section)
    }

    /// Parses config text. Errors carry a 1-based line number.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut cfg = Config::default();
        // Current target: either a named section or the allow entry
        // being built.
        enum Target {
            None,
            Section(String),
            Allow,
        }
        let mut target = Target::None;
        let mut pending: Option<(String, String, u32)> = None; // multiline array: key, buffer, line
        let mut allow_fields: BTreeMap<String, String> = BTreeMap::new();
        let mut allow_line = 0u32;

        let finish_allow = |fields: &mut BTreeMap<String, String>,
                            line: u32,
                            cfg: &mut Config|
         -> Result<(), String> {
            if fields.is_empty() {
                return Ok(());
            }
            let rule = fields
                .remove("rule")
                .ok_or_else(|| format!("line {line}: [[allow]] entry missing `rule`"))?;
            let path = fields
                .remove("path")
                .ok_or_else(|| format!("line {line}: [[allow]] entry missing `path`"))?;
            let reason = fields
                .remove("reason")
                .ok_or_else(|| format!("line {line}: [[allow]] entry missing `reason` — every exception needs an audit trail"))?;
            let function = fields.remove("function");
            if let Some(stray) = fields.keys().next() {
                return Err(format!("line {line}: unknown [[allow]] key `{stray}`"));
            }
            cfg.allows.push(Allow {
                rule,
                path,
                function,
                reason,
                line,
            });
            Ok(())
        };

        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx as u32 + 1;
            let line = strip_comment(raw);
            let line = line.trim();

            if let Some((key, mut buf, start)) = pending.take() {
                buf.push(' ');
                buf.push_str(line);
                if balanced(&buf) {
                    let v = parse_value(&buf).map_err(|e| format!("line {start}: {e}"))?;
                    store(&mut cfg, &mut target, &mut allow_fields, key, v, start)?;
                } else {
                    pending = Some((key, buf, start));
                }
                continue;
            }

            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("[[") {
                let name = rest
                    .strip_suffix("]]")
                    .ok_or_else(|| format!("line {lineno}: malformed table header"))?
                    .trim();
                if name != "allow" {
                    return Err(format!(
                        "line {lineno}: only [[allow]] array tables are supported, got [[{name}]]"
                    ));
                }
                finish_allow(&mut allow_fields, allow_line, &mut cfg)?;
                allow_line = lineno;
                target = Target::Allow;
                continue;
            }
            if let Some(rest) = line.strip_prefix('[') {
                let name = rest
                    .strip_suffix(']')
                    .ok_or_else(|| format!("line {lineno}: malformed table header"))?
                    .trim()
                    .to_string();
                finish_allow(&mut allow_fields, allow_line, &mut cfg)?;
                cfg.sections.entry(name.clone()).or_default();
                target = Target::Section(name);
                continue;
            }
            let Some(eq) = find_eq(line) else {
                return Err(format!("line {lineno}: expected `key = value`"));
            };
            let key = line[..eq].trim().to_string();
            let val = line[eq + 1..].trim().to_string();
            if !balanced(&val) {
                pending = Some((key, val, lineno));
                continue;
            }
            let v = parse_value(&val).map_err(|e| format!("line {lineno}: {e}"))?;
            store(&mut cfg, &mut target, &mut allow_fields, key, v, lineno)?;
        }
        if pending.is_some() {
            return Err("unterminated array at end of file".into());
        }
        finish_allow(&mut allow_fields, allow_line, &mut cfg)?;
        return Ok(cfg);

        fn store(
            cfg: &mut Config,
            target: &mut Target,
            allow_fields: &mut BTreeMap<String, String>,
            key: String,
            v: Value,
            lineno: u32,
        ) -> Result<(), String> {
            match target {
                Target::Section(name) => {
                    cfg.sections.entry(name.clone()).or_default().insert(key, v);
                    Ok(())
                }
                Target::Allow => match v {
                    Value::Str(s) => {
                        allow_fields.insert(key, s);
                        Ok(())
                    }
                    _ => Err(format!("line {lineno}: [[allow]] values must be strings")),
                },
                Target::None => Err(format!(
                    "line {lineno}: `{key}` appears before any [section]"
                )),
            }
        }
    }
}

/// Strips a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> String {
    let mut out = String::new();
    let mut in_str = false;
    let mut esc = false;
    for c in line.chars() {
        if in_str {
            out.push(c);
            if esc {
                esc = false;
            } else if c == '\\' {
                esc = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => {
                in_str = true;
                out.push(c);
            }
            '#' => break,
            _ => out.push(c),
        }
    }
    out
}

/// Finds the first `=` outside a string.
fn find_eq(line: &str) -> Option<usize> {
    let mut in_str = false;
    let mut esc = false;
    for (i, c) in line.char_indices() {
        if in_str {
            if esc {
                esc = false;
            } else if c == '\\' {
                esc = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '=' => return Some(i),
            _ => {}
        }
    }
    None
}

/// True when all brackets outside strings are balanced — used to join
/// multiline arrays.
fn balanced(s: &str) -> bool {
    let mut depth = 0i32;
    let mut in_str = false;
    let mut esc = false;
    for c in s.chars() {
        if in_str {
            if esc {
                esc = false;
            } else if c == '\\' {
                esc = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '[' => depth += 1,
            ']' => depth -= 1,
            _ => {}
        }
    }
    depth == 0 && !in_str
}

/// Parses a single balanced value.
fn parse_value(s: &str) -> Result<Value, String> {
    let s = s.trim();
    if s == "true" {
        return Ok(Value::Bool(true));
    }
    if s == "false" {
        return Ok(Value::Bool(false));
    }
    if let Some(inner) = s.strip_prefix('[') {
        let inner = inner
            .strip_suffix(']')
            .ok_or_else(|| format!("malformed array `{s}`"))?;
        let mut items = Vec::new();
        for part in split_top(inner) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            match parse_value(part)? {
                Value::Str(v) => items.push(v),
                _ => return Err(format!("arrays may only hold strings: `{part}`")),
            }
        }
        return Ok(Value::List(items));
    }
    if let Some(inner) = s.strip_prefix('"') {
        let inner = inner
            .strip_suffix('"')
            .ok_or_else(|| format!("unterminated string `{s}`"))?;
        return Ok(Value::Str(unescape(inner)));
    }
    s.parse::<i64>()
        .map(Value::Int)
        .map_err(|_| format!("unrecognised value `{s}`"))
}

/// Splits a comma-separated list at top level (strings are opaque).
fn split_top(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    let mut esc = false;
    for c in s.chars() {
        if in_str {
            cur.push(c);
            if esc {
                esc = false;
            } else if c == '\\' {
                esc = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => {
                in_str = true;
                cur.push(c);
            }
            ',' => {
                out.push(std::mem::take(&mut cur));
            }
            _ => cur.push(c),
        }
    }
    if !cur.trim().is_empty() {
        out.push(cur);
    }
    out
}

/// Minimal string unescaping (`\"`, `\\`, `\n`, `\t`).
fn unescape(s: &str) -> String {
    let mut out = String::new();
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some(other) => out.push(other),
            None => out.push('\\'),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_lists_and_allows() {
        let text = r#"
# top comment
[determinism]
crates = ["ga", "pga"]   # trailing comment
banned = [
    "Instant::now",
    "SystemTime::now",
]

[panic_path]
enabled = true
budget = 3

[[allow]]
rule = "panic_path"
path = "crates/serve/src/server.rs"
function = "run"
reason = "poisoned lock implies a prior panic"

[[allow]]
rule = "determinism"
path = "crates/hpc/src/calibrate.rs"
reason = "calibration is the clock module"
"#;
        let cfg = Config::parse(text).unwrap();
        assert_eq!(cfg.list("determinism", "crates"), vec!["ga", "pga"]);
        assert_eq!(
            cfg.list("determinism", "banned"),
            vec!["Instant::now", "SystemTime::now"]
        );
        assert_eq!(
            cfg.sections["panic_path"].get("enabled"),
            Some(&Value::Bool(true))
        );
        assert_eq!(
            cfg.sections["panic_path"].get("budget"),
            Some(&Value::Int(3))
        );
        assert_eq!(cfg.allows.len(), 2);
        assert_eq!(cfg.allows[0].function.as_deref(), Some("run"));
        assert_eq!(cfg.allows[1].function, None);
    }

    #[test]
    fn allow_without_reason_is_rejected() {
        let text = "[[allow]]\nrule = \"x\"\npath = \"y\"\n";
        let err = Config::parse(text).unwrap_err();
        assert!(err.contains("reason"), "{err}");
    }

    #[test]
    fn hash_inside_string_is_not_a_comment() {
        let cfg = Config::parse("[s]\nk = \"a # b\"\n").unwrap();
        assert_eq!(cfg.sections["s"]["k"], Value::Str("a # b".into()));
    }
}
