//! The workspace lint engine: the two rules neither rustc nor clippy can
//! express, because they encode *this* project's architecture. Everything
//! else a line lint used to check (panics, prints, truncating casts in the
//! storage codecs, unused dependencies) is denied at the library crate
//! roots and owned by clippy and rustc (DESIGN.md §8).
//!
//! ## Rules
//!
//! **Layering** (`layering`): the crate DAG must point one way —
//! `fm-text` and `fm-store` are leaves (no `fm-*` dependencies), `fm-core`
//! may use only `fm-text` + `fm-store`, `fm-datagen` only `fm-core` +
//! `fm-text`; binaries, benches, examples, and integration tests are
//! unrestricted. Checked on the `Cargo.toml` declarations: a `use fm_x`
//! without the manifest dependency does not compile.
//!
//! **`must-use-bool`**: `pub fn … -> bool` predicates in the library crates
//! need `#[must_use]` (`Result` returns are already `#[must_use]` via rustc;
//! re-tagging them would trip `clippy::double_must_use`, so the boolean
//! rule is the useful remainder — see DESIGN.md). Test modules are exempt.
//! A line carrying `// lint:allow(must-use-bool): <why>` — on the
//! signature or the line above — is exempt.
//!
//! There is no baseline: a finding fails the gate.

use std::fs;
use std::path::{Path, PathBuf};

/// Crates whose `src/` is held to library hygiene.
const LIB_CRATES: &[&str] = &["fm-text", "fm-store", "fm-core", "fm-datagen", "fm-server"];

/// Allowed `fm-*` dependencies per crate. Crates absent from this table
/// (binaries, benches, examples, integration tests, xtask itself) may
/// depend on anything.
const LAYERS: &[(&str, &[&str])] = &[
    ("fm-text", &[]),
    ("fm-store", &[]),
    ("fm-core", &["fm-text", "fm-store"]),
    ("fm-datagen", &["fm-core", "fm-text"]),
    // The serving layer sits on top of the matcher; nothing below it may
    // ever reach back up (fm-server is in LIB_CRATES, so every other
    // layered crate rejects it as a dependency).
    ("fm-server", &["fm-core", "fm-store"]),
    // The offline stand-ins shadow external crates; they must never reach
    // back into the workspace.
    ("rand", &[]),
    ("proptest", &[]),
    ("parking_lot", &[]),
];

struct Package {
    name: String,
    dir: PathBuf,
    /// Declared dependencies across all dependency sections.
    deps: Vec<String>,
}

/// One finding: `rule` at `path:line` (line 0 for a manifest).
#[derive(Debug)]
pub struct Violation {
    pub rule: &'static str,
    /// Path relative to the linted root.
    pub path: String,
    pub line: usize,
    pub message: String,
}

pub fn run() -> i32 {
    match findings(&crate::workspace_root()) {
        Ok(violations) if violations.is_empty() => {
            println!("lint: ok");
            0
        }
        Ok(violations) => {
            for v in &violations {
                eprintln!("  {}:{}: [{}] {}", v.path, v.line, v.rule, v.message);
            }
            eprintln!("lint: FAILED ({} findings)", violations.len());
            1
        }
        Err(e) => {
            eprintln!("lint: cannot read workspace manifests: {e}");
            1
        }
    }
}

/// Every rule's findings for the workspace at `root` (its member packages
/// under `crates/`, `vendor/`, `tests/` and `examples/`), sorted.
pub fn findings(root: &Path) -> std::io::Result<Vec<Violation>> {
    let packages = load_packages(root)?;
    let mut violations = Vec::new();
    check_layering(root, &packages, &mut violations);
    check_must_use(root, &packages, &mut violations);
    violations.sort_by(|a, b| {
        (a.rule, &a.path, a.line, &a.message).cmp(&(b.rule, &b.path, b.line, &b.message))
    });
    Ok(violations)
}

// ---------------------------------------------------------------- manifests

fn load_packages(root: &Path) -> std::io::Result<Vec<Package>> {
    let mut dirs = Vec::new();
    for parent in ["crates", "vendor"] {
        for entry in fs::read_dir(root.join(parent))? {
            let dir = entry?.path();
            if dir.join("Cargo.toml").is_file() {
                dirs.push(dir);
            }
        }
    }
    for single in ["tests", "examples"] {
        let dir = root.join(single);
        if dir.join("Cargo.toml").is_file() {
            dirs.push(dir);
        }
    }
    let mut packages = Vec::new();
    for dir in dirs {
        packages.push(parse_manifest(&dir)?);
    }
    packages.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(packages)
}

/// Minimal single-purpose TOML scan: section headers, `name = "..."`, and
/// the keys of dependency tables. Our manifests are machine-regular; a full
/// TOML parser would be the only external dependency in the whole tool.
fn parse_manifest(dir: &Path) -> std::io::Result<Package> {
    let text = fs::read_to_string(dir.join("Cargo.toml"))?;
    let mut section = String::new();
    let mut name = String::new();
    let mut deps = Vec::new();
    for raw in text.lines() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line.starts_with('[') {
            section = line.trim_matches(|c| c == '[' || c == ']').to_string();
            continue;
        }
        if section == "package" {
            if let Some(rest) = line.strip_prefix("name") {
                if let Some(value) = rest.trim_start().strip_prefix('=') {
                    name = value.trim().trim_matches('"').to_string();
                }
            }
        }
        if matches!(
            section.as_str(),
            "dependencies" | "dev-dependencies" | "build-dependencies"
        ) {
            if let Some(key) = line.split(['=', '.', ' ']).next().filter(|k| !k.is_empty()) {
                deps.push(key.to_string());
            }
        }
    }
    Ok(Package {
        name,
        dir: dir.to_path_buf(),
        deps,
    })
}

// ----------------------------------------------------------------- layering

fn check_layering(root: &Path, packages: &[Package], out: &mut Vec<Violation>) {
    for pkg in packages {
        let Some(&(_, allowed)) = LAYERS.iter().find(|(n, _)| *n == pkg.name) else {
            continue; // unrestricted layer
        };
        for dep in &pkg.deps {
            if LIB_CRATES.contains(&dep.as_str()) && !allowed.contains(&dep.as_str()) {
                out.push(Violation {
                    rule: "layering",
                    path: rel(root, &pkg.dir.join("Cargo.toml")),
                    line: 0,
                    message: format!(
                        "{} must not depend on {dep} (allowed fm-* deps: {:?})",
                        pkg.name, allowed
                    ),
                });
            }
        }
    }
}

// ------------------------------------------------------------ must-use-bool

fn check_must_use(root: &Path, packages: &[Package], out: &mut Vec<Violation>) {
    for pkg in packages {
        if !LIB_CRATES.contains(&pkg.name.as_str()) {
            continue;
        }
        for file in rs_files(&pkg.dir.join("src")) {
            let Ok(text) = fs::read_to_string(&file) else {
                continue;
            };
            let path = rel(root, &file);
            let lines: Vec<&str> = text.lines().collect();
            for i in 0..lines.len() {
                if lines[i].trim_start().starts_with("#[cfg(test)]") {
                    break; // test modules trail the library code in this repo
                }
                must_use_bool(&lines, i, &path, out);
            }
        }
    }
}

/// `pub fn … -> bool` predicates must be `#[must_use]`: a dropped boolean
/// result is almost always a missed check.
fn must_use_bool(lines: &[&str], i: usize, path: &str, out: &mut Vec<Violation>) {
    let code = strip_comment(lines[i]);
    let trimmed = code.trim_start();
    if !trimmed.starts_with("pub fn ") {
        return;
    }
    // Join the signature until its body opens (or 10 lines, whichever first).
    let mut signature = String::new();
    for line in lines.iter().skip(i).take(10) {
        signature.push_str(strip_comment(line).trim());
        signature.push(' ');
        if line.contains('{') || line.contains(';') {
            break;
        }
    }
    let Some(ret) = signature.split("->").nth(1) else {
        return;
    };
    let returns_bare_bool = match ret.trim_start().strip_prefix("bool") {
        Some(r) => r.trim_start().starts_with('{') || r.trim_start().starts_with("where"),
        None => false,
    };
    if !returns_bare_bool {
        return;
    }
    // Attributes and doc comments sit directly above the signature.
    let covered = lines[..i]
        .iter()
        .rev()
        .take_while(|l| {
            let t = l.trim_start();
            t.starts_with("#[") || t.starts_with("///") || t.starts_with("//")
        })
        .any(|l| l.contains("#[must_use]"));
    let prev = if i > 0 { lines[i - 1] } else { "" };
    if !covered && !allows(lines[i], "must-use-bool") && !allows(prev, "must-use-bool") {
        out.push(Violation {
            rule: "must-use-bool",
            path: path.to_string(),
            line: i + 1,
            message: "public boolean predicate without #[must_use]".into(),
        });
    }
}

// ------------------------------------------------------------------ support

/// Does this line opt out of `rule`? The suppression comment is
/// `// lint:allow(rule)` or `// lint:allow(rule-a, rule-b): why`, with any
/// amount of whitespace (or a stray `\r`) around the rule names.
pub fn allows(line: &str, rule: &str) -> bool {
    let mut rest = line;
    while let Some(pos) = rest.find("lint:allow(") {
        rest = &rest[pos + "lint:allow(".len()..];
        let inner = match rest.find(')') {
            Some(close) => {
                let inner = &rest[..close];
                rest = &rest[close + 1..];
                inner
            }
            // Unclosed (e.g. truncated line): take the remainder.
            None => std::mem::take(&mut rest),
        };
        if inner.split(',').any(|r| r.trim() == rule) {
            return true;
        }
    }
    false
}

/// The code portion of a line (naive `//` strip).
fn strip_comment(line: &str) -> &str {
    match line.find("//") {
        Some(pos) => &line[..pos],
        None => line,
    }
}

pub fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .display()
        .to_string()
}

pub fn rs_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n == "target") {
                    continue;
                }
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}
