//! `bdslint` — the workspace's own static analyzer.
//!
//! Kernel work produced invariants that lived only in doc comments and
//! convention: cooperative `tick()` governance in every recursive kernel,
//! panic-free governed paths, zero `unsafe`, telemetry counters that
//! someone actually reads, and complement-canonical edge construction. This crate turns each of those
//! into a machine-checked, deny-by-default rule that runs under plain
//! `cargo test` (the workspace self-test) and as the `bdslint` binary in
//! CI — so the upcoming concurrent-kernel refactor breaks the build, not
//! the invariants, when it violates one.
//!
//! The scanner is hand-rolled and dependency-free: a line-aware lexical
//! pass ([`lexer`]) that strips comments and string literals, a shallow
//! structural model ([`model`]) that tracks functions by brace depth, and
//! a rule engine ([`rules`]) of token searches over the cleaned view.
//! There is no `syn`, no regex crate, nothing vendored — by design: the
//! linter must never be the thing that blocks a toolchain bump.
//!
//! Suppressions are explicit and must be justified:
//!
//! ```text
//! // bdslint: allow(panic-surface) -- slot is live: mk() interned it this call
//! ```
//!
//! An `allow` without the ` -- reason` tail is itself a finding.

pub mod lexer;
pub mod model;
pub mod rules;

use model::FileModel;
use rules::{Config, Finding};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Lints the workspace rooted at `root` with the default (this-repo)
/// configuration. Returns findings sorted by file and line.
pub fn lint_root(root: &Path) -> io::Result<Vec<Finding>> {
    lint_root_with(root, &Config::default())
}

/// Lints the workspace rooted at `root` under an explicit configuration
/// (fixture tests use narrowed registries).
pub fn lint_root_with(root: &Path, cfg: &Config) -> io::Result<Vec<Finding>> {
    let (lintable, corpus) = load_workspace(root)?;
    Ok(rules::run(cfg, &lintable, &corpus))
}

/// Serializes findings as a JSON array (hand-rolled — the linter takes
/// no dependencies).
pub fn findings_to_json(findings: &[Finding]) -> String {
    let mut out = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
            json_escape(&f.file),
            f.line,
            json_escape(f.rule),
            json_escape(&f.message)
        ));
    }
    if !findings.is_empty() {
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Collects and models the source tree: fully linted files from `src/`
/// and `crates/*/src/`, plus a read-only corpus (integration tests,
/// examples) that counts for telemetry liveness and unsafe hygiene.
/// Fixture trees under `crates/lint/tests` are never scanned.
fn load_workspace(root: &Path) -> io::Result<(Vec<FileModel>, Vec<FileModel>)> {
    let mut lintable_paths: Vec<PathBuf> = Vec::new();
    let mut corpus_paths: Vec<PathBuf> = Vec::new();

    let src = root.join("src");
    if src.is_dir() {
        walk_rs(&src, &mut lintable_paths)?;
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        for entry in sorted_entries(&crates)? {
            let crate_src = entry.join("src");
            if crate_src.is_dir() {
                walk_rs(&crate_src, &mut lintable_paths)?;
            }
            let crate_tests = entry.join("tests");
            if crate_tests.is_dir() {
                walk_rs(&crate_tests, &mut corpus_paths)?;
            }
        }
    }
    for extra in ["tests", "examples"] {
        let dir = root.join(extra);
        if dir.is_dir() {
            walk_rs(&dir, &mut corpus_paths)?;
        }
    }
    // Fixture mini-workspaces must not leak into a real scan. Judge by
    // the path *below* the scanned root, so that a fixture tree can
    // itself be scanned as a root (its absolute path contains
    // `fixtures`, its relative paths do not).
    let keep = |p: &PathBuf| {
        !p.strip_prefix(root)
            .unwrap_or(p)
            .components()
            .any(|c| c.as_os_str() == "fixtures")
    };
    lintable_paths.retain(keep);
    corpus_paths.retain(keep);

    let model_of = |path: &PathBuf, is_test_file: bool| -> io::Result<FileModel> {
        let text = fs::read_to_string(path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        Ok(FileModel::build(rel, lexer::strip(&text), is_test_file))
    };
    let mut lintable = Vec::new();
    for p in &lintable_paths {
        lintable.push(model_of(p, false)?);
    }
    let mut corpus = Vec::new();
    for p in &corpus_paths {
        corpus.push(model_of(p, true)?);
    }
    Ok((lintable, corpus))
}

fn sorted_entries(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    Ok(entries)
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in sorted_entries(dir)? {
        if entry.is_dir() {
            walk_rs(&entry, out)?;
        } else if entry.extension().is_some_and(|e| e == "rs") {
            out.push(entry);
        }
    }
    Ok(())
}
