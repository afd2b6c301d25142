//! `bh_analyze` — the workspace determinism-and-safety lint pass.
//!
//! The BreakHammer reproduction pins its simulation outputs with golden
//! digests: every kernel and front-end must produce byte-identical
//! `SimulationResult`s. That guarantee is easy to break with
//! ordinary Rust — iterate a `HashMap`, read the wall clock, forget a field
//! in a stats-merge destructure — and none of those mistakes fail to
//! compile. `bh_analyze` makes them fail CI instead.
//!
//! The tool is deliberately dependency-free: a hand-rolled lexer
//! ([`lexer`]) tokenizes every `.rs` file in the workspace (comments
//! included, strings and chars opaque), and token-level rules ([`rules`])
//! scan the streams. It is not a type checker and does not try to be — each
//! rule trades a little precision for being obvious, fast and
//! self-contained, and the inline allowlist
//! (`// bh-analyze: allow(<rule>) -- <reason>`) handles the justified
//! exceptions. The mandatory reason keeps every escape self-documenting.
//!
//! Rules:
//!
//! | Rule | Invariant |
//! |------|-----------|
//! | `D1` | no `HashMap`/`HashSet` in digest-pinned crates' non-test code |
//! | `D2` | no wall-clock / ambient nondeterminism outside `bh_bench` and tests |
//! | `S1` | every `unsafe` carries an immediately preceding `// SAFETY:` |
//! | `E1` | every `env::var("BH_…")` read names a registered knob; every registered knob is documented in the README |
//! | `X1` | `bh-exhaustive`-marked structs are always destructured without `..` |
//! | `A0` | (meta) a `bh-analyze:` allow comment is well-formed — cannot itself be allowed |
//!
//! Run it as `cargo run -p bh_analyze -- --deny` (CI does).

pub mod lexer;
pub mod rules;

use lexer::Token;
use std::path::{Path, PathBuf};

/// One finding, anchored to a workspace-relative `path:line`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative path (forward slashes) of the offending file.
    pub path: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// Rule identifier (`D1`, `D2`, `S1`, `E1`, `X1`, or the meta rule `A0`).
    pub rule: &'static str,
    /// Human-readable explanation of the finding.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.rule, self.message)
    }
}

/// A lexed workspace source file plus the classification the rules need.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with forward slashes (stable diagnostics).
    pub rel_path: String,
    /// Raw file contents (rules S1 and the allowlist need line text).
    pub source: String,
    /// The token stream of [`lexer::lex`].
    pub tokens: Vec<Token>,
    /// `crates/<name>/…` → `Some(name)`; `None` outside `crates/`.
    pub crate_name: Option<String>,
    /// True when the path runs through a `tests/` or `benches/` component —
    /// test code is exempt from the determinism rules D1 and D2.
    pub is_test_path: bool,
}

/// Directory names never descended into, at any depth.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", ".github", "node_modules"];

/// Path suffix of this crate's lint fixtures: they *intentionally* violate
/// rules, so the workspace walk must not treat them as workspace code.
const FIXTURE_DIR: &str = "crates/analyze/tests/fixtures";

/// Recursively collects the workspace's `.rs` files in sorted order.
fn walk(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> =
        std::fs::read_dir(dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if SKIP_DIRS.contains(&name) || name.starts_with('.') {
                continue;
            }
            if rel_string(root, &path) == FIXTURE_DIR {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Workspace-relative path with forward slashes.
fn rel_string(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components().map(|c| c.as_os_str().to_string_lossy()).collect::<Vec<_>>().join("/")
}

/// Loads and classifies one source file.
fn load(root: &Path, path: &Path) -> std::io::Result<SourceFile> {
    let source = std::fs::read_to_string(path)?;
    let rel_path = rel_string(root, path);
    let parts: Vec<&str> = rel_path.split('/').collect();
    let crate_name = match parts.as_slice() {
        ["crates", name, ..] => Some((*name).to_string()),
        _ => None,
    };
    let is_test_path = parts.iter().any(|&p| p == "tests" || p == "benches");
    let tokens = lexer::lex(&source);
    Ok(SourceFile { rel_path, source, tokens, crate_name, is_test_path })
}

/// Analyzes the workspace rooted at `root` and returns all findings, sorted
/// by `(path, line, rule)`.
pub fn analyze_root(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let mut paths = Vec::new();
    walk(root, root, &mut paths)?;
    let files: Vec<SourceFile> =
        paths.iter().map(|p| load(root, p)).collect::<std::io::Result<_>>()?;

    let ctx = rules::WorkspaceContext::gather(&files);

    let mut diagnostics = Vec::new();
    for file in &files {
        let analysis = rules::FileAnalysis::new(file, &mut diagnostics);
        rules::rule_d1(&analysis, &mut diagnostics);
        rules::rule_d2(&analysis, &mut diagnostics);
        rules::rule_s1(&analysis, &mut diagnostics);
        rules::rule_e1_sites(&analysis, &ctx, &mut diagnostics);
        rules::rule_x1(&analysis, &ctx, &mut diagnostics);
    }

    let readme = std::fs::read_to_string(root.join("README.md")).ok();
    rules::rule_e1_readme(&ctx, readme.as_deref(), &mut diagnostics);

    diagnostics.sort();
    diagnostics.dedup();
    Ok(diagnostics)
}
