//! The oracle's independence, checked by the build instead of by review.
//!
//! `crates/oracle` holds the reference models the simulator is checked
//! against. A reference that borrows code from what it checks carries that
//! code's bugs into the comparison, so the package has no dependency table
//! of any kind, and no crate under `crates/` may depend on it (which keeps
//! it out of everything the simulator and the benchmark link). Only the root
//! package's tests name it, as a dev-dependency.

use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every key or table header of a TOML manifest that declares
/// dependencies: `[dependencies]`, `[dev-dependencies]`,
/// `[build-dependencies]`, their `[target.'cfg'.…]` forms, their
/// `[dependencies.name]` sub-tables and dotted `dependencies.name = …` keys.
/// Comments and string contents are not parsed, so a comment mentioning a
/// table is not a dependency.
fn dependency_declarations(manifest: &str) -> Vec<String> {
    let kinds = ["dependencies", "dev-dependencies", "build-dependencies"];
    manifest
        .lines()
        .map(|line| line.split('#').next().unwrap_or("").trim())
        .filter(|line| {
            let key = if let Some(header) = line.strip_prefix('[') {
                header.trim_start_matches('[').split(']').next().unwrap_or("")
            } else {
                line.split('=').next().unwrap_or("")
            };
            key.split('.').any(|part| kinds.contains(&part.trim().trim_matches(['"', '\''])))
        })
        .map(str::to_string)
        .collect()
}

/// The oracle's manifest declares no dependency of any kind.
#[test]
fn the_oracle_manifest_has_no_dependency_table() {
    let manifest = read(&workspace_root().join("crates/oracle/Cargo.toml"));
    assert!(manifest.contains("name = \"bh-oracle\""), "crates/oracle is not the oracle package");
    let found = dependency_declarations(&manifest);
    assert!(
        found.is_empty(),
        "crates/oracle/Cargo.toml must declare no dependencies, found: {found:?}"
    );
}

/// No crate under `crates/` names the oracle package.
#[test]
fn no_crate_depends_on_the_oracle() {
    let crates = workspace_root().join("crates");
    let mut checked = 0;
    for entry in std::fs::read_dir(&crates).expect("crates/ is readable") {
        let dir = entry.expect("a directory entry").path();
        let manifest = dir.join("Cargo.toml");
        if dir.ends_with("oracle") || !manifest.exists() {
            continue;
        }
        checked += 1;
        let text = read(&manifest);
        let named: Vec<_> = text
            .lines()
            .map(|line| line.split('#').next().unwrap_or(""))
            .filter(|line| line.contains("bh-oracle") || line.contains("crates/oracle"))
            .collect();
        assert!(named.is_empty(), "{} names the oracle: {named:?}", manifest.display());
    }
    assert!(checked >= 9, "only {checked} crate manifests found under crates/");
}

/// The detector itself: each way a manifest can declare a dependency is
/// found, and comments are not.
#[test]
fn every_dependency_form_is_detected() {
    for manifest in [
        "[dependencies]\nbh-dram = { path = \"../dram\" }",
        "[dev-dependencies]",
        "[build-dependencies]",
        "[target.'cfg(unix)'.dependencies]",
        "[target.\"cfg(unix)\".dev-dependencies]",
        "[dependencies.bh-dram]\npath = \"../dram\"",
        "dependencies.bh-dram = { path = \"../dram\" }",
        "[dependencies] # a comment",
    ] {
        assert_eq!(dependency_declarations(manifest).len(), 1, "{manifest}");
    }
    for manifest in [
        "[package]\nname = \"bh-oracle\"\n# no [dependencies] here",
        "[lints]\nworkspace = true",
        "description = \"shares no dependencies\"",
    ] {
        assert!(dependency_declarations(manifest).is_empty(), "{manifest}");
    }
}
