//! Stdout snapshot of the whole figure registry.
//!
//! Every id of `bh_bench::figures::FIGURES` is rendered in-process at a tiny
//! scale and compared — line count and FNV-1a digest of the text — with
//! `tests/figures.golden.txt`, which was recorded from the stdout of the 21
//! per-figure binaries the registry replaced. A figure whose table, heading,
//! rounding or row order moves shows up here, not only the two CI smokes.
//!
//! To re-record after an *intentional* change of a figure's output:
//!
//! ```text
//! BH_DIGEST_RECORD=1 cargo test -p bh-bench --test figure_snapshot
//! ```
//!
//! and commit the updated golden file with the reason the output moved.

use bh_bench::figures::{find, render, FIGURES};
use bh_bench::BenchEnv;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The scale the golden file was recorded at, as the variables a user would
/// export — fed through a lookup, never through the process environment.
const TINY_SCALE: &[(&str, &str)] = &[
    ("BH_INSTRUCTIONS", "2000"),
    ("BH_TRACE_ENTRIES", "1000"),
    ("BH_ATTACKER_ENTRIES", "1000"),
    ("BH_MIXES_PER_CLASS", "1"),
    ("BH_NRH_LIST", "1024,64"),
    ("BH_FIG_NRH", "64"),
];

fn tiny_env() -> BenchEnv {
    let (env, warnings) = BenchEnv::from_lookup_with_warnings(|name| {
        TINY_SCALE.iter().find(|(key, _)| *key == name).map(|(_, value)| value.to_string())
    });
    assert!(warnings.is_empty(), "{warnings:?}");
    env
}

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/figures.golden.txt")
}

fn fnv1a64(text: &str) -> u64 {
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |hash, b| (hash ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

#[test]
fn every_figure_prints_what_its_binary_printed() {
    let env = tiny_env();
    let rendered: Vec<(&str, String)> =
        FIGURES.iter().map(|figure| (figure.id, render(figure, &env))).collect();
    let summary: String = rendered
        .iter()
        .map(|(id, text)| format!("{id} {} {:016x}\n", text.lines().count(), fnv1a64(text)))
        .collect();
    let path = golden_path();
    if bh_core::knobs::raw("BH_DIGEST_RECORD").is_some() {
        std::fs::write(&path, summary).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!("{} missing — run with BH_DIGEST_RECORD=1 to create it", path.display())
    });
    let mut moved = String::new();
    for ((id, text), (got, want)) in rendered.iter().zip(summary.lines().zip(golden.lines())) {
        if got != want {
            moved.push_str(&format!("--- fig {id}: got `{got}`, golden has `{want}`\n{text}"));
        }
    }
    assert!(
        moved.is_empty() && summary.lines().count() == golden.lines().count(),
        "figure output diverged from {} ({} figures rendered, {} golden lines; \
         re-record with BH_DIGEST_RECORD=1 if the change is intentional):\n{moved}",
        path.display(),
        summary.lines().count(),
        golden.lines().count()
    );
}

#[test]
fn ids_are_unique_and_resolve() {
    for (i, figure) in FIGURES.iter().enumerate() {
        assert!(FIGURES[..i].iter().all(|earlier| earlier.id != figure.id), "{}", figure.id);
        assert_eq!(find(figure.id).expect("every id resolves").id, figure.id);
    }
    let error = find("20").expect_err("there is no figure 20");
    for figure in FIGURES {
        assert!(error.split_whitespace().any(|word| word == figure.id), "{error}");
    }
}

/// The command line reaches the registry: a cheap id prints its rendering
/// (with or without `--print-config`, which only simulated figures honour),
/// and an unknown id fails with the id list.
#[test]
fn the_fig_subcommand_resolves_ids() {
    let run = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_bh_campaign")).args(args).output().expect("binary runs")
    };
    let expected = render(find("hw_cost").expect("registered"), &tiny_env());
    for args in [&["fig", "hw_cost"][..], &["fig", "--print-config", "hw_cost"]] {
        let output = run(args);
        assert!(output.status.success(), "{output:?}");
        assert_eq!(String::from_utf8_lossy(&output.stdout), expected);
    }
    for args in [&["fig", "fig13"][..], &["fig"], &["fig", "5", "6"], &["fig", "5", "--csv"]] {
        let output = run(args);
        assert!(!output.status.success(), "{args:?} must be rejected");
        assert!(output.stdout.is_empty(), "{output:?}");
    }
    let stderr = String::from_utf8_lossy(&run(&["fig", "fig13"]).stderr).into_owned();
    assert!(
        stderr.contains("unknown figure \"fig13\"") && stderr.contains("scenarios"),
        "{stderr}"
    );
}
