//! Resume equivalence: an interrupted sweep plus a resume must produce the
//! same result set as one uninterrupted sweep.
//!
//! Interruption is simulated deterministically with the engine's
//! `cell_limit` budget (a real SIGKILL leaves the same store state minus any
//! line that was mid-write, which the resume parser already skips). Because
//! the simulator is deterministic, equivalence is checked at full strength:
//! the two stores hold byte-identical lines, modulo ordering.

// Test-only HashSets: completed-cell fixtures and assertion sets.
#![allow(clippy::disallowed_types)]

use bh_bench::campaign::{
    pending_failures, report_table, verdict_cells, CampaignSpec, CellRecord, FailedCell,
    ResultStore,
};
use bh_bench::Scale;
use bh_mitigation::MechanismKind;
use std::collections::HashSet;
use std::path::{Path, PathBuf};

fn tiny_spec() -> CampaignSpec {
    let mut scale = Scale::quick();
    scale.instructions_per_core = 4_000;
    scale.benign_entries = 600;
    scale.attacker_entries = 600;
    scale.mixes_per_class = 1;
    scale.worker_threads = 2;
    let mut spec = CampaignSpec::from_scale(scale, vec![MechanismKind::Graphene], true);
    spec.nrh_values = vec![64];
    spec.breakhammer_options = vec![true];
    spec.seeds = vec![42, 43];
    spec
}

fn test_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bh-campaign-resume-{tag}-{}.jsonl", std::process::id()))
}

/// The failed cells of the store at `path` still pending a retry.
fn pending(path: &Path) -> Vec<FailedCell> {
    pending_failures(&ResultStore::entries(path).expect("store parses"))
}

/// The cells of the store at `path` settled with a watchdog verdict.
fn verdicts(path: &Path) -> Vec<CellRecord> {
    verdict_cells(&ResultStore::load(path).expect("store parses"))
}

/// How many cells of the store at `path` ended healthily.
fn ok_cells(path: &Path) -> usize {
    ResultStore::load(path).expect("store parses").iter().filter(|r| r.is_ok()).count()
}

fn sorted_lines(path: &PathBuf) -> Vec<String> {
    let mut lines: Vec<String> = std::fs::read_to_string(path)
        .expect("store is readable")
        .lines()
        .map(str::to_string)
        .collect();
    lines.sort();
    lines
}

#[test]
fn interrupted_sweep_resumes_to_the_uninterrupted_result_set() {
    let spec = tiny_spec();
    let full_path = test_path("full");
    let chunked_path = test_path("chunked");
    let _ = std::fs::remove_file(&full_path);
    let _ = std::fs::remove_file(&chunked_path);

    // One uninterrupted sweep over the whole grid.
    let full_store = ResultStore::create(&full_path).expect("fresh store");
    let full = spec.run(&full_store, &HashSet::new(), None);
    assert!(full.complete(), "{full:?}");
    assert_eq!(full.evaluated_cells, full.total_cells);
    assert_eq!(full.skipped_cells + full.deferred_cells, 0);
    // 1 config × 6 attack mixes × 2 seeds.
    assert_eq!(full.total_cells, 12);

    // The same sweep "interrupted" after 5 cells (mid-way through the first
    // seed's grid)…
    let chunked_store = ResultStore::create(&chunked_path).expect("fresh store");
    let interrupted = spec.run(&chunked_store, &HashSet::new(), Some(5));
    drop(chunked_store);
    assert_eq!(interrupted.evaluated_cells, 5, "{interrupted:?}");
    assert_eq!(interrupted.deferred_cells, 7);
    assert!(!interrupted.complete());

    // …then resumed: the settled cells are loaded from the store and
    // skipped, the deferred ones run now.
    let settled = ResultStore::settled_cells(&chunked_path).expect("store parses");
    assert_eq!(settled.len(), 5);
    let resumed_store = ResultStore::append_to(&chunked_path).expect("store reopens");
    let resumed = spec.run(&resumed_store, &settled, None);
    assert_eq!(resumed.skipped_cells, 5, "{resumed:?}");
    assert_eq!(resumed.evaluated_cells, 7);
    assert!(resumed.complete());

    // The interrupted-then-resumed store equals the uninterrupted one,
    // byte for byte, modulo line order.
    assert_eq!(sorted_lines(&full_path), sorted_lines(&chunked_path));

    // And a second resume finds nothing left to do.
    let settled = ResultStore::settled_cells(&chunked_path).expect("store parses");
    let noop_store = ResultStore::append_to(&chunked_path).expect("store reopens");
    let noop = spec.run(&noop_store, &settled, None);
    assert_eq!(noop.evaluated_cells, 0, "{noop:?}");
    assert_eq!(noop.skipped_cells, noop.total_cells);

    // The store feeds the report aggregation.
    let records = ResultStore::load(&chunked_path).expect("store loads");
    assert_eq!(records.len(), 12);
    assert!(records.iter().all(|r| r.mechanism == "Graphene" && r.nrh == 64 && r.breakhammer));
    let seeds: HashSet<u64> = records.iter().map(|r| r.seed).collect();
    assert_eq!(seeds, HashSet::from([42, 43]));
    let table = report_table(&records);
    assert_eq!(table.len(), 1, "one configuration group");

    std::fs::remove_file(&full_path).expect("cleanup");
    std::fs::remove_file(&chunked_path).expect("cleanup");
}

/// A store corrupted mid-flight — interior garbage plus a half-overwritten
/// record — must not poison resume: the parser skips the damaged lines and a
/// resume reruns exactly the cells they belonged to.
#[test]
fn corrupted_store_lines_are_skipped_and_rerun_on_resume() {
    let spec = tiny_spec();
    let full_path = test_path("corrupt-full");
    let corrupt_path = test_path("corrupt");
    let _ = std::fs::remove_file(&full_path);
    let _ = std::fs::remove_file(&corrupt_path);

    // Reference: one clean uninterrupted sweep.
    let full_store = ResultStore::create(&full_path).expect("fresh store");
    let full = spec.run(&full_store, &HashSet::new(), None);
    assert!(full.complete());
    drop(full_store);

    // Corrupt a copy: replace one record with interior garbage and splice a
    // half-overwritten hybrid (the head of one record glued to the tail of
    // another — what a torn write plus a partial rewrite leaves behind).
    let clean_lines: Vec<String> = std::fs::read_to_string(&full_path)
        .expect("store is readable")
        .lines()
        .map(str::to_string)
        .collect();
    assert_eq!(clean_lines.len(), 12);
    let mut damaged = clean_lines.clone();
    damaged[3] = "x#!garbage not json at all".to_string();
    // 40 bytes cuts mid-way through the `"cell"` value, so the hybrid both
    // breaks the string structure and lacks the record's middle fields.
    let head = &clean_lines[7][..40];
    let tail = &clean_lines[8][clean_lines[8].len() / 2..];
    damaged[7] = format!("{head}{tail}");
    std::fs::write(&corrupt_path, format!("{}\n", damaged.join("\n"))).expect("write corrupt");

    // Exactly the two damaged cells are missing from the settled set…
    let settled = ResultStore::settled_cells(&corrupt_path).expect("parser skips damage");
    assert_eq!(settled.len(), 10, "{settled:?}");
    assert_eq!(ResultStore::load(&corrupt_path).expect("store loads").len(), 10);

    // …and a resume reruns exactly those two.
    let resumed_store = ResultStore::append_to(&corrupt_path).expect("store reopens");
    let resumed = spec.run(&resumed_store, &settled, None);
    assert_eq!(resumed.skipped_cells, 10, "{resumed:?}");
    assert_eq!(resumed.evaluated_cells, 2);
    assert!(resumed.complete());

    // After the resume, the store's well-formed records are equivalent to the
    // clean sweep's (the two corrupted lines stay in the file but parse to
    // nothing; their cells were re-appended byte-identically).
    assert_eq!(ResultStore::entries(&corrupt_path).expect("store parses").len(), 12);
    let mut expected = clean_lines;
    expected.sort();
    let mut recovered: Vec<String> = sorted_lines(&corrupt_path)
        .into_iter()
        .filter(|line| bh_bench::StoreEntry::parse(line).is_some())
        .collect();
    recovered.sort();
    assert_eq!(expected, recovered);

    std::fs::remove_file(&full_path).expect("cleanup");
    std::fs::remove_file(&corrupt_path).expect("cleanup");
}

/// A cell whose evaluation panics must not kill the sweep: it is recorded as
/// a `"failed"` line, surfaced in the summary, and retried by a later resume.
#[test]
fn panicking_cell_is_isolated_and_retried_on_resume() {
    let mut spec = tiny_spec();
    // Force every cell of one mix class to panic (2 seeds × 1 matching mix).
    spec.force_panic_mix = Some("HHHA".to_string());
    let path = test_path("panic");
    let _ = std::fs::remove_file(&path);

    let store = ResultStore::create(&path).expect("fresh store");
    let summary = spec.run(&store, &HashSet::new(), None);
    drop(store);
    assert_eq!(summary.failed_cells, 2, "{summary:?}");
    assert_eq!(summary.evaluated_cells + summary.failed_cells, summary.total_cells);
    assert!(!summary.complete(), "failed cells leave the grid incomplete");

    // The failures are in the store as failed lines, pending retry.
    let failures = pending(&path);
    assert_eq!(failures.len(), 2, "{failures:?}");
    assert!(failures.iter().all(|f| f.cell.contains("HHHA")), "{failures:?}");
    assert!(failures.iter().all(|f| f.error.contains("forced test panic")), "{failures:?}");
    // A panic is not a verdict: failed cells are pending, not settled.
    let settled = ResultStore::settled_cells(&path).expect("store parses");
    assert_eq!(settled.len(), 10);

    // Resume without the fault injected: the failed cells rerun to success.
    spec.force_panic_mix = None;
    let resumed_store = ResultStore::append_to(&path).expect("store reopens");
    let resumed = spec.run(&resumed_store, &settled, None);
    assert_eq!(resumed.skipped_cells, 10, "{resumed:?}");
    assert_eq!(resumed.evaluated_cells, 2);
    assert_eq!(resumed.failed_cells, 0);
    assert!(resumed.complete());
    assert!(pending(&path).is_empty());
    assert_eq!(ResultStore::load(&path).expect("store loads").len(), 12);

    std::fs::remove_file(&path).expect("cleanup");
}

/// A cell the watchdog classifies as livelocked is *settled*: recorded with
/// its diagnostic report, counted in the summary, and skipped — not retried —
/// by resume, because a deterministic verdict reruns to itself.
#[test]
fn livelocked_cells_are_settled_and_skipped_on_resume() {
    let mut spec = tiny_spec();
    // Starve every cell of one mix class into a livelock (2 seeds × 1 mix).
    spec.force_spin_mix = Some("HHHA".to_string());
    let path = test_path("spin");
    let _ = std::fs::remove_file(&path);

    let store = ResultStore::create(&path).expect("fresh store");
    let summary = spec.run(&store, &HashSet::new(), None);
    drop(store);
    assert_eq!(summary.livelock_cells, 2, "{summary:?}");
    assert_eq!(summary.budget_cells, 0);
    assert_eq!(summary.failed_cells, 0, "a livelock verdict is not a panic");
    assert_eq!(summary.evaluated_cells, summary.total_cells);
    assert!(summary.complete(), "verdict cells settle the grid");

    // The verdicts are in the store with their diagnostic snapshots…
    let verdicts = verdicts(&path);
    assert_eq!(verdicts.len(), 2, "{verdicts:?}");
    assert!(verdicts.iter().all(|v| v.cell.contains("HHHA")), "{verdicts:?}");
    assert!(verdicts.iter().all(|v| v.status == "livelock" && v.termination == "livelock"));
    assert!(
        verdicts
            .iter()
            .all(|v| v.livelock_report.as_deref().is_some_and(|r| r.contains("livelock at cycle"))),
        "{verdicts:?}"
    );
    // …and count as settled but not ok.
    let settled = ResultStore::settled_cells(&path).expect("store parses");
    assert_eq!(settled.len(), 12);
    assert_eq!(ok_cells(&path), 10);

    // Resume — with the chaos hook cleared — finds nothing to do: the
    // verdict cells are skipped, not rerun.
    spec.force_spin_mix = None;
    let resumed_store = ResultStore::append_to(&path).expect("store reopens");
    let resumed = spec.run(&resumed_store, &settled, None);
    assert_eq!(resumed.skipped_cells, 12, "{resumed:?}");
    assert_eq!(resumed.evaluated_cells, 0);
    assert!(resumed.complete());

    std::fs::remove_file(&path).expect("cleanup");
}

/// A SIGKILL mid-append leaves a truncated final line with no trailing
/// newline. The broken crc seal must make every reader drop exactly that
/// line, and a resume must rerun its cell without gluing the new record onto
/// the torn tail — restoring the clean result set.
#[test]
fn truncated_final_line_is_dropped_and_rerun_on_resume() {
    let spec = tiny_spec();
    let path = test_path("torn");
    let _ = std::fs::remove_file(&path);

    let store = ResultStore::create(&path).expect("fresh store");
    assert!(spec.run(&store, &HashSet::new(), None).complete());
    drop(store);
    let clean = sorted_lines(&path);
    assert_eq!(clean.len(), 12);

    // Tear the file mid-way through the last line, exactly as an interrupted
    // write leaves it: partial record, no trailing newline.
    let bytes = std::fs::read(&path).expect("store is readable");
    let last_start = bytes[..bytes.len() - 1].iter().rposition(|&b| b == b'\n').unwrap() + 1;
    let cut = last_start + (bytes.len() - last_start) / 2;
    std::fs::write(&path, &bytes[..cut]).expect("write torn store");

    // The torn line fails its seal and drops out of the settled set…
    let settled = ResultStore::settled_cells(&path).expect("parser drops the torn line");
    assert_eq!(settled.len(), 11, "{settled:?}");

    // …and a resume reruns exactly that one cell.
    let resumed_store = ResultStore::append_to(&path).expect("store reopens");
    let resumed = spec.run(&resumed_store, &settled, None);
    assert_eq!(resumed.skipped_cells, 11, "{resumed:?}");
    assert_eq!(resumed.evaluated_cells, 1);
    assert!(resumed.complete());

    // The recovered store's parseable lines equal the clean sweep's, byte
    // for byte — the torn tail parses to nothing and its cell was
    // re-appended deterministically.
    let recovered: Vec<String> = sorted_lines(&path)
        .into_iter()
        .filter(|line| bh_bench::StoreEntry::parse(line).is_some())
        .collect();
    assert_eq!(clean, recovered);

    std::fs::remove_file(&path).expect("cleanup");
}

/// Both chaos hooks at once — forced panics in one mix class, injected
/// livelocks in another — must leave a store with honest per-cell statuses
/// that resumes idempotently: failures retried, verdicts skipped.
#[test]
fn mixed_chaos_sweep_records_honest_statuses_and_resumes_idempotently() {
    let mut spec = tiny_spec();
    spec.force_spin_mix = Some("HHHA".to_string());
    spec.force_panic_mix = Some("LLLA".to_string());
    let path = test_path("mixed");
    let _ = std::fs::remove_file(&path);

    let store = ResultStore::create(&path).expect("fresh store");
    let summary = spec.run(&store, &HashSet::new(), None);
    drop(store);
    assert_eq!(summary.livelock_cells, 2, "{summary:?}");
    assert_eq!(summary.failed_cells, 2);
    assert_eq!(summary.evaluated_cells, 10, "8 ok + 2 livelock");
    assert!(!summary.complete(), "failed cells leave the grid incomplete");

    // Honest statuses: 8 ok, 2 livelock (settled), 2 failed (pending).
    assert_eq!(ok_cells(&path), 8);
    let settled = ResultStore::settled_cells(&path).expect("store parses");
    assert_eq!(settled.len(), 10);
    assert_eq!(pending(&path).len(), 2);

    // Resume with the panic fault healed: only the failed cells rerun; the
    // livelock verdicts stay settled.
    spec.force_panic_mix = None;
    let resumed_store = ResultStore::append_to(&path).expect("store reopens");
    let resumed = spec.run(&resumed_store, &settled, None);
    assert_eq!(resumed.skipped_cells, 10, "{resumed:?}");
    assert_eq!(resumed.evaluated_cells, 2);
    assert_eq!(resumed.failed_cells, 0);
    assert_eq!(resumed.livelock_cells, 0, "verdict cells were skipped, not rerun");
    assert!(resumed.complete());

    // A second resume is a no-op: the store is fully settled.
    let settled = ResultStore::settled_cells(&path).expect("store parses");
    assert_eq!(settled.len(), 12);
    let noop_store = ResultStore::append_to(&path).expect("store reopens");
    let noop = spec.run(&noop_store, &settled, None);
    assert_eq!(noop.evaluated_cells, 0, "{noop:?}");
    assert_eq!(noop.skipped_cells, 12);
    assert_eq!(verdicts(&path).len(), 2);

    std::fs::remove_file(&path).expect("cleanup");
}
