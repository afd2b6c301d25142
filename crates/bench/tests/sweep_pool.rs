//! Pool equivalence: `CampaignSpec::run` evaluates a whole sweep on one
//! worker pool that builds each trace and alone baseline on first need. Its
//! store must hold the lines of the per-suite decomposition the benchmark
//! times — `Campaign::new`, `warmed_alone_cache`, `evaluate_jobs`, then
//! `record_line` for each cell — byte for byte, modulo line order, at any
//! worker count, and also when the sweep is interrupted and resumed.

// Test-only HashSet: the resume set `CampaignSpec::run` takes.
#![allow(clippy::disallowed_types)]

use bh_bench::campaign::{cell_id, record_line, CampaignSpec, ResultStore};
use bh_bench::{config_matrix, evaluate_jobs, Campaign, EvalHooks, Scale};
use bh_mitigation::MechanismKind;
use bh_workloads::scenario_catalog;
use std::collections::HashSet;
use std::path::{Path, PathBuf};

/// Two seeds, one scenario suite, Graphene@64 ±BreakHammer.
fn spec(attack: bool, workers: usize) -> CampaignSpec {
    let mut scale = Scale::quick();
    scale.instructions_per_core = 3_000;
    scale.benign_entries = 600;
    scale.attacker_entries = 600;
    scale.mixes_per_class = 1;
    scale.worker_threads = workers;
    scale.scenarios = vec![scenario_catalog()[0].name.to_string()];
    let mut spec = CampaignSpec::from_scale(scale, vec![MechanismKind::Graphene], attack);
    spec.nrh_values = vec![64];
    spec.seeds = vec![42, 43];
    spec
}

/// The sweep's lines, suite by suite through the public calls the
/// benchmark's decomposed sweep makes, sorted.
fn decomposed_lines(spec: &CampaignSpec) -> Vec<String> {
    let mut lines = Vec::new();
    for &seed in &spec.seeds {
        let mut scale = spec.scale.clone();
        scale.seed = seed;
        let mut campaign = Campaign::new(scale.clone());
        let alone = campaign.warmed_alone_cache().clone();
        let mixes = campaign.sweep_mixes(spec.attack);
        let configs =
            config_matrix(&spec.mechanisms, &spec.nrh_values, &spec.breakhammer_options, &scale);
        let jobs: Vec<(usize, usize)> =
            (0..configs.len()).flat_map(|c| (0..mixes.len()).map(move |m| (c, m))).collect();
        let results = evaluate_jobs(
            &configs,
            &mixes,
            &jobs,
            &alone,
            scale.worker_threads,
            &EvalHooks::none(),
        );
        for (&(c, m), result) in jobs.iter().zip(results) {
            let record = result.expect("no cell panics");
            let id = cell_id(&configs[c], &mixes[m].name, seed);
            lines.push(record_line(&id, seed, spec.attack, &record).trim_end().to_string());
        }
    }
    lines.sort();
    lines
}

fn test_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bh-sweep-pool-{tag}-{}.jsonl", std::process::id()))
}

fn sorted_lines(path: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(path).expect("store is readable");
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    lines.sort();
    lines
}

/// The store lines of `spec` run whole, and run with `cell_limit` then
/// resumed.
fn swept_lines(spec: &CampaignSpec, tag: &str, cell_limit: usize) -> [Vec<String>; 2] {
    let (whole, chunked) =
        (test_path(&format!("{tag}-whole")), test_path(&format!("{tag}-chunked")));
    for path in [&whole, &chunked] {
        let _ = std::fs::remove_file(path);
    }
    let summary =
        spec.run(&ResultStore::create(&whole).expect("fresh store"), &HashSet::new(), None);
    assert!(summary.complete(), "{tag}: {summary:?}");
    let store = ResultStore::create(&chunked).expect("fresh store");
    let interrupted = spec.run(&store, &HashSet::new(), Some(cell_limit));
    drop(store);
    assert_eq!(interrupted.evaluated_cells, cell_limit, "{tag}: {interrupted:?}");
    let settled = ResultStore::settled_cells(&chunked).expect("store parses");
    let store = ResultStore::append_to(&chunked).expect("store reopens");
    let resumed = spec.run(&store, &settled, None);
    drop(store);
    assert!(resumed.complete(), "{tag}: {resumed:?}");
    let lines = [sorted_lines(&whole), sorted_lines(&chunked)];
    for path in [&whole, &chunked] {
        std::fs::remove_file(path).expect("cleanup");
    }
    lines
}

fn assert_the_pool_matches_the_decomposition(attack: bool) {
    let reference = decomposed_lines(&spec(attack, 2));
    // Attack: 2 configurations × (6 attack + 1 scenario mixes) × 2 seeds;
    // benign: × 6 benign mixes.
    assert_eq!(reference.len(), if attack { 28 } else { 24 });
    for workers in [1, 2] {
        let tag = format!("{}-{workers}", if attack { "attack" } else { "benign" });
        // The limit ends the first run inside the second suite, between the
        // two arms of one mix's ±BreakHammer pair.
        let cell_limit = reference.len() / 2 + 3;
        let [whole, resumed] = swept_lines(&spec(attack, workers), &tag, cell_limit);
        assert_eq!(whole, reference, "{tag}: one run");
        assert_eq!(resumed, reference, "{tag}: interrupted after {cell_limit} cells, resumed");
    }
}

#[test]
fn an_attack_sweeps_pool_writes_the_lines_of_its_per_suite_decomposition() {
    assert_the_pool_matches_the_decomposition(true);
}

#[test]
fn a_benign_sweeps_pool_writes_the_lines_of_its_per_suite_decomposition() {
    assert_the_pool_matches_the_decomposition(false);
}

/// A scenario mix replays its attack mix's benign draw and trace seeds, so
/// its applications are baselined on traces of the attack suite.
#[test]
fn scenario_mixes_replay_the_benign_traces_of_their_attack_mix() {
    let mut scale = spec(true, 2).scale;
    scale.seed = 43;
    let mixes = Campaign::new(scale).sweep_mixes(true);
    let (plain, scenario) = (&mixes[0], mixes.last().expect("a scenario mix"));
    assert_eq!(plain.name, "HHHA-00");
    assert!(scenario.scenario.is_some(), "{}", scenario.name);
    assert_eq!(plain.app_names, scenario.app_names);
    for t in plain.benign_threads() {
        assert!(plain.traces[t].shares_storage(&scenario.traces[t]), "core {t}");
    }
}
