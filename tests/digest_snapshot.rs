//! Golden-digest harness for [`SimulationResult`]s.
//!
//! Runs the canonical 40-configuration matrix (10 mechanisms × ±BreakHammer ×
//! both kernels, through the default data-oriented `CoreEngine` front-end)
//! on the standard attack workload and folds every field that existed in the
//! result as of the digest capture into a stable FNV-1a fingerprint. The digests are compared against `tests/digests.golden.txt`,
//! which pins the simulator's observable behaviour across refactors: any
//! change to scheduling, mitigation, throttling or accounting shows up as a
//! digest mismatch even if both kernels still agree with each other.
//!
//! To regenerate the golden file after an *intentional* behaviour change:
//!
//! ```text
//! BH_DIGEST_RECORD=1 cargo test --test digest_snapshot
//! ```
//!
//! and commit the updated `tests/digests.golden.txt` together with an
//! explanation of why the behaviour moved.

use breakhammer_suite::mitigation::MechanismKind;
use breakhammer_suite::sim::{FrontEndKind, SchedulerKind, SimulationResult, System, SystemConfig};

mod common;
use common::{attack_traces, attack_traces_composed, probabilistic_secded_fault};

/// FNV-1a, the digest accumulator. Stable across platforms and releases.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn byte(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(0x100_0000_01b3);
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn bool(&mut self, v: bool) {
        self.byte(v as u8);
    }
}

/// Folds the pre-multichannel field set of a [`SimulationResult`] into one
/// digest. New fields added after the golden capture (per-channel breakdowns,
/// per-channel BreakHammer counters) are deliberately not digested here; they
/// are covered by the full-equality differential suite instead.
fn digest(result: &SimulationResult) -> u64 {
    let mut d = Digest::new();
    d.usize(result.cores.len());
    for core in &result.cores {
        d.usize(core.thread.index());
        d.u64(core.instructions);
        d.u64(core.cycles);
        d.f64(core.ipc);
        d.bool(core.finished);
    }
    d.u64(result.dram_cycles);

    let c = &result.controller;
    for v in [
        c.reads_served,
        c.writes_served,
        c.row_hits,
        c.row_misses,
        c.row_conflicts,
        c.demand_activations,
        c.enqueue_rejections,
        c.preventive_refresh_actions,
        c.victim_rows_refreshed,
        c.migrations,
        c.rfm_actions,
        c.table_accesses,
        c.periodic_refreshes,
    ] {
        d.u64(v);
    }

    let m = &result.dram;
    for v in [
        m.activates,
        m.precharges,
        m.precharge_alls,
        m.reads,
        m.writes,
        m.refreshes,
        m.refreshes_same_bank,
        m.rfm_commands,
        m.victim_refreshes,
    ] {
        d.u64(v);
    }

    let l = &result.cache;
    for v in
        [l.hits, l.misses, l.mshr_merges, l.mshr_full_rejections, l.quota_rejections, l.writebacks]
    {
        d.u64(v);
    }

    d.f64(result.energy_nj);
    d.u64(result.preventive_actions);
    d.usize(result.bitflips);
    for s in &result.ever_suspect {
        d.bool(*s);
    }
    match &result.breakhammer {
        None => d.bool(false),
        Some(bh) => {
            d.bool(true);
            d.u64(bh.actions_observed);
            d.u64(bh.suspect_identifications);
            d.u64(bh.quota_restorations);
            d.u64(bh.windows_completed);
        }
    }
    d.usize(result.latency.len());
    for h in &result.latency {
        d.u64(h.count());
        d.u64(h.max());
        d.f64(h.mean());
    }
    d.0
}

fn config_for(mechanism: MechanismKind, breakhammer: bool, kernel: SchedulerKind) -> SystemConfig {
    let mut config = SystemConfig::fast_test(mechanism, 128, breakhammer);
    config.instructions_per_core = 6_000;
    config.scheduler = kernel;
    config
}

fn kernel_name(kernel: SchedulerKind) -> &'static str {
    match kernel {
        SchedulerKind::PerCycle => "per_cycle",
        SchedulerKind::EventDriven => "event_driven",
    }
}

fn run_matrix() -> Vec<(String, u64)> {
    let mut out = Vec::with_capacity(40);
    for mechanism in MechanismKind::ALL {
        for breakhammer in [false, true] {
            for kernel in [SchedulerKind::PerCycle, SchedulerKind::EventDriven] {
                let config = config_for(mechanism, breakhammer, kernel);
                let traces = attack_traces(&config, 2_000, 100);
                let result = System::new(config, &traces, vec![0, 1, 2]).run();
                let label = format!(
                    "{mechanism} {} {}",
                    if breakhammer { "bh" } else { "nobh" },
                    kernel_name(kernel)
                );
                out.push((label, digest(&result)));
            }
        }
    }
    out
}

/// The channels axis of the digest harness: per config and channel count,
/// both kernels must produce the same digest. (The golden file itself pins
/// channels = 1 — multi-channel goldens would churn with every intentional
/// routing change, while cross-kernel equality is the invariant that must
/// never move.)
#[test]
fn multichannel_digests_agree_across_kernels() {
    for channels in [1usize, 2, 4] {
        for (mechanism, breakhammer) in
            [(MechanismKind::Graphene, true), (MechanismKind::Hydra, false)]
        {
            let mut digests = Vec::new();
            for kernel in [SchedulerKind::PerCycle, SchedulerKind::EventDriven] {
                let mut config = config_for(mechanism, breakhammer, kernel);
                config.geometry = config.geometry.with_channels(channels);
                let traces = attack_traces(&config, 2_000, 100);
                let result = System::new(config, &traces, vec![0, 1, 2]).run();
                digests.push(digest(&result));
            }
            assert_eq!(
                digests[0], digests[1],
                "kernel digests diverged for {mechanism} bh={breakhammer} x{channels}ch"
            );
        }
    }
}

/// The front-end axis of the digest harness: per config and scheduler
/// kernel, the data-oriented `CoreEngine` and the per-object legacy cores
/// must produce the same digest. (The golden file itself is produced with
/// the default front-end — the engine — so the golden test *is* the "goldens
/// run through `CoreEngine` unchanged" check; this test pins the legacy
/// reference model to the same behaviour.)
#[test]
fn front_end_digests_agree() {
    for (mechanism, breakhammer) in
        [(MechanismKind::Graphene, true), (MechanismKind::BlockHammer, false)]
    {
        for kernel in [SchedulerKind::PerCycle, SchedulerKind::EventDriven] {
            let mut digests = Vec::new();
            for front_end in [FrontEndKind::Legacy, FrontEndKind::Engine] {
                let mut config = config_for(mechanism, breakhammer, kernel);
                config.front_end = front_end;
                let traces = attack_traces(&config, 2_000, 100);
                let result = System::new(config, &traces, vec![0, 1, 2]).run();
                digests.push(digest(&result));
            }
            assert_eq!(
                digests[0],
                digests[1],
                "front-end digests diverged for {mechanism} bh={breakhammer} {}",
                kernel_name(kernel)
            );
        }
    }
}

/// Extends [`digest`] with the per-victim disturbance reports — the field the
/// composable-attacker scenarios add to [`SimulationResult`]. Used only by
/// the scenario goldens, which were captured *with* victim tracking; the
/// classic 40-config goldens predate the field and keep the original fold.
fn digest_with_victims(result: &SimulationResult) -> u64 {
    let mut d = Digest::new();
    d.u64(digest(result));
    d.usize(result.victims.len());
    for v in &result.victims {
        d.usize(v.channel);
        d.usize(v.row.bank.rank);
        d.usize(v.row.bank.bank_group);
        d.usize(v.row.bank.bank);
        d.usize(v.row.row);
        d.u64(v.disturbance);
        d.usize(v.bitflips);
    }
    d.0
}

/// Runs every catalog scenario (pattern × placement) under Graphene ±BH on
/// both scheduler kernels, asserting cross-kernel digest equality and
/// returning the per-kernel digest rows for the scenario golden file.
fn run_scenario_matrix() -> Vec<(String, u64)> {
    use breakhammer_suite::workloads::scenario_catalog;
    let mut out = Vec::new();
    for scenario in scenario_catalog() {
        for breakhammer in [false, true] {
            let mut digests = Vec::new();
            for kernel in [SchedulerKind::PerCycle, SchedulerKind::EventDriven] {
                let config = config_for(MechanismKind::Graphene, breakhammer, kernel);
                let traces = attack_traces_composed(&config, &scenario.attacker, 2_000, 100);
                let victims = scenario.attacker.victim_rows(&config.geometry);
                let result = System::new(config, &traces, vec![0, 1, 2])
                    .watch_victims(victims.iter().map(|v| (v.channel, v.row)))
                    .run();
                let label = format!(
                    "{} {} {}",
                    scenario.name,
                    if breakhammer { "bh" } else { "nobh" },
                    kernel_name(kernel)
                );
                digests.push((label, digest_with_victims(&result)));
            }
            assert_eq!(
                digests[0].1, digests[1].1,
                "kernel digests diverged for scenario {} bh={breakhammer}",
                scenario.name
            );
            out.extend(digests);
        }
    }
    out
}

/// Extends [`digest_with_victims`] with the fault-injection surface — the
/// [`AttackOutcome`](breakhammer_suite::sim::AttackOutcome) counters and the
/// per-channel machine-check counts. Used only by the fault-model goldens,
/// which pin the probabilistic flip model and the SEC-DED classification;
/// the classic and scenario goldens predate those fields and keep their
/// original folds.
fn digest_with_outcome(result: &SimulationResult) -> u64 {
    let mut d = Digest::new();
    d.u64(digest_with_victims(result));
    d.u64(result.outcome.flips_raw);
    d.u64(result.outcome.corrected);
    d.u64(result.outcome.detected);
    d.u64(result.outcome.silent);
    d.bool(result.outcome.attack_success);
    d.usize(result.per_channel.len());
    for ch in &result.per_channel {
        d.u64(ch.machine_checks);
    }
    d.0
}

/// Runs a mechanism subset ±BreakHammer on both kernels under the
/// probabilistic fault model with SEC-DED ECC, asserting cross-kernel digest
/// equality and returning the rows for the fault golden file. The fold
/// includes the raw/corrected/detected/silent flip counters, so this matrix
/// pins the *probabilistic* behaviour bit-exactly — across kernels and
/// sessions.
fn run_fault_matrix() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for mechanism in [MechanismKind::None, MechanismKind::Para, MechanismKind::Graphene] {
        for breakhammer in [false, true] {
            if mechanism == MechanismKind::None && breakhammer {
                continue;
            }
            let mut digests = Vec::new();
            for kernel in [SchedulerKind::PerCycle, SchedulerKind::EventDriven] {
                let mut config = SystemConfig::fast_test(mechanism, 64, breakhammer);
                config.instructions_per_core = 6_000;
                config.scheduler = kernel;
                config.fault = probabilistic_secded_fault();
                let traces = attack_traces(&config, 2_000, 100);
                let result = System::new(config, &traces, vec![0, 1, 2]).run();
                if mechanism == MechanismKind::None {
                    assert!(
                        result.outcome.flips_raw > 0,
                        "undefended fault-matrix run produced no flips — coverage lost"
                    );
                }
                let label = format!(
                    "fault {mechanism} {} {}",
                    if breakhammer { "bh" } else { "nobh" },
                    kernel_name(kernel)
                );
                digests.push((label, digest_with_outcome(&result)));
            }
            assert_eq!(
                digests[0].1, digests[1].1,
                "kernel digests diverged for fault matrix {mechanism} bh={breakhammer}"
            );
            out.extend(digests);
        }
    }
    out
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/digests.golden.txt")
}

fn fault_golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fault_digests.golden.txt")
}

fn scenario_golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/scenario_digests.golden.txt")
}

/// Compares `digests` to the golden file at `path`, recording instead when
/// `BH_DIGEST_RECORD` is set. Shared by the classic and scenario matrices.
fn check_golden(path: &std::path::Path, digests: &[(String, u64)]) {
    if breakhammer_suite::breakhammer::knobs::raw("BH_DIGEST_RECORD").is_some() {
        let mut contents = String::new();
        for (label, d) in digests {
            contents.push_str(&format!("{label} {d:016x}\n"));
        }
        std::fs::write(path, contents).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(path).unwrap_or_else(|_| {
        panic!("{} missing — run with BH_DIGEST_RECORD=1 to create it", path.display())
    });
    let mut mismatches = Vec::new();
    let mut lines = golden.lines();
    for (label, d) in digests {
        match lines.next() {
            None => mismatches.push(format!("{label}: missing from golden file")),
            Some(line) => {
                let expected = format!("{label} {d:016x}");
                if line != expected {
                    mismatches.push(format!("got `{expected}`, golden has `{line}`"));
                }
            }
        }
    }
    if let Some(extra) = lines.next() {
        mismatches.push(format!("golden file has extra line `{extra}`"));
    }
    assert!(
        mismatches.is_empty(),
        "simulation digests diverged from {} \
         (regenerate with BH_DIGEST_RECORD=1 if the change is intentional):\n{}",
        path.display(),
        mismatches.join("\n")
    );
}

/// Every (pattern × placement) catalog scenario ±BreakHammer must match the
/// committed scenario golden file on both kernels — and the kernels must
/// agree with each other (asserted inside [`run_scenario_matrix`]).
#[test]
fn scenario_digests_match_golden_file() {
    check_golden(&scenario_golden_path(), &run_scenario_matrix());
}

/// The 40-config digest matrix must match the committed golden file exactly.
#[test]
fn simulation_digests_match_golden_file() {
    check_golden(&golden_path(), &run_matrix());
}

/// The probabilistic fault-model matrix must match its committed golden file
/// on both kernels — pinning the flip draws and the SEC-DED classification
/// bit-exactly across sessions.
#[test]
fn fault_digests_match_golden_file() {
    check_golden(&fault_golden_path(), &run_fault_matrix());
}
