//! Golden-digest harness for [`SimulationResult`]s.
//!
//! Runs the canonical 20-configuration matrix (10 mechanisms × ±BreakHammer)
//! on the standard attack workload and folds every field that existed in the
//! result as of the digest capture into a stable FNV-1a fingerprint. The
//! digests are compared against `tests/digests.golden.txt`, which pins the
//! simulator's observable behaviour across refactors: any change to
//! scheduling, mitigation, throttling or accounting shows up as a digest
//! mismatch. The rows are the default event-driven kernel's; its equality
//! with the test-only per-cycle reference kernel is pinned by `bh_sim`'s
//! differential tests.
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
use breakhammer_suite::sim::{SimulationResult, System, SystemConfig};
use breakhammer_suite::workloads::{AttackerProfile, TraceGenerator};

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
/// per-channel BreakHammer counters) are deliberately not digested here.
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

fn config_for(mechanism: MechanismKind, breakhammer: bool) -> SystemConfig {
    let mut config = SystemConfig::fast_test(mechanism, 128, breakhammer);
    config.instructions_per_core = 6_000;
    config
}

/// The golden row label of one configuration.
fn label(prefix: &str, breakhammer: bool) -> String {
    format!("{prefix} {}", if breakhammer { "bh" } else { "nobh" })
}

/// `ControllerStats::periodic_refreshes` and `DramStats::refreshes` count
/// the same REF commands: the controller's refresh stage is their only
/// issuer. Every matrix row pins that, channel by channel and in total, so a
/// canonical result encoding may keep one of the two on a tested fact.
fn assert_refreshes_counted_once(label: &str, result: &SimulationResult) {
    assert!(!result.per_channel.is_empty(), "{label}: no per-channel breakdown");
    for (channel, c) in result.per_channel.iter().enumerate() {
        assert_eq!(c.controller.periodic_refreshes, c.dram.refreshes, "{label}, channel {channel}");
    }
    assert_eq!(result.controller.periodic_refreshes, result.dram.refreshes, "{label}");
}

fn run_matrix() -> Vec<(String, u64)> {
    let mut out = Vec::with_capacity(20);
    for mechanism in MechanismKind::ALL {
        for breakhammer in [false, true] {
            let config = config_for(mechanism, breakhammer);
            let traces = attack_traces(&config, 2_000, 100);
            let result = System::new(config, &traces, vec![0, 1, 2]).run();
            let label = label(&mechanism.to_string(), breakhammer);
            assert_refreshes_counted_once(&label, &result);
            out.push((label, digest(&result)));
        }
    }
    out
}

/// Extends [`digest`] with the per-victim disturbance reports — the field the
/// composable-attacker scenarios add to [`SimulationResult`]. Used only by
/// the scenario goldens, which were captured *with* victim tracking; the
/// classic goldens predate the field and keep the original fold.
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

/// Runs every catalog scenario (pattern × placement) under Graphene ±BH and
/// returns the digest rows for the scenario golden file.
fn run_scenario_matrix() -> Vec<(String, u64)> {
    use breakhammer_suite::workloads::scenario_catalog;
    let mut out = Vec::new();
    for scenario in scenario_catalog() {
        for breakhammer in [false, true] {
            let config = config_for(MechanismKind::Graphene, breakhammer);
            let traces = attack_traces_composed(&config, &scenario.attacker, 2_000, 100);
            let victims = scenario.attacker.victim_rows(&config.geometry);
            let result = System::new(config, &traces, vec![0, 1, 2])
                .watch_victims(victims.iter().map(|v| (v.channel, v.row)))
                .run();
            let label = label(scenario.name, breakhammer);
            assert_refreshes_counted_once(&label, &result);
            out.push((label, digest_with_victims(&result)));
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

/// Runs a mechanism subset ±BreakHammer under the probabilistic fault model
/// with SEC-DED ECC and returns the rows for the fault golden file. The fold
/// includes the raw/corrected/detected/silent flip counters, so this matrix
/// pins the *probabilistic* behaviour bit-exactly across sessions.
fn run_fault_matrix() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for mechanism in [MechanismKind::None, MechanismKind::Para, MechanismKind::Graphene] {
        for breakhammer in [false, true] {
            if mechanism == MechanismKind::None && breakhammer {
                continue;
            }
            let mut config = SystemConfig::fast_test(mechanism, 64, breakhammer);
            config.instructions_per_core = 6_000;
            config.fault = probabilistic_secded_fault();
            let traces = attack_traces(&config, 2_000, 100);
            let result = System::new(config, &traces, vec![0, 1, 2]).run();
            if mechanism == MechanismKind::None {
                assert!(
                    result.outcome.flips_raw > 0,
                    "undefended fault-matrix run produced no flips — coverage lost"
                );
            }
            let label = label(&format!("fault {mechanism}"), breakhammer);
            assert_refreshes_counted_once(&label, &result);
            out.push((label, digest_with_outcome(&result)));
        }
    }
    out
}

/// Runs the benchmark's `HHHA-00` attack mix at seed 42 (`libquantum`,
/// `fotonik3d` and `gemsfdtd` beside the paper-default attacker) on the
/// Table-1 system, 100 k instructions a core, under the mechanisms whose
/// preventive refreshes the controller defers most, ±BreakHammer, and returns
/// the rows for the deferral golden file.
///
/// In these cells the controller holds a preventive precharge behind pending
/// demand row hits for many cycles at a time (PARA at N_RH 64 queues a
/// same-bank refresh on every activation; tens of thousands of deferred ticks
/// a cell), so they pin the bounded deferral's tick-exact bookkeeping, which
/// the `fast_test` matrices above barely reach. Hydra runs at 128: at 64 it
/// lets bits flip under this mix.
fn run_deferral_matrix() -> Vec<(String, u64)> {
    use MechanismKind::{Graphene, Hydra, Para, Rfm, Twice};
    let seed = 42;
    let table1 = SystemConfig::paper_table1(MechanismKind::None, 64, false);
    let generator = TraceGenerator::new(table1.geometry.clone(), table1.memctrl.mapping);
    let mut traces: Vec<_> = ["libquantum", "fotonik3d", "gemsfdtd"]
        .iter()
        .enumerate()
        .map(|(slot, name)| {
            let trace_seed = seed ^ ((slot as u64) << 32);
            generator.benign_named(name, 20_000, trace_seed).unwrap_or_else(|e| panic!("{e}"))
        })
        .collect();
    let attacker = AttackerProfile::paper_default().compose();
    traces.push(attacker.trace(&table1.geometry, table1.memctrl.mapping, 8_000, seed ^ 0xdead));
    let victims = attacker.victim_rows(&table1.geometry);
    let mut out = Vec::new();
    for (mechanism, nrh) in [(Para, 64), (Graphene, 64), (Twice, 64), (Rfm, 64), (Hydra, 128)] {
        for breakhammer in [false, true] {
            let mut config = SystemConfig::paper_table1(mechanism, nrh, breakhammer);
            config.instructions_per_core = 100_000;
            config.max_dram_cycles = 40_000_000;
            config.seed = seed;
            let result = System::new(config, &traces, vec![0, 1, 2])
                .watch_victims(victims.iter().map(|v| (v.channel, v.row)))
                .run();
            assert_eq!(result.bitflips, 0, "{mechanism}@{nrh}: bits flipped");
            let label = label(&format!("{mechanism}@{nrh}"), breakhammer);
            assert_refreshes_counted_once(&label, &result);
            out.push((label, digest_with_outcome(&result)));
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

fn deferral_golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/deferral_digests.golden.txt")
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
/// committed scenario golden file.
#[test]
fn scenario_digests_match_golden_file() {
    check_golden(&scenario_golden_path(), &run_scenario_matrix());
}

/// The 20-config digest matrix must match the committed golden file exactly.
#[test]
fn simulation_digests_match_golden_file() {
    check_golden(&golden_path(), &run_matrix());
}

/// The probabilistic fault-model matrix must match its committed golden file,
/// pinning the flip draws and the SEC-DED classification bit-exactly across
/// sessions.
#[test]
fn fault_digests_match_golden_file() {
    check_golden(&fault_golden_path(), &run_fault_matrix());
}

/// The deferral-heavy Table-1 cells must match their committed golden file.
#[test]
fn deferral_digests_match_golden_file() {
    check_golden(&deferral_golden_path(), &run_deferral_matrix());
}
