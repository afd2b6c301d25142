//! Shared workload recipe for the cross-checking integration suites.
//!
//! The digest-snapshot, multichannel and watchdog suites all exercise *the
//! same* canonical workload: four benign streaming-dominated cores shrunk
//! onto the test geometry, with the paper-default attacker on core 3.
//! Keeping the recipe in one place guarantees "the same workload" stays the
//! same across the suites — a divergence here would otherwise be hunted in
//! the simulator instead of the test setup. `bh_sim`'s differential tests
//! build the same traces from the test helpers in `crates/sim/src/system.rs`
//! (test-only code of another crate cannot be shared with this directory).

#![allow(dead_code)] // each test binary uses the subset it needs

use breakhammer_suite::cpu::Trace;
use breakhammer_suite::dram::{EccMode, FaultConfig, FaultModel};
use breakhammer_suite::sim::SystemConfig;
use breakhammer_suite::workloads::{
    AttackerProfile, BenignProfile, ComposedAttacker, TraceGenerator,
};

/// The canonical benign quartet: streaming-dominated profiles that rarely
/// trigger preventive actions at moderate N_RH (the paper's premise in
/// §8.1), with footprints shrunk to the test geometry. Traces are generated
/// for the configuration's geometry and address mapping, so multi-channel
/// configs spread them over every channel.
pub fn benign_traces(config: &SystemConfig, entries: usize, seed: u64) -> Vec<Trace> {
    let generator = TraceGenerator::new(config.geometry.clone(), config.memctrl.mapping);
    let profiles = ["libquantum", "fotonik3d", "xalancbmk", "povray"];
    profiles
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let mut p = BenignProfile::resolve(name).unwrap_or_else(|e| panic!("{e}"));
            p.footprint_rows = p.footprint_rows.min(2_000);
            p.hot_rows = p.hot_rows.min(16).max(if p.hot_row_fraction > 0.0 { 1 } else { 0 });
            generator.benign(&p, entries, seed + i as u64)
        })
        .collect()
}

/// The benign quartet with `attacker` replacing core 3.
pub fn attack_traces_with(
    config: &SystemConfig,
    attacker: AttackerProfile,
    entries: usize,
    seed: u64,
) -> Vec<Trace> {
    let mut traces = benign_traces(config, entries, seed);
    traces[3] = attacker.trace(&config.geometry, config.memctrl.mapping, entries, seed + 900);
    traces
}

/// The benign quartet with the paper-default attacker on core 3.
pub fn attack_traces(config: &SystemConfig, entries: usize, seed: u64) -> Vec<Trace> {
    attack_traces_with(config, AttackerProfile::paper_default(), entries, seed)
}

/// The benign quartet with a composable (pattern × placement) attacker
/// replacing core 3 — same seeds as [`attack_traces_with`] so a composed
/// attacker that lowers the classic pattern reproduces `attack_traces`
/// byte for byte.
pub fn attack_traces_composed(
    config: &SystemConfig,
    attacker: &ComposedAttacker,
    entries: usize,
    seed: u64,
) -> Vec<Trace> {
    let mut traces = benign_traces(config, entries, seed);
    traces[3] = attacker.trace(&config.geometry, config.memctrl.mapping, entries, seed + 900);
    traces
}

/// The fault configuration of every probabilistic-model case: flips drawn
/// with probability 0.7 around per-row thresholds varied by ±20 %, classified
/// by SEC-DED.
pub fn probabilistic_secded_fault() -> FaultConfig {
    FaultConfig {
        model: FaultModel::Probabilistic { flip_probability: 0.7, nrh_variation: 0.2 },
        ecc: EccMode::SecDed,
    }
}
