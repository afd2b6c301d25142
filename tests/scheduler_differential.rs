//! Differential testing of the two simulation kernels.
//!
//! The event-driven kernel (`SchedulerKind::EventDriven`) must be
//! *bit-identical* to the per-cycle reference kernel
//! (`SchedulerKind::PerCycle`): same IPCs, cycle counts, preventive actions,
//! suspect flags, latency histograms, energy — the whole
//! [`SimulationResult`]. This suite runs the same workload under both kernels
//! and asserts full equality, over a deterministic mechanism matrix and over
//! proptest-randomized mixes (benign and attack, several mechanisms,
//! BreakHammer on and off).

use breakhammer_suite::cpu::Trace;
use breakhammer_suite::mitigation::MechanismKind;
use breakhammer_suite::sim::{
    SchedulerKind, SimulationResult, System, SystemConfig, TerminationReason,
};
use proptest::prelude::*;

mod common;
use common::{attack_traces, attack_traces_composed, benign_traces, probabilistic_secded_fault};

/// Runs `config` under both kernels and returns (per_cycle, event_driven).
fn run_both(
    mut config: SystemConfig,
    traces: &[Trace],
    required: Vec<usize>,
) -> (SimulationResult, SimulationResult) {
    config.scheduler = SchedulerKind::PerCycle;
    let reference = System::new(config.clone(), traces, required.clone()).run();
    config.scheduler = SchedulerKind::EventDriven;
    let event_driven = System::new(config, traces, required).run();
    (reference, event_driven)
}

fn assert_identical(config: SystemConfig, traces: &[Trace], required: Vec<usize>) {
    let label = config.summary();
    let (reference, event_driven) = run_both(config, traces, required);
    assert_eq!(reference, event_driven, "kernels diverged for {label}");
}

/// Every mechanism (and the no-defense baseline), with and without
/// BreakHammer, under attack, must be bit-identical across the kernels.
#[test]
fn all_mechanisms_under_attack_are_identical_across_kernels() {
    for mechanism in MechanismKind::ALL {
        for breakhammer in [false, true] {
            if mechanism == MechanismKind::None && breakhammer {
                continue;
            }
            let mut config = SystemConfig::fast_test(mechanism, 128, breakhammer);
            config.instructions_per_core = 6_000;
            let traces = attack_traces(&config, 2_000, 100);
            assert_identical(config, &traces, vec![0, 1, 2]);
        }
    }
}

/// Every composable-attacker catalog scenario (pattern × placement), with
/// victim tracking enabled so the per-victim disturbance reports are part of
/// the compared result, must be bit-identical across the kernels.
#[test]
fn scenario_catalog_is_identical_across_kernels() {
    use breakhammer_suite::workloads::scenario_catalog;
    for scenario in scenario_catalog() {
        for breakhammer in [false, true] {
            let mut config = SystemConfig::fast_test(MechanismKind::Graphene, 128, breakhammer);
            config.instructions_per_core = 6_000;
            let traces = attack_traces_composed(&config, &scenario.attacker, 2_000, 100);
            let victims = scenario.attacker.victim_rows(&config.geometry);
            let label = format!("scenario {} ({})", scenario.name, config.summary());
            let run = |kernel| {
                let mut config = config.clone();
                config.scheduler = kernel;
                System::new(config, &traces, vec![0, 1, 2])
                    .watch_victims(victims.iter().map(|v| (v.channel, v.row)))
                    .run()
            };
            let reference = run(SchedulerKind::PerCycle);
            let event_driven = run(SchedulerKind::EventDriven);
            assert_eq!(reference, event_driven, "kernels diverged for {label}");
            assert_eq!(
                reference.victims.len(),
                victims.len(),
                "victim reports missing for {label}"
            );
        }
    }
}

/// All-benign workloads (the common case of Figs. 13–17) must match too.
#[test]
fn benign_mixes_are_identical_across_kernels() {
    for mechanism in [MechanismKind::None, MechanismKind::Graphene, MechanismKind::Para] {
        let mut config = SystemConfig::fast_test(mechanism, 256, mechanism != MechanismKind::None);
        config.instructions_per_core = 8_000;
        let traces = benign_traces(&config, 2_000, 100);
        assert_identical(config, &traces, vec![0, 1, 2, 3]);
    }
}

/// A run that hits the `max_dram_cycles` safety cap must stop at the same
/// cycle with the same partial statistics under both kernels.
#[test]
fn max_cycle_cutoff_is_identical_across_kernels() {
    let mut config = SystemConfig::fast_test(MechanismKind::Aqua, 64, false);
    config.instructions_per_core = 50_000;
    config.max_dram_cycles = 40_000; // far too few to finish
    let traces = attack_traces(&config, 2_000, 7);
    let (reference, event_driven) = run_both(config, &traces, vec![0, 1, 2]);
    assert_eq!(reference.dram_cycles, 40_000);
    assert_eq!(reference, event_driven);
}

/// Aggressive BreakHammer throttling (tiny windows, low thresholds) exercises
/// the quota-restoration window edges the event-driven kernel must hit
/// exactly: the rotation happens at the edge cycle and the restored quotas
/// reach the LLC on the very next cycle, waking quota-stalled cores.
#[test]
fn tight_breakhammer_windows_are_identical_across_kernels() {
    for (window, seed) in [(300u64, 42u64), (1_000, 6), (2_000, 6), (2_000, 7), (500, 11)] {
        let mut config = SystemConfig::fast_test(MechanismKind::Graphene, 64, true);
        config.instructions_per_core = 30_000;
        let mut bh = config.effective_breakhammer_config();
        bh.threat_threshold = 4.0;
        bh.window_cycles = window;
        config.breakhammer_config = Some(bh);
        let traces = attack_traces(&config, 2_000, seed);
        let (reference, event_driven) = run_both(config, &traces, vec![0, 1, 2]);
        // The scenario must actually cross window edges, or this test would
        // assert equality on runs containing no rotation at all.
        let stats = reference.breakhammer.as_ref().expect("BreakHammer attached");
        assert!(
            stats.windows_completed > 0,
            "window {window}: no rotation happened — the test lost its coverage"
        );
        assert_eq!(reference, event_driven, "kernels diverged for window {window} seed {seed}");
    }
}

/// The hardest window-edge case: the attacker itself is a required core, so
/// once the benign cores finish, the only remaining activity is a
/// quota-starved thread whose progress is gated entirely by quota
/// restorations at window rotations. If the event-driven kernel misses the
/// propagation cycle right after a rotation (or the rotation itself), the
/// attacker wakes a whole window late and the run lengths diverge wildly.
#[test]
fn quota_starved_tail_is_identical_across_kernels() {
    for (window, seed) in [(500u64, 1u64), (1_000, 2), (2_000, 3)] {
        let mut config = SystemConfig::fast_test(MechanismKind::Graphene, 64, true);
        config.instructions_per_core = 6_000;
        config.max_dram_cycles = 400_000;
        let mut bh = config.effective_breakhammer_config();
        bh.threat_threshold = 2.0;
        bh.outlier_threshold = 0.2;
        bh.window_cycles = window;
        config.breakhammer_config = Some(bh);
        let traces = attack_traces(&config, 1_000, seed);
        let (reference, event_driven) = run_both(config, &traces, vec![0, 1, 2, 3]);
        let stats = reference.breakhammer.as_ref().expect("BreakHammer attached");
        assert!(stats.windows_completed > 0, "window {window}: no rotation happened");
        assert!(
            stats.quota_restorations > 0,
            "window {window}: no quota was ever restored — the test lost its coverage"
        );
        assert_eq!(reference, event_driven, "kernels diverged for window {window} seed {seed}");
    }
}

/// Multi-channel systems must not reopen the kernel gap: the merged
/// next-event horizon (minimum over per-channel controllers) has the same
/// never-overshoot contract as a single controller's. The fuller channel
/// matrix (mechanisms × interleave policies) lives in `tests/multichannel.rs`;
/// this case keeps the channels axis visible in the core differential suite.
#[test]
fn multi_channel_systems_are_identical_across_kernels() {
    for channels in [2usize, 4] {
        let mut config =
            SystemConfig::fast_test(MechanismKind::Graphene, 128, true).with_channels(channels);
        config.instructions_per_core = 6_000;
        let traces = attack_traces(&config, 2_000, 100);
        let (reference, event_driven) = run_both(config, &traces, vec![0, 1, 2]);
        assert_eq!(reference, event_driven, "kernels diverged at {channels} channels");
    }
}

/// The probabilistic fault model draws every bit-flip from a pure hash of
/// `(seed, channel, bank, row, crossing index)`, so on two channels its
/// output must be bit-identical across the kernels too — and the run must
/// actually produce flips, or the assertion is vacuous.
#[test]
fn probabilistic_fault_model_is_identical_across_kernels() {
    for nrh in [64u64, 128] {
        let mut config = SystemConfig::fast_test(MechanismKind::None, nrh, false).with_channels(2);
        config.instructions_per_core = 6_000;
        config.fault = probabilistic_secded_fault();
        let traces = attack_traces(&config, 2_000, 100);
        let (reference, event_driven) = run_both(config, &traces, vec![0, 1, 2]);
        assert!(
            reference.outcome.flips_raw > 0,
            "no probabilistic flips at nrh {nrh} — the differential lost its coverage"
        );
        assert_eq!(reference, event_driven, "kernels diverged on the fault model at nrh {nrh}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomized small mixes: mechanism, threshold, BreakHammer, budget,
    /// trace length and seed all vary; the kernels must never diverge.
    #[test]
    fn randomized_mixes_are_identical_across_kernels(
        mechanism_idx in 0usize..6,
        nrh_idx in 0usize..3,
        breakhammer in any::<bool>(),
        attack in any::<bool>(),
        instructions in 1_500u64..5_000,
        entries in 500usize..2_000,
        seed in 0u64..1_000,
    ) {
        let mechanism = [
            MechanismKind::Para,
            MechanismKind::Graphene,
            MechanismKind::Hydra,
            MechanismKind::Rfm,
            MechanismKind::Aqua,
            MechanismKind::BlockHammer,
        ][mechanism_idx];
        let nrh = [64u64, 256, 1024][nrh_idx];
        let mut config = SystemConfig::fast_test(mechanism, nrh, breakhammer);
        config.instructions_per_core = instructions;
        config.seed = seed;
        let (traces, required) = if attack {
            (attack_traces(&config, entries, seed), vec![0, 1, 2])
        } else {
            (benign_traces(&config, entries, seed), vec![0, 1, 2, 3])
        };
        let label = config.summary();
        let (reference, event_driven) = run_both(config, &traces, required);
        prop_assert_eq!(reference, event_driven, "kernels diverged for {}", label);
    }
}

/// A chaos-injected livelock under a tight watchdog: the event-driven kernel
/// fast-forwards through the dead tail in horizon-clamped jumps, the
/// per-cycle kernel grinds through it cycle by cycle — the `Livelock`
/// verdict, the [`LivelockReport`] snapshot and the whole result must still
/// be bit-identical.
#[test]
fn watchdog_livelock_verdict_is_identical_across_kernels() {
    let mut config = SystemConfig::fast_test(MechanismKind::Graphene, 128, false);
    config.instructions_per_core = 50_000;
    config.chaos.drop_fills_after = Some(1_000);
    config.watchdog.epoch_cycles = 5_000;
    config.watchdog.stall_epochs = 4;
    let traces = benign_traces(&config, 2_000, 7);
    let (reference, event_driven) = run_both(config, &traces, vec![0, 1, 2, 3]);
    assert_eq!(reference.termination, TerminationReason::Livelock);
    assert!(reference.livelock.is_some(), "livelock verdicts carry a report");
    assert_eq!(reference, event_driven, "watchdog verdict diverged across kernels");
}
