//! Differential tests of the event-driven kernel against its per-cycle
//! reference.
//!
//! [`System::run`] jumps the clock from event to event and replays the
//! skipped cycles' counters in bulk; the test-only `System::run_per_cycle`
//! steps every DRAM cycle. The two must produce *bit-identical*
//! [`SimulationResult`]s — IPCs, cycle counts, preventive actions, suspect
//! flags, latency histograms, energy, victim reports, fault outcomes and
//! watchdog verdicts. Each test runs the same workload under both and asserts
//! full equality, over deterministic matrices (mechanisms, attack scenarios,
//! channel counts, the fault model, BreakHammer window edges, cutoffs,
//! watchdog verdicts) and proptest-randomized mixes.

use crate::system::tests::{attack_traces, attack_traces_composed, benign_traces};
use crate::{SimulationResult, System, SystemConfig, TerminationReason};
use bh_cpu::Trace;
use bh_dram::{EccMode, FaultConfig, FaultModel};
use bh_mem::{AddressMapping, ChannelInterleave};
use bh_mitigation::MechanismKind;
use bh_workloads::{scenario_catalog, AttackerProfile};
use proptest::prelude::*;

/// Runs `config` under both kernels and returns (per_cycle, event_driven).
fn run_both(
    config: SystemConfig,
    traces: &[Trace],
    required: Vec<usize>,
) -> (SimulationResult, SimulationResult) {
    let reference = System::new(config.clone(), traces, required.clone()).run_per_cycle();
    let event_driven = System::new(config, traces, required).run();
    (reference, event_driven)
}

/// Asserts both kernels agree on `config` and returns the common result.
fn assert_identical(
    config: SystemConfig,
    traces: &[Trace],
    required: Vec<usize>,
) -> SimulationResult {
    let label = format!("{} x{}ch", config.summary(), config.geometry.channels);
    let (reference, event_driven) = run_both(config, traces, required);
    assert_eq!(reference, event_driven, "kernels diverged for {label}");
    reference
}

/// Flips drawn with probability 0.7 around per-row thresholds varied by
/// ±20 %, classified by SEC-DED.
fn probabilistic_secded_fault() -> FaultConfig {
    FaultConfig {
        model: FaultModel::Probabilistic { flip_probability: 0.7, nrh_variation: 0.2 },
        ecc: EccMode::SecDed,
    }
}

/// Every mechanism (and the no-defense baseline), with and without
/// BreakHammer, under attack.
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

/// Every composable-attacker catalog scenario (pattern × placement) under
/// Graphene ±BreakHammer, with victim tracking enabled so the per-victim
/// disturbance reports are part of the compared result.
#[test]
fn scenario_catalog_is_identical_across_kernels() {
    for scenario in scenario_catalog() {
        for breakhammer in [false, true] {
            let mut config = SystemConfig::fast_test(MechanismKind::Graphene, 128, breakhammer);
            config.instructions_per_core = 6_000;
            let traces = attack_traces_composed(&config, &scenario.attacker, 2_000, 100);
            let victims = scenario.attacker.victim_rows(&config.geometry);
            let label = format!("scenario {} ({})", scenario.name, config.summary());
            let system = || {
                System::new(config.clone(), &traces, vec![0, 1, 2])
                    .watch_victims(victims.iter().map(|v| (v.channel, v.row)))
            };
            let reference = system().run_per_cycle();
            assert_eq!(reference, system().run(), "kernels diverged for {label}");
            assert_eq!(
                reference.victims.len(),
                victims.len(),
                "victim reports missing for {label}"
            );
        }
    }
}

/// All-benign workloads (the common case of Figs. 13–17).
#[test]
fn benign_mixes_are_identical_across_kernels() {
    for mechanism in [MechanismKind::None, MechanismKind::Graphene, MechanismKind::Para] {
        let mut config = SystemConfig::fast_test(mechanism, 256, mechanism != MechanismKind::None);
        config.instructions_per_core = 8_000;
        let traces = benign_traces(&config, 2_000, 100);
        assert_identical(config, &traces, vec![0, 1, 2, 3]);
    }
}

/// A run that hits the `max_dram_cycles` safety cap stops at the same cycle
/// with the same partial statistics under both kernels.
#[test]
fn max_cycle_cutoff_is_identical_across_kernels() {
    let mut config = SystemConfig::fast_test(MechanismKind::Aqua, 64, false);
    config.instructions_per_core = 50_000;
    config.max_dram_cycles = 40_000; // far too few to finish
    let traces = attack_traces(&config, 2_000, 7);
    let result = assert_identical(config, &traces, vec![0, 1, 2]);
    assert_eq!(result.dram_cycles, 40_000);
}

/// A cutoff that lands while every core is hard-stalled: the event-driven
/// kernel fast-forwards through the stalled tail, the per-cycle kernel
/// grinds through it, and the settled stall debt must be identical.
#[test]
fn cutoff_mid_stall_is_identical_across_kernels() {
    let mut config = SystemConfig::fast_test(MechanismKind::Graphene, 128, false);
    config.instructions_per_core = 500_000;
    config.max_dram_cycles = 25_000;
    config.cache.mshrs = 4;
    let attacker = AttackerProfile::paper_default();
    let traces: Vec<Trace> = (0..4)
        .map(|i| attacker.trace(&config.geometry, config.memctrl.mapping, 2_000, 900 + i))
        .collect();
    let result = assert_identical(config, &traces, vec![0, 1, 2, 3]);
    assert!(result.cores.iter().all(|c| !c.finished), "the cutoff must land mid-run");
}

/// Aggressive BreakHammer throttling (tiny windows, low thresholds): the
/// rotation happens at the edge cycle and the restored quotas reach the LLC
/// on the very next cycle, waking quota-stalled cores.
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
        let result = assert_identical(config, &traces, vec![0, 1, 2]);
        let stats = result.breakhammer.as_ref().expect("BreakHammer attached");
        assert!(stats.windows_completed > 0, "window {window}: no rotation happened");
    }
}

/// The attacker is a required core, so once the benign cores finish the
/// only activity left is a quota-starved thread gated entirely by quota
/// restorations at window rotations. Missing the propagation cycle right
/// after a rotation would wake it a whole window late.
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
        let result = assert_identical(config, &traces, vec![0, 1, 2, 3]);
        let stats = result.breakhammer.as_ref().expect("BreakHammer attached");
        assert!(stats.windows_completed > 0, "window {window}: no rotation happened");
        assert!(stats.quota_restorations > 0, "window {window}: no quota was ever restored");
    }
}

/// The merged next-event horizon (the minimum over per-channel controllers)
/// has the same never-overshoot contract as a single controller's.
#[test]
fn multi_channel_systems_are_identical_across_kernels() {
    for channels in [2usize, 4] {
        let mut config =
            SystemConfig::fast_test(MechanismKind::Graphene, 128, true).with_channels(channels);
        config.instructions_per_core = 6_000;
        let traces = attack_traces(&config, 2_000, 100);
        assert_identical(config, &traces, vec![0, 1, 2]);
    }
}

/// The channel acceptance matrix: channels ∈ {1, 2, 4}, several mechanisms,
/// with and without BreakHammer.
#[test]
fn kernels_are_identical_across_channel_counts() {
    for channels in [1usize, 2, 4] {
        for (mechanism, breakhammer) in [
            (MechanismKind::Graphene, true),
            (MechanismKind::Para, false),
            (MechanismKind::BlockHammer, true),
        ] {
            let mut config =
                SystemConfig::fast_test(mechanism, 128, breakhammer).with_channels(channels);
            config.instructions_per_core = 6_000;
            let traces = attack_traces(&config, 2_000, 100);
            let result = assert_identical(config, &traces, vec![0, 1, 2]);
            assert_eq!(result.per_channel.len(), channels);
        }
    }
}

/// The interleave policy (cache-line, the only one) routes identically
/// across kernels at a channel count that is not a power of two.
#[test]
fn kernels_are_identical_across_interleave_policies() {
    let mut config = SystemConfig::fast_test(MechanismKind::Graphene, 128, true).with_channels(3);
    assert_eq!(config.memctrl.mapping, AddressMapping::paper_default());
    assert_eq!(config.memctrl.mapping.interleave, ChannelInterleave::CacheLine);
    config.instructions_per_core = 5_000;
    let traces = attack_traces(&config, 2_000, 7);
    assert_identical(config, &traces, vec![0, 1, 2]);
}

/// The digest harness's channel axis: its Graphene+BreakHammer and Hydra
/// configurations at 1, 2 and 4 channels agree in the full result, a
/// stronger check than digest equality.
#[test]
fn multichannel_digests_agree_across_kernels() {
    for channels in [1usize, 2, 4] {
        for (mechanism, breakhammer) in
            [(MechanismKind::Graphene, true), (MechanismKind::Hydra, false)]
        {
            let mut config =
                SystemConfig::fast_test(mechanism, 128, breakhammer).with_channels(channels);
            config.instructions_per_core = 6_000;
            let traces = attack_traces(&config, 2_000, 100);
            assert_identical(config, &traces, vec![0, 1, 2]);
        }
    }
}

/// The probabilistic fault model draws every bit-flip from a pure hash of
/// `(seed, channel, bank, row, crossing index)`, so its flips and their
/// SEC-DED classification must match too — and the undefended runs must
/// actually flip bits, or the comparison is vacuous.
#[test]
fn probabilistic_fault_model_is_identical_across_kernels() {
    let mut cases = vec![
        (MechanismKind::None, false, 64u64, 1usize),
        (MechanismKind::None, false, 64, 2),
        (MechanismKind::None, false, 128, 2),
    ];
    for mechanism in [MechanismKind::Para, MechanismKind::Graphene] {
        cases.extend([(mechanism, false, 64, 1), (mechanism, true, 64, 1)]);
    }
    for (mechanism, breakhammer, nrh, channels) in cases {
        let mut config =
            SystemConfig::fast_test(mechanism, nrh, breakhammer).with_channels(channels);
        config.instructions_per_core = 6_000;
        config.fault = probabilistic_secded_fault();
        let traces = attack_traces(&config, 2_000, 100);
        let result = assert_identical(config, &traces, vec![0, 1, 2]);
        if mechanism == MechanismKind::None {
            assert!(result.outcome.flips_raw > 0, "no flips at nrh {nrh} x{channels}ch");
        }
    }
}

/// A chaos-injected livelock (every LLC fill dropped) under a tight
/// watchdog: the event-driven kernel fast-forwards through the dead tail in
/// horizon-clamped jumps, the per-cycle kernel grinds through it, and the
/// `Livelock` verdict, its report and the whole result must still agree.
#[test]
fn watchdog_livelock_verdict_is_identical_across_kernels() {
    let config = livelock_config(1);
    let traces = benign_traces(&config, 2_000, 7);
    let result = assert_identical(config, &traces, vec![0, 1, 2, 3]);
    assert_eq!(result.termination, TerminationReason::Livelock);
    assert!(result.livelock.is_some(), "livelock verdicts carry a report");
}

/// The same livelock verdict and report at every channel count.
#[test]
fn watchdog_livelock_verdict_is_identical_across_channel_counts() {
    for channels in [1usize, 2, 4] {
        let config = livelock_config(channels);
        let traces = benign_traces(&config, 2_000, 7);
        let result = assert_identical(config, &traces, vec![0, 1, 2, 3]);
        assert_eq!(result.termination, TerminationReason::Livelock, "x{channels}ch");
        assert!(result.livelock.is_some(), "x{channels}ch verdict carries a report");
    }
}

/// An epoch budget stops both kernels at the same epoch boundary.
#[test]
fn epoch_budget_verdict_is_identical_across_kernels() {
    let mut config = SystemConfig::fast_test(MechanismKind::Graphene, 128, false);
    config.watchdog.epoch_cycles = 1_000;
    config.watchdog.max_epochs = 2;
    let traces = benign_traces(&config, 2_000, 7);
    let result = assert_identical(config, &traces, vec![0, 1, 2, 3]);
    assert_eq!(result.termination, TerminationReason::BudgetExceeded);
    assert_eq!(result.dram_cycles, 3_000);
}

/// A run whose LLC fills are all dropped after cycle 1 000, watched by a
/// 5 000-cycle epoch that declares livelock after four stalled epochs.
fn livelock_config(channels: usize) -> SystemConfig {
    let mut config =
        SystemConfig::fast_test(MechanismKind::Graphene, 128, false).with_channels(channels);
    config.instructions_per_core = 50_000;
    config.chaos.drop_fills_after = Some(1_000);
    config.watchdog.epoch_cycles = 5_000;
    config.watchdog.stall_epochs = 4;
    config
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
