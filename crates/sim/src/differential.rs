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
//!
//! The checkpoint tests hold the event-driven kernel against itself: a run
//! paused, cloned and resumed must finish, in both halves, with the
//! uninterrupted run's full result. The paired-run tests do the same for
//! `System::run_pair`: both arms must finish with their solo runs' results.

use crate::system::tests::{attack_traces, attack_traces_composed, benign_traces};
use crate::system::PairStop;
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
/// grinds through it, and the cores' cycle counts must be identical.
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

/// Runs `system()` uninterrupted, then again paused at each of `forks`
/// with a clone set aside there: the paused original and every clone must
/// finish with the uninterrupted run's full result. At least three forks
/// must land inside the run. Returns the result.
fn assert_checkpoints(system: impl Fn() -> System, forks: &[u64], label: &str) -> SimulationResult {
    let want = system().run();
    let inside = forks.iter().filter(|&&fork| fork < want.dram_cycles).count();
    assert!(
        inside >= 3,
        "{label}: {inside} of the forks {forks:?} precede the end, {}",
        want.dram_cycles
    );
    for (i, got) in system().run_forked(forks).into_iter().enumerate() {
        let who =
            if i == 0 { "the paused run".into() } else { format!("the clone at {}", forks[i - 1]) };
        assert_eq!(got, want, "{label}: {who} diverged from the uninterrupted run");
    }
    want
}

/// Checkpoint fork points: mid-window, a watchdog epoch boundary and a
/// BreakHammer window edge of [`checkpoint_config`].
const FORKS: [u64; 3] = [777, 1_250, 2_000];

/// The attack recipe with 1 000-cycle BreakHammer windows that flag the
/// attacker (TH_threat 4) and 1 250-cycle watchdog epochs, so every fork of
/// [`FORKS`] lands inside the run.
fn checkpoint_config(mechanism: MechanismKind, breakhammer: bool) -> SystemConfig {
    let mut config = SystemConfig::fast_test(mechanism, 128, breakhammer);
    config.instructions_per_core = 6_000;
    let mut bh = config.effective_breakhammer_config();
    bh.threat_threshold = 4.0;
    bh.window_cycles = 1_000;
    config.breakhammer_config = Some(bh);
    config.watchdog.epoch_cycles = 1_250;
    config
}

/// A clone of a running [`System`] is a checkpoint, for every mechanism
/// with and without BreakHammer: PARA's RNG, the trackers' tables,
/// BlockHammer's blacklist, the suspect flags and quotas, the queues, the
/// LLC and the core lanes all carry over.
#[test]
fn every_mechanism_resumes_identically_from_a_checkpoint() {
    for mechanism in MechanismKind::ALL {
        for breakhammer in [false, true] {
            if mechanism == MechanismKind::None && breakhammer {
                continue;
            }
            let config = checkpoint_config(mechanism, breakhammer);
            let traces = attack_traces(&config, 2_000, 100);
            let system = || System::new(config.clone(), &traces, vec![0, 1, 2]);
            let result = assert_checkpoints(system, &FORKS, &config.summary());
            if let Some(stats) = &result.breakhammer {
                assert!(stats.windows_completed >= 2, "{}: no window edge", config.summary());
            }
        }
    }
}

/// Checkpoints of a 4-channel system and of the probabilistic SEC-DED fault
/// model, whose flips (drawn and classified) must carry over too.
#[test]
fn multi_channel_and_fault_model_runs_resume_identically_from_a_checkpoint() {
    let mut four_channels = checkpoint_config(MechanismKind::Graphene, true).with_channels(4);
    four_channels.instructions_per_core = 12_000;
    let mut undefended = checkpoint_config(MechanismKind::None, false).with_channels(2);
    undefended.nrh = 64;
    undefended.fault = probabilistic_secded_fault();
    let mut defended = checkpoint_config(MechanismKind::Para, true);
    defended.nrh = 64;
    defended.fault = probabilistic_secded_fault();
    for config in [four_channels, undefended, defended] {
        let traces = attack_traces(&config, 2_000, 100);
        let system = || System::new(config.clone(), &traces, vec![0, 1, 2]);
        let label = format!("{} x{}ch", config.summary(), config.geometry.channels);
        let result = assert_checkpoints(system, &FORKS, &label);
        if config.mechanism == MechanismKind::None {
            assert!(result.outcome.flips_raw > 0, "{label}: no flips to carry over");
        }
    }
}

/// A checkpoint of the chaos-injected livelock, taken in its dead tail, at
/// the epoch boundaries before the verdict and after it (a run that has
/// ended stays ended): the `Livelock` verdict and its report carry over.
#[test]
fn livelocked_run_resumes_identically_from_a_checkpoint() {
    let config = livelock_config(1);
    let traces = benign_traces(&config, 2_000, 7);
    let system = || System::new(config.clone(), &traces, vec![0, 1, 2, 3]);
    let result = assert_checkpoints(system, &[2_500, 10_000, 20_000, 40_000], "livelock");
    assert_eq!(result.termination, TerminationReason::Livelock);
    assert!(result.livelock.is_some(), "livelock verdicts carry a report");
}

/// Runs `config` (BreakHammer attached) as a ±BreakHammer pair and asserts
/// that each arm finishes with its solo run's full result, and that the
/// sibling's ridden-along watchdog is, where the shared prefix stopped, the
/// solo sibling's watchdog at that cycle. Returns why the prefix stopped.
fn assert_pair(config: &SystemConfig, traces: &[Trace], required: &[usize]) -> PairStop {
    let system = |config: &SystemConfig| System::new(config.clone(), traces, required.to_vec());
    let mut without = config.clone();
    without.breakhammer = false;
    let (stop, at, watchdog, (got_without, got_with)) = system(config).run_pair_traced();
    let label = format!("{} x{}ch, {stop:?} at {at}", config.summary(), config.geometry.channels);
    assert_eq!(got_with, system(config).run(), "{label}: the arm with BreakHammer diverged");
    assert_eq!(got_without, system(&without).run(), "{label}: the arm without it diverged");
    assert_eq!(watchdog, system(&without).watchdog_at(at), "{label}: the ridden-along watchdog");
    stop
}

/// A paired run returns exactly the two solo runs' results, whichever way
/// its shared prefix stops: every mechanism on the checkpoint recipe (whose
/// BreakHammer throttles the attacker mid-run), an all-benign mix, four
/// channels, the probabilistic SEC-DED fault model, a chaos livelock the
/// sibling's watchdog catches inside the prefix, and an epoch budget that
/// stops the arm with BreakHammer there.
#[test]
fn a_paired_run_returns_both_solo_results() {
    let mut stops = Vec::new();
    for mechanism in MechanismKind::ALL {
        if mechanism == MechanismKind::None {
            continue;
        }
        let config = checkpoint_config(mechanism, true);
        let traces = attack_traces(&config, 2_000, 100);
        stops.push(assert_pair(&config, &traces, &[0, 1, 2]));
    }
    assert!(stops.contains(&PairStop::Quota), "no attack run diverged: {stops:?}");

    let mut benign = SystemConfig::fast_test(MechanismKind::Graphene, 256, true);
    benign.instructions_per_core = 8_000;
    let traces = benign_traces(&benign, 2_000, 100);
    stops.push(assert_pair(&benign, &traces, &[0, 1, 2, 3]));

    let mut four_channels = checkpoint_config(MechanismKind::Graphene, true).with_channels(4);
    four_channels.instructions_per_core = 12_000;
    let traces = attack_traces(&four_channels, 2_000, 100);
    stops.push(assert_pair(&four_channels, &traces, &[0, 1, 2]));

    let mut faulty = SystemConfig::fast_test(MechanismKind::Para, 64, true);
    faulty.instructions_per_core = 6_000;
    faulty.fault = probabilistic_secded_fault();
    let traces = attack_traces(&faulty, 2_000, 100);
    stops.push(assert_pair(&faulty, &traces, &[0, 1, 2]));

    // Auto-derived epochs: 50 000 cycles without BreakHammer, 500 000 with
    // its 1 M-cycle window, so the sibling's watchdog calls the livelock
    // first.
    let mut livelock = livelock_config(1);
    livelock.breakhammer = true;
    livelock.watchdog.epoch_cycles = 0;
    let mut bh = livelock.effective_breakhammer_config();
    bh.window_cycles = 1_000_000;
    livelock.breakhammer_config = Some(bh);
    let traces = benign_traces(&livelock, 2_000, 7);
    let stop = assert_pair(&livelock, &traces, &[0, 1, 2, 3]);
    assert_eq!(stop, PairStop::SiblingVerdict, "the livelock");
    stops.push(stop);

    // Equal epochs: both watchdogs exceed the budget at cycle 3 000, and the
    // one of the run with BreakHammer is asked first.
    let mut budget = SystemConfig::fast_test(MechanismKind::Graphene, 128, true);
    budget.watchdog.epoch_cycles = 1_000;
    budget.watchdog.max_epochs = 2;
    let traces = benign_traces(&budget, 2_000, 7);
    stops.push(assert_pair(&budget, &traces, &[0, 1, 2, 3]));

    for stop in [PairStop::Quota, PairStop::Verdict, PairStop::SiblingVerdict, PairStop::End] {
        assert!(stops.contains(&stop), "no paired run stopped on {stop:?}: {stops:?}");
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
