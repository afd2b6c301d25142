//! Differential testing of epoch channel stepping.
//!
//! `ChannelStepping::Parallel` advances the per-channel memory controllers
//! independently through epochs (one after another, on the calling thread)
//! and must be *bit-identical* to `ChannelStepping::Serial` — same IPCs,
//! preventive actions, suspect flags, latency histograms, energy, the whole
//! [`SimulationResult`] — with one deliberate exception: the `stepping`
//! counters describe how the run was scheduled, not what it computed, and
//! are normalized to their default before comparison.
//!
//! The suite pits parallel stepping against both serial kernels (per-cycle
//! and event-driven), across channel counts, the full mechanism matrix with
//! BreakHammer on and off, tight BreakHammer windows (epochs must stop at
//! every window edge), a `max_dram_cycles` cutoff landing mid-epoch, and
//! proptest-randomized mixes.

use breakhammer_suite::cpu::Trace;
use breakhammer_suite::mem::SteppingStats;
use breakhammer_suite::mitigation::MechanismKind;
use breakhammer_suite::sim::{
    ChannelStepping, SchedulerKind, SimulationResult, System, SystemConfig, TerminationReason,
};
use proptest::prelude::*;

mod common;
use common::{attack_traces, benign_traces};

/// Runs `config` with the given kernel/stepping pair.
fn run_with(
    mut config: SystemConfig,
    scheduler: SchedulerKind,
    stepping: ChannelStepping,
    traces: &[Trace],
    required: Vec<usize>,
) -> SimulationResult {
    config.scheduler = scheduler;
    config.stepping = stepping;
    System::new(config, traces, required).run()
}

/// Strips the scheduling-diagnostic counters so results compare on the
/// behavioural surface only.
fn normalized(mut result: SimulationResult) -> SimulationResult {
    result.stepping = SteppingStats::default();
    result
}

/// Asserts parallel stepping matches both serial kernels, and that the
/// parallel run actually exercised epochs (otherwise the assertion would be
/// vacuous — serial fallback comparing against itself).
fn assert_parallel_identical(config: SystemConfig, traces: &[Trace], required: Vec<usize>) {
    let label = config.summary();
    let parallel = run_with(
        config.clone(),
        SchedulerKind::EventDriven,
        ChannelStepping::Parallel,
        traces,
        required.clone(),
    );
    let stepping = parallel.stepping;
    assert!(
        stepping.epochs > 0 && stepping.epoch_cycles > 0,
        "no epoch ran for {label} — the differential lost its coverage: {stepping:?}"
    );
    assert_eq!(stepping.parallel_epochs, 0, "epochs run on the calling thread ({label})");
    let serial = run_with(
        config.clone(),
        SchedulerKind::EventDriven,
        ChannelStepping::Serial,
        traces,
        required.clone(),
    );
    assert_eq!(
        normalized(parallel.clone()),
        normalized(serial),
        "parallel vs serial event-driven diverged for {label}"
    );
    let per_cycle =
        run_with(config, SchedulerKind::PerCycle, ChannelStepping::Serial, traces, required);
    assert_eq!(
        normalized(parallel),
        normalized(per_cycle),
        "parallel vs per-cycle diverged for {label}"
    );
}

/// Every mechanism (and the no-defense baseline), with and without
/// BreakHammer, under attack at 2 channels, must be bit-identical across
/// stepping modes.
#[test]
fn all_mechanisms_under_attack_are_identical_across_stepping() {
    for mechanism in MechanismKind::ALL {
        for breakhammer in [false, true] {
            if mechanism == MechanismKind::None && breakhammer {
                continue;
            }
            let mut config = SystemConfig::fast_test(mechanism, 128, breakhammer).with_channels(2);
            config.instructions_per_core = 6_000;
            let traces = attack_traces(&config, 2_000, 100);
            assert_parallel_identical(config, &traces, vec![0, 1, 2]);
        }
    }
}

/// The channels axis: 2 and 4 channels, attack and benign mixes.
#[test]
fn channel_counts_are_identical_across_stepping() {
    for channels in [2usize, 4] {
        let mut config =
            SystemConfig::fast_test(MechanismKind::Graphene, 128, true).with_channels(channels);
        config.instructions_per_core = 6_000;
        let traces = attack_traces(&config, 2_000, 100);
        assert_parallel_identical(config.clone(), &traces, vec![0, 1, 2]);

        let traces = benign_traces(&config, 2_000, 100);
        assert_parallel_identical(config, &traces, vec![0, 1, 2, 3]);
    }
}

/// Single-channel systems take the same epoch path and must stay pinned
/// too — this is the configuration the 40-config golden
/// digests run at.
#[test]
fn single_channel_is_identical_across_stepping() {
    let mut config = SystemConfig::fast_test(MechanismKind::Graphene, 128, true);
    config.instructions_per_core = 6_000;
    let traces = attack_traces(&config, 2_000, 100);
    assert_parallel_identical(config, &traces, vec![0, 1, 2]);
}

/// Tight BreakHammer windows: epochs must end at every window edge so the
/// rotation (and the quota propagation on the following cycle) happens at
/// exactly the serial schedule's cycle.
#[test]
fn tight_breakhammer_windows_are_identical_across_stepping() {
    for (window, seed) in [(300u64, 42u64), (1_000, 6), (2_000, 7)] {
        let mut config =
            SystemConfig::fast_test(MechanismKind::Graphene, 64, true).with_channels(2);
        config.instructions_per_core = 15_000;
        let mut bh = config.effective_breakhammer_config();
        bh.threat_threshold = 4.0;
        bh.window_cycles = window;
        config.breakhammer_config = Some(bh);
        let traces = attack_traces(&config, 2_000, seed);
        let label = format!("window {window} seed {seed}");
        let parallel = run_with(
            config.clone(),
            SchedulerKind::EventDriven,
            ChannelStepping::Parallel,
            &traces,
            vec![0, 1, 2],
        );
        let stats = parallel.breakhammer.as_ref().expect("BreakHammer attached");
        assert!(stats.windows_completed > 0, "{label}: no rotation — coverage lost");
        assert!(parallel.stepping.epochs > 0, "{label}: no epoch ran — coverage lost");
        let serial = run_with(
            config,
            SchedulerKind::EventDriven,
            ChannelStepping::Serial,
            &traces,
            vec![0, 1, 2],
        );
        assert_eq!(normalized(parallel), normalized(serial), "diverged for {label}");
    }
}

/// A `max_dram_cycles` cutoff landing mid-epoch: the epoch horizon is
/// clamped to the cap, the channels advance through `max - 1`, and no step
/// runs at `max` — exactly the serial schedule's cutoff behaviour.
#[test]
fn cutoff_mid_epoch_is_identical_across_stepping() {
    for channels in [2usize, 4] {
        let mut config =
            SystemConfig::fast_test(MechanismKind::Aqua, 64, false).with_channels(channels);
        config.instructions_per_core = 50_000;
        config.max_dram_cycles = 30_000; // far too few to finish
        let traces = attack_traces(&config, 2_000, 7);
        let parallel = run_with(
            config.clone(),
            SchedulerKind::EventDriven,
            ChannelStepping::Parallel,
            &traces,
            vec![0, 1, 2],
        );
        assert_eq!(parallel.dram_cycles, 30_000, "the cap must bind or the test loses coverage");
        assert!(parallel.stepping.epochs > 0, "no epoch ran — coverage lost");
        let serial = run_with(
            config,
            SchedulerKind::EventDriven,
            ChannelStepping::Serial,
            &traces,
            vec![0, 1, 2],
        );
        assert_eq!(
            normalized(parallel),
            normalized(serial),
            "cutoff diverged at {channels} channels"
        );
    }
}

/// Both front-end kernels drive the same epoch machinery.
#[test]
fn front_ends_are_identical_across_stepping() {
    use breakhammer_suite::sim::FrontEndKind;
    for front_end in [FrontEndKind::Legacy, FrontEndKind::Engine] {
        let mut config = SystemConfig::fast_test(MechanismKind::Hydra, 128, true).with_channels(2);
        config.instructions_per_core = 6_000;
        config.front_end = front_end;
        let traces = attack_traces(&config, 2_000, 100);
        assert_parallel_identical(config, &traces, vec![0, 1, 2]);
    }
}

/// The probabilistic fault model draws every bit-flip from a pure hash of
/// `(seed, channel, bank, row, crossing index)`, so its output must be
/// bit-identical across stepping modes and kernels too — and the run must
/// actually produce flips, or the assertion is vacuous.
#[test]
fn probabilistic_fault_model_is_identical_across_stepping() {
    use breakhammer_suite::dram::{EccMode, FaultConfig, FaultModel};
    for nrh in [64u64, 128] {
        let mut config = SystemConfig::fast_test(MechanismKind::None, nrh, false).with_channels(2);
        config.instructions_per_core = 6_000;
        config.fault = FaultConfig {
            model: FaultModel::Probabilistic { flip_probability: 0.7, nrh_variation: 0.2 },
            ecc: EccMode::SecDed,
        };
        let traces = attack_traces(&config, 2_000, 100);
        let parallel = run_with(
            config.clone(),
            SchedulerKind::EventDriven,
            ChannelStepping::Parallel,
            &traces,
            vec![0, 1, 2],
        );
        assert!(
            parallel.outcome.flips_raw > 0,
            "no probabilistic flips at nrh {nrh} — the differential lost its coverage"
        );
        assert_parallel_identical(config, &traces, vec![0, 1, 2]);
    }
}

/// Both front-end kernels agree on the probabilistic fault model's outcome.
#[test]
fn probabilistic_fault_model_is_identical_across_front_ends() {
    use breakhammer_suite::dram::{EccMode, FaultConfig, FaultModel};
    use breakhammer_suite::sim::FrontEndKind;
    let mut config = SystemConfig::fast_test(MechanismKind::None, 64, false).with_channels(2);
    config.instructions_per_core = 6_000;
    config.fault = FaultConfig {
        model: FaultModel::Probabilistic { flip_probability: 0.7, nrh_variation: 0.2 },
        ecc: EccMode::SecDed,
    };
    let traces = attack_traces(&config, 2_000, 100);
    let mut results = Vec::new();
    for front_end in [FrontEndKind::Legacy, FrontEndKind::Engine] {
        let mut cfg = config.clone();
        cfg.front_end = front_end;
        results.push(normalized(run_with(
            cfg,
            SchedulerKind::EventDriven,
            ChannelStepping::Parallel,
            &traces,
            vec![0, 1, 2],
        )));
    }
    assert!(results[0].outcome.flips_raw > 0, "no flips — coverage lost");
    assert_eq!(results[0], results[1], "front ends diverged on the fault model");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Randomized small mixes across the channels axis: stepping modes must
    /// never diverge.
    #[test]
    fn randomized_mixes_are_identical_across_stepping(
        mechanism_idx in 0usize..6,
        channels_idx in 0usize..2,
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
        let channels = [2usize, 4][channels_idx];
        let mut config =
            SystemConfig::fast_test(mechanism, 256, breakhammer).with_channels(channels);
        config.instructions_per_core = instructions;
        config.seed = seed;
        let (traces, required) = if attack {
            (attack_traces(&config, entries, seed), vec![0, 1, 2])
        } else {
            (benign_traces(&config, entries, seed), vec![0, 1, 2, 3])
        };
        let label = config.summary();
        let parallel = run_with(
            config.clone(),
            SchedulerKind::EventDriven,
            ChannelStepping::Parallel,
            &traces,
            required.clone(),
        );
        let serial = run_with(
            config,
            SchedulerKind::EventDriven,
            ChannelStepping::Serial,
            &traces,
            required,
        );
        prop_assert_eq!(
            normalized(parallel),
            normalized(serial),
            "stepping modes diverged for {}",
            label
        );
    }
}

/// Epoch-parallel stepping clamps its barrier epochs at watchdog boundaries;
/// the chaos-injected livelock verdict must match both serial kernels bit
/// for bit, and the parallel run must still have exercised real epochs.
#[test]
fn watchdog_livelock_verdict_is_identical_under_parallel_stepping() {
    let mut config = SystemConfig::fast_test(MechanismKind::Graphene, 128, false);
    config.instructions_per_core = 50_000;
    config.chaos.drop_fills_after = Some(1_000);
    config.watchdog.epoch_cycles = 5_000;
    config.watchdog.stall_epochs = 4;
    let traces = benign_traces(&config, 2_000, 7);
    let parallel = run_with(
        config.clone(),
        SchedulerKind::EventDriven,
        ChannelStepping::Parallel,
        &traces,
        vec![0, 1, 2, 3],
    );
    assert_eq!(parallel.termination, TerminationReason::Livelock);
    assert!(parallel.stepping.epochs > 0, "the dead tail must still run real epochs");
    let serial = run_with(
        config.clone(),
        SchedulerKind::EventDriven,
        ChannelStepping::Serial,
        &traces,
        vec![0, 1, 2, 3],
    );
    assert_eq!(normalized(parallel.clone()), normalized(serial), "parallel vs serial diverged");
    let per_cycle = run_with(
        config,
        SchedulerKind::PerCycle,
        ChannelStepping::Serial,
        &traces,
        vec![0, 1, 2, 3],
    );
    assert_eq!(normalized(parallel), normalized(per_cycle), "parallel vs per-cycle diverged");
}
