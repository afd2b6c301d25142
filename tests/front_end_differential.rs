//! Differential testing of the two CPU front-ends.
//!
//! The data-oriented engine (`FrontEndKind::Engine`, `bh_cpu::CoreEngine`)
//! must be *bit-identical* to the per-object reference model
//! (`FrontEndKind::Legacy`, one `bh_cpu::Core` per thread): same IPCs, cycle
//! counts, stall accounting, cache statistics, preventive actions, suspect
//! flags, latency histograms, energy — the whole [`SimulationResult`]. This
//! suite runs the same workload under both front-ends — across **both
//! scheduler kernels**, the full mechanism × ±BreakHammer matrix, multiple
//! channel counts, and the `max_dram_cycles` cutoff edge (where hard-stall
//! debt is settled, not replayed by a wake-up) — and asserts full equality.
//!
//! The unit-level counterpart (randomized traces and stall patterns against
//! a scripted LLC) is the differential proptest in `bh_cpu::engine`.

use breakhammer_suite::cpu::Trace;
use breakhammer_suite::mitigation::MechanismKind;
use breakhammer_suite::sim::{
    FrontEndKind, SchedulerKind, SimulationResult, System, SystemConfig, TerminationReason,
};

mod common;
use common::{attack_traces, benign_traces, probabilistic_secded_fault};

/// Runs `config` under both front-ends and returns (legacy, engine).
fn run_both(
    mut config: SystemConfig,
    traces: &[Trace],
    required: Vec<usize>,
) -> (SimulationResult, SimulationResult) {
    config.front_end = FrontEndKind::Legacy;
    let legacy = System::new(config.clone(), traces, required.clone()).run();
    config.front_end = FrontEndKind::Engine;
    let engine = System::new(config, traces, required).run();
    (legacy, engine)
}

fn assert_identical(config: SystemConfig, traces: &[Trace], required: Vec<usize>) {
    let label = format!("{} [{:?}]", config.summary(), config.scheduler);
    let (legacy, engine) = run_both(config, traces, required);
    assert_eq!(legacy, engine, "front-ends diverged for {label}");
}

/// Every mechanism (and the no-defense baseline), with and without
/// BreakHammer, under attack, under **both scheduler kernels**: the SoA
/// engine must be bit-identical to the per-object cores.
#[test]
fn all_mechanisms_under_attack_are_identical_across_front_ends() {
    for mechanism in MechanismKind::ALL {
        for breakhammer in [false, true] {
            if mechanism == MechanismKind::None && breakhammer {
                continue;
            }
            for kernel in [SchedulerKind::PerCycle, SchedulerKind::EventDriven] {
                let mut config = SystemConfig::fast_test(mechanism, 128, breakhammer);
                config.instructions_per_core = 4_000;
                config.scheduler = kernel;
                let traces = attack_traces(&config, 1_500, 100);
                assert_identical(config, &traces, vec![0, 1, 2]);
            }
        }
    }
}

/// All-benign workloads (no attacker, different stall mix: mostly hits and
/// short misses instead of quota starvation).
#[test]
fn benign_workloads_are_identical_across_front_ends() {
    for kernel in [SchedulerKind::PerCycle, SchedulerKind::EventDriven] {
        let mut config = SystemConfig::fast_test(MechanismKind::Graphene, 256, true);
        config.instructions_per_core = 6_000;
        config.scheduler = kernel;
        let traces = benign_traces(&config, 2_000, 7);
        assert_identical(config, &traces, vec![0, 1, 2, 3]);
    }
}

/// The sharded memory system: both front-ends must agree at 1, 2 and 4
/// channels (the 1-channel fast path and the channel-routing path both feed
/// the same LLC/fill plumbing the front-end interacts with).
#[test]
fn multichannel_systems_are_identical_across_front_ends() {
    for channels in [1usize, 2, 4] {
        let mut config = SystemConfig::fast_test(MechanismKind::Graphene, 128, true);
        config.geometry = config.geometry.with_channels(channels);
        config.instructions_per_core = 4_000;
        let traces = attack_traces(&config, 1_500, 100);
        assert_identical(config, &traces, vec![0, 1, 2]);
    }
}

/// The cutoff edge: a run that ends at `max_dram_cycles` with cores still
/// hard-stalled must settle identical stall debt in both front-ends (every
/// unfinished core's cycle count is the exact CPU-tick horizon — the same
/// invariant `tests/cutoff_accounting.rs` pins for the kernels).
#[test]
fn cutoff_with_outstanding_stall_debt_is_identical_across_front_ends() {
    for kernel in [SchedulerKind::PerCycle, SchedulerKind::EventDriven] {
        // AQUA at minimum N_RH under attack is the pathological slow case the
        // cutoff exists for: migrations swamp the channel and cores starve.
        let mut config = SystemConfig::fast_test(MechanismKind::Aqua, 64, false);
        config.instructions_per_core = 50_000;
        config.max_dram_cycles = 40_000; // cut off long before completion
        config.scheduler = kernel;
        let traces = attack_traces(&config, 1_500, 100);
        let (legacy, engine) = run_both(config, &traces, vec![0, 1, 2]);
        assert_eq!(legacy, engine, "front-ends diverged at the cutoff [{kernel:?}]");
        assert!(
            legacy.cores.iter().any(|c| !c.finished),
            "the cutoff case must actually cut off mid-run to exercise debt settling"
        );
    }
}

/// Quota starvation: BreakHammer throttles the attacker to a single MSHR, so
/// the attacker spends most of the run in the memoized reject-spin path —
/// the engine's spin accounting must match the reference exactly.
#[test]
fn quota_starved_attacker_is_identical_across_front_ends() {
    let mut config = SystemConfig::fast_test(MechanismKind::Graphene, 64, true);
    config.instructions_per_core = 5_000;
    let mut bh_cfg = config.effective_breakhammer_config();
    bh_cfg.threat_threshold = 4.0; // identify the attacker almost immediately
    config.breakhammer_config = Some(bh_cfg);
    let traces = attack_traces(&config, 1_500, 100);
    let (legacy, engine) = run_both(config, &traces, vec![0, 1, 2]);
    assert_eq!(legacy, engine, "front-ends diverged under quota starvation");
    assert!(engine.cache.quota_rejections > 0, "the scenario must actually quota-starve");
}

/// Both front-ends agree on the probabilistic fault model's outcome on two
/// channels (SEC-DED classification included), under both kernels.
#[test]
fn probabilistic_fault_model_is_identical_across_front_ends() {
    for kernel in [SchedulerKind::PerCycle, SchedulerKind::EventDriven] {
        let mut config = SystemConfig::fast_test(MechanismKind::None, 64, false).with_channels(2);
        config.instructions_per_core = 6_000;
        config.scheduler = kernel;
        config.fault = probabilistic_secded_fault();
        let traces = attack_traces(&config, 2_000, 100);
        let (legacy, engine) = run_both(config, &traces, vec![0, 1, 2]);
        assert!(legacy.outcome.flips_raw > 0, "no flips — coverage lost [{kernel:?}]");
        assert_eq!(legacy, engine, "front-ends diverged on the fault model [{kernel:?}]");
    }
}

/// The watchdog samples progress through the front-end trait (retired
/// instructions, hard-stall bits); on a chaos-injected livelock both
/// front-ends must produce the identical verdict and report, under both
/// kernels.
#[test]
fn watchdog_livelock_verdict_is_identical_across_front_ends() {
    for kernel in [SchedulerKind::PerCycle, SchedulerKind::EventDriven] {
        let mut config = SystemConfig::fast_test(MechanismKind::Graphene, 128, false);
        config.instructions_per_core = 50_000;
        config.chaos.drop_fills_after = Some(1_000);
        config.watchdog.epoch_cycles = 5_000;
        config.watchdog.stall_epochs = 4;
        config.scheduler = kernel;
        let traces = benign_traces(&config, 2_000, 7);
        let (legacy, engine) = run_both(config, &traces, vec![0, 1, 2, 3]);
        assert_eq!(
            legacy.termination,
            TerminationReason::Livelock,
            "the injected livelock must be classified [{kernel:?}]"
        );
        assert_eq!(legacy, engine, "watchdog verdict diverged across front-ends [{kernel:?}]");
    }
}
