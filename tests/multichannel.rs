//! Multi-channel memory-system tests: the per-channel breakdown must sum to
//! the aggregate, and BreakHammer's cross-channel scoring must identify an
//! attacker no matter how it places its traffic over the channels. (That the
//! event-driven kernel stays bit-identical to its per-cycle reference at
//! every channel count is pinned by `bh_sim`'s differential tests.)

use breakhammer_suite::mitigation::MechanismKind;
use breakhammer_suite::sim::{System, SystemConfig};
use breakhammer_suite::workloads::AttackerProfile;

mod common;
use common::attack_traces_with as attack_traces;

/// The aggregate statistics must equal the sum of the per-channel
/// breakdowns, and with more than one channel the traffic must actually be
/// distributed (no silent single-channel fallback).
#[test]
fn per_channel_breakdown_sums_to_the_aggregate() {
    let mut config = SystemConfig::fast_test(MechanismKind::Graphene, 128, false).with_channels(2);
    config.instructions_per_core = 6_000;
    let traces = attack_traces(&config, AttackerProfile::paper_default(), 2_000, 3);
    let result = System::new(config, &traces, vec![0, 1, 2]).run();

    assert_eq!(result.per_channel.len(), 2);
    let acts: Vec<u64> = result.per_channel.iter().map(|c| c.dram.activates).collect();
    assert!(acts.iter().all(|&a| a > 0), "both channels must see activations: {acts:?}");
    assert_eq!(acts.iter().sum::<u64>(), result.dram.activates);
    let reads: Vec<u64> = result.per_channel.iter().map(|c| c.controller.reads_served).collect();
    assert_eq!(reads.iter().sum::<u64>(), result.controller.reads_served);
    let energy: f64 = result.per_channel.iter().map(|c| c.energy_nj).sum();
    assert!((energy - result.energy_nj).abs() < 1e-6);
    assert_eq!(result.per_channel.iter().map(|c| c.bitflips).sum::<usize>(), result.bitflips);
}

/// A channel-pinned attacker concentrates every preventive action on one
/// channel's tracker — and BreakHammer must still identify and throttle it
/// from its system-wide score (the cross-channel observer of §5).
#[test]
fn channel_pinned_attacker_is_caught_by_cross_channel_scoring() {
    let mut config = SystemConfig::fast_test(MechanismKind::Graphene, 128, true).with_channels(2);
    config.instructions_per_core = 10_000;
    let mut bh = config.effective_breakhammer_config();
    bh.threat_threshold = 8.0;
    config.breakhammer_config = Some(bh);
    let attacker = AttackerProfile::paper_default().pinned_to_channel(1);
    let traces = attack_traces(&config, attacker, 3_000, 11);
    let result = System::new(config, &traces, vec![0, 1, 2]).run();

    // The pinned attacker's preventive actions all land on channel 1.
    let actions: Vec<u64> =
        result.per_channel.iter().map(|c| c.controller.preventive_actions_total()).collect();
    assert!(
        actions[1] > 0 && actions[1] > actions[0] * 4,
        "the attacked channel must dominate the preventive actions: {actions:?}"
    );
    assert!(result.ever_suspect[3], "the pinned attacker must be identified");
    assert!(!result.ever_suspect[0] && !result.ever_suspect[1], "benign threads stay clean");
    assert_eq!(result.bitflips, 0);

    let stats = result.breakhammer.expect("BreakHammer attached");
    assert_eq!(
        stats.actions_per_channel.iter().sum::<u64>(),
        stats.actions_observed,
        "per-channel action counts must sum to the total"
    );
}

/// A channel-interleaved attacker keeps every channel's tracker busy; the
/// shared BreakHammer aggregates all of them and still throttles the thread.
#[test]
fn channel_interleaved_attacker_is_caught_by_cross_channel_scoring() {
    let mut config = SystemConfig::fast_test(MechanismKind::Graphene, 128, true).with_channels(2);
    config.instructions_per_core = 10_000;
    let mut bh = config.effective_breakhammer_config();
    bh.threat_threshold = 8.0;
    config.breakhammer_config = Some(bh);
    let attacker = AttackerProfile::paper_default().interleaved_channels();
    let traces = attack_traces(&config, attacker, 3_000, 11);
    let result = System::new(config, &traces, vec![0, 1, 2]).run();

    let actions: Vec<u64> =
        result.per_channel.iter().map(|c| c.controller.preventive_actions_total()).collect();
    assert!(
        actions.iter().all(|&a| a > 0),
        "an interleaved attacker must trigger every channel's tracker: {actions:?}"
    );
    assert!(result.ever_suspect[3], "the interleaved attacker must be identified");
    assert_eq!(result.bitflips, 0);
}

/// BreakHammer must reduce the preventive-action count under a multi-channel
/// attack just as it does on one channel (the paper's headline mechanism,
/// now aggregated across channels).
#[test]
fn breakhammer_still_reduces_actions_on_two_channels() {
    let mut base = SystemConfig::fast_test(MechanismKind::Graphene, 128, false).with_channels(2);
    base.instructions_per_core = 10_000;
    let attacker = AttackerProfile::paper_default().interleaved_channels();
    let traces = attack_traces(&base, attacker, 3_000, 23);
    let without = System::new(base.clone(), &traces, vec![0, 1, 2]).run();
    assert!(without.preventive_actions > 0, "the attacker must trigger Graphene");

    let mut with_bh = base;
    with_bh.breakhammer = true;
    let mut bh = with_bh.effective_breakhammer_config();
    bh.threat_threshold = 8.0;
    with_bh.breakhammer_config = Some(bh);
    let with = System::new(with_bh, &traces, vec![0, 1, 2]).run();
    assert!(
        with.preventive_actions < without.preventive_actions,
        "BreakHammer must reduce preventive actions across channels ({} vs {})",
        with.preventive_actions,
        without.preventive_actions
    );
    assert_eq!(with.bitflips, 0);
}
