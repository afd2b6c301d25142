//! Cross-crate integration tests for the paper's security claims (§5.1):
//! attaching BreakHammer to a mitigation mechanism must not weaken the
//! mechanism's RowHammer protection — under attack, the victim-disturbance
//! model must never record a would-be bitflip for any deterministic
//! mechanism, with or without BreakHammer, under the classic attacker or any
//! catalog scenario.

use breakhammer_suite::mem::AddressMapping;
use breakhammer_suite::mitigation::MechanismKind;
use breakhammer_suite::sim::{SimulationResult, System, SystemConfig};
use breakhammer_suite::workloads::{
    scenario_by_name, scenario_catalog, AttackScenario, AttackerProfile, MixBuilder, MixClass,
    TraceGenerator, WorkloadMix,
};

/// The deterministic controller-visible mechanisms. PARA is probabilistic
/// and REGA's protection happens inside the DRAM chip (not modelled by the
/// victim tracker), so neither is on the list.
const DETERMINISTIC: [MechanismKind; 6] = [
    MechanismKind::Graphene,
    MechanismKind::Hydra,
    MechanismKind::Twice,
    MechanismKind::Aqua,
    MechanismKind::Prac,
    MechanismKind::BlockHammer,
];

/// The HHHA-00 mix at seed 13, attacked by `scenario` or, without one, by a
/// tight double-sided hammer.
fn attacked_traces(config: &SystemConfig, scenario: Option<&AttackScenario>) -> WorkloadMix {
    let generator = TraceGenerator::new(config.geometry.clone(), AddressMapping::paper_default());
    let mut builder = MixBuilder::new(generator)
        // A tight double-sided hammer concentrates every activation on one
        // victim row, which is the stress case for the protection invariant.
        .with_attacker(AttackerProfile { bubbles: 0, ..AttackerProfile::double_sided() });
    if let Some(scenario) = scenario {
        builder = builder.with_scenario(scenario);
    }
    builder.benign_entries = 3_000;
    builder.attacker_entries = 3_000;
    builder.build(MixClass::attack_classes()[0], 0, 13)
}

fn run_attacked(
    mechanism: MechanismKind,
    breakhammer: bool,
    nrh: u64,
    scenario: Option<&AttackScenario>,
) -> SimulationResult {
    let mut config = SystemConfig::fast_test(mechanism, nrh, breakhammer);
    config.instructions_per_core = 8_000;
    let mix = attacked_traces(&config, scenario);
    System::with_compiled(config, &mix.traces, mix.benign_threads()).run()
}

fn run(mechanism: MechanismKind, breakhammer: bool, nrh: u64) -> SimulationResult {
    run_attacked(mechanism, breakhammer, nrh, None)
}

#[test]
fn deterministic_mechanisms_prevent_bitflips_with_and_without_breakhammer() {
    // N_RH = 64 is the threshold of ROADMAP item 1's findings, but this
    // miniature harness (one double-sided attacker, 8 000 instructions, seed
    // 13) does not reproduce them: every mechanism below reads 0 flips there.
    // It pins only that this scale stays clean.
    for nrh in [128, 64] {
        for mechanism in DETERMINISTIC {
            for breakhammer in [false, true] {
                if mechanism == MechanismKind::BlockHammer && breakhammer {
                    // The paper compares against BlockHammer; it does not pair it.
                    continue;
                }
                let result = run(mechanism, breakhammer, nrh);
                assert_eq!(
                    result.bitflips, 0,
                    "{mechanism} (BreakHammer: {breakhammer}) allowed bitflips at N_RH = {nrh}"
                );
            }
        }
    }
}

#[test]
fn deterministic_mechanisms_prevent_bitflips_under_every_scenario() {
    // N_RH = 128 only: at 64, AQUA flips bits under `classic-spr` (ROADMAP
    // item 1's AQUA finding), which is an open finding, not a band to widen.
    for scenario in scenario_catalog() {
        for mechanism in DETERMINISTIC {
            for breakhammer in [false, true] {
                if mechanism == MechanismKind::BlockHammer && breakhammer {
                    continue;
                }
                let result = run_attacked(mechanism, breakhammer, 128, Some(&scenario));
                assert_eq!(
                    result.bitflips, 0,
                    "{mechanism} (BreakHammer: {breakhammer}) allowed bitflips under {}",
                    scenario.name
                );
            }
        }
    }
    // The spread scenario is strong enough to flip bits when nothing
    // protects the victims.
    let spread = scenario_by_name("classic-spr").expect("catalog scenario");
    let unprotected = run_attacked(MechanismKind::None, false, 128, Some(&spread));
    assert!(unprotected.bitflips > 0, "classic-spr must flip bits on an unprotected system");
}

#[test]
fn an_unprotected_system_does_experience_bitflips_under_attack() {
    let result = run(MechanismKind::None, false, 128);
    assert!(
        result.bitflips > 0,
        "the attack must be strong enough to flip bits when no mitigation is present"
    );
}

#[test]
fn breakhammer_reduces_preventive_actions_without_weakening_protection() {
    let without = run(MechanismKind::Graphene, false, 128);
    let with = run(MechanismKind::Graphene, true, 128);
    assert_eq!(with.bitflips, 0);
    assert_eq!(without.bitflips, 0);
    assert!(
        with.preventive_actions <= without.preventive_actions,
        "BreakHammer must not increase preventive actions ({} vs {})",
        with.preventive_actions,
        without.preventive_actions
    );
}

#[test]
fn rowhammer_threshold_scaling_increases_preventive_work() {
    // As N_RH decreases the mitigation must work harder (Fig. 10's trend).
    let relaxed = run(MechanismKind::Graphene, false, 512);
    let strict = run(MechanismKind::Graphene, false, 64);
    assert!(
        strict.preventive_actions > relaxed.preventive_actions,
        "lower N_RH must trigger more preventive actions ({} vs {})",
        strict.preventive_actions,
        relaxed.preventive_actions
    );
}
