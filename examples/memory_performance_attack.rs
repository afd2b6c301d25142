//! Demonstrates the memory performance attack the paper defends against
//! (§8.1): a single malicious thread triggers so many RowHammer-preventive
//! actions that the benign applications lose a large fraction of their
//! performance — and BreakHammer restores it.
//!
//! Run with: `cargo run --release --example memory_performance_attack`

use breakhammer_suite::mem::AddressMapping;
use breakhammer_suite::mitigation::MechanismKind;
use breakhammer_suite::sim::{alone_ipcs, evaluate, SystemConfig};
use breakhammer_suite::workloads::{MixBuilder, MixClass, TraceGenerator};

fn config_for(mechanism: MechanismKind, nrh: u64, breakhammer: bool) -> SystemConfig {
    let mut config = SystemConfig::fast_test(mechanism, nrh, breakhammer);
    config.geometry = breakhammer_suite::dram::DramGeometry::paper_ddr5();
    config.instructions_per_core = 25_000;
    config
}

fn main() {
    let nrh = 128;
    let base = config_for(MechanismKind::None, nrh, false);

    let generator = TraceGenerator::new(base.geometry.clone(), AddressMapping::paper_default());
    let mut builder = MixBuilder::new(generator);
    builder.benign_entries = 5_000;
    builder.attacker_entries = 5_000;
    let mix = builder.build(MixClass::attack_classes()[1], 0, 7); // HHMA

    println!("workload {} with apps {:?}", mix.name, mix.app_names);
    println!("RowHammer threshold N_RH = {nrh}\n");
    println!(
        "{:<28} {:>10} {:>12} {:>12} {:>10}",
        "configuration", "WS(benign)", "max slowdown", "prev.actions", "bitflips"
    );

    let configs = vec![
        ("no mitigation".to_string(), config_for(MechanismKind::None, nrh, false)),
        ("Graphene".to_string(), config_for(MechanismKind::Graphene, nrh, false)),
        ("Graphene+BreakHammer".to_string(), config_for(MechanismKind::Graphene, nrh, true)),
        ("Hydra".to_string(), config_for(MechanismKind::Hydra, nrh, false)),
        ("Hydra+BreakHammer".to_string(), config_for(MechanismKind::Hydra, nrh, true)),
    ];

    let alone = alone_ipcs(&base, [&mix]);
    for (label, config) in configs {
        let eval = evaluate(&config, &mix, &alone);
        println!(
            "{:<28} {:>10.3} {:>12.3} {:>12} {:>10}",
            label,
            eval.weighted_speedup,
            eval.max_slowdown,
            eval.result.preventive_actions,
            eval.result.bitflips
        );
    }

    println!("\nWithout a mitigation the attacker still hurts performance through ordinary");
    println!("bandwidth contention, but with a mitigation enabled its preventive actions");
    println!("multiply the damage; BreakHammer identifies the suspect thread and claws the");
    println!("lost performance back while the mitigation keeps every bitflip count at zero.");
}
