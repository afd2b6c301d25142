//! Compares all eight RowHammer mitigation mechanisms of the paper — with and
//! without BreakHammer — under the same attacked workload, reproducing the
//! qualitative ranking of Figs. 6 and 8 at example scale.
//!
//! Run with: `cargo run --release --example mitigation_comparison`

use breakhammer_suite::mem::AddressMapping;
use breakhammer_suite::mitigation::MechanismKind;
use breakhammer_suite::sim::{alone_ipcs, evaluate, SystemConfig};
use breakhammer_suite::stats::Table;
use breakhammer_suite::workloads::{MixBuilder, MixClass, TraceGenerator};

fn main() {
    let nrh = 128;
    let mut base = SystemConfig::fast_test(MechanismKind::None, nrh, false);
    base.geometry = breakhammer_suite::dram::DramGeometry::paper_ddr5();
    base.instructions_per_core = 20_000;

    let generator = TraceGenerator::new(base.geometry.clone(), AddressMapping::paper_default());
    let mut builder = MixBuilder::new(generator);
    builder.benign_entries = 4_000;
    builder.attacker_entries = 4_000;
    let mix = builder.build(MixClass::attack_classes()[0], 0, 11); // HHHA

    let mut table = Table::new([
        "mechanism",
        "WS without BH",
        "WS with BH",
        "BH gain",
        "actions w/o BH",
        "actions w/ BH",
    ]);
    let alone = alone_ipcs(&base, [&mix]);
    for mechanism in MechanismKind::paper_mechanisms() {
        let [without, with] = [false, true].map(|breakhammer| {
            let mut config = base.clone();
            config.mechanism = mechanism;
            config.breakhammer = breakhammer;
            evaluate(&config, &mix, &alone)
        });
        table.push_row([
            mechanism.to_string(),
            format!("{:.3}", without.weighted_speedup),
            format!("{:.3}", with.weighted_speedup),
            format!("{:.2}x", with.weighted_speedup / without.weighted_speedup),
            without.result.preventive_actions.to_string(),
            with.result.preventive_actions.to_string(),
        ]);
    }
    println!("Attacked workload {} at N_RH = {nrh}\n", mix.name);
    println!("{}", table.to_text());
    println!("Mechanisms whose preventive actions are expensive (AQUA's migrations, PARA's");
    println!("frequent refreshes at low N_RH) benefit the most from throttling the attacker.");
}
