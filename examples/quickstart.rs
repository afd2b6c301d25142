//! Quickstart: build the paper's system at a reduced scale, run a four-core
//! workload with one RowHammer attacker, and show what BreakHammer changes.
//!
//! Run with: `cargo run --release --example quickstart`

use breakhammer_suite::mem::AddressMapping;
use breakhammer_suite::mitigation::MechanismKind;
use breakhammer_suite::sim::{alone_ipcs, evaluate_pair, SystemConfig};
use breakhammer_suite::workloads::{MixBuilder, MixClass, TraceGenerator};

fn main() {
    // A scaled-down version of the paper's Table 1 system so the example runs
    // in seconds: Graphene protecting a DDR5 channel at N_RH = 128 (a
    // threshold the short run can exercise; the `bh_campaign` figures sweep the
    // full 4K..64 range). The real DDR5 geometry is kept so workloads spread over
    // 64K-row banks; only the timings and budgets are shortened.
    let mut base = SystemConfig::fast_test(MechanismKind::Graphene, 128, false);
    base.geometry = breakhammer_suite::dram::DramGeometry::paper_ddr5();
    base.instructions_per_core = 30_000;

    // One "HHHA" workload: three benign applications plus the attacker.
    let generator = TraceGenerator::new(base.geometry.clone(), AddressMapping::paper_default());
    let mut builder = MixBuilder::new(generator);
    builder.benign_entries = 5_000;
    builder.attacker_entries = 5_000;
    let mix = builder.build(MixClass::attack_classes()[0], 0, 42);
    println!("workload {}: {:?} (attacker on core 3)", mix.name, mix.app_names);

    // Evaluate the mix with and without BreakHammer attached to Graphene,
    // both against the same alone-run baselines. The paired evaluation
    // simulates the two once, up to BreakHammer's first throttle.
    let alone = alone_ipcs(&base, [&mix]);
    let mut with_bh = base;
    with_bh.breakhammer = true;
    let (without, with) = evaluate_pair(&with_bh, &mix, &alone);
    for (label, eval) in [("Graphene", without), ("Graphene+BreakHammer", with)] {
        println!("\n== {label} ==");
        println!("  weighted speedup (benign apps): {:.3}", eval.weighted_speedup);
        println!("  max slowdown (benign apps):     {:.3}", eval.max_slowdown);
        println!("  preventive actions performed:   {}", eval.result.preventive_actions);
        println!("  DRAM energy:                    {:.1} uJ", eval.result.energy_nj / 1000.0);
        println!("  would-be RowHammer bitflips:    {}", eval.result.bitflips);
        if let Some(attacker) = mix.attacker_thread {
            println!("  attacker identified as suspect: {}", eval.result.ever_suspect[attacker]);
        }
    }
    println!("\nBreakHammer throttles the thread that keeps triggering Graphene's preventive");
    println!("refreshes, which restores the benign applications' performance without weakening");
    println!("the RowHammer protection (the bitflip count stays at zero in both runs).");
}
