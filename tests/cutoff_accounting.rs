//! Per-core cycle accounting at the `max_dram_cycles` cutoff.
//!
//! A core that is hard-stalled (instruction window full behind an incomplete
//! miss) is not stepped, and the event-driven kernel skips its dead cycles
//! in bulk; either way each of its cycles must be counted as it passes. A
//! cycle left uncounted would make a core cut off mid-stall under-report its
//! cycles, so per-core cycle totals would no longer sum to the simulated
//! horizon. This test forces a cutoff in the middle of a hard stall and pins
//! the invariant.

use breakhammer_suite::mitigation::MechanismKind;
use breakhammer_suite::sim::{System, SystemConfig, TerminationReason};
use breakhammer_suite::workloads::AttackerProfile;

/// CPU ticks the simulator's clock-domain crossing performs over
/// `dram_cycles` DRAM cycles, counted by a fractional accumulator. The
/// kernel's integer clock ticks exactly as this accumulator at every ratio
/// `SystemConfig::validate` accepts (`the_integer_clock` tests in `bh-sim`),
/// so the comparison is exact.
fn cpu_ticks(dram_cycles: u64, ratio: f64) -> u64 {
    let mut acc = 0.0f64;
    let mut ticks = 0u64;
    for _ in 0..dram_cycles {
        acc += ratio;
        while acc >= 1.0 {
            acc -= 1.0;
            ticks += 1;
        }
    }
    ticks
}

/// The invariant: at the cutoff, every unfinished core's cycle counter must
/// equal the CPU ticks elapsed over the simulated horizon, hard-stalled
/// ticks included.
#[test]
fn cutoff_mid_stall_counts_every_stalled_cycle() {
    // Four copies of the tight uncached hammering loop: every core's window
    // fills up behind outstanding misses almost immediately and stays full,
    // so the `max_dram_cycles` cutoff is guaranteed to land mid-hard-stall.
    let mut config = SystemConfig::fast_test(MechanismKind::Graphene, 128, false);
    config.instructions_per_core = 500_000; // far more than the cutoff allows
    config.max_dram_cycles = 25_000;
    config.cache.mshrs = 4; // tiny MSHR pool: misses back up into hard stalls
    let attacker = AttackerProfile::paper_default();
    let traces: Vec<_> = (0..4)
        .map(|i| attacker.trace(&config.geometry, config.memctrl.mapping, 2_000, 900 + i as u64))
        .collect();
    let ratio = config.cpu_cycles_per_dram_cycle();
    let result = System::new(config, &traces, vec![0, 1, 2, 3]).run();

    assert_eq!(result.dram_cycles, 25_000, "the run must hit the cutoff");
    // The default-on watchdog must see the reads trickling through and leave
    // the cutoff classified as a cutoff, not a livelock.
    assert_eq!(result.termination, TerminationReason::CycleCutoff);
    let expected = cpu_ticks(result.dram_cycles, ratio);
    for core in &result.cores {
        assert!(!core.finished, "the cutoff must land before completion");
        assert_eq!(
            core.cycles, expected,
            "core {:?} cycles must cover the whole horizon, stalled ticks included",
            core.thread
        );
    }
    // The scenario really did cut off inside memory stalls, not idling.
    let stalled: u64 = result.cores.iter().map(|c| c.instructions).sum();
    assert!(stalled < 4 * 500_000, "no core may complete its budget");
    assert!(result.cache.mshr_full_rejections > 0, "misses must have backed up");
}
