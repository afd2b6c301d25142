//! Metamorphic relations: two configurations that must simulate the same
//! run, compared field by field. They need no reference model, only the
//! simulator run twice.
//!
//! 1. **BreakHammer that can never flag is invisible.** With `TH_threat` at
//!    `f64::MAX` no score passes the threat test, so no quota is ever cut,
//!    and BreakHammer influences a system only through the LLC quota. A run
//!    with it attached must equal the run without it in every field but one:
//!    - `breakhammer`, its own statistics, is `None` without it; it is taken
//!      out of the result, and checked to show that actions were scored.
//!
//!    One configuration field is pinned instead of excluded: the watchdog
//!    epoch. Derived automatically, it is `max(50 000, 2 · window / 8)`
//!    cycles with BreakHammer attached and 50 000 without, so the two runs
//!    would sample progress at different cycles. Both runs use a 1 000-cycle
//!    epoch, which puts three boundaries inside each run.
//! 2. **A mechanism that cannot trigger is NoDefense** (ROADMAP item 11's
//!    premise). At N_RH 2³⁰, which no run of this length approaches (under
//!    1 000 activations), a mechanism never acts, so its run equals the
//!    undefended run at the same N_RH, with and without BreakHammer. Every
//!    kind meets it except one, left out rather than compared loosely:
//!    - **PARA** refreshes a neighbour with probability `1 / N_RH` on each
//!      activation, whatever any count says. At N_RH 2³⁰ a draw is unlikely
//!      to fire in a short run, but nothing rules it out, so an equality
//!      would be the seed's luck, not a property.
//!
//!    REGA meets it: its tRAS/tRP inflation, `2048 / N_RH` cycles, rounds to
//!    0 above N_RH 2048, and its per-activation score quota, N_RH / 4, is
//!    never reached.

use breakhammer_suite::breakhammer::BreakHammerConfig;
use breakhammer_suite::mitigation::MechanismKind;
use breakhammer_suite::sim::{SimulationResult, System, SystemConfig};

mod common;
use common::attack_traces;

/// The digest matrix's attack mix: the benign quartet with the paper-default
/// attacker on core 3, 6 000 instructions a core on the `fast_test` system
/// (about 3 600 DRAM cycles).
fn run(mut config: SystemConfig) -> SimulationResult {
    config.instructions_per_core = 6_000;
    let traces = attack_traces(&config, 2_000, 100);
    System::new(config, &traces, vec![0, 1, 2]).run()
}

/// Relation 1, in both attribution modes (REGA scores per activation), at
/// the configured window (none completes) and at a 400-cycle window that
/// rolls over eight to ten times.
#[test]
fn breakhammer_that_can_never_flag_leaves_the_run_unchanged() {
    use MechanismKind::{Graphene, Hydra, Rega, Rfm};
    for mechanism in [Graphene, Hydra, Rfm, Rega] {
        let pinned = |mut config: SystemConfig| {
            config.watchdog.epoch_cycles = 1_000;
            config
        };
        let without = run(pinned(SystemConfig::fast_test(mechanism, 128, false)));
        for window in [None, Some(400)] {
            let mut config = pinned(SystemConfig::fast_test(mechanism, 128, true));
            let effective = config.effective_breakhammer_config();
            config.breakhammer_config = Some(BreakHammerConfig {
                threat_threshold: f64::MAX,
                window_cycles: window.unwrap_or(effective.window_cycles),
                ..effective
            });
            let mut with = run(config);
            let stats = with.breakhammer.take().expect("BreakHammer is attached");
            let case = format!("{mechanism}, window {window:?}: {stats:?}");
            assert_eq!(stats.suspect_identifications, 0, "{case}");
            if mechanism != Rega {
                assert!(stats.actions_observed > 0, "{case}");
            }
            if window.is_some() {
                assert!(stats.windows_completed >= 5, "{case}");
            }
            assert_eq!(with, without, "{case}");
        }
    }
}

/// Relation 2: every kind but PARA, ±BreakHammer.
#[test]
fn a_mechanism_that_cannot_trigger_equals_no_defense() {
    const UNREACHABLE: u64 = 1 << 30;
    for breakhammer in [false, true] {
        let undefended =
            run(SystemConfig::fast_test(MechanismKind::None, UNREACHABLE, breakhammer));
        assert!(undefended.controller.demand_activations > 500);
        for kind in MechanismKind::ALL {
            if matches!(kind, MechanismKind::None | MechanismKind::Para) {
                continue;
            }
            let result = run(SystemConfig::fast_test(kind, UNREACHABLE, breakhammer));
            assert_eq!(result, undefended, "{kind} at N_RH 2^30, BreakHammer {breakhammer}");
        }
    }
}
