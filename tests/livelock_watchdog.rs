//! The forward-progress watchdog, end to end: an injected no-progress run is
//! classified [`TerminationReason::Livelock`] — not a hang, not a panic, not
//! an `ok`-looking cutoff — with a [`LivelockReport`] snapshot, and the
//! verdict is bit-identical across both scheduler kernels and both CPU
//! front-ends. Healthy runs keep their historical outcomes (`Completed` /
//! `CycleCutoff`) untouched, and the deterministic budgets cut runs with
//! `BudgetExceeded` at exact epoch boundaries.
//!
//! The injected livelock is `ChaosConfig::drop_fills_after`: from a given
//! DRAM cycle, completed memory responses stop filling the LLC, so every
//! core hard-stalls behind a miss that never returns — deterministic and
//! kernel-invariant by construction.

use breakhammer_suite::mitigation::MechanismKind;
use breakhammer_suite::sim::{
    FrontEndKind, SchedulerKind, System, SystemConfig, TerminationReason,
};

mod common;
use common::{attack_traces, benign_traces};

/// A config whose run livelocks: fills dropped from cycle 1000 on, with a
/// tight watchdog so the verdict lands quickly.
fn livelock_config() -> SystemConfig {
    let mut config = SystemConfig::fast_test(MechanismKind::Graphene, 128, false);
    config.instructions_per_core = 50_000;
    config.chaos.drop_fills_after = Some(1_000);
    config.watchdog.epoch_cycles = 5_000;
    config.watchdog.stall_epochs = 4;
    config
}

#[test]
fn injected_no_progress_run_is_classified_livelock_across_the_whole_matrix() {
    let base = livelock_config();
    let traces = benign_traces(&base, 2_000, 7);
    let mut results = Vec::new();
    for scheduler in [SchedulerKind::PerCycle, SchedulerKind::EventDriven] {
        for front_end in [FrontEndKind::Legacy, FrontEndKind::Engine] {
            let mut config = base.clone();
            config.scheduler = scheduler;
            config.front_end = front_end;
            let label = format!("{scheduler:?}/{front_end:?}");
            let result = System::new(config, &traces, vec![0, 1, 2, 3]).run();
            assert_eq!(
                result.termination,
                TerminationReason::Livelock,
                "{label}: {:?}",
                result.termination
            );
            results.push((label, result));
        }
    }

    // The verdict, the report and the whole result are bit-identical across
    // the kernel × front-end matrix.
    let (reference_label, reference) = &results[0];
    for (label, result) in &results[1..] {
        assert_eq!(result, reference, "{label} diverged from {reference_label}");
    }

    // The report is a faithful snapshot of the stuck machine.
    let report = reference.livelock.as_ref().expect("livelock verdicts carry a report");
    assert_eq!(report.detected_at, reference.dram_cycles, "run stops at the verdict boundary");
    assert_eq!(report.detected_at % 5_000, 0, "verdicts land on epoch boundaries");
    assert_eq!(report.zero_progress_epochs, 4);
    assert!(!report.fixpoint, "the zero-progress detector fires first on a frozen machine");
    assert_eq!(report.cores.len(), 4);
    assert!(
        report.cores.iter().all(|c| !c.finished && c.hard_stalled),
        "every core is hard-stalled behind a dropped fill: {report:?}"
    );
    assert!(report.instructions_retired > 0, "the run made progress before the injection");
    assert!(reference.cores.iter().all(|c| !c.finished));
    let rendered = report.to_string();
    assert!(rendered.contains("livelock at cycle"), "{rendered}");
    assert!(rendered.contains("hard-stalled"), "{rendered}");
}

#[test]
fn healthy_runs_complete_with_no_verdict() {
    let config = SystemConfig::fast_test(MechanismKind::Graphene, 256, true);
    let traces = benign_traces(&config, 3_000, 11);
    let result = System::new(config, &traces, vec![0, 1, 2, 3]).run();
    assert!(result.all_finished(&[0, 1, 2, 3]));
    assert_eq!(result.termination, TerminationReason::Completed);
    assert!(result.livelock.is_none());
}

/// The stall-heavy cutoff scenario of `cutoff_accounting.rs`: the controller
/// keeps serving reads throughout (progress never stops), so the default-on
/// watchdog must not reclassify the cutoff.
#[test]
fn slow_but_progressing_cutoff_stays_cycle_cutoff() {
    let mut config = SystemConfig::fast_test(MechanismKind::Graphene, 128, false);
    config.instructions_per_core = 500_000;
    config.max_dram_cycles = 200_000;
    config.cache.mshrs = 4;
    // Tight watchdog epochs: many boundaries fall inside the run, and every
    // one of them must observe progress.
    config.watchdog.epoch_cycles = 5_000;
    config.watchdog.stall_epochs = 4;
    let traces = attack_traces(&config, 1_200, 23);
    let result = System::new(config, &traces, vec![0, 1, 2, 3]).run();
    assert_eq!(result.termination, TerminationReason::CycleCutoff);
    assert!(result.livelock.is_none());
    assert_eq!(result.dram_cycles, 200_000);
}

#[test]
fn disabled_watchdog_burns_the_injected_livelock_to_the_cutoff() {
    let mut config = livelock_config();
    config.watchdog.enabled = false;
    config.max_dram_cycles = 60_000;
    let traces = benign_traces(&config, 2_000, 7);
    let result = System::new(config, &traces, vec![0, 1, 2, 3]).run();
    // The historical behaviour: the zombie run silently burns to the cutoff.
    assert_eq!(result.termination, TerminationReason::CycleCutoff);
    assert!(result.livelock.is_none());
    assert_eq!(result.dram_cycles, 60_000);
}

#[test]
fn epoch_budget_cuts_the_run_at_an_exact_boundary() {
    let mut config = SystemConfig::fast_test(MechanismKind::Graphene, 128, false);
    config.watchdog.epoch_cycles = 1_000;
    config.watchdog.max_epochs = 2;
    let traces = benign_traces(&config, 2_000, 7);
    for scheduler in [SchedulerKind::PerCycle, SchedulerKind::EventDriven] {
        let mut config = config.clone();
        config.scheduler = scheduler;
        let result = System::new(config, &traces, vec![0, 1, 2, 3]).run();
        assert_eq!(result.termination, TerminationReason::BudgetExceeded, "{scheduler:?}");
        assert!(result.livelock.is_none(), "budget verdicts carry no livelock report");
        // Epochs 1 and 2 pass; the third boundary (cycle 3000) is over
        // budget — on both kernels.
        assert_eq!(result.dram_cycles, 3_000, "{scheduler:?}");
    }
}

#[test]
fn preventive_action_budget_cuts_an_attack_run() {
    let mut config = SystemConfig::fast_test(MechanismKind::Para, 64, false);
    config.watchdog.epoch_cycles = 2_000;
    config.watchdog.max_preventive_actions = 5;
    let traces = attack_traces(&config, 2_000, 23);
    let result = System::new(config.clone(), &traces, vec![0, 1, 2]).run();
    assert_eq!(result.termination, TerminationReason::BudgetExceeded);
    assert!(
        result.preventive_actions > 5,
        "PARA under attack blows a 5-action budget: {}",
        result.preventive_actions
    );
    assert_eq!(result.dram_cycles % 2_000, 0, "budget verdicts land on epoch boundaries");

    // The same run without the budget completes normally.
    config.watchdog.max_preventive_actions = 0;
    let free = System::new(config, &traces, vec![0, 1, 2]).run();
    assert_eq!(free.termination, TerminationReason::Completed);
}

/// The campaign store keys its status taxonomy off these labels; pin them.
#[test]
fn termination_labels_are_stable() {
    assert_eq!(TerminationReason::Completed.label(), "completed");
    assert_eq!(TerminationReason::CycleCutoff.label(), "cutoff");
    assert_eq!(TerminationReason::Livelock.label(), "livelock");
    assert_eq!(TerminationReason::BudgetExceeded.label(), "budget");
    assert_eq!(TerminationReason::default(), TerminationReason::Completed);
}
