//! Experiment runner: evaluates workload mixes and computes the paper's metrics
//! (weighted speedup of benign applications, maximum slowdown, DRAM energy)
//! against the single-core "alone" runs that are their speedup baselines.
//!
//! Both steps are plain functions of their arguments: [`alone_ipcs`] measures
//! the baselines, and [`evaluate`] runs one mix against them. Nothing is kept
//! between calls, so a cell evaluated on any thread, in any order, after any
//! other cell (even one that panicked) is the same cell.

use crate::config::SystemConfig;
use crate::result::SimulationResult;
use crate::system::System;
use bh_cpu::{CompiledTrace, Trace};
use bh_mitigation::MechanismKind;
use bh_stats::AppPerf;
use bh_workloads::WorkloadMix;
use std::collections::BTreeMap;

/// What [`evaluate`] computes for one workload mix under one system
/// configuration.
#[derive(Debug, Clone)]
pub struct MixEvaluation {
    /// Weighted speedup over the benign applications.
    pub weighted_speedup: f64,
    /// Maximum slowdown experienced by any benign application (unfairness).
    pub max_slowdown: f64,
    /// Per-benign-application performance samples.
    pub benign_perfs: Vec<AppPerf>,
    /// The raw simulation result.
    pub result: SimulationResult,
}

/// The alone IPC of `trace`: the IPC it reaches on core 0 of `config`'s
/// system without a mitigation mechanism, without BreakHammer and with the
/// other cores idle. The compiled trace is shared with the run, not copied.
pub fn alone_ipc(config: &SystemConfig, trace: &CompiledTrace) -> f64 {
    let mut alone = config.clone();
    alone.mechanism = MechanismKind::None;
    alone.breakhammer = false;
    // Idle co-runners: a minimal compute-only trace that touches one line.
    let idle = Trace::new(vec![bh_cpu::TraceEntry::load(200, bh_dram::PhysAddr(0))]).compile();
    let mut traces = vec![idle; alone.cores];
    traces[0] = trace.clone();
    let result = System::with_compiled(alone, &traces, vec![0]).run();
    result.cores[0].ipc.max(1e-6)
}

/// The trace each benign application of `mixes` is baselined with: the first
/// one seen for its name, in `mixes` order.
pub fn baseline_traces<'a>(
    mixes: impl IntoIterator<Item = &'a WorkloadMix>,
) -> BTreeMap<&'a str, &'a CompiledTrace> {
    let mut traces = BTreeMap::new();
    for mix in mixes {
        for t in mix.benign_threads() {
            traces.entry(mix.app_names[t].as_str()).or_insert(&mix.traces[t]);
        }
    }
    traces
}

/// The alone-IPC baselines of every benign application of `mixes`, keyed by
/// application name: the [`alone_ipc`] of its [`baseline_traces`] entry.
///
/// One map serves every configuration of a sweep. The baseline is common to
/// all of them, so normalised comparisons between configurations are exact
/// (the baseline cancels) and the number of alone runs does not grow with the
/// number of configurations. Each baseline is a function of `config` and one
/// trace alone, so callers may measure them in parallel.
pub fn alone_ipcs<'a>(
    config: &SystemConfig,
    mixes: impl IntoIterator<Item = &'a WorkloadMix>,
) -> BTreeMap<String, f64> {
    baseline_traces(mixes)
        .into_iter()
        .map(|(name, trace)| (name.to_string(), alone_ipc(config, trace)))
        .collect()
}

/// Runs `mix` on `config` and computes the paper's metrics against the
/// `alone` baselines (see [`alone_ipcs`]).
///
/// # Panics
/// Panics if `mix` does not have `config.cores` threads, or if `alone` has no
/// baseline for one of its benign applications.
pub fn evaluate(
    config: &SystemConfig,
    mix: &WorkloadMix,
    alone: &BTreeMap<String, f64>,
) -> MixEvaluation {
    let ipc_alone = benign_alone_ipcs(config, mix, alone);
    let result = mix_system(config, mix).run();
    mix_evaluation(mix, &ipc_alone, result)
}

/// [`evaluate`] for both arms of a ±BreakHammer pair at once: `config` has
/// BreakHammer attached, and the result is `(without, with)`, where `without`
/// is what [`evaluate`] returns for `config` with `breakhammer` off and
/// `with` what it returns for `config`. The two arms are simulated once up
/// to BreakHammer's first throttle (see [`System::run_pair`]).
///
/// # Panics
/// Panics as [`evaluate`] does, or if `config` does not attach BreakHammer.
pub fn evaluate_pair(
    config: &SystemConfig,
    mix: &WorkloadMix,
    alone: &BTreeMap<String, f64>,
) -> (MixEvaluation, MixEvaluation) {
    assert!(config.breakhammer, "a paired evaluation needs a configuration with BreakHammer");
    let ipc_alone = benign_alone_ipcs(config, mix, alone);
    let (without, with) = mix_system(config, mix).run_pair();
    (mix_evaluation(mix, &ipc_alone, without), mix_evaluation(mix, &ipc_alone, with))
}

/// The alone IPC of each benign thread of `mix`, checked before any run.
fn benign_alone_ipcs(
    config: &SystemConfig,
    mix: &WorkloadMix,
    alone: &BTreeMap<String, f64>,
) -> Vec<f64> {
    assert_eq!(
        mix.cores(),
        config.cores,
        "mix has {} cores but the system is configured for {}",
        mix.cores(),
        config.cores
    );
    mix.benign_threads()
        .iter()
        .map(|&t| {
            let app = &mix.app_names[t];
            *alone.get(app).unwrap_or_else(|| panic!("no alone-IPC baseline for {app}"))
        })
        .collect()
}

/// The system running `mix` on `config`, its benign threads required.
fn mix_system(config: &SystemConfig, mix: &WorkloadMix) -> System {
    // The mix's compiled traces are shared into the run (a refcount bump
    // per core): every configuration of a campaign matrix replays the
    // same compiled records instead of regenerating or deep-copying them.
    System::with_compiled(config.clone(), &mix.traces, mix.benign_threads())
        .watch_victims(mix.victim_rows.iter().map(|v| (v.channel, v.row)))
        .with_success_criterion(mix.success_criterion)
}

/// The paper's metrics of one run of `mix`.
fn mix_evaluation(mix: &WorkloadMix, ipc_alone: &[f64], result: SimulationResult) -> MixEvaluation {
    let benign_perfs: Vec<AppPerf> = mix
        .benign_threads()
        .iter()
        .zip(ipc_alone)
        .map(|(&t, &ipc_alone)| AppPerf::new(ipc_alone, result.cores[t].ipc.max(1e-6)))
        .collect();
    MixEvaluation {
        weighted_speedup: bh_stats::weighted_speedup(&benign_perfs),
        max_slowdown: bh_stats::max_slowdown(&benign_perfs),
        benign_perfs,
        result,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_mem::AddressMapping;
    use bh_workloads::{MixBuilder, MixClass, TraceGenerator};

    /// The runner tests use the real DDR5 geometry (with shortened test
    /// timings) so the benign generators' footprints do not alias onto a
    /// handful of rows of the tiny test geometry.
    fn test_config(mechanism: MechanismKind, nrh: u64, breakhammer: bool) -> SystemConfig {
        let mut cfg = SystemConfig::fast_test(mechanism, nrh, breakhammer);
        cfg.geometry = bh_dram::DramGeometry::paper_ddr5();
        cfg.instructions_per_core = 25_000;
        cfg
    }

    fn test_mix(with_attacker: bool) -> WorkloadMix {
        let cfg = test_config(MechanismKind::None, 1024, false);
        let generator = TraceGenerator::new(cfg.geometry.clone(), AddressMapping::paper_default());
        let mut builder = MixBuilder::new(generator);
        builder.benign_entries = 3_000;
        builder.attacker_entries = 3_000;
        let class = if with_attacker {
            MixClass::attack_classes()[3] // HLLA
        } else {
            MixClass::benign_classes()[3] // HHLL
        };
        builder.build(class, 0, 77)
    }

    #[test]
    fn benign_mix_evaluation_produces_sane_metrics() {
        let config = test_config(MechanismKind::None, 1024, false);
        let mix = test_mix(false);
        let alone = alone_ipcs(&config, [&mix]);
        let eval = evaluate(&config, &mix, &alone);
        assert!(
            eval.weighted_speedup > 0.5 && eval.weighted_speedup <= 4.2,
            "weighted speedup {}",
            eval.weighted_speedup
        );
        assert!(
            eval.max_slowdown >= 1.0 || eval.max_slowdown > 0.8,
            "max slowdown {}",
            eval.max_slowdown
        );
        assert_eq!(eval.benign_perfs.len(), 4);
        assert!(eval.result.energy_nj > 0.0);
        // One baseline per distinct benign application, and measuring the
        // same mix again adds none.
        assert!(!alone.is_empty() && alone.len() <= 4);
        assert_eq!(alone_ipcs(&config, [&mix, &mix]), alone);
        // Evaluation keeps no state: the same call gives the same evaluation.
        let again = evaluate(&config, &mix, &alone);
        assert_eq!(again.result, eval.result);
        assert_eq!(again.weighted_speedup.to_bits(), eval.weighted_speedup.to_bits());
    }

    #[test]
    fn breakhammer_improves_attacked_mix_and_reduces_actions() {
        let without_cfg = test_config(MechanismKind::Graphene, 128, false);
        let mut with_cfg = without_cfg.clone();
        with_cfg.breakhammer = true;

        let mix = test_mix(true);
        // Both runs use the same alone baselines, so normalised comparisons
        // are exact.
        let alone = alone_ipcs(&without_cfg, [&mix]);
        let without = evaluate(&without_cfg, &mix, &alone);
        let with = evaluate(&with_cfg, &mix, &alone);
        assert!(
            with.weighted_speedup > without.weighted_speedup,
            "BreakHammer must improve benign weighted speedup ({:.3} vs {:.3})",
            with.weighted_speedup,
            without.weighted_speedup
        );
        assert!(with.result.preventive_actions < without.result.preventive_actions);
        assert!(with.result.ever_suspect[3]);
        assert_eq!(with.result.bitflips, 0);
        assert_eq!(without.result.bitflips, 0);
        assert_eq!(with.benign_perfs.len(), without.benign_perfs.len());
    }

    #[test]
    #[should_panic(expected = "mix has")]
    fn core_count_mismatch_is_rejected() {
        let mut config = test_config(MechanismKind::None, 1024, false);
        config.cores = 2;
        config.memctrl.num_threads = 2;
        let mix = test_mix(false);
        let _ = evaluate(&config, &mix, &BTreeMap::new());
    }

    #[test]
    #[should_panic(expected = "no alone-IPC baseline for")]
    fn a_missing_baseline_is_rejected_before_the_run() {
        let config = test_config(MechanismKind::None, 1024, false);
        let _ = evaluate(&config, &test_mix(false), &BTreeMap::new());
    }
}
