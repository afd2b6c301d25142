//! Experiment runner: evaluates workload mixes, computes the paper's metrics
//! (weighted speedup of benign applications, maximum slowdown, DRAM energy)
//! and caches the single-core "alone" runs needed for the speedup baselines.

use crate::config::SystemConfig;
use crate::result::SimulationResult;
use crate::system::System;
use bh_cpu::{CompiledTrace, Trace};
use bh_mitigation::MechanismKind;
use bh_stats::AppPerf;
use bh_workloads::WorkloadMix;
use std::collections::BTreeMap;

/// The evaluation of one workload mix under one system configuration.
#[derive(Debug, Clone)]
pub struct MixEvaluation {
    /// Mix name (e.g. `"HHHA-03"`).
    pub mix_name: String,
    /// The configuration summary used for the run.
    pub config_summary: String,
    /// Weighted speedup over the benign applications.
    pub weighted_speedup: f64,
    /// Maximum slowdown experienced by any benign application (unfairness).
    pub max_slowdown: f64,
    /// Per-benign-application performance samples.
    pub benign_perfs: Vec<AppPerf>,
    /// The raw simulation result.
    pub result: SimulationResult,
}

impl MixEvaluation {
    /// DRAM energy of the run in nanojoules.
    pub fn energy_nj(&self) -> f64 {
        self.result.energy_nj
    }

    /// Preventive actions performed during the run.
    pub fn preventive_actions(&self) -> u64 {
        self.result.preventive_actions
    }
}

/// Evaluates workload mixes under a given system configuration, caching the
/// single-core "alone" IPCs used as weighted-speedup baselines.
///
/// Alone IPCs are measured on an unprotected single-core system (no mitigation
/// mechanism, no BreakHammer, no co-runners). Using one common baseline for
/// every configuration keeps the normalised comparisons between configurations
/// exact (the baseline cancels) while avoiding a quadratic number of runs.
#[derive(Debug)]
pub struct Evaluator {
    config: SystemConfig,
    alone_cache: BTreeMap<String, f64>,
}

impl Evaluator {
    /// Creates an evaluator for the given configuration.
    pub fn new(config: SystemConfig) -> Self {
        Evaluator { config, alone_cache: BTreeMap::new() }
    }

    /// Switches the evaluator to a different configuration, keeping the
    /// alone-IPC cache: alone baselines are measured on the unprotected
    /// system (no mechanism, no BreakHammer), so every configuration of a
    /// sweep shares them — the same invariant that lets campaigns seed many
    /// evaluators from one warmed cache. Lets a sweep worker reuse one
    /// evaluator across cells instead of rebuilding it per cell.
    pub fn set_config(&mut self, config: SystemConfig) {
        self.config = config;
    }

    /// Pre-seeds the alone-IPC cache (useful to share a cache across
    /// evaluators for different mechanisms).
    pub fn with_alone_cache(mut self, cache: BTreeMap<String, f64>) -> Self {
        self.alone_cache = cache;
        self
    }

    /// Returns the current alone-IPC cache.
    pub fn alone_cache(&self) -> &BTreeMap<String, f64> {
        &self.alone_cache
    }

    /// Single-core configuration used for alone runs.
    fn alone_config(&self) -> SystemConfig {
        let mut cfg = self.config.clone();
        cfg.mechanism = MechanismKind::None;
        cfg.breakhammer = false;
        cfg
    }

    /// Pre-computes the alone-IPC baselines for every benign application of
    /// `mix` without running the shared simulation (useful to warm a cache
    /// that is then shared across parallel evaluations).
    pub fn warm_alone_cache(&mut self, mix: &WorkloadMix) {
        for &t in &mix.benign_threads() {
            let _ = self.alone_ipc(&mix.app_names[t], &mix.traces[t]);
        }
    }

    /// IPC of `trace` when running alone on the unprotected system, cached by
    /// application name. The compiled trace is shared with the run, not
    /// copied.
    pub(crate) fn alone_ipc(&mut self, app_name: &str, trace: &CompiledTrace) -> f64 {
        if let Some(ipc) = self.alone_cache.get(app_name) {
            return *ipc;
        }
        let cfg = self.alone_config();
        let cores = cfg.cores;
        // Idle co-runners: a minimal compute-only trace that touches one line.
        let idle = Trace::new(vec![bh_cpu::TraceEntry::load(200, bh_dram::PhysAddr(0))]).compile();
        let mut traces = vec![idle; cores];
        traces[0] = trace.clone();
        let result = System::with_compiled(cfg, &traces, vec![0]).run();
        let ipc = result.cores[0].ipc.max(1e-6);
        self.alone_cache.insert(app_name.to_string(), ipc);
        ipc
    }

    /// Runs `mix` on the configured system and computes the paper's metrics.
    pub fn evaluate(&mut self, mix: &WorkloadMix) -> MixEvaluation {
        assert_eq!(
            mix.cores(),
            self.config.cores,
            "mix has {} cores but the system is configured for {}",
            mix.cores(),
            self.config.cores
        );
        let benign_threads = mix.benign_threads();
        // Alone baselines (cached by application name).
        let mut alone: Vec<f64> = Vec::with_capacity(benign_threads.len());
        for &t in &benign_threads {
            alone.push(self.alone_ipc(&mix.app_names[t], &mix.traces[t]));
        }

        // The mix's compiled traces are shared into the run (a refcount bump
        // per core): every configuration of a campaign matrix replays the
        // same compiled records instead of regenerating or deep-copying them.
        let result =
            System::with_compiled(self.config.clone(), &mix.traces, benign_threads.clone())
                .watch_victims(mix.victim_rows.iter().map(|v| (v.channel, v.row)))
                .with_success_criterion(mix.success_criterion)
                .run();

        let benign_perfs: Vec<AppPerf> = benign_threads
            .iter()
            .zip(alone.iter())
            .map(|(&t, &ipc_alone)| AppPerf::new(ipc_alone, result.cores[t].ipc.max(1e-6)))
            .collect();
        let weighted_speedup = bh_stats::weighted_speedup(&benign_perfs);
        let max_slowdown = bh_stats::max_slowdown(&benign_perfs);
        MixEvaluation {
            mix_name: mix.name.clone(),
            config_summary: self.config.summary(),
            weighted_speedup,
            max_slowdown,
            benign_perfs,
            result,
        }
    }
}

/// Convenience wrapper: evaluates the same mix under a family of
/// configurations, sharing the alone-IPC cache between them. Returns one
/// evaluation per configuration, in order.
pub fn evaluate_under_configs(mix: &WorkloadMix, configs: &[SystemConfig]) -> Vec<MixEvaluation> {
    let mut shared_cache: BTreeMap<String, f64> = BTreeMap::new();
    let mut out = Vec::with_capacity(configs.len());
    for cfg in configs {
        let mut evaluator = Evaluator::new(cfg.clone()).with_alone_cache(shared_cache.clone());
        let eval = evaluator.evaluate(mix);
        shared_cache = evaluator.alone_cache().clone();
        out.push(eval);
    }
    out
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
        let mut evaluator = Evaluator::new(config);
        let eval = evaluator.evaluate(&mix);
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
        assert!(eval.energy_nj() > 0.0);
        // The alone cache is reused across evaluations.
        assert!(!evaluator.alone_cache().is_empty());
        let cached = evaluator.alone_cache().len();
        let _ = evaluator.evaluate(&mix);
        assert_eq!(evaluator.alone_cache().len(), cached);
    }

    #[test]
    fn breakhammer_improves_attacked_mix_and_reduces_actions() {
        let without_cfg = test_config(MechanismKind::Graphene, 128, false);
        let mut with_cfg = without_cfg.clone();
        with_cfg.breakhammer = true;

        let mix = test_mix(true);
        let evals = evaluate_under_configs(&mix, &[without_cfg, with_cfg]);
        let without = &evals[0];
        let with = &evals[1];
        assert!(
            with.weighted_speedup > without.weighted_speedup,
            "BreakHammer must improve benign weighted speedup ({:.3} vs {:.3})",
            with.weighted_speedup,
            without.weighted_speedup
        );
        assert!(with.preventive_actions() < without.preventive_actions());
        assert!(with.result.ever_suspect[3]);
        assert_eq!(with.result.bitflips, 0);
        assert_eq!(without.result.bitflips, 0);
        // Both runs used the same alone baselines, so normalised comparisons
        // are exact.
        assert_eq!(with.benign_perfs.len(), without.benign_perfs.len());
    }

    #[test]
    #[should_panic(expected = "mix has")]
    fn core_count_mismatch_is_rejected() {
        let mut config = test_config(MechanismKind::None, 1024, false);
        config.cores = 2;
        config.memctrl.num_threads = 2;
        let mix = test_mix(false);
        let mut evaluator = Evaluator::new(config);
        let _ = evaluator.evaluate(&mix);
    }
}
