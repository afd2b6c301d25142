//! Shared experiment machinery behind every figure, table and sweep.
//!
//! A [`Campaign`] holds the workload mixes plus their alone-IPC baselines and
//! evaluates configurations against them on a worker pool
//! ([`evaluate_jobs`]); each evaluated (configuration, mix) pair — a cell —
//! comes back as a flat [`RunRecord`], which the aggregation helpers at the
//! end of the module select from and reduce. The experiment scale lives in
//! [`crate::scale`].

use crate::scale::Scale;
use bh_mitigation::MechanismKind;
use bh_sim::{
    alone_ipc, baseline_traces, evaluate, evaluate_pair, MixEvaluation, SystemConfig,
    TerminationReason,
};
use bh_stats::Table;
use bh_workloads::{scenario_by_name, MixBuilder, MixClass, TraceGenerator, WorkloadMix};
use std::collections::BTreeMap;

/// One evaluated (configuration, mix) pair, flattened for aggregation.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Mitigation mechanism.
    pub mechanism: MechanismKind,
    /// RowHammer threshold.
    pub nrh: u64,
    /// Whether BreakHammer was attached.
    pub breakhammer: bool,
    /// Mix class label (e.g. `"HHHA"`).
    pub mix_class: String,
    /// Mix instance name.
    pub mix_name: String,
    /// Weighted speedup over the benign applications.
    pub weighted_speedup: f64,
    /// Maximum slowdown of a benign application.
    pub max_slowdown: f64,
    /// DRAM energy in nanojoules.
    pub energy_nj: f64,
    /// RowHammer-preventive actions performed.
    pub preventive_actions: u64,
    /// Benign-application memory-latency percentiles in nanoseconds
    /// (p50, p90, p99).
    pub latency_ns: [f64; 3],
    /// True if the attacker thread was identified as a suspect.
    pub attacker_identified: bool,
    /// True if any benign thread was identified as a suspect.
    pub benign_misidentified: bool,
    /// Would-be RowHammer bitflips (must be 0 for deterministic mechanisms).
    pub bitflips: usize,
    /// Attack-scenario tag of the mix (`None` for the classic attacker and
    /// for benign mixes).
    pub scenario: Option<String>,
    /// Largest end-of-run disturbance of any watched victim row (0 when the
    /// mix declared no victims).
    pub max_victim_disturbance: u64,
    /// Raw bit-flips before ECC (the fault model's output; 0 under the
    /// default hard-threshold model whenever `bitflips` is 0).
    pub flips_raw: u64,
    /// Flips corrected by ECC.
    pub flips_corrected: u64,
    /// Flips detected but not corrected (machine-check events).
    pub flips_detected: u64,
    /// Flips that escaped ECC silently.
    pub flips_silent: u64,
    /// Whether the run satisfied the mix's attack-success criterion.
    pub attack_success: bool,
    /// How the run ended: completed, cut off, livelocked, or out of budget.
    pub termination: TerminationReason,
    /// Rendered livelock diagnostic snapshot (`None` unless `termination`
    /// is [`TerminationReason::Livelock`]).
    pub livelock: Option<String>,
}

impl RunRecord {
    fn from_eval(config: &SystemConfig, mix: &WorkloadMix, eval: &MixEvaluation) -> Self {
        let benign = mix.benign_threads();
        let hist = eval.result.merged_latency(&benign);
        let to_ns = |cycles: u64| config.timing.cycles_to_ns(cycles);
        let attacker_identified =
            mix.attacker_thread.map(|t| eval.result.ever_suspect[t]).unwrap_or(false);
        let benign_misidentified = benign.iter().any(|t| eval.result.ever_suspect[*t]);
        RunRecord {
            mechanism: config.mechanism,
            nrh: config.nrh,
            breakhammer: config.breakhammer,
            mix_class: mix.class.label(),
            mix_name: mix.name.clone(),
            weighted_speedup: eval.weighted_speedup,
            max_slowdown: eval.max_slowdown,
            energy_nj: eval.result.energy_nj,
            preventive_actions: eval.result.preventive_actions,
            latency_ns: [
                to_ns(hist.percentile(50.0)),
                to_ns(hist.percentile(90.0)),
                to_ns(hist.percentile(99.0)),
            ],
            attacker_identified,
            benign_misidentified,
            bitflips: eval.result.bitflips,
            scenario: mix.scenario.clone(),
            max_victim_disturbance: eval.result.max_victim_disturbance(),
            flips_raw: eval.result.outcome.flips_raw,
            flips_corrected: eval.result.outcome.corrected,
            flips_detected: eval.result.outcome.detected,
            flips_silent: eval.result.outcome.silent,
            attack_success: eval.result.outcome.attack_success,
            termination: eval.result.termination,
            livelock: eval.result.livelock.as_ref().map(|report| report.to_string()),
        }
    }
}

/// Short configuration label used in tables, e.g. `"Graphene+BH"`.
pub fn config_label(mechanism: MechanismKind, breakhammer: bool) -> String {
    if breakhammer {
        format!("{mechanism}+BH")
    } else {
        mechanism.to_string()
    }
}

/// Builds the paper's Table 1 system configuration at the given experiment
/// scale.
pub fn paper_config(
    mechanism: MechanismKind,
    nrh: u64,
    breakhammer: bool,
    scale: &Scale,
) -> SystemConfig {
    let mut config =
        SystemConfig::paper_table1(mechanism, nrh, breakhammer).with_channels(scale.channels);
    config.instructions_per_core = scale.instructions_per_core;
    config.seed = scale.seed;
    config.fault = scale.fault;
    config.watchdog = scale.watchdog;
    // Bound the worst case (e.g. AQUA at N_RH=64 under attack, without
    // BreakHammer): runs that exceed ~400 DRAM cycles per target instruction
    // are cut off; IPCs measured up to the cut-off remain valid samples.
    config.max_dram_cycles =
        scale.instructions_per_core.saturating_mul(400).clamp(5_000_000, bh_sim::MAX_DRAM_CYCLES);
    config
}

/// The (mechanism × N_RH × ±BreakHammer) configuration matrix at `scale`,
/// mechanism-major. [`MechanismKind::None`] never gets the BreakHammer arm:
/// BreakHammer needs a mechanism to observe.
pub fn config_matrix(
    mechanisms: &[MechanismKind],
    nrh_values: &[u64],
    breakhammer_options: &[bool],
    scale: &Scale,
) -> Vec<SystemConfig> {
    let mut configs = Vec::new();
    for &mechanism in mechanisms {
        for &nrh in nrh_values {
            for &bh in breakhammer_options {
                if mechanism != MechanismKind::None || !bh {
                    configs.push(paper_config(mechanism, nrh, bh, scale));
                }
            }
        }
    }
    configs
}

/// A campaign holds the generated workload mixes and their alone-IPC
/// baselines, and evaluates configurations against them (in parallel).
///
/// Everything it runs goes on the worker pool of [`Scale::worker_threads`]:
/// the suites' distinct traces when it is built, the alone baselines before
/// its first sweep, and every sweep's cells.
#[derive(Debug)]
pub struct Campaign {
    scale: Scale,
    attack_mixes: Vec<WorkloadMix>,
    benign_mixes: Vec<WorkloadMix>,
    /// Mixes carrying the composable-attacker scenarios of
    /// [`Scale::scenarios`] (appended to `attack_mixes` in attack sweeps).
    scenario_mixes: Vec<WorkloadMix>,
    /// [`alone_ipcs`](bh_sim::alone_ipcs) over every suite, measured on
    /// first use.
    alone: BTreeMap<String, f64>,
}

/// The mix builder of a campaign at `scale`.
fn mix_builder(scale: &Scale) -> MixBuilder {
    let generator = TraceGenerator::new(
        bh_dram::DramGeometry::paper_ddr5().with_channels(scale.channels),
        bh_mem::AddressMapping::paper_default(),
    );
    let mut builder = MixBuilder::new(generator);
    builder.benign_entries = scale.benign_entries;
    builder.attacker_entries = scale.attacker_entries;
    builder
}

impl Campaign {
    /// Generates the attack, benign and scenario mix suites for `scale`.
    ///
    /// Each suite is one [`SuitePlan`](bh_workloads::SuitePlan), so each of
    /// its distinct traces is generated once, on the worker pool; the mixes
    /// do not depend on the worker count.
    ///
    /// # Panics
    /// Panics (listing the catalog) if `scale.scenarios` names an unknown
    /// attack scenario.
    pub fn new(scale: Scale) -> Self {
        let builder = mix_builder(&scale);
        let (per_class, workers) = (scale.mixes_per_class, scale.worker_threads);
        // One plan over both class lists, so attack and benign mixes share
        // the traces they have in common.
        let attack_classes = MixClass::attack_classes();
        let mut plan = builder.plan(scale.seed);
        for class in attack_classes.iter().chain(&MixClass::benign_classes()) {
            for index in 0..per_class {
                plan.add(*class, index);
            }
        }
        let mut attack_mixes = plan.build_with(|n, generate| on_pool(n, workers, generate));
        let benign_mixes = attack_mixes.split_off(attack_classes.len() * per_class);
        // Scenario sweeps hold the benign company fixed (the HHHA class) so
        // differences between scenarios isolate the attacker's shape.
        let mut scenario_mixes = Vec::new();
        for name in &scale.scenarios {
            let scenario = scenario_by_name(name).unwrap_or_else(|e| panic!("{e}"));
            let scenario_builder = builder.clone().with_scenario(&scenario);
            let mut plan = scenario_builder.plan(scale.seed);
            for index in 0..per_class {
                plan.add(attack_classes[0], index);
            }
            scenario_mixes.extend(plan.build_with(|n, generate| on_pool(n, workers, generate)));
        }
        Campaign { scale, attack_mixes, benign_mixes, scenario_mixes, alone: BTreeMap::new() }
    }

    /// The experiment scale in use.
    pub fn scale(&self) -> &Scale {
        &self.scale
    }

    /// The mixes an attack (or benign) sweep evaluates: attack sweeps cover
    /// the classic attack suite plus every requested scenario suite. Cloning
    /// a mix bumps trace reference counts, it does not copy records.
    pub fn sweep_mixes(&self, attack: bool) -> Vec<WorkloadMix> {
        if attack {
            self.attack_mixes.iter().chain(self.scenario_mixes.iter()).cloned().collect()
        } else {
            self.benign_mixes.to_vec()
        }
    }

    /// Measures (once) and returns the alone-IPC baselines of every benign
    /// application of every mix suite. Alone baselines are measured on the
    /// unprotected system, so one map serves every configuration of a sweep.
    ///
    /// The map is [`alone_ipcs`](bh_sim::alone_ipcs) over every suite, with
    /// each baseline measured as one job on the worker pool.
    pub fn warmed_alone_cache(&mut self) -> &BTreeMap<String, f64> {
        if self.alone.is_empty() {
            let config = paper_config(MechanismKind::None, 4096, false, &self.scale);
            let suites = self.attack_mixes.iter().chain(&self.benign_mixes);
            let traces: Vec<_> =
                baseline_traces(suites.chain(&self.scenario_mixes)).into_iter().collect();
            let ipcs = on_pool(traces.len(), self.scale.worker_threads, |i| {
                alone_ipc(&config, traces[i].1)
            });
            self.alone = traces.iter().map(|(name, _)| name.to_string()).zip(ipcs).collect();
        }
        &self.alone
    }

    /// Evaluates one configuration against the attack or benign mix suite,
    /// running mixes in parallel, and returns one record per mix.
    pub fn run(&mut self, config: &SystemConfig, attack: bool) -> Vec<RunRecord> {
        self.run_configs(std::slice::from_ref(config), attack)
    }

    /// Runs a full (mechanism × N_RH × ±BreakHammer) matrix over the chosen
    /// mix suite, parallelizing over the *flattened* (configuration × mix)
    /// grid so short sweeps (few mixes per class) still keep every worker
    /// busy instead of serializing on one configuration at a time.
    pub fn run_matrix(
        &mut self,
        mechanisms: &[MechanismKind],
        nrh_values: &[u64],
        breakhammer_options: &[bool],
        attack: bool,
    ) -> Vec<RunRecord> {
        let configs = config_matrix(mechanisms, nrh_values, breakhammer_options, &self.scale);
        self.run_configs(&configs, attack)
    }

    /// Evaluates every (configuration, mix) pair of `configs` × the chosen
    /// suite with a shared worker pool, returning records grouped by
    /// configuration (in `configs` order) and, within each configuration, in
    /// mix order — the same order the former config-serial loop produced.
    fn run_configs(&mut self, configs: &[SystemConfig], attack: bool) -> Vec<RunRecord> {
        self.warmed_alone_cache();
        let mixes = self.sweep_mixes(attack);
        let jobs: Vec<(usize, usize)> =
            (0..configs.len()).flat_map(|c| (0..mixes.len()).map(move |m| (c, m))).collect();
        let results = evaluate_jobs(
            configs,
            &mixes,
            &jobs,
            &self.alone,
            self.scale.worker_threads,
            &EvalHooks::none(),
        );
        // Figure binaries want every cell: a panicking cell no longer kills
        // the other workers mid-sweep, but an incomplete matrix must still
        // fail loudly once everything else has finished.
        let mut records = Vec::with_capacity(results.len());
        let mut failed = Vec::new();
        for (i, result) in results.into_iter().enumerate() {
            let (c, m) = jobs[i];
            match result {
                Ok(record) => records.push(record),
                Err(error) => {
                    failed.push(format!("[{} × {}] {error}", configs[c].summary(), mixes[m].name))
                }
            }
        }
        assert!(
            failed.is_empty(),
            "{} campaign cell(s) panicked:\n{}",
            failed.len(),
            failed.join("\n")
        );
        records
    }
}

/// Fault-injection and observation hooks threaded through [`evaluate_jobs`].
///
/// The two `force_*` patterns are the test hooks behind the campaign CLI's
/// `BH_TEST_FORCE_PANIC_MIX` / `BH_TEST_FORCE_SPIN_MIX` environment knobs;
/// the two callbacks fire on the worker threads (claiming a job, finishing a
/// cell) and are how the campaign engine streams checkpoints. Both fire once
/// per job, claim before record, also for the two jobs of a ±BreakHammer
/// pair unit (see [`evaluate_jobs`]). Plain sweeps use [`EvalHooks::none`].
pub struct EvalHooks<'a> {
    /// Cells whose mix name contains this pattern panic before evaluating,
    /// exercising the sweep's panic-isolation path end to end.
    pub force_panic_mix: Option<&'a str>,
    /// Cells whose mix name contains this pattern evaluate under an injected
    /// livelock (`ChaosConfig::drop_fills_after` plus a tight watchdog), so
    /// the run ends with a deterministic `Livelock` verdict. Only the
    /// evaluated configuration is mutated — cell identity stays that of the
    /// base configuration.
    pub force_spin_mix: Option<&'a str>,
    /// Fires on the worker thread when it claims job `i`, before evaluation.
    /// The arm with BreakHammer of a pair is claimed once the arm without
    /// it is recorded, after the two were evaluated together.
    pub on_claim: &'a (dyn Fn(usize) + Sync),
    /// Fires on the worker thread as soon as cell `i` completes or panics
    /// (for a pair: as soon as both arms complete, the arm without
    /// BreakHammer first).
    pub on_record: &'a (dyn Fn(usize, Result<&RunRecord, &str>) + Sync),
}

impl EvalHooks<'_> {
    /// No fault injection, no observers — the plain-sweep default.
    pub fn none() -> EvalHooks<'static> {
        EvalHooks {
            force_panic_mix: None,
            force_spin_mix: None,
            on_claim: &|_| {},
            on_record: &|_, _| {},
        }
    }
}

impl std::fmt::Debug for EvalHooks<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalHooks")
            .field("force_panic_mix", &self.force_panic_mix)
            .field("force_spin_mix", &self.force_spin_mix)
            .finish_non_exhaustive()
    }
}

/// `job(0)`, …, `job(n - 1)` on a pool of up to `workers` scoped threads
/// that claim indices from one shared counter, returned in index order.
///
/// Every job the campaign runs — a trace, an alone baseline, a cell — is a
/// pure function of its index, so which thread runs it, and what that thread
/// ran before, cannot change the result. Each thread keeps its results in a
/// local vector tagged with the index, stitched together after the scope
/// joins: there is no shared result lock. A panicking job panics the caller
/// with the job's own payload once the other threads have finished.
fn on_pool<R: Send>(n: usize, workers: usize, job: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let next = std::sync::atomic::AtomicUsize::new(0);
    let worker = || {
        let mut local = Vec::new();
        loop {
            // Relaxed: the counter publishes no data, only distinct indices;
            // results reach the caller through the joins.
            let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if i >= n {
                return local;
            }
            local.push((i, job(i)));
        }
    };
    let outputs: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> =
            (0..workers.clamp(1, n.max(1))).map(|_| scope.spawn(worker)).collect();
        let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        joined.into_iter().map(|h| h.unwrap_or_else(|p| std::panic::resume_unwind(p))).collect()
    });
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, result) in outputs.into_iter().flatten() {
        slots[i] = Some(result);
    }
    slots.into_iter().map(|slot| slot.expect("every job ran")).collect()
}

/// Evaluates a set of `(config index, mix index)` jobs on a pool of
/// `workers` threads and returns one [`RunRecord`] per job, in `jobs` order.
///
/// A cell is a pure function of its configuration, its mix and the `alone`
/// baselines (`evaluate_cell`), so workers share nothing but the job
/// counter: which worker runs a job, and what it ran before, cannot change
/// the job's record.
///
/// The pool's unit of work is a job, or a ±BreakHammer pair of jobs: the
/// same mix under two configurations equal except `breakhammer`, both still
/// pending here. A pair is evaluated by [`evaluate_pair`], which simulates
/// the two arms once up to BreakHammer's first throttle, and its records are
/// the ones the two jobs give alone. A job runs alone when its sibling is not
/// in `jobs` (a resumed or capped sweep) or its mix is under one of `hooks`'
/// fault-injection patterns.
///
/// `hooks` carries the fault-injection patterns and the per-job callbacks
/// (see [`EvalHooks`]). They fire per job, a pair's arm without BreakHammer
/// first: claim, record, then the other arm's claim and record.
///
/// Every cell runs under [`std::panic::catch_unwind`], so one panicking
/// (configuration, mix) pair costs exactly that cell: its slot comes back as
/// `Err(panic message)` and every other cell still completes. A panicking
/// pair evaluates each arm again on its own.
pub fn evaluate_jobs(
    configs: &[SystemConfig],
    mixes: &[WorkloadMix],
    jobs: &[(usize, usize)],
    alone: &BTreeMap<String, f64>,
    workers: usize,
    hooks: &EvalHooks<'_>,
) -> Vec<Result<RunRecord, String>> {
    let record = |i: usize, cell: Result<RunRecord, String>| {
        (hooks.on_record)(i, cell.as_ref().map_err(String::as_str));
        (i, cell)
    };
    let solo = |i: usize| {
        let (c, m) = jobs[i];
        catch_panic(|| evaluate_cell(&configs[c], &mixes[m], alone, hooks))
    };
    let units = pair_units(configs, mixes, jobs, hooks);
    let outcomes = on_pool(units.len(), workers, |u| match units[u] {
        Unit::Solo(i) => {
            (hooks.on_claim)(i);
            vec![record(i, solo(i))]
        }
        Unit::Pair { without, with } => {
            (hooks.on_claim)(without);
            let (first, second) = match catch_panic(|| {
                let ((c_without, m), (c_with, _)) = (jobs[without], jobs[with]);
                let (off, on) = evaluate_pair(&configs[c_with], &mixes[m], alone);
                (
                    RunRecord::from_eval(&configs[c_without], &mixes[m], &off),
                    RunRecord::from_eval(&configs[c_with], &mixes[m], &on),
                )
            }) {
                Ok((off, on)) => (Ok(off), Some(Ok(on))),
                Err(_) => (solo(without), None),
            };
            let first = record(without, first);
            (hooks.on_claim)(with);
            vec![first, record(with, second.unwrap_or_else(|| solo(with)))]
        }
    });
    let mut slots: Vec<Option<Result<RunRecord, String>>> = jobs.iter().map(|_| None).collect();
    for (i, cell) in outcomes.into_iter().flatten() {
        slots[i] = Some(cell);
    }
    slots.into_iter().map(|slot| slot.expect("every job ran")).collect()
}

/// One unit of [`evaluate_jobs`]' pool: a job alone, or the job indices of a
/// ±BreakHammer pair.
#[derive(Debug, Clone, Copy)]
enum Unit {
    Solo(usize),
    Pair { without: usize, with: usize },
}

/// Groups `jobs` into pool units, in the order of each unit's first job.
/// A job with BreakHammer pairs with the first unpaired job of the same mix
/// whose configuration is its own with `breakhammer` off; mixes under a
/// fault-injection pattern of `hooks` never pair.
fn pair_units(
    configs: &[SystemConfig],
    mixes: &[WorkloadMix],
    jobs: &[(usize, usize)],
    hooks: &EvalHooks<'_>,
) -> Vec<Unit> {
    let sibling: Vec<Option<usize>> = configs
        .iter()
        .map(|config| {
            let off = SystemConfig { breakhammer: false, ..config.clone() };
            config.breakhammer.then(|| configs.iter().position(|c| *c == off)).flatten()
        })
        .collect();
    let injected = |m: usize| {
        [hooks.force_panic_mix, hooks.force_spin_mix]
            .into_iter()
            .flatten()
            .any(|pattern| mixes[m].name.contains(pattern))
    };
    // The jobs without BreakHammer not yet paired, by (configuration, mix).
    let mut unpaired: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
    for (i, &(c, m)) in jobs.iter().enumerate().rev() {
        if !configs[c].breakhammer && !injected(m) {
            unpaired.entry((c, m)).or_default().push(i);
        }
    }
    let mut partner: Vec<Option<usize>> = vec![None; jobs.len()];
    for (with, &(c, m)) in jobs.iter().enumerate() {
        let Some(off) = sibling[c] else { continue };
        if let Some(without) = unpaired.get_mut(&(off, m)).and_then(Vec::pop) {
            partner[with] = Some(without);
            partner[without] = Some(with);
        }
    }
    (0..jobs.len())
        .filter_map(|i| match partner[i] {
            None => Some(Unit::Solo(i)),
            Some(j) if j < i => None,
            Some(j) if configs[jobs[i].0].breakhammer => Some(Unit::Pair { without: j, with: i }),
            Some(j) => Some(Unit::Pair { without: i, with: j }),
        })
        .collect()
}

/// One cell: `mix` evaluated under `config` against the `alone` baselines,
/// with `hooks`' fault injection applied, as a record of `config`.
fn evaluate_cell(
    config: &SystemConfig,
    mix: &WorkloadMix,
    alone: &BTreeMap<String, f64>,
    hooks: &EvalHooks<'_>,
) -> RunRecord {
    if let Some(pattern) = hooks.force_panic_mix {
        assert!(!mix.name.contains(pattern), "forced test panic for mix {}", mix.name);
    }
    let eval = if hooks.force_spin_mix.is_some_and(|p| mix.name.contains(p)) {
        // Injected livelock: fills stop completing shortly into the run and
        // a tight watchdog classifies the cell within a few epochs.
        let mut spin = config.clone();
        spin.chaos.drop_fills_after = Some(1_000);
        spin.watchdog.enabled = true;
        spin.watchdog.epoch_cycles = 5_000;
        spin.watchdog.stall_epochs = 4;
        evaluate(&spin, mix, alone)
    } else {
        evaluate(config, mix, alone)
    };
    RunRecord::from_eval(config, mix, &eval)
}

/// `f()`, or the message it panicked with.
fn catch_panic<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    // Asserting unwind safety is sound: a cell keeps no state past its own
    // call, so nothing a panic interrupts is seen again.
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(panic_message)
}

/// The message of a panic payload caught by `catch_unwind`.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "unknown panic payload".to_string())
}

// --- aggregation helpers ----------------------------------------------------

/// Selects the records matching a configuration.
pub fn select(
    records: &[RunRecord],
    mechanism: MechanismKind,
    nrh: u64,
    breakhammer: bool,
) -> Vec<&RunRecord> {
    records
        .iter()
        .filter(|r| r.mechanism == mechanism && r.nrh == nrh && r.breakhammer == breakhammer)
        .collect()
}

/// Geometric mean of the weighted speedups of a record selection.
///
/// # Panics
/// Panics if the selection is empty.
pub fn geomean_speedup(records: &[&RunRecord]) -> f64 {
    let values: Vec<f64> = records.iter().map(|r| r.weighted_speedup).collect();
    bh_stats::geometric_mean(&values)
}

/// Arithmetic mean of a projection over a record selection.
///
/// # Panics
/// Panics if the selection is empty.
pub fn mean_of(records: &[&RunRecord], f: impl Fn(&RunRecord) -> f64) -> f64 {
    assert!(!records.is_empty(), "cannot aggregate an empty selection");
    records.iter().map(|r| f(r)).sum::<f64>() / records.len() as f64
}

/// Renders a table under a heading, as aligned text and then as CSV — the
/// block every figure, table and report prints.
pub fn render_results(title: &str, table: &Table) -> String {
    format!("=== {title} ===\n{}\n--- CSV ---\n{}\n", table.to_text(), table.to_csv())
}

#[cfg(test)]
#[allow(clippy::disallowed_types)] // test-only hash collections: assertion sets and reference models, never digest-bearing
mod tests {
    use super::*;
    use bh_workloads::scenario_catalog;

    #[test]
    fn campaign_builds_the_requested_mix_suites() {
        let mut scale = Scale::quick();
        scale.mixes_per_class = 2;
        scale.benign_entries = 500;
        scale.attacker_entries = 500;
        let campaign = Campaign::new(scale);
        assert_eq!(campaign.attack_mixes.len(), 12);
        assert_eq!(campaign.benign_mixes.len(), 12);
        assert!(campaign.attack_mixes.iter().all(|m| m.attacker_thread.is_some()));
        assert!(campaign.benign_mixes.iter().all(|m| m.attacker_thread.is_none()));
        assert!(campaign.scenario_mixes.is_empty(), "no scenarios requested");
    }

    #[test]
    fn campaign_suites_equal_separate_attack_and_benign_suites() {
        let mut scale = Scale::quick();
        scale.mixes_per_class = 2;
        scale.benign_entries = 500;
        scale.attacker_entries = 500;
        let campaign = Campaign::new(scale.clone());
        let builder = mix_builder(&scale);
        for (mixes, classes) in [
            (&campaign.attack_mixes, MixClass::attack_classes()),
            (&campaign.benign_mixes, MixClass::benign_classes()),
        ] {
            let separate: Vec<WorkloadMix> = classes
                .iter()
                .flat_map(|&class| (0..scale.mixes_per_class).map(move |index| (class, index)))
                .map(|(class, index)| builder.build(class, index, scale.seed))
                .collect();
            assert_eq!(mixes.len(), separate.len());
            for (joint, alone) in mixes.iter().zip(&separate) {
                assert_eq!(joint.name, alone.name);
                assert_eq!(joint.app_names, alone.app_names, "{}", alone.name);
                assert_eq!(joint.traces, alone.traces, "{}", alone.name);
                assert_eq!(joint.attacker_thread, alone.attacker_thread, "{}", alone.name);
                assert_eq!(joint.victim_rows, alone.victim_rows, "{}", alone.name);
                assert_eq!(joint.success_criterion, alone.success_criterion, "{}", alone.name);
            }
        }
    }

    #[test]
    fn scenario_suites_join_the_attack_sweep() {
        let mut scale = Scale::quick();
        scale.benign_entries = 500;
        scale.attacker_entries = 500;
        scale.scenarios = scenario_catalog().iter().map(|s| s.name.to_string()).collect();
        let campaign = Campaign::new(scale);
        assert_eq!(campaign.scenario_mixes.len(), scenario_catalog().len());
        for (mix, scenario) in campaign.scenario_mixes.iter().zip(scenario_catalog()) {
            assert_eq!(mix.scenario.as_deref(), Some(scenario.name));
            assert!(mix.name.contains(scenario.name), "{}", mix.name);
            assert!(mix.attacker_thread.is_some());
            assert!(!mix.victim_rows.is_empty(), "{}", mix.name);
        }
        let sweep = campaign.sweep_mixes(true);
        assert_eq!(sweep.len(), campaign.attack_mixes.len() + campaign.scenario_mixes.len());
        assert_eq!(campaign.sweep_mixes(false).len(), campaign.benign_mixes.len());
    }

    #[test]
    #[should_panic(expected = "unknown attack scenario")]
    fn unknown_scenario_names_are_rejected_with_the_catalog() {
        let mut scale = Scale::quick();
        scale.scenarios = vec!["not-a-scenario".to_string()];
        let _ = Campaign::new(scale);
    }

    /// A tiny campaign with two scenario suites on `workers` threads.
    fn tiny_campaign(workers: usize) -> Campaign {
        let mut scale = Scale::quick();
        scale.mixes_per_class = 2;
        scale.instructions_per_core = 2_000;
        scale.benign_entries = 500;
        scale.attacker_entries = 500;
        scale.worker_threads = workers;
        scale.scenarios = scenario_catalog().iter().take(2).map(|s| s.name.to_string()).collect();
        Campaign::new(scale)
    }

    fn all_mixes(campaign: &Campaign) -> Vec<&WorkloadMix> {
        campaign
            .attack_mixes
            .iter()
            .chain(&campaign.benign_mixes)
            .chain(&campaign.scenario_mixes)
            .collect()
    }

    /// Generating the suites and measuring the baselines on the pool gives
    /// what one thread gives: the same mixes, and the baselines `alone_ipcs`
    /// measures serially over every suite.
    #[test]
    fn suites_and_baselines_do_not_depend_on_the_worker_count() {
        let mut serial = tiny_campaign(1);
        let config = paper_config(MechanismKind::None, 4096, false, &serial.scale);
        let expected = bh_sim::alone_ipcs(&config, all_mixes(&serial));
        assert_eq!(serial.warmed_alone_cache(), &expected);
        for workers in [2, 3] {
            let mut pooled = tiny_campaign(workers);
            for (a, b) in all_mixes(&serial).into_iter().zip(all_mixes(&pooled)) {
                assert_eq!(a.name, b.name, "{workers} workers");
                assert_eq!(a.app_names, b.app_names, "{} on {workers} workers", a.name);
                assert_eq!(a.traces, b.traces, "{} on {workers} workers", a.name);
                assert_eq!(a.victim_rows, b.victim_rows, "{} on {workers} workers", a.name);
            }
            assert_eq!(all_mixes(&serial).len(), all_mixes(&pooled).len());
            assert_eq!(pooled.warmed_alone_cache(), &expected, "{workers} workers");
        }
    }

    #[test]
    fn the_pool_returns_results_in_job_order() {
        for workers in [1, 3, 64] {
            let squares: Vec<usize> = (0..50).map(|i| i * i).collect();
            assert_eq!(on_pool(50, workers, |i| i * i), squares);
        }
        assert!(on_pool(0, 4, |i| i).is_empty());
    }

    #[test]
    #[should_panic(expected = "job 3 failed")]
    fn a_panicking_pool_job_panics_the_caller_with_its_own_message() {
        on_pool(8, 3, |i| assert!(i != 3, "job {i} failed"));
    }

    #[test]
    fn run_matrix_sweeps_scenarios_with_breakhammer_on_and_off() {
        // Tiny scale: this exercises the full scenario path (composed
        // attacker → mix → simulator → per-victim stats) end to end.
        let mut scale = Scale::quick();
        scale.instructions_per_core = 4_000;
        scale.benign_entries = 600;
        scale.attacker_entries = 600;
        scale.scenarios = scenario_catalog().iter().map(|s| s.name.to_string()).collect();
        let mut campaign = Campaign::new(scale);
        let records = campaign.run_matrix(&[MechanismKind::Graphene], &[64], &[false, true], true);
        for bh in [false, true] {
            let scenarios: std::collections::HashSet<&str> = records
                .iter()
                .filter(|r| r.breakhammer == bh)
                .filter_map(|r| r.scenario.as_deref())
                .collect();
            assert!(
                scenarios.len() >= 4,
                "need >= 4 scenarios with breakhammer={bh}, got {scenarios:?}"
            );
        }
        // Scenario records carry per-victim stats; classic records have no
        // scenario tag but still watch the compat attacker's victims.
        assert!(records
            .iter()
            .filter(|r| r.scenario.is_some())
            .any(|r| r.max_victim_disturbance > 0));
    }

    /// A cell is a pure function of its configuration and mix: its record
    /// does not depend on the worker count or on what the worker evaluated
    /// just before it, an injected livelock or a forced panic of the same
    /// configuration included.
    #[test]
    fn a_cells_record_depends_only_on_its_configuration_and_mix() {
        let mut scale = Scale::quick();
        scale.instructions_per_core = 4_000;
        scale.benign_entries = 600;
        scale.attacker_entries = 600;
        let campaign = Campaign::new(scale.clone());
        let mixes: Vec<WorkloadMix> = campaign.sweep_mixes(true).into_iter().take(3).collect();
        let configs = config_matrix(&[MechanismKind::Graphene], &[64], &[false, true], &scale);
        let alone = bh_sim::alone_ipcs(
            &paper_config(MechanismKind::None, 4096, false, &scale),
            mixes.iter(),
        );
        let (spinning, panicking, clean) = (0, 1, 2);
        let render = |outcome: &Result<RunRecord, String>| format!("{outcome:?}");
        let reference: Vec<String> = evaluate_jobs(
            &configs,
            &mixes,
            &[(0, clean), (1, clean)],
            &alone,
            1,
            &EvalHooks::none(),
        )
        .iter()
        .map(render)
        .collect();

        let hooks = EvalHooks {
            force_panic_mix: Some(&mixes[panicking].name),
            force_spin_mix: Some(&mixes[spinning].name),
            ..EvalHooks::none()
        };
        let jobs: Vec<(usize, usize)> = (0..configs.len())
            .flat_map(|c| [(c, spinning), (c, clean), (c, panicking), (c, clean)])
            .collect();
        for workers in [1, 3] {
            let outcomes = evaluate_jobs(&configs, &mixes, &jobs, &alone, workers, &hooks);
            for (&(c, m), outcome) in jobs.iter().zip(&outcomes) {
                if m == spinning {
                    let termination = outcome.as_ref().map(|r| r.termination);
                    assert_eq!(termination, Ok(TerminationReason::Livelock));
                } else if m == panicking {
                    let message = outcome.as_ref().expect_err("a forced panic fails the cell");
                    assert!(message.contains("forced test panic"), "{message}");
                } else {
                    assert_eq!(render(outcome), reference[c], "config {c}, {workers} workers");
                }
            }
        }
    }

    /// Pairing ±BreakHammer siblings into one pool unit changes no record
    /// and no hook order. On a ±BreakHammer matrix with one arm of some
    /// pairs missing, a +BH job listed before its sibling, and the two
    /// fault-injection patterns, every job's outcome is the one it gets
    /// evaluated alone. Each job is claimed before it is recorded, a pair's
    /// arm without BreakHammer is recorded before the other is claimed, and
    /// one worker claims and records one job at a time.
    #[test]
    fn paired_jobs_give_the_records_of_jobs_evaluated_alone() {
        let mut scale = Scale::quick();
        scale.instructions_per_core = 4_000;
        scale.benign_entries = 600;
        scale.attacker_entries = 600;
        let campaign = Campaign::new(scale.clone());
        let mixes: Vec<WorkloadMix> = campaign.sweep_mixes(true).into_iter().take(4).collect();
        let configs = config_matrix(
            &[MechanismKind::Graphene, MechanismKind::Para],
            &[64],
            &[false, true],
            &scale,
        );
        let alone = bh_sim::alone_ipcs(
            &paper_config(MechanismKind::None, 4096, false, &scale),
            mixes.iter(),
        );
        let (spinning, panicking) = (0, 1);
        let (graphene, graphene_bh, para, para_bh) = (0, 1, 2, 3);
        // Graphene+BH misses mix 2 and PARA misses mix 3; PARA+BH on mix 2
        // comes before its sibling.
        let mut jobs: Vec<(usize, usize)> = (0..4).map(|m| (graphene, m)).collect();
        jobs.extend([(graphene_bh, 0), (graphene_bh, 1), (graphene_bh, 3), (para_bh, 3)]);
        jobs.extend([(para_bh, 2), (para, 0), (para, 1), (para, 2), (para_bh, 0), (para_bh, 1)]);
        let paired = [(3, 6), (11, 8)];

        let events = std::sync::Mutex::new(Vec::new());
        let log = |kind: &'static str, i: usize| events.lock().unwrap().push((kind, i));
        let on_claim = |i: usize| log("claim", i);
        let on_record = |i: usize, _: Result<&RunRecord, &str>| log("record", i);
        let hooks = EvalHooks {
            force_panic_mix: Some(&mixes[panicking].name),
            force_spin_mix: Some(&mixes[spinning].name),
            on_claim: &on_claim,
            on_record: &on_record,
        };
        let render = |outcome: &Result<RunRecord, String>| format!("{outcome:?}");
        let alone_hooks = EvalHooks { on_claim: &|_| {}, on_record: &|_, _| {}, ..hooks };
        let reference: Vec<String> = jobs
            .iter()
            .map(|job| {
                let outcome = evaluate_jobs(&configs, &mixes, &[*job], &alone, 1, &alone_hooks);
                render(&outcome[0])
            })
            .collect();
        for (&(_, m), outcome) in jobs.iter().zip(&reference) {
            if m == spinning {
                assert!(outcome.contains("Livelock"), "{outcome}");
            } else if m == panicking {
                assert!(outcome.contains("forced test panic"), "{outcome}");
            }
        }

        for workers in [1, 3] {
            events.lock().unwrap().clear();
            let outcomes = evaluate_jobs(&configs, &mixes, &jobs, &alone, workers, &hooks);
            let rendered: Vec<String> = outcomes.iter().map(render).collect();
            assert_eq!(rendered, reference, "{workers} workers");

            let events = events.lock().unwrap().clone();
            assert_eq!(events.len(), 2 * jobs.len(), "{workers} workers: {events:?}");
            let at = |event: (&str, usize)| {
                let position = events.iter().position(|e| *e == event);
                position.unwrap_or_else(|| panic!("{workers} workers: no {event:?} in {events:?}"))
            };
            for i in 0..jobs.len() {
                assert!(at(("claim", i)) < at(("record", i)), "{workers} workers: {events:?}");
            }
            for (without, with) in paired {
                let (recorded, claimed) = (at(("record", without)), at(("claim", with)));
                assert!(recorded < claimed, "{workers} workers: {events:?}");
                if workers == 1 {
                    assert_eq!(recorded + 1, claimed, "{events:?}");
                }
            }
            if workers == 1 {
                for step in events.chunks(2) {
                    assert!(matches!(step, [("claim", a), ("record", b)] if a == b), "{events:?}");
                }
            }
        }
        assert_eq!(
            pair_units(&configs, &mixes, &jobs, &hooks)
                .into_iter()
                .filter_map(|unit| match unit {
                    Unit::Pair { without, with } => Some((without, with)),
                    Unit::Solo(_) => None,
                })
                .collect::<Vec<_>>(),
            paired
        );
    }

    #[test]
    fn record_selection_and_aggregation() {
        let make = |mech, nrh, bh, ws| RunRecord {
            mechanism: mech,
            nrh,
            breakhammer: bh,
            mix_class: "HHHA".to_string(),
            mix_name: "HHHA-00".to_string(),
            weighted_speedup: ws,
            max_slowdown: 2.0,
            energy_nj: 10.0,
            preventive_actions: 5,
            latency_ns: [10.0, 20.0, 30.0],
            attacker_identified: true,
            benign_misidentified: false,
            bitflips: 0,
            scenario: None,
            max_victim_disturbance: 0,
            flips_raw: 0,
            flips_corrected: 0,
            flips_detected: 0,
            flips_silent: 0,
            attack_success: false,
            termination: TerminationReason::Completed,
            livelock: None,
        };
        let records = vec![
            make(MechanismKind::Para, 1024, true, 2.0),
            make(MechanismKind::Para, 1024, true, 8.0),
            make(MechanismKind::Para, 1024, false, 1.0),
            make(MechanismKind::Graphene, 1024, true, 3.0),
        ];
        let sel = select(&records, MechanismKind::Para, 1024, true);
        assert_eq!(sel.len(), 2);
        assert!((geomean_speedup(&sel) - 4.0).abs() < 1e-12);
        assert!((mean_of(&sel, |r| r.max_slowdown) - 2.0).abs() < 1e-12);
        assert_eq!(config_label(MechanismKind::Para, true), "PARA+BH");
        assert_eq!(config_label(MechanismKind::Para, false), "PARA");
    }
}
