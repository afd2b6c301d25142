//! Shared experiment machinery behind every figure, table and sweep.
//!
//! A suite is the attack, benign and scenario mixes of one generation seed,
//! planned as one [`SuitePlan`](bh_workloads::SuitePlan): its distinct
//! traces, its mixes and its applications' alone-IPC baselines are each
//! built on first need and kept. [`Campaign`] holds one suite with every
//! trace generated; a campaign sweep ([`CampaignSpec`](crate::CampaignSpec))
//! plans one suite per seed and generates nothing up front.
//!
//! Both evaluate through one pool per sweep (`evaluate_suites`). Its items
//! are, suite after suite, the ±BreakHammer units of the sweep's cells, and
//! before each unit the inputs it is the first to need: its mix's traces and
//! its applications' baselines. A unit forces its inputs, so a cell waits
//! for its own mix only, no barrier separates traces, baselines and cells,
//! and an input that no unit needs is never built. [`evaluate_jobs`] runs the
//! same units on inputs the caller built. Each evaluated (configuration, mix)
//! pair — a cell — comes back as one flat [`CellRecord`] — the record a line
//! of a result store holds — which the aggregation helpers at the end of the
//! module select from and reduce. The experiment scale lives in
//! [`crate::scale`].

use crate::campaign::CellRecord;
use crate::scale::Scale;
use bh_mitigation::MechanismKind;
use bh_sim::{alone_ipc, baseline_traces, evaluate, evaluate_pair, SystemConfig};
use bh_stats::Table;
use bh_workloads::{
    scenario_by_name, CompiledTrace, MixBuilder, MixClass, SuitePlan, TraceGenerator, WorkloadMix,
};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// An inert name for [`CellRecord`], kept only because
/// `benchmark/src/campaign.rs` names it, until the `benchmark` PR of ROADMAP
/// item 2 removes the name.
pub type RunRecord = CellRecord;

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
/// the suite's distinct traces when it is built, then one pool per call of
/// [`Campaign::run_matrix`] whose items are its cells and, each just before
/// the first cell that reads it, an alone baseline not measured yet.
#[derive(Debug)]
pub struct Campaign {
    scale: Scale,
    /// The attack, benign and scenario mixes (those of
    /// [`Scale::scenarios`]) as one suite, every trace generated; baselines
    /// measured by a sweep stay for the next one.
    suite: Arc<Suite>,
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
    /// The suites are one [`SuitePlan`](bh_workloads::SuitePlan), so each of
    /// its distinct traces is generated once, on the worker pool; the mixes
    /// do not depend on the worker count.
    ///
    /// # Panics
    /// Panics (listing the catalog) if `scale.scenarios` names an unknown
    /// attack scenario.
    pub fn new(scale: Scale) -> Self {
        let suite = Suite::new(&scale);
        on_pool(suite.traces.len(), scale.worker_threads, |i| {
            suite.trace(i);
        });
        Campaign { scale, suite: Arc::new(suite), alone: BTreeMap::new() }
    }

    /// The experiment scale in use.
    pub fn scale(&self) -> &Scale {
        &self.scale
    }

    /// The mixes an attack (or benign) sweep evaluates: attack sweeps cover
    /// the classic attack suite plus every requested scenario suite. Cloning
    /// a mix bumps trace reference counts, it does not copy records.
    pub fn sweep_mixes(&self, attack: bool) -> Vec<WorkloadMix> {
        let mixes = self.suite.sweep_mixes(attack).into_iter();
        mixes.map(|m| self.suite.mix(m).clone()).collect()
    }

    /// Measures (once) and returns the alone-IPC baselines of every benign
    /// application of every mix suite. Alone baselines are measured on the
    /// unprotected system, so one map serves every configuration of a sweep.
    ///
    /// The map is [`alone_ipcs`](bh_sim::alone_ipcs) over every suite, with
    /// each baseline measured as one job on the worker pool. Sweeps do not
    /// need it: their pool measures the baselines their cells read.
    pub fn warmed_alone_cache(&mut self) -> &BTreeMap<String, f64> {
        if self.alone.is_empty() {
            let config = paper_config(MechanismKind::None, 4096, false, &self.scale);
            // Plan order: attack, benign, then scenario mixes.
            let mixes = (0..self.suite.mixes.len()).map(|m| self.suite.mix(m));
            let traces: Vec<_> = baseline_traces(mixes).into_iter().collect();
            let ipcs = on_pool(traces.len(), self.scale.worker_threads, |i| {
                alone_ipc(&config, traces[i].1)
            });
            self.alone = traces.iter().map(|(name, _)| name.to_string()).zip(ipcs).collect();
        }
        &self.alone
    }

    /// Evaluates one configuration against the attack or benign mix suite,
    /// running mixes in parallel, and returns one record per mix.
    pub fn run(&mut self, config: &SystemConfig, attack: bool) -> Vec<CellRecord> {
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
    ) -> Vec<CellRecord> {
        let configs = config_matrix(mechanisms, nrh_values, breakhammer_options, &self.scale);
        self.run_configs(&configs, attack)
    }

    /// Evaluates every (configuration, mix) pair of `configs` × the chosen
    /// suite on one pool (`evaluate_suites`), returning records grouped by
    /// configuration (in `configs` order) and, within each configuration, in
    /// mix order — the same order the former config-serial loop produced.
    fn run_configs(&mut self, configs: &[SystemConfig], attack: bool) -> Vec<CellRecord> {
        let mixes = self.suite.sweep_mixes(attack);
        let jobs: Vec<(usize, usize)> =
            (0..configs.len()).flat_map(|c| mixes.iter().map(move |&m| (c, m))).collect();
        let sweep = SuiteJobs {
            suite: Arc::clone(&self.suite),
            configs: configs.to_vec(),
            jobs: jobs.clone(),
        };
        let outcomes: Mutex<Vec<Option<Result<CellRecord, String>>>> =
            Mutex::new(jobs.iter().map(|_| None).collect());
        let on_record = |i: usize, outcome: Result<&CellRecord, &str>| {
            let outcome = outcome.cloned().map_err(str::to_string);
            outcomes.lock().expect("no worker panics holding the outcomes")[i] = Some(outcome);
        };
        let hooks = EvalHooks { on_record: &on_record, ..EvalHooks::none() };
        evaluate_suites([sweep], self.scale.worker_threads, &hooks);
        let results = outcomes.into_inner().expect("the pool has joined");
        // Figure binaries want every cell: a panicking cell no longer kills
        // the other workers mid-sweep, but an incomplete matrix must still
        // fail loudly once everything else has finished.
        let mut records = Vec::with_capacity(results.len());
        let mut failed = Vec::new();
        for (result, (c, m)) in results.into_iter().zip(jobs) {
            match result.expect("every job ran") {
                Ok(record) => records.push(record),
                Err(error) => failed.push(format!(
                    "[{} × {}] {error}",
                    configs[c].summary(),
                    self.suite.mix_name(m)
                )),
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

/// One suite: the attack, benign and scenario mixes of one generation seed
/// as one [`SuitePlan`], whose distinct traces, assembled mixes and alone
/// baselines are each built on first need, by whichever thread needs it
/// first, and then kept.
#[derive(Debug)]
pub(crate) struct Suite {
    plan: SuitePlan,
    /// The plan's attack, benign and scenario mixes, in plan order.
    groups: [Range<usize>; 3],
    traces: Vec<OnceLock<CompiledTrace>>,
    mixes: Vec<OnceLock<WorkloadMix>>,
    /// Each benign application's baseline, in the order the plan first
    /// names the applications.
    baselines: Vec<Baseline>,
    /// The baselines (indices into `baselines`) each mix reads.
    reads: Vec<Vec<usize>>,
    /// The unprotected system every baseline is measured on.
    alone_config: SystemConfig,
}

/// One application's alone-IPC baseline, measured on `trace`: the first
/// trace the plan gives the application in attack, benign, scenario order,
/// as [`baseline_traces`] picks it over [`Campaign`]'s mixes.
#[derive(Debug)]
struct Baseline {
    app: String,
    trace: usize,
    ipc: OnceLock<f64>,
}

impl Suite {
    /// The suite of `scale`'s seed, mixes per class and scenarios, with
    /// nothing generated yet.
    ///
    /// # Panics
    /// Panics (listing the catalog) if `scale.scenarios` names an unknown
    /// attack scenario.
    pub(crate) fn new(scale: &Scale) -> Suite {
        let per_class = scale.mixes_per_class;
        let (attack, benign) = (MixClass::attack_classes(), MixClass::benign_classes());
        let mut plan = mix_builder(scale).plan(scale.seed);
        for class in attack.iter().chain(&benign) {
            for index in 0..per_class {
                plan.add(*class, index);
            }
        }
        // Scenario sweeps hold the benign company fixed (the HHHA class) so
        // differences between scenarios isolate the attacker's shape.
        for name in &scale.scenarios {
            let scenario = scenario_by_name(name).unwrap_or_else(|e| panic!("{e}"));
            for index in 0..per_class {
                plan.add_scenario(&scenario, attack[0], index);
            }
        }
        let (attack_end, benign_end) =
            (attack.len() * per_class, (attack.len() + benign.len()) * per_class);
        let groups = [0..attack_end, attack_end..benign_end, benign_end..plan.mix_count()];
        let mut baselines: Vec<Baseline> = Vec::new();
        let mut named: BTreeMap<&str, usize> = BTreeMap::new();
        let reads = (0..plan.mix_count())
            .map(|m| {
                let mut reads = Vec::new();
                for (app, trace) in plan.benign_apps(m) {
                    let b = *named.entry(app).or_insert_with(|| {
                        let ipc = OnceLock::new();
                        baselines.push(Baseline { app: app.to_string(), trace, ipc });
                        baselines.len() - 1
                    });
                    if !reads.contains(&b) {
                        reads.push(b);
                    }
                }
                reads
            })
            .collect();
        Suite {
            traces: (0..plan.trace_count()).map(|_| OnceLock::new()).collect(),
            mixes: (0..plan.mix_count()).map(|_| OnceLock::new()).collect(),
            plan,
            groups,
            baselines,
            reads,
            alone_config: paper_config(MechanismKind::None, 4096, false, scale),
        }
    }

    /// The plan's mixes an attack (or benign) sweep evaluates, as
    /// [`Campaign::sweep_mixes`] lists them.
    pub(crate) fn sweep_mixes(&self, attack: bool) -> Vec<usize> {
        let [attack_mixes, benign_mixes, scenario_mixes] = self.groups.clone();
        if attack {
            attack_mixes.chain(scenario_mixes).collect()
        } else {
            benign_mixes.collect()
        }
    }

    /// The name of mix `m`.
    pub(crate) fn mix_name(&self, m: usize) -> &str {
        self.plan.mix_name(m)
    }

    /// Distinct trace `i`, generated on first need.
    fn trace(&self, i: usize) -> &CompiledTrace {
        self.traces[i].get_or_init(|| {
            #[cfg(test)]
            count_built(self.alone_config.seed, 0);
            self.plan.generate(i)
        })
    }

    /// Mix `m`, assembled (and its traces generated) on first need.
    fn mix(&self, m: usize) -> &WorkloadMix {
        self.mixes[m].get_or_init(|| self.plan.mix(m, |i| self.trace(i).clone()))
    }

    /// Baseline `b`'s alone IPC, measured on first need.
    fn baseline(&self, b: usize) -> f64 {
        let baseline = &self.baselines[b];
        *baseline.ipc.get_or_init(|| {
            #[cfg(test)]
            count_built(self.alone_config.seed, 1);
            alone_ipc(&self.alone_config, self.trace(baseline.trace))
        })
    }

    /// The alone IPCs mix `m`'s applications are normalised to, measured on
    /// first need.
    fn alone(&self, m: usize) -> BTreeMap<String, f64> {
        self.reads[m].iter().map(|&b| (self.baselines[b].app.clone(), self.baseline(b))).collect()
    }
}

/// Traces generated (`[0]`) and baselines measured (`[1]`) by every suite
/// so far, by suite seed: how the tests count what a sweep builds.
#[cfg(test)]
pub(crate) static BUILT: Mutex<BTreeMap<u64, [usize; 2]>> = Mutex::new(BTreeMap::new());

#[cfg(test)]
fn count_built(seed: u64, kind: usize) {
    BUILT.lock().expect("counting never panics").entry(seed).or_default()[kind] += 1;
}

/// One suite's share of an [`evaluate_suites`] pool: the configurations, and
/// the (configuration, mix of the suite's plan) jobs to evaluate.
#[derive(Debug)]
pub(crate) struct SuiteJobs {
    pub(crate) suite: Arc<Suite>,
    pub(crate) configs: Vec<SystemConfig>,
    pub(crate) jobs: Vec<(usize, usize)>,
}

/// What one item of an [`evaluate_suites`] pool does to its suite.
#[derive(Debug, Clone, Copy)]
enum Step {
    Trace(usize),
    Baseline(usize),
    Unit(Unit),
}

/// A suite's jobs while its items are in an [`evaluate_suites`] pool.
#[derive(Debug)]
struct SuiteRun {
    /// The suite, until every unit holds its inputs.
    live: Mutex<Option<Arc<Suite>>>,
    configs: Vec<SystemConfig>,
    jobs: Vec<(usize, usize)>,
    /// The index of the first job among every suite's jobs.
    offset: usize,
    /// Units that have not taken their inputs yet.
    units_left: AtomicUsize,
}

impl SuiteRun {
    /// Runs one item of the suite.
    fn run(&self, step: Step, hooks: &EvalHooks<'_>) {
        let held = self.live.lock().expect("no thread panics holding a suite").clone();
        // Only an input can find its suite gone: the unit that needs it
        // built it first.
        let Some(suite) = held else { return };
        match step {
            Step::Trace(t) => {
                suite.trace(t);
            }
            Step::Baseline(b) => {
                suite.baseline(b);
            }
            Step::Unit(unit) => {
                let m = unit.mix(&self.jobs);
                // The unit keeps its own mix (a refcount per trace), not the
                // suite: once every unit of the suite has its inputs, the
                // traces and mixes no running unit replays are freed.
                let (mix, alone) = (suite.mix(m).clone(), suite.alone(m));
                drop(suite);
                // Relaxed: the count publishes no data; the suite's inputs
                // are reached through the `OnceLock`s.
                if self.units_left.fetch_sub(1, Ordering::Relaxed) == 1 {
                    self.live.lock().expect("no thread panics holding a suite").take();
                }
                run_unit(unit, &self.configs, &self.jobs, &mix, &alone, hooks, self.offset);
            }
        }
    }
}

/// Evaluates every suite's jobs on one pool of `workers` threads. The hooks
/// see a job by its index in the suites' jobs laid end to end, and
/// `hooks.on_record` is where each outcome goes: the pool keeps none.
///
/// The pool's items are, suite after suite, the units of [`evaluate_jobs`]
/// (a job, or a ±BreakHammer pair) and the inputs of each: the distinct
/// traces its mix replays, and the alone baselines of its applications with
/// the traces they are measured on. An input is listed just before the first
/// unit that needs it, and a unit forces its own inputs, so it waits only for
/// the ones other workers are still building; an input no unit needs is
/// never built. `suites` is drawn on the calling thread while the threads
/// work, so only the first suite's plan delays the first cell.
/// A unit keeps a clone of its own mix while it runs, and once every unit of
/// a suite holds its inputs, the pool drops its hold on the suite: besides
/// the mixes still running, the inputs of about one suite are alive at once.
/// Every input is a pure function of its suite, so records do not depend on
/// which worker built what.
pub(crate) fn evaluate_suites(
    suites: impl IntoIterator<Item = SuiteJobs>,
    workers: usize,
    hooks: &EvalHooks<'_>,
) {
    let produce = |send: &mut dyn FnMut((Arc<SuiteRun>, Step))| {
        let mut offset = 0;
        for SuiteJobs { suite, configs, jobs } in suites {
            let units = pair_units(&configs, &jobs, |m| hooks.injects(suite.mix_name(m)));
            let mut steps = Vec::new();
            let mut listed = vec![false; suite.traces.len()];
            let mut trace = |t: usize, steps: &mut Vec<Step>| {
                if !std::mem::replace(&mut listed[t], true) {
                    steps.push(Step::Trace(t));
                }
            };
            let mut measured = vec![false; suite.baselines.len()];
            for &unit in &units {
                let m = unit.mix(&jobs);
                for &t in suite.plan.trace_indices(m) {
                    trace(t, &mut steps);
                }
                for &b in &suite.reads[m] {
                    if !std::mem::replace(&mut measured[b], true) {
                        trace(suite.baselines[b].trace, &mut steps);
                        steps.push(Step::Baseline(b));
                    }
                }
                steps.push(Step::Unit(unit));
            }
            let run = Arc::new(SuiteRun {
                live: Mutex::new(Some(suite)),
                offset,
                units_left: AtomicUsize::new(units.len()),
                configs,
                jobs,
            });
            offset += run.jobs.len();
            for step in steps {
                send((Arc::clone(&run), step));
            }
        }
    };
    stream_pool(workers, produce, |(run, step): (Arc<SuiteRun>, Step)| run.run(step, hooks));
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
    pub on_record: &'a (dyn Fn(usize, Result<&CellRecord, &str>) + Sync),
}

impl EvalHooks<'_> {
    /// True when a fault-injection pattern matches `mix_name`.
    fn injects(&self, mix_name: &str) -> bool {
        [self.force_panic_mix, self.force_spin_mix]
            .into_iter()
            .flatten()
            .any(|pattern| mix_name.contains(pattern))
    }

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
/// (see [`stream_pool`]), returned in index order.
fn on_pool<R: Send>(n: usize, workers: usize, job: impl Fn(usize) -> R + Sync) -> Vec<R> {
    stream_pool(workers, |send| (0..n).for_each(send), job)
}

/// `job` of every item `produce` sends, on a pool of up to `workers` scoped
/// threads, returned in the order the items were sent.
///
/// `produce` runs on the calling thread while the threads work: one thread
/// starts with each of the first `workers` items, and the threads take items
/// in the order they were sent. The queue never makes `produce` wait: a
/// bounded one woke the calling thread once per item, and `setup_s` read
/// 5–15 % higher on `campaign_sweep`. Every job the campaign runs — a trace,
/// an alone baseline, a cell — is a pure function of its item, so which
/// thread runs it, and what that thread ran before, cannot change the
/// result. Each thread keeps its results in a local vector tagged with the
/// item's position, stitched together after the scope joins: there is no
/// shared result lock. A panicking job, or `produce`, panics the caller with
/// its own payload once the threads have finished.
fn stream_pool<T: Send, R: Send>(
    workers: usize,
    produce: impl FnOnce(&mut dyn FnMut(T)),
    job: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    let (send, receive) = std::sync::mpsc::channel::<(usize, T)>();
    let receive = Mutex::new(receive);
    let worker = || {
        let mut local = Vec::new();
        loop {
            // A `let` statement of its own, so the guard is dropped before
            // the job runs: a thread waits for the next item holding the
            // queue, never while it runs a job (a `while let` scrutinee would
            // hold it through the loop body and serialise the pool).
            let next = receive.lock().expect("no thread panics taking an item").recv();
            let Ok((k, item)) = next else { return local };
            local.push((k, job(item)));
        }
    };
    let outputs: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        // `send` moves in, so a panicking `produce` drops it and the threads
        // stop waiting for items.
        let send = send;
        let mut handles = Vec::new();
        let mut sent = 0;
        produce(&mut |item| {
            if handles.len() < workers.max(1) {
                handles.push(scope.spawn(worker));
            }
            send.send((sent, item)).expect("the queue is open until the pool joins");
            sent += 1;
        });
        drop(send);
        let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        joined.into_iter().map(|h| h.unwrap_or_else(|p| std::panic::resume_unwind(p))).collect()
    });
    let mut slots: Vec<Option<R>> = Vec::new();
    for (k, result) in outputs.into_iter().flatten() {
        if slots.len() <= k {
            slots.resize_with(k + 1, || None);
        }
        slots[k] = Some(result);
    }
    slots.into_iter().map(|slot| slot.expect("every item ran")).collect()
}

/// Evaluates a set of `(config index, mix index)` jobs on a pool of
/// `workers` threads and returns one [`CellRecord`] per job, in `jobs` order.
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
) -> Vec<Result<CellRecord, String>> {
    let units = pair_units(configs, jobs, |m| hooks.injects(&mixes[m].name));
    let outcomes = on_pool(units.len(), workers, |u| {
        let unit = units[u];
        run_unit(unit, configs, jobs, &mixes[unit.mix(jobs)], alone, hooks, 0)
    });
    let mut slots: Vec<Option<Result<CellRecord, String>>> = jobs.iter().map(|_| None).collect();
    for (i, cell) in outcomes.into_iter().flatten() {
        slots[i] = Some(cell);
    }
    slots.into_iter().map(|slot| slot.expect("every job ran")).collect()
}

/// One unit of a pool: a job alone, or the job indices of a ±BreakHammer
/// pair.
#[derive(Debug, Clone, Copy)]
enum Unit {
    Solo(usize),
    Pair { without: usize, with: usize },
}

impl Unit {
    /// The mix the unit's jobs evaluate.
    fn mix(self, jobs: &[(usize, usize)]) -> usize {
        let (Unit::Solo(i) | Unit::Pair { without: i, .. }) = self;
        jobs[i].1
    }
}

/// Groups `jobs` into pool units, in the order of each unit's first job.
/// A job with BreakHammer pairs with the first unpaired job of the same mix
/// whose configuration is its own with `breakhammer` off; mixes `injected`
/// under a fault-injection pattern never pair.
fn pair_units(
    configs: &[SystemConfig],
    jobs: &[(usize, usize)],
    injected: impl Fn(usize) -> bool,
) -> Vec<Unit> {
    let sibling: Vec<Option<usize>> = configs
        .iter()
        .map(|config| {
            let off = SystemConfig { breakhammer: false, ..config.clone() };
            config.breakhammer.then(|| configs.iter().position(|c| *c == off)).flatten()
        })
        .collect();
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

/// Evaluates `unit` of `jobs` on `mix` against the `alone` baselines,
/// firing `hooks` per job (a pair's arm without BreakHammer first: claim,
/// record, then the other arm's claim and record), and returns each job's
/// outcome. Jobs are numbered from `offset`, for the hooks and in the
/// result.
fn run_unit(
    unit: Unit,
    configs: &[SystemConfig],
    jobs: &[(usize, usize)],
    mix: &WorkloadMix,
    alone: &BTreeMap<String, f64>,
    hooks: &EvalHooks<'_>,
    offset: usize,
) -> Vec<(usize, Result<CellRecord, String>)> {
    let record = |i: usize, cell: Result<CellRecord, String>| {
        (hooks.on_record)(offset + i, cell.as_ref().map_err(String::as_str));
        (offset + i, cell)
    };
    let solo = |i: usize| catch_panic(|| evaluate_cell(&configs[jobs[i].0], mix, alone, hooks));
    match unit {
        Unit::Solo(i) => {
            (hooks.on_claim)(offset + i);
            vec![record(i, solo(i))]
        }
        Unit::Pair { without, with } => {
            (hooks.on_claim)(offset + without);
            let (first, second) = match catch_panic(|| {
                let (c_without, c_with) = (jobs[without].0, jobs[with].0);
                let (off, on) = evaluate_pair(&configs[c_with], mix, alone);
                (
                    CellRecord::from_eval(&configs[c_without], mix, &off),
                    CellRecord::from_eval(&configs[c_with], mix, &on),
                )
            }) {
                Ok((off, on)) => (Ok(off), Some(Ok(on))),
                Err(_) => (solo(without), None),
            };
            let first = record(without, first);
            (hooks.on_claim)(offset + with);
            vec![first, record(with, second.unwrap_or_else(|| solo(with)))]
        }
    }
}

/// One cell: `mix` evaluated under `config` against the `alone` baselines,
/// with `hooks`' fault injection applied, as a record of `config`.
fn evaluate_cell(
    config: &SystemConfig,
    mix: &WorkloadMix,
    alone: &BTreeMap<String, f64>,
    hooks: &EvalHooks<'_>,
) -> CellRecord {
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
    CellRecord::from_eval(config, mix, &eval)
}

/// `f()`, or the message it panicked with.
fn catch_panic<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    // Asserting unwind safety is sound: a cell keeps no state past its own
    // call, so nothing a panic interrupts is seen again.
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(panic_message)
}

/// The message of a panic payload caught by `catch_unwind`.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "unknown panic payload".to_string())
}

// --- aggregation helpers ----------------------------------------------------

/// Selects the records matching a configuration.
pub fn select(
    records: &[CellRecord],
    mechanism: MechanismKind,
    nrh: u64,
    breakhammer: bool,
) -> Vec<&CellRecord> {
    records
        .iter()
        .filter(|r| {
            r.mechanism == mechanism.label() && r.nrh == nrh && r.breakhammer == breakhammer
        })
        .collect()
}

/// Geometric mean of the weighted speedups of a record selection.
///
/// # Panics
/// Panics if the selection is empty.
pub fn geomean_speedup(records: &[&CellRecord]) -> f64 {
    let values: Vec<f64> = records.iter().map(|r| r.weighted_speedup).collect();
    bh_stats::geometric_mean(&values)
}

/// Arithmetic mean of a projection over a record selection.
///
/// # Panics
/// Panics if the selection is empty.
pub fn mean_of(records: &[&CellRecord], f: impl Fn(&CellRecord) -> f64) -> f64 {
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

    /// A campaign's attack, benign and scenario mixes.
    fn groups(campaign: &Campaign) -> [Vec<&WorkloadMix>; 3] {
        let suite = &campaign.suite;
        suite.groups.clone().map(|group| group.map(|m| suite.mix(m)).collect())
    }

    #[test]
    fn campaign_builds_the_requested_mix_suites() {
        let mut scale = Scale::quick();
        scale.mixes_per_class = 2;
        scale.benign_entries = 500;
        scale.attacker_entries = 500;
        let campaign = Campaign::new(scale);
        let [attack_mixes, benign_mixes, scenario_mixes] = groups(&campaign);
        assert_eq!(attack_mixes.len(), 12);
        assert_eq!(benign_mixes.len(), 12);
        assert!(attack_mixes.iter().all(|m| m.attacker_thread.is_some()));
        assert!(benign_mixes.iter().all(|m| m.attacker_thread.is_none()));
        assert!(scenario_mixes.is_empty(), "no scenarios requested");
    }

    #[test]
    fn campaign_suites_equal_separate_attack_and_benign_suites() {
        let mut scale = Scale::quick();
        scale.mixes_per_class = 2;
        scale.benign_entries = 500;
        scale.attacker_entries = 500;
        let campaign = Campaign::new(scale.clone());
        let builder = mix_builder(&scale);
        let [attack_mixes, benign_mixes, _] = groups(&campaign);
        for (mixes, classes) in
            [(attack_mixes, MixClass::attack_classes()), (benign_mixes, MixClass::benign_classes())]
        {
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
        let [attack_mixes, benign_mixes, scenario_mixes] = groups(&campaign);
        assert_eq!(scenario_mixes.len(), scenario_catalog().len());
        for (mix, scenario) in scenario_mixes.iter().zip(scenario_catalog()) {
            assert_eq!(mix.scenario.as_deref(), Some(scenario.name));
            assert!(mix.name.contains(scenario.name), "{}", mix.name);
            assert!(mix.attacker_thread.is_some());
            assert!(!mix.victim_rows.is_empty(), "{}", mix.name);
        }
        let sweep = campaign.sweep_mixes(true);
        assert_eq!(sweep.len(), attack_mixes.len() + scenario_mixes.len());
        assert_eq!(campaign.sweep_mixes(false).len(), benign_mixes.len());
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
        groups(campaign).concat()
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

    /// Two jobs on a two-thread pool run at the same time: each waits for
    /// the other's message, which a pool running one job at a time never
    /// delivers within the timeout.
    #[test]
    fn a_two_thread_pool_runs_two_jobs_at_once() {
        let (to_second, at_second) = std::sync::mpsc::channel();
        let (to_first, at_first) = std::sync::mpsc::channel();
        let ends = [
            (Mutex::new(to_second), Mutex::new(at_first)),
            (Mutex::new(to_first), Mutex::new(at_second)),
        ];
        let met = on_pool(2, 2, |i| {
            let (send, receive) = &ends[i];
            send.lock().unwrap().send(()).unwrap();
            let wait = std::time::Duration::from_secs(20);
            receive.lock().unwrap().recv_timeout(wait).is_ok()
        });
        assert_eq!(met, [true, true]);
    }

    /// A producer that panics mid-stream stops the threads waiting for its
    /// next item, and the caller sees its panic.
    #[test]
    #[should_panic(expected = "the producer failed")]
    fn a_panicking_producer_panics_the_caller_instead_of_hanging_the_pool() {
        let produce = |send: &mut dyn FnMut(usize)| {
            send(1);
            send(2);
            panic!("the producer failed");
        };
        stream_pool(3, produce, |i| i * i);
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
        let render = |outcome: &Result<CellRecord, String>| format!("{outcome:?}");
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
                    let status = outcome.as_ref().map(|r| r.status.as_str());
                    assert_eq!(status, Ok("livelock"));
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
        let on_record = |i: usize, _: Result<&CellRecord, &str>| log("record", i);
        let hooks = EvalHooks {
            force_panic_mix: Some(&mixes[panicking].name),
            force_spin_mix: Some(&mixes[spinning].name),
            on_claim: &on_claim,
            on_record: &on_record,
        };
        let render = |outcome: &Result<CellRecord, String>| format!("{outcome:?}");
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
                assert!(outcome.contains("status: \"livelock\""), "{outcome}");
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
            pair_units(&configs, &jobs, |m| hooks.injects(&mixes[m].name))
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
        let make = |mech: MechanismKind, nrh, breakhammer, weighted_speedup| CellRecord {
            mechanism: mech.label().to_string(),
            nrh,
            breakhammer,
            weighted_speedup,
            max_slowdown: 2.0,
            ..CellRecord::default()
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
