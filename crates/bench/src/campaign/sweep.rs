//! The sweep engine: a [`CampaignSpec`] run into a [`ResultStore`], one
//! checkpointed cell at a time.
//!
//! A sweep is one worker pool (`evaluate_suites`). Its suites (one per
//! seed) are planned one after another on the calling thread while the pool
//! works, and planning generates nothing: the pool's items are the pending
//! cells' ±BreakHammer units and, just before the first unit that needs it,
//! each trace and alone baseline. The first plan resolves the scenario
//! names, so an unknown one stops the sweep before its first cell. A cell's
//! line is sealed as soon as its own mix's inputs exist and it has run; a
//! suite with no pending cell builds nothing, and neither does any mix or
//! application no pending cell reads.

// The settled-cell set is membership state, never iterated for results.
#![allow(clippy::disallowed_types)]

use super::store::{config_digest, failed_line, record_line, CellRecord, ResultStore};
use crate::experiments::{config_matrix, evaluate_suites, EvalHooks, Suite, SuiteJobs};
use crate::scale::Scale;
use bh_mitigation::MechanismKind;
use std::collections::HashSet;
use std::sync::{Arc, Mutex};

// --- the sweep engine -------------------------------------------------------

/// The definition of a campaign sweep: the (mechanism × N_RH × ±BreakHammer)
/// configuration matrix crossed with the mix suite and the workload seeds.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Experiment scale; `scale.seed` is overridden per entry of `seeds`.
    pub scale: Scale,
    /// Mechanisms swept.
    pub mechanisms: Vec<MechanismKind>,
    /// RowHammer thresholds swept.
    pub nrh_values: Vec<u64>,
    /// BreakHammer off/on arms (the `None` mechanism never gets the `true`
    /// arm: BreakHammer needs a mechanism to observe).
    pub breakhammer_options: Vec<bool>,
    /// `true` sweeps the attack suite (plus scenarios), `false` the benign
    /// suite.
    pub attack: bool,
    /// Workload-generation seeds; each seed regenerates the full mix suite.
    pub seeds: Vec<u64>,
    /// Test-only fault hook (the CLI reads `BH_TEST_FORCE_PANIC_MIX` into
    /// it): cells whose mix name contains this pattern panic instead of
    /// evaluating, exercising the panic-isolation path end to end. `None`
    /// in production.
    pub force_panic_mix: Option<String>,
    /// Test-only fault hook (the CLI reads `BH_TEST_FORCE_SPIN_MIX` into
    /// it): cells whose mix name contains this pattern evaluate under an
    /// injected livelock, so the watchdog classifies them `"livelock"`
    /// deterministically. Cell identity stays that of the base
    /// configuration. `None` in production.
    pub force_spin_mix: Option<String>,
}

impl CampaignSpec {
    /// A spec covering `scale`'s N_RH sweep for the given mechanisms, both
    /// BreakHammer arms, and `scale.seed` as the only seed.
    pub fn from_scale(scale: Scale, mechanisms: Vec<MechanismKind>, attack: bool) -> Self {
        CampaignSpec {
            nrh_values: scale.nrh_values.clone(),
            seeds: vec![scale.seed],
            breakhammer_options: vec![false, true],
            mechanisms,
            attack,
            scale,
            force_panic_mix: None,
            force_spin_mix: None,
        }
    }

    /// Runs the sweep, streaming each evaluated cell to `store` and skipping
    /// the cells in `completed` (the settled set on resume). `cell_limit`
    /// caps how many cells this invocation evaluates (used to exercise
    /// interruption deterministically in tests and CI; a real interruption —
    /// SIGKILL, OOM — leaves the same store state, minus any cell that was
    /// mid-evaluation).
    pub fn run(
        &self,
        store: &ResultStore,
        completed: &HashSet<String>,
        cell_limit: Option<usize>,
    ) -> SweepSummary {
        let summary = Mutex::new(SweepSummary::default());
        // The id and seed of each job, in the pool's order.
        let cells: Mutex<Vec<(String, u64)>> = Mutex::new(Vec::new());
        let mut budget = cell_limit.unwrap_or(usize::MAX);
        // Suites are planned one by one as the pool draws them; the first
        // plan resolves the scenario names, before any cell runs.
        let suites = self.seeds.iter().filter_map(|&seed| {
            let mut scale = self.scale.clone();
            scale.seed = seed;
            // Mixes and alone baselines depend on the seed, so each seed
            // gets its own suite (and its own alone-IPC baselines: same app
            // name, different trace).
            let suite = Suite::new(&scale);
            let configs = config_matrix(
                &self.mechanisms,
                &self.nrh_values,
                &self.breakhammer_options,
                &scale,
            );
            let mixes = suite.sweep_mixes(self.attack);
            let mut jobs = Vec::new();
            let mut summary = summary.lock().expect("no worker panics holding the summary");
            let mut cells = cells.lock().expect("no worker panics holding the cell ids");
            for (c, config) in configs.iter().enumerate() {
                let digest = config_digest(config);
                for &m in &mixes {
                    summary.total_cells += 1;
                    let id = format!("{digest}/{}/{seed}", suite.mix_name(m));
                    if completed.contains(&id) {
                        summary.skipped_cells += 1;
                    } else if budget == 0 {
                        summary.deferred_cells += 1;
                    } else {
                        budget -= 1;
                        jobs.push((c, m));
                        cells.push((id, seed));
                    }
                }
            }
            (!jobs.is_empty()).then(|| SuiteJobs { suite: Arc::new(suite), configs, jobs })
        });
        // Each outcome is tallied as its line is sealed; the pool keeps none.
        let on_cell = |i: usize, outcome: Result<&CellRecord, &str>| {
            let (id, seed) =
                cells.lock().expect("no worker panics holding the cell ids")[i].clone();
            match outcome {
                Ok(record) => store.append(&record_line(&id, seed, self.attack, record)),
                Err(error) => store.append(&failed_line(&id, seed, self.attack, error)),
            }
            summary.lock().expect("no worker panics holding the summary").tally(outcome);
        };
        let hooks = EvalHooks {
            force_panic_mix: self.force_panic_mix.as_deref(),
            force_spin_mix: self.force_spin_mix.as_deref(),
            on_claim: &|_| {},
            on_record: &on_cell,
        };
        evaluate_suites(suites, self.scale.worker_threads, &hooks);
        summary.into_inner().expect("the pool has joined")
    }
}

/// What a sweep invocation did with each cell of the grid.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SweepSummary {
    /// Cells in the full (configuration × mix × seed) grid.
    pub total_cells: usize,
    /// Cells already present in the store (resume skipped them).
    pub skipped_cells: usize,
    /// Cells evaluated and appended by this invocation.
    pub evaluated_cells: usize,
    /// Cells left unevaluated because the `cell_limit` budget ran out.
    pub deferred_cells: usize,
    /// Cells whose evaluation panicked: recorded as `"failed"` lines in the
    /// store (surfaced by `report`, retried by `resume`) instead of killing
    /// the sweep.
    pub failed_cells: usize,
    /// Evaluated cells (a subset of `evaluated_cells`) whose run the
    /// forward-progress watchdog classified as livelocked.
    pub livelock_cells: usize,
    /// Evaluated cells (a subset of `evaluated_cells`) whose run exceeded a
    /// deterministic per-run budget.
    pub budget_cells: usize,
}

impl SweepSummary {
    /// Counts one evaluated cell's outcome.
    fn tally(&mut self, outcome: Result<&CellRecord, &str>) {
        match outcome {
            Ok(record) => {
                self.evaluated_cells += 1;
                match record.status.as_str() {
                    "livelock" => self.livelock_cells += 1,
                    "budget" => self.budget_cells += 1,
                    _ => {}
                }
            }
            Err(_) => self.failed_cells += 1,
        }
    }

    /// True when the store now covers the whole grid.
    pub fn complete(&self) -> bool {
        self.skipped_cells + self.evaluated_cells == self.total_cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::BUILT;
    use crate::Campaign;
    use bh_sim::baseline_traces;
    use bh_workloads::{CompiledTrace, WorkloadMix};
    use std::collections::BTreeSet;

    /// What every suite of `seeds` built while `f` ran: (traces, baselines)
    /// per seed. Each test uses seeds of its own.
    fn built_during(seeds: &[u64], f: impl FnOnce()) -> Vec<[usize; 2]> {
        let read = || {
            let built = BUILT.lock().expect("counting never panics");
            seeds.iter().map(|seed| built.get(seed).copied().unwrap_or_default()).collect()
        };
        let before: Vec<[usize; 2]> = read();
        f();
        read().iter().zip(&before).map(|(a, b)| [a[0] - b[0], a[1] - b[1]]).collect()
    }

    fn temp_store(tag: &str) -> (std::path::PathBuf, ResultStore) {
        let path =
            std::env::temp_dir().join(format!("bh-sweep-{tag}-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let store = ResultStore::create(&path).expect("fresh store");
        (path, store)
    }

    /// `benchmark/`'s `campaign_sweep` grid — six suites of one mix per
    /// attack class, Graphene and PARA at N_RH 1024 and 64, ±BreakHammer —
    /// at a tiny instruction count, which no input depends on. Its cells
    /// replay 60 distinct traces and read 40 baselines, and that is all a
    /// sweep builds: the 13 traces and 9 baselines a suite's `Campaign::new`
    /// and `warmed_alone_cache` build include the benign suite's.
    #[test]
    fn the_campaign_sweep_grid_builds_sixty_traces_and_forty_baselines() {
        let mut scale = Scale::quick();
        scale.instructions_per_core = 1_000;
        scale.benign_entries = 400;
        scale.attacker_entries = 400;
        scale.mixes_per_class = 1;
        scale.nrh_values = vec![1024, 64];
        scale.worker_threads = 2;
        let mut spec = CampaignSpec::from_scale(
            scale,
            vec![MechanismKind::Graphene, MechanismKind::Para],
            true,
        );
        spec.seeds = (0..6).map(|i| 42 * 6 + i).collect();
        let (path, store) = temp_store("grid");
        let built = built_during(&spec.seeds, || {
            let summary = spec.run(&store, &HashSet::new(), None);
            assert_eq!((summary.evaluated_cells, summary.total_cells), (288, 288), "{summary:?}");
        });
        let traces: usize = built.iter().map(|b| b[0]).sum();
        let baselines: usize = built.iter().map(|b| b[1]).sum();
        assert_eq!((traces, baselines), (60, 40), "per suite: {built:?}");
        std::fs::remove_file(path).expect("cleanup");
    }

    /// An unknown scenario stops the sweep before its first cell.
    #[test]
    fn an_unknown_scenario_stops_the_sweep_before_its_first_cell() {
        let mut scale = Scale::quick();
        scale.scenarios = vec!["not-a-scenario".to_string()];
        let spec = CampaignSpec::from_scale(scale, vec![MechanismKind::Graphene], true);
        let (path, store) = temp_store("unknown-scenario");
        let run = std::panic::catch_unwind(|| spec.run(&store, &HashSet::new(), None));
        let message = crate::experiments::panic_message(run.expect_err("the sweep stops"));
        assert!(message.contains("unknown attack scenario"), "{message}");
        drop(store);
        assert_eq!(std::fs::read_to_string(&path).expect("store is readable"), "");
        std::fs::remove_file(path).expect("cleanup");
    }

    /// A resumed sweep whose pending cells are one mix of one suite builds
    /// that mix's traces and its applications' baselines (with the traces
    /// they are measured on), and nothing for any other mix or suite.
    #[test]
    fn a_resumed_sweep_builds_only_what_its_pending_cells_read() {
        let mut scale = Scale::quick();
        scale.instructions_per_core = 1_000;
        scale.benign_entries = 400;
        scale.attacker_entries = 400;
        scale.mixes_per_class = 1;
        scale.worker_threads = 2;
        for attack in [true, false] {
            let mut spec =
                CampaignSpec::from_scale(scale.clone(), vec![MechanismKind::Graphene], attack);
            spec.nrh_values = vec![64];
            spec.seeds = if attack { vec![9_001, 9_002] } else { vec![9_003, 9_004] };
            let (path, store) = temp_store(&format!("resume-{attack}"));
            assert!(spec.run(&store, &HashSet::new(), None).complete());
            drop(store);
            // Forget the cells of the second suite's second mix. What they
            // read: the mix's traces, and each application's baseline on the
            // first trace the attack, then benign mixes give it.
            let mut suite_scale = scale.clone();
            suite_scale.seed = spec.seeds[1];
            let campaign = Campaign::new(suite_scale);
            let all: Vec<WorkloadMix> =
                campaign.sweep_mixes(true).into_iter().chain(campaign.sweep_mixes(false)).collect();
            let first_seen = baseline_traces(&all);
            let mix = &campaign.sweep_mixes(attack)[1];
            let apps: BTreeSet<&str> =
                mix.benign_threads().iter().map(|&t| mix.app_names[t].as_str()).collect();
            let mut traces: Vec<&CompiledTrace> = mix.traces.iter().collect();
            for app in &apps {
                if !traces.contains(&first_seen[app]) {
                    traces.push(first_seen[app]);
                }
            }
            let pattern = format!("/{}/{}", mix.name, spec.seeds[1]);
            let settled: HashSet<String> = ResultStore::settled_cells(&path)
                .expect("store parses")
                .into_iter()
                .filter(|cell| !cell.ends_with(&pattern))
                .collect();
            let store = ResultStore::append_to(&path).expect("store reopens");
            let built = built_during(&spec.seeds, || {
                let resumed = spec.run(&store, &settled, None);
                assert_eq!(resumed.evaluated_cells, 2, "{resumed:?}");
                assert!(resumed.complete(), "{resumed:?}");
            });
            assert_eq!(built, [[0, 0], [traces.len(), apps.len()]], "attack {attack}");
            std::fs::remove_file(path).expect("cleanup");
        }
    }
}
