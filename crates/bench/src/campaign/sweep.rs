//! The sweep engine: a [`CampaignSpec`] run into a
//! [`ResultStore`], one checkpointed cell at a time, with an
//! optional wall-clock [`CellOverseer`] around the cells in flight.

// Hash collections are deliberate here: the settled-cell set and the
// overseer's in-flight map are membership state, never iterated for results.
#![allow(clippy::disallowed_types)]

use super::store::{config_digest, failed_line, record_line, ResultStore};
use crate::experiments::{config_matrix, evaluate_jobs, EvalHooks, RunRecord};
use crate::scale::Scale;
use crate::Campaign;
use bh_mitigation::MechanismKind;
use bh_sim::TerminationReason;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

// --- wall-clock overseer ----------------------------------------------------

/// Last-resort wall-clock watchdog over in-flight campaign cells.
///
/// The simulator's own forward-progress watchdog is deterministic and lives
/// inside the sim crates; this overseer is the safety net *around* it — if a
/// cell somehow runs past a wall-clock budget (a sim bug the deterministic
/// watchdog misses, a pathological configuration with the watchdog disabled),
/// it warns on stderr, once per cell, and keeps the sweep running. It never
/// influences results, so keeping it (and the only wall-clock reads of the
/// workspace outside tests) confined to the campaign layer preserves the
/// sim crates' determinism lint.
#[derive(Debug)]
pub struct CellOverseer {
    shared: Arc<OverseerShared>,
    watcher: Option<std::thread::JoinHandle<()>>,
}

#[derive(Debug)]
struct OverseerShared {
    timeout: Duration,
    state: Mutex<OverseerState>,
    wakeup: Condvar,
}

#[derive(Debug, Default)]
struct OverseerState {
    running: HashMap<String, Instant>,
    overdue: Vec<String>,
    stop: bool,
}

impl CellOverseer {
    /// Starts an overseer with an explicit per-cell wall-clock budget.
    pub fn new(timeout: Duration) -> Self {
        let shared = Arc::new(OverseerShared {
            timeout,
            state: Mutex::new(OverseerState::default()),
            wakeup: Condvar::new(),
        });
        let watcher_shared = Arc::clone(&shared);
        let watcher = std::thread::spawn(move || watcher_shared.watch());
        CellOverseer { shared, watcher: Some(watcher) }
    }

    /// Marks a cell as in flight (called when a worker claims it).
    // The overseer is the one deliberate wall-clock consumer outside the
    // tests: it only warns, never feeds results, which is why it may read
    // the clock `clippy.toml` disallows.
    #[allow(clippy::disallowed_methods)]
    pub fn begin(&self, cell: &str) {
        let mut state = self.shared.lock_state();
        state.running.insert(cell.to_string(), Instant::now());
    }

    /// Marks a cell as finished (completed or panicked) — it is no longer
    /// watched.
    pub fn finish(&self, cell: &str) {
        let mut state = self.shared.lock_state();
        state.running.remove(cell);
    }

    /// The cells that exceeded the wall-clock budget so far, in detection
    /// order (each warned once on stderr).
    pub fn overdue_cells(&self) -> Vec<String> {
        self.shared.lock_state().overdue.clone()
    }
}

impl Drop for CellOverseer {
    fn drop(&mut self) {
        self.shared.lock_state().stop = true;
        self.shared.wakeup.notify_all();
        if let Some(watcher) = self.watcher.take() {
            // The watcher only sleeps and prints; a panic there must not
            // cascade into the sweep's teardown.
            let _ = watcher.join();
        }
    }
}

impl OverseerShared {
    /// Locks the state, recovering from poison: the state is a plain map of
    /// start times, valid after any panic.
    fn lock_state(&self) -> std::sync::MutexGuard<'_, OverseerState> {
        self.state.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    // Wall clock is this thread's whole job: measuring how long cells have
    // been in flight. Warn-only — results never depend on it.
    #[allow(clippy::disallowed_methods)]
    fn watch(&self) {
        let mut state = self.lock_state();
        loop {
            if state.stop {
                return;
            }
            let now = Instant::now();
            let over: Vec<String> = state
                .running
                .iter()
                .filter(|(_, started)| now.duration_since(**started) >= self.timeout)
                .map(|(cell, _)| cell.clone())
                .collect();
            for cell in over {
                state.running.remove(&cell);
                state.overdue.push(cell.clone());
                eprintln!(
                    "warning: campaign cell {cell} has been running for over {:?} of wall \
                     clock; the sweep continues — check the deterministic watchdog \
                     configuration (BH_WATCHDOG_*) if this cell never settles",
                    self.timeout
                );
            }
            // Poll at a fraction of the budget so detection latency stays
            // proportionate, bounded for very small test budgets.
            let poll = (self.timeout / 4).clamp(Duration::from_millis(5), Duration::from_secs(1));
            let (next, _) = self
                .wakeup
                .wait_timeout(state, poll)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            state = next;
        }
    }
}

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
    /// Wall-clock budget per cell (the CLI passes `BH_CELL_TIMEOUT_SECS`
    /// here): a [`CellOverseer`] watches the in-flight cells and warns about
    /// any that exceed it — a last resort confined to this campaign layer;
    /// the deterministic in-simulator watchdog is the real defense. `None`
    /// (the default) reads no wall clock at all.
    pub cell_timeout: Option<Duration>,
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
            cell_timeout: None,
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
        let overseer = self.cell_timeout.map(CellOverseer::new);
        let mut summary = SweepSummary::default();
        let mut budget = cell_limit.unwrap_or(usize::MAX);
        for &seed in &self.seeds {
            let mut scale = self.scale.clone();
            scale.seed = seed;
            // Mixes and alone baselines depend on the seed, so each seed
            // gets its own campaign (and its own alone-IPC cache: same app
            // name, different trace).
            let mut campaign = Campaign::new(scale.clone());
            let mixes = campaign.sweep_mixes(self.attack);
            let configs = config_matrix(
                &self.mechanisms,
                &self.nrh_values,
                &self.breakhammer_options,
                &scale,
            );
            let mut jobs: Vec<(usize, usize)> = Vec::new();
            let mut cells: Vec<String> = Vec::new();
            for (c, config) in configs.iter().enumerate() {
                let digest = config_digest(config);
                for (m, mix) in mixes.iter().enumerate() {
                    summary.total_cells += 1;
                    let id = format!("{digest}/{}/{seed}", mix.name);
                    if completed.contains(&id) {
                        summary.skipped_cells += 1;
                    } else if budget == 0 {
                        summary.deferred_cells += 1;
                    } else {
                        budget -= 1;
                        jobs.push((c, m));
                        cells.push(id);
                    }
                }
            }
            if jobs.is_empty() {
                continue;
            }
            let cache = campaign.warmed_alone_cache().clone();
            let on_claim = |i: usize| {
                if let Some(overseer) = &overseer {
                    overseer.begin(&cells[i]);
                }
            };
            let on_cell = |i: usize, outcome: Result<&RunRecord, &str>| {
                if let Some(overseer) = &overseer {
                    overseer.finish(&cells[i]);
                }
                match outcome {
                    Ok(record) => store.append(&record_line(&cells[i], seed, self.attack, record)),
                    Err(error) => store.append(&failed_line(&cells[i], seed, self.attack, error)),
                }
            };
            let hooks = EvalHooks {
                force_panic_mix: self.force_panic_mix.as_deref(),
                force_spin_mix: self.force_spin_mix.as_deref(),
                on_claim: &on_claim,
                on_record: &on_cell,
            };
            let results =
                evaluate_jobs(&configs, &mixes, &jobs, &cache, scale.worker_threads, &hooks);
            for result in &results {
                match result {
                    Ok(record) => {
                        summary.evaluated_cells += 1;
                        match record.termination {
                            TerminationReason::Livelock => summary.livelock_cells += 1,
                            TerminationReason::BudgetExceeded => summary.budget_cells += 1,
                            TerminationReason::Completed | TerminationReason::CycleCutoff => {}
                        }
                    }
                    Err(_) => summary.failed_cells += 1,
                }
            }
        }
        summary
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
    /// True when the store now covers the whole grid.
    pub fn complete(&self) -> bool {
        self.skipped_cells + self.evaluated_cells == self.total_cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    // Wall clock is what the overseer measures; the test must read it too.
    #[allow(clippy::disallowed_methods)]
    fn overseer_flags_overdue_cells_once_and_forgets_finished_ones() {
        let overseer = CellOverseer::new(Duration::from_millis(20));
        overseer.begin("fast/m/1");
        overseer.finish("fast/m/1");
        overseer.begin("slow/m/1");
        let deadline = Instant::now() + Duration::from_secs(5);
        while overseer.overdue_cells().is_empty() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(overseer.overdue_cells(), vec!["slow/m/1".to_string()]);
        // Finished before its budget ran out: never flagged, even later.
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(overseer.overdue_cells(), vec!["slow/m/1".to_string()]);
    }
}
