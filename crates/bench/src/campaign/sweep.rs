//! The sweep engine: a [`CampaignSpec`] run into a
//! [`ResultStore`], one checkpointed cell at a time.

// The settled-cell set is membership state, never iterated for results.
#![allow(clippy::disallowed_types)]

use super::store::{config_digest, failed_line, record_line, CellRecord, ResultStore};
use crate::experiments::{config_matrix, evaluate_jobs, EvalHooks};
use crate::scale::Scale;
use crate::Campaign;
use bh_mitigation::MechanismKind;
use std::collections::HashSet;

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
        let mut summary = SweepSummary::default();
        let mut budget = cell_limit.unwrap_or(usize::MAX);
        for &seed in &self.seeds {
            let mut scale = self.scale.clone();
            scale.seed = seed;
            // Mixes and alone baselines depend on the seed, so each seed
            // gets its own campaign (and its own alone-IPC baselines: same
            // app name, different trace).
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
            let alone = campaign.warmed_alone_cache();
            let on_cell = |i: usize, outcome: Result<&CellRecord, &str>| match outcome {
                Ok(record) => store.append(&record_line(&cells[i], seed, self.attack, record)),
                Err(error) => store.append(&failed_line(&cells[i], seed, self.attack, error)),
            };
            let hooks = EvalHooks {
                force_panic_mix: self.force_panic_mix.as_deref(),
                force_spin_mix: self.force_spin_mix.as_deref(),
                on_claim: &|_| {},
                on_record: &on_cell,
            };
            let results =
                evaluate_jobs(&configs, &mixes, &jobs, alone, scale.worker_threads, &hooks);
            for result in &results {
                match result {
                    Ok(record) => {
                        summary.evaluated_cells += 1;
                        match record.status.as_str() {
                            "livelock" => summary.livelock_cells += 1,
                            "budget" => summary.budget_cells += 1,
                            _ => {}
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
