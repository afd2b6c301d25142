//! # bh-bench — the experiment harness
//!
//! Regenerates every table and figure of the BreakHammer paper's evaluation.
//! The figures are rows of one registry ([`figures::FIGURES`]) rendered by
//! one binary — `cargo run -p bh-bench --release --bin bh_campaign -- fig
//! <id>` — which also drives checkpointed sweeps (`sweep` / `resume` /
//! `report`, the [`campaign`] engine). The shared machinery — workload-mix
//! campaigns, parallel evaluation, aggregation and table/CSV output — lives
//! in `experiments` ([`Campaign`], [`evaluate_jobs`]); [`scale`] turns the
//! `BH_*` environment variables into typed values once, at the binary edge.
//! One [`CellRecord`] describes an evaluated cell everywhere: it is what
//! [`evaluate_jobs`] returns, what the figures aggregate, and what a line of
//! a [`ResultStore`] holds.
//!
//! Host-time measurement is not this crate's job: the repository's one
//! performance harness is the standalone `benchmark/` package, which drives
//! [`campaign`] and the `experiments` items re-exported here.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod campaign;
mod experiments;
pub mod figures;
pub mod scale;

pub use campaign::{
    termination_status, CampaignSpec, CellRecord, FailedCell, ResultStore, StoreEntry, SweepSummary,
};
pub use experiments::{
    config_label, config_matrix, evaluate_jobs, geomean_speedup, mean_of, paper_config,
    render_results, select, Campaign, EvalHooks, RunRecord,
};
pub use scale::{BenchEnv, Scale};
