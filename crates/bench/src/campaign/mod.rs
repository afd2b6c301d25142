//! Checkpoint/resume campaign engine.
//!
//! A campaign is a (configuration × mix × seed) grid of *cells*. The engine
//! streams each completed cell to a JSONL *result store* — one self-contained
//! JSON object per line, flushed as soon as the cell finishes — so a killed
//! sweep loses at most the cells in flight. Resuming parses the store,
//! collects the completed cell ids and skips them; an interrupted sweep
//! followed by a resume produces the same result set as an uninterrupted
//! sweep (cells are deterministic, only their order in the file differs).
//!
//! Cell identity is `"<config digest>/<mix name>/<seed>"`, where the digest
//! is FNV-1a-64 over the configuration's `Debug` representation — any
//! configuration change (mechanism, threshold, timing, scale) changes the
//! digest, so a store can never silently mix results from different sweeps.
//!
//! Three private modules, one concern each: `store` owns the file and its
//! format ([`ResultStore`], [`CellRecord`], over a JSON-subset
//! reader/writer), `sweep` schedules cells into a store ([`CampaignSpec`]),
//! `report` aggregates what a store holds ([`report_table`]).

mod json;
mod report;
mod store;
mod sweep;

pub use report::report_table;
pub use store::{
    cell_id, config_digest, evaluated_cells, failed_line, pending_failures, record_line,
    termination_status, verdict_cells, CellRecord, FailedCell, ResultStore, StoreEntry,
    SCHEMA_VERSION,
};
pub use sweep::{CampaignSpec, SweepSummary};
