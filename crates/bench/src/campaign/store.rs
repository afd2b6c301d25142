//! The result store: an append-only JSONL file of evaluated cells, and the
//! one module that knows its format.
//!
//! Each line is one flat JSON object — an evaluated cell ([`CellRecord`]) or
//! a recorded panic ([`FailedCell`]) — sealed with a trailing FNV-1a `crc`
//! field and flushed as soon as its cell finishes. Everything about the
//! bytes lives here: cell identity, the seal, the JSON subset the lines use
//! (hand-rolled: the workspace vendors no JSON crate), the field schema, and
//! the file itself with its retrying append and its one tolerant reader,
//! [`ResultStore::entries`], which every other read folds.

// Hash collections are deliberate here: parsed objects and cell-id sets are
// lookup/membership state that is never iterated for output, and bh-bench is
// outside the digest-pinned set.
#![allow(clippy::disallowed_types)]

use super::json::{parse_object, push_field, take_field, Json};
use bh_sim::{MixEvaluation, SystemConfig, TerminationReason};
use bh_workloads::WorkloadMix;
use std::collections::{HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Version tag written into every result line; bump on schema changes so
/// readers can reject stores written by an incompatible engine.
///
/// v3 widened the per-cell `status` taxonomy to
/// `"ok" | "failed" | "livelock" | "budget"` (a typed run outcome instead of
/// ok-or-panic), added the `termination` field plus the rendered
/// `livelock_report` snapshot, and sealed every line with a trailing FNV-1a
/// `crc` field so torn or spliced lines are rejected instead of misread.
/// v2 added the `status` field (`"ok"` / `"failed"`), the attack-outcome
/// fields and failed-cell lines. Older stores parse to nothing, so resuming
/// one with a v3 engine reruns every cell.
pub const SCHEMA_VERSION: u64 = 3;

// --- cell identity ----------------------------------------------------------

fn fnv1a64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Digest identifying a system configuration inside cell ids: FNV-1a-64 over
/// the `Debug` representation, which covers every field (timings, caches,
/// mechanism parameters — not just the mechanism/N_RH headline).
pub fn config_digest(config: &SystemConfig) -> String {
    format!("{:016x}", fnv1a64(format!("{config:?}").bytes()))
}

/// The identity of one campaign cell: configuration digest, mix name and
/// workload seed. This is what resume matches on.
pub fn cell_id(config: &SystemConfig, mix_name: &str, seed: u64) -> String {
    format!("{}/{mix_name}/{seed}", config_digest(config))
}

// --- line seal --------------------------------------------------------------

/// What separates a line's body from its seal.
const CRC_FIELD: &str = ",\"crc\":\"";

/// Seals a serialised line (which must be a complete `{…}` object) by
/// appending a final `"crc"` field: FNV-1a-64 over the line *without* the crc
/// field. A torn write, a spliced hybrid of two records, or any in-place edit
/// breaks the seal, and every reader drops the line instead of misreading it.
fn seal_line(mut line: String) -> String {
    debug_assert!(line.ends_with('}'), "seal_line wants a complete object");
    let crc = fnv1a64(line.bytes());
    line.pop();
    line.push_str(&format!("{CRC_FIELD}{crc:016x}\"}}"));
    line
}

/// True if `line` ends with a `"crc"` seal that matches its own content.
fn seal_intact(line: &str) -> bool {
    let line = line.trim_end();
    let Some(idx) = line.rfind(CRC_FIELD) else { return false };
    let Some(hex) = line[idx + CRC_FIELD.len()..].strip_suffix("\"}") else { return false };
    let Ok(crc) = u64::from_str_radix(hex, 16) else { return false };
    fnv1a64(line[..idx].bytes().chain([b'}'])) == crc
}

// --- result lines -----------------------------------------------------------

/// One evaluated (configuration, mix) pair, flattened: what
/// [`evaluate_jobs`](crate::evaluate_jobs) returns, what the figures
/// aggregate, and what one line of a result store holds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CellRecord {
    /// Cell id (`"<config digest>/<mix>/<seed>"`).
    pub cell: String,
    /// Mechanism label (round-trips through [`bh_mitigation::MechanismKind::parse`]).
    pub mechanism: String,
    /// RowHammer threshold.
    pub nrh: u64,
    /// Whether BreakHammer was attached.
    pub breakhammer: bool,
    /// Workload-generation seed of the cell.
    pub seed: u64,
    /// Mix instance name.
    pub mix: String,
    /// Mix class label (e.g. `"HHHA"`).
    pub mix_class: String,
    /// Attack-scenario tag (`None` for classic/benign mixes).
    pub scenario: Option<String>,
    /// Whether the sweep used the attack suite.
    pub attack: bool,
    /// Weighted speedup over the benign applications.
    pub weighted_speedup: f64,
    /// Maximum slowdown of a benign application.
    pub max_slowdown: f64,
    /// DRAM energy in nanojoules.
    pub energy_nj: f64,
    /// RowHammer-preventive actions performed.
    pub preventive_actions: u64,
    /// Benign memory-latency percentiles in nanoseconds (p50, p90, p99).
    pub latency_ns: [f64; 3],
    /// True if the attacker thread was flagged as a suspect.
    pub attacker_identified: bool,
    /// True if a benign thread was flagged as a suspect.
    pub benign_misidentified: bool,
    /// Would-be RowHammer bitflips (must be 0 for deterministic mechanisms).
    pub bitflips: u64,
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
    /// Whether the cell satisfied its mix's attack-success criterion.
    pub attack_success: bool,
    /// Run-outcome status of the cell: `"ok"` (completed or hit the cycle
    /// cutoff), `"livelock"` (the forward-progress watchdog fired) or
    /// `"budget"` (a deterministic per-run budget was exceeded). Panicked
    /// cells are [`FailedCell`]s, not `CellRecord`s.
    pub status: String,
    /// The simulator's termination label (`"completed"`, `"cutoff"`,
    /// `"livelock"`, `"budget"`) — finer than `status`, which folds the two
    /// healthy outcomes into `"ok"`.
    pub termination: String,
    /// Rendered [`bh_sim::LivelockReport`] snapshot (`None` unless `status`
    /// is `"livelock"`).
    pub livelock_report: Option<String>,
}

/// The store status a run outcome maps to: both healthy endings are `"ok"`;
/// the watchdog verdicts get their own statuses so `resume` can settle them
/// and `report --strict` can flag them.
pub fn termination_status(termination: TerminationReason) -> &'static str {
    match termination {
        TerminationReason::Completed | TerminationReason::CycleCutoff => "ok",
        TerminationReason::Livelock => "livelock",
        TerminationReason::BudgetExceeded => "budget",
    }
}

/// The schema of an evaluated cell's line, in line order: each JSONL key and
/// the [`CellRecord`] field it carries (the field's Rust type picks the JSON
/// type). [`CellRecord::to_line`] and [`CellRecord::parse`] both expand this
/// one list, so a field cannot be written without being read back.
macro_rules! cell_schema {
    ($field:ident) => {
        $field!("status", status);
        $field!("cell", cell);
        $field!("mechanism", mechanism);
        $field!("nrh", nrh);
        $field!("breakhammer", breakhammer);
        $field!("seed", seed);
        $field!("mix", mix);
        $field!("mix_class", mix_class);
        $field!("scenario", scenario);
        $field!("attack", attack);
        $field!("weighted_speedup", weighted_speedup);
        $field!("max_slowdown", max_slowdown);
        $field!("energy_nj", energy_nj);
        $field!("preventive_actions", preventive_actions);
        $field!("latency_p50_ns", latency_ns[0]);
        $field!("latency_p90_ns", latency_ns[1]);
        $field!("latency_p99_ns", latency_ns[2]);
        $field!("attacker_identified", attacker_identified);
        $field!("benign_misidentified", benign_misidentified);
        $field!("bitflips", bitflips);
        $field!("max_victim_disturbance", max_victim_disturbance);
        $field!("flips_raw", flips_raw);
        $field!("flips_corrected", flips_corrected);
        $field!("flips_detected", flips_detected);
        $field!("flips_silent", flips_silent);
        $field!("attack_success", attack_success);
        $field!("termination", termination);
        $field!("livelock_report", livelock_report);
    };
}

/// Opens a line: every line of a store starts with its schema version.
fn open_line(capacity: usize) -> String {
    let mut out = String::with_capacity(capacity);
    out.push('{');
    push_field(&mut out, "schema", &SCHEMA_VERSION);
    out
}

impl CellRecord {
    /// True for cells whose run ended healthily (completed or cycle cutoff).
    pub fn is_ok(&self) -> bool {
        self.status == "ok"
    }

    /// Flattens `mix` evaluated under `config`. `status` reflects the run's
    /// termination (`"ok"`, `"livelock"` or `"budget"`), `seed` is the
    /// configuration's and `attack` whether the mix has an attacker; `cell`
    /// stays empty (the sweep names a cell when it writes the line).
    pub(crate) fn from_eval(
        config: &SystemConfig,
        mix: &WorkloadMix,
        eval: &MixEvaluation,
    ) -> Self {
        let result = &eval.result;
        let benign = mix.benign_threads();
        let hist = result.merged_latency(&benign);
        let to_ns = |cycles: u64| config.timing.cycles_to_ns(cycles);
        CellRecord {
            status: termination_status(result.termination).to_string(),
            cell: String::new(),
            mechanism: config.mechanism.label().to_string(),
            nrh: config.nrh,
            breakhammer: config.breakhammer,
            seed: config.seed,
            mix: mix.name.clone(),
            mix_class: mix.class.label(),
            scenario: mix.scenario.clone(),
            attack: mix.attacker_thread.is_some(),
            weighted_speedup: eval.weighted_speedup,
            max_slowdown: eval.max_slowdown,
            energy_nj: result.energy_nj,
            preventive_actions: result.preventive_actions,
            latency_ns: [50.0, 90.0, 99.0].map(|p| to_ns(hist.percentile(p))),
            attacker_identified: mix.attacker_thread.is_some_and(|t| result.ever_suspect[t]),
            benign_misidentified: benign.iter().any(|t| result.ever_suspect[*t]),
            bitflips: result.bitflips as u64,
            max_victim_disturbance: result.max_victim_disturbance(),
            flips_raw: result.outcome.flips_raw,
            flips_corrected: result.outcome.corrected,
            flips_detected: result.outcome.detected,
            flips_silent: result.outcome.silent,
            attack_success: result.outcome.attack_success,
            termination: result.termination.label().to_string(),
            livelock_report: result.livelock.as_ref().map(|report| report.to_string()),
        }
    }

    /// Serialises the record as a single sealed JSONL line (no trailing
    /// newline).
    pub fn to_line(&self) -> String {
        let mut out = open_line(512);
        macro_rules! put {
            ($key:literal, $($field:tt)+) => {
                push_field(&mut out, $key, &self.$($field)+)
            };
        }
        cell_schema!(put);
        out.push('}');
        seal_line(out)
    }

    /// Parses one store line; `None` for malformed, schema-mismatched or
    /// seal-broken lines (e.g. a line truncated by a kill mid-write, or a
    /// torn write splicing two records together).
    pub fn parse(line: &str) -> Option<Self> {
        match StoreEntry::parse(line)? {
            StoreEntry::Completed(record) => Some(*record),
            StoreEntry::Failed(_) => None,
        }
    }

    fn from_fields(map: &mut HashMap<String, Json<'_>>) -> Option<Self> {
        let mut record = CellRecord::default();
        macro_rules! take {
            ($key:literal, $($field:tt)+) => {
                record.$($field)+ = take_field(map, $key)?
            };
        }
        cell_schema!(take);
        Some(record)
    }
}

/// Serialises `r` as the sealed JSONL line (no trailing newline) of cell
/// `cell`, with its `seed` and `attack` fields set to those given.
pub fn record_line(cell: &str, seed: u64, attack: bool, r: &CellRecord) -> String {
    CellRecord { cell: cell.to_string(), seed, attack, ..r.clone() }.to_line()
}

/// Serialises one *failed* cell (a cell whose evaluation panicked) as a
/// single JSONL line. Failed lines keep the sweep's checkpoint stream
/// append-only — the panic is recorded instead of killing the sweep — and
/// are retried by `resume` (they never count as completed).
pub fn failed_line(cell: &str, seed: u64, attack: bool, error: &str) -> String {
    let mut out = open_line(256);
    push_field(&mut out, "status", &"failed".to_string());
    push_field(&mut out, "cell", &cell.to_string());
    push_field(&mut out, "seed", &seed);
    push_field(&mut out, "attack", &attack);
    push_field(&mut out, "error", &error.to_string());
    out.push('}');
    seal_line(out)
}

/// One failed cell parsed back from a result store (a cell whose evaluation
/// panicked; `resume` retries it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailedCell {
    /// Cell id (`"<config digest>/<mix>/<seed>"`).
    pub cell: String,
    /// The panic message recorded when the cell failed.
    pub error: String,
}

/// One well-formed line of a result store: an evaluated cell (status `"ok"`,
/// `"livelock"` or `"budget"`) or a recorded failure. Malformed lines
/// (truncated, garbage, seal-broken, foreign schema) parse to neither and
/// are skipped by every reader.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreEntry {
    /// An evaluated cell with its measurements and run outcome (boxed: a
    /// record is an order of magnitude larger than a failure note).
    Completed(Box<CellRecord>),
    /// A cell whose evaluation panicked.
    Failed(FailedCell),
}

impl StoreEntry {
    /// Parses one store line — one seal check, one scan — into whichever
    /// entry its `status` says it is; `None` for malformed or foreign lines.
    pub fn parse(line: &str) -> Option<Self> {
        if !seal_intact(line) {
            return None;
        }
        let mut map = parse_object(line)?;
        if take_field::<u64>(&mut map, "schema")? != SCHEMA_VERSION {
            return None;
        }
        if matches!(map.get("status")?, Json::Str(status) if status == "failed") {
            let (cell, error) = (take_field(&mut map, "cell")?, take_field(&mut map, "error")?);
            return Some(StoreEntry::Failed(FailedCell { cell, error }));
        }
        CellRecord::from_fields(&mut map)
            .filter(|record| matches!(record.status.as_str(), "ok" | "livelock" | "budget"))
            .map(|record| StoreEntry::Completed(Box::new(record)))
    }
}

// --- result store -----------------------------------------------------------

/// Append-only JSONL store of evaluated cells, flushed per line so an
/// interrupted sweep checkpoints everything that finished.
pub struct ResultStore {
    path: PathBuf,
    writer: Mutex<BufWriter<Box<dyn Write + Send>>>,
}

impl std::fmt::Debug for ResultStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultStore").field("path", &self.path).finish_non_exhaustive()
    }
}

impl ResultStore {
    /// Creates a fresh store. Refuses a path that already holds data — a
    /// half-finished sweep must be continued with [`ResultStore::append_to`]
    /// (the CLI's `resume`), not silently truncated.
    pub fn create(path: &Path) -> io::Result<Self> {
        if path.exists() && std::fs::metadata(path)?.len() > 0 {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!(
                    "result store {} already holds data; use resume (or remove it) instead of overwriting",
                    path.display()
                ),
            ));
        }
        let file = File::create(path)?;
        Ok(Self::with_writer(path, Box::new(file)))
    }

    /// Opens an existing store for appending. Refuses a missing path — there
    /// is nothing to resume from.
    pub fn append_to(path: &Path) -> io::Result<Self> {
        if !path.exists() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("result store {} does not exist; run a sweep first", path.display()),
            ));
        }
        // A store killed mid-append can end with a torn line and no trailing
        // newline. Appending straight after it would glue the next record
        // onto the torn tail, corrupting that record too — terminate the
        // tail first so every new line starts at column zero. (The torn line
        // itself stays in the file; its broken crc seal makes every reader
        // drop it, and its cell reruns.)
        let needs_newline = {
            let mut file = File::open(path)?;
            if file.metadata()?.len() == 0 {
                false
            } else {
                file.seek(SeekFrom::End(-1))?;
                let mut last = [0u8; 1];
                file.read_exact(&mut last)?;
                last[0] != b'\n'
            }
        };
        let mut file = OpenOptions::new().append(true).open(path)?;
        if needs_newline {
            file.write_all(b"\n")?;
        }
        Ok(Self::with_writer(path, Box::new(file)))
    }

    /// Builds a store around an arbitrary writer. `path` is only used in
    /// error messages and by [`ResultStore::path`]. This is the injection
    /// point the chaos tests use to drive I/O faults (transient and
    /// persistent write failures) through [`ResultStore::append`]; production
    /// stores come from [`ResultStore::create`] / [`ResultStore::append_to`].
    pub fn with_writer(path: &Path, writer: Box<dyn Write + Send>) -> Self {
        ResultStore { path: path.to_path_buf(), writer: Mutex::new(BufWriter::new(writer)) }
    }

    /// The file backing the store.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one line and flushes it — the per-cell checkpoint.
    ///
    /// Transient flush errors (an NFS hiccup, a momentary ENOSPC) are
    /// retried a bounded number of times with exponential backoff before
    /// giving up: an hours-long sweep should not die on one blip. Only the
    /// flush is retried — the `BufWriter` tracks how much of its buffer a
    /// partial flush consumed, so re-flushing never duplicates bytes,
    /// whereas re-running the buffered write itself would.
    ///
    /// # Panics
    /// Panics — naming the store path — if buffering the line fails or the
    /// flush still fails after every retry: the store *is* the sweep's
    /// output, there is nothing sensible to degrade to.
    pub fn append(&self, line: &str) {
        const ATTEMPTS: u32 = 5;
        // A worker that panicked while holding the lock leaves at most one
        // torn line behind, and the per-line crc seal rejects torn lines on
        // read — so a poisoned lock is safe to recover instead of cascading
        // the panic into every other worker's checkpoint.
        let mut writer = self.writer.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        writeln!(writer, "{line}").unwrap_or_else(|e| {
            panic!("buffering a result line for {} failed: {e}", self.path.display())
        });
        let mut backoff = std::time::Duration::from_millis(10);
        for attempt in 1..=ATTEMPTS {
            match writer.flush() {
                Ok(()) => return,
                Err(e) if attempt == ATTEMPTS => panic!(
                    "flushing the campaign result store {} failed after {ATTEMPTS} attempts: {e}",
                    self.path.display()
                ),
                Err(_) => {
                    std::thread::sleep(backoff);
                    backoff *= 2;
                }
            }
        }
    }

    /// Every well-formed entry of a store (completed and failed cells), in
    /// file order: the store's one reader, which [`ResultStore::load`],
    /// [`ResultStore::settled_cells`] and the free folds below build on.
    /// Malformed lines — truncated tails, interior garbage, half-overwritten
    /// records — are skipped; their cells rerun on resume.
    pub fn entries(path: &Path) -> io::Result<Vec<StoreEntry>> {
        let mut entries = Vec::new();
        for line in BufReader::new(File::open(path)?).lines() {
            if let Some(entry) = StoreEntry::parse(&line?) {
                entries.push(entry);
            }
        }
        Ok(entries)
    }

    /// Every well-formed cell record of a store, in file order (failed cells
    /// excluded; livelock/budget verdicts included — filter on
    /// [`CellRecord::is_ok`] before aggregating performance numbers).
    pub fn load(path: &Path) -> io::Result<Vec<CellRecord>> {
        Ok(evaluated_cells(Self::entries(path)?))
    }

    /// The set of *settled* cell ids recorded in a store: every evaluated
    /// cell, whatever its outcome (`"ok"`, `"livelock"`, `"budget"`). This is
    /// the skip set `resume` uses — a livelock or budget verdict is
    /// deterministic, so rerunning the cell would reproduce it, not fix it.
    /// Malformed lines and failed (panicked) cells are not settled; their
    /// cells rerun on resume.
    pub fn settled_cells(path: &Path) -> io::Result<HashSet<String>> {
        Ok(Self::load(path)?.into_iter().map(|record| record.cell).collect())
    }
}

/// The evaluated cells among a store's entries, in file order.
pub fn evaluated_cells(entries: Vec<StoreEntry>) -> Vec<CellRecord> {
    entries
        .into_iter()
        .filter_map(|entry| match entry {
            StoreEntry::Completed(record) => Some(*record),
            StoreEntry::Failed(_) => None,
        })
        .collect()
}

/// Every evaluated cell whose run ended with a watchdog verdict
/// (`"livelock"` or `"budget"`), in file order, first verdict per cell.
pub fn verdict_cells(records: &[CellRecord]) -> Vec<CellRecord> {
    let mut seen = HashSet::new();
    records.iter().filter(|r| !r.is_ok() && seen.insert(r.cell.as_str())).cloned().collect()
}

/// The failed cells still pending a retry: cells with a `"failed"` line and
/// no completed line (a resume that succeeds leaves the old failed line in
/// place — the store is append-only), first failure per cell.
pub fn pending_failures(entries: &[StoreEntry]) -> Vec<FailedCell> {
    let mut seen: HashSet<&str> = entries
        .iter()
        .filter_map(|entry| match entry {
            StoreEntry::Completed(record) => Some(record.cell.as_str()),
            StoreEntry::Failed(_) => None,
        })
        .collect();
    entries
        .iter()
        .filter_map(|entry| match entry {
            StoreEntry::Failed(failed) if seen.insert(failed.cell.as_str()) => Some(failed.clone()),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
pub(super) mod tests {
    use super::super::report_table;
    use super::*;
    use crate::experiments::{config_matrix, evaluate_jobs, paper_config, EvalHooks};
    use crate::scale::Scale;
    use crate::Campaign;
    use bh_mitigation::MechanismKind;

    pub(in crate::campaign) fn sample_record() -> CellRecord {
        CellRecord {
            status: "ok".to_string(),
            cell: String::new(),
            mechanism: "Graphene".to_string(),
            nrh: 64,
            breakhammer: true,
            seed: 42,
            mix: "HHHA-00".to_string(),
            mix_class: "HHHA".to_string(),
            scenario: Some("fuzz-nbr".to_string()),
            attack: true,
            weighted_speedup: 3.25,
            max_slowdown: 1.5,
            energy_nj: 123456.75,
            preventive_actions: 42,
            latency_ns: [10.5, 20.25, 99.0],
            attacker_identified: true,
            benign_misidentified: false,
            bitflips: 0,
            max_victim_disturbance: 17,
            flips_raw: 9,
            flips_corrected: 4,
            flips_detected: 2,
            flips_silent: 3,
            attack_success: true,
            termination: "completed".to_string(),
            livelock_report: None,
        }
    }

    /// `sample_record` ended by `termination`, with its store status.
    fn ended(termination: TerminationReason, livelock_report: Option<&str>) -> CellRecord {
        CellRecord {
            status: termination_status(termination).to_string(),
            termination: termination.label().to_string(),
            livelock_report: livelock_report.map(str::to_string),
            ..sample_record()
        }
    }

    /// Tampers with a sealed line and re-seals it, so assertions about the
    /// *schema* checks are not masked by the crc check.
    fn tamper_resealed(line: &str, from: &str, to: &str) -> String {
        let idx = line.rfind(CRC_FIELD).expect("line is sealed");
        let mut body = line[..idx].to_string();
        body.push('}');
        seal_line(body.replacen(from, to, 1))
    }

    #[test]
    fn record_lines_round_trip() {
        let record = sample_record();
        let line = record_line("deadbeef/HHHA-00/42", 42, true, &record);
        let parsed = CellRecord::parse(&line).expect("line parses");
        assert_eq!(parsed.cell, "deadbeef/HHHA-00/42");
        assert_eq!(parsed.mechanism, "Graphene");
        assert_eq!(MechanismKind::parse(&parsed.mechanism), Some(MechanismKind::Graphene));
        assert_eq!(parsed.nrh, 64);
        assert!(parsed.breakhammer);
        assert_eq!(parsed.seed, 42);
        assert_eq!(parsed.mix, "HHHA-00");
        assert_eq!(parsed.scenario.as_deref(), Some("fuzz-nbr"));
        assert!(parsed.attack);
        assert_eq!(parsed.weighted_speedup, 3.25);
        assert_eq!(parsed.latency_ns, [10.5, 20.25, 99.0]);
        assert_eq!(parsed.preventive_actions, 42);
        assert!(parsed.attacker_identified);
        assert!(!parsed.benign_misidentified);
        assert_eq!(parsed.max_victim_disturbance, 17);
        assert_eq!(parsed.flips_raw, 9);
        assert_eq!(parsed.flips_corrected, 4);
        assert_eq!(parsed.flips_detected, 2);
        assert_eq!(parsed.flips_silent, 3);
        assert!(parsed.attack_success);
        assert_eq!(parsed.status, "ok");
        assert!(parsed.is_ok());
        assert_eq!(parsed.termination, "completed");
        assert_eq!(parsed.livelock_report, None);

        let mut benign = record;
        benign.scenario = None;
        let line = record_line("deadbeef/HHHH-00/7", 7, false, &benign);
        let parsed = CellRecord::parse(&line).expect("line parses");
        assert_eq!(parsed.scenario, None);
        assert!(!parsed.attack);
    }

    /// The bytes of a stored line, pinned: a round trip cannot see a field
    /// that is written and read back wrong in the same way.
    #[test]
    fn a_record_line_keeps_its_bytes() {
        let line = record_line("deadbeef/HHHA-00/42", 42, true, &sample_record());
        let pinned = concat!(
            r#"{"schema":3,"status":"ok","cell":"deadbeef/HHHA-00/42","mechanism":"Graphene","#,
            r#""nrh":64,"breakhammer":true,"seed":42,"mix":"HHHA-00","mix_class":"HHHA","#,
            r#""scenario":"fuzz-nbr","attack":true,"weighted_speedup":3.25,"max_slowdown":1.5,"#,
            r#""energy_nj":123456.75,"preventive_actions":42,"latency_p50_ns":10.5,"#,
            r#""latency_p90_ns":20.25,"latency_p99_ns":99,"attacker_identified":true,"#,
            r#""benign_misidentified":false,"bitflips":0,"max_victim_disturbance":17,"#,
            r#""flips_raw":9,"flips_corrected":4,"flips_detected":2,"flips_silent":3,"#,
            r#""attack_success":true,"termination":"completed","livelock_report":null,"#,
            r#""crc":"84b906a4bf73d31b"}"#,
        );
        assert_eq!(line, pinned);
    }

    /// The line of one real cell evaluated through `evaluate_jobs` (Graphene
    /// at N_RH 64 with BreakHammer on the first attack mix of a tiny
    /// campaign), pinned by its FNV-1a digest.
    #[test]
    fn an_evaluated_cells_line_keeps_its_bytes() {
        let mut scale = Scale::quick();
        scale.instructions_per_core = 4_000;
        scale.benign_entries = 600;
        scale.attacker_entries = 600;
        let mix = Campaign::new(scale.clone()).sweep_mixes(true).swap_remove(0);
        let configs = config_matrix(&[MechanismKind::Graphene], &[64], &[true], &scale);
        let unprotected = paper_config(MechanismKind::None, 4096, false, &scale);
        let alone = bh_sim::alone_ipcs(&unprotected, [&mix]);
        let mixes = std::slice::from_ref(&mix);
        let outcome = evaluate_jobs(&configs, mixes, &[(0, 0)], &alone, 1, &EvalHooks::none());
        let record = outcome[0].as_ref().expect("the cell evaluates");
        let cell = format!("pin/{}/{}", mix.name, scale.seed);
        let line = record_line(&cell, scale.seed, true, record);
        assert_eq!(format!("{:016x}", fnv1a64(line.bytes())), "615c8493ba866557", "{line}");
    }

    /// Every field distinct and none at its default: a row dropped from
    /// `cell_schema!` comes back as the default and fails the comparison (and
    /// a field added to `CellRecord` without a row fails to compile here).
    #[test]
    fn every_schema_field_survives_the_round_trip() {
        let record = CellRecord {
            cell: "00c0ffee/MMLA-03/9".to_string(),
            mechanism: "PRAC".to_string(),
            nrh: 128,
            breakhammer: true,
            seed: 9,
            mix: "MMLA-03".to_string(),
            mix_class: "MMLA".to_string(),
            scenario: Some("press-nbr".to_string()),
            attack: true,
            weighted_speedup: 2.75,
            max_slowdown: 1.125,
            energy_nj: 98765.5,
            preventive_actions: 11,
            latency_ns: [12.5, 34.25, 56.125],
            attacker_identified: true,
            benign_misidentified: true,
            bitflips: 1,
            max_victim_disturbance: 2,
            flips_raw: 3,
            flips_corrected: 4,
            flips_detected: 5,
            flips_silent: 6,
            attack_success: true,
            status: "livelock".to_string(),
            termination: "livelock".to_string(),
            livelock_report: Some("livelock at cycle 7".to_string()),
        };
        let line = record.to_line();
        assert_eq!(CellRecord::parse(&line), Some(record.clone()), "{line}");
        assert_eq!(StoreEntry::parse(&line), Some(StoreEntry::Completed(Box::new(record))));
    }

    /// Integer fields are written and read as integers: a seed or counter at
    /// or above 2^53 used to be rounded on its way through `f64`.
    #[test]
    fn integers_above_two_to_the_53_round_trip_exactly() {
        for big in [(1u64 << 53) + 1, u64::MAX] {
            let mut record = sample_record();
            record.preventive_actions = big;
            record.flips_raw = big;
            let parsed =
                CellRecord::parse(&record_line("c/m/s", big, true, &record)).expect("line parses");
            assert_eq!((parsed.seed, parsed.preventive_actions, parsed.flips_raw), (big, big, big));
        }
        // Below 2^53 the bytes are what they always were: `42`, not `42.0`.
        let line = record_line("c/m/42", 42, true, &sample_record());
        assert!(
            line.contains("\"seed\":42,") && line.contains("\"energy_nj\":123456.75,"),
            "{line}"
        );
        // A float field holding a whole number prints like an integer and
        // still reads back as the float.
        let mut whole = sample_record();
        whole.weighted_speedup = 4.0;
        let line = record_line("c/m/1", 1, true, &whole);
        assert!(line.contains("\"weighted_speedup\":4,"), "{line}");
        assert_eq!(CellRecord::parse(&line).expect("parses").weighted_speedup, 4.0);
        // An integer field holding a fraction is not the schema's line.
        let fraction = tamper_resealed(&line, "\"nrh\":64", "\"nrh\":64.5");
        assert_eq!(CellRecord::parse(&fraction), None);
    }

    #[test]
    fn watchdog_verdicts_round_trip_with_their_status() {
        let report = "livelock at cycle 25000 (4 zero-progress epochs): …";
        let record = ended(TerminationReason::Livelock, Some(report));
        let line = record_line("c/m/1", 1, true, &record);
        let parsed = CellRecord::parse(&line).expect("line parses");
        assert_eq!(parsed.status, "livelock");
        assert!(!parsed.is_ok());
        assert_eq!(parsed.termination, "livelock");
        assert_eq!(parsed.livelock_report.as_deref(), Some(report));

        let record = ended(TerminationReason::BudgetExceeded, None);
        let parsed = CellRecord::parse(&record_line("c/m/1", 1, true, &record)).expect("parses");
        assert_eq!(parsed.status, "budget");
        assert_eq!(parsed.termination, "budget");
        assert_eq!(parsed.livelock_report, None);

        let record = ended(TerminationReason::CycleCutoff, None);
        let parsed = CellRecord::parse(&record_line("c/m/1", 1, true, &record)).expect("parses");
        assert_eq!(parsed.status, "ok", "a cycle cutoff is a healthy outcome");
        assert_eq!(parsed.termination, "cutoff");
    }

    #[test]
    fn termination_statuses_cover_the_taxonomy() {
        assert_eq!(termination_status(TerminationReason::Completed), "ok");
        assert_eq!(termination_status(TerminationReason::CycleCutoff), "ok");
        assert_eq!(termination_status(TerminationReason::Livelock), "livelock");
        assert_eq!(termination_status(TerminationReason::BudgetExceeded), "budget");
    }

    #[test]
    fn the_seal_rejects_torn_and_tampered_lines() {
        let line = record_line("a/m/1", 1, true, &sample_record());
        assert!(seal_intact(&line));
        // Any truncation breaks the seal (the crc tail is damaged or gone).
        for cut in [line.len() - 1, line.len() - 10, line.len() / 2, 10] {
            assert!(!seal_intact(&line[..cut]), "cut at {cut}");
        }
        // An in-place edit breaks it too, even though the JSON stays valid.
        let tampered = line.replacen("\"nrh\":64", "\"nrh\":65", 1);
        assert_ne!(tampered, line);
        assert!(!seal_intact(&tampered));
        assert_eq!(CellRecord::parse(&tampered), None);
        // A spliced hybrid of two sealed lines carries the tail's crc but
        // the head's content.
        let other = record_line("b/m/2", 2, true, &sample_record());
        let spliced = format!("{}{}", &line[..line.len() / 2], &other[other.len() / 2..]);
        assert!(!seal_intact(&spliced));
        assert_eq!(StoreEntry::parse(&spliced), None);
    }

    #[test]
    fn malformed_and_foreign_lines_are_rejected() {
        assert_eq!(CellRecord::parse(""), None);
        assert_eq!(CellRecord::parse("{\"schema\":3,\"cell\":\"x"), None, "truncated line");
        assert_eq!(CellRecord::parse("not json"), None);
        // A well-formed, correctly *sealed* line from a future schema is
        // rejected by the schema check itself, not just the crc.
        let line = tamper_resealed(
            &record_line("c/m/1", 1, true, &sample_record()),
            "\"schema\":3",
            "\"schema\":4",
        );
        assert!(seal_intact(&line), "the tampered line must pass the seal to reach the check");
        assert_eq!(CellRecord::parse(&line), None);
        // Pre-v3 lines (no seal) are rejected too: the engine reruns those
        // cells rather than guessing at the old schema.
        assert_eq!(CellRecord::parse("{\"schema\":1,\"cell\":\"a/m/1\"}"), None);
        assert_eq!(CellRecord::parse("{\"schema\":2,\"status\":\"ok\",\"cell\":\"a/m/1\"}"), None);
    }

    #[test]
    fn failed_lines_round_trip_and_never_count_as_completed() {
        let line = failed_line("a/m/1", 1, true, "panicked at 'boom'");
        assert_eq!(CellRecord::parse(&line), None, "a failed line is not a completed cell");
        let failed =
            FailedCell { cell: "a/m/1".to_string(), error: "panicked at 'boom'".to_string() };
        assert_eq!(StoreEntry::parse(&line), Some(StoreEntry::Failed(failed)));
        let ok = record_line("a/m/1", 1, true, &sample_record());
        let entry = StoreEntry::parse(&ok);
        assert!(
            matches!(entry, Some(StoreEntry::Completed(_))),
            "a completed line is not a failure"
        );
    }

    #[test]
    fn failed_cells_are_pending_until_a_later_completion() {
        let path = test_path("failed-cells");
        {
            let store = ResultStore::create(&path).expect("fresh store");
            store.append(&failed_line("a/m/1", 1, true, "boom"));
            store.append(&failed_line("b/m/1", 1, true, "crash"));
            store.append(&failed_line("b/m/1", 1, true, "crash again"));
            // A later resume completed cell a; b is still pending.
            store.append(&record_line("a/m/1", 1, true, &sample_record()));
        }
        let pending = pending_failures(&ResultStore::entries(&path).expect("store loads"));
        assert_eq!(pending.len(), 1, "{pending:?}");
        assert_eq!(pending[0].cell, "b/m/1");
        assert_eq!(ok_cells(&path), HashSet::from(["a/m/1".to_string()]));
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn string_escapes_survive_the_round_trip() {
        let mut record = sample_record();
        record.mix = "m\"x\\w — tab\there\n".to_string();
        let line = record_line("c/m/1", 1, true, &record);
        let parsed = CellRecord::parse(&line).expect("line parses");
        assert_eq!(parsed.mix, record.mix);
    }

    #[test]
    fn config_digest_separates_configurations() {
        let scale = Scale::quick();
        let a = paper_config(MechanismKind::Graphene, 64, true, &scale);
        let b = paper_config(MechanismKind::Graphene, 128, true, &scale);
        assert_eq!(config_digest(&a), config_digest(&a), "digest is stable");
        assert_ne!(config_digest(&a), config_digest(&b));
        assert_eq!(cell_id(&a, "HHHA-00", 42), format!("{}/HHHA-00/42", config_digest(&a)));
    }

    #[test]
    fn store_create_refuses_data_and_append_requires_it() {
        let path = test_path("store-semantics");
        let _ = std::fs::remove_file(&path);
        assert!(ResultStore::append_to(&path).is_err(), "nothing to resume from");
        {
            let store = ResultStore::create(&path).expect("fresh store");
            store.append("{\"schema\":1}");
        }
        assert!(ResultStore::create(&path).is_err(), "refuses to overwrite data");
        assert!(ResultStore::append_to(&path).is_ok());
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn completed_cells_skips_malformed_lines() {
        let path = test_path("completed-cells");
        {
            let store = ResultStore::create(&path).expect("fresh store");
            store.append(&record_line("a/m/1", 1, true, &sample_record()));
            store.append("{\"schema\":1,\"cell\":\"trunc");
            store.append(&record_line("b/m/1", 1, true, &sample_record()));
        }
        assert_eq!(ok_cells(&path), HashSet::from(["a/m/1".to_string(), "b/m/1".to_string()]));
        assert_eq!(ResultStore::load(&path).expect("store loads").len(), 2);
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn settled_completed_and_verdict_sets_partition_by_status() {
        let path = test_path("settled-sets");
        let _ = std::fs::remove_file(&path);
        {
            let store = ResultStore::create(&path).expect("fresh store");
            store.append(&record_line("ok/m/1", 1, true, &sample_record()));
            let spun = ended(TerminationReason::Livelock, Some("livelock at cycle 25000: …"));
            store.append(&record_line("spin/m/1", 1, true, &spun));
            let cut = ended(TerminationReason::BudgetExceeded, None);
            store.append(&record_line("cut/m/1", 1, true, &cut));
            store.append(&failed_line("boom/m/1", 1, true, "panicked"));
        }
        let settled = ResultStore::settled_cells(&path).expect("store loads");
        assert_eq!(
            settled,
            HashSet::from(["ok/m/1".to_string(), "spin/m/1".to_string(), "cut/m/1".to_string()]),
            "every evaluated cell settles, whatever the verdict"
        );
        assert_eq!(ok_cells(&path), HashSet::from(["ok/m/1".to_string()]));
        let entries = ResultStore::entries(&path).expect("store loads");
        let pending = pending_failures(&entries);
        let verdicts = verdict_cells(&evaluated_cells(entries));
        assert_eq!(verdicts.len(), 2);
        assert_eq!(verdicts[0].cell, "spin/m/1");
        assert_eq!(verdicts[0].status, "livelock");
        assert!(verdicts[0].livelock_report.is_some());
        assert_eq!(verdicts[1].cell, "cut/m/1");
        assert_eq!(verdicts[1].status, "budget");
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].cell, "boom/m/1");
        // Verdict cells carry truncated-run numbers; the report skips them.
        let records = ResultStore::load(&path).expect("store loads");
        assert_eq!(records.len(), 3);
        let table = report_table(&records);
        let csv = table.to_csv();
        assert!(csv.contains(",64,1,"), "only the ok cell is aggregated: {csv}");
        std::fs::remove_file(&path).expect("cleanup");
    }

    /// A writer whose underlying device fails a configurable number of
    /// writes before recovering — the I/O-fault half of the chaos harness.
    struct ChaosWriter {
        sink: std::sync::Arc<Mutex<Vec<u8>>>,
        failures: std::sync::Arc<std::sync::atomic::AtomicUsize>,
    }

    impl Write for ChaosWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let failures = &self.failures;
            if failures.load(std::sync::atomic::Ordering::Relaxed) > 0 {
                failures.fetch_sub(1, std::sync::atomic::Ordering::Relaxed);
                return Err(io::Error::other("injected device fault"));
            }
            self.sink.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn append_rides_out_transient_io_faults() {
        let sink = std::sync::Arc::new(Mutex::new(Vec::new()));
        let failures = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(2));
        let writer = ChaosWriter { sink: sink.clone(), failures: failures.clone() };
        let path = test_path("flaky-io");
        let store = ResultStore::with_writer(&path, Box::new(writer));
        let line = record_line("a/m/1", 1, true, &sample_record());
        store.append(&line);
        drop(store);
        assert_eq!(failures.load(std::sync::atomic::Ordering::Relaxed), 0);
        let written = String::from_utf8(sink.lock().unwrap().clone()).expect("utf8");
        assert_eq!(written, format!("{line}\n"), "the retried flush duplicated no bytes");
        assert!(CellRecord::parse(written.trim_end()).is_some());
    }

    #[test]
    fn append_panics_with_the_path_when_the_device_stays_dead() {
        let sink = std::sync::Arc::new(Mutex::new(Vec::new()));
        let failures = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(usize::MAX));
        let writer = ChaosWriter { sink, failures };
        let path = test_path("dead-io");
        let store = ResultStore::with_writer(&path, Box::new(writer));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.append(&record_line("a/m/1", 1, true, &sample_record()));
        }));
        let payload = result.expect_err("a dead device must not be silently swallowed");
        let message = payload.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            message.contains(path.to_str().expect("utf8 path")),
            "the error names the store path: {message}"
        );
    }

    /// The ids of the cells a store holds a healthy (`"ok"`) record of.
    fn ok_cells(path: &Path) -> HashSet<String> {
        let records = ResultStore::load(path).expect("store loads");
        records.into_iter().filter(CellRecord::is_ok).map(|r| r.cell).collect()
    }

    fn test_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("bh-campaign-{tag}-{}.jsonl", std::process::id()))
    }
}
