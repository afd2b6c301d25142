//! The `campaign_sweep` workload: the command users actually run.
//!
//! A *sweep* is `CampaignSpec::run` into a fresh result store, then
//! `ResultStore::load` and `report_table` — trace generation, alone
//! baselines, the worker pool, JSONL sealing and flushing, and the report,
//! all charged per sweep. The traced run alternates that with a *decomposed*
//! sweep that makes the same public calls `CampaignSpec::run` makes, one
//! span each, so the sweep's time can be attributed.

use crate::clock::{self, Budget, Pacer, Stamp};
use crate::simrun::gauge_burst;
use crate::span::{Recorder, NO_CELL};
use crate::stats::fnv1a64;
use crate::workloads::campaign_spec;
use bh_bench::campaign::{cell_id, failed_line, record_line, report_table};
use bh_bench::{
    evaluate_jobs, paper_config, Campaign, CampaignSpec, CellRecord, EvalHooks, ResultStore,
    RunRecord, Scale,
};
use bh_sim::SystemConfig;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// What the store's writer saw: when the first line was written, how many
/// bytes, and the nanoseconds spent inside `write`/`flush`.
#[derive(Debug, Default)]
struct WriterLog {
    first_write: Option<Stamp>,
    bytes: u64,
    io_ns: u64,
}

/// The store's file, with a clock around every call into it.
struct TimingWriter {
    file: File,
    log: Arc<Mutex<WriterLog>>,
}

impl Write for TimingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let start = clock::now();
        let written = self.file.write(buf)?;
        let mut log = self.log.lock().expect("no writer panics while holding the log");
        log.first_write.get_or_insert(start);
        log.bytes += written as u64;
        log.io_ns += start.elapsed_ns();
        Ok(written)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let start = clock::now();
        self.file.flush()?;
        self.log.lock().expect("no writer panics while holding the log").io_ns +=
            start.elapsed_ns();
        Ok(())
    }
}

fn timing_store(path: &Path) -> std::io::Result<(ResultStore, Arc<Mutex<WriterLog>>)> {
    let log = Arc::new(Mutex::new(WriterLog::default()));
    let writer = TimingWriter { file: File::create(path)?, log: Arc::clone(&log) };
    Ok((ResultStore::with_writer(path, Box::new(writer)), log))
}

/// One sweep's timings, in nanoseconds. The phase fields are filled by
/// decomposed sweeps only.
#[derive(Debug, Clone, Default)]
pub struct Sweep {
    pub decomposed: bool,
    pub setup_ns: f64,
    /// Sweep start to report rendered.
    pub wall_ns: f64,
    /// Sweep start to the first sealed line reaching the store: trace
    /// generation, alone baselines and the first cell — the serial head no
    /// worker count shortens.
    pub first_checkpoint_ns: f64,
    pub store_bytes: u64,
    pub store_io_ns: f64,
    pub tracegen_ns: f64,
    pub alone_ns: f64,
    pub evaluate_ns: f64,
    /// Σ per-cell claim→record time over `workers × evaluate_ns`.
    pub worker_utilisation: f64,
    pub load_ns: f64,
    pub report_ns: f64,
    pub gauge_ns: Vec<f64>,
}

/// Everything the sweep loop measured.
#[derive(Debug, Default)]
pub struct CampaignOutcome {
    pub sweeps: Vec<Sweep>,
    pub grid_cells: u64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Cell id → FNV-1a-64 of its sealed store line, from the first sweep.
    pub fingerprints: BTreeMap<String, u64>,
    pub records: Vec<CellRecord>,
    /// Trace records generated per sweep.
    pub trace_entries: u64,
    /// The budget each benign core of a cell must retire.
    pub instructions_per_core: u64,
}

/// `spec.scale` with its seed set to one suite's, as `CampaignSpec::run`
/// derives it.
fn suite_scale(spec: &CampaignSpec, seed: u64) -> Scale {
    let mut scale = spec.scale.clone();
    scale.seed = seed;
    scale
}

/// Generates every suite of the sweep, as `CampaignSpec::run` will again.
fn generate_suites(spec: &CampaignSpec) -> Vec<Campaign> {
    spec.seeds.iter().map(|&seed| Campaign::new(suite_scale(spec, seed))).collect()
}

/// The configuration matrix `CampaignSpec::run` sweeps, in its order.
fn configs(spec: &CampaignSpec, scale: &Scale) -> Vec<SystemConfig> {
    let mut out = Vec::new();
    for &mechanism in &spec.mechanisms {
        for &nrh in &spec.nrh_values {
            for &breakhammer in &spec.breakhammer_options {
                out.push(paper_config(mechanism, nrh, breakhammer, scale));
            }
        }
    }
    out
}

/// Runs sweeps until `budget` is used up. Stores live under `tmp_dir`, which
/// the caller removes.
pub fn run_sweeps(
    seed: u64,
    smoke: bool,
    trace: bool,
    budget: Budget,
    tmp_dir: &Path,
    rec: &mut Recorder,
) -> CampaignOutcome {
    let spec = campaign_spec(seed, smoke);
    let mut out = CampaignOutcome {
        instructions_per_core: spec.scale.instructions_per_core,
        ..CampaignOutcome::default()
    };
    let mut pacer = Pacer::new(budget, clock::now());
    loop {
        let index = out.sweeps.len();
        let sweep_started = clock::now();
        // Traced runs alternate the user's path with the decomposed one.
        let decomposed = trace && index % 2 == 1;
        rec.enabled = decomposed;
        let path = tmp_dir.join(format!("sweep-{index}.jsonl"));
        let mut sweep = Sweep { decomposed, ..Sweep::default() };
        if trace {
            gauge_burst(&mut sweep.gauge_ns);
        }
        // Set-up: the trace generation and compilation every sweep repeats
        // internally, executed once more on its own so it can be reported.
        let (suites, setup_ns) =
            rec.time("workloads.generate", NO_CELL, |_| generate_suites(&spec));
        sweep.setup_ns = setup_ns as f64;
        if index == 0 {
            let mixes: Vec<_> = suites.iter().flat_map(|c| c.sweep_mixes(true)).collect();
            out.trace_entries = mixes.iter().flat_map(|m| &m.traces).map(|t| t.len() as u64).sum();
            out.grid_cells = (mixes.len() * configs(&spec, &spec.scale).len()) as u64;
        }
        drop(suites);
        let records = if decomposed {
            decomposed_sweep(&spec, &path, &mut sweep, rec)
        } else {
            user_sweep(&spec, &path, &mut sweep)
        };
        check_sweep(&mut out, &path, records, index);
        // The store is scratch data; a failed removal only leaves a file the
        // caller's directory removal retries.
        let _ = std::fs::remove_file(&path);
        out.sweeps.push(sweep);
        if !pacer.another_after(sweep_started) {
            break;
        }
    }
    rec.enabled = trace;
    out
}

/// `CampaignSpec::run` + `ResultStore::load` + `report_table`, as
/// `bh_campaign sweep` followed by `report` does it.
fn user_sweep(
    spec: &CampaignSpec,
    path: &Path,
    sweep: &mut Sweep,
) -> std::io::Result<Vec<CellRecord>> {
    let start = clock::now();
    let (store, log) = timing_store(path)?;
    // `CampaignSpec::run` takes the resume set as a `HashSet`; an empty one
    // has no iteration order to leak.
    #[allow(clippy::disallowed_types)]
    let completed = std::collections::HashSet::new();
    // What the sweep did is read back from the store, like a user would.
    let _summary = spec.run(&store, &completed, None);
    drop(store);
    let records = ResultStore::load(path)?;
    std::hint::black_box(report_table(&records).to_text());
    sweep.wall_ns = start.elapsed_ns() as f64;
    absorb_log(sweep, &log, start);
    Ok(records)
}

fn absorb_log(sweep: &mut Sweep, log: &Mutex<WriterLog>, start: Stamp) {
    let log = log.lock().expect("the store was dropped, nobody holds the log");
    sweep.first_checkpoint_ns = log.first_write.map_or(0.0, |t| t.ns_since(start) as f64);
    sweep.store_bytes = log.bytes;
    sweep.store_io_ns = log.io_ns as f64;
}

/// The same sweep through the public calls `CampaignSpec::run` is made of,
/// one span each, with per-cell spans stamped by the evaluation hooks.
fn decomposed_sweep(
    spec: &CampaignSpec,
    path: &Path,
    sweep: &mut Sweep,
    rec: &mut Recorder,
) -> std::io::Result<Vec<CellRecord>> {
    /// Recorder-relative nanoseconds at which the hooks saw one cell.
    #[derive(Clone, Copy, Default)]
    struct CellStamps {
        claimed: u64,
        recorded: u64,
        appended: u64,
    }

    let start = clock::now();
    let workers = spec.scale.worker_threads;
    let (records, wall_ns) = rec.time("campaign.sweep", NO_CELL, |rec| {
        let (store, log) = timing_store(path)?;
        let (mut busy_ns, mut first_cell) = (0u64, 0u32);
        for &seed in &spec.seeds {
            let scale = suite_scale(spec, seed);
            let (mut campaign, tracegen_ns) =
                rec.time("campaign.tracegen", NO_CELL, |_| Campaign::new(scale.clone()));
            let (cache, alone_ns) =
                rec.time("campaign.alone", NO_CELL, |_| campaign.warmed_alone_cache().clone());
            let mixes = campaign.sweep_mixes(true);
            let configs = configs(spec, &scale);
            let jobs: Vec<(usize, usize)> =
                (0..configs.len()).flat_map(|c| (0..mixes.len()).map(move |m| (c, m))).collect();
            let ids: Vec<String> =
                jobs.iter().map(|&(c, m)| cell_id(&configs[c], &mixes[m].name, seed)).collect();

            // Hooks fire on the worker threads: they stamp into a shared
            // table and the spans are added once the pool has joined.
            let origin_ns = rec.now_ns();
            let origin = clock::now();
            let stamps = Mutex::new(vec![CellStamps::default(); jobs.len()]);
            let stamp = |i: usize, set: fn(&mut CellStamps, u64)| {
                let now = origin_ns + origin.elapsed_ns();
                set(&mut stamps.lock().expect("stamping never panics")[i], now);
            };
            let on_claim = |i: usize| stamp(i, |s, now| s.claimed = now);
            let on_record = |i: usize, outcome: Result<&RunRecord, &str>| {
                stamp(i, |s, now| s.recorded = now);
                match outcome {
                    Ok(record) => store.append(&record_line(&ids[i], seed, true, record)),
                    Err(error) => store.append(&failed_line(&ids[i], seed, true, error)),
                }
                stamp(i, |s, now| s.appended = now);
            };
            let hooks = EvalHooks {
                force_panic_mix: None,
                force_spin_mix: None,
                on_claim: &on_claim,
                on_record: &on_record,
            };
            let (busy, evaluate_ns) = rec.time("campaign.evaluate", NO_CELL, |rec| {
                std::hint::black_box(evaluate_jobs(
                    &configs, &mixes, &jobs, &cache, workers, &hooks,
                ));
                let stamps = stamps.lock().expect("the pool has joined").clone();
                // A cell goes to the first lane that is free when it is
                // claimed (the pool has `workers` of them).
                let mut lane_free_at: Vec<u64> = Vec::new();
                let mut order: Vec<usize> = (0..stamps.len()).collect();
                order.sort_by_key(|&i| stamps[i].claimed);
                for i in order {
                    let s = stamps[i];
                    let lane = lane_free_at
                        .iter()
                        .position(|free| *free <= s.claimed)
                        .unwrap_or_else(|| {
                            lane_free_at.push(0);
                            lane_free_at.len() - 1
                        });
                    lane_free_at[lane] = s.appended;
                    let cell = first_cell + i as u32;
                    rec.add("campaign.cell", cell, lane as u32 + 1, s.claimed, s.recorded);
                    rec.add("store.append", cell, lane as u32 + 1, s.recorded, s.appended);
                }
                stamps.iter().map(|s| s.appended.saturating_sub(s.claimed)).sum::<u64>()
            });
            busy_ns += busy;
            first_cell += jobs.len() as u32;
            sweep.tracegen_ns += tracegen_ns as f64;
            sweep.alone_ns += alone_ns as f64;
            sweep.evaluate_ns += evaluate_ns as f64;
        }
        drop(store);
        let (records, load_ns) = rec.time("store.load", NO_CELL, |_| ResultStore::load(path));
        let records = records?;
        let (_, report_ns) = rec.time("report.table", NO_CELL, |_| {
            std::hint::black_box(report_table(&records).to_text())
        });
        sweep.worker_utilisation = busy_ns as f64 / (workers as f64 * sweep.evaluate_ns);
        sweep.load_ns = load_ns as f64;
        sweep.report_ns = report_ns as f64;
        absorb_log(sweep, &log, start);
        Ok::<_, std::io::Error>(records)
    });
    sweep.wall_ns = wall_ns as f64;
    records
}

/// Checks one sweep's store against the grid and against the first sweep.
fn check_sweep(
    out: &mut CampaignOutcome,
    path: &Path,
    records: std::io::Result<Vec<CellRecord>>,
    index: usize,
) {
    let fail = |out: &mut CampaignOutcome, cells: u64, why: String| {
        out.failed += cells;
        if out.failures.len() < 8 {
            out.failures.push(format!("sweep {index}: {why}"));
        }
    };
    out.attempted += out.grid_cells;
    let records = match records {
        Ok(records) => records,
        Err(error) => return fail(out, out.grid_cells, format!("store I/O failed: {error}")),
    };
    let missing = out.grid_cells.saturating_sub(records.len() as u64);
    if missing > 0 {
        fail(
            out,
            missing,
            format!("the store holds {} of {} cells", records.len(), out.grid_cells),
        );
    }
    for record in records.iter().filter(|r| !r.is_ok()) {
        fail(out, 1, format!("{} ended {:?}", record.cell, record.status));
    }
    // A cell's sealed line is its fingerprint: every field of the record.
    let lines = std::fs::read_to_string(path).unwrap_or_default();
    for line in lines.lines() {
        let Some(record) = CellRecord::parse(line) else { continue };
        let print = fnv1a64(line.as_bytes());
        match out.fingerprints.get(&record.cell) {
            None if index == 0 => {
                out.fingerprints.insert(record.cell, print);
            }
            Some(first) if *first == print => {}
            _ => fail(out, 1, format!("{} differs from the first sweep", record.cell)),
        }
    }
    if index == 0 {
        out.records = records;
    }
}
