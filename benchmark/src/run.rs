//! Runs one workload and assembles its report.

use crate::campaign::{run_sweeps, CampaignOutcome, Sweep};
use crate::clock::{self, Budget, Pacer};
use crate::layers::{self, LayerTimes};
use crate::metrics::Report;
use crate::pinned::{drift, observation_line};
use crate::simrun::{run_passes, Pass, SimOutcome};
use crate::span::Recorder;
use crate::stats::{best, percentile, ratio};
use crate::workloads::{worker_threads, BLESSED_SEED};
use crate::OUT_DIR;
use std::path::Path;

/// What `run` was asked to do.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// One pass of 10 k-instruction cells: exercises every code path fast.
    pub smoke: bool,
}

/// A finished run: the report, the spans (empty unless traced), the names
/// the spans' cell ids index, and the lines `bless` would pin.
pub struct Finished {
    pub report: Report,
    pub recorder: Recorder,
    pub cell_names: Vec<String>,
    pub observed: Vec<String>,
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where `/proc` does
/// not say.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn run(opts: &Options) -> Finished {
    let mut finished =
        if opts.workload == "campaign_sweep" { run_campaign(opts) } else { run_sim(opts) };
    let report = &mut finished.report;
    report.notes.push(("threads", worker_threads().to_string()));
    report.notes.push((
        "host_parallelism",
        std::thread::available_parallelism().map_or(1, |n| n.get()).to_string(),
    ));
    if opts.trace {
        // Pinned observations exist for the blessed seed at full size only.
        let drift_cells = if opts.seed == BLESSED_SEED && !opts.smoke {
            drift(&opts.workload, &finished.observed).unwrap_or_else(|why| {
                report.notes.push(("expected", why));
                finished.observed.len() as u64
            })
        } else {
            0
        };
        report.set("sim.fingerprint_drift_cells", drift_cells as f64);
    } else {
        report.set("peak_rss_mb", peak_rss_mb());
    }
    finished
}

fn run_sim(opts: &Options) -> Finished {
    let mut rec = Recorder::new(opts.trace);
    let started = clock::now();
    // A traced run gives half its time to the passes and half to the
    // per-layer harness rounds.
    let pass_seconds = if opts.trace { opts.seconds / 2.0 } else { opts.seconds };
    let budget = match (opts.smoke, opts.trace) {
        (true, _) => Budget { seconds: 0.0, min_laps: 1 },
        (false, true) => Budget { seconds: pass_seconds, min_laps: 4 },
        (false, false) => Budget { seconds: pass_seconds, min_laps: 3 },
    };
    let out = run_passes(&opts.workload, opts.seed, opts.smoke, opts.trace, budget, &mut rec);

    let mut report = Report::new(&opts.workload, opts.seed, opts.trace);
    report.attempted = out.attempted;
    report.failed = out.failed;
    report.problems = out.failures.clone();
    report.notes.push(("passes", out.passes.len().to_string()));
    report.notes.push(("cells", out.workload.cells.len().to_string()));
    if !opts.smoke && opts.workload == "scaled_4ch" {
        // The reasons this workload exists; if they stop holding it measures
        // something else.
        let c = &out.counts;
        for (what, count) in [
            ("mem.writes_served", c.writes_served),
            ("core.windows_completed", c.windows_completed),
            ("core.quota_restorations", c.quota_restorations),
        ] {
            if count == 0 {
                report.problems.push(format!("scaled_4ch must see {what} > 0"));
            }
        }
    }

    if opts.trace {
        let mut times = LayerTimes::default();
        // The rounds get what the passes left of `--seconds`.
        let rounds = if opts.smoke {
            Budget { seconds: 0.0, min_laps: 1 }
        } else {
            Budget { seconds: opts.seconds, min_laps: 2 }
        };
        let mut pacer = Pacer::new(rounds, started);
        loop {
            let round_started = clock::now();
            layers::round(&mut times, &out.workload, &mut rec);
            if !pacer.another_after(round_started) {
                break;
            }
        }
        report.notes.push(("harness_rounds", times.rounds.to_string()));
        report.problems.extend(times.problems.iter().cloned());
        sim_layer_metrics(&mut report, &out, &times);
    } else {
        let best_ns: Vec<f64> =
            (0..out.workload.cells.len()).map(|c| out.best(c, |s| s.total_ns, |_| true)).collect();
        let sum_ns: f64 = best_ns.iter().sum();
        report.set("setup_s", best(out.passes.iter().map(|p| p.setup_ns)) / 1e9);
        report.set("sim_mips", ratio(out.counts.retired_instr as f64, sum_ns / 1e3));
        report.set("cells_per_s", ratio(best_ns.len() as f64, sum_ns / 1e9));
        report.set("slowest_cell_ms", best_ns.iter().copied().fold(0.0, f64::max) / 1e6);
    }

    let observed = out
        .workload
        .cells
        .iter()
        .zip(&out.observed)
        .filter_map(|(cell, seen)| {
            let seen = seen.as_ref()?;
            Some(observation_line(
                &cell.id,
                seen.fingerprint,
                seen.bitflips,
                seen.attacker_flagged,
                seen.benign_flagged,
            ))
        })
        .collect();
    let cell_names = out.workload.cells.iter().map(|c| c.id.clone()).collect();
    Finished { report, recorder: rec, cell_names, observed }
}

/// `host.contention`: median gauge sample over the fastest one.
fn contention<'a>(gauge: impl Iterator<Item = &'a Vec<f64>>) -> f64 {
    let samples: Vec<f64> = gauge.flatten().copied().collect();
    ratio(percentile(&samples, 50.0), best(samples.iter().copied()))
}

fn sim_layer_metrics(report: &mut Report, out: &SimOutcome, times: &LayerTimes) {
    let cells = out.workload.cells.len();
    let counts = &out.counts;
    let sum = |pick: fn(&crate::simrun::CellSample) -> f64| -> f64 {
        (0..cells).map(|c| out.best(c, pick, |_| true)).sum()
    };
    let run_ns = sum(|s| s.run_ns);
    report.set("sim.run_ms", run_ns / 1e6);
    report.set("sim.build_ms", sum(|s| s.build_ns) / 1e6);
    report.set("sim.ns_per_dram_cycle", ratio(run_ns, counts.dram_cycles as f64));
    report.set("sim.dram_cycles", counts.dram_cycles as f64);
    report.set("sim.retired_instr", counts.retired_instr as f64);

    // Execution-mode trials, each against the default mode on the same cell.
    let default = times.ns("sim.trial.default");
    let no_watchdog = times.ns("sim.trial.no_watchdog");
    report.set("sim.watchdog_overhead_pct", 100.0 * ratio(default - no_watchdog, no_watchdog));
    report.set("sim.event_driven_speedup", ratio(times.ns("sim.trial.per_cycle"), default));
    report.set("cpu.engine_over_legacy", ratio(times.ns("sim.trial.legacy_front_end"), default));
    report.set("mem.parallel_over_serial", ratio(default, times.ns("sim.trial.parallel_stepping")));
    report.set("mem.epoch_coverage", times.epoch_coverage);

    report.set("cpu.front_end_replay_ms", times.ms("cpu.front_end_replay"));
    report.set(
        "cpu.ns_per_lane_cycle",
        ratio(times.ns("cpu.front_end_replay"), times.lane_cycles as f64),
    );
    report.set("cpu.compile_ms", times.ms("cpu.compile"));
    report.set("cpu.llc_accesses", counts.llc_accesses as f64);
    report.set("cpu.llc_hit_ratio", ratio(counts.llc_hits as f64, counts.llc_accesses as f64));
    report.set("cpu.mshr_full_rejections", counts.mshr_full_rejections as f64);
    report.set("cpu.quota_rejections", counts.quota_rejections as f64);
    report.set("cpu.writebacks", counts.writebacks as f64);

    report.set("mem.replay_ms", times.ms("mem.replay"));
    report.set("mem.ns_per_request", ratio(times.ns("mem.replay"), times.requests as f64));
    report.set("mem.reads_served", counts.reads_served as f64);
    report.set("mem.writes_served", counts.writes_served as f64);
    report.set("mem.row_hit_ratio", ratio(counts.row_hits as f64, counts.row_lookups as f64));
    report.set("mem.enqueue_rejections", counts.enqueue_rejections as f64);

    report.set("dram.command_ns", ratio(times.ns("dram.commands"), times.commands as f64));
    report
        .set("dram.tracker_ns_per_act", ratio(times.ns("dram.tracker"), times.activations as f64));
    report.set("dram.activates", counts.activates as f64);
    report.set("dram.refreshes", counts.refreshes as f64);
    report.set("dram.victim_refreshes", counts.victim_refreshes as f64);
    report.set("dram.bitflip_cells", counts.bitflip_cells as f64);

    for (mechanism, _) in out.workload.mechanisms() {
        let label = mechanism.label();
        report.set(
            &format!("mitigation.on_activation_ns.{label}"),
            ratio(times.ns(&format!("mitigation.on_activation.{label}")), times.activations as f64),
        );
    }
    let mitigation_delta = times.ms("mitigation.replay") - times.ms("mem.replay");
    report.set("mitigation.replay_delta_ms", mitigation_delta);
    report.set("mitigation.preventive_actions", counts.preventive_actions as f64);
    report.set("mitigation.victim_rows_refreshed", counts.victim_rows_refreshed as f64);
    report.set(
        "mitigation.actions_per_kilo_act",
        1000.0 * ratio(counts.preventive_actions as f64, counts.activates as f64),
    );

    report.set(
        "core.on_activation_ns",
        ratio(times.ns("core.on_activation"), times.activations as f64),
    );
    report.set("core.on_preventive_action_ns", layers::ns_per_preventive_action(times));
    let core_delta = times.ms("core.replay") - times.ms("mitigation.replay");
    report.set("core.replay_delta_ms", core_delta);
    report.set("core.actions_observed", counts.actions_observed as f64);
    report.set("core.suspect_identifications", counts.suspect_identifications as f64);
    report.set("core.quota_restorations", counts.quota_restorations as f64);
    report.set("core.windows_completed", counts.windows_completed as f64);
    report.set("core.attacker_flagged_cells", counts.attacker_flagged_cells as f64);
    report.set("core.benign_flagged_cells", counts.benign_flagged_cells as f64);

    // What the harnesses cannot see of the designated cell's run: the kernel
    // loop and the coupling between the layers.
    let explained =
        times.ms("cpu.front_end_replay") + times.ms("mem.replay") + mitigation_delta + core_delta;
    report.set("sim.residual_ms", times.ms("sim.trial.default_run") - explained);

    report.set("workloads.generate_ms", best(out.passes.iter().map(|p| p.setup_ns)) / 1e6);
    report.set("workloads.trace_entries", out.workload.trace_entries() as f64);

    report.set("host.contention", contention(out.passes.iter().map(|p| &p.gauge_ns)));
    let samples: Vec<f64> =
        out.passes.iter().flat_map(|p| &p.cells).map(|s| s.total_ns / 1e6).collect();
    report.set("host.cell_ms_p50", percentile(&samples, 50.0));
    report.set("host.cell_ms_p90", percentile(&samples, 90.0));
    report.set("host.cell_samples", samples.len() as f64);
    let traced = out.sum_best_ns(|p: &Pass| p.traced);
    let untraced = out.sum_best_ns(|p: &Pass| !p.traced);
    report.set("host.trace_overhead_pct", 100.0 * ratio(traced - untraced, untraced));
}

fn run_campaign(opts: &Options) -> Finished {
    let mut rec = Recorder::new(opts.trace);
    // Scratch stores of this process, inside the checkout.
    let tmp = Path::new(OUT_DIR).join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("benchmark/out is writable");
    let budget = match (opts.smoke, opts.trace) {
        (true, true) => Budget { seconds: 0.0, min_laps: 2 },
        (true, false) => Budget { seconds: 0.0, min_laps: 1 },
        (false, true) => Budget { seconds: opts.seconds, min_laps: 4 },
        (false, false) => Budget { seconds: opts.seconds, min_laps: 3 },
    };
    let out = run_sweeps(opts.seed, opts.smoke, opts.trace, budget, &tmp, &mut rec);
    // Scratch stores are removed whatever happened above.
    let _ = std::fs::remove_dir_all(&tmp);

    let mut report = Report::new(&opts.workload, opts.seed, opts.trace);
    report.attempted = out.attempted;
    report.failed = out.failed;
    report.problems = out.failures.clone();
    report.notes.push(("sweeps", out.sweeps.len().to_string()));
    report.notes.push(("cells", out.grid_cells.to_string()));
    let user: Vec<&Sweep> = out.sweeps.iter().filter(|s| !s.decomposed).collect();
    let wall_ns = best(user.iter().map(|s| s.wall_ns));
    if opts.trace {
        campaign_layer_metrics(&mut report, &out, wall_ns);
    } else {
        // Store records carry no instruction counts, so the rate is over the
        // instructions every cell is *required* to retire: its three benign
        // cores' budgets.
        let required_instr = out.grid_cells as f64 * 3.0 * out.instructions_per_core as f64;
        report.set("setup_s", best(out.sweeps.iter().map(|s| s.setup_ns)) / 1e9);
        report.set("sim_mips", ratio(required_instr, wall_ns / 1e3));
        report.set("cells_per_s", ratio(out.grid_cells as f64, wall_ns / 1e9));
        report.set("slowest_cell_ms", best(user.iter().map(|s| s.first_checkpoint_ns)) / 1e6);
    }

    let observed = out
        .records
        .iter()
        .filter_map(|r| {
            let print = *out.fingerprints.get(&r.cell)?;
            Some(observation_line(
                &r.cell,
                print,
                r.bitflips,
                r.attacker_identified,
                r.benign_misidentified,
            ))
        })
        .collect();
    // The decomposed sweep's spans number cells in job order.
    let cell_names = (0..out.grid_cells).map(|i| format!("cell-{i}")).collect();
    Finished { report, recorder: rec, cell_names, observed }
}

fn campaign_layer_metrics(report: &mut Report, out: &CampaignOutcome, user_wall_ns: f64) {
    let decomposed: Vec<&Sweep> = out.sweeps.iter().filter(|s| s.decomposed).collect();
    let pick = |f: fn(&Sweep) -> f64| best(decomposed.iter().map(|s| f(s)));
    report.set("campaign.tracegen_ms", pick(|s| s.tracegen_ns) / 1e6);
    report.set("campaign.alone_ms", pick(|s| s.alone_ns) / 1e6);
    report.set("campaign.evaluate_ms", pick(|s| s.evaluate_ns) / 1e6);
    // Utilisation of the sweep that evaluated fastest.
    let fastest = decomposed.iter().min_by(|a, b| a.evaluate_ns.total_cmp(&b.evaluate_ns));
    report.set("campaign.worker_utilisation", fastest.map_or(0.0, |s| s.worker_utilisation));
    report.set(
        "campaign.store_append_us_per_cell",
        ratio(best(out.sweeps.iter().map(|s| s.store_io_ns)) / 1e3, out.grid_cells as f64),
    );
    report.set("campaign.store_bytes", out.sweeps.first().map_or(0.0, |s| s.store_bytes as f64));
    report.set("campaign.load_ms", pick(|s| s.load_ns) / 1e6);
    report.set("campaign.report_ms", pick(|s| s.report_ns) / 1e6);
    report.set("workloads.generate_ms", best(out.sweeps.iter().map(|s| s.setup_ns)) / 1e6);
    report.set("workloads.trace_entries", out.trace_entries as f64);

    // The counts a store record carries.
    let records = &out.records;
    let count =
        |f: fn(&bh_bench::CellRecord) -> bool| records.iter().filter(|r| f(r)).count() as f64;
    report.set(
        "mitigation.preventive_actions",
        records.iter().map(|r| r.preventive_actions as f64).sum(),
    );
    report.set("dram.bitflip_cells", count(|r| r.bitflips > 0));
    report.set("core.attacker_flagged_cells", count(|r| r.attacker_identified));
    report.set("core.benign_flagged_cells", count(|r| r.benign_misidentified));

    report.set("host.contention", contention(out.sweeps.iter().map(|s| &s.gauge_ns)));
    let walls: Vec<f64> =
        out.sweeps.iter().map(|s| s.wall_ns / 1e6 / out.grid_cells.max(1) as f64).collect();
    report.set("host.cell_ms_p50", percentile(&walls, 50.0));
    report.set("host.cell_ms_p90", percentile(&walls, 90.0));
    report.set("host.cell_samples", walls.len() as f64);
    let decomposed_wall = pick(|s| s.wall_ns);
    report.set(
        "host.trace_overhead_pct",
        100.0 * ratio(decomposed_wall - user_wall_ns, user_wall_ns),
    );
}
