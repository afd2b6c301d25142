//! The pass loop of the three simulation workloads.
//!
//! A *pass* re-generates the workload (timed as set-up, product discarded
//! after the first), then runs every cell once: `System::with_compiled` +
//! `run` + dropping the result, the unit `Evaluator::evaluate` charges a
//! user. One driving thread, closed loop. Every timing is reported as its
//! minimum over the passes (README, "Estimator").

use crate::clock::{self, Budget, Pacer};
use crate::span::{Recorder, NO_CELL};
use crate::stats::{best, fnv1a64};
use crate::workloads::{build_sim, Cell, SimWorkload};
use bh_sim::{SimulationResult, System, TerminationReason};
use bh_workloads::WorkloadMix;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Builds and runs one cell under `rec`, returning the result (or the panic
/// message) with the nanoseconds `with_compiled` and `run` took.
pub fn run_cell(
    rec: &mut Recorder,
    index: u32,
    cell: &Cell,
    mix: &WorkloadMix,
) -> (Result<SimulationResult, String>, u64, u64) {
    let (built, build_ns) = rec.time("sim.build", index, |_| {
        catch_unwind(AssertUnwindSafe(|| {
            System::with_compiled(cell.config.clone(), &mix.traces, mix.benign_threads())
                .watch_victims(mix.victim_rows.iter().map(|v| (v.channel, v.row)))
                .with_success_criterion(mix.success_criterion)
        }))
    });
    let system = match built {
        Ok(system) => system,
        Err(payload) => return (Err(panic_message(payload)), build_ns, 0),
    };
    let (result, run_ns) =
        rec.time("sim.run", index, |_| catch_unwind(AssertUnwindSafe(|| system.run())));
    (result.map_err(panic_message), build_ns, run_ns)
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "unknown panic payload".to_string())
}

/// FNV-1a-64 of the `Debug` rendering of a result with the stepping
/// statistics reset — they describe how the host stepped the channels, not
/// what was simulated, and differ between serial and parallel stepping.
pub fn fingerprint(result: &mut SimulationResult) -> u64 {
    let stepping = std::mem::take(&mut result.stepping);
    let print = fnv1a64(format!("{result:?}").as_bytes());
    result.stepping = stepping;
    print
}

/// Why a completed run of a cell counts as failed, if it does.
pub fn run_failure(result: &SimulationResult, mix: &WorkloadMix) -> Option<String> {
    if result.termination != TerminationReason::Completed {
        return Some(format!("terminated with {}", result.termination.label()));
    }
    if !result.all_finished(&mix.benign_threads()) {
        return Some("a benign core did not finish".to_string());
    }
    None
}

/// Exact-repeat counts of one workload, summed over the cells of the first
/// pass. Model-quality observations (flips, flagged threads) are counts, not
/// failures: they are properties of the model at this seed, not of the run.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    pub retired_instr: u64,
    pub dram_cycles: u64,
    pub llc_accesses: u64,
    pub llc_hits: u64,
    pub mshr_full_rejections: u64,
    pub quota_rejections: u64,
    pub writebacks: u64,
    pub reads_served: u64,
    pub writes_served: u64,
    pub row_hits: u64,
    pub row_lookups: u64,
    pub enqueue_rejections: u64,
    pub activates: u64,
    pub refreshes: u64,
    pub victim_refreshes: u64,
    pub bitflip_cells: u64,
    pub preventive_actions: u64,
    pub victim_rows_refreshed: u64,
    pub actions_observed: u64,
    pub suspect_identifications: u64,
    pub quota_restorations: u64,
    pub windows_completed: u64,
    pub attacker_flagged_cells: u64,
    pub benign_flagged_cells: u64,
}

/// The pinned observations of one cell (`expected/<workload>.seed42.txt`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellObservation {
    pub fingerprint: u64,
    pub bitflips: u64,
    pub attacker_flagged: bool,
    pub benign_flagged: bool,
}

impl Counts {
    fn add(&mut self, result: &SimulationResult, mix: &WorkloadMix) -> (bool, bool) {
        self.retired_instr += result.cores.iter().map(|c| c.instructions).sum::<u64>();
        self.dram_cycles += result.dram_cycles;
        let cache = &result.cache;
        self.llc_accesses += cache.hits + cache.misses + cache.mshr_merges;
        self.llc_hits += cache.hits;
        self.mshr_full_rejections += cache.mshr_full_rejections;
        self.quota_rejections += cache.quota_rejections;
        self.writebacks += cache.writebacks;
        let ctrl = &result.controller;
        self.reads_served += ctrl.reads_served;
        self.writes_served += ctrl.writes_served;
        self.row_hits += ctrl.row_hits;
        self.row_lookups += ctrl.row_hits + ctrl.row_misses + ctrl.row_conflicts;
        self.enqueue_rejections += ctrl.enqueue_rejections;
        self.activates += result.dram.activates;
        self.refreshes += result.dram.refreshes + result.dram.refreshes_same_bank;
        self.victim_refreshes += result.dram.victim_refreshes;
        self.bitflip_cells += u64::from(result.bitflips > 0);
        self.preventive_actions += result.preventive_actions;
        self.victim_rows_refreshed += ctrl.victim_rows_refreshed;
        if let Some(bh) = &result.breakhammer {
            self.actions_observed += bh.actions_observed;
            self.suspect_identifications += bh.suspect_identifications;
            self.quota_restorations += bh.quota_restorations;
            self.windows_completed += bh.windows_completed;
        }
        let attacker_flagged = mix.attacker_thread.is_some_and(|t| result.ever_suspect[t]);
        let benign_flagged = mix.benign_threads().iter().any(|t| result.ever_suspect[*t]);
        self.attacker_flagged_cells += u64::from(attacker_flagged);
        self.benign_flagged_cells += u64::from(benign_flagged);
        (attacker_flagged, benign_flagged)
    }
}

/// Host nanoseconds of one cell in one pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct CellSample {
    pub build_ns: f64,
    pub run_ns: f64,
    /// Build + run + dropping the result.
    pub total_ns: f64,
}

/// One timed pass.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Whether spans were recorded during this pass.
    pub traced: bool,
    pub setup_ns: f64,
    pub cells: Vec<CellSample>,
    /// Gauge samples taken at the head of the pass (traced runs only).
    pub gauge_ns: Vec<f64>,
}

/// Everything the pass loop measured.
#[derive(Debug)]
pub struct SimOutcome {
    pub workload: SimWorkload,
    pub passes: Vec<Pass>,
    /// Observations of the first pass, one per cell (`None` if it failed).
    pub observed: Vec<Option<CellObservation>>,
    pub counts: Counts,
    /// Cell runs attempted / failed over all passes.
    pub attempted: u64,
    pub failed: u64,
    /// First few failure descriptions, for the report.
    pub failures: Vec<String>,
}

impl SimOutcome {
    /// Minimum over the passes selected by `keep` of one cell's timing.
    pub fn best(
        &self,
        cell: usize,
        pick: impl Fn(&CellSample) -> f64,
        keep: impl Fn(&Pass) -> bool,
    ) -> f64 {
        best(self.passes.iter().filter(|p| keep(p)).map(|p| pick(&p.cells[cell])))
    }

    /// Σ over cells of the best total time, in ns.
    pub fn sum_best_ns(&self, keep: impl Fn(&Pass) -> bool + Copy) -> f64 {
        (0..self.workload.cells.len()).map(|c| self.best(c, |s| s.total_ns, keep)).sum()
    }
}

/// Gauge samples taken at the head of every pass of a traced run.
const GAUGE_BURST: usize = 8;

/// The gauge: a fixed high-IPC kernel (four independent multiply-add chains,
/// about 1 ms). SMT-sibling contention slows it like it slows the simulator,
/// where a dependent chain would not move at all; `host.contention` is its
/// median over its minimum.
pub fn gauge_kernel() -> u64 {
    let mut acc = [1u64, 2, 3, 4];
    for i in 0..1_000_000u64 {
        for lane in &mut acc {
            *lane = lane.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        }
    }
    std::hint::black_box(acc.iter().fold(0, |a, b| a ^ b))
}

/// Appends one burst of gauge samples to `samples`.
pub fn gauge_burst(samples: &mut Vec<f64>) {
    for _ in 0..GAUGE_BURST {
        samples.push(clock::timed(gauge_kernel).1 as f64);
    }
}

/// Runs the pass loop of simulation workload `name`. With `trace`, every
/// second timed pass records spans; the others do not, which is what
/// `host.trace_overhead_pct` compares.
pub fn run_passes(
    name: &str,
    seed: u64,
    smoke: bool,
    trace: bool,
    budget: Budget,
    rec: &mut Recorder,
) -> SimOutcome {
    let build = |rec: &mut Recorder| {
        rec.time("workloads.generate", NO_CELL, |_| {
            build_sim(name, seed, smoke).expect("a simulation workload name")
        })
    };
    rec.enabled = false;
    let (workload, _) = build(rec);
    let mut out = SimOutcome {
        observed: vec![None; workload.cells.len()],
        workload,
        passes: Vec::new(),
        counts: Counts::default(),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
    };
    let mut pacer = Pacer::new(budget, clock::now());
    loop {
        let traced = trace && out.passes.len().is_multiple_of(2);
        rec.enabled = traced;
        let pass_started = clock::now();
        // Set-up is re-executed at the head of every pass so it is sampled
        // across the same time span as the cells.
        let (discarded, setup_ns) = build(rec);
        drop(discarded);
        let mut pass =
            Pass { traced, setup_ns: setup_ns as f64, cells: Vec::new(), gauge_ns: Vec::new() };
        if trace {
            gauge_burst(&mut pass.gauge_ns);
        }
        one_pass(&mut out, rec, &mut pass);
        out.passes.push(pass);
        if !pacer.another_after(pass_started) {
            break;
        }
    }
    rec.enabled = trace;
    out
}

/// Runs every cell once into `pass`. The first pass of a run also collects
/// the counts and the reference fingerprints every later pass must
/// reproduce; it is timed like the others — caches and the allocator are
/// cold, so its samples are simply never the minimum.
fn one_pass(out: &mut SimOutcome, rec: &mut Recorder, pass: &mut Pass) {
    let first_pass = out.attempted == 0;
    for index in 0..out.workload.cells.len() {
        let cell = &out.workload.cells[index];
        let mix = &out.workload.mixes[cell.mix];
        out.attempted += 1;
        let (result, build_ns, run_ns) = run_cell(rec, index as u32, cell, mix);
        let mut sample =
            CellSample { build_ns: build_ns as f64, run_ns: run_ns as f64, total_ns: 0.0 };
        let failure = match result {
            Err(message) => Some(format!("panicked: {message}")),
            Ok(mut result) => {
                let mut failure = run_failure(&result, mix);
                let print = fingerprint(&mut result);
                if first_pass {
                    let (attacker_flagged, benign_flagged) = out.counts.add(&result, mix);
                    out.observed[index] = Some(CellObservation {
                        fingerprint: print,
                        bitflips: result.bitflips as u64,
                        attacker_flagged,
                        benign_flagged,
                    });
                } else if out.observed[index].is_some_and(|first| first.fingerprint != print) {
                    failure = failure.or(Some("fingerprint differs from the first pass".into()));
                }
                // Dropping the result is part of the cell as a user pays it.
                let (_, drop_ns) = clock::timed(|| drop(result));
                sample.total_ns = (build_ns + run_ns + drop_ns) as f64;
                failure
            }
        };
        pass.cells.push(sample);
        if let Some(why) = failure {
            out.failed += 1;
            if out.failures.len() < 8 {
                out.failures.push(format!("{}: {why}", out.workload.cells[index].id));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_cell_has_the_same_fingerprint_every_run_and_cells_differ() {
        let workload = build_sim("attack_paper", 42, true).unwrap();
        let mut rec = Recorder::new(false);
        let mut print = |index: usize| {
            let cell = &workload.cells[index];
            let mix = &workload.mixes[cell.mix];
            let mut result = run_cell(&mut rec, index as u32, cell, mix).0.expect("the cell runs");
            assert_eq!(run_failure(&result, mix), None);
            let stepping = result.stepping;
            let print = fingerprint(&mut result);
            assert_eq!(result.stepping, stepping, "fingerprinting leaves the result intact");
            print
        };
        assert_eq!(print(0), print(0));
        assert_ne!(print(0), print(2));
    }

    #[test]
    fn the_pass_loop_samples_every_cell_every_pass() {
        let budget = Budget { seconds: 0.0, min_laps: 2 };
        let out = run_passes("scaled_4ch", 7, true, true, budget, &mut Recorder::new(true));
        assert_eq!(out.passes.len(), 2);
        assert_eq!((out.attempted, out.failed), (14, 0));
        assert!(out.passes.iter().all(|p| p.cells.len() == 7 && !p.gauge_ns.is_empty()));
        assert!(out.passes[0].traced && !out.passes[1].traced);
        assert!(out.observed.iter().all(Option::is_some));
        assert!(out.sum_best_ns(|_| true) > 0.0 && out.counts.retired_instr > 0);
    }
}
