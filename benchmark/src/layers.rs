//! The traced run's second half: rounds of the per-layer harnesses and the
//! execution-mode trials on the workload's designated cell. Every round
//! times every harness once; a timing is reported as its minimum over the
//! rounds, like the cells of the pass loop.

use crate::harness::{
    breakhammer_replay, build_memory, derive_commands, front_end_replay, issue_commands,
    mechanism_replay, memory_replay, tracker_replay, StubLane, ACTIVATIONS_PER_ACTION,
};
use crate::simrun::{fingerprint, run_cell, run_failure};
use crate::span::Recorder;
use crate::workloads::{Cell, SimWorkload};
use bh_mitigation::MechanismKind;
use bh_sim::{ChannelStepping, FrontEndKind, SchedulerKind, SimulationResult, SystemConfig};
use std::collections::BTreeMap;

/// Minimum host nanoseconds per harness over the rounds, plus the work each
/// harness did (identical every round).
#[derive(Debug, Default)]
pub struct LayerTimes {
    pub best_ns: BTreeMap<String, f64>,
    pub rounds: u64,
    pub requests: u64,
    pub lane_cycles: u64,
    pub commands: u64,
    pub activations: u64,
    pub compiled_entries: u64,
    /// `stepping.epoch_cycles / dram_cycles` of the parallel-stepping trial.
    pub epoch_coverage: f64,
    /// Trials whose result differed from the default configuration's.
    pub problems: Vec<String>,
}

impl LayerTimes {
    fn offer(&mut self, name: &str, ns: u64) {
        let best = self.best_ns.entry(name.to_string()).or_insert(f64::INFINITY);
        *best = best.min(ns as f64);
    }

    /// Best time of `name` in nanoseconds (0 if it never ran).
    pub fn ns(&self, name: &str) -> f64 {
        self.best_ns.get(name).copied().filter(|v| v.is_finite()).unwrap_or(0.0)
    }

    /// Best time of `name` in milliseconds.
    pub fn ms(&self, name: &str) -> f64 {
        self.ns(name) / 1e6
    }
}

/// The execution-mode variants put on trial against the default (event-
/// driven kernel, engine front-end, serial stepping, watchdog on).
fn trials(config: &SystemConfig) -> Vec<(&'static str, SystemConfig)> {
    let vary = |f: fn(&mut SystemConfig)| {
        let mut variant = config.clone();
        f(&mut variant);
        variant
    };
    vec![
        ("sim.trial.default", config.clone()),
        ("sim.trial.no_watchdog", vary(|c| c.watchdog.enabled = false)),
        ("sim.trial.per_cycle", vary(|c| c.scheduler = SchedulerKind::PerCycle)),
        ("sim.trial.legacy_front_end", vary(|c| c.front_end = FrontEndKind::Legacy)),
        ("sim.trial.parallel_stepping", vary(|c| c.stepping = ChannelStepping::Parallel)),
    ]
}

/// What each thread saw of memory in a coupled run: its mean latency and the
/// DRAM cycles per request it was served.
pub fn stub_lanes(result: &SimulationResult) -> Vec<StubLane> {
    result
        .latency
        .iter()
        .map(|seen| StubLane {
            latency: (seen.mean().round() as u64).max(1),
            service: result.dram_cycles as f64 / seen.count().max(1) as f64,
        })
        .collect()
}

/// Runs one round of every harness and trial on the designated cell.
pub fn round(times: &mut LayerTimes, workload: &SimWorkload, rec: &mut Recorder) {
    let index = workload.designated as u32;
    let cell = &workload.cells[workload.designated];
    let mix = &workload.mixes[cell.mix];
    let config = &cell.config;
    times.rounds += 1;

    // sim: the execution modes on trial. All are documented bit-identical,
    // so each trial's fingerprint must equal the default's.
    let mut reference = None;
    let mut stub = vec![StubLane { latency: 1, service: 1.0 }; config.cores];
    for (name, variant) in trials(config) {
        let trial = Cell { id: cell.id.clone(), config: variant, mix: cell.mix };
        let (result, build_ns, run_ns) = run_cell(rec, index, &trial, mix);
        match result {
            Ok(mut result) => {
                times.offer(name, build_ns + run_ns);
                if name == "sim.trial.default" {
                    times.offer("sim.trial.default_run", run_ns);
                    stub = stub_lanes(&result);
                }
                if name == "sim.trial.parallel_stepping" && result.dram_cycles > 0 {
                    times.epoch_coverage =
                        result.stepping.epoch_cycles as f64 / result.dram_cycles as f64;
                }
                let print = fingerprint(&mut result);
                // Deterministic, so the first round says it all.
                if times.rounds == 1 {
                    if let Some(why) = run_failure(&result, mix) {
                        times.problems.push(format!("{name}: {why}"));
                    } else if *reference.get_or_insert(print) != print {
                        times
                            .problems
                            .push(format!("{name}: result differs from the default mode's"));
                    }
                }
            }
            Err(message) if times.rounds == 1 => {
                times.problems.push(format!("{name}: panicked: {message}"));
            }
            Err(_) => {}
        }
    }

    // cpu: trace compilation, then the front-end against the memory stub.
    let plain: Vec<_> = mix.traces.iter().map(|t| t.to_trace()).collect();
    let (compiled, ns) =
        rec.time("cpu.compile", index, |_| plain.iter().map(|t| t.compile()).collect::<Vec<_>>());
    times.offer("cpu.compile", ns);
    times.compiled_entries = compiled.iter().map(|t| t.len() as u64).sum();
    let (front, ns) = rec.time("cpu.front_end_replay", index, |_| {
        front_end_replay(config, &mix.traces, &mix.benign_threads(), &stub)
    });
    times.offer("cpu.front_end_replay", ns);
    times.requests = front.requests.len() as u64;
    times.lane_cycles = front.lane_cycles;

    // mem / mitigation / core: the same request stream into three memory
    // systems that differ by one layer each.
    let variants = [
        ("mem.replay", MechanismKind::None, false),
        ("mitigation.replay", config.mechanism, false),
        ("core.replay", config.mechanism, true),
    ];
    for (name, mechanism, breakhammer) in variants {
        let memory = build_memory(config, mechanism, breakhammer);
        let (_, ns) = rec.time(name, index, |_| memory_replay(memory, &front.requests));
        times.offer(name, ns);
    }

    // dram: the device model and the disturbance tracker on the derived
    // command and activation streams.
    let (commands, activations) = derive_commands(config, &front.requests);
    times.commands = commands.len() as u64;
    times.activations = activations.len() as u64;
    let (_, ns) = rec.time("dram.commands", index, |_| issue_commands(config, &commands));
    times.offer("dram.commands", ns);
    let (_, ns) = rec.time("dram.tracker", index, |_| tracker_replay(config, &activations));
    times.offer("dram.tracker", ns);

    // mitigation: every mechanism of the workload on the activation stream.
    for (mechanism, nrh) in workload.mechanisms() {
        let (_, ns) = rec.time("mitigation.on_activation", index, |_| {
            mechanism_replay(config, mechanism, nrh, &activations)
        });
        times.offer(&format!("mitigation.on_activation.{}", mechanism.label()), ns);
    }

    // core: BreakHammer's two event hooks.
    let (_, ns) =
        rec.time("core.on_activation", index, |_| breakhammer_replay(config, &activations, false));
    times.offer("core.on_activation", ns);
    let (_, ns) = rec.time("core.on_preventive_action", index, |_| {
        breakhammer_replay(config, &activations, true)
    });
    times.offer("core.with_actions", ns);
}

/// Nanoseconds per `on_preventive_action_from`: what the replay with actions
/// cost beyond the replay without, per action reported.
pub fn ns_per_preventive_action(times: &LayerTimes) -> f64 {
    let actions = times.activations / ACTIVATIONS_PER_ACTION as u64;
    if actions == 0 {
        return 0.0;
    }
    (times.ns("core.with_actions") - times.ns("core.on_activation")).max(0.0) / actions as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::build_sim;

    /// The activation stream the `dram.*` and `mitigation.*` harnesses replay
    /// is derived (open row, arrival order) from the front-end harness's
    /// request stream, not tapped from the controller. It has to stay close
    /// to what the coupled run activates, or those harnesses time a stream
    /// the simulator never sees. FR-FCFS reordering and refresh closing rows
    /// make the coupled count differ; 25 % is the stated tolerance.
    #[test]
    fn derived_activations_track_the_coupled_run_without_a_mechanism() {
        let workload = build_sim("benign_paper", 42, true).unwrap();
        let cell = &workload.cells[0];
        assert_eq!(cell.config.mechanism, MechanismKind::None);
        let mix = &workload.mixes[cell.mix];
        let mut rec = Recorder::new(false);
        let coupled = run_cell(&mut rec, 0, cell, mix).0.expect("the cell runs");
        let front = front_end_replay(
            &cell.config,
            &mix.traces,
            &mix.benign_threads(),
            &stub_lanes(&coupled),
        );
        let served = coupled.controller.reads_served + coupled.controller.writes_served;
        let requests = front.requests.len() as f64;
        assert!(
            (requests / served as f64 - 1.0).abs() < 0.05,
            "{requests} requests vs {served} served"
        );
        let (commands, activations) = derive_commands(&cell.config, &front.requests);
        let derived = activations.len() as f64;
        let coupled_acts = coupled.dram.activates as f64;
        assert!(
            (derived / coupled_acts - 1.0).abs() < 0.25,
            "derived {derived} activations, the coupled run issued {coupled_acts}"
        );
        // The derived commands respect the bank state machine and timing.
        assert!(issue_commands(&cell.config, &commands) > 0);
    }

    #[test]
    fn a_round_times_every_harness_and_every_mode_agrees() {
        let workload = build_sim("scaled_4ch", 42, true).unwrap();
        let mut times = LayerTimes::default();
        round(&mut times, &workload, &mut Recorder::new(false));
        assert!(times.problems.is_empty(), "{:?}", times.problems);
        for name in [
            "cpu.compile",
            "cpu.front_end_replay",
            "mem.replay",
            "mitigation.replay",
            "core.replay",
            "dram.commands",
            "dram.tracker",
            "mitigation.on_activation.Graphene",
            "core.on_activation",
            "sim.trial.per_cycle",
            "sim.trial.parallel_stepping",
        ] {
            assert!(times.ns(name) > 0.0, "{name} was not timed");
        }
        assert!(times.requests > 0 && times.activations > 0 && times.lane_cycles > 0);
    }
}
