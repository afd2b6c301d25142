//! Phase-isolating harnesses: each drives one layer's public functions alone
//! against a recorded input stream, so a layer's host time can be read apart
//! from the kernel loop that couples the layers in `System::run`.
//!
//! The streams come from the workload's designated cell. The front-end
//! harness replays its compiled traces through `CoreEngine` + the LLC
//! against a memory stub that gives every thread the mean latency and the
//! request rate it saw in the coupled run, and records every request the LLC
//! sends out; that request stream feeds the memory replays, and the DRAM
//! command and activation streams are derived from it through the address
//! mapping. The replays are open loop (arrival cycles are those the stub
//! produced), so they see the same requests in the same order as each
//! other, not the same queueing as the coupled run — `sim.residual_ms` is
//! what that leaves unexplained.

use bh_core::BreakHammer;
use bh_cpu::{CompiledTrace, CoreEngine, CoreProgress, LastLevelCache, MissToken, StallInfo};
use bh_dram::{Cycle, DramChannel, DramCommand, PhysAddr, RowHammerTracker, ThreadId};
use bh_mem::{MemRequest, MemorySystem};
use bh_mitigation::{ActionSink, ActivationEvent, MechanismKind, ScoreAttribution};
use bh_sim::SystemConfig;
use std::collections::VecDeque;
use std::ops::Range;

/// One request the LLC sent towards memory in the front-end harness.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    /// DRAM cycle at which the LLC emitted it.
    pub arrival: Cycle,
    pub thread: ThreadId,
    pub addr: PhysAddr,
    pub is_write: bool,
}

/// What the front-end harness produced.
#[derive(Debug)]
pub struct FrontEndReplay {
    pub requests: Vec<Request>,
    /// Σ over cores of the CPU cycles their lanes accounted.
    pub lane_cycles: u64,
}

/// The CPU/DRAM clock-domain crossing of `bh_sim` (private there): hands out
/// the CPU cycles to tick per DRAM cycle from a fractional accumulator.
struct CpuClock {
    ratio: f64,
    acc: f64,
    next_cpu_cycle: Cycle,
}

impl CpuClock {
    fn tick_range(&mut self) -> Range<Cycle> {
        self.acc += self.ratio;
        let start = self.next_cpu_cycle;
        while self.acc >= 1.0 {
            self.acc -= 1.0;
            self.next_cpu_cycle += 1;
        }
        start..self.next_cpu_cycle
    }

    fn advance(&mut self, dram_cycles: u64) -> u64 {
        (0..dram_cycles).map(|_| self.tick_range()).map(|r| r.end - r.start).sum()
    }

    /// DRAM cycles (≥ 1) until the one whose tick batch contains `target`.
    fn dram_cycles_until(&self, target: Cycle) -> u64 {
        let mut probe =
            CpuClock { ratio: self.ratio, acc: self.acc, next_cpu_cycle: self.next_cpu_cycle };
        let mut cycles = 0;
        loop {
            cycles += 1;
            if probe.tick_range().end > target {
                return cycles;
            }
        }
    }
}

/// How the stub memory treats one thread: it accepts one of the thread's
/// requests every `service` DRAM cycles and answers `latency` cycles after
/// accepting. Both come from the coupled run of the same cell, so every
/// thread — the attacker included, which a real controller serves far more
/// slowly than its benign company — emits about the requests it really did.
/// Without the throughput limit the cores would outrun any DRAM and the
/// recorded stream would swamp the replays.
#[derive(Debug, Clone, Copy)]
pub struct StubLane {
    pub latency: Cycle,
    pub service: f64,
}

/// Replays `traces` through the data-oriented front-end and the LLC against
/// `stub`, skipping dead cycles the way the event-driven kernel does
/// (`progress_batch` → `absorb_stall_ticks`). Ends when every core in
/// `required` has retired its budget.
pub fn front_end_replay(
    config: &SystemConfig,
    traces: &[CompiledTrace],
    required: &[usize],
    stub: &[StubLane],
) -> FrontEndReplay {
    let mut engine = CoreEngine::new(config.core, traces.to_vec(), config.instructions_per_core);
    let mut llc = LastLevelCache::new(config.cache.clone(), config.cores);
    let mut clock =
        CpuClock { ratio: config.cpu_cycles_per_dram_cycle(), acc: 0.0, next_cpu_cycle: 0 };
    // A thread's requests are accepted in order at one latency, so its fills
    // complete in the order they were sent: one FIFO per thread.
    let mut fills: Vec<VecDeque<(Cycle, MissToken)>> = vec![VecDeque::new(); config.cores];
    let mut free_at = vec![0.0f64; config.cores];
    let mut outgoing = Vec::new();
    let mut progress = Vec::new();
    let mut requests = Vec::new();
    let mut cycle: Cycle = 0;
    while !required.iter().all(|core| engine.finished(*core)) && cycle < config.max_dram_cycles {
        for lane in &mut fills {
            while lane.front().is_some_and(|(ready, _)| *ready <= cycle) {
                let (_, token) = lane.pop_front().expect("front was just inspected");
                llc.complete_miss(token);
            }
        }
        engine.tick_epoch(clock.tick_range(), &mut llc);
        if llc.has_outgoing() {
            llc.take_outgoing_into(&mut outgoing);
            for request in &outgoing {
                requests.push(Request {
                    arrival: cycle,
                    thread: request.thread,
                    addr: request.addr,
                    is_write: request.is_writeback,
                });
                let thread = request.thread.index();
                let accepted = free_at[thread].max(cycle as f64);
                free_at[thread] = accepted + stub[thread].service;
                if let Some(token) = request.token {
                    fills[thread].push_back((accepted as Cycle + stub[thread].latency, token));
                }
            }
        }
        let mut next = fills
            .iter()
            .filter_map(|lane| lane.front())
            .map(|(ready, _)| *ready)
            .min()
            .unwrap_or(Cycle::MAX);
        if next <= cycle + 1 || engine.progress_batch(&llc, clock.next_cpu_cycle, &mut progress) {
            cycle += 1;
            continue;
        }
        for p in &progress {
            if let CoreProgress::Stalled(StallInfo { wake_at: Some(t), .. }) = p {
                next = next.min(cycle + clock.dram_cycles_until(*t));
            }
        }
        let next = next.clamp(cycle + 1, config.max_dram_cycles);
        let cpu_ticks = clock.advance(next - cycle - 1);
        if cpu_ticks > 0 {
            for (core, p) in progress.iter().enumerate() {
                if let CoreProgress::Stalled(stall) = p {
                    engine.absorb_stall_ticks(core, cpu_ticks, stall);
                    if let Some(reason) = stall.reject {
                        llc.absorb_rejected_probes(cpu_ticks, reason);
                    }
                }
            }
        }
        cycle = next;
    }
    engine.settle();
    let lane_cycles = (0..config.cores).map(|core| engine.stats(core).cycles).sum();
    FrontEndReplay { requests, lane_cycles }
}

/// Wires a memory system the way `System::with_compiled` does, under
/// `mechanism` (at the configuration's threshold) with or without
/// BreakHammer.
pub fn build_memory(
    config: &SystemConfig,
    mechanism: MechanismKind,
    breakhammer: bool,
) -> MemorySystem {
    let channels = config.geometry.channels.max(1);
    let mechanisms: Vec<_> = (0..channels)
        .map(|ch| {
            mechanism.build(
                &config.geometry,
                &config.timing,
                config.nrh,
                config.seed.wrapping_add(ch as u64),
            )
        })
        .collect();
    let timing = config.timing.clone().with_adjustment(&mechanisms[0].timing_adjustment());
    let observer = breakhammer.then(|| {
        BreakHammer::new(config.effective_breakhammer_config(), mechanisms[0].attribution())
    });
    let instances = mechanisms
        .into_iter()
        .enumerate()
        .map(|(ch, mechanism)| {
            let channel = DramChannel::with_config(
                config.geometry.clone(),
                timing.clone(),
                config.energy.clone(),
                config.device.clone(),
                Some(tracker(config, ch)),
            );
            (channel, mechanism)
        })
        .collect();
    MemorySystem::new(config.memctrl.clone(), instances, observer)
}

fn tracker(config: &SystemConfig, channel: usize) -> RowHammerTracker {
    RowHammerTracker::with_fault(
        config.geometry.clone(),
        config.nrh,
        config.device.blast_radius,
        config.fault.model,
        config.seed,
        channel,
    )
}

/// Replays `requests` into `memory` at their recorded arrival cycles through
/// the calls the kernel makes (`enqueue_or_defer`, `retry_pending`, `tick` at
/// `next_event`, `drain_responses_into`) until every read has been answered.
/// Returns the number of responses drained.
pub fn memory_replay(mut memory: MemorySystem, requests: &[Request]) -> u64 {
    let reads = requests.iter().filter(|r| !r.is_write).count() as u64;
    let last_arrival = requests.last().map_or(0, |r| r.arrival);
    let mut responses = Vec::new();
    let (mut next_request, mut reads_done, mut drained) = (0usize, 0u64, 0u64);
    let mut cycle: Cycle = 0;
    // A livelocked replay would otherwise spin: cut it well past the stream.
    let cutoff = last_arrival + 50_000_000;
    while (next_request < requests.len() || reads_done < reads) && cycle < cutoff {
        while requests.get(next_request).is_some_and(|r| r.arrival <= cycle) {
            let r = requests[next_request];
            let id = next_request as u64;
            memory.enqueue_or_defer(if r.is_write {
                MemRequest::write(id, r.thread, r.addr, cycle)
            } else {
                MemRequest::read(id, r.thread, r.addr, cycle)
            });
            next_request += 1;
        }
        memory.retry_pending();
        memory.tick(cycle);
        if memory.has_responses() {
            memory.drain_responses_into(&mut responses);
            drained += responses.len() as u64;
            reads_done += responses.iter().filter(|r| r.kind.is_read()).count() as u64;
        }
        let mut next = memory.next_event(cycle);
        if let Some(r) = requests.get(next_request) {
            next = next.min(r.arrival);
        }
        if let Some(observer) = memory.breakhammer() {
            next = next.min(observer.next_window_end());
        }
        cycle = next.max(cycle + 1);
    }
    std::hint::black_box(memory.aggregate_stats());
    drained
}

/// One activation derived from the request stream.
#[derive(Debug, Clone, Copy)]
pub struct Activation {
    pub channel: usize,
    pub event: ActivationEvent,
}

/// The DRAM command and activation streams a request stream implies under an
/// open-row policy served in arrival order: a request whose (bank, row)
/// differs from its bank's previous one closes that row (PRE) and opens its
/// own (ACT) before its column command.
pub fn derive_commands(
    config: &SystemConfig,
    requests: &[Request],
) -> (Vec<(usize, DramCommand)>, Vec<Activation>) {
    let geometry = &config.geometry;
    let banks = geometry.banks_per_channel();
    let mut open_row: Vec<Option<usize>> = vec![None; geometry.channels.max(1) * banks];
    let mut commands = Vec::with_capacity(requests.len() * 2);
    let mut activations = Vec::new();
    for request in requests {
        let loc = config.memctrl.mapping.decode(request.addr, geometry);
        let slot = &mut open_row[loc.channel * banks + geometry.flat_bank(loc.bank)];
        if *slot != Some(loc.row) {
            if slot.is_some() {
                commands.push((loc.channel, DramCommand::precharge(loc.bank)));
            }
            commands.push((loc.channel, DramCommand::activate(loc.bank, loc.row)));
            activations.push(Activation {
                channel: loc.channel,
                event: ActivationEvent {
                    row: loc.row_addr(),
                    thread: request.thread,
                    cycle: request.arrival,
                },
            });
            *slot = Some(loc.row);
        }
        let column =
            if request.is_write { DramCommand::write(loc) } else { DramCommand::read(loc) };
        commands.push((loc.channel, column));
    }
    (commands, activations)
}

/// Issues `commands` to bare DRAM channels (no RowHammer tracker), each at
/// its `earliest_issue`. Returns the cycle the last command issued at.
pub fn issue_commands(config: &SystemConfig, commands: &[(usize, DramCommand)]) -> Cycle {
    let mut channels: Vec<(DramChannel, Cycle)> = (0..config.geometry.channels.max(1))
        .map(|_| {
            let channel = DramChannel::with_config(
                config.geometry.clone(),
                config.timing.clone(),
                config.energy.clone(),
                config.device.clone(),
                None,
            );
            (channel, 0)
        })
        .collect();
    for (channel, command) in commands {
        let (device, next_free) = &mut channels[*channel];
        let at = device.earliest_issue(command).max(*next_free);
        device.issue(command, at).expect("the derived stream respects the bank state machine");
        *next_free = at + 1;
    }
    channels.iter().map(|(_, next_free)| *next_free).max().unwrap_or(0)
}

/// `RowHammerTracker::on_activate` over the activation stream. Returns the
/// would-be bit-flips (none are refreshed away here, so it is not a count of
/// the model).
pub fn tracker_replay(config: &SystemConfig, activations: &[Activation]) -> usize {
    let mut trackers: Vec<RowHammerTracker> =
        (0..config.geometry.channels.max(1)).map(|ch| tracker(config, ch)).collect();
    for activation in activations {
        trackers[activation.channel].on_activate(activation.event.row, activation.event.cycle);
    }
    trackers.iter().map(RowHammerTracker::bitflip_count).sum()
}

/// `TriggerMechanism::on_activation` of `mechanism` at threshold `nrh` over
/// the activation stream (one instance per channel, as in the simulator).
/// Returns the preventive actions it asked for.
pub fn mechanism_replay(
    config: &SystemConfig,
    mechanism: MechanismKind,
    nrh: u64,
    activations: &[Activation],
) -> usize {
    let mut instances: Vec<_> = (0..config.geometry.channels.max(1))
        .map(|ch| {
            mechanism.build(
                &config.geometry,
                &config.timing,
                nrh,
                config.seed.wrapping_add(ch as u64),
            )
        })
        .collect();
    let mut sink = ActionSink::default();
    let mut actions = 0;
    for activation in activations {
        sink.clear();
        instances[activation.channel].on_activation(&activation.event, &mut sink);
        actions += sink.len();
    }
    actions
}

/// Every how many activations the BreakHammer harness reports a preventive
/// action (Graphene at N_RH = 64 acts about this often under attack).
pub const ACTIVATIONS_PER_ACTION: usize = 8;

/// `BreakHammer::on_activation` over the activation stream, with
/// `on_preventive_action_from` after every [`ACTIVATIONS_PER_ACTION`]-th one
/// when `with_actions`. Returns the suspect identifications.
pub fn breakhammer_replay(
    config: &SystemConfig,
    activations: &[Activation],
    with_actions: bool,
) -> u64 {
    let mut observer = BreakHammer::new(
        config.effective_breakhammer_config(),
        ScoreAttribution::ProportionalToActivations,
    );
    observer.declare_channels(config.geometry.channels.max(1));
    for (index, activation) in activations.iter().enumerate() {
        observer.on_activation(activation.event.thread, activation.event.cycle);
        if with_actions && index % ACTIVATIONS_PER_ACTION == ACTIVATIONS_PER_ACTION - 1 {
            observer.on_preventive_action_from(activation.channel, activation.event.cycle);
        }
    }
    observer.stats().suspect_identifications
}
