//! The sharded multi-channel memory system.
//!
//! [`MemorySystem`] owns one [`MemoryController`] (and therefore one DRAM
//! channel and one mitigation-mechanism instance) per memory channel, routes
//! demand requests to their channel via
//! [`AddressMapping::channel_of`](crate::AddressMapping::channel_of) (consecutive
//! cache lines alternate channels), and exposes the
//! merged next-event horizon (the minimum across the per-channel controllers)
//! so the event-driven simulation kernel can drive N channels exactly like
//! one.
//!
//! BreakHammer is deliberately *not* per-channel: a single instance observes
//! the demand activations and preventive actions of every channel and
//! throttles threads on their system-wide score — exactly the paper's
//! memory-system-wide observer (§5, Table 1), mirroring how per-channel
//! trackers (Graphene, Hydra, BlockHammer, …) stay independent while the
//! throttling decision is global.
//!
//! A one-channel system runs the same code as an N-channel one, over a
//! one-element controller list: at one channel the mapping's channel split is
//! the identity, and appending the sole controller's responses yields what a
//! buffer swap would. A separate one-channel path does not earn its place: one
//! that forwarded the hot entry points straight to the sole controller was
//! timed against this code in alternating 28 s benchmark pairs (2 vCPUs), and
//! `sim_mips` moved by less than the host's run-to-run spread. `attack_paper`
//! read 12.71 [12.04, 13.46] with it and 12.52 without (median [quartiles],
//! 10 pairs); `benign_paper` read 43.27 [38.21, 44.79] with it and 40.94
//! without (30 pairs, in three series of ten that read −6.1 %, +1.7 % and
//! −1.3 %). `crates/mem/tests/dispatch_overhead.rs` times this path at one
//! channel against a bare [`MemoryController`], and the digest harness at the
//! workspace root pins the behaviour bit-for-bit.

use crate::config::MemControllerConfig;
use crate::controller::{ControllerStats, MemoryController};
use crate::latency::LatencyHistogram;
use crate::request::{MemRequest, MemResponse};
use bh_core::BreakHammer;
use bh_dram::{Cycle, DramChannel, PhysAddr, ThreadId};
use bh_mitigation::Mechanism;
use std::collections::VecDeque;

/// The counters of the deleted epoch channel stepping. Nothing writes them:
/// `bh_sim::SimulationResult::stepping` is always all zeros. The struct
/// stays, with these five field names, only because `benchmark/expected/`
/// hashes its `Debug` text and `benchmark/src/layers.rs` reads
/// `epoch_cycles`; it goes with `bh_sim::ChannelStepping` (ROADMAP item 2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SteppingStats {
    /// Always 0.
    pub epochs: u64,
    /// Always 0.
    pub parallel_epochs: u64,
    /// Always 0.
    pub epoch_cycles: u64,
    /// Always 0.
    pub channel_events: u64,
    /// Always 0.
    pub bh_events_replayed: u64,
}

/// A multi-channel memory system: per-channel controllers + mitigation
/// instances behind one request-routing facade, with one shared BreakHammer.
#[derive(Debug, Clone)]
pub struct MemorySystem {
    controllers: Vec<MemoryController>,
    /// The single system-wide BreakHammer observer (None when disabled).
    breakhammer: Option<BreakHammer>,
    /// Requests rejected by a full channel queue, one retry deque per
    /// channel: a saturated channel (e.g. one pinned by an attacker) must
    /// not head-of-line-block retries destined for idle channels, or the
    /// modeled cross-channel interference would exceed the hardware's.
    /// Within a channel, retries stay in arrival order.
    pending_enqueue: Vec<VecDeque<MemRequest>>,
}

impl MemorySystem {
    /// Builds a memory system from one `(DRAM channel, mechanism)` pair per
    /// memory channel. All controllers share `config` (queue capacities and
    /// the address mapping are per channel, as in a real controller die).
    ///
    /// # Panics
    /// Panics if `channels` is empty or its length does not match the
    /// geometry's channel count.
    pub fn new(
        config: MemControllerConfig,
        channels: Vec<(DramChannel, Mechanism)>,
        mut breakhammer: Option<BreakHammer>,
    ) -> Self {
        assert!(!channels.is_empty(), "a memory system needs at least one channel");
        let declared = channels[0].0.geometry().channels;
        assert_eq!(
            channels.len(),
            declared,
            "got {} channel instances for a geometry declaring {} channels",
            channels.len(),
            declared
        );
        let controllers: Vec<MemoryController> = channels
            .into_iter()
            .enumerate()
            .map(|(index, (channel, mechanism))| {
                MemoryController::new(config.clone(), channel, mechanism).with_channel_index(index)
            })
            .collect();
        if let Some(bh) = breakhammer.as_mut() {
            bh.declare_channels(controllers.len());
        }
        let pending_enqueue = vec![VecDeque::new(); controllers.len()];
        MemorySystem { controllers, breakhammer, pending_enqueue }
    }

    /// The per-channel controllers, in channel order.
    pub fn controllers(&self) -> &[MemoryController] {
        &self.controllers
    }

    /// The controller of one channel.
    pub fn controller(&self, channel: usize) -> &MemoryController {
        &self.controllers[channel]
    }

    /// The shared BreakHammer observer, if attached.
    pub fn breakhammer(&self) -> Option<&BreakHammer> {
        self.breakhammer.as_ref()
    }

    /// Detaches the BreakHammer observer and returns it. BreakHammer only
    /// observes the controllers (its one feedback path is the LLC quota the
    /// simulator reads from it), so the memory system runs on exactly as one
    /// built without it.
    pub fn detach_breakhammer(&mut self) -> Option<BreakHammer> {
        self.breakhammer.take()
    }

    /// The channel a physical address routes to.
    pub(crate) fn channel_of(&self, addr: PhysAddr) -> usize {
        let ctrl = &self.controllers[0];
        ctrl.config().mapping.channel_of(addr, ctrl.channel().geometry())
    }

    /// Routes `req` to its channel's controller.
    ///
    /// # Errors
    /// Returns the request back if that channel's queue is full.
    pub fn try_enqueue(&mut self, req: MemRequest) -> Result<(), MemRequest> {
        let channel = self.channel_of(req.addr);
        self.controllers[channel].try_enqueue(req)
    }

    /// Routes `req` to its channel, deferring it into that channel's retry
    /// queue if the channel's request queue is currently full.
    pub fn enqueue_or_defer(&mut self, req: MemRequest) {
        let channel = self.channel_of(req.addr);
        if let Err(rejected) = self.controllers[channel].try_enqueue(req) {
            self.pending_enqueue[channel].push_back(rejected);
        }
    }

    /// Retries deferred requests, per channel in arrival order, stopping at
    /// each channel's first request whose queue is still full. Channels are
    /// independent: a saturated channel never blocks another channel's
    /// retries.
    pub fn retry_pending(&mut self) {
        if !self.has_pending_enqueue() {
            return;
        }
        for (channel, pending) in self.pending_enqueue.iter_mut().enumerate() {
            while let Some(req) = pending.front().copied() {
                if self.controllers[channel].try_enqueue(req).is_ok() {
                    pending.pop_front();
                } else {
                    break;
                }
            }
        }
    }

    /// True if some rejected request is still waiting to be retried.
    pub fn has_pending_enqueue(&self) -> bool {
        self.pending_enqueue.iter().any(|pending| !pending.is_empty())
    }

    /// Number of rejected requests parked in `channel`'s enqueue-retry deque
    /// (diagnostic: feeds the forward-progress watchdog's livelock snapshot).
    pub fn pending_enqueue_depth(&self, channel: usize) -> usize {
        self.pending_enqueue[channel].len()
    }

    /// Records `n` skipped retry attempts per channel with a still-blocked
    /// deferred request (the event-driven kernel's bulk replay of the
    /// per-cycle kernel's one failed front retry per channel per cycle).
    pub fn absorb_enqueue_rejections(&mut self, n: u64) {
        for (channel, pending) in self.pending_enqueue.iter().enumerate() {
            if !pending.is_empty() {
                self.controllers[channel].absorb_enqueue_rejections(n);
            }
        }
    }

    /// Advances every channel controller by one DRAM cycle. The shared
    /// BreakHammer instance observes all of them.
    pub fn tick(&mut self, cycle: Cycle) {
        let breakhammer = &mut self.breakhammer;
        for controller in &mut self.controllers {
            controller.tick(cycle, breakhammer.as_mut());
        }
    }

    /// Earliest cycle strictly after `now` at which any channel's controller
    /// could make progress — the merged horizon driving the event-driven
    /// kernel (see [`MemoryController::next_event`] for the per-channel
    /// contract; the same undershoot-only guarantee holds for the minimum).
    pub fn next_event(&self, now: Cycle) -> Cycle {
        self.controllers.iter().map(|c| c.next_event(now)).min().unwrap_or(now + 1)
    }

    /// True if any channel has a response waiting to be drained (the cheap
    /// per-step probe that lets the simulation loop skip the drain
    /// entirely on response-free steps).
    pub fn has_responses(&self) -> bool {
        self.controllers.iter().any(MemoryController::has_responses)
    }

    /// Drains every channel's responses into `buf` (cleared first), in
    /// channel order.
    pub fn drain_responses_into(&mut self, buf: &mut Vec<MemResponse>) {
        buf.clear();
        for controller in &mut self.controllers {
            controller.append_responses_into(buf);
        }
    }

    /// Controller statistics aggregated over all channels.
    pub fn aggregate_stats(&self) -> ControllerStats {
        let mut total = ControllerStats::default();
        for controller in &self.controllers {
            total.accumulate(controller.stats());
        }
        total
    }

    /// DRAM command statistics aggregated over all channels.
    pub fn aggregate_dram_stats(&self) -> bh_dram::DramStats {
        let mut total = bh_dram::DramStats::default();
        for controller in &self.controllers {
            total.accumulate(controller.channel().stats());
        }
        total
    }

    /// The read-latency histogram of `thread`, merged over all channels.
    pub fn latency_of(&self, thread: ThreadId) -> LatencyHistogram {
        let mut merged = LatencyHistogram::new();
        for controller in &self.controllers {
            merged.merge(controller.latency_of(thread));
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::AddressMapping;
    use bh_dram::{AccessKind, BankAddr, DramGeometry, DramLocation, TimingParams};
    use bh_mitigation::MechanismKind;

    fn small_config(mapping: AddressMapping) -> MemControllerConfig {
        let mut c = MemControllerConfig::paper_table1(4);
        c.read_queue_capacity = 16;
        c.write_queue_capacity = 16;
        c.write_drain_high = 12;
        c.write_drain_low = 4;
        c.mapping = mapping;
        c
    }

    fn system(channels: usize) -> MemorySystem {
        let geometry = DramGeometry::tiny().with_channels(channels);
        let timing = TimingParams::fast_test();
        let mapping = AddressMapping::paper_default();
        let instances = (0..channels)
            .map(|ch| {
                let mechanism = MechanismKind::Graphene.build(&geometry, &timing, 128, ch as u64);
                let channel = DramChannel::with_rowhammer(geometry.clone(), timing.clone(), 128);
                (channel, mechanism)
            })
            .collect();
        MemorySystem::new(small_config(mapping), instances, None)
    }

    /// Physical address of a location on `channel`.
    fn addr_on(mem: &MemorySystem, channel: usize, row: usize, column: usize) -> PhysAddr {
        let loc = DramLocation {
            channel,
            bank: BankAddr { rank: 0, bank_group: 0, bank: 0 },
            row,
            column,
        };
        let ctrl = mem.controller(0);
        ctrl.config().mapping.encode(&loc, ctrl.channel().geometry())
    }

    /// The channel counts the routing tests run at: one channel takes the
    /// same paths as several.
    const CHANNEL_COUNTS: [usize; 3] = [1, 2, 4];

    #[test]
    fn requests_route_to_their_mapped_channel() {
        for channels in CHANNEL_COUNTS {
            let mut mem = system(channels);
            for channel in 0..channels {
                let addr = addr_on(&mem, channel, 5, 0);
                assert_eq!(mem.channel_of(addr), channel);
                mem.try_enqueue(MemRequest::read(channel as u64, ThreadId(0), addr, 0)).unwrap();
            }
            for channel in 0..channels {
                assert_eq!(mem.controller(channel).queued_requests(), 1, "{channels} channels");
            }
        }
    }

    #[test]
    fn responses_merge_across_channels() {
        for channels in CHANNEL_COUNTS {
            let mut mem = system(channels);
            for channel in 0..channels {
                let addr = addr_on(&mem, channel, 7, 0);
                mem.try_enqueue(MemRequest::read(channel as u64, ThreadId(0), addr, 0)).unwrap();
            }
            let mut responses = Vec::new();
            let mut buf = Vec::new();
            for cycle in 0..10_000u64 {
                mem.tick(cycle);
                if mem.has_responses() {
                    mem.drain_responses_into(&mut buf);
                    responses.extend(buf.iter().copied());
                }
                assert!(!mem.has_responses());
                if responses.len() == channels {
                    break;
                }
            }
            assert_eq!(responses.len(), channels, "every channel must serve its read");
            let stats = mem.aggregate_stats();
            assert_eq!(stats.reads_served, channels as u64);
            assert_eq!(stats.demand_activations, channels as u64);
            assert_eq!(mem.aggregate_dram_stats().activates, channels as u64);
        }
    }

    #[test]
    fn merged_next_event_is_the_minimum_over_channels() {
        for channels in CHANNEL_COUNTS {
            let mut mem = system(channels);
            // Load only the last channel; the others idle until their
            // refresh deadline.
            let last = channels - 1;
            let addr = addr_on(&mem, last, 3, 0);
            mem.try_enqueue(MemRequest::read(1, ThreadId(0), addr, 0)).unwrap();
            mem.tick(0);
            let merged = mem.next_event(0);
            let per_channel = (0..channels).map(|c| mem.controller(c).next_event(0)).min().unwrap();
            assert_eq!(merged, per_channel, "{channels} channels");
            assert!(merged > 0);
        }
    }

    #[test]
    fn deferred_requests_retry_on_their_own_channel() {
        for channels in CHANNEL_COUNTS {
            let mut mem = system(channels);
            assert!(!mem.has_pending_enqueue());
            // Fill channel 0's read queue, then defer one more to it.
            let mut id = 0u64;
            while mem.controller(0).can_accept(AccessKind::Read) {
                let addr = addr_on(&mem, 0, id as usize % 64, 0);
                mem.try_enqueue(MemRequest::read(id, ThreadId(0), addr, 0)).unwrap();
                id += 1;
            }
            mem.enqueue_or_defer(MemRequest::read(id, ThreadId(0), addr_on(&mem, 0, 99, 0), 0));
            assert!(mem.has_pending_enqueue());
            assert_eq!(mem.pending_enqueue_depth(0), 1);
            // The other channels are unaffected: their requests enqueue
            // directly.
            for channel in 1..channels {
                let addr = addr_on(&mem, channel, 5, 0);
                mem.enqueue_or_defer(MemRequest::read(id + 1, ThreadId(1), addr, 0));
                assert_eq!(mem.controller(channel).queued_requests(), 1);
                assert_eq!(mem.pending_enqueue_depth(channel), 0);
            }
            // A retry while channel 0 is still full keeps the request parked.
            mem.retry_pending();
            assert_eq!(mem.pending_enqueue_depth(0), 1);
            // Draining channel 0 lets the deferred request in.
            let mut buf = Vec::new();
            for cycle in 0..100_000u64 {
                mem.retry_pending();
                mem.tick(cycle);
                mem.drain_responses_into(&mut buf);
                if !mem.has_pending_enqueue() {
                    break;
                }
            }
            assert!(!mem.has_pending_enqueue(), "the deferred request must eventually enqueue");
            assert_eq!(mem.pending_enqueue_depth(0), 0);
        }
    }

    /// A `channels`-channel Graphene system (N_RH = 64) with one shared
    /// BreakHammer whose window is too long to rotate during a test.
    fn system_with_breakhammer(channels: usize) -> MemorySystem {
        use bh_core::{BreakHammer, BreakHammerConfig};
        let geometry = DramGeometry::tiny().with_channels(channels);
        let timing = TimingParams::fast_test();
        let instances: Vec<_> = (0..channels)
            .map(|ch| {
                let mechanism = MechanismKind::Graphene.build(&geometry, &timing, 64, ch as u64);
                let channel = DramChannel::with_rowhammer(geometry.clone(), timing.clone(), 64);
                (channel, mechanism)
            })
            .collect();
        let attribution = instances[0].1.attribution();
        let mut bh_cfg = BreakHammerConfig::fast_test(4, 16);
        bh_cfg.window_cycles = 1_000_000;
        let bh = BreakHammer::new(bh_cfg, attribution);
        MemorySystem::new(small_config(AddressMapping::paper_default()), instances, Some(bh))
    }

    #[test]
    fn shared_breakhammer_aggregates_actions_from_all_channels() {
        let channels = 2usize;
        let mut mem = system_with_breakhammer(channels);

        // Thread 0 double-side hammers *both* channels; thread 1 stays quiet.
        let mut id = 0u64;
        let mut cycle = 0u64;
        for round in 0..1200u64 {
            for channel in 0..channels {
                let row = if round % 2 == 0 { 50 } else { 52 };
                let addr = addr_on(&mem, channel, row, (round % 4) as usize);
                let req = MemRequest::read(id, ThreadId(0), addr, cycle);
                id += 1;
                let mut r = mem.try_enqueue(req);
                while r.is_err() {
                    mem.tick(cycle);
                    cycle += 1;
                    r = mem.try_enqueue(req);
                }
            }
            for _ in 0..8 {
                mem.tick(cycle);
                cycle += 1;
            }
        }
        let bh = mem.breakhammer().expect("BreakHammer attached");
        let stats = bh.stats();
        assert!(stats.actions_observed > 0, "hammering must trigger Graphene");
        assert_eq!(stats.actions_per_channel.len(), channels);
        assert!(
            stats.actions_per_channel.iter().all(|&n| n > 0),
            "both channels' trackers must have contributed actions: {:?}",
            stats.actions_per_channel
        );
        assert_eq!(stats.actions_per_channel.iter().sum::<u64>(), stats.actions_observed);
        // The cross-channel score identified the hammering thread.
        assert!(bh.score(ThreadId(0)) > bh.score(ThreadId(1)));
    }

    #[test]
    #[should_panic(expected = "channel instances")]
    fn channel_count_mismatch_is_rejected() {
        let geometry = DramGeometry::tiny().with_channels(2);
        let timing = TimingParams::fast_test();
        let mechanism = MechanismKind::None.build(&geometry, &timing, 1024, 0);
        let channel = DramChannel::with_rowhammer(geometry, timing, 1024);
        let _ = MemorySystem::new(
            small_config(AddressMapping::paper_default()),
            vec![(channel, mechanism)],
            None,
        );
    }
}
