//! The sharded multi-channel memory system.
//!
//! [`MemorySystem`] owns one [`MemoryController`] (and therefore one DRAM
//! channel and one mitigation-mechanism instance) per memory channel, routes
//! demand requests to their channel via the address mapping's
//! [`ChannelInterleave`](crate::ChannelInterleave) policy, and exposes the
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
//! With a single channel, every code path degenerates to the behaviour of a
//! lone [`MemoryController`] — and does so through a dedicated fast path:
//! the hot per-request and per-step entry points ([`MemorySystem::channel_of`],
//! [`MemorySystem::enqueue_or_defer`], [`MemorySystem::tick`],
//! [`MemorySystem::next_event`], [`MemorySystem::drain_responses_into`])
//! forward straight to the sole controller without consulting the address
//! mapping's channel bits or walking per-channel collections, so a
//! single-channel system pays no routing tax over driving the controller
//! directly (`crates/mem/tests/dispatch_overhead.rs` pins this). The digest
//! harness at the workspace root pins the behavioural equivalence
//! bit-for-bit.

use crate::config::MemControllerConfig;
use crate::controller::{BhEvent, BhEventKind, BhSink, ControllerStats, MemoryController};
use crate::latency::LatencyHistogram;
use crate::request::{MemRequest, MemResponse};
use bh_core::BreakHammer;
use bh_dram::{Cycle, DramChannel, DramGeometry, PhysAddr, ThreadId};
use bh_mitigation::TriggerMechanism;
use std::collections::VecDeque;

/// Counters describing epoch-decoupled channel stepping (see
/// [`MemorySystem::advance_epoch`]). All zeros under serial stepping.
// bh-exhaustive: `accumulate` destructures every field; bh_analyze rule X1
// rejects any `..` at a `SteppingStats { .. }` use site.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SteppingStats {
    /// Epochs executed.
    pub epochs: u64,
    /// Always 0: every epoch runs on the calling thread. The field stays
    /// because `benchmark/expected/` hashes this struct's `Debug` text.
    pub parallel_epochs: u64,
    /// DRAM cycles covered by epochs (the merged steps the serial schedule
    /// would have executed one by one).
    pub epoch_cycles: u64,
    /// Controller tick events processed inside epochs, across channels.
    pub channel_events: u64,
    /// Recorded BreakHammer events replayed at epoch merges.
    pub bh_events_replayed: u64,
}

impl SteppingStats {
    /// Adds another run's counters into this one (campaign aggregation).
    pub fn accumulate(&mut self, other: &SteppingStats) {
        // Exhaustive destructuring (no `..`): adding a counter without
        // aggregating it here is a compile error, not a silent zero in
        // campaign-level summaries.
        let SteppingStats {
            epochs,
            parallel_epochs,
            epoch_cycles,
            channel_events,
            bh_events_replayed,
        } = other;
        self.epochs += epochs;
        self.parallel_epochs += parallel_epochs;
        self.epoch_cycles += epoch_cycles;
        self.channel_events += channel_events;
        self.bh_events_replayed += bh_events_replayed;
    }
}

/// A multi-channel memory system: per-channel controllers + mitigation
/// instances behind one request-routing facade, with one shared BreakHammer.
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
    /// Total entries across `pending_enqueue` (cheap emptiness probe on the
    /// per-step fast path).
    pending_total: usize,
    /// True for a single-channel system: the hot entry points skip channel
    /// routing and per-channel iteration and forward straight to
    /// `controllers[0]`.
    single_channel: bool,
    /// Per-channel BreakHammer event recordings of the current epoch
    /// (cleared at each epoch start; merged in (cycle, channel) order once
    /// every channel has reached the epoch's end).
    bh_events: Vec<Vec<BhEvent>>,
    /// Per-channel cursors of the epoch-merge replay (scratch).
    merge_cursors: Vec<usize>,
    /// Epoch-stepping counters.
    stepping: SteppingStats,
}

impl std::fmt::Debug for MemorySystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemorySystem")
            .field("channels", &self.controllers.len())
            .field("breakhammer", &self.breakhammer.is_some())
            .field("pending_enqueue", &self.pending_enqueue.len())
            .finish_non_exhaustive()
    }
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
        channels: Vec<(DramChannel, Box<dyn TriggerMechanism>)>,
        mut breakhammer: Option<BreakHammer>,
    ) -> Self {
        assert!(!channels.is_empty(), "a memory system needs at least one channel");
        let declared = channels[0].0.geometry().channels.max(1);
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
        let channels_len = controllers.len();
        let pending_enqueue: Vec<VecDeque<MemRequest>> =
            controllers.iter().map(|_| VecDeque::new()).collect();
        let bh_events = controllers.iter().map(|_| Vec::new()).collect();
        let single_channel = channels_len == 1;
        MemorySystem {
            controllers,
            breakhammer,
            pending_enqueue,
            pending_total: 0,
            single_channel,
            bh_events,
            merge_cursors: vec![0; channels_len],
            stepping: SteppingStats::default(),
        }
    }

    /// Number of memory channels.
    pub fn channel_count(&self) -> usize {
        self.controllers.len()
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

    /// The geometry shared by every channel.
    pub fn geometry(&self) -> &DramGeometry {
        self.controllers[0].channel().geometry()
    }

    /// The channel a physical address routes to.
    pub fn channel_of(&self, addr: PhysAddr) -> usize {
        if self.single_channel {
            // Every interleave policy is the identity at one channel; skip
            // the mapping's channel-bit extraction on the per-request path.
            return 0;
        }
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
            self.pending_total += 1;
        }
    }

    /// Retries deferred requests, per channel in arrival order, stopping at
    /// each channel's first request whose queue is still full. Channels are
    /// independent: a saturated channel never blocks another channel's
    /// retries.
    pub fn retry_pending(&mut self) {
        if self.pending_total == 0 {
            return;
        }
        for (channel, pending) in self.pending_enqueue.iter_mut().enumerate() {
            while let Some(req) = pending.front().copied() {
                if self.controllers[channel].try_enqueue(req).is_ok() {
                    pending.pop_front();
                    self.pending_total -= 1;
                } else {
                    break;
                }
            }
        }
    }

    /// True if some rejected request is still waiting to be retried.
    pub fn has_pending_enqueue(&self) -> bool {
        self.pending_total > 0
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

    /// Advances every channel independently from `from` up to (and
    /// excluding) `to` — one *epoch*, run channel by channel on the calling
    /// thread — then replays the channels' recorded BreakHammer events into
    /// the shared observer in (cycle, channel-index) order: exactly the
    /// order the serial schedule reports the same events in, since the
    /// serial kernel ticks channels in index order within each merged step.
    /// The caller performs the step at `to` itself through the normal serial
    /// path, which applies the remaining cross-channel effects (response
    /// draining, retry promotion, quota propagation) under the serial
    /// ordering.
    ///
    /// The epoch contract — the caller must guarantee that `to` does not
    /// exceed the earliest cross-channel synchronization point: the shared
    /// observer's next window edge (so window rotations never fall inside an
    /// epoch) and the earliest cycle a core could unstall and issue new
    /// traffic. Within those bounds the channels are fully independent, so
    /// epoch and serial execution are bit-identical.
    pub fn advance_epoch(&mut self, from: Cycle, to: Cycle) {
        debug_assert!(to > from + 1, "an epoch must cover at least one interior cycle");
        let record = self.breakhammer.is_some();
        self.stepping.epochs += 1;
        self.stepping.epoch_cycles += to - from;
        for ((ctrl, pending), events) in self
            .controllers
            .iter_mut()
            .zip(self.pending_enqueue.iter_mut())
            .zip(self.bh_events.iter_mut())
        {
            events.clear();
            self.stepping.channel_events +=
                advance_channel(ctrl, pending, record.then_some(events), from, to);
        }
        self.pending_total = self.pending_enqueue.iter().map(VecDeque::len).sum();
        if let Some(bh) = self.breakhammer.as_mut() {
            // K-way merge by (cycle, channel). Scanning channels in
            // ascending order with a strict `<` keeps the lowest channel on
            // cycle ties, and within one (cycle, channel) the buffer order
            // (activation first, then its preventive actions) is preserved —
            // both exactly as the live serial schedule observes them.
            let mut replayed = 0u64;
            self.merge_cursors.fill(0);
            loop {
                let mut best: Option<(Cycle, usize)> = None;
                for (channel, buf) in self.bh_events.iter().enumerate() {
                    if let Some(ev) = buf.get(self.merge_cursors[channel]) {
                        if best.is_none_or(|(cycle, _)| ev.cycle < cycle) {
                            best = Some((ev.cycle, channel));
                        }
                    }
                }
                let Some((_, channel)) = best else { break };
                let ev = self.bh_events[channel][self.merge_cursors[channel]];
                self.merge_cursors[channel] += 1;
                // Window rotations are pure no-ops inside an epoch (the
                // caller capped `to` at the window edge), so skipping the
                // live schedule's `advance_to` calls is behaviour-neutral.
                debug_assert!(ev.cycle < bh.next_window_end());
                match ev.kind {
                    BhEventKind::Activation(thread) => bh.on_activation(thread, ev.cycle),
                    BhEventKind::PreventiveAction => {
                        bh.on_preventive_action_from(channel, ev.cycle);
                    }
                }
                replayed += 1;
            }
            self.stepping.bh_events_replayed += replayed;
        }
    }

    /// Epoch-stepping counters (all zeros under serial stepping).
    pub fn stepping_stats(&self) -> &SteppingStats {
        &self.stepping
    }

    /// Advances every channel controller by one DRAM cycle. The shared
    /// BreakHammer instance observes all of them.
    pub fn tick(&mut self, cycle: Cycle) {
        if self.single_channel {
            self.controllers[0].tick(cycle, self.breakhammer.as_mut());
            return;
        }
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
        if self.single_channel {
            return self.controllers[0].next_event(now);
        }
        self.controllers.iter().map(|c| c.next_event(now)).min().unwrap_or(now + 1)
    }

    /// True if any channel has a response waiting to be drained (the cheap
    /// per-step probe that lets the simulation loop skip the drain
    /// entirely on response-free steps).
    pub fn has_responses(&self) -> bool {
        if self.single_channel {
            return self.controllers[0].has_responses();
        }
        self.controllers.iter().any(MemoryController::has_responses)
    }

    /// Drains every channel's responses into `buf` (cleared first), in
    /// channel order. With one channel this is exactly
    /// [`MemoryController::drain_responses_into`] (a buffer swap, no copy).
    pub fn drain_responses_into(&mut self, buf: &mut Vec<MemResponse>) {
        if self.single_channel {
            self.controllers[0].drain_responses_into(buf);
            return;
        }
        buf.clear();
        for controller in &mut self.controllers {
            controller.append_responses_into(buf);
        }
    }

    /// Demand requests currently queued across all channels.
    pub fn queued_requests(&self) -> usize {
        self.controllers.iter().map(|c| c.queued_requests()).sum()
    }

    /// Pending preventive DRAM commands across all channels.
    pub fn pending_preventive_commands(&self) -> usize {
        self.controllers.iter().map(|c| c.pending_preventive_commands()).sum()
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

/// Advances one channel controller from `now = from` up to (excluding) `to`,
/// visiting exactly the cycles at which this channel can make progress — the
/// per-channel half of an epoch.
///
/// The protocol replays, event by event, what the serial kernel would have
/// done for this channel at the merged steps inside `(from, to)`:
///
/// * At each of the channel's own event cycles `e` (its memoized `next_event`
///   horizon), first retry the channel's deferred requests — queue space only
///   opens when this channel issues, and a post-issue tick always schedules
///   the `e + 1` event where the serial kernel's `retry_pending` would have
///   promoted too — then tick the controller. The serial kernel's ticks at
///   *other* channels' event cycles are pure no-ops here (the memo guarantees
///   it) and are skipped entirely.
/// * Cycles between own events with a still-blocked deferred request absorb
///   one enqueue rejection each, exactly like the serial kernel's one failed
///   front retry per step plus its bulk `absorb_enqueue_rejections` over dead
///   cycles (a failed [`MemoryController::try_enqueue`] counts itself).
///
/// The step at `to` itself is *not* performed: the caller runs it through the
/// normal serial path after the epoch merge, so cross-channel effects
/// (response draining, quota propagation, BreakHammer window edges) happen
/// under the serial schedule's ordering.
///
/// Returns the number of controller tick events processed.
fn advance_channel(
    ctrl: &mut MemoryController,
    pending: &mut VecDeque<MemRequest>,
    mut events: Option<&mut Vec<BhEvent>>,
    from: Cycle,
    to: Cycle,
) -> u64 {
    let mut now = from;
    let mut ticks = 0u64;
    loop {
        let e = ctrl.next_event(now).max(now + 1);
        if e >= to {
            break;
        }
        if !pending.is_empty() {
            let gap = e - now - 1;
            if gap > 0 {
                ctrl.absorb_enqueue_rejections(gap);
            }
            while let Some(req) = pending.front().copied() {
                if ctrl.try_enqueue(req).is_ok() {
                    pending.pop_front();
                } else {
                    break;
                }
            }
        }
        match events.as_deref_mut() {
            Some(buf) => ctrl.tick_sink(e, BhSink::Record(buf)),
            None => ctrl.tick_sink(e, BhSink::None),
        }
        ticks += 1;
        now = e;
    }
    if !pending.is_empty() && to > now + 1 {
        ctrl.absorb_enqueue_rejections(to - now - 1);
    }
    ticks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{AddressMapping, ChannelInterleave};
    use bh_dram::{AccessKind, BankAddr, DramLocation, TimingParams};
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

    fn system(channels: usize, interleave: ChannelInterleave) -> MemorySystem {
        let geometry = DramGeometry::tiny().with_channels(channels);
        let timing = TimingParams::fast_test();
        let mapping = AddressMapping::paper_default().with_interleave(interleave);
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

    #[test]
    fn requests_route_to_their_mapped_channel() {
        let mut mem = system(2, ChannelInterleave::CacheLine);
        for channel in 0..2 {
            let addr = addr_on(&mem, channel, 5, 0);
            assert_eq!(mem.channel_of(addr), channel);
            mem.try_enqueue(MemRequest::read(channel as u64, ThreadId(0), addr, 0)).unwrap();
        }
        assert_eq!(mem.controller(0).queued_requests(), 1);
        assert_eq!(mem.controller(1).queued_requests(), 1);
        assert_eq!(mem.queued_requests(), 2);
    }

    #[test]
    fn responses_merge_across_channels() {
        let mut mem = system(2, ChannelInterleave::CacheLine);
        for channel in 0..2u64 {
            let addr = addr_on(&mem, channel as usize, 7, 0);
            mem.try_enqueue(MemRequest::read(channel, ThreadId(0), addr, 0)).unwrap();
        }
        let mut responses = Vec::new();
        let mut buf = Vec::new();
        for cycle in 0..10_000u64 {
            mem.tick(cycle);
            mem.drain_responses_into(&mut buf);
            responses.extend(buf.iter().copied());
            if responses.len() == 2 {
                break;
            }
        }
        assert_eq!(responses.len(), 2, "both channels must serve their read");
        let stats = mem.aggregate_stats();
        assert_eq!(stats.reads_served, 2);
        assert_eq!(stats.demand_activations, 2);
        assert_eq!(mem.aggregate_dram_stats().activates, 2);
    }

    #[test]
    fn merged_next_event_is_the_minimum_over_channels() {
        let mut mem = system(2, ChannelInterleave::CacheLine);
        // Load only channel 1; channel 0 idles until its refresh deadline.
        let addr = addr_on(&mem, 1, 3, 0);
        mem.try_enqueue(MemRequest::read(1, ThreadId(0), addr, 0)).unwrap();
        mem.tick(0);
        let merged = mem.next_event(0);
        let per_channel = (0..2).map(|c| mem.controller(c).next_event(0)).min().unwrap();
        assert_eq!(merged, per_channel);
        assert!(merged > 0);
    }

    #[test]
    fn deferred_requests_retry_on_their_own_channel() {
        let mut mem = system(2, ChannelInterleave::CacheLine);
        // Fill channel 0's read queue, then defer one more to it.
        let mut id = 0u64;
        while mem.controller(0).can_accept(AccessKind::Read) {
            let addr = addr_on(&mem, 0, id as usize % 64, 0);
            mem.try_enqueue(MemRequest::read(id, ThreadId(0), addr, 0)).unwrap();
            id += 1;
        }
        mem.enqueue_or_defer(MemRequest::read(id, ThreadId(0), addr_on(&mem, 0, 99, 0), 0));
        assert!(mem.has_pending_enqueue());
        // Channel 1 is unaffected: its requests enqueue directly.
        mem.enqueue_or_defer(MemRequest::read(id + 1, ThreadId(1), addr_on(&mem, 1, 5, 0), 0));
        assert_eq!(mem.controller(1).queued_requests(), 1);
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

    /// Wide epochs (24 to 1 000 cycles) on four channels with BreakHammer
    /// attached: `advance_epoch` must leave every channel, the
    /// deferred-request deques and the shared observer exactly where ticking
    /// every cycle serially leaves them.
    #[test]
    fn wide_epochs_on_four_channels_match_serial_ticking() {
        let channels = 4usize;
        let mut epoch = system_with_breakhammer(channels);
        let mut serial = system_with_breakhammer(channels);
        // Each step double-side hammers every channel with 24 more reads —
        // more than the 16-entry read queues hold, so requests defer.
        let mut id = 0u64;
        let mut step = |mem: &mut [&mut MemorySystem; 2], cycle: Cycle, out: &mut [Vec<_>; 2]| {
            for round in 0..24usize {
                for channel in 0..channels {
                    let row = if round % 2 == 0 { 50 } else { 52 };
                    let addr = addr_on(mem[0], channel, row, round % 4);
                    let req = MemRequest::read(id, ThreadId(channel % 2), addr, 0);
                    id += 1;
                    mem.iter_mut().for_each(|m| m.enqueue_or_defer(req));
                }
            }
            let mut buf = Vec::new();
            for (m, out) in mem.iter_mut().zip(out) {
                m.retry_pending();
                m.tick(cycle);
                m.drain_responses_into(&mut buf);
                out.extend(buf.iter().copied());
            }
        };
        let mut responses = [Vec::new(), Vec::new()];
        let mut now = 0;
        step(&mut [&mut epoch, &mut serial], now, &mut responses);
        assert!(epoch.has_pending_enqueue(), "the retry path must be exercised");
        let spans = [24u64, 200, 64, 1_000, 25];
        for span in spans.iter().cycle().take(20) {
            let to = now + span;
            epoch.advance_epoch(now, to);
            for cycle in now + 1..to {
                // The serial kernel's dead cycles: one failed front retry
                // per blocked channel, then a tick.
                serial.retry_pending();
                serial.tick(cycle);
            }
            step(&mut [&mut epoch, &mut serial], to, &mut responses);
            now = to;
            for channel in 0..channels {
                assert_eq!(
                    epoch.controller(channel).stats(),
                    serial.controller(channel).stats(),
                    "channel {channel} diverged in the epoch ending at {to}"
                );
                assert_eq!(
                    epoch.pending_enqueue_depth(channel),
                    serial.pending_enqueue_depth(channel)
                );
            }
        }
        let [got, want] = responses;
        assert_eq!(got, want, "responses must arrive in the same order at the same steps");
        assert_eq!(epoch.aggregate_dram_stats(), serial.aggregate_dram_stats());
        let (bh_epoch, bh_serial) = (epoch.breakhammer().unwrap(), serial.breakhammer().unwrap());
        assert_eq!(bh_epoch.stats(), bh_serial.stats());
        for thread in 0..2 {
            assert_eq!(bh_epoch.score(ThreadId(thread)), bh_serial.score(ThreadId(thread)));
        }

        // Non-vacuous: the epochs did the work, on this thread.
        let stepping = epoch.stepping_stats();
        assert_eq!(stepping.epochs, 20);
        assert_eq!(stepping.epoch_cycles, 4 * spans.iter().sum::<u64>());
        assert_eq!(stepping.parallel_epochs, 0);
        assert!(stepping.channel_events > 0 && stepping.bh_events_replayed > 0, "{stepping:?}");
        assert!(got.len() > 16 * channels, "deferred requests must have been served too");
        assert!(bh_epoch.stats().actions_observed > 0, "hammering must trigger Graphene");
        assert_eq!(*serial.stepping_stats(), SteppingStats::default());
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
