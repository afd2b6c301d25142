//! The memory controller: request queues, FR-FCFS+Cap scheduling, refresh
//! management, RowHammer-mitigation integration and preventive-action
//! execution, and BreakHammer hooks.
//!
//! The controller is ticked once per DRAM command-clock cycle by the system
//! simulator and issues at most one DRAM command per tick (one command bus).
//! Scheduling priority within a tick is
//!
//! 1. periodic refresh that has become due,
//! 2. pending RowHammer-preventive work requested by the mitigation
//!    mechanism (victim refreshes, AQUA migrations, RFM commands, Hydra
//!    table accesses),
//! 3. demand requests, scheduled FR-FCFS with a cap of `frfcfs_cap` on
//!    column-over-row reordering (Table 1), with write draining driven by
//!    queue watermarks.
//!
//! Demand requests wait in one bank-indexed queue per direction
//! (`demand_queue.rs`). What the scheduler may issue for a request depends
//! only on its bank and on whether it hits that bank's open row, so a tick
//! weighs at most two candidates per bank that has requests — the oldest row
//! hit and the oldest other request — instead of every queued request (see
//! `MemoryController::select`).
//!
//! Two things the scheduler derives survive between ticks and are cached.
//! The two candidates of a bank depend on the bank's list and its open row
//! only; the queue keeps them per bank, exact under every `push` / `remove`,
//! and re-derives them when it is asked about another row than the one they
//! were derived for. And a tick that can issue nothing has, by weighing every
//! candidate's ready cycle for the no-op horizon, already found the command a
//! tick at that horizon would choose; when the demand stage alone owns the
//! horizon it is kept as a `Plan` and the tick at the horizon issues it
//! without a refresh, preventive or selection pass. Any enqueue drops the
//! plan, as it lowers the horizon; any issued command consumes or precedes
//! it. So the full pass runs about once per issued command, not twice.
//!
//! The same holds while the preventive head is held back behind a pending
//! demand row hit (the bounded deferral in `try_preventive`): until a command
//! issues, every tick up to the bound would defer it again, so a deferring
//! tick reports the cycle the deferral ends as its horizon (or an earlier
//! refresh or demand horizon) and the next tick that runs counts the ticks
//! skipped in between.
//!
//! Every *demand* row activation is reported to the attached mitigation
//! mechanism (whose trigger algorithm may request preventive actions) and to
//! BreakHammer (which attributes activations to hardware threads and observes
//! the preventive actions).

use crate::config::MemControllerConfig;
use crate::demand_queue::{DemandQueue, QueueEntry};
use crate::latency::LatencyHistogram;
use crate::mapping::MopLayout;
use crate::request::{MemRequest, MemResponse};
use bh_core::BreakHammer;
use bh_dram::{
    AccessKind, BankAddr, CommandKind, Cycle, DramChannel, DramCommand, DramLocation, ThreadId,
};
use bh_mitigation::{ActionSink, ActionView, ActivationEvent, Mechanism};
use std::collections::VecDeque;

/// Counters describing the controller's activity.
// `accumulate` destructures every field; its unit test pins that each one
// reaches the sum.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ControllerStats {
    /// Demand reads completed.
    pub reads_served: u64,
    /// Writebacks completed.
    pub writes_served: u64,
    /// Demand requests that hit an open row.
    pub row_hits: u64,
    /// Demand requests that found their bank closed.
    pub row_misses: u64,
    /// Demand requests that had to close another row first.
    pub row_conflicts: u64,
    /// Row activations performed for demand requests.
    pub demand_activations: u64,
    /// Requests rejected because a queue was full.
    pub enqueue_rejections: u64,
    /// Preventive victim-refresh actions performed (PARA/Graphene/Hydra/TWiCe).
    pub preventive_refresh_actions: u64,
    /// Individual victim rows refreshed.
    pub victim_rows_refreshed: u64,
    /// AQUA row migrations performed.
    pub migrations: u64,
    /// RFM commands requested (RFM and PRAC mechanisms).
    pub rfm_actions: u64,
    /// Hydra tracking-table accesses performed.
    pub table_accesses: u64,
    /// Periodic all-bank refreshes issued.
    pub periodic_refreshes: u64,
}

impl ControllerStats {
    /// Total RowHammer-preventive actions performed (the quantity plotted in
    /// Fig. 10). Periodic refreshes are not preventive actions.
    pub fn preventive_actions_total(&self) -> u64 {
        self.preventive_refresh_actions + self.migrations + self.rfm_actions + self.table_accesses
    }

    /// Adds another controller's counters into this one (used by
    /// multi-channel systems to aggregate per-channel statistics).
    pub(crate) fn accumulate(&mut self, other: &ControllerStats) {
        // Exhaustive destructuring (no `..`): adding a stat field without
        // aggregating it here is a compile error, not a silent zero in
        // multi-channel results.
        let ControllerStats {
            reads_served,
            writes_served,
            row_hits,
            row_misses,
            row_conflicts,
            demand_activations,
            enqueue_rejections,
            preventive_refresh_actions,
            victim_rows_refreshed,
            migrations,
            rfm_actions,
            table_accesses,
            periodic_refreshes,
        } = other;
        self.reads_served += reads_served;
        self.writes_served += writes_served;
        self.row_hits += row_hits;
        self.row_misses += row_misses;
        self.row_conflicts += row_conflicts;
        self.demand_activations += demand_activations;
        self.enqueue_rejections += enqueue_rejections;
        self.preventive_refresh_actions += preventive_refresh_actions;
        self.victim_rows_refreshed += victim_rows_refreshed;
        self.migrations += migrations;
        self.rfm_actions += rfm_actions;
        self.table_accesses += table_accesses;
        self.periodic_refreshes += periodic_refreshes;
    }
}

/// Maximum ticks the head of the preventive queue may be deferred in favour
/// of pending demand row-hits — enough for several column accesses (tCCD
/// apart) to drain, small enough that a sustained hit stream delays each
/// preventive command by a bounded, security-irrelevant amount. A tick counts
/// whether it runs or the memo skips it: a deferring tick reports, as its
/// horizon, the first cycle whose tick would find the count at the bound, and
/// the next tick that runs credits the ticks skipped in between (see
/// `MemoryController::tick`).
const PREVENTIVE_DEFER_TICKS: u32 = 32;

/// What the scheduler decided to issue for a chosen demand request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ServiceStep {
    /// The row is open: issue the column command and complete the request.
    Column,
    /// The bank is closed: activate the target row.
    Activate,
    /// Another row is open: precharge first.
    Precharge,
}

/// Result of one scheduling stage within a tick: either a command was issued,
/// or the stage reports the earliest future cycle at which it could act
/// ([`Cycle::MAX`] if never, absent external changes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TickOutcome {
    /// A DRAM command was issued; scheduling state changed.
    Issued,
    /// Nothing was issued; the stage cannot act before this cycle.
    Horizon(Cycle),
}

/// The demand command a non-issuing tick already knows the tick at `at` will
/// issue. The pass that finds nothing ready weighs every candidate's ready
/// cycle to derive the horizon; the candidate that sets the horizon — ties
/// broken the way the scheduler breaks them — is the one a full pass at the
/// horizon would pick, provided the refresh and preventive stages cannot act
/// at or before `at` and nothing arrives in between.
#[derive(Debug, Clone, Copy)]
struct Plan {
    use_writes: bool,
    slot: usize,
    step: ServiceStep,
    at: Cycle,
}

/// The memory controller for one channel.
///
/// BreakHammer is *not* owned by the controller: it is a memory-system-wide
/// observer shared by every channel's controller (see
/// [`MemorySystem`](crate::MemorySystem)), so the caller passes it into
/// [`MemoryController::tick`] by mutable reference.
#[derive(Clone)]
pub struct MemoryController {
    config: MemControllerConfig,
    channel: DramChannel,
    /// `config.mapping` on the channel's geometry, built once.
    layout: MopLayout,
    mechanism: Mechanism,
    /// Index of this controller's channel in the memory system (0 on
    /// single-channel systems); reported to BreakHammer with every preventive
    /// action.
    channel_index: usize,
    read_queue: DemandQueue,
    write_queue: DemandQueue,
    responses: Vec<MemResponse>,
    preventive_queue: VecDeque<DramCommand>,
    next_refresh: Vec<Cycle>,
    /// Cached minimum of `next_refresh`: while `cycle` is below it, no rank
    /// is due and the refresh stage reduces to a single compare.
    next_refresh_min: Cycle,
    write_drain_mode: bool,
    /// Ticks the preventive-queue head has been deferred in favour of
    /// pending demand row-hits since a preventive command last issued
    /// (bounded by [`PREVENTIVE_DEFER_TICKS`]), not counting the ticks
    /// after `deferred_at` that the memo skipped.
    preventive_deferred_ticks: u32,
    /// The cycle of the last tick that ran, when it deferred the preventive
    /// head and issued nothing. Until something changes, every tick after it
    /// would defer again, so the memo skips them and the next tick that runs
    /// credits them to `preventive_deferred_ticks`.
    deferred_at: Option<Cycle>,
    /// Memoized [`MemoryController::next_event`] horizon: until this cycle,
    /// `tick` is known to be a pure no-op and early-returns instead of
    /// re-deriving scheduling state. Reset to 0 whenever the queues or the
    /// DRAM timing state change (enqueue or command issue).
    idle_until: Cycle,
    /// The demand command the no-op horizon is waiting for, when the last
    /// non-issuing tick could name it (see [`Plan`]). Dropped by any enqueue
    /// and by the next tick that runs.
    plan: Option<Plan>,
    /// Reusable scratch sink the mechanism pushes preventive actions into on
    /// every demand activation (cleared and drained by
    /// [`MemoryController::on_demand_activation`]; never allocates in the
    /// steady state).
    sink: ActionSink,
    hit_streak: Vec<u32>,
    stats: ControllerStats,
    per_thread_latency: Vec<LatencyHistogram>,
}

impl std::fmt::Debug for MemoryController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryController")
            .field("mechanism", &self.mechanism.kind())
            .field("read_queue", &self.read_queue.len())
            .field("write_queue", &self.write_queue.len())
            .field("preventive_queue", &self.preventive_queue.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl MemoryController {
    /// Creates a controller driving `channel`, protected by `mechanism`.
    ///
    /// To attach BreakHammer, pass it to [`MemoryController::tick`] (it is
    /// shared across channels and therefore owned by the caller).
    ///
    /// # Panics
    /// Panics if the configuration is invalid.
    pub fn new(config: MemControllerConfig, channel: DramChannel, mechanism: Mechanism) -> Self {
        config.validate().expect("invalid memory controller configuration");
        let ranks = channel.geometry().ranks;
        let banks = channel.geometry().banks_per_channel();
        let t_refi = channel.timing().t_refi;
        let num_threads = config.num_threads;
        let read_queue = DemandQueue::new(config.read_queue_capacity, banks);
        let write_queue = DemandQueue::new(config.write_queue_capacity, banks);
        let layout = config.mapping.layout(channel.geometry());
        MemoryController {
            config,
            channel,
            layout,
            mechanism,
            channel_index: 0,
            read_queue,
            write_queue,
            responses: Vec::new(),
            preventive_queue: VecDeque::new(),
            next_refresh: (0..ranks)
                .map(|r| t_refi + r as u64 * (t_refi / ranks.max(1) as u64))
                .collect(),
            next_refresh_min: t_refi,
            write_drain_mode: false,
            preventive_deferred_ticks: 0,
            deferred_at: None,
            idle_until: 0,
            plan: None,
            sink: ActionSink::default(),
            hit_streak: vec![0; banks],
            stats: ControllerStats::default(),
            per_thread_latency: (0..num_threads).map(|_| LatencyHistogram::new()).collect(),
        }
    }

    /// The same controller tagged with its channel index in a multi-channel
    /// memory system (reported to BreakHammer with every preventive action).
    pub(crate) fn with_channel_index(mut self, channel_index: usize) -> Self {
        self.channel_index = channel_index;
        self
    }

    /// The address layout requests are decoded with.
    pub(crate) fn layout(&self) -> &MopLayout {
        &self.layout
    }

    /// The DRAM channel driven by this controller.
    pub fn channel(&self) -> &DramChannel {
        &self.channel
    }

    /// The attached mitigation mechanism.
    pub fn mechanism(&self) -> &Mechanism {
        &self.mechanism
    }

    /// Controller statistics.
    pub fn stats(&self) -> &ControllerStats {
        &self.stats
    }

    /// Per-thread read-latency histogram.
    pub(crate) fn latency_of(&self, thread: ThreadId) -> &LatencyHistogram {
        &self.per_thread_latency[thread.index()]
    }

    /// Number of demand requests currently queued (reads + writes).
    pub fn queued_requests(&self) -> usize {
        self.read_queue.len() + self.write_queue.len()
    }

    /// Number of pending preventive DRAM commands.
    pub fn pending_preventive_commands(&self) -> usize {
        self.preventive_queue.len()
    }

    /// True if a request of the given kind can currently be accepted.
    pub fn can_accept(&self, kind: AccessKind) -> bool {
        match kind {
            AccessKind::Read => !self.read_queue.is_full(),
            AccessKind::Write => !self.write_queue.is_full(),
        }
    }

    /// Enqueues a demand request.
    ///
    /// # Errors
    /// Returns the request back if the corresponding queue is full.
    pub fn try_enqueue(&mut self, req: MemRequest) -> Result<(), MemRequest> {
        if !self.can_accept(req.kind) {
            self.stats.enqueue_rejections += 1;
            return Err(req);
        }
        let geometry = self.channel.geometry();
        let loc = self.layout.decode(req.addr);
        let flat = geometry.flat_bank(loc.bank);
        let group = loc.bank.rank * geometry.bank_groups + loc.bank.bank_group;
        let entry = QueueEntry { req, loc, flat, group, classified: false, seq: 0 };
        // A new request can only move the memoized no-op horizon *earlier*:
        // lower it to this entry's earliest issuable cycle (ignoring
        // scheduling masks, which can only delay further — undershooting the
        // horizon merely wastes a tick, overshooting would skip work).
        // Known nuance: if this entry is the first pending row hit on the
        // bank the preventive head is waiting for, each tick the memo skips
        // until `ready_at` would have deferred the head, but none runs to
        // count it, so the head can be deferred up to that many wall-cycles
        // beyond `PREVENTIVE_DEFER_TICKS`. It is a property of the memo, not
        // of how the queue is searched, and both kernels share the memo, so
        // they stay bit-identical; the deferral remains bounded (ticking
        // resumes at the hit's ready cycle) and is security-neutral while
        // the row is open. A head that is already being deferred
        // (`deferred_at` is set) loses no count: the next tick that runs
        // credits every tick skipped since, wherever this enqueue moves it.
        //
        // The plan goes the same way as the horizon: the newcomer may be the
        // better candidate at `plan.at` (or flip the drain mode), so the next
        // tick that runs decides from scratch.
        self.plan = None;
        if self.idle_until > 0 {
            let kind = match self.channel.open_row_flat(flat) {
                Some(row) if row == loc.row => match req.kind {
                    AccessKind::Read => CommandKind::Read,
                    AccessKind::Write => CommandKind::Write,
                },
                Some(_) => CommandKind::Precharge,
                None => CommandKind::Activate,
            };
            let ready = self.channel.demand_ready(flat, group, loc.bank.rank, kind);
            self.idle_until = self.idle_until.min(ready);
        }
        self.queue_mut(req.kind == AccessKind::Write).push(entry);
        Ok(())
    }

    /// True if at least one response is waiting to be drained.
    pub(crate) fn has_responses(&self) -> bool {
        !self.responses.is_empty()
    }

    /// Removes and returns all responses generated so far.
    pub fn drain_responses(&mut self) -> Vec<MemResponse> {
        std::mem::take(&mut self.responses)
    }

    /// Moves all responses generated so far into `buf` (cleared first),
    /// recycling `buf`'s allocation as the controller's next response buffer
    /// — the allocation-free variant of [`MemoryController::drain_responses`]
    /// for callers that drain every cycle.
    pub fn drain_responses_into(&mut self, buf: &mut Vec<MemResponse>) {
        buf.clear();
        std::mem::swap(&mut self.responses, buf);
    }

    /// Appends all responses generated so far to `buf` (without clearing it),
    /// leaving this controller's response buffer empty but warm — used by
    /// [`MemorySystem`](crate::MemorySystem) to drain every channel into one
    /// merged buffer each step.
    pub(crate) fn append_responses_into(&mut self, buf: &mut Vec<MemResponse>) {
        buf.append(&mut self.responses);
    }

    /// Earliest cycle strictly after `now` at which [`MemoryController::tick`]
    /// could do anything beyond a pure no-op — issue a refresh, preventive or
    /// demand command, or stop deferring the preventive head. The ticks in
    /// between that would only advance the bounded preventive-deferral
    /// counter are skipped too; the tick at the returned cycle credits them.
    ///
    /// The horizon is computed as a by-product of the most recent
    /// non-issuing [`MemoryController::tick`] (whose scheduling stages
    /// already derive, for every command they could issue next, the earliest
    /// cycle its timing constraints are met), so this query is O(1).
    /// Immediately after a tick that issued a command — or an enqueue that
    /// could beat the memoized horizon — the horizon is unknown and `now + 1`
    /// is returned: the next tick re-derives it. Horizons may undershoot
    /// (waking early is only wasted work) but never overshoot: between `now`
    /// and the returned cycle, `tick` is guaranteed to leave all controller,
    /// DRAM and mitigation state untouched (BreakHammer's window rotations
    /// are driven separately by the simulation kernel). A carried-over plan
    /// changes none of this — it is the command the tick *at* the returned
    /// cycle will issue, not a different horizon.
    pub fn next_event(&self, now: Cycle) -> Cycle {
        if self.idle_until > now {
            self.idle_until
        } else {
            now + 1
        }
    }

    /// Records `n` enqueue attempts rejected while their queue stayed full.
    ///
    /// The per-cycle kernel retries a rejected request once per cycle, and
    /// every failed retry counts as an enqueue rejection; the event-driven
    /// kernel skips those dead cycles and replays the counter here.
    pub(crate) fn absorb_enqueue_rejections(&mut self, n: u64) {
        self.stats.enqueue_rejections += n;
    }

    /// Advances the controller by one DRAM cycle, issuing at most one command.
    ///
    /// `breakhammer` is the shared memory-system-wide observer (or `None`
    /// when BreakHammer is disabled): demand activations and preventive
    /// actions performed during this tick are reported to it.
    pub fn tick(&mut self, cycle: Cycle, mut breakhammer: Option<&mut BreakHammer>) {
        if let Some(bh) = breakhammer.as_deref_mut() {
            bh.advance_to(cycle);
        }
        // Fast path: a previous tick proved nothing can happen before
        // `idle_until` and nothing has changed since, so this tick is a pure
        // no-op (the write-drain mode and all scheduling decisions depend
        // only on state that invalidates the memo when it changes).
        if cycle < self.idle_until {
            return;
        }
        // The last tick that ran deferred the preventive head, and so would
        // every tick the memo skipped since: count them as the per-tick rule
        // does (the horizon that tick set keeps the count within the bound).
        let deferring = self.deferred_at.take();
        if let Some(last) = deferring {
            self.preventive_deferred_ticks += cycle.saturating_sub(last + 1) as u32;
        }
        // Every tick that runs updates the drain mode (with no reads and few
        // writes queued it toggles from one running tick to the next).
        self.update_write_drain_mode();
        // Second fast path: the tick that set `idle_until` also named the
        // demand command this tick issues. Since then no command issued and
        // no request arrived (either would have dropped the plan), so refresh
        // deadlines, the preventive head, every hit streak and every ready
        // cycle are what that pass saw, and so is the queue order: while both
        // queues hold requests a second drain-mode update changes nothing.
        // That pass checked that the refresh and preventive stages cannot act
        // before `plan.at + 1`, which leaves the plan as the candidate a full
        // pass would choose now. If that pass deferred the preventive head,
        // this tick's preventive stage would have deferred it once more.
        if let Some(Plan { use_writes, slot, step, at }) = self.plan.take() {
            if at == cycle {
                self.preventive_deferred_ticks += u32::from(deferring.is_some());
                self.service(use_writes, slot, step, cycle, breakhammer);
                self.idle_until = 0;
                return;
            }
        }
        let mut horizon = Cycle::MAX;
        match self.try_refresh(cycle) {
            TickOutcome::Issued => {
                self.idle_until = 0;
                return;
            }
            TickOutcome::Horizon(h) => horizon = horizon.min(h),
        }
        match self.try_preventive(cycle) {
            TickOutcome::Issued => {
                self.idle_until = 0;
                return;
            }
            TickOutcome::Horizon(h) => horizon = horizon.min(h),
        }
        let refresh_pending = self.refresh_pending_ranks(cycle);
        let preventive_bank =
            self.preventive_queue.front().map(|c| self.channel.geometry().flat_bank(c.bank));
        let first_writes = self.write_drain_mode && !self.write_queue.is_empty();
        let order = if first_writes { [true, false] } else { [false, true] };
        // The earliest-ready candidate of either queue; on a tie the queue
        // scheduled first this tick keeps it, as it would at that cycle.
        let mut next: Option<Plan> = None;
        for use_writes in order {
            // An empty queue contributes neither a candidate nor a horizon.
            if if use_writes { self.write_queue.is_empty() } else { self.read_queue.is_empty() } {
                continue;
            }
            let Some((at, slot, step)) =
                self.select(use_writes, cycle, refresh_pending, preventive_bank)
            else {
                continue;
            };
            if at <= cycle {
                self.service(use_writes, slot, step, cycle, breakhammer);
                // A command was issued: timing and queue state changed, so
                // the next tick must re-derive its decisions from scratch —
                // including whether the preventive head is still deferred.
                self.idle_until = 0;
                self.deferred_at = None;
                return;
            }
            if next.is_none_or(|n| at < n.at) {
                next = Some(Plan { use_writes, slot, step, at });
            }
        }
        // Nothing could issue: memoize the horizon until which every tick is
        // a pure no-op, and the demand command due at it when the demand
        // stage alone owns that horizon. Strictly: a refresh or preventive
        // command that becomes issuable in the same cycle goes first. A
        // mechanism that may block is left out because `blocked_until` is
        // asked with the cycle, so its answer at `at` is not the one weighed
        // here. A tick that deferred the preventive head may leave a plan: its
        // horizon is the cycle the deferral ends, and a plan due before then
        // issues at a tick whose preventive stage would defer once more.
        self.plan = next.filter(|n| n.at < horizon && !self.mechanism.may_block());
        self.idle_until = next.map_or(horizon, |n| horizon.min(n.at)).max(cycle + 1);
    }

    fn update_write_drain_mode(&mut self) {
        if self.write_drain_mode {
            if self.write_queue.len() <= self.config.write_drain_low {
                self.write_drain_mode = false;
            }
        } else if self.write_queue.len() >= self.config.write_drain_high
            || (self.read_queue.is_empty() && !self.write_queue.is_empty())
        {
            self.write_drain_mode = true;
        }
    }

    /// Bitmask of ranks whose periodic refresh is overdue.
    fn refresh_pending_ranks(&self, cycle: Cycle) -> u64 {
        if cycle < self.next_refresh_min {
            // No rank is due (the common tick): skip the per-rank walk.
            return 0;
        }
        let mut mask = 0u64;
        for (rank, deadline) in self.next_refresh.iter().enumerate() {
            if cycle >= *deadline {
                mask |= 1 << rank;
            }
        }
        mask
    }

    /// Tries to make progress on a due periodic refresh; otherwise reports
    /// the earliest cycle the refresh machinery could next act (for a rank
    /// that is not yet due, its deadline).
    fn try_refresh(&mut self, cycle: Cycle) -> TickOutcome {
        if cycle < self.next_refresh_min {
            // No rank is due (the common tick): the machinery next acts at
            // the earliest deadline, exactly what the per-rank walk below
            // would report.
            return TickOutcome::Horizon(self.next_refresh_min);
        }
        let ranks = self.channel.geometry().ranks;
        let mut horizon = Cycle::MAX;
        for rank in 0..ranks {
            let deadline = self.next_refresh[rank];
            if cycle < deadline {
                horizon = horizon.min(deadline);
                continue;
            }
            if self.channel.all_banks_closed(rank) {
                let cmd = DramCommand::refresh(rank);
                if self.channel.can_issue(&cmd, cycle) {
                    self.channel.issue_prechecked(&cmd, cycle);
                    self.next_refresh[rank] += self.channel.timing().t_refi;
                    self.next_refresh_min = self.next_refresh.iter().copied().min().unwrap_or(0);
                    self.stats.periodic_refreshes += 1;
                    return TickOutcome::Issued;
                }
                horizon = horizon.min(self.channel.earliest_issue(&cmd));
            } else {
                for flat in self.channel.geometry().rank_flat_range(rank) {
                    if self.channel.open_row_flat(flat).is_some() {
                        let bank = self.channel.geometry().bank_from_flat(flat);
                        let pre = DramCommand::precharge(bank);
                        if self.channel.can_issue(&pre, cycle) {
                            self.channel.issue_prechecked(&pre, cycle);
                            return TickOutcome::Issued;
                        }
                        horizon = horizon.min(self.channel.earliest_issue(&pre));
                    }
                }
            }
        }
        TickOutcome::Horizon(horizon)
    }

    /// Tries to issue the next pending preventive command (or a command that
    /// prepares the bank for it); otherwise reports when it could next act.
    fn try_preventive(&mut self, cycle: Cycle) -> TickOutcome {
        let Some(head) = self.preventive_queue.front().copied() else {
            return TickOutcome::Horizon(Cycle::MAX);
        };
        let open = self.channel.open_row(head.bank);
        let cmd = match head.kind {
            CommandKind::VictimRefresh | CommandKind::RefreshManagement => match open {
                Some(_) => DramCommand::precharge(head.bank),
                None => head,
            },
            CommandKind::Read | CommandKind::Write => match open {
                Some(row) if row == head.row => head,
                Some(_) => DramCommand::precharge(head.bank),
                None => DramCommand::activate(head.bank, head.row),
            },
            _ => head,
        };
        // Forward-progress rule: don't close a row that still has a pending
        // demand row-hit. Without it, a mechanism that triggers a same-bank
        // preventive refresh on (almost) every activation — PARA's p
        // saturates to 1 at very low N_RH — precharges the row a demand
        // request just opened, re-activating it forever without ever serving
        // the column access (a livelock, not the paper's slowdown). Letting
        // column accesses drain first is security-neutral while it lasts
        // (disturbance only accrues on activations, and none can occur in
        // this bank while its row stays open), but the deferral must be
        // *bounded*: the preventive queue is channel-wide, so a sustained
        // hit stream to one open row would otherwise also starve every
        // other bank's queued refreshes behind the head.
        if cmd.kind == CommandKind::Precharge {
            if let Some(row) = open {
                if self.demand_hit_pending(head.bank, row)
                    && self.preventive_deferred_ticks < PREVENTIVE_DEFER_TICKS
                {
                    self.preventive_deferred_ticks += 1;
                    self.deferred_at = Some(cycle);
                    // Until a command issues, every following tick would defer
                    // again, up to the bound: the tick after the last of them
                    // is the first whose preventive stage can act.
                    // The one exception is a drain mode that toggles on every
                    // tick that runs (no reads, few writes): skipping ticks
                    // would change the mode later ticks see.
                    if self.read_queue.is_empty()
                        && self.write_queue.len() <= self.config.write_drain_low
                    {
                        return TickOutcome::Horizon(cycle + 1);
                    }
                    let left = PREVENTIVE_DEFER_TICKS - self.preventive_deferred_ticks;
                    return TickOutcome::Horizon(cycle + u64::from(left) + 1);
                }
            }
        }
        if !self.channel.can_issue(&cmd, cycle) {
            return TickOutcome::Horizon(self.channel.earliest_issue(&cmd));
        }
        self.preventive_deferred_ticks = 0;
        self.channel.issue_prechecked(&cmd, cycle);
        if cmd == head {
            self.preventive_queue.pop_front();
        }
        TickOutcome::Issued
    }

    /// True if some queued demand request is a row hit on `bank`'s open
    /// `row` (and could therefore be lost by precharging the bank now).
    fn demand_hit_pending(&mut self, bank: BankAddr, row: usize) -> bool {
        let flat = self.channel.geometry().flat_bank(bank);
        self.read_queue.class_heads(flat, row).0.is_some()
            || self.write_queue.class_heads(flat, row).0.is_some()
    }

    fn queue_mut(&mut self, use_writes: bool) -> &mut DemandQueue {
        if use_writes {
            &mut self.write_queue
        } else {
            &mut self.read_queue
        }
    }

    /// Chooses the request of one queue to service next, as `(at, slot,
    /// step)`: with `at <= cycle` it is issuable now — the oldest row-buffer
    /// hit whose bank is still under the FR-FCFS reordering cap, else the
    /// oldest schedulable request of any kind (FCFS). With `at > cycle`
    /// nothing is issuable, `at` is the earliest cycle at which any request of
    /// this queue becomes so (the demand contribution to the controller's
    /// no-op horizon), and the request is the one the same rule picks at that
    /// cycle if nothing changes first. `None`: no request of this queue can
    /// become issuable before some other event invalidates the horizon.
    ///
    /// Both cases are one minimum: every candidate is keyed `(cycle it can
    /// issue, not a capped hit, seq)` with the first component clamped to
    /// `cycle`, so among candidates ready now the order is the scheduling
    /// rule, and among those that are not the earliest wins with ties broken
    /// by the same rule.
    ///
    /// Only banks with requests are visited. Within a bank every request
    /// that hits the open row shares one step (`Column`) and one ready
    /// cycle, and every other request shares another (`Precharge`; on a
    /// closed bank all want `Activate`), so the oldest of each class stands
    /// for its class — the queue caches those two per bank
    /// ([`DemandQueue::class_heads`]) — and the winner is a key compare
    /// across banks. The one row-dependent input is BlockHammer's per-row
    /// delay: with a mechanism that may block, a closed bank walks its own
    /// requests instead.
    ///
    /// A bank is skipped while its rank has a refresh due, and a bank the
    /// preventive head is waiting on accepts no new row cycle — pending hits
    /// on its open row may still drain (the counterpart of the
    /// forward-progress rule in `try_preventive`). Skipped requests
    /// contribute no horizon of their own because the event that unblocks
    /// them (refresh issued, preventive head popped) invalidates the
    /// memoized horizon anyway; neither does a request that only becomes
    /// ready once its rank's refresh is due (the refresh horizon covers it).
    fn select(
        &mut self,
        use_writes: bool,
        cycle: Cycle,
        refresh_pending: u64,
        preventive_bank: Option<usize>,
    ) -> Option<(Cycle, usize, ServiceStep)> {
        // Disjoint field borrows: the queue re-derives stale class heads
        // while the rest of the controller is read.
        let Self {
            read_queue,
            write_queue,
            channel,
            hit_streak,
            config,
            next_refresh,
            mechanism,
            ..
        } = self;
        #[cfg(test)]
        tests::SELECT_PASSES.set(tests::SELECT_PASSES.get() + 1);
        let queue: &mut DemandQueue = if use_writes { write_queue } else { read_queue };
        let ready_col = if use_writes { CommandKind::Write } else { CommandKind::Read };
        let cap = config.frfcfs_cap;
        // `(key, slot, step)` of the best candidate so far.
        type Best = Option<((Cycle, bool, u64), usize, ServiceStep)>;
        let mut best: Best = None;
        // Weighs one bank's candidate; returns whether it is ready.
        let offer =
            |best: &mut Best, slot: usize, e: &QueueEntry, step: ServiceStep, ready_at: Cycle| {
                let ready = ready_at <= cycle;
                if !ready && ready_at >= next_refresh[e.loc.bank.rank] {
                    return false;
                }
                let capped_hit = step == ServiceStep::Column && hit_streak[e.flat] < cap;
                let key = (ready_at.max(cycle), !capped_hit, e.seq);
                if best.is_none_or(|(k, ..)| key < k) {
                    *best = Some((key, slot, step));
                }
                ready
            };
        for word in 0..queue.bank_mask().len() {
            let mut bits = queue.bank_mask()[word];
            while bits != 0 {
                let flat = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let (head_slot, head) = queue.bank(flat).next().expect("bank marked non-empty");
                let (rank, group) = (head.loc.bank.rank, head.group);
                // Nothing in this bank is older than its head, so once an
                // older ready capped hit is known the bank cannot change the
                // outcome.
                if refresh_pending & (1 << rank) != 0
                    || best.is_some_and(|(k, ..)| k < (cycle, false, head.seq))
                {
                    continue;
                }
                let reserved = preventive_bank == Some(flat);
                let ready = |kind| channel.demand_ready(flat, group, rank, kind);
                match channel.open_row_flat(flat) {
                    None if reserved => {}
                    None if mechanism.may_block() => {
                        // BlockHammer: a blacklisted row cannot be opened
                        // before its delay expires, so requests differ by row.
                        let act = ready(CommandKind::Activate);
                        for (slot, e) in queue.bank(flat) {
                            let blocked = mechanism.blocked_until(e.loc.row_addr(), cycle);
                            if offer(&mut best, slot, e, ServiceStep::Activate, act.max(blocked)) {
                                break;
                            }
                        }
                    }
                    None => {
                        let at = ready(CommandKind::Activate);
                        offer(&mut best, head_slot, head, ServiceStep::Activate, at);
                    }
                    Some(row) => {
                        let (hit, miss) = queue.class_heads(flat, row);
                        if let Some(slot) = hit {
                            let at = ready(ready_col);
                            if offer(&mut best, slot, queue.entry(slot), ServiceStep::Column, at)
                                && hit_streak[flat] < cap
                            {
                                // A ready capped hit pre-empts every non-hit.
                                continue;
                            }
                        }
                        if let (Some(slot), false) = (miss, reserved) {
                            let at = ready(CommandKind::Precharge);
                            offer(&mut best, slot, queue.entry(slot), ServiceStep::Precharge, at);
                        }
                    }
                }
            }
        }
        best.map(|((at, ..), slot, step)| (at, slot, step))
    }

    fn command_for(&self, entry: &QueueEntry, step: ServiceStep, use_writes: bool) -> DramCommand {
        match step {
            ServiceStep::Column => {
                if use_writes {
                    DramCommand::write(entry.loc)
                } else {
                    DramCommand::read(entry.loc)
                }
            }
            ServiceStep::Activate => DramCommand::activate(entry.loc.bank, entry.loc.row),
            ServiceStep::Precharge => DramCommand::precharge(entry.loc.bank),
        }
    }

    /// Issues the chosen command and updates queues, statistics and the
    /// mitigation/BreakHammer hooks.
    fn service(
        &mut self,
        use_writes: bool,
        slot: usize,
        step: ServiceStep,
        cycle: Cycle,
        breakhammer: Option<&mut BreakHammer>,
    ) {
        #[cfg(test)]
        tests::DEMAND_COMMANDS.set(tests::DEMAND_COMMANDS.get() + 1);
        let entry = *self.queue_mut(use_writes).entry(slot);
        let flat = entry.flat;
        let cmd = self.command_for(&entry, step, use_writes);
        let outcome = self.channel.issue_prechecked(&cmd, cycle);

        match step {
            ServiceStep::Column => {
                self.hit_streak[flat] = self.hit_streak[flat].saturating_add(1);
                if !entry.classified {
                    self.stats.row_hits += 1;
                }
                let completed_at = outcome.data_ready_at.unwrap_or(cycle);
                let latency = completed_at.saturating_sub(entry.req.arrival);
                if entry.req.kind == AccessKind::Read {
                    self.stats.reads_served += 1;
                    let t = entry.req.thread.index();
                    if t < self.per_thread_latency.len() {
                        self.per_thread_latency[t].record(latency);
                    }
                } else {
                    self.stats.writes_served += 1;
                }
                self.responses.push(MemResponse {
                    id: entry.req.id,
                    thread: entry.req.thread,
                    kind: entry.req.kind,
                    completed_at,
                    latency,
                });
                self.queue_mut(use_writes).remove(slot);
            }
            ServiceStep::Precharge => {
                self.hit_streak[flat] = 0;
                if !self.mark_classified(use_writes, slot) {
                    self.stats.row_conflicts += 1;
                }
            }
            ServiceStep::Activate => {
                self.hit_streak[flat] = 0;
                if !self.mark_classified(use_writes, slot) {
                    self.stats.row_misses += 1;
                }
                self.on_demand_activation(entry.loc, entry.req.thread, cycle, breakhammer);
            }
        }
    }

    /// Marks the queue entry as classified, returning the previous flag.
    fn mark_classified(&mut self, use_writes: bool, slot: usize) -> bool {
        std::mem::replace(&mut self.queue_mut(use_writes).entry_mut(slot).classified, true)
    }

    /// Reports a demand activation to the mitigation mechanism and
    /// BreakHammer, and queues any requested preventive actions.
    ///
    /// This is the simulator's per-activation hot path: the mechanism pushes
    /// its actions into the controller-owned scratch [`ActionSink`], which is
    /// cleared and drained here — no allocation occurs once the sink and the
    /// preventive queue are warm.
    fn on_demand_activation(
        &mut self,
        loc: DramLocation,
        thread: ThreadId,
        cycle: Cycle,
        mut breakhammer: Option<&mut BreakHammer>,
    ) {
        self.stats.demand_activations += 1;
        if let Some(bh) = breakhammer.as_deref_mut() {
            bh.on_activation(thread, cycle);
        }
        let event = ActivationEvent { row: loc.row_addr(), thread, cycle };
        // Move the sink out so its borrow does not alias `self` while the
        // drained actions are expanded (`take` leaves an empty, non-allocated
        // sink behind and the buffers come right back).
        let mut sink = std::mem::take(&mut self.sink);
        sink.clear();
        self.mechanism.on_activation(&event, &mut sink);
        for action in sink.iter() {
            self.expand_action(action);
            if let Some(bh) = breakhammer.as_deref_mut() {
                bh.on_preventive_action_from(self.channel_index, cycle);
            }
        }
        self.sink = sink;
    }

    /// Converts a preventive action into the DRAM command sequence that
    /// performs it and appends it to the preventive queue.
    fn expand_action(&mut self, action: ActionView<'_>) {
        match action {
            ActionView::RefreshRows(rows) => {
                self.stats.preventive_refresh_actions += 1;
                for row in rows {
                    self.stats.victim_rows_refreshed += 1;
                    self.preventive_queue.push_back(DramCommand::victim_refresh(*row));
                }
            }
            ActionView::MigrateRow { source, dest } => {
                self.stats.migrations += 1;
                let columns = self.channel.geometry().columns_per_row;
                // Moving the aggressor away ends its disturbance relationship
                // with the neighbouring victims; model that by restoring the
                // neighbours as part of the migration sequence (a negligible
                // 2-4 extra row cycles on top of the ~2x128 column transfers).
                for victim in self.channel.geometry().neighbors(source, 2) {
                    self.preventive_queue.push_back(DramCommand::victim_refresh(victim));
                }
                for column in 0..columns {
                    self.preventive_queue.push_back(DramCommand::read(DramLocation {
                        channel: 0,
                        bank: source.bank,
                        row: source.row,
                        column,
                    }));
                }
                for column in 0..columns {
                    self.preventive_queue.push_back(DramCommand::write(DramLocation {
                        channel: 0,
                        bank: dest.bank,
                        row: dest.row,
                        column,
                    }));
                }
            }
            ActionView::IssueRfm { bank } => {
                self.stats.rfm_actions += 1;
                self.preventive_queue.push_back(DramCommand::rfm(bank));
            }
            ActionView::TableAccess { row, write_back } => {
                self.stats.table_accesses += 1;
                self.preventive_queue.push_back(DramCommand::read(DramLocation {
                    channel: 0,
                    bank: row.bank,
                    row: row.row,
                    column: 0,
                }));
                if write_back {
                    self.preventive_queue.push_back(DramCommand::write(DramLocation {
                        channel: 0,
                        bank: row.bank,
                        row: row.row,
                        column: 0,
                    }));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand_queue::SplitMix;
    use crate::mapping::AddressMapping;
    use bh_core::BreakHammerConfig;
    use bh_dram::{DramGeometry, PhysAddr, TimingParams};
    use bh_mitigation::MechanismKind;
    use std::cell::Cell;

    /// Every field reaches the sum: a new field fails to compile this
    /// literal, and a field `accumulate` drops stays zero and fails it.
    #[test]
    fn accumulate_adds_every_field() {
        let stats = ControllerStats {
            reads_served: 1,
            writes_served: 2,
            row_hits: 3,
            row_misses: 4,
            row_conflicts: 5,
            demand_activations: 6,
            enqueue_rejections: 7,
            preventive_refresh_actions: 8,
            victim_rows_refreshed: 9,
            migrations: 10,
            rfm_actions: 11,
            table_accesses: 12,
            periodic_refreshes: 13,
        };
        let mut sum = ControllerStats::default();
        sum.accumulate(&stats);
        assert_eq!(sum, stats);
    }

    fn small_config() -> MemControllerConfig {
        let mut c = MemControllerConfig::paper_table1(4);
        c.read_queue_capacity = 16;
        c.write_queue_capacity = 16;
        c.write_drain_high = 12;
        c.write_drain_low = 4;
        c
    }

    fn controller(kind: MechanismKind, nrh: u64) -> MemoryController {
        let geometry = DramGeometry::tiny();
        let timing = TimingParams::fast_test();
        let mechanism = kind.build(&geometry, &timing, nrh, 1);
        let channel = DramChannel::with_rowhammer(geometry, timing, nrh);
        MemoryController::new(small_config(), channel, mechanism)
    }

    /// A controller plus the caller-owned BreakHammer instance that must be
    /// passed into every `tick` (BreakHammer is shared across channels, so
    /// the controller only borrows it).
    fn controller_with_bh(kind: MechanismKind, nrh: u64) -> (MemoryController, BreakHammer) {
        let geometry = DramGeometry::tiny();
        let timing = TimingParams::fast_test();
        let mechanism = kind.build(&geometry, &timing, nrh, 1);
        let attribution = mechanism.attribution();
        let channel = DramChannel::with_rowhammer(geometry, timing, nrh);
        let mut bh_cfg = BreakHammerConfig::fast_test(4, 16);
        bh_cfg.window_cycles = 200_000;
        let bh = BreakHammer::new(bh_cfg, attribution);
        (MemoryController::new(small_config(), channel, mechanism), bh)
    }

    /// Physical address of (bank 0, `row`, `column`) under the default MOP
    /// mapping of the tiny geometry.
    fn addr_of(ctrl: &MemoryController, row: usize, column: usize) -> PhysAddr {
        let loc = DramLocation {
            channel: 0,
            bank: bh_dram::BankAddr { rank: 0, bank_group: 0, bank: 0 },
            row,
            column,
        };
        AddressMapping::paper_default().encode(&loc, ctrl.channel().geometry())
    }

    fn run_until_responses(
        ctrl: &mut MemoryController,
        start: Cycle,
        expected: usize,
        max_cycles: u64,
    ) -> (Vec<MemResponse>, Cycle) {
        let mut responses = Vec::new();
        let mut cycle = start;
        while responses.len() < expected && cycle < start + max_cycles {
            ctrl.tick(cycle, None);
            responses.extend(ctrl.drain_responses());
            cycle += 1;
        }
        (responses, cycle)
    }

    #[test]
    fn single_read_completes_with_reasonable_latency() {
        let mut ctrl = controller(MechanismKind::None, 1024);
        let addr = addr_of(&ctrl, 5, 0);
        ctrl.try_enqueue(MemRequest::read(1, ThreadId(0), addr, 0)).unwrap();
        let (responses, _) = run_until_responses(&mut ctrl, 0, 1, 10_000);
        assert_eq!(responses.len(), 1);
        let t = ctrl.channel().timing().clone();
        let min = t.t_rcd + t.read_latency();
        assert!(responses[0].latency >= min, "latency {} < {min}", responses[0].latency);
        assert_eq!(ctrl.stats().reads_served, 1);
        assert_eq!(ctrl.stats().row_misses, 1);
        assert_eq!(ctrl.stats().demand_activations, 1);
    }

    #[test]
    fn row_hits_are_faster_than_conflicts() {
        let mut ctrl = controller(MechanismKind::None, 1024);
        // Read 1 opens row 5 (a row miss).
        ctrl.try_enqueue(MemRequest::read(1, ThreadId(0), addr_of(&ctrl, 5, 0), 0)).unwrap();
        let (_, end) = run_until_responses(&mut ctrl, 0, 1, 10_000);

        // Read 2 to another column of row 5: a row hit.
        ctrl.try_enqueue(MemRequest::read(2, ThreadId(0), addr_of(&ctrl, 5, 1), end)).unwrap();
        let (hit, end) = run_until_responses(&mut ctrl, end, 1, 10_000);
        assert_eq!(ctrl.stats().row_hits, 1);

        // Read 3 to a different row of the same bank: a row conflict.
        ctrl.try_enqueue(MemRequest::read(3, ThreadId(0), addr_of(&ctrl, 9, 0), end)).unwrap();
        let (conflict, _) = run_until_responses(&mut ctrl, end, 1, 10_000);
        assert_eq!(ctrl.stats().row_conflicts, 1);

        let hit_latency = hit[0].latency;
        let conflict_latency = conflict[0].latency;
        assert!(
            conflict_latency > hit_latency,
            "conflict {conflict_latency} should exceed hit {hit_latency}"
        );
    }

    #[test]
    fn queue_capacity_is_enforced() {
        let mut ctrl = controller(MechanismKind::None, 1024);
        for i in 0..16u64 {
            ctrl.try_enqueue(MemRequest::read(i, ThreadId(0), PhysAddr(i * 64), 0)).unwrap();
        }
        assert!(!ctrl.can_accept(AccessKind::Read));
        let rejected = ctrl.try_enqueue(MemRequest::read(99, ThreadId(0), PhysAddr(0), 0));
        assert!(rejected.is_err());
        assert_eq!(ctrl.stats().enqueue_rejections, 1);
        assert!(ctrl.can_accept(AccessKind::Write));
    }

    #[test]
    fn periodic_refresh_is_issued() {
        let mut ctrl = controller(MechanismKind::None, 1024);
        let t_refi = ctrl.channel().timing().t_refi;
        for cycle in 0..(t_refi * 4) {
            ctrl.tick(cycle, None);
        }
        // Both ranks refresh roughly every tREFI.
        assert!(ctrl.stats().periodic_refreshes >= 4, "{}", ctrl.stats().periodic_refreshes);
    }

    #[test]
    fn writes_are_drained_and_complete() {
        let mut ctrl = controller(MechanismKind::None, 1024);
        for i in 0..14u64 {
            ctrl.try_enqueue(MemRequest::write(i, ThreadId(0), PhysAddr(i * 4096), 0)).unwrap();
        }
        let (responses, _) = run_until_responses(&mut ctrl, 0, 14, 100_000);
        assert_eq!(responses.len(), 14);
        assert_eq!(ctrl.stats().writes_served, 14);
    }

    /// Drives a classic double-sided hammering pattern (alternating reads to
    /// rows 50 and 52 of bank 0) for `rounds` iterations and returns the
    /// controller together with the cycle at which the run finished.
    fn double_sided_hammer(
        kind: MechanismKind,
        nrh: u64,
        rounds: u64,
    ) -> (MemoryController, Cycle) {
        let mut ctrl = controller(kind, nrh);
        let mut cycle = 0u64;
        let mut id = 0u64;
        for round in 0..rounds {
            for row in [50usize, 52] {
                let addr = addr_of(&ctrl, row, (round % 4) as usize);
                let req = MemRequest::read(id, ThreadId(0), addr, cycle);
                id += 1;
                // Retry enqueue until accepted.
                let mut r = ctrl.try_enqueue(req);
                while r.is_err() {
                    ctrl.tick(cycle, None);
                    cycle += 1;
                    let _ = ctrl.drain_responses();
                    r = ctrl.try_enqueue(req);
                }
            }
            for _ in 0..8 {
                ctrl.tick(cycle, None);
                cycle += 1;
            }
            let _ = ctrl.drain_responses();
        }
        // Drain everything left.
        while ctrl.queued_requests() > 0 || ctrl.pending_preventive_commands() > 0 {
            ctrl.tick(cycle, None);
            cycle += 1;
            let _ = ctrl.drain_responses();
            if cycle > 10_000_000 {
                panic!("hammer run did not drain");
            }
        }
        (ctrl, cycle)
    }

    #[test]
    fn graphene_hammering_causes_victim_refreshes_and_prevents_bitflips() {
        let nrh = 128;
        let (ctrl, _) = double_sided_hammer(MechanismKind::Graphene, nrh, 600);
        assert!(ctrl.stats().preventive_refresh_actions > 0, "Graphene must have triggered");
        assert!(ctrl.stats().victim_rows_refreshed > 0);
        // The security invariant: no row ever accumulated N_RH disturbance.
        let tracker = ctrl.channel().rowhammer().expect("tracker attached");
        assert_eq!(tracker.bitflip_count(), 0, "bitflips despite Graphene");
        assert!(tracker.max_disturbance() < nrh);
    }

    #[test]
    fn unprotected_hammering_does_cause_bitflips() {
        let (ctrl, _) = double_sided_hammer(MechanismKind::None, 128, 400);
        let tracker = ctrl.channel().rowhammer().expect("tracker attached");
        assert!(tracker.bitflip_count() > 0, "row 51 should have flipped without protection");
    }

    #[test]
    fn blockhammer_prevents_bitflips_by_slowing_the_hammering_pattern() {
        let nrh = 64;
        let (unprotected, baseline_cycles) = double_sided_hammer(MechanismKind::None, nrh, 300);
        assert!(unprotected.channel().rowhammer().unwrap().bitflip_count() > 0);

        let (protected, protected_cycles) =
            double_sided_hammer(MechanismKind::BlockHammer, nrh, 300);
        let tracker = protected.channel().rowhammer().unwrap();
        assert_eq!(tracker.bitflip_count(), 0, "BlockHammer must prevent bitflips");
        // BlockHammer prevents bitflips by delaying blacklisted rows, so the
        // same access pattern takes substantially longer to execute.
        assert!(
            protected_cycles > 2 * baseline_cycles,
            "BlockHammer run ({protected_cycles}) should be much slower than \
             the unprotected run ({baseline_cycles})"
        );
        // And it never issued extra DRAM commands to do so.
        assert_eq!(protected.stats().preventive_actions_total(), 0);
    }

    #[test]
    fn rfm_mechanism_issues_rfm_commands() {
        let mut ctrl = controller(MechanismKind::Rfm, 256);
        let mut cycle = 0u64;
        for i in 0..400u64 {
            // Row conflicts across many rows of the same bank force many
            // activations, which accumulate in the bank's RAA counter.
            let addr = addr_of(&ctrl, (i % 40) as usize, 0);
            let req = MemRequest::read(i, ThreadId(0), addr, cycle);
            let mut r = ctrl.try_enqueue(req);
            while r.is_err() {
                ctrl.tick(cycle, None);
                cycle += 1;
                let _ = ctrl.drain_responses();
                r = ctrl.try_enqueue(req);
            }
            for _ in 0..4 {
                ctrl.tick(cycle, None);
                cycle += 1;
            }
            let _ = ctrl.drain_responses();
        }
        for _ in 0..20_000 {
            ctrl.tick(cycle, None);
            cycle += 1;
        }
        assert!(ctrl.stats().rfm_actions > 0);
        assert!(ctrl.channel().stats().rfm_commands > 0);
    }

    /// PARA at `N_RH = 64` triggers a same-bank victim refresh on every
    /// activation (`p = 1`). A demand request must still complete (the
    /// forward-progress rule defers the refresh's precharge past the pending
    /// row-hit), and the deferral must be bounded: even under a sustained
    /// stream of row-hits to the open row, the queued preventive refreshes
    /// drain instead of being starved behind the head forever.
    #[test]
    fn preventive_work_neither_livelocks_demand_nor_starves_forever() {
        let mut ctrl = controller(MechanismKind::Para, 64);

        // One activation of row 50: PARA (p = 1) queues a neighbour refresh
        // in the same bank. The read must complete regardless.
        ctrl.try_enqueue(MemRequest::read(1, ThreadId(0), addr_of(&ctrl, 50, 0), 0)).unwrap();
        let (responses, mut cycle) = run_until_responses(&mut ctrl, 0, 1, 10_000);
        assert_eq!(responses.len(), 1, "the triggering read must not livelock");
        assert_eq!(ctrl.stats().demand_activations, 1, "no ACT/PRE churn");

        // Keep a row-hit pending at every single cycle while the refresh is
        // still queued; the bounded deferral must let the refresh drain
        // anyway (within the defer bound plus a couple of row cycles).
        let mut served = 0;
        for _ in 0..2_000 {
            if ctrl.pending_preventive_commands() == 0 {
                break;
            }
            // `cycle` is strictly increasing, so it doubles as a unique id.
            let _ = ctrl.try_enqueue(MemRequest::read(
                1_000 + cycle,
                ThreadId(0),
                addr_of(&ctrl, 50, served % 4),
                cycle,
            ));
            ctrl.tick(cycle, None);
            served += ctrl.drain_responses().len();
            cycle += 1;
        }
        assert_eq!(
            ctrl.pending_preventive_commands(),
            0,
            "queued preventive refreshes must not be starved by a sustained hit stream"
        );
        assert!(served > 0, "demand hits kept flowing while the refresh drained");
        assert_eq!(ctrl.stats().victim_rows_refreshed, 1);
    }

    #[test]
    fn breakhammer_throttles_the_hammering_thread() {
        let (mut ctrl, mut bh) = controller_with_bh(MechanismKind::Graphene, 64);
        let full_quota = bh.quota(ThreadId(0));
        let mut cycle = 0u64;
        let mut id = 0u64;
        // Thread 0 hammers; thread 1 does a light scan of distinct rows.
        for round in 0..1500u64 {
            let hammer_addr = addr_of(&ctrl, if round % 2 == 0 { 50 } else { 52 }, 0);
            let req = MemRequest::read(id, ThreadId(0), hammer_addr, cycle);
            id += 1;
            let mut r = ctrl.try_enqueue(req);
            while r.is_err() {
                ctrl.tick(cycle, Some(&mut bh));
                cycle += 1;
                let _ = ctrl.drain_responses();
                r = ctrl.try_enqueue(req);
            }
            if round % 10 == 0 {
                let benign = MemRequest::read(
                    id,
                    ThreadId(1),
                    addr_of(&ctrl, (round % 30) as usize, 1),
                    cycle,
                );
                id += 1;
                let _ = ctrl.try_enqueue(benign);
            }
            for _ in 0..6 {
                ctrl.tick(cycle, Some(&mut bh));
                cycle += 1;
            }
            let _ = ctrl.drain_responses();
        }
        assert!(bh.is_suspect(ThreadId(0)), "the hammering thread must be a suspect");
        assert!(bh.quota(ThreadId(0)) < full_quota);
        assert_eq!(bh.quota(ThreadId(1)), full_quota);
        assert!(bh.score(ThreadId(0)) > bh.score(ThreadId(1)));
    }

    #[test]
    fn aqua_migrations_are_expensive_but_execute() {
        let mut ctrl = controller(MechanismKind::Aqua, 64);
        let mut cycle = 0u64;
        for round in 0..200u64 {
            let row = if round % 2 == 0 { 50 } else { 52 };
            let req = MemRequest::read(round, ThreadId(0), addr_of(&ctrl, row, 0), cycle);
            let mut r = ctrl.try_enqueue(req);
            while r.is_err() {
                ctrl.tick(cycle, None);
                cycle += 1;
                let _ = ctrl.drain_responses();
                r = ctrl.try_enqueue(req);
            }
            for _ in 0..6 {
                ctrl.tick(cycle, None);
                cycle += 1;
            }
            let _ = ctrl.drain_responses();
        }
        for _ in 0..100_000 {
            ctrl.tick(cycle, None);
            cycle += 1;
        }
        assert!(ctrl.stats().migrations > 0);
        // Each migration transfers the whole row: reads and writes well beyond
        // the demand traffic alone.
        let expected_extra =
            ctrl.stats().migrations * ctrl.channel().geometry().columns_per_row as u64;
        assert!(ctrl.channel().stats().writes >= expected_extra);
        assert_eq!(ctrl.pending_preventive_commands(), 0, "preventive queue must drain");
    }

    #[test]
    fn hydra_table_accesses_generate_dram_traffic() {
        let mut ctrl = controller(MechanismKind::Hydra, 64);
        let mut cycle = 0u64;
        for round in 0..400u64 {
            let row = 50 + (round % 2) as usize * 2;
            let req = MemRequest::read(round, ThreadId(0), addr_of(&ctrl, row, 0), cycle);
            let mut r = ctrl.try_enqueue(req);
            while r.is_err() {
                ctrl.tick(cycle, None);
                cycle += 1;
                let _ = ctrl.drain_responses();
                r = ctrl.try_enqueue(req);
            }
            for _ in 0..6 {
                ctrl.tick(cycle, None);
                cycle += 1;
            }
            let _ = ctrl.drain_responses();
        }
        for _ in 0..20_000 {
            ctrl.tick(cycle, None);
            cycle += 1;
        }
        assert!(ctrl.stats().table_accesses > 0);
        assert!(ctrl.stats().preventive_actions_total() > 0);
    }

    /// Serves an older row conflict (id 1) queued behind the request that
    /// opens row 5 (id 0) and ahead of `2 * 4` younger hits on row 5 (ids
    /// 2..), and returns the ids served before the conflict's `Precharge`.
    ///
    /// FR-FCFS is first-*ready*: the cap only decides a cycle on which a hit
    /// and the conflict's precharge are both issuable. `fast_test` spaces
    /// reads further apart than read-to-precharge, so the precharge would
    /// slip in between two hits whatever the cap; with `t_rtp == t_ccd_l`
    /// both become ready together after every read and the cap alone decides.
    fn hits_served_before_the_conflict(frfcfs_cap: u32) -> Vec<u64> {
        let geometry = DramGeometry::tiny();
        let mut timing = TimingParams::fast_test();
        timing.t_rtp = timing.t_ccd_l;
        let mechanism = MechanismKind::None.build(&geometry, &timing, 1024, 1);
        let config = MemControllerConfig { frfcfs_cap, ..small_config() };
        let mut ctrl = MemoryController::new(config, DramChannel::new(geometry, timing), mechanism);
        ctrl.try_enqueue(MemRequest::read(0, ThreadId(0), addr_of(&ctrl, 5, 0), 0)).unwrap();
        ctrl.try_enqueue(MemRequest::read(1, ThreadId(0), addr_of(&ctrl, 9, 0), 0)).unwrap();
        for i in 0..8 {
            let addr = addr_of(&ctrl, 5, 1 + i as usize);
            ctrl.try_enqueue(MemRequest::read(2 + i, ThreadId(0), addr, 0)).unwrap();
        }
        let mut served = Vec::new();
        let mut cycle = 0;
        while ctrl.stats().row_conflicts == 0 {
            ctrl.tick(cycle, None);
            served.extend(ctrl.drain_responses().iter().map(|r| r.id));
            cycle += 1;
            assert!(cycle < 10_000, "the conflict was never scheduled");
        }
        // The conflict then runs to completion before the remaining hits.
        let (rest, _) = run_until_responses(&mut ctrl, cycle, 10 - served.len(), 10_000);
        assert_eq!(rest[0].id, 1, "the older request goes first once its row is closed");
        assert_eq!(served.len() + rest.len(), 10);
        served
    }

    /// With an older row conflict waiting, a bank serves exactly
    /// `frfcfs_cap` column accesses from its open row — the activating
    /// request's, then `frfcfs_cap - 1` younger hits that overtake the
    /// conflict (the streak counts from the activation) — before the
    /// conflict's `Precharge`; without a binding cap every pending hit
    /// overtakes it.
    #[test]
    fn the_reordering_cap_bounds_hits_served_past_an_older_conflict() {
        let cap = MemControllerConfig::paper_table1(4).frfcfs_cap;
        assert_eq!(hits_served_before_the_conflict(cap), [0, 2, 3, 4]);
        assert_eq!(hits_served_before_the_conflict(2), [0, 2]);
        assert_eq!(hits_served_before_the_conflict(100), [0, 2, 3, 4, 5, 6, 7, 8, 9]);
    }

    /// The cap only reorders among *ready* requests: while the older
    /// conflict's `Precharge` is held back by write recovery, row hits past
    /// the cap are still served (FCFS among what can issue) rather than
    /// idling the bank.
    #[test]
    fn an_uncapped_hit_is_served_while_nothing_older_is_ready() {
        let mut ctrl = controller(MechanismKind::None, 1024);
        let cap = ctrl.config.frfcfs_cap;
        let hits = 2 * u64::from(cap);
        ctrl.try_enqueue(MemRequest::write(0, ThreadId(0), addr_of(&ctrl, 5, 0), 0)).unwrap();
        ctrl.try_enqueue(MemRequest::write(1, ThreadId(0), addr_of(&ctrl, 9, 0), 0)).unwrap();
        for i in 0..hits {
            let addr = addr_of(&ctrl, 5, 1 + i as usize);
            ctrl.try_enqueue(MemRequest::write(2 + i, ThreadId(0), addr, 0)).unwrap();
        }
        let t = ctrl.channel().timing().clone();
        assert!(t.t_wr + t.cwl > t.t_ccd_l, "premise: write recovery outlasts the column gap");
        let mut served = 0;
        let mut cycle = 0;
        while ctrl.stats().row_conflicts == 0 {
            ctrl.tick(cycle, None);
            served += ctrl.drain_responses().len() as u64;
            cycle += 1;
            assert!(cycle < 10_000, "the conflict was never scheduled");
        }
        assert_eq!(served, 1 + hits, "every pending hit drained before the precharge");
        assert!(ctrl.hit_streak[0] == 0 && ctrl.stats().writes_served > u64::from(cap));
    }

    thread_local! {
        /// Calls of [`MemoryController::select`] and of
        /// [`MemoryController::service`] on this thread.
        pub(super) static SELECT_PASSES: Cell<u64> = const { Cell::new(0) };
        pub(super) static DEMAND_COMMANDS: Cell<u64> = const { Cell::new(0) };
    }

    /// Which scheduling situations a differential run exercised.
    #[derive(Debug, Default)]
    struct Coverage {
        hits_chosen: u64,
        row_commands_chosen: u64,
        horizons_compared: u64,
        refresh_masked: u64,
        reserved_bank: u64,
        streak_at_cap: u64,
        streak_over_cap: u64,
        blocked_rows: u64,
        drain_with_reads_waiting: u64,
        reads_with_writes_waiting: u64,
        // Carried-over plans.
        plans_issued: u64,
        plan_dropped_by_read: u64,
        plan_dropped_by_write: u64,
        refresh_deadline_at_demand_horizon: u64,
        preventive_horizon_not_after_demand: u64,
        deferral_ticks: u64,
        plans_left_by_deferring_ticks: u64,
        plans_issued_while_deferring: u64,
        plan_in_drain_with_both_queues_ready: u64,
        plan_with_hit_at_cap: u64,
        plan_with_hit_over_cap: u64,
        // `select` passes the plans saved.
        select_passes: u64,
        select_passes_without_plans: u64,
    }

    impl MemoryController {
        fn queue(&self, use_writes: bool) -> &DemandQueue {
            if use_writes {
                &self.write_queue
            } else {
                &self.read_queue
            }
        }

        /// The scheduler this controller had before its queues were indexed
        /// by bank, kept as the oracle for [`MemoryController::select`]: one
        /// pass over the whole queue in arrival order, deciding request by
        /// request, with every ready cycle taken from
        /// [`DramChannel::earliest_issue`] for a built command instead of
        /// [`DramChannel::demand_ready`] on a flat bank index.
        fn select_linear(
            &self,
            use_writes: bool,
            cycle: Cycle,
            refresh_pending: u64,
            preventive_bank: Option<usize>,
        ) -> (Option<(usize, ServiceStep)>, Cycle) {
            let mut arrival_order: Vec<_> = self.queue(use_writes).iter().collect();
            arrival_order.sort_by_key(|(_, e)| e.seq);
            let mut fallback = None;
            let mut horizon = Cycle::MAX;
            for (slot, e) in arrival_order {
                let rank = e.loc.bank.rank;
                if refresh_pending & (1 << rank) != 0 {
                    continue;
                }
                let step = match self.channel.open_row(e.loc.bank) {
                    None => ServiceStep::Activate,
                    Some(row) if row == e.loc.row => ServiceStep::Column,
                    Some(_) => ServiceStep::Precharge,
                };
                if preventive_bank == Some(e.flat) && step != ServiceStep::Column {
                    continue;
                }
                let mut ready_at =
                    self.channel.earliest_issue(&self.command_for(e, step, use_writes));
                if step == ServiceStep::Activate {
                    ready_at = ready_at.max(self.mechanism.blocked_until(e.loc.row_addr(), cycle));
                }
                if cycle < ready_at {
                    if ready_at < self.next_refresh[rank] {
                        horizon = horizon.min(ready_at);
                    }
                } else if step == ServiceStep::Column
                    && self.hit_streak[e.flat] < self.config.frfcfs_cap
                {
                    return (Some((slot, step)), horizon);
                } else if fallback.is_none() {
                    fallback = Some((slot, step));
                }
            }
            (fallback, horizon)
        }

        /// The scheduling masks a tick at `cycle` hands to the selectors.
        fn masks(&self, cycle: Cycle) -> (u64, Option<usize>) {
            let preventive_bank =
                self.preventive_queue.front().map(|c| self.channel.geometry().flat_bank(c.bank));
            (self.refresh_pending_ranks(cycle), preventive_bank)
        }

        /// Asserts that both selectors make the same choice on both queues in
        /// the current state, and — when nothing can issue — report the same
        /// horizon. Returns the demand horizon of the linear scan if neither
        /// queue has anything to issue.
        fn assert_selectors_agree(&mut self, cycle: Cycle, seen: &mut Coverage) -> Option<Cycle> {
            let (refresh_pending, preventive_bank) = self.masks(cycle);
            let mut demand_horizon = Some(Cycle::MAX);
            for use_writes in [false, true] {
                let selected = self.select(use_writes, cycle, refresh_pending, preventive_bank);
                let (expected, expected_horizon) =
                    self.select_linear(use_writes, cycle, refresh_pending, preventive_bank);
                let id = |slot| self.queue(use_writes).entry(slot).req.id;
                let choice = selected.filter(|&(at, ..)| at <= cycle);
                assert_eq!(
                    choice.map(|(_, slot, step)| (id(slot), step)),
                    expected.map(|(slot, step)| (id(slot), step)),
                    "cycle {cycle}, writes: {use_writes}"
                );
                match choice {
                    Some((.., ServiceStep::Column)) => seen.hits_chosen += 1,
                    Some(_) => seen.row_commands_chosen += 1,
                    None => {
                        let horizon = selected.map_or(Cycle::MAX, |(at, ..)| at);
                        assert_eq!(
                            horizon, expected_horizon,
                            "cycle {cycle}, writes: {use_writes}"
                        );
                        seen.horizons_compared += u64::from(horizon != Cycle::MAX);
                    }
                }
                demand_horizon = match expected {
                    None => demand_horizon.map(|h| h.min(expected_horizon)),
                    Some(_) => None,
                };
                let cap = self.config.frfcfs_cap;
                for (_, e) in self.queue(use_writes).iter() {
                    let open = self.channel.open_row_flat(e.flat);
                    let streak = self.hit_streak[e.flat];
                    seen.refresh_masked += u64::from(refresh_pending & (1 << e.loc.bank.rank) != 0);
                    seen.reserved_bank += u64::from(preventive_bank == Some(e.flat));
                    seen.streak_at_cap += u64::from(open == Some(e.loc.row) && streak == cap);
                    seen.streak_over_cap += u64::from(open == Some(e.loc.row) && streak > cap);
                    seen.blocked_rows += u64::from(
                        open.is_none()
                            && self.mechanism.blocked_until(e.loc.row_addr(), cycle) > cycle,
                    );
                }
            }
            let both_waiting = !self.read_queue.is_empty() && !self.write_queue.is_empty();
            seen.drain_with_reads_waiting += u64::from(both_waiting && self.write_drain_mode);
            seen.reads_with_writes_waiting += u64::from(both_waiting && !self.write_drain_mode);
            demand_horizon
        }

        /// If the tick at `cycle` will issue from a carried-over plan, asserts
        /// that the plan is what the linear scan chooses in this state: the
        /// choice of the queue scheduled first, else of the other. (While a
        /// plan stands the drain mode is settled — it only toggles from tick
        /// to tick with the read queue empty, where the order is moot.)
        fn assert_plan_is_the_linear_choice(&self, cycle: Cycle, seen: &mut Coverage) {
            let Some(plan) = self.plan.filter(|p| p.at == cycle && cycle >= self.idle_until) else {
                return;
            };
            assert!(!self.mechanism.may_block(), "cycle {cycle}: plan beside a blocking mechanism");
            let (refresh_pending, preventive_bank) = self.masks(cycle);
            let first_writes = self.write_drain_mode && !self.write_queue.is_empty();
            let order = if first_writes { [true, false] } else { [false, true] };
            let choices = order.map(|use_writes| {
                let (choice, _) =
                    self.select_linear(use_writes, cycle, refresh_pending, preventive_bank);
                choice.map(|(slot, step)| (use_writes, self.queue(use_writes).entry(slot), step))
            });
            let describe = |(w, e, step): (bool, &QueueEntry, ServiceStep)| (w, e.req.id, step);
            let planned =
                (plan.use_writes, self.queue(plan.use_writes).entry(plan.slot), plan.step);
            assert_eq!(
                Some(describe(planned)),
                choices[0].or(choices[1]).map(describe),
                "cycle {cycle}: the carried-over plan is not what a full pass would issue"
            );
            seen.plans_issued += 1;
            seen.plans_issued_while_deferring += u64::from(self.deferred_at.is_some());
            seen.plan_in_drain_with_both_queues_ready +=
                u64::from(first_writes && choices.iter().all(Option::is_some));
            let cap = self.config.frfcfs_cap;
            for (_, e, step) in choices.into_iter().flatten() {
                let streak = self.hit_streak[e.flat];
                seen.plan_with_hit_at_cap +=
                    u64::from(step == ServiceStep::Column && streak == cap);
                seen.plan_with_hit_over_cap +=
                    u64::from(step == ServiceStep::Column && streak > cap);
            }
        }

        /// When the command `try_preventive` has to issue next becomes
        /// issuable, if the preventive queue holds any.
        fn preventive_ready_at(&self) -> Option<Cycle> {
            let head = *self.preventive_queue.front()?;
            let cmd = match (head.kind, self.channel.open_row(head.bank)) {
                (CommandKind::VictimRefresh | CommandKind::RefreshManagement, Some(_)) => {
                    DramCommand::precharge(head.bank)
                }
                (CommandKind::Read | CommandKind::Write, Some(row)) if row != head.row => {
                    DramCommand::precharge(head.bank)
                }
                (CommandKind::Read | CommandKind::Write, None) => {
                    DramCommand::activate(head.bank, head.row)
                }
                _ => head,
            };
            Some(self.channel.earliest_issue(&cmd))
        }

        /// Everything a tick can change that a later tick can observe,
        /// except the memo (`idle_until`, `deferred_at` and the plan), which
        /// decides only which ticks run.
        fn observable_state(&mut self) -> impl PartialEq + std::fmt::Debug {
            let open_rows: Vec<_> =
                (0..self.hit_streak.len()).map(|flat| self.channel.open_row_flat(flat)).collect();
            (
                (self.stats.clone(), self.channel.stats().clone(), self.drain_responses()),
                (self.write_drain_mode, self.preventive_deferred_ticks),
                (self.hit_streak.clone(), self.preventive_queue.clone(), open_rows),
                (self.next_refresh.clone(), self.read_queue.len(), self.write_queue.len()),
            )
        }

        /// The controller as it was before a deferring tick reported a
        /// horizon, kept as the oracle for the deferral horizon: a tick that
        /// defers the preventive head and issues nothing pins the next tick
        /// to the very next cycle and leaves no plan, so every deferred tick
        /// runs and counts itself.
        fn tick_deferring_per_tick(&mut self, cycle: Cycle) {
            self.tick(cycle, None);
            if self.deferred_at == Some(cycle) {
                self.idle_until = cycle + 1;
                self.plan = None;
            }
        }
    }

    /// A seeded stream of reads and writes whose intensity and locality
    /// change every 400 cycles: rates from 0 to 99 in 256 per cycle, over 1
    /// to all banks and 1 to 4 rows of each.
    struct RequestStream {
        rng: SplitMix,
        geometry: DramGeometry,
        read_rate: u64,
        write_rate: u64,
        banks: usize,
        rows: usize,
        id: u64,
    }

    impl RequestStream {
        fn new(seed: u64, geometry: &DramGeometry) -> Self {
            let geometry = geometry.clone();
            let (read_rate, write_rate, banks, rows, id) = (0, 0, 1, 1, 0);
            RequestStream { rng: SplitMix(seed), geometry, read_rate, write_rate, banks, rows, id }
        }

        /// The requests arriving at `cycle`: a read, a write, both or none.
        fn arrivals(&mut self, cycle: Cycle) -> Vec<MemRequest> {
            let rng = &mut self.rng;
            if cycle.is_multiple_of(400) {
                self.read_rate = rng.below(100);
                self.write_rate = rng.below(100);
                self.banks = 1 + rng.below(self.geometry.banks_per_channel() as u64) as usize;
                self.rows = 1 + rng.below(4) as usize;
            }
            let mut out = Vec::new();
            for (rate, write) in [(self.read_rate, false), (self.write_rate, true)] {
                if rng.below(256) >= rate {
                    continue;
                }
                let loc = DramLocation {
                    channel: 0,
                    bank: self.geometry.bank_from_flat(rng.below(self.banks as u64) as usize),
                    row: 40 + 2 * rng.below(self.rows as u64) as usize,
                    column: rng.below(self.geometry.columns_per_row as u64) as usize,
                };
                let addr = AddressMapping::paper_default().encode(&loc, &self.geometry);
                let thread = ThreadId(rng.below(4) as usize);
                out.push(if write {
                    MemRequest::write(self.id, thread, addr, cycle)
                } else {
                    MemRequest::read(self.id, thread, addr, cycle)
                });
                self.id += 1;
            }
            out
        }
    }

    /// Drives the controller with a [`RequestStream`]. Before every tick the
    /// bank-indexed selector is checked against the linear one, and a
    /// standing plan against what the linear one would issue; after every
    /// tick the controller is compared with a twin fed the same stream whose
    /// plan is discarded before each tick, so that it always runs the full
    /// refresh / preventive / select pass.
    fn drive_both_selectors(kind: MechanismKind, nrh: u64, seed: u64, seen: &mut Coverage) {
        let mut ctrl = controller(kind, nrh);
        let mut full = controller(kind, nrh);
        let mut stream = RequestStream::new(seed, ctrl.channel().geometry());
        for cycle in 0..40_000 {
            for req in stream.arrivals(cycle) {
                // A full queue rejecting the request is part of the stream.
                let standing = ctrl.plan.is_some();
                let accepted = ctrl.try_enqueue(req).is_ok();
                assert_eq!(full.try_enqueue(req).is_ok(), accepted);
                let dropped = u64::from(accepted && standing && ctrl.plan.is_none());
                if req.kind == AccessKind::Write {
                    seen.plan_dropped_by_write += dropped;
                } else {
                    seen.plan_dropped_by_read += dropped;
                }
            }
            let demand_horizon = ctrl.assert_selectors_agree(cycle, seen);
            ctrl.assert_plan_is_the_linear_choice(cycle, seen);
            let deferred = ctrl.preventive_deferred_ticks;

            let passes = SELECT_PASSES.get();
            ctrl.tick(cycle, None);
            seen.select_passes += SELECT_PASSES.get() - passes;
            full.plan = None;
            let passes = SELECT_PASSES.get();
            full.tick(cycle, None);
            seen.select_passes_without_plans += SELECT_PASSES.get() - passes;
            assert_eq!(ctrl.observable_state(), full.observable_state(), "after cycle {cycle}");
            let memo = |c: &MemoryController| (c.idle_until, c.deferred_at);
            assert_eq!(memo(&ctrl), memo(&full), "after cycle {cycle}");

            seen.deferral_ticks += u64::from(ctrl.preventive_deferred_ticks > deferred);
            // A tick that deferred the preventive head and issued nothing may
            // leave a plan. The check before the tick at `plan.at` holds it
            // to the linear scan's choice; the head must still be deferred
            // there, so the plan is due before the deferral's bound.
            if let (Some(at), Some(plan)) = (ctrl.deferred_at, ctrl.plan) {
                seen.plans_left_by_deferring_ticks += u64::from(at == cycle);
                let left = PREVENTIVE_DEFER_TICKS - ctrl.preventive_deferred_ticks;
                assert!(plan.at <= at + u64::from(left), "cycle {cycle}: plan past the bound");
            }
            // Where a plan must not be left behind.
            let Some(demand) = demand_horizon.filter(|&d| d != Cycle::MAX && ctrl.idle_until != 0)
            else {
                continue;
            };
            if ctrl.next_refresh.contains(&demand) {
                seen.refresh_deadline_at_demand_horizon += 1;
                assert!(ctrl.plan.is_none(), "cycle {cycle}: plan at a refresh deadline");
            }
            if ctrl.deferred_at.is_none()
                && ctrl.preventive_ready_at().is_some_and(|at| at <= demand)
            {
                seen.preventive_horizon_not_after_demand += 1;
                assert!(ctrl.plan.is_none(), "cycle {cycle}: plan beside a preventive command");
            }
        }
    }

    #[test]
    fn bank_indexed_selector_matches_the_linear_scan() {
        let mut seen = Coverage::default();
        for (i, (kind, nrh)) in [
            (MechanismKind::None, 1024),
            (MechanismKind::Graphene, 64),
            (MechanismKind::Para, 64),
            (MechanismKind::Hydra, 64),
            (MechanismKind::BlockHammer, 64),
            (MechanismKind::BlockHammer, 256),
        ]
        .into_iter()
        .enumerate()
        {
            for seed in 0..3 {
                drive_both_selectors(kind, nrh, 0xB4EA_C0DE + 16 * i as u64 + seed, &mut seen);
            }
        }
        // Every situation the selector and the plan special-case was
        // actually compared.
        let Coverage {
            hits_chosen,
            row_commands_chosen,
            horizons_compared,
            refresh_masked,
            reserved_bank,
            streak_at_cap,
            streak_over_cap,
            blocked_rows,
            drain_with_reads_waiting,
            reads_with_writes_waiting,
            plans_issued,
            plan_dropped_by_read,
            plan_dropped_by_write,
            refresh_deadline_at_demand_horizon,
            preventive_horizon_not_after_demand,
            deferral_ticks,
            plans_left_by_deferring_ticks,
            plans_issued_while_deferring,
            plan_in_drain_with_both_queues_ready,
            plan_with_hit_at_cap,
            plan_with_hit_over_cap,
            select_passes,
            select_passes_without_plans,
        } = seen;
        for (what, count) in [
            ("row hits chosen", hits_chosen),
            ("activates/precharges chosen", row_commands_chosen),
            ("idle horizons compared", horizons_compared),
            ("requests behind a due refresh", refresh_masked),
            ("requests in the preventive head's bank", reserved_bank),
            ("hits with the streak at the cap", streak_at_cap),
            ("hits with the streak over the cap", streak_over_cap),
            ("requests to a BlockHammer-blocked row", blocked_rows),
            ("write drain with reads waiting", drain_with_reads_waiting),
            ("read mode with writes waiting", reads_with_writes_waiting),
            ("commands issued from a plan", plans_issued),
            ("plans dropped by a read arriving first", plan_dropped_by_read),
            ("plans dropped by a write arriving first", plan_dropped_by_write),
            ("refresh deadlines at the demand horizon", refresh_deadline_at_demand_horizon),
            ("preventive heads due no later than the demand", preventive_horizon_not_after_demand),
            ("ticks that advanced the deferral counter", deferral_ticks),
            ("plans left by a deferring tick", plans_left_by_deferring_ticks),
            ("plans issued while deferring", plans_issued_while_deferring),
            ("plans in drain mode with both queues ready", plan_in_drain_with_both_queues_ready),
            ("plans weighed against a hit at the cap", plan_with_hit_at_cap),
            ("plans weighed against a hit over the cap", plan_with_hit_over_cap),
        ] {
            assert!(count > 100, "{what}: only {count} cases");
        }
        // A command issued from a plan is a tick without selection passes.
        assert!(select_passes + plans_issued <= select_passes_without_plans);
    }

    /// Which deferral situations [`drive_deferral_twins`] exercised.
    #[derive(Debug, Default)]
    struct DeferralCoverage {
        /// Ticks the per-tick twin deferred the preventive head on.
        deferred: u64,
        /// Of those, ticks the event-driven controller skipped and credited.
        skipped: u64,
        /// Deferred ticks with no read and at most `write_drain_low` writes
        /// queued, where the drain mode toggles on every tick that runs.
        toggling_drain: u64,
        /// Commands issued from a plan left by a deferring tick.
        plans_issued: u64,
        /// Enqueues that lowered the horizon of a deferring tick.
        horizons_lowered: u64,
        /// Ticks at which the deferral counter reached its bound.
        bound_reached: u64,
    }

    /// Feeds a [`RequestStream`] to two controllers: one advances by
    /// [`MemoryController::next_event`] as the simulation kernel does,
    /// its twin ticks every cycle with per-tick deferral
    /// ([`MemoryController::tick_deferring_per_tick`]). At every tick the
    /// first one runs, both must be in the same observable state.
    fn drive_deferral_twins(kind: MechanismKind, seed: u64, seen: &mut DeferralCoverage) {
        let mut ctrl = controller(kind, 64);
        let mut twin = controller(kind, 64);
        let mut stream = RequestStream::new(seed, ctrl.channel().geometry());
        let mut next = 0;
        for cycle in 0..40_000 {
            for req in stream.arrivals(cycle) {
                let idle_until = ctrl.idle_until;
                let accepted = ctrl.try_enqueue(req).is_ok();
                assert_eq!(twin.try_enqueue(req).is_ok(), accepted);
                // Requests arrive between the ticks of `cycle - 1` and
                // `cycle`, where the kernel asks for the next event.
                if accepted && cycle > 0 {
                    next = next.min(ctrl.next_event(cycle - 1));
                }
                seen.horizons_lowered +=
                    u64::from(ctrl.deferred_at.is_some() && ctrl.idle_until < idle_until);
            }
            let deferred = twin.preventive_deferred_ticks;
            twin.tick_deferring_per_tick(cycle);
            if twin.preventive_deferred_ticks > deferred {
                seen.deferred += 1;
                seen.skipped += u64::from(cycle != next);
                seen.toggling_drain += u64::from(
                    twin.read_queue.is_empty()
                        && twin.write_queue.len() <= twin.config.write_drain_low,
                );
                seen.bound_reached +=
                    u64::from(twin.preventive_deferred_ticks == PREVENTIVE_DEFER_TICKS);
            }
            if cycle != next {
                continue;
            }
            let planned = ctrl.plan.is_some_and(|p| p.at == cycle) && ctrl.deferred_at.is_some();
            ctrl.tick(cycle, None);
            seen.plans_issued += u64::from(planned);
            assert_eq!(ctrl.observable_state(), twin.observable_state(), "after cycle {cycle}");
            next = ctrl.next_event(cycle);
        }
    }

    /// A deferring tick's horizon skips only ticks that would have deferred
    /// again, and the skipped ticks are counted as the per-tick rule counts
    /// them: under the mechanisms that defer most, the event-driven
    /// controller is at every tick it runs where a controller that defers
    /// tick by tick is.
    #[test]
    fn the_deferral_horizon_skips_only_deferring_ticks() {
        let mut seen = DeferralCoverage::default();
        for (i, kind) in [MechanismKind::Para, MechanismKind::Graphene, MechanismKind::Hydra]
            .into_iter()
            .enumerate()
        {
            for seed in 0..3 {
                drive_deferral_twins(kind, 0xDEFE_0000 + 16 * i as u64 + seed, &mut seen);
            }
        }
        let DeferralCoverage {
            deferred,
            skipped,
            toggling_drain,
            plans_issued,
            horizons_lowered,
            bound_reached,
        } = seen;
        for (what, count) in [
            ("deferred ticks", deferred),
            ("deferred ticks skipped", skipped),
            ("deferred ticks with a toggling drain mode", toggling_drain),
            ("plans issued after a deferring tick", plans_issued),
            ("deferral horizons lowered by an enqueue", horizons_lowered),
            ("deferrals that reached the bound", bound_reached),
        ] {
            assert!(count > 100, "{what}: only {count} cases");
        }
    }

    /// Four threads hammer two rows each of their own bank, two reads in
    /// flight per thread and the next sent when one returns — the shape of
    /// the attack workloads, where the controller mostly waits for one bank's
    /// row cycle. The full pass runs about twice per issued command (once to
    /// learn the horizon, once at it); with the plan carried over, about once.
    #[test]
    fn a_carried_over_plan_halves_the_selections_per_command() {
        let per_command = |plans: bool| {
            let (geometry, timing) = (DramGeometry::paper_ddr5(), TimingParams::ddr5_4800());
            let mechanism = MechanismKind::Graphene.build(&geometry, &timing, 64, 1);
            let channel = DramChannel::with_rowhammer(geometry, timing, 64);
            let config = MemControllerConfig::paper_table1(4);
            let mut ctrl = MemoryController::new(config, channel, mechanism);
            let (passes, commands) = (SELECT_PASSES.get(), DEMAND_COMMANDS.get());
            let mut in_flight = [0; 4];
            let mut sent = [0; 4];
            let mut id = 0;
            let mut cycle = 0;
            while cycle < 100_000 {
                for (thread, pending) in in_flight.iter_mut().enumerate() {
                    while *pending < 2 {
                        let loc = DramLocation {
                            channel: 0,
                            bank: ctrl.channel().geometry().bank_from_flat(thread),
                            row: 50 + 2 * (sent[thread] % 2),
                            column: 0,
                        };
                        sent[thread] += 1;
                        let addr = ctrl.layout.encode(&loc);
                        ctrl.try_enqueue(MemRequest::read(id, ThreadId(thread), addr, cycle))
                            .unwrap();
                        id += 1;
                        *pending += 1;
                    }
                }
                if !plans {
                    ctrl.plan = None;
                }
                ctrl.tick(cycle, None);
                for response in ctrl.drain_responses() {
                    in_flight[response.thread.index()] -= 1;
                }
                cycle = ctrl.next_event(cycle);
            }
            assert!(ctrl.stats().preventive_refresh_actions > 100);
            (SELECT_PASSES.get() - passes) as f64 / (DEMAND_COMMANDS.get() - commands) as f64
        };
        // Measured: 1.03 with, 1.90 without.
        let (with, without) = (per_command(true), per_command(false));
        assert!(
            with <= 1.27 && without >= 1.72,
            "{with:.2} vs {without:.2} selections per command"
        );
    }

    #[test]
    fn latency_histogram_is_tracked_per_thread() {
        let mut ctrl = controller(MechanismKind::None, 1024);
        ctrl.try_enqueue(MemRequest::read(0, ThreadId(2), addr_of(&ctrl, 3, 0), 0)).unwrap();
        let _ = run_until_responses(&mut ctrl, 0, 1, 10_000);
        assert_eq!(ctrl.latency_of(ThreadId(2)).count(), 1);
        assert_eq!(ctrl.latency_of(ThreadId(0)).count(), 0);
    }
}
