//! The data-oriented CPU front-end: every core's hot replay state in flat
//! contiguous storage, stepped in one pass per event epoch.
//!
//! [`CoreEngine`] steps every core with a single [`CoreEngine::tick_epoch`]
//! sweep over two flat vectors:
//!
//! * one fixed-size `Lane` row per core, holding every scalar the
//!   per-cycle loop touches — trace cursor and its decoded record, bubble
//!   countdown, window occupancy and ring indices, pending-miss (hard-stall)
//!   token, stall debt, retired count and the cycle/stall counters. A core's
//!   whole tick reads and writes one row (two or three cache lines, one
//!   bounds check), where per-object cores chased a heap pointer per core and
//!   per-field vectors would pay a checked index per field;
//! * one contiguous window arena of packed 8-byte entries (`Done`-run /
//!   `ReadyAt(cycle)` / `Pending(token)` in two tag bits), sliced per core
//!   as a fixed-capacity ring — the head-ready check is a shift-and-compare
//!   instead of a `VecDeque` front through an enum.
//!
//! Within an epoch (the CPU cycles of one simulation step), cores are
//! stepped in core-index order, so their LLC accesses drain as a
//! deterministically ordered batch: core *i*'s accesses observe exactly the
//! cache state left by cores *0..i* of the same cycle, like the per-object
//! loop they replace. This ordering is the engine's replay contract — the
//! differential tests below pin that [`CoreEngine`] and the test-only
//! per-object reference `Core` (in `crate::core`) produce bit-identical
//! statistics for any trace, stall pattern and cutoff.
//!
//! `tick_core` below mirrors `Core::tick` statement by statement (and
//! `progress` mirrors `Core::progress`), and a differential proptest in this
//! module drives both over randomized traces, miss-completion schedules and
//! quota flips.

use crate::cache::{AccessOutcome, LastLevelCache, MissToken, RejectReason};
use crate::core::{CoreConfig, CoreProgress, CoreStats, StallInfo};
use crate::trace::{CompiledTrace, TraceEntry};
use bh_dram::{Cycle, PhysAddr, ThreadId};
use std::ops::Range;

/// Packed instruction-window entry: `payload << 2 | tag`.
///
/// * tag 0 — a run of `payload` already-complete instructions (the RLE `Done`
///   entry of the legacy window);
/// * tag 1 — an LLC hit whose data is ready at core cycle `payload`;
/// * tag 2 — an outstanding LLC miss with token `payload`.
///
/// Cycle values and miss tokens both fit comfortably in 62 bits (tokens are
/// a slot index plus a per-cache allocation serial), so the packing is
/// lossless; the ready check on a packed entry is a shift and a compare.
type PackedEntry = u64;

const TAG_DONE: u64 = 0;
const TAG_READY: u64 = 1;
const TAG_PENDING: u64 = 2;

#[inline]
fn pack(tag: u64, payload: u64) -> PackedEntry {
    debug_assert!(payload < (1 << 62));
    payload << 2 | tag
}

#[inline]
fn tag(e: PackedEntry) -> u64 {
    e & 3
}

#[inline]
fn payload(e: PackedEntry) -> u64 {
    e >> 2
}

/// Memoized outcome of a core's last rejected LLC access (the engine-side
/// mirror of the legacy core's `last_reject`): `(addr, uncached, stamp,
/// reason)`, see [`LastLevelCache::reject_memo_valid`].
type RejectMemo = (PhysAddr, bool, u64, RejectReason);

/// One core's complete hot replay state, kept as a single flat row so a
/// tick touches one bounds-checked location instead of one per field.
#[derive(Debug, Clone)]
struct Lane {
    /// Trace cursor (record index, kept strictly below the trace length).
    position: u32,
    /// The record at `position`, decoded once when the lane reached it
    /// (a stalled core re-reads it every cycle).
    record: TraceEntry,
    /// Bubbles of the current record still to dispatch.
    bubbles_left: u32,
    /// Ring head index of the window (offset within the core's arena slice).
    win_head: u32,
    /// Number of ring entries (≤ window occupancy: `Done` runs coalesce).
    win_entries: u32,
    /// Instructions currently in the window (`Done` runs count their length).
    window_len: u32,
    /// True while the current record's memory access has not dispatched yet.
    access_pending: bool,
    /// True once the instruction budget has been retired.
    finished: bool,
    /// Hard-stall token: while `Some`, the core's window is full with this
    /// incomplete miss at its head and its ticks accrue as debt.
    stalled_on: Option<MissToken>,
    /// Deferred hard-stalled cycles, replayed in bulk on wake-up/settle.
    stall_debt: u64,
    /// Memoized rejected-access outcome (spinning-retry fast path).
    last_reject: Option<RejectMemo>,
    // --- statistics (the [`CoreStats`] fields, inline) ---
    retired_instructions: u64,
    cycles: u64,
    loads: u64,
    stores: u64,
    dispatch_stall_cycles: u64,
    retire_stall_cycles: u64,
}

/// The data-oriented front-end for all cores of a simulated system.
///
/// Indexing is by core: core `i` runs hardware thread `ThreadId(i)` and
/// replays `traces[i]` until `target_instructions` have retired, exactly
/// like the reference `Core` built per thread. Hard-stall bookkeeping (the
/// window-full-behind-a-miss fast path) is owned by the engine itself.
/// A clone shares the compiled traces and copies every lane.
#[derive(Debug, Clone)]
pub struct CoreEngine {
    config: CoreConfig,
    traces: Vec<CompiledTrace>,
    target_instructions: u64,
    /// One hot-state row per core.
    lanes: Vec<Lane>,
    /// Window arena: `cores × window_size` packed entries; core `i` owns the
    /// slice `[i*window_size, (i+1)*window_size)` as a ring buffer.
    window: Vec<PackedEntry>,
}

/// Ring slot of entry `entry` of a lane's window slice. `win_head` is kept
/// `< window_size`, so the wrap is a compare-and-subtract, not a division
/// (this runs on every window touch of every core tick).
#[inline]
fn win_slot(lane: &Lane, window_size: u32, entry: u32) -> usize {
    let mut off = lane.win_head + entry;
    if off >= window_size {
        off -= window_size;
    }
    off as usize
}

/// Appends `n` complete instructions to the window, extending a trailing
/// `Done` run instead of growing the ring (the RLE that keeps bubble-heavy
/// traces from cycling one entry per instruction).
#[inline]
fn push_done(lane: &mut Lane, win: &mut [PackedEntry], window_size: u32, n: usize) {
    if lane.win_entries > 0 {
        let back = win_slot(lane, window_size, lane.win_entries - 1);
        let e = win[back];
        if tag(e) == TAG_DONE {
            win[back] = pack(TAG_DONE, payload(e) + n as u64);
            lane.window_len += n as u32;
            return;
        }
    }
    debug_assert!(lane.win_entries < window_size);
    let slot = win_slot(lane, window_size, lane.win_entries);
    win[slot] = pack(TAG_DONE, n as u64);
    lane.win_entries += 1;
    lane.window_len += n as u32;
}

impl CoreEngine {
    /// Builds the engine for one core per trace; core `i` runs
    /// `ThreadId(i)`.
    ///
    /// # Panics
    /// Panics if `traces` is empty or `target_instructions` is zero.
    pub fn new(config: CoreConfig, traces: Vec<CompiledTrace>, target_instructions: u64) -> Self {
        assert!(!traces.is_empty(), "the engine needs at least one core");
        assert!(target_instructions > 0, "the instruction budget must be positive");
        let n = traces.len();
        let lanes = traces
            .iter()
            .map(|t| {
                let record = t.get(0);
                Lane {
                    position: 0,
                    record,
                    bubbles_left: record.bubbles,
                    win_head: 0,
                    win_entries: 0,
                    window_len: 0,
                    access_pending: true,
                    finished: false,
                    stalled_on: None,
                    stall_debt: 0,
                    last_reject: None,
                    retired_instructions: 0,
                    cycles: 0,
                    loads: 0,
                    stores: 0,
                    dispatch_stall_cycles: 0,
                    retire_stall_cycles: 0,
                }
            })
            .collect();
        CoreEngine {
            config,
            target_instructions,
            lanes,
            window: vec![0; n * config.window_size],
            traces,
        }
    }

    /// Number of cores.
    pub(crate) fn num_cores(&self) -> usize {
        self.traces.len()
    }

    /// True once core `core` has retired its instruction budget.
    pub fn finished(&self, core: usize) -> bool {
        self.lanes[core].finished
    }

    /// Instructions retired by core `core` so far.
    pub fn retired_instructions(&self, core: usize) -> u64 {
        self.lanes[core].retired_instructions
    }

    /// Materialises core `core`'s statistics (gathered from its lane). Call
    /// [`CoreEngine::settle`] first to fold outstanding hard-stall debt in.
    pub fn stats(&self, core: usize) -> CoreStats {
        let lane = &self.lanes[core];
        CoreStats {
            retired_instructions: lane.retired_instructions,
            cycles: lane.cycles,
            loads: lane.loads,
            stores: lane.stores,
            dispatch_stall_cycles: lane.dispatch_stall_cycles,
            retire_stall_cycles: lane.retire_stall_cycles,
        }
    }

    /// Folds every core's outstanding hard-stall debt into its counters
    /// (call before reading final statistics).
    pub fn settle(&mut self) {
        for lane in &mut self.lanes {
            let debt = std::mem::take(&mut lane.stall_debt);
            lane.cycles += debt;
            lane.retire_stall_cycles += debt;
        }
    }

    /// True while core `core` is hard-stalled on an incomplete miss (its
    /// deferred cycles replay when the miss completes). Exposed for tests.
    pub fn is_hard_stalled(&self, core: usize) -> bool {
        self.lanes[core].stalled_on.is_some()
    }

    /// Steps every core through the CPU cycles of one event epoch, in core
    /// index order within each cycle — the engine's deterministic Core→LLC
    /// batch order. Hard-stalled cores (window full behind an incomplete
    /// miss) are not stepped: their cycles accrue as debt and replay in bulk
    /// when their miss completes. The caller completes LLC fills *before*
    /// the epoch (so a completed miss is the only event that wakes a
    /// hard-stalled core) and drains the LLC's outgoing batch *after* it.
    pub fn tick_epoch(&mut self, cycles: Range<Cycle>, llc: &mut LastLevelCache) {
        let n = self.num_cores();
        for cpu_cycle in cycles {
            for core in 0..n {
                {
                    let lane = &mut self.lanes[core];
                    if lane.finished {
                        continue;
                    }
                    if let Some(token) = lane.stalled_on {
                        if !llc.is_completed(token) {
                            lane.stall_debt += 1;
                            continue;
                        }
                        let debt = std::mem::take(&mut lane.stall_debt);
                        lane.cycles += debt;
                        lane.retire_stall_cycles += debt;
                        lane.stalled_on = None;
                    }
                }
                self.tick_core(core, cpu_cycle, llc);
                // Re-derive the hard-stall token: window full with an
                // incomplete-looking miss at its head (the engine-side
                // mirror of `Core::window_full_on`).
                let ws = self.config.window_size as u32;
                let lane = &mut self.lanes[core];
                lane.stalled_on = if lane.window_len == ws && lane.win_entries > 0 {
                    let front =
                        self.window[self.config.window_size * core + lane.win_head as usize];
                    if tag(front) == TAG_PENDING {
                        Some(payload(front))
                    } else {
                        None
                    }
                } else {
                    None
                };
            }
        }
    }

    /// Advances one core by one cycle — the lane-based mirror of the
    /// reference `Core::tick`, kept in lockstep with it statement by
    /// statement (the differential proptest below enforces this).
    fn tick_core(&mut self, core: usize, cycle: Cycle, llc: &mut LastLevelCache) {
        let CoreEngine { config, traces, target_instructions, lanes, window } = self;
        let ws = config.window_size as u32;
        let lane = &mut lanes[core];
        let win = &mut window[config.window_size * core..config.window_size * (core + 1)];
        let trace = &traces[core];
        let target = *target_instructions;

        lane.cycles += 1;

        // Retire in order (a `Done` run retires as many of its instructions
        // as the retire width and the instruction target allow).
        let mut retired = 0;
        while retired < config.retire_width {
            if lane.win_entries == 0 {
                break;
            }
            let front_slot = lane.win_head as usize;
            let e = win[front_slot];
            // Packed-entry ready check: `Done` runs are always ready,
            // `ReadyAt` compares the payload against the clock, `Pending`
            // asks the LLC's O(1) slot-token array.
            let run = match tag(e) {
                TAG_DONE => payload(e) as usize,
                TAG_READY if payload(e) <= cycle => 1,
                TAG_PENDING if llc.is_completed(payload(e)) => 1,
                t => {
                    if t == TAG_PENDING && retired == 0 {
                        lane.retire_stall_cycles += 1;
                    }
                    break;
                }
            };
            let budget =
                (config.retire_width - retired).min((target - lane.retired_instructions) as usize);
            let take = run.min(budget);
            if take == run {
                let head = lane.win_head + 1;
                lane.win_head = if head == ws { 0 } else { head };
                lane.win_entries -= 1;
            } else {
                win[front_slot] = pack(TAG_DONE, (run - take) as u64);
            }
            lane.window_len -= take as u32;
            lane.retired_instructions += take as u64;
            retired += take;
            if lane.retired_instructions >= target {
                lane.finished = true;
                return;
            }
        }

        // Dispatch up to `width` instructions into the window.
        let mut dispatched = 0;
        while dispatched < config.width && lane.window_len < ws {
            if lane.bubbles_left > 0 {
                // Dispatch the whole bubble run at once (bounded by the
                // dispatch width and the window space).
                let take = (lane.bubbles_left as usize)
                    .min(config.width - dispatched)
                    .min((ws - lane.window_len) as usize);
                lane.bubbles_left -= take as u32;
                push_done(lane, win, ws, take);
                dispatched += take;
                continue;
            }
            if !lane.access_pending {
                // The current record is fully dispatched; move on.
                advance_trace(lane, trace);
                continue;
            }
            let entry = lane.record;
            let thread = ThreadId(core);
            // Fast path for a spinning retry: while the LLC attests that the
            // rejection still holds, replay its counter effects without
            // re-walking the cache.
            if let Some((addr, uncached, stamp, reason)) = lane.last_reject {
                if addr == entry.addr
                    && uncached == entry.uncached
                    && llc.reject_memo_valid(thread, addr, reason, stamp)
                {
                    llc.absorb_rejected_probes(1, reason);
                    lane.dispatch_stall_cycles += 1;
                    break;
                }
            }
            let outcome = if entry.uncached {
                llc.access_bypass(thread, entry.addr, entry.is_write, cycle)
            } else {
                llc.access(thread, entry.addr, entry.is_write, cycle)
            };
            if !matches!(outcome, AccessOutcome::Rejected { .. }) {
                // The memo must not outlive one continuous rejection episode
                // (see `Core::tick` for the stale-revalidation hazard).
                lane.last_reject = None;
            }
            match outcome {
                AccessOutcome::Hit { ready_at } => {
                    if entry.is_write {
                        push_done(lane, win, ws, 1);
                        lane.stores += 1;
                    } else {
                        let slot = win_slot(lane, ws, lane.win_entries);
                        win[slot] = pack(TAG_READY, ready_at);
                        lane.win_entries += 1;
                        lane.window_len += 1;
                        lane.loads += 1;
                    }
                    lane.access_pending = false;
                    advance_trace(lane, trace);
                    dispatched += 1;
                }
                AccessOutcome::Miss { token, .. } => {
                    if entry.is_write {
                        push_done(lane, win, ws, 1);
                        lane.stores += 1;
                    } else {
                        let slot = win_slot(lane, ws, lane.win_entries);
                        win[slot] = pack(TAG_PENDING, token);
                        lane.win_entries += 1;
                        lane.window_len += 1;
                        lane.loads += 1;
                    }
                    lane.access_pending = false;
                    advance_trace(lane, trace);
                    dispatched += 1;
                }
                AccessOutcome::Rejected { reason } => {
                    // The LLC cannot take the access this cycle: stall.
                    lane.last_reject = Some((
                        entry.addr,
                        entry.uncached,
                        llc.reject_stamp(thread, reason),
                        reason,
                    ));
                    lane.dispatch_stall_cycles += 1;
                    break;
                }
            }
        }
    }

    /// Classifies what core `core`'s next tick (at CPU cycle `next_cycle`)
    /// would do, without mutating anything — the engine-side mirror of the
    /// reference `Core::progress`, used by the event-driven
    /// kernel to find stall horizons. A hard-stalled core reports the same
    /// retire-stall classification the deferred ticks will replay.
    pub(crate) fn progress(
        &self,
        core: usize,
        llc: &LastLevelCache,
        next_cycle: Cycle,
    ) -> CoreProgress {
        let lane = &self.lanes[core];
        if lane.finished {
            return CoreProgress::Finished;
        }
        let ws = self.config.window_size as u32;
        // Would the retire stage make progress?
        let front = if lane.win_entries == 0 {
            None
        } else {
            Some(self.window[self.config.window_size * core + lane.win_head as usize])
        };
        let (retire_progress, wake_at, retire_stalled) = match front {
            Some(e) => match tag(e) {
                TAG_DONE => (true, None, false),
                TAG_READY => (payload(e) <= next_cycle, Some(payload(e)), false),
                _ => (llc.is_completed(payload(e)), None, true),
            },
            None => (false, None, false),
        };
        if retire_progress {
            return CoreProgress::Active;
        }
        // Would the dispatch stage make progress?
        let mut reject = None;
        if lane.window_len < ws {
            if lane.bubbles_left > 0 || !lane.access_pending {
                return CoreProgress::Active;
            }
            let entry = lane.record;
            let thread = ThreadId(core);
            if let Some((addr, uncached, stamp, reason)) = lane.last_reject {
                if addr == entry.addr
                    && uncached == entry.uncached
                    && llc.reject_memo_valid(thread, addr, reason, stamp)
                {
                    reject = Some(reason);
                    return CoreProgress::Stalled(StallInfo { wake_at, retire_stalled, reject });
                }
            }
            match llc.probe_reject(thread, entry.addr, entry.uncached) {
                None => return CoreProgress::Active,
                Some(reason) => reject = Some(reason),
            }
        }
        CoreProgress::Stalled(StallInfo { wake_at, retire_stalled, reject })
    }

    /// Replays `ticks` stalled cycles' counter increments for core `core` in
    /// bulk (the event-driven kernel's dead-cycle skip): each skipped tick
    /// counts as the pure counter increment `stall` classifies it as.
    ///
    /// Skipped cycles go straight into the counters — only *stepped* cycles
    /// of a hard-stalled core accrue as debt — so a skipped run and a
    /// stepped one agree cycle for cycle, not just in sum.
    pub fn absorb_stall_ticks(&mut self, core: usize, ticks: u64, stall: &StallInfo) {
        let lane = &mut self.lanes[core];
        lane.cycles += ticks;
        if stall.retire_stalled {
            lane.retire_stall_cycles += ticks;
        }
        if stall.reject.is_some() {
            lane.dispatch_stall_cycles += ticks;
        }
    }

    /// Batched progress classification for every core at once — the
    /// event-driven kernel's horizon scan. Returns `true` as soon as any
    /// core would be [`CoreProgress::Active`] (leaving `out` empty; the
    /// kernel steps the very next cycle and never reads the buffer in that
    /// case), otherwise fills `out` with every core's classification —
    /// bit-identical to calling `CoreEngine::progress` core by core.
    ///
    /// The common case on a throughput-bound system — some core's window
    /// head is a `Done` run or a hit whose data cycle has arrived — is
    /// answered by one pass over the 8-byte head entries without touching
    /// the LLC: a retire-ready head makes its core `Active` regardless of
    /// the dispatch stage (`Pending` heads need an MSHR probe and never
    /// count here). Only when no head is retire-ready does the per-core
    /// analysis (MSHR probes, reject-memo validation) run.
    pub fn progress_batch(
        &self,
        llc: &LastLevelCache,
        next_cycle: Cycle,
        out: &mut Vec<CoreProgress>,
    ) -> bool {
        out.clear();
        let ws = self.config.window_size;
        let head_retires = |(core, lane): (usize, &Lane)| {
            if lane.finished || lane.win_entries == 0 {
                return false;
            }
            let head = self.window[ws * core + lane.win_head as usize];
            match tag(head) {
                TAG_DONE => true,
                TAG_READY => payload(head) <= next_cycle,
                _ => false,
            }
        };
        if self.lanes.iter().enumerate().any(head_retires) {
            return true;
        }
        for core in 0..self.num_cores() {
            let p = self.progress(core, llc, next_cycle);
            if matches!(p, CoreProgress::Active) {
                out.clear();
                return true;
            }
            out.push(p);
        }
        false
    }
}

/// Advances the lane to its next trace record (cyclic) and decodes it.
/// `position` stays strictly below the trace length, so the read is a direct
/// [`CompiledTrace::get`] (no cyclic modulo on the per-dispatch path).
#[inline]
fn advance_trace(lane: &mut Lane, trace: &CompiledTrace) {
    let mut next = lane.position as usize + 1;
    if next == trace.len() {
        next = 0;
    }
    lane.position = next as u32;
    lane.record = trace.get(next);
    lane.bubbles_left = lane.record.bubbles;
    lane.access_pending = true;
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use crate::core::{settle_legacy, tick_epoch_legacy, Core};
    use crate::trace::Trace;
    use proptest::prelude::*;

    /// The reference per-object front-end: one `Core` per thread plus the
    /// hard-stall bookkeeping `tick_epoch_legacy`/`settle_legacy` drive.
    struct LegacyFrontEnd {
        cores: Vec<Core>,
        stalled_on: Vec<Option<MissToken>>,
        stall_debt: Vec<u64>,
    }

    impl LegacyFrontEnd {
        fn new(config: CoreConfig, traces: &[Trace], target: u64) -> Self {
            let cores = traces
                .iter()
                .enumerate()
                .map(|(i, t)| Core::new(ThreadId(i), config, t.clone(), target))
                .collect::<Vec<_>>();
            let n = cores.len();
            LegacyFrontEnd { cores, stalled_on: vec![None; n], stall_debt: vec![0; n] }
        }

        fn tick_epoch(&mut self, cycles: Range<Cycle>, llc: &mut LastLevelCache) {
            tick_epoch_legacy(
                &mut self.cores,
                &mut self.stalled_on,
                &mut self.stall_debt,
                cycles,
                llc,
            );
        }

        fn settle(&mut self) {
            settle_legacy(&mut self.cores, &mut self.stall_debt);
        }
    }

    fn llc(mshrs: usize) -> LastLevelCache {
        LastLevelCache::new(CacheConfig { mshrs, ..CacheConfig::tiny_test() }, 4)
    }

    /// Converts one generated record list — per record: bubbles, a line from
    /// a small address space (so lines collide and merge), and the access
    /// kind — into a trace (the shim has no `prop_map`, so the conversion
    /// happens in the test body).
    fn trace_from(records: &[(u32, u64, u8)]) -> Trace {
        Trace::new(
            records
                .iter()
                .map(|&(bubbles, line, kind)| {
                    let addr = PhysAddr(line * 0x40);
                    match kind {
                        0 => TraceEntry::load(bubbles, addr),
                        1 => TraceEntry::store(bubbles, addr),
                        2 => TraceEntry { uncached: true, ..TraceEntry::load(bubbles, addr) },
                        _ => TraceEntry::load(bubbles * 3, addr),
                    }
                })
                .collect(),
        )
    }

    /// Drives both front-ends cycle by cycle with an identical miss
    /// completion schedule and identical mid-run quota flips, asserting
    /// equality of every observable after every epoch and after the final
    /// settle (the cutoff edge: the run ends while debt is outstanding).
    fn differential_run(
        traces: Vec<Trace>,
        target: u64,
        mshrs: usize,
        miss_latency: u64,
        quota_flips: Vec<(u64, usize, usize)>,
        max_cycles: u64,
        epoch: u64,
    ) {
        let config = CoreConfig { width: 4, window_size: 16, retire_width: 4 };
        let mut legacy = LegacyFrontEnd::new(config, &traces, target);
        let compiled = traces.iter().map(Trace::compile).collect();
        let mut engine = CoreEngine::new(config, compiled, target);
        let mut llc_a = llc(mshrs);
        let mut llc_b = llc(mshrs);

        let mut pending_a: Vec<(u64, MissToken)> = Vec::new();
        let mut pending_b: Vec<(u64, MissToken)> = Vec::new();
        let mut cycle = 0u64;
        while cycle < max_cycles {
            for &(at, thread, quota) in &quota_flips {
                if at == cycle {
                    llc_a.set_quota(ThreadId(thread), quota);
                    llc_b.set_quota(ThreadId(thread), quota);
                }
            }
            // Complete due fills before the core phase, like the kernel.
            pending_a.retain(|(ready, token)| {
                if cycle >= *ready {
                    llc_a.complete_miss(*token);
                    false
                } else {
                    true
                }
            });
            pending_b.retain(|(ready, token)| {
                if cycle >= *ready {
                    llc_b.complete_miss(*token);
                    false
                } else {
                    true
                }
            });
            let end = (cycle + epoch).min(max_cycles);
            legacy.tick_epoch(cycle..end, &mut llc_a);
            engine.tick_epoch(cycle..end, &mut llc_b);
            for out in llc_a.take_outgoing() {
                if let Some(token) = out.token {
                    pending_a.push((end + miss_latency, token));
                }
            }
            for out in llc_b.take_outgoing() {
                if let Some(token) = out.token {
                    pending_b.push((end + miss_latency, token));
                }
            }
            assert_eq!(llc_a.stats(), llc_b.stats(), "LLC stats diverged at cycle {cycle}");
            // The batched horizon scan must agree with the per-core scalar
            // classification at every epoch boundary (this covers the head
            // prefilter against live mid-run window states).
            let mut batch = Vec::new();
            let batch_active = engine.progress_batch(&llc_b, end, &mut batch);
            let mut scalar = Vec::new();
            let mut scalar_active = false;
            for i in 0..traces.len() {
                let p = engine.progress(i, &llc_b, end);
                if matches!(p, CoreProgress::Active) {
                    scalar_active = true;
                    break;
                }
                scalar.push(p);
            }
            assert_eq!(
                batch_active, scalar_active,
                "batched vs scalar Active verdict diverged at cycle {cycle}"
            );
            if !batch_active {
                assert_eq!(
                    batch, scalar,
                    "batched vs scalar classifications diverged at cycle {cycle}"
                );
            }
            for i in 0..traces.len() {
                assert_eq!(
                    legacy.cores[i].finished(),
                    engine.finished(i),
                    "finished flag diverged for core {i} at cycle {cycle}"
                );
                assert_eq!(
                    legacy.stalled_on[i].is_some(),
                    engine.is_hard_stalled(i),
                    "hard-stall state diverged for core {i} at cycle {cycle}"
                );
                assert_eq!(
                    legacy.cores[i].progress(&llc_a, end),
                    engine.progress(i, &llc_b, end),
                    "progress classification diverged for core {i} at cycle {cycle}"
                );
            }
            if (0..traces.len()).all(|i| engine.finished(i)) {
                break;
            }
            cycle = end;
        }
        // Cutoff edge: settle outstanding hard-stall debt on both sides and
        // compare the final statistics bit for bit.
        legacy.settle();
        engine.settle();
        for i in 0..traces.len() {
            assert_eq!(
                legacy.cores[i].stats(),
                &engine.stats(i),
                "final stats diverged for core {i}"
            );
            assert_eq!(
                legacy.cores[i].stats().retired_instructions,
                engine.retired_instructions(i)
            );
        }
    }

    #[test]
    fn engine_matches_core_on_a_memory_bound_quad() {
        let traces: Vec<Trace> = (0..4)
            .map(|c| {
                Trace::new(
                    (0..32).map(|i| TraceEntry::load(2, PhysAddr((c * 64 + i) * 0x40))).collect(),
                )
            })
            .collect();
        differential_run(traces, 3_000, 4, 37, vec![(500, 1, 1), (2_500, 1, 4)], 60_000, 2);
    }

    #[test]
    fn engine_matches_core_under_hard_stall_and_cutoff() {
        // Never-completing misses: every core hard-stalls, and the run ends
        // at the cutoff with debt outstanding on both sides.
        let traces: Vec<Trace> = (0..2)
            .map(|c| {
                Trace::new(
                    (0..16).map(|i| TraceEntry::load(1, PhysAddr((c * 64 + i) * 0x1000))).collect(),
                )
            })
            .collect();
        differential_run(traces, 10_000, 2, 1 << 40, vec![], 5_000, 3);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Randomized traces × stall patterns: the SoA engine and the legacy
        /// per-object cores must be bit-identical, including the hard-stall
        /// debt replay and the settle-at-cutoff edge.
        #[test]
        fn engine_is_bit_identical_to_core(
            raw_traces in proptest::collection::vec(
                proptest::collection::vec((0u32..6, 0u64..48, 0u8..4), 1..12),
                2..5,
            ),
            target in 200u64..2_000,
            mshrs in 1usize..5,
            miss_latency in 1u64..400,
            epoch in 1u64..4,
            quota in 0usize..3,
            flip_at in 50u64..1_000,
        ) {
            let traces: Vec<Trace> = raw_traces.iter().map(|r| trace_from(r)).collect();
            let quota_flips = vec![
                (flip_at, 0usize, quota),
                (flip_at.saturating_mul(3), 0usize, 16),
            ];
            differential_run(
                traces, target, mshrs, miss_latency, quota_flips, 40_000, epoch,
            );
        }
    }
}
