//! The data-oriented CPU front-end: every core's hot replay state in flat
//! contiguous storage, stepped in one pass per event epoch.
//!
//! [`CoreEngine`] steps every core with a single [`CoreEngine::tick_epoch`]
//! sweep over two flat vectors:
//!
//! * one fixed-size `Lane` row per core, holding every scalar the
//!   per-cycle loop touches — trace cursor and its decoded record, bubble
//!   countdown, window occupancy and ring indices, pending-miss (hard-stall)
//!   token, retired count and cycle count. A core's
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
    /// True when the run waits for this core to finish
    /// ([`CoreEngine::require`]).
    required: bool,
    /// Hard-stall token: while `Some`, the core's window is full with this
    /// miss at its head, and until it completes a tick only counts a cycle.
    /// A memo of the window state, re-derived after every stepped tick.
    stalled_on: Option<MissToken>,
    /// Memoized rejected-access outcome (spinning-retry fast path).
    last_reject: Option<RejectMemo>,
    // --- statistics (the [`CoreStats`] fields, inline) ---
    retired_instructions: u64,
    cycles: u64,
}

/// The data-oriented front-end for all cores of a simulated system.
///
/// Indexing is by core: core `i` runs hardware thread `ThreadId(i)` and
/// replays `traces[i]` until `target_instructions` have retired, exactly
/// like the reference `Core` built per thread. A clone shares the compiled
/// traces and copies every lane.
#[derive(Debug, Clone)]
pub struct CoreEngine {
    config: CoreConfig,
    traces: Vec<CompiledTrace>,
    target_instructions: u64,
    /// One hot-state row per core.
    lanes: Vec<Lane>,
    /// Required lanes not finished yet: [`CoreEngine::required_finished`]
    /// reads it instead of walking the lanes.
    required_running: usize,
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
                    required: false,
                    stalled_on: None,
                    last_reject: None,
                    retired_instructions: 0,
                    cycles: 0,
                }
            })
            .collect();
        CoreEngine {
            config,
            target_instructions,
            lanes,
            required_running: 0,
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

    /// Marks `cores` as the ones a run waits for: once each of them has
    /// finished, [`CoreEngine::required_finished`] holds. No core is
    /// required until this is called.
    ///
    /// # Panics
    /// Panics if a core index is out of range.
    pub fn require(&mut self, cores: &[usize]) {
        for &core in cores {
            let lane = &mut self.lanes[core];
            if !lane.required && !lane.finished {
                self.required_running += 1;
            }
            lane.required = true;
        }
    }

    /// True once every core marked by [`CoreEngine::require`] has retired
    /// its instruction budget, in O(1).
    #[inline]
    pub fn required_finished(&self) -> bool {
        self.required_running == 0
    }

    /// Instructions retired by core `core` so far.
    pub fn retired_instructions(&self, core: usize) -> u64 {
        self.lanes[core].retired_instructions
    }

    /// Core `core`'s statistics (gathered from its lane), exact at any cycle:
    /// every cycle is counted at the tick where it passes.
    pub fn stats(&self, core: usize) -> CoreStats {
        let lane = &self.lanes[core];
        CoreStats { retired_instructions: lane.retired_instructions, cycles: lane.cycles }
    }

    /// Does nothing: [`CoreEngine::stats`] needs no final step. An inert
    /// name, kept only because the benchmark's front-end replay calls it,
    /// until the `benchmark` PR of ROADMAP item 2 removes it.
    pub fn settle(&mut self) {}

    /// True while core `core`'s window is full behind a miss at its head, as
    /// of its last stepped tick: until that miss completes,
    /// [`CoreEngine::tick_epoch`] only counts the core's cycles.
    pub fn is_hard_stalled(&self, core: usize) -> bool {
        self.lanes[core].stalled_on.is_some()
    }

    /// Steps every core through the CPU cycles of one event epoch, in core
    /// index order within each cycle — the engine's deterministic Core→LLC
    /// batch order. A hard-stalled core (window full behind an incomplete
    /// miss) is not stepped: such a tick could only count the core's cycle,
    /// so it counts the cycle and nothing else. The caller completes LLC
    /// fills *before* the epoch (so a completed miss is the only event that
    /// wakes a hard-stalled core) and drains the LLC's outgoing batch *after*
    /// it.
    pub fn tick_epoch(&mut self, cycles: Range<Cycle>, llc: &mut LastLevelCache) {
        let n = self.num_cores();
        for cpu_cycle in cycles {
            for core in 0..n {
                {
                    let lane = &mut self.lanes[core];
                    if lane.finished {
                        continue;
                    }
                    if lane.stalled_on.is_some_and(|token| !llc.is_completed(token)) {
                        lane.cycles += 1;
                        continue;
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
        let CoreEngine { config, traces, target_instructions, lanes, required_running, window } =
            self;
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
                _ => break,
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
                *required_running -= usize::from(lane.required);
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
                    break;
                }
            }
            let outcome = if entry.uncached {
                llc.access_bypass(thread, entry.addr)
            } else {
                llc.access(thread, entry.addr, entry.is_write, cycle)
            };
            // What a load leaves in the window (a store leaves a done
            // instruction).
            let load = match outcome {
                AccessOutcome::Hit { ready_at } => pack(TAG_READY, ready_at),
                AccessOutcome::Miss { token, .. } => pack(TAG_PENDING, token),
                AccessOutcome::Rejected { reason } => {
                    // The LLC cannot take the access this cycle: stall.
                    lane.last_reject = Some((
                        entry.addr,
                        entry.uncached,
                        llc.reject_stamp(thread, reason),
                        reason,
                    ));
                    break;
                }
            };
            // The memo must not outlive one continuous rejection episode
            // (see `Core::tick` for the stale-revalidation hazard).
            lane.last_reject = None;
            if entry.is_write {
                push_done(lane, win, ws, 1);
            } else {
                let slot = win_slot(lane, ws, lane.win_entries);
                win[slot] = load;
                lane.win_entries += 1;
                lane.window_len += 1;
            }
            lane.access_pending = false;
            advance_trace(lane, trace);
            dispatched += 1;
        }
    }

    /// Classifies what core `core`'s next tick (at CPU cycle `next_cycle`)
    /// would do, without mutating anything — the engine-side mirror of the
    /// reference `Core::progress`, used by the event-driven
    /// kernel to find stall horizons.
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
        let (retire_progress, wake_at) = match front {
            Some(e) => match tag(e) {
                TAG_DONE => (true, None),
                TAG_READY => (payload(e) <= next_cycle, Some(payload(e))),
                _ => (llc.is_completed(payload(e)), None),
            },
            None => (false, None),
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
                    return CoreProgress::Stalled(StallInfo { wake_at, reject });
                }
            }
            match llc.probe_reject(thread, entry.addr, entry.uncached) {
                None => return CoreProgress::Active,
                Some(reason) => reject = Some(reason),
            }
        }
        CoreProgress::Stalled(StallInfo { wake_at, reject })
    }

    /// Replays `ticks` stalled cycles for core `core` in bulk (the
    /// event-driven kernel's dead-cycle skip): a stalled tick only counts a
    /// core cycle, whatever `_stall` says stalled it. The caller replays a
    /// spinning retry's rejected probes into the LLC
    /// ([`LastLevelCache::absorb_rejected_probes`]). `_stall` is inert; it
    /// stays because the benchmark's front-end replay passes it.
    ///
    /// A skipped run and a stepped one agree cycle for cycle: both add each
    /// stalled cycle to the counter as it passes.
    pub fn absorb_stall_ticks(&mut self, core: usize, ticks: u64, _stall: &StallInfo) {
        self.lanes[core].cycles += ticks;
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
    use crate::core::{tick_epoch_legacy, Core};
    use crate::trace::Trace;
    use proptest::prelude::*;

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

    /// Drives the engine and the reference front-end (one `Core` per thread,
    /// each ticked every cycle) with an identical miss completion schedule
    /// and identical mid-run quota flips, asserting equality of every
    /// observable, each core's statistics included, after every epoch.
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
        let mut legacy: Vec<Core> = traces
            .iter()
            .enumerate()
            .map(|(i, t)| Core::new(ThreadId(i), config, t.clone(), target))
            .collect();
        let compiled = traces.iter().map(Trace::compile).collect();
        let mut engine = CoreEngine::new(config, compiled, target);
        // Every core but the last is required (core 0 listed twice), as a
        // system requires its benign cores and not the attacker.
        let required: Vec<usize> = (0..traces.len() - 1).chain([0]).collect();
        engine.require(&required);
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
            tick_epoch_legacy(&mut legacy, cycle..end, &mut llc_a);
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
            for (i, core) in legacy.iter().enumerate() {
                assert_eq!(
                    core.stats(),
                    &engine.stats(i),
                    "stats diverged for core {i} at cycle {cycle}"
                );
                assert_eq!(core.stats().retired_instructions, engine.retired_instructions(i));
                assert_eq!(
                    core.finished(),
                    engine.finished(i),
                    "finished flag diverged for core {i} at cycle {cycle}"
                );
                assert_eq!(
                    core.window_full_on().is_some(),
                    engine.is_hard_stalled(i),
                    "hard-stall state diverged for core {i} at cycle {cycle}"
                );
                assert_eq!(
                    core.progress(&llc_a, end),
                    engine.progress(i, &llc_b, end),
                    "progress classification diverged for core {i} at cycle {cycle}"
                );
            }
            assert_eq!(
                engine.required_finished(),
                required.iter().all(|&i| legacy[i].finished()),
                "required-finished count diverged at cycle {cycle}"
            );
            if (0..traces.len()).all(|i| engine.finished(i)) {
                break;
            }
            cycle = end;
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

    /// Two cores whose loads each miss a distinct line. With 16 MSHRs the
    /// window of the 16-entry test core fills behind its first miss; with
    /// fewer, the cores spin on rejected accesses instead.
    fn missing_traces() -> Vec<Trace> {
        (0..2)
            .map(|c| {
                Trace::new(
                    (0..16).map(|i| TraceEntry::load(1, PhysAddr((c * 64 + i) * 0x1000))).collect(),
                )
            })
            .collect()
    }

    #[test]
    fn engine_matches_core_under_hard_stall_and_cutoff() {
        // Never-completing misses: the run ends at the cutoff with every
        // core still stalled, spinning on a full MSHR pool or hard-stalled.
        for mshrs in [2, 16] {
            differential_run(missing_traces(), 10_000, mshrs, 1 << 40, vec![], 5_000, 3);
        }
    }

    #[test]
    fn a_hard_stalled_core_counts_every_cycle_as_it_passes() {
        // No miss ever completes: each core's window fills behind its first
        // miss and stays full, and its statistics must still cover every
        // CPU cycle elapsed, with no final step.
        let config = CoreConfig { width: 4, window_size: 16, retire_width: 4 };
        let compiled = missing_traces().iter().map(Trace::compile).collect();
        let mut engine = CoreEngine::new(config, compiled, 10_000);
        let mut llc = llc(16);
        for start in (0..3_000).step_by(3) {
            engine.tick_epoch(start..start + 3, &mut llc);
            let _ = llc.take_outgoing();
        }
        for core in 0..2 {
            assert!(engine.is_hard_stalled(core), "core {core} must be hard-stalled");
            assert_eq!(engine.stats(core).cycles, 3_000, "core {core} lost stalled cycles");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Randomized traces × stall patterns: the SoA engine, which skips
        /// the ticks of hard-stalled cores, and the legacy per-object cores,
        /// ticked every cycle, must be bit-identical at every epoch.
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
