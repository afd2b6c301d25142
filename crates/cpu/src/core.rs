//! Trace-driven out-of-order core model.
//!
//! Matches the processor of Table 1: a 4-wide core with a 128-entry
//! instruction window. Non-memory instructions retire one cycle after
//! dispatch; loads occupy the window until the LLC (and, on a miss, DRAM)
//! returns their data; stores retire without waiting. Instructions retire
//! in order, so a long-latency load at the head of the window eventually
//! stalls the core — which is how DRAM contention (and BreakHammer's MSHR
//! throttling) translates into reduced instructions-per-cycle.
//!
//! [`Core`] is the per-object **reference model** of this behaviour: the
//! simulator's default replay path is the data-oriented
//! [`CoreEngine`](crate::CoreEngine), whose `tick_core` mirrors
//! [`Core::tick`] statement by statement and is differentially tested
//! against it (a proptest in `crate::engine` and the front-end differential
//! suite at the workspace root). Behavioural changes must be made to *both*
//! models — the differentials will catch a one-sided edit.

use crate::cache::{AccessOutcome, LastLevelCache, MissToken, RejectReason};
use crate::trace::Trace;
use bh_dram::{Cycle, ThreadId};
use std::collections::VecDeque;

/// Description of a core that cannot make architectural progress, produced by
/// [`Core::progress`]. While a core is stalled, each [`Core::tick`] is a pure
/// counter increment; the event-driven simulation kernel uses this analysis
/// to skip those dead cycles and replay the counters in bulk via
/// [`Core::absorb_stall_ticks`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallInfo {
    /// Earliest CPU cycle at which the core can make progress on its own
    /// (the head of the window is an LLC hit completing at this cycle).
    /// `None` means only an external event — an LLC fill completing or a
    /// BreakHammer quota change — can wake the core.
    pub wake_at: Option<Cycle>,
    /// The window head is an outstanding miss: every stalled tick counts as a
    /// retire-stall cycle.
    pub retire_stalled: bool,
    /// The core retries a rejected LLC access every tick (MSHRs full or the
    /// thread is over its BreakHammer quota): every stalled tick counts as a
    /// dispatch-stall cycle and performs one rejected LLC probe.
    pub reject: Option<RejectReason>,
}

/// Whether a core can make progress at its next tick (see [`Core::progress`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreProgress {
    /// The instruction budget has been retired; the core no longer ticks.
    Finished,
    /// The next tick retires or dispatches something: the core must be ticked
    /// every cycle.
    Active,
    /// The next tick is a pure counter increment; see [`StallInfo`] for when
    /// the core wakes and which counters each skipped tick accrues.
    Stalled(StallInfo),
}

/// Core configuration (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Instructions dispatched per cycle.
    pub width: usize,
    /// Instruction-window (ROB) capacity.
    pub window_size: usize,
    /// Instructions retired per cycle.
    pub retire_width: usize,
}

impl CoreConfig {
    /// The paper's core: 4-wide issue, 128-entry instruction window.
    pub fn paper_table1() -> Self {
        CoreConfig { width: 4, window_size: 128, retire_width: 4 }
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig::paper_table1()
    }
}

/// Per-core statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Instructions retired.
    pub retired_instructions: u64,
    /// Core cycles elapsed (while the core was still running).
    pub cycles: u64,
    /// Loads issued to the LLC.
    pub loads: u64,
    /// Stores issued to the LLC.
    pub stores: u64,
    /// Cycles in which dispatch was blocked because the LLC rejected an
    /// access (MSHRs full or quota exceeded).
    pub dispatch_stall_cycles: u64,
    /// Cycles in which nothing retired because the head load was pending.
    pub retire_stall_cycles: u64,
}

impl CoreStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired_instructions as f64 / self.cycles as f64
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WindowEntry {
    /// A run of `n` consecutive already-complete instructions (non-memory
    /// instructions and stores). Run-length encoding keeps the window deque
    /// short: bubble-heavy traces would otherwise push and pop one entry per
    /// instruction on the simulator's per-cycle path.
    Done(u32),
    /// An LLC hit that completes at the given core cycle.
    ReadyAt(Cycle),
    /// An outstanding LLC miss.
    Pending(MissToken),
}

/// A trace-driven core for one hardware thread.
#[derive(Debug, Clone)]
pub struct Core {
    thread: ThreadId,
    config: CoreConfig,
    trace: Trace,
    position: usize,
    bubbles_left: u32,
    /// The memory access of the current trace record, once its bubbles have
    /// been dispatched.
    access_pending: bool,
    window: VecDeque<WindowEntry>,
    /// Instructions currently in the window (`Done` runs count their length),
    /// bounded by `config.window_size`.
    window_len: usize,
    target_instructions: u64,
    finished: bool,
    /// Memoized outcome of the last rejected LLC access:
    /// `(addr, uncached, llc_version, reason)`. While the LLC version is
    /// unchanged and the pending access is the same, a retry is guaranteed to
    /// be rejected for the same reason, so the retry's counter effects are
    /// replayed without re-walking the cache.
    last_reject: Option<(bh_dram::PhysAddr, bool, u64, crate::cache::RejectReason)>,
    stats: CoreStats,
}

impl Core {
    /// Creates a core for `thread` replaying `trace` until
    /// `target_instructions` have retired.
    ///
    /// # Panics
    /// Panics if `target_instructions` is zero.
    pub fn new(
        thread: ThreadId,
        config: CoreConfig,
        trace: Trace,
        target_instructions: u64,
    ) -> Self {
        assert!(target_instructions > 0, "the instruction budget must be positive");
        let bubbles_left = trace.entry(0).bubbles;
        Core {
            thread,
            config,
            trace,
            position: 0,
            bubbles_left,
            access_pending: true,
            window: VecDeque::with_capacity(config.window_size),
            window_len: 0,
            target_instructions,
            finished: false,
            last_reject: None,
            stats: CoreStats::default(),
        }
    }

    /// Core statistics.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// True once the instruction budget has been retired.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Instructions retired so far.
    pub fn retired_instructions(&self) -> u64 {
        self.stats.retired_instructions
    }

    /// Instructions per cycle achieved so far.
    pub fn ipc(&self) -> f64 {
        self.stats.ipc()
    }

    fn advance_trace(&mut self) {
        self.position = (self.position + 1) % self.trace.len();
        self.bubbles_left = self.trace.entry(self.position).bubbles;
        self.access_pending = true;
    }

    /// If the core is hard-stalled — instruction window full with an
    /// incomplete-looking miss at its head — returns that head's token. Until
    /// the token completes, every tick of this core is exactly one retire
    /// stall (no dispatch can run, no self-state can change), so the
    /// simulator may skip ticking it and replay the cycles in bulk via
    /// [`Core::absorb_hard_stall`]. The caller checks the token's completion.
    pub(crate) fn window_full_on(&self) -> Option<MissToken> {
        if self.window_len < self.config.window_size {
            return None;
        }
        match self.window.front() {
            Some(WindowEntry::Pending(token)) => Some(*token),
            _ => None,
        }
    }

    /// Replays `ticks` hard-stalled cycles (see [`Core::window_full_on`]):
    /// the per-cycle kernel would have counted each as one core cycle and one
    /// retire-stall cycle.
    pub(crate) fn absorb_hard_stall(&mut self, ticks: u64) {
        self.stats.cycles += ticks;
        self.stats.retire_stall_cycles += ticks;
    }

    /// Appends `n` complete instructions to the window, extending a trailing
    /// `Done` run instead of growing the deque.
    fn push_done(&mut self, n: usize) {
        if let Some(WindowEntry::Done(run)) = self.window.back_mut() {
            *run += n as u32;
        } else {
            self.window.push_back(WindowEntry::Done(n as u32));
        }
        self.window_len += n;
    }

    /// Classifies what the core's next tick (at CPU cycle `next_cycle`) would
    /// do, without mutating anything: make progress, stall on the window
    /// head, or spin on a rejected LLC access. The analysis mirrors
    /// [`Core::tick`] exactly and stays valid until an external event (an LLC
    /// fill completion or a quota change) occurs, because a stalled core
    /// cannot change its own inputs.
    pub fn progress(&self, llc: &LastLevelCache, next_cycle: Cycle) -> CoreProgress {
        if self.finished {
            return CoreProgress::Finished;
        }
        // Would the retire stage make progress?
        let (retire_progress, wake_at, retire_stalled) = match self.window.front() {
            Some(WindowEntry::Done(_)) => (true, None, false),
            Some(WindowEntry::ReadyAt(t)) => (*t <= next_cycle, Some(*t), false),
            Some(WindowEntry::Pending(token)) => (llc.is_completed(*token), None, true),
            None => (false, None, false),
        };
        if retire_progress {
            return CoreProgress::Active;
        }
        // Would the dispatch stage make progress?
        let mut reject = None;
        if self.window_len < self.config.window_size {
            if self.bubbles_left > 0 || !self.access_pending {
                return CoreProgress::Active;
            }
            let entry = self.trace.entry(self.position);
            if let Some((addr, uncached, stamp, reason)) = self.last_reject {
                if addr == entry.addr
                    && uncached == entry.uncached
                    && llc.reject_memo_valid(self.thread, addr, reason, stamp)
                {
                    reject = Some(reason);
                    return CoreProgress::Stalled(StallInfo { wake_at, retire_stalled, reject });
                }
            }
            match llc.probe_reject(self.thread, entry.addr, entry.uncached) {
                None => return CoreProgress::Active,
                Some(reason) => reject = Some(reason),
            }
        }
        CoreProgress::Stalled(StallInfo { wake_at, retire_stalled, reject })
    }

    /// Replays `ticks` stalled cycles' counter increments in bulk (the
    /// event-driven kernel's counterpart of calling [`Core::tick`] that many
    /// times while [`Core::progress`] reports [`CoreProgress::Stalled`]).
    /// The caller accounts for the rejected LLC probes separately via
    /// [`LastLevelCache::absorb_rejected_probes`].
    pub fn absorb_stall_ticks(&mut self, ticks: u64, stall: &StallInfo) {
        self.stats.cycles += ticks;
        if stall.retire_stalled {
            self.stats.retire_stall_cycles += ticks;
        }
        if stall.reject.is_some() {
            self.stats.dispatch_stall_cycles += ticks;
        }
    }

    /// Advances the core by one cycle, retiring and dispatching instructions.
    pub fn tick(&mut self, cycle: Cycle, llc: &mut LastLevelCache) {
        if self.finished {
            return;
        }
        self.stats.cycles += 1;

        // Retire in order (a `Done` run retires as many of its instructions
        // as the retire width and the instruction target allow).
        let mut retired = 0;
        while retired < self.config.retire_width {
            let run = match self.window.front() {
                Some(WindowEntry::Done(n)) => *n as usize,
                Some(WindowEntry::ReadyAt(t)) if cycle >= *t => 1,
                Some(WindowEntry::Pending(token)) if llc.is_completed(*token) => 1,
                other => {
                    if matches!(other, Some(WindowEntry::Pending(_))) && retired == 0 {
                        self.stats.retire_stall_cycles += 1;
                    }
                    break;
                }
            };
            let budget = (self.config.retire_width - retired)
                .min((self.target_instructions - self.stats.retired_instructions) as usize);
            let take = run.min(budget);
            if take == run {
                self.window.pop_front();
            } else if let Some(WindowEntry::Done(n)) = self.window.front_mut() {
                *n -= take as u32;
            }
            self.window_len -= take;
            self.stats.retired_instructions += take as u64;
            retired += take;
            if self.stats.retired_instructions >= self.target_instructions {
                self.finished = true;
                return;
            }
        }

        // Dispatch up to `width` instructions into the window.
        let mut dispatched = 0;
        while dispatched < self.config.width && self.window_len < self.config.window_size {
            if self.bubbles_left > 0 {
                // Dispatch the whole bubble run at once (bounded by the
                // dispatch width and the window space), coalescing it into
                // the window's trailing `Done` run.
                let take = (self.bubbles_left as usize)
                    .min(self.config.width - dispatched)
                    .min(self.config.window_size - self.window_len);
                self.bubbles_left -= take as u32;
                self.push_done(take);
                dispatched += take;
                continue;
            }
            if !self.access_pending {
                // The current record is fully dispatched; move on.
                self.advance_trace();
                continue;
            }
            let entry = self.trace.entry(self.position);
            // Fast path for a spinning retry: while the LLC attests that the
            // rejection still holds, replay its counter effects without
            // re-walking the cache.
            if let Some((addr, uncached, stamp, reason)) = self.last_reject {
                if addr == entry.addr
                    && uncached == entry.uncached
                    && llc.reject_memo_valid(self.thread, addr, reason, stamp)
                {
                    llc.absorb_rejected_probes(1, reason);
                    self.stats.dispatch_stall_cycles += 1;
                    break;
                }
            }
            let outcome = if entry.uncached {
                llc.access_bypass(self.thread, entry.addr, entry.is_write, cycle)
            } else {
                llc.access(self.thread, entry.addr, entry.is_write, cycle)
            };
            if !matches!(outcome, AccessOutcome::Rejected { .. }) {
                // The memo must not outlive the rejected episode: a stale
                // entry could re-validate much later (same trace address, no
                // thread-local events in between) even though the line has
                // since been installed by another thread's fill. Clearing on
                // every successful dispatch confines the memo to one
                // continuous rejection, where the stamp's invalidation
                // conditions are exhaustive.
                self.last_reject = None;
            }
            match outcome {
                AccessOutcome::Hit { ready_at } => {
                    if entry.is_write {
                        self.push_done(1);
                    } else {
                        self.window.push_back(WindowEntry::ReadyAt(ready_at));
                        self.window_len += 1;
                    }
                    if entry.is_write {
                        self.stats.stores += 1;
                    } else {
                        self.stats.loads += 1;
                    }
                    self.access_pending = false;
                    self.advance_trace();
                    dispatched += 1;
                }
                AccessOutcome::Miss { token, .. } => {
                    if entry.is_write {
                        self.push_done(1);
                    } else {
                        self.window.push_back(WindowEntry::Pending(token));
                        self.window_len += 1;
                    }
                    if entry.is_write {
                        self.stats.stores += 1;
                    } else {
                        self.stats.loads += 1;
                    }
                    self.access_pending = false;
                    self.advance_trace();
                    dispatched += 1;
                }
                AccessOutcome::Rejected { reason } => {
                    // The LLC cannot take the access this cycle (MSHRs full or
                    // the thread is over its BreakHammer quota): stall.
                    self.last_reject = Some((
                        entry.addr,
                        entry.uncached,
                        llc.reject_stamp(self.thread, reason),
                        reason,
                    ));
                    self.stats.dispatch_stall_cycles += 1;
                    break;
                }
            }
        }
    }
}

/// Drives legacy per-object cores through the CPU cycles of one event
/// epoch, exactly as the simulation kernel drives its reference front-end:
/// cores are ticked in index order within each cycle, and a hard-stalled
/// core (window full behind an incomplete miss, `stalled_on[i]` set) is not
/// ticked — its cycles accrue as debt in `stall_debt[i]` and replay via
/// `Core::absorb_hard_stall` when the miss completes.
///
/// This is *the* legacy epoch contract: the simulator's `FrontEndKind::
/// Legacy` path and the engine's differential tests both call it, so the
/// reference behaviour the differentials validate cannot drift from the
/// reference behaviour the simulator runs.
pub fn tick_epoch_legacy(
    cores: &mut [Core],
    stalled_on: &mut [Option<MissToken>],
    stall_debt: &mut [u64],
    cycles: std::ops::Range<Cycle>,
    llc: &mut LastLevelCache,
) {
    for cpu_cycle in cycles {
        for (i, core) in cores.iter_mut().enumerate() {
            if core.finished() {
                continue;
            }
            if let Some(token) = stalled_on[i] {
                if !llc.is_completed(token) {
                    stall_debt[i] += 1;
                    continue;
                }
                core.absorb_hard_stall(std::mem::take(&mut stall_debt[i]));
                stalled_on[i] = None;
            }
            core.tick(cpu_cycle, llc);
            stalled_on[i] = core.window_full_on();
        }
    }
}

/// Folds outstanding hard-stall debt into the legacy cores' counters (the
/// end-of-run counterpart of [`tick_epoch_legacy`]; see
/// `Core::absorb_hard_stall`).
pub fn settle_legacy(cores: &mut [Core], stall_debt: &mut [u64]) {
    for (i, core) in cores.iter_mut().enumerate() {
        let debt = std::mem::take(&mut stall_debt[i]);
        if debt > 0 {
            core.absorb_hard_stall(debt);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use crate::trace::TraceEntry;
    use bh_dram::PhysAddr;

    fn compute_trace() -> Trace {
        // Mostly bubbles: nearly no memory traffic.
        Trace::new(vec![TraceEntry::load(40, PhysAddr(0x100))])
    }

    fn memory_trace() -> Trace {
        // One load to a new line every few instructions.
        Trace::new((0..64).map(|i| TraceEntry::load(3, PhysAddr(i * 0x10000))).collect())
    }

    fn llc() -> LastLevelCache {
        LastLevelCache::new(CacheConfig::tiny_test(), 2)
    }

    /// Runs the core, completing every outstanding miss after `miss_latency`
    /// cycles, and returns the cycle count needed to finish.
    fn run_with_memory_latency(
        core: &mut Core,
        llc: &mut LastLevelCache,
        miss_latency: u64,
    ) -> u64 {
        let mut pending: Vec<(u64, MissToken)> = Vec::new();
        let mut cycle = 0u64;
        while !core.finished() && cycle < 2_000_000 {
            core.tick(cycle, llc);
            for out in llc.take_outgoing() {
                if let Some(token) = out.token {
                    pending.push((cycle + miss_latency, token));
                }
            }
            pending.retain(|(ready, token)| {
                if cycle >= *ready {
                    llc.complete_miss(*token);
                    false
                } else {
                    true
                }
            });
            cycle += 1;
        }
        assert!(core.finished(), "core did not finish");
        cycle
    }

    #[test]
    fn compute_bound_core_approaches_full_width_ipc() {
        let mut core = Core::new(ThreadId(0), CoreConfig::paper_table1(), compute_trace(), 50_000);
        let mut llc = llc();
        run_with_memory_latency(&mut core, &mut llc, 10);
        let ipc = core.ipc();
        assert!(ipc > 3.0, "compute-bound IPC should approach the 4-wide limit, got {ipc}");
        assert_eq!(core.retired_instructions(), 50_000);
    }

    #[test]
    fn memory_bound_core_is_sensitive_to_memory_latency() {
        let trace = memory_trace();
        let mut fast_core =
            Core::new(ThreadId(0), CoreConfig::paper_table1(), trace.clone(), 20_000);
        let mut slow_core = Core::new(ThreadId(0), CoreConfig::paper_table1(), trace, 20_000);
        let mut llc_fast = llc();
        let mut llc_slow = llc();
        let fast_cycles = run_with_memory_latency(&mut fast_core, &mut llc_fast, 20);
        let slow_cycles = run_with_memory_latency(&mut slow_core, &mut llc_slow, 400);
        assert!(
            slow_cycles > fast_cycles * 2,
            "400-cycle memory ({slow_cycles}) should be much slower than 20-cycle ({fast_cycles})"
        );
        assert!(slow_core.ipc() < fast_core.ipc());
    }

    #[test]
    fn window_limits_outstanding_memory_parallelism() {
        // With a 128-entry window and 4 bubbles per load, at most ~32 loads
        // can be in flight; with never-completing misses the core must stall
        // rather than run ahead.
        let mut core = Core::new(ThreadId(0), CoreConfig::paper_table1(), memory_trace(), 10_000);
        let mut cache =
            LastLevelCache::new(CacheConfig { mshrs: 64, ..CacheConfig::tiny_test() }, 1);
        for cycle in 0..10_000u64 {
            core.tick(cycle, &mut cache);
        }
        assert!(!core.finished());
        assert!(core.retired_instructions() < 200);
        assert!(core.stats().retire_stall_cycles > 5_000);
    }

    #[test]
    fn quota_throttling_slows_a_memory_bound_core() {
        let trace = memory_trace();
        let mut free_core =
            Core::new(ThreadId(0), CoreConfig::paper_table1(), trace.clone(), 8_000);
        let mut throttled_core = Core::new(ThreadId(0), CoreConfig::paper_table1(), trace, 8_000);
        let config = CacheConfig { mshrs: 16, ..CacheConfig::tiny_test() };
        let mut free_llc = LastLevelCache::new(config.clone(), 1);
        let mut throttled_llc = LastLevelCache::new(config, 1);
        throttled_llc.set_quota(ThreadId(0), 1);
        let free_cycles = run_with_memory_latency(&mut free_core, &mut free_llc, 200);
        let throttled_cycles =
            run_with_memory_latency(&mut throttled_core, &mut throttled_llc, 200);
        assert!(
            throttled_cycles > free_cycles * 2,
            "quota of 1 MSHR ({throttled_cycles}) should be much slower than 16 ({free_cycles})"
        );
        assert!(throttled_llc.stats().quota_rejections > 0);
        assert!(
            throttled_core.stats().dispatch_stall_cycles > free_core.stats().dispatch_stall_cycles
        );
    }

    #[test]
    fn stores_do_not_block_retirement() {
        let trace = Trace::new(vec![TraceEntry::store(1, PhysAddr(0x5000))]);
        let mut core = Core::new(ThreadId(0), CoreConfig::paper_table1(), trace, 5_000);
        let mut cache = llc();
        // Never complete any miss: stores must still retire.
        let mut cycle = 0;
        while !core.finished() && cycle < 200_000 {
            core.tick(cycle, &mut cache);
            let _ = cache.take_outgoing();
            cycle += 1;
        }
        assert!(core.finished(), "store-only trace must finish without memory responses");
        assert!(core.stats().stores > 0);
    }

    #[test]
    fn ipc_is_between_zero_and_width() {
        let mut core = Core::new(ThreadId(0), CoreConfig::paper_table1(), memory_trace(), 5_000);
        let mut cache = llc();
        run_with_memory_latency(&mut core, &mut cache, 50);
        let ipc = core.ipc();
        assert!(ipc > 0.0 && ipc <= 4.0, "ipc {ipc}");
        assert_eq!(core.thread, ThreadId(0));
    }

    #[test]
    #[should_panic(expected = "instruction budget")]
    fn zero_budget_rejected() {
        let _ = Core::new(ThreadId(0), CoreConfig::default(), compute_trace(), 0);
    }
}
