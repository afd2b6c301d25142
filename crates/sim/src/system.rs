//! The full-system simulator: cores + LLC + memory controller + DRAM +
//! mitigation mechanism + BreakHammer, wired together and clocked.
//!
//! The outer simulation loop runs in the DRAM command-clock domain (one
//! memory-controller tick per iteration); the cores run at the CPU frequency
//! and are ticked `cpu_freq / dram_freq` times per memory cycle: the CPU cycle
//! is a pure integer function of the DRAM cycle ([`CpuClock`]), 7 CPU cycles
//! per 4 DRAM cycles for Table 1's 4.2 GHz cores over DDR5-4800.
//!
//! The kernel is event-driven: it asks each layer for its next-event
//! horizon — the memory controller's earliest issuable command, the earliest
//! pending LLC fill, each core's stall wake-up, BreakHammer's next window
//! edge — and jumps the clock straight to the minimum, replaying the skipped
//! cycles' counter increments in bulk. A test-only per-cycle kernel, which
//! executes the loop body at every DRAM cycle, is its reference model: the
//! crate's `differential` tests pin the two bit-identical.

use crate::config::{SystemConfig, MAX_DRAM_CYCLES};
use crate::result::{
    AttackOutcome, ChannelBreakdown, ChannelLaneState, CoreLaneState, CorePerformance,
    LivelockReport, SimulationResult, TerminationReason, VictimReport,
};
use crate::watchdog::{ProgressSample, StateDigest, Watchdog};
use bh_core::BreakHammer;
use bh_cpu::{CompiledTrace, CoreEngine, CoreProgress, LastLevelCache, StallInfo, Trace};
use bh_dram::{
    classify_flips, Cycle, DramChannel, RowAddr, RowHammerTracker, SuccessCriterion, ThreadId,
};
use bh_mem::{MemRequest, MemorySystem, SteppingStats};
use std::collections::VecDeque;
use std::ops::Range;

/// The most CPU cycles one DRAM cycle may tick, so that one DRAM step never
/// ticks an unbounded batch.
const MAX_CPU_CYCLES_PER_DRAM_CYCLE: u64 = 64;

/// A CPU cycle no run reaches: 2⁴⁷, past the last CPU cycle of a run of
/// [`MAX_DRAM_CYCLES`] at the ratio cap.
const CPU_CYCLE_BOUND: Cycle = MAX_DRAM_CYCLES * MAX_CPU_CYCLES_PER_DRAM_CYCLE;

/// The fraction bits the integer clock holds: the ratio of CPU cycles per
/// DRAM cycle must be a multiple of `2^-CLOCK_FRACTION_BITS`.
const CLOCK_FRACTION_BITS: u32 = 16;

/// The CPU/DRAM clock-domain crossing, a pure function of the DRAM cycle:
/// DRAM cycle `d` ticks the CPU cycles `at(d)..at(d + 1)`, where
/// `at(d) = floor(d · num / 2^shift)`. The ratio `num / 2^shift` is the
/// configuration's exactly (Table 1 and `fast_test`: 7/4). Both directions
/// compute in `u64`: `d` stays at most [`MAX_DRAM_CYCLES`] (2⁴¹) and `num`
/// below 2²², and wake-up CPU cycles are capped at [`CPU_CYCLE_BOUND`]
/// (2⁴⁷), which with the shift's 16 bits stays below 2⁶⁴.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CpuClock {
    num: u64,
    shift: u32,
}

impl CpuClock {
    /// The clock ticking `ratio` CPU cycles per DRAM cycle, or why it cannot:
    /// the ratio must be positive, at most [`MAX_CPU_CYCLES_PER_DRAM_CYCLE`]
    /// and a multiple of `2^-`[`CLOCK_FRACTION_BITS`].
    pub(crate) fn from_ratio(ratio: f64) -> Result<CpuClock, String> {
        let what =
            format!("cpu_freq_ghz * 1000 / timing.clock_mhz = {ratio} CPU cycles per DRAM cycle");
        if !(ratio > 0.0 && ratio <= MAX_CPU_CYCLES_PER_DRAM_CYCLE as f64) {
            return Err(format!(
                "{what}, but it must be positive and at most {MAX_CPU_CYCLES_PER_DRAM_CYCLE}"
            ));
        }
        // Scaling by a power of two is exact, so the smallest shift that makes
        // the ratio whole gives it in lowest terms.
        (0..=CLOCK_FRACTION_BITS)
            .map(|shift| (ratio * f64::from(1u32 << shift), shift))
            .find(|(scaled, _)| scaled.fract() == 0.0)
            .map(|(scaled, shift)| CpuClock { num: scaled as u64, shift })
            .ok_or_else(|| {
                format!(
                    "{what} is not a multiple of 2^-{CLOCK_FRACTION_BITS}, so the integer CPU \
                     clock cannot hold it exactly"
                )
            })
    }

    /// The first CPU cycle DRAM cycle `dram_cycle` ticks.
    #[inline(always)]
    fn at(self, dram_cycle: Cycle) -> Cycle {
        (dram_cycle * self.num) >> self.shift
    }

    /// The CPU cycles DRAM cycle `dram_cycle` ticks (possibly none).
    #[inline(always)]
    fn ticks(self, dram_cycle: Cycle) -> Range<Cycle> {
        self.at(dram_cycle)..self.at(dram_cycle + 1)
    }

    /// The DRAM cycle whose ticks hold CPU cycle `cpu_cycle`: the first `d`
    /// with `at(d + 1) > cpu_cycle`, i.e. `ceil((cpu_cycle + 1) · 2^shift /
    /// num) − 1`. A CPU cycle past [`CPU_CYCLE_BOUND`] (a wake-up no run
    /// reaches, e.g. behind an absurd hit latency) reads as the bound, whose
    /// DRAM cycle is already past every run's cycle cap.
    #[inline(always)]
    fn dram_cycle_of(self, cpu_cycle: Cycle) -> Cycle {
        let first_past = (cpu_cycle.min(CPU_CYCLE_BOUND) + 1) << self.shift;
        first_past.div_ceil(self.num) - 1
    }
}

/// What a run checks at the top of each kernel iteration besides its own
/// watchdog. A plain run checks nothing: `()`, whose checks compile away, so
/// [`System::run`] pays nothing for the paired run's [`SharedPrefix`].
trait Rider {
    /// True when the run must stop at the top of the iteration at `cycle`,
    /// before its step.
    fn stops(&mut self, system: &System, cycle: Cycle) -> bool;
    /// A cycle the next event horizon must not jump past.
    fn horizon_cap(&self) -> Cycle;
}

impl Rider for () {
    #[inline(always)]
    fn stops(&mut self, _: &System, _: Cycle) -> bool {
        false
    }

    #[inline(always)]
    fn horizon_cap(&self) -> Cycle {
        Cycle::MAX
    }
}

/// Why the shared prefix of a paired run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PairStop {
    /// The quota sync would change an LLC quota.
    Quota,
    /// The watchdog of the run with BreakHammer gave a verdict.
    Verdict,
    /// The ridden-along watchdog of the sibling without BreakHammer would
    /// give a verdict.
    SiblingVerdict,
    /// The run ended without diverging.
    End,
}

/// The shared prefix of [`System::run_pair`]: the sibling's watchdog rides
/// along, sampling at its own boundaries a digest without BreakHammer's
/// words, and the prefix stops where the two arms would diverge.
struct SharedPrefix {
    watchdog: Watchdog,
    stop: Option<PairStop>,
}

impl Rider for SharedPrefix {
    fn stops(&mut self, system: &System, cycle: Cycle) -> bool {
        if system.quota_sync_pending() {
            self.stop = Some(PairStop::Quota);
        } else if self.watchdog.due(cycle) {
            // Observe on a copy: a verdict is left for the sibling to reach
            // on its own, which also builds its livelock report.
            let mut watchdog = self.watchdog.clone();
            match watchdog.observe(cycle, &system.progress_sample(None)) {
                Some(_) => self.stop = Some(PairStop::SiblingVerdict),
                None => self.watchdog = watchdog,
            }
        }
        self.stop.is_some()
    }

    fn horizon_cap(&self) -> Cycle {
        self.watchdog.horizon_cap()
    }
}

/// A fully-wired simulated system. A clone is a checkpoint: it shares the
/// compiled traces, copies all other state and runs on exactly as the original.
#[derive(Debug, Clone)]
pub struct System {
    config: SystemConfig,
    /// Every core's trace replay; core `i` runs `ThreadId(i)`.
    cores: CoreEngine,
    llc: LastLevelCache,
    /// The sharded memory system: one controller + mitigation instance per
    /// channel, one shared BreakHammer observer.
    memory: MemorySystem,
    /// Cores that must finish for the simulation to end (benign cores; the
    /// attacker's progress is irrelevant, footnote 9 of the paper).
    required: Vec<usize>,
    /// The CPU cycles each DRAM cycle ticks.
    clock: CpuClock,
    /// Miss completions scheduled for a future DRAM cycle, in completion
    /// order (see [`System::step_inner_fill`]), as `(cycle, MSHR token)`.
    pending_fills: VecDeque<(Cycle, u64)>,
    next_writeback_id: u64,
    /// The BreakHammer [`quota_version`](BreakHammer::quota_version) whose
    /// quotas were last propagated into the LLC (`None` before the first
    /// propagation). While the version is unchanged the per-step propagation
    /// and the `next_event` quota-sync check are skipped — the LLC mirror is
    /// known to be current.
    synced_quota_version: Option<u64>,
    /// Recycled buffer for draining controller responses each step.
    response_buf: Vec<bh_mem::MemResponse>,
    /// Recycled per-core progress classifications from the latest
    /// [`System::next_event`] (empty whenever the next event is pinned to
    /// the very next cycle, where the skip replay never runs).
    progress_buf: Vec<CoreProgress>,
    /// Recycled buffer for draining LLC outgoing requests each step.
    outgoing_buf: Vec<bh_cpu::OutgoingRequest>,
    /// Victim rows to report end-of-run disturbance for, as
    /// `(channel, row)` pairs (registered via [`System::watch_victims`]).
    watched_victims: Vec<(usize, RowAddr)>,
    /// What counts as a successful attack against the watched victim rows
    /// (set via [`System::with_success_criterion`], usually from the
    /// workload's victim layout).
    success_criterion: SuccessCriterion,
    /// Forward-progress watchdog, observed at fixed DRAM-cycle epoch
    /// boundaries by every kernel (see [`crate::WatchdogConfig`]).
    watchdog: Watchdog,
    /// The watchdog's verdict when it fired (`None` on healthy runs).
    verdict: Option<TerminationReason>,
    /// Livelock snapshot captured at the verdict boundary.
    livelock: Option<LivelockReport>,
}

impl System {
    /// Builds a system running `traces` (one per core), compiling each trace
    /// first. Callers that run the same workload under many configurations
    /// should compile once and use [`System::with_compiled`] so every run
    /// shares the compiled records instead of deep-copying them.
    ///
    /// # Panics
    /// Panics if the configuration is invalid, the trace count does not match
    /// the core count, or `required` references an unknown core.
    pub fn new(config: SystemConfig, traces: &[Trace], required: Vec<usize>) -> Self {
        let compiled: Vec<CompiledTrace> = traces.iter().map(Trace::compile).collect();
        System::with_compiled(config, &compiled, required)
    }

    /// Builds a system replaying pre-compiled traces (one per core), sharing
    /// their record storage with the caller. `required` lists the cores whose
    /// instruction budget must complete before the run ends; pass every
    /// benign core there.
    ///
    /// # Panics
    /// Panics if the configuration is invalid, the trace count does not match
    /// the core count, or `required` references an unknown core.
    pub fn with_compiled(
        config: SystemConfig,
        traces: &[CompiledTrace],
        required: Vec<usize>,
    ) -> Self {
        config.validate().expect("invalid system configuration");
        let clock = CpuClock::from_ratio(config.cpu_cycles_per_dram_cycle())
            .expect("validate checked the clock ratio");
        assert_eq!(
            traces.len(),
            config.cores,
            "need exactly one trace per core ({} cores, {} traces)",
            config.cores,
            traces.len()
        );
        assert!(required.iter().all(|r| *r < config.cores), "required core index out of range");

        // The large arrays first, the LLC's lines (0.92 MB on Table 1): they
        // have the same size in every system of a sweep, so each new system
        // finds them room where the last one freed them. The mechanisms' tables differ per kind (Hydra's
        // group counters are 128 KiB on the paper geometry) and come last.
        // The disturbance trackers in between hold only a page table (16 KiB
        // per channel on the paper geometry) and allocate their 4 KiB pages
        // as the run disturbs rows. With this order the benchmark's
        // `attack_paper` workload peaks at 6.3 MB under glibc malloc.
        let llc = LastLevelCache::new(config.cache.clone(), config.cores);
        let channels = config.geometry.channels;
        let trackers: Vec<_> = (0..channels)
            .map(|ch| {
                RowHammerTracker::with_fault(
                    config.geometry.clone(),
                    config.nrh,
                    config.device.blast_radius,
                    config.fault.model,
                    config.seed,
                    ch,
                )
            })
            .collect();
        // Build one mitigation instance per memory channel (the paper — and
        // BlockHammer before it — provisions per-channel trackers). Channel 0
        // uses the configured seed unchanged so single-channel systems are
        // bit-identical to the pre-multichannel simulator; further channels
        // derive their probabilistic seeds by offset.
        let mechanisms: Vec<_> = (0..channels)
            .map(|ch| {
                config.mechanism.build(
                    &config.geometry,
                    &config.timing,
                    config.nrh,
                    config.seed.wrapping_add(ch as u64),
                )
            })
            .collect();
        // REGA adjusts the DRAM timing parameters (identically per channel).
        let timing = config.timing.clone().with_adjustment(&mechanisms[0].timing_adjustment());
        let breakhammer_config = config.breakhammer.then(|| config.effective_breakhammer_config());
        // The auto-derived watchdog epoch must span BreakHammer's window (a
        // quota-starved thread legitimately waits out a rotation for its
        // refill), so the effective window length feeds the derivation.
        let bh_window = breakhammer_config.as_ref().map(|bh| bh.window_cycles);
        let breakhammer =
            breakhammer_config.map(|bh| BreakHammer::new(bh, mechanisms[0].attribution()));
        let instances = trackers
            .into_iter()
            .zip(mechanisms)
            .map(|(tracker, mechanism)| {
                let channel = DramChannel::with_config(
                    config.geometry.clone(),
                    timing.clone(),
                    config.energy.clone(),
                    config.device.clone(),
                    Some(tracker),
                );
                (channel, mechanism)
            })
            .collect();
        let memory = MemorySystem::new(config.memctrl.clone(), instances, breakhammer);

        let cores = CoreEngine::new(config.core, traces.to_vec(), config.instructions_per_core);
        let watchdog = Watchdog::new(&config.watchdog, bh_window);

        System {
            config,
            cores,
            llc,
            memory,
            required,
            clock,
            pending_fills: VecDeque::new(),
            next_writeback_id: 1 << 60,
            synced_quota_version: None,
            response_buf: Vec::new(),
            progress_buf: Vec::new(),
            outgoing_buf: Vec::new(),
            watched_victims: Vec::new(),
            success_criterion: SuccessCriterion::default(),
            watchdog,
            verdict: None,
            livelock: None,
        }
    }

    /// Registers victim rows (as `(channel, row)` pairs, e.g. a
    /// `WorkloadMix`'s `victim_rows`) whose end-of-run disturbance the
    /// result should report in `SimulationResult::victims`. Channels and row
    /// indices are reduced to the configured geometry, so layouts computed
    /// for a larger geometry degrade gracefully on test-scale systems.
    pub fn watch_victims(mut self, victims: impl IntoIterator<Item = (usize, RowAddr)>) -> Self {
        let channels = self.config.geometry.channels;
        let rows = self.config.geometry.rows_per_bank;
        self.watched_victims = victims
            .into_iter()
            .map(|(channel, row)| {
                (channel % channels, RowAddr { bank: row.bank, row: row.row % rows })
            })
            .collect();
        self.watched_victims.sort_unstable();
        self.watched_victims.dedup();
        self
    }

    /// Sets what counts as a successful attack against the watched victim
    /// rows (usually the workload's `WorkloadMix::success_criterion`).
    pub fn with_success_criterion(mut self, criterion: SuccessCriterion) -> Self {
        self.success_criterion = criterion;
        self
    }

    fn required_finished(&self) -> bool {
        self.required.iter().all(|i| self.cores.finished(*i))
    }

    /// Watchdog observation at the top of every kernel iteration. Returns
    /// `true` — after recording the verdict and, for livelocks, the
    /// diagnostic snapshot — when the run must stop now. A no-op (one integer
    /// compare) away from epoch boundaries, so the per-cycle reference kernel
    /// can afford to call it every cycle.
    ///
    /// The kernel reaches each boundary cycle as a step cycle (event
    /// horizons are clamped to [`Watchdog::horizon_cap`]; undershooting a
    /// horizon is behaviour-neutral), and the sample reads step-invariant
    /// state only, so the verdict and snapshot are bit-identical to the
    /// per-cycle reference kernel's.
    #[inline(always)]
    fn watchdog_fires(&mut self, dram_cycle: Cycle) -> bool {
        if !self.watchdog.due(dram_cycle) {
            return false;
        }
        let sample = self.progress_sample(self.memory.breakhammer());
        let Some(verdict) = self.watchdog.observe(dram_cycle, &sample) else {
            return false;
        };
        if verdict.reason == TerminationReason::Livelock {
            self.livelock = Some(self.livelock_report(
                dram_cycle,
                verdict.zero_progress_epochs,
                verdict.fixpoint,
                &sample,
            ));
        }
        self.verdict = Some(verdict.reason);
        true
    }

    /// Assembles one epoch boundary's progress sample: the global progress
    /// tuple plus the structural state digest (which deliberately excludes
    /// the served-request counters — see the `watchdog` module docs). The
    /// digest covers `breakhammer`'s suspect and quota words, if given: the
    /// system's own observer, or `None` for the sample a system without
    /// BreakHammer would draw from the same state.
    fn progress_sample(&self, breakhammer: Option<&BreakHammer>) -> ProgressSample {
        let mut digest = StateDigest::new();
        let mut instructions_retired = 0u64;
        for core in 0..self.config.cores {
            let retired = self.cores.retired_instructions(core);
            instructions_retired += retired;
            digest.write_u64(retired);
            digest.write_bool(self.cores.finished(core));
            digest.write_bool(self.cores.is_hard_stalled(core));
        }
        let mut reads_served = 0u64;
        let mut writes_served = 0u64;
        let mut preventive_actions = 0u64;
        for (channel, ctrl) in self.memory.controllers().iter().enumerate() {
            let stats = ctrl.stats();
            reads_served += stats.reads_served;
            writes_served += stats.writes_served;
            preventive_actions += stats.preventive_actions_total();
            digest.write_usize(ctrl.queued_requests());
            digest.write_usize(self.memory.pending_enqueue_depth(channel));
            digest.write_usize(ctrl.pending_preventive_commands());
            digest.write_usize(ctrl.mechanism().blocked_rows());
        }
        if let Some(bh) = breakhammer {
            for t in 0..self.config.cores {
                digest.write_bool(bh.is_suspect(ThreadId(t)));
                digest.write_usize(bh.quota(ThreadId(t)));
            }
        }
        ProgressSample {
            instructions_retired,
            reads_served,
            writes_served,
            preventive_actions,
            state_digest: digest.finish(),
        }
    }

    /// Builds the diagnostic snapshot accompanying a livelock verdict, from
    /// the same step-invariant state the sample was drawn from.
    fn livelock_report(
        &self,
        detected_at: Cycle,
        zero_progress_epochs: u32,
        fixpoint: bool,
        sample: &ProgressSample,
    ) -> LivelockReport {
        let cores = (0..self.config.cores)
            .map(|core| CoreLaneState {
                thread: ThreadId(core),
                retired: self.cores.retired_instructions(core),
                finished: self.cores.finished(core),
                hard_stalled: self.cores.is_hard_stalled(core),
            })
            .collect();
        let channels = self
            .memory
            .controllers()
            .iter()
            .enumerate()
            .map(|(channel, ctrl)| ChannelLaneState {
                channel,
                queued: ctrl.queued_requests(),
                retry_deque: self.memory.pending_enqueue_depth(channel),
                pending_preventive: ctrl.pending_preventive_commands(),
                blocked_rows: ctrl.mechanism().blocked_rows(),
            })
            .collect();
        let suspects = self
            .memory
            .breakhammer()
            .map(|bh| (0..self.config.cores).map(|t| bh.is_suspect(ThreadId(t))).collect())
            .unwrap_or_default();
        LivelockReport {
            detected_at,
            zero_progress_epochs,
            fixpoint,
            instructions_retired: sample.instructions_retired,
            reads_served: sample.reads_served,
            writes_served: sample.writes_served,
            preventive_actions: sample.preventive_actions,
            cores,
            channels,
            suspects,
        }
    }

    /// Runs the simulation to completion, on the event-driven kernel of the
    /// module documentation, and returns the measured results.
    pub fn run(self) -> SimulationResult {
        self.complete(0)
    }

    /// Runs on from DRAM cycle `from` to the end of the run and returns its
    /// result.
    fn complete(mut self, from: Cycle) -> SimulationResult {
        let end = self.advance(from, self.config.max_dram_cycles, &mut ());
        self.finish(end)
    }

    /// Runs this system, which must have BreakHammer attached, together with
    /// its sibling without BreakHammer, and returns both results as
    /// `(without, with)`: exactly what [`System::run`] returns for the system
    /// built from the same configuration with `breakhammer` off, and for this
    /// one.
    ///
    /// BreakHammer only observes the memory controllers. Its one feedback
    /// path is the LLC quota it sets, so until the quota sync first changes
    /// an LLC quota both arms are the same simulation. The paired run
    /// simulates that shared prefix once, with the sibling's watchdog riding
    /// along (it samples at its own epoch boundaries, and its digest leaves
    /// out BreakHammer's words). It stops at the top of the first iteration
    /// where the quota sync would change a quota or either watchdog gives a
    /// verdict. There a clone, with BreakHammer detached and the ridden-along
    /// watchdog, finishes the sibling, and this system finishes itself. A
    /// run that ends inside the prefix yields both results from its final
    /// state, without a clone.
    ///
    /// # Panics
    /// Panics if BreakHammer is not attached.
    pub fn run_pair(mut self) -> (SimulationResult, SimulationResult) {
        let (at, stop, watchdog) = self.advance_shared();
        self.finish_pair(at, stop, watchdog)
    }

    /// The event-driven loop, from DRAM cycle `from`: steps the system only
    /// at cycles where some layer can make progress and fast-forwards across
    /// the dead cycles in between, replaying their counter increments in
    /// bulk. Runs until the run ends (a watchdog verdict, the required cores
    /// finished, the cycle cap), `rider` stops it, or its next step is at or
    /// past `stop`, and returns the cycle it stopped at; stopping there and
    /// resuming changes nothing.
    ///
    /// The loop has two instances, `()` and [`SharedPrefix`], so the
    /// functions it calls per iteration have two callers each. They are
    /// `#[inline(always)]`: without that the compiler calls them out of line
    /// and the plain run's loop is measurably slower on `attack_paper`.
    fn advance<R: Rider>(&mut self, from: Cycle, stop: Cycle, rider: &mut R) -> Cycle {
        let (max, end) = (self.config.max_dram_cycles, stop.min(self.config.max_dram_cycles));
        let mut dram_cycle = from;
        while self.verdict.is_none() && !self.required_finished() && dram_cycle < end {
            if self.watchdog_fires(dram_cycle) || rider.stops(self, dram_cycle) {
                break;
            }
            self.step(dram_cycle);
            if self.required_finished() {
                return dram_cycle + 1;
            }
            let next = self.next_event(dram_cycle);
            // Clamp to the next watchdog epoch boundary so the kernel steps
            // there (undershooting a horizon is only wasted work, never a
            // behaviour change — the reference kernel steps every cycle).
            let next = next
                .clamp(dram_cycle + 1, max)
                .min(self.watchdog.horizon_cap())
                .min(rider.horizon_cap());
            if next > dram_cycle + 1 {
                self.skip_dead_cycles(dram_cycle + 1, next);
            }
            dram_cycle = next;
        }
        dram_cycle
    }

    /// Advances the shared prefix of [`System::run_pair`] from cycle 0 and
    /// returns the cycle it stopped at and why, with the sibling's
    /// ridden-along watchdog (it has observed every boundary before the stop
    /// cycle, none at it).
    fn advance_shared(&mut self) -> (Cycle, PairStop, Watchdog) {
        assert!(
            self.memory.breakhammer().is_some(),
            "a paired run needs a system with BreakHammer attached"
        );
        let mut prefix =
            SharedPrefix { watchdog: Watchdog::new(&self.config.watchdog, None), stop: None };
        let at = self.advance(0, self.config.max_dram_cycles, &mut prefix);
        let stop = match prefix.stop {
            Some(stop) => stop,
            None if self.verdict.is_some() => PairStop::Verdict,
            None => PairStop::End,
        };
        (at, stop, prefix.watchdog)
    }

    /// Finishes both arms of a paired run from cycle `at`, where
    /// `advance_shared` stopped, and returns their results as
    /// `(without, with)`.
    fn finish_pair(
        mut self,
        at: Cycle,
        stop: PairStop,
        watchdog: Watchdog,
    ) -> (SimulationResult, SimulationResult) {
        if stop == PairStop::End {
            let with = self.finish(at);
            self.detach_breakhammer(watchdog);
            return (self.finish(at), with);
        }
        let mut without = self.clone();
        without.detach_breakhammer(watchdog);
        let with = self.complete(at);
        (without.complete(at), with)
    }

    /// Turns this system into its sibling without BreakHammer at the same
    /// cycle: the observer detached, `watchdog` in place of its own, and
    /// none of its own verdict.
    fn detach_breakhammer(&mut self, watchdog: Watchdog) {
        self.memory.detach_breakhammer();
        self.config.breakhammer = false;
        self.synced_quota_version = None;
        self.watchdog = watchdog;
        self.verdict = None;
        self.livelock = None;
    }

    /// [`System::run`] paused at each of the ascending cycles in `forks` (at
    /// the first step cycle at or past it), where a clone of the system is
    /// set aside with the cycle. Returns the original's result, then each
    /// clone's, every one finished on its own after the original.
    #[cfg(test)]
    pub(crate) fn run_forked(mut self, forks: &[Cycle]) -> Vec<SimulationResult> {
        let mut at = 0;
        let mut clones = Vec::new();
        for &fork in forks {
            at = self.advance(at, fork, &mut ());
            clones.push((self.clone(), at));
        }
        let mut results = vec![self.complete(at)];
        results.extend(clones.into_iter().map(|(system, at)| system.complete(at)));
        results
    }

    /// [`System::run_pair`], also returning why its shared prefix stopped,
    /// the cycle it stopped at and the sibling's ridden-along watchdog there.
    #[cfg(test)]
    pub(crate) fn run_pair_traced(
        mut self,
    ) -> (PairStop, Cycle, Watchdog, (SimulationResult, SimulationResult)) {
        let (at, stop, watchdog) = self.advance_shared();
        (stop, at, watchdog.clone(), self.finish_pair(at, stop, watchdog))
    }

    /// This run's watchdog once the run is paused at `cycle` (at the first
    /// step cycle at or past it).
    #[cfg(test)]
    pub(crate) fn watchdog_at(mut self, cycle: Cycle) -> Watchdog {
        self.advance(0, cycle, &mut ());
        self.watchdog
    }

    /// The reference kernel: executes [`System::step`] at every DRAM cycle.
    #[cfg(test)]
    pub(crate) fn run_per_cycle(mut self) -> SimulationResult {
        let mut dram_cycle: Cycle = 0;
        while !self.required_finished() && dram_cycle < self.config.max_dram_cycles {
            if self.watchdog_fires(dram_cycle) {
                break;
            }
            self.step(dram_cycle);
            dram_cycle += 1;
        }
        self.finish(dram_cycle)
    }

    /// One iteration of the simulation loop at `dram_cycle` — identical for
    /// both kernels.
    #[inline(always)]
    fn step(&mut self, dram_cycle: Cycle) {
        self.step_inner_quota(dram_cycle);
        self.step_inner_ctrl(dram_cycle);
        self.step_inner_fill(dram_cycle);
        self.step_inner_core(dram_cycle);
        self.step_inner_out(dram_cycle);
    }

    #[inline(always)]
    fn step_inner_quota(&mut self, _dram_cycle: Cycle) {
        // 1. Propagate BreakHammer's current quotas into the LLC (skipped
        // while the quota version says the LLC mirror is already current).
        if let Some(bh) = self.memory.breakhammer() {
            if self.synced_quota_version == Some(bh.quota_version()) {
                return;
            }
            for t in 0..self.config.cores {
                self.llc.set_quota(ThreadId(t), bh.quota(ThreadId(t)));
            }
            self.synced_quota_version = Some(bh.quota_version());
        }
    }

    #[inline(always)]
    fn step_inner_ctrl(&mut self, dram_cycle: Cycle) {
        // 2. Retry requests the memory system previously rejected, then tick
        // every channel's controller.
        self.memory.retry_pending();
        self.memory.tick(dram_cycle);
    }

    #[inline(always)]
    fn step_inner_fill(&mut self, dram_cycle: Cycle) {
        // 3. Collect responses and complete LLC misses whose data arrived
        // (skipping the drain outright on response-free steps, the common
        // case — the controller serves at most one column command per tick).
        if self.memory.has_responses() {
            self.memory.drain_responses_into(&mut self.response_buf);
        } else {
            self.response_buf.clear();
        }
        for response in &self.response_buf {
            if response.kind.is_read() && response.id < (1 << 60) {
                // Chaos injection: drop fills completing at/after the
                // configured cycle. The MSHR stays occupied forever, so every
                // core eventually hard-stalls — the deterministic livelock
                // the watchdog tests inject. `completed_at` is identical
                // across kernels, so the drop set is too.
                if let Some(cut) = self.config.chaos.drop_fills_after {
                    if response.completed_at >= cut {
                        continue;
                    }
                }
                // A read's data arrives `read_latency` after its column
                // command, the same latency on every channel, and responses
                // are drained at every step in issue order. So the queue is
                // sorted by completion cycle: its front is the next fill due.
                assert!(
                    self.pending_fills
                        .back()
                        .is_none_or(|(last, _)| *last <= response.completed_at),
                    "fills must arrive in completion order"
                );
                self.pending_fills.push_back((response.completed_at, response.id));
            }
        }
        while let Some(&(ready, token)) = self.pending_fills.front() {
            if ready > dram_cycle {
                break;
            }
            self.llc.complete_miss(token);
            self.pending_fills.pop_front();
        }
    }

    #[inline(always)]
    fn step_inner_core(&mut self, dram_cycle: Cycle) {
        // 4. Tick the cores in the CPU clock domain, one engine epoch per
        // step: cores are stepped in core-index order within each CPU cycle,
        // so their LLC accesses drain as a deterministically ordered batch.
        // Hard-stalled cores (window full behind an incomplete miss) are not
        // ticked: their cycles accumulate as debt (inside the engine) and are
        // replayed in bulk when their miss completes, which is the only event
        // that can change their state — completions happen in the fill phase,
        // strictly before this one.
        self.cores.tick_epoch(self.clock.ticks(dram_cycle), &mut self.llc);
    }

    #[inline(always)]
    fn step_inner_out(&mut self, dram_cycle: Cycle) {
        // 5. Forward new LLC fills and writebacks to their memory channel
        // (skipped outright when the epoch produced none, the common case).
        if !self.llc.has_outgoing() {
            return;
        }
        self.llc.take_outgoing_into(&mut self.outgoing_buf);
        for i in 0..self.outgoing_buf.len() {
            let outgoing = self.outgoing_buf[i];
            let req = if outgoing.is_writeback {
                let id = self.next_writeback_id;
                self.next_writeback_id += 1;
                MemRequest::write(id, outgoing.thread, outgoing.addr, dram_cycle)
            } else {
                MemRequest::read(
                    outgoing.token.expect("fills carry their MSHR token"),
                    outgoing.thread,
                    outgoing.addr,
                    dram_cycle,
                )
            };
            self.memory.enqueue_or_defer(req);
        }
    }

    /// True when the next quota sync would change an LLC quota: BreakHammer
    /// holds a quota the LLC has not absorbed yet. While the quota version
    /// matches the last sync the mirror is known-current and the per-thread
    /// comparison is skipped.
    fn quota_sync_pending(&self) -> bool {
        let Some(bh) = self.memory.breakhammer() else {
            return false;
        };
        if self.synced_quota_version == Some(bh.quota_version()) {
            return false;
        }
        let mshrs = self.llc.config().mshrs;
        (0..self.config.cores)
            .any(|t| self.llc.quota(ThreadId(t)) != bh.quota(ThreadId(t)).min(mshrs))
    }

    /// Computes the next cycle at which [`System::step`] must run (strictly
    /// after `dram_cycle`), leaving the per-core progress analysis the skip
    /// replay needs in `progress_buf` (reused across calls; left empty when
    /// the next event is one cycle away and no skip can happen).
    ///
    /// Events, from any layer: a core able to retire or dispatch (forces the
    /// very next cycle), a core's window-head hit completing, a pending LLC
    /// fill arriving, the memory controller having an issuable command or
    /// refresh/preventive deadline, BreakHammer's next window edge, and a
    /// BreakHammer quota the LLC has not absorbed yet. Horizons may
    /// undershoot (waking early is only wasted work) but never overshoot.
    #[inline(always)]
    fn next_event(&mut self, dram_cycle: Cycle) -> Cycle {
        // Cheapest checks first: when the controller (O(1), memoized) or a
        // pending fill already pins the next event to the very next cycle, no
        // skip is possible and the per-core analysis is not needed (an empty
        // progress buffer is fine — the skip replay never runs for a
        // one-cycle advance).
        self.progress_buf.clear();
        let mut next = self.memory.next_event(dram_cycle);
        if next <= dram_cycle + 1 {
            return dram_cycle + 1;
        }
        // BreakHammer quotas the LLC has not absorbed yet (e.g. restored by
        // the window rotation that `tick` just performed) are propagated at
        // the top of the next step — that step must not be skipped, or a
        // quota-stalled core would wake late.
        if self.quota_sync_pending() {
            return dram_cycle + 1;
        }
        if let Some(&(ready, _)) = self.pending_fills.front() {
            next = next.min(ready);
            if next <= dram_cycle + 1 {
                return dram_cycle + 1;
            }
        }

        let next_cpu_cycle = self.clock.at(dram_cycle + 1);
        if self.cores.progress_batch(&self.llc, next_cpu_cycle, &mut self.progress_buf) {
            return dram_cycle + 1;
        }
        for p in &self.progress_buf {
            if let CoreProgress::Stalled(StallInfo { wake_at: Some(t), .. }) = p {
                next = next.min(self.clock.dram_cycle_of(*t).max(dram_cycle + 1));
            }
        }
        if let Some(bh) = self.memory.breakhammer() {
            // The window rotation must happen at its exact cycle; the cycle
            // after it (when rotated quotas reach the LLC) is covered by the
            // pending-quota check above.
            next = next.min(bh.next_window_end());
        }
        next
    }

    /// Fast-forwards across the DRAM cycles `from..to` in which, by
    /// construction of [`System::next_event`], every layer is quiescent:
    /// replays exactly the counter increments the per-cycle reference would
    /// have accrued (stalled-core cycle/stall counters, rejected LLC access
    /// probes, failed enqueue retries) without touching any other state. The
    /// core side replays the classifications `progress_buf` captured at the
    /// decision point.
    #[inline(always)]
    fn skip_dead_cycles(&mut self, from: Cycle, to: Cycle) {
        let cpu_ticks = self.clock.at(to) - self.clock.at(from);
        if cpu_ticks > 0 {
            for (core, p) in self.progress_buf.iter().enumerate() {
                if let CoreProgress::Stalled(stall) = p {
                    self.cores.absorb_stall_ticks(core, cpu_ticks, stall);
                    if let Some(reason) = stall.reject {
                        self.llc.absorb_rejected_probes(cpu_ticks, reason);
                    }
                }
            }
        }
        if self.memory.has_pending_enqueue() {
            self.memory.absorb_enqueue_rejections(to - from);
        }
    }

    /// The result of the run that stopped at `dram_cycles`. Settling is
    /// idempotent, so the system can be finished again (as the other arm of
    /// a paired run) from the same state.
    fn finish(&mut self, dram_cycles: Cycle) -> SimulationResult {
        // Resolve the termination taxonomy before anything is settled: the
        // watchdog verdict (recorded at its boundary) wins; otherwise the run
        // either completed or hit the cycle cutoff.
        let termination = self.verdict.unwrap_or(if self.required_finished() {
            TerminationReason::Completed
        } else {
            TerminationReason::CycleCutoff
        });
        let livelock = self.livelock.take();
        // Settle any deferred hard-stall cycles before reading core stats.
        self.cores.settle();
        let cores: Vec<CorePerformance> = (0..self.config.cores)
            .map(|core| {
                let stats = self.cores.stats(core);
                CorePerformance {
                    thread: ThreadId(core),
                    instructions: stats.retired_instructions,
                    cycles: stats.cycles,
                    ipc: stats.ipc(),
                    finished: self.cores.finished(core),
                }
            })
            .collect();

        let ever_suspect: Vec<bool> = (0..self.config.cores)
            .map(|t| {
                self.memory
                    .breakhammer()
                    .map(|bh| bh.is_suspect(ThreadId(t)) || bh.suspect_windows(ThreadId(t)) > 0)
                    .unwrap_or(false)
            })
            .collect();
        let latency = (0..self.config.cores).map(|t| self.memory.latency_of(ThreadId(t))).collect();
        // Classify every channel's raw flip set under the configured ECC
        // scheme; the classification feeds both the per-channel machine-check
        // counters and the aggregate attack outcome below.
        let classifications: Vec<_> = self
            .memory
            .controllers()
            .iter()
            .map(|ctrl| {
                let flips = ctrl.channel().rowhammer().map(|t| t.bitflips()).unwrap_or(&[]);
                classify_flips(flips, self.config.fault.ecc)
            })
            .collect();
        // The per-channel breakdown is the single source for energy and
        // bitflips: the aggregates below are sums over it, so the two views
        // can never drift apart.
        let per_channel: Vec<ChannelBreakdown> = self
            .memory
            .controllers()
            .iter()
            .zip(&classifications)
            .map(|(ctrl, ecc)| {
                let channel = ctrl.channel();
                ChannelBreakdown {
                    controller: ctrl.stats().clone(),
                    dram: channel.stats().clone(),
                    energy_nj: channel.energy().total_nj(
                        channel.energy_params(),
                        channel.timing(),
                        dram_cycles,
                        channel.geometry().ranks,
                    ),
                    bitflips: channel.rowhammer().map(|t| t.bitflip_count()).unwrap_or(0),
                    machine_checks: ecc.machine_checks,
                }
            })
            .collect();
        let energy_nj = per_channel.iter().map(|c| c.energy_nj).sum();
        let bitflips = per_channel.iter().map(|c| c.bitflips).sum();
        let controller = self.memory.aggregate_stats();
        let preventive_actions = controller.preventive_actions_total();

        let controllers = self.memory.controllers();
        let victims: Vec<VictimReport> = self
            .watched_victims
            .iter()
            .map(|(channel, row)| {
                let tracker = controllers[*channel].channel().rowhammer();
                VictimReport {
                    channel: *channel,
                    row: *row,
                    disturbance: tracker.map(|t| t.disturbance_of(*row)).unwrap_or(0),
                    bitflips: tracker
                        .map(|t| t.bitflips().iter().filter(|b| b.victim == *row).count())
                        .unwrap_or(0),
                }
            })
            .collect();

        // Aggregate the ECC classification into the attack outcome and judge
        // it against the watched victim rows. `watched_victims` is sorted, so
        // silent-row membership is a binary search.
        let mut outcome = AttackOutcome::default();
        for ecc in &classifications {
            outcome.flips_raw += ecc.flips_raw;
            outcome.corrected += ecc.corrected;
            outcome.detected += ecc.detected;
            outcome.silent += ecc.silent;
        }
        outcome.attack_success = match self.success_criterion {
            SuccessCriterion::AnySilentFlip => {
                classifications.iter().enumerate().any(|(ch, ecc)| {
                    ecc.silent_rows
                        .iter()
                        .any(|(row, _)| self.watched_victims.binary_search(&(ch, *row)).is_ok())
                })
            }
            SuccessCriterion::AnyFlip => victims.iter().any(|v| v.bitflips > 0),
        };

        SimulationResult {
            cores,
            dram_cycles,
            controller,
            dram: self.memory.aggregate_dram_stats(),
            cache: self.llc.stats().clone(),
            energy_nj,
            preventive_actions,
            bitflips,
            ever_suspect,
            breakhammer: self.memory.breakhammer().map(|bh| bh.stats().clone()),
            latency,
            per_channel,
            victims,
            outcome,
            stepping: SteppingStats::default(),
            termination,
            livelock,
        }
    }
}

/// The system's unit tests, and the trace recipe the crate's differential
/// tests share with them.
#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use bh_mitigation::MechanismKind;
    use bh_workloads::{AttackerProfile, BenignProfile, ComposedAttacker, TraceGenerator};
    use proptest::prelude::*;

    /// Four benign cores (core `i` seeded `seed + i`), generated for the
    /// configuration's geometry and address mapping so multi-channel configs
    /// spread them over every channel.
    pub(crate) fn benign_traces(config: &SystemConfig, entries: usize, seed: u64) -> Vec<Trace> {
        let gen = TraceGenerator::new(config.geometry.clone(), config.memctrl.mapping);
        // Streaming-dominated profiles: benign applications that rarely hammer
        // a row enough to trigger preventive actions at moderate N_RH, so the
        // attacker's contribution stands out (the paper's premise in §8.1).
        let profiles = ["libquantum", "fotonik3d", "xalancbmk", "povray"];
        profiles
            .iter()
            .enumerate()
            .map(|(i, name)| {
                // `resolve` threads an actionable error naming the known
                // profiles; a typo here fails with that message instead of an
                // anonymous `unwrap` panic mid-simulation.
                let mut p = BenignProfile::resolve(name).unwrap_or_else(|e| panic!("{e}"));
                // Shrink footprints to the tiny test geometry.
                p.footprint_rows = p.footprint_rows.min(2_000);
                p.hot_rows = p.hot_rows.min(16).max(if p.hot_row_fraction > 0.0 { 1 } else { 0 });
                gen.benign(&p, entries, seed + i as u64)
            })
            .collect()
    }

    /// The benign quartet with `attacker` (seeded `seed + 900`) on core 3.
    pub(crate) fn attack_traces_composed(
        config: &SystemConfig,
        attacker: &ComposedAttacker,
        entries: usize,
        seed: u64,
    ) -> Vec<Trace> {
        let mut traces = benign_traces(config, entries, seed);
        traces[3] = attacker.trace(&config.geometry, config.memctrl.mapping, entries, seed + 900);
        traces
    }

    /// The benign quartet with the paper-default attacker on core 3.
    pub(crate) fn attack_traces(config: &SystemConfig, entries: usize, seed: u64) -> Vec<Trace> {
        attack_traces_composed(config, &AttackerProfile::paper_default().compose(), entries, seed)
    }

    /// Pages of per-row state each channel holds: the disturbance tracker's
    /// (counters, and sampled thresholds under the probabilistic model) plus
    /// the mechanism's (PRAC's and BlockHammer's counters).
    fn resident_row_pages(system: &System) -> Vec<usize> {
        system
            .memory
            .controllers()
            .iter()
            .map(|ctrl| {
                ctrl.channel().rowhammer().map_or(0, RowHammerTracker::resident_pages)
                    + ctrl.mechanism().resident_pages()
            })
            .collect()
    }

    /// A checkpoint of a paper-geometry system copies only the per-row state
    /// the run touched. After a few thousand cycles under attack, with the
    /// probabilistic fault model and a mechanism with per-row counters (so
    /// three of the four per-row stores are live), each channel holds a few
    /// of the 2 048 pages one store spans, and the clone holds exactly as
    /// many.
    #[test]
    fn a_checkpoint_copies_only_the_touched_row_pages() {
        for mechanism in [MechanismKind::Prac, MechanismKind::BlockHammer] {
            let mut config = SystemConfig::paper_table1(mechanism, 128, true).with_channels(2);
            config.instructions_per_core = 20_000;
            config.fault = bh_dram::FaultConfig {
                model: bh_dram::FaultModel::Probabilistic {
                    flip_probability: 0.5,
                    nrh_variation: 0.2,
                },
                ecc: bh_dram::EccMode::SecDed,
            };
            let traces = attack_traces(&config, 2_000, 100);
            let mut system = System::new(config, &traces, vec![0, 1, 2]);
            let at = system.advance(0, 5_000, &mut ());
            assert!(at >= 5_000, "{mechanism}: the run ended early");
            let pages = resident_row_pages(&system);
            // Three stores per channel (disturbance, thresholds, the
            // mechanism's counters), together under an eighth of one.
            assert!(pages.iter().all(|&p| p > 0 && p < 2_048 / 8), "{mechanism}: {pages:?}");
            assert_eq!(resident_row_pages(&system.clone()), pages, "{mechanism}");
        }
    }

    #[test]
    fn benign_system_without_mitigation_completes() {
        let mut config = SystemConfig::fast_test(MechanismKind::None, 1024, false);
        config.instructions_per_core = 20_000;
        let traces = benign_traces(&config, 4_000, 100);
        let result = System::new(config, &traces, vec![0, 1, 2, 3]).run();
        assert!(result.all_finished(&[0, 1, 2, 3]), "cores did not finish: {:?}", result.cores);
        for core in &result.cores {
            assert!(core.ipc > 0.05 && core.ipc <= 4.0, "ipc {}", core.ipc);
        }
        assert!(result.controller.reads_served > 0);
        assert!(result.dram.activates > 0);
        assert!(result.energy_nj > 0.0);
        assert_eq!(result.preventive_actions, 0);
        assert!(result.breakhammer.is_none());
    }

    #[test]
    fn attacker_with_graphene_triggers_actions_and_breakhammer_throttles_it() {
        let mut base = SystemConfig::fast_test(MechanismKind::Graphene, 128, false);
        base.instructions_per_core = 15_000;

        let traces = attack_traces(&base, 4_000, 100);
        let without = System::new(base.clone(), &traces, vec![0, 1, 2]).run();
        assert!(without.preventive_actions > 0, "the attacker must trigger Graphene");
        assert_eq!(without.bitflips, 0, "Graphene must prevent bitflips");

        let mut with_bh = base;
        with_bh.breakhammer = true;
        // Lower TH_threat so the short test run identifies the attacker early;
        // the Table 2 default (32) needs longer runs to accumulate scores.
        let mut bh_cfg = with_bh.effective_breakhammer_config();
        bh_cfg.threat_threshold = 8.0;
        with_bh.breakhammer_config = Some(bh_cfg);
        let with = System::new(with_bh, &traces, vec![0, 1, 2]).run();
        assert_eq!(with.bitflips, 0, "BreakHammer must not compromise protection");
        assert!(with.ever_suspect[3], "the attacker must be identified as a suspect");
        assert!(!with.ever_suspect[0], "benign thread 0 must not be a suspect");
        assert!(
            with.preventive_actions < without.preventive_actions,
            "BreakHammer must reduce preventive actions ({} vs {})",
            with.preventive_actions,
            without.preventive_actions
        );
        let benign = [0usize, 1, 2];
        assert!(
            with.total_ipc(&benign) > without.total_ipc(&benign),
            "benign throughput must improve with BreakHammer ({:.3} vs {:.3})",
            with.total_ipc(&benign),
            without.total_ipc(&benign)
        );
        assert!(with.cache.quota_rejections > 0, "the attacker must have been quota-limited");
    }

    #[test]
    fn breakhammer_is_neutral_for_all_benign_workloads() {
        let mut base = SystemConfig::fast_test(MechanismKind::Graphene, 256, false);
        base.instructions_per_core = 15_000;
        let traces = benign_traces(&base, 4_000, 100);
        let without = System::new(base.clone(), &traces, vec![0, 1, 2, 3]).run();
        let mut with_cfg = base;
        with_cfg.breakhammer = true;
        let with = System::new(with_cfg, &traces, vec![0, 1, 2, 3]).run();
        let all = [0usize, 1, 2, 3];
        let ratio = with.total_ipc(&all) / without.total_ipc(&all);
        assert!(
            ratio > 0.9,
            "BreakHammer must not noticeably slow down all-benign workloads (ratio {ratio:.3})"
        );
    }

    #[test]
    fn watched_victims_report_disturbance_under_attack() {
        let mut config = SystemConfig::fast_test(MechanismKind::Graphene, 128, false);
        config.instructions_per_core = 15_000;
        let attacker = AttackerProfile::paper_default().compose();
        let traces = attack_traces_composed(&config, &attacker, 4_000, 100);
        let victims = attacker.victim_rows(&config.geometry);
        assert!(!victims.is_empty());
        let result = System::new(config.clone(), &traces, vec![0, 1, 2])
            .watch_victims(victims.iter().map(|v| (v.channel, v.row)))
            .run();
        assert_eq!(result.victims.len(), victims.len());
        assert!(
            result.max_victim_disturbance() > 0,
            "hammered victims must accumulate disturbance"
        );
        // Every reported row is in-range for the tiny geometry.
        for v in &result.victims {
            assert!(v.row.row < config.geometry.rows_per_bank);
            assert_eq!(v.bitflips, 0, "Graphene must prevent bitflips");
        }

        // A system with no watch list reports no victims.
        let bare = System::new(config, &traces, vec![0, 1, 2]).run();
        assert!(bare.victims.is_empty());
    }

    #[test]
    fn rega_runs_with_inflated_timing_and_no_discrete_actions() {
        let mut config = SystemConfig::fast_test(MechanismKind::Rega, 64, true);
        config.instructions_per_core = 10_000;
        let traces = benign_traces(&config, 3_000, 100);
        let result = System::new(config, &traces, vec![0, 1, 2, 3]).run();
        assert!(result.all_finished(&[0, 1, 2, 3]));
        assert_eq!(result.preventive_actions, 0, "REGA performs no controller-visible actions");
    }

    /// `ChannelStepping::Parallel`, `SchedulerKind::PerCycle` and
    /// `FrontEndKind::Legacy` are inert names: accepted, and the whole
    /// result — counters included — is the default configuration's.
    #[test]
    fn parallel_stepping_config_runs_exactly_as_serial() {
        use crate::config::{ChannelStepping, FrontEndKind, SchedulerKind};
        let mut default =
            SystemConfig::fast_test(MechanismKind::Graphene, 128, true).with_channels(2);
        default.instructions_per_core = 6_000;
        let traces = attack_traces(&default, 2_000, 100);
        let want = System::new(default.clone(), &traces, vec![0, 1, 2]).run();
        assert!(want.preventive_actions > 0, "the run must exercise the BreakHammer hooks");
        assert_eq!(want.stepping, SteppingStats::default());
        let inert: [fn(&mut SystemConfig); 3] = [
            |c| c.stepping = ChannelStepping::Parallel,
            |c| c.scheduler = SchedulerKind::PerCycle,
            |c| c.front_end = FrontEndKind::Legacy,
        ];
        for set in inert {
            let mut config = default.clone();
            set(&mut config);
            assert_ne!(config, default);
            assert_eq!(config.validate(), Ok(()));
            assert_eq!(System::new(config, &traces, vec![0, 1, 2]).run(), want);
        }
    }

    /// The fractional accumulator the kernel's clock replaced, kept verbatim
    /// as the integer clock's oracle: it advances one DRAM cycle at a time
    /// and shares no arithmetic with [`CpuClock`].
    #[derive(Debug, Clone)]
    struct AccumulatorClock {
        /// CPU cycles per DRAM command-clock cycle.
        ratio: f64,
        /// Fractional CPU cycles accumulated but not yet ticked.
        acc: f64,
        /// The CPU-cycle value of the next tick.
        next_cpu_cycle: Cycle,
    }

    impl AccumulatorClock {
        fn new(ratio: f64) -> Self {
            AccumulatorClock { ratio, acc: 0.0, next_cpu_cycle: 0 }
        }

        /// Advances the accumulator by one DRAM cycle and returns the range of
        /// CPU-cycle values to tick during it (possibly empty).
        fn tick_range(&mut self) -> Range<Cycle> {
            self.acc += self.ratio;
            let start = self.next_cpu_cycle;
            while self.acc >= 1.0 {
                self.acc -= 1.0;
                self.next_cpu_cycle += 1;
            }
            start..self.next_cpu_cycle
        }

        /// Advances through `dram_cycles` DRAM cycles and returns how many CPU
        /// ticks elapse in total (the event-driven kernel's bulk skip).
        fn advance(&mut self, dram_cycles: u64) -> u64 {
            let mut ticks = 0;
            for _ in 0..dram_cycles {
                let range = self.tick_range();
                ticks += range.end - range.start;
            }
            ticks
        }

        /// Number of DRAM cycles (>= 1) until the DRAM cycle whose tick batch
        /// contains the CPU cycle `target` (which must not have been ticked yet).
        fn dram_cycles_until(&self, target: Cycle) -> u64 {
            let mut probe = self.clone();
            let mut cycles = 0u64;
            loop {
                cycles += 1;
                if probe.tick_range().end > target {
                    return cycles;
                }
            }
        }
    }

    /// A ratio of `num / 2^shift` CPU cycles per DRAM cycle: 7/4 (Table 1
    /// and `fast_test`), 21/8 (4.2 GHz over DDR4-3200) or a random one
    /// with up to [`CLOCK_FRACTION_BITS`] fraction bits, up to the bound.
    fn dyadic_ratio(pick: usize, shift: u32, num: u64) -> f64 {
        match pick {
            0 => 1.75,
            1 => 2.625,
            _ => {
                let den = 1u64 << shift;
                (1 + num % (MAX_CPU_CYCLES_PER_DRAM_CYCLE * den)) as f64 / den as f64
            }
        }
    }

    /// The clock ratios a configuration may hold are exactly the positive
    /// multiples of `2^-16` up to 64 CPU cycles per DRAM cycle.
    #[test]
    fn the_integer_clock_holds_the_bounded_dyadic_ratios() {
        let (max, fraction) = (MAX_CPU_CYCLES_PER_DRAM_CYCLE as f64, CLOCK_FRACTION_BITS as i32);
        assert_eq!(CpuClock::from_ratio(1.75), Ok(CpuClock { num: 7, shift: 2 }));
        assert_eq!(CpuClock::from_ratio(2.625), Ok(CpuClock { num: 21, shift: 3 }));
        assert_eq!(CpuClock::from_ratio(max), Ok(CpuClock { num: 64, shift: 0 }));
        assert!(CpuClock::from_ratio(2f64.powi(-fraction)).is_ok());
        assert!(CpuClock::from_ratio(1.0 + 2f64.powi(-fraction)).is_ok());
        for inexact in [2f64.powi(-fraction - 1), 1.0 + 2f64.powi(-fraction - 1), 2.1, 5.0 / 3.0] {
            let err = CpuClock::from_ratio(inexact).unwrap_err();
            assert!(err.contains("is not a multiple of 2^-16"), "{inexact}: {err}");
        }
        for out in [0.0, -1.75, max + 2f64.powi(-fraction), 4.2e11, f64::INFINITY, f64::NAN] {
            let err = CpuClock::from_ratio(out).unwrap_err();
            assert!(err.contains("must be positive and at most 64"), "{out}: {err}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The integer clock ticks exactly what the accumulator ticks: the
        /// range of every DRAM cycle up to `start`, then, from the kernel's
        /// view after stepping `start`, the wake-up cycle of the next tick,
        /// of the last CPU cycle `span` dead cycles cover and of random CPU
        /// cycles in between, and the tick count of skipping those cycles.
        #[test]
        fn the_integer_clock_ticks_as_the_accumulator(
            pick in 0usize..4,
            shift in 0u32..=CLOCK_FRACTION_BITS,
            num in any::<u64>(),
            start in 0u64..4_096,
            span in 0u64..4_096,
            wakes in prop::collection::vec(any::<u64>(), 8),
        ) {
            let ratio = dyadic_ratio(pick, shift, num);
            let clock = CpuClock::from_ratio(ratio).expect("a bounded dyadic ratio");
            let mut reference = AccumulatorClock::new(ratio);
            for dram_cycle in 0..=start {
                prop_assert_eq!(clock.ticks(dram_cycle), reference.tick_range());
            }
            let next_cpu_cycle = clock.at(start + 1);
            prop_assert_eq!(next_cpu_cycle, reference.next_cpu_cycle);
            let skipped_to = clock.at(start + 1 + span);
            let covered = skipped_to - next_cpu_cycle + 1;
            let targets = [next_cpu_cycle, skipped_to].into_iter()
                .chain(wakes.iter().map(|w| next_cpu_cycle + w % covered));
            for t in targets {
                prop_assert_eq!(
                    clock.dram_cycle_of(t).max(start + 1),
                    start + reference.dram_cycles_until(t),
                    "CPU cycle {} at ratio {}", t, ratio
                );
            }
            prop_assert_eq!(skipped_to - next_cpu_cycle, reference.advance(span));
        }
    }

    #[test]
    #[should_panic(expected = "one trace per core")]
    fn trace_count_mismatch_is_rejected() {
        let config = SystemConfig::fast_test(MechanismKind::None, 1024, false);
        let traces = benign_traces(&config, 100, 100);
        let _ = System::new(config, &traces[0..2], vec![0]);
    }
}
