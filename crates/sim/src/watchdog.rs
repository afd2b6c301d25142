//! Deterministic forward-progress watchdog.
//!
//! [`Watchdog`] is a pure state machine over *simulated* time: the kernel of
//! [`crate::System::run`] (and its per-cycle reference) feed it one [`ProgressSample`] per epoch boundary
//! (a fixed DRAM-cycle grid), and it answers with a [`Verdict`] when the run
//! is provably stuck or over budget. No wall clock is involved anywhere —
//! `clippy.toml` disallows `Instant::now`/`SystemTime::now` — so the verdict
//! is a deterministic function of the simulated schedule and is bit-identical
//! across the kernel and its reference.
//!
//! Two detectors run side by side:
//!
//! * **Zero progress** — [`WatchdogConfig::stall_epochs`] consecutive epochs
//!   in which the global progress tuple (instructions retired, demand reads
//!   served, writebacks served) did not change. Preventive actions are
//!   deliberately *excluded* from the tuple: a mitigation spinning on
//!   endless preventive ACT/PREs while demand traffic starves (the PARA
//!   livelock PR 1 patched by hand) is precisely the signature this detector
//!   must flag, not excuse.
//! * **State fixpoint** — the same number of consecutive epochs whose
//!   structural state digest (per-core retired/finished/hard-stalled lanes,
//!   per-channel queue depths, retry-deque lengths, pending preventive
//!   commands, mechanism block state, suspect set) is identical. This
//!   catches cyclic livelocks in which some counter still ticks (e.g. a
//!   retry deque endlessly re-serving the same rejected request) while the
//!   machine's shape never changes. Served-request counters are excluded
//!   from the digest for exactly that reason.
//!
//! Deterministic budgets (max epochs, max preventive actions) are checked at
//! the same boundaries and yield [`TerminationReason::BudgetExceeded`].

use crate::config::WatchdogConfig;
use crate::result::TerminationReason;
use bh_dram::Cycle;

/// Fallback epoch length when nothing better can be derived (cycles).
const BASE_EPOCH_CYCLES: u64 = 50_000;

/// 64-bit FNV-1a over a stream of `u64` words — the workspace's standard
/// deterministic digest, here used for the structural state fixpoint.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StateDigest(u64);

impl StateDigest {
    /// Fresh digest at the FNV offset basis.
    pub(crate) fn new() -> Self {
        StateDigest(0xcbf2_9ce4_8422_2325)
    }

    /// Folds one word into the digest.
    pub(crate) fn write_u64(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Folds one machine-word count into the digest.
    pub(crate) fn write_usize(&mut self, value: usize) {
        self.write_u64(value as u64);
    }

    /// Folds one flag into the digest.
    pub(crate) fn write_bool(&mut self, value: bool) {
        self.write_u64(u64::from(value));
    }

    /// The digest value.
    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for StateDigest {
    fn default() -> Self {
        StateDigest::new()
    }
}

/// One epoch boundary's view of global progress, assembled by the system
/// from step-invariant state only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ProgressSample {
    /// Total instructions retired across all cores.
    pub instructions_retired: u64,
    /// Demand reads served across all channels.
    pub reads_served: u64,
    /// Writebacks served across all channels.
    pub writes_served: u64,
    /// Preventive actions taken across all channels.
    pub preventive_actions: u64,
    /// Structural state digest (see [`StateDigest`]); must exclude the
    /// served-request counters above.
    pub state_digest: u64,
}

/// The watchdog's answer at an epoch boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Verdict {
    /// `Livelock` or `BudgetExceeded`.
    pub reason: TerminationReason,
    /// Consecutive zero-progress epochs at the verdict (0 when the fixpoint
    /// detector fired first, or on a budget verdict).
    pub zero_progress_epochs: u32,
    /// True when the state-digest fixpoint detector fired.
    pub fixpoint: bool,
}

/// The forward-progress watchdog state machine (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Watchdog {
    enabled: bool,
    epoch_cycles: u64,
    stall_epochs: u32,
    max_epochs: u64,
    max_preventive: u64,
    next_boundary: Cycle,
    epochs: u64,
    zero_epochs: u32,
    fixpoint_epochs: u32,
    last_progress: Option<(u64, u64, u64)>,
    last_digest: Option<u64>,
}

impl Watchdog {
    /// Builds the watchdog for one run.
    ///
    /// `breakhammer_window` is the effective BreakHammer window length when
    /// BreakHammer is attached: the auto-derived epoch guarantees the
    /// no-progress horizon (`stall_epochs × epoch`) spans at least two full
    /// windows, so a quota-starved thread legitimately waiting out a window
    /// rotation for its quota refill is never misclassified as livelocked.
    pub(crate) fn new(config: &WatchdogConfig, breakhammer_window: Option<u64>) -> Self {
        let stall_epochs = config.stall_epochs.max(1);
        let epoch_cycles = if config.epoch_cycles > 0 {
            config.epoch_cycles
        } else {
            let floor = match breakhammer_window {
                Some(window) => (2 * window).div_ceil(u64::from(stall_epochs)),
                None => 0,
            };
            BASE_EPOCH_CYCLES.max(floor)
        };
        Watchdog {
            enabled: config.enabled,
            epoch_cycles,
            stall_epochs,
            max_epochs: config.max_epochs,
            max_preventive: config.max_preventive_actions,
            next_boundary: if config.enabled { epoch_cycles } else { Cycle::MAX },
            epochs: 0,
            zero_epochs: 0,
            fixpoint_epochs: 0,
            last_progress: None,
            last_digest: None,
        }
    }

    /// The next epoch boundary: event horizons must not jump past it
    /// (`Cycle::MAX` when the watchdog is disabled, i.e. no clamping).
    pub(crate) fn horizon_cap(&self) -> Cycle {
        self.next_boundary
    }

    /// True when `cycle` is an epoch boundary the watchdog must observe —
    /// one integer compare, cheap enough for the per-cycle reference loop.
    pub(crate) fn due(&self, cycle: Cycle) -> bool {
        cycle == self.next_boundary
    }

    /// Consumes the boundary sample and advances to the next epoch.
    /// `Some(verdict)` means the run must stop now.
    pub(crate) fn observe(&mut self, cycle: Cycle, sample: &ProgressSample) -> Option<Verdict> {
        if !self.enabled || cycle != self.next_boundary {
            return None;
        }
        self.next_boundary += self.epoch_cycles;
        self.epochs += 1;

        if self.max_epochs > 0 && self.epochs > self.max_epochs {
            return Some(Verdict {
                reason: TerminationReason::BudgetExceeded,
                zero_progress_epochs: 0,
                fixpoint: false,
            });
        }
        if self.max_preventive > 0 && sample.preventive_actions > self.max_preventive {
            return Some(Verdict {
                reason: TerminationReason::BudgetExceeded,
                zero_progress_epochs: 0,
                fixpoint: false,
            });
        }

        let progress = (sample.instructions_retired, sample.reads_served, sample.writes_served);
        if self.last_progress == Some(progress) {
            self.zero_epochs += 1;
        } else {
            self.zero_epochs = 0;
            self.last_progress = Some(progress);
        }
        if self.last_digest == Some(sample.state_digest) {
            self.fixpoint_epochs += 1;
        } else {
            self.fixpoint_epochs = 0;
            self.last_digest = Some(sample.state_digest);
        }

        if self.zero_epochs >= self.stall_epochs {
            return Some(Verdict {
                reason: TerminationReason::Livelock,
                zero_progress_epochs: self.zero_epochs,
                fixpoint: false,
            });
        }
        if self.fixpoint_epochs >= self.stall_epochs {
            return Some(Verdict {
                reason: TerminationReason::Livelock,
                zero_progress_epochs: self.zero_epochs,
                fixpoint: true,
            });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(instr: u64, reads: u64, digest: u64) -> ProgressSample {
        ProgressSample {
            instructions_retired: instr,
            reads_served: reads,
            writes_served: 0,
            preventive_actions: 0,
            state_digest: digest,
        }
    }

    fn watchdog(stall_epochs: u32) -> Watchdog {
        let config = WatchdogConfig {
            enabled: true,
            epoch_cycles: 100,
            stall_epochs,
            max_epochs: 0,
            max_preventive_actions: 0,
        };
        Watchdog::new(&config, None)
    }

    #[test]
    fn healthy_progress_never_fires() {
        let mut wd = watchdog(3);
        for epoch in 1..100u64 {
            let cycle = epoch * 100;
            assert!(wd.due(cycle));
            // Both the progress tuple and the digest change every epoch.
            assert_eq!(wd.observe(cycle, &sample(epoch, epoch, epoch)), None);
        }
    }

    #[test]
    fn zero_progress_for_k_epochs_is_livelock() {
        let mut wd = watchdog(3);
        assert_eq!(wd.observe(100, &sample(7, 7, 1)), None); // baseline
        assert_eq!(wd.observe(200, &sample(7, 7, 2)), None); // zero #1
        assert_eq!(wd.observe(300, &sample(7, 7, 3)), None); // zero #2
        let verdict = wd.observe(400, &sample(7, 7, 4)).expect("zero #3 fires");
        assert_eq!(verdict.reason, TerminationReason::Livelock);
        assert_eq!(verdict.zero_progress_epochs, 3);
        assert!(!verdict.fixpoint);
    }

    #[test]
    fn progress_resets_the_stall_counter() {
        let mut wd = watchdog(2);
        assert_eq!(wd.observe(100, &sample(7, 7, 1)), None);
        assert_eq!(wd.observe(200, &sample(7, 7, 2)), None); // zero #1
        assert_eq!(wd.observe(300, &sample(8, 7, 3)), None); // progress
        assert_eq!(wd.observe(400, &sample(8, 7, 4)), None); // zero #1 again
        assert!(wd.observe(500, &sample(8, 7, 5)).is_some());
    }

    #[test]
    fn recurring_state_digest_is_a_fixpoint_livelock() {
        let mut wd = watchdog(2);
        // Reads tick every epoch (so zero-progress never fires) but the
        // structural digest repeats: a cyclic livelock.
        assert_eq!(wd.observe(100, &sample(7, 1, 42)), None);
        assert_eq!(wd.observe(200, &sample(7, 2, 42)), None); // repeat #1
        let verdict = wd.observe(300, &sample(7, 3, 42)).expect("repeat #2 fires");
        assert_eq!(verdict.reason, TerminationReason::Livelock);
        assert!(verdict.fixpoint);
    }

    #[test]
    fn epoch_budget_cuts_the_run() {
        let mut wd = Watchdog::new(
            &WatchdogConfig {
                enabled: true,
                epoch_cycles: 100,
                stall_epochs: 8,
                max_epochs: 2,
                max_preventive_actions: 0,
            },
            None,
        );
        assert_eq!(wd.observe(100, &sample(1, 1, 1)), None);
        assert_eq!(wd.observe(200, &sample(2, 2, 2)), None);
        let verdict = wd.observe(300, &sample(3, 3, 3)).expect("third epoch over budget");
        assert_eq!(verdict.reason, TerminationReason::BudgetExceeded);
    }

    #[test]
    fn preventive_budget_cuts_the_run() {
        let mut wd = Watchdog::new(
            &WatchdogConfig {
                enabled: true,
                epoch_cycles: 100,
                stall_epochs: 8,
                max_epochs: 0,
                max_preventive_actions: 10,
            },
            None,
        );
        let mut s = sample(1, 1, 1);
        s.preventive_actions = 10;
        assert_eq!(wd.observe(100, &s), None, "at the budget is fine");
        let mut s = sample(2, 2, 2);
        s.preventive_actions = 11;
        let verdict = wd.observe(200, &s).expect("over the budget fires");
        assert_eq!(verdict.reason, TerminationReason::BudgetExceeded);
    }

    #[test]
    fn disabled_watchdog_never_clamps_or_fires() {
        let config = WatchdogConfig { enabled: false, ..WatchdogConfig::default() };
        let mut wd = Watchdog::new(&config, None);
        assert_eq!(wd.horizon_cap(), Cycle::MAX);
        assert!(!wd.due(50_000));
        assert_eq!(wd.observe(50_000, &sample(0, 0, 0)), None);
    }

    #[test]
    fn auto_epoch_spans_two_breakhammer_windows() {
        let config = WatchdogConfig::default(); // epoch_cycles = 0 → auto
        let wd = Watchdog::new(&config, Some(500_000));
        // stall_epochs × epoch ≥ 2 × window.
        assert!(u64::from(config.stall_epochs) * wd.epoch_cycles >= 1_000_000);
        let small = Watchdog::new(&config, Some(1_000));
        assert_eq!(small.epoch_cycles, BASE_EPOCH_CYCLES);
        let none = Watchdog::new(&config, None);
        assert_eq!(none.epoch_cycles, BASE_EPOCH_CYCLES);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = StateDigest::new();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = StateDigest::new();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());
        let mut c = StateDigest::new();
        c.write_usize(1);
        c.write_bool(false);
        let mut d = StateDigest::new();
        d.write_usize(1);
        d.write_bool(true);
        assert_ne!(c.finish(), d.finish());
    }
}
