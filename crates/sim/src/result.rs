//! Results produced by a full-system simulation run.

use bh_core::BreakHammerStats;
use bh_cpu::CacheStats;
use bh_dram::{Cycle, DramStats, RowAddr, ThreadId};
use bh_mem::{ControllerStats, LatencyHistogram, SteppingStats};

/// Performance of one core over the run.
#[derive(Debug, Clone, PartialEq)]
pub struct CorePerformance {
    /// The hardware thread.
    pub thread: ThreadId,
    /// Instructions retired.
    pub instructions: u64,
    /// Core cycles elapsed while the core was running.
    pub cycles: u64,
    /// Instructions per cycle.
    pub ipc: f64,
    /// Whether the core reached its instruction budget.
    pub finished: bool,
}

/// Per-memory-channel slice of a simulation's statistics (one entry per
/// channel, in channel order). On the paper's single-channel system this is
/// one entry equal to the aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelBreakdown {
    /// This channel's memory-controller statistics.
    pub controller: ControllerStats,
    /// This channel's DRAM command statistics.
    pub dram: DramStats,
    /// This channel's DRAM energy in nanojoules.
    pub energy_nj: f64,
    /// Would-be bitflips recorded by this channel's victim model.
    pub bitflips: usize,
    /// Machine-check events raised on this channel by the ECC model (one per
    /// detected-but-uncorrectable row under SEC-DED; always 0 without ECC).
    pub machine_checks: u64,
}

/// The security outcome of a run under the configured fault model and ECC
/// scheme ([`bh_dram::FaultConfig`]): the raw flip count broken down by what
/// ECC did with each flip, plus the verdict against the workload's victim
/// layout. All zeros (with `attack_success: false`) when no flip occurred.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AttackOutcome {
    /// Raw bit-flips before ECC, summed over all channels.
    pub flips_raw: u64,
    /// Flips corrected by ECC (single-flip rows under SEC-DED).
    pub corrected: u64,
    /// Flips detected but not corrected (double-flip rows under SEC-DED;
    /// each such row also raises a machine check, see
    /// [`ChannelBreakdown::machine_checks`]).
    pub detected: u64,
    /// Flips that escaped ECC silently (3+ flips per row under SEC-DED;
    /// every flip when no ECC is configured).
    pub silent: u64,
    /// Whether the run satisfies the workload's
    /// [`bh_dram::SuccessCriterion`] — by default, at least one *silent*
    /// flip landed in a watched victim row.
    pub attack_success: bool,
}

/// Why a simulation run stopped.
///
/// `Completed` and `CycleCutoff` are the two historical outcomes (every run
/// used to be one or the other, implicitly); `Livelock` and `BudgetExceeded`
/// are produced by the forward-progress watchdog
/// ([`WatchdogConfig`](crate::WatchdogConfig)). The verdict is computed at
/// deterministic DRAM-cycle epoch boundaries from step-invariant state only,
/// so it is bit-identical across both scheduler kernels and both front-ends.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TerminationReason {
    /// Every required core retired its instruction budget.
    #[default]
    Completed,
    /// The run reached `max_dram_cycles` before all required cores finished.
    /// Still a legitimate datapoint: IPCs measured up to the cutoff are valid
    /// samples of a heavily-throttled configuration.
    CycleCutoff,
    /// The watchdog observed K consecutive epochs with zero global progress
    /// (or a recurring state-digest fixpoint): the run would never have
    /// completed. A [`LivelockReport`] snapshot accompanies this verdict.
    Livelock,
    /// A configured deterministic budget (max watchdog epochs or max
    /// preventive actions) was exhausted at an epoch boundary.
    BudgetExceeded,
}

impl TerminationReason {
    /// Stable lowercase label used in campaign stores and reports.
    pub fn label(self) -> &'static str {
        match self {
            TerminationReason::Completed => "completed",
            TerminationReason::CycleCutoff => "cutoff",
            TerminationReason::Livelock => "livelock",
            TerminationReason::BudgetExceeded => "budget",
        }
    }
}

/// One core's lane state at the moment a livelock was diagnosed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreLaneState {
    /// The hardware thread.
    pub thread: ThreadId,
    /// Instructions retired so far.
    pub retired: u64,
    /// Whether the core had already finished its budget.
    pub finished: bool,
    /// Whether the core was hard-stalled (instruction window full behind an
    /// outstanding miss) when the snapshot was taken.
    pub hard_stalled: bool,
}

/// One memory channel's queue state at the moment a livelock was diagnosed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelLaneState {
    /// The channel index.
    pub channel: usize,
    /// Demand requests sitting in the controller's queue.
    pub queued: usize,
    /// Requests parked in the channel's enqueue-retry deque (rejected by
    /// quota or MSHR pressure, waiting to re-enter the queue).
    pub retry_deque: usize,
    /// Preventive commands the mitigation has scheduled but not yet issued.
    pub pending_preventive: usize,
    /// Rows the mechanism is currently blocking/blacklisting (0 for
    /// mechanisms that never block).
    pub blocked_rows: usize,
}

/// Diagnostic snapshot produced when the forward-progress watchdog classifies
/// a run as livelocked: what every core lane, every channel queue, and the
/// throttling machinery looked like at the detection boundary.
///
/// Built exclusively from step-invariant state at a deterministic epoch
/// boundary, so the report — like the verdict — is bit-identical across
/// kernels and front-ends.
#[derive(Debug, Clone, PartialEq)]
pub struct LivelockReport {
    /// DRAM cycle of the epoch boundary where the verdict fired.
    pub detected_at: Cycle,
    /// Consecutive zero-progress epochs observed (0 when the state-digest
    /// fixpoint detector fired first).
    pub zero_progress_epochs: u32,
    /// True when the recurring (state-digest, stall-set) fixpoint detector
    /// fired rather than the zero-progress counter.
    pub fixpoint: bool,
    /// Total instructions retired across all cores at detection.
    pub instructions_retired: u64,
    /// Demand reads served across all channels at detection.
    pub reads_served: u64,
    /// Writebacks served across all channels at detection.
    pub writes_served: u64,
    /// Preventive actions taken across all channels at detection.
    pub preventive_actions: u64,
    /// Per-core lane state.
    pub cores: Vec<CoreLaneState>,
    /// Per-channel queue depths, retry-deque lengths and mechanism block
    /// state.
    pub channels: Vec<ChannelLaneState>,
    /// Per-thread suspect flags at detection (empty without BreakHammer).
    pub suspects: Vec<bool>,
}

impl std::fmt::Display for LivelockReport {
    /// Compact single-line form, embedded verbatim in campaign-store
    /// `livelock` records (the flat JSONL schema holds it as one string
    /// field).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "livelock at cycle {} ({}): {} instructions retired, {} reads / {} writes served, \
             {} preventive actions",
            self.detected_at,
            if self.fixpoint {
                "state-digest fixpoint".to_string()
            } else {
                format!("{} zero-progress epochs", self.zero_progress_epochs)
            },
            self.instructions_retired,
            self.reads_served,
            self.writes_served,
            self.preventive_actions,
        )?;
        for core in &self.cores {
            write!(
                f,
                "; core{}[retired={}{}{}]",
                core.thread.index(),
                core.retired,
                if core.finished { " finished" } else { "" },
                if core.hard_stalled { " hard-stalled" } else { "" },
            )?;
        }
        for ch in &self.channels {
            write!(
                f,
                "; ch{}[queued={} retry={} preventive={} blocked={}]",
                ch.channel, ch.queued, ch.retry_deque, ch.pending_preventive, ch.blocked_rows,
            )?;
        }
        if self.suspects.iter().any(|&s| s) {
            let list: Vec<String> = self
                .suspects
                .iter()
                .enumerate()
                .filter(|(_, &s)| s)
                .map(|(i, _)| i.to_string())
                .collect();
            write!(f, "; suspects=[{}]", list.join(","))?;
        }
        Ok(())
    }
}

/// Disturbance accumulated by one watched victim row over the run (declared
/// by the workload's `VictimLayout` and registered via
/// [`System::watch_victims`](crate::System::watch_victims)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VictimReport {
    /// The channel whose tracker watched the row.
    pub channel: usize,
    /// The watched victim row.
    pub row: RowAddr,
    /// Activations its aggressor neighbors accumulated against it (the
    /// victim-model disturbance counter at end of run).
    pub disturbance: u64,
    /// Would-be bitflips recorded on this row.
    pub bitflips: usize,
}

/// Everything measured during one simulation run.
///
/// Implements `PartialEq` so the differential test suite can assert that the
/// per-cycle and event-driven kernels produce bit-identical results.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationResult {
    /// Per-core performance.
    pub cores: Vec<CorePerformance>,
    /// Total DRAM command-clock cycles simulated.
    pub dram_cycles: Cycle,
    /// Memory-controller statistics.
    pub controller: ControllerStats,
    /// DRAM command statistics.
    pub dram: DramStats,
    /// LLC statistics.
    pub cache: CacheStats,
    /// Total DRAM energy in nanojoules.
    pub energy_nj: f64,
    /// RowHammer-preventive actions performed (Fig. 10's quantity).
    pub preventive_actions: u64,
    /// Would-be RowHammer bitflips recorded by the victim model (must stay 0
    /// for any deterministic mitigation, with or without BreakHammer).
    pub bitflips: usize,
    /// Per-thread flag: was the thread ever identified as a suspect?
    pub ever_suspect: Vec<bool>,
    /// BreakHammer statistics, when BreakHammer was attached.
    pub breakhammer: Option<BreakHammerStats>,
    /// Per-thread read-latency histograms (merged over all channels).
    pub latency: Vec<LatencyHistogram>,
    /// Per-memory-channel statistics breakdown (one entry per channel).
    pub per_channel: Vec<ChannelBreakdown>,
    /// End-of-run disturbance of every watched victim row (empty when the
    /// workload declared no victims). Not part of the digest-pinned surface.
    pub victims: Vec<VictimReport>,
    /// The security outcome under the configured fault model and ECC scheme
    /// (all zeros under the default hard-threshold model with no flips).
    pub outcome: AttackOutcome,
    /// Always [`SteppingStats::default()`]: the counters of the deleted epoch
    /// stepping. Kept because `benchmark/expected/` hashes this struct's
    /// `Debug` text, field included (ROADMAP item 2).
    pub stepping: SteppingStats,
    /// Why the run stopped. Part of the behavioural surface (bit-identical
    /// across kernels/front-ends) but *not* of the digest-pinned
    /// field list: the watchdog never fires on healthy runs, so pinned
    /// goldens stay byte-identical.
    pub termination: TerminationReason,
    /// Diagnostic snapshot accompanying a [`TerminationReason::Livelock`]
    /// verdict (`None` otherwise).
    pub livelock: Option<LivelockReport>,
}

impl SimulationResult {
    /// Sum of IPCs over the given threads (a raw throughput measure).
    #[cfg(test)]
    pub(crate) fn total_ipc(&self, threads: &[usize]) -> f64 {
        threads.iter().map(|t| self.cores[*t].ipc).sum()
    }

    /// Merged read-latency histogram over the given threads (used for the
    /// benign-application latency curves of Figs. 11 and 17).
    pub fn merged_latency(&self, threads: &[usize]) -> LatencyHistogram {
        let mut merged = LatencyHistogram::new();
        for t in threads {
            merged.merge(&self.latency[*t]);
        }
        merged
    }

    /// True if every listed core finished its instruction budget.
    pub fn all_finished(&self, threads: &[usize]) -> bool {
        threads.iter().all(|t| self.cores[*t].finished)
    }

    /// The largest disturbance any watched victim row accumulated (0 when no
    /// victims were watched) — the headline "did the victim data survive"
    /// number for scenario tables.
    pub fn max_victim_disturbance(&self) -> u64 {
        self.victims.iter().map(|v| v.disturbance).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> SimulationResult {
        let cores = (0..4)
            .map(|i| CorePerformance {
                thread: ThreadId(i),
                instructions: 1000,
                cycles: 500 * (i as u64 + 1),
                ipc: 2.0 / (i as f64 + 1.0),
                finished: i < 3,
            })
            .collect();
        SimulationResult {
            cores,
            dram_cycles: 10_000,
            controller: ControllerStats::default(),
            dram: DramStats::default(),
            cache: CacheStats::default(),
            energy_nj: 123.0,
            preventive_actions: 7,
            bitflips: 0,
            ever_suspect: vec![false, false, false, true],
            breakhammer: None,
            latency: (0..4).map(|_| LatencyHistogram::new()).collect(),
            per_channel: Vec::new(),
            victims: Vec::new(),
            outcome: AttackOutcome::default(),
            stepping: SteppingStats::default(),
            termination: TerminationReason::default(),
            livelock: None,
        }
    }

    #[test]
    fn accessors_work() {
        let r = result();
        assert!((r.total_ipc(&[0, 1]) - 3.0).abs() < 1e-12);
        assert!(r.all_finished(&[0, 1, 2]));
        assert!(!r.all_finished(&[0, 3]));
        assert_eq!(r.merged_latency(&[0, 1]).count(), 0);
    }

    #[test]
    fn max_victim_disturbance_scans_the_reports() {
        let mut r = result();
        assert_eq!(r.max_victim_disturbance(), 0);
        let bank = bh_dram::BankAddr { rank: 0, bank_group: 0, bank: 0 };
        r.victims = vec![
            VictimReport { channel: 0, row: RowAddr { bank, row: 5 }, disturbance: 3, bitflips: 0 },
            VictimReport { channel: 1, row: RowAddr { bank, row: 7 }, disturbance: 9, bitflips: 1 },
        ];
        assert_eq!(r.max_victim_disturbance(), 9);
    }
}
