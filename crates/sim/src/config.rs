//! Full-system configuration (Table 1 + Table 2 of the paper).

use crate::system::CpuClock;
use bh_core::BreakHammerConfig;
use bh_cpu::{CacheConfig, CoreConfig, LLC_MAX_THREADS};
use bh_dram::{DeviceConfig, DramGeometry, EnergyParams, FaultConfig, TimingParams};
use bh_mem::MemControllerConfig;
use bh_mitigation::{MechanismKind, MITIGATED_BLAST_RADIUS};

/// The most DRAM cycles a run may last (`SystemConfig::max_dram_cycles`),
/// 2⁴¹: 15 simulated minutes at 2.4 GHz. Every CPU cycle of a run then stays
/// below 2⁴⁷ at the 64× clock-ratio cap, so the CPU/DRAM clock crossing
/// computes in `u64`.
pub const MAX_DRAM_CYCLES: u64 = 1 << 41;

/// An inert name: `PerCycle` is accepted and runs exactly as `EventDriven`.
/// It is kept only until the `benchmark` PR of ROADMAP item 2 removes the
/// name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Identical to `EventDriven`.
    PerCycle,
    /// The clock jumps to the next cycle at which any layer can make
    /// progress, replaying the skipped cycles' counter increments in bulk:
    /// the one kernel of [`crate::System::run`].
    #[default]
    EventDriven,
}

/// An inert name: `Legacy` is accepted and runs exactly as `Engine`. It is
/// kept only until the `benchmark` PR of ROADMAP item 2 removes the name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FrontEndKind {
    /// Identical to `Engine`.
    Legacy,
    /// Every core replayed by one `bh_cpu::CoreEngine`: the one CPU
    /// front-end of [`crate::System::run`].
    #[default]
    Engine,
}

/// An inert name: `Parallel` is accepted and runs exactly as `Serial`. It is
/// kept only until the `benchmark` PR of ROADMAP item 2 removes the name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ChannelStepping {
    /// Every channel controller is ticked, in index order, at every stepped
    /// cycle: the one way the channels are stepped.
    #[default]
    Serial,
    /// Identical to `Serial`.
    Parallel,
}

/// Forward-progress watchdog: detects livelocked runs deterministically, in
/// simulated time only (no wall clock anywhere in the sim crates).
///
/// The watchdog samples global progress — instructions retired plus DRAM
/// demand requests served — at fixed DRAM-cycle epoch boundaries. The
/// event-driven kernel steps at each boundary (event horizons are clamped
/// there; undershooting a horizon is always behaviour-neutral), so the
/// samples, the verdict and the [`LivelockReport`](crate::LivelockReport)
/// are bit-identical to its per-cycle reference kernel's.
///
/// [`WatchdogConfig::stall_epochs`] consecutive epochs with zero progress —
/// or the same number of consecutive identical state digests (queue depths,
/// lane states, suspect sets) — classifies the run as
/// [`TerminationReason::Livelock`](crate::TerminationReason::Livelock).
/// Optional deterministic budgets (max epochs, max preventive actions) yield
/// [`TerminationReason::BudgetExceeded`](crate::TerminationReason::BudgetExceeded)
/// instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Master switch. When off, runs keep the historical behaviour (burn to
    /// `max_dram_cycles` on no progress).
    pub enabled: bool,
    /// Epoch length in DRAM cycles between progress samples. `0` (the
    /// default) derives a length from the system: large enough that a
    /// quota-starved thread waiting out a full BreakHammer window is never
    /// misclassified, small enough to fire well before the cycle cutoff.
    pub epoch_cycles: u64,
    /// Consecutive zero-progress (or state-fixpoint) epochs that classify
    /// the run as livelocked.
    pub stall_epochs: u32,
    /// Deterministic budget: maximum watchdog epochs before the run is cut
    /// with `BudgetExceeded`. `0` = unlimited.
    pub max_epochs: u64,
    /// Deterministic budget: maximum preventive actions before the run is
    /// cut with `BudgetExceeded` (checked at epoch boundaries). `0` =
    /// unlimited.
    pub max_preventive_actions: u64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            enabled: true,
            epoch_cycles: 0,
            stall_epochs: 8,
            max_epochs: 0,
            max_preventive_actions: 0,
        }
    }
}

impl WatchdogConfig {
    /// Validates the watchdog configuration.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.enabled && self.stall_epochs == 0 {
            return Err("the watchdog needs at least one stall epoch (stall_epochs > 0)".into());
        }
        Ok(())
    }
}

/// Deterministic chaos injection for robustness tests: simulated faults that
/// force pathological behaviour without touching any non-deterministic
/// machinery. All fields default to "off", leaving behaviour (and the golden
/// digests) bit-for-bit unchanged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosConfig {
    /// From this DRAM cycle on, completed memory responses are dropped
    /// instead of filling the LLC: every core eventually hard-stalls behind
    /// a miss that never returns, and the system stops making progress —
    /// a deterministic, kernel-invariant livelock used to exercise the
    /// forward-progress watchdog end to end.
    pub drop_fills_after: Option<u64>,
}

/// Configuration of one simulated system.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Number of cores / hardware threads (4 in Table 1).
    pub cores: usize,
    /// Core clock frequency in GHz (4.2 in Table 1).
    pub cpu_freq_ghz: f64,
    /// Core microarchitecture parameters.
    pub core: CoreConfig,
    /// Shared LLC parameters.
    pub cache: CacheConfig,
    /// Memory-controller parameters.
    pub memctrl: MemControllerConfig,
    /// DRAM organization.
    pub geometry: DramGeometry,
    /// DRAM timing parameters.
    pub timing: TimingParams,
    /// DRAM energy parameters.
    pub energy: EnergyParams,
    /// Device-model knobs (RFM servicing, blast radius).
    pub device: DeviceConfig,
    /// RowHammer threshold the mitigation must protect against.
    pub nrh: u64,
    /// The RowHammer mitigation mechanism in use.
    pub mechanism: MechanismKind,
    /// Whether BreakHammer is attached to the mechanism.
    pub breakhammer: bool,
    /// Optional override of the BreakHammer configuration; when `None` the
    /// Table 2 defaults (scaled to this system) are used.
    pub breakhammer_config: Option<BreakHammerConfig>,
    /// Instructions each tracked core must retire before the simulation ends.
    pub instructions_per_core: u64,
    /// Hard limit on simulated DRAM cycles (safety net against pathological
    /// configurations), at most [`MAX_DRAM_CYCLES`].
    pub max_dram_cycles: u64,
    /// Seed for the probabilistic mechanisms (PARA).
    pub seed: u64,
    /// Read by nothing; part of this struct's pinned `Debug` text (see
    /// [`SchedulerKind`]).
    pub scheduler: SchedulerKind,
    /// Read by nothing; part of this struct's pinned `Debug` text (see
    /// [`FrontEndKind`]).
    pub front_end: FrontEndKind,
    /// Read by nothing; part of this struct's pinned `Debug` text (see
    /// [`ChannelStepping`]).
    pub stepping: ChannelStepping,
    /// Fault-injection model: how disturbance-threshold crossings turn into
    /// bit-flips, and the ECC scheme classifying them. The default (hard
    /// threshold, no ECC) is bit-identical to the pre-fault-model simulator.
    pub fault: FaultConfig,
    /// Forward-progress watchdog: livelock detection and deterministic run
    /// budgets (see [`WatchdogConfig`]). Never fires on healthy runs, so the
    /// default-enabled watchdog leaves all results bit-identical.
    pub watchdog: WatchdogConfig,
    /// Deterministic chaos injection for robustness tests (all off by
    /// default; see [`ChaosConfig`]).
    pub chaos: ChaosConfig,
}

impl SystemConfig {
    /// The same configuration sharded over `channels` memory channels: one
    /// memory controller and one mitigation-mechanism instance per channel,
    /// with requests distributed by the address mapping's channel-interleave
    /// policy (`memctrl.mapping.interleave`) and one shared BreakHammer
    /// observing all channels.
    ///
    /// # Panics
    /// Panics if `channels` is zero.
    pub fn with_channels(mut self, channels: usize) -> Self {
        self.geometry = self.geometry.with_channels(channels);
        self
    }

    /// The paper's simulated system (Table 1): 4 cores at 4.2 GHz, 8 MiB LLC,
    /// single-channel dual-rank DDR5 with 32 banks, FR-FCFS+Cap(4), MOP
    /// mapping — protected by `mechanism` at threshold `nrh`.
    pub fn paper_table1(mechanism: MechanismKind, nrh: u64, breakhammer: bool) -> Self {
        SystemConfig {
            cores: 4,
            cpu_freq_ghz: 4.2,
            core: CoreConfig::paper_table1(),
            cache: CacheConfig::paper_table1(),
            memctrl: MemControllerConfig::paper_table1(4),
            geometry: DramGeometry::paper_ddr5(),
            timing: TimingParams::ddr5_4800(),
            energy: EnergyParams::ddr5(),
            device: DeviceConfig::default(),
            nrh,
            mechanism,
            breakhammer,
            breakhammer_config: None,
            instructions_per_core: 1_000_000,
            max_dram_cycles: 2_000_000_000,
            seed: 0,
            scheduler: SchedulerKind::default(),
            front_end: FrontEndKind::default(),
            stepping: ChannelStepping::default(),
            fault: FaultConfig::default(),
            watchdog: WatchdogConfig::default(),
            chaos: ChaosConfig::default(),
        }
    }

    /// A scaled-down configuration for unit and integration tests: tiny DRAM
    /// geometry, shortened timings, a small LLC and a small instruction
    /// budget, so a full-system run completes in milliseconds.
    pub fn fast_test(mechanism: MechanismKind, nrh: u64, breakhammer: bool) -> Self {
        let mut cache = CacheConfig::tiny_test();
        cache.capacity_bytes = 64 * 1024;
        cache.ways = 4;
        cache.mshrs = 16;
        let mut memctrl = MemControllerConfig::paper_table1(4);
        memctrl.read_queue_capacity = 32;
        memctrl.write_queue_capacity = 32;
        memctrl.write_drain_high = 24;
        memctrl.write_drain_low = 8;
        SystemConfig {
            cores: 4,
            cpu_freq_ghz: 4.2,
            core: CoreConfig::paper_table1(),
            cache,
            memctrl,
            geometry: DramGeometry::tiny(),
            timing: TimingParams::fast_test(),
            energy: EnergyParams::ddr5(),
            device: DeviceConfig::default(),
            nrh,
            mechanism,
            breakhammer,
            breakhammer_config: None,
            instructions_per_core: 30_000,
            max_dram_cycles: 5_000_000,
            seed: 0,
            scheduler: SchedulerKind::default(),
            front_end: FrontEndKind::default(),
            stepping: ChannelStepping::default(),
            fault: FaultConfig::default(),
            watchdog: WatchdogConfig::default(),
            chaos: ChaosConfig::default(),
        }
    }

    /// The effective BreakHammer configuration for this system (the Table 2
    /// defaults, scaled to this system, unless overridden).
    ///
    /// Derived at call time from the *current* field values, so mutating
    /// `cores`, `cache.mshrs` or `timing` after construction is reflected
    /// here.
    pub fn effective_breakhammer_config(&self) -> BreakHammerConfig {
        self.breakhammer_config.clone().unwrap_or_else(|| {
            let mut config =
                BreakHammerConfig::paper_table2(&self.timing, self.cores, self.cache.mshrs);
            // Table 2's 64 ms window is ~153 M DRAM cycles. In scaled-down
            // configurations (e.g. `fast_test`, capped at 5 M cycles) not a
            // single window would complete, so suspect flags would never
            // clear and a throttled thread could never earn its quota back.
            // Cap the window at a tenth of the cycle cap, so a run that
            // reaches the cap spans at least ~10 windows and keeps the
            // identify/throttle/restore dynamics. A run that finishes its
            // instructions earlier may complete none: at quick scale the
            // window is 2.4 M cycles and an HHHA-00 run 0.19 M (ROADMAP
            // item 9). At the paper's scale (2 G-cycle cap) the 64 ms window
            // is unaffected.
            config.window_cycles = config.window_cycles.min((self.max_dram_cycles / 10).max(1));
            config
        })
    }

    /// CPU cycles elapsed per DRAM command-clock cycle.
    pub fn cpu_cycles_per_dram_cycle(&self) -> f64 {
        self.cpu_freq_ghz * 1000.0 / self.timing.clock_mhz
    }

    /// Validates the composite configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.cores == 0 {
            return Err("the system needs at least one core".to_string());
        }
        // An LLC line names the core that filled it in 15 bits.
        if self.cores > LLC_MAX_THREADS {
            return Err(format!(
                "cores = {} but the LLC serves at most {LLC_MAX_THREADS} cores",
                self.cores
            ));
        }
        if !(self.cpu_freq_ghz.is_finite() && self.cpu_freq_ghz > 0.0) {
            return Err(format!(
                "cpu_freq_ghz = {} but the CPU frequency must be positive and finite",
                self.cpu_freq_ghz
            ));
        }
        if self.instructions_per_core == 0 {
            return Err("the per-core instruction budget must be positive".to_string());
        }
        if self.max_dram_cycles > MAX_DRAM_CYCLES {
            return Err(format!(
                "max_dram_cycles = {} but a run may last at most 2^41 = {MAX_DRAM_CYCLES} DRAM \
                 cycles",
                self.max_dram_cycles
            ));
        }
        if self.memctrl.num_threads != self.cores {
            return Err(
                "the memory controller must be configured for the same thread count".to_string()
            );
        }
        if self.geometry.channels == 0 {
            return Err("the memory system needs at least one channel".to_string());
        }
        // The controller marks ranks with a due refresh in one `u64` bit each.
        if self.geometry.ranks > u64::BITS as usize {
            return Err(format!(
                "geometry.ranks = {} but a channel holds at most {} ranks",
                self.geometry.ranks,
                u64::BITS
            ));
        }
        // The address mapping and the flat bank index split with shifts.
        if let Some((field, value)) = self.geometry.non_power_of_two_dimension() {
            return Err(format!("geometry.{field} = {value} is not a power of two"));
        }
        if self.nrh < self.mechanism.min_nrh() {
            return Err(format!(
                "nrh = {} but {} needs N_RH >= {}",
                self.nrh,
                self.mechanism,
                self.mechanism.min_nrh()
            ));
        }
        // `MechanismKind::build` takes no radius: every mechanism refreshes
        // victims up to its fixed distance, so a device disturbing rows
        // farther out would flip bits the mechanism never protects.
        if self.mechanism != MechanismKind::None
            && self.device.blast_radius > MITIGATED_BLAST_RADIUS
        {
            return Err(format!(
                "device.blast_radius = {} but {} only refreshes victims within distance {}",
                self.device.blast_radius, self.mechanism, MITIGATED_BLAST_RADIUS
            ));
        }
        self.cache.validate()?;
        self.memctrl.validate()?;
        self.timing.validate()?;
        // Both frequencies are positive and finite here; the kernel's integer
        // clock needs their ratio to be a bounded dyadic fraction.
        CpuClock::from_ratio(self.cpu_cycles_per_dram_cycle())?;
        self.fault.validate()?;
        self.watchdog.validate()?;
        self.effective_breakhammer_config().validate()?;
        Ok(())
    }

    /// A one-line summary used in experiment output.
    pub fn summary(&self) -> String {
        format!(
            "{} cores @ {:.1} GHz, {} N_RH={} {}",
            self.cores,
            self.cpu_freq_ghz,
            self.mechanism,
            self.nrh,
            if self.breakhammer { "+BreakHammer" } else { "(no BreakHammer)" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_mem::MappingScheme;

    #[test]
    fn paper_configuration_matches_table1() {
        let c = SystemConfig::paper_table1(MechanismKind::Graphene, 1024, true);
        assert_eq!(c.cores, 4);
        assert!((c.cpu_freq_ghz - 4.2).abs() < 1e-9);
        assert_eq!(c.cache.capacity_bytes, 8 * 1024 * 1024);
        assert_eq!(c.cache.ways, 8);
        assert_eq!(c.geometry.banks_per_channel(), 32);
        assert_eq!(c.memctrl.frfcfs_cap, 4);
        assert_eq!(c.validate(), Ok(()));
        // ~1.75 CPU cycles per DRAM command cycle (4.2 GHz vs 2.4 GHz).
        assert!((c.cpu_cycles_per_dram_cycle() - 1.75).abs() < 1e-9);
        let bh = c.effective_breakhammer_config();
        assert_eq!(bh.threat_threshold, 32.0);
        assert_eq!(bh.outlier_threshold, 0.65);
        assert!(c.summary().contains("Graphene"));
        assert!(c.summary().contains("+BreakHammer"));
    }

    #[test]
    fn fast_test_configuration_is_valid_for_all_mechanisms() {
        for kind in MechanismKind::ALL {
            let c = SystemConfig::fast_test(kind, 256, true);
            assert_eq!(c.validate(), Ok(()), "{kind}");
        }
    }

    #[test]
    fn validation_rejects_inconsistencies() {
        let mut c = SystemConfig::fast_test(MechanismKind::None, 1024, false);
        c.cores = 0;
        assert!(c.validate().is_err());

        let mut c = SystemConfig::fast_test(MechanismKind::None, 1024, false);
        c.instructions_per_core = 0;
        assert!(c.validate().is_err());

        let mut c = SystemConfig::fast_test(MechanismKind::None, 1024, false);
        c.cores = 2; // memctrl still configured for 4 threads
        assert!(c.validate().is_err());
    }

    /// An LLC line names its owner core in 15 bits: a core count past that
    /// is a validation error, not a panic in `LastLevelCache::new`.
    #[test]
    fn validation_rejects_more_cores_than_a_line_owner_names() {
        let mut c = SystemConfig::fast_test(MechanismKind::None, 1024, false);
        c.cores = LLC_MAX_THREADS;
        c.memctrl.num_threads = c.cores;
        assert_eq!(c.validate(), Ok(()));
        c.cores = LLC_MAX_THREADS + 1;
        c.memctrl.num_threads = c.cores;
        let err = c.validate().unwrap_err();
        assert!(err.contains("cores = 32769") && err.contains("32768"), "{err}");
    }

    /// The refresh-due mask has one `u64` bit per rank: a 65th rank would
    /// alias rank 0 (release) or overflow the shift (debug).
    #[test]
    fn validation_rejects_more_ranks_than_the_refresh_mask_holds() {
        let mut c = SystemConfig::fast_test(MechanismKind::None, 1024, false);
        c.geometry.ranks = 64;
        assert_eq!(c.validate(), Ok(()));
        c.geometry.ranks = 65;
        let err = c.validate().unwrap_err();
        assert!(err.contains("geometry.ranks = 65") && err.contains("64"), "{err}");
    }

    /// A CPU frequency that is not positive and finite is an error naming
    /// the field: an infinite one would tick the cores forever in one DRAM
    /// cycle.
    #[test]
    fn validation_rejects_a_cpu_frequency_that_is_not_positive_and_finite() {
        for ghz in [0.0, -4.2, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut c = SystemConfig::fast_test(MechanismKind::None, 1024, false);
            c.cpu_freq_ghz = ghz;
            let err = c.validate().unwrap_err();
            assert!(err.starts_with(&format!("cpu_freq_ghz = {ghz} ")), "{ghz}: {err}");
        }
    }

    /// A DRAM clock that is not positive and finite is an error naming the
    /// field, not a misleading complaint about the throttling window.
    #[test]
    fn validation_rejects_a_dram_clock_that_is_not_positive_and_finite() {
        for mhz in [0.0, -2400.0, f64::NAN, f64::INFINITY] {
            let mut c = SystemConfig::fast_test(MechanismKind::None, 1024, false);
            c.timing.clock_mhz = mhz;
            let err = c.validate().unwrap_err();
            assert!(err.starts_with(&format!("clock_mhz = {mhz} ")), "{mhz}: {err}");
        }
    }

    /// One DRAM cycle ticks at most 64 CPU cycles: 102.4 GHz over a
    /// 1 600 MHz DRAM clock is the bound, 102.5 GHz and 10^12 GHz (which
    /// never returned) are past it.
    #[test]
    fn validation_rejects_a_clock_ratio_past_the_bound() {
        let mut c = SystemConfig::fast_test(MechanismKind::None, 1024, false);
        c.timing.clock_mhz = 1600.0;
        c.cpu_freq_ghz = 102.4;
        assert_eq!(c.validate(), Ok(()));
        for ghz in [102.5, 1e12] {
            c.cpu_freq_ghz = ghz;
            let err = c.validate().unwrap_err();
            assert!(err.contains("must be positive and at most 64"), "{ghz}: {err}");
        }
    }

    /// A run lasts at most 2^41 DRAM cycles, so that its CPU cycles, at up to
    /// 64 per DRAM cycle, stay below 2^47 and the clock computes in `u64`.
    #[test]
    fn validation_rejects_a_cycle_cap_past_2_pow_41() {
        let mut c = SystemConfig::fast_test(MechanismKind::None, 1024, false);
        c.timing.clock_mhz = 1600.0;
        c.cpu_freq_ghz = 102.4;
        c.max_dram_cycles = MAX_DRAM_CYCLES;
        assert_eq!(c.validate(), Ok(()));
        for cap in [MAX_DRAM_CYCLES + 1, u64::MAX] {
            c.max_dram_cycles = cap;
            let err = c.validate().unwrap_err();
            assert!(err.starts_with(&format!("max_dram_cycles = {cap} ")), "{cap}: {err}");
        }
    }

    /// The integer CPU clock holds a ratio that is a multiple of 2^-16:
    /// 4.2 GHz over DDR5-4800 (7/4) and over DDR4-3200 (21/8) are, 4.0 GHz
    /// over DDR5-4800 (5/3) and 4.2 GHz over DDR5-4000 (21/10) are not.
    #[test]
    fn validation_rejects_a_clock_ratio_the_integer_clock_cannot_hold() {
        for (ghz, mhz, exact) in
            [(4.2, 2400.0, true), (4.2, 1600.0, true), (4.0, 2400.0, false), (4.2, 2000.0, false)]
        {
            let mut c = SystemConfig::fast_test(MechanismKind::None, 1024, false);
            c.cpu_freq_ghz = ghz;
            c.timing.clock_mhz = mhz;
            match c.validate() {
                Ok(()) => assert!(exact, "{ghz} GHz over {mhz} MHz"),
                Err(err) => {
                    assert!(!exact && err.contains("not a multiple of 2^-16"), "{err}");
                }
            }
        }
    }

    /// Addresses split with shifts and masks: every per-channel dimension
    /// must be a power of two, and the error names the field. The channel
    /// count may be any count.
    #[test]
    fn validation_rejects_a_dimension_that_is_not_a_power_of_two() {
        let base = SystemConfig::fast_test(MechanismKind::None, 1024, false);
        assert_eq!(base.clone().with_channels(3).validate(), Ok(()));
        for (field, set) in [
            ("ranks", (|g, v| g.ranks = v) as fn(&mut DramGeometry, usize)),
            ("bank_groups", |g, v| g.bank_groups = v),
            ("banks_per_group", |g, v| g.banks_per_group = v),
            ("rows_per_bank", |g, v| g.rows_per_bank = v),
            ("columns_per_row", |g, v| g.columns_per_row = v),
            ("column_bytes", |g, v| g.column_bytes = v),
        ] {
            let mut c = base.clone();
            set(&mut c.geometry, 48);
            assert_eq!(
                c.validate(),
                Err(format!("geometry.{field} = 48 is not a power of two")),
                "{field}"
            );
        }
        let mut c = base;
        c.memctrl.mapping.scheme = MappingScheme::Mop { burst_lines: 6 };
        assert_eq!(c.validate(), Err("mapping burst_lines = 6 is not a power of two".into()));
    }

    /// A threshold below the mechanism's minimum is a configuration error
    /// here, not a constructor panic inside a campaign worker.
    #[test]
    fn validation_rejects_a_threshold_below_the_mechanisms_minimum() {
        for kind in MechanismKind::ALL {
            for base in [SystemConfig::paper_table1, SystemConfig::fast_test] {
                let min = kind.min_nrh();
                assert_eq!(base(kind, min, false).validate(), Ok(()), "{kind} at {min}");
                let err = base(kind, min - 1, false).validate().unwrap_err();
                assert!(
                    err.contains(kind.label()) && err.contains(&format!("N_RH >= {min}")),
                    "{err}"
                );
            }
        }
    }

    /// `MechanismKind::build` refreshes distance-1 victims only: a device
    /// that disturbs distance-2 rows would silently void every guarantee.
    #[test]
    fn validation_rejects_a_blast_radius_the_mechanisms_do_not_cover() {
        for kind in MechanismKind::ALL {
            for base in [SystemConfig::paper_table1, SystemConfig::fast_test] {
                let mut c = base(kind, 1024, false);
                assert_eq!(c.device.blast_radius, MITIGATED_BLAST_RADIUS);
                assert_eq!(c.validate(), Ok(()), "{kind}");
                c.device.blast_radius = MITIGATED_BLAST_RADIUS + 1;
                // Nothing to void without a mechanism: the baseline may
                // measure flips at any radius.
                assert_eq!(c.validate().is_err(), kind != MechanismKind::None, "{kind}");
            }
        }
        let mut c = SystemConfig::fast_test(MechanismKind::Graphene, 1024, true);
        c.device.blast_radius = 2;
        let err = c.validate().unwrap_err();
        assert!(err.contains("blast_radius = 2") && err.contains("Graphene"), "{err}");
    }
}
