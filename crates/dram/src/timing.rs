//! DRAM timing parameters (DDR4-3200 and DDR5-4800 presets) and helpers to
//! convert between wall-clock time and command-clock cycles.
//!
//! All values are expressed in DRAM command-clock cycles (nCK). The presets
//! follow the JEDEC speed-bin values closely enough that the relative costs of
//! activations, column accesses, refreshes and RFM commands — which is what
//! drives every result in the paper — are faithful.

use crate::types::{Cycle, CycleDelta};

/// Complete set of timing constraints used by the device model.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingParams {
    /// DRAM command-clock frequency in MHz (data rate is twice this).
    pub clock_mhz: f64,

    // --- intra-bank row timings -------------------------------------------
    /// ACT to internal read/write delay.
    pub t_rcd: CycleDelta,
    /// PRE to ACT delay of the same bank.
    pub t_rp: CycleDelta,
    /// ACT to PRE minimum row-open time.
    pub t_ras: CycleDelta,
    /// ACT to ACT of the same bank (row cycle time); normally tRAS + tRP.
    pub t_rc: CycleDelta,
    /// Read to precharge delay.
    pub t_rtp: CycleDelta,
    /// Write recovery time (end of write burst to precharge).
    pub t_wr: CycleDelta,

    // --- column timings ----------------------------------------------------
    /// CAS latency (read command to first data beat).
    pub cl: CycleDelta,
    /// CAS write latency.
    pub cwl: CycleDelta,
    /// Burst length in beats; a column transfer occupies `burst_length / 2`
    /// command-clock cycles on the data bus.
    pub burst_length: CycleDelta,
    /// Column-to-column delay, same bank group.
    pub t_ccd_l: CycleDelta,
    /// Column-to-column delay, different bank group.
    pub t_ccd_s: CycleDelta,
    /// Write-to-read turnaround, same bank group.
    pub t_wtr_l: CycleDelta,
    /// Write-to-read turnaround, different bank group.
    pub t_wtr_s: CycleDelta,

    // --- inter-bank activation timings -------------------------------------
    /// ACT to ACT delay, same bank group.
    pub t_rrd_l: CycleDelta,
    /// ACT to ACT delay, different bank group.
    pub t_rrd_s: CycleDelta,
    /// Four-activation window per rank.
    pub t_faw: CycleDelta,

    // --- refresh ------------------------------------------------------------
    /// All-bank refresh cycle time (command blocks the rank for this long).
    pub t_rfc: CycleDelta,
    /// Same-bank refresh cycle time.
    pub t_rfc_sb: CycleDelta,
    /// Average refresh interval (one REF per tREFI keeps the retention
    /// guarantee).
    pub t_refi: CycleDelta,
    /// Refresh window: every row is refreshed once per tREFW.
    pub t_refw: CycleDelta,
    /// Refresh-management command cycle time (RFM blocks the rank/bank).
    pub t_rfm: CycleDelta,
}

impl TimingParams {
    /// DDR5-4800 preset (2400 MHz command clock), matching Table 1.
    pub fn ddr5_4800() -> Self {
        let clock_mhz = 2400.0;
        let ns = |n: f64| -> CycleDelta { (n * clock_mhz / 1000.0).ceil() as CycleDelta };
        TimingParams {
            clock_mhz,
            t_rcd: ns(16.0), // ~38 nCK
            t_rp: ns(16.0),  // ~39 nCK
            t_ras: ns(32.0), // ~77 nCK
            t_rc: ns(48.0),  // ~116 nCK
            t_rtp: ns(7.5),
            t_wr: ns(30.0),
            cl: 40,
            cwl: 38,
            burst_length: 16,
            t_ccd_l: 16,
            t_ccd_s: 8,
            t_wtr_l: 24,
            t_wtr_s: 8,
            t_rrd_l: 12,
            t_rrd_s: 8,
            t_faw: 32,
            t_rfc: ns(295.0),
            t_rfc_sb: ns(130.0),
            t_refi: ns(3900.0),       // 3.9 us
            t_refw: ns(32_000_000.0), // 32 ms
            t_rfm: ns(195.0),
        }
    }

    /// DDR4-3200 preset (1600 MHz command clock).
    pub fn ddr4_3200() -> Self {
        let clock_mhz = 1600.0;
        let ns = |n: f64| -> CycleDelta { (n * clock_mhz / 1000.0).ceil() as CycleDelta };
        TimingParams {
            clock_mhz,
            t_rcd: ns(13.75),
            t_rp: ns(13.75),
            t_ras: ns(32.0),
            t_rc: ns(45.75),
            t_rtp: ns(7.5),
            t_wr: ns(15.0),
            cl: 22,
            cwl: 16,
            burst_length: 8,
            t_ccd_l: 8,
            t_ccd_s: 4,
            t_wtr_l: 12,
            t_wtr_s: 4,
            t_rrd_l: 8,
            t_rrd_s: 4,
            t_faw: 34,
            t_rfc: ns(350.0),
            t_rfc_sb: ns(160.0),
            t_refi: ns(7800.0),       // 7.8 us
            t_refw: ns(64_000_000.0), // 64 ms
            t_rfm: ns(350.0),
        }
    }

    /// A heavily-shortened timing set for unit tests: same constraint
    /// structure, tiny refresh windows, so tests touching the refresh path run
    /// in microseconds of simulated time.
    pub fn fast_test() -> Self {
        TimingParams {
            clock_mhz: 2400.0,
            t_rcd: 4,
            t_rp: 4,
            t_ras: 8,
            t_rc: 12,
            t_rtp: 2,
            t_wr: 4,
            cl: 4,
            cwl: 3,
            burst_length: 8,
            t_ccd_l: 4,
            t_ccd_s: 2,
            t_wtr_l: 4,
            t_wtr_s: 2,
            t_rrd_l: 3,
            t_rrd_s: 2,
            t_faw: 8,
            t_rfc: 32,
            t_rfc_sb: 16,
            t_refi: 256,
            t_refw: 256 * 64,
            t_rfm: 16,
        }
    }

    /// Picoseconds per command-clock cycle.
    pub(crate) fn tck_ps(&self) -> f64 {
        1_000_000.0 / self.clock_mhz
    }

    /// Converts a number of command-clock cycles to nanoseconds.
    pub fn cycles_to_ns(&self, cycles: Cycle) -> f64 {
        cycles as f64 * self.tck_ps() / 1000.0
    }

    /// Converts nanoseconds to command-clock cycles, rounding up.
    pub(crate) fn ns_to_cycles(&self, ns: f64) -> CycleDelta {
        (ns * self.clock_mhz / 1000.0).ceil() as CycleDelta
    }

    /// Converts milliseconds to command-clock cycles, rounding up.
    pub fn ms_to_cycles(&self, ms: f64) -> CycleDelta {
        self.ns_to_cycles(ms * 1_000_000.0)
    }

    /// Number of data-bus cycles occupied by one burst (BL/2).
    pub(crate) fn burst_cycles(&self) -> CycleDelta {
        self.burst_length / 2
    }

    /// Read latency from command issue to the last data beat.
    pub fn read_latency(&self) -> CycleDelta {
        self.cl + self.burst_cycles()
    }

    /// Write latency from command issue to the last data beat.
    pub(crate) fn write_latency(&self) -> CycleDelta {
        self.cwl + self.burst_cycles()
    }

    /// Number of all-bank REF commands needed per refresh window.
    pub(crate) fn refreshes_per_window(&self) -> u64 {
        (self.t_refw / self.t_refi).max(1)
    }

    /// Applies a mitigation-supplied timing adjustment (e.g. REGA inflates the
    /// row-precharge/row-cycle time to hide refresh-generating activations).
    pub fn with_adjustment(mut self, adj: &TimingAdjustment) -> Self {
        self.t_rp += adj.extra_t_rp;
        self.t_ras += adj.extra_t_ras;
        self.t_rc += adj.extra_t_rp + adj.extra_t_ras;
        self.t_rfc += adj.extra_t_rfc;
        self
    }

    /// Basic sanity checks tying the derived constraints together.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.clock_mhz.is_finite() && self.clock_mhz > 0.0) {
            return Err(format!(
                "clock_mhz = {} but the DRAM clock must be positive and finite",
                self.clock_mhz
            ));
        }
        if self.t_rc < self.t_ras + self.t_rp {
            return Err(format!(
                "tRC ({}) must cover tRAS ({}) + tRP ({})",
                self.t_rc, self.t_ras, self.t_rp
            ));
        }
        if self.t_ccd_l < self.t_ccd_s {
            return Err("tCCD_L must be >= tCCD_S".to_string());
        }
        if self.t_rrd_l < self.t_rrd_s {
            return Err("tRRD_L must be >= tRRD_S".to_string());
        }
        if self.t_refw < self.t_refi {
            return Err("tREFW must be >= tREFI".to_string());
        }
        if !self.burst_length.is_multiple_of(2) {
            return Err("burst length must be even".to_string());
        }
        Ok(())
    }
}

impl Default for TimingParams {
    fn default() -> Self {
        TimingParams::ddr5_4800()
    }
}

/// Additive timing adjustment supplied by a mitigation mechanism (used by
/// REGA, which lengthens the row cycle so refresh-generating activations can
/// run in parallel with normal accesses).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimingAdjustment {
    /// Extra cycles added to tRP.
    pub extra_t_rp: CycleDelta,
    /// Extra cycles added to tRAS.
    pub extra_t_ras: CycleDelta,
    /// Extra cycles added to tRFC.
    pub extra_t_rfc: CycleDelta,
}

impl TimingAdjustment {
    /// The identity adjustment (no change).
    pub fn none() -> Self {
        TimingAdjustment::default()
    }

    /// True if this adjustment changes nothing.
    pub fn is_none(&self) -> bool {
        *self == TimingAdjustment::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        assert_eq!(TimingParams::ddr5_4800().validate(), Ok(()));
        assert_eq!(TimingParams::ddr4_3200().validate(), Ok(()));
        assert_eq!(TimingParams::fast_test().validate(), Ok(()));
    }

    #[test]
    fn ddr5_paper_quantities() {
        let t = TimingParams::ddr5_4800();
        // tREFI of 3.9us at 2400MHz command clock
        assert!((t.cycles_to_ns(t.t_refi) - 3900.0).abs() < 2.0);
        // 32ms refresh window
        assert!((t.cycles_to_ns(t.t_refw) / 1_000_000.0 - 32.0).abs() < 0.01);
        // roughly 8192 REFs per window
        let refs = t.refreshes_per_window();
        assert!((8000..=8400).contains(&refs), "got {refs}");
        // tRRD below BreakHammer's 0.67ns pipeline latency bound (paper §6):
        // 2.5ns DDR4 / ~3.3ns DDR5 here; just check it is above 1.6ns.
        assert!(t.cycles_to_ns(t.t_rrd_s) > 1.6);
    }

    #[test]
    fn ddr4_refresh_window_is_64ms() {
        let t = TimingParams::ddr4_3200();
        assert!((t.cycles_to_ns(t.t_refw) / 1_000_000.0 - 64.0).abs() < 0.01);
        assert!((t.cycles_to_ns(t.t_refi) - 7800.0).abs() < 2.0);
    }

    #[test]
    fn conversions_roundtrip() {
        let t = TimingParams::ddr5_4800();
        let cycles = t.ns_to_cycles(100.0);
        let ns = t.cycles_to_ns(cycles);
        assert!((100.0..101.0).contains(&ns));
        assert_eq!(t.ms_to_cycles(1.0), t.ns_to_cycles(1_000_000.0));
    }

    #[test]
    fn latencies_compose() {
        let t = TimingParams::ddr5_4800();
        assert_eq!(t.read_latency(), t.cl + t.burst_length / 2);
        assert_eq!(t.write_latency(), t.cwl + t.burst_length / 2);
        assert_eq!(t.burst_cycles(), 8);
    }

    #[test]
    fn adjustment_inflates_row_cycle() {
        let base = TimingParams::fast_test();
        let adj = TimingAdjustment { extra_t_rp: 3, extra_t_ras: 5, extra_t_rfc: 0 };
        let adjusted = base.clone().with_adjustment(&adj);
        assert_eq!(adjusted.t_rp, base.t_rp + 3);
        assert_eq!(adjusted.t_ras, base.t_ras + 5);
        assert_eq!(adjusted.t_rc, base.t_rc + 8);
        assert_eq!(adjusted.validate(), Ok(()));
        assert!(TimingAdjustment::none().is_none());
        assert!(!adj.is_none());
    }

    #[test]
    fn validation_rejects_inconsistent_sets() {
        let mut t = TimingParams::fast_test();
        t.t_rc = 1;
        assert!(t.validate().is_err());

        let mut t = TimingParams::fast_test();
        t.t_ccd_s = t.t_ccd_l + 1;
        assert!(t.validate().is_err());

        let mut t = TimingParams::fast_test();
        t.t_refw = t.t_refi - 1;
        assert!(t.validate().is_err());

        let mut t = TimingParams::fast_test();
        t.burst_length = 7;
        assert!(t.validate().is_err());

        for mhz in [0.0, -2400.0, f64::NAN, f64::INFINITY] {
            let mut t = TimingParams::fast_test();
            t.clock_mhz = mhz;
            assert!(t.validate().unwrap_err().starts_with("clock_mhz = "), "{mhz}");
        }
    }
}
