//! Event-based DRAM energy model.
//!
//! The paper evaluates DRAM energy (Fig. 12) with a DRAMPower-style model on
//! top of Ramulator. Our substitute weighs the commands a channel counts in
//! its [`DramStats`] (activate/precharge pairs, column reads and writes,
//! all-bank refreshes, RFM windows and directed victim refreshes; AQUA's row
//! migrations reach it as those commands) and adds rank background power
//! integrated over simulated time. The channel reports the sum as
//! [`DramChannel::energy_nj`](crate::DramChannel::energy_nj).
//! Absolute joules differ from the authors' testbed, but the normalised
//! energy — dominated by how many preventive actions and data transfers were
//! performed — is preserved.

use crate::device::DramStats;
use crate::timing::TimingParams;

/// Per-event energies (nanojoules) and background power (milliwatts).
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyParams {
    /// Energy of one ACT + PRE pair (row cycle) in nJ.
    pub act_pre_nj: f64,
    /// Energy of one column read burst in nJ (including I/O).
    pub read_nj: f64,
    /// Energy of one column write burst in nJ (including I/O).
    pub write_nj: f64,
    /// Energy of one all-bank refresh command in nJ.
    pub refresh_nj: f64,
    /// Energy of one same-bank refresh command in nJ. Inert: the device
    /// models no REFsb, so no energy sum reads it. It stays because
    /// `SystemConfig`'s `Debug` text, which the benchmark hashes, renders it.
    pub refresh_sb_nj: f64,
    /// Energy of one refresh-management (RFM) window in nJ.
    pub rfm_nj: f64,
    /// Energy of one directed victim-row refresh in nJ.
    pub victim_refresh_nj: f64,
    /// Background (standby + peripheral) power per rank in mW.
    pub background_mw_per_rank: f64,
}

impl EnergyParams {
    /// DDR5-class per-event energies. Values are representative of a 16 Gb
    /// x8 DDR5 device; only ratios matter for the reproduced figures.
    pub fn ddr5() -> Self {
        EnergyParams {
            act_pre_nj: 2.1,
            read_nj: 1.4,
            write_nj: 1.5,
            refresh_nj: 140.0,
            refresh_sb_nj: 30.0,
            rfm_nj: 70.0,
            victim_refresh_nj: 2.1,
            background_mw_per_rank: 120.0,
        }
    }

    /// Total DRAM energy in nanojoules of the commands counted in `stats`
    /// after `elapsed_cycles` of simulated time on a system with `ranks`
    /// ranks.
    pub(crate) fn total_nj(
        &self,
        stats: &DramStats,
        timing: &TimingParams,
        elapsed_cycles: u64,
        ranks: usize,
    ) -> f64 {
        let dynamic = self.dynamic_nj(stats);
        let seconds = timing.cycles_to_ns(elapsed_cycles) * 1e-9;
        let background = self.background_mw_per_rank * 1e-3 * ranks as f64 * seconds * 1e9;
        dynamic + background
    }

    /// Dynamic (event) energy only, in nanojoules. Each ACT is charged as
    /// one ACT + PRE pair, so precharges add nothing of their own.
    pub(crate) fn dynamic_nj(&self, stats: &DramStats) -> f64 {
        stats.activates as f64 * self.act_pre_nj
            + stats.reads as f64 * self.read_nj
            + stats.writes as f64 * self.write_nj
            + stats.refreshes as f64 * self.refresh_nj
            + stats.rfm_commands as f64 * self.rfm_nj
            + stats.victim_refreshes as f64 * self.victim_refresh_nj
    }
}

impl Default for EnergyParams {
    fn default() -> Self {
        EnergyParams::ddr5()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_counters_have_only_background_energy() {
        let c = DramStats::default();
        let p = EnergyParams::ddr5();
        let t = TimingParams::ddr5_4800();
        assert_eq!(p.dynamic_nj(&c), 0.0);
        let total = p.total_nj(&c, &t, t.ns_to_cycles(1000.0), 2);
        // 2 ranks * 120mW * 1us = 240 nJ
        assert!((total - 240.0).abs() < 1.0, "got {total}");
    }

    #[test]
    fn dynamic_energy_scales_with_events() {
        let p = EnergyParams::ddr5();
        let c = DramStats {
            activates: 10,
            precharges: 10,
            reads: 5,
            writes: 3,
            refreshes: 1,
            rfm_commands: 2,
            victim_refreshes: 4,
            ..DramStats::default()
        };
        let expected = 10.0 * p.act_pre_nj
            + 5.0 * p.read_nj
            + 3.0 * p.write_nj
            + 1.0 * p.refresh_nj
            + 2.0 * p.rfm_nj
            + 4.0 * p.victim_refresh_nj;
        assert!((p.dynamic_nj(&c) - expected).abs() < 1e-9);
    }

    #[test]
    fn preventive_actions_dominate_when_abundant() {
        // Sanity check for the shape of Fig. 12: a workload with many victim
        // refreshes consumes visibly more dynamic energy than one without.
        let p = EnergyParams::ddr5();
        let quiet = DramStats { activates: 1000, reads: 1000, ..DramStats::default() };
        let hammered = DramStats { victim_refreshes: 4000, ..quiet.clone() };
        assert!(p.dynamic_nj(&hammered) > 2.0 * p.dynamic_nj(&quiet));
    }
}
