//! BreakHammer configuration (Table 2 of the paper).

use bh_dram::{Cycle, TimingParams};

/// Configuration parameters of BreakHammer.
///
/// The defaults reproduce Table 2: a 64 ms throttling window, a threat
/// threshold of 32, an outlier threshold of 0.65, and quota-reduction
/// constants `P_oldsuspect = 1` and `P_newsuspect = 10`.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakHammerConfig {
    /// Length of one throttling window in DRAM cycles (`TH_window`, 64 ms).
    pub window_cycles: Cycle,
    /// Minimum RowHammer-preventive score for a thread to be considered a
    /// potential suspect (`TH_threat`).
    pub threat_threshold: f64,
    /// Maximum allowed divergence from the mean score before a thread is
    /// marked suspect (`TH_outlier`).
    pub outlier_threshold: f64,
    /// Quota reduction (in cache-miss buffers) applied per window while a
    /// thread *remains* a suspect (`P_oldsuspect`).
    pub old_suspect_penalty: usize,
    /// Quota divisor applied when a thread *becomes* a suspect
    /// (`P_newsuspect`).
    pub new_suspect_divisor: usize,
    /// Number of hardware threads BreakHammer tracks.
    pub num_threads: usize,
    /// Total number of last-level-cache miss buffers (MSHRs) in the system;
    /// an unthrottled thread may use all of them.
    pub total_mshrs: usize,
}

impl BreakHammerConfig {
    /// The configuration of Table 2 for a quad-core system with `total_mshrs`
    /// LLC miss buffers, using `timing` to convert the 64 ms window to cycles.
    pub fn paper_table2(timing: &TimingParams, num_threads: usize, total_mshrs: usize) -> Self {
        BreakHammerConfig {
            window_cycles: timing.ms_to_cycles(64.0),
            threat_threshold: 32.0,
            outlier_threshold: 0.65,
            old_suspect_penalty: 1,
            new_suspect_divisor: 10,
            num_threads,
            total_mshrs,
        }
    }

    /// A configuration with a short window and low thresholds, used by unit
    /// tests so suspect identification can be exercised quickly.
    pub fn fast_test(num_threads: usize, total_mshrs: usize) -> Self {
        BreakHammerConfig {
            window_cycles: 10_000,
            threat_threshold: 4.0,
            outlier_threshold: 0.65,
            old_suspect_penalty: 1,
            new_suspect_divisor: 10,
            num_threads,
            total_mshrs,
        }
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.window_cycles == 0 {
            return Err("throttling window must be non-empty".to_string());
        }
        if self.num_threads == 0 {
            return Err("BreakHammer needs at least one hardware thread".to_string());
        }
        if self.total_mshrs == 0 {
            return Err("the system must have at least one cache-miss buffer".to_string());
        }
        if self.new_suspect_divisor < 2 {
            return Err("P_newsuspect must be at least 2 (it divides the quota)".to_string());
        }
        if !(self.outlier_threshold.is_finite() && self.outlier_threshold >= 0.0) {
            return Err("TH_outlier must be a non-negative finite number".to_string());
        }
        if !(self.threat_threshold.is_finite() && self.threat_threshold >= 0.0) {
            return Err("TH_threat must be a non-negative finite number".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_table2_values() {
        let t = TimingParams::ddr5_4800();
        let c = BreakHammerConfig::paper_table2(&t, 4, 64);
        assert_eq!(c.threat_threshold, 32.0);
        assert_eq!(c.outlier_threshold, 0.65);
        assert_eq!(c.old_suspect_penalty, 1);
        assert_eq!(c.new_suspect_divisor, 10);
        assert_eq!(c.num_threads, 4);
        assert_eq!(c.total_mshrs, 64);
        // 64 ms window at 2400 MHz command clock.
        assert!((t.cycles_to_ns(c.window_cycles) / 1_000_000.0 - 64.0).abs() < 0.01);
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn validation_catches_bad_configs() {
        let t = TimingParams::ddr5_4800();
        let ok = BreakHammerConfig::paper_table2(&t, 4, 64);

        let mut c = ok.clone();
        c.window_cycles = 0;
        assert!(c.validate().is_err());

        let mut c = ok.clone();
        c.num_threads = 0;
        assert!(c.validate().is_err());

        let mut c = ok.clone();
        c.total_mshrs = 0;
        assert!(c.validate().is_err());

        let mut c = ok.clone();
        c.new_suspect_divisor = 1;
        assert!(c.validate().is_err());

        let mut c = ok.clone();
        c.outlier_threshold = f64::NAN;
        assert!(c.validate().is_err());

        let mut c = ok;
        c.threat_threshold = -1.0;
        assert!(c.validate().is_err());
    }
}
