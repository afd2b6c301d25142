//! Memory-controller configuration (Table 1 of the paper).

use crate::mapping::{AddressMapping, MappingScheme};

/// Configuration of the memory request scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct MemControllerConfig {
    /// Read request queue capacity (64 in Table 1).
    pub read_queue_capacity: usize,
    /// Write request queue capacity (64 in Table 1).
    pub write_queue_capacity: usize,
    /// FR-FCFS column-over-row reordering cap (4 in Table 1): after this many
    /// consecutive row-buffer hits are served from a bank while older requests
    /// wait, the oldest request is prioritised.
    pub frfcfs_cap: u32,
    /// Write-queue occupancy at which the controller switches to draining
    /// writes.
    pub write_drain_high: usize,
    /// Write-queue occupancy at which the controller switches back to reads.
    pub write_drain_low: usize,
    /// Address-mapping scheme (MOP in Table 1).
    pub mapping: AddressMapping,
    /// Number of hardware threads (for per-thread statistics).
    pub num_threads: usize,
}

impl MemControllerConfig {
    /// The paper's Table 1 configuration for `num_threads` hardware threads.
    pub fn paper_table1(num_threads: usize) -> Self {
        MemControllerConfig {
            read_queue_capacity: 64,
            write_queue_capacity: 64,
            frfcfs_cap: 4,
            write_drain_high: 48,
            write_drain_low: 16,
            mapping: AddressMapping::paper_default(),
            num_threads,
        }
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.read_queue_capacity == 0 || self.write_queue_capacity == 0 {
            return Err("request queues must be non-empty".to_string());
        }
        if self.write_drain_low >= self.write_drain_high {
            return Err("write drain low watermark must be below the high watermark".to_string());
        }
        if self.write_drain_high > self.write_queue_capacity {
            return Err("write drain high watermark exceeds the write queue capacity".to_string());
        }
        if self.num_threads == 0 {
            return Err("need at least one hardware thread".to_string());
        }
        if self.frfcfs_cap == 0 {
            return Err("the FR-FCFS cap must be at least 1".to_string());
        }
        let MappingScheme::Mop { burst_lines } = self.mapping.scheme;
        if !burst_lines.is_power_of_two() {
            return Err(format!("mapping burst_lines = {burst_lines} is not a power of two"));
        }
        Ok(())
    }
}

impl Default for MemControllerConfig {
    fn default() -> Self {
        MemControllerConfig::paper_table1(4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_table1() {
        let c = MemControllerConfig::paper_table1(4);
        assert_eq!(c.read_queue_capacity, 64);
        assert_eq!(c.write_queue_capacity, 64);
        assert_eq!(c.frfcfs_cap, 4);
        assert_eq!(c.mapping.scheme, MappingScheme::Mop { burst_lines: 4 });
        assert_eq!(c.validate(), Ok(()));
        assert_eq!(MemControllerConfig::default(), c);
    }

    #[test]
    fn validation_rejects_inconsistent_watermarks() {
        let mut c = MemControllerConfig::paper_table1(4);
        c.write_drain_low = 50;
        c.write_drain_high = 40;
        assert!(c.validate().is_err());

        let mut c = MemControllerConfig::paper_table1(4);
        c.write_drain_high = 1000;
        assert!(c.validate().is_err());

        let mut c = MemControllerConfig::paper_table1(4);
        c.read_queue_capacity = 0;
        assert!(c.validate().is_err());

        let mut c = MemControllerConfig::paper_table1(4);
        c.num_threads = 0;
        assert!(c.validate().is_err());

        let mut c = MemControllerConfig::paper_table1(4);
        c.frfcfs_cap = 0;
        assert!(c.validate().is_err());

        let mut c = MemControllerConfig::paper_table1(4);
        c.mapping.scheme = MappingScheme::Mop { burst_lines: 3 };
        assert_eq!(c.validate(), Err("mapping burst_lines = 3 is not a power of two".into()));
    }
}
