//! Per Row Activation Counting (PRAC) with back-off [JEDEC DDR5, JESD79-5c].
//!
//! PRAC stores an activation counter inside every DRAM row. When a row's
//! counter crosses the back-off threshold, the DRAM chip asserts the
//! `alert_n` signal, and the memory controller must respond by issuing a
//! predetermined number of RFM commands, during which the chip preventively
//! refreshes the endangered victims. Because counting is exact and per-row,
//! PRAC triggers very few preventive actions for benign workloads at high
//! `N_RH` — but an attacker can still force frequent back-offs, which is the
//! behaviour BreakHammer exploits to identify and throttle the attacker.

use crate::action::{ActionSink, ActivationEvent};
use crate::mechanism::TriggerMechanism;
use bh_dram::{DramGeometry, PagedRows};

/// RFM commands the controller issues in response to one alert.
const RFMS_PER_ALERT: usize = 1;

/// The PRAC mechanism.
#[derive(Debug, Clone)]
pub(crate) struct Prac {
    geometry: DramGeometry,
    backoff_threshold: u64,
    /// Per-row in-DRAM activation counters, indexed by
    /// `flat_bank * rows_per_bank + row` — mirroring PRAC's actual storage
    /// (one counter per DRAM row) while the per-activation update stays a
    /// page-table load and an increment. Only pages holding activated rows
    /// are allocated.
    row_counts: PagedRows,
}

impl Prac {
    /// Creates PRAC for RowHammer threshold `nrh`.
    ///
    /// # Panics
    /// Panics if the back-off threshold `nrh / 2` does not fit a `u32` counter.
    pub(crate) fn new(geometry: DramGeometry, nrh: u64) -> Self {
        // Back-off asserted at half the threshold, leaving the chip time to
        // refresh the victims before bitflips become possible.
        let backoff_threshold = (nrh / 2).max(2);
        assert!(backoff_threshold < u64::from(u32::MAX), "back-off threshold must fit in a u32");
        let row_counts = PagedRows::new(geometry.rows_per_channel());
        Prac { geometry, backoff_threshold, row_counts }
    }

    /// See [`crate::Mechanism::resident_pages`].
    pub(crate) fn resident_pages(&self) -> usize {
        self.row_counts.resident_pages()
    }
}

impl TriggerMechanism for Prac {
    fn on_activation(&mut self, event: &ActivationEvent, sink: &mut ActionSink) {
        let bank = self.geometry.flat_bank(event.row.bank);
        let count = self.row_counts.get_mut(bank * self.geometry.rows_per_bank + event.row.row);
        *count += 1;
        if u64::from(*count) >= self.backoff_threshold {
            *count = 0;
            for _ in 0..RFMS_PER_ALERT {
                sink.push_rfm(event.row.bank);
            }
        }
    }

    fn storage_bits(&self) -> u64 {
        // The per-row counters live inside the DRAM array; the controller only
        // needs the alert handling logic (modelled as negligible storage).
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::ActionView;
    use crate::mechanism::testing::{actions, event};

    #[test]
    fn backoff_fires_only_for_genuinely_hot_rows() {
        let mut p = Prac::new(DramGeometry::tiny(), 1024);
        assert_eq!(p.backoff_threshold, 512);
        // A benign pattern cycling over many rows never trips the per-row
        // counter even after many total activations.
        for i in 0..5000u64 {
            assert!(actions(&mut p, &event((i % 64) as usize, i)).is_empty());
        }
        // A hot row does.
        let mut sink = ActionSink::default();
        for i in 0..512u64 {
            p.on_activation(&event(7, 10_000 + i), &mut sink);
        }
        assert!(!sink.is_empty());
    }

    #[test]
    fn counter_resets_after_backoff() {
        let mut p = Prac::new(DramGeometry::tiny(), 64); // threshold 32
        let mut sink = ActionSink::default();
        for i in 0..128u64 {
            p.on_activation(&event(3, i), &mut sink);
        }
        assert_eq!(sink.len(), 4);
        assert_eq!(p.row_counts.get(3), 0, "bank 0, row 3");
    }

    #[test]
    fn alert_requests_configured_number_of_rfms() {
        let mut p = Prac::new(DramGeometry::tiny(), 64);
        for i in 0..31u64 {
            assert!(actions(&mut p, &event(5, i)).is_empty());
        }
        // The 32nd activation alerts: exactly the configured RFMs, to the bank.
        let sink = actions(&mut p, &event(5, 31));
        assert_eq!(sink.len(), RFMS_PER_ALERT);
        let bank = event(5, 31).row.bank;
        assert!(sink.iter().all(|a| a == ActionView::IssueRfm { bank }));
    }

    #[test]
    fn metadata() {
        let p = Prac::new(DramGeometry::tiny(), 256);
        assert_eq!(p.storage_bits(), 0);
    }
}
