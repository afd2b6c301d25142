//! Graphene: Misra–Gries-based aggressor-row tracking [Park et al., MICRO 2020].
//!
//! Graphene keeps, per bank, a Misra–Gries summary sized so that every row
//! activated more than its refresh threshold within one reset window is
//! guaranteed to be tracked. When a tracked row's counter crosses the
//! threshold, Graphene preventively refreshes the row's neighbours and resets
//! the counter. Tables are cleared every reset window (tREFW).

use crate::action::{ActionSink, ActivationEvent};
use crate::mechanism::{ResetWindow, TriggerMechanism, MITIGATED_BLAST_RADIUS};
use crate::misra_gries::MisraGries;
use bh_dram::{DramGeometry, TimingParams};

/// The Graphene mechanism.
#[derive(Debug, Clone)]
pub(crate) struct Graphene {
    geometry: DramGeometry,
    /// Activation count at which a tracked aggressor's victims are refreshed.
    threshold: u64,
    /// Misra–Gries table entries per bank.
    entries_per_bank: usize,
    tables: Vec<MisraGries>,
    window: ResetWindow,
}

impl Graphene {
    /// Creates Graphene for the given system and RowHammer threshold `nrh`.
    ///
    /// The refresh threshold is `N_RH / 4`, accounting for an aggressor's two
    /// neighbours and for disturbance carried across one window boundary; the
    /// table size is derived from the maximum number of activations a bank can
    /// receive within one reset window.
    pub(crate) fn new(geometry: DramGeometry, timing: &TimingParams, nrh: u64) -> Self {
        let threshold = (nrh / 4).max(1);
        let max_acts_per_window = (timing.t_refw / timing.t_rc).max(1);
        let entries_per_bank = (max_acts_per_window / threshold + 1) as usize;
        let banks = geometry.banks_per_channel();
        Graphene {
            geometry,
            threshold,
            entries_per_bank,
            tables: (0..banks).map(|_| MisraGries::new(entries_per_bank)).collect(),
            window: ResetWindow::new(timing.t_refw),
        }
    }
}

impl TriggerMechanism for Graphene {
    fn on_activation(&mut self, event: &ActivationEvent, sink: &mut ActionSink) {
        if self.window.roll(event.cycle) {
            self.tables.iter_mut().for_each(MisraGries::clear);
        }
        let bank = self.geometry.flat_bank(event.row.bank);
        let count = self.tables[bank].record(event.row.row);
        if count >= self.threshold {
            self.tables[bank].reset_row(event.row.row);
            sink.push_refresh_rows(self.geometry.neighbors(event.row, MITIGATED_BLAST_RADIUS));
        }
    }

    fn storage_bits(&self) -> u64 {
        let row_bits = (usize::BITS - (self.geometry.rows_per_bank - 1).leading_zeros()) as u64;
        let counter_bits = 64 - self.threshold.leading_zeros() as u64 + 1;
        let per_entry = row_bits + counter_bits;
        self.entries_per_bank as u64 * per_entry * self.geometry.banks_per_channel() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::ActionView;
    use crate::mechanism::testing::{actions, event};
    use bh_dram::{BankAddr, RowAddr, ThreadId};

    fn mech(nrh: u64) -> Graphene {
        Graphene::new(DramGeometry::tiny(), &TimingParams::fast_test(), nrh)
    }

    #[test]
    fn refreshes_exactly_at_threshold() {
        let mut g = mech(64); // threshold 16
        assert_eq!(g.threshold, 16);
        for i in 0..15 {
            assert!(
                actions(&mut g, &event(30, i)).is_empty(),
                "no trigger before threshold (i={i})"
            );
        }
        let sink = actions(&mut g, &event(30, 15));
        let views: Vec<_> = sink.iter().collect();
        let [ActionView::RefreshRows([below, above])] = views[..] else {
            panic!("expected one two-row refresh, got {views:?}");
        };
        assert_eq!((below.row, above.row), (29, 31));
    }

    #[test]
    fn counter_resets_after_trigger_so_attack_needs_threshold_again() {
        let mut g = mech(64);
        let mut sink = ActionSink::default();
        for i in 0..64u64 {
            g.on_activation(&event(30, i), &mut sink);
        }
        // 64 activations at threshold 16 => 4 triggers.
        assert_eq!(sink.len(), 4);
    }

    #[test]
    fn tables_are_per_bank() {
        let mut g = mech(64);
        let other_bank = RowAddr { bank: BankAddr { rank: 1, bank_group: 1, bank: 1 }, row: 30 };
        // 15 activations in bank A, 15 in bank B: no trigger in either.
        for i in 0..15u64 {
            assert!(actions(&mut g, &event(30, i)).is_empty());
            let ev = ActivationEvent { row: other_bank, thread: ThreadId(1), cycle: i };
            assert!(actions(&mut g, &ev).is_empty());
        }
    }

    #[test]
    fn window_reset_clears_counters() {
        let timing = TimingParams::fast_test();
        let mut g = Graphene::new(DramGeometry::tiny(), &timing, 64);
        for i in 0..15u64 {
            assert!(actions(&mut g, &event(30, i)).is_empty());
        }
        // Jump past the reset window: the accumulated count is gone.
        let far = timing.t_refw + 10;
        assert!(actions(&mut g, &event(30, far)).is_empty());
        for i in 1..15u64 {
            assert!(actions(&mut g, &event(30, far + i)).is_empty(), "i={i}");
        }
        // The 16th activation after the reset triggers again.
        assert!(!actions(&mut g, &event(30, far + 20)).is_empty());
    }

    #[test]
    fn table_size_grows_as_nrh_decreases() {
        let big = mech(4096);
        let small = mech(64);
        assert!(small.entries_per_bank > big.entries_per_bank);
        assert!(small.storage_bits() > big.storage_bits());
    }

    #[test]
    fn aggressor_never_exceeds_four_times_threshold_untracked() {
        // Misra-Gries + threshold guarantee: with heavy background noise the
        // hot row still triggers a refresh at most every `threshold`
        // activations (within the spillover error bound).
        let mut g = mech(256); // threshold 64
        let mut hot_since_refresh = 0u64;
        let mut worst = 0u64;
        for i in 0..30_000u64 {
            // Background noise over many rows.
            let noise_row = 2 + (i as usize % 100);
            actions(&mut g, &event(noise_row, i));
            // Hot aggressor row 1 every other activation.
            hot_since_refresh += 1;
            if !actions(&mut g, &event(1, i)).is_empty() {
                worst = worst.max(hot_since_refresh);
                hot_since_refresh = 0;
            }
        }
        assert!(worst > 0, "the hot row must have triggered refreshes");
        // The hot row is never hammered more than threshold + spillover slack
        // between consecutive preventive refreshes; allow 2x margin.
        assert!(worst <= 2 * g.threshold, "worst gap {worst}");
    }

    #[test]
    fn metadata() {
        let g = mech(1024);
        assert_eq!(g.threshold, 256);
        assert!(g.storage_bits() > 0);
    }
}
