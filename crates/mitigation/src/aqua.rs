//! AQUA: quarantine-based aggressor row migration [Saxena et al., MICRO 2022].
//!
//! AQUA tracks aggressor rows with a Misra–Gries summary (like Graphene) but
//! its preventive action is different: instead of refreshing victims, it
//! *migrates* the aggressor row's contents to a quarantine area of DRAM, so
//! subsequent activations of the (remapped) aggressor land far away from the
//! original victims. A migration is expensive — the whole row must be read
//! out and written back — which is why the paper finds AQUA has the highest
//! preventive-action cost and the worst scaling at low `N_RH` (§8.1).

use crate::action::{ActionSink, ActivationEvent};
use crate::mechanism::{ResetWindow, TriggerMechanism};
use crate::misra_gries::MisraGries;
use bh_dram::{DramGeometry, RowAddr, TimingParams};

/// Fraction of each bank's rows reserved as the quarantine area (1/16).
const QUARANTINE_FRACTION: usize = 16;

/// The AQUA mechanism.
#[derive(Debug, Clone)]
pub(crate) struct Aqua {
    geometry: DramGeometry,
    threshold: u64,
    entries_per_bank: usize,
    tables: Vec<MisraGries>,
    /// Per bank: next quarantine slot to use (round-robin within the area).
    quarantine_next: Vec<usize>,
    quarantine_rows: usize,
    window: ResetWindow,
}

impl Aqua {
    /// Creates AQUA for the given system and RowHammer threshold `nrh`.
    pub(crate) fn new(geometry: DramGeometry, timing: &TimingParams, nrh: u64) -> Self {
        let threshold = (nrh / 4).max(1);
        let max_acts_per_window = (timing.t_refw / timing.t_rc).max(1);
        let entries_per_bank = (max_acts_per_window / threshold + 1) as usize;
        let banks = geometry.banks_per_channel();
        let quarantine_rows = (geometry.rows_per_bank / QUARANTINE_FRACTION).max(1);
        Aqua {
            geometry,
            threshold,
            entries_per_bank,
            tables: (0..banks).map(|_| MisraGries::new(entries_per_bank)).collect(),
            quarantine_next: vec![0; banks],
            quarantine_rows,
            window: ResetWindow::new(timing.t_refw),
        }
    }

    /// First row index of the quarantine area (rows at or above this index are
    /// reserved).
    pub(crate) fn quarantine_base(&self) -> usize {
        self.geometry.rows_per_bank - self.quarantine_rows
    }
}

impl TriggerMechanism for Aqua {
    fn on_activation(&mut self, event: &ActivationEvent, sink: &mut ActionSink) {
        if self.window.roll(event.cycle) {
            self.tables.iter_mut().for_each(MisraGries::clear);
        }
        let bank = self.geometry.flat_bank(event.row.bank);
        // Activations inside the quarantine area are not re-quarantined.
        if event.row.row >= self.quarantine_base() {
            return;
        }
        let count = self.tables[bank].record(event.row.row);
        if count >= self.threshold {
            self.tables[bank].remove_row(event.row.row);
            let slot = self.quarantine_next[bank];
            self.quarantine_next[bank] = (slot + 1) % self.quarantine_rows;
            let dest = RowAddr { bank: event.row.bank, row: self.quarantine_base() + slot };
            sink.push_migrate(event.row, dest);
        }
    }

    fn storage_bits(&self) -> u64 {
        // Tracking table (like Graphene) plus the forward/reverse mapping
        // table entries for quarantined rows.
        let row_bits = (usize::BITS - (self.geometry.rows_per_bank - 1).leading_zeros()) as u64;
        let counter_bits = 64 - self.threshold.leading_zeros() as u64 + 1;
        let tracking = self.entries_per_bank as u64
            * (row_bits + counter_bits)
            * self.geometry.banks_per_channel() as u64;
        let mapping =
            self.quarantine_rows as u64 * 2 * row_bits * self.geometry.banks_per_channel() as u64;
        tracking + mapping
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::ActionView;
    use crate::mechanism::testing::event;

    fn mech(nrh: u64) -> Aqua {
        Aqua::new(DramGeometry::tiny(), &TimingParams::fast_test(), nrh)
    }

    /// The `(source, dest)` row migrations queued in `sink`.
    fn migrations(sink: &ActionSink) -> Vec<(RowAddr, RowAddr)> {
        sink.iter()
            .map(|action| match action {
                ActionView::MigrateRow { source, dest } => (source, dest),
                other => panic!("AQUA only migrates, got {other:?}"),
            })
            .collect()
    }

    #[test]
    fn hammering_triggers_a_migration_to_quarantine() {
        let mut a = mech(64); // threshold 16
        let mut sink = ActionSink::default();
        for i in 0..16u64 {
            a.on_activation(&event(10, i), &mut sink);
        }
        let [(source, dest)] = migrations(&sink)[..] else {
            panic!("expected one migration, got {:?}", migrations(&sink));
        };
        assert_eq!(source.row, 10);
        assert!(dest.row >= a.quarantine_base());
        assert_eq!(dest.bank, source.bank);
    }

    #[test]
    fn quarantine_slots_rotate() {
        let mut a = mech(64);
        let mut sink = ActionSink::default();
        for round in 0..3u64 {
            for i in 0..16u64 {
                a.on_activation(&event(10 + round as usize, round * 100 + i), &mut sink);
            }
        }
        let dests: Vec<usize> = migrations(&sink).iter().map(|(_, dest)| dest.row).collect();
        assert_eq!(dests.len(), 3);
        assert_eq!(dests[1], dests[0] + 1);
        assert_eq!(dests[2], dests[0] + 2);
    }

    #[test]
    fn quarantined_rows_are_not_requarantined() {
        let mut a = mech(64);
        let qrow = a.quarantine_base() + 1;
        let mut sink = ActionSink::default();
        for i in 0..200u64 {
            a.on_activation(&event(qrow, i), &mut sink);
        }
        assert!(sink.is_empty());
    }

    #[test]
    fn migration_resets_tracking_for_the_source_row() {
        let mut a = mech(64);
        let mut sink = ActionSink::default();
        for i in 0..64u64 {
            a.on_activation(&event(10, i), &mut sink);
        }
        // 64 activations at threshold 16 => 4 migrations (counter restarts
        // after each migration).
        assert_eq!(migrations(&sink).len(), 4);
    }

    #[test]
    fn window_reset_clears_tracking() {
        let timing = TimingParams::fast_test();
        let mut a = Aqua::new(DramGeometry::tiny(), &timing, 64);
        let mut sink = ActionSink::default();
        for i in 0..15u64 {
            a.on_activation(&event(10, i), &mut sink);
        }
        let far = timing.t_refw + 1;
        for i in 0..15u64 {
            a.on_activation(&event(10, far + i), &mut sink);
        }
        assert!(sink.is_empty());
    }

    #[test]
    fn metadata() {
        let a = mech(1024);
        assert!(a.storage_bits() > 0);
        assert!(a.quarantine_base() < DramGeometry::tiny().rows_per_bank);
    }
}
