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
use crate::mechanism::{MechanismKind, TriggerMechanism};
use crate::misra_gries::MisraGries;
use bh_dram::{Cycle, DramGeometry, RowAddr, TimingParams};

/// Fraction of each bank's rows reserved as the quarantine area (1/16).
const QUARANTINE_FRACTION: usize = 16;

/// The AQUA mechanism.
#[derive(Debug)]
pub struct Aqua {
    geometry: DramGeometry,
    threshold: u64,
    entries_per_bank: usize,
    tables: Vec<MisraGries>,
    /// Per bank: next quarantine slot to use (round-robin within the area).
    quarantine_next: Vec<usize>,
    quarantine_rows: usize,
    window_cycles: Cycle,
    window_end: Cycle,
    migrations: u64,
}

impl Aqua {
    /// Creates AQUA for the given system and RowHammer threshold `nrh`.
    ///
    /// # Panics
    /// Panics if `nrh` is below [`MechanismKind::min_nrh`].
    pub(crate) fn new(geometry: DramGeometry, timing: &TimingParams, nrh: u64) -> Self {
        assert!(nrh >= MechanismKind::Aqua.min_nrh(), "N_RH below the registry's minimum");
        let threshold = (nrh / 4).max(1);
        let window_cycles = timing.t_refw;
        let max_acts_per_window = (window_cycles / timing.t_rc).max(1);
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
            window_cycles,
            window_end: window_cycles,
            migrations: 0,
        }
    }

    /// First row index of the quarantine area (rows at or above this index are
    /// reserved).
    pub(crate) fn quarantine_base(&self) -> usize {
        self.geometry.rows_per_bank - self.quarantine_rows
    }

    fn maybe_reset_window(&mut self, cycle: Cycle) {
        if cycle >= self.window_end {
            for t in &mut self.tables {
                t.clear();
            }
            while cycle >= self.window_end {
                self.window_end += self.window_cycles;
            }
        }
    }
}

impl TriggerMechanism for Aqua {
    fn kind(&self) -> MechanismKind {
        MechanismKind::Aqua
    }

    fn on_activation(&mut self, event: &ActivationEvent, sink: &mut ActionSink) {
        self.maybe_reset_window(event.cycle);
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
            self.migrations += 1;
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
    use crate::action::PreventiveAction;
    use bh_dram::{BankAddr, ThreadId};

    fn mech(nrh: u64) -> Aqua {
        Aqua::new(DramGeometry::tiny(), &TimingParams::fast_test(), nrh)
    }

    fn event(row: usize, cycle: u64) -> ActivationEvent {
        ActivationEvent {
            row: RowAddr { bank: BankAddr { rank: 0, bank_group: 0, bank: 0 }, row },
            thread: ThreadId(0),
            cycle,
        }
    }

    #[test]
    fn hammering_triggers_a_migration_to_quarantine() {
        let mut a = mech(64); // threshold 16
        let mut migration = None;
        for i in 0..16u64 {
            let acts = a.on_activation_vec(&event(10, i));
            if !acts.is_empty() {
                migration = Some(acts[0].clone());
            }
        }
        match migration {
            Some(PreventiveAction::MigrateRow { source, dest }) => {
                assert_eq!(source.row, 10);
                assert!(dest.row >= a.quarantine_base());
                assert_eq!(dest.bank, source.bank);
            }
            other => panic!("expected a migration, got {other:?}"),
        }
        assert_eq!(a.migrations, 1);
    }

    #[test]
    fn quarantine_slots_rotate() {
        let mut a = mech(64);
        let mut dests = Vec::new();
        for round in 0..3u64 {
            for i in 0..16u64 {
                let acts = a.on_activation_vec(&event(10 + round as usize, round * 100 + i));
                for act in acts {
                    if let PreventiveAction::MigrateRow { dest, .. } = act {
                        dests.push(dest.row);
                    }
                }
            }
        }
        assert_eq!(dests.len(), 3);
        assert_eq!(dests[1], dests[0] + 1);
        assert_eq!(dests[2], dests[0] + 2);
    }

    #[test]
    fn quarantined_rows_are_not_requarantined() {
        let mut a = mech(64);
        let qrow = a.quarantine_base() + 1;
        for i in 0..200u64 {
            assert!(a.on_activation_vec(&event(qrow, i)).is_empty());
        }
        assert_eq!(a.migrations, 0);
    }

    #[test]
    fn migration_resets_tracking_for_the_source_row() {
        let mut a = mech(64);
        let mut migrations = 0;
        for i in 0..64u64 {
            for act in a.on_activation_vec(&event(10, i)) {
                if matches!(act, PreventiveAction::MigrateRow { .. }) {
                    migrations += 1;
                }
            }
        }
        // 64 activations at threshold 16 => 4 migrations (counter restarts
        // after each migration).
        assert_eq!(migrations, 4);
    }

    #[test]
    fn window_reset_clears_tracking() {
        let timing = TimingParams::fast_test();
        let mut a = Aqua::new(DramGeometry::tiny(), &timing, 64);
        for i in 0..15u64 {
            assert!(a.on_activation_vec(&event(10, i)).is_empty());
        }
        let far = timing.t_refw + 1;
        for i in 0..15u64 {
            assert!(a.on_activation_vec(&event(10, far + i)).is_empty());
        }
        assert_eq!(a.migrations, 0);
    }

    #[test]
    fn metadata() {
        let a = mech(1024);
        assert_eq!(a.name(), "AQUA");
        assert_eq!(a.kind(), MechanismKind::Aqua);
        assert!(a.storage_bits() > 0);
        assert!(a.quarantine_base() < DramGeometry::tiny().rows_per_bank);
    }
}
