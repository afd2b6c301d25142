//! TWiCe: Time Window Counters [Lee et al., ISCA 2019].
//!
//! TWiCe keeps a counter table of recently-activated rows. Entries age: every
//! pruning interval, entries whose activation count is too low to ever reach
//! the RowHammer threshold within the remaining refresh window are pruned,
//! which keeps the table small for benign access patterns. Rows whose counter
//! crosses the refresh threshold have their neighbours preventively refreshed.

use crate::action::{ActionSink, ActivationEvent};
use crate::mechanism::{MechanismKind, TriggerMechanism};
use bh_dram::{Cycle, DramGeometry, FlatMap, TimingParams};

/// One TWiCe table entry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct TwiceEntry {
    /// Activations observed for the row in the current window.
    count: u64,
    /// Number of pruning intervals the entry has lived through.
    life: u64,
}

/// The TWiCe mechanism.
#[derive(Debug)]
pub struct Twice {
    geometry: DramGeometry,
    blast_radius: usize,
    refresh_threshold: u64,
    /// Minimum activations per pruning interval an entry must sustain to stay
    /// in the table (the "pruning threshold rate").
    prune_rate: f64,
    prune_interval: Cycle,
    next_prune: Cycle,
    window_cycles: Cycle,
    window_end: Cycle,
    tables: Vec<FlatMap<TwiceEntry>>,
    /// Live entries across all banks (maintained incrementally so the
    /// per-activation peak update is O(1) instead of a per-bank sum).
    live_entries: usize,
    /// Reusable scratch listing the keys to prune (two-phase prune: mutate
    /// lifetimes, then delete — keeps the open-addressing iteration simple
    /// and allocation-free in the steady state).
    prune_scratch: Vec<u64>,
    triggers: u64,
    pruned_entries: u64,
    peak_entries: usize,
}

impl Twice {
    /// Creates TWiCe for the given system and RowHammer threshold `nrh`.
    ///
    /// # Panics
    /// Panics if `nrh` is below [`MechanismKind::min_nrh`] or `blast_radius` is zero.
    pub(crate) fn new(
        geometry: DramGeometry,
        timing: &TimingParams,
        nrh: u64,
        blast_radius: usize,
    ) -> Self {
        assert!(nrh >= MechanismKind::Twice.min_nrh(), "N_RH below the registry's minimum");
        assert!(blast_radius > 0, "blast radius must be positive");
        let refresh_threshold = (nrh / 4).max(1);
        let window_cycles = timing.t_refw;
        let prune_interval = timing.t_refi.max(1);
        let intervals_per_window = (window_cycles / prune_interval).max(1);
        let prune_rate = refresh_threshold as f64 / intervals_per_window as f64;
        let banks = geometry.banks_per_channel();
        Twice {
            geometry,
            blast_radius,
            refresh_threshold,
            prune_rate,
            prune_interval,
            next_prune: prune_interval,
            window_cycles,
            window_end: window_cycles,
            tables: (0..banks).map(|_| FlatMap::with_capacity(64)).collect(),
            live_entries: 0,
            prune_scratch: Vec::new(),
            triggers: 0,
            pruned_entries: 0,
            peak_entries: 0,
        }
    }

    fn maybe_prune_and_reset(&mut self, cycle: Cycle) {
        if cycle >= self.window_end {
            for t in &mut self.tables {
                t.clear();
            }
            self.live_entries = 0;
            while cycle >= self.window_end {
                self.window_end += self.window_cycles;
            }
            self.next_prune = self.window_end - self.window_cycles + self.prune_interval;
        }
        while cycle >= self.next_prune {
            let rate = self.prune_rate;
            let mut pruned = 0u64;
            for t in &mut self.tables {
                self.prune_scratch.clear();
                let scratch = &mut self.prune_scratch;
                t.for_each_mut(|row, e| {
                    e.life += 1;
                    // Keep an entry only if it sustains the rate needed to
                    // reach the refresh threshold within the window.
                    if (e.count as f64) < rate * e.life as f64 {
                        scratch.push(row);
                    }
                });
                for i in 0..self.prune_scratch.len() {
                    t.remove(self.prune_scratch[i]);
                }
                pruned += self.prune_scratch.len() as u64;
            }
            self.live_entries -= pruned as usize;
            self.pruned_entries += pruned;
            self.next_prune += self.prune_interval;
        }
    }
}

impl TriggerMechanism for Twice {
    fn kind(&self) -> MechanismKind {
        MechanismKind::Twice
    }

    fn on_activation(&mut self, event: &ActivationEvent, sink: &mut ActionSink) {
        self.maybe_prune_and_reset(event.cycle);
        let bank = self.geometry.flat_bank(event.row.bank);
        let table = &mut self.tables[bank];
        let len_before = table.len();
        let entry = table.or_insert(event.row.row as u64, TwiceEntry { count: 0, life: 0 });
        entry.count += 1;
        let count = entry.count;
        self.live_entries += table.len() - len_before;
        self.peak_entries = self.peak_entries.max(self.live_entries);
        if count >= self.refresh_threshold {
            self.tables[bank].remove(event.row.row as u64);
            self.live_entries -= 1;
            self.triggers += 1;
            sink.push_refresh_rows(self.geometry.neighbors(event.row, self.blast_radius));
        }
    }

    fn storage_bits(&self) -> u64 {
        // TWiCe sizes its table for the worst-case number of concurrently
        // "valid" rows: activations per pruning interval bound how many rows
        // can sustain the pruning rate.
        let row_bits = (usize::BITS - (self.geometry.rows_per_bank - 1).leading_zeros()) as u64;
        let counter_bits = 64 - self.refresh_threshold.leading_zeros() as u64 + 1;
        let life_bits = 16u64;
        let worst_entries = (self.window_cycles / self.prune_interval).max(1)
            * self.geometry.banks_per_channel() as u64;
        worst_entries.min(64 * 1024) * (row_bits + counter_bits + life_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::PreventiveAction;
    use bh_dram::{BankAddr, RowAddr, ThreadId};

    fn mech(nrh: u64) -> Twice {
        Twice::new(DramGeometry::tiny(), &TimingParams::fast_test(), nrh, 1)
    }

    fn event(row: usize, cycle: u64) -> ActivationEvent {
        ActivationEvent {
            row: RowAddr { bank: BankAddr { rank: 0, bank_group: 0, bank: 0 }, row },
            thread: ThreadId(0),
            cycle,
        }
    }

    #[test]
    fn hot_row_triggers_at_threshold() {
        let mut t = mech(64); // threshold 16
        assert_eq!(t.refresh_threshold, 16);
        let mut triggered_at = None;
        for i in 0..16u64 {
            // Keep the activations dense so pruning cannot interfere.
            let acts = t.on_activation_vec(&event(40, i));
            if !acts.is_empty() {
                triggered_at = Some(i);
                match &acts[0] {
                    PreventiveAction::RefreshRows(rows) => {
                        assert!(rows.iter().all(|r| r.row == 39 || r.row == 41))
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        assert_eq!(triggered_at, Some(15));
        assert_eq!(t.triggers, 1);
    }

    #[test]
    fn cold_rows_are_pruned_over_time() {
        let timing = TimingParams::fast_test();
        let mut t = Twice::new(DramGeometry::tiny(), &timing, 4096, 1);
        // Touch many rows once at cycle 0..100.
        for r in 0..50usize {
            t.on_activation_vec(&event(r, r as u64));
        }
        assert!(t.peak_entries >= 50);
        // Advance several pruning intervals with a single (hot-ish) row.
        let mut cycle = 0;
        for i in 0..20u64 {
            cycle = i * timing.t_refi + 200;
            t.on_activation_vec(&event(100, cycle));
        }
        assert!(t.pruned_entries >= 40, "pruned {}", t.pruned_entries);
        let live: usize = t.tables.iter().map(FlatMap::len).sum();
        assert!(live < 50, "live entries {live}");
        let _ = cycle;
    }

    #[test]
    fn window_reset_forgets_history() {
        let timing = TimingParams::fast_test();
        let mut t = Twice::new(DramGeometry::tiny(), &timing, 64, 1);
        for i in 0..15u64 {
            assert!(t.on_activation_vec(&event(40, i)).is_empty());
        }
        let far = timing.t_refw + 1;
        // After the window reset the row needs a full threshold again.
        for i in 0..15u64 {
            assert!(t.on_activation_vec(&event(40, far + i)).is_empty(), "i={i}");
        }
        assert!(!t.on_activation_vec(&event(40, far + 15)).is_empty());
    }

    #[test]
    fn triggers_scale_with_hammer_count() {
        let mut t = mech(64);
        let mut triggers = 0;
        for i in 0..160u64 {
            if !t.on_activation_vec(&event(40, i)).is_empty() {
                triggers += 1;
            }
        }
        assert_eq!(triggers, 10); // 160 / 16
    }

    #[test]
    fn metadata() {
        let t = mech(1024);
        assert_eq!(t.name(), "TWiCe");
        assert_eq!(t.kind(), MechanismKind::Twice);
        assert!(t.storage_bits() > 0);
    }
}
