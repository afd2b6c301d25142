//! TWiCe: Time Window Counters [Lee et al., ISCA 2019].
//!
//! TWiCe keeps a counter table of recently-activated rows. Entries age: every
//! pruning interval, entries whose activation count is too low to ever reach
//! the RowHammer threshold within the remaining refresh window are pruned,
//! which keeps the table small for benign access patterns. Rows whose counter
//! crosses the refresh threshold have their neighbours preventively refreshed.

use crate::action::{ActionSink, ActivationEvent};
use crate::mechanism::{ResetWindow, TriggerMechanism, MITIGATED_BLAST_RADIUS};
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
#[derive(Debug, Clone)]
pub(crate) struct Twice {
    geometry: DramGeometry,
    refresh_threshold: u64,
    /// Minimum activations per pruning interval an entry must sustain to stay
    /// in the table (the "pruning threshold rate").
    prune_rate: f64,
    prune_interval: Cycle,
    next_prune: Cycle,
    window: ResetWindow,
    tables: Vec<FlatMap<TwiceEntry>>,
    /// Reusable scratch listing the keys to prune (two-phase prune: mutate
    /// lifetimes, then delete — keeps the open-addressing iteration simple
    /// and allocation-free in the steady state).
    prune_scratch: Vec<u64>,
}

impl Twice {
    /// Creates TWiCe for the given system and RowHammer threshold `nrh`.
    pub(crate) fn new(geometry: DramGeometry, timing: &TimingParams, nrh: u64) -> Self {
        let refresh_threshold = (nrh / 4).max(1);
        let prune_interval = timing.t_refi.max(1);
        let intervals_per_window = (timing.t_refw / prune_interval).max(1);
        let prune_rate = refresh_threshold as f64 / intervals_per_window as f64;
        let banks = geometry.banks_per_channel();
        Twice {
            geometry,
            refresh_threshold,
            prune_rate,
            prune_interval,
            next_prune: prune_interval,
            window: ResetWindow::new(timing.t_refw),
            tables: (0..banks).map(|_| FlatMap::with_capacity(64)).collect(),
            prune_scratch: Vec::new(),
        }
    }

    fn maybe_prune_and_reset(&mut self, cycle: Cycle) {
        if self.window.roll(cycle) {
            self.tables.iter_mut().for_each(FlatMap::clear);
            self.next_prune = self.window.end - self.window.len + self.prune_interval;
        }
        while cycle >= self.next_prune {
            let rate = self.prune_rate;
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
            }
            self.next_prune += self.prune_interval;
        }
    }
}

impl TriggerMechanism for Twice {
    fn on_activation(&mut self, event: &ActivationEvent, sink: &mut ActionSink) {
        self.maybe_prune_and_reset(event.cycle);
        let bank = self.geometry.flat_bank(event.row.bank);
        let table = &mut self.tables[bank];
        let entry = table.or_insert(event.row.row as u64, TwiceEntry { count: 0, life: 0 });
        entry.count += 1;
        if entry.count >= self.refresh_threshold {
            table.remove(event.row.row as u64);
            sink.push_refresh_rows(self.geometry.neighbors(event.row, MITIGATED_BLAST_RADIUS));
        }
    }

    fn storage_bits(&self) -> u64 {
        // TWiCe sizes its table for the worst-case number of concurrently
        // "valid" rows: activations per pruning interval bound how many rows
        // can sustain the pruning rate.
        let row_bits = (usize::BITS - (self.geometry.rows_per_bank - 1).leading_zeros()) as u64;
        let counter_bits = 64 - self.refresh_threshold.leading_zeros() as u64 + 1;
        let life_bits = 16u64;
        let worst_entries = (self.window.len / self.prune_interval).max(1)
            * self.geometry.banks_per_channel() as u64;
        worst_entries.min(64 * 1024) * (row_bits + counter_bits + life_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::ActionView;
    use crate::mechanism::testing::{actions, event};

    fn mech(nrh: u64) -> Twice {
        Twice::new(DramGeometry::tiny(), &TimingParams::fast_test(), nrh)
    }

    /// Rows tracked across all banks.
    fn live_entries(t: &Twice) -> usize {
        t.tables.iter().map(FlatMap::len).sum()
    }

    #[test]
    fn hot_row_triggers_at_threshold() {
        let mut t = mech(64); // threshold 16
        assert_eq!(t.refresh_threshold, 16);
        let mut triggered_at = None;
        for i in 0..16u64 {
            // Keep the activations dense so pruning cannot interfere.
            let sink = actions(&mut t, &event(40, i));
            if !sink.is_empty() {
                assert_eq!(triggered_at.replace(i), None, "one trigger only");
                match sink.iter().next() {
                    Some(ActionView::RefreshRows(rows)) => {
                        assert!(rows.iter().all(|r| r.row == 39 || r.row == 41))
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        assert_eq!(triggered_at, Some(15));
    }

    #[test]
    fn cold_rows_are_pruned_over_time() {
        let timing = TimingParams::fast_test();
        let mut t = Twice::new(DramGeometry::tiny(), &timing, 4096);
        // Touch many rows once at cycle 0..100.
        for r in 0..50usize {
            actions(&mut t, &event(r, r as u64));
        }
        assert_eq!(live_entries(&t), 50);
        // Advance several pruning intervals with a single (hot-ish) row.
        for i in 0..20u64 {
            actions(&mut t, &event(100, i * timing.t_refi + 200));
        }
        let live = live_entries(&t);
        assert!(live <= 10, "live entries {live}");
    }

    #[test]
    fn window_reset_forgets_history() {
        let timing = TimingParams::fast_test();
        let mut t = Twice::new(DramGeometry::tiny(), &timing, 64);
        for i in 0..15u64 {
            assert!(actions(&mut t, &event(40, i)).is_empty());
        }
        let far = timing.t_refw + 1;
        // After the window reset the row needs a full threshold again.
        for i in 0..15u64 {
            assert!(actions(&mut t, &event(40, far + i)).is_empty(), "i={i}");
        }
        assert!(!actions(&mut t, &event(40, far + 15)).is_empty());
    }

    #[test]
    fn triggers_scale_with_hammer_count() {
        let mut t = mech(64);
        let mut sink = ActionSink::default();
        for i in 0..160u64 {
            t.on_activation(&event(40, i), &mut sink);
        }
        assert_eq!(sink.len(), 10); // 160 / 16
    }

    #[test]
    fn metadata() {
        let t = mech(1024);
        assert_eq!(t.refresh_threshold, 256);
        assert!(t.storage_bits() > 0);
    }
}
