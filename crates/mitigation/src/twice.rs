//! TWiCe: Time Window Counters [Lee et al., ISCA 2019].
//!
//! TWiCe keeps a per-bank table of recently activated rows. A row whose
//! counter reaches the refresh threshold has its neighbours preventively
//! refreshed. An entry whose count falls below `prune_rate` activations per
//! tREFI lived is pruned, so a row that comes back after going cold needs the
//! full threshold again. Tables are cleared every reset window (tREFW).
//!
//! The hardware sweeps its table every tREFI; here a prune is decided when
//! the row comes back. A count changes only on its row's activation and the
//! bound `prune_rate × intervals lived` only grows, so some sweep since then
//! would have pruned the entry exactly when the bound at the current interval
//! exceeds the count (`lazy_prune_matches_the_eager_sweep` checks this against
//! the sweep). The cost is memory: a stale entry keeps its slot until its row
//! returns or the window rolls. At benchmark run lengths a sweep prunes
//! almost nothing (at N_RH 64 a row activated once lives ~513 tREFI); at
//! reference scale it prunes 381–51 482 entries a cell, which stay here.

use crate::action::{ActionSink, ActivationEvent};
use crate::mechanism::{ResetWindow, TriggerMechanism, MITIGATED_BLAST_RADIUS};
use bh_dram::{Cycle, DramGeometry, FlatMap, TimingParams};

/// One TWiCe table entry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct TwiceEntry {
    /// Activations observed for the row since the entry was (re)inserted.
    count: u64,
    /// Pruning intervals of the current window that had ended when the entry
    /// was (re)inserted.
    born: u64,
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
    window: ResetWindow,
    /// Row → entry, one table per bank. Stale entries stay until their row
    /// returns or the window rolls (see the module docs).
    tables: Vec<FlatMap<TwiceEntry>>,
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
            window: ResetWindow::new(timing.t_refw),
            tables: (0..banks).map(|_| FlatMap::with_capacity(64)).collect(),
        }
    }
}

impl TriggerMechanism for Twice {
    fn on_activation(&mut self, event: &ActivationEvent, sink: &mut ActionSink) {
        if self.window.roll(event.cycle) {
            self.tables.iter_mut().for_each(FlatMap::clear);
        }
        // Pruning intervals of this window that have ended.
        let now = (event.cycle - (self.window.end - self.window.len)) / self.prune_interval;
        let bank = self.geometry.flat_bank(event.row.bank);
        let table = &mut self.tables[bank];
        let fresh = TwiceEntry { count: 0, born: now };
        let entry = table.or_insert(event.row.row as u64, fresh);
        debug_assert!(now >= entry.born, "activation cycles went backwards");
        // The sweep's test at the latest interval: it fails first there.
        if (entry.count as f64) < self.prune_rate * (now - entry.born) as f64 {
            *entry = fresh;
        }
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

/// The sweep TWiCe's hardware runs, kept as the executable reference: every
/// tREFI it ages each entry of every bank's table and prunes those that fell
/// below the rate. `lazy_prune_matches_the_eager_sweep` drives it in lockstep
/// with [`Twice`].
#[cfg(test)]
pub(crate) mod reference {
    use crate::action::{ActionSink, ActivationEvent};
    use crate::mechanism::{ResetWindow, MITIGATED_BLAST_RADIUS};
    use bh_dram::{Cycle, DramGeometry, FlatMap, TimingParams};

    #[derive(Debug, Clone, Copy, Default)]
    struct Entry {
        count: u64,
        /// Pruning intervals the entry has lived through.
        life: u64,
    }

    /// TWiCe with the per-tREFI sweep.
    #[derive(Debug, Clone)]
    pub(crate) struct EagerTwice {
        geometry: DramGeometry,
        refresh_threshold: u64,
        prune_rate: f64,
        prune_interval: Cycle,
        next_prune: Cycle,
        window: ResetWindow,
        tables: Vec<FlatMap<Entry>>,
        prune_scratch: Vec<u64>,
    }

    impl EagerTwice {
        pub(crate) fn new(geometry: DramGeometry, timing: &TimingParams, nrh: u64) -> Self {
            let refresh_threshold = (nrh / 4).max(1);
            let prune_interval = timing.t_refi.max(1);
            let intervals_per_window = (timing.t_refw / prune_interval).max(1);
            let banks = geometry.banks_per_channel();
            EagerTwice {
                geometry,
                refresh_threshold,
                prune_rate: refresh_threshold as f64 / intervals_per_window as f64,
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

        pub(crate) fn on_activation(&mut self, event: &ActivationEvent, sink: &mut ActionSink) {
            self.maybe_prune_and_reset(event.cycle);
            let bank = self.geometry.flat_bank(event.row.bank);
            let table = &mut self.tables[bank];
            let entry = table.or_insert(event.row.row as u64, Entry { count: 0, life: 0 });
            entry.count += 1;
            if entry.count >= self.refresh_threshold {
                table.remove(event.row.row as u64);
                sink.push_refresh_rows(self.geometry.neighbors(event.row, MITIGATED_BLAST_RADIUS));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::EagerTwice;
    use super::*;
    use crate::action::ActionView;
    use crate::mechanism::testing::{actions, event};
    use bh_dram::{BankAddr, RowAddr, ThreadId};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn mech(nrh: u64) -> Twice {
        Twice::new(DramGeometry::tiny(), &TimingParams::fast_test(), nrh)
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

    /// At N_RH 64 (threshold 16, rate 16/64 a tREFI) a row with 15
    /// activations is pruned once 61 intervals have passed: returning at
    /// interval 60 its next activation triggers, returning at interval 61 it
    /// needs all 16 again.
    #[test]
    fn a_row_pruned_while_cold_needs_the_full_threshold_when_it_returns() {
        let t_refi = TimingParams::fast_test().t_refi;
        for (interval, activations_to_trigger) in [(60, 1), (61, 16)] {
            let mut t = mech(64);
            for i in 0..15u64 {
                assert!(actions(&mut t, &event(40, i)).is_empty());
            }
            let back = interval * t_refi;
            let fired = (0..16u64)
                .position(|i| !actions(&mut t, &event(40, back + i)).is_empty())
                .map(|i| i + 1);
            assert_eq!(fired, Some(activations_to_trigger), "back at interval {interval}");
        }
    }

    /// At N_RH 256 (threshold 64, rate one activation a tREFI) a row
    /// activated once in each of 64 intervals keeps its count and triggers
    /// on the 64th; a row that skips one interval restarts and does not.
    #[test]
    fn a_row_that_keeps_up_the_prune_rate_keeps_its_count() {
        let t_refi = TimingParams::fast_test().t_refi;
        let mut t = mech(256);
        let mut fired = Vec::new();
        for interval in 0..64u64 {
            let cycle = interval * t_refi;
            if !actions(&mut t, &event(40, cycle)).is_empty() {
                fired.push((40, interval));
            }
            if interval != 30 && !actions(&mut t, &event(80, cycle + 1)).is_empty() {
                fired.push((80, interval));
            }
        }
        assert_eq!(fired, [(40, 63)]);
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

    /// A seeded stream of `len` activations over two banks: a few hot rows
    /// and many cold ones, gaps mostly a few cycles, some up to a tREFI and
    /// some up to five, so rows go stale, come back, and the window rolls
    /// about every 250 activations.
    fn stream(seed: u64, t_refi: Cycle, len: usize) -> Vec<ActivationEvent> {
        let mut rng = StdRng::seed_from_u64(seed);
        let hot_rows = rng.gen_range(1..6usize);
        let mut cycle = 0;
        (0..len)
            .map(|_| {
                cycle += match rng.gen_range(0..20u32) {
                    0 => rng.gen_range(0..5 * t_refi),
                    1..=5 => rng.gen_range(0..t_refi),
                    _ => rng.gen_range(0..8),
                };
                let row = if rng.gen_bool(0.5) {
                    rng.gen_range(0..hot_rows)
                } else {
                    rng.gen_range(0..128)
                };
                let bank = BankAddr { rank: 0, bank_group: 0, bank: rng.gen_range(0..2) };
                ActivationEvent { row: RowAddr { bank, row }, thread: ThreadId(0), cycle }
            })
            .collect()
    }

    /// The lazy prune decides as the eager sweep does: over 40 seeded streams
    /// of 4 000 activations at each of four thresholds, `Twice` and the
    /// sweep queue the same actions after every activation. Odd seeds run
    /// with a tREFI of 250 cycles, which does not divide the 16 384-cycle
    /// window, so the intervals restart off the tREFI grid at each roll. The
    /// streams do exercise pruning: counters that are never pruned act
    /// differently on 128 of the 160.
    #[test]
    fn lazy_prune_matches_the_eager_sweep() {
        let geometry = DramGeometry::tiny();
        let (mut streams, mut pruning_mattered) = (0, 0);
        for nrh in [8, 16, 64, 256] {
            for seed in 0..40 {
                let fast = TimingParams::fast_test();
                let timing =
                    if seed % 2 == 0 { fast } else { TimingParams { t_refi: 250, ..fast } };
                let mut lazy = Twice::new(geometry.clone(), &timing, nrh);
                let mut eager = EagerTwice::new(geometry.clone(), &timing, nrh);
                // A rate no count falls below: nothing is ever pruned.
                let mut no_prune = Twice { prune_rate: 0.0, ..lazy.clone() };
                let mut differs = false;
                for (i, ev) in stream(seed, timing.t_refi, 4000).iter().enumerate() {
                    let (mut want, mut got, mut unpruned) = Default::default();
                    eager.on_activation(ev, &mut want);
                    lazy.on_activation(ev, &mut got);
                    no_prune.on_activation(ev, &mut unpruned);
                    assert!(got.iter().eq(want.iter()), "N_RH {nrh}, seed {seed}, activation {i}");
                    differs |= !unpruned.iter().eq(want.iter());
                }
                streams += 1;
                pruning_mattered += u32::from(differs);
            }
        }
        assert!(2 * pruning_mattered > streams, "pruning changed {pruning_mattered}/{streams}");
    }
}
