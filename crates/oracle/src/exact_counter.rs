//! An exact per-row activation counter: the reference a counter-based
//! mitigation (Graphene, TWiCe) reduces to until the path that makes it that
//! mechanism fires.
//!
//! The counter refreshes a row's neighbours when the row's activations since
//! its last trigger reach N_RH / 4, forgets that count on a trigger, and
//! forgets every count when a refresh window (tREFW) ends. Graphene is this
//! counter while no bank's Misra–Gries table meets more distinct rows than
//! it holds; TWiCe is this counter while no entry falls below the pruning
//! rate.

use std::collections::BTreeMap;

/// A row: an opaque bank identity and the row's index within the bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Row {
    /// Identifies the bank; rows of different banks never neighbour.
    pub bank: u64,
    /// Row index within the bank, `0..rows_per_bank`.
    pub row: usize,
}

/// The rows a double-sided hammer of `row` disturbs: the physically
/// adjacent row on each side (a blast radius of one), clipped at the bank's
/// edges, lower row first.
pub fn neighbours(row: Row, rows_per_bank: usize) -> Vec<Row> {
    let below = row.row.checked_sub(1);
    let above = Some(row.row + 1).filter(|&r| r < rows_per_bank);
    below.into_iter().chain(above).map(|r| Row { bank: row.bank, row: r }).collect()
}

/// Exact activation counts of every row activated in the current window.
#[derive(Debug, Clone)]
pub struct ExactCounter {
    rows_per_bank: usize,
    threshold: u64,
    window_len: u64,
    /// Index of the window the counts belong to.
    window: u64,
    counts: BTreeMap<Row, u64>,
}

impl ExactCounter {
    /// A counter for banks of `rows_per_bank` rows protecting RowHammer
    /// threshold `nrh`, whose counts last one refresh window of `window_len`
    /// cycles.
    ///
    /// # Panics
    /// Panics if `window_len` is zero.
    pub fn new(rows_per_bank: usize, window_len: u64, nrh: u64) -> Self {
        assert!(window_len > 0, "a refresh window lasts at least one cycle");
        ExactCounter {
            rows_per_bank,
            threshold: (nrh / 4).max(1),
            window_len,
            window: 0,
            counts: BTreeMap::new(),
        }
    }

    /// Counts one activation of `row` at `cycle` and returns the rows to
    /// refresh, if this activation makes the row's count reach the
    /// threshold.
    pub fn activate(&mut self, row: Row, cycle: u64) -> Option<Vec<Row>> {
        let window = cycle / self.window_len;
        if window != self.window {
            self.window = window;
            self.counts.clear();
        }
        let count = self.counts.entry(row).or_insert(0);
        *count += 1;
        if *count < self.threshold {
            return None;
        }
        self.counts.remove(&row);
        Some(neighbours(row, self.rows_per_bank))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(row: usize) -> Row {
        Row { bank: 7, row }
    }

    #[test]
    fn neighbours_are_clipped_at_both_bank_edges() {
        assert_eq!(neighbours(row(5), 128), [row(4), row(6)]);
        assert_eq!(neighbours(row(0), 128), [row(1)]);
        assert_eq!(neighbours(row(127), 128), [row(126)]);
        assert!(neighbours(row(0), 1).is_empty());
    }

    #[test]
    fn a_row_triggers_every_quarter_n_rh_and_a_window_forgets() {
        let mut c = ExactCounter::new(128, 100, 8);
        assert_eq!(c.activate(row(3), 0), None);
        assert_eq!(c.activate(row(3), 1), Some(vec![row(2), row(4)]));
        // The trigger forgot the count.
        assert_eq!(c.activate(row(3), 2), None);
        // A new window forgets it too.
        assert_eq!(c.activate(row(3), 100), None);
        assert_eq!(c.activate(row(3), 101), Some(vec![row(2), row(4)]));
        // N_RH below 4 still needs one activation.
        assert_eq!(ExactCounter::new(128, 100, 1).activate(row(0), 0), Some(vec![row(1)]));
    }
}
