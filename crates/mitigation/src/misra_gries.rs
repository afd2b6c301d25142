//! Misra–Gries frequent-element counting, the tracker shared by Graphene and
//! AQUA.
//!
//! The Misra–Gries summary tracks the `capacity` most frequently activated
//! rows of a bank with a bounded error: any row activated more than
//! `spillover` times is guaranteed to be present in the table, and a tracked
//! row's counter is at most `spillover` below its true activation count. Both
//! Graphene and AQUA rely on this guarantee to never miss an aggressor.
//!
//! ## Storage layout
//!
//! This mirrors the CAM Graphene builds in hardware: a flat open-addressing
//! table — [`bh_dram::FlatMap`], Fibonacci hashing, linear probing,
//! backward-shift deletion. `capacity` is the logical bound on tracked rows
//! (and what the hardware-cost model charges for); the slot array starts small
//! and doubles as rows are first seen, up to the size `capacity` rows need, so
//! a table built for the worst case costs what the run actually touches. It
//! grows only while the tracked-row count sets a new record — during warm-up
//! — and [`MisraGries::clear`] keeps the slots.
//!
//! The original `HashMap` implementation found an eviction victim by iterating
//! the whole map and taking the minimum decayed row — an O(capacity) scan
//! with SipHash on every access. Here eviction candidates are tracked *in
//! table*: an entry's count can only fall to the spillover level through one
//! of two observable transitions ([`MisraGries::reset_row`] or a spillover
//! increment), and each transition pushes the row into a min-heap of decayed
//! candidates, deduplicated by a per-entry flag. `record` is therefore O(1)
//! amortized — a probe plus, on eviction, an O(log capacity) heap pop — and
//! the only remaining full scan runs when the spillover itself increments (at
//! most once per capacity-exceeding activation burst, the same event that
//! forced the old implementation's scan on *every* eviction).
//!
//! Behaviour is bit-identical to the `HashMap` version, including the
//! deterministic lowest-row-index victim rule; the `reference_equivalence`
//! proptest below drives both implementations with random operation streams
//! and asserts identical observable state at every step.

use bh_dram::FlatMap;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A Misra–Gries summary over row indices.
///
/// Rows must fit in a `u32` (row indices are bounded by `rows_per_bank`, far
/// below that).
#[derive(Debug, Clone)]
pub struct MisraGries {
    capacity: usize,
    /// Row -> (estimated activation count, whether the row currently has a
    /// copy in `decayed` — the dedup flag).
    entries: FlatMap<(u64, bool)>,
    spillover: u64,
    /// Min-heap (by row index) of candidate eviction victims: every row whose
    /// count equals the spillover has a copy here (the converse need not
    /// hold — stale copies are discarded lazily on pop).
    decayed: BinaryHeap<Reverse<u32>>,
}

impl MisraGries {
    /// Creates a summary that tracks up to `capacity` rows.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "Misra-Gries capacity must be positive");
        MisraGries {
            capacity,
            entries: FlatMap::default(),
            spillover: 0,
            decayed: BinaryHeap::new(),
        }
    }

    /// Pops the lowest-row-index entry whose count still equals the
    /// spillover, discarding stale candidates.
    fn pop_decayed(&mut self) -> Option<u32> {
        while let Some(Reverse(row)) = self.decayed.pop() {
            if let Some((count, in_heap)) = self.entries.get_mut(u64::from(row)) {
                *in_heap = false;
                if *count == self.spillover {
                    return Some(row);
                }
            }
            // Absent rows are ghosts of removed entries; drop them.
        }
        None
    }

    /// Records one activation of `row` and returns its estimated count.
    pub fn record(&mut self, row: usize) -> u64 {
        if let Some((count, _)) = self.entries.get_mut(row as u64) {
            // A decayed entry that gains a count leaves the candidate set;
            // its heap copy (if any) goes stale and is skipped on pop.
            *count += 1;
            return *count;
        }
        // Table full: either replace an entry that has decayed to the
        // spillover level, or absorb the activation into the spillover.
        // The victim choice is deterministic (lowest row index) so that
        // simulations are exactly reproducible run to run.
        if self.entries.len() >= self.capacity {
            let Some(victim) = self.pop_decayed() else {
                self.spillover += 1;
                // Entries whose count just fell to the (new) spillover level
                // join the candidates: the only O(capacity) path left.
                let (spillover, decayed) = (self.spillover, &mut self.decayed);
                self.entries.for_each_mut(|row, (count, in_heap)| {
                    if *count == spillover && !*in_heap {
                        *in_heap = true;
                        decayed.push(Reverse(row as u32));
                    }
                });
                return self.spillover;
            };
            self.entries.remove(u64::from(victim));
        }
        let count = self.spillover + 1;
        self.entries.insert(row as u64, (count, false));
        count
    }

    /// Estimated activation count of `row` (the spillover if untracked).
    pub fn estimate(&self, row: usize) -> u64 {
        self.entries.get(row as u64).map_or(self.spillover, |(count, _)| count)
    }

    /// Resets the counter of `row` to the current spillover level, as Graphene
    /// does after issuing a preventive refresh for the row.
    pub(crate) fn reset_row(&mut self, row: usize) {
        if let Some((count, in_heap)) = self.entries.get_mut(row as u64) {
            *count = self.spillover;
            if !std::mem::replace(in_heap, true) {
                self.decayed.push(Reverse(row as u32));
            }
        }
    }

    /// Removes `row` from the table entirely (AQUA does this after migrating
    /// the row away, because the quarantined copy starts cold).
    pub(crate) fn remove_row(&mut self, row: usize) {
        // A heap copy may survive as a ghost; pop discards it.
        self.entries.remove(row as u64);
    }

    /// Clears the whole summary (done at every reset window).
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        self.spillover = 0;
        self.decayed.clear();
    }

    /// The current spillover counter.
    pub fn spillover(&self) -> u64 {
        self.spillover
    }
}

/// The original `HashMap`-backed implementation, kept as the executable
/// reference model: the `reference_equivalence` proptest drives it in
/// lockstep with the flat table and asserts identical observable behaviour,
/// including the deterministic lowest-row-index eviction rule.
#[cfg(test)]
#[allow(clippy::disallowed_types)] // test-only hash collections: assertion sets and reference models, never digest-bearing
pub(crate) mod reference {
    use std::collections::HashMap;

    /// Reference Misra–Gries summary (see the module docs of
    /// [`super::MisraGries`] for semantics).
    #[derive(Debug, Clone)]
    pub(crate) struct HashMisraGries {
        capacity: usize,
        counts: HashMap<usize, u64>,
        spillover: u64,
    }

    impl HashMisraGries {
        pub(crate) fn new(capacity: usize) -> Self {
            assert!(capacity > 0, "Misra-Gries capacity must be positive");
            HashMisraGries { capacity, counts: HashMap::with_capacity(capacity), spillover: 0 }
        }

        pub(crate) fn record(&mut self, row: usize) -> u64 {
            if let Some(c) = self.counts.get_mut(&row) {
                *c += 1;
                return *c;
            }
            if self.counts.len() < self.capacity {
                let count = self.spillover + 1;
                self.counts.insert(row, count);
                return count;
            }
            if let Some(&victim) =
                self.counts.iter().filter(|(_, c)| **c <= self.spillover).map(|(r, _)| r).min()
            {
                self.counts.remove(&victim);
                let count = self.spillover + 1;
                self.counts.insert(row, count);
                count
            } else {
                self.spillover += 1;
                self.spillover
            }
        }

        pub(crate) fn estimate(&self, row: usize) -> u64 {
            self.counts.get(&row).copied().unwrap_or(self.spillover)
        }

        pub(crate) fn reset_row(&mut self, row: usize) {
            if let Some(c) = self.counts.get_mut(&row) {
                *c = self.spillover;
            }
        }

        pub(crate) fn remove_row(&mut self, row: usize) {
            self.counts.remove(&row);
        }

        pub(crate) fn clear(&mut self) {
            self.counts.clear();
            self.spillover = 0;
        }

        pub(crate) fn len(&self) -> usize {
            self.counts.len()
        }

        pub(crate) fn spillover(&self) -> u64 {
            self.spillover
        }

        pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
            self.counts.iter().map(|(r, c)| (*r, *c))
        }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_types)] // test-only hash collections: assertion sets and reference models, never digest-bearing
mod tests {
    use super::reference::HashMisraGries;
    use super::*;
    use proptest::prelude::*;

    /// The tracked `(row, estimated_count)` pairs, sorted by row.
    fn tracked(mg: &MisraGries) -> Vec<(usize, u64)> {
        let mut entries: Vec<(usize, u64)> =
            mg.entries.iter().map(|(row, (count, _))| (row as usize, count)).collect();
        entries.sort_unstable();
        entries
    }

    #[test]
    fn tracks_up_to_capacity_exactly() {
        let mut mg = MisraGries::new(4);
        for row in 0..4 {
            for _ in 0..=row {
                mg.record(row);
            }
        }
        assert_eq!(mg.entries.len(), 4);
        for row in 0..4usize {
            assert_eq!(mg.estimate(row), row as u64 + 1);
        }
        assert_eq!(mg.spillover(), 0);
    }

    #[test]
    fn never_underestimates_by_more_than_spillover() {
        let mut mg = MisraGries::new(4);
        let mut truth = std::collections::HashMap::new();
        // 8 distinct rows, so half of them spill.
        for i in 0..2000usize {
            let row = i % 8;
            mg.record(row);
            *truth.entry(row).or_insert(0u64) += 1;
        }
        for (row, true_count) in truth {
            let est = mg.estimate(row);
            assert!(
                est + mg.spillover() >= true_count,
                "row {row}: estimate {est} + spillover {} < true {true_count}",
                mg.spillover()
            );
        }
    }

    #[test]
    fn heavy_hitter_is_always_tracked() {
        let mut mg = MisraGries::new(2);
        // Interleave one heavy row with many light rows.
        for i in 0..1000usize {
            mg.record(9999);
            mg.record(i);
        }
        // The heavy row must be tracked and its estimate must cover at least
        // the true count minus the spillover (Misra-Gries guarantee).
        assert!(mg.estimate(9999) + mg.spillover() >= 1000);
        assert!(tracked(&mg).iter().any(|&(r, _)| r == 9999));
    }

    #[test]
    fn reset_and_remove() {
        let mut mg = MisraGries::new(2);
        for _ in 0..10 {
            mg.record(5);
        }
        assert_eq!(mg.estimate(5), 10);
        mg.reset_row(5);
        assert_eq!(mg.estimate(5), mg.spillover());
        mg.remove_row(5);
        assert!(mg.entries.is_empty());
        for _ in 0..3 {
            mg.record(1);
        }
        mg.clear();
        assert!(mg.entries.is_empty());
        assert_eq!(mg.spillover(), 0);
        assert_eq!(mg.capacity, 2);
    }

    #[test]
    fn eviction_picks_the_lowest_decayed_row_index() {
        // Fill a capacity-3 table, decay every entry via reset_row, then
        // insert new rows: victims must leave in ascending row order.
        let mut mg = MisraGries::new(3);
        for row in [30, 10, 20] {
            mg.record(row);
            mg.reset_row(row);
        }
        mg.record(40); // evicts 10
        let rows = |mg: &MisraGries| tracked(mg).into_iter().map(|(r, _)| r).collect::<Vec<_>>();
        assert_eq!(rows(&mg), vec![20, 30, 40]);
        mg.reset_row(40);
        mg.record(50); // evicts 20 (40 was reset after the others)
        assert_eq!(rows(&mg), vec![30, 40, 50]);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = MisraGries::new(0);
    }

    /// Asserts every observable of the flat and reference implementations
    /// matches.
    fn assert_same_state(flat: &MisraGries, reference: &HashMisraGries, context: &str) {
        assert_eq!(flat.entries.len(), reference.len(), "len after {context}");
        assert_eq!(flat.spillover(), reference.spillover(), "spillover after {context}");
        let mut ref_entries: Vec<(usize, u64)> = reference.iter().collect();
        ref_entries.sort_unstable();
        assert_eq!(tracked(flat), ref_entries, "tracked entries after {context}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The flat table and the `HashMap` reference model agree on every
        /// `record` return value, every `estimate`, the tracked-row set and
        /// the spillover across random operation streams — i.e. the rewrite
        /// (including its in-table min-tracking eviction path) is
        /// bit-identical to the original, lowest-row-victim rule included.
        /// Rows are drawn from about twice the capacity, so every size both
        /// fills up and evicts; the slot array starts at 8 and doubles at
        /// 3/4 load, so capacities from 25 cross three growth steps on the
        /// way.
        #[test]
        fn reference_equivalence(
            capacity in 1usize..40,
            ops in proptest::collection::vec((0u8..8, 0usize..1024), 1..600),
        ) {
            let rows = 2 * capacity + 8;
            let mut flat = MisraGries::new(capacity);
            let mut reference = HashMisraGries::new(capacity);
            for (i, (op, row)) in ops.iter().enumerate() {
                let row = row % rows;
                let context = format!("op {i} ({op}, row {row})");
                match op {
                    // Bias toward record: it is the only operation with a
                    // non-trivial (eviction/spillover) decision to compare.
                    0..=4 => {
                        let a = flat.record(row);
                        let b = reference.record(row);
                        prop_assert_eq!(a, b, "record return at {}", context);
                    }
                    5 => {
                        flat.reset_row(row);
                        reference.reset_row(row);
                    }
                    6 => {
                        flat.remove_row(row);
                        reference.remove_row(row);
                    }
                    _ => {
                        prop_assert_eq!(
                            flat.estimate(row),
                            reference.estimate(row),
                            "estimate at {}",
                            context
                        );
                    }
                }
                assert_same_state(&flat, &reference, &context);
                for probe_row in 0..rows {
                    prop_assert_eq!(
                        flat.estimate(probe_row),
                        reference.estimate(probe_row),
                        "estimate of row {} after {}",
                        probe_row,
                        context
                    );
                }
            }
            flat.clear();
            reference.clear();
            assert_same_state(&flat, &reference, "clear");
        }
    }
}
