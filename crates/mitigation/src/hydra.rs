//! Hydra: hybrid group/per-row RowHammer tracking [Qureshi et al., ISCA 2022].
//!
//! Hydra tracks activation counts at two granularities. A small on-chip Group
//! Count Table (GCT) counts activations of *groups* of rows; when a group's
//! count crosses the group threshold, Hydra switches that group to per-row
//! tracking in a Row Count Table (RCT) that lives **in DRAM**, with a small
//! Row Count Cache (RCC) in the memory controller. Per-row counts crossing
//! the refresh threshold trigger preventive refreshes of the row's
//! neighbours.
//!
//! The performance-relevant behaviours reproduced here are (a) the preventive
//! refreshes themselves and (b) the extra DRAM traffic caused by RCC misses
//! and evictions, both of which the paper counts as RowHammer-preventive
//! actions for score attribution (§4.1).

use crate::action::{ActionSink, ActivationEvent};
use crate::mechanism::{ResetWindow, TriggerMechanism, MITIGATED_BLAST_RADIUS};
use bh_dram::{DramGeometry, FlatMap, RowAddr, TimingParams};

/// Rows per tracking group (Hydra uses 128 in the paper's configuration).
const GROUP_SIZE: usize = 128;
/// Row Count Cache capacity in entries across the whole controller.
const RCC_ENTRIES: usize = 4096;

/// The Hydra mechanism.
#[derive(Debug, Clone)]
pub(crate) struct Hydra {
    geometry: DramGeometry,
    group_threshold: u64,
    refresh_threshold: u64,
    /// Dense per-group activation counters (the on-chip GCT), indexed by
    /// `flat_bank * groups_per_bank + group`.
    group_counts: Box<[u64]>,
    groups_per_bank: usize,
    /// Per bank: row -> per-row activation count (RCT, conceptually in DRAM;
    /// only escalated groups' rows appear, so the table stays sparse).
    row_counts: Vec<FlatMap<u64>>,
    /// Row Count Cache membership, keyed by `flat_bank << 32 | row`, with a
    /// fixed-size ring buffer providing the FIFO replacement order.
    rcc: FlatMap<()>,
    rcc_fifo: Box<[u64]>,
    rcc_head: usize,
    rcc_len: usize,
    window: ResetWindow,
}

impl Hydra {
    /// Creates Hydra for the given system and RowHammer threshold `nrh`.
    pub(crate) fn new(geometry: DramGeometry, timing: &TimingParams, nrh: u64) -> Self {
        let refresh_threshold = (nrh / 4).max(2);
        let group_threshold = (refresh_threshold / 2).max(1);
        let banks = geometry.banks_per_channel();
        let groups_per_bank = geometry.rows_per_bank.div_ceil(GROUP_SIZE);
        Hydra {
            geometry,
            group_threshold,
            refresh_threshold,
            group_counts: vec![0; banks * groups_per_bank].into_boxed_slice(),
            groups_per_bank,
            row_counts: (0..banks).map(|_| FlatMap::with_capacity(64)).collect(),
            rcc: FlatMap::with_capacity(RCC_ENTRIES),
            rcc_fifo: vec![0; RCC_ENTRIES].into_boxed_slice(),
            rcc_head: 0,
            rcc_len: 0,
            window: ResetWindow::new(timing.t_refw),
        }
    }

    /// Touches the RCC for `(bank, row)`, pushing the table-access action
    /// caused by a miss (a fill read, plus a write-back if an entry is
    /// evicted) into `sink`.
    fn access_rcc(&mut self, bank: usize, row: usize, sink: &mut ActionSink) {
        let key = (bank as u64) << 32 | row as u64;
        if self.rcc.contains_key(key) {
            return;
        }
        let evicting = self.rcc_len >= RCC_ENTRIES;
        if evicting {
            let old = self.rcc_fifo[self.rcc_head];
            self.rcc_head = (self.rcc_head + 1) % RCC_ENTRIES;
            self.rcc_len -= 1;
            self.rcc.remove(old);
        }
        self.rcc.insert(key, ());
        self.rcc_fifo[(self.rcc_head + self.rcc_len) % RCC_ENTRIES] = key;
        self.rcc_len += 1;
        // The RCT is stored in a reserved region of the same bank; model the
        // fill (and possible write-back) as one table access there.
        let table_row = RowAddr {
            bank: self.geometry.bank_from_flat(bank),
            row: self.geometry.rows_per_bank - 1 - (row % GROUP_SIZE),
        };
        sink.push_table_access(table_row, evicting);
    }
}

impl TriggerMechanism for Hydra {
    fn on_activation(&mut self, event: &ActivationEvent, sink: &mut ActionSink) {
        if self.window.roll(event.cycle) {
            self.group_counts.fill(0);
            self.row_counts.iter_mut().for_each(FlatMap::clear);
            self.rcc.clear();
            self.rcc_head = 0;
            self.rcc_len = 0;
        }
        let bank = self.geometry.flat_bank(event.row.bank);
        let group = event.row.row / GROUP_SIZE;

        let group_count = &mut self.group_counts[bank * self.groups_per_bank + group];
        if *group_count < self.group_threshold {
            // Aggregated tracking only: cheap, no DRAM-side table involved.
            *group_count += 1;
            return;
        }

        // Escalated group: per-row tracking through the RCC/RCT.
        self.access_rcc(bank, event.row.row, sink);
        let count = self.row_counts[bank].or_insert(event.row.row as u64, self.group_threshold);
        *count += 1;
        if *count >= self.refresh_threshold {
            *count = 0;
            sink.push_refresh_rows(self.geometry.neighbors(event.row, MITIGATED_BLAST_RADIUS));
        }
    }

    fn storage_bits(&self) -> u64 {
        // On-chip storage: the GCT (one counter per group per bank) plus the
        // RCC (tag + counter per entry). The RCT itself lives in DRAM.
        let groups_per_bank = self.geometry.rows_per_bank.div_ceil(GROUP_SIZE) as u64;
        let counter_bits = 64 - self.refresh_threshold.leading_zeros() as u64 + 1;
        let gct_bits = groups_per_bank * counter_bits * self.geometry.banks_per_channel() as u64;
        let tag_bits = 32u64;
        let rcc_bits = RCC_ENTRIES as u64 * (tag_bits + counter_bits);
        gct_bits + rcc_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::ActionView;
    use crate::mechanism::testing::{actions, event};

    fn mech(nrh: u64) -> Hydra {
        Hydra::new(DramGeometry::tiny(), &TimingParams::fast_test(), nrh)
    }

    /// Number of RCT accesses (RCC misses) among `sink`'s actions.
    fn table_accesses(sink: &ActionSink) -> usize {
        sink.iter().filter(|a| matches!(a, ActionView::TableAccess { .. })).count()
    }

    #[test]
    fn group_tracking_is_silent_until_escalation() {
        let mut h = mech(256); // refresh threshold 64, group threshold 32
        assert_eq!(h.refresh_threshold, 64);
        assert_eq!(h.group_threshold, 32);
        for i in 0..32u64 {
            assert!(actions(&mut h, &event(10, i)).is_empty(), "i={i}");
        }
        // The next activation of the escalated group misses the RCC once.
        assert_eq!(table_accesses(&actions(&mut h, &event(10, 32))), 1);
    }

    #[test]
    fn hammering_triggers_refresh_of_neighbors() {
        let mut h = mech(64); // refresh threshold 16, group threshold 8
        let mut refreshed = false;
        for i in 0..40u64 {
            for a in actions(&mut h, &event(10, i)).iter() {
                if let ActionView::RefreshRows(rows) = a {
                    refreshed = true;
                    assert!(rows.iter().all(|r| r.row == 9 || r.row == 11));
                }
            }
        }
        assert!(refreshed);
    }

    #[test]
    fn different_rows_of_same_group_share_group_counter() {
        let mut h = mech(256);
        // 32 activations spread over the group escalate it even though no
        // single row is hot.
        for i in 0..32u64 {
            assert!(actions(&mut h, &event((i % 8) as usize, i)).is_empty());
        }
        assert!(!actions(&mut h, &event(3, 33)).is_empty(), "escalated group must touch the RCT");
    }

    #[test]
    fn rcc_hits_do_not_cost_table_accesses() {
        let mut h = mech(64);
        // Escalate the group.
        for i in 0..8u64 {
            actions(&mut h, &event(10, i));
        }
        assert_eq!(table_accesses(&actions(&mut h, &event(10, 8))), 1);
        // Subsequent activations of the same row hit the RCC.
        let mut sink = ActionSink::default();
        for i in 9..14u64 {
            h.on_activation(&event(10, i), &mut sink);
        }
        assert_eq!(table_accesses(&sink), 0);
    }

    #[test]
    fn window_reset_clears_all_tracking() {
        let timing = TimingParams::fast_test();
        let mut h = Hydra::new(DramGeometry::tiny(), &timing, 64);
        let mut sink = ActionSink::default();
        for i in 0..12u64 {
            h.on_activation(&event(10, i), &mut sink);
        }
        assert!(table_accesses(&sink) >= 1);
        let far = timing.t_refw + 5;
        // After the reset the group starts cold again: no table access.
        assert!(actions(&mut h, &event(10, far)).is_empty());
    }

    #[test]
    fn storage_is_modest_and_grows_with_lower_nrh() {
        let coarse = mech(4096);
        let fine = mech(64);
        // Counter width shrinks with the threshold, but both stay in the
        // kilobyte range (Hydra's selling point vs. per-row SRAM tracking).
        assert!(coarse.storage_bits() > 0);
        assert!(fine.storage_bits() > 0);
        assert!(coarse.storage_bits() < 64 * 1024 * 8 * 4);
    }

    #[test]
    fn metadata() {
        let h = mech(1024);
        assert_eq!((h.refresh_threshold, h.group_threshold), (256, 128));
        assert_eq!(h.groups_per_bank, DramGeometry::tiny().rows_per_bank.div_ceil(GROUP_SIZE));
    }
}
