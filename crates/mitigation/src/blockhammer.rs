//! BlockHammer: blacklisting-based access throttling [Yağlıkçı et al., HPCA 2021].
//!
//! BlockHammer is the state-of-the-art *throttling-based* RowHammer
//! mitigation and the paper's head-to-head comparison point (§8.3). It tracks
//! per-row activation rates (with counting Bloom filters in the original
//! design; modelled here as exact per-row counters, which is strictly more
//! favourable to BlockHammer) and, once a row crosses the blacklisting
//! threshold, delays further activations of that row so it cannot reach
//! `N_RH` activations before the refresh window ends.
//!
//! Unlike BreakHammer, BlockHammer throttles *rows* regardless of which
//! thread accesses them — so at low `N_RH`, where even benign applications
//! activate rows tens or hundreds of times per window (Table 3), BlockHammer
//! ends up delaying benign accesses and its performance collapses (Fig. 18).

use crate::action::{ActionSink, ActivationEvent};
use crate::mechanism::{ResetWindow, TriggerMechanism};
use bh_dram::{Cycle, DramGeometry, FlatMap, PagedRows, RowAddr, TimingParams};

/// The BlockHammer mechanism.
#[derive(Debug, Clone)]
pub(crate) struct BlockHammer {
    geometry: DramGeometry,
    blacklist_threshold: u64,
    /// Maximum activations a single row may receive within one window; sized
    /// so that two aggressors straddling a window boundary (the worst case
    /// before the victim's periodic refresh) stay safely below `N_RH`.
    allowed_per_window: u64,
    window: ResetWindow,
    /// Per-row activation counters for the current window, indexed by
    /// `flat_bank * rows_per_bank + row` (the software stand-in for the
    /// hardware's counting Bloom filters — exact, paged so that only pages
    /// holding activated rows are allocated, and zeroed once per window
    /// without freeing those pages).
    counts: PagedRows,
    /// Blacklisted rows, keyed by `flat_bank << 32 | row` -> earliest cycle
    /// the next activation is allowed. Only rows past the blacklisting
    /// threshold appear, so the table stays small and the per-request
    /// `blocked_until` probe stays O(1).
    next_allowed: FlatMap<Cycle>,
}

impl BlockHammer {
    /// Creates BlockHammer for the given system and RowHammer threshold `nrh`.
    pub(crate) fn new(geometry: DramGeometry, timing: &TimingParams, nrh: u64) -> Self {
        // A victim can be disturbed by two aggressors, each spreading its
        // activations over the two windows that precede the victim's periodic
        // refresh, so each row's per-window budget is N_RH / 8 (with margin).
        let allowed_per_window = (nrh / 8).max(2);
        let blacklist_threshold = (allowed_per_window / 2).max(1);
        let counts = PagedRows::new(geometry.rows_per_channel());
        BlockHammer {
            geometry,
            blacklist_threshold,
            allowed_per_window,
            window: ResetWindow::new(timing.t_refw),
            counts,
            next_allowed: FlatMap::with_capacity(64),
        }
    }

    #[inline]
    fn key(&self, flat_bank: usize, row: usize) -> u64 {
        (flat_bank as u64) << 32 | row as u64
    }

    /// See [`crate::Mechanism::blocked_rows`].
    pub(crate) fn blocked_rows(&self) -> usize {
        self.next_allowed.len()
    }

    /// See [`crate::Mechanism::resident_pages`].
    pub(crate) fn resident_pages(&self) -> usize {
        self.counts.resident_pages()
    }

    /// See [`crate::Mechanism::blocked_until`].
    pub(crate) fn blocked_until(&self, row: RowAddr, cycle: Cycle) -> Cycle {
        let bank = self.geometry.flat_bank(row.bank);
        match self.next_allowed.get(self.key(bank, row.row)) {
            Some(allowed) => cycle.max(allowed),
            None => cycle,
        }
    }
}

impl TriggerMechanism for BlockHammer {
    fn on_activation(&mut self, event: &ActivationEvent, _sink: &mut ActionSink) {
        if self.window.roll(event.cycle) {
            self.counts.zero_all();
            self.next_allowed.clear();
        }
        let bank = self.geometry.flat_bank(event.row.bank);
        let count = self.counts.get_mut(bank * self.geometry.rows_per_bank + event.row.row);
        *count += 1;
        let count = u64::from(*count);
        if count >= self.blacklist_threshold {
            // Spread the row's remaining activation budget over the remaining
            // window so it can never exceed its per-window allowance. The
            // delay is floored at one cycle: near the window edge the integer
            // division `time_left / remaining_budget` truncates to zero
            // (time_left < remaining_budget), which would leave a blacklisted
            // row entirely unthrottled for the window's tail — a zero-spread
            // hole the edge regression test below pins shut. A row at or past
            // its allowance (`remaining_budget` saturated to 1) is pushed to
            // the window edge itself, where the reset re-admits it with fresh
            // counters.
            let remaining_budget = self.allowed_per_window.saturating_sub(count).max(1);
            let time_left = self.window.end.saturating_sub(event.cycle).max(1);
            let delay = (time_left / remaining_budget).max(1);
            self.next_allowed.insert(self.key(bank, event.row.row), event.cycle + delay);
        }
        // BlockHammer's preventive action is the delay itself; it never issues
        // extra DRAM commands.
    }

    fn storage_bits(&self) -> u64 {
        // Two time-interleaved counting Bloom filters sized to distinguish
        // rows above the blacklisting threshold among the worst-case number of
        // activations per window, plus the row-activation history buffer whose
        // capacity grows as N_RH shrinks (the growth the paper highlights in
        // §8.3).
        let acts_per_window = (self.window.len / 50).max(1); // ~tRC at DDR5 speeds
        let cbf_counters = (acts_per_window / self.blacklist_threshold).max(1024);
        let cbf_bits = 2 * cbf_counters * 16;
        let history_entries = (self.window.len / (8 * self.allowed_per_window).max(1)).max(64);
        let history_bits = history_entries * 48;
        cbf_bits + history_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::testing::{actions, event};
    use bh_dram::ThreadId;
    use proptest::prelude::*;

    fn mech(nrh: u64) -> BlockHammer {
        BlockHammer::new(DramGeometry::tiny(), &TimingParams::fast_test(), nrh)
    }

    /// True if an activation of bank 0's `row` may not be scheduled at `cycle`.
    fn blocked(b: &BlockHammer, row: usize, cycle: Cycle) -> bool {
        b.blocked_until(event(row, 0).row, cycle) > cycle
    }

    #[test]
    fn cold_rows_are_never_blocked() {
        let mut b = mech(1024);
        for i in 0..100u64 {
            actions(&mut b, &event(i as usize, i));
        }
        assert_eq!(b.blocked_rows(), 0);
        assert!(!blocked(&b, 5, 101));
    }

    #[test]
    fn hot_row_gets_blacklisted_and_delayed() {
        let mut b = mech(64); // per-window allowance 8, blacklist threshold 4
        assert_eq!(b.blacklist_threshold, 4);
        for i in 0..16u64 {
            actions(&mut b, &event(7, i));
        }
        assert_eq!(b.blocked_rows(), 1);
        assert!(blocked(&b, 7, 17));
        // Another row in the same bank is unaffected.
        assert!(!blocked(&b, 8, 17));
    }

    #[test]
    fn delay_expires_eventually() {
        let mut b = mech(64);
        for i in 0..16u64 {
            actions(&mut b, &event(7, i));
        }
        assert!(blocked(&b, 7, 20));
        // The delay is bounded by the remaining window; far in the future the
        // row is allowed again (and the window itself resets).
        let timing = TimingParams::fast_test();
        assert!(!blocked(&b, 7, timing.t_refw * 2));
    }

    #[test]
    fn blocking_rate_limits_row_below_nrh_within_window() {
        let timing = TimingParams::fast_test();
        let nrh = 64u64;
        let mut b = BlockHammer::new(DramGeometry::tiny(), &timing, nrh);
        // Simulate a controller that respects `blocked_until`: it only
        // activates when the row is not blocked, as fast as one activation
        // per cycle.
        let mut activations_in_window = 0u64;
        let mut cycle = 0u64;
        while cycle < timing.t_refw {
            if !blocked(&b, 3, cycle) {
                actions(&mut b, &event(3, cycle));
                activations_in_window += 1;
            }
            cycle += 1;
        }
        assert!(
            activations_in_window < nrh,
            "row received {activations_in_window} activations, N_RH is {nrh}"
        );
    }

    #[test]
    fn window_reset_clears_blacklist() {
        let timing = TimingParams::fast_test();
        let mut b = BlockHammer::new(DramGeometry::tiny(), &timing, 64);
        for i in 0..16u64 {
            actions(&mut b, &event(7, i));
        }
        assert_eq!(b.blocked_rows(), 1);
        actions(&mut b, &event(1, timing.t_refw + 1));
        assert_eq!(b.blocked_rows(), 0);
    }

    /// Window-edge regression: a row blacklisted at the very end of one
    /// window must (a) still be delayed by at least one cycle there (the
    /// integer spread `time_left / remaining_budget` used to truncate to a
    /// zero delay, leaving the row unthrottled for the window's tail), and
    /// (b) carry neither its stale delay nor its blacklist key into the next
    /// window — after the reset the row starts clean and is blacklisted
    /// afresh once it crosses the threshold again.
    #[test]
    fn window_edge_carries_no_stale_delay_or_dedup_key() {
        let timing = TimingParams::fast_test();
        let mut b = BlockHammer::new(DramGeometry::tiny(), &timing, 64);
        let window = timing.t_refw;

        // Cross the blacklist threshold (4) right at the window's edge, with
        // plenty of per-window budget left (allowance is 8), so
        // time_left (2) < remaining_budget and the old spread truncated to 0.
        for i in 0..4u64 {
            actions(&mut b, &event(7, window - 6 + i));
        }
        assert_eq!(b.blocked_rows(), 1);
        // The last activation happened at `window - 3`; with the zero-spread
        // hole the row's next activation was allowed at that same cycle,
        // i.e. it was never blocked at all. The one-cycle floor pushes the
        // next allowed cycle strictly past the blacklisting activation.
        assert!(
            blocked(&b, 7, window - 3),
            "a row blacklisted at the window edge must not get a zero-spread delay"
        );

        // First activation of the next window resets the window state: the
        // stale delay is dropped and the per-row counters restart.
        actions(&mut b, &event(7, window + 1));
        assert_eq!(b.blocked_rows(), 0, "the old window's blacklist must be cleared");
        assert!(!blocked(&b, 7, window + 2), "no stale delay may leak into the new window");

        // Re-blacklisting the row in the new window takes the threshold's
        // full count again (the activation above already counted 1).
        for i in 0..2u64 {
            actions(&mut b, &event(7, window + 2 + i));
        }
        assert_eq!(b.blocked_rows(), 0, "three activations stay below the threshold");
        actions(&mut b, &event(7, window + 4));
        assert_eq!(b.blocked_rows(), 1, "the fourth re-blacklists the row");
        assert!(blocked(&b, 7, window + 5));
    }

    #[test]
    fn storage_grows_as_nrh_decreases() {
        assert!(mech(64).storage_bits() > mech(4096).storage_bits());
    }

    #[test]
    fn never_issues_dram_commands() {
        let mut b = mech(64);
        for i in 0..200u64 {
            assert!(actions(&mut b, &event(7, i)).is_empty());
        }
    }

    #[test]
    fn metadata() {
        let b = mech(512);
        assert_eq!((b.allowed_per_window, b.blacklist_threshold), (64, 32));
        assert!(b.storage_bits() > 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The paged per-row counters match a dense reference (one `u32` per
        /// row, zeroed when the window rolls) across random activation
        /// streams whose rows sit on both sides of page edges and whose clock
        /// jumps roll the window, on a geometry whose channel is one page and
        /// on one with four pages per bank. A roll zeroes the pages it finds
        /// and keeps them: the store holds exactly the pages ever activated.
        #[test]
        fn paged_counts_match_a_dense_reference_across_window_rolls(
            paged in any::<bool>(),
            ops in proptest::collection::vec((0usize..8, 0usize..64, 0u8..16), 1..400),
        ) {
            const PAGE: usize = 1024;
            let mut geometry = DramGeometry::tiny();
            if paged {
                geometry.bank_groups = 1;
                geometry.rows_per_bank = 4 * PAGE;
            }
            let timing = TimingParams::fast_test();
            let mut b = BlockHammer::new(geometry.clone(), &timing, 64);
            let mut window = ResetWindow::new(timing.t_refw);
            let mut dense = vec![0u32; geometry.rows_per_channel()];
            let mut touched_pages = std::collections::BTreeSet::new();
            let rows = geometry.rows_per_bank;
            let mut cycle = 0;
            let mut sink = ActionSink::default();
            for (i, &(bank, pos, step)) in ops.iter().enumerate() {
                // Mostly back-to-back activations; one in sixteen jumps a
                // third of a window.
                cycle += if step == 0 { timing.t_refw / 3 } else { u64::from(step) };
                let bank = geometry.bank_from_flat(bank % geometry.banks_per_channel());
                let row = ((pos % 3) * PAGE + pos / 3 % 8).saturating_sub(4).min(rows - 1);
                b.on_activation(
                    &ActivationEvent { row: RowAddr { bank, row }, thread: ThreadId(0), cycle },
                    &mut sink,
                );
                if window.roll(cycle) {
                    dense.fill(0);
                }
                let flat = geometry.flat_bank(bank) * rows + row;
                dense[flat] += 1;
                touched_pages.insert(flat / PAGE);
                prop_assert_eq!(b.counts.get(flat), dense[flat], "row {} after op {}", flat, i);
            }
            for (flat, &count) in dense.iter().enumerate() {
                prop_assert_eq!(b.counts.get(flat), count, "row {}", flat);
            }
            prop_assert_eq!(b.resident_pages(), touched_pages.len());
        }
    }
}
