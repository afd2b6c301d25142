//! Aggressor placement — *where* an attacker's pattern lands: which banks
//! hold aggressor rows, which row indices those aggressors use, and which
//! memory channels the pattern walks. The *what* (the temporal access
//! schedule over the placed rows) is the [`Pattern`](crate::pattern::Pattern)'s
//! job; the two meet in [`ComposedAttacker`](crate::ComposedAttacker).

use crate::attacker::ChannelTarget;
use bh_dram::{BankAddr, DramGeometry};
use std::ops::Range;

/// First row index used for aggressor rows (kept away from the benign
/// generators' hot rows and footprints so the attacker does not accidentally
/// share rows with victims' data). Even, like [`SPREAD_ROW_STRIDE`] and the
/// two-row aggressor spacing, so every aggressor row is even and no victim
/// (an aggressor's neighbour) is itself an aggressor.
const AGGRESSOR_BASE: usize = 20_000;

/// Row offset between consecutive banks' aggressor regions under
/// [`Placement::Spread`].
const SPREAD_ROW_STRIDE: usize = 64;

/// The two placements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Placement {
    /// Mapping-aware neighbor targeting: aggressors occupy the first banks
    /// (flat bank order) and rows spaced two apart from `AGGRESSOR_BASE`, so
    /// every consecutive aggressor pair sandwiches a victim row, on the
    /// channels the target names. The placement the classic
    /// [`AttackerProfile`](crate::AttackerProfile) always used.
    Neighbor(ChannelTarget),
    /// Bank/channel spreading: banks are strided across the flat bank space
    /// (so consecutive bank steps land in different bank groups and ranks),
    /// each bank hammers its own row region, and the pattern interleaves over
    /// every channel — stretching the mitigation's per-bank and per-channel
    /// state as thinly as possible.
    Spread,
}

impl Placement {
    /// Places `aggressors` rows in each of `banks` banks (clamped to the
    /// geometry's banks per channel) on `geometry`.
    pub(crate) fn place(
        self,
        banks: usize,
        aggressors: usize,
        geometry: &DramGeometry,
    ) -> AggressorGrid {
        let total = geometry.banks_per_channel();
        let banks = banks.min(total).max(1);
        let (target, bank_stride, row_stride) = match self {
            Placement::Neighbor(target) => (target, 1, 0),
            Placement::Spread => {
                (ChannelTarget::Interleave, (total / banks).max(1), SPREAD_ROW_STRIDE)
            }
        };
        let channel_count = geometry.channels;
        let channels = match target {
            ChannelTarget::Pinned(channel) => {
                let channel = channel % channel_count;
                channel..channel + 1
            }
            ChannelTarget::Interleave => 0..channel_count,
        };
        AggressorGrid {
            channels,
            banks: (0..banks).map(|b| geometry.bank_from_flat((b * bank_stride) % total)).collect(),
            aggressors,
            row_stride,
        }
    }
}

/// The placed aggressor grid: a channel walk × a bank set × the aggressor
/// rows within each bank.
///
/// The generator indexes the grid with *steps*; the grid translates them into
/// concrete channels, [`BankAddr`]s and raw row indices. Rows are un-reduced
/// — callers reduce them modulo the geometry's `rows_per_bank`, so tiny test
/// geometries alias exactly like the pre-framework generator did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct AggressorGrid {
    /// The channels of the walk, in sweep order.
    pub(crate) channels: Range<usize>,
    banks: Vec<BankAddr>,
    aggressors: usize,
    row_stride: usize,
}

impl AggressorGrid {
    /// Number of channel steps in the walk.
    pub(crate) fn channel_steps(&self) -> usize {
        self.channels.len()
    }

    /// Number of banks in the grid.
    pub(crate) fn bank_steps(&self) -> usize {
        self.banks.len()
    }

    /// Channel of the given sweep step (wraps around the walk).
    pub(crate) fn channel(&self, step: usize) -> usize {
        self.channels.start + step % self.channels.len()
    }

    /// Bank of the given bank step (wraps around the bank set).
    pub(crate) fn bank(&self, step: usize) -> BankAddr {
        self.banks[step % self.banks.len()]
    }

    /// Raw (un-reduced) aggressor row for a bank/aggressor step pair.
    pub(crate) fn row(&self, bank_step: usize, aggressor_step: usize) -> usize {
        let b = bank_step % self.banks.len();
        AGGRESSOR_BASE + b * self.row_stride + 2 * (aggressor_step % self.aggressors)
    }

    /// Every placed aggressor as `(bank, raw_row)`, bank-major.
    pub(crate) fn aggressor_rows(&self) -> Vec<(BankAddr, usize)> {
        (0..self.bank_steps())
            .flat_map(|b| (0..self.aggressors).map(move |a| (self.bank(b), self.row(b, a))))
            .collect()
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_types)] // test-only hash collections: assertion sets and reference models, never digest-bearing
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn geometry() -> DramGeometry {
        DramGeometry::paper_ddr5()
    }

    #[test]
    fn neighbor_placement_reproduces_the_legacy_layout() {
        let grid = Placement::Neighbor(ChannelTarget::default()).place(4, 2, &geometry());
        assert_eq!(grid.bank_steps(), 4);
        assert_eq!(grid.channel_steps(), 1);
        assert_eq!(grid.channel(0), 0);
        for b in 0..4 {
            assert_eq!(grid.bank(b), geometry().bank_from_flat(b));
            assert_eq!(grid.row(b, 0), AGGRESSOR_BASE);
            assert_eq!(grid.row(b, 1), AGGRESSOR_BASE + 2);
        }
        assert_eq!(grid.aggressor_rows().len(), 8);
    }

    #[test]
    fn neighbor_placement_clamps_banks_to_the_geometry() {
        let grid = Placement::Neighbor(ChannelTarget::default()).place(10_000, 2, &geometry());
        assert_eq!(grid.bank_steps(), geometry().banks_per_channel());
    }

    #[test]
    fn channel_walks_match_the_channel_target() {
        let g = geometry().with_channels(4);
        let pinned = Placement::Neighbor(ChannelTarget::Pinned(6)).place(1, 2, &g);
        assert_eq!(pinned.channels, 2..3, "pinned channel wraps modulo the channel count");
        let interleaved = Placement::Neighbor(ChannelTarget::Interleave).place(1, 2, &g);
        assert_eq!(interleaved.channels, 0..4);
        assert_eq!(Placement::Spread.place(1, 2, &g).channels, 0..4, "spreading interleaves");
    }

    #[test]
    fn spread_placement_lands_in_distinct_banks_and_row_regions() {
        let grid = Placement::Spread.place(4, 2, &geometry());
        let banks: HashSet<BankAddr> = (0..grid.bank_steps()).map(|b| grid.bank(b)).collect();
        assert_eq!(banks.len(), 4, "spread banks must be distinct");
        // Different banks hammer disjoint row regions.
        let rows: HashSet<usize> = (0..4).map(|b| grid.row(b, 0)).collect();
        assert_eq!(rows.len(), 4);
        // And the banks are *not* the first four flat banks (that is the
        // neighbor placement's layout).
        let neighbor = Placement::Neighbor(ChannelTarget::default()).place(4, 2, &geometry());
        let neighbor_banks: HashSet<BankAddr> =
            (0..neighbor.bank_steps()).map(|b| neighbor.bank(b)).collect();
        assert_ne!(banks, neighbor_banks);
    }
}
