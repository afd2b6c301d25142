//! Aggressor placement — the *allocator* axis of the composable attacker
//! framework.
//!
//! An [`AggressorPlacement`] decides **where** a hammering pattern lands:
//! which banks hold aggressor rows, which row indices those aggressors use,
//! and which memory channels the pattern walks. The *what* (the temporal
//! access schedule over the placed rows) is the
//! [`AccessPattern`](crate::pattern::AccessPattern)'s job; the two compose
//! through [`ComposedAttacker`](crate::compose::ComposedAttacker).
//!
//! The placement subsumes the channel dimension that used to live in
//! [`ChannelTarget`]: a placement yields the
//! ordered list of channels the pattern sweeps, so "pinned to channel 2" and
//! "interleave over every channel" are just two channel lists.

use crate::attacker::ChannelTarget;
use bh_dram::{BankAddr, DramGeometry};
use std::fmt;

/// First row index used for aggressor rows (kept away from the benign
/// generators' hot rows and footprints so the attacker does not accidentally
/// share rows with victims' data).
pub(crate) const AGGRESSOR_BASE: usize = 20_000;

/// What an [`AccessPattern`](crate::pattern::AccessPattern) asks the
/// placement layer for: the bank/aggressor footprint its schedule cycles
/// through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacementRequest {
    /// Number of banks the pattern hammers in parallel (clamped to the
    /// geometry's banks per channel by the placement).
    pub banks: usize,
    /// Aggressor rows the pattern cycles within each bank.
    pub aggressors_per_bank: usize,
}

/// The placed aggressor grid: an ordered channel walk × a bank set × the
/// aggressor rows within each bank.
///
/// Patterns index the grid with *steps* (`channel_step`, `bank_step`,
/// `aggressor_step`); the grid translates steps into concrete channels,
/// [`BankAddr`]s and raw row indices. Row indices are stored un-reduced —
/// callers reduce them modulo the geometry's `rows_per_bank` at encode time,
/// so tiny test geometries alias exactly like the pre-framework generator
/// did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggressorGrid {
    channels: Vec<usize>,
    banks: Vec<BankAddr>,
    /// Bank-major raw rows: `rows[bank_step * aggressors_per_bank + a]`.
    rows: Vec<usize>,
    aggressors_per_bank: usize,
}

impl AggressorGrid {
    /// Builds a grid from an ordered channel walk, a bank set and bank-major
    /// aggressor rows.
    ///
    /// # Panics
    /// Panics if any dimension is empty or `rows` does not hold exactly
    /// `aggressors_per_bank` rows per bank.
    pub(crate) fn new(
        channels: Vec<usize>,
        banks: Vec<BankAddr>,
        rows: Vec<usize>,
        aggressors_per_bank: usize,
    ) -> Self {
        assert!(!channels.is_empty(), "a grid needs at least one channel");
        assert!(!banks.is_empty(), "a grid needs at least one bank");
        assert!(aggressors_per_bank >= 1, "a grid needs at least one aggressor per bank");
        assert_eq!(
            rows.len(),
            banks.len() * aggressors_per_bank,
            "rows must be bank-major with aggressors_per_bank rows per bank"
        );
        AggressorGrid { channels, banks, rows, aggressors_per_bank }
    }

    /// Number of channel steps in the walk.
    pub(crate) fn channel_steps(&self) -> usize {
        self.channels.len()
    }

    /// Number of banks in the grid.
    pub fn bank_steps(&self) -> usize {
        self.banks.len()
    }

    /// Number of aggressor rows per bank.
    pub fn aggressor_steps(&self) -> usize {
        self.aggressors_per_bank
    }

    /// The channels of the walk, in sweep order.
    pub(crate) fn channels(&self) -> &[usize] {
        &self.channels
    }

    /// Channel of the given sweep step (wraps around the walk).
    pub(crate) fn channel(&self, step: usize) -> usize {
        self.channels[step % self.channels.len()]
    }

    /// Bank of the given bank step (wraps around the bank set).
    pub(crate) fn bank(&self, step: usize) -> BankAddr {
        self.banks[step % self.banks.len()]
    }

    /// Raw (un-reduced) aggressor row for a bank/aggressor step pair.
    pub fn row(&self, bank_step: usize, aggressor_step: usize) -> usize {
        let b = bank_step % self.banks.len();
        let a = aggressor_step % self.aggressors_per_bank;
        self.rows[b * self.aggressors_per_bank + a]
    }

    /// Every placed aggressor as `(bank, raw_row)`, bank-major.
    pub fn aggressor_rows(&self) -> Vec<(BankAddr, usize)> {
        let mut out = Vec::with_capacity(self.banks.len() * self.aggressors_per_bank);
        for (b, bank) in self.banks.iter().enumerate() {
            for a in 0..self.aggressors_per_bank {
                out.push((*bank, self.rows[b * self.aggressors_per_bank + a]));
            }
        }
        out
    }
}

/// The allocator axis: turns a pattern's [`PlacementRequest`] into a
/// concrete [`AggressorGrid`] for a geometry.
///
/// # Example
///
/// ```
/// use bh_dram::DramGeometry;
/// use bh_workloads::{AggressorPlacement, NeighborPlacement, PlacementRequest};
///
/// let geometry = DramGeometry::paper_ddr5();
/// let request = PlacementRequest { banks: 2, aggressors_per_bank: 3 };
/// let grid = NeighborPlacement::new().place(&request, &geometry);
/// assert_eq!(grid.bank_steps(), 2);
/// assert_eq!(grid.aggressor_steps(), 3);
/// // Aggressors are spaced two rows apart, sandwiching victims.
/// assert_eq!(grid.row(0, 1) - grid.row(0, 0), 2);
/// ```
pub trait AggressorPlacement: fmt::Debug + Send + Sync {
    /// Short label used in scenario names (e.g. `"nbr"`, `"spr"`).
    fn label(&self) -> &'static str;

    /// Places the requested bank/aggressor footprint on `geometry`.
    fn place(&self, request: &PlacementRequest, geometry: &DramGeometry) -> AggressorGrid;
}

/// Mapping-aware neighbor targeting: aggressors occupy the first requested
/// banks (flat bank order) and rows spaced two apart from
/// `AGGRESSOR_BASE`, so every consecutive aggressor pair sandwiches a victim
/// row. This is the placement the pre-framework
/// [`AttackerProfile`](crate::AttackerProfile) always used, including its
/// channel targeting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NeighborPlacement {
    channels: ChannelTarget,
}

impl NeighborPlacement {
    /// Neighbor targeting on channel 0 (the single-channel default).
    pub fn new() -> Self {
        NeighborPlacement { channels: ChannelTarget::default() }
    }

    /// Neighbor targeting with an explicit channel target.
    pub(crate) fn with_channels(channels: ChannelTarget) -> Self {
        NeighborPlacement { channels }
    }
}

/// The ordered channel walk a [`ChannelTarget`] denotes on `geometry`.
pub(crate) fn channel_walk(channels: ChannelTarget, geometry: &DramGeometry) -> Vec<usize> {
    let channel_count = geometry.channels.max(1);
    match channels {
        ChannelTarget::Pinned(channel) => vec![channel % channel_count],
        ChannelTarget::Interleave => (0..channel_count).collect(),
    }
}

impl AggressorPlacement for NeighborPlacement {
    fn label(&self) -> &'static str {
        "nbr"
    }

    fn place(&self, request: &PlacementRequest, geometry: &DramGeometry) -> AggressorGrid {
        let banks = request.banks.min(geometry.banks_per_channel()).max(1);
        let bank_addrs: Vec<BankAddr> = (0..banks).map(|b| geometry.bank_from_flat(b)).collect();
        let rows: Vec<usize> = (0..banks)
            .flat_map(|_| (0..request.aggressors_per_bank).map(|a| AGGRESSOR_BASE + 2 * a))
            .collect();
        AggressorGrid::new(
            channel_walk(self.channels, geometry),
            bank_addrs,
            rows,
            request.aggressors_per_bank,
        )
    }
}

/// Bank/channel spreading: banks are strided across the flat bank space (so
/// consecutive bank steps land in different bank groups and ranks), each bank
/// hammers a different row region, and the pattern interleaves over every
/// channel by default — the placement that maximises how thinly the
/// mitigation's per-bank and per-channel state is stretched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpreadPlacement {
    channels: ChannelTarget,
    /// Row offset between consecutive banks' aggressor regions.
    bank_row_stride: usize,
}

impl SpreadPlacement {
    /// Spreading over every channel with the default per-bank row stride.
    pub fn new() -> Self {
        SpreadPlacement { channels: ChannelTarget::interleave(), bank_row_stride: 64 }
    }
}

impl Default for SpreadPlacement {
    fn default() -> Self {
        SpreadPlacement::new()
    }
}

impl AggressorPlacement for SpreadPlacement {
    fn label(&self) -> &'static str {
        "spr"
    }

    fn place(&self, request: &PlacementRequest, geometry: &DramGeometry) -> AggressorGrid {
        let total = geometry.banks_per_channel();
        let banks = request.banks.min(total).max(1);
        // Stride through the flat bank space so consecutive bank steps land
        // as far apart as possible (different bank groups / ranks).
        let stride = (total / banks).max(1);
        let bank_addrs: Vec<BankAddr> =
            (0..banks).map(|b| geometry.bank_from_flat((b * stride) % total)).collect();
        let rows: Vec<usize> = (0..banks)
            .flat_map(|b| {
                (0..request.aggressors_per_bank)
                    .map(move |a| AGGRESSOR_BASE + b * self.bank_row_stride + 2 * a)
            })
            .collect();
        AggressorGrid::new(
            channel_walk(self.channels, geometry),
            bank_addrs,
            rows,
            request.aggressors_per_bank,
        )
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
        let request = PlacementRequest { banks: 4, aggressors_per_bank: 2 };
        let grid = NeighborPlacement::new().place(&request, &geometry());
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
        let request = PlacementRequest { banks: 10_000, aggressors_per_bank: 2 };
        let grid = NeighborPlacement::new().place(&request, &geometry());
        assert_eq!(grid.bank_steps(), geometry().banks_per_channel());
    }

    #[test]
    fn channel_walks_match_the_channel_target() {
        let g = geometry().with_channels(4);
        let request = PlacementRequest { banks: 1, aggressors_per_bank: 2 };
        let pinned = NeighborPlacement::with_channels(ChannelTarget::pinned(6)).place(&request, &g);
        assert_eq!(pinned.channels(), &[2], "pinned channel wraps modulo the channel count");
        let interleaved =
            NeighborPlacement::with_channels(ChannelTarget::interleave()).place(&request, &g);
        assert_eq!(interleaved.channels(), &[0, 1, 2, 3]);
    }

    #[test]
    fn spread_placement_lands_in_distinct_banks_and_row_regions() {
        let request = PlacementRequest { banks: 4, aggressors_per_bank: 2 };
        let grid = SpreadPlacement::new().place(&request, &geometry());
        let banks: HashSet<BankAddr> = (0..grid.bank_steps()).map(|b| grid.bank(b)).collect();
        assert_eq!(banks.len(), 4, "spread banks must be distinct");
        // Different banks hammer disjoint row regions.
        let rows: HashSet<usize> = (0..4).map(|b| grid.row(b, 0)).collect();
        assert_eq!(rows.len(), 4);
        // And the banks are *not* the first four flat banks (that is the
        // neighbor placement's layout).
        let neighbor = NeighborPlacement::new().place(&request, &geometry());
        let neighbor_banks: HashSet<BankAddr> =
            (0..neighbor.bank_steps()).map(|b| neighbor.bank(b)).collect();
        assert_ne!(banks, neighbor_banks);
    }

    #[test]
    #[should_panic(expected = "bank-major")]
    fn malformed_grid_rejected() {
        let _ = AggressorGrid::new(vec![0], vec![geometry().bank_from_flat(0)], vec![1, 2, 3], 2);
    }
}
