//! Victim rows — the data an attack is trying to corrupt.
//!
//! The simulator watches exactly these rows and reports their accumulated
//! disturbance and bitflips per victim in `SimulationResult::victims`, so a
//! campaign can distinguish "the attacker was throttled" from "the attacker
//! was throttled *and the victim data survived*" — the end-to-end property
//! BreakHammer actually promises.

use crate::placement::AggressorGrid;
use bh_dram::{DramGeometry, RowAddr};
use std::collections::BTreeSet;

/// One watched victim row: a physical row on a specific channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VictimRow {
    /// The channel whose RowHammer tracker watches this row.
    pub channel: usize,
    /// The bank-qualified row address.
    pub row: RowAddr,
}

/// The sandwiched victims of a placed grid: the physical neighbours of every
/// aggressor row (the tracker's own rule, [`DramGeometry::neighbors`] at
/// blast radius 1), on every channel the grid walks. Aggressor rows are even
/// on every placement, so no neighbour is itself an aggressor. Sorted by
/// channel, then row.
pub(crate) fn sandwiched_victims(grid: &AggressorGrid, geometry: &DramGeometry) -> Vec<VictimRow> {
    let mut victims = BTreeSet::new();
    for channel in grid.channels.clone() {
        for (bank, row) in grid.aggressor_rows() {
            let aggressor = RowAddr { bank, row: row % geometry.rows_per_bank };
            victims.extend(geometry.neighbors(aggressor, 1).map(|row| VictimRow { channel, row }));
        }
    }
    victims.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attacker::{AttackerKind, ChannelTarget};
    use crate::pattern::Pattern;
    use crate::placement::Placement;
    use bh_dram::BankAddr;
    use proptest::prelude::*;

    fn grid(kind: AttackerKind, placement: Placement, geometry: &DramGeometry) -> AggressorGrid {
        let (banks, aggressors) = Pattern::Classic(kind).footprint();
        placement.place(banks, aggressors, geometry)
    }

    #[test]
    fn sandwiched_victims_are_adjacent_and_not_aggressors() {
        let geometry = DramGeometry::paper_ddr5();
        let neighbor = Placement::Neighbor(ChannelTarget::default());
        let grid = grid(AttackerKind::MultiBank { banks: 2, aggressors: 2 }, neighbor, &geometry);
        let victims = sandwiched_victims(&grid, &geometry);
        let aggressors: BTreeSet<(BankAddr, usize)> = grid.aggressor_rows().into_iter().collect();
        assert!(!victims.is_empty());
        for v in &victims {
            assert!(!aggressors.contains(&(v.row.bank, v.row.row)));
            let adjacent = aggressors
                .iter()
                .any(|(b, r)| *b == v.row.bank && (v.row.row + 1 == *r || r + 1 == v.row.row));
            assert!(adjacent, "victim {v:?} is not next to an aggressor");
        }
        // Classic neighbor placement puts aggressors at base, base+2, … so
        // the sandwiched rows base+1, … are all victims.
        let (_, base) = grid.aggressor_rows()[0];
        assert!(victims.iter().any(|v| v.row.row == base + 1));
    }

    #[test]
    fn sandwiched_victims_cover_every_grid_channel() {
        let geometry = DramGeometry::paper_ddr5().with_channels(4);
        let interleave = Placement::Neighbor(ChannelTarget::Interleave);
        let grid = grid(AttackerKind::DoubleSided, interleave, &geometry);
        let victims = sandwiched_victims(&grid, &geometry);
        let channels: BTreeSet<usize> = victims.iter().map(|v| v.channel).collect();
        assert_eq!(channels, (0..4).collect());
    }

    #[test]
    fn victim_rows_are_reduced_to_the_geometry() {
        // On the tiny test geometry (128 rows/bank) the aggressor region
        // wraps; victims must stay in range so the tracker's dense index
        // holds.
        let geometry = DramGeometry::tiny();
        let grid = grid(AttackerKind::ManySided { aggressors: 4 }, Placement::Spread, &geometry);
        for v in sandwiched_victims(&grid, &geometry) {
            assert!(v.row.row < geometry.rows_per_bank, "{v:?}");
        }
    }

    /// The wrap-around sandwich rule the victims used before they took the
    /// tracker's neighbour rule: `r ± 1` modulo the rows per bank.
    fn wrap_around_victims(grid: &AggressorGrid, geometry: &DramGeometry) -> Vec<VictimRow> {
        let rows = geometry.rows_per_bank;
        let aggressors: BTreeSet<(BankAddr, usize)> =
            grid.aggressor_rows().iter().map(|(bank, row)| (*bank, row % rows)).collect();
        let mut victims = BTreeSet::new();
        for channel in grid.channels.clone() {
            for (bank, row) in &aggressors {
                for neighbor in [(row + 1) % rows, (row + rows - 1) % rows] {
                    if !aggressors.contains(&(*bank, neighbor)) {
                        victims.insert(VictimRow {
                            channel,
                            row: RowAddr { bank: *bank, row: neighbor },
                        });
                    }
                }
            }
        }
        victims.into_iter().collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Aggressor rows are always even and a wrap to row 0 always comes
        /// with an aggressor at `rows - 2`, so the tracker's neighbour rule
        /// and the old wrap-around rule pick the same victims for every
        /// shipped pattern × placement — including aggressor regions that
        /// wrap the tiny geometry's 128 rows.
        #[test]
        fn neighbor_rule_matches_the_wrap_around_rule(
            banks in 1usize..40,
            aggressors in 2usize..160,
            spread in any::<bool>(),
            interleave in any::<bool>(),
            channels in 1usize..4,
            tiny in any::<bool>(),
        ) {
            let base = if tiny { DramGeometry::tiny() } else { DramGeometry::paper_ddr5() };
            let geometry = base.with_channels(channels);
            let target =
                if interleave { ChannelTarget::Interleave } else { ChannelTarget::Pinned(1) };
            let placement = if spread { Placement::Spread } else { Placement::Neighbor(target) };
            let grid = placement.place(banks, aggressors, &geometry);
            let victims = sandwiched_victims(&grid, &geometry);
            prop_assert_eq!(victims, wrap_around_victims(&grid, &geometry));
        }
    }
}
