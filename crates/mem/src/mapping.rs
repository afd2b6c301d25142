//! Physical-address to DRAM-coordinate mapping.
//!
//! The paper's memory controller uses the MOP ("Minimalist Open Page")
//! mapping [Kaseridis et al., MICRO 2011], which stripes small bursts of
//! consecutive cache lines across banks so that sequential streams exploit a
//! little row-buffer locality while still spreading load over all banks.
//!
//! On multi-channel systems ([`DramGeometry::channels`] > 1) consecutive
//! cache lines first alternate channels; MOP then decodes the line index
//! within the channel. With a single channel that split is the identity.
//! The simulator runs this one mapping; the two enums below have one variant
//! each and stay only so that `SystemConfig`'s `Debug` text, which campaign
//! cell ids hash, keeps naming them.

use bh_dram::{BankAddr, DramGeometry, DramLocation, PhysAddr};

/// The per-channel bank/row/column mapping scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MappingScheme {
    /// Minimalist Open Page: `row | col_high | rank | bank | bank-group |
    /// col_low(MOP burst) | line-offset` from MSB to LSB.
    Mop {
        /// Number of consecutive cache lines mapped to the same row before
        /// moving to the next bank (the "MOP burst"); must be a power of two.
        burst_lines: usize,
    },
}

/// How cache lines are distributed over the memory channels.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ChannelInterleave {
    /// Consecutive cache lines alternate channels (every stream spreads over
    /// all channels).
    #[default]
    CacheLine,
}

/// Address-mapping configuration: the per-channel [`MappingScheme`] plus the
/// [`ChannelInterleave`] policy distributing lines over channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressMapping {
    /// The per-channel bank/row/column scheme.
    pub scheme: MappingScheme,
    /// The channel-interleave policy (irrelevant on single-channel systems).
    pub interleave: ChannelInterleave,
}

impl AddressMapping {
    /// The paper's mapping: MOP with a burst of 4 cache lines, cache-line
    /// channel interleaving.
    pub fn paper_default() -> Self {
        AddressMapping {
            scheme: MappingScheme::Mop { burst_lines: 4 },
            interleave: ChannelInterleave::CacheLine,
        }
    }

    /// The channel a physical address maps to (cheap: only the channel split
    /// runs, not the full per-channel decode). Always 0 on single-channel
    /// geometries.
    pub(crate) fn channel_of(&self, addr: PhysAddr, geometry: &DramGeometry) -> usize {
        split_channel(addr.0 / geometry.column_bytes as u64, geometry).0
    }

    /// Decodes a physical address into DRAM coordinates for `geometry`.
    ///
    /// Addresses beyond the total capacity wrap around (the simulator's
    /// synthetic traces may use a larger virtual footprint than the simulated
    /// DRAM).
    pub fn decode(&self, addr: PhysAddr, geometry: &DramGeometry) -> DramLocation {
        let MappingScheme::Mop { burst_lines } = self.scheme;
        assert!(burst_lines.is_power_of_two(), "MOP burst must be a power of two");
        let (channel, mut x) = split_channel(addr.0 / geometry.column_bytes as u64, geometry);
        let col_low = (x % burst_lines as u64) as usize;
        x /= burst_lines as u64;
        let bank_group = (x % geometry.bank_groups as u64) as usize;
        x /= geometry.bank_groups as u64;
        let bank = (x % geometry.banks_per_group as u64) as usize;
        x /= geometry.banks_per_group as u64;
        let rank = (x % geometry.ranks as u64) as usize;
        x /= geometry.ranks as u64;
        let col_high_per_row = (geometry.columns_per_row / burst_lines).max(1) as u64;
        let col_high = (x % col_high_per_row) as usize;
        x /= col_high_per_row;
        let row = (x % geometry.rows_per_bank as u64) as usize;
        DramLocation {
            channel,
            bank: BankAddr { rank, bank_group, bank },
            row,
            column: col_high * burst_lines + col_low,
        }
    }

    /// Builds a physical address that decodes to the given coordinates —
    /// the inverse of [`AddressMapping::decode`], used by trace generators to
    /// target specific channels, banks and rows (e.g. the RowHammer attacker).
    pub fn encode(&self, loc: &DramLocation, geometry: &DramGeometry) -> PhysAddr {
        let MappingScheme::Mop { burst_lines } = self.scheme;
        let col_low = (loc.column % burst_lines) as u64;
        let col_high = (loc.column / burst_lines) as u64;
        let col_high_per_row = (geometry.columns_per_row / burst_lines).max(1) as u64;
        let mut x = loc.row as u64;
        x = x * col_high_per_row + col_high;
        x = x * geometry.ranks as u64 + loc.bank.rank as u64;
        x = x * geometry.banks_per_group as u64 + loc.bank.bank as u64;
        x = x * geometry.bank_groups as u64 + loc.bank.bank_group as u64;
        let inner = x * burst_lines as u64 + col_low;
        let channels = geometry.channels.max(1) as u64;
        let line = inner * channels + loc.channel as u64 % channels;
        PhysAddr(line * geometry.column_bytes as u64)
    }
}

/// Splits a global line index into `(channel, line-within-channel)`:
/// consecutive lines alternate channels.
fn split_channel(line: u64, geometry: &DramGeometry) -> (usize, u64) {
    let channels = geometry.channels.max(1) as u64;
    if channels == 1 {
        return (0, line);
    }
    ((line % channels) as usize, line / channels)
}

impl Default for AddressMapping {
    fn default() -> Self {
        AddressMapping::paper_default()
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_types)] // test-only hash collections: assertion sets and reference models, never digest-bearing
mod tests {
    use super::*;

    #[test]
    fn mop_stripes_consecutive_bursts_across_bank_groups() {
        let g = DramGeometry::paper_ddr5();
        let m = AddressMapping::paper_default();
        let line_bytes = g.column_bytes as u64;
        let a = m.decode(PhysAddr(0), &g);
        let b = m.decode(PhysAddr(4 * line_bytes), &g);
        // After one MOP burst (4 lines) the next lines land in a different
        // bank group, same row index.
        assert_ne!(a.bank.bank_group, b.bank.bank_group);
        assert_eq!(a.row, b.row);
        // Lines within a burst share bank and row and are consecutive columns.
        let c = m.decode(PhysAddr(line_bytes), &g);
        assert_eq!(a.bank, c.bank);
        assert_eq!(a.row, c.row);
        assert_eq!(c.column, a.column + 1);
    }

    #[test]
    fn encode_decode_roundtrip_mop() {
        let g = DramGeometry::tiny();
        let m = AddressMapping::paper_default();
        for rank in 0..g.ranks {
            for bg in 0..g.bank_groups {
                for bank in 0..g.banks_per_group {
                    for row in [0usize, 1, 63, 127] {
                        for column in [0usize, 3, 7, 15] {
                            let loc = DramLocation {
                                channel: 0,
                                bank: BankAddr { rank, bank_group: bg, bank },
                                row,
                                column,
                            };
                            let addr = m.encode(&loc, &g);
                            assert_eq!(m.decode(addr, &g), loc, "at {loc}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn distinct_lines_map_to_distinct_locations() {
        let g = DramGeometry::tiny();
        let m = AddressMapping::paper_default();
        let mut seen = std::collections::HashSet::new();
        for i in 0..4096u64 {
            let loc = m.decode(PhysAddr(i * 64), &g);
            assert!(seen.insert((loc.bank, loc.row, loc.column)), "collision at line {i}");
        }
    }

    #[test]
    fn addresses_inside_line_share_location() {
        let g = DramGeometry::paper_ddr5();
        let m = AddressMapping::paper_default();
        assert_eq!(m.decode(PhysAddr(0x1000), &g), m.decode(PhysAddr(0x103f), &g));
    }

    #[test]
    fn single_channel_interleaves_are_all_the_identity() {
        // With one channel the cache-line split keeps every line on channel 0
        // and leaves its index whole, so MOP alone decides the location.
        let g = DramGeometry::tiny();
        let m = AddressMapping::paper_default();
        for i in (0..4096u64).step_by(61) {
            let addr = PhysAddr(i * 64);
            let loc = m.decode(addr, &g);
            assert_eq!((loc.channel, m.channel_of(addr, &g)), (0, 0));
            assert_eq!(m.encode(&loc, &g), addr);
        }
    }

    #[test]
    fn cache_line_interleave_alternates_channels() {
        let g = DramGeometry::tiny().with_channels(4);
        let m = AddressMapping::paper_default();
        for i in 0..64u64 {
            let loc = m.decode(PhysAddr(i * 64), &g);
            assert_eq!(loc.channel, (i % 4) as usize);
            assert_eq!(m.channel_of(PhysAddr(i * 64), &g), loc.channel);
        }
    }

    #[test]
    fn multichannel_roundtrip_all_interleaves() {
        let m = AddressMapping::paper_default();
        for channels in [2usize, 3, 4] {
            let g = DramGeometry::tiny().with_channels(channels);
            for channel in 0..channels {
                for rank in 0..g.ranks {
                    for row in [0usize, 7, 127] {
                        for column in [0usize, 5, 15] {
                            let loc = DramLocation {
                                channel,
                                bank: BankAddr { rank, bank_group: 1, bank: 0 },
                                row,
                                column,
                            };
                            let addr = m.encode(&loc, &g);
                            assert_eq!(m.decode(addr, &g), loc, "x{channels} at {loc}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn multichannel_lines_cover_all_channels_without_collisions() {
        let g = DramGeometry::tiny().with_channels(2);
        let m = AddressMapping::paper_default();
        let mut seen = std::collections::HashSet::new();
        let mut per_channel = [0usize; 2];
        for i in 0..4096u64 {
            let loc = m.decode(PhysAddr(i * 64), &g);
            per_channel[loc.channel] += 1;
            assert!(
                seen.insert((loc.channel, loc.bank, loc.row, loc.column)),
                "collision at line {i}"
            );
        }
        assert_eq!(per_channel, [2048, 2048]);
    }
}
