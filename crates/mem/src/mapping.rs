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
//!
//! Every per-channel dimension and the MOP burst are powers of two, so a
//! [`MopLayout`], built once per geometry, splits addresses with shifts and
//! masks alone. Only a channel count that is not a power of two divides.

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

    /// The shift/mask layout of this mapping on `geometry`. Build it once
    /// per geometry and decode or encode through it.
    ///
    /// # Panics
    /// Panics if the MOP burst or a per-channel dimension of `geometry` is
    /// not a power of two (`SystemConfig::validate` reports either as an
    /// error first).
    pub fn layout(&self, geometry: &DramGeometry) -> MopLayout {
        MopLayout::new(*self, geometry)
    }

    /// Decodes a physical address into DRAM coordinates for `geometry`; see
    /// [`MopLayout::decode`]. Builds the layout on every call: hot paths
    /// keep one [`AddressMapping::layout`] instead.
    pub fn decode(&self, addr: PhysAddr, geometry: &DramGeometry) -> DramLocation {
        self.layout(geometry).decode(addr)
    }

    /// Builds a physical address that decodes to `loc`; see
    /// [`MopLayout::encode`]. Builds the layout on every call: hot paths
    /// keep one [`AddressMapping::layout`] instead.
    pub fn encode(&self, loc: &DramLocation, geometry: &DramGeometry) -> PhysAddr {
        self.layout(geometry).encode(loc)
    }
}

/// How a global line index splits into `(channel, line within the channel)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChannelSplit {
    /// A power-of-two channel count: the low `bits` bits name the channel.
    Shift { bits: u32 },
    /// Any other count: the remainder names the channel.
    Divide { channels: u64 },
}

/// The MOP mapping on one geometry as bit-field widths, from the LSB:
/// `line offset | channel | col_low | bank group | bank | rank | col_high |
/// row`. Built by [`AddressMapping::layout`]; [`MopLayout::decode`] and
/// [`MopLayout::encode`] use shifts and masks only (the channel field is a
/// remainder when the channel count is not a power of two).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MopLayout {
    line_bits: u32,
    channel: ChannelSplit,
    burst_bits: u32,
    bank_group_bits: u32,
    bank_bits: u32,
    rank_bits: u32,
    /// Column bursts per row; none when the row is shorter than one burst.
    col_high_bits: u32,
    row_bits: u32,
}

impl MopLayout {
    fn new(mapping: AddressMapping, geometry: &DramGeometry) -> Self {
        let MappingScheme::Mop { burst_lines } = mapping.scheme;
        assert!(burst_lines.is_power_of_two(), "MOP burst must be a power of two");
        if let Some((field, value)) = geometry.non_power_of_two_dimension() {
            panic!("geometry.{field} = {value} is not a power of two");
        }
        let log2 = |n: usize| n.trailing_zeros();
        let channel = if geometry.channels.is_power_of_two() {
            ChannelSplit::Shift { bits: log2(geometry.channels) }
        } else {
            ChannelSplit::Divide { channels: geometry.channels as u64 }
        };
        MopLayout {
            line_bits: log2(geometry.column_bytes),
            channel,
            burst_bits: log2(burst_lines),
            bank_group_bits: log2(geometry.bank_groups),
            bank_bits: log2(geometry.banks_per_group),
            rank_bits: log2(geometry.ranks),
            col_high_bits: log2(geometry.columns_per_row).saturating_sub(log2(burst_lines)),
            row_bits: log2(geometry.rows_per_bank),
        }
    }

    /// The channel a physical address maps to (cheap: only the channel split
    /// runs, not the full per-channel decode). Always 0 on single-channel
    /// geometries.
    #[inline]
    pub(crate) fn channel_of(&self, addr: PhysAddr) -> usize {
        self.split_channel(addr.0 >> self.line_bits).0
    }

    /// Decodes a physical address into DRAM coordinates.
    ///
    /// Addresses beyond the total capacity wrap around (the simulator's
    /// synthetic traces may use a larger virtual footprint than the simulated
    /// DRAM).
    #[inline]
    pub fn decode(&self, addr: PhysAddr) -> DramLocation {
        let (channel, mut x) = self.split_channel(addr.0 >> self.line_bits);
        let mut field = |bits: u32| {
            let value = (x & low_mask(bits)) as usize;
            x >>= bits;
            value
        };
        let col_low = field(self.burst_bits);
        let bank_group = field(self.bank_group_bits);
        let bank = field(self.bank_bits);
        let rank = field(self.rank_bits);
        let col_high = field(self.col_high_bits);
        let row = field(self.row_bits);
        DramLocation {
            channel,
            bank: BankAddr { rank, bank_group, bank },
            row,
            column: (col_high << self.burst_bits) + col_low,
        }
    }

    /// Builds a physical address that decodes to the given coordinates —
    /// the inverse of [`MopLayout::decode`], used by trace generators to
    /// target specific channels, banks and rows (e.g. the RowHammer attacker).
    /// Fields are added, not masked, so an out-of-range coordinate carries
    /// into the next field exactly as a multiply-and-add would.
    #[inline]
    pub fn encode(&self, loc: &DramLocation) -> PhysAddr {
        let column = loc.column as u64;
        let mut x = loc.row as u64;
        for (bits, value) in [
            (self.col_high_bits, column >> self.burst_bits),
            (self.rank_bits, loc.bank.rank as u64),
            (self.bank_bits, loc.bank.bank as u64),
            (self.bank_group_bits, loc.bank.bank_group as u64),
            (self.burst_bits, column & low_mask(self.burst_bits)),
        ] {
            x = (x << bits) + value;
        }
        let line = match self.channel {
            ChannelSplit::Shift { bits } => (x << bits) + (loc.channel as u64 & low_mask(bits)),
            ChannelSplit::Divide { channels } => x * channels + loc.channel as u64 % channels,
        };
        PhysAddr(line << self.line_bits)
    }

    /// Splits an index whose lowest digit is a channel, such as a global line
    /// index (consecutive lines alternate channels), into `(index % channels,
    /// index / channels)`: a mask and a shift unless the channel count is
    /// not a power of two.
    #[inline]
    pub fn split_channel(&self, index: u64) -> (usize, u64) {
        match self.channel {
            ChannelSplit::Shift { bits } => ((index & low_mask(bits)) as usize, index >> bits),
            ChannelSplit::Divide { channels } => ((index % channels) as usize, index / channels),
        }
    }
}

/// The low `bits` bits set.
#[inline]
fn low_mask(bits: u32) -> u64 {
    (1 << bits) - 1
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
            assert_eq!((loc.channel, m.layout(&g).channel_of(addr)), (0, 0));
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
            assert_eq!(m.layout(&g).channel_of(PhysAddr(i * 64)), loc.channel);
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

    /// The division-based MOP decode the shift layout replaced, verbatim.
    fn reference_decode(
        addr: PhysAddr,
        geometry: &DramGeometry,
        burst_lines: usize,
    ) -> DramLocation {
        let line = addr.0 / geometry.column_bytes as u64;
        let channels = geometry.channels as u64;
        let (channel, mut x) =
            if channels == 1 { (0, line) } else { ((line % channels) as usize, line / channels) };
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

    /// The shift layout decodes every address as the division-based decode
    /// does, at every channel count from 1 to 5 and every burst from 1 to
    /// past a tiny row: addresses inside and far past the capacity (which
    /// wrap), and full 64-bit ones. Each decoded location encodes back to an
    /// address that decodes to it.
    #[test]
    fn the_shift_layout_decodes_as_the_division_based_decode() {
        let mut state = 0x5eed_u64;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for base in [DramGeometry::tiny(), DramGeometry::paper_ddr5()] {
            for channels in 1..=5 {
                let g = base.clone().with_channels(channels);
                let capacity = g.channel_bytes() * channels as u64;
                for burst_lines in [1, 4, 32] {
                    let m = AddressMapping {
                        scheme: MappingScheme::Mop { burst_lines },
                        ..AddressMapping::paper_default()
                    };
                    let layout = m.layout(&g);
                    for i in 0..400 {
                        let x = next();
                        let addr = PhysAddr(match i % 3 {
                            0 => x % capacity,
                            1 => x % (capacity * 64),
                            _ => x,
                        });
                        let loc = layout.decode(addr);
                        assert_eq!(
                            loc,
                            reference_decode(addr, &g, burst_lines),
                            "{addr:?} x{channels}"
                        );
                        assert_eq!(layout.channel_of(addr), loc.channel);
                        assert_eq!(layout.decode(layout.encode(&loc)), loc, "{addr:?} x{channels}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "geometry.columns_per_row = 12 is not a power of two")]
    fn a_layout_refuses_a_dimension_that_is_not_a_power_of_two() {
        AddressMapping::paper_default()
            .layout(&DramGeometry { columns_per_row: 12, ..DramGeometry::tiny() });
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
