//! RowHammer / memory-performance-attack trace generators — the legacy
//! profile API, kept as a thin compat facade over the composable framework.
//!
//! The paper's attacker is "a malicious application that mounts a memory
//! performance attack by triggering many RowHammer-preventive actions"
//! (§8.1). [`AttackerProfile`] describes the canonical attack loops —
//! uncached (`clflush`-style) reads that repeatedly activate a small set of
//! aggressor rows, double-sided or many-sided in one bank, or spread over
//! several banks — and lowers onto the pattern × placement traits via
//! [`AttackerProfile::compose`]: the profile's [`AttackerKind`] becomes a
//! [`ClassicPattern`] and its
//! [`ChannelTarget`] a
//! [`NeighborPlacement`]. Trace
//! generation through the facade is bit-identical to the pre-framework
//! generator (pinned by the golden digests and a byte-identity proptest).

use crate::compose::ComposedAttacker;
use crate::pattern::ClassicPattern;
use crate::placement::NeighborPlacement;
use bh_cpu::Trace;
use bh_dram::DramGeometry;
use bh_mem::AddressMapping;

/// The shape of the hammering pattern.
///
/// Marked `#[non_exhaustive]`: new kinds may appear without a semver break,
/// so match with a wildcard arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum AttackerKind {
    /// Classic double-sided hammering: alternate between the two aggressor
    /// rows sandwiching a victim, in a single bank.
    DoubleSided,
    /// Many-sided ("TRRespass-style") hammering over `aggressors` rows of a
    /// single bank.
    ManySided {
        /// Number of aggressor rows cycled through.
        aggressors: usize,
    },
    /// Hammering `aggressors` rows in each of `banks` banks, maximising the
    /// number of banks whose mitigation is kept busy.
    MultiBank {
        /// Number of banks attacked in parallel.
        banks: usize,
        /// Aggressor rows per bank.
        aggressors: usize,
    },
}

/// Which memory channels an attacker hammers (irrelevant on single-channel
/// systems, where every variant degenerates to channel 0).
///
/// Marked `#[non_exhaustive]`: match with a wildcard arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ChannelTarget {
    /// All hammering traffic concentrates on one channel — the adversarial
    /// placement against per-channel trackers (one channel's mitigation does
    /// all the work while the others see nothing).
    Pinned(
        /// The targeted channel (taken modulo the geometry's channel count).
        usize,
    ),
    /// The hammering pattern is replicated over every channel in turn,
    /// keeping all per-channel trackers busy simultaneously.
    Interleave,
}

impl ChannelTarget {
    /// All traffic pinned to one channel (taken modulo the channel count).
    pub(crate) fn pinned(channel: usize) -> Self {
        ChannelTarget::Pinned(channel)
    }

    /// The pattern replicated over every channel in turn.
    pub(crate) fn interleave() -> Self {
        ChannelTarget::Interleave
    }
}

impl Default for ChannelTarget {
    fn default() -> Self {
        ChannelTarget::Pinned(0)
    }
}

/// An attacker configuration (legacy API).
///
/// New code should compose an [`AccessPattern`](crate::AccessPattern) with
/// an [`AggressorPlacement`](crate::AggressorPlacement) directly; this
/// profile covers the classic shapes and lowers onto those traits via
/// [`AttackerProfile::compose`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttackerProfile {
    /// The hammering pattern.
    pub kind: AttackerKind,
    /// Non-memory instructions between consecutive hammering accesses (a
    /// tight attack loop has very few).
    pub bubbles: u32,
    /// Which memory channels the pattern targets.
    pub channels: ChannelTarget,
}

impl AttackerProfile {
    /// The paper's default attacker: a tight uncached hammering loop that
    /// concentrates on a few aggressor rows in a handful of banks, crafted to trigger
    /// as many RowHammer-preventive actions as possible per unit time (the
    /// memory performance attack of §8.1). Concentrating the activations on
    /// few rows reaches the mitigations' per-row thresholds quickly even in
    /// short simulations; use [`AttackerKind::MultiBank`] with more banks and
    /// aggressors for longer runs.
    pub fn paper_default() -> Self {
        AttackerProfile {
            kind: AttackerKind::MultiBank { banks: 4, aggressors: 2 },
            bubbles: 0,
            channels: ChannelTarget::default(),
        }
    }

    /// A double-sided attacker.
    pub fn double_sided() -> Self {
        AttackerProfile {
            kind: AttackerKind::DoubleSided,
            bubbles: 1,
            channels: ChannelTarget::default(),
        }
    }

    /// The same attacker with all hammering pinned to one memory channel.
    pub fn pinned_to_channel(mut self, channel: usize) -> Self {
        self.channels = ChannelTarget::pinned(channel);
        self
    }

    /// The same attacker replicating its pattern over every memory channel.
    pub fn interleaved_channels(mut self) -> Self {
        self.channels = ChannelTarget::interleave();
        self
    }

    /// Lowers the profile onto the composable framework: a
    /// [`ClassicPattern`] over a [`NeighborPlacement`] honouring the
    /// profile's [`ChannelTarget`]. The result is untagged so mixes built
    /// from it keep their pre-framework names (and golden digests).
    pub fn compose(&self) -> ComposedAttacker {
        ComposedAttacker::new(
            ClassicPattern::new(self.kind).with_bubbles(self.bubbles),
            NeighborPlacement::with_channels(self.channels),
        )
        .untagged()
    }

    /// Generates the attack trace.
    ///
    /// # Panics
    /// Panics if `entries` is zero or the profile parameters are degenerate
    /// (zero aggressor rows or banks).
    pub fn trace(
        &self,
        geometry: &DramGeometry,
        mapping: AddressMapping,
        entries: usize,
        seed: u64,
    ) -> Trace {
        self.compose().trace(geometry, mapping, entries, seed)
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_types)] // test-only hash collections: assertion sets and reference models, never digest-bearing
mod tests {
    use super::*;
    use crate::placement::AggressorPlacement;
    use bh_dram::BankAddr;
    use std::collections::HashSet;

    fn geometry() -> DramGeometry {
        DramGeometry::paper_ddr5()
    }

    #[test]
    fn attack_trace_is_uncached_and_memory_intense() {
        let p = AttackerProfile::paper_default();
        let t = p.trace(&geometry(), AddressMapping::paper_default(), 2_000, 1);
        assert!(t.entries().iter().all(|e| e.uncached && !e.is_write));
        // Nearly every instruction is a memory access.
        assert!(t.accesses_per_kilo_instruction() > 300.0);
    }

    #[test]
    fn double_sided_attack_targets_two_rows_of_one_bank() {
        let p = AttackerProfile::double_sided();
        let g = geometry();
        let mapping = AddressMapping::paper_default();
        let t = p.trace(&g, mapping, 1_000, 2);
        let rows: HashSet<(BankAddr, usize)> = t
            .entries()
            .iter()
            .map(|e| {
                let loc = mapping.decode(e.addr, &g);
                (loc.bank, loc.row)
            })
            .collect();
        assert_eq!(rows.len(), 2);
        let rows: Vec<usize> = rows.iter().map(|(_, r)| *r).collect();
        assert_eq!((rows[0] as i64 - rows[1] as i64).abs(), 2, "aggressors sandwich a victim");
        let banks: HashSet<BankAddr> = rows_banks(&t, &g, mapping);
        assert_eq!(banks.len(), 1);
    }

    /// The aggressor rows `p` hammers, bank-major.
    fn aggressor_rows(p: &AttackerProfile, geometry: &DramGeometry) -> Vec<(BankAddr, usize)> {
        let request = ClassicPattern::request_unchecked(p.kind);
        NeighborPlacement::with_channels(p.channels).place(&request, geometry).aggressor_rows()
    }

    fn rows_banks(t: &Trace, g: &DramGeometry, m: AddressMapping) -> HashSet<BankAddr> {
        t.entries().iter().map(|e| m.decode(e.addr, g).bank).collect()
    }

    #[test]
    fn many_sided_attack_cycles_the_requested_number_of_aggressors() {
        let p = AttackerProfile {
            kind: AttackerKind::ManySided { aggressors: 16 },
            bubbles: 0,
            channels: ChannelTarget::default(),
        };
        let g = geometry();
        let mapping = AddressMapping::paper_default();
        let t = p.trace(&g, mapping, 3_200, 3);
        let rows: HashSet<usize> =
            t.entries().iter().map(|e| mapping.decode(e.addr, &g).row).collect();
        assert_eq!(rows.len(), 16);
        assert_eq!(aggressor_rows(&p, &g).len(), 16);
    }

    #[test]
    fn multi_bank_attack_spreads_over_banks() {
        let p = AttackerProfile {
            kind: AttackerKind::MultiBank { banks: 8, aggressors: 4 },
            bubbles: 0,
            channels: ChannelTarget::default(),
        };
        let g = geometry();
        let mapping = AddressMapping::paper_default();
        let t = p.trace(&g, mapping, 4_000, 4);
        let banks = rows_banks(&t, &g, mapping);
        assert_eq!(banks.len(), 8);
        assert_eq!(aggressor_rows(&p, &g).len(), 32);
    }

    #[test]
    fn consecutive_accesses_force_row_conflicts() {
        // Within a bank, consecutive attack accesses never target the same
        // row, so every access forces a row activation.
        let p = AttackerProfile::paper_default();
        let g = geometry();
        let mapping = AddressMapping::paper_default();
        let t = p.trace(&g, mapping, 1_000, 5);
        let locs: Vec<_> = t.entries().iter().map(|e| mapping.decode(e.addr, &g)).collect();
        for pair in locs.windows(2) {
            if pair[0].bank == pair[1].bank {
                assert_ne!(pair[0].row, pair[1].row, "same-row consecutive accesses");
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let p = AttackerProfile::paper_default();
        let g = geometry();
        let m = AddressMapping::paper_default();
        assert_eq!(p.trace(&g, m, 100, 9), p.trace(&g, m, 100, 9));
    }

    #[test]
    fn channel_targets_are_identity_on_single_channel_systems() {
        let g = geometry();
        let m = AddressMapping::paper_default();
        let base = AttackerProfile::paper_default();
        let pinned = base.pinned_to_channel(0);
        let interleaved = base.interleaved_channels();
        assert_eq!(base.trace(&g, m, 500, 3), pinned.trace(&g, m, 500, 3));
        assert_eq!(base.trace(&g, m, 500, 3), interleaved.trace(&g, m, 500, 3));
    }

    #[test]
    fn pinned_attacker_stays_in_its_channel() {
        let g = geometry().with_channels(4);
        let m = AddressMapping::paper_default();
        let p = AttackerProfile::paper_default().pinned_to_channel(2);
        let t = p.trace(&g, m, 2_000, 6);
        let channels: HashSet<usize> =
            t.entries().iter().map(|e| m.decode(e.addr, &g).channel).collect();
        assert_eq!(channels, HashSet::from([2]));
    }

    #[test]
    fn interleaved_attacker_replicates_the_pattern_on_every_channel() {
        let g = geometry().with_channels(2);
        let m = AddressMapping::paper_default();
        let p = AttackerProfile::paper_default().interleaved_channels();
        let t = p.trace(&g, m, 4_000, 6);
        let locs: Vec<_> = t.entries().iter().map(|e| m.decode(e.addr, &g)).collect();
        let channels: HashSet<usize> = locs.iter().map(|l| l.channel).collect();
        assert_eq!(channels, HashSet::from([0, 1]));
        // Each channel sees the full multi-bank many-sided pattern.
        for channel in 0..2 {
            let rows: HashSet<(BankAddr, usize)> =
                locs.iter().filter(|l| l.channel == channel).map(|l| (l.bank, l.row)).collect();
            assert_eq!(rows.len(), aggressor_rows(&p, &g).len(), "channel {channel}");
        }
    }

    #[test]
    #[should_panic(expected = "at least two aggressors")]
    fn degenerate_many_sided_rejected() {
        let p = AttackerProfile {
            kind: AttackerKind::ManySided { aggressors: 1 },
            bubbles: 0,
            channels: ChannelTarget::default(),
        };
        let _ = p.trace(&geometry(), AddressMapping::paper_default(), 10, 0);
    }
}

#[cfg(test)]
mod byte_identity {
    //! The compat facade's contract: `AttackerProfile::trace` through the
    //! composable framework is *byte-identical* to the pre-redesign
    //! generator, for every kind × channel target × seed. The reference
    //! implementation below is the old generator loop, kept verbatim.

    use super::*;
    use bh_cpu::TraceEntry;
    use bh_dram::{BankAddr, DramLocation};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const AGGRESSOR_BASE: usize = 20_000;

    /// The pre-redesign `AttackerProfile::trace`, verbatim.
    fn reference_trace(
        profile: &AttackerProfile,
        geometry: &DramGeometry,
        mapping: AddressMapping,
        entries: usize,
        seed: u64,
    ) -> Trace {
        assert!(entries > 0, "a trace needs at least one record");
        let (banks, aggressors_per_bank) = match profile.kind {
            AttackerKind::DoubleSided => (1usize, 2usize),
            AttackerKind::ManySided { aggressors } => (1, aggressors),
            AttackerKind::MultiBank { banks, aggressors } => {
                (banks.min(geometry.banks_per_channel()), aggressors)
            }
        };

        let channel_count = geometry.channels.max(1);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xa77a_c4e5);
        let mut records = Vec::with_capacity(entries);
        let mut column = 0usize;
        for i in 0..entries {
            let bank_idx = i % banks;
            let (channel, agg_step) = match profile.channels {
                ChannelTarget::Pinned(channel) => (channel % channel_count, i / banks),
                ChannelTarget::Interleave => {
                    ((i / banks) % channel_count, i / banks / channel_count)
                }
            };
            let agg_idx = agg_step % aggressors_per_bank;
            let bank: BankAddr = geometry.bank_from_flat(bank_idx);
            let row = AGGRESSOR_BASE + 2 * agg_idx;
            column = (column + 1 + rng.gen_range(0..3usize)) % geometry.columns_per_row;
            let loc = DramLocation { channel, bank, row: row % geometry.rows_per_bank, column };
            let addr = mapping.encode(&loc, geometry);
            records.push(TraceEntry {
                bubbles: profile.bubbles,
                addr,
                is_write: false,
                uncached: true,
            });
        }
        Trace::new(records)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The facade lowers onto ClassicPattern × NeighborPlacement with no
        /// byte of trace difference, for every kind × channel target, on both
        /// geometries and any channel count.
        #[test]
        fn facade_traces_are_byte_identical_to_the_legacy_generator(
            kind_sel in 0usize..3,
            aggressors in 2usize..12,
            banks in 1usize..40,
            pinned_channel in 0usize..8,
            interleave in any::<bool>(),
            bubbles in 0u32..5,
            channels in 1usize..5,
            entries in 1usize..1_500,
            seed in any::<u64>(),
            tiny in any::<bool>(),
        ) {
            let kind = match kind_sel {
                0 => AttackerKind::DoubleSided,
                1 => AttackerKind::ManySided { aggressors },
                _ => AttackerKind::MultiBank { banks, aggressors },
            };
            let target = if interleave {
                ChannelTarget::interleave()
            } else {
                ChannelTarget::pinned(pinned_channel)
            };
            let base = if tiny { DramGeometry::tiny() } else { DramGeometry::paper_ddr5() };
            let geometry = base.with_channels(channels);
            let mapping = AddressMapping::paper_default();
            let profile = AttackerProfile { kind, bubbles, channels: target };
            let new = profile.trace(&geometry, mapping, entries, seed);
            let old = reference_trace(&profile, &geometry, mapping, entries, seed);
            prop_assert_eq!(new.to_bytes(), old.to_bytes());
        }
    }
}
