//! Access patterns — the *hammerer* axis of the composable attacker
//! framework.
//!
//! An [`AccessPattern`] owns the temporal schedule of a hammering campaign:
//! in what order, how densely and with what row-buffer behaviour the placed
//! aggressor rows are activated. The spatial side (which banks, rows and
//! channels those aggressors occupy) comes from an
//! [`AggressorPlacement`](crate::placement::AggressorPlacement); the two
//! compose through [`ComposedAttacker`](crate::compose::ComposedAttacker).
//!
//! Four hammerers ship with the framework:
//!
//! * [`ClassicPattern`] — the pre-framework double-/many-sided/multi-bank
//!   loops, bit-identical to the old `AttackerProfile` generator;
//! * [`FuzzedPattern`] — Blacksmith-style seeded non-uniform schedules with
//!   per-aggressor frequency, phase and amplitude;
//! * [`RowPressPattern`] — RowPress-style long-open-row dwell via run-length
//!   column bursts;
//! * [`DecoyPattern`] — benign-mimicry hammering laced with organic-looking
//!   cached hot-row traffic.

use crate::attacker::AttackerKind;
use crate::placement::{AggressorGrid, PlacementRequest};
use bh_cpu::{Trace, TraceEntry};
use bh_dram::{DramGeometry, DramLocation};
use bh_mem::AddressMapping;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// First row index used by [`DecoyPattern`]'s organic-looking decoy traffic
/// (clear of the benign generators' hot rows/footprints and of the aggressor
/// region, so decoys neither hammer victims nor alias benign data).
const DECOY_BASE: usize = 12_000;

/// Non-memory instructions between two hammering accesses of
/// [`FuzzedPattern`], [`RowPressPattern`] and [`DecoyPattern`]: a tight loop.
const HAMMER_BUBBLES: u32 = 0;

/// Non-memory instructions before each of [`DecoyPattern`]'s decoy accesses.
const DECOY_BUBBLES: u32 = HAMMER_BUBBLES + 2;

/// Fraction of [`DecoyPattern`]'s accesses that are decoys (cached,
/// non-hammering).
const DECOY_FRACTION: f64 = 0.5;

/// Size of [`DecoyPattern`]'s decoy hot-row set.
const DECOY_ROWS: usize = 8;

/// Largest burst length [`FuzzedPattern`] assigns to an aggressor.
const FUZZ_MAX_AMPLITUDE: usize = 3;

/// Abstract schedule period [`FuzzedPattern`]'s frequencies and phases
/// quantise to.
const FUZZ_PERIOD: usize = 64;

/// The hammerer axis: a temporal access schedule over a placed
/// [`AggressorGrid`].
///
/// # Example
///
/// ```
/// use bh_dram::DramGeometry;
/// use bh_mem::AddressMapping;
/// use bh_workloads::{AccessPattern, AggressorPlacement, FuzzedPattern, NeighborPlacement};
///
/// let geometry = DramGeometry::paper_ddr5();
/// let pattern = FuzzedPattern::new(2, 8);
/// let grid = NeighborPlacement::new().place(&pattern.request(), &geometry);
/// let trace = pattern.generate(&grid, &geometry, AddressMapping::paper_default(), 1_000, 7);
/// assert_eq!(trace.len(), 1_000);
/// assert!(trace.entries().iter().all(|e| e.uncached));
/// ```
pub trait AccessPattern: fmt::Debug + Send + Sync {
    /// Short label used in scenario names (e.g. `"fuzz"`, `"press"`).
    fn label(&self) -> &'static str;

    /// The bank/aggressor footprint this pattern's schedule cycles through
    /// (what it asks the placement layer to allocate).
    ///
    /// # Panics
    /// Panics if the pattern's parameters are degenerate (e.g. fewer than
    /// two aggressor rows for a sided pattern).
    fn request(&self) -> PlacementRequest;

    /// Generates `entries` trace records over the placed grid,
    /// deterministically from `seed`.
    fn generate(
        &self,
        grid: &AggressorGrid,
        geometry: &DramGeometry,
        mapping: AddressMapping,
        entries: usize,
        seed: u64,
    ) -> Trace;
}

/// The pre-framework hammering loops (double-sided, many-sided, multi-bank),
/// kept bit-identical to the old `AttackerProfile` trace generator — the
/// 40-config golden digests pin this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassicPattern {
    kind: AttackerKind,
    bubbles: u32,
}

impl ClassicPattern {
    /// A classic pattern of the given kind with a tight loop (no bubbles).
    pub(crate) fn new(kind: AttackerKind) -> Self {
        ClassicPattern { kind, bubbles: 0 }
    }

    /// Overrides the non-memory instructions between hammering accesses.
    pub(crate) fn with_bubbles(mut self, bubbles: u32) -> Self {
        self.bubbles = bubbles;
        self
    }

    /// The request this kind denotes, *without* the degeneracy asserts
    /// (used by the compat facade's `aggressor_rows`, which never asserted).
    pub(crate) fn request_unchecked(kind: AttackerKind) -> PlacementRequest {
        let (banks, aggressors_per_bank) = match kind {
            AttackerKind::DoubleSided => (1usize, 2usize),
            AttackerKind::ManySided { aggressors } => (1, aggressors),
            AttackerKind::MultiBank { banks, aggressors } => (banks, aggressors),
        };
        PlacementRequest { banks, aggressors_per_bank }
    }
}

impl AccessPattern for ClassicPattern {
    fn label(&self) -> &'static str {
        "classic"
    }

    fn request(&self) -> PlacementRequest {
        match self.kind {
            AttackerKind::DoubleSided => {}
            AttackerKind::ManySided { aggressors } => {
                assert!(aggressors >= 2, "many-sided attack needs at least two aggressors");
            }
            AttackerKind::MultiBank { banks, aggressors } => {
                assert!(banks >= 1 && aggressors >= 2, "degenerate multi-bank attack");
            }
        }
        ClassicPattern::request_unchecked(self.kind)
    }

    fn generate(
        &self,
        grid: &AggressorGrid,
        geometry: &DramGeometry,
        mapping: AddressMapping,
        entries: usize,
        seed: u64,
    ) -> Trace {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xa77a_c4e5);
        let mut records = Vec::with_capacity(entries);
        let mut column = 0usize;
        let banks = grid.bank_steps();
        for i in 0..entries {
            let bank_step = i % banks;
            // The channel progression nests between the bank and aggressor
            // strides: the pattern sweeps every bank of one channel, moves to
            // the next channel, and only then advances the aggressor index —
            // so an interleaved attacker keeps every channel's tracker warm.
            let sweep = i / banks;
            let channel = grid.channel(sweep);
            let aggressor_step = sweep / grid.channel_steps();
            let row = grid.row(bank_step, aggressor_step);
            column = (column + 1 + rng.gen_range(0..3usize)) % geometry.columns_per_row;
            let loc = DramLocation {
                channel,
                bank: grid.bank(bank_step),
                row: row % geometry.rows_per_bank,
                column,
            };
            records.push(TraceEntry {
                bubbles: self.bubbles,
                addr: mapping.encode(&loc, geometry),
                is_write: false,
                uncached: true,
            });
        }
        Trace::new(records)
    }
}

/// Blacksmith-style seeded fuzzed non-uniform hammering: every aggressor is
/// assigned a fuzzed *frequency* (bursts per period), *phase* (offset of its
/// first burst) and *amplitude* (consecutive activations per burst), and the
/// resulting non-uniform schedule is what defeats mitigations that assume
/// uniformly interleaved aggressors (TRR-style samplers, BlockHammer's
/// blacklisting cadence).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzedPattern {
    banks: usize,
    aggressors_per_bank: usize,
}

impl FuzzedPattern {
    /// A fuzzed pattern over `aggressors` rows in each of `banks` banks.
    ///
    /// # Panics
    /// Panics if `banks` is zero or `aggressors` is below two.
    pub fn new(banks: usize, aggressors: usize) -> Self {
        assert!(banks >= 1, "fuzzed pattern needs at least one bank");
        assert!(aggressors >= 2, "fuzzed pattern needs at least two aggressors");
        FuzzedPattern { banks, aggressors_per_bank: aggressors }
    }

    /// The fuzzed aggressor-step schedule for one period: for every
    /// aggressor, `frequency` bursts of `amplitude` consecutive slots start
    /// at its `phase`, and the bursts of all aggressors are merged in time
    /// order. Deterministic per seed.
    fn schedule(&self, rng: &mut StdRng) -> Vec<usize> {
        let aggs = self.aggressors_per_bank;
        let mut events: Vec<(usize, usize, usize)> = Vec::new();
        for a in 0..aggs {
            let frequency = rng.gen_range(1..=4usize);
            let amplitude = rng.gen_range(1..=FUZZ_MAX_AMPLITUDE);
            let phase = rng.gen_range(0..FUZZ_PERIOD);
            for k in 0..frequency {
                let t = (phase + k * FUZZ_PERIOD / frequency) % FUZZ_PERIOD;
                events.push((t, a, amplitude));
            }
        }
        events.sort_unstable();
        let mut schedule = Vec::new();
        for (_, a, amplitude) in events {
            for _ in 0..amplitude {
                schedule.push(a);
            }
        }
        schedule
    }
}

impl AccessPattern for FuzzedPattern {
    fn label(&self) -> &'static str {
        "fuzz"
    }

    fn request(&self) -> PlacementRequest {
        PlacementRequest { banks: self.banks, aggressors_per_bank: self.aggressors_per_bank }
    }

    fn generate(
        &self,
        grid: &AggressorGrid,
        geometry: &DramGeometry,
        mapping: AddressMapping,
        entries: usize,
        seed: u64,
    ) -> Trace {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xb1ac_6417);
        let schedule = self.schedule(&mut rng);
        let mut records = Vec::with_capacity(entries);
        let mut column = 0usize;
        let banks = grid.bank_steps();
        for i in 0..entries {
            let bank_step = i % banks;
            let sweep = i / banks;
            let channel = grid.channel(sweep);
            let slot = sweep / grid.channel_steps();
            let aggressor_step = schedule[slot % schedule.len()];
            let row = grid.row(bank_step, aggressor_step);
            column = (column + 1 + rng.gen_range(0..3usize)) % geometry.columns_per_row;
            let loc = DramLocation {
                channel,
                bank: grid.bank(bank_step),
                row: row % geometry.rows_per_bank,
                column,
            };
            records.push(TraceEntry {
                bubbles: HAMMER_BUBBLES,
                addr: mapping.encode(&loc, geometry),
                is_write: false,
                uncached: true,
            });
        }
        Trace::new(records)
    }
}

/// RowPress-style long-open-row hammering: every visit to an aggressor keeps
/// its row open for a run of `dwell` consecutive column reads before moving
/// on. Far fewer *activations* reach the mitigation's counters per unit of
/// disturbance than under classic hammering — the RowPress amplification
/// that activation-counting defenses under-estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowPressPattern {
    banks: usize,
    aggressors_per_bank: usize,
    dwell: usize,
}

impl RowPressPattern {
    /// A long-open-row pattern over `aggressors` rows in each of `banks`
    /// banks, holding each row open for `dwell` consecutive column reads.
    ///
    /// # Panics
    /// Panics if `banks` is zero, `aggressors` is below two or `dwell` is
    /// zero.
    pub fn new(banks: usize, aggressors: usize, dwell: usize) -> Self {
        assert!(banks >= 1, "rowpress pattern needs at least one bank");
        assert!(aggressors >= 2, "rowpress pattern needs at least two aggressors");
        assert!(dwell >= 1, "rowpress dwell must be at least one access");
        RowPressPattern { banks, aggressors_per_bank: aggressors, dwell }
    }
}

impl AccessPattern for RowPressPattern {
    fn label(&self) -> &'static str {
        "press"
    }

    fn request(&self) -> PlacementRequest {
        PlacementRequest { banks: self.banks, aggressors_per_bank: self.aggressors_per_bank }
    }

    fn generate(
        &self,
        grid: &AggressorGrid,
        geometry: &DramGeometry,
        mapping: AddressMapping,
        entries: usize,
        seed: u64,
    ) -> Trace {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x70e5_5a11);
        let mut records = Vec::with_capacity(entries);
        let banks = grid.bank_steps();
        let cols = geometry.columns_per_row;
        let mut base_column = 0usize;
        for i in 0..entries {
            let visit = i / self.dwell;
            let within = i % self.dwell;
            let bank_step = visit % banks;
            let sweep = visit / banks;
            let channel = grid.channel(sweep);
            let aggressor_step = sweep / grid.channel_steps();
            let row = grid.row(bank_step, aggressor_step);
            if within == 0 {
                base_column = rng.gen_range(0..cols);
            }
            // Consecutive columns of the same open row: row hits that extend
            // the aggressor's open time without further activations.
            let column = (base_column + within) % cols;
            let loc = DramLocation {
                channel,
                bank: grid.bank(bank_step),
                row: row % geometry.rows_per_bank,
                column,
            };
            records.push(TraceEntry {
                bubbles: HAMMER_BUBBLES,
                addr: mapping.encode(&loc, geometry),
                is_write: false,
                uncached: true,
            });
        }
        Trace::new(records)
    }
}

/// Decoy-laced benign mimicry: classic hammering interleaved with
/// organic-looking *cached* hot-row traffic over a small decoy row set with
/// skewed popularity — the per-access profile resembles a benign hot-row
/// application (mcf-style), diluting the attacker's share of
/// RowHammer-preventive actions per retired instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecoyPattern {
    banks: usize,
    aggressors_per_bank: usize,
}

impl DecoyPattern {
    /// A decoy-laced pattern hammering `aggressors` rows in each of `banks`
    /// banks, with half of all accesses disguised as benign hot-row traffic.
    ///
    /// # Panics
    /// Panics if `banks` is zero or `aggressors` is below two.
    pub(crate) fn new(banks: usize, aggressors: usize) -> Self {
        assert!(banks >= 1, "decoy pattern needs at least one bank");
        assert!(aggressors >= 2, "decoy pattern needs at least two aggressors");
        DecoyPattern { banks, aggressors_per_bank: aggressors }
    }
}

impl AccessPattern for DecoyPattern {
    fn label(&self) -> &'static str {
        "decoy"
    }

    fn request(&self) -> PlacementRequest {
        PlacementRequest { banks: self.banks, aggressors_per_bank: self.aggressors_per_bank }
    }

    fn generate(
        &self,
        grid: &AggressorGrid,
        geometry: &DramGeometry,
        mapping: AddressMapping,
        entries: usize,
        seed: u64,
    ) -> Trace {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xdec0_7a11);
        let mut records = Vec::with_capacity(entries);
        let banks = grid.bank_steps();
        let cols = geometry.columns_per_row;
        let mut column = 0usize;
        let mut hammer_step = 0usize;
        for _ in 0..entries {
            if rng.gen::<f64>() < DECOY_FRACTION {
                // Organic-looking traffic: cached reads over a skewed decoy
                // hot-row set in the banks/channels the attack already
                // touches (so the decoys blend into the same controller).
                let skew: f64 = rng.gen::<f64>().powi(2);
                let hot = (skew * DECOY_ROWS as f64) as usize % DECOY_ROWS;
                let channel = grid.channel(rng.gen_range(0..grid.channel_steps()));
                let bank_step = rng.gen_range(0..banks);
                let loc = DramLocation {
                    channel,
                    bank: grid.bank(bank_step),
                    row: (DECOY_BASE + hot) % geometry.rows_per_bank,
                    column: rng.gen_range(0..cols),
                };
                records.push(TraceEntry {
                    bubbles: DECOY_BUBBLES,
                    addr: mapping.encode(&loc, geometry),
                    is_write: false,
                    uncached: false,
                });
            } else {
                // A classic hammering access, advancing its own schedule
                // independently of how many decoys were interleaved.
                let i = hammer_step;
                hammer_step += 1;
                let bank_step = i % banks;
                let sweep = i / banks;
                let channel = grid.channel(sweep);
                let aggressor_step = sweep / grid.channel_steps();
                let row = grid.row(bank_step, aggressor_step);
                column = (column + 1 + rng.gen_range(0..3usize)) % cols;
                let loc = DramLocation {
                    channel,
                    bank: grid.bank(bank_step),
                    row: row % geometry.rows_per_bank,
                    column,
                };
                records.push(TraceEntry {
                    bubbles: HAMMER_BUBBLES,
                    addr: mapping.encode(&loc, geometry),
                    is_write: false,
                    uncached: true,
                });
            }
        }
        Trace::new(records)
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_types)] // test-only hash collections: assertion sets and reference models, never digest-bearing
mod tests {
    use super::*;
    use crate::placement::{AggressorPlacement, NeighborPlacement};
    use crate::ChannelTarget;
    use std::collections::HashSet;

    fn geometry() -> DramGeometry {
        DramGeometry::paper_ddr5()
    }

    fn mapping() -> AddressMapping {
        AddressMapping::paper_default()
    }

    fn grid_for(pattern: &dyn AccessPattern) -> AggressorGrid {
        NeighborPlacement::new().place(&pattern.request(), &geometry())
    }

    #[test]
    fn fuzzed_pattern_is_non_uniform_and_deterministic() {
        let p = FuzzedPattern::new(1, 8);
        let grid = grid_for(&p);
        let a = p.generate(&grid, &geometry(), mapping(), 2_000, 11);
        assert_eq!(a, p.generate(&grid, &geometry(), mapping(), 2_000, 11));
        assert_ne!(a, p.generate(&grid, &geometry(), mapping(), 2_000, 12));
        // Aggressor visit counts are skewed: the most-hammered row sees at
        // least twice the traffic of the least-hammered one.
        let mut counts: std::collections::HashMap<usize, usize> = Default::default();
        for e in a.entries() {
            *counts.entry(mapping().decode(e.addr, &geometry()).row).or_insert(0) += 1;
        }
        assert!(counts.len() >= 2, "fuzzing must keep several aggressors in play");
        let max = counts.values().copied().max().unwrap();
        let min = counts.values().copied().min().unwrap();
        assert!(max >= 2 * min, "schedule should be non-uniform (max {max}, min {min})");
        assert!(a.entries().iter().all(|e| e.uncached && !e.is_write));
    }

    #[test]
    fn rowpress_pattern_dwells_on_open_rows() {
        let p = RowPressPattern::new(1, 2, 8);
        let grid = grid_for(&p);
        let t = p.generate(&grid, &geometry(), mapping(), 1_600, 3);
        // Runs of `dwell` consecutive same-row accesses with consecutive
        // columns: within a run only the column changes.
        let locs: Vec<DramLocation> =
            t.entries().iter().map(|e| mapping().decode(e.addr, &geometry())).collect();
        for run in locs.chunks(8) {
            let rows: HashSet<usize> = run.iter().map(|l| l.row).collect();
            assert_eq!(rows.len(), 1, "a dwell run stays in one open row");
            let cols: HashSet<usize> = run.iter().map(|l| l.column).collect();
            assert_eq!(cols.len(), run.len(), "dwell reads walk distinct columns");
        }
        // Consecutive runs switch rows (the activation that hammers).
        assert_ne!(locs[0].row, locs[8].row);
    }

    #[test]
    fn decoy_pattern_mixes_cached_and_uncached_traffic() {
        let p = DecoyPattern::new(2, 2);
        let grid = grid_for(&p);
        let t = p.generate(&grid, &geometry(), mapping(), 4_000, 5);
        let uncached = t.entries().iter().filter(|e| e.uncached).count();
        let cached = t.len() - uncached;
        assert!(uncached > t.len() / 3, "hammering must continue under the decoys");
        assert!(cached > t.len() / 3, "decoy traffic must be present");
        // Decoys never touch the aggressor rows.
        let aggressors: HashSet<usize> =
            grid.aggressor_rows().iter().map(|(_, r)| *r % geometry().rows_per_bank).collect();
        for e in t.entries().iter().filter(|e| !e.uncached) {
            let row = mapping().decode(e.addr, &geometry()).row;
            assert!(!aggressors.contains(&row), "decoy hit an aggressor row");
        }
    }

    #[test]
    fn patterns_walk_every_channel_under_an_interleaved_placement() {
        let g = geometry().with_channels(2);
        for pattern in [
            Box::new(FuzzedPattern::new(2, 4)) as Box<dyn AccessPattern>,
            Box::new(RowPressPattern::new(2, 2, 4)),
            Box::new(DecoyPattern::new(2, 2)),
        ] {
            let grid = NeighborPlacement::with_channels(ChannelTarget::interleave())
                .place(&pattern.request(), &g);
            let t = pattern.generate(&grid, &g, mapping(), 3_000, 9);
            let channels: HashSet<usize> =
                t.entries().iter().map(|e| mapping().decode(e.addr, &g).channel).collect();
            assert_eq!(channels, HashSet::from([0, 1]), "{}", pattern.label());
        }
    }

    #[test]
    #[should_panic(expected = "at least two aggressors")]
    fn degenerate_fuzzed_pattern_rejected() {
        let _ = FuzzedPattern::new(1, 1);
    }
}
