//! Access patterns — *what* an attacker hammers: in what order, how densely
//! and with what row-buffer behaviour the placed aggressor rows are
//! activated. The spatial side (which banks, rows and channels those
//! aggressors occupy) comes from a [`Placement`](crate::placement::Placement);
//! the two meet in [`ComposedAttacker`](crate::ComposedAttacker).
//!
//! Every pattern walks the placed grid through one generator,
//! [`Pattern::generate`]; a pattern adds only its aggressor schedule, its
//! column rule and (for [`Pattern::Decoy`]) the decoy interleave.

use crate::attacker::AttackerKind;
use crate::placement::AggressorGrid;
use bh_cpu::{Trace, TraceEntry};
use bh_dram::{DramGeometry, DramLocation};
use bh_mem::AddressMapping;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// First row index used by [`Pattern::Decoy`]'s organic-looking decoy
/// traffic (clear of the benign generators' hot rows/footprints and of the
/// aggressor region, so decoys neither hammer victims nor alias benign data).
const DECOY_BASE: usize = 12_000;

/// Extra non-memory instructions before each of [`Pattern::Decoy`]'s decoy
/// accesses, on top of the attacker's bubbles.
const DECOY_EXTRA_BUBBLES: u32 = 2;

/// Fraction of [`Pattern::Decoy`]'s accesses that are decoys (cached,
/// non-hammering).
const DECOY_FRACTION: f64 = 0.5;

/// Size of [`Pattern::Decoy`]'s decoy hot-row set.
const DECOY_ROWS: usize = 8;

/// Largest burst length [`Pattern::Fuzzed`] assigns to an aggressor.
const FUZZ_MAX_AMPLITUDE: usize = 3;

/// Abstract schedule period [`Pattern::Fuzzed`]'s frequencies and phases
/// quantise to.
const FUZZ_PERIOD: usize = 64;

/// The four hammerers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Pattern {
    /// The pre-framework double-/many-sided/multi-bank loops, bit-identical
    /// to the old `AttackerProfile` generator (the classic golden digests pin
    /// this).
    Classic(AttackerKind),
    /// Blacksmith-style seeded fuzzed non-uniform hammering over `aggressors`
    /// rows in each of `banks` banks: every aggressor gets a fuzzed
    /// *frequency* (bursts per period), *phase* (offset of its first burst)
    /// and *amplitude* (consecutive activations per burst). The non-uniform
    /// schedule defeats mitigations that assume uniformly interleaved
    /// aggressors (TRR-style samplers, BlockHammer's blacklisting cadence).
    Fuzzed { banks: usize, aggressors: usize },
    /// RowPress-style long-open-row hammering: every visit to an aggressor
    /// keeps its row open for `dwell` consecutive column reads. Far fewer
    /// *activations* reach the mitigation's counters per unit of disturbance
    /// than under classic hammering — the RowPress amplification that
    /// activation-counting defenses under-estimate.
    RowPress { banks: usize, aggressors: usize, dwell: usize },
    /// Decoy-laced benign mimicry: classic hammering interleaved with
    /// organic-looking *cached* hot-row traffic over a small decoy row set
    /// with skewed popularity, so the per-access profile resembles a benign
    /// hot-row application (mcf-style) and the attacker's share of
    /// preventive actions per retired instruction is diluted.
    Decoy { banks: usize, aggressors: usize },
}

impl Pattern {
    /// The bank/aggressor footprint the schedule cycles through: `(banks,
    /// aggressors per bank)`.
    ///
    /// # Panics
    /// Panics if the parameters are degenerate (no bank, fewer than two
    /// aggressors, or a zero RowPress dwell).
    pub(crate) fn footprint(self) -> (usize, usize) {
        let (banks, aggressors) = match self {
            Pattern::Classic(AttackerKind::DoubleSided) => (1, 2),
            Pattern::Classic(AttackerKind::ManySided { aggressors }) => (1, aggressors),
            Pattern::Classic(AttackerKind::MultiBank { banks, aggressors })
            | Pattern::Fuzzed { banks, aggressors }
            | Pattern::Decoy { banks, aggressors } => (banks, aggressors),
            Pattern::RowPress { banks, aggressors, dwell } => {
                assert!(dwell >= 1, "rowpress dwell must be at least one access");
                (banks, aggressors)
            }
        };
        assert!(banks >= 1, "an attack needs at least one bank");
        assert!(aggressors >= 2, "an attack needs at least two aggressors per bank");
        (banks, aggressors)
    }

    /// Generates `entries` records over the placed `grid`, deterministically
    /// from `seed`. Hammering records carry `bubbles` non-memory
    /// instructions, decoys `bubbles + 2`. Each arm seeds the walk with its
    /// own constant and adds only what differs: its aggressor schedule, its
    /// column rule and the decoy interleave.
    pub(crate) fn generate(
        self,
        grid: AggressorGrid,
        geometry: &DramGeometry,
        mapping: AddressMapping,
        bubbles: u32,
        entries: usize,
        seed: u64,
    ) -> Trace {
        let (_, aggressors) = self.footprint();
        let walk = |salt: u64| Walk {
            grid,
            schedule: (0..aggressors).collect(),
            geometry,
            mapping,
            bubbles,
            rng: StdRng::seed_from_u64(seed ^ salt),
            column: 0,
        };
        let records: Vec<TraceEntry> = match self {
            Pattern::Classic(_) => {
                let mut walk = walk(0xa77a_c4e5);
                (0..entries).map(|i| walk.strided(i)).collect()
            }
            Pattern::Fuzzed { .. } => {
                let mut walk = walk(0xb1ac_6417);
                walk.schedule = fuzz_schedule(aggressors, &mut walk.rng);
                (0..entries).map(|i| walk.strided(i)).collect()
            }
            Pattern::RowPress { dwell, .. } => {
                // Each visit reads `dwell` consecutive columns of one open
                // row from a base drawn per visit: row hits that extend the
                // aggressor's open time without further activations.
                let mut walk = walk(0x70e5_5a11);
                let cols = geometry.columns_per_row;
                (0..entries)
                    .map(|i| {
                        if i % dwell == 0 {
                            walk.column = walk.rng.gen_range(0..cols);
                        }
                        walk.hammer(i / dwell, (walk.column + i % dwell) % cols)
                    })
                    .collect()
            }
            Pattern::Decoy { .. } => {
                // The hammering advances its own schedule independently of
                // how many decoys were interleaved.
                let mut walk = walk(0xdec0_7a11);
                let mut step = 0;
                (0..entries)
                    .map(|_| {
                        if walk.rng.gen::<f64>() < DECOY_FRACTION {
                            walk.decoy()
                        } else {
                            step += 1;
                            walk.strided(step - 1)
                        }
                    })
                    .collect()
            }
        };
        Trace::new(records)
    }
}

/// The fuzzed aggressor schedule for one period: for every aggressor,
/// `frequency` bursts of `amplitude` consecutive slots start at its `phase`,
/// and the bursts of all aggressors are merged in time order.
fn fuzz_schedule(aggressors: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut events: Vec<(usize, usize, usize)> = Vec::new();
    for a in 0..aggressors {
        let frequency = rng.gen_range(1..=4usize);
        let amplitude = rng.gen_range(1..=FUZZ_MAX_AMPLITUDE);
        let phase = rng.gen_range(0..FUZZ_PERIOD);
        for k in 0..frequency {
            let t = (phase + k * FUZZ_PERIOD / frequency) % FUZZ_PERIOD;
            events.push((t, a, amplitude));
        }
    }
    events.sort_unstable();
    events.into_iter().flat_map(|(_, a, amplitude)| std::iter::repeat_n(a, amplitude)).collect()
}

/// One trace's walk over the placed grid.
struct Walk<'a> {
    grid: AggressorGrid,
    /// The aggressor step of each schedule slot (in order unless fuzzed).
    schedule: Vec<usize>,
    geometry: &'a DramGeometry,
    mapping: AddressMapping,
    bubbles: u32,
    rng: StdRng,
    /// The column rule's state: the last strided column, or RowPress's base
    /// column of the current visit.
    column: usize,
}

impl Walk<'_> {
    /// The hammering record of walk step `step` at `column`. The channel
    /// progression nests between the bank and aggressor strides: the walk
    /// sweeps every bank of one channel, moves to the next channel, and only
    /// then advances the aggressor schedule — so an interleaved attacker
    /// keeps every channel's tracker warm.
    fn hammer(&self, step: usize, column: usize) -> TraceEntry {
        let bank_step = step % self.grid.bank_steps();
        let sweep = step / self.grid.bank_steps();
        let slot = sweep / self.grid.channel_steps();
        let row = self.grid.row(bank_step, self.schedule[slot % self.schedule.len()]);
        let loc = DramLocation {
            channel: self.grid.channel(sweep),
            bank: self.grid.bank(bank_step),
            row: row % self.geometry.rows_per_bank,
            column,
        };
        self.record(&loc, self.bubbles, true)
    }

    /// [`Walk::hammer`] under the classic column rule: a small random
    /// stride along the row.
    fn strided(&mut self, step: usize) -> TraceEntry {
        self.column =
            (self.column + 1 + self.rng.gen_range(0..3usize)) % self.geometry.columns_per_row;
        self.hammer(step, self.column)
    }

    /// An organic-looking decoy: a cached read over a skewed decoy hot-row
    /// set in the banks/channels the attack already touches (so the decoys
    /// blend into the same controller).
    fn decoy(&mut self) -> TraceEntry {
        let skew: f64 = self.rng.gen::<f64>().powi(2);
        let hot = (skew * DECOY_ROWS as f64) as usize % DECOY_ROWS;
        let channel = self.grid.channel(self.rng.gen_range(0..self.grid.channel_steps()));
        let bank = self.grid.bank(self.rng.gen_range(0..self.grid.bank_steps()));
        let loc = DramLocation {
            channel,
            bank,
            row: (DECOY_BASE + hot) % self.geometry.rows_per_bank,
            column: self.rng.gen_range(0..self.geometry.columns_per_row),
        };
        self.record(&loc, self.bubbles + DECOY_EXTRA_BUBBLES, false)
    }

    fn record(&self, loc: &DramLocation, bubbles: u32, uncached: bool) -> TraceEntry {
        TraceEntry {
            bubbles,
            addr: self.mapping.encode(loc, self.geometry),
            is_write: false,
            uncached,
        }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_types)] // test-only hash collections: assertion sets and reference models, never digest-bearing
mod tests {
    use super::*;
    use crate::placement::Placement;
    use crate::ChannelTarget;
    use std::collections::HashSet;

    fn geometry() -> DramGeometry {
        DramGeometry::paper_ddr5()
    }

    fn mapping() -> AddressMapping {
        AddressMapping::paper_default()
    }

    /// `pattern` over the single-channel neighbor placement.
    fn generate(pattern: Pattern, entries: usize, seed: u64) -> Trace {
        let (banks, aggressors) = pattern.footprint();
        let grid =
            Placement::Neighbor(ChannelTarget::default()).place(banks, aggressors, &geometry());
        pattern.generate(grid, &geometry(), mapping(), 0, entries, seed)
    }

    #[test]
    fn fuzzed_pattern_is_non_uniform_and_deterministic() {
        let p = Pattern::Fuzzed { banks: 1, aggressors: 8 };
        let a = generate(p, 2_000, 11);
        assert_eq!(a, generate(p, 2_000, 11));
        assert_ne!(a, generate(p, 2_000, 12));
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
        let t = generate(Pattern::RowPress { banks: 1, aggressors: 2, dwell: 8 }, 1_600, 3);
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
        let p = Pattern::Decoy { banks: 2, aggressors: 2 };
        let t = generate(p, 4_000, 5);
        let uncached = t.entries().iter().filter(|e| e.uncached).count();
        let cached = t.len() - uncached;
        assert!(uncached > t.len() / 3, "hammering must continue under the decoys");
        assert!(cached > t.len() / 3, "decoy traffic must be present");
        // Decoys never touch the aggressor rows.
        let grid = Placement::Neighbor(ChannelTarget::default()).place(2, 2, &geometry());
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
            Pattern::Fuzzed { banks: 2, aggressors: 4 },
            Pattern::RowPress { banks: 2, aggressors: 2, dwell: 4 },
            Pattern::Decoy { banks: 2, aggressors: 2 },
        ] {
            let (banks, aggressors) = pattern.footprint();
            let grid = Placement::Neighbor(ChannelTarget::Interleave).place(banks, aggressors, &g);
            let t = pattern.generate(grid, &g, mapping(), 0, 3_000, 9);
            let channels: HashSet<usize> =
                t.entries().iter().map(|e| mapping().decode(e.addr, &g).channel).collect();
            assert_eq!(channels, HashSet::from([0, 1]), "{pattern:?}");
        }
    }

    #[test]
    #[should_panic(expected = "at least two aggressors")]
    fn degenerate_fuzzed_pattern_rejected() {
        let _ = Pattern::Fuzzed { banks: 1, aggressors: 1 }.footprint();
    }
}
