//! Synthetic benign-trace generation.
//!
//! [`TraceGenerator::benign`] turns a [`BenignProfile`] into an instruction
//! trace whose memory behaviour (intensity, row locality, organic hot rows)
//! matches the profile. Addresses are produced through the same address
//! mapping the memory controller uses, so the generator can place accesses in
//! specific banks and rows.

use crate::profile::{BenignProfile, UnknownProfileError};
use bh_cpu::{Trace, TraceEntry};
use bh_dram::{BankAddr, DramGeometry, DramLocation};
use bh_mem::AddressMapping;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// First row index used for a profile's hot-row set.
const HOT_ROW_BASE: usize = 1_000;
/// First row index used for a profile's streaming footprint.
const FOOTPRINT_BASE: usize = 4_000;

/// Generates synthetic traces for a given DRAM geometry and address mapping.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceGenerator {
    geometry: DramGeometry,
    mapping: AddressMapping,
}

impl TraceGenerator {
    /// Creates a generator for `geometry` using `mapping`.
    pub fn new(geometry: DramGeometry, mapping: AddressMapping) -> Self {
        TraceGenerator { geometry, mapping }
    }

    /// Creates a generator for the paper's system configuration.
    pub fn paper_default() -> Self {
        TraceGenerator::new(DramGeometry::paper_ddr5(), AddressMapping::paper_default())
    }

    /// The geometry addresses are generated for.
    pub fn geometry(&self) -> &DramGeometry {
        &self.geometry
    }

    /// The address mapping in use.
    pub fn mapping(&self) -> AddressMapping {
        self.mapping
    }

    fn encode(
        &self,
        channel: usize,
        bank: BankAddr,
        row: usize,
        column: usize,
    ) -> bh_dram::PhysAddr {
        let row = row % self.geometry.rows_per_bank;
        let column = column % self.geometry.columns_per_row;
        self.mapping.encode(&DramLocation { channel, bank, row, column }, &self.geometry)
    }

    /// Spreads a flat placement index over `(channel, bank)` pairs, channel
    /// 0's banks first — identical to the single-channel placement when the
    /// geometry has one channel, and covering every channel's banks evenly
    /// otherwise.
    fn place(&self, index: usize) -> (usize, BankAddr) {
        let banks = self.geometry.banks_per_channel();
        let slots = banks * self.geometry.channels;
        let slot = index % slots;
        (slot / banks, self.geometry.bank_from_flat(slot % banks))
    }

    /// Number of `(channel, bank)` placement slots (the divisor turning a
    /// flat row index into a per-bank row).
    fn placement_slots(&self) -> usize {
        self.geometry.banks_per_channel() * self.geometry.channels
    }

    /// Generates a benign trace for the library profile named `name` — the
    /// non-panicking composition of [`BenignProfile::resolve`] and
    /// [`TraceGenerator::benign`] for callers driven by external workload
    /// lists (campaign configs, CLI arguments).
    ///
    /// # Errors
    /// Returns [`UnknownProfileError`] if `name` is not in the profile
    /// library.
    ///
    /// # Panics
    /// Panics if `entries` is zero.
    pub fn benign_named(
        &self,
        name: &str,
        entries: usize,
        seed: u64,
    ) -> Result<Trace, UnknownProfileError> {
        Ok(self.benign(&BenignProfile::resolve(name)?, entries, seed))
    }

    /// Generates a benign trace of `entries` records from `profile`.
    ///
    /// # Panics
    /// Panics if the profile fails validation or `entries` is zero.
    pub fn benign(&self, profile: &BenignProfile, entries: usize, seed: u64) -> Trace {
        profile.validate().expect("invalid benign profile");
        assert!(entries > 0, "a trace needs at least one record");
        let mut rng = StdRng::seed_from_u64(seed ^ 0xbeef_beef);
        let mean_bubbles = (1000.0 / profile.apki - 1.0).max(0.0);
        let slots = self.placement_slots();

        let mut records = Vec::with_capacity(entries);
        let mut current: Option<(usize, BankAddr, usize, usize)> = None;
        for _ in 0..entries {
            // Bubble count jitters around the profile mean so the intensity
            // target is met on average without being perfectly periodic.
            let bubbles = if mean_bubbles < 0.5 {
                0
            } else {
                rng.gen_range((mean_bubbles * 0.5) as u32..=(mean_bubbles * 1.5) as u32 + 1)
            };

            let roll: f64 = rng.gen();
            let (channel, bank, row, column) =
                if roll < profile.hot_row_fraction && profile.hot_rows > 0 {
                    // Hot rows: skewed popularity so a handful of rows dominate
                    // (what produces Table 3's 512+ activation rows).
                    let skew: f64 = rng.gen::<f64>().powi(2);
                    let hot_index = (skew * profile.hot_rows as f64) as usize % profile.hot_rows;
                    let (channel, bank) = self.place(hot_index);
                    let row = HOT_ROW_BASE + hot_index / slots;
                    (channel, bank, row, rng.gen_range(0..self.geometry.columns_per_row))
                } else if roll < profile.hot_row_fraction + profile.row_locality {
                    // Stay in the current row (streaming within a row).
                    match current {
                        Some((channel, bank, row, column)) => (channel, bank, row, column + 1),
                        None => {
                            let idx = rng.gen_range(0..profile.footprint_rows);
                            let (channel, bank) = self.place(idx);
                            (channel, bank, FOOTPRINT_BASE + idx / slots, 0)
                        }
                    }
                } else {
                    // Jump to a random row of the streaming footprint.
                    let idx = rng.gen_range(0..profile.footprint_rows);
                    let (channel, bank) = self.place(idx);
                    let row = FOOTPRINT_BASE + idx / slots;
                    (channel, bank, row, rng.gen_range(0..self.geometry.columns_per_row))
                };
            current = Some((channel, bank, row, column));

            let addr = self.encode(channel, bank, row, column);
            let is_write = rng.gen::<f64>() < profile.write_fraction;
            records.push(if is_write {
                TraceEntry::store(bubbles, addr)
            } else {
                TraceEntry::load(bubbles, addr)
            });
        }
        Trace::new(records)
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_types)] // test-only hash collections: assertion sets and reference models, never digest-bearing
mod tests {
    use super::*;
    use crate::profile::IntensityClass;
    use bh_dram::RowAddr;
    use std::collections::HashMap;

    fn generator() -> TraceGenerator {
        TraceGenerator::paper_default()
    }

    fn decode_rows(gen: &TraceGenerator, trace: &Trace) -> Vec<RowAddr> {
        trace
            .entries()
            .iter()
            .map(|e| gen.mapping().decode(e.addr, gen.geometry()).row_addr())
            .collect()
    }

    #[test]
    fn intensity_matches_the_profile_class() {
        let g = generator();
        for profile in BenignProfile::library() {
            let trace = g.benign(&profile, 4_000, 1);
            let apki = trace.accesses_per_kilo_instruction();
            assert!(
                (apki - profile.apki).abs() / profile.apki < 0.35,
                "{}: generated APKI {apki:.1}, target {:.1}",
                profile.name,
                profile.apki
            );
            match profile.class {
                IntensityClass::High => assert!(apki >= 15.0, "{}: {apki}", profile.name),
                IntensityClass::Medium => assert!((5.0..25.0).contains(&apki), "{}", profile.name),
                IntensityClass::Low => assert!(apki < 10.0, "{}", profile.name),
            }
        }
    }

    #[test]
    fn benign_named_threads_unknown_profiles_as_errors() {
        let g = generator();
        let trace = g.benign_named("povray", 500, 3).expect("known profile");
        assert_eq!(trace, g.benign(&BenignProfile::by_name("povray").unwrap(), 500, 3));
        let err = g.benign_named("sp3c-mystery", 500, 3).unwrap_err();
        assert_eq!(err.name, "sp3c-mystery");
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let g = generator();
        let p = BenignProfile::by_name("mcf").unwrap();
        assert_eq!(g.benign(&p, 500, 7), g.benign(&p, 500, 7));
        assert_ne!(g.benign(&p, 500, 7), g.benign(&p, 500, 8));
    }

    #[test]
    fn hot_row_profiles_concentrate_accesses_on_few_rows() {
        let g = generator();
        let hot = BenignProfile::by_name("mcf").unwrap();
        let streaming = BenignProfile::by_name("libquantum").unwrap();
        let count_top_row_share = |profile: &BenignProfile| -> f64 {
            let trace = g.benign(profile, 8_000, 3);
            let rows = decode_rows(&g, &trace);
            let mut counts: HashMap<RowAddr, usize> = HashMap::new();
            for r in rows {
                *counts.entry(r).or_insert(0) += 1;
            }
            let max = counts.values().copied().max().unwrap_or(0);
            max as f64 / trace.len() as f64
        };
        let hot_share = count_top_row_share(&hot);
        let stream_share = count_top_row_share(&streaming);
        assert!(
            hot_share > 4.0 * stream_share,
            "mcf-like hot row share {hot_share:.4} should dwarf libquantum's {stream_share:.4}"
        );
    }

    #[test]
    fn footprint_spreads_across_banks() {
        let g = generator();
        let p = BenignProfile::by_name("lbm06").unwrap();
        let trace = g.benign(&p, 4_000, 11);
        let rows = decode_rows(&g, &trace);
        let distinct_banks: std::collections::HashSet<_> = rows.iter().map(|r| r.bank).collect();
        assert!(
            distinct_banks.len() >= g.geometry().banks_per_channel() / 2,
            "only {} banks touched",
            distinct_banks.len()
        );
    }

    #[test]
    fn write_fraction_is_respected() {
        let g = generator();
        let p = BenignProfile::by_name("ycsb-a").unwrap(); // 40% writes
        let trace = g.benign(&p, 6_000, 5);
        let writes = trace.entries().iter().filter(|e| e.is_write).count();
        let frac = writes as f64 / trace.len() as f64;
        assert!((frac - p.write_fraction).abs() < 0.05, "write fraction {frac}");
        // Benign traces never use uncached accesses.
        assert!(trace.entries().iter().all(|e| !e.uncached));
    }

    #[test]
    fn multichannel_generation_spreads_benign_footprints_over_all_channels() {
        let geometry = DramGeometry::paper_ddr5().with_channels(4);
        let g = TraceGenerator::new(geometry, AddressMapping::paper_default());
        let p = BenignProfile::by_name("lbm06").unwrap();
        let trace = g.benign(&p, 6_000, 11);
        let mut per_channel = [0usize; 4];
        for e in trace.entries() {
            per_channel[g.mapping().decode(e.addr, g.geometry()).channel] += 1;
        }
        for (channel, count) in per_channel.iter().enumerate() {
            assert!(
                *count > trace.len() / 16,
                "channel {channel} only received {count} of {} accesses",
                trace.len()
            );
        }
    }

    #[test]
    fn single_channel_traces_are_unchanged_by_the_channel_spread() {
        // The flat placement index spreads over (channel, bank) slots; with
        // one channel that must degenerate to the historical per-bank layout.
        let g = generator();
        let p = BenignProfile::by_name("mcf").unwrap();
        let trace = g.benign(&p, 2_000, 9);
        assert!(trace
            .entries()
            .iter()
            .all(|e| g.mapping().decode(e.addr, g.geometry()).channel == 0));
    }

    #[test]
    fn addresses_stay_within_the_simulated_capacity() {
        let g = generator();
        let p = BenignProfile::by_name("mcf").unwrap();
        let trace = g.benign(&p, 2_000, 9);
        let capacity = g.geometry().channel_bytes();
        assert!(trace.entries().iter().all(|e| e.addr.0 < capacity));
    }

    /// A generated benign trace packs into 8 bytes per record with nothing in
    /// the escape side table, so a return to 16-byte records fails here.
    #[test]
    fn a_generated_trace_compiles_to_one_word_per_record() {
        let g = generator();
        let p = BenignProfile::by_name("povray").unwrap();
        let compiled = g.benign(&p, 20_000, 42).compile();
        assert_eq!(compiled.len(), 20_000);
        assert_eq!(compiled.heap_bytes(), 20_000 * 8, "8 bytes per record, no escaped record");
    }
}
