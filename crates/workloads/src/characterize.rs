//! Workload characterisation (Table 3 of the paper).
//!
//! For each workload, Table 3 reports the row-buffer misses per
//! kilo-instruction (RBMPKI) and the average number of DRAM rows receiving
//! more than 512, 128 and 64 activations within a 64 ms window. This module
//! computes the same quantities directly from a trace by replaying it against
//! an idealised per-bank open-row model: an access to a row different from
//! the bank's currently-open row counts as one activation.

use bh_cpu::Trace;
use bh_dram::DramGeometry;
use bh_mem::AddressMapping;
use std::collections::BTreeMap;

/// Characterisation of one workload over one observation window.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadCharacteristics {
    /// Workload name.
    pub name: String,
    /// Row-buffer misses (activations) per kilo-instruction.
    pub rbmpki: f64,
    /// Rows with more than 512 activations in the window.
    pub rows_over_512: usize,
    /// Rows with more than 128 activations in the window.
    pub rows_over_128: usize,
    /// Rows with more than 64 activations in the window.
    pub rows_over_64: usize,
    /// Total activations observed in the window.
    pub activations: u64,
    /// Instructions covered by the window.
    pub instructions: u64,
}

/// Replays `trace` (cyclically) for `window_instructions` instructions and
/// reports its Table 3 characteristics.
///
/// # Panics
/// Panics if `window_instructions` is zero.
pub fn characterize(
    name: &str,
    trace: &Trace,
    geometry: &DramGeometry,
    mapping: AddressMapping,
    window_instructions: u64,
) -> WorkloadCharacteristics {
    assert!(window_instructions > 0, "the observation window must be non-empty");
    // BTreeMaps, not HashMaps: characterisation feeds table output, and the
    // workspace bans hash iteration order outright (clippy.toml).
    let mut open_rows: BTreeMap<usize, usize> = BTreeMap::new();
    let mut row_activations: BTreeMap<(usize, usize), u64> = BTreeMap::new();
    let mut instructions = 0u64;
    let mut activations = 0u64;
    let mut index = 0usize;
    let layout = mapping.layout(geometry);
    while instructions < window_instructions {
        let entry = trace.entry(index);
        index += 1;
        instructions += entry.instructions();
        let loc = layout.decode(entry.addr);
        let bank = geometry.flat_bank(loc.bank);
        let open = open_rows.insert(bank, loc.row);
        if open != Some(loc.row) {
            activations += 1;
            *row_activations.entry((bank, loc.row)).or_insert(0) += 1;
        }
    }
    let count_over = |threshold: u64| row_activations.values().filter(|c| **c > threshold).count();
    WorkloadCharacteristics {
        name: name.to_string(),
        rbmpki: activations as f64 * 1000.0 / instructions as f64,
        rows_over_512: count_over(512),
        rows_over_128: count_over(128),
        rows_over_64: count_over(64),
        activations,
        instructions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::TraceGenerator;
    use crate::profile::BenignProfile;
    use bh_cpu::TraceEntry;
    use bh_dram::PhysAddr;

    #[test]
    fn single_row_stream_counts_one_activation() {
        // Consecutive accesses to the same row only activate it once.
        let g = DramGeometry::paper_ddr5();
        let m = AddressMapping::paper_default();
        let entries: Vec<TraceEntry> =
            (0..4).map(|i| TraceEntry::load(9, PhysAddr(i * 64))).collect();
        let trace = bh_cpu::Trace::new(entries);
        let c = characterize("stream", &trace, &g, m, 40);
        assert_eq!(c.activations, 1);
        assert!(c.rbmpki < 1000.0 / 40.0 + 1.0);
    }

    #[test]
    fn alternating_rows_activate_on_every_access() {
        let g = DramGeometry::paper_ddr5();
        let m = AddressMapping::paper_default();
        // Two addresses in the same bank but different rows.
        let row_stride = g.row_bytes() as u64 * g.banks_per_channel() as u64;
        let entries =
            vec![TraceEntry::load(0, PhysAddr(0)), TraceEntry::load(0, PhysAddr(row_stride))];
        let trace = bh_cpu::Trace::new(entries);
        let c = characterize("pingpong", &trace, &g, m, 1000);
        // Every access is an activation (the two rows conflict), unless the
        // mapping put them in different banks, in which case only 2 occur.
        assert!(c.activations == 1000 || c.activations == 2, "activations {}", c.activations);
    }

    #[test]
    fn hot_row_profiles_show_more_hot_rows_than_streaming_profiles() {
        let gen = TraceGenerator::paper_default();
        let g = gen.geometry().clone();
        let m = gen.mapping();
        let window = 2_000_000u64;
        let mcf = BenignProfile::by_name("mcf").unwrap();
        let libq = BenignProfile::by_name("libquantum").unwrap();
        let mcf_trace = gen.benign(&mcf, 30_000, 1);
        let libq_trace = gen.benign(&libq, 30_000, 1);
        let c_mcf = characterize("mcf", &mcf_trace, &g, m, window);
        let c_libq = characterize("libquantum", &libq_trace, &g, m, window);
        assert!(c_mcf.rows_over_64 > c_libq.rows_over_64);
        assert!(c_mcf.rbmpki > 20.0, "mcf rbmpki {}", c_mcf.rbmpki);
        // The streaming workload has high intensity but few hot rows
        // (matching libquantum's row in Table 3).
        assert!(c_libq.rows_over_512 == 0);
        assert!(c_libq.rbmpki > 5.0);
    }

    #[test]
    fn rbmpki_ordering_tracks_intensity_classes() {
        let gen = TraceGenerator::paper_default();
        let g = gen.geometry().clone();
        let m = gen.mapping();
        let window = 500_000u64;
        let high = BenignProfile::by_name("zeusmp").unwrap();
        let low = BenignProfile::by_name("povray").unwrap();
        let c_high = characterize("zeusmp", &gen.benign(&high, 20_000, 2), &g, m, window);
        let c_low = characterize("povray", &gen.benign(&low, 20_000, 2), &g, m, window);
        assert!(c_high.rbmpki > 4.0 * c_low.rbmpki);
    }

    #[test]
    #[should_panic(expected = "window must be non-empty")]
    fn zero_window_rejected() {
        let gen = TraceGenerator::paper_default();
        let p = BenignProfile::by_name("mcf").unwrap();
        let t = gen.benign(&p, 10, 0);
        let _ = characterize("x", &t, gen.geometry(), gen.mapping(), 0);
    }
}
