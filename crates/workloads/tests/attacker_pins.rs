//! Pins every attacker shape the crate ships — the five catalog scenarios
//! and the four `AttackerProfile` facade shapes — byte for byte: the FNV-1a
//! of each trace's `to_bytes()` at two seeds, and the declared victim rows,
//! on the paper geometry and on a two-channel tiny geometry.
//!
//! The simulation goldens pin the scenarios only through one single-channel
//! tiny configuration; this file pins the attacker generator itself, so a
//! refactor of it must leave `tests/attacker_pins.golden.txt` untouched. On
//! a mismatch the test prints the rendered text; replace the golden file
//! with it only for an intended change of an attacker's output.

use bh_dram::DramGeometry;
use bh_mem::AddressMapping;
use bh_workloads::{scenario_catalog, AttackerProfile, ComposedAttacker};

/// Records per pinned trace.
const ENTRIES: usize = 2_000;

/// Trace seeds each attacker is pinned at.
const SEEDS: [u64; 2] = [1, 0x5eed_0042];

fn attackers() -> Vec<(String, ComposedAttacker)> {
    let facade = [
        ("paper_default", AttackerProfile::paper_default()),
        ("double_sided", AttackerProfile::double_sided()),
        ("interleaved_channels", AttackerProfile::paper_default().interleaved_channels()),
        ("pinned_to_channel(1)", AttackerProfile::paper_default().pinned_to_channel(1)),
    ];
    let scenarios = scenario_catalog().into_iter().map(|s| (s.name.to_string(), s.attacker));
    scenarios.chain(facade.into_iter().map(|(name, p)| (name.to_string(), p.compose()))).collect()
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |hash, b| (hash ^ *b as u64).wrapping_mul(0x100_0000_01b3))
}

fn render() -> String {
    let mapping = AddressMapping::paper_default();
    let geometries = [
        ("paper_ddr5", DramGeometry::paper_ddr5()),
        ("tiny_2ch", DramGeometry::tiny().with_channels(2)),
    ];
    let mut out = String::new();
    for (name, attacker) in attackers() {
        for (label, geometry) in &geometries {
            for seed in SEEDS {
                let bytes = attacker.trace(geometry, mapping, ENTRIES, seed).to_bytes();
                out.push_str(&format!("{name} {label} seed {seed:#x} {:016x}\n", fnv1a64(&bytes)));
            }
            let victims: Vec<String> = attacker
                .victim_rows(geometry)
                .iter()
                .map(|v| {
                    let b = v.row.bank;
                    format!("{}:{}.{}.{}:{}", v.channel, b.rank, b.bank_group, b.bank, v.row.row)
                })
                .collect();
            out.push_str(&format!("{name} {label} victims {}\n", victims.join(" ")));
        }
    }
    out
}

#[test]
fn attacker_traces_and_victims_match_the_pin() {
    let rendered = render();
    let golden = include_str!("attacker_pins.golden.txt");
    assert!(rendered == golden, "attacker output moved; rendered text:\n{rendered}");
}
