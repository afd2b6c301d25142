//! The report: a result store's cells aggregated into one table row per
//! configuration.

// The groups are keyed by configuration in a hash map and sorted before
// display; bh-bench is outside the digest-pinned set.
#![allow(clippy::disallowed_types)]

use super::store::CellRecord;
use bh_mitigation::MechanismKind;
use bh_stats::{fmt3, Table};
use std::collections::HashMap;

/// Aggregates a result store into one row per (mechanism, N_RH, ±BreakHammer)
/// configuration: cell count, geomean weighted speedup, mean max slowdown,
/// mean energy, the identification rates, the attack-outcome summary
/// (raw/silent flips, attack-success rate) and the security-efficiency
/// headline — flips prevented per unit slowdown, both measured against the
/// no-defense (`NoDefense`, no BreakHammer) cells at the same N_RH.
///
/// Flips prevented is the drop in mean raw flips vs the baseline; unit
/// slowdown is the fractional weighted-speedup loss vs the baseline geomean.
/// The column reads `n/a` when the store has no baseline at that N_RH, and
/// `inf` when a mechanism prevents flips at no measurable slowdown.
///
/// Only healthy (`"ok"`) cells enter the aggregation: a livelocked or
/// budget-cut run's performance numbers describe a truncated run, not the
/// configuration — the CLI's `report` lists those cells separately.
pub fn report_table(records: &[CellRecord]) -> Table {
    let mut groups: HashMap<(String, u64, bool), Vec<&CellRecord>> = HashMap::new();
    for record in records.iter().filter(|r| r.is_ok()) {
        groups
            .entry((record.mechanism.clone(), record.nrh, record.breakhammer))
            .or_default()
            .push(record);
    }
    let no_defense = MechanismKind::None.to_string();
    let baselines: HashMap<u64, (f64, f64)> = groups
        .iter()
        .filter(|((mechanism, _, breakhammer), _)| mechanism == &no_defense && !breakhammer)
        .map(|((_, nrh, _), set)| {
            let speedups: Vec<f64> = set.iter().map(|r| r.weighted_speedup).collect();
            let mean_flips = set.iter().map(|r| r.flips_raw as f64).sum::<f64>() / set.len() as f64;
            (*nrh, (bh_stats::geometric_mean(&speedups), mean_flips))
        })
        .collect();
    let mut keys: Vec<(String, u64, bool)> = groups.keys().cloned().collect();
    keys.sort();
    let mut table = Table::new([
        "config",
        "nrh",
        "cells",
        "geomean_weighted_speedup",
        "mean_max_slowdown",
        "mean_energy_nj",
        "attacker_identified_rate",
        "benign_misidentified_rate",
        "bitflips",
        "flips_raw",
        "flips_silent",
        "attack_success_rate",
        "flips_prevented_per_slowdown",
    ]);
    for key in &keys {
        let set = &groups[key];
        let (mechanism, nrh, breakhammer) = key;
        let label = if *breakhammer { format!("{mechanism}+BH") } else { mechanism.clone() };
        let speedups: Vec<f64> = set.iter().map(|r| r.weighted_speedup).collect();
        let geomean_ws = bh_stats::geometric_mean(&speedups);
        let mean = |f: &dyn Fn(&CellRecord) -> f64| {
            set.iter().map(|r| f(r)).sum::<f64>() / set.len() as f64
        };
        let prevented_per_slowdown = match baselines.get(nrh) {
            None => "n/a".to_string(),
            Some((baseline_ws, baseline_flips)) => {
                let prevented = baseline_flips - mean(&|r| r.flips_raw as f64);
                let slowdown = (baseline_ws - geomean_ws) / baseline_ws.max(1e-12);
                if slowdown <= 1e-9 {
                    if prevented > 0.0 {
                        "inf".to_string()
                    } else {
                        fmt3(0.0)
                    }
                } else {
                    fmt3(prevented / slowdown)
                }
            }
        };
        table.push_row([
            label,
            nrh.to_string(),
            set.len().to_string(),
            fmt3(geomean_ws),
            fmt3(mean(&|r| r.max_slowdown)),
            format!("{:.0}", mean(&|r| r.energy_nj)),
            fmt3(mean(&|r| r.attacker_identified as u64 as f64)),
            fmt3(mean(&|r| r.benign_misidentified as u64 as f64)),
            set.iter().map(|r| r.bitflips).sum::<u64>().to_string(),
            set.iter().map(|r| r.flips_raw).sum::<u64>().to_string(),
            set.iter().map(|r| r.flips_silent).sum::<u64>().to_string(),
            fmt3(mean(&|r| r.attack_success as u64 as f64)),
            prevented_per_slowdown,
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::super::store::tests::sample_record;
    use super::*;

    #[test]
    fn report_groups_by_configuration() {
        let mut other = sample_record();
        other.breakhammer = false;
        other.weighted_speedup = 1.0;
        let records = [
            CellRecord::from_run("a/m/1", 1, true, &sample_record()),
            CellRecord::from_run("b/m/1", 1, true, &other),
        ];
        let table = report_table(&records);
        let csv = table.to_csv();
        assert!(csv.contains("Graphene+BH,64,1"), "{csv}");
        assert!(csv.contains("Graphene,64,1"), "{csv}");
        // No NoDefense baseline in the store: the efficiency column is n/a.
        assert!(csv.contains("n/a"), "{csv}");
    }

    #[test]
    fn report_computes_flips_prevented_per_unit_slowdown() {
        let make = |mechanism, breakhammer, ws: f64, flips_raw: u64| {
            let mut r = sample_record();
            r.mechanism = mechanism;
            r.breakhammer = breakhammer;
            r.weighted_speedup = ws;
            r.flips_raw = flips_raw;
            r.flips_silent = flips_raw;
            r.attack_success = flips_raw > 0;
            CellRecord::from_run("c/m/1", 1, true, &r)
        };
        let records = vec![
            make(MechanismKind::None, false, 4.0, 100),
            make(MechanismKind::Graphene, false, 2.0, 10),
            make(MechanismKind::Graphene, true, 4.0, 10),
        ];
        let table = report_table(&records);
        let csv = table.to_csv();
        // Graphene: 90 flips prevented at (4-2)/4 = 0.5 unit slowdown → 180.
        assert!(csv.contains("180.000"), "{csv}");
        // Graphene+BH: same flips prevented at zero slowdown → inf.
        assert!(csv.lines().any(|l| l.starts_with("Graphene+BH") && l.ends_with("inf")), "{csv}");
        // The outcome columns surface raw/silent sums and the success rate.
        assert!(csv.contains("attack_success_rate"), "{csv}");
        assert!(csv.lines().any(|l| l.starts_with("NoDefense") && l.contains(",100,")), "{csv}");
    }
}
