//! The metric registry, the report one run produces, and `compare`.
//!
//! `BENCHMARK.json` at the repository root lists the same names, units and
//! directions; a test in this file keeps the two in step.

use crate::json::{self, Value};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// What kind of number a metric is, which decides how `compare` treats it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Host time (or a rate made from it): best-of, compared against a bound.
    Time,
    /// A count the simulator made: repeats exactly, any difference is marked.
    Count,
    /// A ratio of host times: diagnostic, printed only.
    Ratio,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
    /// Share of the parent's value an end-to-end metric may worsen by.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, kind: Kind::Time, bound }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, kind: Kind) -> MetricDef {
    MetricDef { name, unit, better, kind, bound: 0.0 }
}

use Better::{Higher, Lower};
use Kind::{Count, Ratio, Time};

/// What a user of the simulator pays, per workload (`--trace 0`).
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("sim_mips", "Minstr/s", Higher, 0.25),
    e2e("cells_per_s", "1/s", Higher, 0.25),
    e2e("slowest_cell_ms", "ms", Lower, 0.20),
    e2e("peak_rss_mb", "MB", Lower, 0.15),
];

/// Where the time goes, per layer (`--trace 1`). A metric that does not
/// apply to a workload (the `campaign.*` rows on a simulation workload, a
/// mechanism the workload does not run) reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    layer("sim.run_ms", "ms", Lower, Time),
    layer("sim.build_ms", "ms", Lower, Time),
    layer("sim.ns_per_dram_cycle", "ns", Lower, Time),
    layer("sim.dram_cycles", "count", Lower, Count),
    layer("sim.retired_instr", "count", Higher, Count),
    layer("sim.fingerprint_drift_cells", "count", Lower, Count),
    layer("sim.watchdog_overhead_pct", "%", Lower, Ratio),
    layer("sim.event_driven_speedup", "ratio", Higher, Ratio),
    layer("sim.residual_ms", "ms", Lower, Time),
    layer("cpu.engine_over_legacy", "ratio", Higher, Ratio),
    layer("cpu.front_end_replay_ms", "ms", Lower, Time),
    layer("cpu.ns_per_lane_cycle", "ns", Lower, Time),
    layer("cpu.compile_ms", "ms", Lower, Time),
    layer("cpu.llc_accesses", "count", Lower, Count),
    layer("cpu.llc_hit_ratio", "ratio", Higher, Count),
    layer("cpu.mshr_full_rejections", "count", Lower, Count),
    layer("cpu.quota_rejections", "count", Lower, Count),
    layer("cpu.writebacks", "count", Lower, Count),
    layer("mem.parallel_over_serial", "ratio", Higher, Ratio),
    layer("mem.epoch_coverage", "ratio", Higher, Count),
    layer("mem.replay_ms", "ms", Lower, Time),
    layer("mem.ns_per_request", "ns", Lower, Time),
    layer("mem.reads_served", "count", Lower, Count),
    layer("mem.writes_served", "count", Lower, Count),
    layer("mem.row_hit_ratio", "ratio", Higher, Count),
    layer("mem.enqueue_rejections", "count", Lower, Count),
    layer("dram.command_ns", "ns", Lower, Time),
    layer("dram.tracker_ns_per_act", "ns", Lower, Time),
    layer("dram.activates", "count", Lower, Count),
    layer("dram.refreshes", "count", Lower, Count),
    layer("dram.victim_refreshes", "count", Lower, Count),
    layer("dram.bitflip_cells", "count", Lower, Count),
    layer("mitigation.on_activation_ns.Graphene", "ns", Lower, Time),
    layer("mitigation.on_activation_ns.PARA", "ns", Lower, Time),
    layer("mitigation.on_activation_ns.Hydra", "ns", Lower, Time),
    layer("mitigation.on_activation_ns.TWiCe", "ns", Lower, Time),
    layer("mitigation.on_activation_ns.RFM", "ns", Lower, Time),
    layer("mitigation.replay_delta_ms", "ms", Lower, Time),
    layer("mitigation.preventive_actions", "count", Lower, Count),
    layer("mitigation.victim_rows_refreshed", "count", Lower, Count),
    layer("mitigation.actions_per_kilo_act", "ratio", Lower, Count),
    layer("core.on_activation_ns", "ns", Lower, Time),
    layer("core.on_preventive_action_ns", "ns", Lower, Time),
    layer("core.replay_delta_ms", "ms", Lower, Time),
    layer("core.actions_observed", "count", Lower, Count),
    layer("core.suspect_identifications", "count", Lower, Count),
    layer("core.quota_restorations", "count", Higher, Count),
    layer("core.windows_completed", "count", Higher, Count),
    layer("core.attacker_flagged_cells", "count", Higher, Count),
    layer("core.benign_flagged_cells", "count", Lower, Count),
    layer("workloads.generate_ms", "ms", Lower, Time),
    layer("workloads.trace_entries", "count", Lower, Count),
    layer("campaign.tracegen_ms", "ms", Lower, Time),
    layer("campaign.alone_ms", "ms", Lower, Time),
    layer("campaign.evaluate_ms", "ms", Lower, Time),
    layer("campaign.worker_utilisation", "ratio", Higher, Ratio),
    layer("campaign.store_append_us_per_cell", "us", Lower, Time),
    layer("campaign.store_bytes", "count", Lower, Count),
    layer("campaign.load_ms", "ms", Lower, Time),
    layer("campaign.report_ms", "ms", Lower, Time),
    layer("host.contention", "ratio", Lower, Ratio),
    layer("host.cell_ms_p50", "ms", Lower, Ratio),
    layer("host.cell_ms_p90", "ms", Lower, Ratio),
    layer("host.cell_samples", "count", Higher, Ratio),
    layer("host.trace_overhead_pct", "%", Lower, Ratio),
];

/// The registry of one mode.
pub fn registry(trace: bool) -> &'static [MetricDef] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

fn lookup(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// What one run of one workload produced.
#[derive(Debug)]
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Workload-level checks that did not hold, and the first cell failures.
    pub problems: Vec<String>,
    /// Free-form facts about the run (pass count, thread count, …).
    pub notes: Vec<(&'static str, String)>,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn new(workload: &str, seed: u64, trace: bool) -> Self {
        Report {
            workload: workload.to_string(),
            seed,
            trace,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            notes: Vec::new(),
            values: BTreeMap::new(),
        }
    }

    /// Records a metric of this run's mode.
    ///
    /// # Panics
    /// Panics if `name` is not in the mode's registry — a metric the
    /// registry (and so `BENCHMARK.json`) does not know would be dropped
    /// silently otherwise.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = registry(self.trace)
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not registered for trace={}", self.trace));
        self.values.insert(def.name, value);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Every metric of the mode, in registry order; unset ones read 0.
    fn rows(&self) -> impl Iterator<Item = (&'static MetricDef, f64)> + '_ {
        registry(self.trace).iter().map(|m| (m, self.values.get(m.name).copied().unwrap_or(0.0)))
    }

    /// Every metric of the mode as `"name": {"value": …, "unit": …}`.
    fn metric_members(&self) -> Vec<String> {
        self.rows()
            .map(|(m, v)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(m.name),
                    number(v),
                    json::quote(m.unit)
                )
            })
            .collect()
    }

    /// The `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`
    /// object the driver reads from the last line of standard output.
    pub fn result_line(&self) -> String {
        let metrics = self.metric_members();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// Prints every metric as `workload metric value unit`, then the notes
    /// and problems, then the result line.
    pub fn print(&self) {
        for (m, v) in self.rows() {
            println!("{} {} {} {}", self.workload, m.name, number(v), m.unit);
        }
        for (key, value) in &self.notes {
            println!("# {key}: {value}");
        }
        for problem in &self.problems {
            println!("# PROBLEM: {problem}");
        }
        println!("{}", self.result_line());
    }

    /// Writes the report as a JSON document `compare` reads back.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{")?;
        writeln!(out, "  \"workload\": {},", json::quote(&self.workload))?;
        writeln!(out, "  \"seed\": {},", self.seed)?;
        writeln!(out, "  \"trace\": {},", self.trace)?;
        writeln!(out, "  \"correct\": {},", self.correct())?;
        writeln!(out, "  \"attempted\": {},", self.attempted)?;
        writeln!(out, "  \"failed\": {},", self.failed)?;
        let list = |items: Vec<String>| items.join(", ");
        writeln!(
            out,
            "  \"problems\": [{}],",
            list(self.problems.iter().map(|p| json::quote(p)).collect())
        )?;
        writeln!(
            out,
            "  \"notes\": {{{}}},",
            list(
                self.notes
                    .iter()
                    .map(|(k, v)| format!("{}: {}", json::quote(k), json::quote(v)))
                    .collect()
            )
        )?;
        writeln!(out, "  \"metrics\": {{")?;
        let rows: Vec<String> =
            self.metric_members().iter().map(|member| format!("    {member}")).collect();
        writeln!(out, "{}", rows.join(",\n"))?;
        writeln!(out, "  }}")?;
        writeln!(out, "}}")?;
        out.flush()
    }
}

/// A JSON number with all the digits measured (non-finite values read 0).
fn number(value: f64) -> String {
    if !value.is_finite() {
        return "0".to_string();
    }
    if value == value.trunc() && value.abs() < 1e15 {
        format!("{value:.0}")
    } else {
        format!("{value}")
    }
}

fn load_metrics(path: &str) -> Result<(String, BTreeMap<String, f64>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let workload = doc.get("workload").and_then(Value::as_str).unwrap_or("?").to_string();
    let metrics = doc
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or_else(|| format!("{path}: no \"metrics\" object"))?
        .iter()
        .filter_map(|(name, entry)| Some((name.clone(), entry.get("value")?.as_f64()?)))
        .collect();
    Ok((workload, metrics))
}

/// `compare a.json b.json`: prints, for every metric both reports carry, how
/// `b` differs from `a` — end-to-end metrics against their bound, counts
/// marked if they differ at all. `Ok(true)` when nothing is outside its
/// bound and no count differs.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a_workload, a) = load_metrics(a_path)?;
    let (b_workload, b) = load_metrics(b_path)?;
    if a_workload != b_workload {
        return Err(format!("{a_path} is {a_workload}, {b_path} is {b_workload}"));
    }
    let mut clean = true;
    for (name, a_value) in &a {
        let (Some(b_value), Some(def)) = (b.get(name), lookup(name)) else { continue };
        let change = if *a_value == 0.0 { 0.0 } else { (b_value - a_value) / a_value };
        let worse = match def.better {
            Higher => -change,
            Lower => change,
        };
        let verdict = match def.kind {
            Time if def.bound > 0.0 && worse > def.bound => {
                clean = false;
                format!("WORSE by more than the {:.0} % bound", def.bound * 100.0)
            }
            Time if def.bound > 0.0 => format!("within the {:.0} % bound", def.bound * 100.0),
            Count if a_value != b_value => {
                clean = false;
                "COUNT DIFFERS".to_string()
            }
            Count => "identical".to_string(),
            Time | Ratio => "not bounded".to_string(),
        };
        println!(
            "{a_workload} {name} {} -> {} {} ({:+.2} %) {verdict}",
            number(*a_value),
            number(*b_value),
            def.unit,
            change * 100.0
        );
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(ok_name(m.name), "{}", m.name);
            assert!(ok_unit(m.unit), "{} has unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} is listed twice", m.name);
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Lower));
    }

    /// `BENCHMARK.json` is written by hand; this keeps it equal to the
    /// registry the binary reports from.
    #[test]
    fn benchmark_json_lists_exactly_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc =
            json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
                .unwrap();
        let listed = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            doc.get(key)
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let text = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
                    (
                        text("name"),
                        text("unit"),
                        text("better"),
                        m.get("bound").and_then(Value::as_f64),
                    )
                })
                .collect()
        };
        let expected =
            |defs: &[MetricDef], bounded: bool| -> Vec<(String, String, String, Option<f64>)> {
                defs.iter()
                    .map(|m| {
                        let better = if m.better == Higher { "higher" } else { "lower" };
                        (
                            m.name.to_string(),
                            m.unit.to_string(),
                            better.to_string(),
                            bounded.then_some(m.bound),
                        )
                    })
                    .collect()
            };
        assert_eq!(listed("end_to_end"), expected(END_TO_END, true));
        assert_eq!(listed("per_layer"), expected(PER_LAYER, false));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::workloads::WORKLOADS);
    }

    #[test]
    fn result_line_carries_every_metric_of_the_mode_and_parses() {
        let mut report = Report::new("attack_paper", 42, false);
        report.attempted = 24;
        report.set("sim_mips", 5.25);
        let doc = json::parse(&report.result_line()).unwrap();
        assert_eq!(doc.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(doc.get("attempted").and_then(Value::as_f64), Some(24.0));
        let metrics = doc.get("metrics").and_then(Value::as_object).unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(metrics["sim_mips"].get("value").and_then(Value::as_f64), Some(5.25));
        assert_eq!(metrics["setup_s"].get("unit").and_then(Value::as_str), Some("s"));
        report.failed = 1;
        assert!(!report.correct());
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn a_metric_of_the_other_mode_is_refused() {
        Report::new("attack_paper", 42, false).set("sim.run_ms", 1.0);
    }

    #[test]
    fn compare_flags_regressions_and_count_changes() {
        let dir = std::env::temp_dir().join(format!("bh-benchmark-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, trace: bool, values: &[(&str, f64)]| {
            let mut report = Report::new("attack_paper", 42, trace);
            for (metric, value) in values {
                report.set(metric, *value);
            }
            let path = dir.join(name);
            report.write_json(&path).unwrap();
            path.to_string_lossy().into_owned()
        };
        let base = write("a.json", false, &[("sim_mips", 10.0), ("slowest_cell_ms", 100.0)]);
        let same = write("b.json", false, &[("sim_mips", 9.5), ("slowest_cell_ms", 104.0)]);
        let slow = write("c.json", false, &[("sim_mips", 7.0), ("slowest_cell_ms", 100.0)]);
        assert_eq!(compare(&base, &same), Ok(true));
        assert_eq!(compare(&base, &slow), Ok(false));
        let counts = write("d.json", true, &[("dram.activates", 1000.0), ("sim.run_ms", 10.0)]);
        let moved = write("e.json", true, &[("dram.activates", 1001.0), ("sim.run_ms", 30.0)]);
        assert_eq!(compare(&counts, &counts), Ok(true));
        assert_eq!(compare(&counts, &moved), Ok(false));
        assert!(compare(&base, "/nonexistent.json").is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
