//! The figure registry: every figure and table of the paper's evaluation,
//! reached through `bh_campaign fig <id>`.
//!
//! The fourteen simulated figures (2, 6–18) share one skeleton — run a
//! (mechanism × N_RH × ±BreakHammer) matrix over the attack or the benign
//! suite, select, reduce with a metric, normalise, tabulate — so each is one
//! row of [`FIGURES`] naming its suite, metric, mechanisms, BreakHammer arms,
//! thresholds, column headers and row layout, executed by [`render`].
//! The seven that do not fit (the analytical Fig. 5, the parameter sweeps of
//! Fig. 19 and the ablations, the scenario matrix, Table 3 and the two cost
//! tables) are plain functions in the same registry.
//!
//! Nothing here reads the process environment or prints: a figure is a
//! function from a [`BenchEnv`] to the text its binary used to print.

use crate::experiments::{
    config_label, geomean_speedup, mean_of, paper_config, render_results, select, Campaign,
    RunRecord,
};
use crate::scale::BenchEnv;
use bh_core::hw_cost::{HardwareCost, BITS_PER_THREAD, CLOCK_GHZ, PIPELINE_STAGES};
use bh_core::security::{figure5_outlier_thresholds, figure5_series, max_attacker_score_ratio};
use bh_core::BreakHammerConfig;
use bh_dram::{DramGeometry, TimingParams};
use bh_mitigation::MechanismKind;
use bh_stats::{fmt3, fmt_pct, BoxPlot, Table};
use bh_workloads::{characterize, scenario_catalog, BenignProfile, MixClass, TraceGenerator};
use std::fmt::Write;

/// One entry of the registry.
#[derive(Debug)]
pub struct Figure {
    /// What `bh_campaign fig` calls it (`"13"`, `"table3"`, …).
    pub id: &'static str,
    body: Body,
}

#[derive(Debug)]
enum Body {
    /// One of the simulated figures sharing the sweep → select → tabulate
    /// skeleton.
    Sweep(Sweep),
    /// Anything else: the whole rendering is the function.
    Custom(fn(&BenchEnv) -> String),
}

/// The declarative part of a simulated figure.
#[derive(Debug)]
struct Sweep {
    /// Heading; `{nrh}` stands for the (single) threshold evaluated.
    title: &'static str,
    /// The attack suite (plus scenarios) or the all-benign suite.
    attack: bool,
    /// How a selection of runs reduces to the number plotted:
    /// [`geomean_speedup`], or one of the means below.
    metric: fn(&[&RunRecord]) -> f64,
    mechanisms: fn() -> Vec<MechanismKind>,
    /// BreakHammer arms simulated and tabulated, in row order.
    arms: &'static [bool],
    thresholds: Thresholds,
    header: &'static [&'static str],
    layout: Layout,
}

/// Mean maximum slowdown of a benign application.
fn unfairness(set: &[&RunRecord]) -> f64 {
    mean_of(set, |r| r.max_slowdown)
}

/// Mean DRAM energy (nJ).
fn energy(set: &[&RunRecord]) -> f64 {
    mean_of(set, |r| r.energy_nj)
}

/// Mean RowHammer-preventive actions.
fn preventive_actions(set: &[&RunRecord]) -> f64 {
    mean_of(set, |r| r.preventive_actions as f64)
}

/// The paper's eight mechanisms.
fn paper_mechanisms() -> Vec<MechanismKind> {
    MechanismKind::paper_mechanisms().to_vec()
}

/// The eight minus REGA, which performs its refreshes in parallel with
/// activations and has no discrete preventive actions (footnote 10).
fn paper_without_rega() -> Vec<MechanismKind> {
    paper_mechanisms().into_iter().filter(|m| *m != MechanismKind::Rega).collect()
}

#[derive(Debug, Clone, Copy)]
enum Thresholds {
    /// The scale's whole N_RH sweep, in its order.
    Sweep,
    /// The lowest threshold of the sweep.
    Lowest,
    /// The threshold the paper fixes, unless `BH_FIG_NRH` replaces it.
    Fixed(u64),
}

/// How the selected runs become table rows.
#[derive(Debug, Clone, Copy)]
enum Layout {
    /// One row per (mechanism, mix class) plus the all-class aggregate: the
    /// metric with BreakHammer over the metric without (Figs. 6, 7, 13).
    PerClass,
    /// One row per mechanism: that ratio over the whole suite, and how often
    /// a benign thread was flagged — summed up in a closing line beside the
    /// rate the paper reports, if it does (Fig. 14).
    PerMechanism { paper_suspect_rate: Option<&'static str> },
    /// One row per (N_RH, mechanism): that ratio, with the same closing line
    /// (Figs. 15, 16).
    BreakHammerRatio { paper_suspect_rate: Option<&'static str> },
    /// One row per (N_RH, mechanism, arm), normalised to the unprotected
    /// system — optionally preceded by the value itself, formatted by `raw`,
    /// followed at each N_RH by BlockHammer on its own (which is itself a
    /// throttling mitigation), and closed by a line giving the unprotected
    /// system's own value (Figs. 2, 8, 9, 12, 18).
    VsUnprotected { raw: Option<fn(f64) -> String>, blockhammer: bool, show_baseline: bool },
    /// One row per (mechanism, N_RH, arm): the value, and the value over the
    /// same mechanism without BreakHammer at the largest N_RH (Fig. 10).
    VsOwnLargestNrh,
    /// One row per configuration, the unprotected system first: mean benign
    /// memory-latency percentiles (Figs. 11, 17).
    LatencyPercentiles,
}

const BOTH_ARMS: &[bool] = &[false, true];

/// The commonest simulated figure — the attack suite, weighted speedup, the
/// paper's eight mechanisms, both BreakHammer arms, the whole N_RH sweep.
/// Each row of [`FIGURES`] names its title, header and layout, and whatever
/// else it does differently.
const COMMON: Sweep = Sweep {
    title: "",
    attack: true,
    metric: geomean_speedup,
    mechanisms: paper_mechanisms,
    arms: BOTH_ARMS,
    thresholds: Thresholds::Sweep,
    header: &[],
    layout: Layout::PerClass,
};

/// What Figs. 11 and 17 share (the layout reads the latency percentiles
/// itself, whatever the metric).
const LATENCY: Sweep = Sweep {
    thresholds: Thresholds::Lowest,
    header: &["config", "p50_ns", "p90_ns", "p99_ns"],
    layout: Layout::LatencyPercentiles,
    ..COMMON
};

/// Every figure and table, in the order `bh_campaign fig` lists them.
pub const FIGURES: &[Figure] = &[
    Figure { id: "2", body: Body::Sweep(Sweep {
        title: "Figure 2: normalized weighted speedup of mitigation mechanisms (benign workloads, no BreakHammer)",
        attack: false,
        mechanisms: || MechanismKind::motivation_mechanisms().to_vec(),
        arms: &[false],
        header: &["nrh", "mechanism", "weighted_speedup", "normalized_ws"],
        layout: Layout::VsUnprotected { raw: Some(fmt3), blockhammer: false, show_baseline: true },
        ..COMMON
    }) },
    Figure { id: "5", body: Body::Custom(fig5_security_bound) },
    Figure { id: "6", body: Body::Sweep(Sweep {
        title: "Figure 6: normalized weighted speedup of benign applications with an attacker present (N_RH = 1K)",
        thresholds: Thresholds::Fixed(1024),
        header: &["mechanism", "mix_class", "normalized_weighted_speedup"],
        layout: Layout::PerClass,
        ..COMMON
    }) },
    Figure { id: "7", body: Body::Sweep(Sweep {
        title: "Figure 7: normalized unfairness (max slowdown of benign applications) with an attacker present (N_RH = 1K)",
        metric: unfairness,
        thresholds: Thresholds::Fixed(1024),
        header: &["mechanism", "mix_class", "normalized_unfairness"],
        layout: Layout::PerClass,
        ..COMMON
    }) },
    Figure { id: "8", body: Body::Sweep(Sweep {
        title: "Figure 8: weighted speedup of benign applications vs. N_RH with an attacker present (normalized to no mitigation)",
        header: &["nrh", "config", "normalized_weighted_speedup"],
        layout: Layout::VsUnprotected { raw: None, blockhammer: false, show_baseline: false },
        ..COMMON
    }) },
    Figure { id: "9", body: Body::Sweep(Sweep {
        title: "Figure 9: unfairness vs. N_RH with an attacker present (normalized to no mitigation)",
        metric: unfairness,
        arms: &[true],
        header: &["nrh", "config", "normalized_unfairness"],
        layout: Layout::VsUnprotected { raw: None, blockhammer: false, show_baseline: false },
        ..COMMON
    }) },
    Figure { id: "10", body: Body::Sweep(Sweep {
        title: "Figure 10: RowHammer-preventive actions with an attacker present (normalized to no-BreakHammer at N_RH = 4K)",
        metric: preventive_actions,
        mechanisms: paper_without_rega,
        header: &["nrh", "config", "preventive_actions", "normalized_actions"],
        layout: Layout::VsOwnLargestNrh,
        ..COMMON
    }) },
    Figure { id: "11", body: Body::Sweep(Sweep {
        title: "Figure 11: benign memory-latency percentiles with an attacker present (N_RH = {nrh})",
        ..LATENCY
    }) },
    Figure { id: "12", body: Body::Sweep(Sweep {
        title: "Figure 12: DRAM energy with an attacker present (normalized to no mitigation)",
        metric: energy,
        header: &["nrh", "config", "energy_uj", "normalized_energy"],
        layout: Layout::VsUnprotected {
            raw: Some(|nanojoules| format!("{:.1}", nanojoules / 1000.0)),
            blockhammer: false,
            show_baseline: false,
        },
        ..COMMON
    }) },
    Figure { id: "13", body: Body::Sweep(Sweep {
        title: "Figure 13: normalized weighted speedup on all-benign workloads (N_RH = {nrh})",
        attack: false,
        thresholds: Thresholds::Lowest,
        header: &["mechanism", "mix_class", "normalized_weighted_speedup"],
        layout: Layout::PerClass,
        ..COMMON
    }) },
    Figure { id: "14", body: Body::Sweep(Sweep {
        title: "Figure 14: normalized unfairness on all-benign workloads (N_RH = 1K)",
        attack: false,
        metric: unfairness,
        thresholds: Thresholds::Fixed(1024),
        header: &["mechanism", "normalized_unfairness", "benign_suspect_rate"],
        layout: Layout::PerMechanism { paper_suspect_rate: Some("2.2% at N_RH = 1K") },
        ..COMMON
    }) },
    Figure { id: "15", body: Body::Sweep(Sweep {
        title: "Figure 15: normalized weighted speedup on all-benign workloads vs. N_RH",
        attack: false,
        header: &["nrh", "mechanism", "normalized_weighted_speedup"],
        layout: Layout::BreakHammerRatio { paper_suspect_rate: None },
        ..COMMON
    }) },
    Figure { id: "16", body: Body::Sweep(Sweep {
        title: "Figure 16: normalized unfairness on all-benign workloads vs. N_RH",
        attack: false,
        metric: unfairness,
        header: &["nrh", "mechanism", "normalized_unfairness"],
        layout: Layout::BreakHammerRatio { paper_suspect_rate: Some("18.7% across all N_RH") },
        ..COMMON
    }) },
    Figure { id: "17", body: Body::Sweep(Sweep {
        title: "Figure 17: benign memory-latency percentiles with no attacker (N_RH = {nrh})",
        attack: false,
        ..LATENCY
    }) },
    Figure { id: "18", body: Body::Sweep(Sweep {
        title: "Figure 18: BreakHammer-paired mechanisms vs. BlockHammer with an attacker present (normalized to no mitigation)",
        arms: &[true],
        header: &["nrh", "config", "normalized_weighted_speedup"],
        layout: Layout::VsUnprotected { raw: None, blockhammer: true, show_baseline: false },
        ..COMMON
    }) },
    Figure { id: "19", body: Body::Custom(fig19_threat_sensitivity) },
    Figure { id: "ablations", body: Body::Custom(ablations) },
    Figure { id: "scenarios", body: Body::Custom(scenario_matrix) },
    Figure { id: "table3", body: Body::Custom(table3_workloads) },
    Figure { id: "hw_cost", body: Body::Custom(hw_cost) },
    Figure { id: "storage", body: Body::Custom(storage_overheads) },
];

/// The registry entry called `id`, or an error listing every id.
pub fn find(id: &str) -> Result<&'static Figure, String> {
    FIGURES.iter().find(|figure| figure.id == id).ok_or_else(|| {
        let ids: Vec<&str> = FIGURES.iter().map(|figure| figure.id).collect();
        format!("unknown figure {id:?}; one of: {}", ids.join(" "))
    })
}

/// Refuses a `BH_FIG_NRH` below the minimum of one of the figure's
/// mechanisms before any cell runs (every cell would panic building it).
pub fn check(figure: &Figure, env: &BenchEnv) -> Result<(), String> {
    let (Body::Sweep(Sweep { thresholds: Thresholds::Fixed(_), mechanisms, .. }), Some(nrh)) =
        (&figure.body, env.fig_nrh)
    else {
        return Ok(());
    };
    match mechanisms().into_iter().find(|m| nrh < m.min_nrh()) {
        Some(m) => Err(format!("BH_FIG_NRH = {nrh} but {m} needs N_RH >= {}", m.min_nrh())),
        None => Ok(()),
    }
}

/// Renders one figure: exactly the text its former binary printed.
pub fn render(figure: &Figure, env: &BenchEnv) -> String {
    match &figure.body {
        Body::Sweep(spec) => render_sweep(spec, env),
        Body::Custom(render) => render(env),
    }
}

/// The Table 1 / Table 2 configuration summary `--print-config` asks for
/// (empty without the flag).
fn config_summary(env: &BenchEnv) -> String {
    if !env.print_config {
        return String::new();
    }
    let config = paper_config(MechanismKind::Graphene, 1024, true, &env.scale);
    format!(
        "System configuration (Table 1): {}\n{:#?}\n{:#?}\nBreakHammer configuration (Table 2): {:#?}\n",
        config.summary(),
        config.memctrl,
        config.cache,
        config.effective_breakhammer_config()
    )
}

fn lowest_nrh(env: &BenchEnv) -> u64 {
    *env.scale.nrh_values.iter().min().expect("non-empty N_RH sweep")
}

/// The unprotected system (which does not depend on N_RH) over a suite.
fn run_unprotected(campaign: &mut Campaign, nrh: u64, attack: bool) -> Vec<RunRecord> {
    let config = paper_config(MechanismKind::None, nrh, false, campaign.scale());
    campaign.run(&config, attack)
}

fn render_sweep(spec: &Sweep, env: &BenchEnv) -> String {
    let mut out = config_summary(env);
    let nrhs = match spec.thresholds {
        Thresholds::Sweep => env.scale.nrh_values.clone(),
        Thresholds::Lowest => vec![lowest_nrh(env)],
        Thresholds::Fixed(paper) => vec![env.fig_nrh.unwrap_or(paper)],
    };
    let mechanisms = (spec.mechanisms)();
    let mut campaign = Campaign::new(env.scale.clone());
    let mut records = campaign.run_matrix(&mechanisms, &nrhs, spec.arms, spec.attack);
    let metric = spec.metric;
    let mut series: Vec<(MechanismKind, bool)> =
        mechanisms.iter().flat_map(|&m| spec.arms.iter().map(move |&bh| (m, bh))).collect();
    let mut table = Table::new(spec.header.iter().copied());
    let mut footer = String::new();
    match spec.layout {
        Layout::PerClass => {
            let classes =
                if spec.attack { MixClass::attack_classes() } else { MixClass::benign_classes() };
            let mut classes: Vec<String> = classes.iter().map(MixClass::label).collect();
            // The pseudo-class that keeps every record: the aggregate row.
            classes.push("geomean".to_string());
            for &mechanism in &mechanisms {
                for class in &classes {
                    let of_class = |breakhammer| -> Vec<&RunRecord> {
                        select(&records, mechanism, nrhs[0], breakhammer)
                            .into_iter()
                            .filter(|r| class == "geomean" || r.mix_class == *class)
                            .collect()
                    };
                    let (with, without) = (of_class(true), of_class(false));
                    if with.is_empty() || without.is_empty() {
                        continue;
                    }
                    table.push_row([
                        config_label(mechanism, true),
                        class.clone(),
                        fmt3(metric(&with) / metric(&without)),
                    ]);
                }
            }
        }
        Layout::PerMechanism { paper_suspect_rate }
        | Layout::BreakHammerRatio { paper_suspect_rate } => {
            // Benign threads flagged, over the BreakHammer-on runs tabulated.
            let (mut misidentified, mut breakhammer_runs) = (0usize, 0usize);
            for &nrh in &nrhs {
                for &mechanism in &mechanisms {
                    let with = select(&records, mechanism, nrh, true);
                    let without = select(&records, mechanism, nrh, false);
                    if with.is_empty() || without.is_empty() {
                        continue;
                    }
                    let suspects = with.iter().filter(|r| r.benign_misidentified).count();
                    misidentified += suspects;
                    breakhammer_runs += with.len();
                    let label = config_label(mechanism, true);
                    let ratio = fmt3(metric(&with) / metric(&without));
                    if let Layout::PerMechanism { .. } = spec.layout {
                        let rate = fmt_pct(suspects as f64 / with.len() as f64);
                        table.push_row([label, ratio, rate]);
                    } else {
                        table.push_row([nrh.to_string(), label, ratio]);
                    }
                }
            }
            if let Some(paper_rate) = paper_suspect_rate {
                let _ = writeln!(
                    footer,
                    "benign application identified as suspect in {} of the simulations (paper: {paper_rate})",
                    fmt_pct(misidentified as f64 / breakhammer_runs.max(1) as f64)
                );
            }
        }
        Layout::VsUnprotected { raw, blockhammer: blockhammer_alone, show_baseline } => {
            let baseline = run_unprotected(&mut campaign, nrhs[0], spec.attack);
            let baseline = metric(&baseline.iter().collect::<Vec<_>>());
            if blockhammer_alone {
                let alone = [MechanismKind::BlockHammer];
                records.extend(campaign.run_matrix(&alone, &nrhs, &[false], spec.attack));
                series.push((MechanismKind::BlockHammer, false));
            }
            for &nrh in &nrhs {
                for &(mechanism, breakhammer) in &series {
                    let set = select(&records, mechanism, nrh, breakhammer);
                    if set.is_empty() {
                        continue;
                    }
                    let value = metric(&set);
                    let mut row = vec![nrh.to_string(), config_label(mechanism, breakhammer)];
                    row.extend(raw.map(|format| format(value)));
                    row.push(fmt3(value / baseline));
                    table.push_row(row);
                }
            }
            if show_baseline {
                let _ = writeln!(
                    footer,
                    "baseline (no mitigation) geomean weighted speedup: {}",
                    fmt3(baseline)
                );
            }
        }
        Layout::VsOwnLargestNrh => {
            let largest = *nrhs.iter().max().expect("non-empty N_RH sweep");
            for &mechanism in &mechanisms {
                let reference = metric(&select(&records, mechanism, largest, false)).max(1.0);
                for &nrh in &nrhs {
                    for &breakhammer in spec.arms {
                        let set = select(&records, mechanism, nrh, breakhammer);
                        if set.is_empty() {
                            continue;
                        }
                        let value = metric(&set);
                        table.push_row([
                            nrh.to_string(),
                            config_label(mechanism, breakhammer),
                            format!("{value:.0}"),
                            fmt3(value / reference),
                        ]);
                    }
                }
            }
        }
        Layout::LatencyPercentiles => {
            records.extend(run_unprotected(&mut campaign, nrhs[0], spec.attack));
            series.insert(0, (MechanismKind::None, false));
            for (mechanism, breakhammer) in series {
                let set = select(&records, mechanism, nrhs[0], breakhammer);
                let mut row = vec![config_label(mechanism, breakhammer)];
                row.extend([0, 1, 2].map(|p| format!("{:.1}", mean_of(&set, |r| r.latency_ns[p]))));
                table.push_row(row);
            }
        }
    }
    out.push_str(&render_results(&spec.title.replace("{nrh}", &nrhs[0].to_string()), &table));
    out.push_str(&footer);
    out
}

/// Figure 5: the analytical security bound (Expression 2) — the maximum
/// RowHammer-preventive score an attack thread can gather before being
/// identified as a suspect, normalized to the average benign score, against
/// the fraction of hardware threads the attacker controls, per TH_outlier.
/// Needs no simulation.
fn fig5_security_bound(_env: &BenchEnv) -> String {
    let series = figure5_series(&figure5_outlier_thresholds(), 10);
    let mut table = Table::new(["attacker_threads_pct", "th_outlier", "max_attacker_score_ratio"]);
    for point in &series {
        table.push_row([
            format!("{:.0}", point.attacker_fraction * 100.0),
            format!("{:.2}", point.outlier_threshold),
            point.max_score_ratio.map_or("unbounded".to_string(), fmt3),
        ]);
    }
    let mut out =
        render_results("Figure 5: worst-case attacker score bound (Expression 2)", &table);
    // The two reference points called out in §5.2.
    for (outlier, attacker, paper) in [(0.65, 0.5, "4.71x"), (0.05, 0.9, "1.90x")] {
        let _ = writeln!(
            out,
            "TH_outlier={outlier}, {:.0}% attacker threads -> {:.2}x the benign average (paper: {paper})",
            attacker * 100.0,
            max_attacker_score_ratio(attacker, outlier).expect("bounded"),
        );
    }
    out
}

/// Graphene + BreakHammer at `nrh` under one BreakHammer parameter variant,
/// over the attack or the benign suite.
fn run_variant(
    campaign: &mut Campaign,
    nrh: u64,
    attack: bool,
    tweak: impl Fn(&mut BreakHammerConfig),
) -> Vec<RunRecord> {
    let mut config = paper_config(MechanismKind::Graphene, nrh, true, campaign.scale());
    let mut breakhammer = config.effective_breakhammer_config();
    tweak(&mut breakhammer);
    config.breakhammer_config = Some(breakhammer);
    campaign.run(&config, attack)
}

/// Figure 19: BreakHammer's sensitivity to TH_threat at three N_RH values,
/// with and without an attacker — box-plot statistics of the weighted
/// speedup, normalized to the TH_threat = 4096 configuration (the least
/// aggressive setting), with Graphene as the representative paired mechanism.
fn fig19_threat_sensitivity(env: &BenchEnv) -> String {
    let sweep = &env.scale.nrh_values;
    let nrh_values =
        [*sweep.iter().max().expect("non-empty sweep"), sweep[sweep.len() / 2], lowest_nrh(env)];
    let mut campaign = Campaign::new(env.scale.clone());
    let mut table = Table::new([
        "workloads",
        "nrh",
        "th_threat",
        "ws_q1",
        "ws_median",
        "ws_q3",
        "normalized_median",
    ]);
    for attack in [true, false] {
        for &nrh in &nrh_values {
            // The last value (4096) essentially never throttles: the baseline.
            let boxplots = [32.0f64, 512.0, 4096.0].map(|threat| {
                let records =
                    run_variant(&mut campaign, nrh, attack, |bh| bh.threat_threshold = threat);
                let speedups: Vec<f64> = records.iter().map(|r| r.weighted_speedup).collect();
                (threat, BoxPlot::from_samples(&speedups))
            });
            let baseline_median = boxplots[2].1.median;
            for (threat, boxplot) in &boxplots {
                table.push_row([
                    if attack { "attack" } else { "benign" }.to_string(),
                    nrh.to_string(),
                    format!("{threat:.0}"),
                    fmt3(boxplot.q1),
                    fmt3(boxplot.median),
                    fmt3(boxplot.q3),
                    fmt3(boxplot.median / baseline_median),
                ]);
            }
        }
    }
    config_summary(env)
        + &render_results(
            "Figure 19: sensitivity to TH_threat (Graphene+BreakHammer; weighted speedup normalized to TH_threat = 4096)",
            &table,
        )
}

/// Ablation study (beyond the paper's figures): how BreakHammer's remaining
/// parameters — TH_outlier, the quota divisor P_newsuspect and the
/// throttling-window length — change its benefit under attack, with Graphene
/// at the lowest evaluated N_RH.
fn ablations(env: &BenchEnv) -> String {
    let nrh = lowest_nrh(env);
    let mut campaign = Campaign::new(env.scale.clone());
    // Reference: the mechanism without BreakHammer.
    let graphene = paper_config(MechanismKind::Graphene, nrh, false, &env.scale);
    let without = geomean_speedup(&campaign.run(&graphene, true).iter().collect::<Vec<_>>());

    let mut table = Table::new(["parameter", "value", "normalized_ws", "attacker_identified"]);
    let mut variant = |label: &str, value: String, tweak: &dyn Fn(&mut BreakHammerConfig)| {
        let records = run_variant(&mut campaign, nrh, true, tweak);
        let identified = records.iter().filter(|r| r.attacker_identified).count();
        table.push_row([
            label.to_string(),
            value,
            fmt3(geomean_speedup(&records.iter().collect::<Vec<_>>()) / without),
            fmt_pct(identified as f64 / records.len() as f64),
        ]);
    };
    for outlier in [0.05, 0.65, 0.95] {
        variant("TH_outlier", format!("{outlier}"), &|bh| bh.outlier_threshold = outlier);
    }
    for divisor in [2usize, 10, 64] {
        variant("P_newsuspect", divisor.to_string(), &|bh| bh.new_suspect_divisor = divisor);
    }
    for window_ms in [16.0f64, 64.0, 256.0] {
        variant("TH_window_ms", format!("{window_ms}"), &|bh| {
            bh.window_cycles = TimingParams::ddr5_4800().ms_to_cycles(window_ms)
        });
    }
    config_summary(env)
        + &render_results(
            &format!("Ablations: BreakHammer parameter sensitivity (Graphene, N_RH = {nrh}, attacker present; normalized to Graphene without BreakHammer)"),
            &table,
        )
}

/// Composable-attacker scenario matrix: every scenario of `BH_SCENARIOS`
/// (the whole catalog when unset) under Graphene with and without
/// BreakHammer — benign weighted speedup, preventive actions, whether the
/// attacker thread was throttled, and the worst per-victim disturbance.
fn scenario_matrix(env: &BenchEnv) -> String {
    let mut scale = env.scale.clone();
    if scale.scenarios.is_empty() {
        scale.scenarios = scenario_catalog().iter().map(|s| s.name.to_string()).collect();
    }
    let scenarios = scale.scenarios.clone();
    let nrh = lowest_nrh(env);
    let mechanism = MechanismKind::Graphene;
    let records = Campaign::new(scale).run_matrix(&[mechanism], &[nrh], BOTH_ARMS, true);

    let mut table = Table::new([
        "scenario",
        "config",
        "weighted_speedup",
        "preventive_actions",
        "attacker_throttled",
        "max_victim_disturbance",
    ]);
    for scenario in &scenarios {
        for &breakhammer in BOTH_ARMS {
            let set: Vec<_> = select(&records, mechanism, nrh, breakhammer)
                .into_iter()
                .filter(|r| r.scenario.as_deref() == Some(scenario.as_str()))
                .collect();
            if set.is_empty() {
                continue;
            }
            let identified = set.iter().filter(|r| r.attacker_identified).count();
            table.push_row([
                scenario.clone(),
                config_label(mechanism, breakhammer),
                fmt3(mean_of(&set, |r| r.weighted_speedup)),
                format!("{:.0}", preventive_actions(&set)),
                format!("{identified}/{}", set.len()),
                set.iter().map(|r| r.max_victim_disturbance).max().unwrap_or(0).to_string(),
            ]);
        }
    }
    config_summary(env)
        + &render_results(
            &format!("Composable-attacker scenarios under {mechanism} at N_RH = {nrh} (pattern × placement catalog)"),
            &table,
        )
}

/// Table 3: workload characteristics of the eight most memory-intensive
/// benign applications — RBMPKI and the number of DRAM rows receiving more
/// than 512, 128 and 64 activations within the observation window.
fn table3_workloads(env: &BenchEnv) -> String {
    let window = env.table3_window;
    let generator = TraceGenerator::paper_default();
    let mut table = Table::new(["workload", "rbmpki", "act_512+", "act_128+", "act_64+"]);
    let mut rbmpki_sum = 0.0;
    let mut counts = [0usize; 3];
    let profiles = BenignProfile::table3_profiles();
    for (i, profile) in profiles.iter().enumerate() {
        let trace = generator.benign(profile, env.table3_entries, 1000 + i as u64);
        let c =
            characterize(profile.name, &trace, generator.geometry(), generator.mapping(), window);
        rbmpki_sum += c.rbmpki;
        let rows = [c.rows_over_512, c.rows_over_128, c.rows_over_64];
        for (count, over) in counts.iter_mut().zip(rows) {
            *count += over;
        }
        let mut row = vec![profile.name.to_string(), fmt3(c.rbmpki)];
        row.extend(rows.map(|over| over.to_string()));
        table.push_row(row);
    }
    let n = profiles.len();
    let mut average = vec!["Average".to_string(), fmt3(rbmpki_sum / n as f64)];
    average.extend(counts.map(|count| (count / n).to_string()));
    table.push_row(average);
    render_results(
        &format!("Table 3: workload characteristics over a {window}-instruction window"),
        &table,
    )
}

/// §6 hardware complexity: BreakHammer's per-thread storage, area at 65 nm,
/// fraction of a high-end Xeon die, and per-decision latency against the
/// DRAM tRRD command spacing.
fn hw_cost(_env: &BenchEnv) -> String {
    let mut table = Table::new([
        "threads",
        "channels",
        "storage_bits",
        "area_mm2",
        "xeon_fraction",
        "latency_ns",
    ]);
    for (threads, channels) in [(4, 1), (4, 4), (8, 2), (16, 4), (64, 8), (128, 8)] {
        let c = HardwareCost::estimate(threads, channels);
        table.push_row([
            threads.to_string(),
            channels.to_string(),
            c.storage_bits.to_string(),
            format!("{:.6}", c.area_mm2),
            format!("{:.7}%", c.xeon_area_fraction * 100.0),
            format!("{:.2}", c.latency_ns),
        ]);
    }
    let mut out = render_results("Section 6: BreakHammer hardware complexity", &table);

    let paper = HardwareCost::paper_configuration();
    let trrd_ns = [TimingParams::ddr4_3200(), TimingParams::ddr5_4800()]
        .map(|timing| timing.cycles_to_ns(timing.t_rrd_s));
    let _ = writeln!(out, "per-thread state: {BITS_PER_THREAD} bits (two 32-bit scores, one 16-bit activation counter, two flags)");
    let _ = writeln!(
        out,
        "pipeline: {PIPELINE_STAGES} stages at {CLOCK_GHZ} GHz -> {:.2} ns per decision",
        paper.latency_ns
    );
    let _ = writeln!(
        out,
        "fits under tRRD? DDR4 ({:.2} ns): {}; DDR5 ({:.2} ns): {}",
        trrd_ns[0],
        paper.fits_under_trrd(trrd_ns[0]),
        trrd_ns[1],
        paper.fits_under_trrd(trrd_ns[1]),
    );
    let _ = writeln!(
        out,
        "paper configuration: {:.5} mm^2 total, {:.4}% of a high-end Xeon die (paper: 0.00042 mm^2, 0.0002%)",
        paper.area_mm2,
        paper.xeon_area_fraction * 100.0
    );
    out
}

/// Storage overheads referenced in §3 and §8.3: the on-chip state each
/// mitigation mechanism needs as N_RH decreases (Hydra's tens of KiB,
/// Graphene/TWiCe/AQUA growth, BlockHammer's growing history) against
/// BreakHammer's near-zero two-counters-per-thread cost.
fn storage_overheads(env: &BenchEnv) -> String {
    let geometry = DramGeometry::paper_ddr5();
    let timing = TimingParams::ddr5_4800();
    let mut mechanisms = paper_mechanisms();
    mechanisms.push(MechanismKind::BlockHammer);
    let kib = |bits: u64| bits as f64 / 8.0 / 1024.0;
    let mut table = Table::new(["nrh", "mechanism", "storage_kib"]);
    for &nrh in &env.scale.nrh_values {
        for &mechanism in &mechanisms {
            let built = mechanism.build(&geometry, &timing, nrh, 0);
            table.push_row([
                nrh.to_string(),
                mechanism.to_string(),
                format!("{:.2}", kib(built.storage_bits())),
            ]);
        }
        table.push_row([
            nrh.to_string(),
            "BreakHammer".to_string(),
            format!("{:.4}", kib(HardwareCost::estimate(4, 1).storage_bits)),
        ]);
    }
    render_results("Mechanism storage overheads vs. N_RH (processor-die state, KiB)", &table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_fixed_threshold_below_a_mechanisms_minimum_is_refused() {
        let env = |fig_nrh| BenchEnv { fig_nrh, ..BenchEnv::from_lookup_with_warnings(|_| None).0 };
        let fig6 = find("6").unwrap();
        let err = check(fig6, &env(Some(2))).unwrap_err();
        assert_eq!(err, "BH_FIG_NRH = 2 but Graphene needs N_RH >= 4");
        assert_eq!(check(fig6, &env(Some(8))), Ok(()));
        assert_eq!(check(fig6, &env(None)), Ok(()));
        // Only the fixed-threshold figures take BH_FIG_NRH.
        assert_eq!(check(find("13").unwrap(), &env(Some(2))), Ok(()));
    }
}
