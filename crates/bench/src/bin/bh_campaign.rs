//! `bh-campaign` — the experiment harness's one command: the paper's figures
//! and tables, and checkpointed campaign sweeps over the (mechanism × N_RH ×
//! ±BreakHammer × mix × seed) grid, with resume.
//!
//! ```text
//! bh_campaign fig <id> [--print-config]                print one figure or table
//! bh_campaign sweep  --store results.jsonl [options]   start a fresh sweep
//! bh_campaign resume --store results.jsonl [options]   continue an interrupted sweep
//! bh_campaign report --store results.jsonl [--strict]  aggregate a store into a table
//! ```
//!
//! Figure ids: `2 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19` (the paper's
//! figures), `ablations`, `scenarios`, `table3`, `hw_cost`, `storage`.
//! `--print-config` prepends the Table 1 / Table 2 configuration summary to
//! the figures that simulate.
//!
//! Options (sweep/resume):
//!
//! ```text
//! --mechanisms LIST   comma-separated mechanisms (default: graphene);
//!                     `paper` selects the paper's eight-mechanism set
//! --nrh LIST          comma-separated N_RH values (default: the scale's sweep)
//! --seeds LIST        comma-separated workload seeds (default: the scale's seed)
//! --breakhammer ARM   off | on | both (default: both)
//! --benign            sweep the benign suite instead of the attack suite
//! --max-cells N       evaluate at most N cells, then stop (deferred cells
//!                     are picked up by a later `resume`)
//! --strict            (report) exit nonzero while any cell is non-ok —
//!                     failed, livelocked or budget-cut
//! ```
//!
//! The experiment scale (instructions, mixes per class, channels, workers, …)
//! comes from the usual `BH_*` environment variables; `resume` must be run
//! with the same scale and options as the original sweep, otherwise the cell
//! ids will not match and the grid is treated as new work.
//!
//! Every cell records a typed run outcome. Cells whose evaluation panics are
//! recorded as `"failed"` JSONL lines instead of aborting the sweep; `report`
//! lists them and `resume` retries them. Cells the simulator's deterministic
//! forward-progress watchdog classifies as livelocked (or over a
//! `BH_WATCHDOG_MAX_*` budget) are recorded as `"livelock"` / `"budget"`
//! lines with their diagnostic snapshot; they are *settled* — a deterministic
//! verdict reruns to itself — so `resume` skips and reports them instead of
//! retrying. `BH_TEST_FORCE_PANIC_MIX=<substring>` and
//! `BH_TEST_FORCE_SPIN_MIX=<substring>` are test hooks forcing matching cells
//! to panic or livelock, exercising both fault paths end to end.

// The completed-cell set is membership-only (never iterated for output);
// bh-bench is outside the digest-pinned set.
#![allow(clippy::disallowed_types)]

use bh_bench::campaign::{
    evaluated_cells, pending_failures, report_table, verdict_cells, CampaignSpec, ResultStore,
};
use bh_bench::scale::{first_repeat, parse_list};
use bh_bench::{config_matrix, figures, render_results, BenchEnv};
use bh_mitigation::MechanismKind;
use std::collections::HashSet;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: bh_campaign fig ID [--print-config]
       bh_campaign <sweep|resume|report> --store PATH \
[--mechanisms LIST] [--nrh LIST] [--seeds LIST] [--breakhammer off|on|both] \
[--benign] [--max-cells N] [--strict]";

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("bh_campaign: {message}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

struct Options {
    store: PathBuf,
    mechanisms: Vec<MechanismKind>,
    nrh_values: Option<Vec<u64>>,
    seeds: Option<Vec<u64>>,
    breakhammer_options: Vec<bool>,
    attack: bool,
    max_cells: Option<usize>,
    strict: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        store: PathBuf::new(),
        mechanisms: vec![MechanismKind::Graphene],
        nrh_values: None,
        seeds: None,
        breakhammer_options: vec![false, true],
        attack: true,
        max_cells: None,
        strict: false,
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().cloned().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--store" => options.store = PathBuf::from(value()?),
            "--mechanisms" => {
                let list = value()?;
                options.mechanisms = if list == "paper" {
                    MechanismKind::paper_mechanisms().to_vec()
                } else {
                    list.split(',')
                        .map(str::trim)
                        .filter(|s| !s.is_empty())
                        .map(|name| {
                            MechanismKind::parse(name)
                                .ok_or_else(|| format!("unknown mechanism {name:?}"))
                        })
                        .collect::<Result<_, _>>()?
                };
                if let Some(repeated) = first_repeat(&options.mechanisms) {
                    return Err(format!("--mechanisms: {repeated} is listed twice"));
                }
            }
            "--nrh" => options.nrh_values = Some(parse_list(&value()?, "--nrh")?),
            "--seeds" => options.seeds = Some(parse_list(&value()?, "--seeds")?),
            "--breakhammer" => {
                options.breakhammer_options = match value()?.as_str() {
                    "off" => vec![false],
                    "on" => vec![true],
                    "both" => vec![false, true],
                    other => {
                        return Err(format!("--breakhammer must be off|on|both, got {other:?}"))
                    }
                };
            }
            "--benign" => options.attack = false,
            "--strict" => options.strict = true,
            "--max-cells" => {
                options.max_cells =
                    Some(value()?.parse().map_err(|_| "--max-cells needs a number".to_string())?)
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    if options.store.as_os_str().is_empty() {
        return Err("--store is required".to_string());
    }
    if options.mechanisms.is_empty() {
        return Err("--mechanisms selected nothing".to_string());
    }
    Ok(options)
}

/// `fig ID [--print-config]`, in either order.
fn parse_fig(args: &[String]) -> Result<(&'static figures::Figure, bool), String> {
    let (flags, ids): (Vec<&String>, Vec<&String>) = args.iter().partition(|a| a.starts_with("--"));
    if let Some(flag) = flags.iter().find(|flag| flag.as_str() != "--print-config") {
        return Err(format!("unknown option {flag:?}"));
    }
    match ids.as_slice() {
        [id] => Ok((figures::find(id)?, !flags.is_empty())),
        _ => Err("fig needs exactly one figure id".to_string()),
    }
}

/// The sweep `options` describe at `env`'s scale.
///
/// # Errors
/// If the (mechanism × N_RH × ±BreakHammer) matrix is empty or holds a
/// configuration `SystemConfig::validate` rejects: a sweep that cannot
/// evaluate is a usage error raised before any store file is touched, not a
/// store of `"failed"` lines every `resume` retries.
fn build_spec(options: &Options, env: BenchEnv) -> Result<CampaignSpec, String> {
    let mut spec = CampaignSpec::from_scale(env.scale, options.mechanisms.clone(), options.attack);
    if let Some(nrh) = &options.nrh_values {
        spec.nrh_values = nrh.clone();
    }
    if let Some(seeds) = &options.seeds {
        spec.seeds = seeds.clone();
    }
    spec.breakhammer_options = options.breakhammer_options.clone();
    // Test hooks: force cells whose mix name contains the given substring to
    // panic (isolation path) or to livelock under an injected chaos
    // configuration (watchdog path), end to end.
    spec.force_panic_mix = bh_core::knobs::raw("BH_TEST_FORCE_PANIC_MIX").filter(|s| !s.is_empty());
    spec.force_spin_mix = bh_core::knobs::raw("BH_TEST_FORCE_SPIN_MIX").filter(|s| !s.is_empty());
    let configs =
        config_matrix(&spec.mechanisms, &spec.nrh_values, &spec.breakhammer_options, &spec.scale);
    if configs.is_empty() {
        return Err("the options select no configuration (the `none` mechanism has no \
                    BreakHammer arm)"
            .to_string());
    }
    for config in &configs {
        config.validate()?;
    }
    Ok(spec)
}

fn run(args: Vec<String>) -> Result<ExitCode, String> {
    let Some((command, rest)) = args.split_first() else {
        return Err("missing command".to_string());
    };
    match command.as_str() {
        "fig" => {
            let (figure, print_config) = parse_fig(rest)?;
            let env = BenchEnv { print_config, ..BenchEnv::from_env() };
            if let Err(message) = figures::check(figure, &env) {
                // The environment is wrong, not the arguments: no usage banner.
                eprintln!("bh_campaign: {message}");
                return Ok(ExitCode::FAILURE);
            }
            print!("{}", figures::render(figure, &env));
            Ok(ExitCode::SUCCESS)
        }
        "sweep" | "resume" => {
            let options = parse_options(rest)?;
            let spec = build_spec(&options, BenchEnv::from_env())?;
            let resume = command == "resume";
            // Settled = ok + livelock + budget: a deterministic verdict reruns
            // to itself, so resume skips it; only panicked cells are retried.
            let settled: HashSet<String> = if resume {
                ResultStore::settled_cells(&options.store).map_err(|e| e.to_string())?
            } else {
                HashSet::new()
            };
            let store = if resume {
                ResultStore::append_to(&options.store)
            } else {
                ResultStore::create(&options.store)
            }
            .map_err(|e| e.to_string())?;
            let summary = spec.run(&store, &settled, options.max_cells);
            println!(
                "{} cells: {} evaluated ({} livelock, {} budget), {} already in store, \
                 {} failed, {} deferred ({})",
                summary.total_cells,
                summary.evaluated_cells,
                summary.livelock_cells,
                summary.budget_cells,
                summary.skipped_cells,
                summary.failed_cells,
                summary.deferred_cells,
                if summary.complete() {
                    "store complete".to_string()
                } else {
                    format!("resume with: bh_campaign resume --store {}", options.store.display())
                },
            );
            if summary.failed_cells > 0 {
                eprintln!(
                    "bh_campaign: {} cell(s) panicked and were recorded as failed; \
                     retry them with: bh_campaign resume --store {}",
                    summary.failed_cells,
                    options.store.display()
                );
            }
            if summary.livelock_cells + summary.budget_cells > 0 {
                eprintln!(
                    "bh_campaign: {} cell(s) ended with a watchdog verdict (livelock/budget); \
                     the verdict is deterministic, so resume will skip them — \
                     inspect them with: bh_campaign report --store {}",
                    summary.livelock_cells + summary.budget_cells,
                    options.store.display()
                );
            }
            Ok(ExitCode::SUCCESS)
        }
        "report" => {
            let options = parse_options(rest)?;
            let entries = ResultStore::entries(&options.store).map_err(|e| e.to_string())?;
            let pending = pending_failures(&entries);
            let records = evaluated_cells(entries);
            let ok_count = records.iter().filter(|r| r.is_ok()).count();
            if records.is_empty() {
                return Err(format!("{} holds no completed cells", options.store.display()));
            }
            let title = format!("Campaign report ({ok_count} ok cells)");
            print!("{}", render_results(&title, &report_table(&records)));
            let verdicts = verdict_cells(&records);
            if !verdicts.is_empty() {
                println!();
                println!("{} cell(s) settled with a watchdog verdict:", verdicts.len());
                for cell in &verdicts {
                    println!("  {} [{}]", cell.cell, cell.termination);
                    if let Some(report) = &cell.livelock_report {
                        println!("    {report}");
                    }
                }
            }
            if !pending.is_empty() {
                println!();
                println!("{} failed cell(s) pending retry (bh_campaign resume):", pending.len());
                for cell in &pending {
                    println!("  {}: {}", cell.cell, cell.error);
                }
            }
            if options.strict && (!verdicts.is_empty() || !pending.is_empty()) {
                // Not a usage error: the arguments were fine, the store is
                // dirty. Report and exit nonzero without the usage banner.
                eprintln!(
                    "bh_campaign: --strict: {} watchdog verdict(s) and {} pending failure(s) in {}",
                    verdicts.len(),
                    pending.len(),
                    options.store.display()
                );
                return Ok(ExitCode::FAILURE);
            }
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `sweep`/`resume` options through to the checked spec, at the default
    /// scale with no `BH_*` variable set.
    fn spec_for(args: &[&str]) -> Result<CampaignSpec, String> {
        let mut args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        args.extend(["--store".to_string(), "unused.jsonl".to_string()]);
        let env = BenchEnv::from_lookup_with_warnings(|_| None).0;
        build_spec(&parse_options(&args)?, env)
    }

    #[test]
    fn repeated_list_entries_are_rejected_by_name() {
        assert_eq!(parse_list("256, 64", "--nrh"), Ok(vec![256, 64]));
        assert_eq!(parse_list("256,64,256", "--nrh").unwrap_err(), "--nrh: 256 is listed twice");
        assert_eq!(spec_for(&["--seeds", "7,7"]).unwrap_err(), "--seeds: 7 is listed twice");
        let err = spec_for(&["--mechanisms", "graphene,para,Graphene"]).unwrap_err();
        assert_eq!(err, "--mechanisms: Graphene is listed twice");
    }

    #[test]
    fn an_empty_configuration_matrix_is_rejected() {
        let err = spec_for(&["--mechanisms", "none", "--breakhammer", "on"]).unwrap_err();
        assert!(err.contains("no configuration"), "{err}");
        // `none` beside a real mechanism, or with its one arm, is a sweep.
        assert!(spec_for(&["--mechanisms", "none,para", "--breakhammer", "on"]).is_ok());
        assert!(spec_for(&["--mechanisms", "none", "--breakhammer", "off"]).is_ok());
    }

    #[test]
    fn a_threshold_below_the_mechanisms_minimum_is_rejected() {
        let err = spec_for(&["--mechanisms", "graphene,hydra", "--nrh", "64,4"]).unwrap_err();
        assert!(err.contains("Hydra") && err.contains("N_RH >= 8"), "{err}");
        assert!(spec_for(&["--mechanisms", "graphene,hydra", "--nrh", "64,8"]).is_ok());
    }
}
