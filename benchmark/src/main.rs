//! The repo's benchmark. See `README.md` in this directory.
//!
//! ```text
//! bh-benchmark run --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke]
//! bh-benchmark bless [--workload <name>]
//! bh-benchmark compare <a.json> <b.json>
//! ```

mod campaign;
mod clock;
mod harness;
mod json;
mod layers;
mod metrics;
mod pinned;
mod run;
mod simrun;
mod span;
mod stats;
mod workloads;

use run::Options;
use std::path::Path;
use std::process::ExitCode;
use workloads::{BLESSED_SEED, WORKLOADS};

/// Where reports, traces and scratch stores go: `benchmark/out/` of the
/// checkout the binary was built from, whatever the working directory.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// Seconds measured when `--seconds` is not given (`run_seconds` of
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 28.0;

const USAGE: &str = "usage:
  bh-benchmark run --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke]
  bh-benchmark bless [--workload <name>]
  bh-benchmark compare <a.json> <b.json>
workloads: attack_paper benign_paper scaled_4ch campaign_sweep";

/// Refuses to measure under any `BH_*` knob: `BH_EPOCH_WORKERS`,
/// `BH_CELL_TIMEOUT_SECS`, … would silently change what runs.
fn knobs_set() -> Vec<&'static str> {
    bh_core::knobs::KNOBS
        .iter()
        .map(|knob| knob.name)
        .filter(|name| std::env::var_os(name).is_some())
        .collect()
}

/// Makes `peak_rss_mb` a property of the program rather than of allocator
/// luck. glibc raises its mmap threshold to the size of the first large block
/// that is freed (up to 32 MiB); until then 8 MiB tracker arrays are mapped
/// and unmapped, afterwards they stay on the heap. Which block is freed first
/// depends on seed and thread timing, and `VmHWM` came out bimodal with it
/// (`campaign_sweep` 163 or 208 MB, `benign_paper` 26.7 or 29.8 MB). Freeing
/// one untouched block just under the cap at start-up settles the threshold
/// before anything is measured; zeroed pages are never resident, so the
/// block itself adds nothing.
fn pin_mmap_threshold() {
    drop(std::hint::black_box(vec![0u8; 32 * 1024 * 1024 - 64 * 1024]));
}

fn parse_run(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: BLESSED_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value =
            |what: &str| args.next().cloned().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => opts.workload = value("a workload name")?,
            "--seed" => {
                opts.seed = value("a number")?.parse().map_err(|_| "--seed needs a number")?;
            }
            "--seconds" => {
                opts.seconds =
                    value("a number")?.parse().map_err(|_| "--seconds needs a number")?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                opts.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--smoke" => opts.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("--workload must be one of {}", WORKLOADS.join(", ")));
    }
    Ok(opts)
}

fn cmd_run(opts: &Options) -> std::io::Result<bool> {
    pin_mmap_threshold();
    std::fs::create_dir_all(OUT_DIR)?;
    let finished = run::run(opts);
    let out = Path::new(OUT_DIR);
    let suffix = if opts.trace { ".traced" } else { "" };
    finished.report.write_json(&out.join(format!("{}{suffix}.json", opts.workload)))?;
    if opts.trace {
        let path = out.join(format!("trace-{}.json", opts.workload));
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        finished.recorder.write_chrome_trace(&mut file, &finished.cell_names)?;
        println!("# spans, self time by name (count, total ms, self ms):");
        for (name, t) in finished.recorder.self_times() {
            println!(
                "#   {name}: {} {:.3} {:.3}",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
    }
    finished.report.print();
    Ok(finished.report.correct())
}

fn cmd_bless(only: Option<&str>) -> std::io::Result<bool> {
    let mut clean = true;
    for workload in WORKLOADS.iter().filter(|w| only.is_none_or(|o| o == **w)) {
        // One pass is enough: the pinned lines are deterministic.
        let opts = Options {
            workload: (*workload).to_string(),
            seed: BLESSED_SEED,
            seconds: 0.001,
            trace: false,
            smoke: false,
        };
        let finished = run::run(&opts);
        if finished.report.failed > 0 {
            eprintln!("{workload}: {} cells failed, not blessing", finished.report.failed);
            clean = false;
            continue;
        }
        let path = pinned::bless(workload, &finished.observed)?;
        println!("blessed {} cells into {}", finished.observed.len(), path.display());
    }
    Ok(clean)
}

fn main() -> ExitCode {
    let set = knobs_set();
    if !set.is_empty() {
        eprintln!(
            "refusing to run with {} set: the benchmark takes everything from its arguments",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first().map(|(cmd, rest)| (cmd.as_str(), rest)) {
        Some(("run", rest)) => match parse_run(rest) {
            Ok(opts) => cmd_run(&opts).map_err(|e| e.to_string()),
            Err(why) => Err(format!("{why}\n{USAGE}")),
        },
        Some(("bless", rest)) => match rest {
            [] => cmd_bless(None).map_err(|e| e.to_string()),
            [flag, name] if flag == "--workload" && WORKLOADS.contains(&name.as_str()) => {
                cmd_bless(Some(name)).map_err(|e| e.to_string())
            }
            _ => Err(USAGE.to_string()),
        },
        Some(("compare", [a, b])) => metrics::compare(a, b),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("{why}");
            ExitCode::from(2)
        }
    }
}
