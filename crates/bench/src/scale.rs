//! The experiment scale and everything else the harness takes from outside
//! the program, parsed once at the binary edge.
//!
//! [`BenchEnv::from_env`] is the one place `bh-bench` reads the process
//! environment: it turns the `BH_*` variables into a typed [`BenchEnv`]
//! (the [`Scale`] plus the few knobs that are not part of it), and every
//! figure, table and sweep takes that value instead of looking variables up
//! itself — which is what lets a test render the whole figure set in-process
//! from a plain lookup map.
//!
//! The scale (instruction budget, number of mixes per class, the `N_RH`
//! sweep) defaults to a laptop-friendly "quick" configuration and can be
//! grown towards the paper's scale. The README's knob table lists every
//! variable with its meaning and default; a unit test keeps that table equal
//! to the registry `bh_core::knobs::KNOBS`.
//!
//! Set-but-unparseable variables (garbage, `0` where a positive count is
//! required, a repeated `BH_NRH_LIST` entry) fall back to their defaults
//! with a one-time warning on stderr naming the variable and the fallback
//! used.

use bh_dram::{EccMode, FaultConfig, FaultModel};
use bh_sim::WatchdogConfig;
use bh_workloads::scenario_catalog;

/// Experiment scale knobs (see the module documentation for the environment
/// variables that override them).
#[derive(Debug, Clone, PartialEq)]
pub struct Scale {
    /// Instructions each benign core must retire.
    pub instructions_per_core: u64,
    /// Number of workloads generated per mix class (the paper uses 15).
    pub mixes_per_class: usize,
    /// Trace records generated per benign application.
    pub benign_entries: usize,
    /// Trace records generated for the attacker.
    pub attacker_entries: usize,
    /// RowHammer thresholds swept by the scaling figures.
    pub nrh_values: Vec<u64>,
    /// Workload-generation seed.
    pub seed: u64,
    /// Worker threads used to evaluate mixes in parallel.
    pub worker_threads: usize,
    /// Memory channels in the simulated system (1 = the paper's Table 1
    /// system; more shard the memory system into per-channel controllers and
    /// mitigation instances with one shared BreakHammer).
    pub channels: usize,
    /// Attack-scenario names from the composable-attacker catalog swept in
    /// addition to the classic attack mixes (empty = classic attacker only;
    /// `BH_SCENARIOS=all` selects the whole catalog).
    pub scenarios: Vec<String>,
    /// The fault-injection model and ECC scheme applied to every
    /// configuration of the sweep (`BH_FAULT_MODEL`, `BH_FLIP_PROBABILITY`,
    /// `BH_NRH_VARIATION`, `BH_ECC`); the default is the legacy hard
    /// threshold with no ECC.
    pub fault: FaultConfig,
    /// Forward-progress watchdog and per-run budgets applied to every
    /// configuration of the sweep (`BH_WATCHDOG_EPOCH_CYCLES`,
    /// `BH_WATCHDOG_STALL_EPOCHS`, `BH_WATCHDOG_MAX_EPOCHS`,
    /// `BH_WATCHDOG_MAX_PREVENTIVE`); the default keeps the watchdog on with
    /// auto-derived epochs and no budgets.
    pub watchdog: WatchdogConfig,
}

impl Scale {
    /// The laptop-friendly default scale.
    pub fn quick() -> Self {
        Scale {
            instructions_per_core: 60_000,
            mixes_per_class: 1,
            benign_entries: 20_000,
            attacker_entries: 8_000,
            nrh_values: vec![4096, 1024, 256, 64],
            seed: 42,
            worker_threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
            channels: 1,
            scenarios: Vec::new(),
            fault: FaultConfig::default(),
            watchdog: WatchdogConfig::default(),
        }
    }

    /// Reads the scale from an arbitrary variable lookup (the injection point
    /// the tests use: mutating real process environment variables under a
    /// parallel test runner races against every other test reading them),
    /// returning the scale plus one warning per variable that was set but
    /// could not be used as given (garbage, or `0` where a positive count is
    /// required). Each warning names the variable and the fallback applied.
    pub fn from_lookup_with_warnings(
        lookup: impl Fn(&str) -> Option<String>,
    ) -> (Self, Vec<String>) {
        let mut reader = Reader { lookup, warnings: Vec::new() };
        let scale = Scale::read(&mut reader);
        (scale, reader.warnings)
    }

    fn read(reader: &mut Reader<impl Fn(&str) -> Option<String>>) -> Self {
        let mut scale = Scale::quick();
        if let Some(v) = reader.count("BH_INSTRUCTIONS", scale.instructions_per_core) {
            scale.instructions_per_core = v;
        }
        if let Some(v) = reader.count("BH_MIXES_PER_CLASS", scale.mixes_per_class as u64) {
            scale.mixes_per_class = v as usize;
        }
        // Table 3 reads the same variable with its own default, so the one
        // warning names both fallbacks.
        let fallback = format!("{} ({TABLE3_ENTRIES} in Table 3)", scale.benign_entries);
        if let Some(v) = reader.count("BH_TRACE_ENTRIES", fallback) {
            scale.benign_entries = (v as usize).max(100);
        }
        if let Some(v) = reader.count("BH_ATTACKER_ENTRIES", scale.attacker_entries as u64) {
            scale.attacker_entries = (v as usize).max(100);
        }
        if let Some(v) = reader.count("BH_WORKERS", scale.worker_threads as u64) {
            scale.worker_threads = v as usize;
        }
        if let Some(v) = reader.count("BH_CHANNELS", scale.channels as u64) {
            scale.channels = v as usize;
        }
        // Zero stall epochs would disable the livelock detectors outright;
        // turning the watchdog off has an explicit switch instead.
        if let Some(v) =
            reader.count("BH_WATCHDOG_STALL_EPOCHS", u64::from(scale.watchdog.stall_epochs))
        {
            scale.watchdog.stall_epochs = v.min(u64::from(u32::MAX)) as u32;
        }
        // The seed is any u64, and the watchdog cycle knobs accept 0 (auto
        // epoch length / unlimited budget), so only garbage warns.
        for (name, slot) in [
            ("BH_SEED", &mut scale.seed),
            ("BH_WATCHDOG_EPOCH_CYCLES", &mut scale.watchdog.epoch_cycles),
            ("BH_WATCHDOG_MAX_EPOCHS", &mut scale.watchdog.max_epochs),
            ("BH_WATCHDOG_MAX_PREVENTIVE", &mut scale.watchdog.max_preventive_actions),
        ] {
            if let Some(v) = reader.number(name, *slot) {
                *slot = v;
            }
        }
        let Reader { lookup, warnings } = reader;
        if let Some(list) = lookup("BH_NRH_LIST") {
            match parse_list(&list, &format!("BH_NRH_LIST={list:?}")) {
                Ok(parsed) => scale.nrh_values = parsed,
                Err(error) => warnings.push(format!("{error}; using {:?}", scale.nrh_values)),
            }
        }
        if let Some(list) = lookup("BH_SCENARIOS") {
            if list.trim() == "all" {
                scale.scenarios = scenario_catalog().iter().map(|s| s.name.to_string()).collect();
            } else {
                scale.scenarios = list
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
                if scale.scenarios.is_empty() {
                    warnings.push(format!(
                        "BH_SCENARIOS={list:?} names no scenarios; sweeping the classic \
                         attacker only"
                    ));
                }
            }
        }
        // The fault-model axis. Probabilities parse independently of the
        // model selector so a later `BH_FAULT_MODEL=probabilistic` run can
        // reuse the same environment.
        let mut unit = |name: &str, fallback: f64| -> f64 {
            let Some(raw) = lookup(name) else { return fallback };
            match raw.trim().parse::<f64>() {
                Ok(v) if (0.0..=1.0).contains(&v) => v,
                _ => {
                    warnings.push(format!(
                        "{name}={raw:?} is not a probability in [0, 1]; using {fallback}"
                    ));
                    fallback
                }
            }
        };
        let flip_probability = unit("BH_FLIP_PROBABILITY", 0.5);
        let nrh_variation = unit("BH_NRH_VARIATION", 0.1).min(0.999);
        if let Some(raw) = lookup("BH_FAULT_MODEL") {
            match raw.trim().to_ascii_lowercase().as_str() {
                "threshold" => scale.fault.model = FaultModel::Threshold,
                "probabilistic" => {
                    scale.fault.model =
                        FaultModel::Probabilistic { flip_probability, nrh_variation }
                }
                _ => warnings.push(format!(
                    "BH_FAULT_MODEL={raw:?} is neither \"threshold\" nor \"probabilistic\"; \
                     using the hard threshold"
                )),
            }
        }
        if let Some(raw) = lookup("BH_ECC") {
            match raw.trim().to_ascii_lowercase().as_str() {
                "none" => scale.fault.ecc = EccMode::None,
                "secded" => scale.fault.ecc = EccMode::SecDed,
                _ => warnings.push(format!(
                    "BH_ECC={raw:?} is neither \"none\" nor \"secded\"; running without ECC"
                )),
            }
        }
        scale
    }
}

/// A variable lookup, and the warnings collected while reading it.
struct Reader<F> {
    lookup: F,
    warnings: Vec<String>,
}

impl<F: Fn(&str) -> Option<String>> Reader<F> {
    /// `name` as any `u64` (0 included): only garbage warns.
    fn number(&mut self, name: &str, fallback: impl std::fmt::Display) -> Option<u64> {
        let raw = (self.lookup)(name)?;
        let parsed = raw.trim().parse::<u64>().ok();
        if parsed.is_none() {
            self.warnings.push(format!("{name}={raw:?} is not a number; using {fallback}"));
        }
        parsed
    }

    /// `name` as a positive count: garbage and 0 both fall back, with a
    /// warning.
    fn count(&mut self, name: &str, fallback: impl std::fmt::Display) -> Option<u64> {
        let value = self.number(name, &fallback)?;
        if value == 0 {
            self.warnings.push(format!("{name}=0 is not a positive count; using {fallback}"));
        }
        (value > 0).then_some(value)
    }
}

/// Parses a comma-separated list of numbers: `BH_NRH_LIST`, and the
/// command line's `--nrh` and `--seeds`. Blank entries are skipped; an
/// unparseable entry, an empty list or a repeated entry is an error naming
/// `what`.
///
/// # Errors
/// One message, starting with `what`, for the first problem found.
pub fn parse_list(list: &str, what: &str) -> Result<Vec<u64>, String> {
    let parsed: Vec<u64> = list
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| s.parse::<u64>().map_err(|_| format!("{what}: {s:?} is not a number")))
        .collect::<Result<_, _>>()?;
    if parsed.is_empty() {
        return Err(format!("{what} selected nothing"));
    }
    // A repeated entry would evaluate and append every one of its cells twice.
    if let Some(repeated) = first_repeat(&parsed) {
        return Err(format!("{what}: {repeated} is listed twice"));
    }
    Ok(parsed)
}

/// The first item of `list` that an earlier item equals.
pub fn first_repeat<T: PartialEq>(list: &[T]) -> Option<&T> {
    list.iter().enumerate().find(|(i, item)| list[..*i].contains(item)).map(|(_, item)| item)
}

/// [`BenchEnv::table3_entries`] when `BH_TRACE_ENTRIES` is unset or unusable.
const TABLE3_ENTRIES: usize = 50_000;

/// Everything `bh-bench` takes from outside the program: the [`Scale`] plus
/// the knobs that are not part of it. Built once at the binary edge by
/// [`BenchEnv::from_env`] (tests build it from a lookup map), so no figure,
/// table or sweep reads the process environment itself.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEnv {
    /// The experiment scale.
    pub scale: Scale,
    /// `BH_FIG_NRH`: replaces the threshold of the fixed-threshold figures
    /// (6, 7 and 14, which the paper evaluates at N_RH = 1K) when running at
    /// a reduced scale, where the per-row thresholds of N_RH = 1K are not
    /// reachable within the shortened simulations.
    pub fig_nrh: Option<u64>,
    /// `BH_TABLE3_WINDOW`: Table 3's observation window in instructions
    /// (2 M by default, scaled down from the paper's 64 ms).
    pub table3_window: u64,
    /// `BH_TRACE_ENTRIES` as Table 3 takes it — unclamped, and 50 000 when
    /// unset or unusable: the table characterises the generated traces
    /// themselves, so it wants longer ones than a sweep's
    /// [`Scale::benign_entries`].
    pub table3_entries: usize,
    /// `--print-config` on the command line: figures that simulate print the
    /// Table 1 / Table 2 configuration summary before their results.
    pub print_config: bool,
}

impl BenchEnv {
    /// Reads the process environment, printing one `warning:` line on stderr
    /// per variable that was set but could not be used as given. Every name
    /// asked for is a registered knob; routing the lookup through
    /// `bh_core::knobs::raw` keeps the registry honest (debug builds assert
    /// registration).
    pub fn from_env() -> Self {
        let (env, warnings) = BenchEnv::from_lookup_with_warnings(bh_core::knobs::raw);
        for warning in &warnings {
            eprintln!("warning: {warning}");
        }
        env
    }

    /// [`Scale::from_lookup_with_warnings`] plus the knobs outside the scale,
    /// from an arbitrary variable lookup.
    pub fn from_lookup_with_warnings(
        lookup: impl Fn(&str) -> Option<String>,
    ) -> (Self, Vec<String>) {
        let mut reader = Reader { lookup, warnings: Vec::new() };
        let env = BenchEnv {
            scale: Scale::read(&mut reader),
            fig_nrh: reader.count("BH_FIG_NRH", "each figure's own threshold"),
            table3_window: reader.count("BH_TABLE3_WINDOW", 2_000_000).unwrap_or(2_000_000),
            // The scale has already warned about an unusable value.
            table3_entries: (reader.lookup)("BH_TRACE_ENTRIES")
                .and_then(|raw| raw.trim().parse::<usize>().ok())
                .filter(|&entries| entries > 0)
                .unwrap_or(TABLE3_ENTRIES),
            print_config: false,
        };
        (env, reader.warnings)
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_types)] // test-only HashMap: the injected variable lookup
mod tests {
    use super::*;

    fn scale_from(lookup: impl Fn(&str) -> Option<String>) -> Scale {
        Scale::from_lookup_with_warnings(lookup).0
    }

    #[test]
    fn scale_lookup_overrides_are_applied() {
        // The lookup is the injection point: mutating real environment
        // variables under the parallel test runner would race against every
        // other test that reads the scale.
        let vars: std::collections::HashMap<&str, &str> = [
            ("BH_INSTRUCTIONS", "5000"),
            ("BH_NRH_LIST", "128, 64"),
            ("BH_MIXES_PER_CLASS", "2"),
            ("BH_ATTACKER_ENTRIES", "1234"),
        ]
        .into_iter()
        .collect();
        let scale = scale_from(|name| vars.get(name).map(|v| v.to_string()));
        assert_eq!(scale.instructions_per_core, 5000);
        assert_eq!(scale.nrh_values, vec![128, 64]);
        assert_eq!(scale.mixes_per_class, 2);
        assert_eq!(scale.attacker_entries, 1234);
        // Unset variables keep their quick defaults.
        assert_eq!(scale.benign_entries, Scale::quick().benign_entries);
        assert!(scale.scenarios.is_empty(), "scenarios default to none");
    }

    #[test]
    fn bh_workers_sets_the_worker_count() {
        let scale = scale_from(|name| (name == "BH_WORKERS").then(|| "5".to_string()));
        assert_eq!(scale.worker_threads, 5);
    }

    #[test]
    fn scenario_lookup_accepts_names_and_the_all_keyword() {
        let named =
            scale_from(|name| (name == "BH_SCENARIOS").then(|| "fuzz-nbr, press-nbr".to_string()));
        assert_eq!(named.scenarios, vec!["fuzz-nbr", "press-nbr"]);
        let all = scale_from(|name| (name == "BH_SCENARIOS").then(|| "all".to_string()));
        assert_eq!(
            all.scenarios,
            scenario_catalog().iter().map(|s| s.name.to_string()).collect::<Vec<_>>()
        );
        assert!(all.scenarios.len() >= 4);
    }

    #[test]
    fn unparseable_lookup_values_fall_back_to_defaults() {
        let scale =
            scale_from(|name| (name == "BH_INSTRUCTIONS").then(|| "not-a-number".to_string()));
        assert_eq!(scale, Scale::quick());
    }

    #[test]
    fn set_but_unusable_variables_warn_with_the_fallback() {
        let (scale, warnings) = Scale::from_lookup_with_warnings(|name| match name {
            "BH_WORKERS" => Some("banana".to_string()),
            "BH_CHANNELS" => Some("0".to_string()),
            "BH_SCENARIOS" => Some(" , ,".to_string()),
            "BH_FAULT_MODEL" => Some("maybe".to_string()),
            _ => None,
        });
        assert_eq!(scale, Scale::quick(), "every bad value falls back to the default");
        assert_eq!(warnings.len(), 4, "{warnings:?}");
        assert!(warnings.iter().any(|w| w.contains("BH_WORKERS") && w.contains("banana")));
        assert!(warnings.iter().any(|w| w.contains("BH_CHANNELS=0")));
        assert!(warnings.iter().any(|w| w.contains("BH_SCENARIOS")));
        assert!(warnings.iter().any(|w| w.contains("BH_FAULT_MODEL")));
        let (_, clean) = Scale::from_lookup_with_warnings(|_| None);
        assert!(clean.is_empty(), "unset variables must not warn");
    }

    #[test]
    fn an_nrh_list_with_a_repeat_or_a_bad_entry_falls_back_with_a_warning() {
        for list in ["64,64", "64,1O24"] {
            let (scale, warnings) = Scale::from_lookup_with_warnings(|name| {
                (name == "BH_NRH_LIST").then(|| list.to_string())
            });
            assert_eq!(scale.nrh_values, Scale::quick().nrh_values, "{list}");
            assert_eq!(warnings.len(), 1, "{warnings:?}");
            assert!(warnings[0].starts_with(&format!("BH_NRH_LIST={list:?}")), "{warnings:?}");
        }
    }

    #[test]
    fn watchdog_env_knobs_are_parsed() {
        let (scale, warnings) = Scale::from_lookup_with_warnings(|name| match name {
            "BH_WATCHDOG_EPOCH_CYCLES" => Some("25000".to_string()),
            "BH_WATCHDOG_STALL_EPOCHS" => Some("3".to_string()),
            "BH_WATCHDOG_MAX_EPOCHS" => Some("900".to_string()),
            "BH_WATCHDOG_MAX_PREVENTIVE" => Some("50".to_string()),
            _ => None,
        });
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(scale.watchdog.epoch_cycles, 25_000);
        assert_eq!(scale.watchdog.stall_epochs, 3);
        assert_eq!(scale.watchdog.max_epochs, 900);
        assert_eq!(scale.watchdog.max_preventive_actions, 50);

        // 0 is a meaningful value, not garbage: auto epoch sizing and
        // unlimited budgets.
        let (zeros, zero_warnings) = Scale::from_lookup_with_warnings(|name| {
            name.starts_with("BH_WATCHDOG_").then(|| "0".to_string())
        });
        assert!(zero_warnings.iter().all(|w| !w.contains("BH_WATCHDOG_MAX")), "{zero_warnings:?}");
        assert_eq!(zeros.watchdog.epoch_cycles, 0, "0 = derive from the BreakHammer window");
        assert_eq!(zeros.watchdog.max_epochs, 0, "0 = unlimited");
        assert_eq!(zeros.watchdog.max_preventive_actions, 0, "0 = unlimited");

        let (garbage, garbage_warnings) = Scale::from_lookup_with_warnings(|name| {
            (name == "BH_WATCHDOG_MAX_EPOCHS").then(|| "soon".to_string())
        });
        assert_eq!(garbage.watchdog, Scale::quick().watchdog);
        assert!(
            garbage_warnings.iter().any(|w| w.contains("BH_WATCHDOG_MAX_EPOCHS")),
            "{garbage_warnings:?}"
        );
    }

    #[test]
    fn fault_model_env_knobs_are_parsed() {
        let (scale, warnings) = Scale::from_lookup_with_warnings(|name| match name {
            "BH_FAULT_MODEL" => Some("probabilistic".to_string()),
            "BH_FLIP_PROBABILITY" => Some("0.25".to_string()),
            "BH_NRH_VARIATION" => Some("0.2".to_string()),
            "BH_ECC" => Some("secded".to_string()),
            _ => None,
        });
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(
            scale.fault.model,
            FaultModel::Probabilistic { flip_probability: 0.25, nrh_variation: 0.2 }
        );
        assert_eq!(scale.fault.ecc, EccMode::SecDed);
        // The fault axis reaches the system configuration.
        let config =
            crate::paper_config(bh_mitigation::MechanismKind::Graphene, 1024, true, &scale);
        assert_eq!(config.fault, scale.fault);
        assert_eq!(config.validate(), Ok(()));
    }

    #[test]
    fn the_knobs_outside_the_scale_are_parsed_with_the_scale() {
        let (env, warnings) = BenchEnv::from_lookup_with_warnings(|name| match name {
            "BH_FIG_NRH" => Some("64".to_string()),
            "BH_TABLE3_WINDOW" => Some("500000".to_string()),
            "BH_TRACE_ENTRIES" => Some("50".to_string()),
            "BH_SEED" => Some("7".to_string()),
            _ => None,
        });
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(env.scale.seed, 7, "the scale comes from the same lookup");
        assert_eq!(env.fig_nrh, Some(64));
        assert_eq!(env.table3_window, 500_000);
        // Sweeps clamp tiny traces to 100 records; Table 3 takes the value as given.
        assert_eq!((env.scale.benign_entries, env.table3_entries), (100, 50));
        assert!(!env.print_config, "only the command line sets it");

        let (unset, warnings) = BenchEnv::from_lookup_with_warnings(|_| None);
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(unset.scale, Scale::quick());
        assert_eq!(unset.fig_nrh, None);
        assert_eq!((unset.table3_window, unset.table3_entries), (2_000_000, 50_000));

        let (bad, warnings) = BenchEnv::from_lookup_with_warnings(|name| {
            (name == "BH_FIG_NRH").then(|| "1K".to_string())
        });
        assert_eq!(bad.fig_nrh, None);
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].contains("BH_FIG_NRH") && warnings[0].contains("1K"));

        // 0 is not a threshold, a window or a trace length: each falls back
        // to its default with one warning naming the value used.
        let (zeros, warnings) = BenchEnv::from_lookup_with_warnings(|name| match name {
            "BH_FIG_NRH" | "BH_TABLE3_WINDOW" | "BH_TRACE_ENTRIES" => Some("0".to_string()),
            _ => None,
        });
        assert_eq!(zeros, unset);
        assert_eq!(warnings.len(), 3, "{warnings:?}");
        assert!(warnings.iter().any(|w| w.contains("BH_FIG_NRH=0")));
        assert!(warnings.iter().any(|w| w.contains("BH_TABLE3_WINDOW=0") && w.contains("2000000")));
        assert!(warnings
            .iter()
            .any(|w| w.contains("BH_TRACE_ENTRIES=0") && w.contains("20000 (50000 in Table 3)")));
    }
}
