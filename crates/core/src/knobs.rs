//! Central registry of the workspace's `BH_*` environment knobs.
//!
//! [`raw`] is the one read of the process environment: `clippy.toml`
//! disallows every other `std::env::var` / `var_os` call, and `raw` asserts
//! (in debug builds) that the name it reads is registered in [`KNOBS`]. The
//! README's knob table lists exactly the registered names, in registry order,
//! which a unit test below checks in both directions — so a knob can neither
//! be added silently nor drift out of the documentation.
//!
//! Parsing, and the `warning:` line for a set-but-unusable value, belong to
//! the caller (`bh_bench::scale::BenchEnv`).

/// One registered `BH_*` environment knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Knob {
    /// Environment-variable name (always `BH_…`).
    pub name: &'static str,
    /// One-line meaning, mirrored by the README knob table.
    pub summary: &'static str,
    /// Human-readable default when the variable is unset.
    pub default: &'static str,
}

/// Every `BH_*` environment variable the workspace reads, sorted by name.
pub const KNOBS: &[Knob] = &[
    Knob {
        name: "BH_ATTACKER_ENTRIES",
        summary: "trace records generated for the attacker",
        default: "8000",
    },
    Knob { name: "BH_CHANNELS", summary: "memory channels (sharded memory system)", default: "1" },
    Knob {
        name: "BH_DIGEST_RECORD",
        summary: "set to re-record the golden digest files",
        default: "unset",
    },
    Knob {
        name: "BH_ECC",
        summary: "ECC scheme classifying flips: none | secded",
        default: "none",
    },
    Knob {
        name: "BH_EPOCH_WORKERS",
        summary: "no effect: epochs run inline; still refused by `bh-benchmark run`",
        default: "unset",
    },
    Knob {
        name: "BH_FAULT_MODEL",
        summary: "bit-flip model: threshold | probabilistic",
        default: "threshold",
    },
    Knob {
        name: "BH_FIG_NRH",
        summary: "RowHammer threshold of the fixed-threshold figures",
        default: "per figure (paper: 1024)",
    },
    Knob {
        name: "BH_FLIP_PROBABILITY",
        summary: "per-crossing flip probability in [0, 1]",
        default: "0.5",
    },
    Knob {
        name: "BH_INSTRUCTIONS",
        summary: "instructions each benign core retires",
        default: "60000",
    },
    Knob {
        name: "BH_MIXES_PER_CLASS",
        summary: "workloads per mix class (paper: 15)",
        default: "1",
    },
    Knob {
        name: "BH_NRH_LIST",
        summary: "comma-separated N_RH sweep",
        default: "4096,1024,256,64",
    },
    Knob {
        name: "BH_NRH_VARIATION",
        summary: "per-row N_RH variation half-width in [0, 1)",
        default: "0.1",
    },
    Knob {
        name: "BH_SCENARIOS",
        summary: "attack-scenario names (all = whole catalog)",
        default: "none",
    },
    Knob { name: "BH_SEED", summary: "workload-generation seed", default: "42" },
    Knob {
        name: "BH_TABLE3_WINDOW",
        summary: "Table 3 observation window (instructions)",
        default: "2000000",
    },
    Knob {
        name: "BH_TEST_FORCE_PANIC_MIX",
        summary: "test hook: panic campaign cells whose mix name matches",
        default: "unset",
    },
    Knob {
        name: "BH_TEST_FORCE_SPIN_MIX",
        summary: "test hook: inject a livelock into campaign cells whose mix name matches",
        default: "unset",
    },
    Knob {
        name: "BH_TRACE_ENTRIES",
        summary: "trace records per benign application",
        default: "20000",
    },
    Knob {
        name: "BH_WATCHDOG_EPOCH_CYCLES",
        summary: "watchdog epoch length (DRAM cycles; 0 = derive from BreakHammer window)",
        default: "0",
    },
    Knob {
        name: "BH_WATCHDOG_MAX_EPOCHS",
        summary: "per-run epoch budget (0 = unlimited)",
        default: "0",
    },
    Knob {
        name: "BH_WATCHDOG_MAX_PREVENTIVE",
        summary: "per-run preventive-action budget (0 = unlimited)",
        default: "0",
    },
    Knob {
        name: "BH_WATCHDOG_STALL_EPOCHS",
        summary: "consecutive zero-progress epochs before a livelock verdict",
        default: "8",
    },
    Knob {
        name: "BH_WORKERS",
        summary: "worker threads for parallel evaluation",
        default: "all cores",
    },
];

/// Reads a registered knob's raw value from the environment.
///
/// The debug assertion keeps runtime reads honest with the registry; release
/// binaries read the variable either way.
#[allow(clippy::disallowed_methods)] // the one environment read (see the module docs)
pub fn raw(name: &str) -> Option<String> {
    debug_assert!(
        KNOBS.iter().any(|k| k.name == name),
        "`{name}` is not registered in bh_core::knobs::KNOBS"
    );
    std::env::var(name).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_sorted_and_unique() {
        for pair in KNOBS.windows(2) {
            assert!(
                pair[0].name < pair[1].name,
                "KNOBS must stay sorted and duplicate-free: {} >= {}",
                pair[0].name,
                pair[1].name
            );
        }
    }

    #[test]
    fn every_name_uses_the_bh_prefix() {
        for knob in KNOBS {
            assert!(knob.name.starts_with("BH_"), "{} must start with BH_", knob.name);
            assert!(!knob.summary.is_empty());
            assert!(!knob.default.is_empty());
        }
    }

    #[test]
    fn lookup_finds_registered_names_only() {
        // Debug builds refuse to read an unregistered name.
        let unregistered = std::panic::catch_unwind(|| raw("BH_NOT_A_KNOB"));
        assert_eq!(unregistered.is_err(), cfg!(debug_assertions));
    }

    #[test]
    fn unset_knob_reads_none() {
        // BH_TEST_FORCE_PANIC_MIX is never set in the test environment.
        assert_eq!(raw("BH_TEST_FORCE_PANIC_MIX"), None);
    }

    /// The README knob table's rows are exactly the registry, in order: a
    /// knob added without a row, a row without a knob and a reordered table
    /// all fail here.
    #[test]
    fn readme_knob_table_matches_the_registry() {
        let readme = include_str!("../../../README.md");
        let rows: Vec<&str> = readme
            .lines()
            .filter(|line| line.starts_with("| `BH_"))
            .filter_map(|line| line.split('`').nth(1))
            .collect();
        let registered: Vec<&str> = KNOBS.iter().map(|k| k.name).collect();
        assert_eq!(rows, registered);
    }
}
