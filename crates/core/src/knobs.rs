//! Central registry of the workspace's `BH_*` environment knobs.
//!
//! Every `BH_*` environment variable read anywhere in the workspace must be
//! registered in [`KNOBS`], and every registered knob must appear in the
//! README's knob table. Both halves are enforced statically by `bh_analyze`
//! rule **E1** (`cargo run -p bh_analyze -- --deny`), so a knob can neither
//! be added silently nor drift out of the documentation.
//!
//! The module also owns the *parse/warn-once* helper every scattered read
//! site shares: a set-but-unusable value (garbage where a number is needed,
//! `0` where a positive count is needed) falls back to its default with a
//! one-time stderr warning naming the variable, the rejected value and the
//! fallback used — one implementation instead of one `static Once` per site.

use std::collections::BTreeSet;
use std::sync::Mutex;

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
///
/// `bh_analyze` parses this table (rule E1): an `env::var("BH_…")` read of an
/// unregistered name is a lint error, and so is a registered name missing
/// from the README knob table.
pub const KNOBS: &[Knob] = &[
    Knob {
        name: "BH_ATTACKER_ENTRIES",
        summary: "trace records generated for the attacker",
        default: "8000",
    },
    Knob {
        name: "BH_CELL_TIMEOUT_SECS",
        summary: "campaign overseer: warn when a cell runs longer (wall clock)",
        default: "unset (off)",
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

/// True if `name` is a registered knob.
pub fn is_registered(name: &str) -> bool {
    KNOBS.iter().any(|k| k.name == name)
}

/// The registered knob named `name`, if any.
pub fn find(name: &str) -> Option<&'static Knob> {
    KNOBS.iter().find(|k| k.name == name)
}

/// Reads a registered knob's raw value from the environment.
///
/// The debug assertion keeps runtime reads honest with the registry; release
/// binaries read the variable either way (the static E1 pass is the real
/// gate).
pub fn raw(name: &str) -> Option<String> {
    debug_assert!(is_registered(name), "`{name}` is not registered in bh_core::knobs::KNOBS");
    std::env::var(name).ok()
}

/// Emits `warning: {message}` on stderr at most once per knob name for the
/// lifetime of the process — the shared warn-once guard behind every parse
/// helper (one implementation instead of one `static Once` per read site).
fn warn_once(name: &str, message: &str) {
    static WARNED: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    let mut warned = WARNED.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    // Leak-free interning is not worth it for a bounded registry: look the
    // name up in the static table so the set holds `&'static str` only.
    let Some(knob) = find(name) else { return };
    if warned.insert(knob.name) {
        eprintln!("warning: {message}");
    }
}

/// Reads and parses a registered knob with a caller-supplied parser.
///
/// Returns `None` when the variable is unset. When it is set but `parse`
/// rejects it, warns once on stderr — naming the variable, the rejected
/// value (`problem` describes what was expected) and `fallback_desc` — and
/// returns `None` so the caller applies its default. This is the one
/// parse/warn-once implementation every knob read site shares.
pub fn parse_or_warn<T>(
    name: &str,
    parse: impl Fn(&str) -> Option<T>,
    problem: &str,
    fallback_desc: &str,
) -> Option<T> {
    let raw = raw(name)?;
    match parse(raw.trim()) {
        Some(value) => Some(value),
        None => {
            warn_once(name, &format!("{name}={raw:?} {problem}; falling back to {fallback_desc}"));
            None
        }
    }
}

/// Parses a knob as a positive count, warning once and returning `None` on
/// garbage or `0`.
pub fn positive_usize(name: &str, fallback_desc: &str) -> Option<usize> {
    parse_or_warn(
        name,
        |raw| raw.parse::<usize>().ok().filter(|&n| n > 0),
        "is not a positive integer",
        fallback_desc,
    )
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
        assert!(is_registered("BH_WORKERS"));
        assert!(!is_registered("BH_NOT_A_KNOB"));
        assert_eq!(find("BH_SEED").unwrap().default, "42");
        assert!(find("BH_NOT_A_KNOB").is_none());
    }

    #[test]
    fn unset_knob_reads_none() {
        // BH_TEST_FORCE_PANIC_MIX is never set in the test environment.
        assert_eq!(raw("BH_TEST_FORCE_PANIC_MIX"), None);
        assert_eq!(positive_usize("BH_TEST_FORCE_PANIC_MIX", "default"), None);
    }
}
