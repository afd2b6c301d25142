//! The observations pinned for the blessed seed under `expected/`: one line
//! per cell — its id, the fingerprint of what it simulated, and the
//! model-quality counts (would-be bit-flips, flagged threads).
//!
//! A mismatch is *reported* (`sim.fingerprint_drift_cells`), not failed: a
//! PR that changes the model moves these legitimately and re-blesses; a
//! speed-only PR must show 0.

use std::collections::BTreeSet;
use std::path::PathBuf;

/// The line pinned for one cell.
pub fn observation_line(
    id: &str,
    fingerprint: u64,
    bitflips: u64,
    attacker_flagged: bool,
    benign_flagged: bool,
) -> String {
    format!(
        "{id} {fingerprint:016x} bitflips={bitflips} attacker_flagged={} benign_flagged={}",
        u8::from(attacker_flagged),
        u8::from(benign_flagged)
    )
}

fn expected_path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("expected")
        .join(format!("{workload}.seed{}.txt", crate::workloads::BLESSED_SEED))
}

/// How many of `observed` are not among the workload's pinned lines, or why
/// that cannot be told.
pub fn drift(workload: &str, observed: &[String]) -> Result<u64, String> {
    let path = expected_path(workload);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {} ({e}); run `bless`", path.display()))?;
    let pinned: BTreeSet<&str> = text.lines().collect();
    Ok(observed.iter().filter(|line| !pinned.contains(line.as_str())).count() as u64)
}

/// Pins `observed` as the workload's expected lines.
pub fn bless(workload: &str, observed: &[String]) -> std::io::Result<PathBuf> {
    let path = expected_path(workload);
    std::fs::create_dir_all(path.parent().expect("expected/ has a parent"))?;
    let mut lines: Vec<&str> = observed.iter().map(String::as_str).collect();
    lines.sort_unstable();
    std::fs::write(&path, lines.join("\n") + "\n")?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observation_lines_are_stable_text() {
        assert_eq!(
            observation_line("HHHA-00/Graphene@64+BH", 0xabc, 0, true, false),
            "HHHA-00/Graphene@64+BH 0000000000000abc bitflips=0 attacker_flagged=1 benign_flagged=0"
        );
    }
}
