//! The campaign scenario catalog: named pattern × placement combinations
//! swept with BreakHammer on/off.
//!
//! Scenario names follow the `"<pattern>-<placement>"` convention (e.g.
//! `fuzz-nbr` is the Blacksmith-style fuzzed pattern over the mapping-aware
//! neighbor placement). The catalog is what `Campaign::run_matrix`
//! enumerates and what the digest-snapshot harness pins one golden per entry
//! for.

use crate::attacker::{AttackerKind, ChannelTarget};
use crate::compose::ComposedAttacker;
use crate::pattern::Pattern;
use crate::placement::Placement;
use std::fmt;

/// One named attack scenario from the catalog.
#[derive(Debug, Clone)]
pub struct AttackScenario {
    /// The scenario name, `"<pattern>-<placement>"`; mixes built with
    /// [`MixBuilder::with_scenario`](crate::MixBuilder::with_scenario) carry
    /// it as their name suffix.
    pub name: &'static str,
    /// The composed attacker the scenario runs.
    pub attacker: ComposedAttacker,
}

/// Error returned by [`scenario_by_name`] for an unknown scenario name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownScenarioError {
    /// The name that failed to resolve.
    pub name: String,
}

impl fmt::Display for UnknownScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let known: Vec<&str> = scenario_catalog().iter().map(|s| s.name).collect();
        write!(f, "unknown attack scenario '{}' (known: {})", self.name, known.join(", "))
    }
}

impl std::error::Error for UnknownScenarioError {}

/// The built-in scenario catalog: every pattern × placement combination the
/// campaign sweeps beyond the classic attacker.
pub fn scenario_catalog() -> Vec<AttackScenario> {
    const NEIGHBOR: Placement = Placement::Neighbor(ChannelTarget::Pinned(0));
    let scenario = |name, pattern, placement| AttackScenario {
        name,
        attacker: ComposedAttacker { pattern, placement, bubbles: 0 },
    };
    vec![
        // Blacksmith-style fuzzed schedule over neighboring aggressors.
        scenario("fuzz-nbr", Pattern::Fuzzed { banks: 2, aggressors: 8 }, NEIGHBOR),
        // RowPress-style long-open-row dwell on neighboring aggressors.
        scenario("press-nbr", Pattern::RowPress { banks: 2, aggressors: 2, dwell: 16 }, NEIGHBOR),
        // Benign-mimicry hammering laced with cached decoy traffic.
        scenario("decoy-nbr", Pattern::Decoy { banks: 2, aggressors: 2 }, NEIGHBOR),
        // Classic multi-bank hammering spread across banks and channels.
        scenario(
            "classic-spr",
            Pattern::Classic(AttackerKind::MultiBank { banks: 4, aggressors: 2 }),
            Placement::Spread,
        ),
        // Fuzzed schedule spread across banks and channels.
        scenario("fuzz-spr", Pattern::Fuzzed { banks: 2, aggressors: 4 }, Placement::Spread),
    ]
}

/// Resolves a catalog scenario by name.
///
/// # Errors
/// Returns [`UnknownScenarioError`] (listing the known names) if `name` is
/// not in the catalog.
pub fn scenario_by_name(name: &str) -> Result<AttackScenario, UnknownScenarioError> {
    scenario_catalog()
        .into_iter()
        .find(|s| s.name == name)
        .ok_or_else(|| UnknownScenarioError { name: name.to_string() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_dram::DramGeometry;
    use bh_mem::AddressMapping;

    #[test]
    fn catalog_names_are_unique() {
        let catalog = scenario_catalog();
        assert!(catalog.len() >= 4, "campaign needs at least four new scenarios");
        for (i, s) in catalog.iter().enumerate() {
            assert!(catalog[..i].iter().all(|earlier| earlier.name != s.name), "{}", s.name);
        }
    }

    #[test]
    fn every_scenario_produces_traces_and_victims_on_both_geometries() {
        let mapping = AddressMapping::paper_default();
        for geometry in [DramGeometry::paper_ddr5(), DramGeometry::tiny().with_channels(2)] {
            for s in scenario_catalog() {
                let t = s.attacker.trace(&geometry, mapping, 500, 1);
                assert_eq!(t.len(), 500, "{}", s.name);
                assert!(!s.attacker.victim_rows(&geometry).is_empty(), "{}", s.name);
            }
        }
    }

    #[test]
    fn lookup_by_name_round_trips_and_reports_unknowns() {
        assert_eq!(scenario_by_name("fuzz-nbr").unwrap().name, "fuzz-nbr");
        let err = scenario_by_name("nope").unwrap_err();
        assert!(err.to_string().contains("fuzz-nbr"), "{err}");
    }
}
