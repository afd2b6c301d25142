//! One attacker: a [`Pattern`] (the hammerer) over a [`Placement`] (the
//! allocator), with one `bubbles` intensity knob.
//!
//! The set of attackers is closed, like the mechanism registry: the
//! [`scenario_catalog()`](crate::scenario_catalog) and the
//! [`AttackerProfile`](crate::AttackerProfile) facade build every
//! `ComposedAttacker` there is. Adding a pattern is one [`Pattern`] variant,
//! one arm in [`Pattern::generate`] (its footprint joins
//! [`Pattern::footprint`]) and one catalog row.

use crate::pattern::Pattern;
use crate::placement::{AggressorGrid, Placement};
use crate::victim::{sandwiched_victims, VictimRow};
use bh_cpu::Trace;
use bh_dram::{DramGeometry, SuccessCriterion};
use bh_mem::AddressMapping;

/// One attacker: pattern × placement, at a fixed intensity.
///
/// Its victims are the rows its aggressors sandwich (the tracker's own
/// neighbour rule).
///
/// # Example
///
/// ```
/// use bh_dram::DramGeometry;
/// use bh_mem::AddressMapping;
/// use bh_workloads::scenario_by_name;
///
/// let attacker = scenario_by_name("fuzz-spr").unwrap().attacker;
/// let geometry = DramGeometry::paper_ddr5();
/// let trace = attacker.trace(&geometry, AddressMapping::paper_default(), 2_000, 42);
/// assert_eq!(trace.len(), 2_000);
/// assert!(!attacker.victim_rows(&geometry).is_empty());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComposedAttacker {
    pub(crate) pattern: Pattern,
    pub(crate) placement: Placement,
    /// Non-memory instructions between consecutive hammering accesses.
    pub(crate) bubbles: u32,
}

impl ComposedAttacker {
    /// The placed aggressor grid for this attacker on `geometry`.
    pub(crate) fn grid(&self, geometry: &DramGeometry) -> AggressorGrid {
        let (banks, aggressors) = self.pattern.footprint();
        self.placement.place(banks, aggressors, geometry)
    }

    /// Generates the attacker's access trace.
    ///
    /// # Panics
    /// Panics if `entries` is zero or the pattern's parameters are
    /// degenerate.
    pub fn trace(
        &self,
        geometry: &DramGeometry,
        mapping: AddressMapping,
        entries: usize,
        seed: u64,
    ) -> Trace {
        assert!(entries > 0, "a trace needs at least one record");
        self.pattern.generate(self.grid(geometry), geometry, mapping, self.bubbles, entries, seed)
    }

    /// The rows holding victim data for this attacker on `geometry`.
    pub fn victim_rows(&self, geometry: &DramGeometry) -> Vec<VictimRow> {
        sandwiched_victims(&self.grid(geometry), geometry)
    }

    /// What counts as a successful attack on the victim rows: at least one
    /// flip that escaped ECC silently.
    pub fn success_criterion(&self) -> SuccessCriterion {
        SuccessCriterion::AnySilentFlip
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attacker::{AttackerKind, ChannelTarget};

    #[test]
    fn traces_are_deterministic_and_victims_nonempty() {
        let geometry = DramGeometry::paper_ddr5();
        let mapping = AddressMapping::paper_default();
        let a = ComposedAttacker {
            pattern: Pattern::Decoy { banks: 2, aggressors: 2 },
            placement: Placement::Spread,
            bubbles: 0,
        };
        let t1 = a.trace(&geometry, mapping, 1_000, 7);
        let t2 = a.trace(&geometry, mapping, 1_000, 7);
        assert_eq!(t1, t2);
        assert!(!a.victim_rows(&geometry).is_empty());
        assert!(!a.grid(&geometry).aggressor_rows().is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one record")]
    fn empty_traces_are_rejected_before_pattern_checks() {
        let geometry = DramGeometry::paper_ddr5();
        let a = ComposedAttacker {
            pattern: Pattern::Classic(AttackerKind::ManySided { aggressors: 1 }),
            placement: Placement::Neighbor(ChannelTarget::default()),
            bubbles: 0,
        };
        let _ = a.trace(&geometry, AddressMapping::paper_default(), 0, 1);
    }

    #[test]
    fn bubbles_move_only_the_bubble_fields() {
        // Raising the attacker's bubbles leaves every address (and every
        // cached/uncached choice) where it was; decoys stay at bubbles + 2.
        let geometry = DramGeometry::tiny().with_channels(2);
        let mapping = AddressMapping::paper_default();
        for scenario in crate::scenario_catalog() {
            let base = scenario.attacker.trace(&geometry, mapping, 1_000, 7);
            let slowed = ComposedAttacker { bubbles: 3, ..scenario.attacker };
            let slowed = slowed.trace(&geometry, mapping, 1_000, 7);
            for (x, y) in base.entries().iter().zip(slowed.entries()) {
                assert_eq!((x.addr, x.is_write, x.uncached), (y.addr, y.is_write, y.uncached));
                let decoy = if x.uncached { 0 } else { 2 };
                assert_eq!((x.bubbles, y.bubbles), (decoy, 3 + decoy), "{}", scenario.name);
            }
        }
    }
}
