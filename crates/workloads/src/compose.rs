//! Composition of the three attacker axes into one trace-producing unit.
//!
//! A [`ComposedAttacker`] glues an [`AccessPattern`] (the hammerer), an
//! [`AggressorPlacement`] (the allocator) and a [`VictimLayout`] (the data
//! at risk) into the object `MixBuilder` consumes: the pattern asks the
//! placement for an [`AggressorGrid`](crate::placement::AggressorGrid),
//! generates its schedule over it, and the victim layout declares which rows
//! the simulator should watch.

use crate::pattern::AccessPattern;
use crate::placement::AggressorPlacement;
use crate::victim::{SandwichedVictims, VictimLayout, VictimRow};
use bh_cpu::Trace;
use bh_dram::DramGeometry;
use bh_mem::AddressMapping;
use std::sync::Arc;

/// One attacker: pattern × placement × victims.
///
/// Cloning is cheap (the axes are shared behind [`Arc`]s), so a campaign can
/// stamp one composed attacker into many mixes.
///
/// # Example
///
/// ```
/// use bh_dram::DramGeometry;
/// use bh_mem::AddressMapping;
/// use bh_workloads::{ComposedAttacker, RowPressPattern, SpreadPlacement};
///
/// let attacker = ComposedAttacker::new(RowPressPattern::new(2, 2, 16), SpreadPlacement::new());
/// assert_eq!(attacker.tag(), Some("press-spr"));
/// let geometry = DramGeometry::paper_ddr5();
/// let trace = attacker.trace(&geometry, AddressMapping::paper_default(), 2_000, 42);
/// assert_eq!(trace.len(), 2_000);
/// assert!(!attacker.victim_rows(&geometry).is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct ComposedAttacker {
    pattern: Arc<dyn AccessPattern>,
    placement: Arc<dyn AggressorPlacement>,
    victims: Arc<dyn VictimLayout>,
    tag: Option<String>,
}

impl ComposedAttacker {
    /// Composes a pattern with a placement, watching the sandwiched
    /// neighbors of every aggressor by default. The scenario tag defaults to
    /// `"<pattern>-<placement>"`.
    pub fn new(
        pattern: impl AccessPattern + 'static,
        placement: impl AggressorPlacement + 'static,
    ) -> Self {
        let tag = format!("{}-{}", pattern.label(), placement.label());
        ComposedAttacker {
            pattern: Arc::new(pattern),
            placement: Arc::new(placement),
            victims: Arc::new(SandwichedVictims::new()),
            tag: Some(tag),
        }
    }

    /// Drops the scenario tag. Mixes built from an untagged attacker keep
    /// their plain names — the compat facade uses this so pre-redesign mix
    /// names (and thus golden digests) stay unchanged.
    pub(crate) fn untagged(mut self) -> Self {
        self.tag = None;
        self
    }

    /// The scenario tag, if any.
    pub fn tag(&self) -> Option<&str> {
        self.tag.as_deref()
    }

    /// The placed aggressor grid for this attacker on `geometry`.
    pub(crate) fn grid(&self, geometry: &DramGeometry) -> crate::placement::AggressorGrid {
        self.placement.place(&self.pattern.request(), geometry)
    }

    /// Generates the attacker's access trace.
    ///
    /// # Panics
    /// Panics if `entries` is zero or the pattern's parameters are
    /// degenerate for the geometry.
    pub fn trace(
        &self,
        geometry: &DramGeometry,
        mapping: AddressMapping,
        entries: usize,
        seed: u64,
    ) -> Trace {
        assert!(entries > 0, "a trace needs at least one record");
        let grid = self.grid(geometry);
        self.pattern.generate(&grid, geometry, mapping, entries, seed)
    }

    /// The rows holding victim data for this attacker on `geometry`.
    pub fn victim_rows(&self, geometry: &DramGeometry) -> Vec<VictimRow> {
        let grid = self.grid(geometry);
        self.victims.victim_rows(&grid, geometry)
    }

    /// What counts as a successful attack on this attacker's victim layout.
    pub fn success_criterion(&self) -> bh_dram::SuccessCriterion {
        self.victims.success_criterion()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attacker::AttackerKind;
    use crate::pattern::{ClassicPattern, DecoyPattern, FuzzedPattern};
    use crate::placement::{NeighborPlacement, SpreadPlacement};
    use crate::victim::KeyTableVictims;

    #[test]
    fn composition_tags_follow_the_axis_labels() {
        let a = ComposedAttacker::new(FuzzedPattern::new(2, 4), NeighborPlacement::new());
        assert_eq!(a.tag(), Some("fuzz-nbr"));
        let b = ComposedAttacker { tag: Some("custom".to_string()), ..a.clone() };
        assert_eq!(b.tag(), Some("custom"));
        assert_eq!(b.untagged().tag(), None);
    }

    #[test]
    fn traces_are_deterministic_and_victims_nonempty() {
        let geometry = DramGeometry::paper_ddr5();
        let mapping = AddressMapping::paper_default();
        let a = ComposedAttacker {
            victims: Arc::new(KeyTableVictims::new(2)),
            ..ComposedAttacker::new(DecoyPattern::new(2, 2), SpreadPlacement::new())
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
        let a = ComposedAttacker::new(
            ClassicPattern::new(AttackerKind::DoubleSided),
            NeighborPlacement::new(),
        );
        let _ = a.trace(&geometry, AddressMapping::paper_default(), 0, 1);
    }
}
