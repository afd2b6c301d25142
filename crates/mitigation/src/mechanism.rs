//! [`Mechanism`], the one value every RowHammer mitigation mechanism is built
//! as, the [`MechanismKind`] registry that builds it by name, and what the
//! mechanism files share: their trait, the victim distance they protect and
//! their tREFW [`ResetWindow`].

use crate::action::{ActionSink, ActivationEvent, ScoreAttribution};
use crate::{
    aqua::Aqua, blockhammer::BlockHammer, graphene::Graphene, hydra::Hydra, para::Para, prac::Prac,
    rega::Rega, rfm::Rfm, twice::Twice,
};
use bh_dram::{Cycle, DramGeometry, RowAddr, TimingAdjustment, TimingParams};
use std::fmt;

/// What every mechanism file implements; [`Mechanism`] dispatches to it.
pub(crate) trait TriggerMechanism {
    fn on_activation(&mut self, event: &ActivationEvent, sink: &mut ActionSink);
    fn storage_bits(&self) -> u64;
}

/// One instance of a RowHammer mitigation mechanism, built by
/// [`MechanismKind::build`]: the memory controller reports every row
/// activation to it, BlockHammer also delays blacklisted rows and REGA
/// inflates DRAM timing. A closed value: a clone copies every table, counter
/// and random number generator, and acts exactly as the original from then on.
#[derive(Debug, Clone)]
pub struct Mechanism {
    kind: MechanismKind,
    state: State,
}

/// A mechanism's trigger state: one variant per mechanism file.
#[derive(Debug, Clone)]
enum State {
    None,
    Para(Para),
    Graphene(Graphene),
    Hydra(Hydra),
    Twice(Twice),
    Aqua(Aqua),
    Rega(Rega),
    Rfm(Rfm),
    Prac(Prac),
    BlockHammer(BlockHammer),
}

impl Mechanism {
    /// The mechanism's kind tag.
    pub fn kind(&self) -> MechanismKind {
        self.kind
    }

    /// Observes one row activation and appends the preventive actions to
    /// perform now to the caller-owned `sink` (see [`ActionSink`]). The hot
    /// path: no mechanism allocates in the steady state.
    pub fn on_activation(&mut self, event: &ActivationEvent, sink: &mut ActionSink) {
        match &mut self.state {
            State::None => {}
            State::Para(m) => m.on_activation(event, sink),
            State::Graphene(m) => m.on_activation(event, sink),
            State::Hydra(m) => m.on_activation(event, sink),
            State::Twice(m) => m.on_activation(event, sink),
            State::Aqua(m) => m.on_activation(event, sink),
            State::Rega(m) => m.on_activation(event, sink),
            State::Rfm(m) => m.on_activation(event, sink),
            State::Prac(m) => m.on_activation(event, sink),
            State::BlockHammer(m) => m.on_activation(event, sink),
        }
    }

    /// Processor/memory-controller die storage the mechanism requires, in
    /// bits (the area comparisons of §3 and §8.3).
    pub fn storage_bits(&self) -> u64 {
        match &self.state {
            State::None => 0,
            State::Para(m) => m.storage_bits(),
            State::Graphene(m) => m.storage_bits(),
            State::Hydra(m) => m.storage_bits(),
            State::Twice(m) => m.storage_bits(),
            State::Aqua(m) => m.storage_bits(),
            State::Rega(m) => m.storage_bits(),
            State::Rfm(m) => m.storage_bits(),
            State::Prac(m) => m.storage_bits(),
            State::BlockHammer(m) => m.storage_bits(),
        }
    }

    /// True if [`Mechanism::blocked_until`] can ever return a cycle past its
    /// argument (BlockHammer): schedulers skip the per-request query otherwise.
    #[inline]
    pub fn may_block(&self) -> bool {
        matches!(self.state, State::BlockHammer(_))
    }

    /// Earliest cycle at or after `cycle` at which an activation of `row` may
    /// be scheduled if nothing else is activated first: BlockHammer's
    /// blacklist delay, `cycle` itself for every other mechanism.
    #[inline]
    pub fn blocked_until(&self, row: RowAddr, cycle: Cycle) -> Cycle {
        match &self.state {
            State::BlockHammer(m) => m.blocked_until(row, cycle),
            _ => cycle,
        }
    }

    /// Rows currently blocked (BlockHammer's live blacklist size, else 0);
    /// the watchdog's livelock snapshot reports it.
    pub fn blocked_rows(&self) -> usize {
        match &self.state {
            State::BlockHammer(m) => m.blocked_rows(),
            _ => 0,
        }
    }

    /// Pages of per-row counters allocated so far (PRAC's and BlockHammer's
    /// [`bh_dram::PagedRows`], else 0). A read-only footprint probe.
    pub fn resident_pages(&self) -> usize {
        match &self.state {
            State::Prac(m) => m.resident_pages(),
            State::BlockHammer(m) => m.resident_pages(),
            _ => 0,
        }
    }

    /// DRAM timing adjustment the mechanism requires (REGA; none otherwise).
    pub fn timing_adjustment(&self) -> TimingAdjustment {
        match &self.state {
            State::Rega(m) => m.timing_adjustment(),
            _ => TimingAdjustment::none(),
        }
    }

    /// How BreakHammer attributes scores for this mechanism (§4.1): per
    /// activation quota for REGA, proportionally to activations otherwise.
    pub fn attribution(&self) -> ScoreAttribution {
        match &self.state {
            State::Rega(m) => m.attribution(),
            _ => ScoreAttribution::ProportionalToActivations,
        }
    }
}

/// Identifier of a mitigation mechanism, used by configuration files and the
/// experiment harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MechanismKind {
    /// No RowHammer mitigation (the "no defense" baseline).
    None,
    /// PARA: probabilistic adjacent-row activation [Kim+, ISCA'14].
    Para,
    /// Graphene: Misra–Gries aggressor tracking [Park+, MICRO'20].
    Graphene,
    /// Hydra: hybrid group/per-row tracking with a table in DRAM [Qureshi+, ISCA'22].
    Hydra,
    /// TWiCe: pruned time-window counters [Lee+, ISCA'19].
    Twice,
    /// AQUA: quarantine-based aggressor row migration [Saxena+, MICRO'22].
    Aqua,
    /// REGA: refresh-generating activations via a second row buffer [Marazzi+, S&P'23].
    Rega,
    /// Periodic Refresh Management commands (DDR5 RFM) \[JEDEC\].
    Rfm,
    /// Per Row Activation Counting with back-off (DDR5 PRAC) \[JEDEC\].
    Prac,
    /// BlockHammer: blacklisting-based access throttling [Yağlıkçı+, HPCA'21]
    /// (the paper's throttling-based comparison point, §8.3).
    BlockHammer,
}

/// Victim-row distance every mechanism built by [`MechanismKind::build`]
/// refreshes around an aggressor. A simulated device that disturbs rows
/// farther away than this is not covered (`SystemConfig::validate` in
/// `bh-sim` rejects it).
pub const MITIGATED_BLAST_RADIUS: usize = 1;

/// The reset window of a tracker that forgets its counts once per refresh
/// window (tREFW): Graphene, Hydra, TWiCe, AQUA and BlockHammer.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ResetWindow {
    /// Window length in cycles.
    pub(crate) len: Cycle,
    /// First cycle past the current window.
    pub(crate) end: Cycle,
}

impl ResetWindow {
    /// The window `[0, len)`.
    pub(crate) fn new(len: Cycle) -> Self {
        ResetWindow { len, end: len }
    }

    /// Advances to the window holding `cycle`, skipping whole windows in
    /// which nothing happened. True if the window moved: the caller clears
    /// its per-window state once, however many windows were skipped.
    #[inline]
    pub(crate) fn roll(&mut self, cycle: Cycle) -> bool {
        if cycle < self.end {
            return false;
        }
        self.end += (cycle - self.end) / self.len * self.len + self.len;
        true
    }
}

/// Constructor of one mechanism's state: `(geometry, timing, nrh, seed)`,
/// with `nrh` at least the registry's minimum.
type Constructor = fn(&DramGeometry, &TimingParams, u64, u64) -> State;

/// The mechanism registry, one row per [`MechanismKind`] in declaration
/// order: `(kind, label, extra names `parse` accepts, smallest N_RH
/// [`MechanismKind::build`] accepts, constructor)`. A new mechanism is one
/// file, one row here, one variant per enum and one arm per `match`.
const REGISTRY: &[(MechanismKind, &str, &[&str], u64, Constructor)] = {
    use MechanismKind as K;
    &[
        // Stateless, but the device's disturbance tracker needs N_RH > 0.
        (K::None, "NoDefense", &["none", "no-defense", "baseline"], 1, |_, _, _, _| State::None),
        (K::Para, "PARA", &[], 1, |g, _, nrh, seed| State::Para(Para::new(g.clone(), nrh, seed))),
        (K::Graphene, "Graphene", &[], 4, |g, t, nrh, _| {
            State::Graphene(Graphene::new(g.clone(), t, nrh))
        }),
        (K::Hydra, "Hydra", &[], 8, |g, t, nrh, _| State::Hydra(Hydra::new(g.clone(), t, nrh))),
        (K::Twice, "TWiCe", &[], 4, |g, t, nrh, _| State::Twice(Twice::new(g.clone(), t, nrh))),
        (K::Aqua, "AQUA", &[], 4, |g, t, nrh, _| State::Aqua(Aqua::new(g.clone(), t, nrh))),
        (K::Rega, "REGA", &[], 4, |_, _, nrh, _| State::Rega(Rega::new(nrh))),
        (K::Rfm, "RFM", &[], 8, |g, _, nrh, _| State::Rfm(Rfm::new(g.clone(), nrh))),
        (K::Prac, "PRAC", &[], 4, |g, _, nrh, _| State::Prac(Prac::new(g.clone(), nrh))),
        (K::BlockHammer, "BlockHammer", &[], 4, |g, t, nrh, _| {
            State::BlockHammer(BlockHammer::new(g.clone(), t, nrh))
        }),
    ]
};

impl MechanismKind {
    /// Every mechanism, in declaration order — the one full enumeration;
    /// every other list is a subset that states its reason.
    pub const ALL: [MechanismKind; REGISTRY.len()] = {
        let mut all = [MechanismKind::None; REGISTRY.len()];
        let mut i = 0;
        while i < all.len() {
            all[i] = REGISTRY[i].0;
            i += 1;
        }
        all
    };

    /// The eight mechanisms the paper pairs BreakHammer with (Figs. 6–17).
    pub fn paper_mechanisms() -> [MechanismKind; 8] {
        [
            MechanismKind::Para,
            MechanismKind::Graphene,
            MechanismKind::Hydra,
            MechanismKind::Twice,
            MechanismKind::Aqua,
            MechanismKind::Rega,
            MechanismKind::Rfm,
            MechanismKind::Prac,
        ]
    }

    /// The four mechanisms used in the motivation study (Fig. 2).
    pub fn motivation_mechanisms() -> [MechanismKind; 4] {
        [MechanismKind::Hydra, MechanismKind::Rfm, MechanismKind::Para, MechanismKind::Aqua]
    }

    /// Short display name matching the paper's figures.
    pub fn label(self) -> &'static str {
        REGISTRY[self as usize].1
    }

    /// Parses a mechanism name (case-insensitive): its label, or one of the
    /// registry's extra names.
    pub fn parse(name: &str) -> Option<MechanismKind> {
        let named = |candidate: &&str| candidate.eq_ignore_ascii_case(name);
        REGISTRY
            .iter()
            .find(|(_, label, aliases, ..)| named(label) || aliases.iter().any(named))
            .map(|row| row.0)
    }

    /// The smallest RowHammer threshold the mechanism can be built for
    /// ([`MechanismKind::build`] asserts it; `SystemConfig::validate` in
    /// `bh-sim` reports a smaller one as an error).
    pub const fn min_nrh(self) -> u64 {
        REGISTRY[self as usize].3
    }

    /// Instantiates the mechanism for the given system configuration.
    ///
    /// `nrh` is the RowHammer threshold the mechanism must protect against and
    /// `seed` feeds the probabilistic mechanisms (PARA).
    ///
    /// # Panics
    /// Panics if `nrh` is below [`MechanismKind::min_nrh`].
    pub fn build(
        self,
        geometry: &DramGeometry,
        timing: &TimingParams,
        nrh: u64,
        seed: u64,
    ) -> Mechanism {
        let min = self.min_nrh();
        assert!(nrh >= min, "{self}: N_RH {nrh} is below the registry's minimum {min}");
        Mechanism { kind: self, state: (REGISTRY[self as usize].4)(geometry, timing, nrh, seed) }
    }
}

impl fmt::Display for MechanismKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
/// What the mechanisms' unit tests share.
pub(crate) mod testing {
    use super::TriggerMechanism;
    use crate::action::{ActionSink, ActivationEvent};
    use bh_dram::{BankAddr, RowAddr, ThreadId};

    /// Thread 0 activating `row` of bank 0 at `cycle`.
    pub(crate) fn event(row: usize, cycle: u64) -> ActivationEvent {
        ActivationEvent {
            row: RowAddr { bank: BankAddr { rank: 0, bank_group: 0, bank: 0 }, row },
            thread: ThreadId(0),
            cycle,
        }
    }

    /// The actions `mechanism` queues for `event`.
    pub(crate) fn actions(
        mechanism: &mut impl TriggerMechanism,
        event: &ActivationEvent,
    ) -> ActionSink {
        let mut sink = ActionSink::default();
        mechanism.on_activation(event, &mut sink);
        sink
    }
}

#[cfg(test)]
mod tests {
    use super::testing::event;
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn no_mitigation_never_acts() {
        let mut m =
            MechanismKind::None.build(&DramGeometry::tiny(), &TimingParams::fast_test(), 1, 0);
        let mut sink = ActionSink::default();
        for cycle in 0..10_000 {
            m.on_activation(&event(1, cycle), &mut sink);
        }
        assert!(sink.is_empty());
        assert_eq!(m.storage_bits(), 0);
    }

    /// Every kind, built at its minimum N_RH and at 1024, keeps the contract
    /// the controller relies on: its kind round-trips through its label; only
    /// BlockHammer may block and does block a hammered row, while every other
    /// kind answers `blocked_until(row, c) == c`; only REGA adjusts timing
    /// and attributes scores per activation quota; a fresh instance blocks no
    /// row. And a
    /// clone taken after 2·N_RH activations is a checkpoint: driven with the
    /// same next 2·N_RH events (three rows, spread over two reset windows),
    /// it queues the same actions and blocks the same rows as the original
    /// at every step — PARA's RNG, the Misra–Gries tables and BlockHammer's
    /// blacklist included.
    #[test]
    fn every_kind_honours_the_registry_contract() {
        let geom = DramGeometry::tiny();
        let timing = TimingParams::fast_test();
        for kind in MechanismKind::ALL {
            for nrh in [kind.min_nrh(), 1024] {
                let mut mech = kind.build(&geom, &timing, nrh, 7);
                assert_eq!(mech.kind(), kind);
                assert_eq!(MechanismKind::parse(&mech.kind().to_string()), Some(kind));
                assert_eq!(mech.blocked_rows(), 0, "{kind} @ {nrh}");
                let blockhammer = kind == MechanismKind::BlockHammer;
                assert_eq!(mech.may_block(), blockhammer, "{kind}");
                let rega = kind == MechanismKind::Rega;
                assert_eq!(mech.timing_adjustment().is_none(), !rega, "{kind} @ {nrh}");
                let proportional =
                    mech.attribution() == ScoreAttribution::ProportionalToActivations;
                assert_eq!(proportional, !rega, "{kind} @ {nrh}");

                let mut sink = ActionSink::default();
                let mut blocked = false;
                for cycle in 0..2 * nrh {
                    let ev = event(7, cycle);
                    mech.on_activation(&ev, &mut sink);
                    sink.clear();
                    let until = mech.blocked_until(ev.row, cycle);
                    assert!(until >= cycle, "{kind} @ {nrh}");
                    blocked |= until > cycle;
                }
                assert_eq!(blocked, blockhammer, "{kind} @ {nrh}");
                assert_eq!(mech.blocked_rows() > 0, blockhammer, "{kind} @ {nrh}");

                let mut twin = mech.clone();
                let mut twin_sink = ActionSink::default();
                for i in 0..2 * nrh {
                    let ev = event(6 + (i % 3) as usize, 2 * nrh + i * (timing.t_refw / nrh));
                    mech.on_activation(&ev, &mut sink);
                    twin.on_activation(&ev, &mut twin_sink);
                    assert!(sink.iter().eq(twin_sink.iter()), "{kind} @ {nrh}, event {i}");
                    sink.clear();
                    twin_sink.clear();
                    let until = mech.blocked_until(ev.row, ev.cycle);
                    assert_eq!(until, twin.blocked_until(ev.row, ev.cycle), "{kind} @ {nrh}");
                    assert_eq!(mech.blocked_rows(), twin.blocked_rows(), "{kind} @ {nrh}");
                }
            }
        }
    }

    /// One `roll` across any number of idle windows moves `end` by whole
    /// windows to the first boundary past the cycle, exactly as stepping it
    /// one window at a time would, and reports a single roll.
    #[test]
    fn reset_window_rolls_by_whole_windows_once() {
        for len in [1u64, 7, 64, 1000] {
            let mut window = ResetWindow::new(len);
            assert!(!window.roll(len - 1));
            assert_eq!(window.end, len);
            for cycle in [len, len + 1, 5 * len + 3, 40 * len] {
                let mut expected = window.end;
                while cycle >= expected {
                    expected += len;
                }
                let moves = cycle >= window.end;
                assert_eq!(window.roll(cycle), moves, "len {len}, cycle {cycle}");
                assert_eq!(window.end, expected, "len {len}, cycle {cycle}");
                assert!(!window.roll(cycle), "a second roll in the same window is a no-op");
            }
        }
    }

    #[test]
    fn kind_parsing_roundtrips() {
        for (i, kind) in MechanismKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i, "ALL must list {kind} once, in declaration order");
            assert_eq!(MechanismKind::parse(kind.label()), Some(kind), "{kind}");
            assert_eq!(MechanismKind::parse(&kind.label().to_lowercase()), Some(kind));
        }
        assert_eq!(MechanismKind::parse("not-a-mechanism"), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Mechanism names arrive from the command line and from store
        /// lines: arbitrary text — alone or glued to a real label — parses to
        /// a kind or to `None` without panicking, whatever its ASCII case.
        #[test]
        fn parse_never_panics_on_arbitrary_text(
            code_points in proptest::collection::vec(any::<u32>(), 0..24),
            pick in 0usize..MechanismKind::ALL.len(),
        ) {
            let text: String =
                code_points.iter().filter_map(|&c| char::from_u32(c % 0x11_0000)).collect();
            let label = MechanismKind::ALL[pick].label();
            for name in [text.clone(), format!("{label}{text}"), format!("{text}{label}")] {
                let parsed = MechanismKind::parse(&name);
                prop_assert_eq!(parsed, MechanismKind::parse(&name.to_ascii_uppercase()));
            }
        }
    }

    #[test]
    fn paper_mechanism_list_matches_evaluation_section() {
        let m = MechanismKind::paper_mechanisms();
        assert_eq!(m.len(), 8);
        assert!(!m.contains(&MechanismKind::BlockHammer));
        assert!(!m.contains(&MechanismKind::None));
        // Exactly `ALL` minus the two comparison points, in `ALL`'s order.
        let expected: Vec<_> = MechanismKind::ALL
            .into_iter()
            .filter(|k| !matches!(k, MechanismKind::None | MechanismKind::BlockHammer))
            .collect();
        assert_eq!(m.as_slice(), expected);
        assert_eq!(MechanismKind::motivation_mechanisms().len(), 4);
    }

    #[test]
    fn factory_builds_every_mechanism() {
        let geom = DramGeometry::tiny();
        let timing = TimingParams::fast_test();
        for kind in MechanismKind::ALL {
            for nrh in [kind.min_nrh(), 1024] {
                assert_eq!(kind.build(&geom, &timing, nrh, 7).kind(), kind);
            }
            // `build` refuses one below the registry's minimum, for every kind.
            let below = kind.min_nrh() - 1;
            let built = std::panic::catch_unwind(|| kind.build(&geom, &timing, below, 7));
            assert!(built.is_err(), "{kind} accepted N_RH = {below}");
        }
    }
}
