//! # bh-workloads — synthetic workloads and attackers
//!
//! The paper evaluates BreakHammer with memory traces from SPEC CPU2006/2017,
//! TPC, MediaBench and YCSB plus a malicious memory-performance attacker.
//! Those traces are not redistributable, so this crate provides synthetic
//! generators that reproduce the properties the evaluation actually depends
//! on:
//!
//! * [`BenignProfile`] / [`TraceGenerator`] — benign applications grouped into
//!   the paper's High / Medium / Low memory-intensity classes, with organic
//!   hot rows matching Table 3;
//! * the composable attacker framework — an [`AccessPattern`] (the
//!   hammerer: [`ClassicPattern`], Blacksmith-style [`FuzzedPattern`],
//!   RowPress-style [`RowPressPattern`], benign-mimicry [`DecoyPattern`])
//!   × an [`AggressorPlacement`] (the allocator: [`NeighborPlacement`],
//!   [`SpreadPlacement`]) × a [`VictimLayout`] (the data at risk:
//!   [`SandwichedVictims`], [`KeyTableVictims`]), glued by
//!   [`ComposedAttacker`] and named by the [`scenario_catalog()`];
//! * [`AttackerProfile`] — the legacy `clflush`-style hammering loops
//!   (double-sided, many-sided, multi-bank), kept as a bit-identical compat
//!   facade that lowers onto the framework;
//! * [`MixClass`] / [`MixBuilder`] — the four-core workload mixes of §7 and
//!   §8.1 (HHHH…LLLL and HHHA…LLLA);
//! * [`characterize()`] — the Table 3 characterisation (RBMPKI and rows with
//!   64+/128+/512+ activations per window).
//!
//! ## Example
//!
//! ```
//! use bh_workloads::{MixBuilder, MixClass, TraceGenerator};
//!
//! let builder = MixBuilder::new(TraceGenerator::paper_default());
//! let class = MixClass::attack_classes()[0]; // "HHHA"
//! let mix = builder.build(class, 0, 42);
//! assert_eq!(mix.cores(), 4);
//! assert_eq!(mix.attacker_thread, Some(3));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod attacker;
mod characterize;
mod compose;
mod generator;
mod mix;
mod pattern;
mod placement;
mod profile;
mod scenario;
mod victim;

pub use attacker::{AttackerKind, AttackerProfile, ChannelTarget};
pub use characterize::{characterize, WorkloadCharacteristics};
pub use compose::ComposedAttacker;
pub use generator::TraceGenerator;
pub use mix::{MixBuilder, MixClass, SlotClass, WorkloadMix};
pub use pattern::{AccessPattern, ClassicPattern, DecoyPattern, FuzzedPattern, RowPressPattern};
pub use placement::{
    AggressorGrid, AggressorPlacement, NeighborPlacement, PlacementRequest, SpreadPlacement,
};
pub use profile::{BenignProfile, IntensityClass, UnknownProfileError};
pub use scenario::{scenario_by_name, scenario_catalog, AttackScenario, UnknownScenarioError};
pub use victim::{KeyTableVictims, SandwichedVictims, VictimLayout, VictimRow};
