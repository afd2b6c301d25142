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
//! * [`ComposedAttacker`] — one attacker: a closed set of patterns (the
//!   classic loop, Blacksmith-style fuzzing, RowPress-style dwell,
//!   benign-mimicry decoys) × a closed set of placements (neighbor, spread),
//!   walked by one generator at one `bubbles` intensity; its victims are the
//!   rows its aggressors sandwich. The [`scenario_catalog()`] names the
//!   non-classic combinations;
//! * [`AttackerProfile`] — the classic `clflush`-style hammering loops
//!   (double-sided, many-sided, multi-bank), which lower onto a
//!   [`ComposedAttacker`] bit-identically to the pre-framework generator;
//! * [`MixClass`] / [`MixBuilder`] — the four-core workload mixes of §7 and
//!   §8.1 (HHHH…LLLL and HHHA…LLLA); a [`SuitePlan`] draws a suite's
//!   applications first and leaves its distinct traces as independent
//!   generation jobs;
//! * [`characterize()`] — the Table 3 characterisation (RBMPKI and rows with
//!   64+/128+/512+ activations per window).
//!
//! Generation is division-free on the paths every record takes: the
//! generators encode addresses through a [`bh_mem::MopLayout`] built once
//! per trace, wrap rows and columns with masks and split placement indices
//! with shifts (every per-channel geometry dimension is a power of two), and
//! the vendored `rand` reduces each integer draw in 64 bits. Only a channel
//! count that is not a power of two still divides. Test-only references keep
//! the division-based benign generator and attacker loop and pin every
//! trace to their bytes.
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
/// The compiled trace a [`WorkloadMix`] core replays and
/// [`SuitePlan::generate`] returns.
pub use bh_cpu::CompiledTrace;
pub use characterize::{characterize, WorkloadCharacteristics};
pub use compose::ComposedAttacker;
pub use generator::TraceGenerator;
pub use mix::{MixBuilder, MixClass, SlotClass, SuitePlan, WorkloadMix};
pub use profile::{BenignProfile, IntensityClass, UnknownProfileError};
pub use scenario::{scenario_by_name, scenario_catalog, AttackScenario, UnknownScenarioError};
pub use victim::VictimRow;
