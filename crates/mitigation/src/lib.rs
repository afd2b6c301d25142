//! # bh-mitigation — RowHammer mitigation mechanisms
//!
//! From-scratch implementations of the eight state-of-the-art RowHammer
//! mitigation mechanisms the BreakHammer paper pairs its throttling support
//! with, plus the BlockHammer comparison point and a no-defense baseline:
//!
//! | Mechanism | Preventive action | Module |
//! |---|---|---|
//! | PARA | probabilistic victim refresh | [`para`] |
//! | Graphene | Misra–Gries tracking + victim refresh | [`graphene`] |
//! | Hydra | hybrid group/per-row tracking (table in DRAM) + victim refresh | [`hydra`] |
//! | TWiCe | pruned time-window counters + victim refresh | [`twice`] |
//! | AQUA | aggressor row migration to a quarantine area | [`aqua`] |
//! | REGA | in-DRAM refresh-generating activations (timing inflation) | [`rega`] |
//! | RFM | periodic refresh-management commands | [`rfm`] |
//! | PRAC | per-row activation counting + back-off RFMs | [`prac`] |
//! | BlockHammer | row blacklisting + access delay (comparison point) | [`blockhammer`] |
//!
//! Every mechanism implements the [`TriggerMechanism`] trait: the memory
//! controller reports each row activation (annotated with the hardware thread
//! that caused it), and the mechanism pushes the preventive actions to
//! perform into a caller-owned, reusable [`ActionSink`] — the activation path
//! is the simulator's hot loop, so it is allocation-free in the steady state.
//! BreakHammer (in `bh-core`) observes those actions and attributes
//! per-thread scores according to the mechanism's [`ScoreAttribution`].
//!
//! ## Example
//!
//! ```
//! use bh_mitigation::{ActionSink, ActionView, ActivationEvent, MechanismKind};
//! use bh_dram::{BankAddr, DramGeometry, RowAddr, ThreadId, TimingParams};
//!
//! let geometry = DramGeometry::paper_ddr5();
//! let timing = TimingParams::ddr5_4800();
//! let mut graphene = MechanismKind::Graphene.build(&geometry, &timing, 1024, 0);
//!
//! let row = RowAddr { bank: BankAddr { rank: 0, bank_group: 0, bank: 0 }, row: 42 };
//! let mut sink = ActionSink::default();
//! let mut preventive_refreshes = 0;
//! for cycle in 0..10_000u64 {
//!     let event = ActivationEvent { row, thread: ThreadId(0), cycle };
//!     sink.clear();
//!     graphene.on_activation(&event, &mut sink);
//!     for action in sink.iter() {
//!         if let ActionView::RefreshRows(victims) = action {
//!             preventive_refreshes += victims.len();
//!         }
//!     }
//! }
//! assert!(preventive_refreshes > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod action;
pub mod aqua;
pub mod blockhammer;
pub mod graphene;
pub mod hydra;
pub mod mechanism;
pub mod misra_gries;
pub mod para;
pub mod prac;
pub mod rega;
pub mod rfm;
pub mod twice;

pub use action::{ActionSink, ActionView, ActivationEvent, PreventiveAction, ScoreAttribution};
pub use aqua::Aqua;
pub use blockhammer::BlockHammer;
pub use graphene::Graphene;
pub use hydra::Hydra;
pub use mechanism::{MechanismKind, NoMitigation, TriggerMechanism, MITIGATED_BLAST_RADIUS};
pub use misra_gries::MisraGries;
pub use para::Para;
pub use prac::Prac;
pub use rega::Rega;
pub use rfm::Rfm;
pub use twice::Twice;
