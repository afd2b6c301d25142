//! # bh-mitigation — RowHammer mitigation mechanisms
//!
//! From-scratch implementations of the eight state-of-the-art RowHammer
//! mitigation mechanisms the BreakHammer paper pairs its throttling support
//! with, plus the BlockHammer comparison point and a no-defense baseline:
//!
//! | Mechanism | Preventive action | Kind |
//! |---|---|---|
//! | PARA | probabilistic victim refresh | [`MechanismKind::Para`] |
//! | Graphene | Misra–Gries tracking + victim refresh | [`MechanismKind::Graphene`] |
//! | Hydra | hybrid group/per-row tracking (table in DRAM) + victim refresh | [`MechanismKind::Hydra`] |
//! | TWiCe | pruned time-window counters + victim refresh | [`MechanismKind::Twice`] |
//! | AQUA | aggressor row migration to a quarantine area | [`MechanismKind::Aqua`] |
//! | REGA | in-DRAM refresh-generating activations (timing inflation) | [`MechanismKind::Rega`] |
//! | RFM | periodic refresh-management commands | [`MechanismKind::Rfm`] |
//! | PRAC | per-row activation counting + back-off RFMs | [`MechanismKind::Prac`] |
//! | BlockHammer | row blacklisting + access delay (comparison point) | [`MechanismKind::BlockHammer`] |
//!
//! [`MechanismKind::build`] instantiates each as one closed, cloneable
//! [`Mechanism`] value. The memory controller reports each row activation
//! (annotated with the hardware thread that caused it) to
//! [`Mechanism::on_activation`], which pushes the preventive actions to perform
//! into a caller-owned, reusable [`ActionSink`] — the activation path is the
//! simulator's hot loop, so it is allocation-free in the steady state.
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

mod action;
mod aqua;
mod blockhammer;
#[cfg(test)]
mod exact_counter;
mod graphene;
mod hydra;
mod mechanism;
mod misra_gries;
mod para;
mod prac;
mod rega;
mod rfm;
mod twice;

pub use action::{ActionSink, ActionView, ActivationEvent, ScoreAttribution};
pub use mechanism::{Mechanism, MechanismKind, MITIGATED_BLAST_RADIUS};
pub use misra_gries::MisraGries;
