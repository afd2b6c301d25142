//! # bh-dram — cycle-level DRAM device model
//!
//! This crate is the lowest layer of the BreakHammer (MICRO 2024)
//! reproduction: a from-scratch, cycle-level model of the DRAM devices behind
//! one memory channel. It provides
//!
//! * the DRAM organization ([`DramGeometry`], [`BankAddr`], [`RowAddr`]),
//! * the command set ([`DramCommand`], [`CommandKind`]),
//! * JEDEC-style timing constraints with DDR4-3200 and DDR5-4800 presets
//!   ([`TimingParams`]),
//! * the per-bank / per-bank-group / per-rank state machine and timing engine
//!   ([`DramChannel`]),
//! * an event-based DRAM energy model ([`EnergyParams`], [`EnergyCounters`]),
//! * and a RowHammer victim-disturbance tracker ([`RowHammerTracker`]) used to
//!   verify that mitigation mechanisms — with or without BreakHammer attached —
//!   never allow a row to accumulate `N_RH` activations without a refresh.
//!
//! The memory controller in `bh-mem` drives this model; the full-system
//! simulator lives in `bh-sim`.
//!
//! ## Example
//!
//! ```
//! use bh_dram::{BankAddr, DramChannel, DramCommand, DramGeometry, DramLocation, TimingParams};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut channel = DramChannel::new(DramGeometry::paper_ddr5(), TimingParams::ddr5_4800());
//! let bank = BankAddr { rank: 0, bank_group: 0, bank: 0 };
//!
//! // Open a row, read a column, close the row — respecting tRCD/tRAS/tRP.
//! let act = DramCommand::activate(bank, 42);
//! channel.issue(&act, 0)?;
//! let loc = DramLocation { channel: 0, bank, row: 42, column: 3 };
//! let rd = DramCommand::read(loc);
//! let when = channel.earliest_issue(&rd);
//! let outcome = channel.issue(&rd, when)?;
//! assert!(outcome.data_ready_at.is_some());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bank;
mod command;
mod device;
mod energy;
mod error;
mod fault;
mod flat;
mod geometry;
mod paged;
mod rowhammer;
mod timing;
mod types;

pub use bank::{BankGroupState, BankState, RankState, RowState};
pub use command::{CommandKind, DramCommand};
pub use device::{CommandOutcome, DeviceConfig, DramChannel, DramStats};
pub use energy::{EnergyCounters, EnergyParams};
pub use error::DramError;
pub use fault::{
    classify_flips, EccClassification, EccMode, FaultConfig, FaultModel, SuccessCriterion,
};
pub use flat::FlatMap;
pub use geometry::{BankAddr, DramGeometry, DramLocation, NeighborRows, RowAddr};
pub use paged::PagedRows;
pub use rowhammer::{BitflipEvent, RowHammerTracker};
pub use timing::{TimingAdjustment, TimingParams};
pub use types::{AccessKind, Cycle, CycleDelta, PhysAddr, ThreadId};
