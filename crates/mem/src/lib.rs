//! # bh-mem — the memory controller
//!
//! The memory request scheduler of the BreakHammer reproduction, matching the
//! paper's Table 1 configuration:
//!
//! * 64-entry read and write request queues,
//! * FR-FCFS scheduling with a Cap of 4 on column-over-row reordering,
//! * MOP address mapping, decoded through a shift/mask [`MopLayout`] built
//!   once per geometry,
//! * watermark-driven write draining,
//! * periodic all-bank refresh (tREFI / tRFC),
//! * execution of RowHammer-preventive actions requested by the attached
//!   mitigation mechanism (victim refreshes, AQUA row migrations, RFM
//!   commands, Hydra table traffic) as real DRAM command sequences, and
//! * BreakHammer hooks: every demand activation is attributed to its hardware
//!   thread and every preventive action is reported for score attribution.
//!
//! ## Example
//!
//! ```
//! use bh_dram::{AccessKind, DramChannel, DramGeometry, PhysAddr, ThreadId, TimingParams};
//! use bh_mem::{MemControllerConfig, MemRequest, MemoryController};
//! use bh_mitigation::{Mechanism, MechanismKind};
//!
//! let geometry = DramGeometry::paper_ddr5();
//! let timing = TimingParams::ddr5_4800();
//! let mechanism: Mechanism = MechanismKind::Graphene.build(&geometry, &timing, 1024, 0);
//! let channel = DramChannel::with_rowhammer(geometry, timing, 1024);
//! let mut controller =
//!     MemoryController::new(MemControllerConfig::paper_table1(4), channel, mechanism);
//!
//! controller.try_enqueue(MemRequest::read(0, ThreadId(0), PhysAddr(0x4000), 0)).unwrap();
//! let mut responses = Vec::new();
//! for cycle in 0..10_000u64 {
//!     controller.tick(cycle, None);
//!     responses.extend(controller.drain_responses());
//! }
//! assert_eq!(responses.len(), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod controller;
mod demand_queue;
mod latency;
mod mapping;
mod request;
mod system;

pub use config::MemControllerConfig;
pub use controller::{ControllerStats, MemoryController};
pub use latency::LatencyHistogram;
pub use mapping::{AddressMapping, ChannelInterleave, MappingScheme, MopLayout};
pub use request::{MemRequest, MemResponse};
pub use system::{MemorySystem, SteppingStats};
