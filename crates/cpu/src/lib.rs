//! # bh-cpu — trace-driven cores and the shared last-level cache
//!
//! The processor side of the BreakHammer reproduction:
//!
//! * [`Trace`] / [`TraceEntry`] — the instruction-trace format (bursts of
//!   non-memory instructions followed by one memory access), replayed
//!   cyclically; [`CompiledTrace`] is its frozen, `Arc`-shared replay form
//!   (compile once per (mix, seed, geometry), share across every run);
//! * [`CoreEngine`] — the data-oriented front-end: all cores' hot replay
//!   state in flat structure-of-arrays vectors, stepped in one pass per
//!   event epoch;
//! * [`Core`] — the per-object reference model of one 4-wide,
//!   128-entry-window trace-driven core (Table 1) whose in-order retirement
//!   makes DRAM latency visible as lost IPC; `CoreEngine` is differentially
//!   tested against it;
//! * [`LastLevelCache`] — the shared 8 MiB LLC with MSHRs (cache-miss
//!   buffers) and **per-thread MSHR quotas**, the actuator BreakHammer uses to
//!   throttle suspect threads.
//!
//! The system simulator in `bh-sim` connects the LLC's outgoing fills and
//! writebacks to the memory controller in `bh-mem`.
//!
//! ## Example
//!
//! ```
//! use bh_cpu::{CacheConfig, Core, CoreConfig, LastLevelCache, Trace, TraceEntry};
//! use bh_dram::{PhysAddr, ThreadId};
//!
//! let trace = Trace::new(vec![TraceEntry::load(7, PhysAddr(0x1000))]);
//! let mut core = Core::new(ThreadId(0), CoreConfig::paper_table1(), trace, 1_000);
//! let mut llc = LastLevelCache::new(CacheConfig::paper_table1(), 4);
//!
//! let mut cycle = 0;
//! while !core.finished() && cycle < 100_000 {
//!     core.tick(cycle, &mut llc);
//!     // Instantly satisfy every LLC miss (a perfect memory system).
//!     for request in llc.take_outgoing() {
//!         if let Some(token) = request.token {
//!             llc.complete_miss(token);
//!         }
//!     }
//!     cycle += 1;
//! }
//! assert!(core.finished());
//! assert!(core.ipc() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cache;
mod core;
mod engine;
mod trace;

pub use cache::{
    AccessOutcome, CacheConfig, CacheStats, LastLevelCache, MissToken, OutgoingRequest,
    RejectReason,
};
pub use core::{
    settle_legacy, tick_epoch_legacy, Core, CoreConfig, CoreProgress, CoreStats, StallInfo,
};
pub use engine::CoreEngine;
pub use trace::{CompiledTrace, Trace, TraceEntry};
