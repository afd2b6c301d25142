//! # bh-cpu — trace-driven cores and the shared last-level cache
//!
//! The processor side of the BreakHammer reproduction:
//!
//! * [`Trace`] / [`TraceEntry`] — the instruction-trace format (bursts of
//!   non-memory instructions followed by one memory access), replayed
//!   cyclically; [`CompiledTrace`] is its bit-packed (fields as wide as
//!   each trace needs: 4.0–4.75 bytes a record for a Table-1 benign trace),
//!   `Arc`-shared replay form (compile once per (mix, seed, geometry), share
//!   across every run);
//! * [`CoreEngine`] — the trace-driven cores: 4-wide, 128-entry-window cores
//!   (Table 1) whose in-order retirement makes DRAM latency visible as lost
//!   IPC, with all cores' hot replay state in flat structure-of-arrays
//!   vectors stepped in one pass per event epoch (differentially tested
//!   against a test-only per-object reference model);
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
//! use bh_cpu::{CacheConfig, CoreConfig, CoreEngine, LastLevelCache, Trace, TraceEntry};
//! use bh_dram::PhysAddr;
//!
//! // One core (thread 0) replaying one compiled trace.
//! let trace = Trace::new(vec![TraceEntry::load(7, PhysAddr(0x1000))]).compile();
//! let mut cores = CoreEngine::new(CoreConfig::paper_table1(), vec![trace], 1_000);
//! let mut llc = LastLevelCache::new(CacheConfig::paper_table1(), 1);
//!
//! let mut cycle = 0;
//! while !cores.finished(0) && cycle < 100_000 {
//!     cores.tick_epoch(cycle..cycle + 1, &mut llc);
//!     // Instantly satisfy every LLC miss (a perfect memory system).
//!     for request in llc.take_outgoing() {
//!         if let Some(token) = request.token {
//!             llc.complete_miss(token);
//!         }
//!     }
//!     cycle += 1;
//! }
//! cores.settle();
//! assert!(cores.finished(0));
//! assert!(cores.stats(0).ipc() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cache;
mod core;
mod engine;
mod trace;

pub use cache::{
    AccessOutcome, CacheConfig, CacheStats, LastLevelCache, MissToken, OutgoingRequest,
    RejectReason, LLC_MAX_THREADS,
};
pub use core::{CoreConfig, CoreProgress, CoreStats, StallInfo};
pub use engine::CoreEngine;
pub use trace::{CompiledTrace, Trace, TraceEntry};
