//! # bh-core — BreakHammer: throttling suspect threads
//!
//! This crate implements the paper's primary contribution: **BreakHammer**, a
//! memory-controller-side mechanism that reduces the performance and energy
//! overheads of existing RowHammer mitigation mechanisms by tracking which
//! hardware threads trigger RowHammer-preventive actions and throttling the
//! memory bandwidth usage of the threads that trigger too many of them.
//!
//! The crate provides:
//!
//! * [`BreakHammer`] — the throttling controller: per-thread
//!   RowHammer-preventive scores, two-set time-interleaved counters (Fig. 4),
//!   proportional score attribution (§4.1), thresholded-deviation-from-the-mean
//!   suspect identification (Alg. 1), and MSHR-quota throttling (Expression 1);
//! * [`BreakHammerConfig`] — the Table 2 configuration;
//! * [`security`] — the analytical worst-case-attacker model (Expression 2 /
//!   Fig. 5);
//! * [`hw_cost`] — the §6 area/latency model.
//!
//! ## Example
//!
//! ```
//! use bh_core::{BreakHammer, BreakHammerConfig};
//! use bh_dram::{ThreadId, TimingParams};
//! use bh_mitigation::ScoreAttribution;
//!
//! let timing = TimingParams::ddr5_4800();
//! let config = BreakHammerConfig::paper_table2(&timing, 4, 64);
//! let mut bh = BreakHammer::new(config, ScoreAttribution::ProportionalToActivations);
//!
//! // An attacker (thread 0) causes almost every activation that leads to a
//! // preventive action; BreakHammer identifies it and shrinks its MSHR quota.
//! for round in 0..40u64 {
//!     for _ in 0..100 {
//!         bh.on_activation(ThreadId(0), round);
//!     }
//!     bh.on_activation(ThreadId(1), round);
//!     bh.on_preventive_action(round);
//! }
//! assert!(bh.is_suspect(ThreadId(0)));
//! assert!(bh.quota(ThreadId(0)) < bh.quota(ThreadId(1)));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod breakhammer;
mod config;
pub mod hw_cost;
pub mod knobs;
mod scores;
pub mod security;

pub use breakhammer::{BreakHammer, BreakHammerStats};
pub use config::BreakHammerConfig;
pub use hw_cost::HardwareCost;
pub use security::{figure5_series, max_attacker_score_ratio, SecurityPoint};
