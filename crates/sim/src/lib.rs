//! # bh-sim — the full-system simulator
//!
//! Ties every substrate of the BreakHammer reproduction together into the
//! simulated system of Table 1: trace-driven 4.2 GHz cores (`bh-cpu`), the
//! shared LLC with per-thread MSHR quotas, the FR-FCFS+Cap memory controller
//! (`bh-mem`), the DDR5 channel with RowHammer victim tracking (`bh-dram`),
//! one of the eight mitigation mechanisms (`bh-mitigation`) and, optionally,
//! BreakHammer itself (`bh-core`).
//!
//! * [`SystemConfig`] — the composite configuration (Table 1 / Table 2);
//! * [`System`] — the wired system; [`System::run`] produces a
//!   [`SimulationResult`];
//! * [`Evaluator`] — runs workload mixes and computes the paper's metrics
//!   (weighted speedup of benign applications, maximum slowdown, DRAM energy,
//!   preventive-action counts).
//!
//! ## Example
//!
//! ```no_run
//! use bh_mitigation::MechanismKind;
//! use bh_sim::{Evaluator, SystemConfig};
//! use bh_workloads::{MixBuilder, MixClass, TraceGenerator};
//!
//! // Graphene + BreakHammer at N_RH = 1K on the paper's quad-core system.
//! let mut config = SystemConfig::paper_table1(MechanismKind::Graphene, 1024, true);
//! config.instructions_per_core = 100_000;
//!
//! let builder = MixBuilder::new(TraceGenerator::paper_default());
//! let mix = builder.build(MixClass::attack_classes()[0], 0, 42);
//!
//! let mut evaluator = Evaluator::new(config);
//! let evaluation = evaluator.evaluate(&mix);
//! println!("weighted speedup of benign apps: {:.3}", evaluation.weighted_speedup);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
#[cfg(test)]
mod differential;
mod result;
mod runner;
mod system;
mod watchdog;

pub use config::{
    ChannelStepping, ChaosConfig, FrontEndKind, SchedulerKind, SystemConfig, WatchdogConfig,
};
pub use result::{
    AttackOutcome, ChannelBreakdown, ChannelLaneState, CoreLaneState, CorePerformance,
    LivelockReport, SimulationResult, TerminationReason, VictimReport,
};
pub use runner::{evaluate_under_configs, Evaluator, MixEvaluation};
pub use system::System;
