//! Independent reference models for the simulator's mechanisms.
//!
//! A reference checks an implementation only if it does not share the
//! implementation's code: a helper both use would carry one bug into both,
//! and the comparison would pass. So this package has no dependencies at
//! all, not even on `bh-dram`'s row and geometry types, and the build checks
//! it: `tests/oracle_independence.rs` at the workspace root fails if its
//! manifest gains a dependency table, or if a crate under `crates/` names
//! it. Nothing the simulator or the benchmark links depends on this package.
//!
//! The adapters that translate production events into these types, and the
//! lockstep drivers, live in the root package's `tests/`:
//!
//! - [`BreakHammerModel`], BreakHammer from Alg. 1, Expression 1 and Fig. 4
//!   with exact [`Ratio`] scores, against `bh_core::BreakHammer`
//!   (`tests/oracle_breakhammer.rs`);
//! - [`ExactCounter`], an exact per-row activation counter with its own
//!   [`neighbours`], against Graphene and TWiCe
//!   (`tests/oracle_exact_counter.rs`).
//!
//! A reference that checks an optimisation against the slow form of the same
//! semantics needs private access and stays in its crate (`EagerTwice`, the
//! reference `Core` front-end, `run_per_cycle`, `select_linear`).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod breakhammer;
mod exact_counter;
mod ratio;

pub use breakhammer::{Attribution, BreakHammerModel, Counters, Identification, Params};
pub use exact_counter::{neighbours, ExactCounter, Row};
pub use ratio::Ratio;
