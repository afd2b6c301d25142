//! # bh-stats — metric primitives for the BreakHammer reproduction
//!
//! Small, dependency-light implementations of the metrics the paper reports:
//!
//! * **Weighted speedup** (system performance, Figs. 2, 6, 8, 13, 15, 18, 19),
//! * **Maximum slowdown** (unfairness, Figs. 7, 9, 14, 16),
//! * **Percentiles** (memory-latency distributions, Figs. 11 and 17),
//! * **Geometric means and box plots** used for the aggregate columns and
//!   sensitivity plots,
//! * plain-text / CSV table rendering for the experiment binaries.
//!
//! ## Example
//!
//! ```
//! use bh_stats::{weighted_speedup, max_slowdown, AppPerf};
//!
//! let mix = [
//!     AppPerf::new(1.2, 0.9),
//!     AppPerf::new(0.8, 0.7),
//!     AppPerf::new(2.0, 1.4),
//!     AppPerf::new(1.0, 0.6),
//! ];
//! let ws = weighted_speedup(&mix);
//! let unfairness = max_slowdown(&mix);
//! assert!(ws > 0.0 && ws <= 4.0);
//! assert!(unfairness >= 1.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod metrics;
mod summary;
mod table;

pub use metrics::{geometric_mean, max_slowdown, weighted_speedup, AppPerf};
pub use summary::{percentile, BoxPlot};
pub use table::{fmt3, fmt_pct, Table};
