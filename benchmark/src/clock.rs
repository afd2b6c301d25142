//! The benchmark's only wall-clock reads.
//!
//! `bh_analyze` rule D2 bans ambient wall-clock sources outside `crates/bench`
//! (it walks the whole tree, this package included), and `clippy.toml` bans
//! `Instant::now` for the same reason. A host-time benchmark has to read the
//! clock, so every read is funnelled through this one module and each line
//! naming the clock type carries its line-level escape; nothing else in the
//! package may mention it.

use std::time::Instant; // bh-analyze: allow(D2) -- benchmark harness timing

/// A point in host time.
#[derive(Debug, Clone, Copy)]
// bh-analyze: allow(D2) -- benchmark harness timing
pub struct Stamp(Instant);

/// Reads the monotonic host clock.
#[allow(clippy::disallowed_methods)] // the one sanctioned clock read, see the module docs
pub fn now() -> Stamp {
    Stamp(Instant::now()) // bh-analyze: allow(D2) -- benchmark harness timing
}

impl Stamp {
    /// Nanoseconds from `earlier` to `self` (0 if `earlier` is later).
    pub fn ns_since(self, earlier: Stamp) -> u64 {
        self.0.saturating_duration_since(earlier.0).as_nanos() as u64
    }

    /// Nanoseconds elapsed since this stamp was taken.
    pub fn elapsed_ns(self) -> u64 {
        now().ns_since(self)
    }

    /// Seconds elapsed since this stamp was taken.
    pub fn elapsed_s(self) -> f64 {
        self.elapsed_ns() as f64 / 1e9
    }
}

/// Runs `f` and returns its result with the host nanoseconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = now();
    let out = f();
    (out, start.elapsed_ns())
}

/// How long a measuring loop runs.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Laps stop once this many seconds have been measured.
    pub seconds: f64,
    /// At least this many laps run whatever the clock says.
    pub min_laps: usize,
}

/// Paces a measuring loop (passes, sweeps, harness rounds): it runs at least
/// `min_laps` laps and then stops rather than start a lap that, going by the
/// longest so far, would overrun the budget.
#[derive(Debug)]
pub struct Pacer {
    budget: Budget,
    started: Stamp,
    laps: usize,
    longest_lap_s: f64,
}

impl Pacer {
    /// Paces against `budget`, counted from `started`.
    pub fn new(budget: Budget, started: Stamp) -> Self {
        Pacer { budget, started, laps: 0, longest_lap_s: 0.0 }
    }

    /// Records a lap that began at `lap_started`; true if another should run.
    pub fn another_after(&mut self, lap_started: Stamp) -> bool {
        self.laps += 1;
        self.longest_lap_s = self.longest_lap_s.max(lap_started.elapsed_s());
        self.laps < self.budget.min_laps
            || self.started.elapsed_s() + self.longest_lap_s <= self.budget.seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pacer_runs_the_minimum_laps_then_stops_before_overrunning() {
        let mut pacer = Pacer::new(Budget { seconds: 0.0, min_laps: 3 }, now());
        assert!(pacer.another_after(now()));
        assert!(pacer.another_after(now()));
        assert!(!pacer.another_after(now()));

        let mut roomy = Pacer::new(Budget { seconds: 3600.0, min_laps: 1 }, now());
        assert!(roomy.another_after(now()));
    }
}
