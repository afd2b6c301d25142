//! Claw-back guard for the `MemorySystem` layer (PR-4 regression pin).
//!
//! Introducing the multi-channel [`MemorySystem`] facade put channel routing
//! (address-mapping channel bits, per-channel collections, response merging)
//! between the simulation loop and the sole controller of a single-channel
//! system, and end-to-end simulator throughput regressed measurably. The
//! facade now has a dedicated single-channel fast path that forwards every
//! hot entry point straight to `controllers[0]`; this suite pins it two
//! ways:
//!
//! 1. **behavioural equality** — driving the same request stream through a
//!    1-channel `MemorySystem` and through a bare [`MemoryController`]
//!    produces identical responses and statistics, cycle for cycle;
//! 2. **no measurable per-request work** — an interleaved A/B timing run of
//!    the same dispatch loop must not show the facade meaningfully slower
//!    than the bare controller. The bound is deliberately generous (see
//!    `MAX_OVERHEAD_RATIO`): the guard exists to catch a reintroduced
//!    per-request routing tax (historically ~15-20% end-to-end), not to
//!    flake on scheduler noise — min-of-N interleaved rounds already sheds
//!    most of that.
//!
//! The absolute number is the benchmark's `mem.ns_per_request` metric
//! (`benchmark/`, `--trace 1`).

// Wall-clock reads are the point of this regression pin: it times the
// facade dispatch overhead.
#![allow(clippy::disallowed_methods)]

use bh_dram::{DramChannel, DramGeometry, ThreadId, TimingParams};
use bh_mem::{AddressMapping, MemControllerConfig, MemRequest, MemoryController, MemorySystem};
use bh_mitigation::MechanismKind;
use std::time::Instant;

/// A 1-channel `MemorySystem` may be at most this factor slower than the
/// bare controller on the dispatch loop. The fast path's true ratio is ~1.0;
/// 1.5 leaves room for timer noise and cold caches on loaded CI machines
/// while still failing long before a reintroduced routing layer (which costs
/// a decode + indirection on *every* request and tick) could hide in it.
const MAX_OVERHEAD_RATIO: f64 = 1.5;

fn config() -> MemControllerConfig {
    let mut c = MemControllerConfig::paper_table1(4);
    c.read_queue_capacity = 32;
    c.write_queue_capacity = 32;
    c.write_drain_high = 24;
    c.write_drain_low = 8;
    c.mapping = AddressMapping::paper_default();
    c
}

fn controller() -> MemoryController {
    let geometry = DramGeometry::tiny();
    let timing = TimingParams::fast_test();
    let mechanism = MechanismKind::Graphene.build(&geometry, &timing, 256, 7);
    let channel = DramChannel::with_rowhammer(geometry, timing, 256);
    MemoryController::new(config(), channel, mechanism)
}

fn system() -> MemorySystem {
    let geometry = DramGeometry::tiny();
    let timing = TimingParams::fast_test();
    let mechanism = MechanismKind::Graphene.build(&geometry, &timing, 256, 7);
    let channel = DramChannel::with_rowhammer(geometry, timing, 256);
    MemorySystem::new(config(), vec![(channel, mechanism)], None)
}

/// The deterministic dispatch workload both sides run: a spread of reads
/// over rows/banks (via the address pattern) with periodic ticks, returning
/// the served responses in order.
fn drive_controller(ctrl: &mut MemoryController, ops: u64) -> (Vec<u64>, u64) {
    let mut responses = Vec::new();
    let mut buf = Vec::new();
    let mut cycle = 0u64;
    for i in 0..ops {
        let addr = bh_dram::PhysAddr((i % 97) * 4096 + (i % 7) * 64);
        let _ = ctrl.try_enqueue(MemRequest::read(i, ThreadId((i % 4) as usize), addr, cycle));
        for _ in 0..6 {
            ctrl.tick(cycle, None);
            cycle += 1;
        }
        ctrl.drain_responses_into(&mut buf);
        responses.extend(buf.iter().map(|r| r.id));
    }
    (responses, cycle)
}

fn drive_system(mem: &mut MemorySystem, ops: u64) -> (Vec<u64>, u64) {
    let mut responses = Vec::new();
    let mut buf = Vec::new();
    let mut cycle = 0u64;
    for i in 0..ops {
        let addr = bh_dram::PhysAddr((i % 97) * 4096 + (i % 7) * 64);
        // `try_enqueue`, like the controller side: a full queue drops the
        // request on both sides, so the two paths see identical workloads.
        let _ = mem.try_enqueue(MemRequest::read(i, ThreadId((i % 4) as usize), addr, cycle));
        for _ in 0..6 {
            mem.retry_pending();
            mem.tick(cycle);
            cycle += 1;
        }
        mem.drain_responses_into(&mut buf);
        responses.extend(buf.iter().map(|r| r.id));
    }
    (responses, cycle)
}

/// The 1-channel facade must be behaviourally indistinguishable from the
/// bare controller: same responses in the same order, same statistics, same
/// DRAM command counts, same next-event horizons along the way.
#[test]
fn single_channel_system_is_behaviourally_identical_to_bare_controller() {
    let mut ctrl = controller();
    let mut mem = system();
    let (direct_responses, direct_cycle) = drive_controller(&mut ctrl, 3_000);
    let (system_responses, system_cycle) = drive_system(&mut mem, 3_000);
    assert_eq!(direct_responses, system_responses, "response streams diverged");
    assert_eq!(direct_cycle, system_cycle);
    assert_eq!(ctrl.stats(), mem.controller(0).stats(), "controller stats diverged");
    assert_eq!(
        ctrl.channel().stats(),
        mem.controller(0).channel().stats(),
        "DRAM command stats diverged"
    );
    assert_eq!(ctrl.next_event(direct_cycle), mem.next_event(system_cycle));
    // And the aggregate view is exactly the sole controller's view.
    assert_eq!(&mem.aggregate_stats(), mem.controller(0).stats());
}

/// Interleaved A/B timing: the facade's dispatch loop must not be
/// measurably slower than driving the controller directly (claw-back guard
/// for the PR-4 `MemorySystem` dispatch regression).
#[test]
fn single_channel_dispatch_adds_no_measurable_per_request_work() {
    const OPS: u64 = 20_000;
    const ROUNDS: usize = 5;
    // Warm both paths (allocations, branch predictors, lazy tables).
    drive_controller(&mut controller(), 2_000);
    drive_system(&mut system(), 2_000);

    // Interleave A/B rounds so load spikes hit both sides equally; compare
    // the *minimum* per-round time, which sheds transient noise.
    let mut direct_best = u128::MAX;
    let mut system_best = u128::MAX;
    for _ in 0..ROUNDS {
        let mut ctrl = controller();
        let start = Instant::now();
        let _ = drive_controller(&mut ctrl, OPS);
        direct_best = direct_best.min(start.elapsed().as_nanos());

        let mut mem = system();
        let start = Instant::now();
        let _ = drive_system(&mut mem, OPS);
        system_best = system_best.min(start.elapsed().as_nanos());
    }
    let ratio = system_best as f64 / direct_best as f64;
    assert!(
        ratio <= MAX_OVERHEAD_RATIO,
        "1-channel MemorySystem dispatch is {ratio:.2}x the bare controller \
         (direct {direct_best} ns vs system {system_best} ns for {OPS} ops x {ROUNDS} rounds); \
         the single-channel fast path must keep this at ~1.0x (bound {MAX_OVERHEAD_RATIO})"
    );
}
