//! Verifies the zero-allocation guarantee of the activation hot path.
//!
//! An instrumented global allocator counts every heap allocation in this test
//! binary. Each mitigation mechanism — and the DRAM-side RowHammer
//! disturbance tracker — is warmed up with a deterministic activation stream
//! (long enough to reach every steady-state behaviour: table capacity,
//! Misra–Gries spillover and eviction, TWiCe pruning, window resets), then
//! driven through the *same* stream again while the allocation counter is
//! watched. A single allocation during the measured phase fails the test:
//! `on_activation` must not return heap-allocated action lists, and the flat
//! trackers must not rehash or grow once warm. The memory controller's
//! steady state (enqueue → tick → drain with its read queue kept full) is
//! held to the same standard: the demand-queue slab, the preventive queue and
//! the response buffer must have stopped growing once warm.
//!
//! This file contains exactly one `#[test]` on purpose: Rust runs tests in a
//! binary concurrently, and a second test's allocations would race the
//! counter. The counter is additionally **thread-local armed**: only
//! allocations made by the test thread, between `arm()` and `disarm()`, are
//! counted. Host/runtime background threads (the test harness's timeout
//! machinery, platform TLS teardown, an unrelated signal handler) allocate
//! at unpredictable moments, and with a process-global counter those
//! allocations registered as flaky "stray hot-path allocations" — the
//! historical `allocation_free` flake.

use breakhammer_suite::dram::{
    AccessKind, BankAddr, DramChannel, DramGeometry, PhysAddr, RowAddr, RowHammerTracker, ThreadId,
    TimingParams,
};
use breakhammer_suite::mem::{MemControllerConfig, MemRequest, MemoryController};
use breakhammer_suite::mitigation::{ActionSink, ActivationEvent, MechanismKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts allocations (not deallocations: frees are harmless on a hot path,
/// and a steady-state path that frees must have allocated first anyway) —
/// but only on the thread that armed it.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether allocations on *this* thread are counted. `const`-initialised
    /// so reading it inside the allocator never itself allocates (a lazy TLS
    /// initialiser could recurse into `alloc`).
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

/// Starts counting allocations made by the calling thread.
fn arm() {
    ARMED.with(|armed| armed.set(true));
}

/// Stops counting allocations made by the calling thread.
fn disarm() {
    ARMED.with(|armed| armed.set(false));
}

/// True if the calling thread is currently armed. `try_with` covers the TLS
/// teardown window at thread exit, where the slot is already destroyed but
/// the runtime may still allocate.
fn armed() -> bool {
    ARMED.try_with(Cell::get).unwrap_or(false)
}

// SAFETY: pure pass-through to the `System` allocator — every pointer and
// layout obligation of `GlobalAlloc` is delegated unchanged; the counter
// update touches an atomic only and never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: forwards to `System.alloc` with the caller's layout unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if armed() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    // SAFETY: forwards to `System.dealloc` with the caller's pointer and
    // layout unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: forwards to `System.realloc` with the caller's arguments
    // unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if armed() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Deterministic activation stream exercising hot rows (threshold triggers),
/// cold sweeps (table churn/eviction) and long cycle jumps (window resets and
/// TWiCe pruning). The stream is a pure function of the step index, so the
/// warm-up and measured phases replay identical state trajectories.
fn event_at(geometry: &DramGeometry, step: u64) -> ActivationEvent {
    let rows = geometry.rows_per_bank;
    let row = match step % 4 {
        // A hot aggressor pair: drives Graphene/TWiCe/PRAC triggers and AQUA
        // migrations.
        0 => 50,
        1 => 52,
        // A strided cold sweep: fills tables to capacity and keeps the
        // Misra-Gries eviction and spillover paths hot.
        2 => (step.wrapping_mul(31) % rows as u64) as usize,
        // A second hot-ish group for Hydra escalation.
        _ => 70 + (step % 8) as usize,
    };
    ActivationEvent {
        row: RowAddr {
            bank: BankAddr {
                rank: (step % 2) as usize,
                bank_group: ((step / 2) % 2) as usize,
                bank: ((step / 4) % 2) as usize,
            },
            row,
        },
        thread: ThreadId((step % 4) as usize),
        // ~tRC-spaced activations; crosses several fast_test refresh windows
        // over the course of the stream.
        cycle: step * 50,
    }
}

const WARMUP_STEPS: u64 = 60_000;
const MEASURED_STEPS: u64 = 60_000;

#[test]
fn activation_hot_path_is_allocation_free_after_warmup() {
    let geometry = DramGeometry::tiny();
    let timing = TimingParams::fast_test();

    for kind in MechanismKind::ALL {
        let mut mechanism = kind.build(&geometry, &timing, 64, 7);
        let mut sink = ActionSink::default();
        let mut total_actions = 0usize;
        for step in 0..WARMUP_STEPS {
            sink.clear();
            mechanism.on_activation(&event_at(&geometry, step), &mut sink);
            total_actions += sink.len();
        }

        arm();
        let before = allocations();
        for step in WARMUP_STEPS..WARMUP_STEPS + MEASURED_STEPS {
            sink.clear();
            mechanism.on_activation(&event_at(&geometry, step), &mut sink);
            total_actions += sink.len();
        }
        let allocated = allocations() - before;
        disarm();
        assert_eq!(
            allocated, 0,
            "{kind}: {allocated} heap allocation(s) in {MEASURED_STEPS} steady-state activations"
        );
        // Sanity: the stream really exercised the trigger paths (every
        // action-producing mechanism must have produced some).
        if !matches!(kind, MechanismKind::None | MechanismKind::Rega | MechanismKind::BlockHammer) {
            assert!(total_actions > 0, "{kind}: stream never triggered an action");
        }
    }

    // The DRAM-side disturbance tracker shares the per-ACT hot path. Victim
    // refreshes and periodic sweeps are interleaved so disturbance counters
    // stay bounded and no bitflip event is ever pushed.
    let mut tracker = RowHammerTracker::new(geometry.clone(), 1 << 20, 2);
    let drive = |tracker: &mut RowHammerTracker, from: u64, to: u64| {
        for step in from..to {
            let event = event_at(&geometry, step);
            tracker.on_activate(event.row, event.cycle);
            if step % 64 == 0 {
                tracker.on_row_refreshed(RowAddr { bank: event.row.bank, row: 51 });
                tracker.on_periodic_refresh((step % 2) as usize, 0, geometry.rows_per_bank);
            }
            if step % 977 == 0 {
                tracker.service_rfm(event.row.bank, 4);
            }
        }
    };
    drive(&mut tracker, 0, WARMUP_STEPS);
    arm();
    let before = allocations();
    drive(&mut tracker, WARMUP_STEPS, WARMUP_STEPS + MEASURED_STEPS);
    let allocated = allocations() - before;
    disarm();
    assert_eq!(
        allocated, 0,
        "RowHammerTracker: {allocated} heap allocation(s) in {MEASURED_STEPS} steady-state \
         activations"
    );
    assert_eq!(tracker.bitflip_count(), 0, "threshold chosen so no bitflip is recorded");

    // The controller around that hot path: Table 1 queues (64 + 64 entries),
    // Graphene at N_RH = 64 so victim refreshes flow through the preventive
    // queue, the read queue topped up to capacity before every tick and a
    // writeback every eighth cycle. Requests stride over every bank and ~100
    // rows, mixing row hits with conflicts.
    let mechanism = MechanismKind::Graphene.build(&geometry, &timing, 64, 7);
    let channel = DramChannel::with_rowhammer(geometry.clone(), timing.clone(), 64);
    let mut ctrl = MemoryController::new(MemControllerConfig::paper_table1(4), channel, mechanism);
    let mut responses = Vec::new();
    let mut id = 0u64;
    let mut drive = |ctrl: &mut MemoryController, from: u64, to: u64| {
        for cycle in from..to {
            let mut request = |write: bool| {
                id += 1;
                let addr = PhysAddr((id % 97) * 4096 + (id % 7) * 64);
                let thread = ThreadId((id % 4) as usize);
                if write {
                    MemRequest::write(id, thread, addr, cycle)
                } else {
                    MemRequest::read(id, thread, addr, cycle)
                }
            };
            while ctrl.can_accept(AccessKind::Read) {
                ctrl.try_enqueue(request(false)).expect("queue has room");
            }
            if cycle % 8 == 0 && ctrl.can_accept(AccessKind::Write) {
                ctrl.try_enqueue(request(true)).expect("queue has room");
            }
            ctrl.tick(cycle, None);
            ctrl.drain_responses_into(&mut responses);
        }
    };
    drive(&mut ctrl, 0, WARMUP_STEPS);
    let served_warm = ctrl.stats().reads_served + ctrl.stats().writes_served;
    arm();
    let before = allocations();
    drive(&mut ctrl, WARMUP_STEPS, WARMUP_STEPS + MEASURED_STEPS);
    let allocated = allocations() - before;
    disarm();
    assert_eq!(
        allocated, 0,
        "MemoryController: {allocated} heap allocation(s) in {MEASURED_STEPS} steady-state ticks"
    );
    let stats = ctrl.stats();
    assert!(stats.reads_served + stats.writes_served > served_warm + 1_000, "{stats:?}");
    assert!(stats.writes_served > 0 && stats.victim_rows_refreshed > 0, "{stats:?}");
}
