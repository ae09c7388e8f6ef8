//! Heap-allocation budget of the trained speculative engine.
//!
//! Wall time is too noisy to guard in CI, but the number of allocations
//! a request costs is deterministic for a seed. This binary installs a
//! counting global allocator, drives TrainTicket's `TcktApp` closed loop
//! on a trained `SpecEngine` and fails if allocations per completed
//! request exceed the budget. It holds a single test so that nothing
//! else allocates on the counted thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use specfaas_apps::trainticket::ticket_app;
use specfaas_core::{SpecConfig, SpecCore, SpecEngine};
use specfaas_sim::{SimDuration, SimRng};

/// Counts `alloc`, `alloc_zeroed` and `realloc` calls made on a thread
/// while its counter is armed.
struct Counting;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    if ARMED.with(Cell::get) {
        ALLOCS.with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// bookkeeping touches only `const`-initialised thread-locals, which never
// allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations per completed request when the budget was set (193.9,
/// in both debug and release builds), plus 10 %.
const BUDGET_PER_REQUEST: f64 = 193.9 * 1.10;

const SEED: u64 = 311;
const TRAIN_REQUESTS: u64 = 300;
const CLIENTS: u32 = 32;

#[test]
fn trained_closed_loop_stays_within_allocation_budget() {
    let bundle = ticket_app();
    let mut engine = SpecEngine::new(SpecCore::new(
        Arc::clone(&bundle.app),
        SpecConfig::full(),
        SEED,
    ));
    engine.prewarm();
    (bundle.seed)(&mut engine.kv, &mut SimRng::seed(SEED ^ 0x5eed));
    let gen = Arc::clone(&bundle.make_input);
    engine.run_closed(TRAIN_REQUESTS, move |r| gen(r));

    let gen = Arc::clone(&bundle.make_input);
    ARMED.with(|a| a.set(true));
    let metrics = engine.run_concurrent(
        CLIENTS,
        SimDuration::from_secs(5),
        SimDuration::ZERO,
        move |r| gen(r),
    );
    ARMED.with(|a| a.set(false));

    assert!(metrics.completed > 1_000, "{} requests", metrics.completed);
    let per_request = ALLOCS.with(Cell::get) as f64 / metrics.completed as f64;
    println!(
        "{per_request:.1} allocations per request over {} requests",
        metrics.completed
    );
    assert!(
        per_request <= BUDGET_PER_REQUEST,
        "{per_request:.1} allocations per request exceed the budget of {BUDGET_PER_REQUEST:.1}"
    );
}
