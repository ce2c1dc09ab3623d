//! Heap-allocation budgets of the §6.2 renaming path.
//!
//! A counting global allocator tallies, per thread, the bytes each test
//! thread asks the heap for. Every measured operation runs on the test's own
//! thread, so tests running in parallel do not see each other's
//! allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use strong_renaming::prelude::*;
use tas::two_process::TwoProcessTas;
use tas::{Side, TwoPartyTas};

/// Forwards to the system allocator, counting the bytes requested by the
/// current thread.
struct CountingAllocator;

thread_local! {
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: allocations during thread teardown, after the counter is
    // gone, are simply not counted.
    let _ = ALLOCATED.try_with(|allocated| allocated.set(allocated.get() + bytes as u64));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter only reads sizes.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Bytes the current thread allocated while running `f`, with `f`'s result.
fn allocated_by<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATED.with(Cell::get);
    let result = f();
    (ALLOCATED.with(Cell::get) - before, result)
}

#[test]
fn two_process_tas_construction_allocates_nothing() {
    let (bytes, tas) = allocated_by(TwoProcessTas::new);
    assert_eq!(bytes, 0, "TwoProcessTas::new allocated {bytes} bytes");
    // A solo play decides in the inline rounds: still nothing allocated.
    let mut ctx = ProcessCtx::new(ProcessId::new(0), 1);
    let (bytes, won) = allocated_by(|| tas.play(&mut ctx, Side::Top));
    assert!(won);
    assert_eq!(bytes, 0, "a solo play allocated {bytes} bytes");
}

#[test]
fn adaptive_acquisitions_stay_within_the_allocation_budget() {
    const ACQUISITIONS: u64 = 512;
    const BUDGET_PER_ACQUISITION: u64 = 128 * 1024;
    let renaming = AdaptiveRenaming::default();
    let (bytes, names) = allocated_by(|| {
        (0..ACQUISITIONS)
            .map(|i| {
                let mut ctx = ProcessCtx::new(ProcessId::new(i as usize), i);
                renaming
                    .acquire(&mut ctx)
                    .expect("adaptive renaming never fails")
            })
            .collect::<Vec<_>>()
    });
    assert_tight_namespace(&names).unwrap();
    let per_acquisition = bytes / ACQUISITIONS;
    assert!(
        per_acquisition <= BUDGET_PER_ACQUISITION,
        "{per_acquisition} bytes allocated per acquisition (budget {BUDGET_PER_ACQUISITION})"
    );
}
