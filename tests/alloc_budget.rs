//! Heap-allocation budgets of the §6.2 renaming path.
//!
//! A counting global allocator tallies, per thread, the heap allocations
//! each test thread makes and the bytes it asks for. Every measured
//! operation runs on the test's own thread, so tests running in parallel do
//! not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use strong_renaming::prelude::*;
use tas::two_process::TwoProcessTas;
use tas::{Side, TwoPartyTas};

/// Forwards to the system allocator, counting the allocations made and
/// bytes requested by the current thread.
struct CountingAllocator;

/// What the current thread asked the heap for.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Tally {
    /// Calls that can return a new block (`alloc`, `alloc_zeroed`,
    /// `realloc`).
    allocations: u64,
    /// Bytes requested, counting a `realloc`'s growth.
    bytes: u64,
}

thread_local! {
    static TALLY: Cell<Tally> = const {
        Cell::new(Tally {
            allocations: 0,
            bytes: 0,
        })
    };
}

fn count(allocations: u64, bytes: usize) {
    // `try_with`: allocations during thread teardown, after the counter is
    // gone, are simply not counted.
    let _ = TALLY.try_with(|tally| {
        let mut sum = tally.get();
        sum.allocations += allocations;
        sum.bytes += bytes as u64;
        tally.set(sum);
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter only reads sizes.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(1, new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// What the current thread allocated while running `f`, with `f`'s result.
fn allocated_by<R>(f: impl FnOnce() -> R) -> (Tally, R) {
    let before = TALLY.with(Cell::get);
    let result = f();
    let after = TALLY.with(Cell::get);
    let tally = Tally {
        allocations: after.allocations - before.allocations,
        bytes: after.bytes - before.bytes,
    };
    (tally, result)
}

#[test]
fn two_process_tas_construction_allocates_nothing() {
    let (tally, tas) = allocated_by(TwoProcessTas::new);
    assert_eq!(tally, Tally::default(), "TwoProcessTas::new allocated");
    // A solo play decides in the inline rounds: still nothing allocated.
    let mut ctx = ProcessCtx::new(ProcessId::new(0), 1);
    let (tally, won) = allocated_by(|| tas.play(&mut ctx, Side::Top));
    assert!(won);
    assert_eq!(tally, Tally::default(), "a solo play allocated");
}

#[test]
fn adaptive_acquisitions_stay_within_the_allocation_budget() {
    const ACQUISITIONS: u64 = 512;
    const BUDGET_PER_ACQUISITION: u64 = 16 * 1024;
    const ALLOCATIONS_PER_ACQUISITION: u64 = 16;
    let renaming = AdaptiveRenaming::default();
    let (tally, names) = allocated_by(|| {
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
    let per_acquisition = tally.bytes / ACQUISITIONS;
    assert!(
        per_acquisition <= BUDGET_PER_ACQUISITION,
        "{per_acquisition} bytes allocated per acquisition (budget {BUDGET_PER_ACQUISITION})"
    );
    // The budget counts the names vector too; a comparator or splitter
    // played for the first time must not cost an allocation of its own.
    assert!(
        tally.allocations <= ALLOCATIONS_PER_ACQUISITION * ACQUISITIONS,
        "{} heap allocations over {ACQUISITIONS} acquisitions (budget \
         {ALLOCATIONS_PER_ACQUISITION} per acquisition)",
        tally.allocations
    );
}
