//! Correctness checks on every operation. A failed check counts the
//! operation as failed (it feeds `failed_frac`); nothing is asserted away.

use adaptive_renaming::counter::Counter;
use adaptive_renaming::error::RenamingError;
use shmem::arena::{Arena, ArenaSliceRef};
use shmem::pad::CachePadded;
use shmem::process::ProcessCtx;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One padded owner word per name, in the round's shared arena so forked
/// workers check against each other. A grant swaps the holder in; a
/// release swaps it out first, so a name granted while still held, or
/// released by a non-holder, is caught.
pub struct Owners {
    words: ArenaSliceRef<CachePadded<AtomicU64>>,
    bound: usize,
}

impl Owners {
    /// Arena bytes for names `1..=bound`.
    pub fn footprint(bound: usize) -> usize {
        (bound + 1) * 64
    }

    pub fn new_in(arena: &Arc<Arena>, bound: usize) -> Owners {
        Owners {
            words: arena.alloc_slice(bound + 1).pin(arena),
            bound,
        }
    }

    /// Records that `worker` was granted `name`; false if the name is out
    /// of bounds or still held.
    pub fn grant(&self, name: usize, worker: usize) -> bool {
        (1..=self.bound).contains(&name)
            && self.words[name].swap(worker as u64 + 1, Ordering::SeqCst) == 0
    }

    /// Records that `worker` is about to release `name`; false if it was
    /// not the holder.
    pub fn release(&self, name: usize, worker: usize) -> bool {
        (1..=self.bound).contains(&name)
            && self.words[name].swap(0, Ordering::SeqCst) == worker as u64 + 1
    }

    /// Names still marked held.
    pub fn held(&self) -> usize {
        self.words
            .iter()
            .filter(|word| word.load(Ordering::SeqCst) != 0)
            .count()
    }
}

/// Acquires a name through `acquire` and checks the grant. Returns the name
/// (which the caller still owes a release, even if the check failed) and
/// whether the grant was correct.
pub fn checked_grant(
    owners: &Owners,
    worker: usize,
    ctx: &mut ProcessCtx,
    acquire: impl FnOnce(&mut ProcessCtx) -> Result<usize, RenamingError>,
) -> (Option<usize>, bool) {
    match acquire(ctx) {
        Ok(name) => (Some(name), owners.grant(name, worker)),
        Err(_) => (None, false),
    }
}

/// Per-thread counter reads: never decreasing, at most the increments
/// started anywhere, and — where the counter promises it — at least the
/// thread's own completed increments.
///
/// The §8.1 counter promises that lower bound (reads lie between completed
/// and started increments, Lemma 4). The cascade is only quiescently
/// consistent: an increment eliminated in a prism returns before its
/// partner deposits it, so the caller's next read may not see it yet. For
/// the cascade the lower bound is checked at the quiescent end of a round.
#[derive(Debug, Default)]
pub struct ReadCheck {
    last: u64,
    completed: u64,
    own_increments_visible: bool,
}

impl ReadCheck {
    pub fn new(own_increments_visible: bool) -> Self {
        ReadCheck {
            own_increments_visible,
            ..ReadCheck::default()
        }
    }

    pub fn incremented(&mut self) {
        self.completed += 1;
    }

    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Checks a read of `value`; `started` bounds the increments begun
    /// anywhere, taken after the read returned.
    pub fn read(&mut self, value: u64, started: u64) -> bool {
        let floor = if self.own_increments_visible {
            self.completed
        } else {
            0
        };
        let ok = value >= self.last && value >= floor && value <= started;
        self.last = self.last.max(value);
        ok
    }
}

/// A counter operation: a read with probability 1/8, else an increment.
/// `started` is the shared count of increment tickets claimed.
pub fn counter_op(
    counter: &dyn Counter,
    ctx: &mut ProcessCtx,
    read: bool,
    check: &mut ReadCheck,
    started: &AtomicU64,
) -> bool {
    if read {
        let value = counter.read(ctx);
        check.read(value, started.load(Ordering::SeqCst))
    } else {
        counter.increment(ctx);
        check.incremented();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptive_renaming::lease::{LongLivedRenaming, NameLease};
    use shmem::process::ProcessId;

    /// Grants name 1 to every caller: the double grant the owner words exist
    /// to catch.
    struct GrantsOneTwice;

    impl LongLivedRenaming for GrantsOneTwice {
        fn lease(self: Arc<Self>, ctx: &mut ProcessCtx) -> Result<NameLease, RenamingError> {
            let name = self.lease_raw(ctx)?;
            Ok(NameLease::new(name, self))
        }

        fn lease_raw(&self, _ctx: &mut ProcessCtx) -> Result<usize, RenamingError> {
            Ok(1)
        }

        fn release_raw(&self, _name: usize) {}

        fn max_concurrent(&self) -> Option<usize> {
            Some(4)
        }

        fn live_leases(&self) -> usize {
            0
        }
    }

    #[test]
    fn a_name_granted_twice_or_out_of_bounds_fails_the_check() {
        let arena = Arena::heap(Owners::footprint(4) + 64);
        let owners = Owners::new_in(&arena, 4);
        let fake = GrantsOneTwice;
        let mut ctx = ProcessCtx::new(ProcessId::new(0), 1);
        assert_eq!(
            checked_grant(&owners, 0, &mut ctx, |ctx| fake.lease_raw(ctx)),
            (Some(1), true)
        );
        assert_eq!(
            checked_grant(&owners, 1, &mut ctx, |ctx| fake.lease_raw(ctx)),
            (Some(1), false)
        );
        assert!(!owners.release(1, 0), "worker 1 overwrote the holder");
        assert_eq!(
            checked_grant(&owners, 0, &mut ctx, |_| Ok(5)),
            (Some(5), false)
        );
        assert_eq!(
            checked_grant(&owners, 0, &mut ctx, |_| Err(
                RenamingError::CapacityExceeded { capacity: 4 }
            )),
            (None, false)
        );
    }

    /// Drops every third increment.
    #[derive(Default)]
    struct UnderCounts(AtomicU64, AtomicU64);

    impl Counter for UnderCounts {
        fn increment(&self, _ctx: &mut ProcessCtx) {
            if self.0.fetch_add(1, Ordering::SeqCst) % 3 != 2 {
                self.1.fetch_add(1, Ordering::SeqCst);
            }
        }

        fn read(&self, _ctx: &mut ProcessCtx) -> u64 {
            self.1.load(Ordering::SeqCst)
        }
    }

    /// Runs 16 ops (every fourth a read); returns the failed ops and
    /// whether the quiescent final read matched the increments.
    fn run(counter: &dyn Counter, own_increments_visible: bool) -> (usize, bool) {
        let started = AtomicU64::new(0);
        let mut check = ReadCheck::new(own_increments_visible);
        let mut ctx = ProcessCtx::new(ProcessId::new(0), 1);
        let mut failed = 0;
        for op in 0..16 {
            let read = op % 4 == 3;
            if !read {
                started.fetch_add(1, Ordering::SeqCst);
            }
            if !counter_op(counter, &mut ctx, read, &mut check, &started) {
                failed += 1;
            }
        }
        (failed, counter.read(&mut ctx) == check.completed())
    }

    #[test]
    fn an_under_counting_counter_fails_the_checks() {
        let (failed, quiescent) = run(&UnderCounts::default(), true);
        assert!(failed > 0, "the read check never fired");
        assert!(!quiescent, "the quiescent check did not fire");
        // Without the per-read lower bound, the quiescent check still fires.
        assert!(!run(&UnderCounts::default(), false).1);
    }

    #[test]
    fn a_correct_counter_passes_the_checks() {
        for visible in [true, false] {
            assert_eq!(
                run(&adaptive_renaming::counter::CasCounter::new(), visible),
                (0, true)
            );
        }
    }
}
