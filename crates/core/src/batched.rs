//! Release-side batching for long-lived renaming under churn.
//!
//! A [`BatchedRecycler`] wraps any [`LongLivedRenaming`] object with a small
//! set of striped *stashes* of released names. A release parks the name in
//! the stash of its stripe instead of paying the inner object's release
//! protocol; only when a stash reaches the batch size is the whole stash
//! flushed with one [`LongLivedRenaming::release_many_raw`] call — one
//! free-list seqlock bump (hence one admission-release operation) per
//! *batch* rather than per release. A lease consults the stashes first
//! (starting at the leasing process's home stripe) and falls back to the
//! inner object only when every stripe is empty, so stashed names are
//! recycled with a single mutex hand-off instead of a free-list round trip.
//! A cache-padded *occupancy word* — one advisory bit per stripe, kept in
//! sync under each stripe's lock — lets that consult skip empty stripes
//! with a single relaxed load instead of locking each mutex in turn.
//!
//! # What the batching trades away
//!
//! The concurrency bound is preserved exactly: a stashed name still counts
//! as *live* inside the inner object (its admission slot is returned only
//! when the flush lands), so the inner object never sees more than
//! `max_concurrent` simultaneous holders and every name ever granted stays
//! within the inner bound. What is lost is the *per-grant* tightness of the
//! bare [`Recycler`](crate::recycler::Recycler): a stash pops names in LIFO
//! order with no minimality guarantee, so a lease granted at point
//! contention `c` may carry a name above `c` (though never above
//! `max_concurrent`). This is the same loose-bound trade the
//! [`ShardedRecycler`](crate::sharded::ShardedRecycler) makes; histories
//! should be checked with
//! [`assert_loose_lease_namespace`](crate::lease::assert_loose_lease_namespace)
//! or plain uniqueness-and-bound assertions, not the tight checker.
//!
//! Because stashed names hold admission slots, a lease can observe
//! [`CapacityExceeded`](crate::error::RenamingError::CapacityExceeded) from
//! the inner object while a racing release is parking a name; the wrapper
//! re-sweeps the stashes once before surfacing the error. (The bare
//! recycler's admission has the same benign spurious-reject window.)
//!
//! # Misreleases
//!
//! A release of name 0 (never granted) or of a name already parked in its
//! stripe is rejected and counted in [`BatchedRecycler::leaked_names`],
//! like the bare recycler's rejected double releases: parking it would hand
//! the name to a later lease, or to two of them. Every copy of a name maps
//! to the same stripe, so one scan of that stash (fewer than `batch`
//! entries) finds a duplicate. A double release whose first copy was
//! already flushed to the inner object goes undetected here.
//!
//! The builder wraps every long-lived object in a batch-8 stash by default
//! — [`RenamingBuilder::lease_batch`](crate::builder::RenamingBuilder::lease_batch)
//! restores the bare tight recycler with `.lease_batch(1)`.

use crate::error::RenamingError;
use crate::lease::{LongLivedRenaming, NameLease};
use parking_lot::Mutex;
use shmem::pad::CachePadded;
use shmem::process::ProcessCtx;
use shmem::steps::StepKind;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Number of stash stripes: enough to keep release traffic from
/// serializing on one mutex at typical thread counts, few enough that the
/// all-stripes sweep on a lease miss stays cheap. At most 64: occupancy is
/// tracked in one 64-bit word.
const STRIPES: usize = 8;

/// Wraps a [`LongLivedRenaming`] object with striped release stashes that
/// flush in batches — see the [module documentation](self) for the
/// protocol and the loose-bound trade-off.
///
/// # Example
///
/// ```
/// use adaptive_renaming::batched::BatchedRecycler;
/// use adaptive_renaming::lease::LongLivedRenaming;
/// use adaptive_renaming::recycler::Recycler;
/// use adaptive_renaming::renaming_network::RenamingNetwork;
/// use shmem::process::{ProcessCtx, ProcessId};
/// use sortnet::batcher::odd_even_network;
/// use std::sync::Arc;
///
/// let inner: Arc<dyn LongLivedRenaming> = Arc::new(Recycler::new(
///     RenamingNetwork::new(odd_even_network(16)),
///     4,
/// ));
/// let batched = Arc::new(BatchedRecycler::new(inner, 4));
/// let mut ctx = ProcessCtx::new(ProcessId::new(0), 1);
///
/// let lease = Arc::clone(&batched).lease(&mut ctx).unwrap();
/// let name = lease.name();
/// lease.release(&mut ctx); // parked in a stash, not yet flushed
/// assert_eq!(batched.stashed_names(), 1);
/// let again = Arc::clone(&batched).lease(&mut ctx).unwrap();
/// assert_eq!(again.name(), name, "the stashed name is recycled directly");
/// ```
pub struct BatchedRecycler {
    inner: Arc<dyn LongLivedRenaming>,
    /// Released-name stashes, one mutex per stripe, each stripe on its own
    /// cache line: a release locks exactly one stripe (chosen by name), so
    /// padding keeps unrelated stripes from false-sharing.
    stashes: Box<[CachePadded<Mutex<Vec<usize>>>]>,
    /// Advisory occupancy mask: bit `s` is maintained under stripe `s`'s
    /// lock to mirror "stripe `s` is non-empty", so the lease fast path
    /// skips empty stripes with one load instead of locking each in turn.
    /// Lock-free readers may observe it stale in either direction; both
    /// staleness modes are benign (a missed name is recovered by the full
    /// sweep on the capacity-exceeded path, a spurious bit costs one lock).
    occupancy: CachePadded<AtomicU64>,
    batch: usize,
    /// Rejected releases (see the module documentation's *Misreleases*).
    leaked: AtomicUsize,
}

impl BatchedRecycler {
    /// Wraps `inner`, flushing each stash to the inner object once it holds
    /// `batch` names.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero (use `batch == 1` — or no wrapper at all —
    /// for unbatched releases).
    pub fn new(inner: Arc<dyn LongLivedRenaming>, batch: usize) -> Self {
        assert!(batch >= 1, "a release batch needs at least one slot");
        BatchedRecycler {
            inner,
            stashes: (0..STRIPES)
                .map(|_| CachePadded::new(Mutex::new(Vec::with_capacity(batch))))
                .collect(),
            occupancy: CachePadded::new(AtomicU64::new(0)),
            batch,
            leaked: AtomicUsize::new(0),
        }
    }

    /// The wrapped long-lived object.
    pub fn inner(&self) -> &Arc<dyn LongLivedRenaming> {
        &self.inner
    }

    /// The flush threshold: a stash is handed to the inner object's batch
    /// release once it holds this many names.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Releases rejected as misuse: name 0, or a name already parked in its
    /// stripe (a double release). Each is a no-op apart from this count.
    pub fn leaked_names(&self) -> usize {
        self.leaked.load(Ordering::Relaxed) // lint: relaxed-ok(diagnostic counter; no ordering dependency)
    }

    /// Names currently parked in stashes (not yet flushed to the inner
    /// object). Diagnostics: momentarily stale while operations are in
    /// flight.
    pub fn stashed_names(&self) -> usize {
        self.stashes.iter().map(|stripe| stripe.lock().len()).sum()
    }

    /// Pops one stashed name, probing only stripes whose occupancy bit is
    /// set, starting at the given stripe so that concurrent leasers begin
    /// at different mutexes. One relaxed load when every stripe is empty —
    /// the common case under light churn.
    fn pop_stashed(&self, start: usize) -> Option<usize> {
        let mask = self.occupancy.load(Ordering::Relaxed); // lint: relaxed-ok(occupancy is a hint bitmap; the TAS acquisition validates it)
        if mask == 0 {
            return None;
        }
        for offset in 0..STRIPES {
            let index = (start + offset) % STRIPES;
            if mask & (1 << index) != 0 {
                if let Some(name) = self.pop_stripe(index) {
                    return Some(name);
                }
            }
        }
        None
    }

    /// Pops one stashed name probing *every* stripe, ignoring the advisory
    /// occupancy mask. Used on the capacity-exceeded path, where a name the
    /// mask has not caught up with is the difference between recycling and a
    /// spurious rejection.
    fn pop_stashed_full(&self, start: usize) -> Option<usize> {
        for offset in 0..STRIPES {
            if let Some(name) = self.pop_stripe((start + offset) % STRIPES) {
                return Some(name);
            }
        }
        None
    }

    /// Pops from one stripe, keeping its occupancy bit in sync under the
    /// stripe lock.
    fn pop_stripe(&self, index: usize) -> Option<usize> {
        let mut stash = self.stashes[index].lock();
        let name = stash.pop();
        if stash.is_empty() {
            self.occupancy.fetch_and(!(1 << index), Ordering::Relaxed); // lint: relaxed-ok(occupancy is a hint bitmap; the TAS acquisition validates it)
        }
        name
    }

    /// Flushes every stash to the inner object regardless of fill level.
    /// Useful at the end of a measured phase, before asserting on the inner
    /// object's counters, or to return admission slots that batching is
    /// holding open.
    pub fn flush(&self) {
        for (index, stripe) in self.stashes.iter().enumerate() {
            let drained = {
                let mut stash = stripe.lock();
                self.occupancy.fetch_and(!(1 << index), Ordering::Relaxed); // lint: relaxed-ok(occupancy is a hint bitmap; the TAS acquisition validates it)
                std::mem::take(&mut *stash)
            };
            if !drained.is_empty() {
                obs::count(obs::Metric::BatchedFlush);
                obs::event(obs::EventKind::Flush, index as u64, drained.len() as u64);
                self.inner.release_many_raw(&drained);
            }
        }
    }
}

impl LongLivedRenaming for BatchedRecycler {
    fn lease(self: Arc<Self>, ctx: &mut ProcessCtx) -> Result<NameLease, RenamingError> {
        let name = self.lease_raw(ctx)?;
        Ok(NameLease::new(name, self))
    }

    fn lease_raw(&self, ctx: &mut ProcessCtx) -> Result<usize, RenamingError> {
        // The stash consult is modeled as one shared read-modify-write: in
        // the common case it is one uncontended mutex hand-off on one cache
        // line, comparable to the free-list pop it replaces.
        ctx.record(StepKind::ReadModifyWrite);
        let home = ctx.id().as_usize() % STRIPES;
        if let Some(name) = self.pop_stashed(home) {
            obs::count(obs::Metric::BatchedStashHit);
            return Ok(name);
        }
        match self.inner.lease_raw(ctx) {
            Ok(name) => Ok(name),
            Err(RenamingError::CapacityExceeded { capacity }) => {
                // Stashed names hold admission slots open; a racing release
                // may have parked one between our sweep and the inner
                // rejection (or its occupancy bit may not be visible yet).
                // One full, mask-ignoring re-sweep keeps the reject honest.
                self.pop_stashed_full(home)
                    .ok_or(RenamingError::CapacityExceeded { capacity })
            }
            Err(error) => Err(error),
        }
    }

    fn release_raw(&self, name: usize) {
        let index = name % STRIPES;
        let drained = {
            let mut stash = self.stashes[index].lock();
            if name == 0 || stash.contains(&name) {
                self.leaked.fetch_add(1, Ordering::Relaxed); // lint: relaxed-ok(diagnostic counter; no ordering dependency)
                return;
            }
            let was_empty = stash.is_empty();
            stash.push(name);
            if stash.len() >= self.batch {
                self.occupancy.fetch_and(!(1 << index), Ordering::Relaxed); // lint: relaxed-ok(occupancy is a hint bitmap; the TAS acquisition validates it)
                std::mem::take(&mut *stash)
            } else {
                if was_empty {
                    self.occupancy.fetch_or(1 << index, Ordering::Relaxed); // lint: relaxed-ok(occupancy is a hint bitmap; the TAS acquisition validates it)
                }
                Vec::new()
            }
        };
        // The flush happens outside the stripe lock: release_many_raw pays
        // one seqlock bump for the whole batch, and holding the mutex across
        // it would serialize releases against the inner free list.
        if !drained.is_empty() {
            obs::count(obs::Metric::BatchedFlush);
            obs::event(obs::EventKind::Flush, index as u64, drained.len() as u64);
            self.inner.release_many_raw(&drained);
        }
    }

    /// Batch releases are already amortized: they bypass the stashes and go
    /// straight to the inner object's batch release.
    fn release_many_raw(&self, names: &[usize]) {
        self.inner.release_many_raw(names);
    }

    fn max_concurrent(&self) -> Option<usize> {
        self.inner.max_concurrent()
    }

    /// Leases actually held by callers: the inner object's live count minus
    /// the names parked in stashes (live to the inner object, released from
    /// the caller's point of view).
    fn live_leases(&self) -> usize {
        self.inner
            .live_leases()
            .saturating_sub(self.stashed_names())
    }
}

impl fmt::Debug for BatchedRecycler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BatchedRecycler")
            .field("batch", &self.batch)
            .field("stripes", &STRIPES)
            .field("stashed", &self.stashed_names())
            .field("leaked_names", &self.leaked_names())
            .field("live", &self.live_leases())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recycler::Recycler;
    use crate::renaming_network::RenamingNetwork;
    use shmem::adversary::ExecConfig;
    use shmem::executor::Executor;
    use shmem::process::{ProcessCtx, ProcessId};
    use sortnet::batcher::odd_even_network;

    type NetworkRecycler = Recycler<RenamingNetwork>;

    fn batched(
        max_concurrent: usize,
        batch: usize,
    ) -> (Arc<BatchedRecycler>, Arc<NetworkRecycler>) {
        let recycler = Arc::new(Recycler::new(
            RenamingNetwork::new(odd_even_network(64)),
            max_concurrent,
        ));
        let inner: Arc<dyn LongLivedRenaming> = Arc::clone(&recycler) as _;
        (Arc::new(BatchedRecycler::new(inner, batch)), recycler)
    }

    fn ctx(id: usize, seed: u64) -> ProcessCtx {
        ProcessCtx::new(ProcessId::new(id), seed)
    }

    #[test]
    fn releases_park_in_the_stash_until_the_batch_fills() {
        let (object, recycler) = batched(8, 4);
        let mut ctx = ctx(0, 1);
        let mut names = Vec::new();
        for _ in 0..4 {
            names.push(object.lease_raw(&mut ctx).unwrap());
        }
        // Three releases stay parked: the inner free list never sees them.
        for &name in &names[..3] {
            object.release_raw(name);
        }
        assert_eq!(object.stashed_names(), 3);
        assert_eq!(recycler.free_names(), 0, "no flush below the batch size");
        assert_eq!(object.live_leases(), 1);
        assert_eq!(recycler.live_leases(), 4, "stashed names stay live inside");
        // Churn recycles straight from the stash, still without a flush.
        let reused = object.lease_raw(&mut ctx).unwrap();
        assert!(names.contains(&reused));
        assert_eq!(recycler.recycled_names(), 0);
        object.release_raw(reused);
        assert_eq!(object.stashed_names(), 3);
        object.release_raw(names[3]);
        // Names 1..=4 shared a stripe only if they collide mod the stripe
        // count; with the default 8 stripes each landed alone, so no stash
        // reached the batch size of 4. A manual flush drains them all.
        object.flush();
        assert_eq!(object.stashed_names(), 0);
        assert_eq!(recycler.live_leases(), 0);
        assert_eq!(recycler.free_names(), 4);
    }

    #[test]
    fn a_full_stripe_flushes_as_one_batch() {
        let (object, recycler) = batched(24, 3);
        let mut ctx = ctx(0, 2);
        // Sequential leases are tight: names 1..=17, of which 1, 9 and 17
        // are congruent mod the stripe count and so share one stash.
        for expected in 1..=17 {
            assert_eq!(object.lease_raw(&mut ctx).unwrap(), expected);
        }
        object.release_raw(1);
        object.release_raw(9);
        assert_eq!(recycler.free_names(), 0);
        object.release_raw(17); // third release fills the batch
        assert_eq!(object.stashed_names(), 0, "the whole stash flushed");
        assert_eq!(recycler.free_names(), 3);
        assert_eq!(object.live_leases(), 14);
    }

    #[test]
    fn misreleases_are_rejected_and_counted() {
        let (object, _recycler) = batched(4, 8);
        let mut ctx = ctx(0, 5);
        // Name 0 is never granted: parking it would hand it to a lease.
        object.release_raw(0);
        assert_eq!(object.leaked_names(), 1);
        assert_eq!(object.stashed_names(), 0);
        assert_ne!(object.lease_raw(&mut ctx).unwrap(), 0);
        // A double release would give one name to two live leases.
        let name = object.lease_raw(&mut ctx).unwrap();
        object.release_raw(name);
        object.release_raw(name);
        assert_eq!(object.leaked_names(), 2);
        assert_eq!(object.stashed_names(), 1);
        let first = object.lease_raw(&mut ctx).unwrap();
        let second = object.lease_raw(&mut ctx).unwrap();
        assert_eq!(first, name);
        assert_ne!(second, name, "one release, one regrant");
        assert_eq!(object.live_leases(), 3);
    }

    #[test]
    fn stashed_names_do_not_defeat_the_admission_bound() {
        let (object, _recycler) = batched(2, 8);
        let mut ctx = ctx(0, 3);
        let a = object.lease_raw(&mut ctx).unwrap();
        let b = object.lease_raw(&mut ctx).unwrap();
        object.release_raw(a);
        object.release_raw(b);
        assert_eq!(object.live_leases(), 0);
        // Both admission slots are parked in stashes, but leases recycle
        // from the stash — the bound never spuriously blocks stash churn.
        let c = object.lease_raw(&mut ctx).unwrap();
        let d = object.lease_raw(&mut ctx).unwrap();
        assert_eq!(
            object.lease_raw(&mut ctx).unwrap_err(),
            RenamingError::CapacityExceeded { capacity: 2 }
        );
        assert!([a, b].contains(&c) && [a, b].contains(&d));
    }

    #[test]
    fn the_lease_surface_returns_raii_guards_through_the_stash() {
        let (object, _recycler) = batched(4, 2);
        let mut ctx = ctx(3, 4);
        let lease = Arc::clone(&object).lease(&mut ctx).unwrap();
        let name = lease.name();
        assert_eq!(object.live_leases(), 1);
        drop(lease); // Drop releases through the wrapper, hence the stash.
        assert_eq!(object.live_leases(), 0);
        assert_eq!(object.stashed_names(), 1);
        let again = Arc::clone(&object).lease(&mut ctx).unwrap();
        assert_eq!(again.name(), name);
    }

    #[test]
    fn concurrent_churn_keeps_names_unique_and_bounded() {
        // Shrunk under miri, whose interpreter runs the multi-threaded
        // churn at a fraction of native speed (the CI miri job runs this
        // module).
        let (seeds, workers, rounds) = if cfg!(miri) { (1, 4, 2) } else { (4, 8, 6) };
        for seed in 0..seeds {
            let (object, recycler) = batched(workers, 4);
            let outcome = Executor::new(ExecConfig::new(seed)).run(workers, {
                let object = Arc::clone(&object);
                move |ctx| {
                    let mut names = Vec::new();
                    for _ in 0..rounds {
                        let lease = Arc::clone(&object).lease(ctx).unwrap();
                        names.push(lease.name());
                        lease.release(ctx);
                    }
                    names
                }
            });
            let names = outcome.flattened();
            assert_eq!(names.len(), workers * rounds, "seed {seed}");
            assert!(
                names.iter().all(|&name| (1..=workers).contains(&name)),
                "seed {seed}: names must stay within max_concurrent, got {names:?}"
            );
            assert_eq!(object.live_leases(), 0, "seed {seed}");
            object.flush();
            assert_eq!(recycler.live_leases(), 0, "seed {seed}");
            assert_eq!(recycler.leaked_names(), 0, "seed {seed}");
        }
    }

    #[test]
    fn accessors_and_debug_report_the_configuration() {
        let (object, _recycler) = batched(4, 8);
        assert_eq!(object.batch(), 8);
        assert_eq!(object.max_concurrent(), Some(4));
        assert_eq!(object.inner().max_concurrent(), Some(4));
        let rendered = format!("{object:?}");
        assert!(rendered.contains("BatchedRecycler"));
        assert!(rendered.contains("batch"));
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_batches_are_rejected() {
        let (_, recycler) = batched(2, 1);
        let inner: Arc<dyn LongLivedRenaming> = recycler as _;
        let _ = BatchedRecycler::new(inner, 0);
    }
}
