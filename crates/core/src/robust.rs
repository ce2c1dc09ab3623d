//! Crash-robust long-lived renaming: generation-stamped lease slots with a
//! liveness sweep.
//!
//! The recycling layers of this crate ([`Recycler`](crate::recycler::Recycler)
//! and friends) assume every granted name is eventually released by its
//! holder. Across OS processes over a shared-memory
//! [`shmem::arena::Arena`] that assumption fails: a process that
//! crashes mid-lease takes its names with it, permanently shrinking the
//! namespace. [`RobustLeaseTable`] closes that hole with the classical
//! slot-per-name lease protocol:
//!
//! * Name `n` is represented by one 64-bit slot word packing an **owner**
//!   (32 bits, an OS pid in cross-process deployments), a **generation**
//!   (31 bits, bumped once per grant) and a **held** flag.
//! * `acquire` scans the slots from name 1 upward and claims the first free
//!   one with a single CAS `FREE(g) → HELD(g+1, owner)`.
//! * `release` performs the single CAS `HELD(g, owner) → FREE(g)`.
//! * `sweep` re-reads every slot and performs the *same* CAS on slots whose
//!   owner a liveness predicate declares dead.
//!
//! Because release and sweep compare against the exact word they observed,
//! the `HELD(g) → FREE(g)` transition of every grant happens **exactly
//! once**, no matter how a tardy releaser races a sweeper that presumed it
//! dead — the losing CAS fails harmlessly, and a re-grant bumps the
//! generation so stale CASes can never resurrect an old lease. That race is
//! exhaustively model-checked in the `mcheck` crate's `robust_sweep_2p`
//! scenario.
//!
//! **Namespace tightness.** `acquire` claims the lowest free slot, so a
//! process granted name `m` observed slots `1..m` occupied during its
//! winning scan: under point contention `k` the names stay in `1..=k` up to
//! the transient reuse races every scan-based long-lived object has (the
//! same loose bound as [`ShardedRecycler`](crate::sharded::ShardedRecycler),
//! tight in the sequential and quiescent cases exercised by the tests).
//!
//! **ABA.** A generation wraps after `2³¹` grants of the same name; a CAS
//! delayed across a full wrap of one slot could misfire. At one grant per
//! microsecond that is a half-hour-long stall on one slot — accepted, like
//! every bounded-tag scheme.
//!
//! **Pid reuse and registrations.** Probing a pid with `kill(pid, 0)`
//! proves *a* process with that pid is alive — not that it is *our* owner:
//! the OS recycles pids, so a sweep keyed on raw pids can mistake a
//! stranger for a live leaseholder and leak the name forever. The table
//! therefore carries a small arena-resident **process registry**: a
//! process calls [`RobustLeaseTable::register_process`] once at attach,
//! receives a [`Registration`] whose [`Registration::tag`] packs its
//! registry slot and a start **generation**, and stamps that tag (not the
//! bare pid) into its leases. [`RobustLeaseTable::sweep_dead_processes`]
//! resolves a tag back through the registry: a generation mismatch means
//! the slot was re-registered (the original owner is gone no matter what
//! the pid now names), and only a matching registration's pid is probed
//! against the OS. Tags below `2^24` never collide with registration tags
//! and are treated as in-process (never provably dead) by the OS sweep.
//!
//! **Restart recovery.** Over a file-backed arena
//! ([`shmem::arena::Arena::file_attach`]) a whole fleet can die and a
//! fresh process attach later. [`RobustLeaseTable::recover`] arbitrates via
//! the table's recovery-epoch word (exactly one winner per epoch; losers
//! return at once, since recovery is idempotent), raises the **admission
//! gate** so concurrent acquirers back off instead of reporting spurious
//! exhaustion ([`crate::backoff::Backoff`]), reclaims dead owners' slots,
//! and parks torn slots (held with owner tag `0`) on the **quarantine**
//! bitmap, drained by the next sweep. `sweep`, `sweep_dead_processes` and
//! recovery share one reclaim scan and one owner verdict, so every
//! slot-word transition is made here. Free lists are not part of the
//! table: their owner calls
//! [`FreeList::repair_summary`](crate::free_list::FreeList::repair_summary).
//! Idempotence (`recover ∘ recover = recover` on
//! [`RobustLeaseTable::state_snapshot`]) is pinned by `tests/chaos_recovery.rs`
//! and model-checked by `mcheck`'s `recover_race_2p` scenario.
//!
//! All shared state lives in an [`Arena`], one cache line per slot, so the
//! table works unchanged over the process-private heap backend (tests,
//! model checking) and the `MAP_SHARED` mmap backend (the fork-based crash
//! test in `tests/crash_reclaim.rs`).

use crate::backoff::Backoff;
use crate::error::RenamingError;
use crate::lease::{LongLivedRenaming, NameLease};
use shmem::arena::{Arena, ArenaSliceRef};
use shmem::process::{ProcessCtx, ProcessId};
use shmem::register::{AtomicU64Register, AtomicUsizeRegister};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of low bits holding the owner tag.
const OWNER_BITS: u32 = 32;
/// Mask extracting the owner tag.
const OWNER_MASK: u64 = (1 << OWNER_BITS) - 1;
/// Bit position of the generation field.
const GEN_SHIFT: u32 = OWNER_BITS;
/// Width of the generation field (bit 63 is the held flag).
const GEN_BITS: u32 = 31;
/// Mask for a generation value (applied before shifting).
const GEN_MASK: u64 = (1 << GEN_BITS) - 1;
/// The held flag: set while the slot's name is leased out.
const HELD_BIT: u64 = 1 << 63;

/// Packs a free slot word carrying the given generation.
fn pack_free(generation: u64) -> u64 {
    (generation & GEN_MASK) << GEN_SHIFT
}

/// Packs a held slot word carrying the given generation and owner.
fn pack_held(generation: u64, owner: u32) -> u64 {
    HELD_BIT | ((generation & GEN_MASK) << GEN_SHIFT) | owner as u64
}

/// Whether the slot word is currently held.
fn is_held(word: u64) -> bool {
    word & HELD_BIT != 0
}

/// The generation stamped in the slot word.
fn generation(word: u64) -> u64 {
    (word >> GEN_SHIFT) & GEN_MASK
}

/// The owner tag stamped in the slot word (meaningful while held).
fn owner(word: u64) -> u32 {
    (word & OWNER_MASK) as u32
}

/// The successor generation, wrapping within the 31-bit field.
fn next_generation(generation: u64) -> u64 {
    generation.wrapping_add(1) & GEN_MASK
}

/// Number of process-registration slots every table carries. Generously
/// above the fleet sizes the chaos harness and benches run; dead
/// registrations are reclaimed (with a generation bump) so long-lived
/// deployments recycle slots rather than exhausting them.
pub const REGISTRY_SLOTS: usize = 64;
/// Registry word layout: pid in the low half, start-generation above it.
const REG_GEN_SHIFT: u32 = 32;
/// Owner-tag layout: `(slot + 1)` above this shift, generation low bits.
/// `slot + 1` keeps every registration tag `>= 2^24`, disjoint from the
/// small raw tags the in-process trait path stamps (`ctx.id() + 1`).
const TAG_SLOT_SHIFT: u32 = 24;
/// Mask of the generation bits a tag can carry.
const TAG_GEN_MASK: u32 = (1 << TAG_SLOT_SHIFT) - 1;

/// The telemetry a freed slot is counted under: the counter bumped and the
/// flight-recorder event kind recorded.
type Reclaim = (obs::Metric, obs::EventKind);
/// Frees made by a sweep or a quarantine drain.
const SWEPT: Reclaim = (obs::Metric::RobustSwept, obs::EventKind::SweepReclaimed);
/// Frees made by a recovery scan.
const RECOVERED: Reclaim = (obs::Metric::RecoverReclaimed, obs::EventKind::Recovered);

/// The operating system's liveness verdict on a registered pid.
#[cfg(all(unix, not(miri)))]
fn os_process_dead(pid: u32) -> bool {
    !shmem::arena::os_process_alive(pid)
}

/// How the owner verdict classifies an owner tag against the registry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TagStatus {
    /// A small in-process tag (below `2^24`), never issued by the registry.
    /// The OS sweep cannot prove its owner dead and leaves its leases alone.
    Raw,
    /// A registration tag whose registry slot has since been re-registered
    /// (generation mismatch) or cleared: the original owner is gone.
    Stale,
    /// A current registration; the carried value is the registered OS pid.
    Registered(u32),
}

/// What one [`RobustLeaseTable::recover_with`] call did (all counts zero
/// unless it [won](RecoveryReport::won) the epoch).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Whether this caller won the epoch CAS and ran the scan.
    pub won: bool,
    /// The epoch claimed (or already held by a previous recovery).
    pub epoch: u64,
    /// Names reclaimed from dead owners by the scan.
    pub reclaimed: usize,
    /// Torn slots newly parked on the quarantine list.
    pub quarantined: usize,
    /// Distinct dead registered pids encountered (postmortem candidates).
    pub dead_pids: Vec<u32>,
}

/// Proof of a process's registration with a [`RobustLeaseTable`]: the
/// registry slot it claimed, the start-generation stamped there, and the
/// pid it registered. Obtained from [`RobustLeaseTable::register_process`]
/// at attach time; [`Registration::tag`] is the owner tag to stamp into
/// every lease so sweeps can tell this incarnation from a later process
/// that recycled the same pid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Registration {
    slot: u32,
    generation: u32,
    pid: u32,
}

impl Registration {
    /// The owner tag to pass to [`RobustLeaseTable::acquire`]: packs the
    /// registry slot and the low bits of the start-generation. Always
    /// `>= 2^24`, so it never collides with in-process raw tags.
    pub fn tag(&self) -> u32 {
        ((self.slot + 1) << TAG_SLOT_SHIFT) | (self.generation & TAG_GEN_MASK)
    }

    /// The OS pid this registration was claimed for.
    pub fn pid(&self) -> u32 {
        self.pid
    }

    /// The registry slot index claimed.
    pub fn slot(&self) -> u32 {
        self.slot
    }

    /// The start-generation stamped in the registry slot.
    pub fn generation(&self) -> u32 {
        self.generation
    }
}

/// A crash-robust lease table over arena-resident slot words.
///
/// # Example
///
/// ```
/// use adaptive_renaming::robust::RobustLeaseTable;
/// use shmem::process::{ProcessCtx, ProcessId};
///
/// let table = RobustLeaseTable::with_capacity(4);
/// let mut ctx = ProcessCtx::new(ProcessId::new(0), 1);
/// let name = table.acquire(&mut ctx, 71).unwrap();
/// assert_eq!(name, 1);
/// assert_eq!(table.holder(name), Some(71));
/// // The owner crashes; a sweep with a liveness predicate reclaims it.
/// assert_eq!(table.sweep(&mut ctx, |owner| owner == 71), 1);
/// assert_eq!(table.holder(name), None);
/// ```
pub struct RobustLeaseTable {
    arena: Arc<Arena>,
    /// Slot `i` governs name `i + 1`; each register word is on its own
    /// arena cache line.
    slots: Vec<AtomicU64Register>,
    /// Count of completed `HELD → FREE` transitions (by releasers *or*
    /// sweepers). Doubles as the seqlock stamp that keeps exhaustion
    /// reports coherent: an acquire whose scan found nothing re-checks this
    /// counter and rescans if a release landed mid-scan.
    releases: AtomicUsizeRegister,
    /// Admission gate: nonzero while a sweep/recovery is in flight. An
    /// acquire that would report exhaustion backs off (bounded) instead, so
    /// recovery does not surface as spurious `CapacityExceeded` to callers
    /// racing the reclamation.
    gate: AtomicU64Register,
    /// Highest recovery epoch claimed so far: `recover_with` CASes it
    /// upward, so exactly one recoverer wins per epoch value.
    recovered_epoch: AtomicU64Register,
    /// Quarantine bitmap, one bit per name: set for slots recovery found
    /// torn/indeterminate, cleared (and the slot repaired) by the next
    /// sweep. A quarantined slot keeps its held flag, so the name is not
    /// grantable until drained.
    quarantine: Vec<AtomicU64Register>,
    /// Process registry: [`REGISTRY_SLOTS`] packed `generation << 32 | pid`
    /// words. Registration is a cold attach-time path, so the words are
    /// dense plain atomics rather than per-line registers.
    registry: ArenaSliceRef<AtomicU64>,
    capacity: usize,
}

impl RobustLeaseTable {
    /// Creates a table of `capacity` names over a fresh process-private
    /// arena sized exactly [`RobustLeaseTable::footprint`] bytes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_capacity_in(&Arena::heap(Self::footprint(capacity)), capacity)
    }

    /// Creates a table of `capacity` names whose slots live in the caller's
    /// `arena` — the cross-process constructor. Allocates
    /// [`RobustLeaseTable::footprint`] arena bytes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or the arena runs out of space.
    /// The allocation order below is part of the cross-process contract: a
    /// process attaching to an existing file-backed arena re-runs this
    /// constructor in preserve mode and must land every word on the same
    /// offsets the creator used.
    pub fn with_capacity_in(arena: &Arc<Arena>, capacity: usize) -> Self {
        assert!(capacity > 0, "a lease table needs at least one name");
        let slots = (0..capacity)
            .map(|_| AtomicU64Register::new_in(arena, pack_free(0)))
            .collect();
        RobustLeaseTable {
            arena: Arc::clone(arena),
            slots,
            releases: AtomicUsizeRegister::new_in(arena, 0),
            gate: AtomicU64Register::new_in(arena, 0),
            recovered_epoch: AtomicU64Register::new_in(arena, 0),
            quarantine: (0..capacity.div_ceil(64))
                .map(|_| AtomicU64Register::new_in(arena, 0))
                .collect(),
            registry: arena.alloc_slice::<AtomicU64>(REGISTRY_SLOTS).pin(arena),
            capacity,
        }
    }

    /// The number of arena bytes the table allocates: one 64-byte line per
    /// slot, one each for the release stamp, the admission gate and the
    /// recovery epoch, one per quarantine word (64 names each), plus the
    /// dense [`REGISTRY_SLOTS`]-word process registry.
    pub fn footprint(capacity: usize) -> usize {
        capacity * 64 + 3 * 64 + capacity.div_ceil(64) * 64 + REGISTRY_SLOTS * 8
    }

    /// The arena holding the table's shared state.
    pub fn arena(&self) -> &Arc<Arena> {
        &self.arena
    }

    /// The number of names the table governs.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Acquires the lowest free name for `owner`, stamping the slot with a
    /// fresh generation. In cross-process deployments the owner should be
    /// the caller's OS pid ([`shmem::arena::os_pid`]) so
    /// [`RobustLeaseTable::sweep_dead_processes`] can reclaim after a crash.
    ///
    /// Costs one read per scanned slot plus one CAS per claim attempt
    /// (`O(capacity)` reads per scan; a scan repeats only when a concurrent
    /// release or grant moved the table under it).
    ///
    /// # Errors
    ///
    /// Returns [`RenamingError::CapacityExceeded`] when every slot is held —
    /// coherently: the failing scan is revalidated against the release
    /// stamp, so a release that landed mid-scan triggers a rescan instead of
    /// a spurious failure. While the admission gate is raised (a
    /// sweep/recovery in flight), an exhausted scan backs off and retries
    /// ([`Backoff`], bounded) before failing: the sweep is about to free the
    /// dead owners' names, so the exhaustion is very likely transient.
    pub fn acquire(&self, ctx: &mut ProcessCtx, owner_tag: u32) -> Result<usize, RenamingError> {
        let acquire_timer = obs::start();
        let mut backoff = Backoff::new();
        loop {
            let stamp = self.releases.read(ctx);
            let mut progress = false;
            for (index, slot) in self.slots.iter().enumerate() {
                let mut word = slot.read(ctx);
                while !is_held(word) {
                    let claimed = pack_held(next_generation(generation(word)), owner_tag);
                    match slot.compare_and_swap(ctx, word, claimed) {
                        Ok(_) => {
                            obs::count(obs::Metric::RobustAcquire);
                            obs::finish(acquire_timer, obs::Metric::RobustAcquireNs);
                            obs::event(
                                obs::EventKind::LeaseGranted,
                                (index + 1) as u64,
                                owner_tag as u64,
                            );
                            return Ok(index + 1);
                        }
                        Err(actual) => {
                            obs::count(obs::Metric::RobustCasRetry);
                            // Lost the race for this slot; it may have been
                            // re-freed with a newer generation, so re-read
                            // rather than skipping ahead (skipping would
                            // loosen the lowest-free-name discipline).
                            word = actual;
                            progress = true;
                        }
                    }
                }
            }
            // Every slot was held at its read point. Report exhaustion only
            // if no release landed while we scanned; otherwise the miss may
            // be incoherent — rescan.
            if !progress && self.releases.read(ctx) == stamp {
                if !backoff.is_completed() && self.gate.read(ctx) != 0 {
                    obs::count(obs::Metric::RobustGateWait);
                    backoff.snooze();
                    continue;
                }
                return Err(RenamingError::CapacityExceeded {
                    capacity: self.capacity,
                });
            }
        }
    }

    /// Releases a held name: the single CAS `HELD(g, owner) → FREE(g)`.
    /// Returns whether **this call** performed the transition — `false`
    /// means a sweeper (or an erroneous double release) got there first, in
    /// which case the call changes nothing; the transition still happened
    /// exactly once.
    ///
    /// # Panics
    ///
    /// Panics if `name` is outside `1..=capacity`.
    pub fn release(&self, ctx: &mut ProcessCtx, name: usize) -> bool {
        let slot = self.slot(name);
        let word = slot.read(ctx);
        if !is_held(word) {
            return false;
        }
        if slot
            .compare_and_swap(ctx, word, pack_free(generation(word)))
            .is_ok()
        {
            self.releases.fetch_add(ctx, 1);
            obs::count(obs::Metric::RobustRelease);
            obs::event(obs::EventKind::LeaseReleased, name as u64, 0);
            true
        } else {
            obs::count(obs::Metric::RobustCasRetry);
            false
        }
    }

    /// Reclaims the names of dead owners: for every held slot whose owner
    /// `is_dead` declares gone, performs the same `HELD(g) → FREE(g)` CAS a
    /// release would, so a presumed-dead owner racing its own release
    /// resolves to exactly one transition. Returns the number of names
    /// reclaimed by this call.
    ///
    /// Correctness of the *namespace* (no two live holders of one name)
    /// relies on the predicate never declaring a live owner dead; the
    /// exactly-once transition holds regardless.
    pub fn sweep(&self, ctx: &mut ProcessCtx, is_dead: impl FnMut(u32) -> bool) -> usize {
        self.reclaim_scan(ctx, false, is_dead, SWEPT).0
    }

    /// Sweeps with the operating system as the liveness oracle — the sweep
    /// every surviving process runs after a peer crashes mid-lease over a
    /// shared arena (`tests/crash_reclaim.rs`).
    ///
    /// A held slot's owner tag is resolved through the process registry
    /// (see [`RobustLeaseTable::register_process`]):
    ///
    /// * a **stale** tag (its registry slot was re-registered since) is
    ///   dead by construction — this is the pid-reuse fix: the original
    ///   owner is gone even if *some* process now answers to its old pid;
    /// * a **registered** tag's pid is probed with
    ///   [`shmem::arena::os_process_alive`];
    /// * a **raw** in-process tag (below `2^24`, as stamped by the
    ///   [`LongLivedRenaming`] trait path) is never provably dead to the
    ///   OS and is left alone.
    ///
    /// The sweep finishes by draining the quarantine list, repairing any
    /// torn slots recovery parked there.
    ///
    /// As a postmortem hook, every distinct dead pid whose name this sweep
    /// reclaims is reported to [`obs::postmortem::notify_dead`]: if the
    /// sweeping process has a [`obs::FlightRecorder`] installed and the dead
    /// process had attached one of its rings, the dead process's last
    /// recorded events are dumped for inspection.
    #[cfg(all(unix, not(miri)))]
    pub fn sweep_dead_processes(&self, ctx: &mut ProcessCtx) -> usize {
        let mut dead_pids = Vec::new();
        let (reclaimed, _) = self.reclaim_scan(
            ctx,
            false,
            |tag| self.owner_is_dead(tag, &mut os_process_dead, &mut dead_pids),
            SWEPT,
        );
        let repaired = self.drain_quarantine(ctx);
        for pid in dead_pids {
            obs::postmortem::notify_dead(pid);
        }
        reclaimed + repaired
    }

    /// Recovers the table after attaching to an arena whose previous fleet
    /// may have died — the backend-generic core of
    /// [`RobustLeaseTable::recover`]. `epoch` arbitrates concurrent
    /// recoverers: the recovery-epoch word is CASed upward, so exactly one
    /// caller wins per epoch value and the losers return untouched. The
    /// winner raises the admission gate, quarantines torn slots and frees
    /// dead owners' slots. `is_dead_pid` judges a registered owner's pid;
    /// `presume_all_dead` skips the judgment for whole-fleet restarts, where
    /// *every* prior owner — raw tags included — is known gone.
    ///
    /// Deterministic given its inputs (no OS probes of its own), so the
    /// model checker drives it directly.
    pub fn recover_with(
        &self,
        ctx: &mut ProcessCtx,
        epoch: u64,
        mut is_dead_pid: impl FnMut(u32) -> bool,
        presume_all_dead: bool,
    ) -> RecoveryReport {
        let timer = obs::start();
        let mut seen = self.recovered_epoch.read(ctx);
        while seen < epoch {
            match self.recovered_epoch.compare_and_swap(ctx, seen, epoch) {
                Ok(_) => break,
                Err(actual) => seen = actual,
            }
        }
        if seen >= epoch {
            return RecoveryReport {
                epoch: self.last_recovered_epoch(),
                ..RecoveryReport::default()
            };
        }
        obs::count(obs::Metric::RecoverRuns);
        // Raise the admission gate around the scan.
        self.gate.write(ctx, 1);
        let mut dead_pids = Vec::new();
        let (reclaimed, quarantined) = self.reclaim_scan(
            ctx,
            true,
            |tag| presume_all_dead || self.owner_is_dead(tag, &mut is_dead_pid, &mut dead_pids),
            RECOVERED,
        );
        self.gate.write(ctx, 0);
        obs::finish(timer, obs::Metric::RecoverNs);
        RecoveryReport {
            won: true,
            epoch,
            reclaimed,
            quarantined,
            dead_pids,
        }
    }

    /// Recovers the table after attaching by path — the OS-facing entry the
    /// chaos harness and restartable deployments call before serving.
    ///
    /// * The epoch is the arena's attach epoch
    ///   ([`shmem::arena::Arena::attach_epoch`]) when the table lives in a
    ///   file-backed arena, else one past the table's last recovered epoch —
    ///   so every fresh attach is entitled to one recovery run, and two
    ///   attachers racing the *same* epoch resolve to one winner.
    /// * Whole-fleet restarts are self-detected: if no registered pid probes
    ///   alive, every held slot's owner is presumed dead, raw tags
    ///   included. (A table nobody ever registered with counts as such a
    ///   restart; cross-process deployments must register before acquiring
    ///   for the detection to be sound.) Otherwise only provably dead owners
    ///   (stale registrations, dead registered pids) are reclaimed —
    ///   attaching to a *live* fleet recovers nothing it shouldn't.
    /// * Every dead registered pid is reported to
    ///   [`obs::postmortem::notify_dead`] (whether or not it still held
    ///   leases), dumping its flight-recorder tail if one is installed.
    #[cfg(all(unix, not(miri)))]
    pub fn recover(&self, ctx: &mut ProcessCtx) -> RecoveryReport {
        let epoch = self
            .arena
            .attach_epoch()
            .unwrap_or_else(|| self.last_recovered_epoch() + 1);
        let registered: Vec<u32> = self.registrations().iter().map(Registration::pid).collect();
        let presume_all_dead = registered.iter().all(|&pid| os_process_dead(pid));
        let mut report = self.recover_with(ctx, epoch, os_process_dead, presume_all_dead);
        if report.won {
            // Postmortems for every dead registration, not only those that
            // still held leases — a process that crashed between release and
            // exit still has a tail worth dumping.
            for pid in registered {
                if os_process_dead(pid) && !report.dead_pids.contains(&pid) {
                    report.dead_pids.push(pid);
                }
            }
            for &pid in &report.dead_pids {
                obs::postmortem::notify_dead(pid);
            }
        }
        report
    }

    /// The one reclaim scan behind [`sweep`](Self::sweep),
    /// [`sweep_dead_processes`](Self::sweep_dead_processes) and
    /// [`recover_with`](Self::recover_with). Reads every slot once and, for
    /// each held one, either parks it on the quarantine list (a torn slot —
    /// owner tag 0 — when `quarantine_torn`), frees it with the
    /// `HELD(g) → FREE(g)` CAS (`is_dead` judges its owner gone), or keeps
    /// it. Returns the names reclaimed and the slots newly quarantined.
    fn reclaim_scan(
        &self,
        ctx: &mut ProcessCtx,
        quarantine_torn: bool,
        mut is_dead: impl FnMut(u32) -> bool,
        reclaimed_as: Reclaim,
    ) -> (usize, usize) {
        let (mut reclaimed, mut quarantined) = (0, 0);
        for (index, slot) in self.slots.iter().enumerate() {
            let name = index + 1;
            let word = slot.read(ctx);
            if !is_held(word) {
                continue;
            }
            if quarantine_torn && owner(word) == 0 {
                // Torn: claimed but no owner published. Indeterminate — park
                // it for the next sweep instead of guessing.
                quarantined += usize::from(self.quarantine_name(ctx, name));
            } else if is_dead(owner(word))
                && self.free_slot(ctx, name, word, pack_free(generation(word)), reclaimed_as)
            {
                reclaimed += 1;
            }
        }
        (reclaimed, quarantined)
    }

    /// Frees `name`'s slot with the single CAS `observed → freed` and, if it
    /// lands, counts the completed `HELD → FREE` transition in the release
    /// stamp and in telemetry. Returns whether this call made the
    /// transition.
    fn free_slot(
        &self,
        ctx: &mut ProcessCtx,
        name: usize,
        observed: u64,
        freed: u64,
        (metric, event): Reclaim,
    ) -> bool {
        let landed = self.slots[name - 1]
            .compare_and_swap(ctx, observed, freed)
            .is_ok();
        if landed {
            self.releases.fetch_add(ctx, 1);
            obs::count(metric);
            obs::event(event, name as u64, owner(observed) as u64);
        }
        landed
    }

    /// The owner verdict shared by every OS-judged scan: whether the owner
    /// behind `tag` is provably gone. A raw in-process tag never is; a
    /// stale registration always is; a current registration's pid is
    /// judged by `is_dead_pid`, and each pid judged dead is collected once
    /// into `dead_pids` for postmortem notification.
    fn owner_is_dead(
        &self,
        tag: u32,
        is_dead_pid: &mut impl FnMut(u32) -> bool,
        dead_pids: &mut Vec<u32>,
    ) -> bool {
        match self.tag_status(tag) {
            TagStatus::Raw => false,
            TagStatus::Stale => true,
            TagStatus::Registered(pid) => {
                let dead = is_dead_pid(pid);
                if dead && !dead_pids.contains(&pid) {
                    dead_pids.push(pid);
                }
                dead
            }
        }
    }

    /// Registers `pid` with the table, claiming a registry slot and a fresh
    /// start-generation; the returned [`Registration`]'s
    /// [`tag`](Registration::tag) is the owner tag this process should
    /// stamp into its leases. A slot is claimable if it is empty or already
    /// carries `pid` (re-registration bumps the generation, immediately
    /// staling the previous incarnation's leases). This variant never
    /// probes the OS, so it is deterministic under miri and the virtual
    /// executor; cross-process callers use
    /// [`RobustLeaseTable::register_current_process`], which also recycles
    /// dead processes' slots.
    ///
    /// # Errors
    ///
    /// Returns [`RenamingError::CapacityExceeded`] when no registry slot is
    /// claimable.
    pub fn register_process(&self, pid: u32) -> Result<Registration, RenamingError> {
        self.claim_registry_slot(pid, |_| false)
    }

    /// Registers the calling OS process ([`shmem::arena::os_pid`]),
    /// additionally reclaiming registry slots whose pid no longer probes
    /// alive — a restart registers over its dead predecessors. The
    /// generation bump on reclaim is what keeps this sound: the dead
    /// incarnation's leases carry the old generation, so sweeps judge them
    /// stale.
    #[cfg(all(unix, not(miri)))]
    pub fn register_current_process(&self) -> Result<Registration, RenamingError> {
        self.claim_registry_slot(shmem::arena::os_pid(), os_process_dead)
    }

    fn claim_registry_slot(
        &self,
        pid: u32,
        mut reclaimable: impl FnMut(u32) -> bool,
    ) -> Result<Registration, RenamingError> {
        assert!(pid != 0, "pid 0 is the registry's empty-slot marker");
        for (index, word) in self.registry.iter().enumerate() {
            let mut seen = word.load(Ordering::SeqCst);
            loop {
                let (old_pid, old_gen) = (seen as u32, (seen >> REG_GEN_SHIFT) as u32);
                if old_pid != 0 && old_pid != pid && !reclaimable(old_pid) {
                    break; // occupied by a live stranger; next slot
                }
                // Skip generations whose low tag bits are zero so a tag is
                // never 0 (0 is the torn-slot marker in lease words).
                let mut generation = old_gen.wrapping_add(1);
                if generation & TAG_GEN_MASK == 0 {
                    generation = generation.wrapping_add(1);
                }
                let claimed = ((generation as u64) << REG_GEN_SHIFT) | pid as u64;
                match word.compare_exchange(seen, claimed, Ordering::SeqCst, Ordering::SeqCst) {
                    Ok(_) => {
                        return Ok(Registration {
                            slot: index as u32,
                            generation,
                            pid,
                        })
                    }
                    Err(actual) => seen = actual, // re-judge the slot
                }
            }
        }
        Err(RenamingError::CapacityExceeded {
            capacity: REGISTRY_SLOTS,
        })
    }

    /// Classifies an owner tag against the current registry.
    fn tag_status(&self, tag: u32) -> TagStatus {
        let slot = (tag >> TAG_SLOT_SHIFT) as usize;
        if slot == 0 {
            return TagStatus::Raw;
        }
        let Some(word) = self.registry.get(slot - 1) else {
            return TagStatus::Stale; // beyond REGISTRY_SLOTS: never issued
        };
        let current = word.load(Ordering::SeqCst);
        let (pid, generation) = (current as u32, (current >> REG_GEN_SHIFT) as u32);
        if pid != 0 && generation & TAG_GEN_MASK == tag & TAG_GEN_MASK {
            TagStatus::Registered(pid)
        } else {
            TagStatus::Stale
        }
    }

    /// The OS pid behind a held name's owner tag (harness/test inspection):
    /// `None` if the name is free or its tag does not resolve to a current
    /// registration.
    pub fn owner_pid(&self, name: usize) -> Option<u32> {
        match self.tag_status(self.holder(name)?) {
            TagStatus::Registered(pid) => Some(pid),
            _ => None,
        }
    }

    /// All current registrations, as `(registration, pid)`-bearing
    /// [`Registration`] values (harness/restart inspection).
    pub fn registrations(&self) -> Vec<Registration> {
        self.registry
            .iter()
            .enumerate()
            .filter_map(|(index, word)| {
                let current = word.load(Ordering::SeqCst);
                let pid = current as u32;
                (pid != 0).then_some(Registration {
                    slot: index as u32,
                    generation: (current >> REG_GEN_SHIFT) as u32,
                    pid,
                })
            })
            .collect()
    }

    /// Whether the admission gate is currently raised (inspection).
    pub fn admissions_gated(&self) -> bool {
        self.gate.peek() != 0
    }

    /// The highest recovery epoch claimed so far (inspection).
    pub fn last_recovered_epoch(&self) -> u64 {
        self.recovered_epoch.peek()
    }

    /// Parks `name` on the quarantine list (idempotent: returns whether
    /// this call set the bit). Recovery quarantines slots it finds torn —
    /// held with owner tag 0, the signature of a kill between an owner
    /// stamp and its publication — rather than guessing; the slot keeps its
    /// held flag (the name stays ungrantable) until the next sweep drains
    /// the list and repairs it.
    fn quarantine_name(&self, ctx: &mut ProcessCtx, name: usize) -> bool {
        assert!(
            (1..=self.capacity).contains(&name),
            "name {name} outside the table's 1..={} namespace",
            self.capacity
        );
        let (word, bit) = (&self.quarantine[(name - 1) / 64], 1u64 << ((name - 1) % 64));
        let mut seen = word.read(ctx);
        loop {
            if seen & bit != 0 {
                return false;
            }
            match word.compare_and_swap(ctx, seen, seen | bit) {
                Ok(_) => {
                    obs::count(obs::Metric::RobustQuarantined);
                    obs::event(obs::EventKind::Quarantined, name as u64, 0);
                    return true;
                }
                Err(actual) => seen = actual,
            }
        }
    }

    /// Names currently quarantined (inspection).
    pub fn quarantined(&self) -> usize {
        self.quarantine
            .iter()
            .map(|word| word.peek().count_ones() as usize)
            .sum()
    }

    /// Drains the quarantine list: each bit is claimed with a CAS (so
    /// concurrent drains split the work without double-repairing) and its
    /// slot, if still torn, is repaired `HELD(g, 0) → FREE(g + 1)` — the
    /// generation bump makes any straggler CAS against the torn word fail,
    /// exactly like a regrant. Returns the number of slots repaired.
    #[cfg_attr(not(all(unix, not(miri))), allow(dead_code))]
    fn drain_quarantine(&self, ctx: &mut ProcessCtx) -> usize {
        let mut repaired = 0;
        for (word_index, word) in self.quarantine.iter().enumerate() {
            loop {
                let bits = word.read(ctx);
                if bits == 0 {
                    break;
                }
                let bit = bits & bits.wrapping_neg();
                if word.compare_and_swap(ctx, bits, bits & !bit).is_err() {
                    continue; // someone else drained a bit; re-read
                }
                let name = word_index * 64 + bit.trailing_zeros() as usize + 1;
                let observed = self.slot(name).read(ctx);
                let repair = pack_free(next_generation(generation(observed)));
                if is_held(observed)
                    && owner(observed) == 0
                    && self.free_slot(ctx, name, observed, repair, SWEPT)
                {
                    repaired += 1;
                }
            }
        }
        repaired
    }

    /// Injects a torn slot — `FREE(g) → HELD(g + 1, owner 0)`, the state a
    /// kill between claiming a slot and publishing a real owner leaves
    /// behind. Chaos-harness fault hook; returns whether the injection
    /// landed (the name was free).
    pub fn inject_torn_slot(&self, ctx: &mut ProcessCtx, name: usize) -> bool {
        let slot = self.slot(name);
        let word = slot.read(ctx);
        !is_held(word)
            && slot
                .compare_and_swap(ctx, word, pack_held(next_generation(generation(word)), 0))
                .is_ok()
    }

    /// A flat copy of the table's observable lease state — every slot word,
    /// the quarantine bitmap, and the transition count. Two snapshots being
    /// equal means the namespaces are byte-identical; the recovery
    /// idempotence tests pin `recover ∘ recover = recover` with it. (The
    /// recovery epoch itself is deliberately excluded: it is arbitration
    /// state, not lease state.)
    pub fn state_snapshot(&self) -> Vec<u64> {
        self.slots
            .iter()
            .map(AtomicU64Register::peek)
            .chain(self.quarantine.iter().map(AtomicU64Register::peek))
            .chain(std::iter::once(self.releases.peek() as u64))
            .collect()
    }

    /// The owner of a held name, or `None` if the name is free
    /// (harness/test inspection only, never from algorithm code).
    pub fn holder(&self, name: usize) -> Option<u32> {
        let word = self.slot(name).peek();
        is_held(word).then(|| owner(word))
    }

    /// The generation stamped on a name's slot (harness/test inspection).
    pub fn generation_of(&self, name: usize) -> u64 {
        generation(self.slot(name).peek())
    }

    /// The number of completed `HELD → FREE` transitions, by releasers and
    /// sweepers combined (harness/test inspection). Exactly-once means this
    /// equals the number of completed grants at any quiescent point.
    pub fn transitions(&self) -> usize {
        self.releases.peek()
    }

    fn slot(&self, name: usize) -> &AtomicU64Register {
        assert!(
            (1..=self.capacity).contains(&name),
            "name {name} outside the table's 1..={} namespace",
            self.capacity
        );
        &self.slots[name - 1]
    }
}

impl LongLivedRenaming for RobustLeaseTable {
    fn lease(self: Arc<Self>, ctx: &mut ProcessCtx) -> Result<NameLease, RenamingError> {
        let name = self.lease_raw(ctx)?;
        Ok(NameLease::new(name, self))
    }

    /// The trait path stamps ownership with the simulated process identity
    /// (`ctx.id() + 1`, kept nonzero); cross-process callers use
    /// [`RobustLeaseTable::acquire`] directly with their OS pid.
    fn lease_raw(&self, ctx: &mut ProcessCtx) -> Result<usize, RenamingError> {
        let owner_tag = (ctx.id().as_u64() as u32).wrapping_add(1);
        self.acquire(ctx, owner_tag)
    }

    fn release_raw(&self, name: usize) {
        // The raw path has no caller context to charge; release through an
        // ephemeral one (step accounting lands nowhere, exactly like the
        // other recyclers' unaccounted release paths).
        let mut ctx = ProcessCtx::new(ProcessId::new(0), 0);
        self.release(&mut ctx, name);
    }

    fn max_concurrent(&self) -> Option<usize> {
        Some(self.capacity)
    }

    fn live_leases(&self) -> usize {
        self.slots
            .iter()
            .filter(|slot| is_held(slot.peek()))
            .count()
    }
}

impl fmt::Debug for RobustLeaseTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RobustLeaseTable")
            .field("capacity", &self.capacity)
            .field("live", &self.live_leases())
            .field("transitions", &self.transitions())
            .field("backend", &self.arena.backend())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(id: usize) -> ProcessCtx {
        ProcessCtx::new(ProcessId::new(id), 17)
    }

    #[test]
    fn slot_words_pack_and_unpack() {
        for (g, o) in [(0u64, 0u32), (1, 71), (GEN_MASK, u32::MAX)] {
            let free = pack_free(g);
            assert!(!is_held(free));
            assert_eq!(generation(free), g);
            let held = pack_held(g, o);
            assert!(is_held(held));
            assert_eq!(generation(held), g);
            assert_eq!(owner(held), o);
        }
        assert_eq!(next_generation(GEN_MASK), 0, "generations wrap in-field");
        assert_eq!(
            pack_free(GEN_MASK) & HELD_BIT,
            0,
            "gen never leaks into the flag"
        );
    }

    #[test]
    fn acquire_grants_lowest_free_names_and_bumps_generations() {
        let table = RobustLeaseTable::with_capacity(3);
        let mut ctx = ctx(0);
        assert_eq!(table.acquire(&mut ctx, 7).unwrap(), 1);
        assert_eq!(table.acquire(&mut ctx, 7).unwrap(), 2);
        assert_eq!(table.holder(1), Some(7));
        assert_eq!(table.generation_of(1), 1);
        assert!(table.release(&mut ctx, 1));
        assert_eq!(table.holder(1), None);
        // The freed minimum is reused, with a bumped generation.
        assert_eq!(table.acquire(&mut ctx, 9).unwrap(), 1);
        assert_eq!(table.generation_of(1), 2);
        assert_eq!(table.holder(1), Some(9));
    }

    #[test]
    fn exhaustion_is_reported_and_recovers() {
        let table = RobustLeaseTable::with_capacity(2);
        let mut ctx = ctx(0);
        table.acquire(&mut ctx, 1).unwrap();
        table.acquire(&mut ctx, 1).unwrap();
        assert!(matches!(
            table.acquire(&mut ctx, 1),
            Err(RenamingError::CapacityExceeded { capacity: 2 })
        ));
        assert!(table.release(&mut ctx, 2));
        assert_eq!(table.acquire(&mut ctx, 1).unwrap(), 2);
    }

    #[test]
    fn release_is_exactly_once() {
        let table = RobustLeaseTable::with_capacity(2);
        let mut ctx = ctx(0);
        let name = table.acquire(&mut ctx, 3).unwrap();
        assert!(table.release(&mut ctx, name));
        assert!(!table.release(&mut ctx, name), "double release is a no-op");
        assert_eq!(table.transitions(), 1);
    }

    #[test]
    fn sweep_reclaims_dead_owners_only() {
        let table = RobustLeaseTable::with_capacity(4);
        let mut ctx = ctx(0);
        let dead = table.acquire(&mut ctx, 100).unwrap();
        let live = table.acquire(&mut ctx, 200).unwrap();
        assert_eq!(table.sweep(&mut ctx, |o| o == 100), 1);
        assert_eq!(table.holder(dead), None);
        assert_eq!(table.holder(live), Some(200));
        // The reclaimed minimum is immediately grantable again.
        assert_eq!(table.acquire(&mut ctx, 300).unwrap(), dead);
        // A second sweep for the same owner finds nothing.
        assert_eq!(table.sweep(&mut ctx, |o| o == 100), 0);
        assert_eq!(table.transitions(), 1);
    }

    #[test]
    fn tardy_release_after_a_sweep_cannot_free_the_regrant() {
        // The ABA guard: sweep frees HELD(g), a new grant takes the slot at
        // g+1; the tardy owner's release must fail against the regrant.
        let table = RobustLeaseTable::with_capacity(1);
        let mut ctx = ctx(0);
        let name = table.acquire(&mut ctx, 1).unwrap();
        assert_eq!(table.sweep(&mut ctx, |_| true), 1);
        assert_eq!(table.acquire(&mut ctx, 2).unwrap(), name);
        // A release targeting the regrant *would* free it (release checks
        // the held flag, not the caller's identity) — but the slot the
        // tardy releaser observed carried generation 1, and a CAS against
        // that stale word fails. Simulate it at the packing level:
        assert_ne!(
            pack_held(1, 1),
            table.slot(name).peek(),
            "the regrant's word differs, so the stale CAS cannot apply"
        );
        assert_eq!(table.generation_of(name), 2);
    }

    #[test]
    fn arena_backed_table_has_an_exact_footprint() {
        let arena = Arena::heap(RobustLeaseTable::footprint(8));
        let table = RobustLeaseTable::with_capacity_in(&arena, 8);
        assert_eq!(arena.remaining(), 0, "footprint is exact");
        let mut ctx = ctx(0);
        assert_eq!(table.acquire(&mut ctx, 5).unwrap(), 1);
        assert_eq!(table.live_leases(), 1);
    }

    #[test]
    fn the_long_lived_trait_surface_works() {
        let table: Arc<dyn LongLivedRenaming> = Arc::new(RobustLeaseTable::with_capacity(4));
        assert_eq!(table.max_concurrent(), Some(4));
        let mut ctx = ctx(6);
        let lease = Arc::clone(&table).lease(&mut ctx).unwrap();
        assert_eq!(lease.name(), 1);
        assert_eq!(table.live_leases(), 1);
        drop(lease);
        assert_eq!(table.live_leases(), 0);
        let raw = table.lease_raw(&mut ctx).unwrap();
        table.release_raw(raw);
        assert_eq!(table.live_leases(), 0);
    }

    #[test]
    fn registration_tags_are_disjoint_from_raw_tags_and_stale_out() {
        let table = RobustLeaseTable::with_capacity(4);
        let first = table.register_process(500).unwrap();
        assert!(
            first.tag() >= 1 << TAG_SLOT_SHIFT,
            "registration tags live above the raw-tag range"
        );
        assert_eq!(table.tag_status(7), TagStatus::Raw);
        assert_eq!(table.tag_status(first.tag()), TagStatus::Registered(500));

        // Re-registering the same pid reuses the slot with a bumped
        // generation: the first incarnation's tag goes stale.
        let second = table.register_process(500).unwrap();
        assert_eq!(second.slot(), first.slot());
        assert_ne!(second.tag(), first.tag());
        assert_eq!(table.tag_status(first.tag()), TagStatus::Stale);
        assert_eq!(table.tag_status(second.tag()), TagStatus::Registered(500));

        // A tag fabricated for a never-issued slot is stale, not a panic.
        let bogus = ((REGISTRY_SLOTS as u32) + 5) << TAG_SLOT_SHIFT;
        assert_eq!(table.tag_status(bogus), TagStatus::Stale);
    }

    #[test]
    fn registry_exhaustion_is_reported() {
        let table = RobustLeaseTable::with_capacity(1);
        for pid in 1..=REGISTRY_SLOTS as u32 {
            table.register_process(pid).unwrap();
        }
        assert!(matches!(
            table.register_process(9999),
            Err(RenamingError::CapacityExceeded { capacity }) if capacity == REGISTRY_SLOTS
        ));
    }

    /// The pid-reuse regression: `kill(pid, 0)` succeeding proves *a*
    /// process with that pid is alive, not *our* owner. Simulate the
    /// recycled-pid scenario with this test's own (certainly alive) pid:
    /// the dead incarnation's lease must be reclaimed anyway, because its
    /// registration generation no longer matches.
    #[test]
    #[cfg(all(unix, not(miri)))]
    fn sweep_is_not_fooled_by_a_recycled_pid() {
        let alive_pid = shmem::arena::os_pid();
        let table = RobustLeaseTable::with_capacity(4);
        let mut ctx = ctx(0);

        // Incarnation one registers, leases, and "crashes"; the OS then
        // hands its pid to a new process, which registers over the slot.
        let dead_incarnation = table.register_process(alive_pid).unwrap();
        let orphaned = table.acquire(&mut ctx, dead_incarnation.tag()).unwrap();
        let new_incarnation = table.register_process(alive_pid).unwrap();
        let live_name = table.acquire(&mut ctx, new_incarnation.tag()).unwrap();

        // The pid probes alive — a raw-pid sweep would leak `orphaned`
        // forever. The generation check reclaims it and keeps `live_name`.
        assert!(shmem::arena::os_process_alive(alive_pid));
        assert_eq!(table.sweep_dead_processes(&mut ctx), 1);
        assert_eq!(table.holder(orphaned), None);
        assert_eq!(table.holder(live_name), Some(new_incarnation.tag()));
        assert_eq!(table.owner_pid(live_name), Some(alive_pid));

        // Raw in-process tags are left alone: the OS cannot prove them dead.
        let raw = table.acquire(&mut ctx, 3).unwrap();
        assert_eq!(table.sweep_dead_processes(&mut ctx), 0);
        assert_eq!(table.holder(raw), Some(3));
    }

    #[test]
    #[cfg(all(unix, not(miri)))]
    fn register_current_process_recycles_dead_registrations() {
        let table = RobustLeaseTable::with_capacity(2);
        // Fill the registry with pids that cannot be alive (beyond pid_max
        // is unprobeable; use distinct large u32 values — `kill` rejects
        // them with ESRCH, which os_process_alive reports as dead).
        for pid in 0..REGISTRY_SLOTS as u32 {
            table.register_process(0x7000_0000 + pid).unwrap();
        }
        // A full registry of corpses still admits the living.
        let mine = table.register_current_process().unwrap();
        assert_eq!(mine.pid(), shmem::arena::os_pid());
        assert_eq!(
            table.tag_status(mine.tag()),
            TagStatus::Registered(mine.pid())
        );
    }

    #[test]
    fn quarantined_names_stay_ungrantable_until_drained() {
        let table = RobustLeaseTable::with_capacity(2);
        let mut ctx = ctx(0);
        assert!(table.inject_torn_slot(&mut ctx, 1));
        assert!(table.quarantine_name(&mut ctx, 1));
        assert!(!table.quarantine_name(&mut ctx, 1), "idempotent");
        assert_eq!(table.quarantined(), 1);
        // The torn slot holds its name: only slot 2 is grantable.
        assert_eq!(table.acquire(&mut ctx, 9).unwrap(), 2);
        assert!(matches!(
            table.acquire(&mut ctx, 9),
            Err(RenamingError::CapacityExceeded { .. })
        ));
        // Draining repairs the slot with a generation bump (ABA-safe) and
        // the name comes back.
        let torn_generation = table.generation_of(1);
        assert_eq!(table.drain_quarantine(&mut ctx), 1);
        assert_eq!(table.quarantined(), 0);
        assert_eq!(table.generation_of(1), torn_generation + 1);
        assert_eq!(table.acquire(&mut ctx, 9).unwrap(), 1);
        // A drained bit does not come back; re-draining is a no-op.
        assert_eq!(table.drain_quarantine(&mut ctx), 0);
    }

    #[test]
    fn a_raised_gate_bounds_exhaustion_retries_instead_of_hanging() {
        let table = RobustLeaseTable::with_capacity(1);
        let mut ctx = ctx(0);
        table.acquire(&mut ctx, 1).unwrap();
        table.gate.write(&mut ctx, 1);
        assert!(table.admissions_gated());
        // Nobody will release: the bounded backoff must expire into the
        // ordinary capacity error, not spin forever.
        assert!(matches!(
            table.acquire(&mut ctx, 2),
            Err(RenamingError::CapacityExceeded { capacity: 1 })
        ));
        table.gate.write(&mut ctx, 0);
        assert!(!table.admissions_gated());
    }

    #[test]
    fn a_release_during_a_gated_wait_is_picked_up() {
        // The gate's purpose: an acquirer that would have failed keeps
        // rescanning while recovery frees capacity under it.
        let table = Arc::new(RobustLeaseTable::with_capacity(1));
        let mut ctx = ctx(0);
        let name = table.acquire(&mut ctx, 1).unwrap();
        table.gate.write(&mut ctx, 1);
        let releaser = {
            let table = Arc::clone(&table);
            std::thread::spawn(move || {
                let mut ctx = ProcessCtx::new(ProcessId::new(1), 5);
                table.release(&mut ctx, name);
                table.gate.write(&mut ctx, 0);
            })
        };
        // Whether the release lands mid-scan (ordinary rescan) or during a
        // gated snooze (the new path), the acquire must eventually succeed
        // once the releaser has run; retry across backoff expiries so the
        // test is schedule-independent.
        let granted = loop {
            match table.acquire(&mut ctx, 2) {
                Ok(granted) => break granted,
                Err(_) => std::thread::yield_now(),
            }
        };
        releaser.join().unwrap();
        assert_eq!(granted, name);
        assert_eq!(table.holder(name), Some(2));
    }

    #[test]
    fn concurrent_churn_with_a_lying_sweeper_transitions_exactly_once() {
        // Threads churn acquire/release while a sweeper declares everyone
        // dead: every grant's HELD → FREE transition must happen exactly
        // once no matter who performs it.
        let threads = 4usize;
        let cycles = if cfg!(miri) { 10 } else { 300 };
        let table = Arc::new(RobustLeaseTable::with_capacity(threads));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let sweeper = {
            let table = Arc::clone(&table);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut ctx = ctx(99);
                let mut swept = 0usize;
                while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                    swept += table.sweep(&mut ctx, |_| true);
                }
                swept
            })
        };
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let table = Arc::clone(&table);
                std::thread::spawn(move || {
                    let mut ctx = ctx(t);
                    let mut granted = 0usize;
                    for _ in 0..cycles {
                        if let Ok(name) = table.acquire(&mut ctx, t as u32 + 1) {
                            granted += 1;
                            table.release(&mut ctx, name);
                        }
                    }
                    granted
                })
            })
            .collect();
        let granted: usize = workers.into_iter().map(|w| w.join().unwrap()).sum();
        stop.store(true, std::sync::atomic::Ordering::SeqCst);
        let swept = sweeper.join().unwrap();
        // Quiescent now: every grant was freed by exactly one transition.
        assert_eq!(table.live_leases(), 0);
        assert_eq!(table.transitions(), granted);
        assert!(swept <= granted);
    }

    #[test]
    fn recovery_reclaims_presumed_dead_owners_and_wins_once_per_epoch() {
        let table = RobustLeaseTable::with_capacity(4);
        let mut ctx = ctx(0);
        let registration = table.register_process(4242).unwrap();
        let a = table.acquire(&mut ctx, registration.tag()).unwrap();
        let b = table.acquire(&mut ctx, registration.tag()).unwrap();

        let report = table.recover_with(&mut ctx, 1, |_| true, true);
        assert!(report.won);
        assert_eq!(report.reclaimed, 2);
        assert_eq!(table.holder(a), None);
        assert_eq!(table.holder(b), None);
        assert!(
            !table.admissions_gated(),
            "the gate is lowered on the way out"
        );

        // Same epoch again: the CAS is already claimed — nothing runs.
        let again = table.recover_with(&mut ctx, 1, |_| true, true);
        assert!(!again.won);
        assert_eq!(again.reclaimed, 0);
    }

    #[test]
    fn recovery_is_idempotent_on_the_observable_state() {
        let table = RobustLeaseTable::with_capacity(8);
        let mut ctx = ctx(0);
        let registration = table.register_process(77).unwrap();
        for _ in 0..3 {
            table.acquire(&mut ctx, registration.tag()).unwrap();
        }
        table.inject_torn_slot(&mut ctx, 5);

        let first = table.recover_with(&mut ctx, 1, |_| true, true);
        assert!(first.won);
        assert_eq!(first.quarantined, 1);
        let snapshot = table.state_snapshot();

        // A later epoch wins again but finds nothing left to change.
        let second = table.recover_with(&mut ctx, 2, |_| true, true);
        assert!(second.won);
        assert_eq!(second.reclaimed, 0);
        assert_eq!(second.quarantined, 0, "quarantining is idempotent");
        assert_eq!(table.state_snapshot(), snapshot, "byte-identical state");

        // The quarantined torn slot is repaired by the next sweep-style
        // drain, after which the name is grantable exactly once.
        assert_eq!(table.drain_quarantine(&mut ctx), 1);
        assert_eq!(table.quarantined(), 0);
        assert_eq!(table.acquire(&mut ctx, registration.tag()).unwrap(), 1);
    }

    #[test]
    fn live_owners_survive_a_non_restart_recovery() {
        let table = RobustLeaseTable::with_capacity(4);
        let mut ctx = ctx(0);
        let live = table.register_process(100).unwrap();
        let dead = table.register_process(200).unwrap();
        let live_name = table.acquire(&mut ctx, live.tag()).unwrap();
        let dead_name = table.acquire(&mut ctx, dead.tag()).unwrap();
        // A raw in-process lease is never provably dead.
        let raw_name = table.acquire(&mut ctx, 7).unwrap();

        let report = table.recover_with(&mut ctx, 1, |pid| pid == 200, false);
        assert!(report.won);
        assert_eq!(report.reclaimed, 1);
        assert_eq!(report.dead_pids, vec![200]);
        assert_eq!(table.holder(live_name), Some(live.tag()));
        assert_eq!(table.holder(dead_name), None);
        assert_eq!(table.holder(raw_name), Some(7));
    }
}
