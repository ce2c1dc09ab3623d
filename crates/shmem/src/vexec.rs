//! Deterministic virtual executor: cooperative serialization of process
//! threads at every shared-memory operation.
//!
//! The threaded [`Executor`](crate::executor::Executor) lets the OS scheduler
//! interleave processes, which samples schedules but can neither enumerate nor
//! replay them. The [`VirtualExecutor`] instead runs the *same* process
//! closures under a cooperative protocol: every process parks at each
//! shared-memory operation (the [`ProcessCtx::record_at`] instrumentation
//! point, called by every register before the underlying atomic executes) and
//! announces the operation it is about to perform — its [`StepKind`], the
//! [`Loc`] of the memory word it touches and its [`AccessClass`]. A
//! coordinator thread waits until every live process is parked, asks a
//! [`Scheduler`] to pick the next process, and grants exactly one process at a
//! time. The result is a fully serialized, deterministic execution whose
//! interleaving is chosen step by step — the substrate the `mcheck` crate's
//! DPOR/bounded/coverage explorers are built on.
//!
//! The schedule actually taken is returned as an [`ExecTrace`] alongside the
//! ordinary [`ExecutionOutcome`], and can be replayed verbatim through
//! [`ScheduleSource::Replay`](crate::adversary::ScheduleSource).
//!
//! # Example
//!
//! ```
//! use shmem::adversary::ExecConfig;
//! use shmem::register::AtomicU64Register;
//! use shmem::vexec::VirtualExecutor;
//! use std::sync::Arc;
//!
//! let reg = Arc::new(AtomicU64Register::new(0));
//! let exec = VirtualExecutor::new(ExecConfig::new(7));
//! let run = exec.run(3, {
//!     let reg = Arc::clone(&reg);
//!     move |ctx| {
//!         reg.write(ctx, ctx.id().as_u64() + 1);
//!         reg.read(ctx)
//!     }
//! });
//! assert_eq!(run.outcome.completed().count(), 3);
//! // Replaying the recorded schedule reproduces the execution exactly.
//! let replay = VirtualExecutor::new(
//!     ExecConfig::new(7).with_schedule(shmem::adversary::ScheduleSource::Replay(
//!         run.trace.schedule.clone(),
//!     )),
//! )
//! .run(3, {
//!     let reg = Arc::new(AtomicU64Register::new(0));
//!     move |ctx| {
//!         reg.write(ctx, ctx.id().as_u64() + 1);
//!         reg.read(ctx)
//!     }
//! });
//! assert_eq!(replay.trace.schedule, run.trace.schedule);
//! ```

use crate::adversary::{ExecConfig, ScheduleSource};
use crate::executor::{ExecutionOutcome, ProcessOutcome};
use crate::process::{install_crash_panic_silencer, CrashSignal, ProcessCtx, ProcessId};
use crate::steps::StepKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Identifier of a shared-memory location (one register, balancer word or
/// other atomic cell), used to key read/write dependency analysis.
///
/// Locations come from three disjoint tag spaces, so two operations
/// conflict only if they touch the same word:
///
/// * [`Loc::fresh`] draws an id from a global counter (ids from 1 up);
///   the word-sized registers of `shmem::register` take one at construction.
/// * [`Loc::of`] derives the location from a word's address at access time
///   (bit 62 set). Small objects built in bulk, such as the byte-wide
///   registers of the two-process test-and-set, use it so that
///   constructing them touches no global counter.
/// * Arena words derive theirs from the arena id and offset (bit 63 set;
///   see `Arena::loc_for`).
///
/// Raw ids are not stable across executions that rebuild their shared
/// objects (counter order and heap addresses may both differ), which the
/// dependency analysis does not need: locations are only ever compared
/// *within* one execution, and the explorers rename them by first
/// appearance.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Loc(u64);

static NEXT_LOC: AtomicU64 = AtomicU64::new(1);

/// Tag bit of address-derived locations ([`Loc::of`]).
const ADDRESS_TAG: u64 = 1 << 62;

impl Loc {
    /// The anonymous location, used by [`ProcessCtx::record`] call sites that
    /// predate location tracking. It conservatively conflicts with every
    /// other location.
    pub const ANON: Loc = Loc(0);

    /// Allocates a fresh, globally unique location identifier.
    pub fn fresh() -> Loc {
        Loc(NEXT_LOC.fetch_add(1, Ordering::Relaxed)) // lint: relaxed-ok(unique id allocation only; no data is published through this counter)
    }

    /// The location of the word `word` points at, derived from its address.
    ///
    /// Two live words never share an address, so their locations differ;
    /// the tag keeps them apart from counter ids and arena locations
    /// (user-space addresses stay below bit 62).
    #[inline]
    pub fn of<T>(word: &T) -> Loc {
        Loc(ADDRESS_TAG | (word as *const T as usize as u64 & (ADDRESS_TAG - 1)))
    }

    /// Whether this is the anonymous (conservatively conflicting) location.
    pub fn is_anon(&self) -> bool {
        self.0 == 0
    }

    /// The raw identifier.
    pub fn as_u64(&self) -> u64 {
        self.0
    }

    /// Reconstructs a location from a raw identifier (`0` is [`Loc::ANON`]).
    ///
    /// Intended for schedule-exploration tooling that renames locations into
    /// a run-local namespace (global allocation order is not stable across
    /// re-executions that rebuild their shared objects); renamed locations
    /// compare and conflict exactly like allocated ones.
    pub fn from_raw(raw: u64) -> Loc {
        Loc(raw)
    }
}

/// The dependency class of a shared-memory operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AccessClass {
    /// A purely local step (coin flips, accounting markers such as
    /// test-and-set invocation counts, arrival). Never conflicts.
    Local,
    /// A read of a shared location. Conflicts with writes and RMWs on the
    /// same location.
    Read,
    /// A write to a shared location. Conflicts with every access to the same
    /// location.
    Write,
    /// A read-modify-write (CAS, swap, fetch-add, balancer toggle,
    /// test-and-set word). Conflicts with every access to the same location.
    Rmw,
}

impl AccessClass {
    /// The dependency class implied by a [`StepKind`].
    ///
    /// `TasInvocation`, `Release` and `Elimination` are unit-cost accounting
    /// markers — the shared-memory operations they summarize are recorded
    /// separately by the registers involved — so they classify as `Local`.
    pub fn of(kind: StepKind) -> AccessClass {
        match kind {
            StepKind::RegisterRead => AccessClass::Read,
            StepKind::RegisterWrite => AccessClass::Write,
            StepKind::ReadModifyWrite | StepKind::Balancer => AccessClass::Rmw,
            StepKind::TasInvocation
            | StepKind::CoinFlip
            | StepKind::Release
            | StepKind::Elimination => AccessClass::Local,
        }
    }

    /// Whether this class can modify memory.
    pub fn is_writing(&self) -> bool {
        matches!(self, AccessClass::Write | AccessClass::Rmw)
    }
}

/// The operation a parked process has announced it will perform next.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PendingOp {
    /// The step kind, or `None` for the arrival pseudo-step a process takes
    /// before its closure runs.
    pub kind: Option<StepKind>,
    /// The location the operation touches ([`Loc::ANON`] if unknown).
    pub loc: Loc,
    /// The dependency class of the operation.
    pub access: AccessClass,
}

impl PendingOp {
    /// The arrival pseudo-operation each process announces before running.
    pub fn begin() -> PendingOp {
        PendingOp {
            kind: None,
            loc: Loc::ANON,
            access: AccessClass::Local,
        }
    }

    /// Builds the pending operation for a recorded step.
    pub fn step(kind: StepKind, loc: Loc) -> PendingOp {
        PendingOp {
            kind: Some(kind),
            loc,
            access: AccessClass::of(kind),
        }
    }

    /// Whether the two operations are *dependent*: reordering adjacent
    /// occurrences can change the execution. Local steps never conflict; an
    /// anonymous location conservatively conflicts with every non-local
    /// operation; otherwise two operations conflict iff they touch the same
    /// location and at least one writes it.
    pub fn conflicts_with(&self, other: &PendingOp) -> bool {
        if self.access == AccessClass::Local || other.access == AccessClass::Local {
            return false;
        }
        if self.loc.is_anon() || other.loc.is_anon() {
            return true;
        }
        self.loc == other.loc && (self.access.is_writing() || other.access.is_writing())
    }
}

/// Internal panic payload used by the coordinator to stop a process whose
/// execution the scheduler has abandoned (schedule truncation or sleep-set
/// pruning). The process is reported as crashed. User code never observes it.
#[derive(Clone, Copy, Debug)]
pub struct ScheduleAbort;

/// Installs a panic hook silencing the internal [`ScheduleAbort`] payload
/// (in addition to the [`CrashSignal`] silencer). Called by the virtual
/// executor; calling it multiple times is harmless.
pub fn install_abort_panic_silencer() {
    use std::sync::Once;
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<ScheduleAbort>().is_none() {
                previous(info);
            }
        }));
    });
}

#[derive(Debug, Default)]
struct GateState {
    pending: Option<PendingOp>,
    granted: bool,
    abort: bool,
    finished: bool,
}

/// The per-process rendezvous through which the coordinator serializes
/// shared-memory steps. Installed into each [`ProcessCtx`] by the virtual
/// executor; [`ProcessCtx::record_at`] parks on it before every non-local
/// operation.
#[derive(Default)]
pub(crate) struct Gate {
    state: Mutex<GateState>,
    cv: Condvar,
}

impl fmt::Debug for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Gate").finish_non_exhaustive()
    }
}

impl Gate {
    /// Worker side: announce `op`, block until the coordinator grants this
    /// process the next step. Returns `false` if the coordinator asked the
    /// process to abort instead of proceeding.
    pub(crate) fn park(&self, op: PendingOp) -> bool {
        let mut st = self.state.lock().expect("gate poisoned");
        st.pending = Some(op);
        self.cv.notify_all();
        while !st.granted {
            st = self.cv.wait(st).expect("gate poisoned");
        }
        st.granted = false;
        !st.abort
    }

    /// Worker side: mark the process finished (returned, crashed or aborted).
    fn mark_finished(&self) {
        let mut st = self.state.lock().expect("gate poisoned");
        st.finished = true;
        self.cv.notify_all();
    }

    /// Coordinator side: block until the process is parked (returning its
    /// announced operation) or finished (returning `None`).
    fn wait_parked(&self) -> Option<PendingOp> {
        let mut st = self.state.lock().expect("gate poisoned");
        loop {
            if let Some(op) = st.pending {
                return Some(op);
            }
            if st.finished {
                return None;
            }
            st = self.cv.wait(st).expect("gate poisoned");
        }
    }

    /// Coordinator side: let the parked process take its announced step (or
    /// abort it). Consumes `pending` here — not in [`Gate::park`] — so the
    /// coordinator's next [`Gate::wait_parked`] blocks until the worker
    /// actually reaches its *next* park rather than re-observing a stale op.
    fn grant(&self, abort: bool) {
        let mut st = self.state.lock().expect("gate poisoned");
        st.granted = true;
        st.abort = abort;
        st.pending = None;
        self.cv.notify_all();
    }
}

/// One granted step of a virtual execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpEvent {
    /// The process that took the step.
    pub pid: ProcessId,
    /// The operation it performed.
    pub op: PendingOp,
    /// Snapshot of every parked process and its announced operation at the
    /// moment of the scheduling decision, in process-index order. This is the
    /// "enabled set" the scheduler chose from.
    pub enabled: Vec<(ProcessId, PendingOp)>,
}

/// A recorded schedule: the sequence of processes granted steps, in order.
/// Replayable through [`ScheduleSource::Replay`]; entries that name a process
/// that is not enabled at replay time are skipped, and an exhausted schedule
/// falls back to the lowest-index enabled process, so shrunk or hand-edited
/// schedules still replay deterministically.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Schedule {
    /// The granted process at each step (arrival pseudo-steps included).
    pub choices: Vec<ProcessId>,
}

impl Schedule {
    /// Creates a schedule from explicit choices.
    pub fn new(choices: Vec<ProcessId>) -> Self {
        Schedule { choices }
    }

    /// Number of choices.
    pub fn len(&self) -> usize {
        self.choices.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.choices.is_empty()
    }
}

/// The full trace of one virtual execution.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ExecTrace {
    /// Every granted step, in execution order.
    pub events: Vec<OpEvent>,
    /// The schedule actually taken (the `pid` of each event, in order).
    pub schedule: Schedule,
    /// Whether the execution was cut off by the step budget.
    pub truncated: bool,
    /// Whether the scheduler abandoned the execution ([`SchedulerDecision::Abort`]).
    pub aborted: bool,
}

/// The decision a [`Scheduler`] returns at each step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedulerDecision {
    /// Grant the next step to this process (must be one of the enabled).
    Pick(ProcessId),
    /// Abandon the execution: all remaining processes are aborted and
    /// reported as crashed, and the trace is marked
    /// [`aborted`](ExecTrace::aborted).
    Abort,
}

/// Chooses the next process to step at each point of a virtual execution.
///
/// `enabled` is non-empty and sorted by process index; each entry carries the
/// operation the process will perform if granted. Implementations must be
/// deterministic functions of their own state and the arguments for replays
/// to be byte-identical.
pub trait Scheduler: Send {
    /// Chooses the process to grant the `step`-th step (0-based).
    fn choose(&mut self, step: usize, enabled: &[(ProcessId, PendingOp)]) -> SchedulerDecision;
}

/// A uniformly random scheduler, seeded for reproducibility.
#[derive(Debug)]
pub struct RandomScheduler {
    rng: StdRng,
}

impl RandomScheduler {
    /// Creates the scheduler from a seed.
    pub fn new(seed: u64) -> Self {
        RandomScheduler {
            rng: StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1)),
        }
    }
}

impl Scheduler for RandomScheduler {
    fn choose(&mut self, _step: usize, enabled: &[(ProcessId, PendingOp)]) -> SchedulerDecision {
        let i = self.rng.gen_range(0..enabled.len());
        SchedulerDecision::Pick(enabled[i].0)
    }
}

/// Replays a recorded [`Schedule`]. Choices naming a process that is not
/// currently enabled are skipped; once the schedule is exhausted the lowest
/// enabled process is chosen, so arbitrary subsequences of a valid schedule
/// (as produced by ddmin minimization) remain replayable.
#[derive(Clone, Debug)]
pub struct ReplayScheduler {
    choices: Vec<ProcessId>,
    pos: usize,
}

impl ReplayScheduler {
    /// Creates the scheduler from a recorded schedule.
    pub fn new(schedule: Schedule) -> Self {
        ReplayScheduler {
            choices: schedule.choices,
            pos: 0,
        }
    }
}

impl Scheduler for ReplayScheduler {
    fn choose(&mut self, _step: usize, enabled: &[(ProcessId, PendingOp)]) -> SchedulerDecision {
        while self.pos < self.choices.len() {
            let c = self.choices[self.pos];
            self.pos += 1;
            if enabled.iter().any(|(p, _)| *p == c) {
                return SchedulerDecision::Pick(c);
            }
        }
        SchedulerDecision::Pick(enabled[0].0)
    }
}

/// A cloneable, comparable handle to a shared [`Scheduler`], so that
/// [`ScheduleSource::Explore`] fits in the `Clone + Debug + PartialEq`
/// derives of [`ExecConfig`]. The explorer keeps a clone and inspects or
/// reseeds the scheduler between executions.
#[derive(Clone)]
pub struct ExploreHandle {
    inner: Arc<Mutex<dyn Scheduler>>,
}

impl ExploreHandle {
    /// Wraps a scheduler in a shareable handle.
    pub fn new<S: Scheduler + 'static>(scheduler: S) -> Self {
        ExploreHandle {
            inner: Arc::new(Mutex::new(scheduler)),
        }
    }

    /// Locks the underlying scheduler for a scheduling decision or for
    /// between-execution state manipulation.
    pub fn lock(&self) -> std::sync::MutexGuard<'_, dyn Scheduler + 'static> {
        self.inner.lock().expect("explore handle poisoned")
    }
}

impl fmt::Debug for ExploreHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExploreHandle").finish_non_exhaustive()
    }
}

impl PartialEq for ExploreHandle {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

/// The result of one virtual execution: the ordinary outcome plus the trace.
#[derive(Clone, Debug)]
pub struct VirtualRun<R> {
    /// Per-process results and step statistics, as from the threaded
    /// executor. Processes aborted by the scheduler are reported as crashed.
    pub outcome: ExecutionOutcome<R>,
    /// The serialized schedule taken and every operation performed.
    pub trace: ExecTrace,
}

/// Runs `k` processes one shared-memory step at a time under a
/// [`Scheduler`] chosen by the configuration's
/// [`ScheduleSource`].
///
/// Unlike the threaded [`Executor`](crate::executor::Executor), executions
/// are fully deterministic: the same configuration produces byte-identical
/// traces, step statistics and results. Arrival schedules and yield policies
/// are ignored (arrival order is part of the explored schedule; yields are
/// meaningless under cooperative serialization); crash plans are honored.
///
/// The executor requires process closures not to block on locks held across
/// a recorded step by another process. All objects in this workspace park
/// *before* acquiring any internal lock and release it before the next
/// recorded step, so they satisfy the requirement by construction.
#[derive(Clone, Debug)]
pub struct VirtualExecutor {
    config: ExecConfig,
    max_steps: u64,
}

/// Default per-execution step budget; a safety net against divergent
/// schedules, far above anything the small configurations explored by
/// `mcheck` take.
pub const DEFAULT_MAX_STEPS: u64 = 1_000_000;

impl VirtualExecutor {
    /// Creates a virtual executor with the given configuration.
    pub fn new(config: ExecConfig) -> Self {
        VirtualExecutor {
            config,
            max_steps: DEFAULT_MAX_STEPS,
        }
    }

    /// Creates a virtual executor with a benign configuration and the given
    /// seed (random scheduling seeded by the configuration seed).
    pub fn with_seed(seed: u64) -> Self {
        VirtualExecutor::new(ExecConfig::new(seed).with_schedule(ScheduleSource::Random(seed)))
    }

    /// Sets the per-execution step budget. Executions exceeding it are cut
    /// off: remaining processes are reported as crashed and the trace is
    /// marked [`truncated`](ExecTrace::truncated).
    pub fn with_max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps.max(1);
        self
    }

    /// The configuration this executor runs with.
    pub fn config(&self) -> &ExecConfig {
        &self.config
    }

    /// Runs `k` processes with consecutive identifiers `0..k`.
    pub fn run<R, F>(&self, k: usize, f: F) -> VirtualRun<R>
    where
        R: Send,
        F: Fn(&mut ProcessCtx) -> R + Send + Sync,
    {
        let ids: Vec<ProcessId> = (0..k).map(ProcessId::new).collect();
        self.run_with_ids(&ids, f)
    }

    /// Runs one process per entry of `ids`, using each entry as the
    /// process's initial name.
    pub fn run_with_ids<R, F>(&self, ids: &[ProcessId], f: F) -> VirtualRun<R>
    where
        R: Send,
        F: Fn(&mut ProcessCtx) -> R + Send + Sync,
    {
        install_crash_panic_silencer();
        install_abort_panic_silencer();
        let k = ids.len();
        if k == 0 {
            return VirtualRun {
                outcome: ExecutionOutcome::from_outcomes(Vec::new()),
                trace: ExecTrace::default(),
            };
        }

        // Derive per-process crash steps exactly as the threaded executor
        // does (drawing and discarding the arrival delays keeps the plan RNG
        // stream aligned, so a CrashPlan reproduces identically under both
        // executors).
        let mut plan_rng = StdRng::seed_from_u64(self.config.seed ^ 0xA5A5_5A5A_DEAD_BEEF);
        let params: Vec<(ProcessId, Option<u64>)> = ids
            .iter()
            .enumerate()
            .map(|(index, id)| {
                let _ = self.config.arrival.delay_for(index, &mut plan_rng);
                (
                    *id,
                    self.config.crash_plan.crash_step_for(index, &mut plan_rng),
                )
            })
            .collect();

        let gates: Vec<Arc<Gate>> = (0..k).map(|_| Arc::new(Gate::default())).collect();
        let seed = self.config.seed;
        let f = &f;

        let mut scheduler = self.resolve_scheduler();
        let mut trace = ExecTrace::default();
        let mut outcomes: Vec<Option<(ProcessId, ProcessOutcome<R>)>> =
            (0..k).map(|_| None).collect();

        std::thread::scope(|scope| {
            let handles: Vec<_> = params
                .iter()
                .zip(gates.iter())
                .map(|(&(id, crash_at), gate)| {
                    let gate = Arc::clone(gate);
                    scope.spawn(move || {
                        let mut ctx = ProcessCtx::with_adversary(
                            id,
                            seed,
                            crate::adversary::YieldPolicy::None,
                            crash_at,
                        );
                        if !gate.park(PendingOp::begin()) {
                            gate.mark_finished();
                            return (id, ProcessOutcome::Crashed { steps: ctx.stats() });
                        }
                        ctx.install_gate(Arc::clone(&gate));
                        let run = std::panic::catch_unwind(AssertUnwindSafe(|| f(&mut ctx)));
                        let steps = ctx.stats();
                        gate.mark_finished();
                        match run {
                            Ok(result) => (id, ProcessOutcome::Completed { result, steps }),
                            Err(payload) => {
                                if let Some(signal) = payload.downcast_ref::<CrashSignal>() {
                                    (
                                        id,
                                        ProcessOutcome::Crashed {
                                            steps: signal.steps,
                                        },
                                    )
                                } else if payload.downcast_ref::<ScheduleAbort>().is_some() {
                                    (id, ProcessOutcome::Crashed { steps })
                                } else {
                                    std::panic::resume_unwind(payload)
                                }
                            }
                        }
                    })
                })
                .collect();

            // Coordinator loop: wait for every live process to park, pick
            // one, grant it, repeat.
            let mut finished = vec![false; k];
            let mut step: usize = 0;
            loop {
                let mut enabled: Vec<(ProcessId, PendingOp)> = Vec::with_capacity(k);
                let mut enabled_idx: Vec<usize> = Vec::with_capacity(k);
                for (i, gate) in gates.iter().enumerate() {
                    if finished[i] {
                        continue;
                    }
                    match gate.wait_parked() {
                        Some(op) => {
                            enabled.push((params[i].0, op));
                            enabled_idx.push(i);
                        }
                        None => finished[i] = true,
                    }
                }
                if enabled.is_empty() {
                    break;
                }
                let abort_all =
                    |reason_truncated: bool, trace: &mut ExecTrace, finished: &mut [bool]| {
                        if reason_truncated {
                            trace.truncated = true;
                        } else {
                            trace.aborted = true;
                        }
                        for (i, gate) in gates.iter().enumerate() {
                            if finished[i] {
                                continue;
                            }
                            // The process is parked; abort it and wait for the
                            // unwind to complete.
                            if gate.wait_parked().is_some() {
                                gate.grant(true);
                            }
                            while gate.wait_parked().is_some() {
                                gate.grant(true);
                            }
                            finished[i] = true;
                        }
                    };
                if step as u64 >= self.max_steps {
                    abort_all(true, &mut trace, &mut finished);
                    break;
                }
                match scheduler.choose(step, &enabled) {
                    SchedulerDecision::Pick(pid) => {
                        let slot = enabled
                            .iter()
                            .position(|(p, _)| *p == pid)
                            .expect("scheduler picked a process that is not enabled");
                        let op = enabled[slot].1;
                        trace.events.push(OpEvent {
                            pid,
                            op,
                            enabled: enabled.clone(),
                        });
                        trace.schedule.choices.push(pid);
                        gates[enabled_idx[slot]].grant(false);
                        step += 1;
                    }
                    SchedulerDecision::Abort => {
                        abort_all(false, &mut trace, &mut finished);
                        break;
                    }
                }
            }

            for handle in handles {
                let (id, outcome) = handle.join().expect("process thread panicked");
                let index = params
                    .iter()
                    .position(|(pid, _)| *pid == id)
                    .expect("unknown process id");
                outcomes[index] = Some((id, outcome));
            }
        });

        VirtualRun {
            outcome: ExecutionOutcome::from_outcomes(
                outcomes
                    .into_iter()
                    .map(|o| o.expect("every process reports an outcome"))
                    .collect(),
            ),
            trace,
        }
    }

    fn resolve_scheduler(&self) -> Box<dyn SchedulerSlot + '_> {
        match &self.config.schedule {
            ScheduleSource::Random(seed) => Box::new(Owned(RandomScheduler::new(*seed))),
            ScheduleSource::Replay(schedule) => {
                Box::new(Owned(ReplayScheduler::new(schedule.clone())))
            }
            ScheduleSource::Explore(handle) => Box::new(Shared(handle)),
        }
    }
}

/// Internal adapter unifying owned schedulers and shared explore handles.
trait SchedulerSlot {
    fn choose(&mut self, step: usize, enabled: &[(ProcessId, PendingOp)]) -> SchedulerDecision;
}

struct Owned<S: Scheduler>(S);

impl<S: Scheduler> SchedulerSlot for Owned<S> {
    fn choose(&mut self, step: usize, enabled: &[(ProcessId, PendingOp)]) -> SchedulerDecision {
        self.0.choose(step, enabled)
    }
}

struct Shared<'a>(&'a ExploreHandle);

impl SchedulerSlot for Shared<'_> {
    fn choose(&mut self, step: usize, enabled: &[(ProcessId, PendingOp)]) -> SchedulerDecision {
        self.0.lock().choose(step, enabled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::CrashPlan;
    use crate::register::{AtomicU64Register, AtomicUsizeRegister};
    use std::sync::Arc;

    #[test]
    fn loc_fresh_is_unique_and_not_anon() {
        let a = Loc::fresh();
        let b = Loc::fresh();
        assert_ne!(a, b);
        assert!(!a.is_anon());
        assert!(Loc::ANON.is_anon());
    }

    #[test]
    fn address_locs_are_per_word_and_disjoint_from_counter_ids() {
        let words = [0u8; 2];
        assert_eq!(Loc::of(&words[0]), Loc::of(&words[0]));
        assert_ne!(Loc::of(&words[0]), Loc::of(&words[1]));
        let tagged = Loc::of(&words[0]).as_u64();
        assert_eq!(tagged & (3 << 62), 1 << 62, "bit 62 set, bit 63 clear");
        assert!(tagged > Loc::fresh().as_u64());
    }

    #[test]
    fn conflicts_require_same_loc_and_a_writer() {
        let l1 = Loc::fresh();
        let l2 = Loc::fresh();
        let r1 = PendingOp::step(StepKind::RegisterRead, l1);
        let w1 = PendingOp::step(StepKind::RegisterWrite, l1);
        let w2 = PendingOp::step(StepKind::RegisterWrite, l2);
        let rmw1 = PendingOp::step(StepKind::ReadModifyWrite, l1);
        let flip = PendingOp::step(StepKind::CoinFlip, Loc::ANON);
        let anon_w = PendingOp::step(StepKind::RegisterWrite, Loc::ANON);

        assert!(!r1.conflicts_with(&r1), "read-read is independent");
        assert!(r1.conflicts_with(&w1));
        assert!(w1.conflicts_with(&r1));
        assert!(w1.conflicts_with(&rmw1));
        assert!(
            !w1.conflicts_with(&w2),
            "distinct locations are independent"
        );
        assert!(!flip.conflicts_with(&w1), "local steps never conflict");
        assert!(!PendingOp::begin().conflicts_with(&w1));
        assert!(anon_w.conflicts_with(&r1), "anonymous is conservative");
    }

    fn three_writer_body(
        reg: &Arc<AtomicU64Register>,
    ) -> impl Fn(&mut ProcessCtx) -> u64 + Send + Sync {
        let reg = Arc::clone(reg);
        move |ctx| {
            reg.write(ctx, ctx.id().as_u64() + 1);
            reg.read(ctx)
        }
    }

    #[test]
    fn virtual_execution_completes_and_counts_steps() {
        let reg = Arc::new(AtomicU64Register::new(0));
        let run = VirtualExecutor::with_seed(3).run(3, three_writer_body(&reg));
        assert_eq!(run.outcome.completed().count(), 3);
        assert_eq!(run.outcome.total_steps().total(), 6);
        // 3 begin events + 6 operations.
        assert_eq!(run.trace.events.len(), 9);
        assert!(!run.trace.truncated);
        assert!(!run.trace.aborted);
    }

    #[test]
    fn same_seed_gives_byte_identical_traces_and_stats() {
        let mk = || {
            let reg = Arc::new(AtomicU64Register::new(0));
            VirtualExecutor::with_seed(42).run(4, three_writer_body(&reg))
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.trace.schedule, b.trace.schedule);
        assert_eq!(a.outcome.per_process_steps(), b.outcome.per_process_steps());
        assert_eq!(a.outcome.results(), b.outcome.results());
        // Events compare equal modulo the location ids, which differ between
        // register instances; the pid/kind/access skeleton must match.
        let skel = |t: &ExecTrace| {
            t.events
                .iter()
                .map(|e| (e.pid, e.op.kind, e.op.access))
                .collect::<Vec<_>>()
        };
        assert_eq!(skel(&a.trace), skel(&b.trace));
    }

    #[test]
    fn replay_reproduces_a_random_schedule_exactly() {
        let mk = |source: ScheduleSource| {
            let reg = Arc::new(AtomicU64Register::new(0));
            VirtualExecutor::new(ExecConfig::new(9).with_schedule(source))
                .run(3, three_writer_body(&reg))
        };
        let original = mk(ScheduleSource::Random(1234));
        let replay = mk(ScheduleSource::Replay(original.trace.schedule.clone()));
        assert_eq!(replay.trace.schedule, original.trace.schedule);
        assert_eq!(replay.outcome.results(), original.outcome.results());
    }

    #[test]
    fn replay_falls_back_on_invalid_and_exhausted_schedules() {
        let reg = Arc::new(AtomicUsizeRegister::new(0));
        // A nonsense schedule: process 7 never exists, and it is far too
        // short — the fallback must still complete the run deterministically.
        let schedule = Schedule::new(vec![ProcessId::new(7), ProcessId::new(1)]);
        let run = VirtualExecutor::new(
            ExecConfig::new(0).with_schedule(ScheduleSource::Replay(schedule)),
        )
        .run(2, {
            let reg = Arc::clone(&reg);
            move |ctx| reg.fetch_add(ctx, 1)
        });
        assert_eq!(run.outcome.results_sorted(), vec![0, 1]);
    }

    #[test]
    fn fixed_sequential_schedule_serializes_processes() {
        // Grant p1 everything first, then p0: p1 must see the initial value,
        // p0 must see p1's write.
        let reg = Arc::new(AtomicU64Register::new(0));
        let choices = vec![
            ProcessId::new(0),
            ProcessId::new(1), // begins (p0's begin first: both are local)
            ProcessId::new(1),
            ProcessId::new(1), // p1: write, read
            ProcessId::new(0),
            ProcessId::new(0), // p0: write, read
        ];
        let run = VirtualExecutor::new(
            ExecConfig::new(0).with_schedule(ScheduleSource::Replay(Schedule::new(choices))),
        )
        .run(2, {
            let reg = Arc::clone(&reg);
            move |ctx| {
                reg.write(ctx, ctx.id().as_u64() + 1);
                reg.read(ctx)
            }
        });
        let results: Vec<(ProcessId, u64)> =
            run.outcome.completed().map(|(id, r)| (id, *r)).collect();
        assert!(results.contains(&(ProcessId::new(1), 2)));
        assert!(results.contains(&(ProcessId::new(0), 1)));
    }

    #[test]
    fn crash_plans_are_honored_deterministically() {
        let reg = Arc::new(AtomicUsizeRegister::new(0));
        let config = ExecConfig::new(5).with_crash_plan(CrashPlan::Fixed(vec![Some(2), None]));
        let run = VirtualExecutor::new(config).run(2, {
            let reg = Arc::clone(&reg);
            move |ctx| {
                for _ in 0..4 {
                    reg.fetch_add(ctx, 1);
                }
                ctx.id().as_usize()
            }
        });
        assert_eq!(run.outcome.crashed_count(), 1);
        assert_eq!(run.outcome.completed().count(), 1);
    }

    #[test]
    fn step_budget_truncates_and_reports() {
        let reg = Arc::new(AtomicUsizeRegister::new(0));
        let run = VirtualExecutor::with_seed(1).with_max_steps(5).run(2, {
            let reg = Arc::clone(&reg);
            move |ctx| {
                for _ in 0..100 {
                    reg.fetch_add(ctx, 1);
                }
            }
        });
        assert!(run.trace.truncated);
        assert_eq!(run.outcome.crashed_count(), 2);
        assert!(run.trace.events.len() <= 5);
    }

    /// A scheduler that aborts immediately.
    struct AbortNow;
    impl Scheduler for AbortNow {
        fn choose(
            &mut self,
            _step: usize,
            _enabled: &[(ProcessId, PendingOp)],
        ) -> SchedulerDecision {
            SchedulerDecision::Abort
        }
    }

    #[test]
    fn explore_handle_drives_scheduling_and_abort() {
        let handle = ExploreHandle::new(AbortNow);
        let run = VirtualExecutor::new(
            ExecConfig::new(0).with_schedule(ScheduleSource::Explore(handle.clone())),
        )
        .run(2, |ctx| ctx.flip());
        assert!(run.trace.aborted);
        assert_eq!(run.outcome.crashed_count(), 2);
        assert_eq!(handle, handle.clone());
    }

    #[test]
    fn enabled_sets_are_recorded_in_process_order() {
        let reg = Arc::new(AtomicU64Register::new(0));
        let run = VirtualExecutor::with_seed(11).run(3, three_writer_body(&reg));
        for event in &run.trace.events {
            let pids: Vec<usize> = event.enabled.iter().map(|(p, _)| p.as_usize()).collect();
            let mut sorted = pids.clone();
            sorted.sort_unstable();
            assert_eq!(pids, sorted);
            assert!(event.enabled.iter().any(|(p, _)| *p == event.pid));
        }
    }

    #[test]
    fn zero_processes_yield_an_empty_run() {
        let run: VirtualRun<()> = VirtualExecutor::with_seed(0).run(0, |_| ());
        assert!(run.outcome.is_empty());
        assert!(run.trace.events.is_empty());
    }
}
