//! The five closed-loop workloads. Each round builds fresh objects, starts
//! the workers, and checks every result; see `WORKLOADS.md` for why each
//! workload exists and which layers it should and should not move.

use adaptive_renaming::counter::{Counter, MonotoneCounter};
use adaptive_renaming::lease::LongLivedRenaming;
use adaptive_renaming::recycler::Recycler;
use adaptive_renaming::robust::RobustLeaseTable;
use adaptive_renaming::traits::Renaming;
use adaptive_renaming::BatchedRecycler;
use cnet::adaptive::AdaptiveNetworkCounter;
use cnet::family::CountingFamily;
use maxreg::UnboundedMaxRegister;
use obs::{MetricsSlab, Snapshot};
use shmem::process::{ProcessCtx, ProcessId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::board::{Board, Close, Launch, SplitMix, Timing, WorkerOut};
use crate::checks::{checked_grant, counter_op, Owners, ReadCheck};
use crate::sys::{now_ns, trim_heap};
use crate::trace::{span, span_bare, Layer, TracedAdaptive, TracedLongLived, TracedMax};

/// `lease_churn` and `lease_unbatched`: the builder default's concurrency
/// bound and batch.
pub const CHURN_MAX_CONCURRENT: usize = 64;
const CHURN_BATCH: usize = 8;
const CHURN_WARMUP: u64 = 20_000;
/// `lease_hold_procs`: table size and leases each process holds.
const HOLD_CAPACITY: usize = 1024;
const HOLD_WINDOW: usize = 256;
const HOLD_WARMUP: u64 = 2_000;
/// `count_monotone`: increments per round. Every increment leaves about
/// 0.35 MB of renaming state behind, so a round peaks near 200 MB.
const MONOTONE_INCREMENTS: u64 = 512;
const MONOTONE_WARMUP: u64 = 16;
/// `count_cascade`: increments per round, claimed in chunks so the budget
/// word is not a hot line of its own.
const CASCADE_INCREMENTS: u64 = 1 << 21;
const CASCADE_CHUNK: u64 = 256;
const CASCADE_WARMUP: u64 = 10_000;
const CASCADE_WIDTH: usize = 8;
/// One operation in this many reads the counter.
const READ_ONE_IN: u64 = 8;
/// Latency samples kept per worker per round.
const SAMPLE_CAP: usize = 1 << 18;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    LeaseChurn,
    LeaseUnbatched,
    LeaseHoldProcs,
    CountMonotone,
    CountCascade,
}

pub const ALL: [Workload; 5] = [
    Workload::LeaseChurn,
    Workload::LeaseUnbatched,
    Workload::LeaseHoldProcs,
    Workload::CountMonotone,
    Workload::CountCascade,
];

/// The inputs of one round.
#[derive(Clone, Copy, Debug)]
pub struct Round {
    pub seed: u64,
    pub index: u64,
    pub workers: usize,
    pub traced: bool,
    /// The window length of time-bounded rounds.
    pub window: Duration,
}

impl Round {
    /// The seed of one worker's coins (`stream` 0), choices (1) or sampled
    /// ops (2).
    fn seed_for(&self, worker: usize, stream: u64) -> u64 {
        SplitMix::new(self.seed ^ (self.index << 20) ^ ((worker as u64) << 8) ^ stream).next()
    }

    fn ctx(&self, worker: usize) -> ProcessCtx {
        ProcessCtx::new(ProcessId::new(worker), self.seed_for(worker, 0))
    }
}

/// What one round measured.
#[derive(Debug)]
pub struct RoundOut {
    pub timing: Timing,
    pub outs: Vec<WorkerOut>,
    pub samples: Vec<u64>,
    /// End-of-round checks run, and how many failed.
    pub checks: u64,
    pub check_failures: u64,
    /// Largest name granted (leases) or final count (counters).
    pub max_name: u64,
    pub snapshot: Option<Snapshot>,
    /// `count_cascade`: prism pairs eliminated, and increments.
    pub eliminated_pairs: u64,
    pub increments: u64,
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::LeaseChurn => "lease_churn",
            Workload::LeaseUnbatched => "lease_unbatched",
            Workload::LeaseHoldProcs => "lease_hold_procs",
            Workload::CountMonotone => "count_monotone",
            Workload::CountCascade => "count_cascade",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|workload| workload.name() == name)
    }

    /// Whether a round is a fixed amount of work (else a fixed time).
    pub fn fixed_work(self) -> bool {
        matches!(self, Workload::CountMonotone | Workload::CountCascade)
    }

    pub fn launch(self) -> Launch {
        match self {
            Workload::LeaseHoldProcs => Launch::Forks,
            _ => Launch::Threads,
        }
    }

    /// One operation in this many is timed: often enough for a steady p99,
    /// rarely enough that two clock reads stay a small share of the op.
    pub fn sample_every(self) -> u64 {
        match self {
            Workload::LeaseChurn | Workload::LeaseUnbatched | Workload::CountCascade => 64,
            Workload::LeaseHoldProcs => 16,
            Workload::CountMonotone => 1,
        }
    }

    /// Whether op latency is read on the thread's CPU clock instead of the
    /// wall clock. A `count_monotone` op takes about half a millisecond, so
    /// the host stealing a vCPU for milliseconds (1–10% of the time on the
    /// reference host) lands in more than 1% of its ops and would decide its
    /// p99. The CPU clock still counts page faults. The shorter ops of the
    /// other workloads are timed on the wall clock, which is cheaper to read.
    pub fn latency_on_cpu_clock(self) -> bool {
        self == Workload::CountMonotone
    }

    pub fn run_round(self, round: &Round) -> RoundOut {
        match self {
            Workload::LeaseChurn | Workload::LeaseUnbatched => lease_in_process(round, self),
            Workload::LeaseHoldProcs => lease_hold_procs(round),
            Workload::CountMonotone => count_monotone(round),
            Workload::CountCascade => count_cascade(round),
        }
    }
}

fn metrics_slab(board: &Board, round: &Round) -> Option<Arc<MetricsSlab>> {
    round
        .traced
        .then(|| MetricsSlab::new_in(board.arena(), board.workers()))
}

fn close(round: &Round) -> Close {
    Close::After(round.window)
}

/// [`builder_lease_object`] composed by hand: a traced `Recycler` over a
/// traced renaming object, behind the batch stash when `batched`.
pub fn traced_lease_object(batched: bool) -> Arc<dyn LongLivedRenaming> {
    let recycler = Recycler::new(
        TracedAdaptive::builder_default(Layer::Fresh),
        CHURN_MAX_CONCURRENT,
    );
    let traced = Arc::new(TracedLongLived::new(recycler));
    if batched {
        Arc::new(BatchedRecycler::new(traced, CHURN_BATCH))
    } else {
        traced
    }
}

/// The builder default long-lived object, or its `.lease_batch(1)` form.
pub fn builder_lease_object(batched: bool) -> Arc<dyn LongLivedRenaming> {
    let builder = <dyn Renaming>::builder().max_concurrent(CHURN_MAX_CONCURRENT);
    let builder = if batched {
        builder
    } else {
        builder.lease_batch(1)
    };
    builder
        .build_long_lived()
        .expect("the builder default is valid")
}

/// The default `<dyn Counter>::builder().build()`, composed by hand over a
/// traced renaming object and a traced max register.
pub fn traced_monotone_counter() -> MonotoneCounter<TracedAdaptive, TracedMax<UnboundedMaxRegister>>
{
    MonotoneCounter::with_parts(
        TracedAdaptive::builder_default(Layer::Renaming),
        TracedMax::new(UnboundedMaxRegister::new()),
    )
}

/// `<dyn Counter>::builder().adaptive_network().build()`, by its concrete
/// type so that the prism, width and step property can be read.
pub fn cascade_counter() -> AdaptiveNetworkCounter {
    AdaptiveNetworkCounter::new(CountingFamily::Bitonic, CASCADE_WIDTH)
}

/// One lease plus one release, both checked. `span_layer` is the layer of
/// the benchmark's own spans around the calls into `object`, if any.
fn churn_cycle(
    object: &dyn LongLivedRenaming,
    owners: &Owners,
    worker: usize,
    ctx: &mut ProcessCtx,
    span_layer: Option<Layer>,
    max_name: &mut u64,
) -> bool {
    let (name, granted) = checked_grant(owners, worker, ctx, |ctx| match span_layer {
        Some(layer) => span(layer, ctx, |ctx| object.lease_raw(ctx)),
        None => object.lease_raw(ctx),
    });
    let Some(name) = name else { return false };
    *max_name = (*max_name).max(name as u64);
    let released = owners.release(name, worker);
    match span_layer {
        Some(layer) => span_bare(layer, || object.release_raw(name)),
        None => object.release_raw(name),
    }
    granted && released
}

/// `lease_churn` on the builder default (the batch-8 stash over a
/// `Recycler`), or `lease_unbatched` on `.lease_batch(1)` (the `Recycler`
/// alone).
fn lease_in_process(round: &Round, workload: Workload) -> RoundOut {
    let batched = workload == Workload::LeaseChurn;
    let setup_started = now_ns();
    let board = Board::new(
        round.workers,
        SAMPLE_CAP,
        Owners::footprint(CHURN_MAX_CONCURRENT) + MetricsSlab::footprint(round.workers),
    );
    let owners = Owners::new_in(board.arena(), CHURN_MAX_CONCURRENT);
    let slab = metrics_slab(&board, round);
    let object = if round.traced {
        traced_lease_object(batched)
    } else {
        builder_lease_object(batched)
    };
    // The traced unbatched object's outermost wrapper spans the Recycler.
    let span_layer = (round.traced && batched).then_some(Layer::Batched);
    let timing = board.run(Launch::Threads, close(round), setup_started, |index| {
        let mut ctx = round.ctx(index);
        let mut worker = board.worker(index, workload, round.traced, round.seed_for(index, 2));
        let mut max_name = 0;
        worker.out.failed += worker.in_turn(|| {
            (0..CHURN_WARMUP)
                .filter(|_| {
                    !churn_cycle(
                        &*object,
                        &owners,
                        index,
                        &mut ctx,
                        span_layer,
                        &mut max_name,
                    )
                })
                .count() as u64
        });
        worker.out.warmup_ops = CHURN_WARMUP;
        worker.gate();
        if let Some(slab) = &slab {
            obs::bind_metrics(slab.writer(index));
        }
        let at_gate = ctx.stats();
        while worker.running() {
            worker.op(|| {
                churn_cycle(
                    &*object,
                    &owners,
                    index,
                    &mut ctx,
                    span_layer,
                    &mut max_name,
                )
            });
        }
        obs::unbind();
        worker.out.max_name = max_name;
        worker.finish(&ctx, at_gate);
    });
    let quiescent = owners.held() == 0 && object.live_leases() == 0;
    finish_round(&board, timing, slab, [quiescent])
}

fn lease_hold_procs(round: &Round) -> RoundOut {
    let setup_started = now_ns();
    let board = Board::new(
        round.workers,
        SAMPLE_CAP,
        RobustLeaseTable::footprint(HOLD_CAPACITY)
            + Owners::footprint(HOLD_CAPACITY)
            + MetricsSlab::footprint(round.workers),
    );
    let table = RobustLeaseTable::with_capacity_in(board.arena(), HOLD_CAPACITY);
    let owners = Owners::new_in(board.arena(), HOLD_CAPACITY);
    let slab = metrics_slab(&board, round);
    let timing = board.run(Launch::Forks, close(round), setup_started, |index| {
        let mut worker = board.worker(
            index,
            Workload::LeaseHoldProcs,
            round.traced,
            round.seed_for(index, 2),
        );
        let tag = table
            .register_current_process()
            .expect("the registry has a slot per worker")
            .tag();
        let mut ctx = round.ctx(index);
        let mut choices = SplitMix::new(round.seed_for(index, 1));
        let mut max_name = 0;
        let traced = round.traced;
        let acquire = |ctx: &mut ProcessCtx, max_name: &mut u64| {
            let (name, ok) = checked_grant(&owners, index, ctx, |ctx| {
                if traced {
                    span(Layer::RobustAcquire, ctx, |ctx| table.acquire(ctx, tag))
                } else {
                    table.acquire(ctx, tag)
                }
            });
            *max_name = (*max_name).max(name.unwrap_or(0) as u64);
            (name.unwrap_or(0), ok)
        };
        let release = |ctx: &mut ProcessCtx, name: usize| {
            if name == 0 {
                return false;
            }
            let owned = owners.release(name, index);
            let released = if traced {
                span(Layer::RobustRelease, ctx, |ctx| table.release(ctx, name))
            } else {
                table.release(ctx, name)
            };
            owned && released
        };
        let mut held = Vec::with_capacity(HOLD_WINDOW);
        let replace = |ctx: &mut ProcessCtx,
                       choices: &mut SplitMix,
                       held: &mut Vec<usize>,
                       max_name: &mut u64| {
            let slot = choices.below(HOLD_WINDOW as u64) as usize;
            let released = release(ctx, held[slot]);
            let (name, granted) = acquire(ctx, max_name);
            held[slot] = name;
            released && granted
        };
        worker.out.failed += worker.in_turn(|| {
            let mut failed = 0;
            for _ in 0..HOLD_WINDOW {
                let (name, ok) = acquire(&mut ctx, &mut max_name);
                failed += u64::from(!ok);
                held.push(name);
            }
            for _ in 0..HOLD_WARMUP {
                failed += u64::from(!replace(&mut ctx, &mut choices, &mut held, &mut max_name));
            }
            failed
        });
        worker.out.warmup_ops = HOLD_WINDOW as u64 + HOLD_WARMUP;
        worker.gate();
        if let Some(slab) = &slab {
            obs::bind_metrics(slab.writer(index));
        }
        let at_gate = ctx.stats();
        while worker.running() {
            worker.op(|| replace(&mut ctx, &mut choices, &mut held, &mut max_name));
        }
        obs::unbind();
        worker.out.max_name = max_name;
        worker.finish(&ctx, at_gate);
        for name in held {
            // Check the final releases too; a failure here shows up in the
            // quiescence check below.
            release(&mut ctx, name);
        }
    });
    let quiescent = owners.held() == 0 && table.live_leases() == 0;
    finish_round(&board, timing, slab, [quiescent])
}

/// Claims increment tickets from a round's shared budget.
struct Budget<'a> {
    claimed: &'a AtomicU64,
    total: u64,
    chunk: u64,
    left: u64,
}

impl Budget<'_> {
    /// Takes one ticket; false once the round's budget is spent.
    fn take(&mut self) -> bool {
        if self.left == 0 {
            let first = self.claimed.fetch_add(self.chunk, Ordering::SeqCst);
            self.left = self.total.saturating_sub(first).min(self.chunk);
            if self.left == 0 {
                return false;
            }
        }
        self.left -= 1;
        true
    }
}

/// A counter workload's worker: warm-up ops, then a fixed budget of
/// increments mixed 7:1 with reads, every read checked.
#[allow(clippy::too_many_arguments)]
fn counter_worker(
    board: &Board,
    round: &Round,
    workload: Workload,
    index: usize,
    counter: &dyn Counter,
    claimed: &AtomicU64,
    (warmup, total, chunk): (u64, u64, u64),
    sample_width: impl Fn() -> Option<usize>,
) {
    let mut ctx = round.ctx(index);
    let mut worker = board.worker(index, workload, round.traced, round.seed_for(index, 2));
    let mut choices = SplitMix::new(round.seed_for(index, 1));
    let mut check = ReadCheck::new(workload == Workload::CountMonotone);
    let mut budget = Budget {
        claimed,
        total,
        chunk,
        left: 0,
    };
    worker.out.failed += worker.in_turn(|| {
        // Warm-up reads on a schedule and claims its increments one by one
        // from the same budget, so the read check's bound covers them.
        (0..warmup)
            .filter(|op| {
                let read = op % READ_ONE_IN == READ_ONE_IN - 1;
                if !read {
                    claimed.fetch_add(1, Ordering::SeqCst);
                }
                !counter_op(counter, &mut ctx, read, &mut check, claimed)
            })
            .count() as u64
    });
    worker.out.warmup_ops = warmup;
    worker.gate();
    let at_gate = ctx.stats();
    loop {
        let read = choices.below(READ_ONE_IN) == 0;
        if !read && !budget.take() {
            break;
        }
        if worker.sampling_next() {
            if let Some(width) = sample_width() {
                worker.out.width_sum += width as u64;
                worker.out.width_samples += 1;
            }
        }
        worker.op(|| counter_op(counter, &mut ctx, read, &mut check, claimed));
    }
    worker.out.increments = check.completed();
    worker.finish(&ctx, at_gate);
}

fn count_monotone(round: &Round) -> RoundOut {
    // Freed pages go back to the kernel, so every round's fresh counter
    // pays its page first-touch, as one in a fresh process would.
    trim_heap();
    let setup_started = now_ns();
    let board = Board::new(round.workers, 1 << 12, 0);
    let counter: Arc<dyn Counter> = if round.traced {
        Arc::new(traced_monotone_counter())
    } else {
        <dyn Counter>::builder()
            .build()
            .expect("the default counter is valid")
    };
    let claimed = AtomicU64::new(0);
    let total = warmup_increments(MONOTONE_WARMUP) * round.workers as u64 + MONOTONE_INCREMENTS;
    let timing = board.run(Launch::Threads, Close::WhenDone, setup_started, |index| {
        counter_worker(
            &board,
            round,
            Workload::CountMonotone,
            index,
            &*counter,
            &claimed,
            (MONOTONE_WARMUP, total, 1),
            || None,
        )
    });
    finish_counter_round(&board, timing, &*counter, true)
}

fn count_cascade(round: &Round) -> RoundOut {
    let setup_started = now_ns();
    let board = Board::new(round.workers, SAMPLE_CAP, 0);
    let counter = cascade_counter();
    let claimed = AtomicU64::new(0);
    let total = warmup_increments(CASCADE_WARMUP) * round.workers as u64 + CASCADE_INCREMENTS;
    let traced = TracedCascade(&counter);
    let timing = board.run(Launch::Threads, Close::WhenDone, setup_started, |index| {
        let (target, sample_width): (&dyn Counter, _) = if round.traced {
            (&traced, Some(&counter))
        } else {
            (&counter, None)
        };
        counter_worker(
            &board,
            round,
            Workload::CountCascade,
            index,
            target,
            &claimed,
            (CASCADE_WARMUP, total, CASCADE_CHUNK),
            || sample_width.map(AdaptiveNetworkCounter::current_width),
        )
    });
    let mut out = finish_counter_round(
        &board,
        timing,
        &counter,
        counter.check_step_property().is_ok(),
    );
    out.eliminated_pairs = counter.eliminated_pairs();
    out
}

/// The cascade behind spans of [`Layer::CascadeIncrement`] /
/// [`Layer::CascadeRead`].
pub struct TracedCascade<'a>(pub &'a AdaptiveNetworkCounter);

impl Counter for TracedCascade<'_> {
    fn increment(&self, ctx: &mut ProcessCtx) {
        span(Layer::CascadeIncrement, ctx, |ctx| self.0.increment(ctx));
    }

    fn read(&self, ctx: &mut ProcessCtx) -> u64 {
        span(Layer::CascadeRead, ctx, |ctx| self.0.read(ctx))
    }
}

/// Increments among the first `ops` warm-up operations.
fn warmup_increments(ops: u64) -> u64 {
    ops - ops / READ_ONE_IN
}

/// Collects a counter round: the quiescent final read must equal the
/// increments completed, and `extra` is the workload's own final check.
fn finish_counter_round(
    board: &Board,
    timing: Timing,
    counter: &dyn Counter,
    extra: bool,
) -> RoundOut {
    let increments: u64 = board.outs().iter().map(|out| out.increments).sum();
    let mut ctx = ProcessCtx::new(ProcessId::new(board.workers()), 0);
    let count = counter.read(&mut ctx);
    let mut out = finish_round(board, timing, None, [count == increments, extra]);
    out.max_name = count;
    out.increments = increments;
    out
}

fn finish_round<const N: usize>(
    board: &Board,
    timing: Timing,
    slab: Option<Arc<MetricsSlab>>,
    checks: [bool; N],
) -> RoundOut {
    let outs = board.outs();
    RoundOut {
        timing,
        samples: board.samples(),
        checks: N as u64,
        check_failures: checks.iter().filter(|ok| !**ok).count() as u64,
        max_name: outs.iter().map(|out| out.max_name).max().unwrap_or(0),
        snapshot: slab.map(|slab| Snapshot::collect(&slab)),
        eliminated_pairs: 0,
        increments: 0,
        outs,
    }
}
