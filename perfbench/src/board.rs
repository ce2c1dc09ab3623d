//! One timed window for threads and forked processes.
//!
//! A round's control words, per-worker results and latency samples live in
//! a `MAP_SHARED` arena, so thread workers and forked workers report the
//! same way. Workers warm up one at a time, arrive at a parking start gate
//! (a futex: no worker spins while it waits), and the window opens once
//! every worker is past the gate. It closes on a shared stop signal or, for fixed-work
//! rounds, when the last worker completes. Spawning or forking, registration,
//! pre-fill and warm-up all happen before the gate, so they count as set-up.

use shmem::arena::{Arena, ArenaSliceRef};
use shmem::pad::CachePadded;
use shmem::process::ProcessCtx;
use shmem::procs::{fork_child, wait_child};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::Duration;

use crate::sys::{bump_and_wake, now_ns, park_until, peak_rss_kib, rss_bytes, thread_cpu_ns};
use crate::trace::{self, Layer, LayerTotals, LAYERS};
use crate::workloads::Workload;

const READY: usize = 0;
const START: usize = 1;
const PASSED: usize = 2;
const STOP: usize = 3;
const DONE: usize = 4;
const WARM: usize = 5;
const CONTROL_WORDS: usize = 6;

/// Positions of `WorkerOut::{panicked, arrived, finished}` in its words.
const PANICKED: usize = 5;
const ARRIVED: usize = 6;
const FINISHED: usize = 7;

/// A small seeded generator for release choices, read positions and
/// sampled ops (it must not draw from `ProcessCtx`, whose coin flips are
/// counted steps).
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// What one worker did in one round.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkerOut {
    pub ops: u64,
    pub failed: u64,
    /// §2 steps (`StepStats::total`) inside the window.
    pub steps: u64,
    pub balancer_toggles: u64,
    pub max_name: u64,
    /// Whether the worker panicked; its round is then incorrect.
    pub panicked: u64,
    pub arrived: u64,
    pub finished: u64,
    pub pass_ns: u64,
    pub end_ns: u64,
    pub peak_rss_kib: u64,
    pub samples: u64,
    pub sampled_ops: u64,
    pub sampled_op_ns: u64,
    pub width_sum: u64,
    pub width_samples: u64,
    /// Operations run before the gate (attempted, not timed).
    pub warmup_ops: u64,
    /// Counter increments completed, warm-up included.
    pub increments: u64,
    /// Fresh-name calls during warm-up (traced rounds).
    pub warmup_fresh_calls: u64,
    pub layers: [LayerTotals; LAYERS],
}

impl WorkerOut {
    const SCALARS: usize = 19;
    const WORDS: usize = Self::SCALARS + LAYERS * LayerTotals::WORDS;

    fn fields_mut(&mut self) -> impl Iterator<Item = &mut u64> {
        [
            &mut self.ops,
            &mut self.failed,
            &mut self.steps,
            &mut self.balancer_toggles,
            &mut self.max_name,
            &mut self.panicked,
            &mut self.arrived,
            &mut self.finished,
            &mut self.pass_ns,
            &mut self.end_ns,
            &mut self.peak_rss_kib,
            &mut self.samples,
            &mut self.sampled_ops,
            &mut self.sampled_op_ns,
            &mut self.width_sum,
            &mut self.width_samples,
            &mut self.warmup_ops,
            &mut self.increments,
            &mut self.warmup_fresh_calls,
        ]
        .into_iter()
        .chain(self.layers.iter_mut().flat_map(LayerTotals::fields_mut))
    }
}

/// How a round's window closes.
#[derive(Clone, Copy, Debug)]
pub enum Close {
    /// The coordinator raises the stop signal after this long.
    After(Duration),
    /// Each worker stops when the round's fixed work is done.
    WhenDone,
}

/// How workers are started.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Launch {
    Threads,
    Forks,
}

/// A round's shared state.
pub struct Board {
    arena: std::sync::Arc<Arena>,
    control: ArenaSliceRef<CachePadded<AtomicU32>>,
    outs: ArenaSliceRef<AtomicU64>,
    samples: ArenaSliceRef<AtomicU64>,
    sample_cap: usize,
    workers: usize,
}

/// Set-up and window time of one round.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    pub setup_ns: u64,
    pub window_ns: u64,
    /// The coordinator's resident bytes as the window opened and closed.
    pub rss_open: u64,
    pub rss_close: u64,
}

impl Board {
    /// A board for `workers` workers keeping up to `sample_cap` latency
    /// samples each, in an arena with `extra` more bytes for the
    /// workload's own shared objects.
    pub fn new(workers: usize, sample_cap: usize, extra: usize) -> Board {
        let bytes =
            CONTROL_WORDS * 64 + workers * (WorkerOut::WORDS + sample_cap) * 8 + extra + 4096;
        let arena = Arena::shared(bytes).expect("a MAP_SHARED arena for the round");
        let control = arena.alloc_slice(CONTROL_WORDS).pin(&arena);
        let outs = arena.alloc_slice(workers * WorkerOut::WORDS).pin(&arena);
        let samples = arena.alloc_slice(workers * sample_cap).pin(&arena);
        Board {
            arena,
            control,
            outs,
            samples,
            sample_cap,
            workers,
        }
    }

    pub fn arena(&self) -> &std::sync::Arc<Arena> {
        &self.arena
    }

    pub fn workers(&self) -> usize {
        self.workers
    }

    fn word(&self, index: usize) -> &AtomicU32 {
        &self.control[index]
    }

    fn out_words(&self, worker: usize) -> &[AtomicU64] {
        &self.outs[worker * WorkerOut::WORDS..(worker + 1) * WorkerOut::WORDS]
    }

    fn store(&self, worker: usize, out: &mut WorkerOut) {
        for (word, value) in self.out_words(worker).iter().zip(out.fields_mut()) {
            word.store(*value, Ordering::SeqCst);
        }
    }

    /// The results every worker stored.
    pub fn outs(&self) -> Vec<WorkerOut> {
        (0..self.workers)
            .map(|worker| {
                let mut out = WorkerOut::default();
                for (value, word) in out.fields_mut().zip(self.out_words(worker)) {
                    *value = word.load(Ordering::SeqCst);
                }
                out
            })
            .collect()
    }

    /// Every worker's latency samples, in nanoseconds.
    pub fn samples(&self) -> Vec<u64> {
        self.outs()
            .iter()
            .enumerate()
            .flat_map(|(worker, out)| {
                let base = worker * self.sample_cap;
                (base..base + out.samples as usize)
                    .map(|index| self.samples[index].load(Ordering::SeqCst))
            })
            .collect()
    }

    /// Starts `body(worker)` on every worker, opens the window once all are
    /// parked at the gate, closes it, and waits until every worker has
    /// ended. `setup_started` is when the round's set-up began.
    pub fn run(
        &self,
        launch: Launch,
        close: Close,
        setup_started: u64,
        body: impl Fn(usize) + Sync,
    ) -> Timing {
        let guarded = |worker: usize| {
            if catch_unwind(AssertUnwindSafe(|| body(worker))).is_err() {
                self.abandon(worker);
            }
        };
        match launch {
            Launch::Threads => std::thread::scope(|scope| {
                let handles: Vec<_> = (0..self.workers)
                    .map(|worker| scope.spawn(move || guarded(worker)))
                    .collect();
                let timing = self.control(close, setup_started);
                for handle in handles {
                    handle
                        .join()
                        .expect("worker panics are caught inside the worker");
                }
                timing
            }),
            Launch::Forks => {
                // The coordinator is single-threaded whenever it forks, so a
                // child may allocate; it ends with `_exit` and never returns
                // into the coordinator's code.
                let pids: Vec<i32> = (0..self.workers)
                    .map(|worker| fork_child(|| guarded(worker)))
                    .collect();
                let timing = self.control(close, setup_started);
                for (worker, pid) in pids.into_iter().enumerate() {
                    if !wait_child(pid).clean() {
                        self.out_words(worker)[PANICKED].store(1, Ordering::SeqCst);
                    }
                }
                timing
            }
        }
    }

    fn control(&self, close: Close, setup_started: u64) -> Timing {
        let workers = self.workers as u32;
        park_until(self.word(READY), |ready| ready >= workers);
        let setup_ns = now_ns() - setup_started;
        let rss_open = rss_bytes();
        bump_and_wake(self.word(START), 1);
        if let Close::After(window) = close {
            std::thread::sleep(window);
            bump_and_wake(self.word(STOP), 1);
        }
        park_until(self.word(DONE), |done| done >= workers);
        let rss_close = rss_bytes();
        let outs = self.outs();
        let opened = outs.iter().map(|out| out.pass_ns).max().unwrap_or(0);
        let closed = outs.iter().map(|out| out.end_ns).max().unwrap_or(0);
        Timing {
            setup_ns,
            window_ns: closed.saturating_sub(opened),
            rss_open,
            rss_close,
        }
    }

    /// Marks a panicked worker and releases whatever the coordinator waits on.
    fn abandon(&self, worker: usize) {
        let words = self.out_words(worker);
        words[PANICKED].store(1, Ordering::SeqCst);
        if words[ARRIVED].swap(1, Ordering::SeqCst) == 0 {
            bump_and_wake(self.word(WARM), 1);
            bump_and_wake(self.word(READY), 1);
            bump_and_wake(self.word(PASSED), 1);
        }
        if words[FINISHED].swap(1, Ordering::SeqCst) == 0 {
            bump_and_wake(self.word(DONE), 1);
        }
    }

    /// The worker-side handle of `worker`, sampling one op in the
    /// workload's `sample_every` on average, at seeded random gaps so that
    /// the samples cannot lock onto a periodic pattern in the op stream.
    /// Traced workers time their sampled ops' spans.
    pub fn worker(&self, worker: usize, workload: Workload, traced: bool, seed: u64) -> Worker<'_> {
        Worker {
            board: self,
            index: worker,
            sample_every: workload.sample_every(),
            cpu_clock: workload.latency_on_cpu_clock(),
            gaps: SplitMix::new(seed),
            traced,
            next_sample: 0,
            out: WorkerOut::default(),
        }
    }
}

/// A worker's view of the round.
pub struct Worker<'a> {
    board: &'a Board,
    index: usize,
    sample_every: u64,
    cpu_clock: bool,
    gaps: SplitMix,
    traced: bool,
    next_sample: u64,
    pub out: WorkerOut,
}

impl Worker<'_> {
    /// Runs `warm_up` alone, after the workers before this one finished
    /// theirs: warm-up then takes a steady time and leaves the same state
    /// behind in every round, and the window alone sees contention.
    pub fn in_turn<T>(&self, warm_up: impl FnOnce() -> T) -> T {
        let board = self.board;
        park_until(board.word(WARM), |turn| turn >= self.index as u32);
        let result = warm_up();
        bump_and_wake(board.word(WARM), 1);
        result
    }

    /// Parks at the start gate until the coordinator opens it, then waits until
    /// every worker is past it (the window's opening).
    pub fn gate(&mut self) {
        let board = self.board;
        self.out.arrived = 1;
        board.out_words(self.index)[ARRIVED].store(1, Ordering::SeqCst);
        bump_and_wake(board.word(READY), 1);
        park_until(board.word(START), |start| start != 0);
        if self.traced {
            self.out.warmup_fresh_calls = trace::take()[Layer::Fresh as usize].calls;
        }
        self.out.pass_ns = now_ns();
        board.word(PASSED).fetch_add(1, Ordering::SeqCst);
        // The peers were woken together, so this wait is one wake-up
        // latency long; spinning through it starts every worker at once.
        let workers = board.workers as u32;
        while board.word(PASSED).load(Ordering::SeqCst) < workers {
            std::hint::spin_loop();
        }
    }

    /// Whether the stop signal is still down.
    pub fn running(&self) -> bool {
        self.board.word(STOP).load(Ordering::Relaxed) == 0
    }

    /// Runs one operation, timing it if it is one of the sampled ones.
    /// `op` returns whether the operation's outputs were correct.
    pub fn op(&mut self, op: impl FnOnce() -> bool) {
        let ok = if self.sampling_next() {
            self.next_sample += 1 + self.gaps.below(2 * self.sample_every - 1);
            if self.traced {
                trace::set_sampling(true);
            }
            let started = now_ns();
            let cpu_started = self.cpu_clock.then(thread_cpu_ns);
            let ok = op();
            let latency = cpu_started.map(|cpu_started| thread_cpu_ns() - cpu_started);
            let elapsed = now_ns() - started;
            if self.traced {
                trace::set_sampling(false);
                self.out.sampled_ops += 1;
                self.out.sampled_op_ns += elapsed;
            }
            let slot = self.index * self.board.sample_cap + self.out.samples as usize;
            if (self.out.samples as usize) < self.board.sample_cap {
                self.board.samples[slot].store(latency.unwrap_or(elapsed), Ordering::Relaxed);
                self.out.samples += 1;
            }
            ok
        } else {
            op()
        };
        self.out.ops += 1;
        if !ok {
            self.out.failed += 1;
        }
    }

    /// Whether the current op is a sampled one (the next to run).
    pub fn sampling_next(&self) -> bool {
        self.out.ops == self.next_sample
    }

    /// Records the window's steps and results and tells the coordinator this
    /// worker is done. `ctx` must have been snapshotted at the gate.
    pub fn finish(mut self, ctx: &ProcessCtx, at_gate: shmem::steps::StepStats) {
        self.out.end_ns = now_ns();
        let stats = ctx.stats();
        self.out.steps = stats.total() - at_gate.total();
        self.out.balancer_toggles = stats.balancer_toggles - at_gate.balancer_toggles;
        self.out.peak_rss_kib = peak_rss_kib();
        if self.traced {
            self.out.layers = trace::take();
        }
        self.out.finished = 1;
        let board = self.board;
        board.store(self.index, &mut self.out);
        bump_and_wake(board.word(DONE), 1);
    }
}
