//! The counter-backend shootout: monotone vs network vs fetch-and-add.
//!
//! Worker threads hammer one shared counter with increments. The contenders,
//! all behind the `<dyn Counter>::builder()` facade:
//!
//! * **`monotone`** — the paper's §8.1 counter (adaptive strong renaming +
//!   max register). Register-model-only and monotone-consistent, but every
//!   increment runs a full renaming acquisition whose cost grows with the
//!   number of increments.
//! * **`network`** — the `cnet` counting-network counter at a **fixed
//!   width of 16**: the classical provision-for-the-maximum design, sized
//!   for the largest thread count of the sweep and paying its full
//!   `Θ(log² 16)` toggle depth even when two threads use it. Quiescently
//!   consistent.
//! * **`adaptive`** — the elimination/diffraction front-end over a
//!   width-2/4/8/16 cascade of counting networks: a contention sensor
//!   routes each increment through a prism (colliding pairs cancel) into
//!   the narrowest network covering *realized* contention, so the quiet
//!   end of the sweep pays width-2 costs instead of width-16 ones.
//!   Quiescently consistent; the cascade covers the same 16-thread maximum
//!   the fixed network provisions for.
//! * **`fetch_add`** — one hardware fetch-and-add per increment: the speed
//!   of light for a single cache line, linearizable, and outside the
//!   paper's register-only model.
//! * **`network_mmap_procs`** (unix only) — the fixed-width network again,
//!   but arena-resident in a `MAP_SHARED` mapping and incremented by real
//!   `fork(2)` child processes: the cross-process deployment of the
//!   counting network, priced against the threaded rows.
//!
//! Every thread count runs under two arrival schedules from
//! `shmem::adversary`: **bursty** (all workers released simultaneously —
//! maximum contention) and **steady** (staggered arrivals). After each
//! execution the harness verifies the final count is exact and, for the
//! network and adaptive backends, that the exit-wire counts satisfy the
//! step property at quiescence (per cascade layer for adaptive).
//!
//! The numbers are written to `BENCH_counters.json`. A separate **untimed**
//! telemetry pass then rebuilds each backend with every worker bound to its
//! own `obs` metric stripe and writes the merged snapshots — per-backend
//! latency histograms (`cnet.increment_ns`, `adaptive.increment_ns`),
//! prism outcomes, route-ups, balancer toggles and the contention sensor's
//! realized-contention gauges — to `OBS_counters.json`. Telemetry stays out
//! of the timed sweep: the workers there never bind a sink, so the
//! committed `BENCH_counters.json` baselines and the `--gate` verdicts
//! price the unbound (one flag load per site) hot path.
//!
//! Run with `cargo run --release -p renaming-bench --bin exp_counters`; pass
//! `--smoke` for a seconds-long CI-sized run that skips the JSON, or
//! `--gate` to replay the **full** sizing and fail (exit 1) when any
//! backend's *best* replayed execution regresses more than 20% past the
//! committed
//! `BENCH_counters.json` baseline.

use adaptive_renaming::counter::Counter;
use cnet::adaptive::AdaptiveNetworkCounter;
use cnet::counter::NetworkCounter;
use cnet::family::CountingFamily;
use cnet::verify::step_property_violation;
use renaming_bench::{enforce_gate, fmt1, Table};
use shmem::adversary::{ArrivalSchedule, ExecConfig};
use shmem::executor::Executor;
use shmem::process::{ProcessCtx, ProcessId};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Run sizing; the full sweep feeds `BENCH_counters.json`, the smoke sweep
/// bounds CI time.
struct Sizing {
    ops_per_worker: usize,
    executions: usize,
    threads: &'static [usize],
    write_json: bool,
}

const FULL: Sizing = Sizing {
    ops_per_worker: 500,
    executions: 3,
    threads: &[2, 4, 8, 16],
    write_json: true,
};

const SMOKE: Sizing = Sizing {
    ops_per_worker: 50,
    executions: 1,
    threads: &[2, 4],
    write_json: false,
};

/// The gate replays the FULL per-execution workload (so cells are
/// comparable to the committed baseline) with three times the executions:
/// the gate compares the *best* replay per cell, and a larger best-of-N
/// keeps the scheduler's worst moods out of the verdict.
const GATE: Sizing = Sizing {
    ops_per_worker: 500,
    executions: 9,
    threads: &[2, 4, 8, 16],
    write_json: false,
};

/// The arrival schedules the shootout sweeps.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Arrivals {
    /// All workers released together behind the barrier.
    Bursty,
    /// Workers arrive staggered, 20 µs apart.
    Steady,
}

impl Arrivals {
    fn all() -> [Arrivals; 2] {
        [Arrivals::Bursty, Arrivals::Steady]
    }

    fn name(&self) -> &'static str {
        match self {
            Arrivals::Bursty => "bursty",
            Arrivals::Steady => "steady",
        }
    }

    fn schedule(&self) -> ArrivalSchedule {
        match self {
            Arrivals::Bursty => ArrivalSchedule::Simultaneous,
            Arrivals::Steady => ArrivalSchedule::Staggered {
                gap: Duration::from_micros(20),
            },
        }
    }
}

/// One measured configuration.
struct Sample {
    backend: &'static str,
    threads: usize,
    arrivals: Arrivals,
    network_width: usize,
    mean_ns_per_op: f64,
    min_ns_per_op: f64,
    max_ns_per_op: f64,
    /// Mean shared-memory operations (of any kind) per increment.
    steps_per_op: f64,
    /// Mean balancer toggles per increment (zero for non-network backends).
    toggles_per_op: f64,
}

/// The width both network-based backends provision for: the largest thread
/// count of the sweep. The fixed `network` backend pays this width at every
/// thread count (the provision-for-the-maximum design the adaptive cascade
/// is built to beat at the quiet end); the `adaptive` backend's cascade tops
/// out at it.
const PROVISIONED_WIDTH: usize = 16;

/// A post-execution correctness check run at quiescence (step property,
/// layer accounting); returns a violation description on failure.
type PostCheck = Box<dyn Fn() -> Result<(), String>>;

/// Times `executions` fresh counters under `threads` workers × the sizing's
/// increments. `make` builds the counter and optionally a quiescent
/// correctness check to run after each execution.
fn measure(
    sizing: &Sizing,
    backend: &'static str,
    threads: usize,
    arrivals: Arrivals,
    network_width: usize,
    make: impl Fn() -> (Arc<dyn Counter>, Option<PostCheck>),
) -> Sample {
    let ops_per_worker = sizing.ops_per_worker;
    let total_ops = (threads * ops_per_worker) as f64;
    let mut total_ns = 0.0;
    let mut min_ns = f64::INFINITY;
    let mut max_ns: f64 = 0.0;
    let mut total_steps = 0u64;
    let mut total_toggles = 0u64;
    for execution in 0..sizing.executions {
        let (counter, post_check) = make();
        let config = ExecConfig::new(execution as u64).with_arrival(arrivals.schedule());
        let start = Instant::now();
        let outcome = Executor::new(config).run(threads, {
            let counter = Arc::clone(&counter);
            move |ctx| {
                for _ in 0..ops_per_worker {
                    counter.increment(ctx);
                }
            }
        });
        let elapsed = start.elapsed().as_nanos() as f64 / total_ops;
        total_ns += elapsed;
        min_ns = min_ns.min(elapsed);
        max_ns = max_ns.max(elapsed);
        let steps = outcome.total_steps();
        total_steps += steps.total_all();
        total_toggles += steps.balancer_toggles;

        // Correctness gates: the quiescent count is exact, and the network
        // backend's exit wires form a staircase.
        let mut quiescent = ProcessCtx::new(ProcessId::new(10_000), 0);
        let read = counter.read(&mut quiescent);
        assert_eq!(
            read,
            total_ops as u64,
            "{backend} at {threads} threads ({}) lost increments",
            arrivals.name(),
        );
        if let Some(check) = post_check {
            if let Err(violation) = check() {
                panic!(
                    "{backend} at {threads} threads ({}): {violation}",
                    arrivals.name()
                );
            }
        }
    }
    let ops_all_executions = total_ops * sizing.executions as f64;
    Sample {
        backend,
        threads,
        arrivals,
        network_width,
        mean_ns_per_op: total_ns / sizing.executions as f64,
        min_ns_per_op: min_ns,
        max_ns_per_op: max_ns,
        steps_per_op: total_steps as f64 / ops_all_executions,
        toggles_per_op: total_toggles as f64 / ops_all_executions,
    }
}

/// Measures the fixed-width network counter shared across **forked OS
/// processes** over a `MAP_SHARED` arena — the cross-process deployment of
/// the counting network (balancer slabs and exit wires all arena-resident,
/// children inheriting the compiled wiring by value). Bursty by
/// construction: children spin on a start word and are released together.
/// Step counts are reported back through arena words, since each child's
/// `ProcessCtx` lives in its own address space.
#[cfg(all(unix, not(miri)))]
fn measure_network_procs(sizing: &Sizing, processes: usize) -> Sample {
    use cnet::verify::has_step_property;
    use shmem::arena::Arena;
    use shmem::procs::{fork_child, wait_for_clean_exit};
    use std::sync::atomic::{AtomicU64, Ordering};

    let (family, width) = (CountingFamily::Bitonic, PROVISIONED_WIDTH);
    let ops_per_worker = sizing.ops_per_worker;
    let total_ops = (processes * ops_per_worker) as f64;
    let mut total_ns = 0.0;
    let mut min_ns = f64::INFINITY;
    let mut max_ns: f64 = 0.0;
    let mut total_steps = 0u64;
    let mut total_toggles = 0u64;
    for execution in 0..sizing.executions {
        // A fresh counter per execution, as in the threaded measure().
        let arena =
            Arena::shared(NetworkCounter::footprint(family, width) + (2 * processes + 3) * 64)
                .expect("anonymous MAP_SHARED arena");
        let counter = Arc::new(NetworkCounter::new_in(family, width, &arena));
        let ready = arena.alloc::<AtomicU64>().pin(&arena);
        let start_gate = arena.alloc::<AtomicU64>().pin(&arena);
        let done = arena.alloc::<AtomicU64>().pin(&arena);
        let steps = arena.alloc_slice::<AtomicU64>(processes).pin(&arena);
        let toggles = arena.alloc_slice::<AtomicU64>(processes).pin(&arena);
        let pids: Vec<i32> = (0..processes)
            .map(|worker| {
                // Pre-fork context; children only touch the shared mapping.
                let ctx = ProcessCtx::new(
                    ProcessId::new(worker),
                    (execution * processes + worker) as u64,
                );
                let counter = Arc::clone(&counter);
                let (ready, start_gate, done, steps, toggles) = (
                    ready.clone(),
                    start_gate.clone(),
                    done.clone(),
                    steps.clone(),
                    toggles.clone(),
                );
                fork_child(move || {
                    let mut ctx = ctx;
                    ready.fetch_add(1, Ordering::SeqCst);
                    while start_gate.load(Ordering::SeqCst) == 0 {
                        std::hint::spin_loop();
                    }
                    for _ in 0..ops_per_worker {
                        counter.increment(&mut ctx);
                    }
                    let stats = ctx.stats();
                    steps[worker].store(stats.total_all(), Ordering::SeqCst);
                    toggles[worker].store(stats.balancer_toggles, Ordering::SeqCst);
                    done.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        while ready.load(Ordering::SeqCst) < processes as u64 {
            std::thread::yield_now();
        }
        let timer = Instant::now();
        start_gate.store(1, Ordering::SeqCst);
        while done.load(Ordering::SeqCst) < processes as u64 {
            std::thread::yield_now();
        }
        let elapsed = timer.elapsed().as_nanos() as f64 / total_ops;
        total_ns += elapsed;
        min_ns = min_ns.min(elapsed);
        max_ns = max_ns.max(elapsed);
        for pid in pids {
            wait_for_clean_exit(pid);
        }
        total_steps += steps
            .iter()
            .map(|word| word.load(Ordering::SeqCst))
            .sum::<u64>();
        total_toggles += toggles
            .iter()
            .map(|word| word.load(Ordering::SeqCst))
            .sum::<u64>();

        // Correctness gates at quiescence, as in the threaded rows: the
        // count is exact across address spaces, the exit wires staircase.
        assert_eq!(
            counter.peek(),
            total_ops as u64,
            "network_mmap_procs at {processes} processes lost increments"
        );
        assert!(
            has_step_property(&counter.exit_counts()),
            "network_mmap_procs at {processes} processes: exit counts {:?} \
             violate the step property",
            counter.exit_counts()
        );
    }
    let ops_all_executions = total_ops * sizing.executions as f64;
    Sample {
        backend: "network_mmap_procs",
        threads: processes,
        arrivals: Arrivals::Bursty,
        network_width: width,
        mean_ns_per_op: total_ns / sizing.executions as f64,
        min_ns_per_op: min_ns,
        max_ns_per_op: max_ns,
        steps_per_op: total_steps as f64 / ops_all_executions,
        toggles_per_op: total_toggles as f64 / ops_all_executions,
    }
}

fn run_sweep(sizing: &Sizing) -> Vec<Sample> {
    let width = PROVISIONED_WIDTH;
    let mut samples = Vec::new();
    for &threads in sizing.threads {
        // Forked clients over a MAP_SHARED arena: the cross-process row.
        #[cfg(all(unix, not(miri)))]
        samples.push(measure_network_procs(sizing, threads));
        for arrivals in Arrivals::all() {
            samples.push(measure(sizing, "monotone", threads, arrivals, 0, || {
                let counter = <dyn Counter>::builder().monotone().build().unwrap();
                (counter, None)
            }));
            samples.push(measure(sizing, "network", threads, arrivals, width, || {
                let network = Arc::new(NetworkCounter::new(CountingFamily::Bitonic, width));
                let check = Arc::clone(&network);
                (
                    Arc::clone(&network) as Arc<dyn Counter>,
                    Some(Box::new(
                        move || match step_property_violation(&check.exit_counts()) {
                            Some(violation) => Err(violation.to_string()),
                            None => Ok(()),
                        },
                    ) as PostCheck),
                )
            }));
            samples.push(measure(
                sizing,
                "adaptive",
                threads,
                arrivals,
                width,
                || {
                    let adaptive =
                        Arc::new(AdaptiveNetworkCounter::new(CountingFamily::Bitonic, width));
                    let check = Arc::clone(&adaptive);
                    (
                        Arc::clone(&adaptive) as Arc<dyn Counter>,
                        Some(Box::new(move || {
                            // Every cascade layer must independently hold the
                            // step property at quiescence, and the per-layer
                            // token counts must conserve the deposited tokens.
                            check.check_step_property().map_err(|v| v.to_string())
                        }) as PostCheck),
                    )
                },
            ));
            samples.push(measure(sizing, "fetch_add", threads, arrivals, 0, || {
                let counter = <dyn Counter>::builder().fetch_add().build().unwrap();
                (counter, None)
            }));
        }
    }
    samples
}

fn print_table(samples: &[Sample]) {
    let mut table = Table::new(
        "Counter shootout — increments/op: monotone (renaming + max register) vs network \
         (fixed width 16) vs adaptive (prism + cascade) vs fetch-and-add",
        &[
            "backend",
            "threads",
            "arrivals",
            "width",
            "ns/op (mean)",
            "ns/op (min)",
            "ns/op (max)",
            "steps/op",
            "toggles/op",
        ],
    );
    for s in samples {
        table.row(vec![
            s.backend.to_string(),
            s.threads.to_string(),
            s.arrivals.name().to_string(),
            if s.network_width == 0 {
                "-".to_string()
            } else {
                s.network_width.to_string()
            },
            fmt1(s.mean_ns_per_op),
            fmt1(s.min_ns_per_op),
            fmt1(s.max_ns_per_op),
            fmt1(s.steps_per_op),
            fmt1(s.toggles_per_op),
        ]);
    }
    table.print();
}

fn write_json(sizing: &Sizing, samples: &[Sample]) -> std::io::Result<()> {
    let mut rows = String::new();
    for (index, s) in samples.iter().enumerate() {
        if index > 0 {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{\"backend\": \"{}\", \"threads\": {}, \"arrivals\": \"{}\", \
             \"network_width\": {}, \"mean_ns_per_op\": {:.1}, \"min_ns_per_op\": {:.1}, \
             \"max_ns_per_op\": {:.1}, \"steps_per_op\": {:.1}, \"toggles_per_op\": {:.1}}}",
            s.backend,
            s.threads,
            s.arrivals.name(),
            s.network_width,
            s.mean_ns_per_op,
            s.min_ns_per_op,
            s.max_ns_per_op,
            s.steps_per_op,
            s.toggles_per_op,
        ));
    }
    let json = format!(
        "{{\n  \"experiment\": \"counters\",\n  \"family\": \"bitonic\",\n  \
         \"ops_per_worker\": {},\n  \"executions\": {},\n  \
         \"padding_note\": \"{PADDING_NOTE}\",\n  \"rows\": [\n{rows}\n  ]\n}}\n",
        sizing.ops_per_worker, sizing.executions,
    );
    std::fs::write("BENCH_counters.json", json)
}

/// One untimed telemetry execution of `backend`: every worker binds its own
/// stripe of a fresh heap [`MetricsSlab`](obs::MetricsSlab), runs the
/// sizing's per-worker increments, and the stripes merge into one
/// [`Snapshot`](obs::Snapshot) — the per-backend histogram/counter rows of
/// `OBS_counters.json`.
fn observe(
    sizing: &Sizing,
    threads: usize,
    counter: Arc<dyn Counter>,
) -> (obs::Snapshot, shmem::steps::StepStats) {
    let ops_per_worker = sizing.ops_per_worker;
    let slab = obs::MetricsSlab::heap(threads);
    let config = ExecConfig::new(0).with_arrival(Arrivals::Bursty.schedule());
    let outcome = Executor::new(config).run(threads, {
        let counter = Arc::clone(&counter);
        let slab = Arc::clone(&slab);
        move |ctx| {
            obs::bind_metrics(slab.writer(ctx.id().as_usize()));
            for _ in 0..ops_per_worker {
                counter.increment(ctx);
            }
            obs::unbind();
        }
    });
    (obs::Snapshot::collect(&slab), outcome.total_steps())
}

/// Renders a [`StepStats`](shmem::steps::StepStats) as a JSON object via
/// its `as_pairs` exporter surface, dropping zero entries.
fn steps_json(steps: &shmem::steps::StepStats) -> String {
    let fields: Vec<String> = steps
        .as_pairs()
        .iter()
        .filter(|(_, value)| *value > 0)
        .map(|(name, value)| format!("\"{name}\": {value}"))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Writes `OBS_counters.json`: one telemetry row per (backend, threads)
/// cell, each carrying the merged snapshot of that cell's bound run. The
/// `realized_k` field is the row's realized contention — the number of
/// workers actually incrementing — which the adaptive backend's
/// `adaptive.sensor_estimate_fp` / `adaptive.routed_width` gauges can be
/// read against.
fn write_obs_json(sizing: &Sizing) -> std::io::Result<()> {
    let width = PROVISIONED_WIDTH;
    let mut rows = String::new();
    for &threads in sizing.threads {
        let backends: [(&str, Arc<dyn Counter>); 4] = [
            (
                "monotone",
                <dyn Counter>::builder().monotone().build().unwrap(),
            ),
            (
                "network",
                Arc::new(NetworkCounter::new(CountingFamily::Bitonic, width)),
            ),
            (
                "adaptive",
                Arc::new(AdaptiveNetworkCounter::new(CountingFamily::Bitonic, width)),
            ),
            (
                "fetch_add",
                <dyn Counter>::builder().fetch_add().build().unwrap(),
            ),
        ];
        for (backend, counter) in backends {
            let (snapshot, steps) = observe(sizing, threads, counter);
            if !rows.is_empty() {
                rows.push_str(",\n");
            }
            rows.push_str(&format!(
                "    {{\"backend\": \"{backend}\", \"threads\": {threads}, \
                 \"realized_k\": {threads}, \"steps\": {}, \"telemetry\": {}}}",
                steps_json(&steps),
                snapshot.to_json().trim_end(),
            ));
        }
    }
    let json = format!(
        "{{\n  \"experiment\": \"counters\",\n  \"ops_per_worker\": {},\n  \
         \"rows\": [\n{rows}\n  ]\n}}\n",
        sizing.ops_per_worker,
    );
    std::fs::write("OBS_counters.json", json)
}

/// Before/after record for the cache-line-padding satellite, kept alongside
/// the refreshed numbers: the pre-padding committed baseline for the fixed
/// network backend at the widest, most contended configuration.
const PADDING_NOTE: &str = "exit wires, balancer slabs and free-list summary words are \
     cache-line padded (repr align 64); pre-padding committed baseline for network w=16, \
     16 threads, bursty: mean 222.9 ns/op, max 282.5 ns/op";

/// `--gate`: replay the full sizing and compare every (backend, threads,
/// arrivals) best (minimum ns/op) execution against the committed
/// `BENCH_counters.json`, failing when even the best replay sits >20% past
/// the committed mean (or committed max for rows whose baseline was
/// already noisy), when a cell has no committed row, or when a committed
/// row has no cell. Exits the process with status 1 on failure.
fn run_gate(samples: &[Sample]) {
    let fresh: Vec<(Vec<String>, f64)> = samples
        .iter()
        .map(|s| {
            let key = vec![
                s.backend.to_string(),
                s.threads.to_string(),
                s.arrivals.name().to_string(),
            ];
            (key, s.min_ns_per_op)
        })
        .collect();
    enforce_gate(
        "BENCH_counters.json",
        &["backend", "threads", "arrivals"],
        &fresh,
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|arg| arg == "--smoke");
    let gate = args.iter().any(|arg| arg == "--gate");
    // `--no-obs` skips the telemetry pass: the overhead gate
    // (tools/obs_overhead.sh) compares telemetry-on vs obs-off builds over
    // *identical* work, so the bound recording of the telemetry pass must
    // not leak into the comparison.
    let no_obs = args.iter().any(|arg| arg == "--no-obs");
    // The gate replays the full per-execution workload (a smoke-sized run
    // against the committed full-sized baseline would compare different
    // workloads) with extra executions per cell — see GATE.
    let sizing = if gate {
        &GATE
    } else if smoke {
        &SMOKE
    } else {
        &FULL
    };
    let samples = run_sweep(sizing);
    print_table(&samples);
    for &threads in sizing.threads {
        let ns = |backend: &str| {
            samples
                .iter()
                .find(|s| {
                    s.backend == backend && s.threads == threads && s.arrivals == Arrivals::Bursty
                })
                .map(|s| s.mean_ns_per_op)
                .unwrap_or(f64::NAN)
        };
        let network = ns("network");
        let adaptive = ns("adaptive");
        println!(
            "{threads:>2} threads (bursty): monotone {:.0} ns/op, network(w16) {network:.0} \
             ns/op, adaptive {adaptive:.0} ns/op ({:.2}x vs fixed width), fetch_add {:.0} ns/op",
            ns("monotone"),
            network / adaptive,
            ns("fetch_add"),
        );
    }
    if gate {
        run_gate(&samples);
    } else {
        if sizing.write_json {
            match write_json(sizing, &samples) {
                Ok(()) => println!("wrote BENCH_counters.json"),
                Err(error) => eprintln!("failed to write BENCH_counters.json: {error}"),
            }
        } else {
            println!("smoke mode: BENCH_counters.json left untouched");
        }
        // The telemetry pass runs after every timed execution has finished:
        // binding a sink flips the process-wide enable flag, so the order
        // keeps the timed sweep above on the never-enabled fast path.
        if no_obs {
            println!("--no-obs: OBS_counters.json left untouched");
        } else {
            match write_obs_json(sizing) {
                Ok(()) => println!("wrote OBS_counters.json"),
                Err(error) => eprintln!("failed to write OBS_counters.json: {error}"),
            }
        }
    }
}
