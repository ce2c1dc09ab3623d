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
//!
//! The timing loops, telemetry pass and JSON writers are the shared
//! [`renaming_bench::sweep`] driver.

use adaptive_renaming::counter::Counter;
use cnet::adaptive::AdaptiveNetworkCounter;
use cnet::counter::NetworkCounter;
use cnet::family::CountingFamily;
use cnet::verify::step_property_violation;
use renaming_bench::sweep::{observe_threads, steps_json, time_threads, JsonRow, Sizing, Timing};
use renaming_bench::{fmt1, Table};
use shmem::adversary::ArrivalSchedule;
use shmem::process::{ProcessCtx, ProcessId};
use std::sync::Arc;
use std::time::Duration;

/// Full-sweep sizing: operations per worker, executions per row, and
/// executions per row of the smoke run (see [`renaming_bench::sweep::Mode`]).
const SIZING: (usize, usize, usize) = (500, 3, 1);

/// The arrival schedules the shootout sweeps: **bursty** releases all
/// workers together behind the barrier, **steady** staggers their arrivals
/// `STEADY_GAP` apart.
const ARRIVALS: [(&str, ArrivalSchedule); 2] = [
    ("bursty", ArrivalSchedule::Simultaneous),
    ("steady", ArrivalSchedule::Staggered { gap: STEADY_GAP }),
];
const STEADY_GAP: Duration = Duration::from_micros(20);

/// One measured configuration.
struct Sample {
    backend: &'static str,
    threads: usize,
    arrivals: &'static str,
    network_width: usize,
    timing: Timing,
    /// Mean shared-memory operations (of any kind) per increment.
    steps_per_op: f64,
    /// Mean balancer toggles per increment (zero for non-network backends).
    toggles_per_op: f64,
}

impl Sample {
    fn json(&self) -> JsonRow {
        JsonRow::new()
            .text("backend", self.backend)
            .raw("threads", self.threads)
            .text("arrivals", self.arrivals)
            .raw("network_width", self.network_width)
            .timing(&self.timing)
            .fixed1("steps_per_op", self.steps_per_op)
            .fixed1("toggles_per_op", self.toggles_per_op)
    }
}

/// The width both network-based backends provision for: the largest thread
/// count of the sweep. The fixed `network` backend pays this width at every
/// thread count (the provision-for-the-maximum design the adaptive cascade
/// is built to beat at the quiet end); the `adaptive` backend's cascade tops
/// out at it.
const PROVISIONED_WIDTH: usize = 16;

/// The threaded backends in sweep order, each with the network width it
/// provisions (0 for none).
const BACKENDS: [(&str, usize); 4] = [
    ("monotone", 0),
    ("network", PROVISIONED_WIDTH),
    ("adaptive", PROVISIONED_WIDTH),
    ("fetch_add", 0),
];

/// A post-execution correctness check run at quiescence (step property,
/// layer accounting); returns a violation description on failure.
type PostCheck = Box<dyn Fn() -> Result<(), String> + Sync>;

/// A fresh counter of `backend`, with its quiescent check if it has one.
fn build(backend: &str) -> (Arc<dyn Counter>, Option<PostCheck>) {
    let family = CountingFamily::Bitonic;
    match backend {
        "monotone" => (<dyn Counter>::builder().monotone().build().unwrap(), None),
        "network" => {
            let network = Arc::new(NetworkCounter::new(family, PROVISIONED_WIDTH));
            let check = Arc::clone(&network);
            let check: PostCheck = Box::new(move || {
                step_property_violation(&check.exit_counts()).map_or(Ok(()), |v| Err(v.to_string()))
            });
            (network, Some(check))
        }
        "adaptive" => {
            let adaptive = Arc::new(AdaptiveNetworkCounter::new(family, PROVISIONED_WIDTH));
            let check = Arc::clone(&adaptive);
            // Every cascade layer must independently hold the step property
            // at quiescence, and the per-layer token counts must conserve
            // the deposited tokens.
            let check: PostCheck =
                Box::new(move || check.check_step_property().map_err(|v| v.to_string()));
            (adaptive, Some(check))
        }
        "fetch_add" => (<dyn Counter>::builder().fetch_add().build().unwrap(), None),
        _ => unreachable!("unknown backend {backend}"),
    }
}

/// Times `executions` fresh `backend` counters under `threads` workers ×
/// the sizing's increments, checking after each execution that the
/// quiescent count is exact and the backend's own check holds.
fn measure(
    sizing: &Sizing,
    (backend, network_width): (&'static str, usize),
    threads: usize,
    (arrivals, schedule): (&'static str, ArrivalSchedule),
) -> Sample {
    let total_ops = threads * sizing.ops_per_worker;
    let (mut steps, mut toggles) = (0u64, 0u64);
    let timing = time_threads(
        sizing,
        threads,
        1,
        schedule,
        || build(backend),
        |(counter, _), ctx| counter.increment(ctx),
        |(counter, post_check), outcome| {
            let total = outcome.total_steps();
            steps += total.total_all();
            toggles += total.balancer_toggles;
            let mut quiescent = ProcessCtx::new(ProcessId::new(10_000), 0);
            assert_eq!(
                counter.read(&mut quiescent),
                total_ops as u64,
                "{backend} at {threads} threads ({arrivals}) lost increments"
            );
            if let Some(Err(violation)) = post_check.map(|check| check()) {
                panic!("{backend} at {threads} threads ({arrivals}): {violation}");
            }
        },
    );
    let ops_all_executions = (total_ops * sizing.executions) as f64;
    Sample {
        backend,
        threads,
        arrivals,
        network_width,
        timing,
        steps_per_op: steps as f64 / ops_all_executions,
        toggles_per_op: toggles as f64 / ops_all_executions,
    }
}

/// Measures the fixed-width network counter shared across **forked OS
/// processes** over a `MAP_SHARED` arena — the cross-process deployment of
/// the counting network (balancer slabs and exit wires all arena-resident,
/// children inheriting the compiled wiring by value). Bursty by
/// construction: children spin on the start gate and are released
/// together. Step counts are reported back through the report words, since
/// each child's `ProcessCtx` lives in its own address space.
#[cfg(all(unix, not(miri)))]
fn measure_network_procs(sizing: &Sizing, processes: usize) -> Sample {
    use cnet::verify::has_step_property;
    use renaming_bench::sweep::time_forked;
    use shmem::arena::Arena;

    let (family, width) = (CountingFamily::Bitonic, PROVISIONED_WIDTH);
    let total_ops = processes * sizing.ops_per_worker;
    let (mut steps, mut toggles) = (0u64, 0u64);
    let timing = time_forked(
        sizing,
        processes,
        // A fresh counter per execution, as in the threaded rows.
        || {
            let arena = Arena::shared(NetworkCounter::footprint(family, width))
                .expect("anonymous MAP_SHARED arena");
            NetworkCounter::new_in(family, width, &arena)
        },
        |counter, ctx, start| {
            start();
            for _ in 0..sizing.ops_per_worker {
                counter.increment(ctx);
            }
            let stats = ctx.stats();
            [stats.total_all(), stats.balancer_toggles]
        },
        |counter, reports| {
            for [child_steps, child_toggles] in reports {
                steps += child_steps;
                toggles += child_toggles;
            }
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
        },
    );
    let ops_all_executions = (total_ops * sizing.executions) as f64;
    Sample {
        backend: "network_mmap_procs",
        threads: processes,
        arrivals: "bursty",
        network_width: width,
        timing,
        steps_per_op: steps as f64 / ops_all_executions,
        toggles_per_op: toggles as f64 / ops_all_executions,
    }
}

fn run_sweep(sizing: &Sizing) -> Vec<Sample> {
    let mut samples = Vec::new();
    for &threads in sizing.threads {
        // Forked clients over a MAP_SHARED arena: the cross-process row.
        #[cfg(all(unix, not(miri)))]
        samples.push(measure_network_procs(sizing, threads));
        for arrivals in ARRIVALS {
            for backend in BACKENDS {
                samples.push(measure(sizing, backend, threads, arrivals));
            }
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
        let [mean, min, max] = s.timing.cells();
        table.row(vec![
            s.backend.to_string(),
            s.threads.to_string(),
            s.arrivals.to_string(),
            if s.network_width == 0 {
                "-".to_string()
            } else {
                s.network_width.to_string()
            },
            mean,
            min,
            max,
            fmt1(s.steps_per_op),
            fmt1(s.toggles_per_op),
        ]);
    }
    table.print();
}

/// The untimed telemetry pass: one row per (backend, threads) cell, each
/// carrying the merged snapshot and step totals of that cell's bound run.
/// The `realized_k` field is the row's realized contention — the number of
/// workers actually incrementing — which the adaptive backend's
/// `adaptive.sensor_estimate_fp` / `adaptive.routed_width` gauges can be
/// read against.
fn observe(sizing: &Sizing) -> Vec<JsonRow> {
    let mut rows = Vec::new();
    for &threads in sizing.threads {
        for (backend, _) in BACKENDS {
            let (counter, _) = build(backend);
            let (snapshot, steps) =
                observe_threads(sizing, threads, &counter, |c, ctx| c.increment(ctx));
            rows.push(
                JsonRow::new()
                    .text("backend", backend)
                    .raw("threads", threads)
                    .raw("realized_k", threads)
                    .raw("steps", steps_json(&steps))
                    .raw("telemetry", snapshot.to_json().trim_end()),
            );
        }
    }
    rows
}

/// Before/after record for the cache-line-padding satellite, kept alongside
/// the refreshed numbers: the pre-padding committed baseline for the fixed
/// network backend at the widest, most contended configuration.
const PADDING_NOTE: &str = "exit wires, balancer slabs and free-list summary words are \
     cache-line padded (repr align 64); pre-padding committed baseline for network w=16, \
     16 threads, bursty: mean 222.9 ns/op, max 282.5 ns/op";

fn main() {
    let sizing = &Sizing::from_args(SIZING);
    let samples = run_sweep(sizing);
    print_table(&samples);
    for &threads in sizing.threads {
        let ns = |backend: &str| {
            samples
                .iter()
                .find(|s| s.backend == backend && s.threads == threads && s.arrivals == "bursty")
                .map(|s| s.timing.mean_ns_per_op)
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
    let header = JsonRow::new()
        .text("family", "bitonic")
        .raw("ops_per_worker", sizing.ops_per_worker)
        .raw("executions", sizing.executions)
        .text("padding_note", PADDING_NOTE);
    sizing.finish(
        "counters",
        &["backend", "threads", "arrivals"],
        header,
        "rows",
        samples.iter().map(|s| (s.json(), s.timing)),
        observe,
    );
}
