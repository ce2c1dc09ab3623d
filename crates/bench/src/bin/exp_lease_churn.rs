//! Lease-churn throughput: long-lived renaming vs the ticket baseline.
//!
//! Worker threads repeatedly lease and release a name. The contenders:
//!
//! * **`Recycler`** — the compiled §5 renaming network behind the
//!   lock-free recycling free list, a two-level bitmap: pop-minimum
//!   consults a summary word and visits only data words that have ever
//!   held a free name, so hits *and* misses are `O(1)` expected under
//!   churn. Names stay inside `1..=threads` forever (the *tight*
//!   long-lived guarantee).
//! * **`ShardedRecycler`** — one recycler per worker-count shard over
//!   disjoint name ranges, home shards by process id, overflow stealing.
//!   Shard-local atomics take the coherence traffic out of the hot path at
//!   the price of the documented *loose* bound
//!   (`namespace ≤ shards × per-shard contention`, names ≤ shards × span).
//! * **`BatchedRecycler` (the builder default)** — the hierarchical
//!   recycler behind the builder's default release-batching stash:
//!   single-lease churn whose releases park in striped stashes and flush to
//!   the free list in batches of 8. One free-list operation per batch
//!   instead of per release, at the price of the per-grant tight bound
//!   (names stay unique and ≤ the concurrency bound).
//! * **`RobustLeaseTable` over forked processes** (unix only) — real
//!   `fork(2)` children churning the crash-robust lease table through a
//!   `MAP_SHARED` arena, each stamping its OS pid as the lease owner. The
//!   cross-process deployment the arena subsystem exists for, priced
//!   against the in-process rows.
//! * **`CasCounter`-style ticket dispenser** — one `fetch_add` per acquire,
//!   one per release. As fast as the hardware allows, but the namespace
//!   grows without bound: after `10^9` operations names are 10 decimal
//!   digits wide, which is exactly what renaming exists to prevent.
//!
//! Reported: acquire/release cycles per second at 2/4/8/16 threads, plus
//! the recyclers' fresh/recycled split and each variant's namespace bound.
//! Every row's `max name seen` is checked against its documented bound.
//! The numbers are written to `BENCH_lease_churn.json` so the trajectory of
//! the long-lived hot path is tracked across revisions.
//!
//! A separate **untimed** telemetry pass then re-runs each variant with
//! every worker bound to its own `obs` metric stripe and writes the merged
//! snapshots — grant/acquire latency histograms, fresh/recycled splits,
//! CAS retry and stash/flush counters — to `OBS_lease_churn.json`. The
//! robust row's stripes live in the same `MAP_SHARED` arena as the lease
//! table, escrowed per forked child and merged by the parent at snapshot
//! time. Telemetry stays out of the timed sweep: workers there never bind
//! a sink, so the committed baselines and `--gate` verdicts price the
//! unbound hot path.
//!
//! Run with `cargo run --release -p renaming-bench --bin exp_lease_churn`;
//! pass `--smoke` for a seconds-long CI-sized run that skips the JSON, or
//! `--gate` to replay the **full** sizing and fail (exit 1) when any
//! variant's *best* replayed execution regresses more than 20% past the
//! committed
//! `BENCH_lease_churn.json` baseline.
//!
//! The timing loops, telemetry pass and JSON writers are the shared
//! [`renaming_bench::sweep`] driver.

use adaptive_renaming::batched::BatchedRecycler;
use adaptive_renaming::builder::RenamingBuilder;
use adaptive_renaming::lease::LongLivedRenaming;
use adaptive_renaming::recycler::Recycler;
use adaptive_renaming::sharded::ShardedRecycler;
use adaptive_renaming::traits::Renaming;
use renaming_bench::sweep::{observe_threads, time_threads, JsonRow, Sizing, Timing};
use renaming_bench::Table;
use shmem::adversary::ArrivalSchedule;
use shmem::process::ProcessCtx;
use shmem::register::AtomicU64Register;
use std::sync::Arc;

/// Input wires of the one-shot network under the single recyclers.
const WIDTH: usize = 64;
/// Input wires of each shard's one-shot network under the sharded recycler.
const SHARD_SPAN: usize = 8;
/// Live leases allowed per shard (the loose per-shard admission bound).
const PER_SHARD_MAX: usize = 2;
/// Leases per call of the batched variant (amortized admission + release).
const BATCH: usize = 8;
/// Full-sweep sizing: operations per worker, executions per row, and
/// executions per row of the smoke run (see [`renaming_bench::sweep::Mode`]).
const SIZING: (usize, usize, usize) = (2_000, 5, 2);

/// How a variant's namespace is bounded, for the per-row `max_name` check.
#[derive(Clone, Copy)]
enum Bound {
    /// Names stay in `1..=limit` (limit = the concurrency bound).
    Tight(usize),
    /// Names stay in `1..=limit` (limit = shards × span); the *set* in use
    /// is further bounded by shards × per-shard contention.
    Loose(usize),
    /// No bound — the baseline's failure mode, not a guarantee.
    Unbounded,
}

impl Bound {
    fn kind(&self) -> &'static str {
        match self {
            Bound::Tight(_) => "tight",
            Bound::Loose(_) => "loose",
            Bound::Unbounded => "unbounded",
        }
    }

    fn limit(&self) -> usize {
        match self {
            Bound::Tight(limit) | Bound::Loose(limit) => *limit,
            Bound::Unbounded => 0,
        }
    }

    fn admits(&self, name: usize) -> bool {
        match self {
            Bound::Tight(limit) | Bound::Loose(limit) => name <= *limit,
            Bound::Unbounded => true,
        }
    }
}

/// The static shape of one measured variant.
struct VariantSpec {
    variant: &'static str,
    threads: usize,
    bound: Bound,
    /// Lease/release ops per cycle: 1 for the single-lease variants, the
    /// batch size for the batched ones.
    ops_per_call: usize,
    /// Capacity of the variant's inner one-shot object(s): the network
    /// width of a single recycler, the per-shard width of the sharded one.
    inner_capacity: usize,
}

/// One measured configuration.
struct Sample {
    spec: VariantSpec,
    timing: Timing,
    max_name: usize,
    /// Fresh and recycled grants.
    names: (usize, usize),
}

impl Sample {
    /// Checks the largest name seen against the variant's bound.
    fn new(spec: VariantSpec, timing: Timing, max_name: usize, names: (usize, usize)) -> Sample {
        assert!(
            spec.bound.admits(max_name),
            "{} at {} threads leaked name {max_name} past its {} bound of {}",
            spec.variant,
            spec.threads,
            spec.bound.kind(),
            spec.bound.limit(),
        );
        Sample {
            spec,
            timing,
            max_name,
            names,
        }
    }

    fn json(&self) -> JsonRow {
        JsonRow::new()
            .text("variant", self.spec.variant)
            .raw("threads", self.spec.threads)
            .timing(&self.timing)
            .raw("max_name", self.max_name)
            .text("bound_kind", self.spec.bound.kind())
            .raw("namespace_bound", self.spec.bound.limit())
            .raw("inner_capacity", self.spec.inner_capacity)
            .raw("fresh_names", self.names.0)
            .raw("recycled_names", self.names.1)
    }
}

/// Times `cycle` over `object`: each call performs `spec.ops_per_call`
/// lease/release ops and returns the largest name it observed. `stats`
/// reads the (fresh, recycled) split once the sweep is done.
fn measure<T: Sync>(
    sizing: &Sizing,
    spec: VariantSpec,
    object: &T,
    stats: impl FnOnce(&T) -> (usize, usize),
    cycle: impl Fn(&T, &mut ProcessCtx) -> usize + Sync,
) -> Sample {
    let mut max_name = 0;
    let timing = time_threads(
        sizing,
        spec.threads,
        spec.ops_per_call,
        ArrivalSchedule::Simultaneous,
        || object,
        |object, ctx| cycle(object, ctx),
        |_, outcome| max_name = max_name.max(outcome.results().into_iter().max().unwrap_or(0)),
    );
    Sample::new(spec, timing, max_name, stats(object))
}

/// A recycler over one compiled renaming network.
type NetRecycler = Recycler<Arc<dyn Renaming>>;

fn network(capacity: usize) -> Arc<dyn Renaming> {
    RenamingBuilder::new()
        .network()
        .capacity(capacity)
        .hardware_comparators()
        .build()
        .expect("valid configuration")
}

/// The raw lease surface of a single recycler: like the ticket baseline,
/// the cycle carries no RAII guard (which would add two reference count
/// updates per cycle on top of the renaming protocol).
fn recycler_cycle(recycler: &NetRecycler, ctx: &mut ProcessCtx) -> usize {
    let name = recycler
        .lease_raw(ctx)
        .expect("admission bound equals the worker count");
    recycler.release_with(ctx, name);
    name
}

/// The builder default: the hierarchical recycler behind the
/// `BatchedRecycler` stash, returned with its inner recycler.
fn stash(threads: usize) -> (Arc<NetRecycler>, BatchedRecycler) {
    let inner = Arc::new(Recycler::new(network(WIDTH), threads));
    let stash = BatchedRecycler::new(Arc::clone(&inner) as Arc<dyn LongLivedRenaming>, BATCH);
    (inner, stash)
}

/// Plain lease/release through the stash. Stashed names hold admission
/// slots until their batch flushes, so a lease can spuriously collide with
/// an in-flight release; retry until the name lands (the stash sweep finds
/// it on the next pass).
fn stash_cycle(stash: &BatchedRecycler, ctx: &mut ProcessCtx) -> usize {
    let name = loop {
        if let Ok(name) = stash.lease_raw(ctx) {
            break name;
        }
    };
    stash.release_with(ctx, name);
    name
}

/// The crash-robust lease table shared across **forked OS processes** over
/// a `MAP_SHARED` arena: the cross-process analogue of the thread rows.
/// Each child acquires and releases through the generation-stamped slot
/// protocol with its pid as the owner stamp, so the row prices the full
/// robust protocol (scan + CAS acquire, CAS release, releases-seqlock bump)
/// on real shared memory. With `telemetry`, each child also records into
/// its own stripe of a metrics slab **escrowed in the same arena as the
/// table**, merged into the returned snapshot after the children exit
/// (empty without).
#[cfg(all(unix, not(miri)))]
fn robust_procs(sizing: &Sizing, processes: usize, telemetry: bool) -> (Sample, obs::Snapshot) {
    use adaptive_renaming::robust::RobustLeaseTable;
    use renaming_bench::sweep::time_forked;
    use shmem::arena::Arena;

    let bytes = RobustLeaseTable::footprint(processes) + obs::MetricsSlab::footprint(processes);
    let arena = Arena::shared(bytes + 64).expect("anonymous MAP_SHARED arena");
    let table = RobustLeaseTable::with_capacity_in(&arena, processes);
    let slab = obs::MetricsSlab::new_in(&arena, processes);
    let mut max_name = 0;
    let timing = time_forked(
        sizing,
        processes,
        || (),
        |(), ctx, start| {
            if telemetry {
                obs::bind_metrics(slab.writer(ctx.id().as_usize()));
            }
            // Register before the gate: the registry claim is atomics-only
            // (fork-safe) and must stay outside the timed window. Dead
            // children of earlier executions are recycled here, so the
            // registry never fills up.
            let registration = table
                .register_current_process()
                .expect("the registry admits every live child");
            start();
            let mut worst = 0;
            for _ in 0..sizing.ops_per_worker {
                let name = table
                    .acquire(ctx, registration.tag())
                    .expect("table capacity equals the process count");
                worst = worst.max(name);
                table.release(ctx, name);
            }
            [worst as u64]
        },
        |(), reports| {
            for &[worst] in reports {
                max_name = max_name.max(worst as usize);
            }
            assert_eq!(
                table.live_leases(),
                0,
                "every lease must be released once the children are done"
            );
        },
    );
    let spec = VariantSpec {
        variant: "robust_mmap_procs",
        threads: processes,
        bound: Bound::Tight(processes),
        ops_per_call: 1,
        inner_capacity: processes,
    };
    // Every completed HELD→FREE transition is a recycle of its slot.
    let sample = Sample::new(spec, timing, max_name, (0, table.transitions()));
    (sample, obs::Snapshot::collect(&slab))
}

fn run_sweep(sizing: &Sizing) -> Vec<Sample> {
    let mut samples = Vec::new();
    for &threads in sizing.threads {
        let spec = |variant, bound, ops_per_call, inner_capacity| VariantSpec {
            variant,
            threads,
            bound,
            ops_per_call,
            inner_capacity,
        };
        let recycler_stats =
            |recycler: &NetRecycler| (recycler.fresh_names(), recycler.recycled_names());

        // --- Recycler over the compiled renaming network -----------------
        samples.push(measure(
            sizing,
            spec("recycler_hierarchical", Bound::Tight(threads), 1, WIDTH),
            &Recycler::new(network(WIDTH), threads),
            recycler_stats,
            recycler_cycle,
        ));

        // --- Batched leases: admission and release amortized over BATCH ---
        // Each worker cycles a whole batch at a time through the raw batch
        // surface: one admission reservation and one release-side counter
        // bump per BATCH leases instead of per lease.
        let capacity = threads * BATCH;
        samples.push(measure(
            sizing,
            spec(
                "recycler_hierarchical_batch8",
                Bound::Tight(capacity),
                BATCH,
                capacity,
            ),
            &Recycler::new(network(capacity), capacity),
            recycler_stats,
            |batched, ctx| {
                let mut names = Vec::with_capacity(BATCH);
                batched
                    .lease_many_raw(ctx, BATCH, &mut names)
                    .expect("admission bound equals workers × batch");
                let worst = names.iter().copied().max().unwrap_or(0);
                batched.release_many_raw(&names);
                worst
            },
        ));

        // --- Builder-default stash: single leases, batched releases -------
        // No caller-side batching: the release cost is amortized by the
        // stripe stashes. Names stay within the concurrency bound but lose
        // the per-grant tightness, so the row is labelled loose.
        let (inner, stashed) = stash(threads);
        samples.push(measure(
            sizing,
            spec("builder_default_stash8", Bound::Loose(threads), 1, WIDTH),
            &stashed,
            |_| recycler_stats(&inner),
            stash_cycle,
        ));

        // --- Sharded recycler: one home shard per worker ------------------
        let sharded = ShardedRecycler::new(
            (0..threads).map(|_| network(SHARD_SPAN)).collect(),
            PER_SHARD_MAX,
        );
        samples.push(measure(
            sizing,
            spec(
                "sharded_recycler",
                Bound::Loose(threads * sharded.span()),
                1,
                SHARD_SPAN,
            ),
            &sharded,
            |sharded| (sharded.fresh_names(), sharded.recycled_names()),
            |sharded, ctx| {
                let name = sharded
                    .lease_raw(ctx)
                    .expect("every worker fits in its home shard");
                sharded.release_with(ctx, name);
                name
            },
        ));

        // --- Crash-robust lease table across forked OS processes ----------
        // Real fork(2) children over a MAP_SHARED arena: the only row whose
        // contenders are processes, not threads. Unix only.
        #[cfg(all(unix, not(miri)))]
        samples.push(robust_procs(sizing, threads, false).0);

        // --- Ticket baseline: fetch-and-add acquire + release -------------
        samples.push(measure(
            sizing,
            spec("cas_ticket_baseline", Bound::Unbounded, 1, 0),
            &(AtomicU64Register::new(0), AtomicU64Register::new(0)),
            |_| (0, 0),
            |(tickets, stubs), ctx| {
                let name = tickets.fetch_add(ctx, 1) as usize + 1;
                stubs.fetch_add(ctx, 1); // "return the ticket stub"
                name
            },
        ));
    }
    samples
}

fn print_table(samples: &[Sample]) {
    let mut table = Table::new(
        "Lease churn — acquire/release cycles: recyclers (single/batched/sharded) vs ticket dispenser",
        &[
            "variant",
            "threads",
            "ns/op (mean)",
            "ns/op (min)",
            "ns/op (max)",
            "max name seen",
            "bound",
            "fresh",
            "recycled",
        ],
    );
    for s in samples {
        let bound = match s.spec.bound {
            Bound::Unbounded => "none".to_string(),
            bound => format!("{} ≤{}", bound.kind(), bound.limit()),
        };
        let [mean, min, max] = s.timing.cells();
        table.row(vec![
            s.spec.variant.to_string(),
            s.spec.threads.to_string(),
            mean,
            min,
            max,
            s.max_name.to_string(),
            bound,
            s.names.0.to_string(),
            s.names.1.to_string(),
        ]);
    }
    table.print();
}

/// The untimed telemetry pass: one row per (variant, threads) cell, each
/// carrying the merged snapshot of that cell's bound run.
fn observe(sizing: &Sizing) -> Vec<JsonRow> {
    // One untimed execution of the forked row.
    #[cfg(all(unix, not(miri)))]
    let once = &Sizing {
        executions: 1,
        ..*sizing
    };
    let mut rows = Vec::new();
    for &threads in sizing.threads {
        let mut push_row = |variant: &str, snapshot: obs::Snapshot| {
            rows.push(
                JsonRow::new()
                    .text("variant", variant)
                    .raw("threads", threads)
                    .raw("telemetry", snapshot.to_json().trim_end()),
            );
        };
        let recycler = Recycler::new(network(WIDTH), threads);
        let (snapshot, _) = observe_threads(sizing, threads, &recycler, recycler_cycle);
        push_row("recycler_hierarchical", snapshot);
        let (snapshot, _) = observe_threads(sizing, threads, &stash(threads).1, stash_cycle);
        push_row("builder_default_stash8", snapshot);
        #[cfg(all(unix, not(miri)))]
        push_row("robust_mmap_procs", robust_procs(once, threads, true).1);
    }
    rows
}

fn main() {
    let sizing = &Sizing::from_args(SIZING);
    let samples = run_sweep(sizing);
    print_table(&samples);
    for &threads in sizing.threads {
        let ns = |variant: &str| {
            samples
                .iter()
                .find(|s| s.spec.variant == variant && s.spec.threads == threads)
                .map(|s| s.timing.mean_ns_per_op)
                .unwrap_or(f64::NAN)
        };
        let ticket = ns("cas_ticket_baseline");
        println!(
            "{threads:>2} threads: hierarchical {:.0} ns/op ({:.1}x), batch8 {:.0} ns/op \
             ({:.1}x), stash8 {:.0} ns/op ({:.1}x), sharded {:.0} ns/op ({:.1}x) vs \
             ticket {ticket:.0} ns/op; tight namespace 1..={threads}, loose ≤ {}",
            ns("recycler_hierarchical"),
            ns("recycler_hierarchical") / ticket,
            ns("recycler_hierarchical_batch8"),
            ns("recycler_hierarchical_batch8") / ticket,
            ns("builder_default_stash8"),
            ns("builder_default_stash8") / ticket,
            ns("sharded_recycler"),
            ns("sharded_recycler") / ticket,
            threads * SHARD_SPAN,
        );
    }
    let header = JsonRow::new()
        .raw("network_width", WIDTH)
        .raw("shard_span", SHARD_SPAN)
        .raw("ops_per_worker", sizing.ops_per_worker)
        .raw("executions", sizing.executions);
    sizing.finish(
        "lease_churn",
        &["variant", "threads"],
        header,
        "variants",
        samples.iter().map(|s| (s.json(), s.timing)),
        observe,
    );
}
