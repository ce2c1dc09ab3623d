//! Criterion bench for the long-lived lease hot path: recyclers (single,
//! batched, sharded) against the CAS-ticket dispenser.
//!
//! Each measured iteration runs a fresh object through `THREADS` concurrent
//! workers × `OPS` acquire/release cycles on the raw (guard-free) lease
//! surface, so the numbers isolate the renaming protocol itself.
//! `exp_lease_churn` records the same comparison into
//! `BENCH_lease_churn.json` with per-thread-count sweeps.

use adaptive_renaming::builder::RenamingBuilder;
use adaptive_renaming::lease::LongLivedRenaming;
use adaptive_renaming::recycler::Recycler;
use adaptive_renaming::sharded::ShardedRecycler;
use adaptive_renaming::traits::Renaming;
use criterion::{criterion_group, criterion_main, Criterion};
use shmem::adversary::ExecConfig;
use shmem::executor::Executor;
use shmem::register::AtomicU64Register;
use std::sync::Arc;
use std::time::Duration;

const THREADS: usize = 4;
const OPS: usize = 500;
const BATCH: usize = 8;

fn network(capacity: usize) -> Arc<dyn Renaming> {
    RenamingBuilder::new()
        .network()
        .capacity(capacity)
        .hardware_comparators()
        .build()
        .expect("valid configuration")
}

/// Runs every worker through `OPS` single-lease cycles; returns completions.
fn churn(object: Arc<dyn LongLivedRenaming>) -> usize {
    let outcome = Executor::new(ExecConfig::new(5)).run(THREADS, {
        let object = Arc::clone(&object);
        move |ctx| {
            for _ in 0..OPS {
                let name = object.lease_raw(ctx).expect("admission fits the workers");
                object.release_raw(name);
            }
        }
    });
    outcome.completed().count()
}

fn bench_lease_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("lease_churn");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(1));

    group.bench_function("recycler/hierarchical", |b| {
        b.iter(|| {
            let recycler = Arc::new(Recycler::new(network(64), THREADS));
            assert_eq!(churn(recycler), THREADS);
        })
    });

    group.bench_function("recycler/hierarchical_batch8", |b| {
        b.iter(|| {
            let recycler = Arc::new(Recycler::new(network(THREADS * BATCH), THREADS * BATCH));
            let outcome = Executor::new(ExecConfig::new(5)).run(THREADS, {
                let recycler = Arc::clone(&recycler);
                move |ctx| {
                    let mut names = Vec::with_capacity(BATCH);
                    for _ in 0..OPS / BATCH {
                        recycler
                            .lease_many_raw(ctx, BATCH, &mut names)
                            .expect("admission fits workers × batch");
                        recycler.release_many_raw(&names);
                        names.clear();
                    }
                }
            });
            assert_eq!(outcome.completed().count(), THREADS);
        })
    });

    group.bench_function("sharded_recycler", |b| {
        b.iter(|| {
            let sharded = Arc::new(ShardedRecycler::new(
                (0..THREADS).map(|_| network(8)).collect(),
                2,
            ));
            assert_eq!(churn(sharded), THREADS);
        })
    });

    group.bench_function("cas_ticket_baseline", |b| {
        b.iter(|| {
            let tickets = Arc::new(AtomicU64Register::new(0));
            let stubs = Arc::new(AtomicU64Register::new(0));
            let outcome = Executor::new(ExecConfig::new(5)).run(THREADS, {
                let tickets = Arc::clone(&tickets);
                let stubs = Arc::clone(&stubs);
                move |ctx| {
                    for _ in 0..OPS {
                        tickets.fetch_add(ctx, 1);
                        stubs.fetch_add(ctx, 1);
                    }
                }
            });
            assert_eq!(outcome.completed().count(), THREADS);
        })
    });

    group.finish();
}

criterion_group!(benches, bench_lease_churn);
criterion_main!(benches);
