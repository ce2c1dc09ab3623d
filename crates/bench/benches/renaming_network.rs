//! Criterion bench for Experiment E3: renaming networks over fixed sorting
//! networks, for both comparator implementations — plus batched traversals
//! of the compiled wire-map + comparator-slab engine ([`RenamingNetwork`])
//! on an `odd_even_network(64)` workload with 16 concurrent processes.
//!
//! The batched benches pre-build a batch of fresh one-shot networks and time
//! only the concurrent traversals, so the numbers isolate the per-comparator
//! cost from the executor's thread spawn/join.

use adaptive_renaming::renaming_network::RenamingNetwork;
use adaptive_renaming::traits::Renaming;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use shmem::adversary::ExecConfig;
use shmem::executor::Executor;
use shmem::process::ProcessId;
use sortnet::batcher::odd_even_network;
use std::sync::Arc;
use std::time::Duration;
use tas::hardware::HardwareTas;

fn ids(count: usize, namespace: usize) -> Vec<ProcessId> {
    (0..count)
        .map(|i| ProcessId::new(i * namespace / count))
        .collect()
}

/// Runs `k` concurrent processes through the batch of fresh networks,
/// returning the number of completions (sanity-checked by the caller). The
/// batch amortizes the executor's thread spawn/join over many traversals.
fn run_batch<N: Renaming + Send + Sync>(networks: &Arc<Vec<N>>, k: usize, m: usize) -> usize {
    let outcome = Executor::new(ExecConfig::new(3)).run_with_ids(&ids(k, m), {
        let networks = Arc::clone(networks);
        move |ctx| {
            networks
                .iter()
                .map(|network| network.acquire(ctx).expect("ids fit"))
                .sum::<usize>()
        }
    });
    outcome.completed().count()
}

fn bench_renaming_network(c: &mut Criterion) {
    let mut group = c.benchmark_group("renaming_network");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(1));
    for m in [64usize, 256] {
        let k = m / 4;
        group.bench_with_input(BenchmarkId::new("two_process_tas", m), &m, |b, &m| {
            b.iter(|| {
                let network = Arc::new(RenamingNetwork::new(odd_even_network(m)));
                let outcome = Executor::new(ExecConfig::new(3)).run_with_ids(&ids(k, m), {
                    let network = Arc::clone(&network);
                    move |ctx| network.acquire(ctx).expect("ids fit")
                });
                assert_eq!(outcome.completed().count(), k);
            });
        });
        group.bench_with_input(BenchmarkId::new("hardware_tas", m), &m, |b, &m| {
            b.iter(|| {
                let network = Arc::new(RenamingNetwork::<HardwareTas>::with_tas(odd_even_network(
                    m,
                )));
                let outcome = Executor::new(ExecConfig::new(3)).run_with_ids(&ids(k, m), {
                    let network = Arc::clone(&network);
                    move |ctx| network.acquire(ctx).expect("ids fit")
                });
                assert_eq!(outcome.completed().count(), k);
            });
        });
    }
    group.finish();
}

/// `odd_even_network(64)`, 16 concurrent processes, a batch of fresh
/// one-shot networks per iteration.
fn bench_traversal_batches(c: &mut Criterion) {
    const M: usize = 64;
    const K: usize = 16;
    const ROUNDS: usize = 16;

    let mut group = c.benchmark_group("renaming_network_batch");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));

    group.bench_with_input(
        BenchmarkId::new("compiled_slab/hardware_tas", M),
        &M,
        |b, &m| {
            b.iter(|| {
                let networks: Arc<Vec<RenamingNetwork<HardwareTas>>> = Arc::new(
                    (0..ROUNDS)
                        .map(|_| RenamingNetwork::with_tas(odd_even_network(m)))
                        .collect(),
                );
                assert_eq!(run_batch(&networks, K, m), K);
            });
        },
    );
    group.bench_with_input(
        BenchmarkId::new("compiled_slab/two_process_tas", M),
        &M,
        |b, &m| {
            b.iter(|| {
                let networks: Arc<Vec<RenamingNetwork>> = Arc::new(
                    (0..ROUNDS)
                        .map(|_| RenamingNetwork::new(odd_even_network(m)))
                        .collect(),
                );
                assert_eq!(run_batch(&networks, K, m), K);
            });
        },
    );
    group.finish();
}

criterion_group!(benches, bench_renaming_network, bench_traversal_batches);
criterion_main!(benches);
