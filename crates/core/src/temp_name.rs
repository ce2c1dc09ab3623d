//! The TempName first stage of adaptive renaming (§6.2).
//!
//! Each process descends a binary tree of randomized splitters of unbounded
//! height: at every node it tries to acquire the splitter, and if it fails it
//! moves to a uniformly random child. With `k` participating processes the
//! process acquires a node within `O(log k)` levels with high probability, and
//! the breadth-first index of that node — the temporary name — is polynomial
//! in `k` with high probability. Temporary names are unique in every
//! execution, which is all the second stage needs for safety; the polynomial
//! bound only affects the step complexity.
//!
//! The splitters live in a lazily paged [`ComparatorSlab`] keyed by heap
//! index: the page holding a splitter exists only once some process reaches
//! one of its nodes, and finding it takes one atomic load per radix level —
//! no lock and no hashing on the descent.

use crate::comparator_slab::ComparatorSlab;
use shmem::process::ProcessCtx;
use shmem::register::AtomicU64Register;
use shmem::steps::StepKind;
use std::fmt;
use tas::splitter::{Direction, RandomizedSplitter};

/// Maximum splitter-tree depth explored before falling back to the overflow
/// counter (an event of astronomically small probability, present only to
/// keep the object wait-free with a hard bound).
pub const MAX_DEPTH: usize = 60;

/// Diagnostics of one temporary-name acquisition.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TempNameReport {
    /// The temporary name (breadth-first index of the acquired splitter,
    /// 1-based; the root is 1).
    pub name: usize,
    /// The depth of the acquired splitter (the root has depth 0).
    pub depth: usize,
    /// Whether the overflow fallback was used instead of a splitter.
    pub used_overflow: bool,
}

/// A splitter-tree temporary-name object.
///
/// # Example
///
/// ```
/// use adaptive_renaming::temp_name::TempName;
/// use shmem::process::{ProcessCtx, ProcessId};
///
/// let temp = TempName::new();
/// let mut ctx = ProcessCtx::new(ProcessId::new(17), 3);
/// let report = temp.acquire_with_report(&mut ctx);
/// assert_eq!(report.name, 1, "a solo process stops at the root");
/// assert_eq!(report.depth, 0);
/// ```
pub struct TempName {
    /// Lazily allocated splitters, keyed by heap index (root = 1, children of
    /// `i` are `2i` and `2i + 1`; the deepest level ends at `2^MAX_DEPTH - 1`).
    splitters: ComparatorSlab<RandomizedSplitter>,
    /// Overflow counter handing out unique names beyond the tree, used only
    /// if a process fails to acquire a splitter within [`MAX_DEPTH`] levels.
    overflow: AtomicU64Register,
}

impl TempName {
    /// Creates an empty temporary-name object.
    pub fn new() -> Self {
        TempName {
            splitters: ComparatorSlab::new(1 << MAX_DEPTH),
            overflow: AtomicU64Register::new(1u64 << MAX_DEPTH),
        }
    }

    /// Number of splitters some process has entered so far (harness
    /// inspection hook).
    pub fn allocated_splitters(&self) -> usize {
        self.splitters.allocated(RandomizedSplitter::is_entered)
    }

    /// Acquires a unique temporary name.
    pub fn acquire(&self, ctx: &mut ProcessCtx) -> usize {
        self.acquire_with_report(ctx).name
    }

    /// Acquires a unique temporary name, returning diagnostics.
    pub fn acquire_with_report(&self, ctx: &mut ProcessCtx) -> TempNameReport {
        let mut index: usize = 1;
        for depth in 0..MAX_DEPTH {
            if self.splitters.get(index).enter(ctx).is_acquired() {
                return TempNameReport {
                    name: index,
                    depth,
                    used_overflow: false,
                };
            }
            index = match Direction::random(ctx) {
                Direction::Left => index * 2,
                Direction::Right => index * 2 + 1,
            };
        }
        // Overflow fallback: hand out a unique name beyond every possible
        // tree index. Reached with probability at most 2^-MAX_DEPTH.
        ctx.record(StepKind::ReadModifyWrite);
        let name = self.overflow.fetch_add(ctx, 1);
        TempNameReport {
            name: name as usize,
            depth: MAX_DEPTH,
            used_overflow: true,
        }
    }
}

impl Default for TempName {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for TempName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TempName")
            .field("allocated_splitters", &self.allocated_splitters())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::assert_unique_names;
    use shmem::adversary::{ArrivalSchedule, ExecConfig, YieldPolicy};
    use shmem::executor::Executor;
    use shmem::process::ProcessId;
    use std::sync::Arc;

    #[test]
    fn solo_process_acquires_the_root() {
        let temp = TempName::new();
        let mut ctx = ProcessCtx::new(ProcessId::new(0), 1);
        let report = temp.acquire_with_report(&mut ctx);
        assert_eq!(report.name, 1);
        assert_eq!(report.depth, 0);
        assert!(!report.used_overflow);
        assert_eq!(temp.allocated_splitters(), 1);
    }

    #[test]
    fn sequential_processes_get_unique_names() {
        let temp = TempName::new();
        let mut names = Vec::new();
        for id in 0..40 {
            let mut ctx = ProcessCtx::new(ProcessId::new(id), 9);
            names.push(temp.acquire(&mut ctx));
        }
        assert_unique_names(&names).unwrap();
    }

    #[test]
    fn concurrent_processes_get_unique_polynomially_bounded_names() {
        for seed in 0..if cfg!(miri) { 2 } else { 6 } {
            let temp = Arc::new(TempName::new());
            let k = 24usize;
            let config = ExecConfig::new(seed)
                .with_yield_policy(YieldPolicy::Probabilistic(0.2))
                .with_arrival(ArrivalSchedule::Simultaneous);
            let outcome = Executor::new(config).run(k, {
                let temp = Arc::clone(&temp);
                move |ctx| temp.acquire_with_report(ctx)
            });
            let reports = outcome.results();
            let names: Vec<usize> = reports.iter().map(|r| r.name).collect();
            assert_unique_names(&names).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            // Polynomial namespace: with k = 24 the names should be far below
            // k^3; the bound here is deliberately generous to avoid flakiness
            // while still catching linear-in-tree-size blowups.
            for report in &reports {
                assert!(!report.used_overflow, "seed {seed}");
                assert!(
                    report.name <= k * k * k,
                    "seed {seed}: name {} not polynomial in k={k}",
                    report.name
                );
            }
        }
    }

    #[test]
    fn depth_grows_logarithmically_with_contention() {
        let temp = Arc::new(TempName::new());
        let k = 32usize;
        let outcome = Executor::new(ExecConfig::new(17)).run(k, {
            let temp = Arc::clone(&temp);
            move |ctx| temp.acquire_with_report(ctx)
        });
        let max_depth = outcome.results().iter().map(|r| r.depth).max().unwrap_or(0);
        // With 32 processes the deepest acquisition should be well below
        // 6 * log2(32) = 30 levels.
        assert!(max_depth <= 30, "max splitter depth {max_depth}");
    }

    #[test]
    fn step_cost_tracks_the_acquisition_depth() {
        let temp = TempName::new();
        let mut ctx = ProcessCtx::new(ProcessId::new(3), 0);
        let report = temp.acquire_with_report(&mut ctx);
        // Each level costs at most 5 register steps plus a coin flip.
        assert!(ctx.stats().total() <= 6 * (report.depth as u64 + 1));
    }

    #[test]
    fn debug_output_is_nonempty() {
        assert!(format!("{:?}", TempName::new()).contains("TempName"));
    }
}
