//! Strong adaptive renaming (§6.2) — the paper's headline result.
//!
//! The algorithm has two stages:
//!
//! 1. [`TempName`]: a randomized splitter tree
//!    assigns each participant a unique temporary name that is polynomial in
//!    the contention `k` with high probability, in `O(log k)` steps.
//! 2. A renaming network built over the §6.1 *adaptive sorting network*
//!    ([`sortnet::adaptive::AdaptiveNetwork`]): the process enters the network
//!    at the input port given by its temporary name and plays a two-process
//!    test-and-set at every comparator it meets, returning the index of the
//!    output port it reaches.
//!
//! Because the adaptive network is a sorting network under every truncation
//! (Theorem 2), the outputs are exactly `1..=k` (Theorem 1), and because a
//! value entering port `n` traverses only `O(log^c max(n, m))` comparators,
//! the expected step complexity is `O(log k)` for a depth-`O(log n)` base
//! family — `O(log² k)` for the constructible Batcher family used here
//! (Theorem 3, adjusted for the substitution of Batcher's `O(log² n)`-depth
//! network for the idealized `O(log n)`-depth AKS network; see the
//! `sortnet` row of `PAPER.md`'s module map).
//!
//! Every section of the sandwich stores its comparators in one lazily paged
//! [`ComparatorSlab`]; sections differ only in how a process *looks up* the
//! comparator it meets. The small inner sections (where virtually every
//! traversal happens, because temporary names are polynomial in the
//! contention) are compiled into flat wire maps and key their slab by the
//! dense comparator slot. The huge outer sections — tens of thousands to
//! billions of wires — ask the analytic schedule for the comparator and key
//! their slab by `local_top × depth + stage`; their pages exist only where
//! some process has played. Each comparator is a 24-byte
//! [`TwoProcessTas`] stored inline in its slab page (byte-wide registers;
//! rounds past the second grown on demand), so a first-touched comparator
//! costs no allocation of its own: in the §8.1 counter at `k ≈ 512`, an
//! acquisition plays about 185 comparators and makes about 5 heap
//! allocations (7.7 KB), against 105 (29 KB) with one boxed 240-byte
//! comparator per cell (`tests/alloc_budget.rs`).

use crate::comparator_slab::ComparatorSlab;
use crate::error::RenamingError;
use crate::renaming_network::{traverse, traverse_compiled};
use crate::temp_name::{TempName, TempNameReport};
use crate::traits::Renaming;
use shmem::process::ProcessCtx;
use sortnet::adaptive::{AdaptiveNetwork, Section};
use sortnet::compiled::CompiledSchedule;
use sortnet::family::{NetworkFamily, SortingFamily};
use std::fmt;
use tas::two_process::TwoProcessTas;
use tas::TwoPartyTas;

/// Upper bound on `width × depth` for a section to be compiled into flat
/// wire maps. Sections above the bound (the outer levels of the §6.1
/// construction, with tens of thousands to billions of channels) are looked
/// up through the analytic schedule instead — processes reach them only
/// through unlikely temporary names, so pre-computing their wire maps would
/// waste memory on wires no process visits.
const COMPILED_CELL_LIMIT: usize = 1 << 20;

/// How a section finds the comparator a process meets.
enum Lookup {
    /// Small section: schedule lowered to flat arrays; the slab is keyed by
    /// the dense comparator slot.
    Compiled(CompiledSchedule),
    /// Huge section: the comparator comes from the analytic schedule; the
    /// slab is keyed by `local_top × depth + stage`.
    Analytic,
}

/// Comparator storage of one section of the adaptive network.
struct SectionStore<T> {
    lookup: Lookup,
    /// One lazily created test-and-set per comparator.
    slab: ComparatorSlab<T>,
}

impl<T: TwoPartyTas + Default> SectionStore<T> {
    fn for_section(section: &Section) -> Self {
        let depth = section.schedule.depth();
        let cells = section
            .width()
            .checked_mul(depth)
            .expect("a section's width × depth fits in usize");
        if cells <= COMPILED_CELL_LIMIT {
            let schedule = CompiledSchedule::compile(section.schedule.as_ref());
            let slab = ComparatorSlab::new(schedule.size());
            SectionStore {
                lookup: Lookup::Compiled(schedule),
                slab,
            }
        } else {
            SectionStore {
                lookup: Lookup::Analytic,
                slab: ComparatorSlab::new(cells),
            }
        }
    }

    /// Plays one process through the section from local wire `wire`,
    /// returning the exit wire with the comparators played and won.
    fn traverse(
        &self,
        section: &Section,
        ctx: &mut ProcessCtx,
        wire: usize,
    ) -> (usize, usize, usize) {
        match &self.lookup {
            // Hot path: O(1) wire-map lookups over local wires.
            Lookup::Compiled(schedule) => traverse_compiled(schedule, &self.slab, ctx, wire),
            Lookup::Analytic => {
                let schedule = section.schedule.as_ref();
                let depth = schedule.depth();
                traverse(&self.slab, ctx, wire, depth, |stage, wire| {
                    schedule
                        .comparator_at(stage, wire)
                        .map(|comparator| (comparator, comparator.top * depth + stage))
                })
            }
        }
    }
}

/// Diagnostics of one adaptive-renaming acquisition.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdaptiveReport {
    /// The final name (1-based; in `1..=k` in every execution).
    pub name: usize,
    /// The temporary name produced by the first stage.
    pub temp_name: usize,
    /// Depth at which the first stage acquired its splitter.
    pub splitter_depth: usize,
    /// Number of two-process test-and-set objects played in the second stage.
    pub comparators_played: usize,
    /// How many of those the process won.
    pub wins: usize,
}

/// The §6 adaptive strong renaming object.
///
/// The object is unbounded: it never needs to know `n`, `M` or `k`, and with
/// `k` participants it hands out exactly the names `1..=k`.
///
/// # Example
///
/// ```
/// use adaptive_renaming::adaptive::AdaptiveRenaming;
/// use adaptive_renaming::traits::{assert_tight_namespace, Renaming};
/// use shmem::adversary::ExecConfig;
/// use shmem::executor::Executor;
/// use shmem::process::ProcessId;
/// use std::sync::Arc;
///
/// // Identifiers are irrelevant: huge, scattered initial names still map to 1..=4.
/// let renaming = Arc::new(AdaptiveRenaming::default());
/// let ids: Vec<ProcessId> = [7usize, 123_456, 42, 999_999_999]
///     .iter().copied().map(ProcessId::new).collect();
/// let outcome = Executor::new(ExecConfig::new(11)).run_with_ids(&ids, {
///     let renaming = Arc::clone(&renaming);
///     move |ctx| renaming.acquire(ctx).expect("adaptive renaming never fails")
/// });
/// assert!(assert_tight_namespace(&outcome.results()).is_ok());
/// ```
pub struct AdaptiveRenaming<T: TwoPartyTas + Default = TwoProcessTas> {
    temp: TempName,
    network: AdaptiveNetwork,
    /// Per-section comparator storage, parallel to `network.sections()`:
    /// compiled wire maps for the small inner sections, analytic lookup for
    /// the huge outer ones, a paged slab for every one.
    stores: Vec<SectionStore<T>>,
}

impl Default for AdaptiveRenaming<TwoProcessTas> {
    /// The default configuration: randomized two-process test-and-set
    /// comparators over the adaptive network based on Batcher's odd-even
    /// mergesort, truncated at the maximum supported level (2³² input
    /// ports). This is what `<dyn Renaming>::builder().build()` constructs.
    fn default() -> Self {
        Self::with_network(AdaptiveNetwork::new(
            NetworkFamily::OddEven,
            sortnet::adaptive::MAX_LEVEL,
        ))
    }
}

impl<T: TwoPartyTas + Default> AdaptiveRenaming<T> {
    /// Creates the object over an explicit adaptive network (choice of base
    /// family and truncation level).
    pub fn with_network(network: AdaptiveNetwork) -> Self {
        let stores = network
            .sections()
            .iter()
            .map(SectionStore::for_section)
            .collect();
        AdaptiveRenaming {
            temp: TempName::new(),
            network,
            stores,
        }
    }

    /// Creates the object over the adaptive network built from the given base
    /// family and truncation level. Materialized families should keep
    /// `max_level ≤ 3`; the analytic odd-even family supports the maximum
    /// level cheaply.
    pub fn with_family<F: SortingFamily + 'static>(family: F, max_level: usize) -> Self {
        Self::with_network(AdaptiveNetwork::new(family, max_level))
    }

    /// The underlying adaptive sorting network.
    pub fn network(&self) -> &AdaptiveNetwork {
        &self.network
    }

    /// The temporary-name stage (exposed for experiments).
    pub fn temp_name_stage(&self) -> &TempName {
        &self.temp
    }

    /// Number of comparators some process has played to a decision so far
    /// (harness inspection).
    pub fn allocated_comparators(&self) -> usize {
        self.stores
            .iter()
            .map(|store| store.slab.allocated(T::has_winner))
            .sum()
    }

    /// Number of sections looked up through compiled wire maps (the rest
    /// use the analytic schedule). Harness inspection.
    pub fn compiled_sections(&self) -> usize {
        self.stores
            .iter()
            .filter(|store| matches!(store.lookup, Lookup::Compiled(_)))
            .count()
    }

    /// Runs the second stage from an explicit input port (0-based channel),
    /// returning the output channel and traversal counts.
    fn traverse(
        &self,
        ctx: &mut ProcessCtx,
        port: usize,
    ) -> Result<(usize, usize, usize), RenamingError> {
        if port >= self.network.width() {
            return Err(RenamingError::IdentifierOutOfRange {
                identifier: port,
                namespace: self.network.width(),
            });
        }
        let mut channel = port;
        let mut comparators_played = 0;
        let mut wins = 0;
        for (section, store) in self.network.sections().iter().zip(&self.stores) {
            if !section.covers(channel) {
                continue;
            }
            let (local, played, won) = store.traverse(section, ctx, channel - section.offset);
            channel = section.offset + local;
            comparators_played += played;
            wins += won;
        }
        Ok((channel, comparators_played, wins))
    }

    /// Acquires a name, returning full diagnostics.
    ///
    /// # Errors
    ///
    /// Returns [`RenamingError::IdentifierOutOfRange`] in the astronomically
    /// unlikely event that the first stage produces a temporary name beyond
    /// the network's truncation width.
    pub fn acquire_with_report(
        &self,
        ctx: &mut ProcessCtx,
    ) -> Result<AdaptiveReport, RenamingError> {
        let TempNameReport {
            name: temp_name,
            depth: splitter_depth,
            ..
        } = self.temp.acquire_with_report(ctx);
        let (channel, comparators_played, wins) = self.traverse(ctx, temp_name - 1)?;
        Ok(AdaptiveReport {
            name: channel + 1,
            temp_name,
            splitter_depth,
            comparators_played,
            wins,
        })
    }
}

impl<T: TwoPartyTas + Default> fmt::Debug for AdaptiveRenaming<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AdaptiveRenaming")
            .field("network", &self.network)
            .field("allocated_comparators", &self.allocated_comparators())
            .finish()
    }
}

impl<T: TwoPartyTas + Default> Renaming for AdaptiveRenaming<T> {
    fn acquire(&self, ctx: &mut ProcessCtx) -> Result<usize, RenamingError> {
        self.acquire_with_report(ctx).map(|report| report.name)
    }

    fn capacity(&self) -> Option<usize> {
        None
    }

    fn is_adaptive(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{assert_tight_namespace, assert_unique_names};
    use shmem::adversary::{ArrivalSchedule, CrashPlan, ExecConfig, YieldPolicy};
    use shmem::executor::Executor;
    use shmem::process::ProcessId;
    use std::sync::Arc;
    use std::time::Duration;
    use tas::hardware::HardwareTas;

    #[test]
    fn solo_process_gets_name_one() {
        let renaming = AdaptiveRenaming::default();
        let mut ctx = ProcessCtx::new(ProcessId::new(123_456_789), 3);
        let report = renaming.acquire_with_report(&mut ctx).unwrap();
        assert_eq!(report.name, 1);
        assert_eq!(report.temp_name, 1);
        assert_eq!(report.wins, report.comparators_played);
    }

    #[test]
    fn sequential_processes_get_a_tight_namespace() {
        let renaming = AdaptiveRenaming::default();
        let mut names = Vec::new();
        for id in 0..12usize {
            let mut ctx = ProcessCtx::new(ProcessId::new(id * 1000 + 7), 5);
            names.push(renaming.acquire(&mut ctx).unwrap());
        }
        assert_tight_namespace(&names).unwrap();
    }

    #[test]
    fn concurrent_processes_get_a_tight_namespace() {
        for seed in 0..6 {
            let renaming = Arc::new(AdaptiveRenaming::default());
            let k = 12usize;
            let config = ExecConfig::new(seed)
                .with_yield_policy(YieldPolicy::Probabilistic(0.15))
                .with_arrival(ArrivalSchedule::Simultaneous);
            let outcome = Executor::new(config).run(k, {
                let renaming = Arc::clone(&renaming);
                move |ctx| renaming.acquire(ctx).unwrap()
            });
            assert_tight_namespace(&outcome.results())
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn namespace_is_independent_of_initial_identifiers() {
        let renaming = Arc::new(AdaptiveRenaming::default());
        let ids: Vec<ProcessId> = [5usize, 1_000_000, 77, 123_456_789, 31_337, 2]
            .iter()
            .copied()
            .map(ProcessId::new)
            .collect();
        let outcome = Executor::new(ExecConfig::new(21)).run_with_ids(&ids, {
            let renaming = Arc::clone(&renaming);
            move |ctx| renaming.acquire(ctx).unwrap()
        });
        assert_tight_namespace(&outcome.results()).unwrap();
    }

    #[test]
    fn staggered_arrivals_still_get_a_tight_namespace() {
        let renaming = Arc::new(AdaptiveRenaming::default());
        let config = ExecConfig::new(8).with_arrival(ArrivalSchedule::Staggered {
            gap: Duration::from_micros(300),
        });
        let outcome = Executor::new(config).run(10, {
            let renaming = Arc::clone(&renaming);
            move |ctx| renaming.acquire(ctx).unwrap()
        });
        assert_tight_namespace(&outcome.results()).unwrap();
    }

    #[test]
    fn crashed_processes_never_break_safety() {
        for seed in 0..5 {
            let renaming = Arc::new(AdaptiveRenaming::default());
            let k = 16usize;
            let config = ExecConfig::new(seed).with_crash_plan(CrashPlan::Random {
                prob: 0.3,
                max_steps: 60,
            });
            let outcome = Executor::new(config).run(k, {
                let renaming = Arc::clone(&renaming);
                move |ctx| renaming.acquire(ctx).unwrap()
            });
            let names = outcome.results();
            assert_unique_names(&names).unwrap();
            assert!(names.iter().all(|&name| name <= k));
        }
    }

    #[test]
    fn hardware_comparators_give_the_deterministic_variant() {
        let renaming: Arc<AdaptiveRenaming<HardwareTas>> = Arc::new(
            AdaptiveRenaming::with_network(AdaptiveNetwork::new(NetworkFamily::OddEven, 5)),
        );
        let outcome = Executor::new(ExecConfig::new(2)).run(8, {
            let renaming = Arc::clone(&renaming);
            move |ctx| renaming.acquire(ctx).unwrap()
        });
        assert_tight_namespace(&outcome.results()).unwrap();
    }

    #[test]
    fn comparators_played_grow_polylogarithmically_with_contention() {
        // Theorem 3's cost profile: the number of two-process test-and-sets a
        // process plays is bounded by the traversal-depth bound for its
        // temporary name, which is polylogarithmic in k.
        let renaming = Arc::new(AdaptiveRenaming::default());
        let k = 16usize;
        let outcome = Executor::new(ExecConfig::new(33)).run(k, {
            let renaming = Arc::clone(&renaming);
            move |ctx| renaming.acquire_with_report(ctx).unwrap()
        });
        for report in outcome.results() {
            let bound = renaming
                .network()
                .traversal_depth_bound(report.temp_name.max(report.name) - 1);
            assert!(
                report.comparators_played <= bound,
                "played {} > bound {bound} (temp name {})",
                report.comparators_played,
                report.temp_name
            );
        }
        assert!(renaming.allocated_comparators() > 0);
    }

    #[test]
    fn smaller_truncations_work_for_small_contention() {
        let renaming: Arc<AdaptiveRenaming> = Arc::new(AdaptiveRenaming::with_family(
            NetworkFamily::OddEven,
            3, // 256 input ports
        ));
        let outcome = Executor::new(ExecConfig::new(14)).run(6, {
            let renaming = Arc::clone(&renaming);
            move |ctx| renaming.acquire(ctx).unwrap()
        });
        assert_tight_namespace(&outcome.results()).unwrap();
    }

    #[test]
    fn inner_sections_compile_and_outer_sections_stay_sparse() {
        // Default instance: level 5, sections A5..A1, S0, C1..C5. Levels 1-3
        // fit the compiled-cell budget; levels 4 and 5 are analytic giants
        // whose slabs stay sparsely paged.
        let renaming = AdaptiveRenaming::default();
        assert_eq!(renaming.network().sections().len(), 11);
        assert_eq!(renaming.compiled_sections(), 7);

        // A small truncation compiles everything.
        let small: AdaptiveRenaming = AdaptiveRenaming::with_family(NetworkFamily::OddEven, 3);
        assert_eq!(small.compiled_sections(), small.network().sections().len());
    }

    #[test]
    fn analytic_sections_create_only_the_comparators_played() {
        // A port deep in the level-5 section: the traversal crosses A5 and
        // then the level-4 sections through analytic lookup, into slabs of
        // 2^32 × 528 and 65,408 × 136 cells.
        let renaming = AdaptiveRenaming::default();
        let mut ctx = ProcessCtx::new(ProcessId::new(9), 1);
        let (channel, played, wins) = renaming.traverse(&mut ctx, (1 << 31) + 12_345).unwrap();
        assert_eq!(channel, 0, "a solo process wins its way to name 1");
        assert_eq!(wins, played);
        assert!(played > 0);
        assert_eq!(renaming.allocated_comparators(), played);
    }

    #[test]
    fn metadata_is_reported() {
        let renaming = AdaptiveRenaming::default();
        assert_eq!(renaming.capacity(), None);
        assert!(renaming.is_adaptive());
        assert_eq!(renaming.temp_name_stage().allocated_splitters(), 0);
        assert!(format!("{renaming:?}").contains("AdaptiveRenaming"));
    }

    #[test]
    fn repeated_acquisitions_by_one_process_stay_unique() {
        // The counter increments by re-acquiring from the same object; each
        // acquisition acts as a fresh virtual participant.
        let renaming = AdaptiveRenaming::default();
        let mut ctx = ProcessCtx::new(ProcessId::new(4), 6);
        let mut names = Vec::new();
        for _ in 0..10 {
            names.push(renaming.acquire(&mut ctx).unwrap());
        }
        assert_tight_namespace(&names).unwrap();
    }
}
