//! Layer spans measured from outside the library.
//!
//! The benchmark wraps its own calls into each layer's public functions in
//! a span, and where one layer calls the next through a public trait the
//! outer layer accepts, it inserts a traced wrapper between the two
//! ([`TracedAdaptive`], [`TracedLongLived`], [`TracedMax`]). Every call is
//! counted and its §2 steps attributed; only the calls inside a sampled
//! operation read the clock, so clock cost stays a small share of each op.
//! A span's self time is its duration minus the spans it encloses.

use adaptive_renaming::adaptive::AdaptiveRenaming;
use adaptive_renaming::error::RenamingError;
use adaptive_renaming::lease::{LongLivedRenaming, NameLease};
use adaptive_renaming::traits::Renaming;
use maxreg::MaxRegister;
use shmem::process::ProcessCtx;
use shmem::steps::StepStats;
use sortnet::family::NetworkFamily;
use std::cell::RefCell;
use std::sync::Arc;

use crate::sys::now_ns;

/// A layer boundary the benchmark times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `BatchedRecycler::lease_raw` / `release_raw`, called by the benchmark.
    Batched,
    /// The `Recycler` below the batch stash, through [`TracedLongLived`].
    Recycler,
    /// The adaptive renaming object behind `Recycler`'s fresh-name path.
    Fresh,
    /// `RobustLeaseTable::acquire`, called by the benchmark.
    RobustAcquire,
    /// `RobustLeaseTable::release`, called by the benchmark.
    RobustRelease,
    /// The adaptive renaming object inside `MonotoneCounter`.
    Renaming,
    /// `MaxRegister::write_max` inside `MonotoneCounter`.
    MaxWrite,
    /// `MaxRegister::read_max` inside `MonotoneCounter`.
    MaxRead,
    /// `AdaptiveNetworkCounter::increment`, called by the benchmark.
    CascadeIncrement,
    /// `AdaptiveNetworkCounter::read`, called by the benchmark.
    CascadeRead,
}

pub const LAYERS: usize = 10;

pub const ALL_LAYERS: [Layer; LAYERS] = [
    Layer::Batched,
    Layer::Recycler,
    Layer::Fresh,
    Layer::RobustAcquire,
    Layer::RobustRelease,
    Layer::Renaming,
    Layer::MaxWrite,
    Layer::MaxRead,
    Layer::CascadeIncrement,
    Layer::CascadeRead,
];

/// What one layer did, summed over calls.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Every call.
    pub calls: u64,
    /// Calls inside a sampled operation (the ones with clock reads).
    pub sampled: u64,
    /// Self time of the sampled calls.
    pub self_ns: u64,
    /// Inclusive time of the sampled calls.
    pub span_ns: u64,
    /// §2 steps (`StepStats::total`) of every call that had a context.
    pub steps: u64,
    pub reads: u64,
    pub tas: u64,
    pub coin_flips: u64,
    /// Sums of `AdaptiveReport::splitter_depth` / `comparators_played`.
    pub splitter_depth: u64,
    pub comparators: u64,
}

impl LayerTotals {
    pub const WORDS: usize = 10;
    const ZERO: LayerTotals = LayerTotals {
        calls: 0,
        sampled: 0,
        self_ns: 0,
        span_ns: 0,
        steps: 0,
        reads: 0,
        tas: 0,
        coin_flips: 0,
        splitter_depth: 0,
        comparators: 0,
    };

    pub fn fields_mut(&mut self) -> [&mut u64; Self::WORDS] {
        [
            &mut self.calls,
            &mut self.sampled,
            &mut self.self_ns,
            &mut self.span_ns,
            &mut self.steps,
            &mut self.reads,
            &mut self.tas,
            &mut self.coin_flips,
            &mut self.splitter_depth,
            &mut self.comparators,
        ]
    }

    pub fn add(&mut self, other: &LayerTotals) {
        let mut other = *other;
        for (mine, theirs) in self.fields_mut().into_iter().zip(other.fields_mut()) {
            *mine += *theirs;
        }
    }
}

const MAX_DEPTH: usize = 8;

struct Tracer {
    sampling: bool,
    depth: usize,
    /// Time covered by the children of each open span.
    child_ns: [u64; MAX_DEPTH],
    layers: [LayerTotals; LAYERS],
}

impl Tracer {
    const NEW: Tracer = Tracer {
        sampling: false,
        depth: 0,
        child_ns: [0; MAX_DEPTH],
        layers: [LayerTotals::ZERO; LAYERS],
    };
}

thread_local! {
    static TRACER: RefCell<Tracer> = const { RefCell::new(Tracer::NEW) };
}

/// Turns clock reads on for the spans of the current operation.
pub fn set_sampling(on: bool) {
    TRACER.with(|tracer| tracer.borrow_mut().sampling = on);
}

/// Returns and clears the calling thread's totals.
pub fn take() -> [LayerTotals; LAYERS] {
    TRACER.with(|tracer| std::mem::replace(&mut *tracer.borrow_mut(), Tracer::NEW).layers)
}

fn enter(layer: Layer) -> Option<u64> {
    TRACER.with(|tracer| {
        let mut tracer = tracer.borrow_mut();
        tracer.layers[layer as usize].calls += 1;
        if !tracer.sampling {
            return None;
        }
        let depth = tracer.depth;
        assert!(depth < MAX_DEPTH, "spans nest deeper than {MAX_DEPTH}");
        tracer.child_ns[depth] = 0;
        tracer.depth += 1;
        Some(now_ns())
    })
}

fn exit(layer: Layer, started: Option<u64>) {
    let Some(started) = started else { return };
    let duration = now_ns().saturating_sub(started);
    TRACER.with(|tracer| {
        let mut tracer = tracer.borrow_mut();
        tracer.depth -= 1;
        let children = tracer.child_ns[tracer.depth];
        let totals = &mut tracer.layers[layer as usize];
        totals.sampled += 1;
        totals.span_ns += duration;
        totals.self_ns += duration.saturating_sub(children);
        if tracer.depth > 0 {
            let parent = tracer.depth - 1;
            tracer.child_ns[parent] += duration;
        }
    });
}

fn add_steps(layer: Layer, before: StepStats, after: StepStats) {
    TRACER.with(|tracer| {
        let totals = &mut tracer.borrow_mut().layers[layer as usize];
        totals.steps += after.total() - before.total();
        totals.reads += after.reads - before.reads;
        totals.tas += after.tas_invocations - before.tas_invocations;
        totals.coin_flips += after.coin_flips - before.coin_flips;
    });
}

/// Runs `call` inside a span of `layer`, attributing its steps to it.
pub fn span<T>(layer: Layer, ctx: &mut ProcessCtx, call: impl FnOnce(&mut ProcessCtx) -> T) -> T {
    let before = ctx.stats();
    let started = enter(layer);
    let result = call(ctx);
    exit(layer, started);
    add_steps(layer, before, ctx.stats());
    result
}

/// [`span`] for calls that take no process context (releases).
pub fn span_bare<T>(layer: Layer, call: impl FnOnce() -> T) -> T {
    let started = enter(layer);
    let result = call();
    exit(layer, started);
    result
}

/// The builder's default one-shot renaming object (`<dyn Renaming>::
/// builder().build()`: §6 adaptive renaming, default sorting family, full
/// level, randomized comparators), held by its concrete type so that each
/// acquisition's `AdaptiveReport` can be read.
pub struct TracedAdaptive {
    inner: AdaptiveRenaming,
    layer: Layer,
}

impl TracedAdaptive {
    pub fn builder_default(layer: Layer) -> Self {
        TracedAdaptive {
            inner: AdaptiveRenaming::with_family(
                NetworkFamily::default(),
                sortnet::adaptive::MAX_LEVEL,
            ),
            layer,
        }
    }
}

impl Renaming for TracedAdaptive {
    fn acquire(&self, ctx: &mut ProcessCtx) -> Result<usize, RenamingError> {
        span(self.layer, ctx, |ctx| {
            let report = self.inner.acquire_with_report(ctx)?;
            TRACER.with(|tracer| {
                let totals = &mut tracer.borrow_mut().layers[self.layer as usize];
                totals.splitter_depth += report.splitter_depth as u64;
                totals.comparators += report.comparators_played as u64;
            });
            Ok(report.name)
        })
    }

    fn capacity(&self) -> Option<usize> {
        self.inner.capacity()
    }

    fn is_adaptive(&self) -> bool {
        self.inner.is_adaptive()
    }
}

/// A long-lived object behind a span of [`Layer::Recycler`], for the
/// `BatchedRecycler` → `Recycler` boundary.
pub struct TracedLongLived<L> {
    inner: L,
}

impl<L> TracedLongLived<L> {
    pub fn new(inner: L) -> Self {
        TracedLongLived { inner }
    }
}

impl<L: LongLivedRenaming + 'static> LongLivedRenaming for TracedLongLived<L> {
    fn lease(self: Arc<Self>, ctx: &mut ProcessCtx) -> Result<NameLease, RenamingError> {
        let name = self.lease_raw(ctx)?;
        Ok(NameLease::new(name, self))
    }

    fn lease_raw(&self, ctx: &mut ProcessCtx) -> Result<usize, RenamingError> {
        span(Layer::Recycler, ctx, |ctx| self.inner.lease_raw(ctx))
    }

    fn lease_many_raw(
        &self,
        ctx: &mut ProcessCtx,
        count: usize,
        out: &mut Vec<usize>,
    ) -> Result<(), RenamingError> {
        span(Layer::Recycler, ctx, |ctx| {
            self.inner.lease_many_raw(ctx, count, out)
        })
    }

    fn release_raw(&self, name: usize) {
        span_bare(Layer::Recycler, || self.inner.release_raw(name));
    }

    fn release_many_raw(&self, names: &[usize]) {
        span_bare(Layer::Recycler, || self.inner.release_many_raw(names));
    }

    fn max_concurrent(&self) -> Option<usize> {
        self.inner.max_concurrent()
    }

    fn live_leases(&self) -> usize {
        self.inner.live_leases()
    }
}

/// A max register behind spans of [`Layer::MaxWrite`] / [`Layer::MaxRead`].
pub struct TracedMax<M> {
    inner: M,
}

impl<M> TracedMax<M> {
    pub fn new(inner: M) -> Self {
        TracedMax { inner }
    }
}

impl<M: MaxRegister> MaxRegister for TracedMax<M> {
    fn write_max(&self, ctx: &mut ProcessCtx, value: u64) {
        span(Layer::MaxWrite, ctx, |ctx| self.inner.write_max(ctx, value));
    }

    fn read_max(&self, ctx: &mut ProcessCtx) -> u64 {
        span(Layer::MaxRead, ctx, |ctx| self.inner.read_max(ctx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_only_sampled_calls_read_the_clock() {
        take();
        span_bare(Layer::Batched, || span_bare(Layer::Recycler, || ()));
        set_sampling(true);
        span_bare(Layer::Batched, || {
            span_bare(Layer::Recycler, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            })
        });
        set_sampling(false);
        let totals = take();
        let (outer, inner) = (
            totals[Layer::Batched as usize],
            totals[Layer::Recycler as usize],
        );
        assert_eq!((outer.calls, outer.sampled), (2, 1));
        assert_eq!((inner.calls, inner.sampled), (2, 1));
        assert!(inner.self_ns >= 2_000_000);
        assert_eq!(inner.self_ns, inner.span_ns);
        assert_eq!(outer.self_ns, outer.span_ns - inner.span_ns);
    }
}
