//! The adaptive counter: an elimination front-end routing into a cascade of
//! counting networks sized to *realized* contention.
//!
//! A fixed-width network counter pays its full `Θ(log² w)` depth on every
//! increment even when it runs alone, while a width provisioned for the
//! worst case is exactly what the source paper argues against: cost should
//! scale with the contention `k` an execution actually exhibits, not the
//! maximum `n` it was provisioned for. [`AdaptiveNetworkCounter`] follows
//! the sandwich construction of the adaptive counting literature (§6 of the
//! counting-network chapters in Aspnes' notes):
//!
//! 1. a [`ContentionSensor`] — a cache-padded EWMA of recent collision and
//!    miss events — estimates how many increments are currently in flight;
//! 2. the token enters the **narrowest layer whose width covers the
//!    estimate**: a width-2 network when the counter is quiet, up to the
//!    full provisioned width under load;
//! 3. each layer fronts its network with an elimination [`Prism`]: under
//!    contention two colliding increments pair off, one returning
//!    immediately while the other carries a weight-2 token, halving traffic
//!    through the balancers exactly when it matters.
//!
//! At low contention an increment costs a sensor read, a short prism
//! window and a *single* balancer toggle (the width-2 layer) — versus the
//! ~11 shared steps of a fixed width-16 network — while at high contention
//! elimination plus the full-width layer reproduce the classical
//! contention-spreading behaviour.
//!
//! # Consistency
//!
//! Every layer is an independent quiescently-consistent counter; a read sums
//! all layers. At any quiescent point each layer's deposited weights equal
//! the increments routed to it, so the sum is exact, and each layer's
//! *token* counts satisfy the step property
//! ([`check_step_property`](AdaptiveNetworkCounter::check_step_property)).
//! Because a weight-2 combiner is a single token through the wiring, the
//! exit wires pack `(tokens, value)` into one atomic word: the step-property
//! oracle checks the token halves, reads sum the value halves. The packing
//! caps each exit wire at `2³²` deposits — far beyond any harness run, and
//! checked nowhere hot.
//!
//! Routing different increments to different layers is also why the adaptive
//! counter exposes *counting* only (increment/read) and not the network
//! counter's exact fetch-and-increment tickets: tickets would need a total
//! order across layers, which the cascade deliberately does not maintain.
//! Like the prism itself, exactness assumes crash-free executions (see the
//! crash note in [`crate::prism`]).

use crate::compiled::CompiledBalancingNetwork;
use crate::family::CountingFamily;
use crate::prism::{Prism, PrismOutcome};
use crate::verify::{step_property_violation, StepViolation};
use shmem::pad::CachePadded;
use shmem::process::ProcessCtx;
use shmem::steps::StepKind;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Fixed-point scale of the sensor's contention estimate (8 fraction bits).
const FP_ONE: u64 = 256;
/// EWMA smoothing: new = old − old/2^ALPHA + sample/2^ALPHA (α = 1/8).
const ALPHA_SHIFT: u32 = 3;
/// Clean fall-throughs feed the sensor once every this many (on average):
/// misses are the common case, and sampling keeps the sensor word from
/// becoming the very serialization point the cascade exists to avoid.
const MISS_SAMPLE_PERIOD: usize = 8;
/// Spin window of the narrowest layer's prism; each wider layer doubles it
/// (wider layers are only entered under contention, where waiting longer
/// makes pairing more likely).
const BASE_SPIN: u32 = 16;

/// A cache-padded EWMA of recent prism collision/miss events, estimating the
/// number of concurrently in-flight increments.
///
/// The estimate is stored as a fixed-point word (×256). Observations are a
/// *single* compare-and-swap attempt: under contention a failed CAS means
/// another process just folded in its own sample, which serves the estimate
/// equally well, so there is nothing to retry.
pub struct ContentionSensor {
    estimate: CachePadded<AtomicU64>,
}

impl ContentionSensor {
    /// Creates a sensor that initially estimates one lone process.
    pub fn new() -> Self {
        ContentionSensor {
            estimate: CachePadded::new(AtomicU64::new(FP_ONE)),
        }
    }

    /// The current contention estimate, in processes (≥ 0).
    pub fn estimate(&self) -> f64 {
        self.estimate.load(Ordering::Acquire) as f64 / FP_ONE as f64
    }

    /// Reads the estimate for routing, charging one register read.
    fn load_for_routing(&self, ctx: &mut ProcessCtx) -> u64 {
        ctx.record(StepKind::RegisterRead);
        self.estimate.load(Ordering::Acquire)
    }

    /// Folds a sample of `tokens` concurrently-active processes into the
    /// EWMA with one read and at most one CAS attempt (never retried).
    /// Charges one register read and one read-modify-write.
    pub fn observe(&self, ctx: &mut ProcessCtx, tokens: u64) {
        ctx.record(StepKind::RegisterRead);
        let old = self.estimate.load(Ordering::Acquire);
        let new = old - (old >> ALPHA_SHIFT) + ((tokens * FP_ONE) >> ALPHA_SHIFT);
        ctx.record(StepKind::ReadModifyWrite);
        let _ = self
            .estimate
            .compare_exchange(old, new, Ordering::AcqRel, Ordering::Acquire); // lint: relaxed-ok(RMW success needs Acquire+Release: publishes the new tally, observes prior ones)
    }

    /// The narrowest level (0-indexed) among `levels` power-of-two layers
    /// (widths 2, 4, 8, …) that covers a fixed-point estimate.
    fn level_for(estimate_fp: u64, levels: usize) -> usize {
        let tokens = estimate_fp.div_ceil(FP_ONE).max(1);
        let width = tokens.next_power_of_two().max(2);
        let level = width.trailing_zeros() as usize - 1;
        level.min(levels - 1)
    }
}

impl Default for ContentionSensor {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for ContentionSensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ContentionSensor")
            .field("estimate", &self.estimate())
            .finish()
    }
}

/// One rung of the cascade: an elimination prism in front of a counting
/// network with packed `(tokens, value)` exit wires.
#[derive(Debug)]
struct PrismLayer {
    prism: Prism,
    network: CompiledBalancingNetwork,
    /// One packed word per output wire (padded): the high 32 bits count
    /// deposited *tokens* (step-property oracle), the low 32 bits accumulate
    /// deposited *weight* (the counter's value).
    exits: Vec<CachePadded<AtomicU64>>,
}

impl PrismLayer {
    fn new(family: CountingFamily, width: usize, spin_limit: u32) -> Self {
        let network = CompiledBalancingNetwork::compile(&*family.schedule(width));
        PrismLayer {
            prism: Prism::new((width / 2).max(1), spin_limit),
            network,
            exits: (0..width)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
        }
    }

    fn width(&self) -> usize {
        self.network.width()
    }

    /// Deposits a traversed token of the given weight on its exit wire with
    /// one fetch-and-add on the packed word.
    fn deposit(&self, ctx: &mut ProcessCtx, wire: usize, weight: u64) {
        ctx.record(StepKind::ReadModifyWrite);
        self.exits[wire].fetch_add((1 << 32) | weight, Ordering::AcqRel); // lint: relaxed-ok(exit tallies are published and read via this one RMW)
    }

    fn token_counts(&self) -> Vec<u64> {
        self.exits
            .iter()
            .map(|e| e.load(Ordering::Acquire) >> 32)
            .collect()
    }

    fn value(&self) -> u64 {
        self.exits
            .iter()
            .map(|e| e.load(Ordering::Acquire) & 0xFFFF_FFFF)
            .sum()
    }

    /// Reads the layer's value, charging one register read per exit wire.
    fn read(&self, ctx: &mut ProcessCtx) -> u64 {
        self.exits
            .iter()
            .map(|e| {
                ctx.record(StepKind::RegisterRead);
                e.load(Ordering::Acquire) & 0xFFFF_FFFF
            })
            .sum()
    }
}

/// A quiescently-consistent counter whose per-increment cost adapts to
/// realized contention: an elimination/diffraction front-end over a cascade
/// of counting networks of widths 2, 4, …, `max_width`.
///
/// # Example
///
/// ```
/// use cnet::adaptive::AdaptiveNetworkCounter;
/// use cnet::family::CountingFamily;
/// use shmem::process::{ProcessCtx, ProcessId};
///
/// let counter = AdaptiveNetworkCounter::new(CountingFamily::Bitonic, 16);
/// let mut ctx = ProcessCtx::new(ProcessId::new(0), 1);
/// counter.increment(&mut ctx);
/// counter.increment(&mut ctx);
/// assert_eq!(counter.read(&mut ctx), 2);
/// assert!(counter.check_step_property().is_ok());
/// // Alone, tokens route through the narrowest (width-2) layer.
/// assert_eq!(counter.current_width(), 2);
/// ```
pub struct AdaptiveNetworkCounter {
    layers: Vec<PrismLayer>,
    sensor: ContentionSensor,
}

impl AdaptiveNetworkCounter {
    /// Builds a cascade of `family` networks at every power-of-two width
    /// from 2 up to `max_width`.
    ///
    /// # Panics
    ///
    /// Panics if `max_width` is not a power of two or is below 2 (see
    /// [`CountingFamily::schedule`]).
    pub fn new(family: CountingFamily, max_width: usize) -> Self {
        assert!(
            max_width.is_power_of_two() && max_width >= 2,
            "adaptive cascade needs a power-of-two width of at least 2, got {max_width}"
        );
        let levels = max_width.trailing_zeros() as usize;
        AdaptiveNetworkCounter {
            layers: (0..levels)
                .map(|level| PrismLayer::new(family, 2 << level, BASE_SPIN << level))
                .collect(),
            sensor: ContentionSensor::new(),
        }
    }

    /// The widest layer's width (the provisioned maximum).
    pub fn max_width(&self) -> usize {
        self.layers.last().expect("at least one layer").width()
    }

    /// The widths of the cascade's layers, narrowest first.
    pub fn layer_widths(&self) -> Vec<usize> {
        self.layers.iter().map(PrismLayer::width).collect()
    }

    /// The width new increments currently route to (diagnostic; racy by
    /// nature).
    pub fn current_width(&self) -> usize {
        let fp = self.sensor.estimate.load(Ordering::Acquire);
        self.layers[ContentionSensor::level_for(fp, self.layers.len())].width()
    }

    /// The sensor's current contention estimate, in processes.
    pub fn contention_estimate(&self) -> f64 {
        self.sensor.estimate()
    }

    /// Completed prism eliminations across all layers (each pair once).
    pub fn eliminated_pairs(&self) -> u64 {
        self.layers.iter().map(|l| l.prism.pairs()).sum()
    }

    /// Increments the counter.
    ///
    /// The token is routed to the layer covering the sensor's estimate,
    /// offered to that layer's prism, and — unless eliminated — carried
    /// through the layer's network and deposited with its weight.
    pub fn increment(&self, ctx: &mut ProcessCtx) {
        let increment_timer = obs::start();
        let fp = self.sensor.load_for_routing(ctx);
        let level = ContentionSensor::level_for(fp, self.layers.len());
        let layer = &self.layers[level];
        obs::count(obs::Metric::AdaptiveIncrement);
        obs::gauge(obs::Metric::SensorEstimateFp, fp);
        obs::gauge(obs::Metric::RoutedWidth, layer.width() as u64);
        if level > 0 {
            obs::count(obs::Metric::AdaptiveRouteUp);
        }
        let outcome = layer.prism.visit(ctx);
        match outcome {
            PrismOutcome::Eliminated => {
                // A collision is strong evidence of contention beyond this
                // layer's width: report enough tokens to widen the route.
                self.sensor.observe(ctx, 2 * layer.width() as u64);
                obs::count(obs::Metric::PrismEliminated);
                obs::finish(increment_timer, obs::Metric::AdaptiveIncrementNs);
                return;
            }
            PrismOutcome::Combined => {
                self.sensor.observe(ctx, 2 * layer.width() as u64);
                obs::count(obs::Metric::PrismCombined);
            }
            PrismOutcome::FellThrough => {
                obs::count(obs::Metric::PrismFellThrough);
                // Misses are the common (quiet) case; sample them so the
                // sensor word does not serialize the fast path.
                if ctx.random_index(MISS_SAMPLE_PERIOD) == 0 {
                    self.sensor.observe(ctx, 1);
                }
            }
        }
        let entry = ctx.id().as_usize() % layer.width();
        let wire = layer.network.traverse(ctx, entry);
        layer.deposit(ctx, wire, outcome.weight());
        obs::finish(increment_timer, obs::Metric::AdaptiveIncrementNs);
    }

    /// Reads the counter by summing every layer's exit wires, one register
    /// read per wire. Quiescently consistent: exact whenever no increment is
    /// in flight.
    pub fn read(&self, ctx: &mut ProcessCtx) -> u64 {
        self.layers.iter().map(|layer| layer.read(ctx)).sum()
    }

    /// The total count without charging steps (harness/test inspection;
    /// meaningful at quiescent points).
    pub fn peek(&self) -> u64 {
        self.layers.iter().map(PrismLayer::value).sum()
    }

    /// Per-layer deposited-token counts, narrowest layer first
    /// (harness/test inspection; each layer must satisfy the step property
    /// at quiescent points).
    pub fn layer_token_counts(&self) -> Vec<Vec<u64>> {
        self.layers.iter().map(PrismLayer::token_counts).collect()
    }

    /// Verifies the step property on every layer's token counts
    /// (harness/test inspection; meaningful at quiescent points).
    pub fn check_step_property(&self) -> Result<(), StepViolation> {
        for layer in &self.layers {
            if let Some(violation) = step_property_violation(&layer.token_counts()) {
                return Err(violation);
            }
        }
        Ok(())
    }
}

impl fmt::Debug for AdaptiveNetworkCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AdaptiveNetworkCounter")
            .field("layer_widths", &self.layer_widths())
            .field("estimate", &self.contention_estimate())
            .field("eliminated_pairs", &self.eliminated_pairs())
            .field("tokens", &self.peek())
            .finish()
    }
}

impl fmt::Display for AdaptiveNetworkCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "adaptive(max_width={}, estimate={:.2}, count={})",
            self.max_width(),
            self.contention_estimate(),
            self.peek()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmem::process::ProcessId;
    use std::sync::Arc;

    fn ctx(id: usize) -> ProcessCtx {
        ProcessCtx::new(ProcessId::new(id), 23)
    }

    #[test]
    #[should_panic(expected = "power-of-two width")]
    fn non_power_of_two_cascades_are_rejected() {
        let _ = AdaptiveNetworkCounter::new(CountingFamily::Bitonic, 12);
    }

    #[test]
    fn cascade_builds_every_power_of_two_layer() {
        let counter = AdaptiveNetworkCounter::new(CountingFamily::Bitonic, 16);
        assert_eq!(counter.layer_widths(), vec![2, 4, 8, 16]);
        assert_eq!(counter.max_width(), 16);
        let narrow = AdaptiveNetworkCounter::new(CountingFamily::Periodic, 2);
        assert_eq!(narrow.layer_widths(), vec![2]);
    }

    #[test]
    fn sequential_increments_are_exact_and_stay_narrow() {
        let counter = AdaptiveNetworkCounter::new(CountingFamily::Bitonic, 16);
        let mut ctx = ctx(0);
        let rounds = if cfg!(miri) { 8 } else { 100 };
        for expected in 1..=rounds {
            counter.increment(&mut ctx);
            assert_eq!(counter.read(&mut ctx), expected);
            counter.check_step_property().expect("staircase per layer");
        }
        // A lone process never collides: the sensor stays at ~1 process and
        // every token takes the width-2 layer.
        assert_eq!(counter.current_width(), 2);
        assert_eq!(counter.eliminated_pairs(), 0);
        assert!(counter.contention_estimate() < 2.0);
        let counts = counter.layer_token_counts();
        assert_eq!(counts[0].iter().sum::<u64>(), rounds);
        assert!(counts[1..]
            .iter()
            .all(|layer| layer.iter().sum::<u64>() == 0));
    }

    #[test]
    fn a_quiet_increment_is_far_cheaper_than_a_wide_network() {
        let counter = AdaptiveNetworkCounter::new(CountingFamily::Bitonic, 16);
        let mut ctx = ctx(0);
        counter.increment(&mut ctx);
        let stats = ctx.stats();
        // Sensor read + ≤3 prism ops + one width-2 toggle + deposit (+ maybe
        // a sampled sensor observation): well under the ~11 steps of a
        // fixed width-16 traversal.
        assert_eq!(stats.balancer_toggles, 1, "width-2 bitonic has depth 1");
        assert!(stats.eliminations <= 3);
        assert!(stats.total_all() <= 9, "got {}", stats.total_all());
    }

    #[test]
    fn collisions_widen_the_route_and_misses_narrow_it_back() {
        let counter = AdaptiveNetworkCounter::new(CountingFamily::Bitonic, 16);
        let mut ctx = ctx(0);
        // Simulated collision burst on the width-2 layer (sample = 4).
        for _ in 0..32 {
            counter.sensor.observe(&mut ctx, 4);
        }
        assert!(counter.contention_estimate() > 2.0);
        assert_eq!(counter.current_width(), 4);
        // Heavy collisions at width 4 push wider still.
        for _ in 0..32 {
            counter.sensor.observe(&mut ctx, 16);
        }
        assert_eq!(counter.current_width(), 16);
        // A quiet spell decays the estimate back down to the narrow layer.
        for _ in 0..64 {
            counter.sensor.observe(&mut ctx, 1);
        }
        assert_eq!(counter.current_width(), 2);
    }

    #[test]
    fn concurrent_increments_are_exact_at_quiescence() {
        let (threads, per_thread) = if cfg!(miri) { (3, 8) } else { (8, 300) };
        let counter = Arc::new(AdaptiveNetworkCounter::new(CountingFamily::Bitonic, 8));
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let counter = Arc::clone(&counter);
                std::thread::spawn(move || {
                    let mut ctx = ProcessCtx::new(ProcessId::new(t), 31);
                    for _ in 0..per_thread {
                        counter.increment(&mut ctx);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(counter.peek(), (threads * per_thread) as u64);
        counter.check_step_property().expect("staircase per layer");
        let mut reader = ctx(99);
        assert_eq!(counter.read(&mut reader), (threads * per_thread) as u64);
    }

    #[test]
    fn display_and_debug_report_the_cascade() {
        let counter = AdaptiveNetworkCounter::new(CountingFamily::Bitonic, 4);
        assert!(format!("{counter}").starts_with("adaptive(max_width=4"));
        let debug = format!("{counter:?}");
        assert!(debug.contains("layer_widths"));
        assert!(debug.contains("eliminated_pairs"));
    }
}
