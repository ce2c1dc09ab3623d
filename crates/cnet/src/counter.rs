//! The network counter: a balancing network with per-output-wire counters.
//!
//! The classical contention-distributing counter (Aspnes–Herlihy–Shavit):
//! append a local counter to every output wire of a width-`w` counting
//! network. An increment routes a token through the network — `Θ(log² w)`
//! balancer toggles, each on a different memory word, so concurrent
//! increments mostly touch *different* balancers — and then performs one
//! fetch-and-add on its exit wire's local counter. Where the hardware
//! fetch-and-add baseline funnels every increment through one cache line,
//! the network spreads them over `size()` balancers and `w` exit counters.
//!
//! The step property turns the pair `(exit wire, local count)` into an exact
//! ticket: the token that performs the `local`-th fetch-add on wire `wire`
//! is the `local · w + wire`-th token through the network (0-indexed), so
//! [`NetworkCounter::fetch_increment`] is a width-`w` *m-valued
//! fetch-and-increment* in the sense of the paper's §8.2 — quiescently
//! consistent rather than linearizable (the non-linearizability
//! counterexample is pinned in `tests/cnet_properties.rs`).
//!
//! Reads sum the exit counters one register read at a time. At any quiescent
//! point the sum is exactly the number of completed increments
//! ([`check_quiescent_consistent`](shmem::consistency::check_quiescent_consistent));
//! a read overlapping increments may see any intermediate value.

use crate::compiled::CompiledBalancingNetwork;
use crate::family::CountingFamily;
use shmem::arena::Arena;
use shmem::pad::CachePadded;
use shmem::process::ProcessCtx;
use shmem::register::AtomicU64Register;
use std::fmt;
use std::sync::Arc;

/// A quiescently-consistent counter over a balancing network.
///
/// # Example
///
/// ```
/// use cnet::counter::NetworkCounter;
/// use cnet::family::CountingFamily;
/// use shmem::process::{ProcessCtx, ProcessId};
///
/// let counter = NetworkCounter::new(CountingFamily::Bitonic, 4);
/// let mut ctx = ProcessCtx::new(ProcessId::new(0), 1);
/// assert_eq!(counter.fetch_increment(&mut ctx), 0);
/// assert_eq!(counter.fetch_increment(&mut ctx), 1);
/// counter.increment(&mut ctx);
/// assert_eq!(counter.read(&mut ctx), 3);
/// ```
pub struct NetworkCounter {
    network: CompiledBalancingNetwork,
    /// One local counter per output wire, each on its own cache line: exit
    /// wires are hit by different tokens concurrently, and the whole point of
    /// the network is that those final fetch-adds do not contend.
    exits: Vec<CachePadded<AtomicU64Register>>,
}

impl NetworkCounter {
    /// Builds the counter over a certified counting wiring.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not a power of two or is below 2 (see
    /// [`CountingFamily::schedule`]).
    pub fn new(family: CountingFamily, width: usize) -> Self {
        Self::with_network(CompiledBalancingNetwork::compile(&*family.schedule(width)))
    }

    /// Like [`NetworkCounter::new`], but places every balancer toggle word
    /// and every exit counter in `arena` — the cross-process constructor.
    ///
    /// # Panics
    ///
    /// As [`NetworkCounter::new`]; additionally panics if the arena runs out
    /// of space (size it with [`NetworkCounter::footprint`]).
    pub fn new_in(family: CountingFamily, width: usize, arena: &Arc<Arena>) -> Self {
        Self::with_network_in(
            CompiledBalancingNetwork::compile_in(&*family.schedule(width), arena),
            arena,
        )
    }

    /// The number of arena bytes [`NetworkCounter::new_in`] allocates: one
    /// 64-byte line per balancer plus one per exit wire.
    pub fn footprint(family: CountingFamily, width: usize) -> usize {
        let size = CompiledBalancingNetwork::compile(&*family.schedule(width)).size();
        CompiledBalancingNetwork::footprint(size) + width * 64
    }

    /// Builds the counter over an explicit balancing network.
    ///
    /// The quiescent-consistency guarantee requires the network to be a
    /// *counting* network; plugging in an uncertified wiring (odd-even
    /// merge, one-pass transposition) yields a counter whose quiescent reads
    /// are still exact — tokens are conserved — but whose
    /// [`fetch_increment`](NetworkCounter::fetch_increment) tickets may
    /// collide or skip.
    pub fn with_network(network: CompiledBalancingNetwork) -> Self {
        let exits = (0..network.width())
            .map(|_| CachePadded::new(AtomicU64Register::new(0)))
            .collect();
        NetworkCounter { network, exits }
    }

    /// Like [`NetworkCounter::with_network`], but backs every exit counter
    /// with an arena-resident word (each already on its own line, so the
    /// [`CachePadded`] wrapper only keeps the handle struct's inline layout
    /// uniform with the private build).
    pub fn with_network_in(network: CompiledBalancingNetwork, arena: &Arc<Arena>) -> Self {
        let exits = (0..network.width())
            .map(|_| CachePadded::new(AtomicU64Register::new_in(arena, 0)))
            .collect();
        NetworkCounter { network, exits }
    }

    /// The number of wires (the counter's contention-spreading width).
    pub fn width(&self) -> usize {
        self.network.width()
    }

    /// The underlying balancing network.
    pub fn network(&self) -> &CompiledBalancingNetwork {
        &self.network
    }

    /// The input wire a process's tokens enter on: processes are spread over
    /// the wires by identifier. Any choice of entry wire preserves the
    /// counting property; spreading merely distributes first-stage
    /// contention.
    pub fn entry_wire(&self, ctx: &ProcessCtx) -> usize {
        ctx.id().as_usize() % self.width()
    }

    /// Increments the counter: one token through the network plus one
    /// fetch-and-add on the exit wire.
    pub fn increment(&self, ctx: &mut ProcessCtx) {
        let _ = self.fetch_increment(ctx);
    }

    /// Increments the counter and returns the token's 0-indexed ticket
    /// `local · width + wire`. In any quiescent prefix the step property
    /// makes consecutive tickets exactly `0, 1, 2, …` — an m-valued
    /// fetch-and-increment that is quiescently consistent but (provably) not
    /// linearizable.
    pub fn fetch_increment(&self, ctx: &mut ProcessCtx) -> u64 {
        let increment_timer = obs::start();
        let entry = self.entry_wire(ctx);
        let wire = self.network.traverse(ctx, entry);
        let ticket = self.deposit(ctx, wire);
        obs::count(obs::Metric::NetIncrement);
        obs::finish(increment_timer, obs::Metric::NetIncrementNs);
        ticket
    }

    /// The deposit half of [`fetch_increment`](NetworkCounter::fetch_increment):
    /// performs the exit-wire fetch-and-add for a token that already
    /// traversed the network to `wire`, returning its ticket.
    ///
    /// Exposed so tests and harnesses can drive the traversal and the
    /// deposit as separate phases (the non-linearizability counterexample
    /// stalls a token exactly between the two); algorithm code should call
    /// `fetch_increment`.
    ///
    /// # Panics
    ///
    /// Panics if `wire >= self.width()`.
    pub fn deposit(&self, ctx: &mut ProcessCtx, wire: usize) -> u64 {
        let local = self.exits[wire].fetch_add(ctx, 1);
        local * self.width() as u64 + wire as u64
    }

    /// Reads the counter: sums the exit counters one register read at a
    /// time. Quiescently consistent — exact whenever no increment is in
    /// flight.
    pub fn read(&self, ctx: &mut ProcessCtx) -> u64 {
        self.exits.iter().map(|exit| exit.read(ctx)).sum()
    }

    /// The per-output-wire token counts, without charging steps
    /// (harness/test inspection; meaningful at quiescent points, where they
    /// must satisfy the step property).
    pub fn exit_counts(&self) -> Vec<u64> {
        self.exits.iter().map(|exit| exit.peek()).collect()
    }

    /// The total token count, without charging steps (harness/test
    /// inspection).
    pub fn peek(&self) -> u64 {
        self.exit_counts().iter().sum()
    }
}

impl Default for NetworkCounter {
    /// A width-8 bitonic network counter — wide enough to spread the
    /// contention of a typical thread count, shallow enough (6 stages) to
    /// keep the uncontended latency low.
    fn default() -> Self {
        Self::new(CountingFamily::Bitonic, 8)
    }
}

impl fmt::Debug for NetworkCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NetworkCounter")
            .field("width", &self.width())
            .field("depth", &self.network.depth())
            .field("tokens", &self.peek())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::has_step_property;
    use shmem::process::ProcessId;

    fn ctx(id: usize) -> ProcessCtx {
        ProcessCtx::new(ProcessId::new(id), 11)
    }

    #[test]
    fn sequential_tickets_count_up_from_zero() {
        for family in CountingFamily::all() {
            for width in [2usize, 4, 8] {
                let counter = NetworkCounter::new(family, width);
                let mut ctx = ctx(0);
                for expected in 0..3 * width as u64 {
                    assert_eq!(
                        counter.fetch_increment(&mut ctx),
                        expected,
                        "{family} width {width}"
                    );
                    assert_eq!(counter.read(&mut ctx), expected + 1);
                    assert!(has_step_property(&counter.exit_counts()));
                }
            }
        }
    }

    #[test]
    fn tickets_count_up_from_any_mix_of_entry_wires() {
        let counter = NetworkCounter::new(CountingFamily::Periodic, 4);
        // Four processes with different identities → different entry wires.
        let mut contexts: Vec<ProcessCtx> = (0..4).map(ctx).collect();
        let mut expected = 0u64;
        for round in 0..4 {
            for (process, context) in contexts.iter_mut().enumerate() {
                let ticket = counter.fetch_increment(context);
                assert_eq!(ticket, expected, "round {round} process {process}");
                expected += 1;
            }
        }
    }

    #[test]
    fn entry_wires_spread_processes_by_identifier() {
        let counter = NetworkCounter::new(CountingFamily::Bitonic, 4);
        assert_eq!(counter.entry_wire(&ctx(0)), 0);
        assert_eq!(counter.entry_wire(&ctx(3)), 3);
        assert_eq!(counter.entry_wire(&ctx(6)), 2);
    }

    #[test]
    fn increment_charges_toggles_and_one_rmw() {
        let counter = NetworkCounter::new(CountingFamily::Bitonic, 8);
        let mut ctx = ctx(0);
        counter.increment(&mut ctx);
        let stats = ctx.stats();
        assert_eq!(stats.balancer_toggles, 6, "bitonic-8 has depth 6");
        assert_eq!(stats.rmws, 1, "one exit-wire fetch-add");
        assert_eq!(stats.reads, 0);

        counter.read(&mut ctx);
        assert_eq!(ctx.stats().reads, 8, "a read sums all eight exit wires");
    }

    #[test]
    fn deposit_is_the_second_half_of_fetch_increment() {
        let counter = NetworkCounter::new(CountingFamily::Bitonic, 2);
        let mut ctx = ctx(0);
        let wire = counter.network().traverse(&mut ctx, 0);
        assert_eq!(counter.deposit(&mut ctx, wire), 0);
        assert_eq!(counter.fetch_increment(&mut ctx), 1);
        assert_eq!(counter.peek(), 2);
    }

    #[test]
    fn debug_and_default_report_the_shape() {
        let counter = NetworkCounter::default();
        assert_eq!(counter.width(), 8);
        let rendered = format!("{counter:?}");
        assert!(rendered.contains("NetworkCounter"));
        assert!(rendered.contains("tokens"));
    }

    #[test]
    fn arena_backed_counter_counts_identically() {
        use shmem::arena::Arena;

        let arena = Arena::heap(NetworkCounter::footprint(CountingFamily::Bitonic, 4));
        let counter = NetworkCounter::new_in(CountingFamily::Bitonic, 4, &arena);
        assert_eq!(arena.remaining(), 0, "footprint is exact");
        let mut ctx = ctx(0);
        for expected in 0..12u64 {
            assert_eq!(counter.fetch_increment(&mut ctx), expected);
        }
        assert_eq!(counter.read(&mut ctx), 12);
        assert!(has_step_property(&counter.exit_counts()));
    }

    #[test]
    #[should_panic(expected = "power-of-two width")]
    fn non_power_of_two_widths_are_rejected() {
        let _ = NetworkCounter::new(CountingFamily::Bitonic, 12);
    }
}
