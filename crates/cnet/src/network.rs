//! Balancing networks: comparator schedules reinterpreted as balancer wiring.
//!
//! A *balancing network* has exactly the layout of a comparator network —
//! wires and stages — with every comparator replaced by a
//! [`Balancer`](crate::balancer::Balancer). A token enters on an input
//! wire, is switched up or down by each balancer it meets, and exits on an
//! output wire. The repo already compiles comparator layouts for the
//! renaming networks, so a balancing network is built by *reinterpreting*
//! any [`ComparatorSchedule`](sortnet::schedule::ComparatorSchedule): the
//! schedule answers "which balancer touches my wire in the next stage?" and
//! the balancer decides which of its two wires the token continues on.
//!
//! The engine is
//! [`CompiledBalancingNetwork`](crate::compiled::CompiledBalancingNetwork),
//! which lowers the schedule onto flat arrays. This module holds the
//! routing rule it applies at each balancer, and the tests of the
//! balancing-network contract every traversal must meet.

use crate::balancer::BalancerSlot;
use sortnet::network::Comparator;

/// The wire a token continues on after a balancer routes it.
#[inline]
pub(crate) fn exit_wire(comparator: Comparator, slot: BalancerSlot) -> usize {
    match slot {
        BalancerSlot::Top => comparator.top,
        BalancerSlot::Bottom => comparator.bottom,
    }
}

#[cfg(test)]
mod tests {
    use crate::compiled::CompiledBalancingNetwork;
    use crate::family::CountingFamily;
    use shmem::process::{ProcessCtx, ProcessId};

    fn ctx() -> ProcessCtx {
        ProcessCtx::new(ProcessId::new(0), 5)
    }

    #[test]
    fn dimensions_mirror_the_schedule() {
        let schedule = CountingFamily::Periodic.schedule(8);
        let network = CompiledBalancingNetwork::compile(&*schedule);
        assert_eq!(network.width(), 8);
        assert_eq!(network.depth(), schedule.depth());
        assert_eq!(
            network.size(),
            (0..schedule.depth())
                .map(|s| schedule.stage_comparators(s).len())
                .sum::<usize>()
        );
    }

    #[test]
    fn sequential_tokens_fill_output_wires_in_order() {
        for family in CountingFamily::all() {
            for width in [2usize, 4, 8] {
                let network = CompiledBalancingNetwork::compile(&*family.schedule(width));
                let mut ctx = ctx();
                for round in 0..3 {
                    for expected in 0..width {
                        // All tokens enter on the same wire; the step
                        // property forces round-robin exits.
                        let exit = network.traverse(&mut ctx, 0);
                        assert_eq!(exit, expected, "{family} width {width} round {round}");
                    }
                }
            }
        }
    }

    #[test]
    fn traversal_charges_one_toggle_per_met_balancer() {
        let network = CompiledBalancingNetwork::compile(&*CountingFamily::Bitonic.schedule(4));
        let mut ctx = ctx();
        network.traverse(&mut ctx, 0);
        // Bitonic width 4 touches every wire in every stage: depth toggles.
        assert_eq!(ctx.stats().balancer_toggles, network.depth() as u64);
        assert_eq!(ctx.stats().total(), 0);
    }

    #[test]
    fn balancer_at_exposes_the_wiring() {
        let network = CompiledBalancingNetwork::compile(&*CountingFamily::Bitonic.schedule(4));
        let mut ctx = ctx();
        network.traverse(&mut ctx, 0);
        let (_, slot) = network
            .schedule()
            .pair_at(0, 0)
            .expect("wire 0 is busy in stage 0");
        assert_eq!(network.balancer(slot).tokens(), 1);
        assert!(network.schedule().pair_at(99, 0).is_none());
    }

    #[test]
    #[should_panic(expected = "outside the network")]
    fn out_of_range_entry_wires_are_rejected() {
        // The first wire past the end (the compiled tests probe further out).
        let network = CompiledBalancingNetwork::compile(&*CountingFamily::Bitonic.schedule(4));
        network.traverse(&mut ctx(), 4);
    }
}
