//! The traced objects are composed by hand; this shows they are the
//! builder defaults. A seeded single-thread op sequence must give identical
//! names, reads and `StepStats` on the hand-composed object, with its spans
//! sampling, and on the builder-built one.

use adaptive_renaming::counter::Counter;
use adaptive_renaming::lease::LongLivedRenaming;
use shmem::process::{ProcessCtx, ProcessId};
use shmem::steps::StepStats;

use crate::board::SplitMix;
use crate::trace;
use crate::workloads::{
    builder_lease_object, cascade_counter, traced_lease_object, traced_monotone_counter,
    TracedCascade,
};

type Trail = (Vec<u64>, StepStats);

fn compare(what: &str, built: Trail, composed: Trail) -> Result<(), String> {
    if built == composed {
        return Ok(());
    }
    let first = built.0.iter().zip(&composed.0).position(|(a, b)| a != b);
    Err(format!(
        "{what}: builder and hand-composed objects diverge (first differing output {first:?}, steps {:?} vs {:?})",
        built.1, composed.1
    ))
}

/// Runs `body` with span sampling on when `traced`, discarding the spans.
fn with_sampling(
    traced: bool,
    body: impl FnOnce(&mut ProcessCtx, &mut SplitMix) -> Vec<u64>,
    seed: u64,
) -> Trail {
    let mut ctx = ProcessCtx::new(ProcessId::new(0), seed);
    let mut choices = SplitMix::new(seed);
    trace::set_sampling(traced);
    let outputs = body(&mut ctx, &mut choices);
    trace::set_sampling(false);
    trace::take();
    (outputs, ctx.stats())
}

fn lease_trail(object: &dyn LongLivedRenaming, traced: bool, seed: u64) -> Trail {
    with_sampling(
        traced,
        |ctx, choices| {
            let mut held = Vec::new();
            let mut names = Vec::new();
            for _ in 0..4_000 {
                if held.is_empty() || (held.len() < 24 && choices.below(2) == 0) {
                    let name = object.lease_raw(ctx).unwrap_or(0);
                    names.push(name as u64);
                    if name != 0 {
                        held.push(name);
                    }
                } else {
                    let name = held.swap_remove(choices.below(held.len() as u64) as usize);
                    object.release_raw(name);
                }
            }
            names
        },
        seed,
    )
}

fn counter_trail(counter: &dyn Counter, traced: bool, seed: u64, ops: usize) -> Trail {
    with_sampling(
        traced,
        |ctx, choices| {
            let mut reads = Vec::new();
            for _ in 0..ops {
                if choices.below(8) == 0 {
                    reads.push(counter.read(ctx));
                } else {
                    counter.increment(ctx);
                }
            }
            reads.push(counter.read(ctx));
            reads
        },
        seed,
    )
}

/// Compares every hand-composed traced object with its builder default.
pub fn check(seed: u64) -> Result<(), String> {
    for (what, batched) in [("lease_churn", true), ("lease_unbatched", false)] {
        compare(
            what,
            lease_trail(&*builder_lease_object(batched), false, seed),
            lease_trail(&*traced_lease_object(batched), true, seed),
        )?;
    }
    let built = <dyn Counter>::builder()
        .build()
        .expect("the default counter is valid");
    compare(
        "count_monotone",
        counter_trail(&*built, false, seed, 400),
        counter_trail(&traced_monotone_counter(), true, seed, 400),
    )?;
    let built = <dyn Counter>::builder()
        .adaptive_network()
        .build()
        .expect("the default cascade is valid");
    compare(
        "count_cascade",
        counter_trail(&*built, false, seed, 4_000),
        counter_trail(&TracedCascade(&cascade_counter()), true, seed, 4_000),
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn traced_objects_match_the_builder_defaults() {
        for seed in [1, 2, 3] {
            super::check(seed).unwrap();
        }
    }

    #[test]
    fn a_different_object_is_caught() {
        let built = super::lease_trail(&*super::builder_lease_object(true), false, 5);
        let other = super::builder_lease_object(false);
        assert!(super::compare("unbatched", built, super::lease_trail(&*other, false, 5)).is_err());
    }
}
