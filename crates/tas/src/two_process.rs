//! Randomized two-process test-and-set from read/write registers.
//!
//! The paper uses the two-process test-and-set of Tromp and Vitányi \[20\] as
//! the comparator object of its renaming networks: expected `O(1)` steps, and
//! `O(log n)` steps with high probability (§2). [`TwoProcessTas`] reproduces
//! that object's interface and cost profile with a construction we can verify
//! directly:
//!
//! * Rounds of a **two-process commit-adopt gadget** built from single-writer
//!   registers. In each round a process writes its current preference
//!   (candidate winner), reads the other side's preference, and *commits* if
//!   it saw no conflict, otherwise *adopts* the other preference. The gadget
//!   guarantees that at most one value is ever committed and that once a value
//!   is committed every later decision agrees with it — this is what makes the
//!   object safe in **every** execution, no matter the schedule.
//! * A **randomized race conciliator** between rounds: each process either
//!   writes its preference to a shared race register before reading it, or
//!   reads first and only writes if the register is empty, choosing between
//!   the two orders by a fair coin. Under any realistic schedule the
//!   preferences coalesce within a couple of rounds, giving constant expected
//!   step complexity, matching the Tromp–Vitányi profile.
//! * An **arbiter escape hatch**: after [`RANDOM_ROUNDS`] rounds without a
//!   decision (an event we have never observed and whose probability decays
//!   geometrically), the conciliator of the final round is replaced by a
//!   single compare-and-swap that forces both preferences equal, after which
//!   the next commit-adopt round must decide. This bounds the worst case
//!   without ever compromising safety, and mirrors the paper's remark that
//!   hardware test-and-set/compare-and-swap may be assumed at unit cost.
//!
//! # Lazily grown rounds
//!
//! An uncontended or sequential pair decides in the first commit-adopt
//! round, and the conciliator makes a contended pair agree within a round
//! or two in expectation, so only the first two rounds are stored inline. The remaining rounds and the
//! arbiter form one tail block, allocated by whichever process first enters
//! round 2 (a [`OnceLock`], so both sides see the same registers).
//! Constructing the object performs no heap allocation, and growing the tail
//! charges no steps: every register operation charges exactly what it would
//! if all rounds had been built up front.
//!
//! The substitution relative to the verbatim Tromp–Vitányi algorithm is the
//! construction described above: commit-adopt rounds with a randomized
//! conciliator and a compare-and-swap arbiter in place of the original
//! protocol, with the same interface and cost profile.

use crate::{Side, TwoPartyTas};
use shmem::process::ProcessCtx;
use shmem::register::AtomicUsizeRegister;
use shmem::steps::StepKind;
use std::sync::OnceLock;

/// Number of purely register-based rounds before the arbiter escape hatch.
pub const RANDOM_ROUNDS: usize = 32;

/// Total rounds: [`RANDOM_ROUNDS`] randomized rounds, one arbiter round, and
/// one final round that is guaranteed to decide.
const TOTAL_ROUNDS: usize = RANDOM_ROUNDS + 2;

/// Rounds stored inline in the object; the rest live in the lazily
/// allocated [`Tail`].
const INLINE_ROUNDS: usize = 2;

/// Sentinel meaning "no value written yet".
const EMPTY: usize = usize::MAX;

/// One round's worth of shared registers.
#[derive(Debug)]
struct Round {
    /// Proposal register of the top-side process (single writer).
    proposal_top: AtomicUsizeRegister,
    /// Proposal register of the bottom-side process (single writer).
    proposal_bottom: AtomicUsizeRegister,
    /// Race register used by the randomized conciliator.
    race: AtomicUsizeRegister,
}

impl Round {
    fn new() -> Self {
        Round {
            proposal_top: AtomicUsizeRegister::new(EMPTY),
            proposal_bottom: AtomicUsizeRegister::new(EMPTY),
            race: AtomicUsizeRegister::new(EMPTY),
        }
    }

    fn proposal(&self, side: Side) -> &AtomicUsizeRegister {
        match side {
            Side::Top => &self.proposal_top,
            Side::Bottom => &self.proposal_bottom,
        }
    }
}

/// The rounds past [`INLINE_ROUNDS`] and the arbiter, allocated as one block
/// on first entry to round [`INLINE_ROUNDS`].
#[derive(Debug)]
struct Tail {
    rounds: [Round; TOTAL_ROUNDS - INLINE_ROUNDS],
    /// Compare-and-swap arbiter used only by the escape-hatch round.
    arbiter: AtomicUsizeRegister,
}

/// A one-shot randomized two-process test-and-set built from registers.
///
/// See the [module documentation](self) for the construction and its
/// guarantees: at most one winner in every execution, a solo participant
/// always wins, and constant expected step complexity.
///
/// # Example
///
/// ```
/// use shmem::process::{ProcessCtx, ProcessId};
/// use tas::two_process::TwoProcessTas;
/// use tas::{Side, TwoPartyTas};
///
/// let tas = TwoProcessTas::new();
/// let mut top = ProcessCtx::new(ProcessId::new(0), 7);
/// let mut bottom = ProcessCtx::new(ProcessId::new(1), 7);
/// let top_won = tas.play(&mut top, Side::Top);
/// let bottom_won = tas.play(&mut bottom, Side::Bottom);
/// assert!(top_won ^ bottom_won, "exactly one side wins");
/// ```
#[derive(Debug)]
pub struct TwoProcessTas {
    /// The first [`INLINE_ROUNDS`] rounds.
    head: [Round; INLINE_ROUNDS],
    /// The remaining rounds and the arbiter, created on first use.
    tail: OnceLock<Box<Tail>>,
    /// Harness-only record of the decided winner side (no algorithmic role).
    decided: AtomicUsizeRegister,
}

impl TwoProcessTas {
    /// Creates an unwon two-process test-and-set.
    ///
    /// Performs no heap allocation: rounds past the first two are created
    /// only if some play reaches them.
    pub fn new() -> Self {
        TwoProcessTas {
            head: [Round::new(), Round::new()],
            tail: OnceLock::new(),
            decided: AtomicUsizeRegister::new(EMPTY),
        }
    }

    /// The tail block, created by the first process to need it. Creation
    /// charges no steps.
    fn tail(&self) -> &Tail {
        self.tail.get_or_init(|| {
            Box::new(Tail {
                rounds: std::array::from_fn(|_| Round::new()),
                arbiter: AtomicUsizeRegister::new(EMPTY),
            })
        })
    }

    /// Round `index` (0-based), growing the tail on first entry past the
    /// inline rounds.
    fn round(&self, index: usize) -> &Round {
        match index.checked_sub(INLINE_ROUNDS) {
            None => &self.head[index],
            Some(offset) => &self.tail().rounds[offset],
        }
    }

    /// The winner's side, if a winner has been determined (harness inspection
    /// hook; charges no steps).
    pub fn winner(&self) -> Option<Side> {
        match self.decided.peek() {
            0 => Some(Side::Top),
            1 => Some(Side::Bottom),
            _ => None,
        }
    }

    /// One commit-adopt round: returns `Ok(value)` if `value` was committed,
    /// `Err(adopted)` otherwise.
    fn commit_adopt(
        &self,
        ctx: &mut ProcessCtx,
        round: &Round,
        side: Side,
        preference: usize,
    ) -> Result<usize, usize> {
        round.proposal(side).write(ctx, preference);
        let other = round.proposal(side.other()).read(ctx);
        if other == EMPTY || other == preference {
            Ok(preference)
        } else {
            Err(other)
        }
    }

    /// The randomized race conciliator: nudges both preferences towards a
    /// common value.
    fn race_conciliator(&self, ctx: &mut ProcessCtx, round: &Round, preference: usize) -> usize {
        if ctx.flip() == 0 {
            round.race.write(ctx, preference);
            let seen = round.race.read(ctx);
            if seen == EMPTY {
                preference
            } else {
                seen
            }
        } else {
            let seen = round.race.read(ctx);
            if seen == EMPTY {
                round.race.write(ctx, preference);
                preference
            } else {
                seen
            }
        }
    }

    /// The arbiter conciliator: a single compare-and-swap that forces both
    /// preferences to the first value installed.
    fn arbiter_conciliator(&self, ctx: &mut ProcessCtx, preference: usize) -> usize {
        let arbiter = &self.tail().arbiter;
        let _ = arbiter.compare_and_swap(ctx, EMPTY, preference);
        arbiter.read(ctx)
    }
}

impl Default for TwoProcessTas {
    fn default() -> Self {
        Self::new()
    }
}

impl TwoPartyTas for TwoProcessTas {
    fn play(&self, ctx: &mut ProcessCtx, side: Side) -> bool {
        ctx.record(StepKind::TasInvocation);
        let mut preference = side.index();
        for index in 0..TOTAL_ROUNDS {
            let round = self.round(index);
            match self.commit_adopt(ctx, round, side, preference) {
                Ok(winner) => {
                    // Harness bookkeeping only; not part of the algorithm.
                    if self.decided.peek() == EMPTY {
                        self.decided
                            .compare_and_swap(ctx, EMPTY, winner)
                            .map(|_| ())
                            .unwrap_or(());
                    }
                    return winner == side.index();
                }
                Err(adopted) => preference = adopted,
            }
            preference = if index < RANDOM_ROUNDS {
                self.race_conciliator(ctx, round, preference)
            } else {
                self.arbiter_conciliator(ctx, preference)
            };
        }
        unreachable!(
            "the round after the arbiter conciliator always commits: both \
             preferences are equal, so commit-adopt cannot conflict"
        )
    }

    fn has_winner(&self) -> bool {
        self.decided.peek() != EMPTY
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmem::adversary::{ArrivalSchedule, ExecConfig, YieldPolicy};
    use shmem::executor::Executor;
    use shmem::process::ProcessId;
    use std::sync::Arc;

    #[test]
    fn solo_top_participant_wins() {
        let tas = TwoProcessTas::new();
        let mut ctx = ProcessCtx::new(ProcessId::new(0), 1);
        assert!(tas.play(&mut ctx, Side::Top));
        assert!(TwoPartyTas::has_winner(&tas));
        assert_eq!(tas.winner(), Some(Side::Top));
    }

    #[test]
    fn solo_bottom_participant_wins() {
        let tas = TwoProcessTas::new();
        let mut ctx = ProcessCtx::new(ProcessId::new(1), 1);
        assert!(tas.play(&mut ctx, Side::Bottom));
        assert_eq!(tas.winner(), Some(Side::Bottom));
    }

    #[test]
    fn sequential_contenders_yield_exactly_one_winner() {
        let tas = TwoProcessTas::new();
        let mut first = ProcessCtx::new(ProcessId::new(0), 3);
        let mut second = ProcessCtx::new(ProcessId::new(1), 3);
        let first_won = tas.play(&mut first, Side::Top);
        let second_won = tas.play(&mut second, Side::Bottom);
        assert!(first_won, "a participant running alone to completion wins");
        assert!(!second_won);
    }

    #[test]
    fn losers_see_the_winner_after_the_fact() {
        let tas = TwoProcessTas::new();
        let mut bottom = ProcessCtx::new(ProcessId::new(1), 9);
        assert!(tas.play(&mut bottom, Side::Bottom));
        let mut top = ProcessCtx::new(ProcessId::new(0), 9);
        assert!(!tas.play(&mut top, Side::Top));
        assert_eq!(tas.winner(), Some(Side::Bottom));
    }

    /// Seeds per randomized test; miri runs a handful.
    const SEEDS: u64 = if cfg!(miri) { 4 } else { 50 };

    #[test]
    fn concurrent_contenders_always_produce_exactly_one_winner() {
        for seed in 0..SEEDS {
            let tas = Arc::new(TwoProcessTas::new());
            let config = ExecConfig::new(seed)
                .with_yield_policy(YieldPolicy::Probabilistic(0.3))
                .with_arrival(ArrivalSchedule::Simultaneous);
            let outcome = Executor::new(config).run(2, {
                let tas = Arc::clone(&tas);
                move |ctx| {
                    let side = if ctx.id().as_usize() == 0 {
                        Side::Top
                    } else {
                        Side::Bottom
                    };
                    tas.play(ctx, side)
                }
            });
            let winners = outcome.results().into_iter().filter(|w| *w).count();
            assert_eq!(winners, 1, "seed {seed}: exactly one winner required");
        }
    }

    #[test]
    fn expected_step_complexity_is_small() {
        let mut total_steps = 0u64;
        let trials = SEEDS;
        for seed in 0..trials {
            let tas = Arc::new(TwoProcessTas::new());
            let outcome = Executor::new(ExecConfig::new(seed)).run(2, {
                let tas = Arc::clone(&tas);
                move |ctx| {
                    let side = if ctx.id().as_usize() == 0 {
                        Side::Top
                    } else {
                        Side::Bottom
                    };
                    tas.play(ctx, side)
                }
            });
            total_steps += outcome.total_steps().total();
        }
        let mean_per_process = total_steps as f64 / (2 * trials) as f64;
        // The constant-expected-steps profile of Tromp–Vitányi: the mean
        // should be a small constant, far below even a single round per
        // process times the round limit.
        assert!(
            mean_per_process < 20.0,
            "mean steps per play was {mean_per_process}"
        );
    }

    #[test]
    fn construction_allocates_only_the_inline_rounds() {
        let tas = TwoProcessTas::new();
        assert!(tas.tail.get().is_none());
        let mut ctx = ProcessCtx::new(ProcessId::new(0), 4);
        assert!(tas.play(&mut ctx, Side::Top));
        assert!(tas.tail.get().is_none(), "a solo play decides in round 0");
    }

    /// The registers of the object's rounds and arbiter that exist now.
    fn register_locs(tas: &TwoProcessTas) -> Vec<shmem::vexec::Loc> {
        let round_locs = |round: &Round| {
            [
                round.proposal_top.loc(),
                round.proposal_bottom.loc(),
                round.race.loc(),
            ]
        };
        let mut locs: Vec<_> = tas.head.iter().flat_map(round_locs).collect();
        locs.push(tas.decided.loc());
        if let Some(tail) = tas.tail.get() {
            locs.extend(tail.rounds.iter().flat_map(round_locs));
            locs.push(tail.arbiter.loc());
        }
        locs
    }

    #[test]
    fn lockstep_plays_grow_one_shared_tail() {
        use shmem::adversary::ScheduleSource;
        use shmem::vexec::{Schedule, VirtualExecutor};

        // Strict alternation makes both sides see a conflict in round 0;
        // whether round 1 decides depends on the coins, so scan seeds for
        // plays that reach round 2.
        let alternating = Schedule::new((0..400).map(|i| ProcessId::new(i % 2)).collect());
        let mut grown = 0;
        for seed in 0..if cfg!(miri) { 8 } else { 32 } {
            let tas = Arc::new(TwoProcessTas::new());
            let config =
                ExecConfig::new(seed).with_schedule(ScheduleSource::Replay(alternating.clone()));
            let run = VirtualExecutor::new(config).run(2, {
                let tas = Arc::clone(&tas);
                move |ctx| {
                    let side = if ctx.id().as_usize() == 0 {
                        Side::Top
                    } else {
                        Side::Bottom
                    };
                    tas.play(ctx, side)
                }
            });
            let winners = run.outcome.results().into_iter().filter(|w| *w).count();
            assert_eq!(winners, 1, "seed {seed}: exactly one winner required");
            if tas.tail.get().is_none() {
                continue;
            }
            grown += 1;
            // Both sides played on the one tail the object holds: a second
            // tail built by the losing initializer would show up as
            // registers outside this set.
            let locs = register_locs(&tas);
            for event in &run.trace.events {
                if event
                    .op
                    .kind
                    .is_some_and(|kind| kind != StepKind::TasInvocation)
                {
                    assert!(
                        locs.contains(&event.op.loc),
                        "seed {seed}: step on a register outside the object: {event:?}"
                    );
                }
            }
        }
        assert!(grown > 0, "no seed drove a play into round 2");
    }

    #[test]
    fn winner_is_reported_only_after_a_decision() {
        let tas = TwoProcessTas::new();
        assert!(!TwoPartyTas::has_winner(&tas));
        assert_eq!(tas.winner(), None);
        let mut ctx = ProcessCtx::new(ProcessId::new(0), 2);
        tas.play(&mut ctx, Side::Top);
        assert!(TwoPartyTas::has_winner(&tas));
    }
}
