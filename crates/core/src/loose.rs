//! Adaptive *loose* renaming via the splitter tree alone.
//!
//! Taking the temporary names of the [`TempName`]
//! stage as final names already solves the *loose* adaptive renaming problem
//! (namespace polynomial in `k`, here `O(k²)` with high probability) in
//! `O(log k)` steps — this is essentially the adaptive loose algorithm of
//! Alistarh et al. \[12\] that the paper builds on. It is the natural
//! reference point for the *tight* adaptive algorithm, though no experiment
//! in this workspace measures it: the second (renaming-network) stage is
//! exactly the price paid for shrinking the namespace from `O(k²)` to
//! exactly `k`.

use crate::error::RenamingError;
use crate::temp_name::TempName;
use crate::traits::Renaming;
use shmem::process::ProcessCtx;
use std::fmt;

/// Adaptive loose renaming: unique names polynomial in the contention, in
/// `O(log k)` steps, with no tightness guarantee.
///
/// # Example
///
/// ```
/// use adaptive_renaming::loose::LooseRenaming;
/// use adaptive_renaming::traits::{assert_unique_names, Renaming};
/// use shmem::adversary::ExecConfig;
/// use shmem::executor::Executor;
/// use std::sync::Arc;
///
/// let renaming = Arc::new(LooseRenaming::new());
/// let outcome = Executor::new(ExecConfig::new(3)).run(6, {
///     let renaming = Arc::clone(&renaming);
///     move |ctx| renaming.acquire(ctx).expect("loose renaming never fails")
/// });
/// assert!(assert_unique_names(&outcome.results()).is_ok());
/// ```
pub struct LooseRenaming {
    temp: TempName,
}

impl LooseRenaming {
    /// Creates the loose renaming object.
    pub fn new() -> Self {
        LooseRenaming {
            temp: TempName::new(),
        }
    }

    /// The underlying splitter tree.
    pub fn splitter_tree(&self) -> &TempName {
        &self.temp
    }
}

impl Default for LooseRenaming {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for LooseRenaming {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LooseRenaming")
            .field("allocated_splitters", &self.temp.allocated_splitters())
            .finish()
    }
}

impl Renaming for LooseRenaming {
    fn acquire(&self, ctx: &mut ProcessCtx) -> Result<usize, RenamingError> {
        Ok(self.temp.acquire(ctx))
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
    use crate::traits::assert_unique_names;
    use shmem::adversary::{ArrivalSchedule, ExecConfig, YieldPolicy};
    use shmem::executor::Executor;
    use shmem::process::ProcessId;
    use std::sync::Arc;

    #[test]
    fn names_are_unique_but_not_necessarily_tight() {
        let renaming = LooseRenaming::new();
        let mut names = Vec::new();
        for id in 0..20usize {
            let mut ctx = ProcessCtx::new(ProcessId::new(id), 3);
            names.push(renaming.acquire(&mut ctx).unwrap());
        }
        assert_unique_names(&names).unwrap();
        // The namespace is loose: names can exceed k, but stay polynomial.
        assert!(names.iter().all(|&name| name <= 20 * 20 * 20));
    }

    #[test]
    fn concurrent_acquisitions_are_unique_and_cheap() {
        for seed in 0..4 {
            let renaming = Arc::new(LooseRenaming::new());
            let k = 16usize;
            let config = ExecConfig::new(seed)
                .with_yield_policy(YieldPolicy::Probabilistic(0.2))
                .with_arrival(ArrivalSchedule::Simultaneous);
            let outcome = Executor::new(config).run(k, {
                let renaming = Arc::clone(&renaming);
                move |ctx| renaming.acquire(ctx).unwrap()
            });
            assert_unique_names(&outcome.results()).unwrap();
            // The per-process cost is tiny compared to the tight algorithm:
            // just the splitter descent.
            assert!(outcome.step_summary().max_register_steps < 400);
        }
    }

    #[test]
    fn metadata_is_reported() {
        let renaming = LooseRenaming::new();
        assert_eq!(renaming.capacity(), None);
        assert!(renaming.is_adaptive());
        assert_eq!(renaming.splitter_tree().allocated_splitters(), 0);
        assert!(format!("{renaming:?}").contains("LooseRenaming"));
    }

    #[test]
    fn solo_process_gets_the_root_name() {
        let renaming = LooseRenaming::new();
        let mut ctx = ProcessCtx::new(ProcessId::new(0), 0);
        assert_eq!(renaming.acquire(&mut ctx).unwrap(), 1);
    }
}
