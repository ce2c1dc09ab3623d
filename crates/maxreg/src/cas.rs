//! Compare-and-swap max register baseline.
//!
//! The paper's constructions deliberately avoid read-modify-write primitives;
//! this baseline shows what a max register costs when compare-and-swap *is*
//! allowed (a retry loop on a single word). No experiment in this workspace
//! measures it; the counter experiments (E8) compare against the hardware
//! counter baseline `CasCounter` of the core crate instead.

use crate::MaxRegister;
use shmem::process::ProcessCtx;
use shmem::register::AtomicU64Register;

/// A max register implemented as a compare-and-swap retry loop on one word.
///
/// # Example
///
/// ```
/// use maxreg::{CasMaxRegister, MaxRegister};
/// use shmem::process::{ProcessCtx, ProcessId};
///
/// let register = CasMaxRegister::new();
/// let mut ctx = ProcessCtx::new(ProcessId::new(0), 0);
/// register.write_max(&mut ctx, 9);
/// register.write_max(&mut ctx, 4);
/// assert_eq!(register.read_max(&mut ctx), 9);
/// ```
#[derive(Debug, Default)]
pub struct CasMaxRegister {
    cell: AtomicU64Register,
}

impl CasMaxRegister {
    /// Creates a max register holding 0.
    pub fn new() -> Self {
        CasMaxRegister {
            cell: AtomicU64Register::new(0),
        }
    }
}

impl MaxRegister for CasMaxRegister {
    fn write_max(&self, ctx: &mut ProcessCtx, value: u64) {
        let mut current = self.cell.read(ctx);
        while current < value {
            match self.cell.compare_and_swap(ctx, current, value) {
                Ok(_) => return,
                Err(actual) => current = actual,
            }
        }
    }

    fn read_max(&self, ctx: &mut ProcessCtx) -> u64 {
        self.cell.read(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmem::process::ProcessId;

    #[test]
    fn tracks_the_running_maximum() {
        let register = CasMaxRegister::new();
        let mut ctx = ProcessCtx::new(ProcessId::new(0), 0);
        assert_eq!(register.read_max(&mut ctx), 0);
        register.write_max(&mut ctx, 10);
        register.write_max(&mut ctx, 3);
        register.write_max(&mut ctx, 12);
        assert_eq!(register.read_max(&mut ctx), 12);
    }

    #[test]
    fn writes_below_the_maximum_cost_a_single_read() {
        let register = CasMaxRegister::new();
        let mut ctx = ProcessCtx::new(ProcessId::new(0), 0);
        register.write_max(&mut ctx, 100);
        let before = ctx.stats().total();
        register.write_max(&mut ctx, 50);
        assert_eq!(ctx.stats().total() - before, 1);
    }
}
