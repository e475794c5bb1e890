//! A request's bounds: the one declaration of the peak-memory budget
//! and the wall-clock deadline that every bounded layer answers to —
//! the chunked executor (`whatif_core::ExecOpts` carries one), the
//! aggregator ([`crate::CubeAggregator::compute_bounded`]) and MDX grid
//! evaluation. A layer reads them only through [`Bounds::admit`] and
//! [`Bounds::check_deadline`], so each decision is made in one place.

use crate::error::CubeError;
use crate::Result;
use std::time::Instant;

/// The budget and deadline of one request; `Default` bounds nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Bounds {
    /// Peak-memory ceiling in cells; `0` means unlimited. A layer admits
    /// its predicted peak against it before it reads a chunk.
    pub budget_cells: u64,
    /// Cooperative wall-clock deadline; `None` means unlimited. A layer
    /// checks it at its own boundaries (base blocks, `Filter` tuples,
    /// grid rows, passes, slices), where stopping leaves no partial state
    /// behind.
    pub deadline: Option<Instant>,
}

impl Bounds {
    /// Errors with [`CubeError::DeadlineExceeded`] once the deadline has
    /// passed — the one place the clock is compared with it.
    pub fn check_deadline(&self) -> Result<()> {
        match self.deadline {
            Some(d) if Instant::now() >= d => Err(CubeError::DeadlineExceeded),
            _ => Ok(()),
        }
    }

    /// Admits a predicted peak of `needed` cells, or errors with
    /// [`CubeError::OverBudget`].
    pub fn admit(&self, needed: u64) -> Result<()> {
        match self.budget_cells {
            budget if budget > 0 && needed > budget => {
                Err(CubeError::OverBudget { needed, budget })
            }
            _ => Ok(()),
        }
    }
}
