//! Cube-layer errors.

use std::fmt;

/// Errors from cube construction, querying, and aggregation.
#[derive(Debug)]
pub enum CubeError {
    /// Underlying model error.
    Model(olap_model::ModelError),
    /// Underlying storage error.
    Store(olap_store::StoreError),
    /// A cell reference didn't match the cube's dimensionality.
    BadCellRef { expected: usize, got: usize },
    /// A selector referenced a slot outside an axis.
    SlotOutOfRange { dim: usize, slot: u32, len: u32 },
    /// Formula evaluation exceeded the recursion limit (rule cycle).
    RuleCycle { measure: String },
    /// A formula divided by zero (and the rule set forbids it).
    DivisionByZero { measure: String },
    /// A request's predicted peak exceeds its budget
    /// ([`crate::Bounds::admit`]); refused before any chunk is read.
    OverBudget { needed: u64, budget: u64 },
    /// A request's deadline passed ([`crate::Bounds::check_deadline`]);
    /// partial output is discarded.
    DeadlineExceeded,
}

impl fmt::Display for CubeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CubeError::Model(e) => write!(f, "model error: {e}"),
            CubeError::Store(e) => write!(f, "store error: {e}"),
            CubeError::BadCellRef { expected, got } => {
                write!(
                    f,
                    "cell ref has {got} selectors, cube has {expected} dimensions"
                )
            }
            CubeError::SlotOutOfRange { dim, slot, len } => {
                write!(f, "slot {slot} out of range (axis {dim} has {len} slots)")
            }
            CubeError::RuleCycle { measure } => {
                write!(
                    f,
                    "rule cycle detected while evaluating measure {measure:?}"
                )
            }
            CubeError::DivisionByZero { measure } => {
                write!(f, "division by zero evaluating measure {measure:?}")
            }
            CubeError::OverBudget { needed, budget } => write!(
                f,
                "request needs a peak of {needed} buffer cells but the budget is \
                 {budget}; raise the budget or narrow the request"
            ),
            CubeError::DeadlineExceeded => write!(
                f,
                "deadline exceeded: request aborted at a block, row, slice or pass \
                 boundary; partial output discarded, session and cache intact"
            ),
        }
    }
}

impl std::error::Error for CubeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CubeError::Model(e) => Some(e),
            CubeError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<olap_model::ModelError> for CubeError {
    fn from(e: olap_model::ModelError) -> Self {
        CubeError::Model(e)
    }
}

impl From<olap_store::StoreError> for CubeError {
    fn from(e: olap_store::StoreError) -> Self {
        CubeError::Store(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_context() {
        let e = CubeError::BadCellRef {
            expected: 3,
            got: 2,
        };
        assert!(e.to_string().contains('3'));
        let e = CubeError::RuleCycle {
            measure: "Margin".into(),
        };
        assert!(e.to_string().contains("Margin"));
    }
}
