//! Errors for what-if query evaluation.

use std::fmt;

/// Errors surfaced while building or evaluating what-if queries.
#[derive(Debug)]
pub enum WhatIfError {
    /// Underlying model error.
    Model(olap_model::ModelError),
    /// Underlying storage error.
    Store(olap_store::StoreError),
    /// Underlying cube error.
    Cube(olap_cube::CubeError),
    /// The scenario's dimension is not a varying dimension of the cube.
    NotVarying(String),
    /// Dynamic (forward/backward) semantics require an *ordered*
    /// parameter dimension; static works on unordered ones too.
    UnorderedParameter { varying: String, parameter: String },
    /// The perspective set was empty.
    NoPerspectives,
    /// A perspective moment is out of the parameter dimension's range.
    BadPerspective { moment: u32, moments: u32 },
    /// A scope slot is past the end of the varying dimension's axis.
    BadScopeSlot { slot: u32, axis_len: u32 },
    /// A positive change's claimed current parent does not match the
    /// cube's structure at the change moment.
    WrongOldParent {
        member: String,
        claimed: String,
        actual: String,
    },
    /// A positive change targets a member/parent that doesn't exist or is
    /// illegal (leaf parent, cycle, …).
    BadChange(String),
}

impl fmt::Display for WhatIfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WhatIfError::Model(e) => write!(f, "model error: {e}"),
            WhatIfError::Store(e) => write!(f, "store error: {e}"),
            WhatIfError::Cube(e) => write!(f, "cube error: {e}"),
            WhatIfError::NotVarying(d) => {
                write!(f, "dimension {d:?} is not a varying dimension of this cube")
            }
            WhatIfError::UnorderedParameter { varying, parameter } => write!(
                f,
                "dynamic semantics on {varying:?} require ordered parameter dimension \
                 {parameter:?}; use static semantics or mark it ordered"
            ),
            WhatIfError::NoPerspectives => write!(f, "perspective set is empty"),
            WhatIfError::BadPerspective { moment, moments } => write!(
                f,
                "perspective moment {moment} out of range (parameter has {moments} leaves)"
            ),
            WhatIfError::BadScopeSlot { slot, axis_len } => write!(
                f,
                "scope slot {slot} out of range (varying axis has {axis_len} slots)"
            ),
            WhatIfError::WrongOldParent {
                member,
                claimed,
                actual,
            } => write!(
                f,
                "change relation claims {member:?} reports to {claimed:?} but the cube \
                 says {actual:?} at that moment"
            ),
            WhatIfError::BadChange(m) => write!(f, "illegal positive change: {m}"),
        }
    }
}

impl std::error::Error for WhatIfError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WhatIfError::Model(e) => Some(e),
            WhatIfError::Store(e) => Some(e),
            WhatIfError::Cube(e) => Some(e),
            _ => None,
        }
    }
}

impl From<olap_model::ModelError> for WhatIfError {
    fn from(e: olap_model::ModelError) -> Self {
        WhatIfError::Model(e)
    }
}

impl From<olap_store::StoreError> for WhatIfError {
    fn from(e: olap_store::StoreError) -> Self {
        WhatIfError::Store(e)
    }
}

impl From<olap_cube::CubeError> for WhatIfError {
    fn from(e: olap_cube::CubeError) -> Self {
        WhatIfError::Cube(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(WhatIfError::NoPerspectives.to_string().contains("empty"));
        let e = WhatIfError::BadPerspective {
            moment: 14,
            moments: 12,
        };
        assert!(e.to_string().contains("14"));
    }
}
