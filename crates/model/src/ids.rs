//! Strongly-typed identifiers used throughout the model.
//!
//! All identifiers are arena indices: a [`MemberId`] indexes into its
//! dimension's member arena, an [`InstanceId`] into the varying-dimension
//! instance arena, and so on. They are deliberately `Copy` and cheap so that
//! hot loops (chunk iteration, aggregation) can pass them by value.

use std::fmt;

/// Identifies a dimension within a [`crate::Schema`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DimensionId(pub u32);

/// Identifies a member within a single [`crate::Dimension`]'s arena.
///
/// `MemberId(0)` is always the dimension's root member.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MemberId(pub u32);

/// Identifies a member *instance* of a varying dimension.
///
/// An instance is one distinct root-to-leaf classification of a leaf member
/// (e.g. `FTE/Joe` vs `Contractor/Joe`), per Definition 3.1 of the paper.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstanceId(pub u32);

/// A position along a cube axis.
///
/// For an ordinary dimension this indexes the dimension's leaf members in
/// declaration order; for a varying dimension it indexes member instances.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AxisSlot(pub u32);

/// A leaf-level member of a parameter dimension, identified by its ordinal.
///
/// The paper calls these *moments* ("we refer to leaf level members of
/// ordered parameter dimensions as 'moments' as though they were from the
/// Time dimension"). For ordered parameter dimensions the ordinal *is* the
/// temporal order; for unordered ones it is just an index.
pub type Moment = u32;

impl MemberId {
    /// The root member every dimension is created with.
    pub const ROOT: MemberId = MemberId(0);

    /// Arena index as `usize`, for direct vector indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl DimensionId {
    /// Arena index as `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl InstanceId {
    /// Arena index as `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for DimensionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Dim({})", self.0)
    }
}

impl fmt::Debug for MemberId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Mem({})", self.0)
    }
}

impl fmt::Debug for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Inst({})", self.0)
    }
}

impl fmt::Debug for AxisSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Slot({})", self.0)
    }
}

impl fmt::Display for DimensionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Display for MemberId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_is_zero() {
        assert_eq!(MemberId::ROOT, MemberId(0));
        assert_eq!(MemberId::ROOT.index(), 0);
    }

    #[test]
    fn debug_formats() {
        assert_eq!(format!("{:?}", DimensionId(3)), "Dim(3)");
        assert_eq!(format!("{:?}", MemberId(7)), "Mem(7)");
        assert_eq!(format!("{:?}", InstanceId(1)), "Inst(1)");
        assert_eq!(format!("{:?}", AxisSlot(9)), "Slot(9)");
    }

    #[test]
    fn ordering_follows_index() {
        assert!(MemberId(1) < MemberId(2));
        assert!(AxisSlot(0) < AxisSlot(10));
    }
}
