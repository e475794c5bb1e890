//! Validity sets (`VS(dᵢ)`) — the moments over which a member instance is
//! valid (paper, Section 2 and Definition 3.1).
//!
//! A validity set is a subset of the leaf-level members (*moments*) of a
//! parameter dimension. For ordered parameter dimensions the moment ordinal
//! carries the temporal order, which the perspective operator Φ exploits
//! (e.g. `Stretch(d)` in Definition 4.3 is a union of half-open intervals).

use crate::bitset::BitSet;
use crate::ids::Moment;

/// The set of moments over which a member instance is valid.
///
/// Invariant maintained by [`crate::VaryingDimension`]: validity sets of
/// distinct instances of the same member are pairwise disjoint ("at any
/// given time, at most one instance of a member is valid").
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct ValiditySet {
    bits: BitSet,
}

impl ValiditySet {
    /// An empty validity set over a parameter dimension with `moments`
    /// leaf members.
    pub fn empty(moments: u32) -> Self {
        ValiditySet {
            bits: BitSet::new(moments),
        }
    }

    /// A validity set covering every moment (a never-reclassified member).
    pub fn all(moments: u32) -> Self {
        ValiditySet {
            bits: BitSet::full(moments),
        }
    }

    /// Builds a validity set from explicit moments.
    pub fn of(moments: u32, items: impl IntoIterator<Item = Moment>) -> Self {
        ValiditySet {
            bits: BitSet::from_iter(moments, items),
        }
    }

    /// A validity set covering the half-open interval `[from, to)`.
    pub fn interval(moments: u32, from: Moment, to: Moment) -> Self {
        ValiditySet {
            bits: BitSet::from_iter(moments, from..to.min(moments)),
        }
    }

    /// A validity set covering `[from, +∞)` — i.e. up to the last moment.
    pub fn from_onward(moments: u32, from: Moment) -> Self {
        Self::interval(moments, from, moments)
    }

    /// Is the instance valid at `t`?
    #[inline]
    pub fn is_valid_at(&self, t: Moment) -> bool {
        self.bits.contains(t)
    }

    /// Marks the instance valid at `t`.
    #[inline]
    pub fn add(&mut self, t: Moment) {
        self.bits.insert(t);
    }

    /// Number of valid moments.
    pub fn len(&self) -> u32 {
        self.bits.count()
    }

    /// `true` if valid nowhere.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Earliest valid moment.
    pub fn first(&self) -> Option<Moment> {
        self.bits.min()
    }

    /// Latest valid moment.
    pub fn last(&self) -> Option<Moment> {
        self.bits.max()
    }

    /// Ascending iterator over valid moments.
    pub fn iter(&self) -> impl Iterator<Item = Moment> + '_ {
        self.bits.iter()
    }

    /// Do two validity sets share a moment? Used both for the disjointness
    /// invariant and for perspective predicates like
    /// `σ_{Product.VS ∩ {Feb, Apr} ≠ ∅}` (Section 4.1).
    pub fn intersects(&self, other: &ValiditySet) -> bool {
        self.bits.intersects(&other.bits)
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &ValiditySet) {
        self.bits.union_with(&other.bits);
    }

    /// In-place intersection.
    pub fn intersect_with(&mut self, other: &ValiditySet) {
        self.bits.intersect_with(&other.bits);
    }

    /// In-place difference.
    pub fn difference_with(&mut self, other: &ValiditySet) {
        self.bits.difference_with(&other.bits);
    }

    /// Renders as `{Jan, Feb, ...}` given moment names, for diagnostics.
    pub fn display_with<'a>(&'a self, names: &'a [String]) -> impl std::fmt::Display + 'a {
        struct D<'a>(&'a ValiditySet, &'a [String]);
        impl std::fmt::Display for D<'_> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{{")?;
                for (i, t) in self.0.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    match self.1.get(t as usize) {
                        Some(n) => write!(f, "{n}")?,
                        None => write!(f, "#{t}")?,
                    }
                }
                write!(f, "}}")
            }
        }
        D(self, names)
    }
}

impl std::fmt::Debug for ValiditySet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "VS{:?}", self.bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_is_half_open() {
        let v = ValiditySet::interval(12, 2, 5);
        assert!(!v.is_valid_at(1));
        assert!(v.is_valid_at(2));
        assert!(v.is_valid_at(4));
        assert!(!v.is_valid_at(5));
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn from_onward_reaches_end() {
        let v = ValiditySet::from_onward(12, 10);
        assert_eq!(v.iter().collect::<Vec<_>>(), vec![10, 11]);
    }

    #[test]
    fn interval_clamps_to_capacity() {
        let v = ValiditySet::interval(6, 4, 100);
        assert_eq!(v.iter().collect::<Vec<_>>(), vec![4, 5]);
    }

    #[test]
    fn disjointness_detection() {
        // The paper's example: VS(d1) = {Jan, Feb, Jun}, VS(d2) = {Mar, Apr, May}
        // (interleaved but disjoint).
        let d1 = ValiditySet::of(12, [0, 1, 5]);
        let d2 = ValiditySet::of(12, [2, 3, 4]);
        assert!(!d1.intersects(&d2));
        let d3 = ValiditySet::of(12, [5, 6]);
        assert!(d1.intersects(&d3));
    }

    #[test]
    fn first_and_last() {
        let v = ValiditySet::of(12, [3, 7, 9]);
        assert_eq!(v.first(), Some(3));
        assert_eq!(v.last(), Some(9));
    }

    #[test]
    fn display_with_names() {
        let names: Vec<String> = ["Jan", "Feb", "Mar"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let v = ValiditySet::of(3, [0, 2]);
        assert_eq!(format!("{}", v.display_with(&names)), "{Jan, Mar}");
    }
}
