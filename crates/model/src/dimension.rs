//! Dimensions and their (static) member hierarchies.

use crate::error::ModelError;
use crate::ids::MemberId;
use crate::member::MemberNode;
use crate::Result;
use std::collections::HashMap;

/// A dimension: a named hierarchy of members.
///
/// Every dimension owns a synthetic root member ([`MemberId::ROOT`]) named
/// after the dimension itself (as in the paper's Fig. 1, where the
/// top member of the Organization dimension *is* "Organization").
///
/// The hierarchy stored here is the *static* one. A varying dimension's
/// time-dependent reclassifications are tracked separately in
/// [`crate::VaryingDimension`] so the original structure stays intact.
#[derive(Debug, Clone)]
pub struct Dimension {
    name: String,
    members: Vec<MemberNode>,
    /// Leaf members in first-added order; recomputed lazily.
    leaves: Vec<MemberId>,
    /// Leaf member → ordinal, rebuilt by [`Dimension::seal`].
    leaf_ords: HashMap<MemberId, u32>,
    leaves_dirty: bool,
    /// (parent, name) → member for duplicate detection and lookup.
    by_name: HashMap<String, Vec<MemberId>>,
    /// Whether leaf members carry a meaningful total order (e.g. Time).
    ordered: bool,
    /// Whether this dimension holds measures (Salary, Benefits, ...).
    is_measure: bool,
}

impl Dimension {
    /// Creates a dimension with only its root member.
    pub fn new(name: &str) -> Self {
        let mut by_name = HashMap::new();
        by_name.insert(name.to_string(), vec![MemberId::ROOT]);
        Dimension {
            name: name.to_string(),
            members: vec![MemberNode::root(name)],
            leaves: Vec::new(),
            leaf_ords: HashMap::new(),
            leaves_dirty: true,
            by_name,
            ordered: false,
            is_measure: false,
        }
    }

    /// The dimension's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Marks leaf members as totally ordered (parameter dimensions like
    /// Time). Unordered dimensions (like Location) can still parameterize
    /// changes; only the *dynamic* perspective semantics require order.
    pub fn set_ordered(&mut self, ordered: bool) {
        self.ordered = ordered;
    }

    /// Whether leaf members carry a total order.
    pub fn is_ordered(&self) -> bool {
        self.ordered
    }

    /// Marks this dimension as the measures dimension.
    pub fn set_measure(&mut self, m: bool) {
        self.is_measure = m;
    }

    /// Whether this is the measures dimension.
    pub fn is_measure(&self) -> bool {
        self.is_measure
    }

    /// Adds a member under `parent`. Sibling names must be unique.
    pub fn add_member(&mut self, name: &str, parent: MemberId) -> Result<MemberId> {
        if parent.index() >= self.members.len() {
            return Err(ModelError::UnknownMember {
                dim: self.name.clone(),
                member: parent,
            });
        }
        let dup = self
            .by_name
            .get(name)
            .map(|ids| {
                ids.iter()
                    .any(|&id| self.members[id.index()].parent == Some(parent))
            })
            .unwrap_or(false);
        if dup {
            return Err(ModelError::DuplicateMember {
                dim: self.name.clone(),
                member: name.to_string(),
            });
        }
        let level = self.members[parent.index()].level + 1;
        let id = MemberId(self.members.len() as u32);
        self.members.push(MemberNode::child(name, parent, level));
        self.members[parent.index()].children.push(id);
        self.by_name.entry(name.to_string()).or_default().push(id);
        self.leaves_dirty = true;
        Ok(id)
    }

    /// Adds a member directly under the root.
    pub fn add_child_of_root(&mut self, name: &str) -> Result<MemberId> {
        self.add_member(name, MemberId::ROOT)
    }

    /// Number of members, including the root.
    pub fn member_count(&self) -> usize {
        self.members.len()
    }

    /// Borrow a member node.
    pub fn member(&self, id: MemberId) -> &MemberNode {
        &self.members[id.index()]
    }

    /// Checked member lookup.
    pub fn try_member(&self, id: MemberId) -> Result<&MemberNode> {
        self.members
            .get(id.index())
            .ok_or_else(|| ModelError::UnknownMember {
                dim: self.name.clone(),
                member: id,
            })
    }

    /// The member's display name.
    pub fn member_name(&self, id: MemberId) -> &str {
        &self.members[id.index()].name
    }

    /// Looks a member up by name. If several members share the name (the
    /// paper allows e.g. "10" under different parents in Fig. 1), the first
    /// added wins; use [`Dimension::find_under`] to disambiguate.
    pub fn find(&self, name: &str) -> Option<MemberId> {
        self.by_name.get(name).and_then(|v| v.first()).copied()
    }

    /// Looks up a member by name among children of `parent`.
    pub fn find_under(&self, parent: MemberId, name: &str) -> Option<MemberId> {
        self.by_name.get(name).and_then(|ids| {
            ids.iter()
                .find(|&&id| self.members[id.index()].parent == Some(parent))
                .copied()
        })
    }

    /// Looks up by name, erroring with dimension context when missing.
    pub fn resolve(&self, name: &str) -> Result<MemberId> {
        self.find(name)
            .ok_or_else(|| ModelError::UnknownMemberName {
                dim: self.name.clone(),
                member: name.to_string(),
            })
    }

    /// Resolves a `/`-separated path from the root, e.g. `"FTE/Joe"`.
    pub fn resolve_path(&self, path: &str) -> Result<MemberId> {
        let mut cur = MemberId::ROOT;
        for seg in path.split('/').filter(|s| !s.is_empty()) {
            cur = self
                .find_under(cur, seg)
                .ok_or_else(|| ModelError::UnknownMemberName {
                    dim: self.name.clone(),
                    member: path.to_string(),
                })?;
        }
        Ok(cur)
    }

    /// All leaf members, in first-added order. This order defines the
    /// dimension's axis for non-varying dimensions and the *moment*
    /// ordinals for parameter dimensions.
    pub fn leaves(&self) -> &[MemberId] {
        debug_assert!(
            !self.leaves_dirty,
            "call Dimension::seal() (or Schema::seal) after mutating the hierarchy"
        );
        &self.leaves
    }

    /// Recomputes the leaf list. Called by [`crate::Schema::seal`]; also
    /// safe to call directly after hierarchy edits.
    pub fn seal(&mut self) {
        self.leaves = (0..self.members.len() as u32)
            .map(MemberId)
            .filter(|&m| self.members[m.index()].is_leaf() && m != MemberId::ROOT)
            .collect();
        self.leaf_ords = self
            .leaves
            .iter()
            .enumerate()
            .map(|(i, &m)| (m, i as u32))
            .collect();
        self.leaves_dirty = false;
    }

    /// Number of leaf members (sealing if needed is the caller's job).
    pub fn leaf_count(&self) -> u32 {
        self.leaves.len() as u32
    }

    /// Ordinal of a leaf member along the axis / moment scale.
    pub fn leaf_ordinal(&self, id: MemberId) -> Option<u32> {
        self.leaf_ords.get(&id).copied()
    }

    /// The leaf member at a given ordinal.
    pub fn leaf_at(&self, ord: u32) -> Option<MemberId> {
        self.leaves.get(ord as usize).copied()
    }

    /// Names of all leaves, in ordinal order (handy for rendering).
    pub fn leaf_names(&self) -> Vec<String> {
        self.leaves
            .iter()
            .map(|&l| self.members[l.index()].name.clone())
            .collect()
    }

    /// Is `m` a leaf?
    pub fn is_leaf(&self, m: MemberId) -> bool {
        self.members[m.index()].is_leaf()
    }

    /// Direct children of `m`.
    pub fn children(&self, m: MemberId) -> &[MemberId] {
        &self.members[m.index()].children
    }

    /// Parent of `m` in the static hierarchy.
    pub fn parent(&self, m: MemberId) -> Option<MemberId> {
        self.members[m.index()].parent
    }

    /// Path from `m` (exclusive) up to the root (inclusive), bottom-up.
    pub fn ancestors(&self, m: MemberId) -> Vec<MemberId> {
        let mut out = Vec::new();
        let mut cur = self.members[m.index()].parent;
        while let Some(p) = cur {
            out.push(p);
            cur = self.members[p.index()].parent;
        }
        out
    }

    /// Is `anc` a proper ancestor of `m` in the static hierarchy?
    pub fn is_ancestor(&self, anc: MemberId, m: MemberId) -> bool {
        let mut cur = self.members[m.index()].parent;
        while let Some(p) = cur {
            if p == anc {
                return true;
            }
            cur = self.members[p.index()].parent;
        }
        false
    }

    /// All proper descendants of `m`, preorder.
    pub fn descendants(&self, m: MemberId) -> Vec<MemberId> {
        let mut out = Vec::new();
        let mut stack: Vec<MemberId> = self.members[m.index()].children.clone();
        stack.reverse();
        while let Some(c) = stack.pop() {
            out.push(c);
            for &g in self.members[c.index()].children.iter().rev() {
                stack.push(g);
            }
        }
        out
    }

    /// Members at exactly `level` (root = level 0), preorder.
    pub fn members_at_level(&self, level: u32) -> Vec<MemberId> {
        let mut out = Vec::new();
        let mut stack = vec![MemberId::ROOT];
        while let Some(m) = stack.pop() {
            let node = &self.members[m.index()];
            if node.level == level {
                out.push(m);
            } else if node.level < level {
                for &c in node.children.iter().rev() {
                    stack.push(c);
                }
            }
        }
        out
    }

    /// Maximum depth of the hierarchy.
    pub fn depth(&self) -> u32 {
        self.members.iter().map(|m| m.level).max().unwrap_or(0)
    }

    /// Iterate all member ids (including the root).
    pub fn member_ids(&self) -> impl Iterator<Item = MemberId> {
        (0..self.members.len() as u32).map(MemberId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn org() -> Dimension {
        // Fig. 1's Organization dimension.
        let mut d = Dimension::new("Organization");
        let fte = d.add_child_of_root("FTE").unwrap();
        d.add_member("Joe", fte).unwrap();
        d.add_member("Lisa", fte).unwrap();
        d.add_member("Sue", fte).unwrap();
        let pte = d.add_child_of_root("PTE").unwrap();
        d.add_member("Tom", pte).unwrap();
        d.add_member("Dave", pte).unwrap();
        let contr = d.add_child_of_root("Contractor").unwrap();
        d.add_member("Jane", contr).unwrap();
        d.seal();
        d
    }

    #[test]
    fn hierarchy_shape() {
        let d = org();
        assert_eq!(d.member_count(), 10); // root + 3 types + 6 employees
        assert_eq!(d.leaf_count(), 6);
        assert_eq!(d.depth(), 2);
        let fte = d.find("FTE").unwrap();
        assert_eq!(d.children(fte).len(), 3);
        assert_eq!(d.member(fte).level, 1);
    }

    #[test]
    fn paths_and_resolution() {
        let d = org();
        let joe = d.resolve_path("FTE/Joe").unwrap();
        assert_eq!(joe, d.resolve("Joe").unwrap());
        assert_eq!(d.member_name(joe), "Joe");
        assert!(d.resolve_path("PTE/Joe").is_err());
    }

    #[test]
    fn ancestors_and_descendants() {
        let d = org();
        let joe = d.resolve("Joe").unwrap();
        let fte = d.resolve("FTE").unwrap();
        assert_eq!(d.ancestors(joe), vec![fte, MemberId::ROOT]);
        assert!(d.is_ancestor(fte, joe));
        assert!(!d.is_ancestor(joe, fte));
        let leaves = |m| d.descendants(m).into_iter().filter(|&c| d.is_leaf(c));
        assert_eq!(leaves(fte).count(), 3);
        assert_eq!(leaves(MemberId::ROOT).count(), 6);
    }

    #[test]
    fn leaf_ordinals_are_stable() {
        let d = org();
        let joe = d.resolve("Joe").unwrap();
        assert_eq!(d.leaf_ordinal(joe), Some(0));
        assert_eq!(d.leaf_at(0), Some(joe));
        let jane = d.resolve("Jane").unwrap();
        assert_eq!(d.leaf_ordinal(jane), Some(5));
    }

    #[test]
    fn duplicate_sibling_rejected_but_cousins_ok() {
        let mut d = Dimension::new("Location");
        let east = d.add_child_of_root("East").unwrap();
        let west = d.add_child_of_root("West").unwrap();
        d.add_member("Springfield", east).unwrap();
        // Same name under a different parent is fine (Fig. 1 has "10" twice).
        d.add_member("Springfield", west).unwrap();
        assert!(d.add_member("Springfield", east).is_err());
    }

    #[test]
    fn members_at_level() {
        let d = org();
        assert_eq!(d.members_at_level(0), vec![MemberId::ROOT]);
        assert_eq!(d.members_at_level(1).len(), 3);
        assert_eq!(d.members_at_level(2).len(), 6);
    }

    #[test]
    fn leaf_names_in_order() {
        let d = org();
        assert_eq!(
            d.leaf_names(),
            vec!["Joe", "Lisa", "Sue", "Tom", "Dave", "Jane"]
        );
    }
}
