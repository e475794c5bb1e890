//! Varying dimensions: reclassification timelines and member instances.
//!
//! A *varying dimension* (Definition 2.1) is a dimension whose hierarchy
//! changes as a function of a *parameter dimension*. We record the change
//! history as per-member **timelines**: for every moment `t` of the
//! parameter dimension, which parent the member reports to (or `None` when
//! the member has no valid classification at `t`, like Joe's May vacation
//! in the paper's Fig. 2).
//!
//! From the timelines we derive **member instances** (Definition 3.1): each
//! distinct root-to-leaf path of a leaf member becomes one instance, with a
//! validity set `VS(dᵢ)` collecting exactly the moments where that path is
//! in effect. Re-acquiring an earlier parent re-uses the earlier instance —
//! the paper's "the root-to-leaf path of this new instance of d is
//! identical to that of d1, so it is treated as d1".
//!
//! Instances of a varying dimension — not its leaf members — form the
//! dimension's cube axis, mirroring how Fig. 2 shows one row per instance
//! (`FTE/Joe`, `PTE/Joe`, `Contractor/Joe`).

use crate::dimension::Dimension;
use crate::error::ModelError;
use crate::ids::{DimensionId, InstanceId, MemberId, Moment};
use crate::validity::ValiditySet;
use crate::Result;
use std::collections::HashMap;

/// One member instance: a leaf member together with one root-to-leaf path.
#[derive(Debug, Clone)]
pub struct InstanceNode {
    /// The leaf member this is an instance of.
    pub member: MemberId,
    /// Ancestor chain below the root, top-down, ending at the direct
    /// parent. `["FTE"]` for instance `FTE/Joe`; deeper hierarchies list
    /// every intermediate member.
    pub path: Vec<MemberId>,
    /// Moments at which this instance is the valid classification.
    pub validity: ValiditySet,
}

impl InstanceNode {
    /// The direct parent member of the instance.
    pub fn parent(&self) -> MemberId {
        *self.path.last().expect("instance path never empty")
    }
}

/// Change metadata for one varying dimension.
///
/// Mutators mark the instance table dirty; call
/// [`VaryingDimension::rebuild`] (or [`crate::Schema::seal`]) before
/// reading instances.
#[derive(Debug, Clone)]
pub struct VaryingDimension {
    varying: DimensionId,
    parameter: DimensionId,
    /// Leaf count of the parameter dimension, fixed at registration.
    moments: u32,
    /// Per-member explicit timelines; members without an entry follow
    /// their static parent at every moment.
    timelines: HashMap<MemberId, Vec<Option<MemberId>>>,
    instances: Vec<InstanceNode>,
    by_member: HashMap<MemberId, Vec<InstanceId>>,
    dirty: bool,
}

impl VaryingDimension {
    /// Low-level constructor; prefer [`crate::Schema::make_varying`],
    /// which wires the registry and sizes `moments` from the parameter
    /// dimension automatically.
    pub fn new(varying: DimensionId, parameter: DimensionId, moments: u32) -> Self {
        VaryingDimension {
            varying,
            parameter,
            moments,
            timelines: HashMap::new(),
            instances: Vec::new(),
            by_member: HashMap::new(),
            dirty: true,
        }
    }

    /// The dimension whose structure changes.
    pub fn varying_dim(&self) -> DimensionId {
        self.varying
    }

    /// The dimension driving the changes.
    pub fn parameter_dim(&self) -> DimensionId {
        self.parameter
    }

    /// Number of moments (parameter-dimension leaves).
    pub fn moments(&self) -> u32 {
        self.moments
    }

    fn check_moment(&self, t: Moment) -> Result<()> {
        if t >= self.moments {
            return Err(ModelError::MomentOutOfRange {
                moment: t,
                len: self.moments,
            });
        }
        Ok(())
    }

    fn timeline_mut(&mut self, dim: &Dimension, member: MemberId) -> &mut Vec<Option<MemberId>> {
        let moments = self.moments as usize;
        self.timelines.entry(member).or_insert_with(|| {
            let static_parent = dim.parent(member);
            vec![static_parent; moments]
        })
    }

    /// A *legal structural change* (Definition 3.1): from moment `t`
    /// onward, `member` reports to `new_parent` (until any later change).
    ///
    /// `new_parent` must be a non-leaf member and must not be `member`
    /// itself or one of its descendants.
    pub fn reclassify(
        &mut self,
        dim: &Dimension,
        member: MemberId,
        new_parent: MemberId,
        t: Moment,
    ) -> Result<()> {
        self.check_moment(t)?;
        self.check_parent(dim, member, new_parent)?;
        let tl = self.timeline_mut(dim, member);
        for slot in tl.iter_mut().skip(t as usize) {
            *slot = Some(new_parent);
        }
        self.dirty = true;
        Ok(())
    }

    /// Assigns `member`'s parent at an explicit set of moments — the
    /// unordered-parameter form (e.g. "Joe is a child of FTE in
    /// {NY, MA, CA} and of PTE elsewhere").
    pub fn set_parent_at(
        &mut self,
        dim: &Dimension,
        member: MemberId,
        parent: MemberId,
        at: impl IntoIterator<Item = Moment>,
    ) -> Result<()> {
        self.check_parent(dim, member, parent)?;
        let moments = self.moments;
        let tl = self.timeline_mut(dim, member);
        for t in at {
            if t >= moments {
                return Err(ModelError::MomentOutOfRange {
                    moment: t,
                    len: moments,
                });
            }
            tl[t as usize] = Some(parent);
        }
        self.dirty = true;
        Ok(())
    }

    /// Declares `member` to have *no* valid classification at the given
    /// moments (Fig. 2's "possible vacation": every cell ⊥).
    pub fn clear_at(
        &mut self,
        dim: &Dimension,
        member: MemberId,
        at: impl IntoIterator<Item = Moment>,
    ) -> Result<()> {
        let moments = self.moments;
        let tl = self.timeline_mut(dim, member);
        for t in at {
            if t >= moments {
                return Err(ModelError::MomentOutOfRange {
                    moment: t,
                    len: moments,
                });
            }
            tl[t as usize] = None;
        }
        self.dirty = true;
        Ok(())
    }

    fn check_parent(&self, dim: &Dimension, member: MemberId, parent: MemberId) -> Result<()> {
        dim.try_member(member)?;
        dim.try_member(parent)?;
        if dim.is_leaf(parent) && parent != MemberId::ROOT {
            return Err(ModelError::ParentMustBeNonLeaf {
                dim: dim.name().to_string(),
                member: dim.member_name(parent).to_string(),
            });
        }
        if parent == member || dim.is_ancestor(member, parent) {
            return Err(ModelError::CyclicHierarchy {
                dim: dim.name().to_string(),
                member: dim.member_name(member).to_string(),
            });
        }
        Ok(())
    }

    /// The parent of `member` at moment `t` (explicit timeline, falling
    /// back to the static hierarchy), or `None` when meaningless.
    pub fn parent_at(&self, dim: &Dimension, member: MemberId, t: Moment) -> Option<MemberId> {
        match self.timelines.get(&member) {
            Some(tl) => tl.get(t as usize).copied().flatten(),
            None => dim.parent(member),
        }
    }

    /// The effective root-to-leaf path of `leaf` at moment `t`, top-down
    /// below the root (ending at the direct parent). `None` when the leaf
    /// or any ancestor is unclassified at `t`.
    pub fn path_at(&self, dim: &Dimension, leaf: MemberId, t: Moment) -> Option<Vec<MemberId>> {
        let mut path = Vec::new();
        let mut cur = leaf;
        loop {
            let p = self.parent_at(dim, cur, t)?;
            if p == MemberId::ROOT {
                path.reverse();
                return Some(path);
            }
            path.push(p);
            // Defensive bound: a timeline cycle would loop forever.
            if path.len() > dim.member_count() {
                return None;
            }
            cur = p;
        }
    }

    /// Recomputes the instance table from the timelines.
    ///
    /// Instances are numbered per leaf in order of first valid moment, and
    /// leaves in leaf-ordinal order, so a member's instances are contiguous
    /// along the axis.
    pub fn rebuild(&mut self, dim: &Dimension) {
        self.instances.clear();
        self.by_member.clear();
        // If any non-leaf member has a timeline, every leaf's path can
        // change; otherwise only leaves with their own timelines can.
        let nonleaf_changed = self
            .timelines
            .keys()
            .any(|&m| !dim.is_leaf(m) || m == MemberId::ROOT);
        for &leaf in dim.leaves() {
            let affected = nonleaf_changed || self.timelines.contains_key(&leaf);
            if !affected {
                // Fast path: single instance along the static path, valid
                // everywhere.
                let mut path = dim.ancestors(leaf);
                path.pop(); // drop the root
                path.reverse();
                self.push_instance(leaf, path, ValiditySet::all(self.moments));
                continue;
            }
            // Group moments by effective path, preserving first-seen order.
            let mut paths: Vec<(Vec<MemberId>, ValiditySet)> = Vec::new();
            for t in 0..self.moments {
                if let Some(p) = self.path_at(dim, leaf, t) {
                    match paths.iter_mut().find(|(q, _)| *q == p) {
                        Some((_, vs)) => vs.add(t),
                        None => {
                            let mut vs = ValiditySet::empty(self.moments);
                            vs.add(t);
                            paths.push((p, vs));
                        }
                    }
                }
            }
            for (path, vs) in paths {
                self.push_instance(leaf, path, vs);
            }
        }
        self.dirty = false;
    }

    fn push_instance(&mut self, member: MemberId, path: Vec<MemberId>, validity: ValiditySet) {
        let id = InstanceId(self.instances.len() as u32);
        self.instances.push(InstanceNode {
            member,
            path,
            validity,
        });
        self.by_member.entry(member).or_default().push(id);
    }

    #[inline]
    fn assert_clean(&self) {
        assert!(
            !self.dirty,
            "varying dimension mutated; call rebuild()/Schema::seal() before reading instances"
        );
    }

    /// All instances, in axis order.
    pub fn instances(&self) -> &[InstanceNode] {
        self.assert_clean();
        &self.instances
    }

    /// Number of instances — the length of this dimension's cube axis.
    pub fn instance_count(&self) -> u32 {
        self.assert_clean();
        self.instances.len() as u32
    }

    /// Borrow one instance.
    pub fn instance(&self, id: InstanceId) -> &InstanceNode {
        self.assert_clean();
        &self.instances[id.index()]
    }

    /// The instances of a leaf member, in first-valid order.
    pub fn instances_of(&self, member: MemberId) -> &[InstanceId] {
        self.assert_clean();
        self.by_member
            .get(&member)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The paper's `dₜ`: the unique instance of `member` valid at `t`.
    pub fn instance_at(&self, member: MemberId, t: Moment) -> Option<InstanceId> {
        self.assert_clean();
        self.instances_of(member)
            .iter()
            .copied()
            .find(|&i| self.instances[i.index()].validity.is_valid_at(t))
    }

    /// Members with more than one instance — the "changing" members the
    /// paper's experiments focus on.
    pub fn changing_members(&self) -> Vec<MemberId> {
        self.assert_clean();
        let mut out: Vec<MemberId> = self
            .by_member
            .iter()
            .filter(|(_, v)| v.len() > 1)
            .map(|(&m, _)| m)
            .collect();
        out.sort();
        out
    }

    /// Validates the Definition 3.1 invariant: instances of one member have
    /// pairwise-disjoint validity sets.
    pub fn validate(&self, dim: &Dimension) -> Result<()> {
        self.assert_clean();
        for (&member, ids) in &self.by_member {
            for (i, &a) in ids.iter().enumerate() {
                for &b in &ids[i + 1..] {
                    if self.instances[a.index()]
                        .validity
                        .intersects(&self.instances[b.index()].validity)
                    {
                        return Err(ModelError::OverlappingValidity {
                            dim: dim.name().to_string(),
                            member: dim.member_name(member).to_string(),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Display name of an instance, e.g. `"FTE/Joe"`.
    pub fn instance_name(&self, dim: &Dimension, id: InstanceId) -> String {
        let inst = self.instance(id);
        let mut segs: Vec<&str> = inst.path.iter().map(|&m| dim.member_name(m)).collect();
        segs.push(dim.member_name(inst.member));
        segs.join("/")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fig. 1/2: Organization with Joe who is FTE in Jan, PTE in Feb,
    /// Contractor Mar onward except May (vacation).
    fn setup() -> (Dimension, VaryingDimension) {
        let mut d = Dimension::new("Organization");
        let fte = d.add_child_of_root("FTE").unwrap();
        let joe = d.add_member("Joe", fte).unwrap();
        d.add_member("Lisa", fte).unwrap();
        let pte = d.add_child_of_root("PTE").unwrap();
        d.add_member("Tom", pte).unwrap();
        let contr = d.add_child_of_root("Contractor").unwrap();
        d.add_member("Jane", contr).unwrap();
        d.seal();
        let mut v = VaryingDimension::new(DimensionId(0), DimensionId(1), 6);
        v.reclassify(&d, joe, pte, 1).unwrap(); // Feb
        v.reclassify(&d, joe, contr, 2).unwrap(); // Mar onward
        v.clear_at(&d, joe, [4]).unwrap(); // May vacation
        v.rebuild(&d);
        (d, v)
    }

    #[test]
    fn joe_has_three_instances() {
        let (d, v) = setup();
        let joe = d.resolve("Joe").unwrap();
        let ids = v.instances_of(joe);
        assert_eq!(ids.len(), 3);
        let names: Vec<String> = ids.iter().map(|&i| v.instance_name(&d, i)).collect();
        assert_eq!(names, vec!["FTE/Joe", "PTE/Joe", "Contractor/Joe"]);
        assert_eq!(
            v.instance(ids[0]).validity.iter().collect::<Vec<_>>(),
            vec![0]
        );
        assert_eq!(
            v.instance(ids[1]).validity.iter().collect::<Vec<_>>(),
            vec![1]
        );
        // Mar, Apr, Jun — May is the vacation.
        assert_eq!(
            v.instance(ids[2]).validity.iter().collect::<Vec<_>>(),
            vec![2, 3, 5]
        );
    }

    #[test]
    fn unchanged_members_have_one_full_instance() {
        let (d, v) = setup();
        let lisa = d.resolve("Lisa").unwrap();
        let ids = v.instances_of(lisa);
        assert_eq!(ids.len(), 1);
        assert_eq!(v.instance(ids[0]).validity.len(), 6);
    }

    #[test]
    fn instance_at_resolves_the_valid_one() {
        let (d, v) = setup();
        let joe = d.resolve("Joe").unwrap();
        let ids = v.instances_of(joe);
        assert_eq!(v.instance_at(joe, 0), Some(ids[0]));
        assert_eq!(v.instance_at(joe, 1), Some(ids[1]));
        assert_eq!(v.instance_at(joe, 3), Some(ids[2]));
        assert_eq!(v.instance_at(joe, 4), None); // vacation
    }

    #[test]
    fn reacquiring_parent_reuses_instance() {
        // Def. 3.1: Joe FTE→PTE in Mar, back to FTE in Jun ⇒ two instances,
        // VS(FTE/Joe) = {Jan..Feb} ∪ {Jun..}, VS(PTE/Joe) = {Mar, Apr, May}.
        let mut d = Dimension::new("Org");
        let fte = d.add_child_of_root("FTE").unwrap();
        let joe = d.add_member("Joe", fte).unwrap();
        let pte = d.add_child_of_root("PTE").unwrap();
        d.add_member("Tom", pte).unwrap();
        d.seal();
        let mut v = VaryingDimension::new(DimensionId(0), DimensionId(1), 8);
        v.reclassify(&d, joe, pte, 2).unwrap();
        v.reclassify(&d, joe, fte, 5).unwrap();
        v.rebuild(&d);
        let ids = v.instances_of(joe);
        assert_eq!(ids.len(), 2);
        assert_eq!(
            v.instance(ids[0]).validity.iter().collect::<Vec<_>>(),
            vec![0, 1, 5, 6, 7]
        );
        assert_eq!(
            v.instance(ids[1]).validity.iter().collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
    }

    #[test]
    fn validity_sets_disjoint_invariant() {
        let (d, v) = setup();
        v.validate(&d).unwrap();
    }

    #[test]
    fn changing_members_listed() {
        let (d, v) = setup();
        let joe = d.resolve("Joe").unwrap();
        assert_eq!(v.changing_members(), vec![joe]);
    }

    #[test]
    fn reclassify_rejects_leaf_parent() {
        let (d, mut v) = setup();
        let joe = d.resolve("Joe").unwrap();
        let tom = d.resolve("Tom").unwrap();
        assert!(matches!(
            v.reclassify(&d, joe, tom, 0),
            Err(ModelError::ParentMustBeNonLeaf { .. })
        ));
    }

    #[test]
    fn reclassify_rejects_cycle() {
        let (d, mut v) = setup();
        let fte = d.resolve("FTE").unwrap();
        assert!(matches!(
            v.reclassify(&d, fte, fte, 0),
            Err(ModelError::CyclicHierarchy { .. })
        ));
    }

    #[test]
    fn moment_bounds_checked() {
        let (d, mut v) = setup();
        let joe = d.resolve("Joe").unwrap();
        let contr = d.resolve("Contractor").unwrap();
        assert!(matches!(
            v.reclassify(&d, joe, contr, 6),
            Err(ModelError::MomentOutOfRange { .. })
        ));
    }

    #[test]
    fn nonleaf_reclassification_changes_leaf_paths() {
        // Moving a whole department changes every employee's root-to-leaf
        // path (the paper: "a change to the structure of any member of D
        // induces a change for D's leaf level members").
        let mut d = Dimension::new("Org");
        let east = d.add_child_of_root("East").unwrap();
        let west = d.add_child_of_root("West").unwrap();
        let sales = d.add_member("Sales", east).unwrap();
        let joe = d.add_member("Joe", sales).unwrap();
        d.add_member("Marketing", west).unwrap(); // keep West non-leaf
        d.seal();
        let mut v = VaryingDimension::new(DimensionId(0), DimensionId(1), 4);
        v.reclassify(&d, sales, west, 2).unwrap();
        v.rebuild(&d);
        let ids = v.instances_of(joe);
        assert_eq!(ids.len(), 2);
        assert_eq!(v.instance_name(&d, ids[0]), "East/Sales/Joe");
        assert_eq!(v.instance_name(&d, ids[1]), "West/Sales/Joe");
        assert_eq!(
            v.instance(ids[1]).validity.iter().collect::<Vec<_>>(),
            vec![2, 3]
        );
    }

    #[test]
    #[should_panic(expected = "rebuild")]
    fn reading_dirty_instances_panics() {
        let (d, mut v) = setup();
        let joe = d.resolve("Joe").unwrap();
        let fte = d.resolve("FTE").unwrap();
        v.reclassify(&d, joe, fte, 5).unwrap();
        let _ = v.instances();
    }
}
