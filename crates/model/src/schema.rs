//! The schema: a set of dimensions plus the varying-dimension registry,
//! and the mapping from dimensions to cube axes.

use crate::dimension::Dimension;
use crate::error::ModelError;
use crate::ids::{AxisSlot, DimensionId, InstanceId, MemberId, Moment};
use crate::varying::VaryingDimension;
use crate::Result;
use std::collections::HashMap;

/// A multidimensional schema.
///
/// Axes: every dimension contributes one cube axis. For an ordinary
/// dimension the axis slots are its leaf members (in leaf-ordinal order);
/// for a varying dimension the slots are its member *instances*. The cube
/// stores leaf cells over the cross product of all axes.
///
/// Construction protocol: build hierarchies → [`Schema::make_varying`] →
/// apply structural changes → [`Schema::seal`] → load data. `seal` is
/// idempotent and re-callable after further edits (but a cube built against
/// an earlier seal is invalidated by axis changes — operators that change
/// structure, like split, clone the schema instead of mutating it).
#[derive(Debug, Clone)]
pub struct Schema {
    dims: Vec<Dimension>,
    by_name: HashMap<String, DimensionId>,
    varying: Vec<VaryingDimension>,
    varying_of: HashMap<DimensionId, usize>,
}

impl Schema {
    /// An empty schema.
    pub fn new() -> Self {
        Schema {
            dims: Vec::new(),
            by_name: HashMap::new(),
            varying: Vec::new(),
            varying_of: HashMap::new(),
        }
    }

    /// Adds a dimension (with its implicit root member named after it).
    pub fn add_dimension(&mut self, name: &str) -> DimensionId {
        let id = DimensionId(self.dims.len() as u32);
        self.dims.push(Dimension::new(name));
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// Number of dimensions.
    pub fn dim_count(&self) -> usize {
        self.dims.len()
    }

    /// All dimension ids, in declaration order.
    pub fn dim_ids(&self) -> impl Iterator<Item = DimensionId> {
        (0..self.dims.len() as u32).map(DimensionId)
    }

    /// Borrow a dimension.
    pub fn dim(&self, id: DimensionId) -> &Dimension {
        &self.dims[id.index()]
    }

    /// Mutably borrow a dimension.
    pub fn dim_mut(&mut self, id: DimensionId) -> &mut Dimension {
        &mut self.dims[id.index()]
    }

    /// Checked dimension lookup.
    pub fn try_dim(&self, id: DimensionId) -> Result<&Dimension> {
        self.dims
            .get(id.index())
            .ok_or(ModelError::UnknownDimension(id))
    }

    /// Finds a dimension by name.
    pub fn find_dimension(&self, name: &str) -> Option<DimensionId> {
        self.by_name.get(name).copied()
    }

    /// Finds a dimension by name, erroring when absent.
    pub fn resolve_dimension(&self, name: &str) -> Result<DimensionId> {
        self.find_dimension(name)
            .ok_or_else(|| ModelError::UnknownDimensionName(name.to_string()))
    }

    /// Registers `varying` as a varying dimension driven by `parameter`
    /// (Definition 2.1). The parameter dimension's leaves must already be
    /// declared — their count sizes every validity set.
    pub fn make_varying(&mut self, varying: DimensionId, parameter: DimensionId) -> Result<()> {
        self.try_dim(varying)?;
        self.try_dim(parameter)?;
        if self.varying_of.contains_key(&varying) {
            return Err(ModelError::AlreadyVarying(
                self.dim(varying).name().to_string(),
            ));
        }
        self.dims[parameter.index()].seal();
        let moments = self.dims[parameter.index()].leaf_count();
        if moments == 0 {
            return Err(ModelError::EmptyParameterDimension(
                self.dim(parameter).name().to_string(),
            ));
        }
        self.varying_of.insert(varying, self.varying.len());
        self.varying
            .push(VaryingDimension::new(varying, parameter, moments));
        Ok(())
    }

    /// The varying-dimension metadata for `dim`, if registered.
    pub fn varying(&self, dim: DimensionId) -> Option<&VaryingDimension> {
        self.varying_of.get(&dim).map(|&i| &self.varying[i])
    }

    /// Checked varying lookup.
    pub fn try_varying(&self, dim: DimensionId) -> Result<&VaryingDimension> {
        self.varying(dim)
            .ok_or_else(|| ModelError::NotVarying(self.dim(dim).name().to_string()))
    }

    /// Is `dim` varying?
    pub fn is_varying(&self, dim: DimensionId) -> bool {
        self.varying_of.contains_key(&dim)
    }

    /// Applies a legal structural change (Definition 3.1) to a varying
    /// dimension: `member` reports to `new_parent` from moment `t` onward.
    pub fn reclassify(
        &mut self,
        dim: DimensionId,
        member: MemberId,
        new_parent: MemberId,
        t: Moment,
    ) -> Result<()> {
        let idx = *self
            .varying_of
            .get(&dim)
            .ok_or_else(|| ModelError::NotVarying(self.dim(dim).name().to_string()))?;
        let d = &self.dims[dim.index()];
        self.varying[idx].reclassify(d, member, new_parent, t)
    }

    /// Assigns a parent at explicit moments (unordered parameter form).
    pub fn set_parent_at(
        &mut self,
        dim: DimensionId,
        member: MemberId,
        parent: MemberId,
        at: impl IntoIterator<Item = Moment>,
    ) -> Result<()> {
        let idx = *self
            .varying_of
            .get(&dim)
            .ok_or_else(|| ModelError::NotVarying(self.dim(dim).name().to_string()))?;
        let d = &self.dims[dim.index()];
        self.varying[idx].set_parent_at(d, member, parent, at)
    }

    /// Declares a member meaningless at the given moments.
    pub fn clear_at(
        &mut self,
        dim: DimensionId,
        member: MemberId,
        at: impl IntoIterator<Item = Moment>,
    ) -> Result<()> {
        let idx = *self
            .varying_of
            .get(&dim)
            .ok_or_else(|| ModelError::NotVarying(self.dim(dim).name().to_string()))?;
        let d = &self.dims[dim.index()];
        self.varying[idx].clear_at(d, member, at)
    }

    /// Seals every dimension (computes leaf lists) and rebuilds every
    /// varying dimension's instance table. Must be called before axis
    /// queries or cube loading; idempotent.
    pub fn seal(&mut self) {
        for d in &mut self.dims {
            d.seal();
        }
        for i in 0..self.varying.len() {
            let dim_id = self.varying[i].varying_dim();
            // Split borrows: dims and varying are distinct fields.
            let d = &self.dims[dim_id.index()];
            self.varying[i].rebuild(d);
        }
    }

    /// Validates model invariants (instance disjointness for every varying
    /// dimension).
    pub fn validate(&self) -> Result<()> {
        for v in &self.varying {
            v.validate(self.dim(v.varying_dim()))?;
        }
        Ok(())
    }

    // ----- axis mapping ---------------------------------------------------

    /// Length of the cube axis contributed by `dim`: instance count for
    /// varying dimensions, leaf count otherwise.
    pub fn axis_len(&self, dim: DimensionId) -> u32 {
        match self.varying(dim) {
            Some(v) => v.instance_count(),
            None => self.dim(dim).leaf_count(),
        }
    }

    /// The leaf member behind an axis slot.
    pub fn slot_member(&self, dim: DimensionId, slot: AxisSlot) -> MemberId {
        match self.varying(dim) {
            Some(v) => v.instance(InstanceId(slot.0)).member,
            None => self.dim(dim).leaf_at(slot.0).expect("slot in range"),
        }
    }

    /// Ancestor chain of an axis slot, bottom-up, ending at the root.
    /// For varying dimensions this follows the *instance's* path, so
    /// `FTE/Joe` and `Contractor/Joe` roll up differently.
    pub fn slot_ancestors(&self, dim: DimensionId, slot: AxisSlot) -> Vec<MemberId> {
        match self.varying(dim) {
            Some(v) => {
                let inst = v.instance(InstanceId(slot.0));
                let mut out: Vec<MemberId> = inst.path.iter().rev().copied().collect();
                out.push(MemberId::ROOT);
                out
            }
            None => {
                let leaf = self.dim(dim).leaf_at(slot.0).expect("slot in range");
                self.dim(dim).ancestors(leaf)
            }
        }
    }

    /// All axis slots that roll up into `member` (inclusive when `member`
    /// is itself behind a slot). For varying dimensions a slot matches when
    /// the member is the instance's leaf **or** appears on its path.
    pub fn slots_under(&self, dim: DimensionId, member: MemberId) -> Vec<AxisSlot> {
        let n = self.axis_len(dim);
        if member == MemberId::ROOT {
            return (0..n).map(AxisSlot).collect();
        }
        match self.varying(dim) {
            Some(v) => {
                if self.dim(dim).is_leaf(member) {
                    // Fast path: a leaf member's slots are exactly its
                    // instances.
                    return v
                        .instances_of(member)
                        .iter()
                        .map(|i| AxisSlot(i.0))
                        .collect();
                }
                (0..n)
                    .map(AxisSlot)
                    .filter(|&s| {
                        let inst = v.instance(InstanceId(s.0));
                        inst.member == member || inst.path.contains(&member)
                    })
                    .collect()
            }
            None => {
                let d = self.dim(dim);
                if let Some(ord) = d.leaf_ordinal(member) {
                    return vec![AxisSlot(ord)];
                }
                (0..n)
                    .map(AxisSlot)
                    .filter(|&s| {
                        let leaf = d.leaf_at(s.0).expect("slot in range");
                        d.is_ancestor(member, leaf)
                    })
                    .collect()
            }
        }
    }

    /// Human-readable axis slot label (`"FTE/Joe"` or `"Jan"`).
    pub fn slot_label(&self, dim: DimensionId, slot: AxisSlot) -> String {
        match self.varying(dim) {
            Some(v) => v.instance_name(self.dim(dim), InstanceId(slot.0)),
            None => {
                let leaf = self.dim(dim).leaf_at(slot.0).expect("slot in range");
                self.dim(dim).member_name(leaf).to_string()
            }
        }
    }

    /// For a parameter dimension: the moment ordinal of a leaf member.
    pub fn moment_of(&self, dim: DimensionId, leaf: MemberId) -> Option<Moment> {
        self.dim(dim).leaf_ordinal(leaf)
    }

    /// Axis lengths of every dimension, in declaration order — the cube's
    /// logical shape.
    pub fn shape(&self) -> Vec<u32> {
        self.dim_ids().map(|d| self.axis_len(d)).collect()
    }
}

impl Default for Schema {
    fn default() -> Self {
        Schema::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> (Schema, DimensionId, DimensionId) {
        let mut s = Schema::new();
        let time = s.add_dimension("Time");
        for m in ["Jan", "Feb", "Mar", "Apr", "May", "Jun"] {
            s.dim_mut(time).add_child_of_root(m).unwrap();
        }
        s.dim_mut(time).set_ordered(true);
        let org = s.add_dimension("Organization");
        let fte = s.dim_mut(org).add_child_of_root("FTE").unwrap();
        let joe = s.dim_mut(org).add_member("Joe", fte).unwrap();
        s.dim_mut(org).add_member("Lisa", fte).unwrap();
        let pte = s.dim_mut(org).add_child_of_root("PTE").unwrap();
        s.dim_mut(org).add_member("Tom", pte).unwrap();
        s.make_varying(org, time).unwrap();
        s.reclassify(org, joe, pte, 2).unwrap();
        s.seal();
        (s, time, org)
    }

    #[test]
    fn axis_lengths() {
        let (s, time, org) = schema();
        assert_eq!(s.axis_len(time), 6);
        // Joe has 2 instances; Lisa and Tom 1 each.
        assert_eq!(s.axis_len(org), 4);
        assert_eq!(s.shape(), vec![6, 4]);
    }

    #[test]
    fn slot_labels_and_members() {
        let (s, _, org) = schema();
        let labels: Vec<String> = (0..s.axis_len(org))
            .map(|i| s.slot_label(org, AxisSlot(i)))
            .collect();
        assert_eq!(labels, vec!["FTE/Joe", "PTE/Joe", "FTE/Lisa", "PTE/Tom"]);
        let joe = s.dim(org).resolve("Joe").unwrap();
        assert_eq!(s.slot_member(org, AxisSlot(0)), joe);
        assert_eq!(s.slot_member(org, AxisSlot(1)), joe);
    }

    #[test]
    fn slots_under_rollup_member() {
        let (s, _, org) = schema();
        let fte = s.dim(org).resolve("FTE").unwrap();
        let pte = s.dim(org).resolve("PTE").unwrap();
        // FTE covers FTE/Joe and FTE/Lisa.
        assert_eq!(s.slots_under(org, fte), vec![AxisSlot(0), AxisSlot(2)]);
        // PTE covers PTE/Joe and PTE/Tom.
        assert_eq!(s.slots_under(org, pte), vec![AxisSlot(1), AxisSlot(3)]);
        // Root covers everything.
        assert_eq!(s.slots_under(org, MemberId::ROOT).len(), 4);
        // A leaf member covers all its instances.
        let joe = s.dim(org).resolve("Joe").unwrap();
        assert_eq!(s.slots_under(org, joe), vec![AxisSlot(0), AxisSlot(1)]);
    }

    #[test]
    fn slots_under_plain_dimension() {
        let (s, time, _) = schema();
        let jan = s.dim(time).resolve("Jan").unwrap();
        assert_eq!(s.slots_under(time, jan), vec![AxisSlot(0)]);
        assert_eq!(s.slots_under(time, MemberId::ROOT).len(), 6);
    }

    #[test]
    fn make_varying_requires_leaves() {
        let mut s = Schema::new();
        let a = s.add_dimension("A");
        let b = s.add_dimension("B");
        assert!(matches!(
            s.make_varying(a, b),
            Err(ModelError::EmptyParameterDimension(_))
        ));
    }

    #[test]
    fn double_varying_rejected() {
        let (mut s, time, org) = schema();
        assert!(matches!(
            s.make_varying(org, time),
            Err(ModelError::AlreadyVarying(_))
        ));
    }

    #[test]
    fn slot_ancestors_follow_instance_path() {
        let (s, _, org) = schema();
        let fte = s.dim(org).resolve("FTE").unwrap();
        let pte = s.dim(org).resolve("PTE").unwrap();
        assert_eq!(
            s.slot_ancestors(org, AxisSlot(0)),
            vec![fte, MemberId::ROOT]
        );
        assert_eq!(
            s.slot_ancestors(org, AxisSlot(1)),
            vec![pte, MemberId::ROOT]
        );
    }

    #[test]
    fn validate_passes_on_legal_changes() {
        let (s, _, _) = schema();
        s.validate().unwrap();
    }

    #[test]
    fn resolve_dimension_by_name() {
        let (s, time, org) = schema();
        assert_eq!(s.resolve_dimension("Time").unwrap(), time);
        assert_eq!(s.resolve_dimension("Organization").unwrap(), org);
        assert!(s.resolve_dimension("Nope").is_err());
    }
}
