//! Name resolution: member expressions → axis atoms against a schema.

use crate::ast::{DescFlag, MemberExpr};
use crate::error::MdxError;
use crate::Result;
use olap_cube::Sel;
use olap_model::{DimensionId, InstanceId, MemberId, Moment, Schema};
use std::collections::HashMap;

/// One resolved coordinate: a dimension plus a selector, with a display
/// label.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Atom {
    /// The dimension the selector addresses.
    pub dim: DimensionId,
    /// The selector (slot for leaf members / pinned instances, member for
    /// rollups).
    pub sel: Sel,
    /// Human-readable label for grid headers.
    pub label: String,
}

/// A point on an axis: one atom per mentioned dimension.
pub type Tuple = Vec<Atom>;

/// Named sets: pre-resolved atom lists registered on the context.
pub type NamedSets = HashMap<String, Vec<Atom>>;

/// Resolves member expressions against a schema.
pub struct Resolver<'a> {
    schema: &'a Schema,
    named_sets: &'a NamedSets,
}

impl<'a> Resolver<'a> {
    /// A resolver over a schema and named-set registry.
    pub fn new(schema: &'a Schema, named_sets: &'a NamedSets) -> Self {
        Resolver { schema, named_sets }
    }

    /// Builds an atom for a member of a dimension, choosing the cheapest
    /// faithful selector.
    pub fn atom_for_member(&self, dim: DimensionId, m: MemberId) -> Atom {
        let d = self.schema.dim(dim);
        let label = d.member_name(m).to_string();
        if d.is_leaf(m) && !self.schema.is_varying(dim) {
            if let Some(ord) = d.leaf_ordinal(m) {
                return Atom {
                    dim,
                    sel: Sel::Slot(ord),
                    label,
                };
            }
        }
        Atom {
            dim,
            sel: Sel::Member(m),
            label,
        }
    }

    fn atom_for_instance(&self, dim: DimensionId, inst: InstanceId) -> Atom {
        let v = self.schema.varying(dim).expect("instance implies varying");
        Atom {
            dim,
            sel: Sel::Slot(inst.0),
            label: v.instance_name(self.schema.dim(dim), inst),
        }
    }

    /// Resolves a dotted path. Resolution order:
    /// 1. first segment names a dimension → walk the rest inside it
    ///    (pinning a varying-dimension *instance* when the path spells out
    ///    a parent chain, e.g. `Organization.[FTE].[Joe]`);
    /// 2. single segment naming a registered named set;
    /// 3. otherwise, search every dimension for the path.
    pub fn path(&self, segs: &[String]) -> Result<Vec<Atom>> {
        if segs.is_empty() {
            return Err(MdxError::Unresolved("<empty path>".into()));
        }
        if segs.len() == 1 {
            if let Some(atoms) = self.named_sets.get(&segs[0]) {
                return Ok(atoms.clone());
            }
        }
        if let Some(dim) = self.schema.find_dimension(&segs[0]) {
            if segs.len() == 1 {
                // The dimension itself ⇒ its root member (grand total).
                return Ok(vec![Atom {
                    dim,
                    sel: Sel::Member(MemberId::ROOT),
                    label: segs[0].clone(),
                }]);
            }
            return self.path_in_dim(dim, &segs[1..]).map(|a| vec![a]);
        }
        // Search all dimensions.
        for dim in self.schema.dim_ids() {
            if let Ok(a) = self.path_in_dim(dim, segs) {
                return Ok(vec![a]);
            }
        }
        Err(MdxError::Unresolved(segs.join(".")))
    }

    /// Resolves a path (without the dimension prefix) inside one
    /// dimension.
    fn path_in_dim(&self, dim: DimensionId, segs: &[String]) -> Result<Atom> {
        let d = self.schema.dim(dim);
        // Try a rooted parent-chain walk first.
        let mut cur = MemberId::ROOT;
        let mut chain_ok = true;
        for seg in segs {
            match d.find_under(cur, seg) {
                Some(next) => cur = next,
                None => {
                    chain_ok = false;
                    break;
                }
            }
        }
        if chain_ok {
            // Exact chain: for varying dims with a multi-segment chain to a
            // leaf, pin the instance with that path.
            if segs.len() > 1 && d.is_leaf(cur) {
                if let Some(v) = self.schema.varying(dim) {
                    let want: Vec<MemberId> = {
                        // Re-walk to collect the chain above the leaf.
                        let mut path = Vec::new();
                        let mut c = MemberId::ROOT;
                        for seg in &segs[..segs.len() - 1] {
                            c = d.find_under(c, seg).expect("walk succeeded");
                            path.push(c);
                        }
                        path
                    };
                    for &inst in v.instances_of(cur) {
                        if v.instance(inst).path == want {
                            return Ok(self.atom_for_instance(dim, inst));
                        }
                    }
                    return Err(MdxError::Unresolved(format!(
                        "{} has no instance {}",
                        d.member_name(cur),
                        segs.join("/")
                    )));
                }
            }
            return Ok(self.atom_for_member(dim, cur));
        }
        // Fallback: a single segment may name any member in the dimension.
        if segs.len() == 1 {
            if let Some(m) = d.find(&segs[0]) {
                return Ok(self.atom_for_member(dim, m));
            }
        }
        // Varying dimensions: the path may spell out a *reclassified*
        // instance (e.g. `Organization.PTE.Joe` after Joe moved to PTE),
        // which the static hierarchy doesn't contain. Match the segments
        // against instance paths by member name.
        if segs.len() > 1 {
            if let Some(v) = self.schema.varying(dim) {
                let leaf = d.find(segs.last().expect("non-empty"));
                let want: Option<Vec<MemberId>> =
                    segs[..segs.len() - 1].iter().map(|s| d.find(s)).collect();
                if let (Some(leaf), Some(want)) = (leaf, want) {
                    for &inst in v.instances_of(leaf) {
                        if v.instance(inst).path == want {
                            return Ok(self.atom_for_instance(dim, inst));
                        }
                    }
                }
            }
        }
        Err(MdxError::Unresolved(format!(
            "{}.{}",
            d.name(),
            segs.join(".")
        )))
    }

    /// Resolves a member expression to its atom set.
    pub fn member_set(&self, expr: &MemberExpr) -> Result<Vec<Atom>> {
        match expr {
            MemberExpr::Path(segs) => self.path(segs),
            MemberExpr::Children(inner) => {
                // Named-set accommodation: `[Set1].Children` yields the
                // set's contents (the Essbase idiom of Fig. 10).
                if let MemberExpr::Path(segs) = &**inner {
                    if segs.len() == 1 {
                        if let Some(atoms) = self.named_sets.get(&segs[0]) {
                            return Ok(atoms.clone());
                        }
                    }
                }
                let parents = self.member_set(inner)?;
                let mut out = Vec::new();
                for p in parents {
                    let m = match p.sel {
                        Sel::Member(m) => m,
                        Sel::Slot(s) => self.schema.slot_member(p.dim, olap_model::AxisSlot(s)),
                    };
                    for &c in self.schema.dim(p.dim).children(m) {
                        out.push(self.atom_for_member(p.dim, c));
                    }
                }
                Ok(out)
            }
            MemberExpr::Members(inner) => {
                // `<dim>.<level names…>.MEMBERS`: the segment count after
                // the dimension name gives the level depth.
                let segs = match &**inner {
                    MemberExpr::Path(segs) => segs,
                    other => {
                        return Err(MdxError::Semantic(format!(
                            "MEMBERS expects a level path, got {other}"
                        )))
                    }
                };
                let dim = self
                    .schema
                    .find_dimension(&segs[0])
                    .ok_or_else(|| MdxError::Unresolved(segs.join(".")))?;
                let level = (segs.len() - 1) as u32;
                if level == 0 {
                    // `<dim>.MEMBERS`: every member of the dimension except
                    // the root.
                    let d = self.schema.dim(dim);
                    return Ok(d
                        .descendants(MemberId::ROOT)
                        .into_iter()
                        .map(|m| self.atom_for_member(dim, m))
                        .collect());
                }
                Ok(self
                    .schema
                    .dim(dim)
                    .members_at_level(level)
                    .into_iter()
                    .map(|m| self.atom_for_member(dim, m))
                    .collect())
            }
            MemberExpr::LevelsMembers(inner, n) => {
                let segs = match &**inner {
                    MemberExpr::Path(segs) if segs.len() == 1 => segs,
                    other => {
                        return Err(MdxError::Semantic(format!(
                            "Levels(n) expects a dimension name, got {other}"
                        )))
                    }
                };
                let dim = self
                    .schema
                    .find_dimension(&segs[0])
                    .ok_or_else(|| MdxError::Unresolved(segs[0].clone()))?;
                let d = self.schema.dim(dim);
                // Essbase convention: level 0 = leaves; level n = members
                // whose *height* (longest path to a leaf) is n.
                let mut heights: Vec<u32> = vec![0; d.member_count()];
                // Compute heights bottom-up: members in reverse insertion
                // order works because parents precede children.
                for m in d.member_ids().collect::<Vec<_>>().into_iter().rev() {
                    if let Some(p) = d.parent(m) {
                        let h = heights[m.index()] + 1;
                        if h > heights[p.index()] {
                            heights[p.index()] = h;
                        }
                    }
                }
                Ok(d.member_ids()
                    .filter(|&m| m != MemberId::ROOT && heights[m.index()] == *n)
                    .map(|m| self.atom_for_member(dim, m))
                    .collect())
            }
            MemberExpr::Descendants(inner, depth, flag) => {
                let bases = self.member_set(inner)?;
                let mut out = Vec::new();
                for b in bases {
                    let m = match b.sel {
                        Sel::Member(m) => m,
                        Sel::Slot(s) => self.schema.slot_member(b.dim, olap_model::AxisSlot(s)),
                    };
                    let d = self.schema.dim(b.dim);
                    let base_level = d.member(m).level;
                    for desc in d.descendants(m) {
                        let rel = d.member(desc).level - base_level;
                        let keep = match flag {
                            DescFlag::SelfOnly => rel == *depth,
                            DescFlag::SelfAndAfter => rel >= *depth,
                        };
                        if keep {
                            out.push(self.atom_for_member(b.dim, desc));
                        }
                    }
                }
                Ok(out)
            }
        }
    }

    /// Resolves an expression expected to denote exactly one member of a
    /// given dimension (change-relation entries, perspective moments).
    pub fn single_in_dim(&self, expr: &MemberExpr, dim: DimensionId) -> Result<MemberId> {
        let atoms = self.member_set(expr)?;
        let mut found = None;
        for a in atoms {
            if a.dim != dim {
                continue;
            }
            let m = match a.sel {
                Sel::Member(m) => m,
                Sel::Slot(s) => self.schema.slot_member(dim, olap_model::AxisSlot(s)),
            };
            if found.is_some() {
                return Err(MdxError::Semantic(format!("{expr} is not a single member")));
            }
            found = Some(m);
        }
        found.ok_or_else(|| MdxError::Unresolved(expr.to_string()))
    }

    /// Resolves an expression to a parameter-dimension moment.
    pub fn moment(&self, expr: &MemberExpr, param_dim: DimensionId) -> Result<Moment> {
        let m = self.single_in_dim(expr, param_dim)?;
        self.schema
            .moment_of(param_dim, m)
            .ok_or_else(|| MdxError::Semantic(format!("{expr} is not a leaf moment")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use olap_model::{DimensionSpec, SchemaBuilder};

    fn schema() -> Schema {
        SchemaBuilder::new()
            .dimension(
                DimensionSpec::new("Organization")
                    .tree(&[("FTE", &["Joe", "Lisa"][..]), ("PTE", &["Tom"])]),
            )
            .dimension(DimensionSpec::new("Time").ordered().tree(&[
                ("Q1", &["Jan", "Feb", "Mar"][..]),
                ("Q2", &["Apr", "May", "Jun"]),
            ]))
            .varying("Organization", "Time")
            .reclassify("Organization", "Joe", "PTE", "Feb")
            .build()
            .unwrap()
    }

    fn resolver_test(f: impl FnOnce(&Resolver<'_>, &Schema)) {
        let s = schema();
        let sets = NamedSets::new();
        let r = Resolver::new(&s, &sets);
        f(&r, &s);
    }

    #[test]
    fn dimension_prefixed_path() {
        resolver_test(|r, s| {
            let atoms = r.path(&["Time".into(), "Q1".into(), "Feb".into()]).unwrap();
            assert_eq!(atoms.len(), 1);
            let time = s.resolve_dimension("Time").unwrap();
            assert_eq!(atoms[0].dim, time);
            assert_eq!(atoms[0].sel, Sel::Slot(1)); // Feb is leaf ordinal 1
        });
    }

    #[test]
    fn instance_pinning_on_varying_dim() {
        resolver_test(|r, s| {
            let org = s.resolve_dimension("Organization").unwrap();
            // Organization.FTE.Joe pins the FTE/Joe instance (slot 0).
            let atoms = r
                .path(&["Organization".into(), "FTE".into(), "Joe".into()])
                .unwrap();
            assert_eq!(atoms[0].dim, org);
            assert_eq!(atoms[0].sel, Sel::Slot(0));
            assert_eq!(atoms[0].label, "FTE/Joe");
            // PTE/Joe is a different instance.
            let atoms = r
                .path(&["Organization".into(), "PTE".into(), "Joe".into()])
                .unwrap();
            assert_eq!(atoms[0].sel, Sel::Slot(1));
        });
    }

    #[test]
    fn bare_member_name_searches_dimensions() {
        resolver_test(|r, s| {
            let atoms = r.path(&["Lisa".into()]).unwrap();
            let org = s.resolve_dimension("Organization").unwrap();
            assert_eq!(atoms[0].dim, org);
            // Leaf of a varying dim without a pinned path ⇒ Member sel
            // (aggregates instances).
            let lisa = s.dim(org).resolve("Lisa").unwrap();
            assert_eq!(atoms[0].sel, Sel::Member(lisa));
        });
    }

    #[test]
    fn named_sets_and_children_idiom() {
        let s = schema();
        let org = s.resolve_dimension("Organization").unwrap();
        let mut sets = NamedSets::new();
        {
            let r = Resolver::new(&s, &sets);
            let joe_atoms = r.path(&["Joe".into()]).unwrap();
            sets.insert("Movers".into(), joe_atoms);
        }
        let r = Resolver::new(&s, &sets);
        let direct = r.member_set(&MemberExpr::name("Movers")).unwrap();
        assert_eq!(direct.len(), 1);
        assert_eq!(direct[0].dim, org);
        // The Fig. 10 idiom: [Movers].Children = the set's contents.
        let via_children = r
            .member_set(&MemberExpr::Children(Box::new(MemberExpr::name("Movers"))))
            .unwrap();
        assert_eq!(via_children, direct);
    }

    #[test]
    fn children_of_member() {
        resolver_test(|r, _| {
            let atoms = r
                .member_set(&MemberExpr::Children(Box::new(MemberExpr::Path(vec![
                    "Organization".into(),
                    "FTE".into(),
                ]))))
                .unwrap();
            let labels: Vec<&str> = atoms.iter().map(|a| a.label.as_str()).collect();
            assert_eq!(labels, vec!["Joe", "Lisa"]);
        });
    }

    #[test]
    fn level_members_by_path_depth() {
        resolver_test(|r, _| {
            // Time.Quarter.Month.MEMBERS — level 2 (months).
            let atoms = r
                .member_set(&MemberExpr::Members(Box::new(MemberExpr::Path(vec![
                    "Time".into(),
                    "Quarter".into(),
                    "Month".into(),
                ]))))
                .unwrap();
            assert_eq!(atoms.len(), 6);
            assert_eq!(atoms[0].label, "Jan");
        });
    }

    #[test]
    fn essbase_levels_zero_is_leaves() {
        resolver_test(|r, _| {
            let atoms = r
                .member_set(&MemberExpr::LevelsMembers(
                    Box::new(MemberExpr::name("Time")),
                    0,
                ))
                .unwrap();
            assert_eq!(atoms.len(), 6); // the months
            let atoms = r
                .member_set(&MemberExpr::LevelsMembers(
                    Box::new(MemberExpr::name("Time")),
                    1,
                ))
                .unwrap();
            assert_eq!(atoms.len(), 2); // the quarters
        });
    }

    #[test]
    fn descendants_with_flags() {
        resolver_test(|r, _| {
            let all = r
                .member_set(&MemberExpr::Descendants(
                    Box::new(MemberExpr::name("Time")),
                    1,
                    DescFlag::SelfAndAfter,
                ))
                .unwrap();
            assert_eq!(all.len(), 8); // 2 quarters + 6 months
            let exact = r
                .member_set(&MemberExpr::Descendants(
                    Box::new(MemberExpr::name("Time")),
                    2,
                    DescFlag::SelfOnly,
                ))
                .unwrap();
            assert_eq!(exact.len(), 6);
        });
    }

    #[test]
    fn moment_resolution() {
        resolver_test(|r, s| {
            let time = s.resolve_dimension("Time").unwrap();
            assert_eq!(r.moment(&MemberExpr::name("Apr"), time).unwrap(), 3);
            assert!(r.moment(&MemberExpr::name("Q1"), time).is_err());
        });
    }

    #[test]
    fn unresolved_reports_name() {
        resolver_test(|r, _| {
            let err = r.path(&["Nonexistent".into()]).unwrap_err();
            assert!(err.to_string().contains("Nonexistent"));
        });
    }
}
