//! ρ — the relocate operator (Definition 4.4).
//!
//! Given output validity sets (usually `Φ(VSin, P)`), relocate produces
//! the cube whose leaf cells are
//!
//! ```text
//! Cout(d, t, ē) = Cin(dₜ, t, ē)   if t ∈ VSout(d)
//!               = ⊥               otherwise
//! ```
//!
//! where `dₜ` is the instance of `d`'s member valid at `t` in the *input*.
//! This module states ρ as a [`DestMap`]: where each (instance, moment)
//! cell goes. The Section 5 executor ([`crate::execute`]) moves the cells
//! chunk by chunk along a plan's maps; ρ one cell at a time, by its
//! definition, is the test oracle's.

use crate::error::WhatIfError;
use crate::phi::VsMap;
use crate::Result;
use olap_cube::Cube;
use olap_model::{DimensionId, InstanceId};

/// What happens to one (source instance, moment) cell under a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellFate {
    /// The cell's value lands on this output instance.
    To(u32),
    /// The cell is dropped (its instance is inactive in the output).
    Drop,
    /// Not this pass's business — another pass of the same plan handles
    /// it (see [`crate::plan::decompose_passes`]).
    Skip,
}

/// For each input instance and moment, where its data goes in the output:
/// `dest[src][t]` is the output instance, or a drop/skip sentinel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DestMap {
    dest: Vec<u32>,
    moments: u32,
}

/// Sentinel for "the cell is dropped".
const NONE: u32 = u32::MAX;
/// Sentinel for "handled by another pass".
const SKIP: u32 = u32::MAX - 1;

impl DestMap {
    /// Builds the destination map from output validity sets.
    ///
    /// For every output instance `d` and `t ∈ VSout(d)`, the source is the
    /// input instance of `d`'s member valid at `t`; that (src, t) pair
    /// maps to `d`. Everything else is dropped. Because output validity
    /// sets of one member are disjoint, each (src, t) has at most one
    /// destination.
    pub fn build(cube: &Cube, dim: DimensionId, out_sets: &VsMap) -> Result<Self> {
        let schema = cube.schema();
        let varying = schema
            .varying(dim)
            .ok_or_else(|| WhatIfError::NotVarying(schema.dim(dim).name().to_string()))?;
        let n = varying.instance_count() as usize;
        assert_eq!(out_sets.len(), n, "one output validity set per instance");
        let moments = varying.moments();
        let mut dest = vec![NONE; n * moments as usize];
        for (i, vs) in out_sets.iter().enumerate() {
            let member = varying.instance(InstanceId(i as u32)).member;
            for t in vs.iter() {
                if let Some(src) = varying.instance_at(member, t) {
                    let idx = src.index() * moments as usize + t as usize;
                    debug_assert_eq!(
                        dest[idx], NONE,
                        "two output instances claim the same (src, t)"
                    );
                    dest[idx] = i as u32;
                }
            }
        }
        Ok(DestMap { dest, moments })
    }

    /// Wraps a raw destination table (`dest[src * moments + t]`, with
    /// `u32::MAX` meaning "dropped") — for tests and custom planners.
    pub fn from_raw(dest: Vec<u32>, moments: u32) -> Self {
        assert_eq!(dest.len() % moments.max(1) as usize, 0);
        DestMap { dest, moments }
    }

    /// The identity map (every cell stays put) — used by executors for
    /// uniform handling.
    pub fn identity(instance_count: u32, moments: u32) -> Self {
        let mut dest = vec![NONE; instance_count as usize * moments as usize];
        for i in 0..instance_count {
            for t in 0..moments {
                dest[i as usize * moments as usize + t as usize] = i;
            }
        }
        DestMap { dest, moments }
    }

    /// Where data of input instance `src` at moment `t` goes, if anywhere
    /// (`Skip` entries read as `None` too — use [`DestMap::fate`] when the
    /// distinction matters).
    #[inline]
    pub fn dest(&self, src: u32, t: u32) -> Option<u32> {
        let d = self.dest[src as usize * self.moments as usize + t as usize];
        (d != NONE && d != SKIP).then_some(d)
    }

    /// The full fate of a cell.
    #[inline]
    pub fn fate(&self, src: u32, t: u32) -> CellFate {
        match self.dest[src as usize * self.moments as usize + t as usize] {
            NONE => CellFate::Drop,
            SKIP => CellFate::Skip,
            d => CellFate::To(d),
        }
    }

    /// A copy in which every entry failing `keep(src, t)` becomes `Skip`
    /// — the building block of per-perspective / per-range passes.
    pub fn restrict(&self, keep: impl Fn(u32, u32) -> bool) -> DestMap {
        let m = self.moments as usize;
        let mut dest = self.dest.clone();
        for src in 0..(dest.len() / m.max(1)) {
            for t in 0..m {
                if !keep(src as u32, t as u32) {
                    dest[src * m + t] = SKIP;
                }
            }
        }
        DestMap {
            dest,
            moments: self.moments,
        }
    }

    /// Moments count.
    pub fn moments(&self) -> u32 {
        self.moments
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute, ExecOpts, OrderPolicy};
    use crate::perspective::Semantics;
    use crate::phi::phi;
    use crate::plan::Plan;
    use olap_model::{DimensionSpec, SchemaBuilder};
    use olap_store::CellValue;
    use std::sync::Arc;

    /// Org (varying over Time) × Time. Joe: FTE Jan, PTE Feb, Contractor
    /// Mar–Jun except May. Salary 10/month for every valid instance.
    fn fixture() -> (Cube, DimensionId) {
        let schema = Arc::new(
            SchemaBuilder::new()
                .dimension(DimensionSpec::new("Organization").tree(&[
                    ("FTE", &["Joe", "Lisa"][..]),
                    ("PTE", &["Tom"]),
                    ("Contractor", &["Jane"]),
                ]))
                .dimension(
                    DimensionSpec::new("Time")
                        .ordered()
                        .leaves(&["Jan", "Feb", "Mar", "Apr", "May", "Jun"]),
                )
                .varying("Organization", "Time")
                .reclassify("Organization", "Joe", "PTE", "Feb")
                .reclassify("Organization", "Joe", "Contractor", "Mar")
                .clear_at("Organization", "Joe", &["May"])
                .build()
                .unwrap(),
        );
        let org = schema.resolve_dimension("Organization").unwrap();
        let mut b = Cube::builder(Arc::clone(&schema), vec![2, 3]).unwrap();
        let varying = schema.varying(org).unwrap();
        for (i, inst) in varying.instances().iter().enumerate() {
            for t in inst.validity.iter() {
                b.set_num(&[i as u32, t], 10.0).unwrap();
            }
        }
        (b.finish().unwrap(), org)
    }

    /// ρ(Cin, VSout) on the product path: the executor runs one pass of
    /// the destination map.
    fn relocate(cube: &Cube, dim: DimensionId, out_sets: &VsMap) -> Result<Cube> {
        let map = DestMap::build(cube, dim, out_sets)?;
        let passes = vec![map.clone()];
        let plan = Plan::from_maps(cube, dim, map, passes, OrderPolicy::Pebbling, None)?;
        Ok(execute(cube, &plan, &ExecOpts::default())?.0)
    }

    #[test]
    fn forward_relocate_matches_paper_fig4_claim() {
        // P = {Feb, Apr}, forward: "leaf cell (PTE/Joe, Mar) has value
        // (instead of ⊥), inherited from (Contractor/Joe, Mar). Note
        // (PTE/Joe, Jan) remains ⊥."
        let (cube, org) = fixture();
        let varying = cube.schema().varying(org).unwrap();
        let out_sets = phi(Semantics::Forward, varying.instances(), &[1, 3], 6);
        let out = relocate(&cube, org, &out_sets).unwrap();
        // Instances: 0 FTE/Joe, 1 PTE/Joe, 2 Contractor/Joe, 3 Lisa, …
        assert_eq!(out.get(&[1, 2]).unwrap(), CellValue::Num(10.0)); // PTE/Joe Mar
        assert_eq!(out.get(&[1, 0]).unwrap(), CellValue::Null); // PTE/Joe Jan
        assert_eq!(out.get(&[1, 1]).unwrap(), CellValue::Num(10.0)); // own Feb
                                                                     // FTE/Joe dropped entirely.
        for t in 0..6 {
            assert_eq!(out.get(&[0, t]).unwrap(), CellValue::Null);
        }
        // Contractor/Joe owns [Apr, ∞) minus the May vacancy, plus its own
        // pre-Pmin history (none before Feb).
        assert_eq!(out.get(&[2, 3]).unwrap(), CellValue::Num(10.0));
        assert_eq!(out.get(&[2, 4]).unwrap(), CellValue::Null); // vacation
        assert_eq!(out.get(&[2, 5]).unwrap(), CellValue::Num(10.0));
        assert_eq!(out.get(&[2, 2]).unwrap(), CellValue::Null); // Mar moved to PTE/Joe
    }

    #[test]
    fn relocate_preserves_total_value() {
        // Forward semantics move cells between instances but never create
        // or destroy values at moments ≥ Pmin where an instance exists.
        let (cube, org) = fixture();
        let varying = cube.schema().varying(org).unwrap();
        let out_sets = phi(Semantics::Forward, varying.instances(), &[0], 6);
        let out = relocate(&cube, org, &out_sets).unwrap();
        // P = {Jan}: every member was valid at Jan except PTE/Joe &
        // Contractor/Joe (dropped — but their data moves into FTE/Joe).
        assert_eq!(out.total_sum().unwrap(), cube.total_sum().unwrap());
    }

    #[test]
    fn static_relocate_drops_inactive() {
        let (cube, org) = fixture();
        let varying = cube.schema().varying(org).unwrap();
        let out_sets = phi(Semantics::Static, varying.instances(), &[0], 6);
        let out = relocate(&cube, org, &out_sets).unwrap();
        // Joe contributes only FTE/Joe's Jan cell; others keep all 6.
        // Total: 10 (Joe) + 60 × 3 (Lisa, Tom, Jane).
        assert_eq!(out.total_sum().unwrap(), 10.0 + 180.0);
        assert_eq!(out.get(&[1, 1]).unwrap(), CellValue::Null); // PTE/Joe Feb gone
    }

    /// Whether instance `src` keeps every moment's data in place.
    fn is_full_identity_for(map: &DestMap, src: u32) -> bool {
        (0..map.moments()).all(|t| map.dest(src, t) == Some(src))
    }

    #[test]
    fn dest_map_identity() {
        let map = DestMap::identity(3, 4);
        for i in 0..3 {
            assert!(is_full_identity_for(&map, i));
            for t in 0..4 {
                assert_eq!(map.dest(i, t), Some(i));
            }
        }
    }

    #[test]
    fn dest_map_routes_moves() {
        let (cube, org) = fixture();
        let varying = cube.schema().varying(org).unwrap();
        let out_sets = phi(Semantics::Forward, varying.instances(), &[1], 6);
        let map = DestMap::build(&cube, org, &out_sets).unwrap();
        // P = {Feb}: PTE/Joe (inst 1) owns [Feb, ∞). Contractor/Joe's Mar
        // data (src inst 2, t 2) flows to inst 1.
        assert_eq!(map.dest(2, 2), Some(1));
        // FTE/Joe's Jan data is dropped (FTE/Joe not valid at Feb).
        assert_eq!(map.dest(0, 0), None);
        // Lisa (inst 3) keeps everything.
        assert!(is_full_identity_for(&map, 3));
        assert!(!is_full_identity_for(&map, 2));
    }

    #[test]
    fn relocate_rejects_non_varying_dim() {
        let (cube, _) = fixture();
        let time = cube.schema().resolve_dimension("Time").unwrap();
        let err = relocate(&cube, time, &Vec::new());
        assert!(matches!(err, Err(WhatIfError::NotVarying(_))));
    }
}
