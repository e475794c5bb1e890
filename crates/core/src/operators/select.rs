//! σ — the selection operator (Definition 4.1, Section 4.1).
//!
//! Selection prunes the active members (instances) of one dimension by a
//! predicate; the output is the input cube with the sub-cubes of
//! non-matching slots removed (made ⊥). Predicates cover the paper's
//! examples: member equality, hierarchy descent, validity-set
//! intersection (`σ_{Product.VS ∩ {Feb, Apr} ≠ ∅}`), and value thresholds
//! (`σ_{Location=NY ∧ Time=Jan ∧ Measure=Sales ∧ Value>1000}`).

use crate::error::WhatIfError;
use crate::operators::stage::Stager;
use crate::Result;
use olap_cube::{CellEvaluator, Cube, Sel};
use olap_model::{AxisSlot, DimensionId, MemberId, Moment};

/// Comparison operators for value predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `=`
    Eq,
    /// `≠`
    Ne,
}

impl CmpOp {
    fn test(self, x: f64, y: f64) -> bool {
        match self {
            CmpOp::Gt => x > y,
            CmpOp::Ge => x >= y,
            CmpOp::Lt => x < y,
            CmpOp::Le => x <= y,
            CmpOp::Eq => x == y,
            CmpOp::Ne => x != y,
        }
    }
}

/// A predicate over the slots (members / member instances) of one
/// dimension.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Always true (keep everything).
    True,
    /// The slot's leaf member is exactly `m` (covers every instance of a
    /// varying-dimension member: `σ_{Product = TV}`).
    MemberIs(MemberId),
    /// The slot rolls up into `m` (`σ_{Product descendant-of AudioVideo}`),
    /// inclusive of `m` itself.
    Under(MemberId),
    /// Varying dimensions only: the instance's validity set intersects the
    /// given moments (`σ_{Product.VS ∩ {Feb, Apr} ≠ ∅}`).
    VsIntersects(Vec<Moment>),
    /// Varying dimensions only: the slot's member has more than one
    /// instance — the paper's "changing" members (its experiments select
    /// "employees who reported into more than one department").
    Changing,
    /// The value of the cell obtained by fixing the listed dimensions to
    /// the listed members (everything else rolled up to the root)
    /// satisfies the comparison. ⊥ never satisfies.
    ValueCmp {
        /// Fixed coordinates on other dimensions.
        fixed: Vec<(DimensionId, MemberId)>,
        /// The comparison.
        op: CmpOp,
        /// The threshold.
        threshold: f64,
    },
    /// Conjunction.
    And(Box<Predicate>, Box<Predicate>),
    /// Disjunction.
    Or(Box<Predicate>, Box<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// `self ∧ rhs`.
    pub fn and(self, rhs: Predicate) -> Predicate {
        Predicate::And(Box::new(self), Box::new(rhs))
    }

    /// `¬self`.
    pub fn negate(self) -> Predicate {
        Predicate::Not(Box::new(self))
    }
}

/// Evaluates the predicate for one slot of `dim`.
pub fn slot_matches(cube: &Cube, dim: DimensionId, slot: u32, pred: &Predicate) -> Result<bool> {
    let schema = cube.schema();
    Ok(match pred {
        Predicate::True => true,
        Predicate::MemberIs(m) => schema.slot_member(dim, AxisSlot(slot)) == *m,
        Predicate::Under(m) => {
            let leaf = schema.slot_member(dim, AxisSlot(slot));
            leaf == *m || schema.slot_ancestors(dim, AxisSlot(slot)).contains(m)
        }
        Predicate::VsIntersects(moments) => {
            let varying = schema
                .varying(dim)
                .ok_or_else(|| WhatIfError::NotVarying(schema.dim(dim).name().to_string()))?;
            let vs = &varying.instance(olap_model::InstanceId(slot)).validity;
            moments.iter().any(|&t| vs.is_valid_at(t))
        }
        Predicate::Changing => {
            let varying = schema
                .varying(dim)
                .ok_or_else(|| WhatIfError::NotVarying(schema.dim(dim).name().to_string()))?;
            let member = varying.instance(olap_model::InstanceId(slot)).member;
            varying.instances_of(member).len() > 1
        }
        Predicate::ValueCmp {
            fixed,
            op,
            threshold,
        } => {
            let mut sels: Vec<Sel> = (0..schema.dim_count())
                .map(|_| Sel::Member(MemberId::ROOT))
                .collect();
            for &(d, m) in fixed {
                sels[d.index()] = Sel::Member(m);
            }
            sels[dim.index()] = Sel::Slot(slot);
            let v = CellEvaluator::new(cube).value(&sels)?;
            match v.as_f64() {
                Some(x) => op.test(x, *threshold),
                None => false,
            }
        }
        Predicate::And(a, b) => {
            slot_matches(cube, dim, slot, a)? && slot_matches(cube, dim, slot, b)?
        }
        Predicate::Or(a, b) => {
            slot_matches(cube, dim, slot, a)? || slot_matches(cube, dim, slot, b)?
        }
        Predicate::Not(a) => !slot_matches(cube, dim, slot, a)?,
    })
}

/// The slots of `dim` satisfying the predicate, ascending.
pub fn matching_slots(cube: &Cube, dim: DimensionId, pred: &Predicate) -> Result<Vec<u32>> {
    let len = cube.schema().axis_len(dim);
    let mut out = Vec::new();
    for s in 0..len {
        if slot_matches(cube, dim, s, pred)? {
            out.push(s);
        }
    }
    Ok(out)
}

/// σₚ(Cin): the cube with non-matching slots' sub-cubes removed.
pub fn select(cube: &Cube, dim: DimensionId, pred: &Predicate) -> Result<Cube> {
    let keep = matching_slots(cube, dim, pred)?;
    let keep_set: Vec<bool> = {
        let len = cube.schema().axis_len(dim) as usize;
        let mut v = vec![false; len];
        for &s in &keep {
            v[s as usize] = true;
        }
        v
    };
    let vd = dim.index();
    let out = cube.empty_like();
    let mut stager = Stager::new(cube.geometry());
    cube.for_each_present(|cell, v| {
        if keep_set[cell[vd] as usize] {
            stager.set(cell, v);
        }
    })?;
    stager.flush_into(&out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use olap_model::{DimensionSpec, SchemaBuilder};
    use std::sync::Arc;

    /// Products {AudioVideo: TV, Radio; Print: Book} × 4 moments; the
    /// Product dimension varies over Time (TV moves to Print at t=2).
    fn fixture() -> (Cube, DimensionId) {
        let schema = Arc::new(
            SchemaBuilder::new()
                .dimension(
                    DimensionSpec::new("Product")
                        .tree(&[("AudioVideo", &["TV", "Radio"][..]), ("Print", &["Book"])]),
                )
                .dimension(
                    DimensionSpec::new("Time")
                        .ordered()
                        .leaves(&["t0", "t1", "t2", "t3"]),
                )
                .varying("Product", "Time")
                .reclassify("Product", "TV", "Print", "t2")
                .build()
                .unwrap(),
        );
        let prod = schema.resolve_dimension("Product").unwrap();
        // Instances: 0 AudioVideo/TV {0,1}, 1 Print/TV {2,3},
        // 2 AudioVideo/Radio {all}, 3 Print/Book {all}.
        let mut b = Cube::builder(Arc::clone(&schema), vec![2, 2]).unwrap();
        let varying = schema.varying(prod).unwrap();
        for (i, inst) in varying.instances().iter().enumerate() {
            for t in inst.validity.iter() {
                b.set_num(&[i as u32, t], (i as f64 + 1.0) * 100.0 + t as f64)
                    .unwrap();
            }
        }
        (b.finish().unwrap(), prod)
    }

    #[test]
    fn member_is_keeps_all_instances() {
        let (cube, prod) = fixture();
        let tv = cube.schema().dim(prod).resolve("TV").unwrap();
        let slots = matching_slots(&cube, prod, &Predicate::MemberIs(tv)).unwrap();
        assert_eq!(slots, vec![0, 1]); // both TV instances
    }

    #[test]
    fn under_follows_instance_paths() {
        let (cube, prod) = fixture();
        let print = cube.schema().dim(prod).resolve("Print").unwrap();
        let slots = matching_slots(&cube, prod, &Predicate::Under(print)).unwrap();
        // Print/TV and Print/Book.
        assert_eq!(slots, vec![1, 3]);
    }

    #[test]
    fn vs_intersects_selects_by_validity() {
        let (cube, prod) = fixture();
        let slots = matching_slots(&cube, prod, &Predicate::VsIntersects(vec![0])).unwrap();
        // Valid at t0: AudioVideo/TV, Radio, Book.
        assert_eq!(slots, vec![0, 2, 3]);
    }

    #[test]
    fn changing_selects_multi_instance_members() {
        let (cube, prod) = fixture();
        let slots = matching_slots(&cube, prod, &Predicate::Changing).unwrap();
        assert_eq!(slots, vec![0, 1]); // TV's two instances
    }

    #[test]
    fn value_cmp_thresholds() {
        let (cube, prod) = fixture();
        let time = cube.schema().resolve_dimension("Time").unwrap();
        let t0 = cube.schema().dim(time).resolve("t0").unwrap();
        // Values at t0: slot0=100, slot2=300, slot3=400.
        let pred = Predicate::ValueCmp {
            fixed: vec![(time, t0)],
            op: CmpOp::Gt,
            threshold: 250.0,
        };
        let slots = matching_slots(&cube, prod, &pred).unwrap();
        assert_eq!(slots, vec![2, 3]);
        // ⊥ (slot 1 has no t0 value) never matches, even with Ne.
        let pred = Predicate::ValueCmp {
            fixed: vec![(time, t0)],
            op: CmpOp::Ne,
            threshold: -1.0,
        };
        let slots = matching_slots(&cube, prod, &pred).unwrap();
        assert!(!slots.contains(&1));
    }

    #[test]
    fn boolean_combinators() {
        let (cube, prod) = fixture();
        let tv = cube.schema().dim(prod).resolve("TV").unwrap();
        let pred = Predicate::MemberIs(tv).and(Predicate::VsIntersects(vec![2]));
        let slots = matching_slots(&cube, prod, &pred).unwrap();
        assert_eq!(slots, vec![1]); // Print/TV only
        let pred = Predicate::MemberIs(tv).negate();
        let slots = matching_slots(&cube, prod, &pred).unwrap();
        assert_eq!(slots, vec![2, 3]);
    }

    #[test]
    fn select_removes_subcubes() {
        let (cube, prod) = fixture();
        let tv = cube.schema().dim(prod).resolve("TV").unwrap();
        let out = select(&cube, prod, &Predicate::MemberIs(tv)).unwrap();
        // Kept: TV instances (slots 0 and 1): 100, 101, 202, 203.
        assert_eq!(out.total_sum().unwrap(), 100.0 + 101.0 + 202.0 + 203.0);
        assert_eq!(out.get(&[2, 0]).unwrap(), olap_store::CellValue::Null);
        assert_eq!(out.get(&[0, 0]).unwrap(), olap_store::CellValue::Num(100.0));
    }

    #[test]
    fn select_true_is_identity() {
        let (cube, prod) = fixture();
        let out = select(&cube, prod, &Predicate::True).unwrap();
        assert!(out.same_cells(&cube).unwrap());
    }
}
