//! S — the split operator for positive scenarios (Definition 4.5).
//!
//! Given the change relation `R(m, o, n, t)`, split clones each listed
//! member's sub-cube into a "before t" instance under the old parent `o`
//! and an "after t" instance under the hypothetical parent `n`: the `o/m`
//! sub-cube is ⊥ for τ ≥ t, the `n/m` sub-cube is ⊥ for τ < t.
//!
//! The output cube has a *new schema* (the split adds instances and thus
//! axis slots); the input schema is never mutated — the change is
//! hypothetical.

use crate::error::WhatIfError;
use crate::operators::stage::Stager;
use crate::scenario::Change;
use crate::Result;
use olap_cube::Cube;
use olap_model::{DimensionId, MemberId, Schema};
use std::sync::Arc;

/// Checks the change relation `changes` against `dim` of `schema`: the
/// one validation that [`split`] runs and that the shell's `.change` runs
/// on a fork's list before it records a change. Each change must take
/// effect at a moment of the parameter dimension, move a member of `dim`
/// under a non-leaf parent that is neither the member nor one of its
/// descendants, and, when it names an old parent `o`, name the member's
/// parent at that moment once the changes before it apply (the
/// relation's contract: "o is the current parent of m at point t").
/// Applied in order, the list must leave no member its own ancestor at
/// any moment.
pub fn check_changes(schema: &Schema, dim: DimensionId, changes: &[Change]) -> Result<()> {
    let varying = schema
        .varying(dim)
        .ok_or_else(|| WhatIfError::NotVarying(schema.dim(dim).name().to_string()))?;
    let moments = varying.moments();
    let d = schema.dim(dim);
    let mut after = varying.clone();
    for ch in changes {
        if ch.at >= moments {
            return Err(WhatIfError::BadChange(format!(
                "change moment {} out of range (parameter has {moments} leaves)",
                ch.at
            )));
        }
        if let Some(claimed) = ch.old_parent {
            let actual = after.parent_at(d, ch.member, ch.at);
            if actual != Some(claimed) {
                return Err(WhatIfError::WrongOldParent {
                    member: d.member_name(ch.member).to_string(),
                    claimed: d.member_name(claimed).to_string(),
                    actual: actual
                        .map(|a| d.member_name(a).to_string())
                        .unwrap_or_else(|| "⊥".to_string()),
                });
            }
        }
        after
            .reclassify(d, ch.member, ch.new_parent, ch.at)
            .map_err(|e| WhatIfError::BadChange(e.to_string()))?;
    }
    // Each change is legal against the static hierarchy, but two moves
    // of non-leaf members can still close a cycle (FTE under PTE from
    // Feb, PTE under FTE from Mar). Only a moved member can lie on one.
    for ch in changes.iter().filter(|c| !d.is_leaf(c.member)) {
        for t in ch.at..moments {
            let mut up = after.parent_at(d, ch.member, t);
            for _ in 0..d.member_count() {
                match up {
                    Some(p) if p == ch.member => {
                        return Err(WhatIfError::BadChange(format!(
                            "the changes make {:?} its own ancestor at moment {t}",
                            d.member_name(ch.member)
                        )))
                    }
                    Some(p) if p != MemberId::ROOT => up = after.parent_at(d, p, t),
                    _ => break,
                }
            }
        }
    }
    Ok(())
}

/// S(Cin, R): applies positive changes, returning the extended schema and
/// the re-homed cube.
///
/// The changes apply in list order, each reclassifying its member from
/// its moment onward (`VaryingDimension::reclassify`), so a later change
/// of the same member overrides an earlier one from the later change's
/// moment on. Definition 4.5 treats `R` as a set and is silent on a
/// member changed twice; this ordered reading is the one `WITH CHANGES`
/// and the shell's `.change` list give (DESIGN.md §3).
pub fn split(cube: &Cube, dim: DimensionId, changes: &[Change]) -> Result<(Arc<Schema>, Cube)> {
    let schema_in = cube.schema();
    check_changes(schema_in, dim, changes)?;
    let varying_in = schema_in.varying(dim).expect("checked varying");
    let moments = varying_in.moments();

    // Hypothetically apply the changes on a cloned schema.
    let mut schema_out = (**schema_in).clone();
    for ch in changes {
        schema_out
            .reclassify(dim, ch.member, ch.new_parent, ch.at)
            .map_err(|e| WhatIfError::BadChange(e.to_string()))?;
    }
    schema_out.seal();
    schema_out.validate()?;
    let schema_out = Arc::new(schema_out);

    // Re-home every cell: the value of (member, τ) moves to the *new*
    // schema's instance valid at τ.
    let varying_out = schema_out.varying(dim).expect("still varying");
    let vd = dim.index();
    let pd = varying_in.parameter_dim().index();
    let n_in = varying_in.instance_count();
    let mut slot_map = vec![u32::MAX; (n_in * moments) as usize];
    for i in 0..n_in {
        let inst = varying_in.instance(olap_model::InstanceId(i));
        for t in inst.validity.iter() {
            if let Some(new) = varying_out.instance_at(inst.member, t) {
                slot_map[(i * moments + t) as usize] = new.0;
            }
        }
    }

    let out = cube.empty_for_schema(Arc::clone(&schema_out))?;
    let mut stager = Stager::new(out.geometry());
    cube.for_each_present(|cell, v| {
        let src = cell[vd];
        let t = cell[pd];
        let dst = slot_map[(src * moments + t) as usize];
        if dst != u32::MAX {
            let mut c = cell.to_vec();
            c[vd] = dst;
            stager.set(&c, v);
        }
    })?;
    stager.flush_into(&out)?;
    Ok((schema_out, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use olap_model::{DimensionSpec, SchemaBuilder};
    use olap_store::CellValue;

    /// Org {FTE: Lisa, Joe; PTE: Tom; Contractor: Jane} × 6 months, no
    /// real changes. Salary 10/month.
    fn fixture() -> (Cube, DimensionId) {
        let schema = Arc::new(
            SchemaBuilder::new()
                .dimension(DimensionSpec::new("Organization").tree(&[
                    ("FTE", &["Lisa", "Joe"][..]),
                    ("PTE", &["Tom"]),
                    ("Contractor", &["Jane"]),
                ]))
                .dimension(
                    DimensionSpec::new("Time")
                        .ordered()
                        .leaves(&["Jan", "Feb", "Mar", "Apr", "May", "Jun"]),
                )
                .varying("Organization", "Time")
                .build()
                .unwrap(),
        );
        let org = schema.resolve_dimension("Organization").unwrap();
        let mut b = Cube::builder(Arc::clone(&schema), vec![2, 3]).unwrap();
        for i in 0..schema.axis_len(org) {
            for t in 0..6 {
                b.set_num(&[i, t], 10.0).unwrap();
            }
        }
        (b.finish().unwrap(), org)
    }

    #[test]
    fn split_creates_before_and_after_instances() {
        // The paper's example: R = {(FTE/Lisa, FTE, PTE, Apr)}.
        let (cube, org) = fixture();
        let d = cube.schema().dim(org);
        let lisa = d.resolve("Lisa").unwrap();
        let fte = d.resolve("FTE").unwrap();
        let pte = d.resolve("PTE").unwrap();
        let (schema2, out) = split(
            &cube,
            org,
            &[Change {
                member: lisa,
                old_parent: Some(fte),
                new_parent: pte,
                at: 3,
            }],
        )
        .unwrap();
        let v2 = schema2.varying(org).unwrap();
        let ids = v2.instances_of(lisa);
        assert_eq!(ids.len(), 2);
        assert_eq!(v2.instance_name(schema2.dim(org), ids[0]), "FTE/Lisa");
        assert_eq!(v2.instance_name(schema2.dim(org), ids[1]), "PTE/Lisa");
        // FTE/Lisa: values Jan–Mar, ⊥ after.
        let s0 = ids[0].0;
        let s1 = ids[1].0;
        assert_eq!(out.get(&[s0, 2]).unwrap(), CellValue::Num(10.0));
        assert_eq!(out.get(&[s0, 3]).unwrap(), CellValue::Null);
        // PTE/Lisa: ⊥ before Apr, values after.
        assert_eq!(out.get(&[s1, 2]).unwrap(), CellValue::Null);
        assert_eq!(out.get(&[s1, 3]).unwrap(), CellValue::Num(10.0));
        // Values are conserved.
        assert_eq!(out.total_sum().unwrap(), cube.total_sum().unwrap());
    }

    #[test]
    fn split_validates_old_parent() {
        let (cube, org) = fixture();
        let d = cube.schema().dim(org);
        let lisa = d.resolve("Lisa").unwrap();
        let pte = d.resolve("PTE").unwrap();
        let contractor = d.resolve("Contractor").unwrap();
        let err = split(
            &cube,
            org,
            &[Change {
                member: lisa,
                old_parent: Some(pte), // actually FTE
                new_parent: contractor,
                at: 2,
            }],
        );
        assert!(matches!(err, Err(WhatIfError::WrongOldParent { .. })));
    }

    /// An old-parent claim reads the list applied so far: after Lisa
    /// moves to PTE in March, she reports to PTE in May, not to FTE.
    #[test]
    fn old_parent_claims_read_the_list_applied_so_far() {
        let (cube, org) = fixture();
        let d = cube.schema().dim(org);
        let [lisa, fte, pte, contractor] =
            ["Lisa", "FTE", "PTE", "Contractor"].map(|n| d.resolve(n).unwrap());
        let moves = |claimed| {
            let first = Change {
                member: lisa,
                old_parent: Some(fte),
                new_parent: pte,
                at: 2,
            };
            let second = Change {
                member: lisa,
                old_parent: Some(claimed),
                new_parent: contractor,
                at: 4,
            };
            split(&cube, org, &[first, second])
        };
        assert!(moves(pte).is_ok());
        assert!(matches!(
            moves(fte),
            Err(WhatIfError::WrongOldParent { .. })
        ));
    }

    #[test]
    fn split_rejects_leaf_parent() {
        let (cube, org) = fixture();
        let d = cube.schema().dim(org);
        let lisa = d.resolve("Lisa").unwrap();
        let tom = d.resolve("Tom").unwrap();
        let err = split(
            &cube,
            org,
            &[Change {
                member: lisa,
                old_parent: None,
                new_parent: tom,
                at: 2,
            }],
        );
        assert!(matches!(err, Err(WhatIfError::BadChange(_))));
    }

    /// Each move is legal against the static hierarchy; together they
    /// put FTE under PTE under FTE from March.
    #[test]
    fn split_rejects_a_cycle_the_list_closes() {
        let (cube, org) = fixture();
        let d = cube.schema().dim(org);
        let fte = d.resolve("FTE").unwrap();
        let pte = d.resolve("PTE").unwrap();
        let err = split(
            &cube,
            org,
            &[
                Change {
                    member: fte,
                    old_parent: None,
                    new_parent: pte,
                    at: 1,
                },
                Change {
                    member: pte,
                    old_parent: None,
                    new_parent: fte,
                    at: 2,
                },
            ],
        );
        match err {
            Err(WhatIfError::BadChange(e)) => assert!(e.contains("own ancestor"), "{e}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn multiple_changes_sequence() {
        // S1 from the paper: "What if Tom became a contractor from March
        // onward and became an FTE July onward?" (scaled to 6 months:
        // contractor at Mar, FTE at Jun).
        let (cube, org) = fixture();
        let d = cube.schema().dim(org);
        let tom = d.resolve("Tom").unwrap();
        let contractor = d.resolve("Contractor").unwrap();
        let fte = d.resolve("FTE").unwrap();
        let (schema2, out) = split(
            &cube,
            org,
            &[
                Change {
                    member: tom,
                    old_parent: None,
                    new_parent: contractor,
                    at: 2,
                },
                Change {
                    member: tom,
                    old_parent: None,
                    new_parent: fte,
                    at: 5,
                },
            ],
        )
        .unwrap();
        let v2 = schema2.varying(org).unwrap();
        let ids = v2.instances_of(tom);
        assert_eq!(ids.len(), 3);
        let names: Vec<String> = ids
            .iter()
            .map(|&i| v2.instance_name(schema2.dim(org), i))
            .collect();
        assert_eq!(names, vec!["PTE/Tom", "Contractor/Tom", "FTE/Tom"]);
        // Validity: PTE {0,1}, Contractor {2,3,4}, FTE {5}.
        assert_eq!(out.get(&[ids[1].0, 3]).unwrap(), CellValue::Num(10.0));
        assert_eq!(out.get(&[ids[0].0, 3]).unwrap(), CellValue::Null);
        assert_eq!(out.get(&[ids[2].0, 5]).unwrap(), CellValue::Num(10.0));
        assert_eq!(out.total_sum().unwrap(), cube.total_sum().unwrap());
    }

    #[test]
    fn split_moment_bounds_checked() {
        let (cube, org) = fixture();
        let d = cube.schema().dim(org);
        let lisa = d.resolve("Lisa").unwrap();
        let pte = d.resolve("PTE").unwrap();
        let err = split(
            &cube,
            org,
            &[Change {
                member: lisa,
                old_parent: None,
                new_parent: pte,
                at: 9,
            }],
        );
        match err {
            Err(WhatIfError::BadChange(e)) => assert!(e.contains("change moment 9"), "{e}"),
            other => panic!("{other:?}"),
        }
    }
}
