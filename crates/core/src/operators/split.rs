//! S — the split operator for positive scenarios (Definition 4.5).
//!
//! Given the change relation `R(m, o, n, t)`, split clones each listed
//! member's sub-cube into a "before t" instance under the old parent `o`
//! and an "after t" instance under the hypothetical parent `n`: the `o/m`
//! sub-cube is ⊥ for τ ≥ t, the `n/m` sub-cube is ⊥ for τ < t.
//!
//! In the product S is the Section 5 executor: [`crate::Plan::for_scenario`]
//! grows a clone of the schema by `R` (the input schema is never mutated —
//! the change is hypothetical) and plans S as ρ onto the grown axis, which
//! [`crate::execute`] runs chunk by chunk. The definitional S, cell by cell
//! and keyed by hierarchy path, is the test oracle's. This module keeps
//! the one validation of a change relation.

use crate::error::WhatIfError;
use crate::scenario::Change;
use crate::Result;
use olap_model::{DimensionId, MemberId, Schema};

/// Checks the change relation `changes` against `dim` of `schema`: the
/// one validation that planning S runs and that the shell's `.change` runs
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecOpts;
    use crate::perspective::Mode;
    use crate::perspective_cube::apply;
    use crate::scenario::Scenario;
    use olap_cube::Cube;
    use olap_model::{DimensionSpec, SchemaBuilder};
    use olap_store::CellValue;
    use std::sync::Arc;

    /// S(Cin, R) as the product runs it: the output schema and cube of a
    /// positive `apply`.
    fn apply_changes(
        cube: &Cube,
        dim: DimensionId,
        changes: &[Change],
    ) -> Result<(Arc<Schema>, Cube)> {
        let scenario = Scenario::positive(dim, changes.to_vec(), Mode::Visual);
        let (out, _) = apply(cube, &scenario, None, &ExecOpts::default())?;
        Ok((Arc::clone(out.schema()), out))
    }

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
        let (schema2, out) = apply_changes(
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
        let err = apply_changes(
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
            apply_changes(&cube, org, &[first, second])
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
        let err = apply_changes(
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
        let err = apply_changes(
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
        let (schema2, out) = apply_changes(
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
        let err = apply_changes(
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
