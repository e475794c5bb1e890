//! Theorem 4.1 on a four-moment organisation (Joe moves from FTE to PTE
//! in Feb): `apply` holds exactly the cells of its compiled expression
//! evaluated by definition ([`crate::oracle::eval`]), for negative and
//! positive scenarios, and σ composes before the perspectives.

mod tests {
    use crate::oracle::{self, split_cells, Evaluated};
    use olap_cube::Cube;
    use olap_model::{DimensionId, DimensionSpec, SchemaBuilder};
    use olap_store::CellValue;
    use std::sync::Arc;
    use whatif_core::{apply, compile, AlgebraExpr, Change, ExecOpts, Mode, Scenario, Semantics};

    fn fixture() -> (Cube, DimensionId) {
        let schema = Arc::new(
            SchemaBuilder::new()
                .dimension(
                    DimensionSpec::new("Org")
                        .tree(&[("FTE", &["Joe", "Lisa"][..]), ("PTE", &["Tom"])]),
                )
                .dimension(
                    DimensionSpec::new("Time")
                        .ordered()
                        .leaves(&["Jan", "Feb", "Mar", "Apr"]),
                )
                .varying("Org", "Time")
                .reclassify("Org", "Joe", "PTE", "Feb")
                .build()
                .unwrap(),
        );
        let org = schema.resolve_dimension("Org").unwrap();
        let mut b = Cube::builder(Arc::clone(&schema), vec![2, 2]).unwrap();
        let v = schema.varying(org).unwrap();
        for (i, inst) in v.instances().iter().enumerate() {
            for t in inst.validity.iter() {
                b.set_num(&[i as u32, t], 10.0 + i as f64).unwrap();
            }
        }
        (b.finish().unwrap(), org)
    }

    /// Whether `compile(scenario)` ends in the E marker of `mode`.
    fn evaluates_in(scenario: &Scenario, mode: Mode) -> bool {
        let visual = mode == Mode::Visual;
        matches!(compile(scenario), AlgebraExpr::Compose(steps)
            if steps.last() == Some(&AlgebraExpr::Eval { visual }))
    }

    #[test]
    fn theorem_4_1_negative() {
        // compile(scenario) evaluated over Cin by definition equals the
        // chunked apply(scenario) on cells.
        let (cube, org) = fixture();
        for sem in [Semantics::Static, Semantics::Forward, Semantics::Backward] {
            for mode in [Mode::Visual, Mode::NonVisual] {
                let scenario = Scenario::negative(org, [1], sem, mode);
                let (direct, _) = apply(&cube, &scenario, None, &ExecOpts::default()).unwrap();
                let Evaluated::Cube(algebra) = oracle::eval(&cube, &compile(&scenario)) else {
                    panic!("ρ∘Φ evaluates to a cube");
                };
                assert!(algebra.same_cells(&direct).unwrap(), "{sem:?}");
                assert!(evaluates_in(&scenario, mode), "{sem:?} {mode:?}");
            }
        }
    }

    #[test]
    fn theorem_4_1_positive() {
        let (cube, org) = fixture();
        let d = cube.schema().dim(org);
        let lisa = d.resolve("Lisa").unwrap();
        let pte = d.resolve("PTE").unwrap();
        let scenario = Scenario::positive(
            org,
            vec![Change {
                member: lisa,
                old_parent: None,
                new_parent: pte,
                at: 2,
            }],
            Mode::Visual,
        );
        let (direct, _) = apply(&cube, &scenario, None, &ExecOpts::default()).unwrap();
        let Evaluated::Paths(algebra) = oracle::eval(&cube, &compile(&scenario)) else {
            panic!("S evaluates to path-keyed cells");
        };
        assert_ne!(algebra, split_cells(&cube, org), "the change moves cells");
        assert!(split_cells(&direct, org) == algebra);
        // S adds Lisa's PTE instance to the four of the input.
        assert_eq!(direct.schema().varying(org).unwrap().instance_count(), 5);
    }

    #[test]
    fn select_composes_before_perspectives() {
        // Φf∘ρ after σ_changing — the experiment queries' shape: restrict
        // to changing members, then apply perspectives.
        let (cube, org) = fixture();
        let (instances, _) = oracle::instances(&cube, org);
        let changing = |m| instances.iter().filter(|(n, _)| *n == m).count() > 1;
        let selected = oracle::select(&cube, org, |m, _, _| changing(m));
        let scenario = Scenario::negative(org, [0], Semantics::Forward, Mode::Visual);
        let (out, _) = apply(&selected, &scenario, None, &ExecOpts::default()).unwrap();
        // Only Joe's data survives the selection; forward from Jan pulls
        // his Feb+ data into FTE/Joe (instance 0).
        // Joe instances: 0 (FTE, t0), 1 (PTE, t1..3): values 10, 11.
        assert_eq!(out.total_sum().unwrap(), 10.0 + 3.0 * 11.0);
        assert_eq!(out.get(&[0, 2]).unwrap(), CellValue::Num(11.0));
        let Evaluated::Cube(want) = oracle::eval(&selected, &compile(&scenario)) else {
            panic!("ρ∘Φ evaluates to a cube");
        };
        assert!(out.same_cells(&want).unwrap());
    }
}
