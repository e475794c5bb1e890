//! σ (Definition 4.1) on a four-moment product dimension: the oracle's
//! structural predicates, and σ by value as users ask it, MDX's
//! `Filter`.

mod tests {
    use crate::oracle;
    use olap_cube::Cube;
    use olap_model::{DimensionId, DimensionSpec, InstanceId, SchemaBuilder};
    use olap_store::CellValue;
    use std::collections::BTreeSet;
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

    /// The instance slots that hold a cell of `out`.
    fn kept_slots(out: &Cube, prod: DimensionId) -> Vec<u32> {
        let mut slots = BTreeSet::new();
        out.for_each_present(|cell, _| {
            slots.insert(cell[prod.index()]);
        })
        .unwrap();
        slots.into_iter().collect()
    }

    #[test]
    fn member_is_keeps_all_instances() {
        let (cube, prod) = fixture();
        let tv = cube.schema().dim(prod).resolve("TV").unwrap();
        let out = oracle::select(&cube, prod, |m, _, _| m == tv);
        assert_eq!(kept_slots(&out, prod), [0, 1]); // both TV instances
    }

    #[test]
    fn under_follows_instance_paths() {
        let (cube, prod) = fixture();
        let print = cube.schema().dim(prod).resolve("Print").unwrap();
        let out = oracle::select(&cube, prod, |_, path, _| path.contains(&print));
        // Print/TV and Print/Book.
        assert_eq!(kept_slots(&out, prod), [1, 3]);
    }

    #[test]
    fn vs_intersects_selects_by_validity() {
        let (cube, prod) = fixture();
        let out = oracle::select(&cube, prod, |_, _, vs| vs.contains(&0));
        // Valid at t0: AudioVideo/TV, Radio, Book.
        assert_eq!(kept_slots(&out, prod), [0, 2, 3]);
    }

    #[test]
    fn changing_selects_multi_instance_members() {
        let (cube, prod) = fixture();
        let (instances, _) = oracle::instances(&cube, prod);
        let changing = |m| instances.iter().filter(|(n, _)| *n == m).count() > 1;
        let out = oracle::select(&cube, prod, |m, _, _| changing(m));
        assert_eq!(kept_slots(&out, prod), [0, 1]); // TV's two instances
    }

    #[test]
    fn value_cmp_thresholds() {
        // σ by value is MDX's Filter, here over every instance slot
        // spelled by its path.
        let (cube, prod) = fixture();
        let ctx = olap_mdx::QueryContext::new(&cube);
        let d = cube.schema().dim(prod);
        let varying = cube.schema().varying(prod).unwrap();
        let paths: Vec<String> = (varying.instances().iter())
            .map(|i| {
                let parent = d.member_name(i.parent());
                format!("Product.[{parent}].[{}]", d.member_name(i.member))
            })
            .collect();
        let filter = |cond: &str| {
            let query = format!(
                "SELECT {{Filter({{{}}}, {cond})}} ON COLUMNS FROM [W]",
                paths.join(", ")
            );
            olap_mdx::execute(&ctx, &query).unwrap().columns
        };
        let label = |s: u32| varying.instance_name(d, InstanceId(s));
        // Values at t0: slot0=100, slot2=300, slot3=400.
        assert_eq!(filter("(Time.[t0]) > 250"), [label(2), label(3)]);
        // ⊥ (slot 1 has no t0 value) never matches, even with <> (read
        // as 0 it would).
        assert_eq!(filter("(Time.[t0]) <> 1"), [label(0), label(2), label(3)]);
    }

    #[test]
    fn select_removes_subcubes() {
        let (cube, prod) = fixture();
        let tv = cube.schema().dim(prod).resolve("TV").unwrap();
        let out = oracle::select(&cube, prod, |m, _, _| m == tv);
        // Kept: TV instances (slots 0 and 1): 100, 101, 202, 203.
        assert_eq!(out.total_sum().unwrap(), 100.0 + 101.0 + 202.0 + 203.0);
        assert_eq!(out.get(&[2, 0]).unwrap(), CellValue::Null);
        assert_eq!(out.get(&[0, 0]).unwrap(), CellValue::Num(100.0));
    }

    #[test]
    fn select_true_is_identity() {
        let (cube, prod) = fixture();
        let out = oracle::select(&cube, prod, |_, _, _| true);
        assert!(out.same_cells(&cube).unwrap());
    }
}
