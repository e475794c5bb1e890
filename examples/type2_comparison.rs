//! Native changing dimensions vs. Type-2 slowly-changing dimensions
//! (paper Section 7 related work).
//!
//! Type-2 modeling duplicates a changed member under a new surrogate key
//! with effective dates. History survives — but "the simulation of change
//! via certain duplicate members is fundamentally not known to an OLAP
//! engine", so a what-if needs hand-written client-side logic. This
//! example shows the same forward what-if asked both ways.
//!
//! ```sh
//! cargo run --example type2_comparison
//! ```

use olap_cube::{CellEvaluator, Sel};
use olap_model::MemberId;
use olap_workload::{running_example, simulate_forward, type2_of};
use whatif_core::{apply, ExecOpts, Mode, Scenario, Semantics};

fn main() {
    let ex = running_example();
    let t2 = type2_of(&ex.cube, ex.org);

    // The Type-2 view of Joe: three surrogate members, effective dates in
    // a side table the engine can't see.
    println!("Type-2 surrogates for Joe:");
    let month_names = t2.schema.dim(t2.param).leaf_names();
    for sid in &t2.surrogates["Joe"] {
        println!(
            "  {:<8} under {:<12} effective {}",
            t2.schema.dim(t2.dim).member_name(*sid),
            t2.schema
                .dim(t2.dim)
                .member_name(t2.schema.dim(t2.dim).parent(*sid).unwrap()),
            t2.effective[sid].display_with(&month_names),
        );
    }

    // An ordinary rollup works identically on both models.
    let ev2 = CellEvaluator::new(&t2.cube);
    let fte2 = t2.schema.dim(t2.dim).resolve("FTE").unwrap();
    let year_fte = ev2
        .value(&[
            Sel::Member(fte2),
            Sel::Slot(0), // NY
            Sel::Member(MemberId::ROOT),
            Sel::Slot(0), // Salary
        ])
        .unwrap();
    println!("\nplain query (FTE salary, NY, year): {year_fte} — same on either model");

    // The what-if: impose the Feb/Apr structures forward.
    let p = vec![1u32, 3];
    println!("\nwhat-if: DYNAMIC FORWARD with P = {{Feb, Apr}}");

    // Native: one clause, engine-evaluated.
    let scenario = Scenario::negative(ex.org, p.clone(), Semantics::Forward, Mode::Visual);
    let native = apply(&ex.cube, &scenario, None, &ExecOpts::default()).expect("native what-if");
    let evn = CellEvaluator::new(&native.cube);
    println!("  native perspective engine:");
    for group in ["FTE", "PTE", "Contractor"] {
        let g = ex.schema.dim(ex.org).resolve(group).unwrap();
        let v = evn
            .value(&[
                Sel::Member(g),
                Sel::Slot(0),
                Sel::Member(MemberId::ROOT),
                Sel::Slot(0),
            ])
            .unwrap();
        println!("    {group:<12} {v}");
    }

    // Type-2: the user re-implements Φ over the side table and re-scans
    // the cube cell by cell.
    let slicer = vec![None, Some(0u32), None, Some(0u32)]; // NY × Salary
    let simulated = simulate_forward(&t2, &p, &slicer);
    println!("  Type-2 client-side simulation (hand-written Φ + full scan):");
    for group in ["FTE", "PTE", "Contractor"] {
        println!(
            "    {group:<12} {}",
            simulated.get(group).copied().unwrap_or(0.0)
        );
    }
    println!(
        "\nSame numbers — but one side is a query-language clause with chunked,\n\
         scoped, pass-decomposed execution; the other is bespoke client code\n\
         that re-reads every cell. That gap is the paper's motivation."
    );
}
