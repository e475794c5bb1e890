//! A tour of the Section 5 machinery on the running example: Φ and its
//! semantics, the merge-dependency graph, pebbling, and a planned
//! execution's report.
//!
//! ```sh
//! cargo run --example perspective_cube_tour
//! ```

use olap_workload::running_example;
use whatif_core::{
    apply, execute,
    merge::{heuristic_order, naive_order, optimal_pebbles, pebbles_for_order, MergeGraph},
    phi, prune_vacancies, ExecOpts, Mode, OrderPolicy, PerspectiveSpec, Plan, Scenario, Semantics,
};

fn main() {
    let ex = running_example();
    let varying = ex.schema.varying(ex.org).unwrap();
    let month_names = ex.schema.dim(ex.time).leaf_names();

    // Φ under every semantics, P = {Feb, Apr}.
    println!("Φ with P = {{Feb, Apr}}:");
    for sem in [
        Semantics::Static,
        Semantics::Forward,
        Semantics::ExtendedForward,
        Semantics::Backward,
        Semantics::ExtendedBackward,
    ] {
        let mut vs = phi(sem, varying.instances(), &[1, 3], 6);
        prune_vacancies(&mut vs, varying.instances(), 6);
        println!("  {sem}:");
        for (i, v) in vs.iter().enumerate() {
            if !v.is_empty() {
                println!(
                    "    {:<16} {}",
                    varying.instance_name(ex.schema.dim(ex.org), olap_model::InstanceId(i as u32)),
                    v.display_with(&month_names),
                );
            }
        }
    }

    // The paper's Fig. 9 merge-dependency graph and its pebbling.
    let g = MergeGraph::fig9();
    println!(
        "\nFig. 9 merge graph ({} nodes, {} edges):",
        g.len(),
        g.edge_count()
    );
    let heuristic = heuristic_order(&g);
    let labels: Vec<u32> = heuristic.iter().map(|&n| g.label(n)).collect();
    println!("  heuristic order {labels:?}");
    println!(
        "  pebbles: heuristic {}, naive {}, optimal {}",
        pebbles_for_order(&g, &heuristic),
        pebbles_for_order(&g, &naive_order(&g)),
        optimal_pebbles(&g),
    );

    // Plan a forward scenario once (Φ, destination map, Section 6
    // passes, merge graph, pebble order), then run it.
    let spec = PerspectiveSpec::new(ex.org, [1, 3], Semantics::Forward, Mode::Visual);
    for policy in [OrderPolicy::Pebbling, OrderPolicy::Naive] {
        let plan = Plan::build(&ex.cube, &spec, &policy, None).expect("plan");
        let (_, report) = execute(&ex.cube, &plan, &ExecOpts::default()).expect("exec");
        println!(
            "\nchunked executor [{policy:?}]: {} pass(es), graph {}/{} (nodes/edges), \
             predicted pebbles {}, peak buffers {}, {} cells relocated, {} dropped",
            report.passes,
            report.graph_nodes,
            report.graph_edges,
            report.predicted_pebbles,
            report.peak_out_buffers,
            report.cells_relocated,
            report.cells_dropped,
        );
    }

    // And the high-level entry point: the perspective cube itself.
    let scenario = Scenario::negative(ex.org, [1, 3], Semantics::Forward, Mode::Visual);
    let (out, _) = apply(&ex.cube, &scenario, None, &ExecOpts::default()).expect("apply");
    println!(
        "\nperspective cube: {} cells (input had {}), total value {} (input {})",
        out.present_cell_count().unwrap(),
        ex.cube.present_cell_count().unwrap(),
        out.total_sum().unwrap(),
        ex.cube.total_sum().unwrap(),
    );
}
