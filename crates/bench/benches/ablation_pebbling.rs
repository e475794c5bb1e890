//! Ablation — Section 5.2's pebbling heuristic vs. the naive layout
//! order: peak resident chunks and wall time for the same relocation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use olap_workload::{Workforce, WorkforceConfig};
use whatif_core::{execute_passes_opts, merge, phi, DestMap, ExecOpts, OrderPolicy, Semantics};

fn setup() -> (Workforce, DestMap) {
    // Dense merge graphs: every changer moves a lot, one instance per
    // chunk so moves always cross chunks.
    let wf = Workforce::build(WorkforceConfig {
        employees: 400,
        departments: 12,
        changing: 120,
        employee_extent: 1,
        accounts: 4,
        scenarios: 2,
        ..WorkforceConfig::default()
    });
    let varying = wf.schema.varying(wf.department).unwrap();
    let vs_out = phi(Semantics::Forward, varying.instances(), &[0, 6], 12);
    let map = DestMap::build(&wf.cube, wf.department, &vs_out).unwrap();
    (wf, map)
}

fn pebbling(c: &mut Criterion) {
    let (wf, map) = setup();
    let single = std::slice::from_ref(&map);
    let run = |policy: &OrderPolicy| {
        let opts = ExecOpts::default();
        execute_passes_opts(&wf.cube, wf.department, &map, single, policy, None, opts).unwrap()
    };
    // Report the memory ablation once (Criterion measures only time).
    for (name, policy) in [
        ("pebbling", OrderPolicy::Pebbling),
        ("naive", OrderPolicy::Naive),
    ] {
        let (_, report) = run(&policy);
        eprintln!(
            "ablation_pebbling[{name}]: graph {} nodes / {} edges, \
             predicted pebbles {}, peak buffers {}",
            report.graph_nodes,
            report.graph_edges,
            report.predicted_pebbles,
            report.peak_out_buffers
        );
    }
    // And the paper's own Fig. 9 worked example.
    let g = merge::MergeGraph::fig9();
    eprintln!(
        "fig9 graph: heuristic {} pebbles, naive {} pebbles, optimal {}",
        merge::pebbles_for_order(&g, &merge::heuristic_order(&g)),
        merge::pebbles_for_order(&g, &merge::naive_order(&g)),
        merge::optimal_pebbles(&g),
    );

    let mut group = c.benchmark_group("ablation_pebbling");
    group.sample_size(10);
    for (name, policy) in [
        ("pebbling", OrderPolicy::Pebbling),
        ("naive", OrderPolicy::Naive),
    ] {
        group.bench_with_input(BenchmarkId::new("policy", name), &policy, |b, p| {
            b.iter(|| run(p))
        });
    }
    group.finish();
}

criterion_group!(benches, pebbling);
criterion_main!(benches);
