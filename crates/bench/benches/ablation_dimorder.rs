//! Ablation — Lemma 5.1: reading chunks with the varying dimension first
//! needs less buffer memory than any order where it is not first.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use olap_workload::{Workforce, WorkforceConfig};
use whatif_core::{execute_passes_opts, phi, DestMap, ExecOpts, OrderPolicy, Semantics};

fn dimorder(c: &mut Criterion) {
    let wf = Workforce::build(WorkforceConfig {
        employees: 400,
        departments: 12,
        changing: 60,
        employee_extent: 4,
        accounts: 4,
        scenarios: 2,
        ..WorkforceConfig::default()
    });
    let varying = wf.schema.varying(wf.department).unwrap();
    let vs_out = phi(Semantics::Forward, varying.instances(), &[0], 12);
    let map = DestMap::build(&wf.cube, wf.department, &vs_out).unwrap();
    // Dimension order: [Period, Department, Account, Scenario, …] in the
    // schema. Department (index 1) is the varying dimension.
    let vd_first = OrderPolicy::Naive; // varying-dim-first slices
    let param_first = OrderPolicy::DimOrder(vec![0, 2, 3, 4, 5, 6, 1]);
    let single = std::slice::from_ref(&map);
    let run = |policy: &OrderPolicy| {
        let opts = ExecOpts::default();
        execute_passes_opts(&wf.cube, wf.department, &map, single, policy, None, opts).unwrap()
    };
    for (name, policy) in [("vd_first", &vd_first), ("param_first", &param_first)] {
        let (_, report) = run(policy);
        eprintln!(
            "ablation_dimorder[{name}]: peak buffers {} (graph {} nodes)",
            report.peak_out_buffers, report.graph_nodes
        );
    }
    let mut group = c.benchmark_group("ablation_dimorder");
    group.sample_size(10);
    for (name, policy) in [("vd_first", vd_first), ("param_first", param_first)] {
        group.bench_with_input(BenchmarkId::new("order", name), &policy, |b, p| {
            b.iter(|| run(p))
        });
    }
    group.finish();
}

criterion_group!(benches, dimorder);
criterion_main!(benches);
