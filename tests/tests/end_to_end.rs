//! End-to-end: the Section 6 workload through the full stack — generator
//! → cube → extended MDX → perspective cube → grid — including the exact
//! Fig. 10 query shapes and the equivalences the experiments rely on.

use olap_mdx::{execute, QueryContext};
use olap_store::CellValue;
use olap_workload::{Workforce, WorkforceConfig};
use whatif_core::{OrderPolicy, Strategy};

fn tiny() -> Workforce {
    Workforce::build(WorkforceConfig::tiny())
}

fn ctx_of(wf: &Workforce) -> QueryContext<'_> {
    let mut ctx = QueryContext::new(&wf.cube);
    for (name, members) in wf.named_sets() {
        ctx.define_set(&name, wf.department, &members);
    }
    ctx
}

#[test]
fn fig10a_runs_and_reports_departments() {
    let wf = tiny();
    let ctx = ctx_of(&wf);
    let q = wf.fig10a_query(&["Jan", "Jul"]);
    let g = execute(&ctx, &q).unwrap();
    // Columns: accounts × the (Current, Local, BU Version_1,
    // HSP_InputValue) tuple; rows: changers × months.
    assert_eq!(g.width(), wf.config.accounts as usize);
    assert_eq!(g.height(), wf.movers.len() * wf.config.months as usize);
    // The DIMENSION PROPERTIES column reports reporting structures.
    assert!(g.row_properties.iter().all(|p| p.len() == 1));
    assert!(g.row_properties.iter().any(|p| p[0].starts_with("dept")));
    assert!(g.present_count() > 0);
}

#[test]
fn fig10b_covers_employee_s3() {
    let wf = tiny();
    let ctx = ctx_of(&wf);
    let q = wf.fig10b_query(&["Jan", "Apr", "Jul", "Oct"]);
    let g = execute(&ctx, &q).unwrap();
    assert_eq!(g.height(), wf.config.months as usize);
    // Dynamic forward from Jan onward: every month has a value for the
    // chosen employee (it exists all year).
    assert_eq!(g.present_count(), g.width() * g.height());
}

#[test]
fn fig10c_head_limits_rows() {
    let wf = tiny();
    let ctx = ctx_of(&wf);
    let q = wf.fig10c_query(&["Jan", "Apr", "Jul", "Oct"], 2);
    let g = execute(&ctx, &q).unwrap();
    assert_eq!(g.height(), 2 * wf.config.months as usize);
}

#[test]
fn reference_and_chunked_strategies_agree_on_grids() {
    let wf = tiny();
    let q = wf.fig10a_query_sem(&["Jan", "Apr"], "DYNAMIC FORWARD VISUAL");
    let mut grids = Vec::new();
    for strategy in [
        Strategy::Reference,
        Strategy::Chunked(OrderPolicy::Pebbling),
        Strategy::Chunked(OrderPolicy::Naive),
    ] {
        let mut ctx = ctx_of(&wf);
        ctx.strategy = strategy;
        grids.push(execute(&ctx, &q).unwrap());
    }
    assert_eq!(grids[0], grids[1]);
    assert_eq!(grids[0], grids[2]);
}

#[test]
fn static_equals_multiple_single_perspective_queries() {
    // The Fig. 11 baseline's correctness: merging k single-perspective
    // static grids reproduces the direct k-perspective grid.
    let wf = tiny();
    let ctx = ctx_of(&wf);
    let months = ["Jan", "Apr", "Jul"];
    let direct = execute(&ctx, &wf.fig10a_query(&months)).unwrap();
    let mut merged: Option<olap_mdx::Grid> = None;
    for m in months {
        let g = execute(&ctx, &wf.fig10a_query(&[m])).unwrap();
        merged = Some(match merged {
            None => g,
            Some(acc) => {
                // First-non-⊥ merge, same as bench::baselines::merge.
                let mut acc = acc;
                for (i, row) in g.rows.iter().enumerate() {
                    let j = acc.rows.iter().position(|r| r == row).unwrap();
                    for c in 0..acc.columns.len() {
                        if acc.cells[j][c].is_null() {
                            acc.cells[j][c] = g.cells[i][c];
                        }
                    }
                }
                acc
            }
        });
    }
    let merged = merged.unwrap();
    for (i, row) in direct.rows.iter().enumerate() {
        for (c, col) in direct.columns.iter().enumerate() {
            assert_eq!(
                direct.cells[i][c],
                merged.cell(row, col).unwrap(),
                "row {row} col {col}"
            );
        }
    }
}

#[test]
fn employee_data_every_month_and_scenario() {
    let wf = tiny();
    let ctx = ctx_of(&wf);
    // A non-changing employee's acc000 across the year in each scenario.
    let g = execute(
        &ctx,
        "SELECT {Descendants([Period], 1, SELF_AND_AFTER)} ON COLUMNS, \
         {Scenario.[Current], Scenario.[Budget]} ON ROWS \
         FROM [App].[Db] \
         WHERE (Department.[emp00059], Account.[acc000], Currency.[Local], \
                Version.[BU Version_1], HSP_Rates.[HSP_InputValue])",
    )
    .unwrap();
    assert_eq!(g.present_count(), 24);
    // Scenario offsets are +0.5 per scenario index by construction.
    let current = g.cell("Current", "Jan").unwrap().as_f64().unwrap();
    let budget = g.cell("Budget", "Jan").unwrap().as_f64().unwrap();
    assert!((budget - current - 0.5).abs() < 1e-9);
}

#[test]
fn changing_employee_instances_partition_months() {
    let wf = tiny();
    let v = wf.schema.varying(wf.department).unwrap();
    for &(m, _) in &wf.movers {
        let mut covered = vec![false; wf.config.months as usize];
        for &inst in v.instances_of(m) {
            for t in v.instance(inst).validity.iter() {
                assert!(!covered[t as usize], "double coverage at {t}");
                covered[t as usize] = true;
            }
        }
        assert!(covered.iter().all(|&c| c), "gaps in coverage for {m:?}");
    }
}

#[test]
fn visual_mode_changes_department_rollups() {
    // Under a what-if, some department's rollup must differ between
    // visual (output) and non-visual (input) evaluation.
    let wf = tiny();
    let ctx = ctx_of(&wf);
    let mut differs = false;
    for d in 0..wf.config.departments {
        let q = |mode: &str| {
            format!(
                "WITH PERSPECTIVE {{(Jan)}} FOR Department DYNAMIC FORWARD {mode} \
                 SELECT {{Period}} ON COLUMNS, {{Department.[dept{d:03}]}} ON ROWS \
                 FROM [App].[Db] WHERE (Account.[acc000], Scenario.[Current], \
                 Currency.[Local], Version.[BU Version_1], HSP_Rates.[HSP_InputValue])"
            )
        };
        let vis = execute(&ctx, &q("VISUAL")).unwrap().total();
        let nonvis = execute(&ctx, &q("NONVISUAL")).unwrap().total();
        if (vis - nonvis).abs() > 1e-9 {
            differs = true;
            break;
        }
    }
    assert!(differs, "the what-if should move value between departments");
}

/// The paper's full scale. Slow (~minutes) — run with
/// `cargo test -p whatif-integration-tests -- --ignored paper_scale`.
#[test]
#[ignore = "builds the full 121.5M-cell dataset; minutes of runtime"]
fn paper_scale_workload_builds_and_answers() {
    let wf = Workforce::build(WorkforceConfig::paper_scale());
    assert_eq!(wf.config.employees, 20_250);
    assert_eq!(wf.movers.len(), 250);
    let ctx = ctx_of(&wf);
    let g = execute(&ctx, &wf.fig10a_query(&["Jan", "Jul"])).unwrap();
    assert!(g.present_count() > 0);
}

#[test]
fn null_cells_render_as_bottom() {
    let wf = tiny();
    let ctx = ctx_of(&wf);
    // A changing employee pinned to a specific instance has ⊥ outside
    // that instance's validity.
    let (emp, _) = wf.movers[0];
    let v = wf.schema.varying(wf.department).unwrap();
    let inst = v.instances_of(emp)[0];
    let name = wf.schema.dim(wf.department).member_name(emp);
    let dept = wf
        .schema
        .dim(wf.department)
        .member_name(v.instance(inst).parent())
        .to_string();
    let q = format!(
        "SELECT {{Descendants([Period], 1, SELF_AND_AFTER)}} ON COLUMNS, \
         {{Account.[acc000]}} ON ROWS FROM [App].[Db] \
         WHERE (Department.[{dept}].[{name}], Scenario.[Current], Currency.[Local], \
                Version.[BU Version_1], HSP_Rates.[HSP_InputValue])"
    );
    let g = execute(&ctx, &q).unwrap();
    let valid = v.instance(inst).validity.len() as usize;
    assert_eq!(g.present_count(), valid);
    assert_eq!(g.width(), 12);
    assert!(matches!(
        g.cells[0].iter().find(|c| c.is_null()),
        Some(CellValue::Null)
    ));
}
