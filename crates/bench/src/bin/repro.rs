//! Reproduces every evaluation figure of the paper and prints the series
//! its plots are drawn from, alongside the paper's expected shape.
//!
//! ```text
//! repro [--fig 11|12|13] [--table S] [--ablations] [--replay] [--all]
//!       [--csv DIR] [--cache MB]
//! ```
//!
//! With no arguments, `--all` is assumed. Timings are minima over a few
//! runs; see EXPERIMENTS.md for recorded results and commentary. This
//! binary reproduces figures and nothing else: correctness gates are
//! `cargo test`, the perf record is `BENCHMARK.json` / `perfbench`, and
//! no mode writes a tracked file.

use bench::baselines::multiple_mdx;
use bench::figures::{Figure, Series};
use bench::min_time;
use bench::setup::{
    context, default_workforce, fig13_workforce, first_months, quarterly, run, Fig12Rig,
};
use olap_mdx::{Grid, QueryContext};
use olap_store::SeekModel;
use olap_workload::{replay_scenarios, Workforce, WorkforceConfig};
use std::sync::Arc;
use whatif_core::{
    apply, execute, merge, ExecOpts, Fnv64, Mode, OrderPolicy, PerspectiveSpec, Plan,
    ScenarioCache, Semantics,
};

const ITERS: u32 = 3;

const USAGE: &str = "usage: repro [--fig N]… [--table S] [--ablations] [--replay] [--all] \
                     [--csv DIR] [--cache MB]";

/// Every flag error ends here: the message on stderr, exit status 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut figs: Vec<&str> = Vec::new();
    let mut table_s = false;
    let mut ablations = false;
    let mut replay = false;
    let mut csv_dir: Option<String> = None;
    let mut cache_mb = 0usize;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--cache" => {
                cache_mb = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage_error("--cache needs a size in MB (0 disables)"));
            }
            "--replay" => replay = true,
            "--fig" => figs.push(match args.next().as_deref() {
                Some("11") => "11",
                Some("12") => "12",
                Some("13") => "13",
                other => usage_error(&format!("unknown figure {other:?} (expected 11, 12 or 13)")),
            }),
            "--table" => match args.next().as_deref() {
                Some("S") | Some("s") => table_s = true,
                other => usage_error(&format!("unknown table {other:?} (expected S)")),
            },
            "--ablations" => ablations = true,
            "--csv" => {
                csv_dir = Some(
                    args.next()
                        .unwrap_or_else(|| usage_error("--csv needs a directory")),
                );
            }
            "--all" => {
                figs = vec!["11", "12", "13"];
                table_s = true;
                ablations = true;
                replay = true;
            }
            other => usage_error(&format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if figs.is_empty() && !table_s && !ablations && !replay {
        figs = vec!["11", "12", "13"];
        table_s = true;
        ablations = true;
        replay = true;
    }

    let mut outputs: Vec<Figure> = Vec::new();
    if table_s {
        print_table_s();
    }
    for f in figs {
        let fig = match f {
            "11" => fig11(),
            "12" => fig12(),
            "13" => fig13(),
            _ => unreachable!(),
        };
        println!("{fig}");
        outputs.push(fig);
    }
    if ablations {
        run_ablations();
    }
    if replay {
        run_replay(cache_mb);
    }
    if let Some(dir) = csv_dir {
        std::fs::create_dir_all(&dir).expect("create csv dir");
        for fig in &outputs {
            let name = fig
                .id
                .replace(". ", "_")
                .replace([' ', '.'], "_")
                .to_lowercase();
            let path = format!("{dir}/{name}.csv");
            std::fs::write(&path, fig.to_csv()).expect("write csv");
            println!("wrote {path}");
        }
    }
}

/// "Table S": the dataset-summary statistics the paper's setup paragraph
/// reports, paper value vs. this build.
fn print_table_s() {
    println!("=== Table S — dataset summary (paper vs. this build) ===");
    let wf = default_workforce();
    let varying = wf.schema.varying(wf.department).unwrap();
    let rows: Vec<(&str, String, String)> = vec![
        ("dimensions", "7".into(), wf.schema.dim_count().to_string()),
        (
            "employees",
            "20,250".into(),
            wf.config.employees.to_string(),
        ),
        (
            "departments",
            "51".into(),
            wf.config.departments.to_string(),
        ),
        (
            "changing employees",
            "250 (1%)".into(),
            format!(
                "{} ({:.1}%)",
                wf.movers.len(),
                100.0 * wf.movers.len() as f64 / wf.config.employees as f64
            ),
        ),
        ("moves per changer", "1–11".into(), {
            let min = wf.movers.iter().map(|&(_, c)| c).min().unwrap_or(0);
            let max = wf.movers.iter().map(|&(_, c)| c).max().unwrap_or(0);
            format!("{min}–{max}")
        }),
        ("months", "12".into(), wf.config.months.to_string()),
        ("measures", "100".into(), wf.config.accounts.to_string()),
        ("scenarios", "5".into(), wf.config.scenarios.to_string()),
        (
            "employee instances",
            "—".into(),
            varying.instance_count().to_string(),
        ),
        (
            "input cells",
            "121,000,000".into(),
            wf.input_cells().to_string(),
        ),
        (
            "materialized chunks",
            "—".into(),
            wf.cube.chunk_count().to_string(),
        ),
    ];
    println!("{:<22} {:>14} {:>14}", "statistic", "paper", "this build");
    for (k, p, o) in rows {
        println!("{k:<22} {p:>14} {o:>14}");
    }
    println!("(scale: 1/10th linear — see DESIGN.md §2)\n");
}

/// Fig. 11 over query forms whose answer depends on k: Fig. 10(a)'s
/// employee rows under `STATIC VISUAL` (the Static series and the
/// Multiple-MDX simulation of it), and department rows under `STATIC
/// VISUAL` and `DYNAMIC FORWARD VISUAL`. Employee rows under `DYNAMIC
/// FORWARD VISUAL` would not do: from Jan on, a relocation only moves
/// cells between one employee's instances, so each month's total stays.
fn fig11() -> Figure {
    eprintln!("[fig11] building workload…");
    let wf = default_workforce();
    let ctx = context(&wf);
    let ks = [1usize, 2, 3, 4, 6, 8, 10, 12];
    type Form = fn(&Workforce, &[&str], &str) -> String;
    let forms: [(&str, Form, &str); 3] = [
        ("Static", Workforce::fig10a_query_sem, "STATIC VISUAL"),
        (
            "Static, dept rows",
            Workforce::department_query_sem,
            "STATIC VISUAL",
        ),
        (
            "Dynamic Forward, dept rows",
            Workforce::department_query_sem,
            "DYNAMIC FORWARD VISUAL",
        ),
    ];
    let mut multi = series("Multiple MDX");
    let mut direct: Vec<Series> = forms.iter().map(|f| series(f.0)).collect();
    for &k in &ks {
        let months = first_months(k);
        for (s, (_, form, clause)) in direct.iter_mut().zip(&forms) {
            let q = form(&wf, &months, clause);
            time_point("fig11", s, k as f64, &without_with(&ctx, &q), || {
                run(&ctx, &q)
            });
        }
        let plain = without_with(&ctx, &wf.fig10a_query_sem(&months, "STATIC VISUAL"));
        time_point("fig11", &mut multi, k as f64, &plain, || {
            multiple_mdx(&ctx, &wf, &months)
        });
    }
    Figure {
        id: "Fig. 11".into(),
        title: "number of perspectives vs. query time".into(),
        x_label: "perspectives".into(),
        y_label: "query time (ms, min of runs)".into(),
        series: std::iter::once(multi).chain(direct).collect(),
        paper_expectation: "all linear in k; direct multi-perspective beats the Multiple-MDX \
                            simulation; Static ≈ Forward beyond ~6 perspectives"
            .into(),
    }
}

/// An empty series.
fn series(name: &str) -> Series {
    Series {
        name: name.into(),
        points: Vec::new(),
    }
}

/// The grid of `query` without its `WITH` clause.
fn without_with(ctx: &QueryContext<'_>, query: &str) -> Grid {
    run(ctx, &query[query.find("SELECT").expect("a SELECT")..])
}

/// Times `answer` (min of runs) as the point at `x` and prints a digest
/// of its grid (FNV-64 of its CSV) and whether it equals `plain`, the
/// same query's grid without its `WITH` clause: so a reader sees whether
/// a point shows its scenario and how the answer moves along the x-axis.
fn time_point(fig: &str, s: &mut Series, x: f64, plain: &Grid, mut answer: impl FnMut() -> Grid) {
    let t = min_time(ITERS, &mut answer);
    s.points.push((x, t.as_secs_f64() * 1e3));
    let digest = |grid: &Grid| {
        let mut h = Fnv64::new();
        for b in grid.to_csv().bytes() {
            h.write_u8(b);
        }
        h.finish()
    };
    let (grid, plain) = (digest(&answer()), digest(plain));
    let eq = if grid == plain { "=" } else { "≠" };
    println!(
        "[{fig}] {x:>2} {:<26} grid {grid:016x} {eq} grid without WITH",
        s.name
    );
}

fn fig12() -> Figure {
    eprintln!("[fig12] building file-backed rig…");
    let rig = Fig12Rig::build();
    let base = (rig.other_chunks.len() / 6).max(10);
    rig.set_separation(base, SeekModel::default_disk());
    let base_bytes = rig.separation_bytes().max(1);
    // Saturate between ×2 and ×3 of the base separation, like a disk
    // arm's full stroke.
    // Saturates at 2.5× the base separation — the "full stroke".
    let seek = SeekModel {
        ns_per_byte: 2_000_000.0 / (2.5 * base_bytes as f64),
        max_ns: 2_000_000,
    };
    let mut pts = Vec::new();
    for multiple in 1..=5usize {
        rig.set_separation(base * multiple, seek);
        let sep = rig.separation_bytes();
        let t = min_time(ITERS, || rig.run_query());
        pts.push((multiple as f64, t.as_secs_f64() * 1e6));
        eprintln!(
            "[fig12] ×{multiple}: separation {sep} bytes ({} chunks)",
            base * multiple
        );
    }
    Figure {
        id: "Fig. 12".into(),
        title: "related-chunk co-location vs. query time".into(),
        x_label: "separation (multiples of base)".into(),
        y_label: "query time (µs, min of runs; simulated seek)".into(),
        series: vec![Series {
            name: "Dynamic Forward (1 employee)".into(),
            points: pts,
        }],
        paper_expectation: "rises with separation, then flattens once seek cost saturates".into(),
    }
}

/// Fig. 13: Fig. 10(c) under `STATIC VISUAL` over the first n 4-move
/// employees, so each point's grid shows the perspectives.
fn fig13() -> Figure {
    eprintln!("[fig13] building 4-move workload…");
    let wf = fig13_workforce(25);
    let ctx = context(&wf);
    let p = quarterly();
    let mut s = series("Static, 4 perspectives");
    for &n in &[5u32, 10, 15, 20, 25] {
        let q = wf.fig10c_query_sem(&p, n, "STATIC VISUAL");
        time_point("fig13", &mut s, n as f64, &without_with(&ctx, &q), || {
            run(&ctx, &q)
        });
    }
    Figure {
        id: "Fig. 13".into(),
        title: "varying member instances in scope vs. query time".into(),
        x_label: "employees (paper scale ×10)".into(),
        y_label: "query time (ms, min of runs)".into(),
        series: vec![s],
        paper_expectation: "linear in the number of varying member instances".into(),
    }
}

fn run_ablations() {
    println!("=== Ablations ===");
    // Pebbling vs naive on the paper's Fig. 9 graph.
    let g = merge::MergeGraph::fig9();
    println!(
        "fig9 pebbles: heuristic {}, naive order {}, optimal {}",
        merge::pebbles_for_order(&g, &OrderPolicy::Pebbling.read_order(&g)),
        merge::pebbles_for_order(&g, &OrderPolicy::Naive.read_order(&g)),
        merge::optimal_pebbles(&g),
    );
    // Pebbling + Lemma 5.1 on a dense-move workload.
    let wf = Workforce::build(WorkforceConfig {
        changing: 120,
        ..WorkforceConfig::bench()
    });
    // One pass over the whole forward map, so the policies differ in read
    // order alone.
    let spec = PerspectiveSpec::new(wf.department, [0, 6], Semantics::Forward, Mode::Visual);
    let map = Plan::build(&wf.cube, &spec, &OrderPolicy::Naive, None)
        .unwrap()
        .map()
        .clone();
    for (name, policy) in [
        ("pebbling        ", OrderPolicy::Pebbling),
        ("naive           ", OrderPolicy::Naive),
        (
            "param-dim first ",
            OrderPolicy::DimOrder(vec![0, 2, 3, 4, 5, 6, 1]),
        ),
    ] {
        let plan = Plan::from_maps(
            &wf.cube,
            wf.department,
            map.clone(),
            vec![map.clone()],
            policy,
            None,
        )
        .unwrap();
        let run = || execute(&wf.cube, &plan, &ExecOpts::default()).unwrap();
        let t = min_time(ITERS, run);
        let (_, report) = run();
        println!(
            "{name}: peak buffers {:>5}, predicted pebbles {:>4}, time {:>8.2} ms \
             (graph {} nodes / {} edges)",
            report.peak_out_buffers,
            report.predicted_pebbles,
            t.as_secs_f64() * 1e3,
            report.graph_nodes,
            report.graph_edges,
        );
    }
    // Visual re-derives non-leaf cells over the output cube, non-visual
    // retains the input's: the Fig. 10(a) query at 4 perspectives. Its
    // employee rows are derived cells, so non-visual `E` reads none of
    // them on the output, and no scenario runs.
    let wf = default_workforce();
    let ctx = context(&wf);
    let [nonvisual, visual] = ["NONVISUAL", "VISUAL"].map(|mode| {
        let q = wf.fig10a_query_sem(&first_months(4), &format!("DYNAMIC FORWARD {mode}"));
        let parsed = olap_mdx::parse(&q).expect("a Fig. 10(a) query");
        let run = olap_mdx::evaluate(&ctx, &parsed).expect("it runs");
        let ran = if run.report.is_some() {
            "scenario ran"
        } else {
            "no scenario"
        };
        let ms = min_time(ITERS, || olap_mdx::evaluate(&ctx, &parsed)).as_secs_f64() * 1e3;
        format!("{ms:>8.2} ms ({ran})")
    });
    println!("mode            : non-visual {nonvisual}, visual {visual}");
    println!();
}

/// The scenario-delta replay experiment: an analyst's edit session.
/// Each sequence of K=8 one-perspective edits runs twice — cache off,
/// then cache on — and the work counters are compared. The win is
/// structural on any hardware: every merge component whose fate table
/// an edit leaves unchanged is served from cache instead of being
/// re-read and re-merged.
fn run_replay(cache_mb: usize) {
    println!("=== Scenario-delta replay (K=8 one-perspective edits) ===");
    let wf = Workforce::build(WorkforceConfig::bench());
    let mb = if cache_mb > 0 { cache_mb } else { 64 };

    for (sem_name, semantics) in [("fwd", Semantics::Forward), ("static", Semantics::Static)] {
        let scenarios = replay_scenarios(wf.department, semantics);
        for (phase, cache) in [
            ("cache_off", None),
            (
                "cache_on",
                Some(Arc::new(ScenarioCache::with_capacity_mb(mb))),
            ),
        ] {
            let label = format!("replay_{sem_name}_{phase}");
            let opts = ExecOpts {
                cache: cache.clone(),
                ..ExecOpts::default()
            };
            let start = std::time::Instant::now();
            let mut chunk_reads = 0u64;
            let mut merges = 0u64;
            let mut served = 0u64;
            for s in &scenarios {
                let (_, report) = apply(&wf.cube, s, None, &opts).unwrap();
                chunk_reads += report.chunks_read;
                merges += report.merges;
                served += report.cache_chunks_served;
            }
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            let cstats = cache.as_ref().map(|c| c.stats()).unwrap_or_default();
            let hit_rate = if cstats.lookups > 0 {
                100.0 * cstats.hits as f64 / cstats.lookups as f64
            } else {
                0.0
            };
            println!(
                "{label:<24}: {wall_ms:>8.2} ms, {chunk_reads:>6} chunk reads, \
                 {merges:>6} merges, {served:>6} chunks served from cache \
                 (hit rate {hit_rate:.1}%, {} KiB resident)",
                cstats.bytes / 1024,
            );
        }
    }
    println!();
}
