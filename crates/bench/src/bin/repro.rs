//! Reproduces every evaluation figure of the paper and prints the series
//! its plots are drawn from, alongside the paper's expected shape.
//!
//! ```text
//! repro [--fig 11|12|13] [--table S] [--ablations] [--replay] [--all]
//!       [--faults [N]] [--crash-points] [--serve-bench [N]]
//!       [--chaos-bench [N]] [--replica-bench [N]]
//!       [--toggle-bench [K]] [--kernel-bench] [--csv DIR]
//!       [--threads N] [--prefetch K] [--cache MB] [--kernel scalar|runs]
//! ```
//!
//! With no arguments, `--all` is assumed. Timings are minima over a few
//! runs; see EXPERIMENTS.md for recorded results and commentary. No
//! mode writes a tracked file — the perf record is `BENCHMARK.json` /
//! `perfbench`; the `--*-bench` modes here are correctness gates that
//! print their counters and exit non-zero on a violation.

use bench::baselines::multiple_mdx;
use bench::figures::{Figure, Series};
use bench::min_time;
use bench::setup::{
    context, default_workforce, fig13_workforce, first_months, quarterly, run, Fig12Rig,
};
use olap_store::{FaultStore, SeekModel};
use olap_workload::{Workforce, WorkforceConfig};
use std::sync::Arc;
use whatif_core::{
    apply_opts, execute_passes_opts, merge, phi, DestMap, ExecOpts, Fnv64, KernelKind, Mode,
    OrderPolicy, Scenario, ScenarioCache, Semantics, Strategy,
};

const ITERS: u32 = 3;

/// Starts the cube's buffer-pool I/O workers when `--prefetch K` asks for
/// hinting (hints have no effect without them).
fn start_io_workers(cube: &olap_cube::Cube, opts: &ExecOpts) {
    if opts.prefetch > 0 {
        cube.start_io_threads(opts.prefetch.min(4));
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut figs: Vec<&str> = Vec::new();
    let mut table_s = false;
    let mut ablations = false;
    let mut replay = false;
    let mut csv_dir: Option<String> = None;
    // `--threads`, `--prefetch`, `--kernel` land in the one options
    // value every experiment below borrows.
    let mut opts = ExecOpts::default();
    let mut cache_mb = 0usize;
    let mut fault_schedules = 0u64;
    let mut crash_points = false;
    let mut serve_sessions = 0usize;
    let mut chaos_sessions = 0usize;
    let mut replica_followers = 0usize;
    let mut toggle_scenarios = 0usize;
    let mut kernel_bench = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--crash-points" => crash_points = true,
            "--kernel-bench" => kernel_bench = true,
            "--kernel" => {
                i += 1;
                opts.kernel = args
                    .get(i)
                    .and_then(|s| KernelKind::parse(s))
                    .unwrap_or_else(|| {
                        eprintln!("--kernel needs 'scalar' or 'runs'");
                        std::process::exit(2);
                    });
            }
            "--toggle-bench" => {
                // Optional scenario count; bare `--toggle-bench` toggles 2.
                match args.get(i + 1).and_then(|s| s.parse::<usize>().ok()) {
                    Some(n) if !(2..=8).contains(&n) => {
                        eprintln!("--toggle-bench needs 2..=8 scenarios");
                        std::process::exit(2);
                    }
                    Some(n) => {
                        toggle_scenarios = n;
                        i += 1;
                    }
                    None => toggle_scenarios = 2,
                }
            }
            "--serve-bench" => {
                // Optional session count; bare `--serve-bench` runs 32.
                match args.get(i + 1).and_then(|s| s.parse::<usize>().ok()) {
                    Some(0) => {
                        eprintln!("--serve-bench needs a positive session count");
                        std::process::exit(2);
                    }
                    Some(n) => {
                        serve_sessions = n;
                        i += 1;
                    }
                    None => serve_sessions = 32,
                }
            }
            "--chaos-bench" => {
                // Optional session count; bare `--chaos-bench` runs 8.
                match args.get(i + 1).and_then(|s| s.parse::<usize>().ok()) {
                    Some(0) => {
                        eprintln!("--chaos-bench needs a positive session count");
                        std::process::exit(2);
                    }
                    Some(n) => {
                        chaos_sessions = n;
                        i += 1;
                    }
                    None => chaos_sessions = 8,
                }
            }
            "--replica-bench" => {
                // Optional follower count; bare `--replica-bench` runs 4.
                match args.get(i + 1).and_then(|s| s.parse::<usize>().ok()) {
                    Some(0) => {
                        eprintln!("--replica-bench needs a positive follower count");
                        std::process::exit(2);
                    }
                    Some(n) => {
                        replica_followers = n;
                        i += 1;
                    }
                    None => replica_followers = 4,
                }
            }
            "--faults" => {
                // Optional schedule count; bare `--faults` runs 8.
                match args.get(i + 1).and_then(|s| s.parse::<u64>().ok()) {
                    Some(0) => {
                        eprintln!("--faults needs a positive schedule count");
                        std::process::exit(2);
                    }
                    Some(n) => {
                        fault_schedules = n;
                        i += 1;
                    }
                    None => fault_schedules = 8,
                }
            }
            "--cache" => {
                i += 1;
                cache_mb = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--cache needs a size in MB (0 disables)");
                    std::process::exit(2);
                });
            }
            "--replay" => replay = true,
            "--threads" => {
                i += 1;
                opts.threads = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| {
                        eprintln!("--threads needs a positive integer");
                        std::process::exit(2);
                    });
            }
            "--prefetch" => {
                i += 1;
                opts.prefetch = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--prefetch needs a non-negative integer");
                    std::process::exit(2);
                });
            }
            "--fig" => {
                i += 1;
                figs.push(match args.get(i).map(String::as_str) {
                    Some("11") => "11",
                    Some("12") => "12",
                    Some("13") => "13",
                    other => {
                        eprintln!("unknown figure {other:?} (expected 11, 12 or 13)");
                        std::process::exit(2);
                    }
                });
            }
            "--table" => {
                i += 1;
                match args.get(i).map(String::as_str) {
                    Some("S") | Some("s") => table_s = true,
                    other => {
                        eprintln!("unknown table {other:?} (expected S)");
                        std::process::exit(2);
                    }
                }
            }
            "--ablations" => ablations = true,
            "--csv" => {
                i += 1;
                csv_dir = Some(args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--csv needs a directory");
                    std::process::exit(2);
                }));
            }
            "--all" => {
                figs = vec!["11", "12", "13"];
                table_s = true;
                ablations = true;
                replay = true;
            }
            other => {
                eprintln!("unknown argument {other:?}");
                eprintln!(
                    "usage: repro [--fig N]… [--table S] [--ablations] [--replay] [--all] \
                     [--faults [N]] [--crash-points] [--serve-bench [N]] [--chaos-bench [N]] \
                     [--replica-bench [N]] [--toggle-bench [K]] [--kernel-bench] [--csv DIR] \
                     [--threads N] [--prefetch K] [--cache MB] [--kernel scalar|runs]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if figs.is_empty()
        && !table_s
        && !ablations
        && !replay
        && fault_schedules == 0
        && !crash_points
        && serve_sessions == 0
        && chaos_sessions == 0
        && replica_followers == 0
        && toggle_scenarios == 0
        && !kernel_bench
    {
        figs = vec!["11", "12", "13"];
        table_s = true;
        ablations = true;
        replay = true;
    }

    let mut outputs: Vec<Figure> = Vec::new();
    if table_s {
        print_table_s();
    }
    if opts.threads > 1 {
        println!("(executor parallelism: {} threads)", opts.threads);
        println!(
            "(note: with --threads >= 2, peak-buffer and chunks-scanned figures sum over \
             workers — each worker streams the base once — so they are not comparable to \
             the paper's serial Sec. 5 measurements; use --threads 1 to reproduce those. \
             The aggregator's shared-gauge `concurrent peak` figure, printed by \
             --kernel-bench, IS the true simultaneous residency)\n"
        );
    }
    if opts.prefetch > 0 {
        println!("(chunk prefetch lookahead: {})", opts.prefetch);
    }
    if opts.kernel == KernelKind::Scalar {
        println!("(executor kernel: scalar oracle — use --kernel runs for the fast path)");
    }
    for f in figs {
        let fig = match f {
            "11" => fig11(&opts),
            "12" => fig12(&opts),
            "13" => fig13(&opts),
            _ => unreachable!(),
        };
        println!("{fig}");
        outputs.push(fig);
    }
    if ablations {
        run_ablations(&opts);
    }
    if replay {
        run_replay(&opts, cache_mb);
    }
    if fault_schedules > 0 {
        run_faults(&opts, fault_schedules);
    }
    if crash_points {
        run_crash_points();
    }
    if serve_sessions > 0 {
        run_serve_bench(serve_sessions, cache_mb);
    }
    if chaos_sessions > 0 {
        run_chaos_bench(chaos_sessions, cache_mb);
    }
    if replica_followers > 0 {
        run_replica_bench(replica_followers);
    }
    if toggle_scenarios > 0 {
        run_toggle_bench(toggle_scenarios, cache_mb, &opts);
    }
    if kernel_bench {
        run_kernel_bench(&opts);
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

fn fig11(opts: &ExecOpts) -> Figure {
    eprintln!("[fig11] building workload…");
    let wf = default_workforce();
    start_io_workers(&wf.cube, opts);
    let mut ctx = context(&wf);
    ctx.opts = opts.clone();
    let ks = [1usize, 2, 3, 4, 6, 8, 10, 12];
    let mut static_s = Vec::new();
    let mut fwd_s = Vec::new();
    let mut multi_s = Vec::new();
    for &k in &ks {
        let months = first_months(k);
        let q = wf.fig10a_query(&months);
        let t = min_time(ITERS, || run(&ctx, &q));
        static_s.push((k as f64, t.as_secs_f64() * 1e3));
        let q = wf.fig10a_query_sem(&months, "DYNAMIC FORWARD");
        let t = min_time(ITERS, || run(&ctx, &q));
        fwd_s.push((k as f64, t.as_secs_f64() * 1e3));
        let t = min_time(ITERS, || multiple_mdx(&ctx, &wf, &months));
        multi_s.push((k as f64, t.as_secs_f64() * 1e3));
        eprintln!("[fig11] k={k} done");
    }
    Figure {
        id: "Fig. 11".into(),
        title: "number of perspectives vs. query time".into(),
        x_label: "perspectives".into(),
        y_label: "query time (ms, min of runs)".into(),
        series: vec![
            Series {
                name: "Multiple MDX".into(),
                points: multi_s,
            },
            Series {
                name: "Static".into(),
                points: static_s,
            },
            Series {
                name: "Dynamic Forward".into(),
                points: fwd_s,
            },
        ],
        paper_expectation: "all linear in k; direct multi-perspective beats the Multiple-MDX \
                            simulation; Static ≈ Forward beyond ~6 perspectives"
            .into(),
    }
}

fn fig12(opts: &ExecOpts) -> Figure {
    let prefetch = opts.prefetch;
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
        let t = min_time(ITERS, || rig.run_query_with(prefetch));
        pts.push((multiple as f64, t.as_secs_f64() * 1e6));
        eprintln!(
            "[fig12] ×{multiple}: separation {sep} bytes ({} chunks)",
            base * multiple
        );
    }
    let st = rig.wf.cube.with_pool(|pool| pool.stats());
    println!(
        "[fig12] pool prefetch counters (whole sweep): issued {}, hits {}, wasted {}",
        st.prefetch_issued, st.prefetch_hits, st.prefetch_wasted
    );
    let name = if prefetch > 0 {
        format!("Dynamic Forward (1 employee, prefetch {prefetch})")
    } else {
        "Dynamic Forward (1 employee)".to_string()
    };
    Figure {
        id: "Fig. 12".into(),
        title: "related-chunk co-location vs. query time".into(),
        x_label: "separation (multiples of base)".into(),
        y_label: "query time (µs, min of runs; simulated seek)".into(),
        series: vec![Series { name, points: pts }],
        paper_expectation: "rises with separation, then flattens once seek cost saturates".into(),
    }
}

fn fig13(opts: &ExecOpts) -> Figure {
    eprintln!("[fig13] building 4-move workload…");
    let wf = fig13_workforce(25);
    start_io_workers(&wf.cube, opts);
    let mut ctx = context(&wf);
    ctx.opts = opts.clone();
    let p = quarterly();
    let mut pts = Vec::new();
    for &n in &[5u32, 10, 15, 20, 25] {
        let q = wf.fig10c_query(&p, n);
        let t = min_time(ITERS, || run(&ctx, &q));
        pts.push((n as f64, t.as_secs_f64() * 1e3));
        eprintln!("[fig13] n={n} done");
    }
    Figure {
        id: "Fig. 13".into(),
        title: "varying member instances in scope vs. query time".into(),
        x_label: "employees (paper scale ×10)".into(),
        y_label: "query time (ms, min of runs)".into(),
        series: vec![Series {
            name: "Static, 4 perspectives".into(),
            points: pts,
        }],
        paper_expectation: "linear in the number of varying member instances".into(),
    }
}

fn run_ablations(opts: &ExecOpts) {
    println!("=== Ablations ===");
    // Pebbling vs naive on the paper's Fig. 9 graph.
    let g = merge::MergeGraph::fig9();
    println!(
        "fig9 pebbles: heuristic {}, naive order {}, optimal {}",
        merge::pebbles_for_order(&g, &merge::heuristic_order(&g)),
        merge::pebbles_for_order(&g, &merge::naive_order(&g)),
        merge::optimal_pebbles(&g),
    );
    // Pebbling + Lemma 5.1 on a dense-move workload.
    let wf = Workforce::build(WorkforceConfig {
        employees: 400,
        departments: 12,
        changing: 120,
        employee_extent: 1,
        accounts: 4,
        scenarios: 2,
        ..WorkforceConfig::default()
    });
    start_io_workers(&wf.cube, opts);
    let varying = wf.schema.varying(wf.department).unwrap();
    let vs_out = phi(Semantics::Forward, varying.instances(), &[0, 6], 12);
    let map = DestMap::build(&wf.cube, wf.department, &vs_out).unwrap();
    let single = std::slice::from_ref(&map);
    for (name, policy) in [
        ("pebbling        ", OrderPolicy::Pebbling),
        ("naive           ", OrderPolicy::Naive),
        (
            "param-dim first ",
            OrderPolicy::DimOrder(vec![0, 2, 3, 4, 5, 6, 1]),
        ),
    ] {
        let run = || {
            let opts = opts.clone();
            execute_passes_opts(&wf.cube, wf.department, &map, single, &policy, None, opts).unwrap()
        };
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
    println!();
}

/// `--faults N`: run the replay what-if under `N` seed-derived fault
/// schedules (see `FaultStore::with_random_plan`) and check the
/// robustness invariant of DESIGN.md §11 on each: the query either
/// returns `Err` or a perspective cube bit-identical to the fault-free
/// baseline — never a silently wrong answer. Exits non-zero if any
/// schedule violates the invariant, so the sweep is CI-usable.
fn run_faults(opts: &ExecOpts, schedules: u64) {
    println!("=== Fault injection ({schedules} seeded schedules) ===");
    let build = || {
        Workforce::build(WorkforceConfig {
            employees: 400,
            departments: 12,
            changing: 80,
            employee_extent: 1,
            accounts: 4,
            scenarios: 2,
            ..WorkforceConfig::default()
        })
    };
    let strategy = Strategy::Chunked(OrderPolicy::Pebbling);
    let baseline = {
        let wf = build();
        let s = Scenario::negative(wf.department, [0, 6], Semantics::Forward, Mode::Visual);
        apply_opts(&wf.cube, &s, &strategy, None, opts.clone()).unwrap()
    };
    let mut violations = 0u64;
    let mut absorbed = 0u64;
    let mut errored = 0u64;
    for seed in 0..schedules {
        let wf = build();
        start_io_workers(&wf.cube, opts);
        wf.cube.flush().unwrap();
        let mut plan = String::new();
        wf.cube.with_pool(|pool| {
            pool.clear().unwrap();
            pool.wrap_store(|s| {
                let fs = FaultStore::with_random_plan(s, seed);
                plan = format!("{:?}", fs.plan());
                Box::new(fs)
            });
        });
        let scenario = Scenario::negative(wf.department, [0, 6], Semantics::Forward, Mode::Visual);
        let start = std::time::Instant::now();
        let r = apply_opts(&wf.cube, &scenario, &strategy, None, opts.clone());
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let st = wf.cube.with_pool(|pool| {
            pool.wait_prefetch_idle();
            pool.stats()
        });
        let fired = wf.cube.with_pool(|pool| {
            pool.store()
                .as_any()
                .downcast_ref::<FaultStore>()
                .map(|f| f.faults_injected())
                .unwrap_or(0)
        });
        let outcome = match r {
            Ok(res) if res.cube.same_cells(&baseline.cube).unwrap() => {
                absorbed += 1;
                "ok, bit-identical".to_string()
            }
            Ok(_) => {
                violations += 1;
                "SILENT DIVERGENCE — invariant violated".to_string()
            }
            Err(e) => {
                errored += 1;
                format!("err: {e}")
            }
        };
        println!(
            "seed {seed:>3}: {wall_ms:>8.2} ms, {fired:>2} faults fired, \
             {:>2} read errors, {:>2} retries — {outcome}",
            st.read_errors, st.retries
        );
        println!("          plan {plan}");
    }
    println!(
        "invariant held on {}/{schedules} schedules \
         ({absorbed} absorbed, {errored} clean errors)",
        absorbed + errored
    );
    println!();
    if violations > 0 {
        eprintln!("{violations} schedule(s) produced a silently wrong answer");
        std::process::exit(1);
    }
}

/// `--crash-points`: the WAL atomicity sweep of DESIGN.md §12. For every
/// (checksums × compression) store configuration, run a pool flush with a
/// crash injected after every possible physical store op (WAL appends,
/// main-log appends, fsyncs, truncations) and reopen. The recovered store
/// must be cell-identical to the pre-flush or the post-flush image —
/// never a mix. Also times steady-state flushes with the WAL on vs. off
/// (the overhead number recorded in EXPERIMENTS.md). Exits non-zero on
/// any violation, so the sweep is CI-usable.
fn run_crash_points() {
    use olap_store::{BufferPool, CellValue, Chunk, ChunkId, ChunkStore, FileStore};
    use std::collections::BTreeMap;

    println!("=== WAL crash-point sweep ===");
    let dir = std::env::temp_dir();
    let tmp = |name: &str| dir.join(format!("repro-crash-{}-{name}.cube", std::process::id()));
    let cleanup = |p: &std::path::Path| {
        std::fs::remove_file(p).ok();
        std::fs::remove_file(olap_store::wal::sidecar_path(p)).ok();
    };
    let chunk = |v: f64| {
        let mut c = Chunk::new_dense(vec![16]);
        for j in 0..16u32 {
            c.set(j, CellValue::num(v + j as f64));
        }
        c
    };
    let image = |s: &FileStore| -> BTreeMap<u64, Chunk> {
        s.ids()
            .into_iter()
            .map(|id| (id.0, s.read(id).unwrap()))
            .collect()
    };
    let matches = |got: &BTreeMap<u64, Chunk>, want: &BTreeMap<u64, Chunk>| {
        got.len() == want.len()
            && got
                .iter()
                .all(|(id, c)| want.get(id).is_some_and(|w| c.same_cells(w)))
    };

    let mut violations = 0u64;
    for checksums in [false, true] {
        for compressed in [false, true] {
            let tag = format!(
                "{}/{}",
                if compressed { "olc2" } else { "olc1" },
                if checksums { "crc" } else { "plain" }
            );
            let pre: BTreeMap<u64, Chunk> = (0..6u64).map(|i| (i, chunk(i as f64))).collect();
            let mut post = pre.clone();
            for i in 0..4u64 {
                post.insert(i, chunk(1000.0 + i as f64));
            }
            post.insert(42, chunk(4242.0));
            let dirty: Vec<u64> = vec![0, 1, 2, 3, 42];

            // One run; `crash_op = None` is the dry run that learns the
            // deterministic op-schedule length.
            let run = |crash_op: Option<u64>, path: &std::path::Path| -> (bool, u64) {
                cleanup(path);
                let mut s = FileStore::create(path).unwrap();
                s.set_checksums(checksums);
                s.set_compression(compressed);
                let pool = BufferPool::new(Box::new(s), 32);
                for (id, c) in &pre {
                    pool.put(ChunkId(*id), c.clone()).unwrap();
                }
                pool.flush_all().unwrap();
                let ops_at = |pool: &BufferPool| {
                    let guard = pool.store();
                    guard
                        .as_any()
                        .downcast_ref::<FileStore>()
                        .unwrap()
                        .phys_ops()
                };
                let before = ops_at(&pool);
                {
                    let mut guard = pool.store_mut();
                    let fs = guard.as_any_mut().downcast_mut::<FileStore>().unwrap();
                    fs.set_crash_after_ops(crash_op);
                }
                for id in &dirty {
                    pool.put(ChunkId(*id), post[id].clone()).unwrap();
                }
                let ok = pool.flush_all().is_ok();
                let ops = ops_at(&pool) - before;
                (ok, ops)
            };

            let dry = tmp(&format!("dry-{}-{}", checksums as u8, compressed as u8));
            let (_, total_ops) = run(None, &dry);
            cleanup(&dry);

            let (mut rolled_back, mut redone) = (0u64, 0u64);
            let path = tmp(&format!("k-{}-{}", checksums as u8, compressed as u8));
            for k in 0..=total_ops {
                let (ok, _) = run(Some(k), &path);
                let got = image(&FileStore::open(&path).unwrap());
                if ok && !matches(&got, &post) {
                    violations += 1;
                    eprintln!("{tag}: k={k} flush committed but post image lost");
                } else if matches(&got, &pre) {
                    rolled_back += 1;
                } else if matches(&got, &post) {
                    redone += 1;
                } else {
                    violations += 1;
                    eprintln!("{tag}: k={k} recovered a MIXED image ({:?})", got.keys());
                }
                cleanup(&path);
            }
            println!(
                "{tag:<11}: {total_ops:>2} crash points — {rolled_back} rolled back, \
                 {redone} redone, all exact"
            );
        }
    }

    // Steady-state overhead, three durability tiers: atomic+durable
    // (WAL on), durable-but-torn-on-crash (WAL off, fsync per flush),
    // and neither (WAL off, no fsync — the pure logging baseline).
    let mut per_flush = [0.0f64; 3];
    for (slot, wal_on, durable, name) in [
        (0usize, true, false, "ovh-wal"),
        (1, false, true, "ovh-fsync"),
        (2, false, false, "ovh-none"),
    ] {
        let path = tmp(name);
        cleanup(&path);
        let mut s = FileStore::create(&path).unwrap();
        s.set_wal(wal_on);
        let pool = BufferPool::new(Box::new(s), 32);
        pool.set_durable_flush(durable);
        const FLUSHES: u32 = 200;
        let start = std::time::Instant::now();
        for round in 0..FLUSHES {
            for i in 0..8u64 {
                let mut c = Chunk::new_dense(vec![16]);
                c.set(0, CellValue::num((round as u64 * 8 + i) as f64));
                pool.put(ChunkId(i), c).unwrap();
            }
            pool.flush_all().unwrap();
        }
        per_flush[slot] = start.elapsed().as_secs_f64() * 1e6 / f64::from(FLUSHES);
        cleanup(&path);
    }
    println!(
        "steady-state flush (8 dirty chunks): WAL {:.1} µs, fsync-only {:.1} µs \
         ({:+.1}% for atomicity), no-durability {:.1} µs",
        per_flush[0],
        per_flush[1],
        100.0 * (per_flush[0] / per_flush[1] - 1.0),
        per_flush[2],
    );
    println!();
    if violations > 0 {
        eprintln!("{violations} crash point(s) violated flush atomicity");
        std::process::exit(1);
    }
}

/// The one-perspective edit sequences replayed by `run_replay` (also
/// mirrored by the `scenario_cache` integration test). Each sequence
/// starts from a base perspective set and applies K=8 single-perspective
/// edits, so the cache sees 9 scenarios in a row.
pub fn replay_scenarios(
    department: olap_model::DimensionId,
    semantics: Semantics,
) -> Vec<Scenario> {
    let perspective_sets: Vec<Vec<u32>> = match semantics {
        // The analyst keeps early history pinned and nudges the *last*
        // perspective: under DYNAMIC FORWARD only movers with a move
        // after the second-to-last perspective are invalidated.
        Semantics::Forward => vec![
            vec![0, 3, 6, 9, 10],
            vec![0, 3, 6, 9, 11],
            vec![0, 3, 6, 9, 10],
            vec![0, 3, 6, 9, 11],
            vec![0, 3, 6, 9, 10],
            vec![0, 3, 6, 9, 11],
            vec![0, 3, 6, 9, 10],
            vec![0, 3, 6, 9, 11],
            vec![0, 3, 6, 9, 10],
        ],
        // Rotating one-month nudges: under STATIC an edit only touches
        // instances whose validity straddles the moved moment, so almost
        // every component survives each edit.
        _ => vec![
            vec![0, 3, 6, 9],
            vec![0, 3, 6, 10],
            vec![0, 3, 7, 10],
            vec![0, 4, 7, 10],
            vec![1, 4, 7, 10],
            vec![1, 4, 7, 9],
            vec![1, 4, 6, 9],
            vec![1, 3, 6, 9],
            vec![0, 3, 6, 9],
        ],
    };
    perspective_sets
        .into_iter()
        .map(|p| Scenario::negative(department, p, semantics, Mode::Visual))
        .collect()
}

/// The scenario-delta replay experiment: an analyst's edit session.
/// Each sequence of K=8 one-perspective edits runs twice — cache off,
/// then cache on — and the work counters are compared. The win is
/// structural on any hardware: every merge component whose fate table
/// an edit leaves unchanged is served from cache instead of being
/// re-read and re-merged.
fn run_replay(opts: &ExecOpts, cache_mb: usize) {
    println!("=== Scenario-delta replay (K=8 one-perspective edits) ===");
    let wf = Workforce::build(WorkforceConfig {
        employees: 400,
        departments: 12,
        changing: 80,
        employee_extent: 1,
        accounts: 4,
        scenarios: 2,
        ..WorkforceConfig::default()
    });
    start_io_workers(&wf.cube, opts);
    let strategy = Strategy::Chunked(OrderPolicy::Pebbling);
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
                ..opts.clone()
            };
            let start = std::time::Instant::now();
            let mut chunk_reads = 0u64;
            let mut merges = 0u64;
            let mut served = 0u64;
            for s in &scenarios {
                let r = apply_opts(&wf.cube, s, &strategy, None, opts.clone()).unwrap();
                chunk_reads += r.report.chunks_read;
                merges += r.report.merges;
                served += r.report.cache_chunks_served;
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

/// `--serve-bench N`: the multi-tenant correctness-and-throughput gate.
/// Starts an in-process `olap-server` over the `bench` dataset (the
/// `--replay` workforce configuration) with a shared scenario-delta
/// cache, replays N concurrent edit sessions against it over TCP, and
/// asserts every response is byte-identical to a serial replay of the
/// same scripts. The shell's `.apply` replies carry only deterministic
/// fields (cell count, an order-independent digest, pass count), so any
/// cross-session interference — a poisoned cache entry, a torn eviction,
/// a budget leaking between sessions — shows up as a diff, not a flake.
fn run_serve_bench(sessions: usize, cache_mb: usize) {
    use olap_server::{Server, ServerConfig, STATUS_OK};
    use polap_cli::{proto::Client, Dataset, Outcome, Session, SharedData};
    use std::sync::Arc;

    let cache_mb = if cache_mb == 0 { 64 } else { cache_mb };
    println!("=== serve-bench — {sessions} concurrent sessions vs. serial replay ===");

    // Every session replays a deterministic edit script: the analyst
    // keeps editing the perspective set and re-applying, then asks for
    // a budgeted rollup. Scripts differ per session so the shared cache
    // sees both reuse (sessions on the same step) and churn.
    let script = |i: usize| -> Vec<String> {
        const MOMENT_SETS: [&str; 5] = ["0,3,6,9", "0,3", "6,9", "0,9", "3,6"];
        let mut cmds = Vec::new();
        for step in 0..5 {
            let sem = if (i + step).is_multiple_of(2) {
                "forward"
            } else {
                "static"
            };
            cmds.push(format!(
                ".apply {sem} {}",
                MOMENT_SETS[(i + 2 * step) % MOMENT_SETS.len()]
            ));
        }
        cmds.push(".rollup".to_string());
        cmds
    };

    // Serial baseline: the same scripts, one session after another, on a
    // private copy of the dataset with no cache at all.
    print!("serial baseline… ");
    std::io::Write::flush(&mut std::io::stdout()).ok();
    let serial_t0 = std::time::Instant::now();
    let serial_data = Arc::new(SharedData::load(Dataset::Bench));
    let expected: Vec<Vec<String>> = (0..sessions)
        .map(|i| {
            let mut session = Session::attach(serial_data.clone());
            script(i)
                .iter()
                .map(|cmd| match session.handle(cmd) {
                    Outcome::Continue(text) | Outcome::Quit(text) | Outcome::Deadline(text) => text,
                })
                .collect()
        })
        .collect();
    let serial_elapsed = serial_t0.elapsed();
    println!("done in {:.2} ms", serial_elapsed.as_secs_f64() * 1e3);

    let mut server_data = SharedData::load(Dataset::Bench);
    server_data.set_cache_mb(cache_mb);
    let server = Server::start(
        Arc::new(server_data),
        "127.0.0.1:0",
        ServerConfig {
            max_sessions: sessions,
            ..ServerConfig::default()
        },
    )
    .expect("bind serve-bench server");
    let addr = server.addr();

    let t0 = std::time::Instant::now();
    let workers: Vec<_> = (0..sessions)
        .map(|i| {
            std::thread::spawn(move || -> (Vec<String>, std::time::Duration) {
                let mut client = loop {
                    match Client::connect(addr) {
                        Ok(c) => break c,
                        // Slots free asynchronously as siblings quit.
                        Err(e) if e.kind() == std::io::ErrorKind::ConnectionRefused => {
                            std::thread::sleep(std::time::Duration::from_millis(2));
                        }
                        Err(e) => panic!("session {i}: connect: {e}"),
                    }
                };
                let mut replies = Vec::new();
                let mut busy = std::time::Duration::ZERO;
                for cmd in script(i) {
                    let q0 = std::time::Instant::now();
                    let (status, text) = client.request(&cmd).expect("request");
                    busy += q0.elapsed();
                    assert_eq!(status, STATUS_OK, "session {i}: {cmd}: {text}");
                    replies.push(text);
                }
                client.request(".quit").expect("quit");
                (replies, busy)
            })
        })
        .collect();
    let mut mismatches = 0usize;
    let mut requests = 0usize;
    let mut busy_total = std::time::Duration::ZERO;
    for (i, w) in workers.into_iter().enumerate() {
        let (replies, busy) = w.join().expect("serve-bench session panicked");
        busy_total += busy;
        requests += replies.len();
        if replies != expected[i] {
            mismatches += 1;
            for (got, want) in replies.iter().zip(&expected[i]) {
                if got != want {
                    eprintln!("session {i} diverged:\n  serial: {want}\n  server: {got}");
                }
            }
        }
    }
    let elapsed = t0.elapsed();
    server.shutdown();

    println!(
        "{sessions} sessions × {} requests: {:.2} ms wall ({:.0} req/s), \
         mean latency {:.2} ms, serial replay {:.2} ms",
        requests / sessions,
        elapsed.as_secs_f64() * 1e3,
        requests as f64 / elapsed.as_secs_f64(),
        busy_total.as_secs_f64() * 1e3 / requests as f64,
        serial_elapsed.as_secs_f64() * 1e3,
    );
    if mismatches > 0 {
        eprintln!("FAIL: {mismatches}/{sessions} sessions diverged from the serial replay");
        std::process::exit(1);
    }
    println!("all {sessions} sessions byte-identical to the serial replay\n");
}

/// `--chaos-bench N`: the network-fault gate (DESIGN.md §16). N
/// concurrent edit sessions run through a `ChaosProxy` whose
/// seed-reproducible plan injects delays, mid-frame cuts,
/// partial-frame stalls and refusals, against a server with idle
/// timeouts and drain-on-shutdown, using clients with bounded
/// retry/backoff and journal replay. Three fault-plan seeds run
/// back-to-back; the run exits non-zero unless, for every seed:
///
/// * every request either fails with a clean client-side error or
///   returns a reply byte-identical to a faultless serial replay of
///   the same script (the retry journal makes a reconnected session
///   answer exactly like the uninterrupted one);
/// * the server ends with zero live sessions — no admission slot
///   leaked by a cut, stalled or refused connection;
/// * the whole round finishes inside a wall-clock budget (no hangs).
fn run_chaos_bench(sessions: usize, cache_mb: usize) {
    use olap_server::chaos::{random_plan, ChaosProxy};
    use olap_server::{RetryPolicy, Server, ServerConfig, STATUS_OK};
    use polap_cli::{proto::Client, Dataset, Outcome, Session, SharedData};
    use std::sync::Arc;

    const SEEDS: [u64; 3] = [11, 29, 47];
    const ROUND_BUDGET: std::time::Duration = std::time::Duration::from_secs(120);

    let cache_mb = if cache_mb == 0 { 64 } else { cache_mb };
    println!("=== chaos-bench — {sessions} sessions through a fault proxy, seeds {SEEDS:?} ===");

    // The script leans on state-setting verbs on purpose: a fault that
    // kills the connection after `.fork`/`.apply` forces the client's
    // journal replay to rebuild the forest in a fresh session, and any
    // replay bug diverges the digests below.
    let script = |i: usize| -> Vec<String> {
        const MOMENT_SETS: [&str; 5] = ["0,3,6,9", "0,3", "6,9", "0,9", "3,6"];
        let sem = |step: usize| {
            if (i + step).is_multiple_of(2) {
                "forward"
            } else {
                "static"
            }
        };
        vec![
            format!(".apply {} {}", sem(0), MOMENT_SETS[i % 5]),
            ".fork alt".to_string(),
            format!(".apply {} {}", sem(1), MOMENT_SETS[(i + 2) % 5]),
            ".switch main".to_string(),
            ".apply".to_string(), // re-run main's scenario from the forest
            format!(".apply {} {}", sem(2), MOMENT_SETS[(i + 4) % 5]),
        ]
    };

    // Faultless serial baseline on a private, cache-less copy.
    print!("serial baseline… ");
    std::io::Write::flush(&mut std::io::stdout()).ok();
    let serial_data = Arc::new(SharedData::load(Dataset::Bench));
    let expected: Vec<Vec<String>> = (0..sessions)
        .map(|i| {
            let mut session = Session::attach(serial_data.clone());
            script(i)
                .iter()
                .map(|cmd| match session.handle(cmd) {
                    Outcome::Continue(text) | Outcome::Quit(text) | Outcome::Deadline(text) => text,
                })
                .collect()
        })
        .collect();
    println!("done");

    let mut failed = false;
    for seed in SEEDS {
        let t0 = std::time::Instant::now();
        let mut server_data = SharedData::load(Dataset::Bench);
        server_data.set_cache_mb(cache_mb);
        let server = Server::start(
            Arc::new(server_data),
            "127.0.0.1:0",
            ServerConfig {
                // Headroom over the session count: reconnects briefly
                // hold a dying slot and a fresh one at once.
                max_sessions: sessions * 2 + 4,
                idle_timeout_ms: 2_000,
                drain_grace_ms: 500,
                ..ServerConfig::default()
            },
        )
        .expect("bind chaos-bench server");
        // Plan over more connections than sessions: every reconnect
        // advances the accept-order index into fresh faults.
        let proxy = ChaosProxy::start(server.addr(), random_plan(seed, (sessions * 8) as u64))
            .expect("bind chaos proxy");
        let addr = proxy.addr();

        let workers: Vec<_> = (0..sessions)
            .map(|i| {
                let script = script(i);
                std::thread::spawn(move || -> (Vec<String>, usize, Option<String>) {
                    let retry = RetryPolicy::retries(10, seed ^ ((i as u64) << 8));
                    // The initial connect can be hit by a Refuse fault
                    // (EOF before greeting); bounded manual retries.
                    let mut client = None;
                    for _ in 0..20 {
                        match Client::connect_with(addr, retry.clone()) {
                            Ok(c) => {
                                client = Some(c);
                                break;
                            }
                            Err(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
                        }
                    }
                    let Some(mut client) = client else {
                        return (Vec::new(), 0, Some("never connected".to_string()));
                    };
                    let mut replies = Vec::new();
                    let mut clean_errors = 0usize;
                    for cmd in script {
                        match client.request(&cmd) {
                            Ok((STATUS_OK, text)) => replies.push(text),
                            // A non-OK frame without a deadline set
                            // means the server closed on us; count it
                            // as a clean error and stop — the rest of
                            // the script has no session.
                            Ok((_, _text)) => {
                                clean_errors += 1;
                                break;
                            }
                            Err(_) => {
                                clean_errors += 1;
                                break;
                            }
                        }
                    }
                    let _ = client.request(".quit");
                    (replies, clean_errors, None)
                })
            })
            .collect();

        let mut ok_replies = 0usize;
        let mut clean_errors = 0usize;
        let mut mismatches = 0usize;
        for (i, w) in workers.into_iter().enumerate() {
            let (replies, errs, fatal) = w.join().expect("chaos-bench session panicked");
            if let Some(msg) = fatal {
                eprintln!("session {i}: {msg}");
                clean_errors += 1;
                continue;
            }
            clean_errors += errs;
            ok_replies += replies.len();
            // Every acknowledged reply must match the faultless serial
            // replay prefix (a clean error may truncate the script).
            for (got, want) in replies.iter().zip(&expected[i]) {
                if got != want {
                    mismatches += 1;
                    eprintln!(
                        "seed {seed} session {i} diverged:\n  serial: {want}\n  chaos:  {got}"
                    );
                }
            }
        }

        // More accepted connections than sessions = reconnects = faults
        // actually fired and were healed.
        let conns = proxy.connections();
        proxy.shutdown();
        // Every slot must come home: cut, stalled, refused or drained,
        // no connection may leak its admission slot.
        let mut leaked = server.active_sessions();
        let drain_t0 = std::time::Instant::now();
        while leaked > 0 && drain_t0.elapsed() < std::time::Duration::from_secs(10) {
            std::thread::sleep(std::time::Duration::from_millis(10));
            leaked = server.active_sessions();
        }
        let forced = server.shutdown();
        let elapsed = t0.elapsed();
        println!(
            "seed {seed}: {ok_replies} replies matched, {clean_errors} clean errors, \
             {mismatches} mismatches, {conns} connections for {sessions} sessions, \
             {leaked} leaked, {forced} force-closed, {:.2} s",
            elapsed.as_secs_f64(),
        );
        if mismatches > 0 || leaked > 0 || elapsed > ROUND_BUDGET {
            failed = true;
        }
    }
    if failed {
        eprintln!("FAIL: chaos-bench violated a gate (divergence, leaked slot, or over budget)");
        std::process::exit(1);
    }
    println!("chaos-bench: every faulted request errored cleanly or matched the serial replay\n");
}

/// `--replica-bench N`: the WAL-shipping replication gate (DESIGN.md
/// §17). A file-backed leader commits a series of flushes while N
/// follower replicas — each seeded from the base image — stream them
/// with `.replicate`, under a per-follower random kill/restart
/// schedule (crash budgets injected mid-apply, then a fresh attach of
/// the same file). Gates, per seed:
///
/// * every follower restart lands on a *committed leader position*
///   (the recovered file is the pre- or post-image of some shipped
///   transaction, never a blend);
/// * every read served during catch-up either errors cleanly or
///   matches the leader's serial reply at one of its committed
///   epochs;
/// * every follower converges to a byte-identical store file;
/// * no session or sync thread panics (the registry and caches use
///   non-poisoning locks), and the round stays under its wall budget.
///
/// Exits non-zero on any violation (CI-usable).
fn run_replica_bench(followers: usize) {
    use olap_cube::StoreBackend;
    use olap_server::{enable_replication, Client, Follower, Server, ServerConfig, STATUS_OK};
    use olap_store::FileStore;
    use polap_cli::{Dataset, Outcome, Session, SharedData};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Mutex;

    const SEEDS: [u64; 3] = [11, 29, 47];
    const ROUNDS: u32 = 5;
    const READ: &str = ".apply forward 1,3";
    const ROUND_BUDGET: std::time::Duration = std::time::Duration::from_secs(120);

    println!("=== replica-bench — {followers} followers over WAL shipping, seeds {SEEDS:?} ===");
    let tmp = |tag: &str, seed: u64| {
        std::env::temp_dir().join(format!(
            "repro-replica-{}-{tag}-{seed}.cube",
            std::process::id()
        ))
    };
    let cleanup = |p: &std::path::Path| {
        std::fs::remove_file(p).ok();
        std::fs::remove_file(olap_store::wal::sidecar_path(p)).ok();
    };

    let mut failed = false;
    for seed in SEEDS {
        let t0 = std::time::Instant::now();
        let lpath = tmp("leader", seed);
        cleanup(&lpath);
        let leader_shared = Arc::new(
            SharedData::load_with_backend(Dataset::Bench, StoreBackend::File(lpath.clone()))
                .expect("file-backed bench dataset"),
        );
        let base = enable_replication(&leader_shared).expect("leader store is file-backed");
        let fpaths: Vec<_> = (0..followers)
            .map(|i| tmp(&format!("f{i}"), seed))
            .collect();
        for p in &fpaths {
            cleanup(p);
            std::fs::copy(&lpath, p).expect("seed follower base image");
        }
        let cfg = ServerConfig {
            max_sessions: followers * 4 + 8,
            drain_grace_ms: 500,
            ..ServerConfig::default()
        };
        let leader_srv =
            Server::start(leader_shared.clone(), "127.0.0.1:0", cfg.clone()).expect("bind leader");
        let leader_addr = leader_srv.addr();

        // Shared truth the follower threads check against: committed
        // positions (a recovered follower must stand at one), the
        // leader's serial reply at each committed epoch (a read during
        // catch-up must match one), and the done/final-position flags.
        let committed = Arc::new(Mutex::new(vec![base]));
        let oracle = Arc::new(Mutex::new(Vec::<String>::new()));
        let done = Arc::new(AtomicBool::new(false));
        let final_pos = Arc::new(AtomicU64::new(0));
        {
            // The epoch-0 (base image) reply.
            let mut s = Session::attach(leader_shared.clone());
            if let Outcome::Continue(text) = s.handle(READ) {
                oracle.lock().unwrap().push(text);
            }
        }

        let workers: Vec<_> = fpaths
            .iter()
            .enumerate()
            .map(|(i, fpath)| {
                let fpath = fpath.clone();
                let cfg = cfg.clone();
                let committed = committed.clone();
                let done = done.clone();
                let final_pos = final_pos.clone();
                std::thread::spawn(move || -> (u32, u32, u32, Vec<String>, Vec<String>) {
                    let mut rng = StdRng::seed_from_u64(seed ^ ((i as u64 + 1) << 16));
                    let mut restarts = 0u32;
                    let mut reads_ok = 0u32;
                    let mut clean_errors = 0u32;
                    let mut replies: Vec<String> = Vec::new();
                    let mut violations: Vec<String> = Vec::new();
                    loop {
                        // (Re)start: attach the store file — crash
                        // recovery runs here — and serve + sync.
                        let fshared = Arc::new(
                            SharedData::load_with_backend(
                                Dataset::Bench,
                                StoreBackend::Attach(fpath.clone()),
                            )
                            .expect("attach follower image"),
                        );
                        let follower = match Follower::start(
                            fshared.clone(),
                            "127.0.0.1:0",
                            cfg.clone(),
                            leader_addr,
                        ) {
                            Ok(f) => f,
                            Err(e) => {
                                violations.push(format!("follower {i} failed to start: {e}"));
                                break;
                            }
                        };
                        restarts += 1;
                        // Gate: a restarted follower stands at a
                        // committed leader position — the recovered
                        // image is pre- or post- some shipped
                        // transaction, never a blend.
                        let pos = follower.position();
                        if !committed.lock().unwrap().contains(&pos) {
                            violations.push(format!(
                                "follower {i} recovered to uncommitted position {pos}"
                            ));
                        }
                        std::thread::sleep(std::time::Duration::from_millis(
                            rng.random_range(20..120),
                        ));
                        // A read mid-catch-up: clean error or a reply
                        // the leader gave at some committed epoch
                        // (validated after the run — the oracle may
                        // still be growing here).
                        match Client::connect(follower.addr()) {
                            Ok(mut c) => match c.request(READ) {
                                Ok((STATUS_OK, text)) => {
                                    reads_ok += 1;
                                    replies.push(text);
                                    let _ = c.request(".quit");
                                }
                                Ok((_, _)) | Err(_) => clean_errors += 1,
                            },
                            Err(_) => clean_errors += 1,
                        }
                        if done.load(Ordering::Acquire)
                            && follower.position() >= final_pos.load(Ordering::Acquire)
                        {
                            follower.shutdown();
                            break;
                        }
                        // Kill: arm a crash budget so the next applies
                        // die mid-transaction, then wait briefly for
                        // the sync loop to park (a caught-up follower
                        // may simply see no traffic — that makes this
                        // a clean restart, also a valid schedule).
                        let budget = rng.random_range(0..12);
                        fshared.cube().with_pool(|p| {
                            let mut s = p.store_mut();
                            if let Some(fs) = s.as_any_mut().downcast_mut::<FileStore>() {
                                fs.set_crash_after_ops(Some(budget));
                            }
                        });
                        let kill_t0 = std::time::Instant::now();
                        while !follower.is_dead()
                            && kill_t0.elapsed() < std::time::Duration::from_millis(300)
                        {
                            std::thread::sleep(std::time::Duration::from_millis(10));
                        }
                        follower.shutdown();
                        drop(fshared);
                    }
                    (restarts, reads_ok, clean_errors, replies, violations)
                })
            })
            .collect();

        // The leader's commit schedule: mutate a few cells, flush,
        // record the committed position and the serial reply at this
        // epoch, breathe, repeat.
        let mut lrng = StdRng::seed_from_u64(seed);
        let lens: Vec<u32> = leader_shared.cube().geometry().lens().to_vec();
        for _round in 0..ROUNDS {
            for _ in 0..3 {
                let coords: Vec<u32> = lens.iter().map(|&l| lrng.random_range(0..l)).collect();
                let v = lrng.random_range(0.0..1000.0);
                leader_shared
                    .cube()
                    .set(&coords, olap_store::CellValue::num(v))
                    .expect("leader cell write");
            }
            leader_shared.cube().flush().expect("leader flush");
            let pos = leader_shared.cube().with_pool(|p| {
                p.store()
                    .as_any()
                    .downcast_ref::<FileStore>()
                    .expect("file-backed")
                    .replication_position()
            });
            committed.lock().unwrap().push(pos);
            let mut s = Session::attach(leader_shared.clone());
            if let Outcome::Continue(text) = s.handle(READ) {
                oracle.lock().unwrap().push(text);
            }
            std::thread::sleep(std::time::Duration::from_millis(60));
        }
        let pos = leader_shared.cube().with_pool(|p| {
            p.store()
                .as_any()
                .downcast_ref::<FileStore>()
                .expect("file-backed")
                .replication_position()
        });
        final_pos.store(pos, Ordering::Release);
        done.store(true, Ordering::Release);

        let mut restarts = 0u32;
        let mut reads_ok = 0u32;
        let mut clean_errors = 0u32;
        let mut violations: Vec<String> = Vec::new();
        let mut all_replies: Vec<Vec<String>> = Vec::new();
        for w in workers {
            let (r, ok, errs, replies, v) = w.join().expect("follower thread panicked");
            restarts += r;
            reads_ok += ok;
            clean_errors += errs;
            violations.extend(v);
            all_replies.push(replies);
        }
        // Validate catch-up reads against the complete oracle.
        let oracle = oracle.lock().unwrap();
        for (i, replies) in all_replies.iter().enumerate() {
            for text in replies {
                if !oracle.contains(text) {
                    violations.push(format!(
                        "follower {i} served a reply matching no committed epoch: {text}"
                    ));
                }
            }
        }
        // Convergence: every follower file byte-identical to the
        // leader's.
        let leader_bytes = std::fs::read(&lpath).expect("read leader file");
        for (i, p) in fpaths.iter().enumerate() {
            let got = std::fs::read(p).expect("read follower file");
            if got != leader_bytes {
                violations.push(format!(
                    "follower {i} did not converge: {} bytes vs leader {}",
                    got.len(),
                    leader_bytes.len()
                ));
            }
        }
        let _ = leader_srv.shutdown();
        let elapsed = t0.elapsed();
        for v in &violations {
            eprintln!("seed {seed}: VIOLATION: {v}");
        }
        println!(
            "seed {seed}: {restarts} restarts across {followers} followers, {reads_ok} reads \
             matched an epoch, {clean_errors} clean errors, {} violations, {:.2} s",
            violations.len(),
            elapsed.as_secs_f64(),
        );
        if !violations.is_empty() || elapsed > ROUND_BUDGET {
            failed = true;
        }
        cleanup(&lpath);
        for p in &fpaths {
            cleanup(p);
        }
    }
    if failed {
        eprintln!("FAIL: replica-bench violated a gate (divergence, bad read, or over budget)");
        std::process::exit(1);
    }
    println!(
        "replica-bench: every follower converged byte-identically and every catch-up read \
         errored cleanly or matched a committed epoch\n"
    );
}

/// `--toggle-bench K`: the A/B-toggle gate for the versioned scenario
/// cache (DESIGN.md §14). An analyst alternating K scenarios must —
/// after one warm pass over each — replay every switch entirely from
/// cache: ≥ 90% hit rate, zero merges, and cells bit-identical to a
/// cache-off baseline. Under the old one-digest-per-chunk keying every
/// switch destroyed the other scenarios' entries, so this run re-merged
/// K×rounds times. Exits non-zero if any gate fails (CI-usable).
fn run_toggle_bench(k: usize, cache_mb: usize, opts: &ExecOpts) {
    const ROUNDS: usize = 4;
    let mb = if cache_mb > 0 { cache_mb } else { 64 };
    println!("=== toggle-bench — {k} alternating scenarios, {ROUNDS} rounds ===");
    let wf = Workforce::build(WorkforceConfig {
        employees: 400,
        departments: 12,
        changing: 80,
        employee_extent: 1,
        accounts: 4,
        scenarios: 2,
        ..WorkforceConfig::default()
    });
    start_io_workers(&wf.cube, opts);
    let strategy = Strategy::Chunked(OrderPolicy::Pebbling);
    // K distinct perspective sets from the replay catalogue (first 8 are
    // pairwise distinct; the arg parser caps K at 8).
    let scenarios: Vec<Scenario> = replay_scenarios(wf.department, Semantics::Static)
        .into_iter()
        .take(k)
        .map(|s| match s {
            Scenario::Negative(spec) => Scenario::negative(
                wf.department,
                spec.perspectives.iter().copied(),
                Semantics::Forward,
                Mode::Visual,
            ),
            positive => positive,
        })
        .collect();

    // Cache-off baseline: what "bit-identical" means, and the work a
    // thrashing cache would redo every switch.
    let off_t0 = std::time::Instant::now();
    let mut baselines = Vec::new();
    let (mut off_reads, mut off_merges) = (0u64, 0u64);
    for s in &scenarios {
        let r = apply_opts(&wf.cube, s, &strategy, None, opts.clone()).unwrap();
        off_reads += r.report.chunks_read;
        off_merges += r.report.merges;
        baselines.push(r.cube);
    }
    let off_ms = off_t0.elapsed().as_secs_f64() * 1e3;

    let cache = Arc::new(ScenarioCache::with_capacity_mb(mb));
    let opts = ExecOpts {
        cache: Some(cache.clone()),
        ..opts.clone()
    };
    // Warmup: one pass over each scenario populates its versions.
    for s in &scenarios {
        apply_opts(&wf.cube, s, &strategy, None, opts.clone()).unwrap();
    }
    cache.reset_stats();

    // The toggle: ROUNDS passes alternating all K scenarios.
    let t0 = std::time::Instant::now();
    let (mut reads, mut merges, mut served) = (0u64, 0u64, 0u64);
    let mut mismatches = 0usize;
    for round in 0..ROUNDS {
        for (s, base) in scenarios.iter().zip(&baselines) {
            let r = apply_opts(&wf.cube, s, &strategy, None, opts.clone()).unwrap();
            reads += r.report.chunks_read;
            merges += r.report.merges;
            served += r.report.cache_chunks_served;
            if !r.cube.same_cells(base).unwrap() {
                mismatches += 1;
                eprintln!("round {round}: cells diverged from the cache-off baseline");
            }
        }
    }
    let toggle_ms = t0.elapsed().as_secs_f64() * 1e3;
    let stats = cache.stats();
    let hit_rate = if stats.lookups > 0 {
        100.0 * stats.hits as f64 / stats.lookups as f64
    } else {
        0.0
    };
    println!(
        "cache off : {off_ms:>8.2} ms/pass-set, {off_reads:>6} chunk reads, \
         {off_merges:>6} merges (×{ROUNDS} if toggled uncached)"
    );
    println!(
        "toggled   : {toggle_ms:>8.2} ms for {ROUNDS}×{k} switches, {reads:>6} chunk reads, \
         {merges:>6} merges, {served:>6} chunks served \
         (hit rate {hit_rate:.1}%, {} evictions, {} KiB resident)",
        stats.evictions,
        stats.bytes / 1024,
    );
    // The acceptance gates.
    let mut failed = false;
    if mismatches > 0 {
        eprintln!("FAIL: {mismatches} toggled run(s) were not bit-identical to cache-off");
        failed = true;
    }
    if hit_rate < 90.0 {
        eprintln!("FAIL: post-warmup hit rate {hit_rate:.1}% < 90%");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "all gates passed: bit-identical, {hit_rate:.1}% hits, \
         {merges} merges across {ROUNDS}×{k} switches\n"
    );
}

/// An order-independent digest of a cube's present cells (wrapping sum
/// of one FNV-1a hash per cell), so scalar and run-kernel outputs can be
/// compared bit-for-bit regardless of scan or merge interleaving.
fn cube_digest(cube: &olap_cube::Cube) -> (u64, u64) {
    let mut count = 0u64;
    let mut digest = 0u64;
    cube.for_each_present(|coords, v| {
        let mut h = Fnv64::new();
        for &c in coords {
            h.write_u32(c);
        }
        h.write_u64(v.to_bits());
        digest = digest.wrapping_add(h.finish());
        count += 1;
    })
    .expect("digest scan");
    (count, digest)
}

/// `--kernel-bench`: the run-kernel acceptance gate (DESIGN.md §15).
/// Times the merge-heavy ablation what-if under the scalar per-cell
/// oracle and the run kernels, checks the outputs are cell-identical
/// (order-independent digest). Also runs the per-dimension rollup through the
/// aggregator to report the shared-gauge `concurrent peak` — the true
/// simultaneous buffer residency (with --threads >= 2 it is the figure
/// comparable to a serial run, unlike the summed per-worker peaks).
/// Exits non-zero on any divergence, so the gate is CI-usable.
fn run_kernel_bench(opts: &ExecOpts) {
    use olap_cube::CubeAggregator;

    println!("=== kernel-bench — scalar oracle vs. run kernels ===");
    // A wide dense Account × Scenario cross-section (the run suffix once
    // the executor splits after max(vd, pd)) so the measured time is the
    // merge inner loop, not per-chunk bookkeeping: 256-cell runs inside
    // 12288-cell chunks at the default employee extent.
    let wf = Workforce::build(WorkforceConfig {
        employees: 400,
        departments: 12,
        changing: 120,
        accounts: 64,
        scenarios: 4,
        ..WorkforceConfig::default()
    });
    start_io_workers(&wf.cube, opts);
    let varying = wf.schema.varying(wf.department).unwrap();
    let vs_out = phi(Semantics::Forward, varying.instances(), &[0, 6], 12);
    let map = DestMap::build(&wf.cube, wf.department, &vs_out).unwrap();
    let single = std::slice::from_ref(&map);
    let policy = OrderPolicy::Pebbling;
    let threads = opts.threads;

    let mut digests: Vec<(u64, u64)> = Vec::new();
    let mut walls = [0.0f64; 2];
    for (slot, kernel) in [(0usize, KernelKind::Scalar), (1, KernelKind::Runs)] {
        let run = || {
            let opts = ExecOpts {
                kernel,
                ..opts.clone()
            };
            execute_passes_opts(&wf.cube, wf.department, &map, single, &policy, None, opts).unwrap()
        };
        let t = min_time(ITERS, run);
        let (out, report) = run();
        let (cells, digest) = cube_digest(&out);
        walls[slot] = t.as_secs_f64() * 1e3;
        println!(
            "{kernel:<6}: {:>8.2} ms, {:>6} chunk reads, {:>6} merges, \
             {cells} cells, digest {digest:016x}",
            walls[slot], report.chunks_read, report.merges,
        );
        digests.push((cells, digest));
    }
    println!(
        "speedup: {:.2}× (scalar {:.2} ms → runs {:.2} ms)",
        walls[0] / walls[1],
        walls[0],
        walls[1],
    );

    // The aggregation scan has one implementation (dense blocks, no
    // oracle switch); time it and report the true concurrent buffer
    // peak from the shared gauge alongside the summed per-worker bound.
    let masks: Vec<olap_cube::GroupByMask> = (0..wf.cube.geometry().ndims() as u32)
        .map(|d| 1 << d)
        .collect();
    let agg_t = min_time(ITERS, || {
        CubeAggregator::new(&wf.cube)
            .with_threads(threads)
            .compute(&masks)
            .unwrap()
    });
    let (_, agg_report) = CubeAggregator::new(&wf.cube)
        .with_threads(threads)
        .compute(&masks)
        .unwrap();
    println!(
        "rollup ({} group-bys, {} thread(s)): {:.2} ms, peak {} buffer cells \
         (true concurrent peak {})",
        masks.len(),
        threads,
        agg_t.as_secs_f64() * 1e3,
        agg_report.peak_buffer_cells,
        agg_report.concurrent_peak_cells,
    );

    if digests[0] != digests[1] {
        eprintln!(
            "FAIL: run kernels diverged from the scalar oracle \
             (scalar {:?}, runs {:?})",
            digests[0], digests[1]
        );
        std::process::exit(1);
    }
    println!("kernels bit-identical to the scalar oracle\n");
}
