//! The `polap` shell: an interactive session over one of the bundled
//! datasets, accepting extended MDX plus dot-commands. The session logic
//! lives here (testable without a terminal); `main.rs` is a thin stdin
//! loop.

pub mod proto;

use olap_mdx::{parse, QueryContext};
use olap_model::{DimensionId, MemberId};
use olap_workload::{retail_example, running_example, Workforce, WorkforceConfig};
use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::sync::Arc;
use whatif_core::{ExecOpts, Fnv64, FnvSuffix, ScenarioForest};

/// Which bundled dataset a session runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// The paper's Fig. 1/2 running example.
    Running,
    /// The Fig. 7 retail catalog with margin rules.
    Retail,
    /// The Section 6 workforce-planning workload (1/10th scale).
    Workforce,
    /// A small workforce (`WorkforceConfig::bench`, the `repro --replay`
    /// cube) sized so dozens of concurrent server sessions stay fast;
    /// the multi-session tests and `perfbench` serve it.
    Bench,
}

impl Dataset {
    /// Parses a dataset name.
    pub fn parse(s: &str) -> Option<Dataset> {
        match s.to_ascii_lowercase().as_str() {
            "running" | "example" => Some(Dataset::Running),
            "retail" => Some(Dataset::Retail),
            "workforce" => Some(Dataset::Workforce),
            "bench" => Some(Dataset::Bench),
            _ => None,
        }
    }
}

enum Loaded {
    Running(olap_workload::RunningExample),
    Retail(olap_workload::Retail),
    Workforce(Box<Workforce>),
}

impl Loaded {
    fn cube(&self) -> &olap_cube::Cube {
        match self {
            Loaded::Running(e) => &e.cube,
            Loaded::Retail(r) => &r.cube,
            Loaded::Workforce(w) => &w.cube,
        }
    }

    fn named_sets(&self) -> Vec<(String, DimensionId, Vec<MemberId>)> {
        match self {
            Loaded::Workforce(w) => w
                .named_sets()
                .into_iter()
                .map(|(n, m)| (n, w.department, m))
                .collect(),
            _ => Vec::new(),
        }
    }
}

/// The shareable half of a session: the loaded dataset (whose cube owns
/// the buffer pool) and the optional scenario-delta cache. One instance
/// backs one in-process REPL — or, behind `olap-server`, *every*
/// concurrent analyst session: sessions share the pool and the cache
/// but own their private tuning/budget state ([`Session`]). Sound
/// because sessions never mutate the base cube.
pub struct SharedData {
    data: Loaded,
    cache: Option<Arc<whatif_core::ScenarioCache>>,
    /// Memoized positive/split results, shared across sessions like the
    /// scenario cache. Always on — keys self-invalidate on any data
    /// change ([`whatif_core::memo_key`]) and the memo is capped small.
    split_memo: Arc<whatif_core::SplitMemo>,
}

impl SharedData {
    /// Loads a dataset (in-memory backend).
    pub fn load(dataset: Dataset) -> SharedData {
        Self::load_with_backend(dataset, olap_cube::StoreBackend::Memory)
            .expect("memory backend never fails")
    }

    /// Loads a dataset over an explicit storage backend. `File` puts
    /// the workforce cube in a fresh single-file store (a replication
    /// leader's layout); `Attach` mounts an existing store file — the
    /// deterministic dataset build supplies schema and geometry while
    /// the chunk bytes come from the file (a replication follower's
    /// base image). The running/retail examples are memory-only.
    pub fn load_with_backend(
        dataset: Dataset,
        backend: olap_cube::StoreBackend,
    ) -> Result<SharedData, String> {
        if !matches!(backend, olap_cube::StoreBackend::Memory)
            && matches!(dataset, Dataset::Running | Dataset::Retail)
        {
            return Err(format!(
                "dataset {dataset:?} only supports the memory backend"
            ));
        }
        let data = match dataset {
            Dataset::Running => Loaded::Running(running_example()),
            Dataset::Retail => Loaded::Retail(retail_example(42)),
            Dataset::Workforce => Loaded::Workforce(Box::new(Workforce::build(WorkforceConfig {
                backend,
                ..WorkforceConfig::default()
            }))),
            Dataset::Bench => Loaded::Workforce(Box::new(Workforce::build(WorkforceConfig {
                backend,
                ..WorkforceConfig::bench()
            }))),
        };
        Ok(SharedData {
            data,
            cache: None,
            split_memo: Arc::new(whatif_core::SplitMemo::new()),
        })
    }

    /// Enables (mb > 0) or disables (mb = 0) the shared scenario-delta
    /// cache. Call before sharing the data across sessions.
    pub fn set_cache_mb(&mut self, mb: usize) {
        self.cache = if mb > 0 {
            Some(Arc::new(whatif_core::ScenarioCache::with_capacity_mb(mb)))
        } else {
            None
        };
    }

    /// The dataset's cube.
    pub fn cube(&self) -> &olap_cube::Cube {
        self.data.cube()
    }

    /// The shared scenario-delta cache, if enabled.
    pub fn cache(&self) -> Option<&Arc<whatif_core::ScenarioCache>> {
        self.cache.as_ref()
    }

    /// The shared positive/split memo.
    pub fn split_memo(&self) -> &Arc<whatif_core::SplitMemo> {
        &self.split_memo
    }
}

/// One interactive session: private tuning and budget over an
/// [`Arc<SharedData>`] that may be shared with other sessions.
pub struct Session {
    shared: Arc<SharedData>,
    /// This session's executor knobs (`--threads`, `--budget` /
    /// `.budget`). `budget_cells` also bounds `.rollup`
    /// (more passes instead of reject-with-error). The two per-request
    /// fields, `cache` and `deadline`, stay unset here:
    /// `Session::request_opts` fills them in for each request.
    opts: ExecOpts,
    /// Per-request wall-clock deadline in milliseconds; 0 = unlimited.
    /// The clock starts when execution starts, and the chunked executor
    /// checks it cooperatively at pass/slice boundaries — an expired
    /// request aborts with `DeadlineExceeded` and the session (forest,
    /// budget, cache) is untouched.
    deadline_ms: u64,
    /// This session's scenario forest (`.fork` / `.switch` /
    /// `.scenarios`): private, like the tuning state — forks are an
    /// analyst's exploration, not shared server state.
    forest: ScenarioForest,
}

/// [`Session::with_cache`] was called after the session's data had
/// already been shared with other sessions; the cache must be
/// configured on [`SharedData`] *before* attaching ([`SharedData::set_cache_mb`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfigError;

impl fmt::Display for CacheConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cannot configure the cache through an already-shared session; \
             call SharedData::set_cache_mb before attaching sessions"
        )
    }
}

impl std::error::Error for CacheConfigError {}

/// What the caller should do after a line.
#[derive(Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Print this and continue.
    Continue(String),
    /// Print this and exit.
    Quit(String),
    /// The request's deadline expired mid-execution. The session is
    /// still healthy — the server reports this as an error frame but
    /// keeps the connection (and the session state) alive.
    Deadline(String),
}

impl Session {
    /// Loads a dataset into a fresh, unshared session.
    pub fn new(dataset: Dataset) -> Session {
        Session::attach(Arc::new(SharedData::load(dataset)))
    }

    /// Attaches a new session to already-loaded (possibly shared) data.
    /// This is how the server hands every connection its own session
    /// over one pool and one cache.
    pub fn attach(shared: Arc<SharedData>) -> Session {
        Session {
            shared,
            opts: ExecOpts::default(),
            deadline_ms: 0,
            forest: ScenarioForest::new(),
        }
    }

    /// The shared data this session runs over.
    pub fn shared(&self) -> &Arc<SharedData> {
        &self.shared
    }

    /// Counters of the shared positive/split memo (hits = re-splits
    /// avoided).
    pub fn split_stats(&self) -> whatif_core::SplitMemoStats {
        self.shared.split_memo.stats()
    }

    /// Sets the session's executor knobs (`--threads N`, `--budget
    /// CELLS`). `opts.cache` and `opts.deadline` are per-request values
    /// and are overwritten on every request ([`Session::with_cache`] /
    /// [`Session::with_deadline_ms`] configure their sources).
    pub fn with_opts(mut self, opts: ExecOpts) -> Session {
        self.opts = opts;
        self
    }

    /// Enables the scenario-delta cache (`--cache MB`); 0 = off. What-if
    /// queries in this session then reuse merged output chunks across
    /// repeated or edited scenarios (DESIGN.md §10, §14). Must be called
    /// before the session's data is shared with other sessions (the
    /// server configures the cache on [`SharedData`] instead); calling
    /// it later is a [`CacheConfigError`], not a panic — an embedder's
    /// misconfiguration should surface as an error it can handle.
    pub fn with_cache(mut self, mb: usize) -> Result<Session, CacheConfigError> {
        Arc::get_mut(&mut self.shared)
            .ok_or(CacheConfigError)?
            .set_cache_mb(mb);
        Ok(self)
    }

    /// Sets the session's per-request deadline in milliseconds
    /// (`--deadline-ms N`); 0 = unlimited.
    pub fn with_deadline_ms(mut self, ms: u64) -> Session {
        self.deadline_ms = ms;
        self
    }

    fn data(&self) -> &Loaded {
        &self.shared.data
    }

    /// The executor options for a request starting *now* — the one
    /// place a request's [`ExecOpts`] is assembled, used by the MDX path
    /// and `.apply` alike: the session's knobs, the shared scenario
    /// cache, and the deadline instant per the `.deadline` setting
    /// (`None` = unlimited).
    fn request_opts(&self) -> ExecOpts {
        ExecOpts {
            cache: self.shared.cache.clone(),
            deadline: (self.deadline_ms > 0).then(|| {
                std::time::Instant::now() + std::time::Duration::from_millis(self.deadline_ms)
            }),
            ..self.opts.clone()
        }
    }

    fn context(&self) -> QueryContext<'_> {
        let mut ctx = QueryContext::new(self.data().cube());
        ctx.opts = self.request_opts();
        for (name, dim, members) in self.data().named_sets() {
            ctx.define_set(&name, dim, &members);
        }
        ctx
    }

    /// Handles one input line.
    pub fn handle(&mut self, line: &str) -> Outcome {
        let line = line.trim();
        if line.is_empty() {
            return Outcome::Continue(String::new());
        }
        if let Some(rest) = line.strip_prefix('.') {
            return self.command(rest);
        }
        match olap_mdx::execute(&self.context(), line) {
            Ok(grid) => Outcome::Continue(grid.to_string()),
            Err(e) if is_deadline(&e) => Outcome::Deadline(format!("error: {e}")),
            Err(e) => Outcome::Continue(format!("error: {e}")),
        }
    }

    fn command(&mut self, cmd: &str) -> Outcome {
        let mut parts = cmd.splitn(2, ' ');
        let head = parts.next().unwrap_or("").to_ascii_lowercase();
        let arg = parts.next().unwrap_or("").trim();
        match head.as_str() {
            "help" | "h" => Outcome::Continue(HELP.to_string()),
            "quit" | "q" | "exit" => Outcome::Quit("bye".to_string()),
            "schema" => Outcome::Continue(self.schema_text()),
            "cache" => Outcome::Continue(match &self.shared.cache {
                None => "scenario cache off — start the shell with --cache <MB>".to_string(),
                Some(c) => {
                    let s = c.stats();
                    let hit_rate = if s.lookups > 0 {
                        100.0 * s.hits as f64 / s.lookups as f64
                    } else {
                        0.0
                    };
                    format!(
                        "scenario cache: {} entries, {} KiB / {} KiB, \
                         {} lookups, {} hits ({hit_rate:.1}%), {} evictions",
                        c.len(),
                        s.bytes / 1024,
                        c.capacity() / 1024,
                        s.lookups,
                        s.hits,
                        s.evictions,
                    )
                }
            }),
            "stats" => {
                let s = self.data().cube().pool_stats();
                Outcome::Continue(format!(
                    "buffer pool: {} hits, {} misses, {} evictions\n\
                     peaks: {} resident\n\
                     faults: {} read errors, {} retries, {} write retries\n\
                     flushes: {} committed",
                    s.hits,
                    s.misses,
                    s.evictions,
                    s.peak_resident,
                    s.read_errors,
                    s.retries,
                    s.write_retries,
                    s.flushes,
                ))
            }
            "commit" => match self.data().cube().flush() {
                Err(e) => Outcome::Continue(format!("flush error: {e}")),
                Ok(()) => Outcome::Continue(self.data().cube().with_pool(|pool| {
                    use olap_store::ChunkStore as _;
                    let guard = pool.store();
                    match guard.as_any().downcast_ref::<olap_store::FileStore>() {
                        Some(fs) => {
                            let w = fs.wal_stats();
                            format!(
                                "flushed at epoch {} — log: {} txns committed, \
                                 {} aborted, {} marker bytes, {} syncs",
                                fs.flush_epoch(),
                                w.txns_committed,
                                w.txns_aborted,
                                w.bytes_logged,
                                w.syncs,
                            )
                        }
                        None => format!(
                            "flushed (memory-backed store: epoch {}, no WAL)",
                            guard.flush_epoch()
                        ),
                    }
                })),
            },
            "sets" => {
                let sets = self.data().named_sets();
                if sets.is_empty() {
                    return Outcome::Continue("(no named sets in this dataset)".to_string());
                }
                let schema = self.data().cube().schema();
                let mut out = String::new();
                for (name, dim, members) in sets {
                    let names: Vec<&str> = members
                        .iter()
                        .take(8)
                        .map(|&m| schema.dim(dim).member_name(m))
                        .collect();
                    let more = members.len().saturating_sub(8);
                    let _ = writeln!(
                        out,
                        "[{name}] — {} members: {}{}",
                        members.len(),
                        names.join(", "),
                        if more > 0 {
                            format!(", … (+{more})")
                        } else {
                            String::new()
                        }
                    );
                }
                Outcome::Continue(out)
            }
            "instances" => {
                if arg.is_empty() {
                    return Outcome::Continue("usage: .instances <member name>".to_string());
                }
                Outcome::Continue(self.instances_text(arg))
            }
            "explain" => {
                if arg.is_empty() {
                    return Outcome::Continue("usage: .explain <extended MDX query>".to_string());
                }
                Outcome::Continue(self.explain(arg))
            }
            "csv" => {
                if arg.is_empty() {
                    return Outcome::Continue("usage: .csv <query>".to_string());
                }
                match olap_mdx::execute(&self.context(), arg) {
                    Ok(grid) => Outcome::Continue(grid.to_csv()),
                    Err(e) if is_deadline(&e) => Outcome::Deadline(format!("error: {e}")),
                    Err(e) => Outcome::Continue(format!("error: {e}")),
                }
            }
            "budget" => {
                if arg.is_empty() {
                    return Outcome::Continue(match self.opts.budget_cells {
                        0 => "session budget: unlimited".to_string(),
                        n => format!("session budget: {n} cells"),
                    });
                }
                match arg.parse::<u64>() {
                    Ok(n) => {
                        self.opts.budget_cells = n;
                        Outcome::Continue(match n {
                            0 => "session budget: unlimited".to_string(),
                            n => format!("session budget: {n} cells"),
                        })
                    }
                    Err(_) => Outcome::Continue("usage: .budget [cells]".to_string()),
                }
            }
            "deadline" => {
                if arg.is_empty() {
                    return Outcome::Continue(match self.deadline_ms {
                        0 => "request deadline: unlimited".to_string(),
                        n => format!("request deadline: {n} ms"),
                    });
                }
                match arg.parse::<u64>() {
                    Ok(n) => {
                        self.deadline_ms = n;
                        Outcome::Continue(match n {
                            0 => "request deadline: unlimited".to_string(),
                            n => format!("request deadline: {n} ms"),
                        })
                    }
                    Err(_) => Outcome::Continue("usage: .deadline [ms]".to_string()),
                }
            }
            "apply" => self.apply(arg),
            "fork" => Outcome::Continue(self.fork(arg)),
            "switch" => Outcome::Continue(self.switch(arg)),
            "scenarios" => Outcome::Continue(self.scenarios()),
            "change" => Outcome::Continue(self.change(arg)),
            "rollup" => Outcome::Continue(self.rollup()),
            other => Outcome::Continue(format!("unknown command .{other} — try .help")),
        }
    }

    fn schema_text(&self) -> String {
        let schema = self.data().cube().schema();
        let mut out = String::new();
        for d in schema.dim_ids() {
            let dim = schema.dim(d);
            let varying = schema
                .varying(d)
                .map(|v| {
                    format!(
                        " — varying over {} ({} instances, {} changing members)",
                        schema.dim(v.parameter_dim()).name(),
                        v.instance_count(),
                        v.changing_members().len(),
                    )
                })
                .unwrap_or_default();
            let _ = writeln!(
                out,
                "{:<14} {:>6} leaves, depth {}{}{}",
                dim.name(),
                dim.leaf_count(),
                dim.depth(),
                if dim.is_ordered() { ", ordered" } else { "" },
                varying,
            );
        }
        let _ = writeln!(
            out,
            "cube: {} cells in {} chunks",
            self.data().cube().present_cell_count().unwrap_or(0),
            self.data().cube().chunk_count(),
        );
        out
    }

    fn instances_text(&self, member: &str) -> String {
        let schema = self.data().cube().schema();
        for d in schema.dim_ids() {
            if let Some(v) = schema.varying(d) {
                if let Some(m) = schema.dim(d).find(member) {
                    let ids = v.instances_of(m);
                    if ids.is_empty() {
                        return format!("{member} has no instances (non-leaf?)");
                    }
                    let names = schema.dim(v.parameter_dim()).leaf_names();
                    let mut out = String::new();
                    for &i in ids {
                        let inst = v.instance(i);
                        let _ = writeln!(
                            out,
                            "{:<24} valid at {}",
                            v.instance_name(schema.dim(d), i),
                            inst.validity.display_with(&names),
                        );
                    }
                    return out;
                }
            }
        }
        format!("no varying-dimension member named {member:?}")
    }

    /// `.explain <query>`: runs the query once and prints what ran — the
    /// Theorem 4.1 expression of its `WITH` clause, the varying-dimension
    /// slots the MDX layer scoped execution to, and the executor's report
    /// of that run.
    fn explain(&self, query: &str) -> String {
        let parsed = match parse(query) {
            Ok(q) => q,
            Err(e) => return format!("parse error: {e}"),
        };
        let mut out = format!("parsed: {parsed}\n");
        if parsed.with.is_none() {
            out.push_str("no WITH clause — plain OLAP query, no scenario\n");
            return out;
        }
        let run = match olap_mdx::evaluate(&self.context(), &parsed) {
            Ok(run) => run,
            Err(e) => return format!("{out}error: {e}\n"),
        };
        if let Some(scenario) = &run.scenario {
            let _ = writeln!(out, "algebra: {:?}", whatif_core::compile(scenario));
        }
        let scope = match &run.scope {
            None => "unscoped".to_string(),
            Some(slots) => {
                let slots: Vec<String> = slots.iter().map(u32::to_string).collect();
                format!("slots {}", slots.join(", "))
            }
        };
        let _ = writeln!(out, "scope: {scope}");
        let grid = &run.grid;
        let _ = writeln!(
            out,
            "result: {} × {} grid, {} non-⊥ cells",
            grid.height(),
            grid.width(),
            grid.present_count(),
        );
        if let Some(r) = &run.report {
            let _ = writeln!(
                out,
                "executor: {} pass(es), merge graph {}/{} (nodes/edges), predicted \
                 pebbles {}, {} chunk reads, {} cache chunks served",
                r.passes,
                r.graph_nodes,
                r.graph_edges,
                r.predicted_pebbles,
                r.chunks_read,
                r.cache_chunks_served,
            );
        }
        out
    }

    /// `.apply <semantics> <m1,m2,...>`: record a negative scenario on
    /// the current fork and run it; bare `.apply` re-runs whatever the
    /// current fork assumes (a `.switch`-then-`.apply` toggle). Reports
    /// only *deterministic* facts about the result — cell count, an
    /// order-independent digest, and the pass count. Cache/pool counters
    /// are deliberately omitted: under a shared pool and cache they
    /// depend on sibling sessions, and the server tests assert
    /// byte-identical responses across concurrent and serial runs.
    fn apply(&mut self, arg: &str) -> Outcome {
        const USAGE: &str =
            "usage: .apply <static|forward|xforward|backward|xbackward> <m1,m2,...> \
             — bare .apply re-runs the current fork's scenario";
        if arg.is_empty() {
            let Some(scenario) = self.forest.scenario() else {
                return Outcome::Continue(format!(
                    "{USAGE}\n(fork '{}' has no scenario to re-run yet)",
                    self.forest.current_name()
                ));
            };
            return self.run_scenario(&scenario, self.request_opts());
        }
        let mut parts = arg.split_whitespace();
        let (Some(sem), Some(moments)) = (parts.next(), parts.next()) else {
            return Outcome::Continue(USAGE.to_string());
        };
        let semantics = match sem.to_ascii_lowercase().as_str() {
            "static" => whatif_core::Semantics::Static,
            "forward" | "fwd" => whatif_core::Semantics::Forward,
            "xforward" => whatif_core::Semantics::ExtendedForward,
            "backward" | "bwd" => whatif_core::Semantics::Backward,
            "xbackward" => whatif_core::Semantics::ExtendedBackward,
            _ => return Outcome::Continue(USAGE.to_string()),
        };
        let parsed: std::result::Result<Vec<u32>, _> = moments
            .split(',')
            .map(|m| m.trim().parse::<u32>())
            .collect();
        let Ok(perspectives) = parsed else {
            return Outcome::Continue(USAGE.to_string());
        };
        let dim = {
            let schema = self.data().cube().schema();
            match schema.dim_ids().find(|&d| schema.varying(d).is_some()) {
                Some(d) => d,
                None => {
                    return Outcome::Continue("this dataset has no varying dimension".to_string())
                }
            }
        };
        let spec = whatif_core::PerspectiveSpec::new(
            dim,
            perspectives.iter().copied(),
            semantics,
            whatif_core::Mode::Visual,
        );
        self.forest.set_negative(spec.clone());
        self.run_scenario(&whatif_core::Scenario::Negative(spec), self.request_opts())
    }

    /// Runs one scenario under `opts` (the request's, from
    /// [`Session::request_opts`]) and renders the deterministic `.apply`
    /// summary line.
    fn run_scenario(&self, scenario: &whatif_core::Scenario, opts: ExecOpts) -> Outcome {
        let label = match scenario {
            whatif_core::Scenario::Negative(spec) => format!(
                "{} {{{}}}",
                semantics_name(spec.semantics),
                spec.perspectives
                    .iter()
                    .map(|m| m.to_string())
                    .collect::<Vec<_>>()
                    .join(","),
            ),
            whatif_core::Scenario::Positive { changes, .. } => format!(
                "{} change(s) [fork '{}']",
                changes.len(),
                self.forest.current_name()
            ),
        };
        // The positive/split path is a pure function of the base cube
        // and the change relation, so a fork replaying it answers from
        // the memo — zero re-splits, byte-identical reply.
        let positive_key = match scenario {
            whatif_core::Scenario::Positive { dim, changes, mode } => {
                let key = whatif_core::memo_key(self.data().cube(), *dim, *mode, changes.iter());
                if let Some(hit) = self.shared.split_memo.lookup(key) {
                    return Outcome::Continue(format!(
                        "applied {label}: {} cells, digest {:016x}, 0 pass(es)",
                        hit.cells, hit.digest,
                    ));
                }
                Some(key)
            }
            whatif_core::Scenario::Negative(_) => None,
        };
        let strategy = whatif_core::Strategy::Chunked(whatif_core::OrderPolicy::Pebbling);
        match whatif_core::apply_opts(self.data().cube(), scenario, &strategy, None, opts) {
            Ok(result) => match cell_digest(&result.cube) {
                Ok((count, digest)) => {
                    let passes = result.report.passes;
                    if let Some(key) = positive_key {
                        self.shared.split_memo.insert(
                            key,
                            Arc::new(whatif_core::SplitResult {
                                schema: result.schema,
                                cube: result.cube,
                                cells: count,
                                digest,
                            }),
                        );
                    }
                    Outcome::Continue(format!(
                        "applied {label}: {count} cells, digest {digest:016x}, {passes} pass(es)",
                    ))
                }
                Err(e) => Outcome::Continue(format!("error: {e}")),
            },
            Err(e @ whatif_core::WhatIfError::DeadlineExceeded) => {
                Outcome::Deadline(format!("error: {e}"))
            }
            Err(e) => Outcome::Continue(format!("error: {e}")),
        }
    }

    /// `.fork <name>`: fork the current scenario copy-on-write and
    /// switch to the child.
    fn fork(&mut self, arg: &str) -> String {
        if arg.is_empty() || arg.split_whitespace().count() != 1 {
            return "usage: .fork <name>".to_string();
        }
        let parent = self.forest.current_name().to_string();
        match self.forest.fork(arg) {
            Ok(()) => format!("forked '{arg}' from '{parent}' — now on '{arg}'"),
            Err(e) => format!("error: {e}"),
        }
    }

    /// `.switch <name>`: make another fork current. Re-running it is
    /// then a warm-cache replay (the versioned cache kept its entries).
    fn switch(&mut self, arg: &str) -> String {
        if arg.is_empty() {
            return "usage: .switch <name>".to_string();
        }
        match self.forest.switch(arg) {
            Ok(()) => format!("now on '{arg}'"),
            Err(e) => format!("error: {e}"),
        }
    }

    /// `.scenarios`: the session's fork tree.
    fn scenarios(&self) -> String {
        let mut out = String::new();
        for r in self.forest.rows() {
            let parent = r
                .parent
                .map(|p| format!("<- {p}"))
                .unwrap_or_else(|| "(root)".to_string());
            let shared = if r.shared_changes > 0 {
                format!(" [{} changes shared]", r.shared_changes)
            } else {
                String::new()
            };
            let _ = writeln!(
                out,
                "{} {:<12} {:<12} {}{shared}",
                if r.current { "*" } else { " " },
                r.name,
                parent,
                r.summary,
            );
        }
        out
    }

    /// `.change <member> <new parent> <moment>`: append a positive
    /// change to the current fork (run it with a bare `.apply`).
    fn change(&mut self, arg: &str) -> String {
        const USAGE: &str = "usage: .change <member> <new parent> <moment>";
        let parts: Vec<&str> = arg.split_whitespace().collect();
        let [member, parent, moment] = parts[..] else {
            return USAGE.to_string();
        };
        let (dim, dim_name, m, n, at) = {
            let schema = self.data().cube().schema();
            let Some(dim) = schema.dim_ids().find(|&d| schema.varying(d).is_some()) else {
                return "this dataset has no varying dimension".to_string();
            };
            let dimension = schema.dim(dim);
            let Some(m) = dimension.find(member) else {
                return format!("no member named {member:?} in {}", dimension.name());
            };
            let Some(n) = dimension.find(parent) else {
                return format!("no member named {parent:?} in {}", dimension.name());
            };
            let at = match moment.parse::<u32>() {
                Ok(t) => t,
                Err(_) => {
                    let v = schema.varying(dim).expect("varying dim found above");
                    let names = schema.dim(v.parameter_dim()).leaf_names();
                    match names.iter().position(|nm| nm.eq_ignore_ascii_case(moment)) {
                        Some(i) => i as u32,
                        None => {
                            return format!("no moment named {moment:?} (and it is not a number)")
                        }
                    }
                }
            };
            (dim, dimension.name().to_string(), m, n, at)
        };
        let change = whatif_core::Change {
            member: m,
            old_parent: None,
            new_parent: n,
            at,
        };
        match self
            .forest
            .add_change(dim, whatif_core::Mode::Visual, change)
        {
            Ok(()) => {
                let c = self.forest.current_changes().expect("change just added");
                format!(
                    "fork '{}': {} change(s) on {dim_name} ({} shared with ancestors)",
                    self.forest.current_name(),
                    c.len(),
                    c.shared_len(),
                )
            }
            Err(e) => format!("error: {e}"),
        }
    }

    /// `.rollup`: one single-dimension group-by per cube dimension, run
    /// through the budget-respecting multi-pass aggregator with the
    /// session's threads. A small session budget means more
    /// passes; an impossible one is an error.
    fn rollup(&self) -> String {
        let cube = self.data().cube();
        let schema = cube.schema();
        let ndims = cube.geometry().ndims();
        let masks: Vec<olap_cube::GroupByMask> = (0..ndims as u32).map(|d| 1 << d).collect();
        let budget = match self.opts.budget_cells {
            0 => u64::MAX,
            n => n,
        };
        let aggregator = olap_cube::CubeAggregator::new(cube).with_threads(self.opts.threads);
        match aggregator.compute_with_budget(&masks, budget) {
            Ok((results, report)) => {
                let mut out = String::new();
                for (d, &mask) in masks.iter().enumerate() {
                    let name = schema.dim(schema.dim_ids().nth(d).expect("dim")).name();
                    let total = results
                        .get(&mask)
                        .map(|r| r.grand_total())
                        .unwrap_or(f64::NAN);
                    let _ = writeln!(out, "{name:<14} total {total}");
                }
                let _ = write!(
                    out,
                    "{} pass(es), peak {} buffer cells",
                    report.passes, report.peak_buffer_cells
                );
                out
            }
            Err(e) => format!("error: {e}"),
        }
    }
}

/// Whether an MDX error is the executor's cooperative deadline abort
/// (the one `-` the server reports without closing the connection).
fn is_deadline(e: &olap_mdx::MdxError) -> bool {
    matches!(
        e,
        olap_mdx::MdxError::WhatIf(whatif_core::WhatIfError::DeadlineExceeded)
    )
}

/// The `.apply` spelling of each semantics variant.
fn semantics_name(s: whatif_core::Semantics) -> &'static str {
    match s {
        whatif_core::Semantics::Static => "static",
        whatif_core::Semantics::Forward => "forward",
        whatif_core::Semantics::ExtendedForward => "xforward",
        whatif_core::Semantics::Backward => "backward",
        whatif_core::Semantics::ExtendedBackward => "xbackward",
    }
}

/// An order-independent digest of a cube's present cells: the wrapping
/// sum of one FNV-1a hash per cell (coordinates, then the value's bit
/// pattern). Identical cell sets digest identically regardless of scan
/// or merge interleaving, which is what lets the server tests check
/// concurrent sessions bit-for-bit against a serial replay.
///
/// The walk hashes rows, not cells. In each chunk, `k` is the last axis
/// whose chunk shape exceeds 1, so a row along `k` is a run of
/// consecutive offsets whose later axes are fixed. A row folds its
/// prefix coordinates (axes `0..k`) once; the rest of a cell's
/// coordinates — `x_j` on axis `k` plus the constant tail — is a fixed
/// byte string per row position `j`, folded by one [`FnvSuffix`] lookup
/// instead of byte by byte. Only the value's 8 bytes are hashed per
/// cell.
pub fn cell_digest(cube: &olap_cube::Cube) -> olap_cube::Result<(u64, u64)> {
    let geom = cube.geometry();
    let mut classes: HashMap<Vec<u32>, Vec<FnvSuffix>> = HashMap::new();
    let mut count = 0u64;
    let mut digest = 0u64;
    for id in cube.chunk_ids() {
        let chunk = cube.chunk(id)?;
        count += u64::from(chunk.present_count());
        let coord = geom.chunk_coord(id);
        let shape = chunk.shape();
        let k = shape.iter().rposition(|&s| s > 1).unwrap_or(0);
        let width = shape.get(k).map_or(1, |&w| w.max(1));
        let tables = classes
            .entry(geom.chunk_origin(&coord).split_off(k))
            .or_insert_with_key(|suffix| suffix_tables(suffix, width));
        digest = digest.wrapping_add(digest_rows(&chunk, geom.runs_from(&coord, k), k, tables));
    }
    Ok((count, digest))
}

/// The tables shared by every chunk of one digest call whose rows end
/// in the suffix coordinates `suffix` (axis `k`'s origin, then the
/// tail): row position `j` hashes the little-endian bytes of
/// `x_j = origin + j` and the tail, whichever chunk it is in.
fn suffix_tables(suffix: &[u32], width: u32) -> Vec<FnvSuffix> {
    (0..width)
        .map(|j| {
            let bytes: Vec<u8> = suffix
                .iter()
                .enumerate()
                .flat_map(|(i, &c)| (if i == 0 { c + j } else { c }).to_le_bytes())
                .collect();
            FnvSuffix::new(&bytes)
        })
        .collect()
}

/// The wrapping sum of one chunk's cell hashes. `rows` are the chunk's
/// runs split at axis `k`; `tables[j]` folds the bytes of row position
/// `j`. Present cells stream in offset order (bitmap words or sparse
/// entries, once each) and pull the row runs along, so only rows
/// holding a cell fold a prefix.
fn digest_rows(
    chunk: &olap_store::Chunk,
    mut rows: olap_store::ChunkRuns,
    k: usize,
    tables: &[FnvSuffix],
) -> u64 {
    let mut sum = 0u64;
    let (mut start, mut end) = (0u32, 0u32);
    let mut prefix = Fnv64::new();
    for (off, v) in chunk.present_cells() {
        while off >= end {
            let (base, first, len) = rows.next_run().expect("every offset lies in a row");
            (start, end) = (first, first + len);
            if off < end {
                prefix = Fnv64::new();
                for &c in &base[..k] {
                    prefix.write_u32(c);
                }
            }
        }
        let mut h = tables[(off - start) as usize].fold(prefix);
        h.write_u64(v.to_bits());
        sum = sum.wrapping_add(h.finish());
    }
    sum
}

/// The `.help` text.
pub const HELP: &str = "\
Enter an (extended) MDX query, or a command:
  .schema              dimensions, axis sizes, varying info
  .instances <member>  a changing member's instances + validity sets
  .sets                named sets registered for this dataset
  .explain <query>     run a query once; print its algebra, scope and executor report
  .csv <query>         run a query and print the grid as CSV
  .apply <sem> <m,..>  run a negative scenario (first varying dim); deterministic
                       summary: cell count, digest, passes. Bare .apply re-runs
                       the current fork's scenario
  .fork <name>         fork the current scenario copy-on-write and switch to it
  .switch <name>       make another fork current (warm-cache replay on re-apply)
  .scenarios           list this session's scenario forks
  .change <m> <p> <t>  append a positive change (member, new parent, moment) to
                       the current fork; run it with bare .apply
  .rollup              per-dimension totals via the budget-aware multi-pass
                       aggregator (small budgets add passes)
  .budget [cells]      show or set this session's peak-memory budget (0 = unlimited)
  .deadline [ms]       show or set the per-request deadline (0 = unlimited); an
                       expired request aborts at a pass boundary, session intact
  .cache               scenario-delta cache statistics (--cache MB to enable)
  .commit              flush dirty chunks atomically; report flush epoch + WAL counters
  .stats               buffer-pool counters (incl. read errors, retries, flushes)
  .help                this text
  .quit                exit

Example what-if (running example dataset):
  WITH PERSPECTIVE {(Jan)} FOR Organization DYNAMIC FORWARD VISUAL
  SELECT {Time.[Qtr1], Time.[Qtr2]} ON COLUMNS,
         {Organization.[FTE], Organization.[Contractor]} ON ROWS
  FROM [Warehouse] WHERE (Location.[NY], Measures.[Salary])";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_parsing() {
        assert_eq!(Dataset::parse("running"), Some(Dataset::Running));
        assert_eq!(Dataset::parse("RETAIL"), Some(Dataset::Retail));
        assert_eq!(Dataset::parse("nope"), None);
    }

    #[test]
    fn help_quit_and_unknown() {
        let mut s = Session::new(Dataset::Running);
        assert!(matches!(s.handle(".help"), Outcome::Continue(t) if t.contains(".schema")));
        assert!(matches!(s.handle(".quit"), Outcome::Quit(_)));
        assert!(matches!(s.handle(".bogus"), Outcome::Continue(t) if t.contains("unknown")));
        assert!(matches!(s.handle("   "), Outcome::Continue(t) if t.is_empty()));
    }

    #[test]
    fn schema_lists_varying_dimension() {
        let mut s = Session::new(Dataset::Running);
        match s.handle(".schema") {
            Outcome::Continue(t) => {
                assert!(t.contains("Organization"));
                assert!(t.contains("varying over Time"));
                assert!(t.contains("ordered"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn instances_shows_joe() {
        let mut s = Session::new(Dataset::Running);
        match s.handle(".instances Joe") {
            Outcome::Continue(t) => {
                assert!(t.contains("FTE/Joe"));
                assert!(t.contains("Contractor/Joe"));
                assert!(t.contains("{Jan"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn queries_produce_grids() {
        let mut s = Session::new(Dataset::Running);
        let q = "SELECT {Time.[Qtr1]} ON COLUMNS, {Organization.[FTE]} ON ROWS \
                 FROM [W] WHERE (Location.[NY], Measures.[Salary])";
        match s.handle(q) {
            Outcome::Continue(t) => assert!(t.contains("FTE"), "{t}"),
            other => panic!("{other:?}"),
        }
        // What-if through the shell.
        let q = "WITH PERSPECTIVE {(Jan)} FOR Organization DYNAMIC FORWARD VISUAL \
                 SELECT {Time.[Qtr1]} ON COLUMNS, {Organization.[FTE]} ON ROWS \
                 FROM [W] WHERE (Location.[NY], Measures.[Salary])";
        match s.handle(q) {
            Outcome::Continue(t) => assert!(t.contains("60"), "{t}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn threaded_session_matches_serial() {
        let q = "WITH PERSPECTIVE {(Feb), (Apr)} FOR Organization DYNAMIC FORWARD VISUAL \
                 SELECT {Time.[Qtr1], Time.[Qtr2]} ON COLUMNS, \
                 {Organization.[FTE], Organization.[PTE], Organization.[Contractor]} ON ROWS \
                 FROM [W] WHERE (Location.[NY], Measures.[Salary])";
        let mut serial = Session::new(Dataset::Running);
        let mut parallel = Session::new(Dataset::Running).with_opts(ExecOpts {
            threads: 4,
            ..ExecOpts::default()
        });
        for line in [q, ".rollup"] {
            assert_eq!(serial.handle(line), parallel.handle(line), "{line}");
        }
    }

    #[test]
    fn cached_session_matches_uncached() {
        let q = "WITH PERSPECTIVE {(Feb), (Apr)} FOR Organization DYNAMIC FORWARD VISUAL \
                 SELECT {Time.[Qtr1], Time.[Qtr2]} ON COLUMNS, \
                 {Organization.[FTE], Organization.[PTE], Organization.[Contractor]} ON ROWS \
                 FROM [W] WHERE (Location.[NY], Measures.[Salary])";
        let mut plain = Session::new(Dataset::Running);
        let mut cached = Session::new(Dataset::Running).with_cache(16).unwrap();
        // Twice: the second cached run replays from a warm cache and
        // must still render the identical grid.
        assert_eq!(plain.handle(q), cached.handle(q));
        assert_eq!(plain.handle(q), cached.handle(q));
        match cached.handle(".cache") {
            Outcome::Continue(t) => {
                assert!(t.contains("lookups"), "{t}");
                assert!(!t.contains("cache off"), "{t}");
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            Session::new(Dataset::Running).handle(".cache"),
            Outcome::Continue(t) if t.contains("cache off")
        ));
    }

    /// The whole `.stats` reply is pinned, so a counter line cannot
    /// vanish or change shape unnoticed. A serial session's counters are
    /// deterministic: two fresh sessions print the same reply.
    #[test]
    fn stats_command_reports_pool_counters() {
        let stats_after_one_query = || {
            let mut s = Session::new(Dataset::Running);
            s.handle(
                "SELECT {Time.[Qtr1]} ON COLUMNS, {Organization.[FTE]} ON ROWS \
                 FROM [W] WHERE (Location.[NY], Measures.[Salary])",
            );
            s.handle(".stats")
        };
        let reply = stats_after_one_query();
        assert_eq!(reply, stats_after_one_query());
        let expected = "buffer pool: 0 hits, 3 misses, 0 evictions\n\
                        peaks: 3 resident\n\
                        faults: 0 read errors, 0 retries, 0 write retries\n\
                        flushes: 0 committed";
        assert_eq!(reply, Outcome::Continue(expected.to_string()));
    }

    #[test]
    fn commit_reports_epoch_on_memory_backed_dataset() {
        let mut s = Session::new(Dataset::Running);
        match s.handle(".commit") {
            Outcome::Continue(t) => {
                assert!(t.contains("flushed"), "{t}");
                assert!(t.contains("no WAL"), "{t}");
            }
            other => panic!("{other:?}"),
        }
        // A clean pool has nothing staged, so no write-back transaction
        // was committed — the counter exists but stays at zero.
        match s.handle(".stats") {
            Outcome::Continue(t) => assert!(t.contains("flushes: 0 committed"), "{t}"),
            other => panic!("{other:?}"),
        }
    }

    /// `.commit` over a file-backed store reports the epoch read off the
    /// log and the log's transaction counters: one committed transaction
    /// is a `BEGIN` and a `COMMIT` (36 bytes each) and two fsyncs.
    #[test]
    fn commit_reports_log_counters_on_file_backed_dataset() {
        let path =
            std::env::temp_dir().join(format!("polap-commit-reply-{}.cube", std::process::id()));
        let shared = Arc::new(
            SharedData::load_with_backend(
                Dataset::Bench,
                olap_cube::StoreBackend::File(path.clone()),
            )
            .unwrap(),
        );
        let mut s = Session::attach(shared.clone());
        let origin = vec![0u32; shared.cube().geometry().ndims()];
        shared
            .cube()
            .set(&origin, olap_store::CellValue::num(7.0))
            .unwrap();
        let expected = "flushed at epoch 1 — log: 1 txns committed, 0 aborted, \
                        72 marker bytes, 2 syncs";
        assert_eq!(s.handle(".commit"), Outcome::Continue(expected.to_string()));
        // Nothing dirty: no transaction, and the epoch stands.
        assert_eq!(s.handle(".commit"), Outcome::Continue(expected.to_string()));
        drop(s);
        drop(shared);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn errors_are_messages_not_crashes() {
        let mut s = Session::new(Dataset::Running);
        match s.handle("SELECT FROM NOWHERE") {
            Outcome::Continue(t) => assert!(t.starts_with("error:")),
            other => panic!("{other:?}"),
        }
        match s.handle(".explain SELECT nonsense") {
            Outcome::Continue(t) => assert!(t.contains("error"), "{t}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn csv_command_renders_csv() {
        let mut s = Session::new(Dataset::Running);
        let q = ".csv SELECT {Time.[Qtr1]} ON COLUMNS, {Organization.[FTE]} ON ROWS \
                 FROM [W] WHERE (Location.[NY], Measures.[Salary])";
        match s.handle(q) {
            Outcome::Continue(t) => {
                assert!(t.starts_with("row,Qtr1"), "{t}");
                assert!(t.contains("FTE,"), "{t}");
            }
            other => panic!("{other:?}"),
        }
    }

    /// The whole `.explain` reply is pinned for a scoped negative query
    /// and a positive one, and every number on its executor line is the
    /// `ExecReport` that `evaluate_full` returns for the same query.
    #[test]
    fn explain_reports_executor_stats() {
        let negative = "WITH PERSPECTIVE {(Feb), (Apr)} FOR Organization DYNAMIC FORWARD \
                        SELECT {Time.[Qtr1]} ON COLUMNS, {Organization.[PTE]} ON ROWS \
                        FROM [W] WHERE (Location.[NY], Measures.[Salary])";
        let positive = "WITH CHANGES {([FTE].[Lisa], [FTE], [PTE], Apr)} VISUAL \
                        SELECT {Time.[Qtr2]} ON COLUMNS, \
                        {Organization.[FTE], Organization.[PTE]} ON ROWS \
                        FROM [W] WHERE (Location.[NY], Measures.[Salary])";
        let cases = [
            (
                negative,
                "parsed: WITH PERSPECTIVE {(Feb), (Apr)} FOR Organization DYNAMIC FORWARD\n\
                 SELECT {Time.Qtr1} ON COLUMNS, {Organization.PTE} ON ROWS FROM [W] \
                 WHERE (Location.NY, Measures.Salary)\n\
                 algebra: Compose([PhiRelocate { spec: PerspectiveSpec { dim: Dim(0), \
                 perspectives: [1, 3], semantics: Forward, mode: NonVisual } }, \
                 Eval { visual: false }])\n\
                 scope: slots 1, 5, 6\n\
                 result: 1 × 1 grid, 1 non-⊥ cells\n\
                 executor: 2 pass(es), merge graph 2/1 (nodes/edges), predicted pebbles 2, \
                 26 chunk reads, 0 cache chunks served\n",
            ),
            (
                positive,
                "parsed: WITH CHANGES {(FTE.Lisa, FTE, PTE, Apr)} VISUAL\n\
                 SELECT {Time.Qtr2} ON COLUMNS, {Organization.FTE, Organization.PTE} ON ROWS \
                 FROM [W] WHERE (Location.NY, Measures.Salary)\n\
                 algebra: Compose([Split { dim: Dim(0), changes: [Change { member: Mem(3), \
                 old_parent: Some(Mem(1)), new_parent: Mem(5), at: 3 }] }, \
                 Eval { visual: true }])\n\
                 scope: unscoped\n\
                 result: 2 × 1 grid, 1 non-⊥ cells\n\
                 executor: 0 pass(es), merge graph 0/0 (nodes/edges), predicted pebbles 0, \
                 0 chunk reads, 0 cache chunks served\n",
            ),
        ];
        for (query, expected) in cases {
            let mut s = Session::new(Dataset::Running);
            let (_, report) =
                olap_mdx::evaluate_full(&s.context(), &parse(query).unwrap()).unwrap();
            let r = report.expect("a scenario ran");
            let executor = format!(
                "executor: {} pass(es), merge graph {}/{} (nodes/edges), predicted pebbles {}, \
                 {} chunk reads, {} cache chunks served\n",
                r.passes,
                r.graph_nodes,
                r.graph_edges,
                r.predicted_pebbles,
                r.chunks_read,
                r.cache_chunks_served,
            );
            assert!(expected.ends_with(&executor), "{executor}");
            let reply = s.handle(&format!(".explain {query}"));
            assert_eq!(reply, Outcome::Continue(expected.to_string()));
        }
    }

    #[test]
    fn apply_digest_is_identical_across_executor_configs() {
        let baseline = match Session::new(Dataset::Running).handle(".apply forward 1,3") {
            Outcome::Continue(t) => t,
            other => panic!("{other:?}"),
        };
        assert!(baseline.contains("digest"), "{baseline}");
        assert!(baseline.contains("cells"), "{baseline}");
        for mut s in [
            Session::new(Dataset::Running).with_opts(ExecOpts {
                threads: 4,
                ..ExecOpts::default()
            }),
            Session::new(Dataset::Running).with_cache(16).unwrap(),
        ] {
            match s.handle(".apply forward 1,3") {
                Outcome::Continue(t) => assert_eq!(t, baseline),
                other => panic!("{other:?}"),
            }
        }
        // A warm cache replays the same answer.
        let mut cached = Session::new(Dataset::Running).with_cache(16).unwrap();
        cached.handle(".apply forward 1,3");
        assert!(matches!(
            cached.handle(".apply forward 1,3"),
            Outcome::Continue(t) if t == baseline
        ));
    }

    #[test]
    fn apply_rejects_usage_errors() {
        let mut s = Session::new(Dataset::Running);
        for bad in [".apply", ".apply sideways 1", ".apply forward one,two"] {
            match s.handle(bad) {
                Outcome::Continue(t) => assert!(t.starts_with("usage:"), "{bad}: {t}"),
                other => panic!("{other:?}"),
            }
        }
        // The retail dataset's varying Product dimension works too.
        assert!(matches!(
            Session::new(Dataset::Retail).handle(".apply forward 1"),
            Outcome::Continue(t) if t.contains("digest")
        ));
    }

    #[test]
    fn budget_command_and_rejection() {
        let mut s = Session::new(Dataset::Running);
        assert!(matches!(
            s.handle(".budget"),
            Outcome::Continue(t) if t.contains("unlimited")
        ));
        assert!(matches!(
            s.handle(".budget 1"),
            Outcome::Continue(t) if t.contains("1 cells")
        ));
        // One cell can never hold a merge buffer: the executor must
        // reject before reading rather than blow the budget.
        match s.handle(".apply forward 1,3") {
            Outcome::Continue(t) => assert!(t.contains("budget"), "{t}"),
            other => panic!("{other:?}"),
        }
        // Raising the budget past the predicted peak lets it through.
        s.handle(".budget 0");
        assert!(matches!(
            s.handle(".apply forward 1,3"),
            Outcome::Continue(t) if t.contains("digest")
        ));
    }

    #[test]
    fn mdx_and_apply_run_under_the_same_request_options() {
        // One option-assembly site (`Session::request_opts`): whatever
        // `.budget` / `.deadline` say reaches the executor identically
        // from an MDX `WITH PERSPECTIVE` line and from `.apply`, with the
        // shared cache on.
        let mut shared = SharedData::load(Dataset::Bench);
        shared.set_cache_mb(16);
        let mut s = Session::attach(Arc::new(shared));
        let mdx = match s.data() {
            Loaded::Workforce(w) => {
                w.fig10a_query_sem(&["Jan", "Apr", "Jul", "Oct"], "DYNAMIC FORWARD")
            }
            _ => unreachable!("bench is a workforce dataset"),
        };
        let apply = ".apply forward 0,3,6,9";

        // One cell holds no merge buffer, so every plan that merges is
        // rejected before a read, scoped (MDX) or not (`.apply`).
        s.handle(".budget 1");
        for line in [mdx.as_str(), apply] {
            match s.handle(line) {
                Outcome::Continue(t) => {
                    assert!(
                        t.starts_with("error:") && t.contains("budget"),
                        "{line}: {t}"
                    )
                }
                other => panic!("{line}: {other:?}"),
            }
        }
        s.handle(".budget 0");
        // A request's deadline is fixed when its options are assembled:
        // options taken before the deadline passed abort the run at its
        // first check, however fast the run would be.
        s.handle(".deadline 1");
        let expired = || {
            let opts = s.request_opts();
            std::thread::sleep(std::time::Duration::from_millis(5));
            opts
        };
        let mut ctx = s.context();
        ctx.opts = expired();
        match olap_mdx::execute(&ctx, &mdx) {
            Err(e) => assert!(is_deadline(&e), "{e}"),
            Ok(_) => panic!("an expired deadline must abort the MDX run"),
        }
        let scenario = s
            .forest
            .scenario()
            .expect("recorded by the rejected .apply");
        match s.run_scenario(&scenario, expired()) {
            Outcome::Deadline(t) => assert!(t.contains("deadline"), "{t}"),
            other => panic!("{other:?}"),
        }
        // Lifted, both complete — the aborts left the session intact.
        s.handle(".deadline 0");
        assert!(matches!(s.handle(&mdx), Outcome::Continue(t) if !t.starts_with("error:")));
        assert!(matches!(s.handle(apply), Outcome::Continue(t) if t.contains("digest")));
    }

    #[test]
    fn rollup_respects_the_session_budget() {
        let mut s = Session::new(Dataset::Running);
        let unlimited = match s.handle(".rollup") {
            Outcome::Continue(t) => t,
            other => panic!("{other:?}"),
        };
        assert!(unlimited.contains("total"), "{unlimited}");
        assert!(unlimited.contains("1 pass(es)"), "{unlimited}");
        // A budget of one cell cannot host any group-by buffer.
        s.handle(".budget 1");
        assert!(matches!(
            s.handle(".rollup"),
            Outcome::Continue(t) if t.starts_with("error:")
        ));
        // A squeezed-but-feasible budget forces extra passes yet keeps
        // the same totals.
        let mut squeezed = Session::new(Dataset::Running).with_opts(ExecOpts {
            budget_cells: 64,
            ..ExecOpts::default()
        });
        match squeezed.handle(".rollup") {
            Outcome::Continue(t) => {
                let totals = |s: &str| -> Vec<String> {
                    s.lines()
                        .filter(|l| l.contains("total"))
                        .map(|l| l.to_string())
                        .collect()
                };
                assert_eq!(totals(&t), totals(&unlimited), "{t}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn with_cache_after_sharing_is_an_error_not_a_panic() {
        let session = Session::new(Dataset::Running);
        let _second_owner = session.shared().clone();
        let err = match session.with_cache(16) {
            Err(e) => e,
            Ok(_) => panic!("with_cache on shared data must fail"),
        };
        assert_eq!(err, CacheConfigError);
        assert!(err.to_string().contains("set_cache_mb"), "{err}");
    }

    #[test]
    fn fork_switch_and_reapply_toggle_scenarios() {
        let mut s = Session::new(Dataset::Running).with_cache(16).unwrap();
        let a = match s.handle(".apply forward 1,3") {
            Outcome::Continue(t) => t,
            other => panic!("{other:?}"),
        };
        assert!(matches!(
            s.handle(".fork alt"),
            Outcome::Continue(t) if t.contains("now on 'alt'")
        ));
        let b = match s.handle(".apply forward 2,4") {
            Outcome::Continue(t) => t,
            other => panic!("{other:?}"),
        };
        assert_ne!(a, b);
        // Toggle by switching forks and re-applying bare: each fork
        // replays its own recorded scenario, byte for byte.
        for _ in 0..2 {
            s.handle(".switch main");
            assert!(matches!(s.handle(".apply"), Outcome::Continue(t) if t == a));
            s.handle(".switch alt");
            assert!(matches!(s.handle(".apply"), Outcome::Continue(t) if t == b));
        }
        // …and the versioned cache kept both forks' entries resident.
        let stats = s.shared().cache().expect("cache on").stats();
        assert_eq!(stats.evictions, 0, "{stats:?}");
        assert!(stats.hits > 0, "{stats:?}");
        match s.handle(".scenarios") {
            Outcome::Continue(t) => {
                assert!(t.contains("main"), "{t}");
                assert!(t.contains("* alt"), "{t}");
                assert!(t.contains("<- main"), "{t}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn fork_verbs_report_misuse_as_messages() {
        let mut s = Session::new(Dataset::Running);
        assert!(matches!(
            s.handle(".fork"),
            Outcome::Continue(t) if t.starts_with("usage:")
        ));
        assert!(matches!(
            s.handle(".fork main"),
            Outcome::Continue(t) if t.contains("already exists")
        ));
        assert!(matches!(
            s.handle(".switch ghost"),
            Outcome::Continue(t) if t.contains("no fork named")
        ));
        assert!(matches!(
            s.handle(".apply"),
            Outcome::Continue(t) if t.starts_with("usage:")
        ));
    }

    #[test]
    fn warm_positive_replay_answers_from_the_split_memo() {
        let mut s = Session::new(Dataset::Running);
        assert!(matches!(
            s.handle(".change Joe Contractor 2"),
            Outcome::Continue(t) if t.contains("1 change(s)")
        ));
        let cold = match s.handle(".apply") {
            Outcome::Continue(t) => t,
            other => panic!("{other:?}"),
        };
        let after_cold = s.split_stats();
        assert_eq!(after_cold.hits, 0);
        assert_eq!(after_cold.misses, 1);
        // Replay the identical scenario: zero re-splits, and the reply —
        // cell count and digest included — is byte-identical.
        for _ in 0..3 {
            match s.handle(".apply") {
                Outcome::Continue(t) => assert_eq!(t, cold),
                other => panic!("{other:?}"),
            }
        }
        let warm = s.split_stats();
        assert_eq!(warm.hits, 3, "replays must answer from the memo");
        assert_eq!(warm.misses, 1, "only the cold apply may split");
        // A fork replaying the inherited changes hits the same entry; an
        // edit (different change relation) misses and re-splits.
        s.handle(".fork child");
        match s.handle(".apply") {
            Outcome::Continue(t) => assert_eq!(t.replace("fork 'child'", "fork 'main'"), cold),
            other => panic!("{other:?}"),
        }
        assert_eq!(s.split_stats().hits, 4);
        s.handle(".change Lisa Contractor 3");
        assert!(matches!(s.handle(".apply"), Outcome::Continue(t) if t.contains("digest")));
        let end = s.split_stats();
        assert_eq!(end.misses, 2, "an edited relation must re-split");
    }

    #[test]
    fn positive_changes_build_and_apply_through_the_forest() {
        let mut s = Session::new(Dataset::Running);
        // Joe moves under Contractor from moment 2 onward.
        let reply = match s.handle(".change Joe Contractor 2") {
            Outcome::Continue(t) => t,
            other => panic!("{other:?}"),
        };
        assert!(reply.contains("1 change(s)"), "{reply}");
        match s.handle(".apply") {
            Outcome::Continue(t) => {
                assert!(t.contains("change(s) [fork 'main']"), "{t}");
                assert!(t.contains("digest"), "{t}");
            }
            other => panic!("{other:?}"),
        }
        // A fork of the changes shares them copy-on-write; the child's
        // extra edit is invisible to the parent.
        s.handle(".fork more");
        match s.handle(".change Lisa Contractor 3") {
            Outcome::Continue(t) => {
                assert!(t.contains("2 change(s)"), "{t}");
                assert!(t.contains("1 shared"), "{t}");
            }
            other => panic!("{other:?}"),
        }
        s.handle(".switch main");
        assert!(matches!(
            s.handle(".scenarios"),
            Outcome::Continue(t) if t.contains("(1 changes)") && t.contains("(2 changes)")
        ));
        // Moments can be named after parameter-dimension leaves too.
        let by_name = s.handle(".change Joe PTE Mar");
        assert!(
            matches!(&by_name, Outcome::Continue(t) if t.contains("change(s)")),
            "{by_name:?}"
        );
    }

    #[test]
    fn sessions_attached_to_shared_data_share_the_cache() {
        let mut shared = SharedData::load(Dataset::Running);
        shared.set_cache_mb(16);
        let shared = Arc::new(shared);
        let mut a = Session::attach(shared.clone());
        let mut b = Session::attach(shared.clone());
        let ra = a.handle(".apply forward 1,3");
        let rb = b.handle(".apply forward 1,3");
        assert_eq!(ra, rb);
        // Session b's run hit deltas that session a populated.
        let stats = shared.cache().expect("cache on").stats();
        assert!(stats.hits > 0, "{stats:?}");
    }

    #[test]
    fn explain_reports_grid_shape() {
        let mut s = Session::new(Dataset::Running);
        let q = ".explain WITH PERSPECTIVE {(Feb)} FOR Organization STATIC \
                 SELECT {Time.[Qtr1]} ON COLUMNS, {Organization.[PTE]} ON ROWS \
                 FROM [W] WHERE (Location.[NY], Measures.[Salary])";
        match s.handle(q) {
            Outcome::Continue(t) => {
                assert!(t.contains("parsed:"));
                assert!(t.contains("1 × 1 grid"));
            }
            other => panic!("{other:?}"),
        }
    }
}
