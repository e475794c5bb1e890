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
use whatif_core::{ExecOpts, Fnv64, FnvSuffix, PerspectiveSpec, Scenario, ScenarioForest};

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

/// The shareable half of a session: what sessions read of the loaded
/// dataset, computed once at load — its cube (which owns the buffer
/// pool) and its named sets — and the optional scenario-delta cache. One
/// instance backs one in-process REPL — or, behind `olap-server`, *every*
/// concurrent analyst session: sessions share the pool and the cache but
/// own their private tuning/budget state ([`Session`]). Sound because
/// sessions never mutate the base cube.
pub struct SharedData {
    cube: olap_cube::Cube,
    /// Each named set's name, dimension and members.
    named_sets: Vec<(String, DimensionId, Vec<MemberId>)>,
    cache: Option<Arc<whatif_core::ScenarioCache>>,
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
        let config = match dataset {
            Dataset::Running => return Ok(SharedData::of(running_example().cube, Vec::new())),
            Dataset::Retail => return Ok(SharedData::of(retail_example(42).cube, Vec::new())),
            Dataset::Workforce => WorkforceConfig::default(),
            Dataset::Bench => WorkforceConfig::bench(),
        };
        let w = Workforce::build(WorkforceConfig { backend, ..config });
        let sets = (w.named_sets().into_iter())
            .map(|(name, members)| (name, w.department, members))
            .collect();
        Ok(SharedData::of(w.cube, sets))
    }

    fn of(cube: olap_cube::Cube, named_sets: Vec<(String, DimensionId, Vec<MemberId>)>) -> Self {
        SharedData {
            cube,
            named_sets,
            cache: None,
        }
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
        &self.cube
    }

    /// The shared scenario-delta cache, if enabled.
    pub fn cache(&self) -> Option<&Arc<whatif_core::ScenarioCache>> {
        self.cache.as_ref()
    }
}

/// One interactive session: a private budget and deadline over an
/// [`Arc<SharedData>`] that may be shared with other sessions. Each
/// request runs on the session's own thread.
pub struct Session {
    shared: Arc<SharedData>,
    /// Peak-memory ceiling in cells for this session's requests (`--budget`,
    /// the budget verb); 0 = unlimited. Read only where a request's
    /// context is assembled ([`Session::request_opts`]).
    budget_cells: u64,
    /// Per-request wall-clock deadline in milliseconds; 0 = unlimited.
    /// The clock starts when the request's context is assembled, and
    /// every bounded layer checks it cooperatively — before each base
    /// block of an aggregation, each `Filter` input tuple and grid row,
    /// and each pass and slice of the executor. An expired request aborts
    /// with `CubeError::DeadlineExceeded` and the session (forest, budget,
    /// cache) is untouched.
    deadline_ms: u64,
    /// This session's scenario forest: private, like the tuning state —
    /// forks are an analyst's exploration, not shared server state.
    forest: ScenarioForest,
}

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
            budget_cells: 0,
            deadline_ms: 0,
            forest: ScenarioForest::new(),
        }
    }

    /// The shared data this session runs over.
    pub fn shared(&self) -> &Arc<SharedData> {
        &self.shared
    }

    /// Sets the session's peak-memory budget in cells (`--budget
    /// CELLS`); 0 = unlimited.
    pub fn with_budget(mut self, cells: u64) -> Session {
        self.budget_cells = cells;
        self
    }

    /// Sets the session's per-request deadline in milliseconds
    /// (`--deadline-ms N`); 0 = unlimited.
    pub fn with_deadline_ms(mut self, ms: u64) -> Session {
        self.deadline_ms = ms;
        self
    }

    /// The context of a request starting *now* — the one place it is
    /// assembled, once per line by [`Session::handle`], and read by every
    /// row that does bounded work: the shared scenario cache, the
    /// session's budget, and the deadline instant per `deadline_ms`
    /// (`None` = unlimited).
    fn request_opts(&self) -> ExecOpts {
        ExecOpts {
            cache: self.shared.cache.clone(),
            bounds: olap_cube::Bounds {
                budget_cells: self.budget_cells,
                deadline: (self.deadline_ms > 0).then(|| {
                    std::time::Instant::now() + std::time::Duration::from_millis(self.deadline_ms)
                }),
            },
        }
    }

    fn context(&self, opts: &ExecOpts) -> QueryContext<'_> {
        let mut ctx = QueryContext::new(self.shared.cube());
        ctx.opts = opts.clone();
        for (name, dim, members) in &self.shared.named_sets {
            ctx.define_set(name, *dim, members);
        }
        ctx
    }

    /// Handles one input line under a context assembled for it: a
    /// dot-command runs its [`VERBS`] row, anything else is an MDX query.
    pub fn handle(&mut self, line: &str) -> Outcome {
        let opts = self.request_opts();
        self.run_line(line, &opts)
    }

    /// [`Session::handle`] under a given request context.
    fn run_line(&mut self, line: &str, opts: &ExecOpts) -> Outcome {
        let line = line.trim();
        if line.is_empty() {
            return Outcome::Continue(String::new());
        }
        if let Some(head) = line.strip_prefix('.') {
            return match lookup(line) {
                // A row without a usage takes no argument.
                Some((verb, arg)) if verb.usage.is_empty() && !arg.is_empty() => {
                    Refusal::Usage(None).outcome(verb)
                }
                Some((verb, arg)) => {
                    (verb.run)(self, arg, opts).unwrap_or_else(|r| r.outcome(verb))
                }
                None => Outcome::Continue(format!(
                    "unknown command .{} — try .{}",
                    head.split(' ').next().unwrap_or("").to_ascii_lowercase(),
                    VERBS[0].name
                )),
            };
        }
        match olap_mdx::execute(&self.context(opts), line) {
            Ok(grid) => Outcome::Continue(grid.to_string()),
            // A query has no row of its own, and no usage to refuse.
            Err(e) => Refusal::from(e).outcome(&READ),
        }
    }

    fn cache(&mut self, _: &str, _: &ExecOpts) -> Reply {
        let Some(c) = &self.shared.cache else {
            return say("scenario cache off — start the shell with --cache <MB>".to_string());
        };
        let s = c.stats();
        let hit_rate = 100.0 * s.hits as f64 / s.lookups.max(1) as f64;
        say(format!(
            "scenario cache: {} entries, {} KiB / {} KiB, \
             {} lookups, {} hits ({hit_rate:.1}%), {} evictions",
            c.len(),
            s.bytes / 1024,
            c.capacity() / 1024,
            s.lookups,
            s.hits,
            s.evictions,
        ))
    }

    fn stats(&mut self, _: &str, _: &ExecOpts) -> Reply {
        let s = self.shared.cube().pool_stats();
        say(format!(
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

    /// Flushes the pool's dirty chunks as one transaction and reports
    /// the flush epoch and, for a file store, the log's counters. A
    /// commit is never interrupted: it finishes, or an expired deadline
    /// stops it before it starts.
    fn commit(&mut self, _: &str, opts: &ExecOpts) -> Reply {
        opts.bounds.check_deadline()?;
        let cube = self.shared.cube();
        cube.flush()
            .map_err(|e| Refusal::Error(format!("flush failed: {e}")))?;
        say(cube.with_pool(|pool| {
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
                    "flushed (memory-backed store: epoch {}, no log)",
                    guard.flush_epoch()
                ),
            }
        }))
    }

    fn sets(&mut self, _: &str, _: &ExecOpts) -> Reply {
        let sets = &self.shared.named_sets;
        if sets.is_empty() {
            return say("(no named sets in this dataset)".to_string());
        }
        let schema = self.shared.cube().schema();
        let mut out = String::new();
        for (name, dim, members) in sets {
            let names: Vec<&str> = members
                .iter()
                .take(8)
                .map(|&m| schema.dim(*dim).member_name(m))
                .collect();
            let more = members.len().saturating_sub(8);
            let more = (more > 0).then(|| format!(", … (+{more})"));
            let _ = writeln!(
                out,
                "[{name}] — {} members: {}{}",
                members.len(),
                names.join(", "),
                more.unwrap_or_default()
            );
        }
        say(out)
    }

    fn schema(&mut self, _: &str, _: &ExecOpts) -> Reply {
        let schema = self.shared.cube().schema();
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
            self.shared.cube().present_cell_count().unwrap_or(0),
            self.shared.cube().chunk_count(),
        );
        say(out)
    }

    fn instances(&mut self, member: &str, _: &ExecOpts) -> Reply {
        let member = need(member)?;
        let schema = self.shared.cube().schema();
        for d in schema.dim_ids() {
            if let Some(v) = schema.varying(d) {
                if let Some(m) = schema.dim(d).find(member) {
                    let ids = v.instances_of(m);
                    if ids.is_empty() {
                        return Err(Refusal::Error(format!(
                            "{member} has no instances (non-leaf?)"
                        )));
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
                    return say(out);
                }
            }
        }
        Err(Refusal::Error(format!(
            "no varying-dimension member named {member:?}"
        )))
    }

    /// Runs the query once and prints what ran — the
    /// Theorem 4.1 expression of its `WITH` clause, the varying-dimension
    /// slots the MDX layer scoped execution to, and the executor's report
    /// of that run.
    fn explain(&mut self, query: &str, opts: &ExecOpts) -> Reply {
        let parsed = parse(need(query)?)?;
        let mut out = format!("parsed: {parsed}\n");
        if parsed.with.is_none() {
            out.push_str("no WITH clause — plain OLAP query, no scenario\n");
            return say(out);
        }
        let run = olap_mdx::evaluate(&self.context(opts), &parsed)?;
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
        say(out)
    }

    fn csv(&mut self, query: &str, opts: &ExecOpts) -> Reply {
        say(olap_mdx::execute(&self.context(opts), need(query)?)?.to_csv())
    }

    /// Records a negative scenario (`<semantics> <m1,m2,...>`) on the
    /// current fork and runs it; with no argument, re-runs whatever the
    /// current fork assumes (a switch-then-re-run toggle). The scenario
    /// is recorded only once its run succeeds, so a refused or aborted
    /// run leaves the fork as it was. Reports only *deterministic* facts
    /// about the result — cell count, an order-independent digest, and
    /// the pass count. Cache/pool counters are deliberately omitted:
    /// under a shared pool and cache they depend on sibling sessions,
    /// and the server tests assert byte-identical responses across
    /// concurrent and serial runs.
    fn apply(&mut self, arg: &str, opts: &ExecOpts) -> Reply {
        if arg.is_empty() {
            let scenario = self.forest.scenario().ok_or_else(|| {
                Refusal::Usage(Some(format!(
                    "(fork '{}' has no scenario to re-run yet)",
                    self.forest.current_name()
                )))
            })?;
            return self.run_scenario(scenario, opts).map(Outcome::Continue);
        }
        let mut parts = arg.split_whitespace();
        let (Some(sem), Some(moments)) = (parts.next(), parts.next()) else {
            return Err(Refusal::Usage(None));
        };
        let semantics = match sem.to_ascii_lowercase().as_str() {
            "static" => whatif_core::Semantics::Static,
            "forward" | "fwd" => whatif_core::Semantics::Forward,
            "xforward" => whatif_core::Semantics::ExtendedForward,
            "backward" | "bwd" => whatif_core::Semantics::Backward,
            "xbackward" => whatif_core::Semantics::ExtendedBackward,
            _ => return Err(Refusal::Usage(None)),
        };
        let perspectives = moments
            .split(',')
            .map(|m| m.trim().parse::<u32>())
            .collect::<Result<Vec<u32>, _>>()
            .map_err(|_| Refusal::Usage(None))?;
        let spec = whatif_core::PerspectiveSpec::new(
            self.varying_dim()?,
            perspectives,
            semantics,
            whatif_core::Mode::Visual,
        );
        let reply = self.run_scenario(&Scenario::Negative(spec.clone()), opts)?;
        self.forest.set_negative(spec);
        say(reply)
    }

    /// The first varying dimension, which the scenario verbs act on.
    fn varying_dim(&self) -> Result<DimensionId, Refusal> {
        let schema = self.shared.cube().schema();
        schema
            .dim_ids()
            .find(|&d| schema.varying(d).is_some())
            .ok_or_else(|| Refusal::Error("this dataset has no varying dimension".to_string()))
    }

    /// Runs one scenario under the request's context and renders the
    /// deterministic summary line.
    fn run_scenario(&self, scenario: &Scenario, opts: &ExecOpts) -> Result<String, Refusal> {
        let label = match scenario {
            Scenario::Negative(spec) => perspective_label(spec),
            Scenario::Positive { changes, .. } => format!(
                "{} change(s) [fork '{}']",
                changes.len(),
                self.forest.current_name()
            ),
        };
        let (out, report) = whatif_core::apply(self.shared.cube(), scenario, None, opts)?;
        let (count, digest) = cell_digest(&out)?;
        let passes = report.passes;
        Ok(format!(
            "applied {label}: {count} cells, digest {digest:016x}, {passes} pass(es)",
        ))
    }

    /// Forks the current scenario and switches to the child.
    fn fork(&mut self, arg: &str, _: &ExecOpts) -> Reply {
        if arg.is_empty() || arg.split_whitespace().count() != 1 {
            return Err(Refusal::Usage(None));
        }
        let parent = self.forest.current_name().to_string();
        self.forest.fork(arg)?;
        say(format!("forked '{arg}' from '{parent}' — now on '{arg}'"))
    }

    /// Makes another fork current. Re-running it is then a warm-cache
    /// replay (the versioned cache kept its entries).
    fn switch(&mut self, arg: &str, _: &ExecOpts) -> Reply {
        self.forest.switch(need(arg)?)?;
        say(format!("now on '{arg}'"))
    }

    /// The session's fork tree.
    fn scenarios(&mut self, _: &str, _: &ExecOpts) -> Reply {
        let mut out = String::new();
        let schema = self.shared.cube().schema();
        for r in self.forest.rows() {
            let parent = r
                .parent
                .map(|p| format!("<- {p}"))
                .unwrap_or_else(|| "(root)".to_string());
            let summary = match r.scenario {
                None => "(empty)".to_string(),
                Some(Scenario::Negative(spec)) => perspective_label(spec),
                Some(Scenario::Positive { dim, changes, .. }) => {
                    changes_label(changes.len(), schema.dim(*dim).name())
                }
            };
            let _ = writeln!(
                out,
                "{} {:<12} {:<12} {summary}",
                if r.current { "*" } else { " " },
                r.name,
                parent,
            );
        }
        say(out)
    }

    /// Appends a positive change (`<member> <new parent> <moment>`) to
    /// the current fork; a bare re-run runs it. A change the positive
    /// plan would refuse ([`whatif_core::check_changes`]) is refused here
    /// and leaves the fork as it was.
    fn change(&mut self, arg: &str, _: &ExecOpts) -> Reply {
        let parts: Vec<&str> = arg.split_whitespace().collect();
        let [member, parent, moment] = parts[..] else {
            return Err(Refusal::Usage(None));
        };
        let dim = self.varying_dim()?;
        let (dim_name, m, n, at) = {
            let schema = self.shared.cube().schema();
            let dimension = schema.dim(dim);
            let find = |name: &str| {
                dimension.find(name).ok_or_else(|| {
                    Refusal::Error(format!("no member named {name:?} in {}", dimension.name()))
                })
            };
            let (m, n) = (find(member)?, find(parent)?);
            let v = schema.varying(dim).expect("varying dim found above");
            let names = schema.dim(v.parameter_dim()).leaf_names();
            let named = || names.iter().position(|nm| nm.eq_ignore_ascii_case(moment));
            let at = (moment.parse().ok())
                .or_else(|| named().map(|i| i as u32))
                .ok_or_else(|| {
                    Refusal::Error(format!(
                        "no moment named {moment:?} (and it is not a number)"
                    ))
                })?;
            (dimension.name().to_string(), m, n, at)
        };
        let change = whatif_core::Change {
            member: m,
            old_parent: None,
            new_parent: n,
            at,
        };
        // The fork's list with the change appended, as planning will get it.
        let mut changes = match self.forest.scenario() {
            Some(Scenario::Positive {
                dim: d, changes, ..
            }) if *d == dim => changes.clone(),
            _ => Vec::new(),
        };
        changes.push(change.clone());
        whatif_core::check_changes(self.shared.cube().schema(), dim, &changes)?;
        let count = (self.forest).add_change(dim, whatif_core::Mode::Visual, change)?;
        say(format!(
            "fork '{}': {}",
            self.forest.current_name(),
            changes_label(count, &dim_name),
        ))
    }

    /// One single-dimension group-by per cube dimension, run through
    /// the aggregator under the request's bounds, each replied with its
    /// non-⊥ cell count and [`group_by_digest`]. A session budget below
    /// what all of them need together means more passes; one below a
    /// single group-by's closure is refused before anything is read.
    fn rollup(&mut self, _: &str, opts: &ExecOpts) -> Reply {
        let cube = self.shared.cube();
        let schema = cube.schema();
        let ndims = cube.geometry().ndims();
        let masks: Vec<olap_cube::GroupByMask> = (0..ndims as u32).map(|d| 1 << d).collect();
        let (results, report) =
            olap_cube::CubeAggregator::new(cube).compute_bounded(&masks, &opts.bounds)?;
        let mut out = String::new();
        for (d, &mask) in masks.iter().enumerate() {
            let name = schema.dim(schema.dim_ids().nth(d).expect("dim")).name();
            let (count, digest) = group_by_digest(&results[&mask]);
            let _ = writeln!(out, "{name:<14} {count} cells, digest {digest:016x}");
        }
        let _ = write!(
            out,
            "{} pass(es), peak {} buffer cells",
            report.passes, report.peak_buffer_cells
        );
        say(out)
    }
}

/// How `.apply` and `.scenarios` word a perspective clause:
/// `forward {1,3}`.
fn perspective_label(spec: &PerspectiveSpec) -> String {
    let moments: Vec<String> = spec.perspectives.iter().map(u32::to_string).collect();
    format!(
        "{} {{{}}}",
        semantics_name(spec.semantics),
        moments.join(",")
    )
}

/// How `.change` and `.scenarios` word a change list.
fn changes_label(count: usize, dim: &str) -> String {
    format!("{count} change(s) on {dim}")
}

/// How a scenario verb spells each semantics variant.
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

/// `.rollup`'s summary of one group-by: its non-⊥ cell count and the
/// wrapping sum of the FNV-1a hashes of each such cell's coordinates and
/// accumulator (`sum`, `count`, `min`, `max` bits) — like
/// [`cell_digest`], independent of the order the cells are visited in.
pub fn group_by_digest(result: &olap_cube::GroupByResult) -> (u64, u64) {
    let (mut count, mut digest) = (0u64, 0u64);
    for (coords, acc) in result.cells().filter(|(_, acc)| !acc.is_empty()) {
        let mut h = Fnv64::new();
        for c in coords {
            h.write_u32(c);
        }
        h.write_u64(acc.sum.to_bits())
            .write_u64(acc.count)
            .write_u64(acc.min.to_bits())
            .write_u64(acc.max.to_bits());
        count += 1;
        digest = digest.wrapping_add(h.finish());
    }
    (count, digest)
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

/// One dot-verb. [`VERBS`] holds one row per verb and is the only
/// place a verb is known: [`Session::handle`] looks a line up and runs
/// its row, [`help`] and the unknown-verb reply are generated from the
/// rows, the reconnect journal ([`proto`]) keeps what `sets_session`
/// says, and a replica refuses every `writes_base` row. A row either
/// succeeds or leaves the session as it was; the table words every
/// refusal, so that [`is_refusal`] tells the two apart.
pub struct Verb {
    /// The name after the dot; it and the aliases match in any case.
    pub name: &'static str,
    /// Other names for the row.
    pub aliases: &'static [&'static str],
    /// The argument synopsis a usage refusal prints after the name;
    /// empty for a row that takes no argument, whose argful line the
    /// dispatcher refuses.
    pub usage: &'static str,
    /// What the verb does, for [`help`].
    pub help: &'static str,
    /// Writes the base cube, which a replica takes only from its leader.
    pub writes_base: bool,
    /// How an accepted line *with an argument* changes the session;
    /// `None` for a verb that only reads. The bare form of every such
    /// verb only reads, or is refused.
    pub sets_session: Option<SessionEffect>,
    run: fn(&mut Session, &str, &ExecOpts) -> Reply,
}

/// How an accepted line changes its session: all the reconnect journal
/// needs to replay it, or to drop it once a later line of the same verb
/// supersedes it ([`proto::compact_journal`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionEffect {
    /// Sets a knob that scenario runs read.
    Knob,
    /// Makes another fork current.
    Pick,
    /// Records the current fork's scenario, once it ran.
    Record,
    /// Adds a fork, or a change to the current fork; never superseded.
    Grow,
}

impl SessionEffect {
    /// Whether this line depends on what an `earlier` line left, so that
    /// one must replay even if superseded later: a run reads the knobs
    /// and the current fork, growth acts on the current fork and copies
    /// its scenario, and a pick decides where the next record lands.
    pub fn observes(self, earlier: SessionEffect) -> bool {
        matches!(
            (self, earlier),
            (Record, Knob | Pick) | (Grow, Pick | Record) | (Pick, Record)
        )
    }
}

use SessionEffect::{Grow, Knob, Pick, Record};

/// What a row's `run` returns: its reply, or why it changed nothing.
type Reply = Result<Outcome, Refusal>;

fn say(text: String) -> Reply {
    Ok(Outcome::Continue(text))
}

/// Why a verb turned a line down; the dispatcher words the reply.
#[derive(Debug)]
enum Refusal {
    /// The argument does not fit the row's usage; a note may follow.
    Usage(Option<String>),
    /// The line fits but cannot be carried out.
    Error(String),
    /// The request's deadline expired mid-run.
    Deadline(String),
}

impl Refusal {
    fn error(e: impl fmt::Display) -> Refusal {
        Refusal::Error(e.to_string())
    }

    /// The reply; only a usage refusal reads `verb`.
    fn outcome(self, verb: &Verb) -> Outcome {
        match self {
            Refusal::Usage(note) => {
                let note = note.map(|n| format!("\n{n}")).unwrap_or_default();
                let synopsis = format!(".{} {}", verb.name, verb.usage);
                Outcome::Continue(format!("usage: {}{note}", synopsis.trim_end()))
            }
            Refusal::Error(e) => Outcome::Continue(format!("error: {e}")),
            Refusal::Deadline(e) => Outcome::Deadline(format!("error: {e}")),
        }
    }
}

/// The one mapping from every layer's errors to a reply. The bounds'
/// two refusals, declared once as [`olap_cube::CubeError`], are worded
/// by themselves whichever layer raised them; a deadline abort is the
/// one failure answered with `-`.
impl<E: std::error::Error + 'static> From<E> for Refusal {
    fn from(e: E) -> Refusal {
        use olap_cube::CubeError::{DeadlineExceeded, OverBudget};
        let mut cause: Option<&(dyn std::error::Error + 'static)> = Some(&e);
        while let Some(c) = cause {
            match c.downcast_ref() {
                Some(b @ DeadlineExceeded) => return Refusal::Deadline(b.to_string()),
                Some(b @ OverBudget { .. }) => return Refusal::error(b),
                _ => cause = c.source(),
            }
        }
        Refusal::error(e)
    }
}

/// Whether a reply says its line was refused, and so changed nothing.
pub fn is_refusal(reply: &str) -> bool {
    reply.starts_with("error:") || reply.starts_with("usage:")
}

/// The argument of a verb that requires one.
fn need(arg: &str) -> Result<&str, Refusal> {
    (!arg.is_empty()).then_some(arg).ok_or(Refusal::Usage(None))
}

/// Shows a knob, or sets it first when `arg` is a number; 0 reads as
/// unlimited.
fn knob(slot: &mut u64, arg: &str, label: &str, unit: &str) -> Reply {
    if !arg.is_empty() {
        *slot = arg.parse().map_err(|_| Refusal::Usage(None))?;
    }
    say(match *slot {
        0 => format!("{label}: unlimited"),
        n => format!("{label}: {n} {unit}"),
    })
}

/// The fields most rows share: no aliases or argument, and no write.
#[rustfmt::skip]
const READ: Verb = Verb { name: "", aliases: &[], usage: "", help: "", writes_base: false,
    sets_session: None, run: |_, _, _| say(String::new()) };

/// Every dot-verb, in `.help` order. The unknown-verb reply points to
/// the first row.
#[rustfmt::skip]
pub static VERBS: &[Verb] = &[
    Verb { name: "help", aliases: &["h"], run: |_, _, _| say(help()), help: "this text", ..READ },
    Verb { name: "schema", run: Session::schema, help: "dimensions, axis sizes, varying info", ..READ },
    Verb { name: "instances", usage: "<member name>", run: Session::instances,
        help: "a changing member's instances + validity sets", ..READ },
    Verb { name: "sets", run: Session::sets, help: "named sets registered for this dataset", ..READ },
    Verb { name: "explain", usage: "<extended MDX query>", run: Session::explain,
        help: "run a query once; print its algebra, scope and executor report", ..READ },
    Verb { name: "csv", usage: "<query>", run: Session::csv,
        help: "run a query and print the grid as CSV", ..READ },
    Verb { name: "apply", sets_session: Some(Record), run: Session::apply,
        usage: "<static|forward|xforward|backward|xbackward> <m1,m2,...> \
                — bare .apply re-runs the current fork's scenario",
        help: "run a negative scenario (first varying dim) and record it on\n\
               the current fork; deterministic summary: cell count, digest,\n\
               passes", ..READ },
    Verb { name: "fork", usage: "<name>", sets_session: Some(Grow), run: Session::fork,
        help: "fork the current scenario and switch to it", ..READ },
    Verb { name: "switch", usage: "<name>", sets_session: Some(Pick), run: Session::switch,
        help: "make another fork current (warm-cache replay on re-apply)", ..READ },
    Verb { name: "scenarios", run: Session::scenarios, help: "list this session's scenario forks", ..READ },
    Verb { name: "change", usage: "<member> <new parent> <moment>", sets_session: Some(Grow),
        run: Session::change,
        help: "append a positive change to the current fork; run it with\nbare .apply", ..READ },
    Verb { name: "rollup", run: Session::rollup, help: "per-dimension group-bys via the budget-aware \
        multi-pass\naggregator, each as non-⊥ cells + digest (small budgets add passes\nor are refused)", ..READ },
    Verb { name: "budget", usage: "[cells]", sets_session: Some(Knob),
        run: |s, arg, _| knob(&mut s.budget_cells, arg, "session budget", "cells"),
        help: "show or set this session's peak-memory budget (0 = unlimited)", ..READ },
    Verb { name: "deadline", usage: "[ms]", sets_session: Some(Knob),
        run: |s, arg, _| knob(&mut s.deadline_ms, arg, "request deadline", "ms"),
        help: "show or set the per-request deadline (0 = unlimited); an\n\
               expired request aborts at a block, row, slice or pass\n\
               boundary, session intact", ..READ },
    Verb { name: "cache", run: Session::cache,
        help: "scenario-delta cache statistics (--cache MB to enable)", ..READ },
    Verb { name: "commit", writes_base: true, run: Session::commit,
        help: "flush dirty chunks atomically; report flush epoch + log counters", ..READ },
    Verb { name: "stats", run: Session::stats,
        help: "buffer-pool counters (incl. read errors, retries, flushes)", ..READ },
    Verb { name: "quit", aliases: &["q", "exit"], run: |_, _, _| Ok(Outcome::Quit("bye".into())),
        help: "exit", ..READ },
];

/// The row a dot-command's verb runs and the line's trimmed argument;
/// `None` for a query line or an unknown verb.
pub fn lookup(line: &str) -> Option<(&'static Verb, &str)> {
    let rest = line.trim().strip_prefix('.')?;
    let (head, arg) = rest.split_once(' ').unwrap_or((rest, ""));
    let is = |n: &&str| n.eq_ignore_ascii_case(head);
    let verb = VERBS
        .iter()
        .find(|v| is(&v.name) || v.aliases.iter().any(is))?;
    Some((verb, arg.trim()))
}

/// The `.help` text: one entry per row of [`VERBS`], then an example.
pub fn help() -> String {
    let indent = format!("\n{:23}", "");
    let mut out = String::from("Enter an (extended) MDX query, or a command:\n");
    for v in VERBS {
        let synopsis = format!(".{} {}", v.name, v.usage);
        let (synopsis, text) = (synopsis.trim_end(), v.help.replace('\n', &indent));
        let wide = synopsis.len() > 20;
        let gap = if wide { &indent[..] } else { " " };
        let _ = writeln!(out, "  {synopsis:<20}{gap}{text}");
    }
    out.push_str(
        "\nExample what-if (running example dataset):
  WITH PERSPECTIVE {(Jan)} FOR Organization DYNAMIC FORWARD VISUAL
  SELECT {Time.[Qtr1], Time.[Qtr2]} ON COLUMNS,
         {Organization.[FTE], Organization.[Contractor]} ON ROWS
  FROM [Warehouse] WHERE (Location.[NY], Measures.[Salary])",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh session over unshared data with a 16 MB scenario cache.
    fn cached(dataset: Dataset) -> Session {
        let mut shared = SharedData::load(dataset);
        shared.set_cache_mb(16);
        Session::attach(Arc::new(shared))
    }

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

    /// The server's shape: sessions over one shared dataset, each on its
    /// own thread and asking at once, reply exactly as one session alone.
    #[test]
    fn threaded_session_matches_serial() {
        let q = "WITH PERSPECTIVE {(Feb), (Apr)} FOR Organization DYNAMIC FORWARD VISUAL \
                 SELECT {Time.[Qtr1], Time.[Qtr2]} ON COLUMNS, \
                 {Organization.[FTE], Organization.[PTE], Organization.[Contractor]} ON ROWS \
                 FROM [W] WHERE (Location.[NY], Measures.[Salary])";
        let lines = [q, ".rollup", ".apply forward 1,3"];
        let mut serial = Session::new(Dataset::Running);
        let want: Vec<Outcome> = lines.iter().map(|l| serial.handle(l)).collect();
        let shared = Arc::new(SharedData::load(Dataset::Running));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let (shared, want) = (shared.clone(), &want);
                s.spawn(move || {
                    let mut session = Session::attach(shared);
                    for (line, want) in lines.iter().zip(want) {
                        assert_eq!(&session.handle(line), want, "{line}");
                    }
                });
            }
        });
    }

    #[test]
    fn cached_session_matches_uncached() {
        let q = "WITH PERSPECTIVE {(Feb), (Apr)} FOR Organization DYNAMIC FORWARD VISUAL \
                 SELECT {Time.[Qtr1], Time.[Qtr2]} ON COLUMNS, \
                 {Organization.[FTE], Organization.[PTE], Organization.[Contractor]} ON ROWS \
                 FROM [W] WHERE (Location.[NY], Measures.[Salary])";
        let mut plain = Session::new(Dataset::Running);
        let mut cached = cached(Dataset::Running);
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
                assert!(t.contains("no log"), "{t}");
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
    /// log and the log's transaction counters. The build committed the
    /// base image as epoch 1, so the `.commit` is the second transaction;
    /// each is a `BEGIN` and a `COMMIT` (36 bytes each) and two fsyncs.
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
        let expected = "flushed at epoch 2 — log: 2 txns committed, 0 aborted, \
                        144 marker bytes, 4 syncs";
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
    /// `ExecReport` that `evaluate_full` returns for the same query. A
    /// positive run streams: on the bench cube (employee extent 1) every
    /// slot after the move shifts into the next chunk, a merge path of
    /// hundreds of nodes, yet no more buffers live at once than a few.
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
                 executor: 1 pass(es), merge graph 4/3 (nodes/edges), predicted pebbles 2, \
                 14 chunk reads, 0 cache chunks served\n",
            ),
        ];
        for (query, expected) in cases {
            let mut s = Session::new(Dataset::Running);
            let (_, report) =
                olap_mdx::evaluate_full(&s.context(&s.request_opts()), &parse(query).unwrap())
                    .unwrap();
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
        let mut s = Session::new(Dataset::Bench);
        s.handle(".change emp00001 dept002 5");
        let positive = s.forest.scenario().expect("the change is recorded");
        let (_, r) =
            whatif_core::apply(s.shared().cube(), positive, None, &ExecOpts::default()).unwrap();
        assert!(
            r.peak_out_buffers >= r.predicted_pebbles as u64
                && r.peak_out_buffers < r.graph_nodes as u64,
            "{r:?}"
        );
    }

    #[test]
    fn apply_digest_is_identical_across_executor_configs() {
        let baseline = match Session::new(Dataset::Running).handle(".apply forward 1,3") {
            Outcome::Continue(t) => t,
            other => panic!("{other:?}"),
        };
        assert!(baseline.contains("digest"), "{baseline}");
        assert!(baseline.contains("cells"), "{baseline}");
        match cached(Dataset::Running).handle(".apply forward 1,3") {
            Outcome::Continue(t) => assert_eq!(t, baseline),
            other => panic!("{other:?}"),
        }
        // A warm cache replays the same answer.
        let mut cached = cached(Dataset::Running);
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
        // from MDX `WITH PERSPECTIVE` and `WITH CHANGES` lines and from a
        // negative and a positive `.apply`, with the shared cache on.
        let mut shared = SharedData::load(Dataset::Bench);
        shared.set_cache_mb(16);
        let mut s = Session::attach(Arc::new(shared));
        let mdx = Workforce::build(WorkforceConfig::bench())
            .fig10a_query_sem(&["Jan", "Apr", "Jul", "Oct"], "DYNAMIC FORWARD");
        // The golden transcript's move, as a `.change` on the main fork
        // (a bare `.apply` runs it) and as the same grid `WITH CHANGES`.
        let change = ".change emp00001 dept002 5";
        let changes_mdx = {
            let dim = s.varying_dim().unwrap();
            let schema = s.shared().cube().schema();
            let d = schema.dim(dim);
            let emp = d.resolve("emp00001").unwrap();
            let old = schema.varying(dim).unwrap().parent_at(d, emp, 5).unwrap();
            let select = mdx.split_once("SELECT").unwrap().1;
            format!(
                "WITH CHANGES {{([emp00001], [{}], [dept002], Jun)}} VISUAL SELECT{select}",
                d.member_name(old)
            )
        };
        assert!(matches!(s.handle(change), Outcome::Continue(t) if t.contains("1 change(s)")));
        let positive = s
            .forest
            .scenario()
            .cloned()
            .expect("the change is recorded");
        let apply = ".apply forward 0,3,6,9";
        let lines = [mdx.as_str(), apply, changes_mdx.as_str(), ".apply"];
        let gets = |s: &Session| {
            let p = s.shared().cube().pool_stats();
            p.hits + p.misses
        };

        // One cell holds no merge buffer, so every plan that merges is
        // rejected before a read, scoped (MDX) or not (`.apply`),
        // negative or positive.
        s.handle(".budget 1");
        for line in lines {
            let before = gets(&s);
            match s.handle(line) {
                Outcome::Continue(t) => {
                    assert!(
                        t.starts_with("error:") && t.contains("budget"),
                        "{line}: {t}"
                    )
                }
                other => panic!("{line}: {other:?}"),
            }
            assert_eq!(gets(&s), before, "{line}: refused before a chunk read");
        }
        // The rejected `.apply` recorded nothing; its scenario is rebuilt
        // here exactly as the verb builds it.
        assert_eq!(s.forest.scenario(), Some(&positive));
        let negative = whatif_core::Scenario::Negative(whatif_core::PerspectiveSpec::new(
            s.varying_dim().unwrap(),
            [0, 3, 6, 9],
            whatif_core::Semantics::Forward,
            whatif_core::Mode::Visual,
        ));
        s.handle(".budget 0");
        // A request's deadline is fixed when its options are assembled:
        // options taken before the deadline passed abort the run at its
        // first check, however fast the run would be.
        s.handle(".deadline 1");
        let scenarios = s.handle(".scenarios");
        let expired = || {
            let opts = s.request_opts();
            std::thread::sleep(std::time::Duration::from_millis(5));
            opts
        };
        for query in [&mdx, &changes_mdx] {
            match olap_mdx::execute(&s.context(&expired()), query).map_err(Refusal::from) {
                Err(Refusal::Deadline(e)) => assert!(e.contains("deadline"), "{e}"),
                other => panic!("an expired deadline must abort the MDX run: {other:?}"),
            }
        }
        for scenario in [&negative, &positive] {
            match s.run_scenario(scenario, &expired()) {
                Err(Refusal::Deadline(t)) => assert!(t.contains("deadline"), "{t}"),
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(s.handle(".scenarios"), scenarios);
        // Lifted, every line answers what a fresh uncached session does,
        // and the positive `.apply` the golden transcript's bytes — the
        // aborts left the session intact.
        s.handle(".deadline 0");
        let mut fresh = Session::new(Dataset::Bench);
        fresh.handle(change);
        for line in [changes_mdx.as_str(), ".apply", mdx.as_str(), apply] {
            let reply = s.handle(line);
            assert!(
                matches!(&reply, Outcome::Continue(t) if !t.starts_with("error:")),
                "{line}: {reply:?}"
            );
            assert_eq!(reply, fresh.handle(line), "{line}");
            if line == ".apply" {
                let golden = "applied 1 change(s) [fork 'main']: 38400 cells, \
                              digest 78cb371fd553faac, 1 pass(es)";
                assert_eq!(reply, Outcome::Continue(golden.to_string()));
            }
        }
        assert_eq!(s.forest.scenario(), Some(&negative));
    }

    /// A scenario run the deadline aborts records nothing: the fork keeps
    /// the scenario it had, so a client that does not journal the `-`
    /// reply stays in step with the live session.
    #[test]
    fn an_aborted_apply_leaves_the_fork_untouched() {
        let mut s = Session::new(Dataset::Bench);
        let first = s.handle(".apply forward 0,3");
        assert!(
            matches!(&first, Outcome::Continue(t) if t.contains("digest")),
            "{first:?}"
        );
        let before = s.handle(".scenarios");
        s.handle(".deadline 1");
        match s.handle(".apply forward 0,3,6,9") {
            Outcome::Deadline(t) => assert!(t.starts_with("error:"), "{t}"),
            other => panic!("a 1 ms deadline must abort the run: {other:?}"),
        }
        assert_eq!(s.handle(".scenarios"), before);
        s.handle(".deadline 0");
        assert_eq!(s.handle(".apply"), first);
    }

    /// `.rollup` under a session budget. Below the cheapest group-by's
    /// closure it is refused for the budget before its first pool get. At
    /// the costliest single closure, which is below what all four
    /// together need, it splits into passes, peaks within the budget and
    /// replies every group-by's line as it does unlimited.
    #[test]
    fn rollup_respects_the_session_budget() {
        let mut s = Session::new(Dataset::Running);
        let unlimited = match s.handle(".rollup") {
            Outcome::Continue(t) => t,
            other => panic!("{other:?}"),
        };
        assert!(unlimited.contains("cells, digest"), "{unlimited}");
        assert!(unlimited.contains("1 pass(es)"), "{unlimited}");
        // What each dimension's group-by admits alone, read from its
        // refusal under a one-cell budget.
        let cube = s.shared().cube();
        let agg = olap_cube::CubeAggregator::new(cube);
        let closures: Vec<u64> = (0..cube.geometry().ndims())
            .map(|d| match agg.compute_with_budget(&[1 << d], 1) {
                Err(olap_cube::CubeError::OverBudget { needed, .. }) => needed,
                other => panic!("dimension {d}: {other:?}"),
            })
            .collect();
        let cheapest = *closures.iter().min().unwrap();
        let costliest = *closures.iter().max().unwrap();

        s.handle(&format!(".budget {}", cheapest - 1));
        let (reads, gets) = (session_reads(&mut s), pool_gets(&s));
        match s.handle(".rollup") {
            Outcome::Continue(t) => {
                assert!(t.starts_with("error:") && t.contains("budget"), "{t}")
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(pool_gets(&s), gets, "refused before a pool get");
        assert_eq!(session_reads(&mut s), reads);

        s.handle(&format!(".budget {costliest}"));
        let squeezed = match s.handle(".rollup") {
            Outcome::Continue(t) => t,
            other => panic!("{other:?}"),
        };
        let per_dim = |s: &str| -> Vec<String> {
            (s.lines())
                .filter(|l| !l.contains("pass(es)"))
                .map(|l| l.to_string())
                .collect()
        };
        assert_eq!(per_dim(&squeezed), per_dim(&unlimited), "{squeezed}");
        // `N pass(es), peak P buffer cells`
        let last: Vec<u64> = (squeezed.lines().last().unwrap().split_whitespace())
            .filter_map(|w| w.parse().ok())
            .collect();
        let [passes, peak] = last[..] else {
            panic!("{squeezed}")
        };
        assert!(passes >= 2, "{squeezed}");
        assert!(peak <= costliest, "{squeezed}");
    }

    /// Every row of the table refuses a malformed argument, and every row
    /// that can fail refuses a failing line, in words [`is_refusal`]
    /// reads; no refused line changes the fork tree. A one-cell budget
    /// makes every line that would run a scenario or a rollup fail.
    #[test]
    fn every_verb_refuses_malformed_and_failing_lines() {
        let what_if = "WITH PERSPECTIVE {(Feb), (Apr)} FOR Organization DYNAMIC FORWARD \
                       SELECT {Time.[Qtr1]} ON COLUMNS, {Organization.[PTE]} ON ROWS \
                       FROM [W] WHERE (Location.[NY], Measures.[Salary])";
        let unresolved = "WITH PERSPECTIVE {(Feb)} FOR Organization STATIC \
                          SELECT {Time.[Qtr1]} ON COLUMNS, {Organization.[Ghost]} ON ROWS \
                          FROM [W]";
        let explain = [
            ".explain SELECT nonsense".to_string(),
            format!(".explain {unresolved}"),
            format!(".explain {what_if}"),
        ];
        let csv = [
            ".csv SELECT nonsense".to_string(),
            format!(".csv {what_if}"),
        ];
        // (row, malformed line, failing lines)
        let rows: Vec<(&str, &str, Vec<String>)> = vec![
            ("help", ".help me", vec![]),
            ("schema", ".schema Organization", vec![]),
            (
                "instances",
                ".instances",
                vec![".instances Ghost".into(), ".instances FTE".into()],
            ),
            ("sets", ".sets all", vec![]),
            ("explain", ".explain", explain.to_vec()),
            ("csv", ".csv", csv.to_vec()),
            (
                "apply",
                ".apply sideways 1",
                vec![
                    ".apply".into(),
                    ".apply forward 1,3".into(),
                    ".apply forward 99".into(),
                ],
            ),
            ("fork", ".fork a b", vec![".fork main".into()]),
            ("switch", ".switch", vec![".switch ghost".into()]),
            ("scenarios", ".scenarios all", vec![]),
            (
                "change",
                ".change Joe PTE",
                vec![
                    ".change Ghost PTE 2".into(),
                    ".change Joe PTE Never".into(),
                    ".change Joe FTE 99".into(),
                    ".change Joe Tom 2".into(),
                ],
            ),
            ("rollup", ".rollup Time", vec![".rollup".into()]),
            ("budget", ".budget lots", vec![]),
            ("deadline", ".deadline soon", vec![]),
            ("cache", ".cache clear", vec![]),
            ("commit", ".commit now", vec![]),
            ("stats", ".stats reset", vec![]),
            ("quit", ".quit now", vec![]),
        ];
        let named: Vec<&str> = rows.iter().map(|r| r.0).collect();
        let table: Vec<&str> = VERBS.iter().map(|v| v.name).collect();
        assert_eq!(named, table, "one case row per VERBS row, in table order");

        let mut s = Session::new(Dataset::Running);
        for line in [".apply forward 1,3", ".fork alt", ".apply forward 2,4"] {
            let reply = s.handle(line);
            assert!(
                matches!(&reply, Outcome::Continue(t) if !is_refusal(t)),
                "{reply:?}"
            );
        }
        let before = s.handle(".scenarios");
        s.handle(".budget 1");
        for (name, malformed, failing) in &rows {
            for line in std::iter::once(malformed.to_string()).chain(failing.iter().cloned()) {
                let reply = match s.handle(&line) {
                    Outcome::Continue(t) | Outcome::Deadline(t) | Outcome::Quit(t) => t,
                };
                assert!(is_refusal(&reply), ".{name}: {line}: {reply}");
                assert_eq!(s.handle(".scenarios"), before, ".{name}: {line}");
            }
        }
    }

    /// A deadline that expires inside `.explain` is a deadline refusal,
    /// as it is for a plain query.
    #[test]
    fn an_expired_explain_is_a_deadline_refusal() {
        let mut s = Session::new(Dataset::Bench);
        s.handle(".deadline 1");
        let query = "WITH PERSPECTIVE {(Jan), (Apr), (Jul), (Oct)} FOR Department \
                     DYNAMIC FORWARD VISUAL SELECT {[Account].Levels(0).Members} ON COLUMNS \
                     FROM [App].[Db]";
        match s.handle(&format!(".explain {query}")) {
            Outcome::Deadline(t) => assert!(t.starts_with("error:"), "{t}"),
            other => panic!("a 1 ms deadline must abort the run: {other:?}"),
        }
    }

    /// The lines the bounds loops run on the running example: one per
    /// [`VERBS`] row, in table order, then a plain MDX line and a `WITH`
    /// line, each flagged when it does bounded work.
    fn bounds_loop_lines() -> Vec<(String, bool)> {
        let select = "SELECT {Time.[Qtr1], Time.[Qtr2]} ON COLUMNS, \
                      {Organization.[FTE], Organization.[Contractor]} ON ROWS \
                      FROM [Warehouse] WHERE (Location.[NY], Measures.[Salary])";
        let with = format!("WITH PERSPECTIVE {{(Jan)}} FOR Organization DYNAMIC FORWARD {select}");
        let rows = [
            ("help", ".help".to_string()),
            ("schema", ".schema".into()),
            ("instances", ".instances Joe".into()),
            ("sets", ".sets".into()),
            ("explain", format!(".explain {with}")),
            ("csv", format!(".csv {select}")),
            ("apply", ".apply forward 1,3".into()),
            ("fork", ".fork other".into()),
            ("switch", ".switch alt".into()),
            ("scenarios", ".scenarios".into()),
            ("change", ".change Lisa PTE 3".into()),
            ("rollup", ".rollup".into()),
            ("budget", ".budget 0".into()),
            ("deadline", ".deadline 0".into()),
            ("cache", ".cache".into()),
            ("commit", ".commit".into()),
            ("stats", ".stats".into()),
            ("quit", ".quit".into()),
        ];
        let named: Vec<&str> = rows.iter().map(|r| r.0).collect();
        let table: Vec<&str> = VERBS.iter().map(|v| v.name).collect();
        assert_eq!(named, table, "one line per VERBS row, in table order");
        let bounded = ["explain", "csv", "apply", "rollup"];
        (rows.into_iter())
            .map(|(name, line)| (line, bounded.contains(&name)))
            .chain([(select.to_string(), true), (with, true)])
            .collect()
    }

    /// A cached running-example session with a recorded scenario and a
    /// second fork, so that the scenario rows have something to act on.
    fn bounds_loop_session() -> Session {
        let mut s = cached(Dataset::Running);
        for line in [".apply forward 2,4", ".fork alt", ".switch main"] {
            let reply = s.handle(line);
            assert!(
                matches!(&reply, Outcome::Continue(t) if !is_refusal(t)),
                "{reply:?}"
            );
        }
        s
    }

    /// What a refused line must leave as it was: the fork tree, both
    /// knobs and the scenario cache.
    fn session_reads(s: &mut Session) -> Vec<Outcome> {
        [".scenarios", ".budget", ".deadline", ".cache"]
            .map(|l| s.handle(l))
            .into()
    }

    /// Pool gets so far: a line refused before its first read adds none.
    fn pool_gets(s: &Session) -> u64 {
        let p = s.shared().cube().pool_stats();
        p.hits + p.misses
    }

    /// Under a context whose deadline has passed before any layer looks,
    /// every row answers as it does unbounded or with the deadline
    /// refusal, and every row that does bounded work is refused before
    /// its first pool get, leaving the session as it was.
    #[test]
    fn every_row_answers_an_expired_deadline_before_reading() {
        for (line, bounded) in bounds_loop_lines() {
            let mut free = bounds_loop_session();
            let want = free.handle(&line);
            let mut s = bounds_loop_session();
            let (reads, gets) = (session_reads(&mut s), pool_gets(&s));
            let mut expired = s.request_opts();
            expired.bounds.deadline = Some(std::time::Instant::now());
            match s.run_line(&line, &expired) {
                Outcome::Deadline(t) => {
                    assert!(t.starts_with("error: deadline exceeded"), "{line}: {t}");
                    assert_eq!(pool_gets(&s), gets, "{line}: refused before a pool get");
                    assert_eq!(session_reads(&mut s), reads, "{line}");
                }
                got => {
                    assert!(!bounded, "{line}: bounded work must be refused: {got:?}");
                    assert_eq!(got, want, "{line}");
                    assert_eq!(session_reads(&mut s), session_reads(&mut free), "{line}");
                }
            }
        }
    }

    /// Under a one-chunk `.budget`, every row answers as it does
    /// unbudgeted or is refused for the budget before its first pool
    /// get: no line fails mid-run.
    #[test]
    fn every_row_answers_a_one_chunk_budget_before_reading() {
        let mut refused = Vec::new();
        for (line, _) in bounds_loop_lines() {
            let want = bounds_loop_session().handle(&line);
            let mut s = bounds_loop_session();
            let chunk = s.shared().cube().geometry().chunk_cells();
            s.handle(&format!(".budget {chunk}"));
            let (reads, gets) = (session_reads(&mut s), pool_gets(&s));
            match s.handle(&line) {
                Outcome::Continue(t) if is_refusal(&t) && Outcome::Continue(t.clone()) != want => {
                    assert!(
                        t.starts_with("error:") && t.contains("budget"),
                        "{line}: {t}"
                    );
                    assert_eq!(pool_gets(&s), gets, "{line}: refused before a pool get");
                    assert_eq!(session_reads(&mut s), reads, "{line}");
                    refused.push(line);
                }
                got => assert_eq!(got, want, "{line}"),
            }
        }
        assert!(!refused.is_empty(), "one chunk holds no merge buffer");
        assert!(
            refused.iter().any(|l| l == ".rollup"),
            "one chunk holds no group-by closure: {refused:?}"
        );
    }

    /// A grid admits its plan before it reads: a query whose rows or
    /// columns a `Filter` decides, or whose positive `WITH CHANGES`
    /// scenario must run before its cells are read, is refused for the
    /// budget with no pool get. Unbudgeted, both reply as before the
    /// split (the second pinned by its FNV-1a over the reply's bytes).
    #[test]
    fn refused_grids_read_nothing() {
        let filter = "SELECT {Filter({Organization.[FTE].Children}, \
                      (Time.[Jan], Location.[NY], Measures.[Salary]) > 0)} ON COLUMNS, \
                      {Time.[Qtr1], Time.[Qtr2]} ON ROWS FROM [W]";
        let positive = "WITH CHANGES {([FTE].[Lisa], [FTE], [PTE], Apr)} VISUAL \
                        SELECT {CrossJoin({Time.Members}, {Location.Members})} ON COLUMNS, \
                        {Organization.Members} ON ROWS FROM [W] WHERE (Measures.[Salary])";
        let mut s = Session::new(Dataset::Running);
        for (line, budget) in [(filter, 1), (positive, 100)] {
            s.handle(&format!(".budget {budget}"));
            let gets = pool_gets(&s);
            match s.handle(line) {
                Outcome::Continue(t) => assert!(
                    t.starts_with("error:") && t.contains("budget"),
                    "{line}: {t}"
                ),
                other => panic!("{line}: {other:?}"),
            }
            assert_eq!(pool_gets(&s), gets, "{line}: refused before a pool get");
        }
        s.handle(".budget 0");
        assert_eq!(
            s.handle(filter),
            Outcome::Continue("      Joe  Lisa\nQtr1   60    60\nQtr2   40    60\n".into())
        );
        let Outcome::Continue(grid) = s.handle(positive) else {
            panic!("{positive}")
        };
        let mut h = Fnv64::new();
        for b in grid.bytes() {
            h.write_u8(b);
        }
        assert_eq!((grid.len(), h.finish()), (11070, 0x2cbb_2fdc_fb99_854e));
    }

    /// A derived cube keeps each chunk once: its pool never evicts, so a
    /// bench apply whose result spans more chunks than a base cube's
    /// default pool of 1024 frames is digested from resident frames alone.
    #[test]
    fn a_derived_cube_keeps_its_chunks_once() {
        let s = Session::new(Dataset::Bench);
        let spec = PerspectiveSpec::new(
            s.varying_dim().unwrap(),
            [2, 5],
            whatif_core::Semantics::Static,
            whatif_core::Mode::Visual,
        );
        let scenario = Scenario::Negative(spec);
        let (out, _) =
            whatif_core::apply(s.shared().cube(), &scenario, None, &ExecOpts::default()).unwrap();
        let chunks = out.chunk_count() as u64;
        assert!(chunks > 1024, "{chunks} output chunks");
        cell_digest(&out).unwrap();
        let p = out.pool_stats();
        assert_eq!((p.evictions, p.misses), (0, 0), "{p:?}");
        assert!(p.hits >= chunks, "{p:?}");
    }

    #[test]
    fn fork_switch_and_reapply_toggle_scenarios() {
        let mut s = cached(Dataset::Running);
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

    /// A replayed positive `.apply` on a cached session is served the
    /// split's merged components from the scenario cache (its hits grow)
    /// and answers the cold bytes. A fork replaying the same list shares
    /// the entries; an edited list grows the axis further, so it merges
    /// again and hits nothing.
    #[test]
    fn warm_positive_replay_answers_from_the_split_memo() {
        let mut s = cached(Dataset::Running);
        let hits = |s: &Session| s.shared().cache().expect("cache on").stats().hits;
        assert!(matches!(
            s.handle(".change Joe PTE 3"),
            Outcome::Continue(t) if t == "fork 'main': 1 change(s) on Organization"
        ));
        let cold = match s.handle(".apply") {
            Outcome::Continue(t) => t,
            other => panic!("{other:?}"),
        };
        assert_eq!(hits(&s), 0, "the cold apply merges every component");
        let mut served = 0;
        for _ in 0..3 {
            assert_eq!(s.handle(".apply"), Outcome::Continue(cold.clone()));
            assert!(hits(&s) > served, "a replay is served components");
            served = hits(&s);
        }
        s.handle(".fork child");
        match s.handle(".apply") {
            Outcome::Continue(t) => assert_eq!(t.replace("fork 'child'", "fork 'main'"), cold),
            other => panic!("{other:?}"),
        }
        assert!(hits(&s) > served, "the fork shares the entries");
        served = hits(&s);
        s.handle(".change Lisa Contractor 3");
        assert!(matches!(s.handle(".apply"), Outcome::Continue(t) if t.contains("digest")));
        assert_eq!(hits(&s), served, "an edited list must merge again");
    }

    /// `.change` refuses what planning would refuse — a moment out of
    /// range, a leaf parent, a cycle the fork's list closes — and leaves
    /// the fork runnable.
    #[test]
    fn change_refuses_what_split_refuses() {
        let mut s = Session::new(Dataset::Running);
        s.handle(".change FTE PTE 1");
        let before = s.handle(".scenarios");
        for (line, says) in [
            (".change Joe FTE 99", "change moment 99 out of range"),
            (".change Joe Tom 2", "must be a non-leaf member"),
            (".change PTE FTE 2", "its own ancestor at moment 2"),
        ] {
            match s.handle(line) {
                Outcome::Continue(t) => {
                    assert!(t.starts_with("error: ") && t.contains(says), "{line}: {t}")
                }
                other => panic!("{line}: {other:?}"),
            }
            assert_eq!(s.handle(".scenarios"), before, "{line}");
        }
        assert!(matches!(s.handle(".apply"), Outcome::Continue(t) if t.contains("digest")));
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
        // A fork copies the changes; the child's extra edit is invisible
        // to the parent.
        s.handle(".fork more");
        assert_eq!(
            s.handle(".change Lisa Contractor 3"),
            Outcome::Continue("fork 'more': 2 change(s) on Organization".to_string())
        );
        s.handle(".switch main");
        s.handle(".fork negative");
        s.handle(".apply forward 1,3");
        s.handle(".switch main");
        let expected = "* main         (root)       1 change(s) on Organization\n  \
                        more         <- main      2 change(s) on Organization\n  \
                        negative     <- main      forward {1,3}\n";
        assert_eq!(
            s.handle(".scenarios"),
            Outcome::Continue(expected.to_string())
        );
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
