//! The traced run: per-layer numbers from outside the program.
//!
//! One client sends a fixed number of operations. Each line is timed
//! three ways, every time on a replica with its own store file, pool and
//! cache so that all three see the same history:
//!
//! * `request`: the TCP round trip to the server;
//! * `session`: the same line through `Session::handle` in process;
//! * the stages: one span per public call of the layers the line crosses
//!   (`plan`, `exec`, `digest`, `parse`, `evaluate`, `aggregate`,
//!   `commit`, …), on a `Workforce` built directly.
//!
//! The replays run after the round trip, so their spans are re-based
//! onto the request's start to make the tree nest: durations are as
//! measured, positions are not. A `request`'s self time is then what the
//! server adds around `Session::handle` (sockets, framing, thread
//! hand-off) and a `session`'s self time is what no stage accounts for.

use crate::run::{
    outcome_text, reply_ok, run_op, BenchResult, CommitState, Live, OpCtx, Oracle, Role, Scratch,
};
use crate::stats::median;
use crate::workloads::{Fig10, Kind, Op, Spec, Stage, Stream, STREAM_OPS};
use olap_cube::{Cube, CubeAggregator, GroupByMask, StoreBackend};
use olap_mdx::QueryContext;
use olap_server::{read_request, read_response, write_frame, write_request, Client, STATUS_OK};
use olap_store::{CellValue, FileStore, PoolStats, WalStats};
use olap_workload::{Workforce, WorkforceConfig};
use polap_cli::{cell_digest, Dataset, Session, SharedData};
use std::collections::BTreeMap;
use std::os::unix::fs::FileExt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use whatif_core::merge::{heuristic_order, pebbles_for_order};
use whatif_core::{
    decompose_passes, execute_passes_opts, phi, prune_vacancies, DestMap, ExecOpts, MergeGraph,
    OrderPolicy, ScenarioCache,
};

/// One recorded interval. `parent` is the span that caused it; spans of
/// one request share `request`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub request: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Each span's self time: its duration minus the part of its interval
/// that its child spans cover (children may overlap each other and may
/// stick out of the parent; neither is counted twice or at all).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: BTreeMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut edge) = (0u64, s.start_ns);
            for (lo, hi) in kids {
                let lo = lo.max(edge);
                if hi > lo {
                    covered += hi - lo;
                    edge = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Spans kept in memory until the run ends.
struct Recorder {
    spans: Vec<Span>,
    on: bool,
    request: u32,
}

impl Recorder {
    fn add(
        &mut self,
        parent: Option<u32>,
        name: &'static str,
        start_ns: u64,
        dur: Duration,
    ) -> u32 {
        let id = self.spans.len() as u32;
        if self.on {
            self.spans.push(Span {
                id,
                parent,
                name,
                request: self.request,
                start_ns,
                end_ns: start_ns + dur.as_nanos() as u64,
            });
        }
        id
    }
}

/// Lays stage spans end to end under one parent.
struct Layout {
    parent: u32,
    at_ns: u64,
}

impl Layout {
    /// Adds the next stage; returns its span id and where it starts.
    fn lay(&mut self, rec: &mut Recorder, name: &'static str, d: Duration) -> (u32, u64) {
        let start = self.at_ns;
        self.at_ns += d.as_nanos() as u64;
        (rec.add(Some(self.parent), name, start, d), start)
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// Counters summed over the traced operations. With one client and a
/// fixed operation count they repeat exactly from run to run.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Counts {
    pub ops: u64,
    pub reply_bytes: u64,
    pub passes: u64,
    pub graph_nodes: u64,
    pub graph_edges: u64,
    pub merges: u64,
    pub chunk_reads: u64,
    pub cache_chunks_served: u64,
    pub cache_lookups: u64,
    pub cache_hits: u64,
    pub cache_evictions: u64,
    pub cache_bytes: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub pool_evictions: u64,
    pub grid_cells: u64,
    pub chunks_scanned: u64,
    pub peak_buffer_cells: u64,
    pub agg_passes: u64,
    pub wal_bytes: u64,
    pub fsyncs: u64,
    pub stored_bytes: u64,
    pub user_bytes: u64,
}

/// The dataset built directly (not through `SharedData`, which hides
/// the named sets and the varying dimension the stage calls need).
struct Staged {
    wf: Workforce,
    cache: Option<Arc<ScenarioCache>>,
}

impl Staged {
    fn build(spec: &Spec, path: PathBuf, like: &Cube) -> BenchResult<Staged> {
        let backend = StoreBackend::File(path);
        let config = match spec.dataset {
            Dataset::Workforce => WorkforceConfig {
                backend,
                ..WorkforceConfig::default()
            },
            // `polap_cli::Dataset::Bench`, restated: the shape check
            // below fails the run if the two definitions drift apart.
            Dataset::Bench => WorkforceConfig {
                employees: 400,
                departments: 12,
                changing: 80,
                employee_extent: 1,
                accounts: 4,
                scenarios: 2,
                backend,
                ..WorkforceConfig::default()
            },
            other => return Err(format!("no staged replica for dataset {other:?}")),
        };
        let wf = Workforce::build(config);
        let (a, b) = (wf.cube.geometry(), like.geometry());
        if a.lens() != b.lens()
            || a.extents() != b.extents()
            || wf.cube.chunk_count() != like.chunk_count()
        {
            return Err(format!(
                "the staged replica of {:?} is not the server's dataset any more",
                spec.dataset
            ));
        }
        let cache =
            (spec.cache_mb > 0).then(|| Arc::new(ScenarioCache::with_capacity_mb(spec.cache_mb)));
        Ok(Staged { wf, cache })
    }

    fn wal_stats(&self) -> (WalStats, u64) {
        self.wf.cube.with_pool(|p| {
            let store = p.store();
            let written = store.stats().bytes_written();
            let wal = store
                .as_any()
                .downcast_ref::<FileStore>()
                .map(FileStore::wal_stats)
                .unwrap_or_default();
            (wal, written)
        })
    }

    /// Replays one operation's last line stage by stage; the stages'
    /// spans are laid out by `layout`.
    fn replay(
        &self,
        op: &Op,
        line: &str,
        cells: &[Vec<u32>],
        rec: &mut Recorder,
        mut layout: Layout,
        counts: &mut Counts,
    ) -> BenchResult<()> {
        let cube = &self.wf.cube;
        let pool0 = cube.pool_stats();
        let cache0 = self.cache.as_ref().map(|c| c.stats());
        match &op.stage {
            Stage::Apply { semantics, moments } => {
                let dim = self.wf.department;
                let schema = cube.schema();
                let varying = schema.varying(dim).ok_or("department is not varying")?;
                let m = varying.moments();
                let (planned, d_plan) = timed(|| {
                    let vs_raw = phi(*semantics, varying.instances(), moments, m);
                    let mut vs_pruned = vs_raw.clone();
                    prune_vacancies(&mut vs_pruned, varying.instances(), m);
                    let map = DestMap::build(cube, dim, &vs_raw)?;
                    let passes = decompose_passes(&map, *semantics, moments, varying);
                    Ok::<_, whatif_core::WhatIfError>((map, passes))
                });
                let (map, passes) = planned.map_err(|e| format!("DestMap::build: {e}"))?;
                let vd_extent = cube.geometry().extents()[dim.index()];
                let ((nodes, edges), d_pebble) = timed(|| {
                    let graph = MergeGraph::build(varying, &map, vd_extent);
                    let order = heuristic_order(&graph);
                    std::hint::black_box(pebbles_for_order(&graph, &order));
                    (graph.len(), graph.edge_count())
                });
                let opts = ExecOpts {
                    cache: self.cache.clone(),
                    ..ExecOpts::default()
                };
                let (ran, d_exec) = timed(|| {
                    execute_passes_opts(
                        cube,
                        dim,
                        &map,
                        &passes,
                        &OrderPolicy::Pebbling,
                        None,
                        opts,
                    )
                });
                let (out, report) = ran.map_err(|e| format!("execute_passes_opts: {e}"))?;
                let (digest, d_digest) = timed(|| cell_digest(&out));
                digest.map_err(|e| format!("cell_digest: {e}"))?;
                layout.lay(rec, "plan", d_plan);
                // The executor builds the merge graph and the pebbling
                // order again inside: the stand-alone timing is shown as
                // a child of `exec`, not beside it.
                let (exec, exec_start) = layout.lay(rec, "exec", d_exec);
                rec.add(Some(exec), "pebble", exec_start, d_pebble);
                layout.lay(rec, "digest", d_digest);
                counts.passes += report.passes;
                counts.graph_nodes += nodes as u64;
                counts.graph_edges += edges as u64;
                counts.merges += report.merges;
                counts.chunk_reads += report.chunks_read;
                counts.cache_chunks_served += report.cache_chunks_served;
            }
            Stage::Mdx => {
                let (ctx, d_ctx) = timed(|| {
                    let mut ctx = QueryContext::new(cube);
                    for (name, members) in self.wf.named_sets() {
                        ctx.define_set(&name, self.wf.department, &members);
                    }
                    ctx
                });
                let (query, d_parse) = timed(|| olap_mdx::parse(line));
                let query = query.map_err(|e| format!("parse: {e}"))?;
                let clause = query.with.as_ref().ok_or("Fig. 10 query without WITH")?;
                let (scenario, d_compile) = timed(|| olap_mdx::compile_with(&ctx, clause));
                scenario.map_err(|e| format!("compile_with: {e}"))?;
                let (evaluated, d_eval) = timed(|| olap_mdx::evaluate_full(&ctx, &query));
                let (grid, report) = evaluated.map_err(|e| format!("evaluate_full: {e}"))?;
                let (text, d_render) = timed(|| grid.to_string());
                std::hint::black_box(text);
                layout.lay(rec, "context", d_ctx);
                layout.lay(rec, "parse", d_parse);
                // `evaluate_full` compiles the WITH clause again inside.
                let (eval, eval_start) = layout.lay(rec, "evaluate", d_eval);
                rec.add(Some(eval), "compile", eval_start, d_compile);
                layout.lay(rec, "render", d_render);
                counts.grid_cells += (grid.height() * grid.width()) as u64;
                if let Some(r) = report {
                    counts.passes += r.passes;
                    counts.merges += r.merges;
                    counts.chunk_reads += r.chunks_read;
                }
            }
            Stage::Rollup => {
                let masks: Vec<GroupByMask> = (0..cube.geometry().ndims() as u32)
                    .map(|d| 1 << d)
                    .collect();
                let (done, d_agg) =
                    timed(|| CubeAggregator::new(cube).compute_with_budget(&masks, u64::MAX));
                let (_, report) = done.map_err(|e| format!("compute_with_budget: {e}"))?;
                layout.lay(rec, "aggregate", d_agg);
                counts.chunks_scanned += report.base_chunks_scanned;
                counts.peak_buffer_cells += report.peak_buffer_cells;
                counts.agg_passes += report.passes;
            }
            Stage::Commit => {
                let (wal0, written0) = self.wal_stats();
                // The writes precede the `.commit` line on every
                // replica; only the flush is part of the session's time.
                for (w, coords) in op.writes.iter().zip(cells) {
                    cube.set(coords, CellValue::num(w.value))
                        .map_err(|e| format!("Cube::set: {e}"))?;
                }
                let (flushed, d_commit) = timed(|| cube.flush());
                flushed.map_err(|e| format!("Cube::flush: {e}"))?;
                let (wal1, written1) = self.wal_stats();
                layout.lay(rec, "commit", d_commit);
                counts.wal_bytes += wal1.bytes_logged - wal0.bytes_logged;
                counts.fsyncs += wal1.syncs - wal0.syncs;
                counts.stored_bytes += written1 - written0;
                counts.user_bytes += 8 * op.writes.len() as u64;
            }
        }
        let pool: PoolStats = cube.pool_stats().delta(&pool0);
        counts.pool_hits += pool.hits;
        counts.pool_misses += pool.misses;
        counts.pool_evictions += pool.evictions;
        if let (Some(c), Some(c0)) = (&self.cache, cache0) {
            let s = c.stats();
            counts.cache_lookups += s.lookups - c0.lookups;
            counts.cache_hits += s.hits - c0.hits;
            counts.cache_evictions += s.evictions - c0.evictions;
            counts.cache_bytes = s.bytes;
        }
        Ok(())
    }

    /// Mean cost in µs of the pool and store calls a chunk read is made
    /// of, over every chunk of the cube in the state the run left it:
    /// `BufferPool::get`, the positional file read, `unwrap_verified`
    /// (CRC) and `decode_any`.
    fn probe_store(&self) -> BenchResult<[f64; 4]> {
        let cube = &self.wf.cube;
        let ids = cube.chunk_ids();
        let n = ids.len().max(1) as f64;
        let (got, d_get) =
            timed(|| cube.with_pool(|p| ids.iter().try_for_each(|&id| p.get(id).map(drop))));
        got.map_err(|e| format!("BufferPool::get: {e}"))?;
        let (path, offsets) = cube.with_pool(|p| {
            let store = p.store();
            let fs = store
                .as_any()
                .downcast_ref::<FileStore>()
                .ok_or("staged replica is not file-backed")?;
            let offs: Vec<u64> = ids.iter().filter_map(|&id| fs.offset_of(id)).collect();
            Ok::<_, String>((fs.path().to_path_buf(), offs))
        })?;
        let file = std::fs::File::open(&path).map_err(|e| format!("open store file: {e}"))?;
        let (mut d_read, mut d_crc, mut d_decode) =
            (Duration::ZERO, Duration::ZERO, Duration::ZERO);
        for off in offsets {
            let (payload, d) = timed(|| -> std::io::Result<Vec<u8>> {
                // A record is `id u64, len u32, payload`; `off` is the payload's.
                let mut len = [0u8; 4];
                file.read_exact_at(&mut len, off - 4)?;
                let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
                file.read_exact_at(&mut payload, off)?;
                Ok(payload)
            });
            let payload = payload.map_err(|e| format!("read record: {e}"))?;
            d_read += d;
            let inner: &[u8] = if olap_store::is_checksummed(&payload) {
                let (inner, d) = timed(|| olap_store::unwrap_verified(&payload));
                d_crc += d;
                inner.map_err(|e| format!("unwrap_verified: {e}"))?
            } else {
                &payload
            };
            let (chunk, d) = timed(|| olap_store::decode_any(inner));
            chunk.map_err(|e| format!("decode_any: {e}"))?;
            d_decode += d;
        }
        let us = |d: Duration| d.as_secs_f64() * 1e6 / n;
        Ok([us(d_get), us(d_read), us(d_crc), us(d_decode)])
    }
}

/// Per-layer metrics: name, unit, and which way is better. The traced
/// run prints every one of them for every workload (0 where the workload
/// never enters the layer); none has a bound.
pub const PER_LAYER: [(&str, &str, &str); 48] = [
    ("traced_p50_ms", "ms", "lower"),
    ("request_us", "us", "lower"),
    ("session_us", "us", "lower"),
    ("server_overhead_us", "us", "lower"),
    ("unattributed_share", "ratio", "lower"),
    ("connect_us", "us", "lower"),
    ("refusals", "count", "lower"),
    ("reader_p50_ms", "ms", "lower"),
    ("frame_us", "us", "lower"),
    ("reply_bytes", "B/op", "lower"),
    ("context_us", "us", "lower"),
    ("parse_us", "us", "lower"),
    ("compile_us", "us", "lower"),
    ("evaluate_us", "us", "lower"),
    ("render_us", "us", "lower"),
    ("grid_cells", "count/op", "lower"),
    ("plan_us", "us", "lower"),
    ("pebble_us", "us", "lower"),
    ("passes", "count/op", "lower"),
    ("graph_nodes", "count/op", "lower"),
    ("graph_edges", "count/op", "lower"),
    ("exec_us", "us", "lower"),
    ("merges", "count/op", "lower"),
    ("chunk_reads", "count/op", "lower"),
    ("cache_chunks_served", "count/op", "higher"),
    ("cache_lookups", "count/op", "lower"),
    ("cache_hits", "count/op", "higher"),
    ("cache_hit_ratio", "ratio", "higher"),
    ("cache_evictions", "count/op", "lower"),
    ("cache_bytes", "B", "lower"),
    ("digest_us", "us", "lower"),
    ("pool_hits", "count/op", "higher"),
    ("pool_misses", "count/op", "lower"),
    ("pool_evictions", "count/op", "lower"),
    ("pool_hit_ratio", "ratio", "higher"),
    ("pool_get_us", "us/chunk", "lower"),
    ("read_us", "us/chunk", "lower"),
    ("crc_us", "us/chunk", "lower"),
    ("decode_us", "us/chunk", "lower"),
    ("commit_us", "us", "lower"),
    ("wal_bytes", "B/op", "lower"),
    ("fsyncs", "count/op", "lower"),
    ("write_amplification", "ratio", "lower"),
    ("space_amplification", "ratio", "lower"),
    ("aggregate_us", "us", "lower"),
    ("chunks_scanned", "count/op", "lower"),
    ("peak_buffer_cells", "count/op", "lower"),
    ("agg_passes", "count/op", "lower"),
];

/// One traced operation's times in ns, summed over its lines.
pub struct OpTimes {
    pub request: u64,
    pub session: u64,
    /// Self time per span name.
    pub own: BTreeMap<&'static str, u64>,
}

/// What the traced run of one workload produced.
#[derive(Default)]
pub struct Traced {
    pub spans: Vec<Span>,
    pub counts: Counts,
    pub per_op: Vec<OpTimes>,
    pub frame_us: Vec<f64>,
    pub connect_us: Vec<f64>,
    pub refusals: u64,
    pub reader_ms: Vec<f64>,
    pub probe_us: [f64; 4],
    pub space_amplification: f64,
    pub attempted: u64,
    pub failed: u64,
}

/// Operations of the traced run for `seconds` of budget.
pub fn traced_ops(spec: &Spec, seconds: f64) -> usize {
    ((spec.trace_ops_per_s * seconds).round() as usize).max(1)
}

/// Everything one traced line runs on — the server's client, the
/// in-process session on its replica and the staged replica — and what
/// they recorded.
struct Rig<'a> {
    oracle: &'a Oracle,
    /// `commit_file` only: the write history of the server's cube.
    commit: Option<&'a CommitState>,
    server_cube: &'a Cube,
    client: &'a mut Client,
    replica: Arc<SharedData>,
    session: Session,
    staged: Staged,
    rec: Recorder,
    epoch: Instant,
    out: Traced,
}

impl Rig<'_> {
    /// Runs operation `n` on all three replicas. Warm-up operations
    /// (`tracing` off) go through the same steps, so every pool and cache
    /// sees the same history, but leave no spans and no counts.
    fn operation(&mut self, n: usize, op: &Op, tracing: bool) -> BenchResult<()> {
        self.rec.on = tracing;
        self.rec.request = n as u32;
        let counts_before = self.out.counts.clone();
        let first_span = self.rec.spans.len();
        // `commit_file`: the same cell writes go to all three replicas
        // before the `.commit` line.
        let mut cells: Vec<Vec<u32>> = Vec::new();
        if let Some(commit) = self.commit {
            cells = op.writes.iter().map(|w| commit.cell(w).to_vec()).collect();
            commit.write_burst(self.server_cube, &op.writes)?;
            for (w, coords) in op.writes.iter().zip(&cells) {
                self.replica
                    .cube()
                    .set(coords, CellValue::num(w.value))
                    .map_err(|e| format!("replica write: {e}"))?;
            }
        }
        let (mut request_ns, mut session_ns, mut ok) = (0u64, 0u64, true);
        for (i, line) in op.lines.iter().enumerate() {
            let t0 = Instant::now();
            let resp = self.client.request(line);
            let d_request = t0.elapsed();
            let start_ns = t0.duration_since(self.epoch).as_nanos() as u64;
            let (replayed, d_session) = timed(|| outcome_text(self.session.handle(line)));
            // The server must say what the oracle says and what the
            // in-process session says. `.commit` replies are checked by
            // shape: their WAL counters depend on what the background
            // reader evicted.
            ok &= match self.commit {
                Some(_) => reply_ok(&resp, |got| got.starts_with("flushed at epoch ")),
                None => {
                    let want = &self.oracle.expected(0, op)[i];
                    reply_ok(&resp, |got| got == want && got == replayed)
                }
            };
            let reply = resp.map(|(_, text)| text).unwrap_or_default();
            let ((), d_frame) = timed(|| {
                let mut wire = Vec::with_capacity(line.len() + reply.len() + 16);
                write_request(&mut wire, line).expect("write to memory");
                let req = read_request(&mut wire.as_slice()).expect("read back");
                wire.clear();
                write_frame(&mut wire, STATUS_OK, &reply).expect("write to memory");
                let resp = read_response(&mut wire.as_slice()).expect("read back");
                std::hint::black_box((req, resp));
            });
            let request = self.rec.add(None, "request", start_ns, d_request);
            let session = self.rec.add(Some(request), "session", start_ns, d_session);
            let after_session = start_ns + d_session.as_nanos() as u64;
            self.rec.add(Some(request), "frame", after_session, d_frame);
            if i + 1 == op.lines.len() {
                let layout = Layout {
                    parent: session,
                    at_ns: start_ns,
                };
                self.staged.replay(
                    op,
                    line,
                    &cells,
                    &mut self.rec,
                    layout,
                    &mut self.out.counts,
                )?;
            }
            request_ns += d_request.as_nanos() as u64;
            session_ns += d_session.as_nanos() as u64;
            self.out.counts.reply_bytes += reply.len() as u64;
            if tracing {
                self.out.frame_us.push(d_frame.as_secs_f64() * 1e6);
            }
        }
        self.out.failed += u64::from(!ok);
        if !tracing {
            self.out.counts = counts_before;
            return Ok(());
        }
        self.out.attempted += 1;
        self.out.counts.ops += 1;
        let spans = &self.rec.spans[first_span..];
        let mut by_name: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (span, own) in spans.iter().zip(self_times(spans)) {
            *by_name.entry(span.name).or_default() += own;
        }
        self.out.per_op.push(OpTimes {
            request: request_ns,
            session: session_ns,
            own: by_name,
        });
        Ok(())
    }
}

pub fn run_traced(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    queries: &dyn Fig10,
) -> BenchResult<Traced> {
    let scratch = Scratch::new(&format!("{}-trace", spec.name))?;
    // One traced client; `commit_file` keeps its background reader (on
    // the server only) so `reader_p50_ms` is measured beside the commits.
    let clients = 1 + usize::from(spec.kind == Kind::CommitFile);
    let streams: Vec<Stream> = crate::run::streams(spec, seed, clients, STREAM_OPS, queries);
    let oracle = Oracle::build(spec, &streams);
    let stream = &streams[0];

    let mut live = Live::start(spec, clients, &oracle, scratch.file("server.cube"))?;
    let mut replica = SharedData::load_with_backend(
        spec.dataset,
        StoreBackend::File(scratch.file("session.cube")),
    )?;
    replica.set_cache_mb(spec.cache_mb);
    let replica = Arc::new(replica);
    let staged = Staged::build(spec, scratch.file("stages.cube"), live.shared.cube())?;

    let (traced_client, reader_client) = live.clients.split_at_mut(1);
    let mut rig = Rig {
        oracle: &oracle,
        commit: live.commit.as_deref(),
        server_cube: live.shared.cube(),
        client: &mut traced_client[0],
        session: Session::attach(replica.clone()),
        replica,
        staged,
        rec: Recorder {
            spans: Vec::new(),
            on: false,
            request: 0,
        },
        epoch: Instant::now(),
        out: Traced {
            space_amplification: 1.0,
            ..Traced::default()
        },
    };
    let untraced = stream.prelude.len() + spec.warmup_ops;
    let ops = stream.prelude.iter().chain(
        stream
            .ops
            .iter()
            .cycle()
            .take(spec.warmup_ops + traced_ops(spec, seconds)),
    );

    let stop = AtomicBool::new(false);
    let (reader_ms, reader_failed) = std::thread::scope(|scope| -> BenchResult<(Vec<f64>, u64)> {
        let background = reader_client.first_mut().map(|client| {
            let ctx = OpCtx {
                client: 1,
                role: Role::Reader,
                oracle: &oracle,
                commit: rig.commit,
                cube: rig.server_cube,
            };
            let stop = &stop;
            scope.spawn(move || {
                let (mut ms, mut failed) = (Vec::new(), 0u64);
                while !stop.load(Ordering::Relaxed) {
                    // A reader sends `READER_LINE` whatever the operation.
                    let r = run_op(client, &stream.ops[0], &ctx);
                    ms.push(r.latency.as_secs_f64() * 1e3);
                    failed += u64::from(!r.ok);
                }
                (ms, failed)
            })
        });
        let ran = ops
            .enumerate()
            .try_for_each(|(n, op)| rig.operation(n, op, n >= untraced));
        stop.store(true, Ordering::Relaxed);
        let read = match background {
            Some(h) => h.join().map_err(|_| "reader thread panicked")?,
            None => (Vec::new(), 0),
        };
        ran.map(|()| read)
    })?;
    let Rig {
        staged,
        rec,
        mut out,
        ..
    } = rig;
    out.reader_ms = reader_ms;
    out.failed += reader_failed;
    out.spans = rec.spans;

    // Connection cost and admission: a few extra sessions come and go.
    for _ in 0..5 {
        let t0 = Instant::now();
        match Client::connect(live.server.addr()) {
            Ok(mut c) => {
                out.connect_us.push(t0.elapsed().as_secs_f64() * 1e6);
                let _ = c.request(".quit");
            }
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionRefused => out.refusals += 1,
            Err(e) => return Err(format!("connect probe: {e}")),
        }
    }
    out.probe_us = staged.probe_store()?;
    out.space_amplification = staged.wf.cube.with_pool(|p| {
        let store = p.store();
        match store.as_any().downcast_ref::<FileStore>() {
            Some(fs) if fs.file_size() > fs.dead_bytes() => {
                fs.file_size() as f64 / (fs.file_size() - fs.dead_bytes()) as f64
            }
            _ => 1.0,
        }
    });
    live.stop();
    Ok(out)
}

impl Traced {
    /// Median µs per operation of the summed self time of `names` (0
    /// when the workload never enters those layers).
    fn layers_us(&self, names: &[&str]) -> f64 {
        let v: Vec<f64> = self
            .per_op
            .iter()
            .map(|op| {
                let ns: u64 = names.iter().filter_map(|n| op.own.get(n)).sum();
                ns as f64 / 1e3
            })
            .collect();
        if v.is_empty() {
            0.0
        } else {
            median(&v)
        }
    }

    /// Every per-layer metric, by name, with its unit.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let c = &self.counts;
        let per_op = |n: u64| n as f64 / c.ops.max(1) as f64;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let med = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
        let request_us: Vec<f64> = self.per_op.iter().map(|o| o.request as f64 / 1e3).collect();
        let session_us: Vec<f64> = self.per_op.iter().map(|o| o.session as f64 / 1e3).collect();
        let session_total: u64 = self.per_op.iter().map(|o| o.session).sum();
        let session_self: u64 = self
            .per_op
            .iter()
            .map(|o| o.own.get("session").copied().unwrap_or(0))
            .sum();
        let values = [
            ("traced_p50_ms", med(&request_us) / 1e3),
            ("request_us", med(&request_us)),
            ("session_us", med(&session_us)),
            ("server_overhead_us", self.layers_us(&["request"])),
            ("unattributed_share", ratio(session_self, session_total)),
            ("connect_us", med(&self.connect_us)),
            ("refusals", self.refusals as f64),
            ("reader_p50_ms", med(&self.reader_ms)),
            ("frame_us", med(&self.frame_us)),
            ("reply_bytes", per_op(c.reply_bytes)),
            ("context_us", self.layers_us(&["context"])),
            ("parse_us", self.layers_us(&["parse"])),
            ("compile_us", self.layers_us(&["compile"])),
            ("evaluate_us", self.layers_us(&["evaluate", "compile"])),
            ("render_us", self.layers_us(&["render"])),
            ("grid_cells", per_op(c.grid_cells)),
            ("plan_us", self.layers_us(&["plan", "pebble"])),
            ("pebble_us", self.layers_us(&["pebble"])),
            ("passes", per_op(c.passes)),
            ("graph_nodes", per_op(c.graph_nodes)),
            ("graph_edges", per_op(c.graph_edges)),
            ("exec_us", self.layers_us(&["exec", "pebble"])),
            ("merges", per_op(c.merges)),
            ("chunk_reads", per_op(c.chunk_reads)),
            ("cache_chunks_served", per_op(c.cache_chunks_served)),
            ("cache_lookups", per_op(c.cache_lookups)),
            ("cache_hits", per_op(c.cache_hits)),
            ("cache_hit_ratio", ratio(c.cache_hits, c.cache_lookups)),
            ("cache_evictions", per_op(c.cache_evictions)),
            ("cache_bytes", c.cache_bytes as f64),
            ("digest_us", self.layers_us(&["digest"])),
            ("pool_hits", per_op(c.pool_hits)),
            ("pool_misses", per_op(c.pool_misses)),
            ("pool_evictions", per_op(c.pool_evictions)),
            (
                "pool_hit_ratio",
                ratio(c.pool_hits, c.pool_hits + c.pool_misses),
            ),
            ("pool_get_us", self.probe_us[0]),
            ("read_us", self.probe_us[1]),
            ("crc_us", self.probe_us[2]),
            ("decode_us", self.probe_us[3]),
            ("commit_us", self.layers_us(&["commit"])),
            ("wal_bytes", per_op(c.wal_bytes)),
            ("fsyncs", per_op(c.fsyncs)),
            (
                "write_amplification",
                ratio(c.wal_bytes + c.stored_bytes, c.user_bytes),
            ),
            ("space_amplification", self.space_amplification),
            ("aggregate_us", self.layers_us(&["aggregate"])),
            ("chunks_scanned", per_op(c.chunks_scanned)),
            ("peak_buffer_cells", per_op(c.peak_buffer_cells)),
            ("agg_passes", per_op(c.agg_passes)),
        ];
        values
            .into_iter()
            .zip(PER_LAYER)
            .map(|((name, value), (listed, unit, _))| {
                assert_eq!(name, listed, "metrics() and PER_LAYER list the same names");
                (name, value, unit)
            })
            .collect()
    }

    /// Per layer: (name, spans, total self ns, share of all request time).
    pub fn layer_table(&self) -> Vec<(&'static str, usize, u64, f64)> {
        let own = self_times(&self.spans);
        let mut rows: BTreeMap<&'static str, (usize, u64)> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(own) {
            let row = rows.entry(s.name).or_default();
            row.0 += 1;
            row.1 += t;
        }
        let total: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let mut table: Vec<_> = rows
            .into_iter()
            .map(|(name, (n, t))| (name, n, t, t as f64 / total.max(1) as f64))
            .collect();
        table.sort_by_key(|row| std::cmp::Reverse(row.2));
        table
    }

    /// The spans as a JSON array, one object per span.
    pub fn spans_json(&self, workload: &str) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"workload\":\"{workload}\",\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                    s.id,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.name,
                    s.request,
                    s.start_ns,
                    s.end_ns
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            request: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 0, 60),
            span(2, Some(1), 0, 10),
            span(3, Some(1), 10, 40),
            span(4, Some(0), 60, 70),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 30, 10]);
    }

    #[test]
    fn self_time_handles_overlap_and_overhang() {
        let spans = vec![
            span(0, None, 100, 200),
            // Two children overlapping each other on [130, 150).
            span(1, Some(0), 110, 150),
            span(2, Some(0), 130, 170),
            // Sticks out of the parent: only [190, 200) counts.
            span(3, Some(0), 190, 260),
            // Entirely outside: counts for nothing.
            span(4, Some(0), 300, 400),
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], 100 - 60 - 10);
        assert_eq!(own[3], 70);
    }
}
