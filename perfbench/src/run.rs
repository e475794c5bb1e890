//! Set-up, the serial oracle and the untraced closed-loop run.
//!
//! One run: compute the expected replies on a private copy, then three
//! times over build the dataset into a fresh store file, start an
//! in-process `olap_server::Server` on it, connect the clients and warm
//! up (`setup_s` is the median of the three); the third server is then
//! driven for `--seconds` in a closed loop and every reply is compared
//! with the oracle's bytes.

use crate::stats::{median, percentile};
use crate::workloads::{stream, Fig10, Kind, Op, Spec, Stream, Write, READER_LINE, STREAM_OPS};
use olap_cube::{Cube, StoreBackend};
use olap_server::{Server, ServerConfig, STATUS_OK};
use olap_store::CellValue;
use polap_cli::proto::Client;
use polap_cli::{Outcome, Session, SharedData};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex, RwLock, RwLockReadGuard};
use std::time::{Duration, Instant};
use whatif_core::Fnv64;

/// How much one untraced run does.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Length of the timed region.
    pub seconds: f64,
    /// Set-ups; `setup_s` is their median.
    pub setups: usize,
    /// Operations kept of each generated stream (clients cycle over them).
    pub stream_ops: usize,
}

impl Budget {
    pub fn full(seconds: f64) -> Budget {
        Budget {
            seconds,
            setups: 3,
            stream_ops: STREAM_OPS,
        }
    }

    /// `--quick`: one set-up, half a second and a handful of distinct
    /// operations (so the oracle is cheap too). Every check still runs.
    pub fn quick() -> Budget {
        Budget {
            seconds: 0.5,
            setups: 1,
            stream_ops: 8,
        }
    }
}

pub type BenchResult<T> = Result<T, String>;

fn err<E: std::fmt::Display>(what: &str) -> impl FnOnce(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// A scratch directory inside the checkout (the benchmark may write
/// nowhere else); removed on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(tag: &str) -> BenchResult<Scratch> {
        let dir = PathBuf::from("target/perf").join(format!("run-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(err("create scratch dir"))?;
        Ok(Scratch(dir))
    }

    pub fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The text of a session outcome, whatever its kind.
pub fn outcome_text(o: Outcome) -> String {
    match o {
        Outcome::Continue(t) | Outcome::Quit(t) | Outcome::Deadline(t) => t,
    }
}

/// Expected replies, from a serial replay on a private cache-off
/// in-memory copy of the dataset: one session per stateful client, one
/// shared session otherwise, memoised per distinct operation.
pub struct Oracle {
    stateful: bool,
    ops: HashMap<(usize, Vec<String>), Vec<String>>,
    /// `commit_file`: the reader's reply on the unwritten cube.
    reader_base: String,
}

impl Oracle {
    pub fn build(spec: &Spec, streams: &[Stream]) -> Oracle {
        let data = Arc::new(SharedData::load(spec.dataset));
        let stateful = spec.kind == Kind::ToggleWarm;
        let mut oracle = Oracle {
            stateful,
            ops: HashMap::new(),
            reader_base: String::new(),
        };
        if spec.kind == Kind::CommitFile {
            // `.commit` replies carry WAL counters that depend on which
            // dirty chunks the reader evicted first; they are checked by
            // shape, and the data they made durable by `reader_base`.
            oracle.reader_base = outcome_text(Session::attach(data).handle(READER_LINE));
            return oracle;
        }
        let mut shared_session = Session::attach(data.clone());
        for (client, s) in streams.iter().enumerate() {
            let mut own = Session::attach(data.clone());
            let session = if stateful {
                &mut own
            } else {
                &mut shared_session
            };
            for op in s.prelude.iter().chain(&s.ops) {
                oracle
                    .ops
                    .entry((oracle.slot(client), op.lines.clone()))
                    .or_insert_with(|| {
                        op.lines
                            .iter()
                            .map(|l| outcome_text(session.handle(l)))
                            .collect()
                    });
            }
        }
        oracle
    }

    fn slot(&self, client: usize) -> usize {
        if self.stateful {
            client
        } else {
            0
        }
    }

    pub fn expected(&self, client: usize, op: &Op) -> &[String] {
        &self.ops[&(self.slot(client), op.lines.clone())]
    }

    pub fn distinct_ops(&self) -> usize {
        self.ops.len()
    }
}

/// `commit_file`'s shared state: the gate that keeps a burst of cell
/// writes from interleaving with a read, and the reader's expected
/// digest after each burst. `cell_digest` is a wrapping sum of one hash
/// per cell and the written cells belong to employees that never move,
/// so a burst shifts the digest by the sum of its cells' hash changes;
/// the final re-open of the store file checks the sum against a real
/// replay.
pub struct CommitState {
    gate: RwLock<()>,
    /// Set while the writer waits for the gate. `std`'s `RwLock` lets a
    /// reader that asks again at once overtake a writer that was just
    /// woken, and a back-to-back reader then starves the writer for good.
    writer_waiting: AtomicBool,
    bursts: AtomicU64,
    digests: Mutex<Vec<u64>>,
    /// The loaded cells of employees with a single instance.
    steady_cells: Vec<Vec<u32>>,
    base_reply: String,
}

fn cell_hash(coords: &[u32], v: f64) -> u64 {
    let mut h = Fnv64::new();
    for &c in coords {
        h.write_u32(c);
    }
    h.write_u64(v.to_bits());
    h.finish()
}

impl CommitState {
    pub fn new(cube: &Cube, base_reply: &str) -> BenchResult<CommitState> {
        let schema = cube.schema();
        let dim = schema
            .dim_ids()
            .find(|&d| schema.varying(d).is_some())
            .ok_or("dataset has no varying dimension")?;
        let varying = schema.varying(dim).expect("found above");
        let steady: Vec<bool> = varying
            .instances()
            .iter()
            .map(|inst| varying.instances_of(inst.member).len() == 1)
            .collect();
        let mut steady_cells = Vec::new();
        cube.for_each_present(|coords, _| {
            if steady[coords[dim.index()] as usize] {
                steady_cells.push(coords.to_vec());
            }
        })
        .map_err(err("scan cube"))?;
        if steady_cells.is_empty() {
            return Err("dataset has no employee that never moves".to_string());
        }
        let base_digest = base_reply
            .split("digest ")
            .nth(1)
            .and_then(|rest| rest.get(..16))
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or_else(|| format!("oracle reply has no digest: {base_reply}"))?;
        Ok(CommitState {
            gate: RwLock::new(()),
            writer_waiting: AtomicBool::new(false),
            bursts: AtomicU64::new(0),
            digests: Mutex::new(vec![base_digest]),
            steady_cells,
            base_reply: base_reply.to_string(),
        })
    }

    /// The cell a write lands on.
    pub fn cell(&self, w: &Write) -> &[u32] {
        &self.steady_cells[(w.pick % self.steady_cells.len() as u64) as usize]
    }

    /// One burst: overwrite the cells under the write gate and record
    /// the digest the reader must report from now on. Returns the
    /// instant the gate was acquired: the wait for it (a read in
    /// flight) belongs to the load model, not to the commit.
    pub fn write_burst(&self, cube: &Cube, writes: &[Write]) -> BenchResult<Instant> {
        self.writer_waiting.store(true, Ordering::SeqCst);
        let _gate = self
            .gate
            .write()
            .expect("no client panics holding the gate");
        self.writer_waiting.store(false, Ordering::SeqCst);
        let t0 = Instant::now();
        let mut digests = self.digests.lock().expect("digest list");
        let mut digest = *digests.last().expect("starts with the base digest");
        for w in writes {
            let coords = self.cell(w);
            let old = cube
                .get(coords)
                .map_err(err("read cell"))?
                .as_f64()
                .ok_or_else(|| format!("cell {coords:?} of a steady employee is empty"))?;
            cube.set(coords, CellValue::num(w.value))
                .map_err(err("write cell"))?;
            digest = digest
                .wrapping_sub(cell_hash(coords, old))
                .wrapping_add(cell_hash(coords, w.value));
        }
        digests.push(digest);
        self.bursts.fetch_add(1, Ordering::SeqCst);
        Ok(t0)
    }

    /// The reader's expected reply after `burst` bursts.
    pub fn expected_reply(&self, burst: u64) -> String {
        let digests = self.digests.lock().expect("digest list");
        self.base_reply.replace(
            &format!("digest {:016x}", digests[0]),
            &format!("digest {:016x}", digests[burst as usize]),
        )
    }

    /// The reader's side of the gate: shared, and behind a waiting writer.
    fn read_gate(&self) -> RwLockReadGuard<'_, ()> {
        while self.writer_waiting.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_micros(50));
        }
        self.gate.read().expect("no client panics holding the gate")
    }

    pub fn bursts(&self) -> u64 {
        self.bursts.load(Ordering::SeqCst)
    }
}

/// A started server with its connected clients.
pub struct Live {
    pub shared: Arc<SharedData>,
    pub server: Server,
    pub clients: Vec<Client>,
    pub path: PathBuf,
    pub commit: Option<Arc<CommitState>>,
}

impl Live {
    /// Builds the dataset into a fresh store file at `path`, starts the
    /// server on it and connects `clients` clients.
    pub fn start(spec: &Spec, clients: usize, oracle: &Oracle, path: PathBuf) -> BenchResult<Live> {
        let mut shared =
            SharedData::load_with_backend(spec.dataset, StoreBackend::File(path.clone()))?;
        shared.set_cache_mb(spec.cache_mb);
        let shared = Arc::new(shared);
        let commit = match spec.kind {
            Kind::CommitFile => Some(Arc::new(CommitState::new(
                shared.cube(),
                &oracle.reader_base,
            )?)),
            _ => None,
        };
        let server = Server::start(shared.clone(), "127.0.0.1:0", ServerConfig::default())
            .map_err(err("bind server"))?;
        let clients = (0..clients)
            .map(|_| Client::connect(server.addr()).map_err(err("connect")))
            .collect::<BenchResult<Vec<Client>>>()?;
        Ok(Live {
            shared,
            server,
            clients,
            path,
            commit,
        })
    }

    /// Warm-up: each stream's prelude, then its first operations, all
    /// clients at once as in the timed region. Returns how many replies
    /// differed from the oracle.
    pub fn warm_up(&mut self, spec: &Spec, streams: &[Stream], oracle: &Oracle) -> u64 {
        let failed = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for (i, (client, s)) in self.clients.iter_mut().zip(streams).enumerate() {
                let (failed, commit, cube) = (&failed, self.commit.as_deref(), self.shared.cube());
                scope.spawn(move || {
                    let role = Role::of(spec, i);
                    for op in s.prelude.iter().chain(&s.ops[..spec.warmup_ops]) {
                        let ctx = OpCtx {
                            client: i,
                            role,
                            oracle,
                            commit,
                            cube,
                        };
                        if !run_op(client, op, &ctx).ok {
                            failed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        failed.into_inner()
    }

    /// Quits the clients and drains the server; returns the data handle
    /// and the store path for post-mortem checks.
    pub fn stop(self) -> (Arc<SharedData>, PathBuf) {
        for mut c in self.clients {
            let _ = c.request(".quit");
        }
        self.server.shutdown();
        (self.shared, self.path)
    }
}

/// What a client does with its stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Sends each operation's lines and compares the replies.
    Plain,
    /// `commit_file` client 0: cell writes, then `.commit`.
    Writer,
    /// `commit_file` client 1: `READER_LINE` back to back.
    Reader,
}

impl Role {
    pub fn of(spec: &Spec, client: usize) -> Role {
        match (spec.kind, client) {
            (Kind::CommitFile, 0) => Role::Writer,
            (Kind::CommitFile, _) => Role::Reader,
            _ => Role::Plain,
        }
    }
}

pub struct OpCtx<'a> {
    pub client: usize,
    pub role: Role,
    pub oracle: &'a Oracle,
    pub commit: Option<&'a CommitState>,
    pub cube: &'a Cube,
}

pub struct OpResult {
    pub latency: Duration,
    pub ok: bool,
}

/// A reply counts only if it is a `+` frame, is not an engine error and
/// equals the oracle's bytes.
pub fn reply_ok(resp: &std::io::Result<(u8, String)>, want: impl FnOnce(&str) -> bool) -> bool {
    match resp {
        Ok((STATUS_OK, text)) => !text.starts_with("error:") && want(text),
        _ => false,
    }
}

fn take_text(resp: std::io::Result<(u8, String)>) -> String {
    resp.map(|(_, t)| t).unwrap_or_default()
}

/// Runs one operation in a closed loop: each line waits for its reply.
pub fn run_op(client: &mut Client, op: &Op, ctx: &OpCtx<'_>) -> OpResult {
    match ctx.role {
        Role::Plain => {
            let want = ctx.oracle.expected(ctx.client, op);
            let mut ok = true;
            let t0 = Instant::now();
            let mut latency = Duration::ZERO;
            for (line, want) in op.lines.iter().zip(want) {
                let resp = client.request(line);
                // The comparison is the benchmark's work, not the
                // server's: keep it off the clock.
                latency = t0.elapsed();
                ok &= reply_ok(&resp, |got| got == want);
            }
            OpResult { latency, ok }
        }
        Role::Writer => {
            let commit = ctx.commit.expect("commit_file state");
            let (t0, wrote_ok) = match commit.write_burst(ctx.cube, &op.writes) {
                Ok(t0) => (t0, true),
                Err(_) => (Instant::now(), false),
            };
            let resp = client.request(&op.lines[0]);
            let latency = t0.elapsed();
            let ok = wrote_ok && reply_ok(&resp, |got| got.starts_with("flushed at epoch "));
            OpResult { latency, ok }
        }
        Role::Reader => {
            let commit = ctx.commit.expect("commit_file state");
            let _gate = commit.read_gate();
            let burst = commit.bursts();
            let t0 = Instant::now();
            let resp = client.request(READER_LINE);
            let latency = t0.elapsed();
            let want = commit.expected_reply(burst);
            let ok = reply_ok(&resp, |got| got == want);
            OpResult { latency, ok }
        }
    }
}

/// What one untraced run measured.
pub struct Measured {
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub throughput_rps: f64,
    pub setup_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub samples: usize,
    pub reader_p50_ms: f64,
    pub stream_fnv: u64,
    pub oracle_ops: usize,
}

/// The streams of a run: one per client, cut to `stream_ops` operations.
pub fn streams(
    spec: &Spec,
    seed: u64,
    clients: usize,
    stream_ops: usize,
    queries: &dyn Fig10,
) -> Vec<Stream> {
    (0..clients)
        .map(|c| {
            let mut s = stream(spec, seed, c, queries);
            s.ops.truncate(stream_ops.max(spec.warmup_ops));
            s
        })
        .collect()
}

/// `min(2, nproc)` connections, but `commit_file` always needs its
/// writer and its reader.
pub fn client_count(spec: &Spec) -> usize {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if spec.kind == Kind::CommitFile {
        2
    } else {
        nproc.min(2)
    }
}

/// The untraced run of one workload.
pub fn run_untraced(
    spec: &Spec,
    seed: u64,
    budget: Budget,
    queries: &dyn Fig10,
) -> BenchResult<Measured> {
    let scratch = Scratch::new(spec.name)?;
    let streams = streams(spec, seed, client_count(spec), budget.stream_ops, queries);
    let stream_fnv = streams.iter().fold(0u64, |h, s| h.rotate_left(1) ^ s.fnv());
    let oracle = Oracle::build(spec, &streams);

    let mut setup_times = Vec::new();
    let mut live = None;
    let mut warmup_failed = 0;
    for round in 0..budget.setups {
        if let Some(prev) = live.take() {
            Live::stop(prev);
        }
        let t0 = Instant::now();
        let path = scratch.file(&format!("s{round}.cube"));
        let mut started = Live::start(spec, streams.len(), &oracle, path)?;
        warmup_failed = started.warm_up(spec, &streams, &oracle);
        setup_times.push(t0.elapsed().as_secs_f64());
        live = Some(started);
    }
    let mut live = live.ok_or("a run needs at least one set-up")?;
    let mut failed = warmup_failed;

    // The timed region: every client loops over its stream from where
    // the warm-up stopped until the deadline; an operation that started
    // in time is finished and counted.
    let barrier = Barrier::new(live.clients.len());
    let region = Duration::from_secs_f64(budget.seconds);
    // Per client: each operation's latency in ms, how many failed, and
    // when the last one ended (s into the region).
    let mut per_client: Vec<(Vec<f64>, u64, f64)> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = live
            .clients
            .iter_mut()
            .zip(&streams)
            .enumerate()
            .map(|(i, (client, s))| {
                let (barrier, oracle) = (&barrier, &oracle);
                let (commit, cube) = (live.commit.as_deref(), live.shared.cube());
                scope.spawn(move || {
                    let ctx = OpCtx {
                        client: i,
                        role: Role::of(spec, i),
                        oracle,
                        commit,
                        cube,
                    };
                    let mut latencies = Vec::new();
                    let mut failed = 0u64;
                    barrier.wait();
                    let t0 = Instant::now();
                    let mut next = spec.warmup_ops;
                    while t0.elapsed() < region {
                        let r = run_op(client, &s.ops[next % s.ops.len()], &ctx);
                        next += 1;
                        latencies.push(r.latency.as_secs_f64() * 1e3);
                        failed += u64::from(!r.ok);
                    }
                    (latencies, failed, t0.elapsed().as_secs_f64())
                })
            })
            .collect();
        for h in handles {
            per_client.push(h.join().expect("client thread"));
        }
    });

    // End-to-end numbers: over every client, except that `commit_file`
    // reports its commits and keeps the reader's median as a layer metric.
    let mut measured: Vec<f64> = Vec::new();
    let mut reader: Vec<f64> = Vec::new();
    let mut attempted = 0u64;
    let mut elapsed = 0f64;
    for (i, (latencies, client_failed, ended)) in per_client.iter().enumerate() {
        attempted += latencies.len() as u64;
        failed += client_failed;
        elapsed = elapsed.max(*ended);
        if Role::of(spec, i) == Role::Reader {
            reader.extend(latencies);
        } else {
            measured.extend(latencies);
        }
    }
    if measured.is_empty() {
        return Err("no operation completed in the timed region".to_string());
    }
    measured.sort_by(f64::total_cmp);

    // Durability: after the last acknowledged commit, the live server
    // and a re-open of nothing but the store file must both give the
    // reply the write history predicts.
    let predicted = live.commit.as_ref().map(|c| c.expected_reply(c.bursts()));
    let live_reply = predicted
        .as_ref()
        .map(|_| take_text(live.clients[1].request(READER_LINE)));
    let (shared, path) = live.stop();
    drop(shared);
    if let (Some(want), Some(live_reply)) = (predicted, live_reply) {
        let reopened = SharedData::load_with_backend(spec.dataset, StoreBackend::Attach(path))?;
        let reopened_reply = outcome_text(Session::attach(Arc::new(reopened)).handle(READER_LINE));
        for (who, got) in [
            ("the live server", live_reply),
            ("the re-opened store file", reopened_reply),
        ] {
            attempted += 1;
            if got != want {
                eprintln!("commit_file: {who} lost part of the write history\n  want {want}\n  got  {got}");
                failed += 1;
            }
        }
    }

    Ok(Measured {
        p50_ms: percentile(&measured, 0.5),
        p90_ms: percentile(&measured, 0.9),
        throughput_rps: measured.len() as f64 / elapsed,
        setup_s: median(&setup_times),
        attempted,
        failed,
        samples: measured.len(),
        reader_p50_ms: if reader.is_empty() {
            0.0
        } else {
            median(&reader)
        },
        stream_fnv,
        oracle_ops: oracle.distinct_ops(),
    })
}
