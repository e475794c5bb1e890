//! Shared helpers for the integration tests: deterministic random
//! schemas, scenarios, and cubes used by the property-based suites, the
//! one way the storage suites write a file store (`commit`), and the one
//! multi-session harness the server, chaos and sweep suites drive
//! (`edit_script` → `serial_replies` → `drive_sessions` →
//! `first_divergence`).
//!
//! It also holds the rigs the product does not ship: [`fault`] wraps a
//! chunk store in a scripted storage-fault plan, [`chaos`] puts a
//! scripted network-fault proxy in front of a server, [`buc`] is the
//! aggregation oracle (Bottom-Up Cube with iceberg pruning), [`oracle`]
//! is the definitional what-if oracle (σ, Φ, ρ and S straight from
//! Definitions 4.1–4.5), and [`type2`] is the paper's Type-2 baseline, a
//! client-side statement of forward semantics.
//!
//! Its own unit tests check the algebra on small fixtures: `algebra`
//! holds Theorem 4.1 and σ before the perspectives, `operators::select`
//! the oracle's σ predicates and σ by value through MDX's `Filter`.

pub mod buc;
pub mod chaos;
pub mod fault;
pub mod oracle;
pub mod type2;

#[cfg(test)]
mod algebra;
#[cfg(test)]
mod operators {
    mod select;
}

use olap_cube::{Cube, Sel};
use olap_model::{DimensionId, InstanceId, MemberId, Schema};
use olap_server::{Client, RetryPolicy, STATUS_OK, STATUS_QUIT};
use olap_store::{Chunk, ChunkId, ChunkStore, FileStore};
use polap_cli::{Dataset, Outcome, Session, SharedData};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};
use whatif_core::{DestMap, ExecReport, MergeGraph, Scenario};

/// A randomly generated varying-dimension warehouse.
pub struct RandomWarehouse {
    /// The schema.
    pub schema: Arc<Schema>,
    /// The loaded cube.
    pub cube: Cube,
    /// The varying dimension.
    pub dim: DimensionId,
    /// Moments of the parameter dimension.
    pub moments: u32,
}

/// Builds a small random warehouse: a varying dimension with `groups`
/// non-leaf parents and `members` leaves, a parameter dimension with
/// `moments` leaves, an extra context dimension, random reclassifications
/// and vacations, and dense-ish random data. Fully determined by `seed`.
pub fn random_warehouse(
    seed: u64,
    groups: u32,
    members: u32,
    moments: u32,
    changers: u32,
) -> RandomWarehouse {
    assert!(groups >= 2 && members >= 1 && moments >= 2);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut schema = Schema::new();

    let time = schema.add_dimension("T");
    for t in 0..moments {
        schema
            .dim_mut(time)
            .add_child_of_root(&format!("t{t}"))
            .unwrap();
    }
    schema.dim_mut(time).set_ordered(true);

    let d = schema.add_dimension("D");
    let mut group_ids = Vec::new();
    for g in 0..groups {
        group_ids.push(
            schema
                .dim_mut(d)
                .add_child_of_root(&format!("g{g}"))
                .unwrap(),
        );
    }
    let mut leaf_ids = Vec::new();
    for m in 0..members {
        let g = group_ids[(m % groups) as usize];
        leaf_ids.push(schema.dim_mut(d).add_member(&format!("m{m}"), g).unwrap());
    }

    let ctx = schema.add_dimension("X");
    for x in 0..3 {
        schema
            .dim_mut(ctx)
            .add_child_of_root(&format!("x{x}"))
            .unwrap();
    }

    schema.make_varying(d, time).unwrap();
    for c in 0..changers.min(members) {
        let leaf = leaf_ids[c as usize];
        let n_moves = rng.random_range(1..=3u32).min(moments - 1);
        for _ in 0..n_moves {
            let at = rng.random_range(1..moments);
            let to = group_ids[rng.random_range(0..groups) as usize];
            schema.reclassify(d, leaf, to, at).unwrap();
        }
        if rng.random_range(0..4u32) == 0 {
            // An occasional vacation.
            let at = rng.random_range(0..moments);
            schema.clear_at(d, leaf, [at]).unwrap();
        }
    }
    schema.seal();
    schema.validate().unwrap();
    let schema = Arc::new(schema);

    let extent = rng.random_range(1..=3u32);
    let mut b = Cube::builder(Arc::clone(&schema), vec![extent, 2, 2]).unwrap();
    let varying = schema.varying(d).unwrap();
    for (i, inst) in varying.instances().iter().enumerate() {
        for t in inst.validity.iter() {
            for x in 0..3u32 {
                if rng.random_range(0..5u32) > 0 {
                    // 80% dense over valid cells.
                    let v = rng.random_range(1.0..100.0_f64).round();
                    b.set_num(&[t, i as u32, x], v).unwrap();
                }
            }
        }
    }
    RandomWarehouse {
        cube: b.finish().unwrap(),
        schema,
        dim: d,
        moments,
    }
}

/// The scenario-cache chunks a warm run of a plan over `map` serves: one
/// per slice for each label of every merge component the scope keeps
/// whole (every component when unscoped). An oracle independent of the
/// planner: the graph is rebuilt from `map`, and the scope closes over
/// exactly one hop of it.
pub fn whole_component_chunks(
    cube: &Cube,
    dim: DimensionId,
    map: &DestMap,
    scope: Option<&[u32]>,
) -> u64 {
    let geom = cube.geometry();
    let extent = geom.extents()[dim.index()];
    let varying = cube.schema().varying(dim).expect("a varying dimension");
    let graph = MergeGraph::build(varying, map, extent);
    let scoped =
        |n: usize| scope.is_none_or(|slots| slots.iter().any(|&s| s / extent == graph.label(n)));
    let kept = |n: usize| scoped(n) || graph.neighbors(n).any(scoped);
    let labels: usize = (graph.components().iter())
        .filter(|comp| comp.iter().all(|&n| kept(n)))
        .map(Vec::len)
        .sum();
    let slices: u64 = (0..geom.ndims())
        .filter(|&d| d != dim.index())
        .map(|d| u64::from(geom.grid()[d]))
        .product();
    labels as u64 * slices
}

/// A negative scenario's perspective cube by the definitional oracle, in
/// [`whatif_core::apply`]'s shape: a grid evaluated over it is `E`
/// applied to the oracle's leaves (visual totals summed over them,
/// non-visual derived cells the input's).
pub fn oracle_result(input: &Cube, scenario: &Scenario) -> (Cube, ExecReport) {
    let Scenario::Negative(spec) = scenario else {
        panic!("the oracle covers negative scenarios: {scenario:?}");
    };
    let leaves = oracle::perspective_cube(input, spec.dim, spec.semantics, &spec.perspectives);
    (leaves, ExecReport::default())
}

/// The selectors of every cell of a grid whose query has no slicer, read
/// back from its row and column labels: each ` / `-separated part names
/// a member of exactly one dimension (an instance by its path, a
/// varying-dimension slot); every other dimension is at its root. The
/// grid is indexed `[row][column]`.
pub fn grid_sels(schema: &Schema, grid: &olap_mdx::Grid) -> Vec<Vec<Vec<Sel>>> {
    let atom = |part: &str| -> (DimensionId, Sel) {
        let mut found = schema.dim_ids().filter_map(|d| {
            let dim = schema.dim(d);
            match schema.varying(d) {
                Some(v) if part.contains('/') => (0..v.instance_count())
                    .find(|&i| v.instance_name(dim, InstanceId(i)) == part)
                    .map(|i| (d, Sel::Slot(i))),
                _ => dim.find(part).map(|m| (d, Sel::Member(m))),
            }
        });
        let first = found
            .next()
            .unwrap_or_else(|| panic!("{part:?} names no member"));
        assert!(
            found.next().is_none(),
            "{part:?} names members of two dimensions"
        );
        first
    };
    let tuple = |label: &str| -> Vec<(DimensionId, Sel)> {
        if label == "*" {
            return Vec::new();
        }
        label.split(" / ").map(atom).collect()
    };
    let columns: Vec<_> = grid.columns.iter().map(|c| tuple(c)).collect();
    (grid.rows.iter())
        .map(|r| {
            let row = tuple(r);
            (columns.iter())
                .map(|col| {
                    let mut sels = vec![Sel::Member(MemberId::ROOT); schema.dim_count()];
                    for &(d, sel) in row.iter().chain(col) {
                        sels[d.index()] = sel;
                    }
                    sels
                })
                .collect()
        })
        .collect()
}

/// All five semantics, for exhaustive sweeps.
pub fn all_semantics() -> [whatif_core::Semantics; 5] {
    use whatif_core::Semantics::*;
    [Static, Forward, ExtendedForward, Backward, ExtendedBackward]
}

/// Runs `request` once on each of `callers` threads at the same time and
/// returns each caller's outcome, a panicking caller's as `Err` — the
/// server's shape: one thread per session, each request serial.
pub fn concurrently<T: Send>(
    callers: usize,
    request: impl Fn() -> T + Sync,
) -> Vec<std::thread::Result<T>> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..callers).map(|_| s.spawn(&request)).collect();
        handles.into_iter().map(|h| h.join()).collect()
    })
}

/// The edit script analyst `i` replays (`Running` or a workforce
/// dataset): perspective-set edits alternating FORWARD / STATIC across a
/// fork and back, a bare `.apply` that re-runs the forest's scenario,
/// then a rollup. Scripts differ per session, so a shared cache sees
/// both reuse and churn; the state-setting verbs are there so a client
/// that reconnects mid-script must rebuild the forest from its journal.
/// Every reply is deterministic (cell count, order-independent digest,
/// pass count), which is what makes a serial replay an oracle.
pub fn edit_script(dataset: Dataset, i: usize) -> Vec<String> {
    let moment_sets: &[&str] = match dataset {
        Dataset::Running => &["1,3", "2,4", "1,4", "3"],
        _ => &["0,3,6,9", "0,3", "6,9", "0,9", "3,6"],
    };
    let apply = |step: usize| {
        let sem = if (i + step).is_multiple_of(2) {
            "forward"
        } else {
            "static"
        };
        let moments = moment_sets[(i + 3 * step) % moment_sets.len()];
        format!(".apply {sem} {moments}")
    };
    vec![
        apply(0),
        ".fork alt".to_string(),
        apply(1),
        ".switch main".to_string(),
        ".apply".to_string(),
        apply(2),
        ".rollup".to_string(),
    ]
}

/// The oracle: every script replayed on its own fresh in-process
/// session, one after another, over a private cache-less copy of the
/// dataset — no server, no sockets, no sharing.
pub fn serial_replies(dataset: Dataset, scripts: &[Vec<String>]) -> Vec<Vec<String>> {
    let data = Arc::new(SharedData::load(dataset));
    scripts
        .iter()
        .map(|script| {
            let mut session = Session::attach(data.clone());
            script
                .iter()
                .map(|cmd| match session.handle(cmd) {
                    Outcome::Continue(t) | Outcome::Quit(t) | Outcome::Deadline(t) => t,
                })
                .collect()
        })
        .collect()
}

/// Connects with `retry`, trying again for up to ten seconds: an
/// admission slot frees asynchronously after its session quits, and a
/// fault proxy may refuse or cut the greeting.
pub fn connect(addr: SocketAddr, retry: &RetryPolicy) -> std::io::Result<Client> {
    let t0 = Instant::now();
    loop {
        match Client::connect_with(addr, retry.clone()) {
            Ok(c) => return Ok(c),
            Err(e) if t0.elapsed() > Duration::from_secs(10) => return Err(e),
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// What one driven session saw.
#[derive(Debug)]
pub struct SessionRun {
    /// The `+` replies, in script order, up to the first failure.
    pub replies: Vec<String>,
    /// Why the script stopped early, if it did: a transport error the
    /// client's retries could not heal, or a non-`+` frame. `None`
    /// means every line was answered and `.quit` was acknowledged.
    pub stopped: Option<String>,
}

/// Replays `scripts` concurrently against the server (or fault proxy)
/// at `addr`, one client thread per script, each with `retry` (jitter
/// seeded per session so reconnects do not march in lockstep).
pub fn drive_sessions(
    addr: SocketAddr,
    scripts: &[Vec<String>],
    retry: &RetryPolicy,
) -> Vec<SessionRun> {
    let drive = |i: usize, script: &[String]| -> SessionRun {
        let retry = RetryPolicy {
            seed: (retry.seed ^ ((i as u64) << 8)) | 1,
            ..retry.clone()
        };
        let mut replies = Vec::new();
        let mut run = || -> Result<(), String> {
            let mut client = connect(addr, &retry).map_err(|e| format!("never connected: {e}"))?;
            for cmd in script {
                match client.request(cmd).map_err(|e| format!("{cmd}: {e}"))? {
                    (STATUS_OK, text) => replies.push(text),
                    (status, text) => return Err(format!("{cmd}: {}{text}", status as char)),
                }
            }
            match client.request(".quit").map_err(|e| format!(".quit: {e}"))? {
                (STATUS_QUIT, _) => Ok(()),
                (status, text) => Err(format!(".quit: {}{text}", status as char)),
            }
        };
        let stopped = run().err();
        SessionRun { replies, stopped }
    };
    std::thread::scope(|scope| {
        let workers: Vec<_> = scripts
            .iter()
            .enumerate()
            .map(|(i, script)| scope.spawn(move || drive(i, script)))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("session thread panicked"))
            .collect()
    })
}

/// Compares what the driven sessions were told with the serial oracle.
/// A session that stopped early is held to the prefix it got. Returns
/// the first divergence, naming the session and the reply.
pub fn first_divergence(runs: &[SessionRun], expected: &[Vec<String>]) -> Option<String> {
    assert_eq!(runs.len(), expected.len(), "one oracle script per session");
    runs.iter()
        .zip(expected)
        .enumerate()
        .find_map(|(i, (run, want))| {
            if run.replies.len() > want.len() {
                return Some(format!(
                    "session {i} got {} replies to a {}-line script",
                    run.replies.len(),
                    want.len()
                ));
            }
            let k = run.replies.iter().zip(want).position(|(g, w)| g != w)?;
            Some(format!(
                "session {i} diverged at reply {k}:\n  serial: {}\n  server: {}",
                want[k], run.replies[k]
            ))
        })
}

/// Writes `chunks` to `store` as one committed flush transaction and
/// returns its epoch: the only way a chunk record enters a file store.
pub fn commit(store: &mut FileStore, chunks: &[(ChunkId, Chunk)]) -> u64 {
    store.begin_flush().expect("begin_flush");
    for (id, c) in chunks {
        store.write(*id, c).expect("write");
    }
    store.commit_flush().expect("commit_flush")
}

#[cfg(test)]
mod tests {
    use super::*;
    use olap_server::{Server, ServerConfig};

    /// The harness must be able to fail: fed an oracle with one wrong
    /// line, the comparison names that session and that reply (and
    /// passes on the untouched oracle).
    #[test]
    fn a_wrong_oracle_line_is_reported_by_session_and_reply() {
        let scripts: Vec<_> = (0..3).map(|i| edit_script(Dataset::Running, i)).collect();
        let mut expected = serial_replies(Dataset::Running, &scripts);
        let shared = Arc::new(SharedData::load(Dataset::Running));
        let server = Server::start(shared, "127.0.0.1:0", ServerConfig::default()).expect("bind");
        let runs = drive_sessions(server.addr(), &scripts, &RetryPolicy::default());
        server.shutdown();
        assert!(runs.iter().all(|r| r.stopped.is_none()), "{runs:?}");
        assert_eq!(first_divergence(&runs, &expected), None);

        let right = std::mem::replace(&mut expected[1][2], "not what the server said".into());
        let report = first_divergence(&runs, &expected).expect("wrong oracle line must be caught");
        assert!(
            report.starts_with("session 1 diverged at reply 2:"),
            "{report}"
        );
        assert!(
            report.contains("serial: not what the server said"),
            "{report}"
        );
        assert!(report.contains(&format!("server: {right}")), "{report}");
    }
}
