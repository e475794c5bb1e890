//! Writes to a session's base cube through the public API: scans see a
//! written chunk before any flush, and the scenario cache answers no
//! scenario, negative or positive, with cells computed before the write;
//! toggled scenarios whose output geometries differ never share cells.

use olap_cube::Cube;
use olap_store::CellValue;
use polap_cli::{cell_digest, Dataset, Outcome, Session, SharedData};
use std::sync::Arc;

/// Adds 1000 to the first `n` present cells of `cube`.
fn raise(cube: &Cube, n: usize) {
    let mut cells = Vec::new();
    cube.for_each_present(|c, v| cells.push((c.to_vec(), v)))
        .unwrap();
    for (cell, v) in cells.into_iter().take(n) {
        cube.set(&cell, CellValue::num(v + 1000.0)).unwrap();
    }
}

/// A running-example session with a 16 MB scenario cache.
fn cached_session() -> Session {
    let mut shared = SharedData::load(Dataset::Running);
    shared.set_cache_mb(16);
    Session::attach(Arc::new(shared))
}

/// The scenario cache's hits so far.
fn hits(s: &Session) -> u64 {
    s.shared().cache().expect("cache on").stats().hits
}

/// Builds three forks on `s` — `one`: a 1-change list; `two`: a second
/// change of the same member, which grows the axis by one more slot;
/// `neg`: `forward 1,3` — and returns their fork names.
fn three_forks(s: &mut Session) -> [&'static str; 3] {
    for line in [
        ".fork one",
        ".change Lisa PTE 3",
        ".fork two",
        ".change Lisa Contractor 5",
        ".switch main",
        ".fork neg",
        ".apply forward 1,3",
    ] {
        let reply = s.handle(line);
        assert!(
            !format!("{reply:?}").contains("error:"),
            "{line}: {reply:?}"
        );
    }
    ["one", "two", "neg"]
}

/// The scenario cache keys output chunks by the output geometry, so
/// scenarios whose outputs have different axis lengths never serve one
/// another's chunks. Toggled several times on one cached session, each
/// reply equals a fresh uncached session's, and from the second round
/// each positive replay is served components.
#[test]
fn toggled_output_geometries_never_share_cached_chunks() {
    let mut fresh = Session::new(Dataset::Running);
    let forks = three_forks(&mut fresh);
    let want: Vec<Outcome> = (forks.iter())
        .map(|f| {
            fresh.handle(&format!(".switch {f}"));
            fresh.handle(".apply")
        })
        .collect();
    let mut s = cached_session();
    three_forks(&mut s);
    for round in 0..4 {
        for (fork, want) in forks.iter().zip(&want) {
            s.handle(&format!(".switch {fork}"));
            let before = hits(&s);
            assert_eq!(&s.handle(".apply"), want, "round {round} fork {fork}");
            if round > 0 && *fork != "neg" {
                assert!(hits(&s) > before, "round {round} fork {fork}: served");
            }
        }
    }
}

/// The cache serves a positive replay the split's merged components. A
/// base write followed by `.commit` must strand them even on a memory
/// store, whose flush epoch never moves: the replay must equal the reply
/// of a fresh session that made the same write.
#[test]
fn split_memo_sees_a_base_write() {
    let mut s = cached_session();
    s.handle(".change Joe PTE 3");
    let before = s.handle(".apply");
    assert_eq!(s.handle(".apply"), before);
    assert!(hits(&s) > 0, "the replay is served components");
    raise(s.shared().cube(), 1);
    s.handle(".commit");
    let after = s.handle(".apply");

    let mut fresh = Session::new(Dataset::Running);
    raise(fresh.shared().cube(), 1);
    fresh.handle(".commit");
    fresh.handle(".change Joe PTE 3");
    let expected = fresh.handle(".apply");
    assert_ne!(before, expected, "the write must change the reply");
    assert_eq!(after, expected);
}

/// The scenario cache serves merged components by fate digest. After
/// every base cell changes, a repeated `.apply` must not serve the
/// components merged before the write.
#[test]
fn scenario_cache_sees_a_base_write() {
    let all = usize::MAX;
    let mut s = cached_session();
    s.handle(".apply forward 1,3");
    raise(s.shared().cube(), all);
    s.handle(".commit");
    let after = s.handle(".apply forward 1,3");

    let mut fresh = cached_session();
    raise(fresh.shared().cube(), all);
    fresh.handle(".commit");
    assert_eq!(after, fresh.handle(".apply forward 1,3"));
}

/// A chunk that exists only as a dirty pool frame is a chunk: counts
/// and the digest see it before the flush writes it to the store.
#[test]
fn dirty_chunk_is_visible_to_scans() {
    let s = Session::new(Dataset::Running);
    let cube = s.shared().cube();
    assert_eq!(cube.present_cell_count().unwrap(), 92);
    assert_eq!(cube.chunk_count(), 14);
    let geom = cube.geometry();
    let absent = (geom.all_chunk_ids().into_iter())
        .find(|&id| !cube.chunk_exists(id))
        .expect("the running example leaves some chunks empty");
    let cell = geom.cell_of_local(&geom.chunk_coord(absent), 0);
    cube.set(&cell, CellValue::num(7.0)).unwrap();

    assert_eq!(cube.present_cell_count().unwrap(), 93);
    assert_eq!(cube.chunk_count(), 15);
    let unflushed = cell_digest(cube).unwrap();
    cube.flush().unwrap();
    assert_eq!(cell_digest(cube).unwrap(), unflushed);
}
