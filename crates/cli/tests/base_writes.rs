//! Writes to a session's base cube through the public API: scans see a
//! written chunk before any flush, and neither what-if memo answers with
//! cells computed before the write.

use olap_cube::Cube;
use olap_store::CellValue;
use polap_cli::{cell_digest, Dataset, Session, SharedData};
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

/// The positive path memoizes its replies. A base write followed by
/// `.commit` must change the reply's key even on a memory store, whose
/// flush epoch never moves: the replay must equal the reply of a fresh
/// session that made the same write.
#[test]
fn split_memo_sees_a_base_write() {
    let mut s = Session::new(Dataset::Running);
    s.handle(".change Joe Contractor 2");
    let before = s.handle(".apply");
    raise(s.shared().cube(), 1);
    s.handle(".commit");
    let after = s.handle(".apply");

    let mut fresh = Session::new(Dataset::Running);
    raise(fresh.shared().cube(), 1);
    fresh.handle(".commit");
    fresh.handle(".change Joe Contractor 2");
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
