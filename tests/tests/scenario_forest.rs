//! Scenario-forest tests: copy-on-write forks share unchanged change
//! lists structurally, fork edits stay isolated, and a session toggling
//! forks over the versioned cache replays warm (DESIGN.md §14).

use olap_model::{DimensionId, MemberId};
use polap_cli::{Dataset, Outcome, Session, SharedData};
use std::sync::Arc;
use whatif_core::{Change, Mode, PerspectiveSpec, ScenarioForest, Semantics};

/// A running-example session with a 16 MB scenario cache.
fn cached_session() -> Session {
    let mut shared = SharedData::load(Dataset::Running);
    shared.set_cache_mb(16);
    Session::attach(Arc::new(shared))
}

fn change(member: u32, at: u32) -> Change {
    Change {
        member: MemberId(member),
        old_parent: None,
        new_parent: MemberId(1),
        at,
    }
}

/// A deep fork chain shares every sealed segment with its ancestors:
/// the total tuples *stored* grow linearly in the edits, not in
/// forks × edits — the crossworld-style structural-sharing claim.
#[test]
fn deep_fork_chains_share_all_sealed_segments() {
    let mut f = ScenarioForest::new();
    for round in 0..8u32 {
        f.add_change(DimensionId(0), Mode::Visual, change(100 + round, round))
            .unwrap();
        f.fork(&format!("gen{round}")).unwrap();
    }
    // The deepest fork sees all 8 changes, all of them shared.
    let leaf = f.current_changes().unwrap();
    assert_eq!(leaf.len(), 8);
    assert_eq!(leaf.shared_len(), 8);
    // Each ancestor's segments are prefixes of the leaf's — pointer-equal,
    // not copies.
    let leaf_segments: Vec<_> = leaf.segments().to_vec();
    for round in 0..8usize {
        f.switch(&format!("gen{round}")).unwrap();
        let c = f.current_changes().unwrap();
        for (i, seg) in c.segments().iter().enumerate() {
            assert!(
                Arc::ptr_eq(seg, &leaf_segments[i]),
                "gen{round} segment {i} was copied, not shared"
            );
        }
    }
}

/// Sibling forks never see each other's edits, whatever the interleaving.
#[test]
fn sibling_forks_are_mutually_isolated() {
    let mut f = ScenarioForest::new();
    f.add_change(DimensionId(0), Mode::Visual, change(1, 0))
        .unwrap();
    f.fork("left").unwrap();
    f.switch("main").unwrap();
    f.fork("right").unwrap();
    f.add_change(DimensionId(0), Mode::Visual, change(2, 1))
        .unwrap();
    f.switch("left").unwrap();
    f.add_change(DimensionId(0), Mode::Visual, change(3, 2))
        .unwrap();
    f.add_change(DimensionId(0), Mode::Visual, change(4, 3))
        .unwrap();

    let members = |f: &ScenarioForest| -> Vec<u32> {
        f.current_changes()
            .unwrap()
            .iter()
            .map(|c| c.member.0)
            .collect()
    };
    assert_eq!(members(&f), vec![1, 3, 4]);
    f.switch("right").unwrap();
    assert_eq!(members(&f), vec![1, 2]);
    f.switch("main").unwrap();
    assert_eq!(members(&f), vec![1]);
    // Distinct relations fingerprint distinctly; equal ones equally.
    let mut prints = Vec::new();
    for name in ["main", "left", "right"] {
        f.switch(name).unwrap();
        prints.push(f.fingerprint().unwrap());
    }
    prints.sort_unstable();
    prints.dedup();
    assert_eq!(prints.len(), 3, "sibling scenarios must not collide");
}

/// The forest's chain fingerprint is the scenario fingerprint: a fork
/// whose *logical* relation equals a flat scenario digests identically,
/// no matter how the chain is segmented.
#[test]
fn segmentation_never_changes_the_fingerprint() {
    let mut chained = ScenarioForest::new();
    chained
        .add_change(DimensionId(2), Mode::NonVisual, change(7, 1))
        .unwrap();
    chained.fork("a").unwrap();
    chained
        .add_change(DimensionId(2), Mode::NonVisual, change(8, 2))
        .unwrap();
    chained.fork("b").unwrap();
    chained
        .add_change(DimensionId(2), Mode::NonVisual, change(9, 3))
        .unwrap();

    let mut flat = ScenarioForest::new();
    for c in [change(7, 1), change(8, 2), change(9, 3)] {
        flat.add_change(DimensionId(2), Mode::NonVisual, c).unwrap();
    }
    assert_eq!(chained.fingerprint(), flat.fingerprint());
    assert_eq!(
        chained.scenario().unwrap().fingerprint(),
        chained.fingerprint().unwrap()
    );
}

/// Negative scenarios fork too: the child inherits the parent's
/// perspective clause and may replace it without touching the parent.
#[test]
fn negative_forks_inherit_then_diverge() {
    let mut f = ScenarioForest::new();
    let base = PerspectiveSpec::new(DimensionId(1), [1, 3], Semantics::Forward, Mode::Visual);
    f.set_negative(base.clone());
    f.fork("alt").unwrap();
    // The child starts equal to the parent…
    assert_eq!(
        f.scenario().unwrap().fingerprint(),
        whatif_core::Scenario::Negative(base).fingerprint()
    );
    // …and diverges privately.
    f.set_negative(PerspectiveSpec::new(
        DimensionId(1),
        [2, 4],
        Semantics::Forward,
        Mode::Visual,
    ));
    let child = f.fingerprint().unwrap();
    f.switch("main").unwrap();
    assert_ne!(f.fingerprint().unwrap(), child);
}

/// End-to-end through a session: fork/switch toggling over a warm
/// versioned cache replays byte-identical replies, every probe a hit —
/// the session-level statement of the versioned-cache fix.
#[test]
fn session_fork_toggle_replays_warm_and_identical() {
    let mut s = cached_session();
    let text = |o: Outcome| match o {
        Outcome::Continue(t) | Outcome::Quit(t) | Outcome::Deadline(t) => t,
    };
    let a = text(s.handle(".apply forward 1,3"));
    s.handle(".fork b");
    let b = text(s.handle(".apply forward 2,4"));
    assert_ne!(a, b);
    let cache = s.shared().cache().expect("cache on").clone();
    let before = cache.stats();
    for _ in 0..3 {
        s.handle(".switch main");
        assert_eq!(text(s.handle(".apply")), a);
        s.handle(".switch b");
        assert_eq!(text(s.handle(".apply")), b);
    }
    let stats = cache.stats();
    let (hits, lookups) = (stats.hits - before.hits, stats.lookups - before.lookups);
    assert_eq!(stats.evictions, before.evictions, "{stats:?}");
    assert!(hits > 0 && hits == lookups, "{stats:?}");
}
