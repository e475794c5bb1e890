//! Scenario-forest tests: fork edits stay isolated, a session toggling
//! forks over the versioned cache replays warm, and forks sharing one
//! dataset never share a positive reply their change lists do not
//! determine (DESIGN.md §14).

use olap_model::{DimensionId, MemberId};
use polap_cli::{Dataset, Outcome, Session, SharedData};
use std::sync::Arc;
use whatif_core::{Change, Mode, PerspectiveSpec, Scenario, ScenarioForest, Semantics};

fn text(o: Outcome) -> String {
    match o {
        Outcome::Continue(t) | Outcome::Quit(t) | Outcome::Deadline(t) => t,
    }
}

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
        match f.scenario() {
            Some(Scenario::Positive { changes, .. }) => {
                changes.iter().map(|c| c.member.0).collect()
            }
            other => panic!("not a positive fork: {other:?}"),
        }
    };
    assert_eq!(members(&f), vec![1, 3, 4]);
    f.switch("right").unwrap();
    assert_eq!(members(&f), vec![1, 2]);
    f.switch("main").unwrap();
    assert_eq!(members(&f), vec![1]);
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
    let parent = Scenario::Negative(base);
    assert_eq!(f.scenario(), Some(&parent));
    // …and diverges privately.
    let child = PerspectiveSpec::new(DimensionId(1), [2, 4], Semantics::Forward, Mode::Visual);
    f.set_negative(child.clone());
    assert_eq!(f.scenario(), Some(&Scenario::Negative(child)));
    f.switch("main").unwrap();
    assert_eq!(f.scenario(), Some(&parent));
}

/// End-to-end through a session: fork/switch toggling over a warm
/// versioned cache replays byte-identical replies, every probe a hit —
/// the session-level statement of the versioned-cache fix.
#[test]
fn session_fork_toggle_replays_warm_and_identical() {
    let mut s = cached_session();
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

/// Forks `fork` off `main` in session `s`, records `changes` on it and
/// returns the `.apply` reply.
fn apply_on_fork(s: &mut Session, fork: &str, changes: &[&str]) -> String {
    s.handle(".switch main");
    assert!(!text(s.handle(&format!(".fork {fork}"))).starts_with("error:"));
    for line in changes {
        assert!(!text(s.handle(line)).starts_with("error:"), "{line}");
    }
    text(s.handle(".apply"))
}

/// `split` applies a change list in order, so a list and its reversal
/// are two scenarios with two replies. Run on two forks over one
/// `SharedData` — in one session, or in two sessions with either list
/// first — each reply must equal the one a fresh session gives.
#[test]
fn reordered_change_lists_never_share_a_reply() {
    let list = [".change Joe Contractor 4", ".change Joe FTE 1"];
    let reversed = [list[1], list[0]];
    let fresh = |fork: &str, changes: &[&str]| {
        apply_on_fork(&mut Session::new(Dataset::Running), fork, changes)
    };
    let (want_a, want_b) = (fresh("a", &list), fresh("b", &reversed));
    let digest = |reply: &str| reply.split("digest ").nth(1).map(str::to_string);
    assert_ne!(digest(&want_a), digest(&want_b), "the two orders differ");

    let shared = Arc::new(SharedData::load(Dataset::Running));
    let mut one = Session::attach(shared.clone());
    assert_eq!(apply_on_fork(&mut one, "a", &list), want_a);
    assert_eq!(apply_on_fork(&mut one, "b", &reversed), want_b);
    for a_first in [true, false] {
        let shared = Arc::new(SharedData::load(Dataset::Running));
        let mut sessions = [
            Session::attach(shared.clone()),
            Session::attach(shared.clone()),
        ];
        let runs = [("a", &list, &want_a), ("b", &reversed, &want_b)];
        for i in if a_first { [0, 1] } else { [1, 0] } {
            let (fork, changes, want) = runs[i];
            assert_eq!(&apply_on_fork(&mut sessions[i], fork, changes), want);
        }
    }
}
