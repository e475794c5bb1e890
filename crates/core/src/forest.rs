//! Scenario forests: named, copy-on-write forks of what-if scenarios.
//!
//! Comparative what-if work is rarely one scenario at a time — the
//! analyst builds a baseline, forks it, perturbs the fork, and toggles
//! between the two to compare (DESIGN.md §14). A [`ScenarioForest`]
//! holds that exploration as a tree of named forks rooted at `main`:
//!
//! * forking copies the parent's scenario **by reference** — a positive
//!   change relation is a chain of immutable, `Arc`-shared *segments*
//!   plus one private tail ([`CowChanges`]), so a fork of a thousand
//!   changes copies a handful of pointers, never the tuples;
//! * edits after a fork land in the editing fork's private tail and are
//!   invisible to the parent and to siblings;
//! * switching forks is a pure pointer move — and, because the scenario
//!   cache is versioned by digest, switching back to a previously run
//!   fork replays from warm entries instead of re-merging.
//!
//! The structural sharing is the epoch model of crossworld-style MVCC
//! versioning scaled down to a session: versions share all unchanged
//! state and pay only for their deltas.

use crate::fingerprint::positive_fingerprint;
use crate::perspective::{Mode, PerspectiveSpec};
use crate::scenario::{Change, Scenario};
use olap_model::DimensionId;
use std::fmt;
use std::sync::Arc;

/// A change relation stored as a copy-on-write chain: a vector of
/// sealed, immutable segments (shared with ancestor/descendant forks)
/// followed by one mutable tail private to the owning fork. Forking
/// seals the tail into a new shared segment; the logical relation is
/// the concatenation, in order, of all segments then the tail.
#[derive(Debug, Clone, Default)]
pub struct CowChanges {
    segments: Vec<Arc<Vec<Change>>>,
    tail: Vec<Change>,
}

impl CowChanges {
    /// An empty relation.
    pub fn new() -> Self {
        CowChanges::default()
    }

    /// Total number of change tuples in the logical relation.
    pub fn len(&self) -> usize {
        self.segments.iter().map(|s| s.len()).sum::<usize>() + self.tail.len()
    }

    /// Whether the logical relation is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of tuples living in sealed (shared) segments.
    pub fn shared_len(&self) -> usize {
        self.segments.iter().map(|s| s.len()).sum()
    }

    /// Appends a tuple to this fork's private tail.
    pub fn push(&mut self, c: Change) {
        self.tail.push(c);
    }

    /// Iterates the logical relation in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Change> {
        self.segments
            .iter()
            .flat_map(|s| s.iter())
            .chain(self.tail.iter())
    }

    /// The sealed segments (for structural-sharing assertions in tests).
    pub fn segments(&self) -> &[Arc<Vec<Change>>] {
        &self.segments
    }

    /// Copy-on-write fork: seals this relation's tail into a shared
    /// segment (skipped when empty) and returns a child that references
    /// the same segments. Neither side can mutate the other's tuples
    /// afterwards — both grow through their own fresh tails.
    pub fn fork(&mut self) -> CowChanges {
        if !self.tail.is_empty() {
            let sealed = Arc::new(std::mem::take(&mut self.tail));
            self.segments.push(sealed);
        }
        CowChanges {
            segments: self.segments.clone(),
            tail: Vec::new(),
        }
    }

    /// Materializes the logical relation as one contiguous vector.
    pub fn to_vec(&self) -> Vec<Change> {
        self.iter().cloned().collect()
    }
}

/// What one fork currently assumes.
#[derive(Debug, Clone, Default)]
enum ForkState {
    /// Nothing applied yet (a fresh fork of an empty parent).
    #[default]
    Empty,
    /// A negative scenario: a perspective clause.
    Negative(PerspectiveSpec),
    /// A positive scenario: a CoW change relation.
    Positive {
        dim: DimensionId,
        mode: Mode,
        changes: CowChanges,
    },
}

#[derive(Debug, Clone)]
struct Fork {
    name: String,
    parent: Option<usize>,
    state: ForkState,
}

/// Errors from forest verbs — misuse, never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ForestError {
    /// `.fork` with a name that already exists.
    DuplicateFork(String),
    /// `.switch` to a name that was never forked.
    UnknownFork(String),
    /// A positive change targeted a different dimension than the ones
    /// already recorded in the fork.
    DimMismatch {
        /// Dimension the fork's existing changes act on.
        have: DimensionId,
        /// Dimension of the rejected change.
        got: DimensionId,
    },
}

impl fmt::Display for ForestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ForestError::DuplicateFork(n) => write!(f, "fork '{n}' already exists"),
            ForestError::UnknownFork(n) => {
                write!(f, "no fork named '{n}' (see .scenarios)")
            }
            ForestError::DimMismatch { have, got } => write!(
                f,
                "change targets dimension {} but the fork's changes target dimension {}; \
                 .fork a fresh scenario to mix dimensions",
                got.0, have.0
            ),
        }
    }
}

impl std::error::Error for ForestError {}

/// One row of `.scenarios` output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForkRow {
    /// Fork name.
    pub name: String,
    /// Parent fork name (`None` for the root).
    pub parent: Option<String>,
    /// Whether this is the session's current fork.
    pub current: bool,
    /// Human summary of the fork's scenario.
    pub summary: String,
    /// Of the fork's change tuples, how many live in segments shared
    /// with other forks (0 for negative/empty forks).
    pub shared_changes: usize,
}

/// A session's tree of named scenario forks, rooted at `main`.
///
/// Exactly one fork is *current*; scenario-building verbs edit it and
/// query verbs run it. [`ScenarioForest::fork`] copies the current
/// fork's scenario copy-on-write and switches to the child.
#[derive(Debug, Clone)]
pub struct ScenarioForest {
    forks: Vec<Fork>,
    current: usize,
}

impl Default for ScenarioForest {
    fn default() -> Self {
        ScenarioForest::new()
    }
}

impl ScenarioForest {
    /// A forest with one empty root fork named `main`.
    pub fn new() -> Self {
        ScenarioForest {
            forks: vec![Fork {
                name: "main".to_string(),
                parent: None,
                state: ForkState::Empty,
            }],
            current: 0,
        }
    }

    /// Name of the current fork.
    pub fn current_name(&self) -> &str {
        &self.forks[self.current].name
    }

    fn index_of(&self, name: &str) -> Option<usize> {
        self.forks.iter().position(|f| f.name == name)
    }

    /// Forks the current fork under `name` and switches to the child.
    /// The child starts with a copy-on-write reference to the parent's
    /// scenario: perspective clauses are tiny and cloned outright, while
    /// positive change relations share their sealed segments.
    pub fn fork(&mut self, name: &str) -> Result<(), ForestError> {
        if self.index_of(name).is_some() {
            return Err(ForestError::DuplicateFork(name.to_string()));
        }
        let parent = self.current;
        let state = match &mut self.forks[parent].state {
            ForkState::Empty => ForkState::Empty,
            ForkState::Negative(spec) => ForkState::Negative(spec.clone()),
            ForkState::Positive { dim, mode, changes } => ForkState::Positive {
                dim: *dim,
                mode: *mode,
                changes: changes.fork(),
            },
        };
        self.forks.push(Fork {
            name: name.to_string(),
            parent: Some(parent),
            state,
        });
        self.current = self.forks.len() - 1;
        Ok(())
    }

    /// Switches the current fork by name.
    pub fn switch(&mut self, name: &str) -> Result<(), ForestError> {
        match self.index_of(name) {
            Some(i) => {
                self.current = i;
                Ok(())
            }
            None => Err(ForestError::UnknownFork(name.to_string())),
        }
    }

    /// Records a negative scenario (perspective clause) on the current
    /// fork, replacing whatever it assumed before.
    pub fn set_negative(&mut self, spec: PerspectiveSpec) {
        self.forks[self.current].state = ForkState::Negative(spec);
    }

    /// Appends a positive change to the current fork. If the fork held
    /// a negative scenario (or nothing), it becomes a fresh positive
    /// one; if it already holds changes, the dimension must match.
    pub fn add_change(
        &mut self,
        dim: DimensionId,
        mode: Mode,
        change: Change,
    ) -> Result<(), ForestError> {
        let state = &mut self.forks[self.current].state;
        match state {
            ForkState::Positive {
                dim: have, changes, ..
            } => {
                if *have != dim {
                    return Err(ForestError::DimMismatch {
                        have: *have,
                        got: dim,
                    });
                }
                changes.push(change);
            }
            _ => {
                let mut changes = CowChanges::new();
                changes.push(change);
                *state = ForkState::Positive { dim, mode, changes };
            }
        }
        Ok(())
    }

    /// Materializes the current fork's scenario, or `None` if the fork
    /// has nothing applied yet.
    pub fn scenario(&self) -> Option<Scenario> {
        match &self.forks[self.current].state {
            ForkState::Empty => None,
            ForkState::Negative(spec) => Some(Scenario::Negative(spec.clone())),
            ForkState::Positive { dim, mode, changes } => Some(Scenario::Positive {
                dim: *dim,
                changes: changes.to_vec(),
                mode: *mode,
            }),
        }
    }

    /// Stable fingerprint of the current fork's scenario without
    /// materializing a positive fork's CoW chain. Agrees with
    /// [`Scenario::fingerprint`] of [`ScenarioForest::scenario`].
    pub fn fingerprint(&self) -> Option<u64> {
        match &self.forks[self.current].state {
            ForkState::Empty => None,
            ForkState::Negative(spec) => Some(Scenario::Negative(spec.clone()).fingerprint()),
            ForkState::Positive { dim, mode, changes } => {
                Some(positive_fingerprint(*dim, *mode, changes.iter()))
            }
        }
    }

    /// The current fork's CoW relation, if it is positive (tests assert
    /// structural sharing through this).
    pub fn current_changes(&self) -> Option<&CowChanges> {
        match &self.forks[self.current].state {
            ForkState::Positive { changes, .. } => Some(changes),
            _ => None,
        }
    }

    /// `.scenarios` listing, in fork-creation order.
    pub fn rows(&self) -> Vec<ForkRow> {
        self.forks
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let (summary, shared) = match &f.state {
                    ForkState::Empty => ("(empty)".to_string(), 0),
                    ForkState::Negative(spec) => {
                        let moments: Vec<String> =
                            spec.perspectives.iter().map(|m| m.to_string()).collect();
                        (
                            format!("negative {:?} {{{}}}", spec.semantics, moments.join(",")),
                            0,
                        )
                    }
                    ForkState::Positive { dim, changes, .. } => (
                        format!("positive dim {} ({} changes)", dim.0, changes.len()),
                        changes.shared_len(),
                    ),
                };
                ForkRow {
                    name: f.name.clone(),
                    parent: f.parent.map(|p| self.forks[p].name.clone()),
                    current: i == self.current,
                    summary,
                    shared_changes: shared,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perspective::Semantics;
    use olap_model::MemberId;

    fn change(member: u32, at: u32) -> Change {
        Change {
            member: MemberId(member),
            old_parent: None,
            new_parent: MemberId(1),
            at,
        }
    }

    #[test]
    fn fork_shares_segments_structurally() {
        let mut f = ScenarioForest::new();
        f.add_change(DimensionId(0), Mode::Visual, change(10, 1))
            .unwrap();
        f.add_change(DimensionId(0), Mode::Visual, change(11, 2))
            .unwrap();
        f.fork("b").unwrap();
        // The child's first segment IS the parent's sealed tail.
        let child_seg = f.current_changes().unwrap().segments()[0].clone();
        f.switch("main").unwrap();
        let parent_seg = f.current_changes().unwrap().segments()[0].clone();
        assert!(Arc::ptr_eq(&child_seg, &parent_seg));
        assert_eq!(f.current_changes().unwrap().shared_len(), 2);
    }

    #[test]
    fn fork_edits_are_isolated() {
        let mut f = ScenarioForest::new();
        f.add_change(DimensionId(0), Mode::Visual, change(10, 1))
            .unwrap();
        f.fork("b").unwrap();
        f.add_change(DimensionId(0), Mode::Visual, change(20, 3))
            .unwrap();
        assert_eq!(f.current_changes().unwrap().len(), 2);
        f.switch("main").unwrap();
        assert_eq!(f.current_changes().unwrap().len(), 1);
        // Parent edits after the fork are equally invisible to the child.
        f.add_change(DimensionId(0), Mode::Visual, change(30, 4))
            .unwrap();
        f.switch("b").unwrap();
        let members: Vec<u32> = f
            .current_changes()
            .unwrap()
            .iter()
            .map(|c| c.member.0)
            .collect();
        assert_eq!(members, vec![10, 20]);
    }

    #[test]
    fn forest_fingerprint_matches_materialized_scenario() {
        let mut f = ScenarioForest::new();
        f.add_change(DimensionId(0), Mode::Visual, change(10, 1))
            .unwrap();
        f.fork("b").unwrap();
        f.add_change(DimensionId(0), Mode::Visual, change(20, 3))
            .unwrap();
        let via_chain = f.fingerprint().unwrap();
        let via_vec = f.scenario().unwrap().fingerprint();
        assert_eq!(via_chain, via_vec);
        // Negative forks agree too.
        f.set_negative(PerspectiveSpec::new(
            DimensionId(1),
            [2, 5],
            Semantics::Forward,
            Mode::Visual,
        ));
        assert_eq!(
            f.fingerprint().unwrap(),
            f.scenario().unwrap().fingerprint()
        );
    }

    #[test]
    fn verbs_reject_misuse() {
        let mut f = ScenarioForest::new();
        assert_eq!(
            f.fork("main"),
            Err(ForestError::DuplicateFork("main".into()))
        );
        assert_eq!(
            f.switch("ghost"),
            Err(ForestError::UnknownFork("ghost".into()))
        );
        f.add_change(DimensionId(0), Mode::Visual, change(10, 1))
            .unwrap();
        assert_eq!(
            f.add_change(DimensionId(1), Mode::Visual, change(11, 1)),
            Err(ForestError::DimMismatch {
                have: DimensionId(0),
                got: DimensionId(1)
            })
        );
    }

    #[test]
    fn rows_describe_the_tree() {
        let mut f = ScenarioForest::new();
        f.set_negative(PerspectiveSpec::new(
            DimensionId(1),
            [1, 3],
            Semantics::Forward,
            Mode::Visual,
        ));
        f.fork("alt").unwrap();
        let rows = f.rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "main");
        assert!(rows[0].parent.is_none());
        assert!(!rows[0].current);
        assert_eq!(rows[1].name, "alt");
        assert_eq!(rows[1].parent.as_deref(), Some("main"));
        assert!(rows[1].current);
        assert!(rows[1].summary.contains("negative"), "{}", rows[1].summary);
    }

    #[test]
    fn switching_back_resumes_the_same_scenario() {
        let mut f = ScenarioForest::new();
        f.set_negative(PerspectiveSpec::new(
            DimensionId(1),
            [1, 3],
            Semantics::Forward,
            Mode::Visual,
        ));
        let a = f.fingerprint().unwrap();
        f.fork("b").unwrap();
        f.set_negative(PerspectiveSpec::new(
            DimensionId(1),
            [2, 4],
            Semantics::Forward,
            Mode::Visual,
        ));
        let b = f.fingerprint().unwrap();
        assert_ne!(a, b);
        // Toggle A↔B: fingerprints are stable, which is what makes the
        // versioned cache hit on every switch.
        for _ in 0..3 {
            f.switch("main").unwrap();
            assert_eq!(f.fingerprint().unwrap(), a);
            f.switch("b").unwrap();
            assert_eq!(f.fingerprint().unwrap(), b);
        }
    }
}
