//! Scenario forests: named forks of what-if scenarios.
//!
//! Comparative what-if work is rarely one scenario at a time — the
//! analyst builds a baseline, forks it, perturbs the fork, and toggles
//! between the two to compare (DESIGN.md §14). A [`ScenarioForest`]
//! holds that exploration as a tree of named forks rooted at `main`:
//!
//! * each fork holds its own [`Scenario`], and forking clones the
//!   parent's — a perspective clause or a change list of a few tuples;
//! * edits after a fork land in the editing fork only and are invisible
//!   to the parent and to siblings;
//! * switching forks changes which fork is current and nothing else —
//!   re-running a negative fork replays from the scenario cache, whose
//!   entries are keyed by what the run computes, not by the fork.

use crate::perspective::{Mode, PerspectiveSpec};
use crate::scenario::{Change, Scenario};
use olap_model::DimensionId;
use std::fmt;

#[derive(Debug, Clone)]
struct Fork {
    name: String,
    parent: Option<usize>,
    /// What the fork assumes; `None` until something is recorded.
    scenario: Option<Scenario>,
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
pub struct ForkRow<'a> {
    /// Fork name.
    pub name: &'a str,
    /// Parent fork name (`None` for the root).
    pub parent: Option<&'a str>,
    /// Whether this is the session's current fork.
    pub current: bool,
    /// The fork's scenario, if it has one yet.
    pub scenario: Option<&'a Scenario>,
}

/// A session's tree of named scenario forks, rooted at `main`.
///
/// Exactly one fork is *current*; scenario-building verbs edit it and
/// query verbs run it. [`ScenarioForest::fork`] copies the current
/// fork's scenario and switches to the child.
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
                scenario: None,
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

    /// Forks the current fork under `name`, copying its scenario, and
    /// switches to the child.
    pub fn fork(&mut self, name: &str) -> Result<(), ForestError> {
        if self.index_of(name).is_some() {
            return Err(ForestError::DuplicateFork(name.to_string()));
        }
        let parent = self.current;
        self.forks.push(Fork {
            name: name.to_string(),
            parent: Some(parent),
            scenario: self.forks[parent].scenario.clone(),
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
        self.forks[self.current].scenario = Some(Scenario::Negative(spec));
    }

    /// Appends a positive change to the current fork and returns how
    /// many changes the fork now holds. If the fork held a negative
    /// scenario (or nothing), it becomes a fresh positive one; if it
    /// already holds changes, the dimension must match.
    pub fn add_change(
        &mut self,
        dim: DimensionId,
        mode: Mode,
        change: Change,
    ) -> Result<usize, ForestError> {
        match &mut self.forks[self.current].scenario {
            Some(Scenario::Positive {
                dim: have, changes, ..
            }) => {
                if *have != dim {
                    return Err(ForestError::DimMismatch {
                        have: *have,
                        got: dim,
                    });
                }
                changes.push(change);
                Ok(changes.len())
            }
            scenario => {
                *scenario = Some(Scenario::positive(dim, vec![change], mode));
                Ok(1)
            }
        }
    }

    /// The current fork's scenario, or `None` if the fork has nothing
    /// applied yet.
    pub fn scenario(&self) -> Option<&Scenario> {
        self.forks[self.current].scenario.as_ref()
    }

    /// `.scenarios` listing, in fork-creation order.
    pub fn rows(&self) -> impl Iterator<Item = ForkRow<'_>> {
        self.forks.iter().enumerate().map(|(i, f)| ForkRow {
            name: &f.name,
            parent: f.parent.map(|p| self.forks[p].name.as_str()),
            current: i == self.current,
            scenario: f.scenario.as_ref(),
        })
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

    fn members(f: &ScenarioForest) -> Vec<u32> {
        match f.scenario() {
            Some(Scenario::Positive { changes, .. }) => {
                changes.iter().map(|c| c.member.0).collect()
            }
            other => panic!("not a positive fork: {other:?}"),
        }
    }

    #[test]
    fn fork_edits_are_isolated() {
        let mut f = ScenarioForest::new();
        f.add_change(DimensionId(0), Mode::Visual, change(10, 1))
            .unwrap();
        f.fork("b").unwrap();
        f.add_change(DimensionId(0), Mode::Visual, change(20, 3))
            .unwrap();
        assert_eq!(members(&f), vec![10, 20]);
        f.switch("main").unwrap();
        assert_eq!(members(&f), vec![10]);
        // Parent edits after the fork are equally invisible to the child.
        f.add_change(DimensionId(0), Mode::Visual, change(30, 4))
            .unwrap();
        f.switch("b").unwrap();
        assert_eq!(members(&f), vec![10, 20]);
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
        let spec = PerspectiveSpec::new(DimensionId(1), [1, 3], Semantics::Forward, Mode::Visual);
        f.set_negative(spec.clone());
        f.fork("alt").unwrap();
        let rows: Vec<ForkRow> = f.rows().collect();
        let negative = Scenario::Negative(spec);
        assert_eq!(
            rows,
            vec![
                ForkRow {
                    name: "main",
                    parent: None,
                    current: false,
                    scenario: Some(&negative),
                },
                ForkRow {
                    name: "alt",
                    parent: Some("main"),
                    current: true,
                    scenario: Some(&negative),
                },
            ]
        );
    }

    #[test]
    fn switching_back_resumes_the_same_scenario() {
        let mut f = ScenarioForest::new();
        let spec =
            |p: [u32; 2]| PerspectiveSpec::new(DimensionId(1), p, Semantics::Forward, Mode::Visual);
        f.set_negative(spec([1, 3]));
        f.fork("b").unwrap();
        f.set_negative(spec([2, 4]));
        let (a, b) = (
            Scenario::Negative(spec([1, 3])),
            Scenario::Negative(spec([2, 4])),
        );
        for _ in 0..3 {
            f.switch("main").unwrap();
            assert_eq!(f.scenario(), Some(&a));
            f.switch("b").unwrap();
            assert_eq!(f.scenario(), Some(&b));
        }
    }
}
