//! The five workloads and their seeded request streams.
//!
//! A stream is generated up front from `--seed`; the server sees only
//! the generated lines. Every class of operation (semantics × number of
//! perspectives, query shape) appears equally often in every stream and
//! only the moments, heads and order are drawn from the seed, so the
//! latency distribution does not move with the seed while the inputs do.

use polap_cli::Dataset;
use whatif_core::{Fnv64, Semantics};

/// SplitMix64: the benchmark's only source of randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }

    /// `k` distinct moments of the 12-month parameter dimension, sorted.
    fn moments(&mut self, k: usize) -> Vec<u32> {
        let mut all: Vec<u32> = (0..MONTHS).collect();
        self.shuffle(&mut all);
        all.truncate(k);
        all.sort_unstable();
        all
    }
}

const MONTHS: u32 = 12;
const SEMANTICS: [(Semantics, &str, &str); 5] = [
    (Semantics::Static, "static", "STATIC"),
    (Semantics::Forward, "forward", "DYNAMIC FORWARD"),
    (Semantics::ExtendedForward, "xforward", "EXTENDED FORWARD"),
    (Semantics::Backward, "backward", "DYNAMIC BACKWARD"),
    (
        Semantics::ExtendedBackward,
        "xbackward",
        "EXTENDED BACKWARD",
    ),
];

/// Operations per generated stream; a client that outruns its stream
/// starts over from the top.
pub const STREAM_OPS: usize = 480;
/// Cell writes in front of every `.commit`.
pub const WRITES_PER_COMMIT: usize = 8;
/// What the `commit_file` reader asks, back to back.
pub const READER_LINE: &str = ".apply forward 1,3";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    WhatifCold,
    ToggleWarm,
    MdxScoped,
    RollupScan,
    CommitFile,
}

/// One workload: a dataset, a server configuration and a kind of
/// operation.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    pub dataset: Dataset,
    /// Scenario-cache capacity of the server (0 = off).
    pub cache_mb: usize,
    /// Untimed operations per client between connect and the timed region.
    pub warmup_ops: usize,
    /// Operations of the traced run per second of `--seconds`: the
    /// traced run is count-bound so its counters repeat exactly.
    pub trace_ops_per_s: f64,
    pub why: &'static str,
}

pub const SPECS: [Spec; 5] = [
    Spec {
        name: "whatif_cold",
        kind: Kind::WhatifCold,
        dataset: Dataset::Workforce,
        cache_mb: 0,
        warmup_ops: 4,
        trace_ops_per_s: 2.4,
        why: "cache off on a cube that fits the pool: every .apply re-plans and re-merges, so plan, pebbling, merge kernels and digest do the work",
    },
    Spec {
        name: "toggle_warm",
        kind: Kind::ToggleWarm,
        dataset: Dataset::Bench,
        cache_mb: 64,
        warmup_ops: 4,
        trace_ops_per_s: 2.4,
        why: "A/B toggles at 100% cache hits on a cube larger than the pool: cache probe, pool miss, file read, decode and digest do the work, merges none",
    },
    Spec {
        name: "mdx_scoped",
        kind: Kind::MdxScoped,
        dataset: Dataset::Workforce,
        cache_mb: 0,
        warmup_ops: 6,
        trace_ops_per_s: 3.6,
        why: "the paper's Fig. 10 queries: short scoped execution behind large grid replies, so parse, compile, rendering, framing and server overhead show",
    },
    Spec {
        name: "rollup_scan",
        kind: Kind::RollupScan,
        dataset: Dataset::Workforce,
        cache_mb: 0,
        warmup_ops: 2,
        trace_ops_per_s: 1.6,
        why: "seven group-bys over the base cube with no scenario: aggregation alone, no merge, no cache",
    },
    Spec {
        name: "commit_file",
        kind: Kind::CommitFile,
        dataset: Dataset::Bench,
        cache_mb: 0,
        warmup_ops: 4,
        trace_ops_per_s: 3.2,
        why: "8 cell writes then .commit (WAL, two fsyncs, main append) beside a reader on the same pool: write path against read path",
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// Which public calls replay an operation's last line layer by layer in
/// the traced run.
#[derive(Debug, Clone, PartialEq)]
pub enum Stage {
    Apply {
        semantics: Semantics,
        moments: Vec<u32>,
    },
    Mdx,
    Rollup,
    Commit,
}

/// One cell write of `commit_file`. `pick` is a raw draw: the runner
/// maps it onto a loaded cell of a non-moving employee once it has the
/// cube.
#[derive(Debug, Clone, PartialEq)]
pub struct Write {
    pub pick: u64,
    pub value: f64,
}

/// One operation: the lines one analyst action sends (each waits for its
/// reply), timed as a whole.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    pub lines: Vec<String>,
    pub stage: Stage,
    pub writes: Vec<Write>,
}

impl Op {
    fn new(lines: Vec<String>, stage: Stage) -> Op {
        Op {
            lines,
            stage,
            writes: Vec::new(),
        }
    }
}

/// Everything one client sends.
#[derive(Debug, Clone, PartialEq)]
pub struct Stream {
    /// Run once after connect, before the warm-up (`toggle_warm` forks
    /// and fills its two scenarios here).
    pub prelude: Vec<Op>,
    pub ops: Vec<Op>,
}

impl Stream {
    /// FNV-1a over every byte the stream sends or writes.
    pub fn fnv(&self) -> u64 {
        let mut h = Fnv64::new();
        for op in self.prelude.iter().chain(&self.ops) {
            for l in &op.lines {
                for &b in l.as_bytes() {
                    h.write_u8(b);
                }
                h.write_u8(b'\n');
            }
            for w in &op.writes {
                h.write_u64(w.pick).write_u64(w.value.to_bits());
            }
        }
        h.finish()
    }
}

fn apply_line(word: &str, moments: &[u32]) -> String {
    let list: Vec<String> = moments.iter().map(|m| m.to_string()).collect();
    format!(".apply {word} {}", list.join(","))
}

/// The stream of client `client` for `spec` under `seed`. `queries`
/// renders the Fig. 10 query texts (only `mdx_scoped` calls it).
pub fn stream(spec: &Spec, seed: u64, client: usize, queries: &dyn Fig10) -> Stream {
    // The classes of operation come from the seed alone, so every client
    // draws from one set (and the oracle replays it once); the order and
    // everything private to a client come from `rng`.
    let mut shared = Rng::new(seed);
    let mut rng = Rng::new(seed ^ (client as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f));
    let mut prelude = Vec::new();
    let mut ops: Vec<Op> = Vec::with_capacity(STREAM_OPS);
    match spec.kind {
        Kind::WhatifCold => {
            // 5 semantics × 8 perspective sets (two each of 1–4 moments).
            let mut classes = Vec::new();
            for (semantics, word, _) in SEMANTICS {
                for k in 0..8 {
                    let moments = shared.moments(1 + k % 4);
                    classes.push(Op::new(
                        vec![apply_line(word, &moments)],
                        Stage::Apply { semantics, moments },
                    ));
                }
            }
            fill_shuffled(&mut ops, &classes, &mut rng);
        }
        Kind::ToggleWarm => {
            let mut forks = Vec::new();
            for name in ["a", "b"] {
                let (semantics, word, _) = SEMANTICS[1 + rng.below(2) as usize * 2];
                let moments = rng.moments(2);
                let fill = apply_line(word, &moments);
                let stage = Stage::Apply { semantics, moments };
                prelude.push(Op::new(vec![format!(".fork {name}"), fill], stage.clone()));
                forks.push(Op::new(
                    vec![format!(".switch {name}"), ".apply".to_string()],
                    stage,
                ));
            }
            // Toggle in pairs whose order the seed draws, so both forks
            // are switched to equally often.
            while ops.len() < STREAM_OPS {
                let first = rng.below(2) as usize;
                ops.push(forks[first].clone());
                ops.push(forks[1 - first].clone());
            }
        }
        Kind::MdxScoped => {
            // 8 texts of each Fig. 10 shape.
            let mut classes = Vec::new();
            for i in 0..8 {
                let (_, _, keyword) = SEMANTICS[i % SEMANTICS.len()];
                let a = shared.moments(2);
                let b = shared.moments(2);
                let c = shared.moments(4);
                let head = 2 + shared.below(5) as u32;
                for line in [
                    queries.fig10a(&a, keyword),
                    queries.fig10b(&b),
                    queries.fig10c(&c, head),
                ] {
                    classes.push(Op::new(vec![line], Stage::Mdx));
                }
            }
            fill_shuffled(&mut ops, &classes, &mut rng);
        }
        Kind::RollupScan => {
            // `.rollup` takes no argument: the stream is the same for
            // every seed.
            ops.resize(
                STREAM_OPS,
                Op::new(vec![".rollup".to_string()], Stage::Rollup),
            );
        }
        Kind::CommitFile => {
            for _ in 0..STREAM_OPS {
                let writes = (0..WRITES_PER_COMMIT)
                    .map(|_| Write {
                        pick: rng.next_u64(),
                        value: (rng.below(100_000) as f64) / 100.0,
                    })
                    .collect();
                ops.push(Op {
                    writes,
                    ..Op::new(vec![".commit".to_string()], Stage::Commit)
                });
            }
        }
    }
    Stream { prelude, ops }
}

/// Fills `ops` with whole shuffled rounds of `classes`.
fn fill_shuffled(ops: &mut Vec<Op>, classes: &[Op], rng: &mut Rng) {
    assert_eq!(STREAM_OPS % classes.len(), 0, "streams hold whole rounds");
    while ops.len() < STREAM_OPS {
        let mut round = classes.to_vec();
        rng.shuffle(&mut round);
        ops.extend(round);
    }
}

/// The Fig. 10 query texts, from moments and a head count.
pub trait Fig10 {
    fn fig10a(&self, moments: &[u32], keyword: &str) -> String;
    fn fig10b(&self, moments: &[u32]) -> String;
    fn fig10c(&self, moments: &[u32], head: u32) -> String;
}

impl Fig10 for olap_workload::Workforce {
    fn fig10a(&self, moments: &[u32], keyword: &str) -> String {
        self.fig10a_query_sem(&month_names(moments), keyword)
    }
    fn fig10b(&self, moments: &[u32]) -> String {
        self.fig10b_query(&month_names(moments))
    }
    fn fig10c(&self, moments: &[u32], head: u32) -> String {
        self.fig10c_query(&month_names(moments), head)
    }
}

fn month_names(moments: &[u32]) -> Vec<&'static str> {
    moments
        .iter()
        .map(|&m| olap_workload::MONTHS[m as usize])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use olap_workload::{Workforce, WorkforceConfig};

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let wf = Workforce::build(WorkforceConfig::tiny());
        for spec in &SPECS {
            let a = stream(spec, 7, 0, &wf);
            assert_eq!(a, stream(spec, 7, 0, &wf), "{}", spec.name);
            assert_eq!(a.fnv(), stream(spec, 7, 0, &wf).fnv());
            assert_eq!(a.ops.len(), STREAM_OPS);
            let other_seed = stream(spec, 8, 0, &wf);
            let other_client = stream(spec, 7, 1, &wf);
            if spec.kind == Kind::RollupScan {
                assert_eq!(a.fnv(), other_seed.fnv());
            } else {
                assert_ne!(a.fnv(), other_seed.fnv(), "{}", spec.name);
                assert_ne!(a.fnv(), other_client.fnv(), "{}", spec.name);
            }
        }
    }

    #[test]
    fn every_class_appears_equally_often() {
        let wf = Workforce::build(WorkforceConfig::tiny());
        let s = stream(spec("whatif_cold").unwrap(), 3, 0, &wf);
        let mut per_class = std::collections::BTreeMap::new();
        for op in &s.ops {
            *per_class.entry(op.lines[0].clone()).or_insert(0usize) += 1;
        }
        assert!(per_class.len() <= 40);
        assert!(per_class.values().all(|n| n % (STREAM_OPS / 40) == 0));
        let toggles = stream(spec("toggle_warm").unwrap(), 3, 0, &wf);
        let on_a = toggles
            .ops
            .iter()
            .filter(|o| o.lines[0] == ".switch a")
            .count();
        assert_eq!(on_a, STREAM_OPS / 2);
        assert_eq!(toggles.prelude.len(), 2);
    }
}
