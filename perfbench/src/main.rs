//! `perf`: the repository's benchmark. End to end, a what-if request
//! enters an in-process `olap_server::Server` over TCP and its reply
//! leaves; layer by layer, the same request is replayed through each
//! layer's public functions. See README.md beside this package.

mod compare;
mod json;
mod run;
mod stats;
mod trace;
mod workloads;

use json::Json;
use olap_workload::{Workforce, WorkforceConfig};
use run::{run_untraced, BenchResult, Budget};
use trace::run_traced;
use workloads::{spec, Spec, SPECS};

const USAGE: &str = "\
usage: perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
       perf --all [--seed <n>] [--seconds <s>] [--runs <k>] [--out <file>]
       perf --quick
       perf --compare <a.json> <b.json>";

/// End-to-end metrics: name, unit, whether lower is better, and the share
/// of the baseline's median by which a later change may worsen it.
pub const END_TO_END: [(&str, &str, bool, f64); 4] = [
    ("p50_ms", "ms", true, 0.25),
    ("p90_ms", "ms", true, 0.25),
    ("throughput_rps", "1/s", false, 0.25),
    ("setup_s", "s", true, 0.25),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&args) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("perf: {e}");
            std::process::exit(2);
        }
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> BenchResult<T> {
    match flag(args, name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("bad value for {name}: {v}\n{USAGE}")),
    }
}

/// The commit the working tree is at, read from `.git` without running
/// anything; a checkout that is not a repository has none.
fn git_sha() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let sha = match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                let line = packed.lines().find(|l| l.ends_with(r))?;
                Some(line.split(' ').next()?.to_string())
            })
            .unwrap_or_default(),
    };
    match sha.trim() {
        "" => "unknown".to_string(),
        s => s.to_string(),
    }
}

/// Where and how a result was measured: goes into every output.
struct Provenance {
    nproc: usize,
    profile: &'static str,
    sha: String,
}

impl Provenance {
    fn here() -> Provenance {
        Provenance {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            sha: git_sha(),
        }
    }

    fn line(&self) -> String {
        format!(
            "nproc {} · profile {} · git {}",
            self.nproc, self.profile, self.sha
        )
    }
}

/// One run as the driver reads it: `correct`, `attempted`, `failed` and
/// `metrics`, nothing else.
fn result_json(attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> Json {
    Json::Object(vec![
        ("correct".to_string(), Json::Bool(failed == 0)),
        ("attempted".to_string(), Json::Num(attempted as f64)),
        ("failed".to_string(), Json::Num(failed as f64)),
        (
            "metrics".to_string(),
            Json::Object(
                metrics
                    .iter()
                    .map(|(name, value, unit)| {
                        (
                            name.to_string(),
                            Json::Object(vec![
                                ("value".to_string(), Json::Num(*value)),
                                ("unit".to_string(), Json::Str(unit.to_string())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Runs one workload untraced and prints its row.
fn untraced(spec: &Spec, seed: u64, budget: Budget, queries: &Workforce) -> BenchResult<Json> {
    let m = run_untraced(spec, seed, budget, queries)?;
    println!(
        "{:<12} p50_ms {:>9.3}  p90_ms {:>9.3}  throughput_rps {:>8.3}  setup_s {:>6.3}  failed {}/{}  ({} timed ops, {} oracle ops, stream_fnv {:016x})",
        spec.name, m.p50_ms, m.p90_ms, m.throughput_rps, m.setup_s, m.failed, m.attempted,
        m.samples, m.oracle_ops, m.stream_fnv,
    );
    if m.reader_p50_ms > 0.0 {
        println!(
            "{:<12} reader_p50_ms {:.3} (the background reader, beside the commits)",
            "", m.reader_p50_ms
        );
    }
    let values = [m.p50_ms, m.p90_ms, m.throughput_rps, m.setup_s];
    let metrics: Vec<(&str, f64, &str)> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit, _, _), v)| (name, v, unit))
        .collect();
    Ok(result_json(m.attempted, m.failed, &metrics))
}

/// Runs one workload traced, prints the per-layer table and writes the
/// spans to `target/perf/`.
fn traced(spec: &Spec, seed: u64, seconds: f64, queries: &Workforce) -> BenchResult<Json> {
    let t = run_traced(spec, seed, seconds, queries)?;
    println!(
        "{} traced: {} operations, one client, failed {}/{}",
        spec.name, t.counts.ops, t.failed, t.attempted
    );
    println!(
        "  {:<10} {:>6} {:>12} {:>7}",
        "layer", "spans", "self ms", "share"
    );
    for (name, n, self_ns, share) in t.layer_table() {
        println!(
            "  {name:<10} {n:>6} {:>12.3} {:>6.1}%",
            self_ns as f64 / 1e6,
            share * 100.0
        );
    }
    let metrics = t.metrics();
    for chunk in metrics.chunks(4) {
        let cells: Vec<String> = chunk
            .iter()
            .map(|(name, v, unit)| format!("{name} {v:.3} {unit}"))
            .collect();
        println!("  {}", cells.join(" · "));
    }
    let path = format!("target/perf/trace-{}-{seed}.json", spec.name);
    std::fs::write(&path, t.spans_json(spec.name)).map_err(|e| format!("write {path}: {e}"))?;
    println!("  {} spans written to {path}", t.spans.len());
    Ok(result_json(t.attempted, t.failed, &metrics))
}

fn real_main(args: &[String]) -> BenchResult<i32> {
    if let Some(i) = args.iter().position(|a| a == "--compare") {
        return match (args.get(i + 1), args.get(i + 2)) {
            (Some(a), Some(b)) => compare::compare(a, b),
            _ => Err(USAGE.to_string()),
        };
    }
    let seed: u64 = parse(args, "--seed", 1)?;
    let quick = args.iter().any(|a| a == "--quick");
    let seconds: f64 = parse(args, "--seconds", 10.0)?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60]\n{USAGE}"));
    }
    let here = Provenance::here();
    // Only the Fig. 10 query *texts* come from here; they do not depend
    // on the dataset's size.
    let queries = Workforce::build(WorkforceConfig::tiny());

    if let Some(name) = flag(args, "--workload") {
        let spec = spec(name).ok_or_else(|| {
            let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
            format!("unknown workload {name}; one of {}", names.join(", "))
        })?;
        println!("{}", here.line());
        // The driver allows a run 180 s. A hang (a reply that never
        // comes) must end as an error, not as a process someone has to
        // kill; the thread is never joined because it ends the process.
        std::thread::spawn(|| {
            std::thread::sleep(std::time::Duration::from_secs(170));
            eprintln!("perf: no result after 170 s, giving up");
            std::process::exit(3);
        });
        let result = match parse(args, "--trace", 0u8)? {
            0 => untraced(spec, seed, Budget::full(seconds), &queries)?,
            _ => traced(spec, seed, seconds, &queries)?,
        };
        println!("{}", result.render());
        return Ok(i32::from(result.get("correct") != Some(&Json::Bool(true))));
    }

    if quick || args.iter().any(|a| a == "--all") {
        let runs: usize = parse(args, "--runs", 1)?;
        println!("{}", here.line());
        if quick {
            println!("QUICK: half a second and one set-up per workload, untraced only: every check runs, but the numbers are not comparable with a full run");
        }
        let mut rows = Vec::new();
        let mut failed = false;
        for run in 0..runs {
            for spec in &SPECS {
                if run == 0 {
                    println!("# {}: {}", spec.name, spec.why);
                }
                for trace in [false, true] {
                    if quick && trace {
                        continue;
                    }
                    let result = if trace {
                        traced(spec, seed, seconds, &queries)?
                    } else {
                        let budget = if quick {
                            Budget::quick()
                        } else {
                            Budget::full(seconds)
                        };
                        untraced(spec, seed, budget, &queries)?
                    };
                    failed |= result.get("correct") != Some(&Json::Bool(true));
                    rows.push(Json::Object(vec![
                        ("workload".to_string(), Json::Str(spec.name.to_string())),
                        ("run".to_string(), Json::Num(run as f64)),
                        ("trace".to_string(), Json::Bool(trace)),
                        ("result".to_string(), result),
                    ]));
                }
            }
        }
        if let Some(path) = flag(args, "--out") {
            let doc = Json::Object(vec![
                ("nproc".to_string(), Json::Num(here.nproc as f64)),
                ("profile".to_string(), Json::Str(here.profile.to_string())),
                ("git".to_string(), Json::Str(here.sha.clone())),
                ("seed".to_string(), Json::Num(seed as f64)),
                ("seconds".to_string(), Json::Num(seconds)),
                ("comparable".to_string(), Json::Bool(!quick)),
                ("rows".to_string(), Json::Array(rows)),
            ]);
            std::fs::write(path, doc.render() + "\n").map_err(|e| format!("write {path}: {e}"))?;
            println!("results written to {path}");
        }
        return Ok(i32::from(failed));
    }
    Err(USAGE.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the root of the repository is the contract
    /// later changes are judged by; it must say what this program does.
    #[test]
    fn benchmark_json_describes_this_program() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let list = |key: &str| doc.get(key).and_then(Json::as_array).expect(key).to_vec();
        let text =
            |row: &Json, key: &str| row.get(key).and_then(Json::as_str).expect(key).to_string();

        let workloads = list("workloads");
        assert_eq!(workloads.len(), SPECS.len());
        for (row, spec) in workloads.iter().zip(&SPECS) {
            assert_eq!(text(row, "name"), spec.name);
            assert_eq!(text(row, "why"), spec.why);
            assert!(spec.why.len() <= 200 && !spec.why.contains('\n'));
        }
        let end_to_end = list("end_to_end");
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (row, &(name, unit, lower, bound)) in end_to_end.iter().zip(&END_TO_END) {
            assert_eq!(text(row, "name"), name);
            assert_eq!(text(row, "unit"), unit);
            assert_eq!(text(row, "better"), if lower { "lower" } else { "higher" });
            assert_eq!(row.get("bound").and_then(Json::as_f64), Some(bound));
            assert!(bound <= 0.25);
        }
        let per_layer = list("per_layer");
        assert_eq!(per_layer.len(), trace::PER_LAYER.len());
        for (row, (name, unit, better)) in per_layer.iter().zip(trace::PER_LAYER) {
            assert_eq!(text(row, "name"), name);
            assert_eq!(text(row, "unit"), unit);
            assert_eq!(text(row, "better"), better);
        }
        // The traced run reports exactly the listed metrics.
        assert_eq!(
            trace::Traced::default().metrics().len(),
            trace::PER_LAYER.len()
        );
        let seconds = doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .expect("run_seconds");
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    }
}
