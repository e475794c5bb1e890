//! `perf --compare A.json B.json`: is B no worse than A?
//!
//! One row per (end-to-end metric, workload): both medians, B as a
//! multiple of A, and a verdict against the metric's bound. A pair whose
//! own run-to-run spread (in either file) is wider than the bound is
//! `unresolved`, not `ok`. Exits non-zero on a breach or when B fails a
//! larger share of its operations.

use crate::json::Json;
use crate::run::BenchResult;
use crate::stats::{median, spread};
use crate::workloads::SPECS;
use crate::END_TO_END;

/// Per workload: the values of each end-to-end metric over the file's
/// untraced runs, and the share of operations that failed.
struct Side {
    values: Vec<Vec<Vec<f64>>>,
    failed_share: Vec<f64>,
}

fn load(path: &str) -> BenchResult<Side> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("comparable") != Some(&Json::Bool(true)) {
        return Err(format!("{path} is a --quick result: not comparable"));
    }
    let rows = doc
        .get("rows")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{path}: no rows"))?;
    let mut side = Side {
        values: vec![vec![Vec::new(); END_TO_END.len()]; SPECS.len()],
        failed_share: Vec::new(),
    };
    let mut ops = vec![(0.0, 0.0); SPECS.len()];
    for row in rows {
        if row.get("trace") != Some(&Json::Bool(false)) {
            continue;
        }
        let name = row.get("workload").and_then(Json::as_str).unwrap_or("");
        let Some(w) = SPECS.iter().position(|s| s.name == name) else {
            return Err(format!("{path}: unknown workload {name:?}"));
        };
        let result = row
            .get("result")
            .ok_or_else(|| format!("{path}: row without result"))?;
        let num = |key: &str| result.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        ops[w].0 += num("failed");
        ops[w].1 += num("attempted");
        for (m, (metric, ..)) in END_TO_END.iter().enumerate() {
            let v = result
                .get("metrics")
                .and_then(|ms| ms.get(metric))
                .and_then(|entry| entry.get("value"))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{path}: {name} run without {metric}"))?;
            side.values[w][m].push(v);
        }
    }
    side.failed_share = ops
        .iter()
        .map(|&(failed, attempted)| {
            if attempted > 0.0 {
                failed / attempted
            } else {
                0.0
            }
        })
        .collect();
    Ok(side)
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
pub fn worse_by(a: f64, b: f64, lower_is_better: bool) -> f64 {
    if lower_is_better {
        (b - a) / a
    } else {
        (a - b) / a
    }
}

pub fn verdict(worse: f64, widest_spread: f64, bound: f64) -> &'static str {
    if widest_spread > bound {
        "unresolved"
    } else if worse > bound {
        "BREACH"
    } else {
        "ok"
    }
}

pub fn compare(a_path: &str, b_path: &str) -> BenchResult<i32> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!("A = {a_path}\nB = {b_path}");
    println!(
        "{:<12} {:<15} {:>12} {:>12} {:>9} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "B / A", "spread A", "spread B", "bound"
    );
    let mut bad = false;
    for (w, spec) in SPECS.iter().enumerate() {
        for (m, &(metric, _, lower, bound)) in END_TO_END.iter().enumerate() {
            let (va, vb) = (&a.values[w][m], &b.values[w][m]);
            if va.is_empty() || vb.is_empty() {
                println!("{:<12} {metric:<15} missing on one side", spec.name);
                bad = true;
                continue;
            }
            let (ma, mb) = (median(va), median(vb));
            let (sa, sb) = (spread(va), spread(vb));
            let v = verdict(worse_by(ma, mb, lower), sa.max(sb), bound);
            bad |= v == "BREACH";
            println!(
                "{:<12} {metric:<15} {ma:>12.4} {mb:>12.4} {:>8.3}x {:>7.1}% {:>7.1}% {:>5.0}%  {v}",
                spec.name,
                mb / ma,
                sa * 100.0,
                sb * 100.0,
                bound * 100.0,
            );
        }
        if b.failed_share[w] > a.failed_share[w] {
            println!(
                "{:<12} failed share rose from {:.4} to {:.4}",
                spec.name, a.failed_share[w], b.failed_share[w]
            );
            bad = true;
        }
    }
    Ok(i32::from(bad))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        // 12% slower against a 10% bound.
        assert_eq!(verdict(worse_by(100.0, 112.0, true), 0.02, 0.10), "BREACH");
        assert_eq!(verdict(worse_by(100.0, 108.0, true), 0.02, 0.10), "ok");
        // Throughput: lower is worse.
        assert_eq!(verdict(worse_by(50.0, 40.0, false), 0.0, 0.10), "BREACH");
        assert_eq!(verdict(worse_by(50.0, 60.0, false), 0.0, 0.10), "ok");
        // Noise wider than the bound decides nothing, either way.
        assert_eq!(
            verdict(worse_by(100.0, 150.0, true), 0.3, 0.10),
            "unresolved"
        );
        assert_eq!(
            verdict(worse_by(100.0, 100.0, true), 0.3, 0.10),
            "unresolved"
        );
    }
}
