//! Reproduction harness.
//!
//! One module per concern: [`figures`] renders series the way the paper's
//! plots report them, [`baselines`] implements the paper's "Multiple MDX"
//! simulation baseline, and [`setup`] builds the workloads each
//! experiment needs. The `repro` binary is a thin wrapper over these.

pub mod baselines;
pub mod figures;
pub mod setup;

use std::time::{Duration, Instant};

/// Times `f`, returning the minimum over `iters` runs (minimum is the
/// standard noise-robust statistic for CPU-bound work).
pub fn min_time<T>(iters: u32, mut f: impl FnMut() -> T) -> Duration {
    assert!(iters > 0);
    let mut best = Duration::MAX;
    for _ in 0..iters {
        let start = Instant::now();
        let out = f();
        let el = start.elapsed();
        std::hint::black_box(out);
        if el < best {
            best = el;
        }
    }
    best
}
