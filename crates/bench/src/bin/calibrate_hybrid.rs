//! Crossover calibration for the scan-vs-index hybrid: times First Fit's
//! pure block-scan path against its pure fit-index path across a sweep of
//! steady-state open-bin counts `m` and dimension counts `d`, and prints
//! the smallest measured `m` at which the index wins.
//!
//! The per-`(m, d)` table in `dvbp_core::hybrid` is set from this
//! binary's output on an AVX2 host (see DESIGN.md "Vectorized
//! feasibility"). Rerun after kernel changes:
//!
//!   cargo run --release -p dvbp-bench --bin calibrate_hybrid
//!
//! The scan variant runs the vectorized block kernel end to end (mask
//! dispatch included); the index variant forces the 8-ary tree's descent
//! (one mask per node) at every arrival. Both produce identical
//! packings, so the timing difference is selection cost, the tree's
//! upkeep included.

use dvbp_bench::bench_instance;
use dvbp_core::policy::first_fit::FirstFit;
use dvbp_core::{Engine, FitPath, Instance, TraceMode};
use std::hint::black_box;
use std::time::{Duration, Instant};

const SEED: u64 = 1;
const BUDGET: Duration = Duration::from_millis(250);

/// Minimum-time estimator over warm repetitions of First Fit pinned to
/// `path` (same protocol as `bench_throughput`); returns (items/sec, max
/// concurrent bins).
fn measure(inst: &Instance, path: FitPath) -> (f64, usize) {
    let mut engine = Engine::new().with_fit_path(path);
    let warm = engine.pack(inst, &mut FirstFit, TraceMode::CostOnly);
    let max_conc = warm.max_concurrent_bins();
    let start = Instant::now();
    let mut reps = 0u32;
    let mut fastest = Duration::MAX;
    loop {
        let t0 = Instant::now();
        black_box(engine.pack(inst, &mut FirstFit, TraceMode::CostOnly).cost());
        fastest = fastest.min(t0.elapsed());
        reps += 1;
        if reps >= 3 && start.elapsed() >= BUDGET {
            break;
        }
    }
    (inst.len() as f64 / fastest.as_secs_f64(), max_conc)
}

fn main() {
    println!(
        "{:>3} {:>6} {:>6} {:>12} {:>12} {:>7}",
        "d", "mu", "m", "scan it/s", "index it/s", "winner"
    );
    for d in [1usize, 2, 3, 4, 5, 8, 9, 12, 16] {
        let mut crossover: Option<usize> = None;
        for mu in [60u64, 120, 250, 500, 1000, 2000, 4000] {
            // n = 4μ keeps the steady state (m ≈ 0.8μ open bins) long
            // relative to ramp-up/down.
            let n = usize::try_from(4 * mu)
                .expect("grid n fits usize")
                .max(2000);
            let inst = bench_instance(d, n, mu, SEED);
            let (scan_ips, m) = measure(&inst, FitPath::Block);
            let (index_ips, _) = measure(&inst, FitPath::Index);
            let winner = if index_ips > scan_ips {
                "index"
            } else {
                "scan"
            };
            if index_ips > scan_ips && crossover.is_none() {
                crossover = Some(m);
            }
            println!("{d:>3} {mu:>6} {m:>6} {scan_ips:>12.0} {index_ips:>12.0} {winner:>7}");
        }
        match crossover {
            Some(m) => println!("  -> d={d}: index first wins at m ≈ {m}"),
            None => println!("  -> d={d}: scan won everywhere measured"),
        }
    }
}
