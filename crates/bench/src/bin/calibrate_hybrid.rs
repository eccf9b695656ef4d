//! Crossover calibration for the scan-vs-index hybrid: times the pure
//! block-scan path against the pure fit-index path across a sweep of
//! steady-state open-bin counts `m` and dimension counts `d`, and prints
//! the smallest measured `m` at which the index wins, for two queries:
//! First Fit's, which stops at its first hit, and Best Fit[L∞]'s, which
//! must see every feasible bin.
//!
//! The per-`(m, d)` table in `dvbp_core::hybrid` is set from First
//! Fit's crossovers on an AVX2 host (see DESIGN.md "Vectorized
//! feasibility"); the Best Fit column records where the tree starts to
//! pay for a whole-set query. Rerun after kernel changes:
//!
//!   cargo run --release -p dvbp-bench --bin calibrate_hybrid
//!
//! The scan variant runs the vectorized block kernel end to end (mask
//! dispatch included); the index variant forces the 8-ary tree's descent
//! (one mask per node) at every arrival. Both produce identical
//! packings, so the timing difference is selection cost, the tree's
//! upkeep included.

use dvbp_bench::bench_instance;
use dvbp_core::{Engine, FitPath, Instance, LoadMeasure, PolicyKind, TraceMode};
use std::hint::black_box;
use std::time::{Duration, Instant};

const SEED: u64 = 1;
const BUDGET: Duration = Duration::from_millis(250);

/// Minimum-time estimator over warm repetitions of `kind` pinned to
/// `path` (same protocol as `bench_throughput`); returns (items/sec, max
/// concurrent bins).
fn measure(inst: &Instance, kind: &PolicyKind, path: FitPath) -> (f64, usize) {
    let mut engine = Engine::new().with_fit_path(path);
    let mut policy = kind.build();
    let warm = engine.pack(inst, policy.as_mut(), TraceMode::CostOnly);
    let max_conc = warm.max_concurrent_bins();
    let start = Instant::now();
    let mut reps = 0u32;
    let mut fastest = Duration::MAX;
    loop {
        let t0 = Instant::now();
        black_box(
            engine
                .pack(inst, policy.as_mut(), TraceMode::CostOnly)
                .cost(),
        );
        fastest = fastest.min(t0.elapsed());
        reps += 1;
        if reps >= 3 && start.elapsed() >= BUDGET {
            break;
        }
    }
    (inst.len() as f64 / fastest.as_secs_f64(), max_conc)
}

fn main() {
    const DIMS: [usize; 9] = [1, 2, 3, 4, 5, 8, 9, 12, 16];
    let kinds = [PolicyKind::FirstFit, PolicyKind::BestFit(LoadMeasure::Linf)];
    println!(
        "{:>13} {:>3} {:>6} {:>6} {:>12} {:>12} {:>7}",
        "policy", "d", "mu", "m", "scan it/s", "index it/s", "winner"
    );
    // crossovers[k][i]: the first m at which the index beat the scan for
    // kinds[k] at DIMS[i].
    let mut crossovers = [[None; DIMS.len()]; 2];
    for (k, kind) in kinds.iter().enumerate() {
        for (i, &d) in DIMS.iter().enumerate() {
            for mu in [60u64, 120, 250, 500, 1000, 2000, 4000] {
                // n = 4μ keeps the steady state (m ≈ 0.8μ open bins) long
                // relative to ramp-up/down.
                let n = usize::try_from(4 * mu)
                    .expect("grid n fits usize")
                    .max(2000);
                let inst = bench_instance(d, n, mu, SEED);
                let (scan_ips, m) = measure(&inst, kind, FitPath::Block);
                let (index_ips, _) = measure(&inst, kind, FitPath::Index);
                let index_wins = index_ips > scan_ips;
                if index_wins && crossovers[k][i].is_none() {
                    crossovers[k][i] = Some(m);
                }
                let winner = if index_wins { "index" } else { "scan" };
                println!(
                    "{:>13} {d:>3} {mu:>6} {m:>6} {scan_ips:>12.0} {index_ips:>12.0} {winner:>7}",
                    kind.name()
                );
            }
        }
    }
    let first_win = |c: Option<usize>| c.map_or_else(|| "none".to_string(), |m| m.to_string());
    println!("\nfirst m at which the index wins (none: the scan won everywhere measured)");
    println!("{:>3} {:>13} {:>13}", "d", kinds[0].name(), kinds[1].name());
    for (i, d) in DIMS.iter().enumerate() {
        println!(
            "{d:>3} {:>13} {:>13}",
            first_win(crossovers[0][i]),
            first_win(crossovers[1][i])
        );
    }
}
