//! Wall-clock throughput emitter: items packed per second for every
//! Any-Fit policy (indexed and scanning variants) across a fixed
//! `(d, n, μ)` grid, plus the `ServeDispatch` scenario (requests per
//! second through the sharded `dvbp-serve` dispatch service, in-process
//! and over loopback TCP, versus shard count), written as
//! `BENCH_throughput.json`.
//!
//! Unlike the Criterion benches (statistical, human-oriented), this
//! binary produces one machine-readable artifact per run for regression
//! tracking: scores are also *normalized* by the run's geometric mean, so
//! two runs on different machines compare by relative shape rather than
//! absolute speed. `--baseline <file>` fails the process when any shared
//! grid key's normalized score regresses by more than `--max-regression`
//! percent (CI runs the `smoke` scale against the committed artifact).
//!
//! Usage:
//!   bench_throughput [--out FILE] [--baseline FILE]
//!                    [--max-regression PCT] [--scale full|smoke]

use dvbp_bench::bench_instance;
use dvbp_bench::seed_engine::{pack_seed, SeedSelect};
use dvbp_core::{
    live_ops, Engine, FitPath, Instance, LiveOp, LoadMeasure, Policy, PolicyKind, TimeMode,
    TraceMode,
};
use dvbp_obs::SyncPolicy;
use dvbp_serve::client::item_id;
use dvbp_serve::protocol::{Request, Response};
use dvbp_serve::router::{fnv1a, RouterKind};
use dvbp_serve::server::{serve, ServeState};
use serde::{Deserialize, Serialize};
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One measured grid point.
#[derive(Debug, Serialize, Deserialize)]
struct Entry {
    /// Stable identity: `policy/variant/d<D>/n<N>/mu<MU>`.
    key: String,
    policy: String,
    variant: String,
    d: usize,
    n: usize,
    mu: u64,
    seed: u64,
    items_per_sec: f64,
    /// Items/sec of the *fastest* repetition (minimum-time estimator;
    /// scheduling noise only ever adds time, so the min is the most
    /// reproducible statistic).
    ///
    /// `normalized` is `items_per_sec` divided by the geometric mean of
    /// this run's scores on the [`SMOKE_GRID`] keys — a key set every
    /// scale measures, so normalized scores compare across scales and
    /// machines. This is what the regression gate checks.
    normalized: f64,
    max_concurrent_bins: usize,
    cost: u64,
    reps: u32,
}

#[derive(Debug, Serialize, Deserialize)]
struct Report {
    schema: String,
    scale: String,
    entries: Vec<Entry>,
}

/// `(policy, variant)` rows of the grid, four variants per Any-Fit
/// policy:
///
/// * `seed` — the seed engine's packing loop and O(m·d) scanning
///   selection, preserved verbatim in [`dvbp_bench::seed_engine`]. This is
///   the "before" of the before/after comparison.
/// * `scalar` — the same O(m·d) per-bin selection loop running inside
///   the optimized engine (isolates selection cost from engine-loop
///   cost), pinned by [`FitPath::Scalar`]. The before-side of the
///   simd-vs-scalar ablation.
/// * `simd` — the vectorized block scan over the engine's SoA residual
///   mirror (8 bins per mask step), pinned by [`FitPath::Block`]. Same
///   asymptotics as `scalar`, lane-parallel constants.
/// * `indexed` — the shipped default, [`FitPath::Auto`]: the block scan
///   below the measured crossover, fit-index queries above it.
///
/// All four produce identical placements; only the per-arrival cost
/// differs.
const POLICIES: [(&str, &str); 18] = [
    ("FirstFit", "indexed"),
    ("FirstFit", "simd"),
    ("FirstFit", "scalar"),
    ("FirstFit", "seed"),
    ("BestFit", "indexed"),
    ("BestFit", "simd"),
    ("BestFit", "scalar"),
    ("BestFit", "seed"),
    ("WorstFit", "indexed"),
    ("WorstFit", "simd"),
    ("WorstFit", "scalar"),
    ("WorstFit", "seed"),
    ("LastFit", "indexed"),
    ("LastFit", "simd"),
    ("LastFit", "scalar"),
    ("LastFit", "seed"),
    ("NextFit", "-"),
    ("MoveToFront", "-"),
];

/// `(d, n, mu)` grid points. `mu = n / 2` keeps thousands of bins
/// concurrently open (the regime the fit index and the block scan
/// target); the small-μ points pin down the small-m overhead. The
/// `d ∈ {4, 8}` points hold hundreds-to-thousands of bins open at
/// power-of-two dimension counts — the simd-vs-scalar ablation's
/// headline rows.
const FULL_GRID: [(usize, usize, u64); 7] = [
    (1, 2000, 60),
    (2, 2000, 60),
    (2, 8000, 4000),
    (4, 2000, 1000),
    (5, 2000, 1000),
    (8, 4000, 2000),
    (9, 2000, 500),
];

/// Smoke grid: a subset of [`FULL_GRID`] (every smoke key exists in a
/// committed full-scale artifact), capped at `n ≤ 2000` to keep the CI
/// job fast. Includes the `d = 4` ablation point so the smoke gate
/// covers the vectorized kernel.
const SMOKE_GRID: [(usize, usize, u64); 5] = [
    (1, 2000, 60),
    (2, 2000, 60),
    (4, 2000, 1000),
    (5, 2000, 1000),
    (9, 2000, 500),
];

const SEED: u64 = 1;

fn seed_select(policy: &str) -> SeedSelect {
    match policy {
        "FirstFit" => SeedSelect::FirstFit,
        "BestFit" => SeedSelect::BestFit(LoadMeasure::Linf),
        "WorstFit" => SeedSelect::WorstFit(LoadMeasure::Linf),
        "LastFit" => SeedSelect::LastFit,
        other => panic!("no seed twin for {other}"),
    }
}

/// The engine path a row's variant pins (`-` rows take the default).
fn fit_path(variant: &str) -> FitPath {
    match variant {
        "simd" => FitPath::Block,
        "scalar" => FitPath::Scalar,
        _ => FitPath::Auto,
    }
}

/// Times repeated warm `CostOnly` runs of `policy` over `inst` on `path`
/// until `budget` elapses (at least 3 reps), returning items/sec and the
/// run's invariant outputs.
fn measure(
    inst: &Instance,
    policy: &mut dyn Policy,
    path: FitPath,
    budget: Duration,
) -> (f64, usize, u64, u32) {
    let mut engine = Engine::new().with_fit_path(path);
    // Warm run: grows the engine arenas and fit index; also the one place
    // the per-config outputs (cost, concurrency) are taken from.
    let warm = engine.pack(inst, policy, TraceMode::CostOnly);
    let max_conc = warm.max_concurrent_bins();
    let cost = u64::try_from(warm.cost()).expect("bench costs fit in u64");

    let start = Instant::now();
    let mut reps = 0u32;
    let mut fastest = Duration::MAX;
    loop {
        let t0 = Instant::now();
        black_box(engine.pack(inst, policy, TraceMode::CostOnly).cost());
        fastest = fastest.min(t0.elapsed());
        reps += 1;
        if reps >= 3 && start.elapsed() >= budget {
            break;
        }
    }
    let ips = inst.len() as f64 / fastest.as_secs_f64();
    (ips, max_conc, cost, reps)
}

/// Same timing protocol for the seed-engine twin (no warm state to reuse —
/// the seed allocated everything per run, and that cost is part of what it
/// measures).
fn measure_seed(inst: &Instance, select: SeedSelect, budget: Duration) -> (f64, usize, u64, u32) {
    let first = pack_seed(inst, select);
    let max_conc = first.max_concurrent_bins;
    let cost = u64::try_from(first.cost).expect("bench costs fit in u64");

    let start = Instant::now();
    let mut reps = 0u32;
    let mut fastest = Duration::MAX;
    loop {
        let t0 = Instant::now();
        black_box(pack_seed(inst, select).cost);
        fastest = fastest.min(t0.elapsed());
        reps += 1;
        if reps >= 3 && start.elapsed() >= budget {
            break;
        }
    }
    let ips = inst.len() as f64 / fastest.as_secs_f64();
    (ips, max_conc, cost, reps)
}

/// `(d, n, mu)` of the `ServeDispatch` scenario — off the engine grid,
/// big enough that dispatch overhead (routing, journaling, locking)
/// dominates instance setup.
const SERVE_POINT: (usize, usize, u64) = (2, 6000, 100);

/// The canonical feed as protocol requests, each tagged with its item's
/// router hash so driver threads can pre-partition exactly the way the
/// service's hash router will.
fn serve_requests(inst: &Instance) -> Vec<(u64, Request)> {
    live_ops(inst)
        .into_iter()
        .map(|op| match op {
            LiveOp::Arrive { item, size, time } => (
                fnv1a(item_id(item).as_bytes()),
                Request::Arrive {
                    id: item_id(item),
                    size: size.as_slice().to_vec(),
                    time,
                },
            ),
            LiveOp::Depart { item, time } => (
                fnv1a(item_id(item).as_bytes()),
                Request::Depart {
                    id: item_id(item),
                    time,
                },
            ),
        })
        .collect()
}

/// Splits the tagged feed into one per-shard request stream (an item's
/// arrival and departure always land in the same partition).
fn partition(reqs: &[(u64, Request)], shards: usize) -> Vec<Vec<&Request>> {
    let mut parts = vec![Vec::new(); shards];
    for (hash, req) in reqs {
        parts[usize::try_from(hash % shards as u64).expect("shard index fits")].push(req);
    }
    parts
}

/// A fresh in-memory dispatch service for one bench repetition. `Clamp`
/// time mode: concurrent driver threads hit different shards, so each
/// shard's own feed stays ordered, but clamping keeps the scenario
/// honest about wall-clock skew.
fn serve_state(inst: &Instance, shards: usize) -> ServeState<Vec<u8>> {
    ServeState::in_memory(
        &inst.capacity,
        &PolicyKind::FirstFit,
        dvbp_core::RepackPolicy::NoRepack,
        shards,
        RouterKind::Hash,
        TraceMode::CostOnly,
        TimeMode::Clamp,
        SyncPolicy::OnClose,
        None,
    )
    .expect("FirstFit serves")
}

/// Requests/sec through an in-process service: one driver thread per
/// shard, each feeding its own partition through `ServeState::handle`.
fn measure_serve_inproc(
    inst: &Instance,
    reqs: &[(u64, Request)],
    shards: usize,
    budget: Duration,
) -> (f64, u64, u32) {
    let parts = partition(reqs, shards);
    let start = Instant::now();
    let mut reps = 0u32;
    let mut fastest = Duration::MAX;
    let cost = loop {
        let state = serve_state(inst, shards);
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for part in &parts {
                let state = &state;
                s.spawn(move || {
                    for req in part {
                        match state.handle(req) {
                            Response::Placed { .. } | Response::Departed { .. } => {}
                            other => panic!("serve bench rejected {req:?}: {other:?}"),
                        }
                    }
                });
            }
        });
        fastest = fastest.min(t0.elapsed());
        reps += 1;
        if reps >= 3 && start.elapsed() >= budget {
            break state
                .status()
                .usage_time
                .parse()
                .expect("bench serve costs fit in u64");
        }
    };
    (reqs.len() as f64 / fastest.as_secs_f64(), cost, reps)
}

/// Requests/sec over loopback TCP: one NDJSON connection per shard,
/// strict request/response round trips (the latency a real client
/// pays). Boot and shutdown sit outside the timed window.
fn measure_serve_tcp(
    inst: &Instance,
    reqs: &[(u64, Request)],
    shards: usize,
    budget: Duration,
) -> (f64, u64, u32) {
    let parts = partition(reqs, shards);
    let start = Instant::now();
    let mut reps = 0u32;
    let mut fastest = Duration::MAX;
    let cost = loop {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr");
        let state = Arc::new(serve_state(inst, shards));
        let srv = {
            let state = Arc::clone(&state);
            std::thread::spawn(move || serve(&state, &listener).expect("serve loop"))
        };
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for part in &parts {
                s.spawn(move || {
                    let conn = TcpStream::connect(addr).expect("connect loopback");
                    // Strict round trips: Nagle + delayed ACK would put
                    // a ~40ms timer on every request.
                    conn.set_nodelay(true).expect("set TCP_NODELAY");
                    let mut reader = BufReader::new(conn.try_clone().expect("clone stream"));
                    let mut writer = conn;
                    let mut line = String::new();
                    for req in part {
                        let mut out = serde_json::to_string(req).expect("request serializes");
                        out.push('\n');
                        writer.write_all(out.as_bytes()).expect("send request");
                        line.clear();
                        reader.read_line(&mut line).expect("read response");
                        let resp: Response =
                            serde_json::from_str(line.trim()).expect("parse response");
                        match resp {
                            Response::Placed { .. } | Response::Departed { .. } => {}
                            other => panic!("serve bench rejected {req:?}: {other:?}"),
                        }
                    }
                });
            }
        });
        fastest = fastest.min(t0.elapsed());
        // Stop the accept loop; the nudge connection in `serve` unblocks it.
        state.handle(&Request::Shutdown);
        let _ = TcpStream::connect(addr);
        srv.join().expect("server thread");
        reps += 1;
        if reps >= 3 && start.elapsed() >= budget {
            break state
                .status()
                .usage_time
                .parse()
                .expect("bench serve costs fit in u64");
        }
    };
    (reqs.len() as f64 / fastest.as_secs_f64(), cost, reps)
}

/// `ServeDispatch` rows: `(transport, shard counts)` per scale. The
/// shared smoke/full keys feed the regression gate (TCP rows are
/// recorded but not gated — loopback latency is too machine-dependent).
fn serve_dispatch_entries(scale: &str, budget: Duration) -> Vec<Entry> {
    let (d, n, mu) = SERVE_POINT;
    let inst = bench_instance(d, n, mu, SEED);
    let reqs = serve_requests(&inst);
    let rows: &[(&str, &[usize])] = match scale {
        "smoke" => &[("inproc", &[1, 4]), ("tcp", &[1])],
        _ => &[("inproc", &[1, 2, 4, 8]), ("tcp", &[1, 4])],
    };
    let mut entries = Vec::new();
    for &(transport, shard_counts) in rows {
        for &shards in shard_counts {
            let (rps, cost, reps) = match transport {
                "inproc" => measure_serve_inproc(&inst, &reqs, shards, budget),
                _ => measure_serve_tcp(&inst, &reqs, shards, budget),
            };
            let variant = format!("{transport}-s{shards}");
            eprintln!(
                "ServeDispatch/{variant} d={d} n={n} mu={mu}: {rps:.0} req/s ({} ops)",
                reqs.len()
            );
            entries.push(Entry {
                key: format!("ServeDispatch/{variant}/d{d}/n{n}/mu{mu}"),
                policy: "ServeDispatch".to_string(),
                variant,
                d,
                n,
                mu,
                seed: SEED,
                items_per_sec: rps,
                normalized: 0.0,
                max_concurrent_bins: 0,
                cost,
                reps,
            });
        }
    }
    entries
}

fn run_grid(scale: &str) -> Report {
    let (grid, budget): (&[(usize, usize, u64)], Duration) = match scale {
        "smoke" => (&SMOKE_GRID, Duration::from_millis(120)),
        _ => (&FULL_GRID, Duration::from_millis(400)),
    };
    let mut entries = Vec::new();
    for &(d, n, mu) in grid {
        let inst = bench_instance(d, n, mu, SEED);
        for (policy, variant) in POLICIES {
            let (ips, max_conc, cost, reps) = if variant == "seed" {
                measure_seed(&inst, seed_select(policy), budget)
            } else {
                // Bare `BestFit`/`WorstFit` parse to the paper's `L∞`.
                let kind: PolicyKind = policy.parse().expect("grid policy names parse");
                measure(&inst, kind.build().as_mut(), fit_path(variant), budget)
            };
            eprintln!("{policy}/{variant} d={d} n={n} mu={mu}: {ips:.0} items/s (m={max_conc})");
            entries.push(Entry {
                key: format!("{policy}/{variant}/d{d}/n{n}/mu{mu}"),
                policy: policy.to_string(),
                variant: variant.to_string(),
                d,
                n,
                mu,
                seed: SEED,
                items_per_sec: ips,
                normalized: 0.0,
                max_concurrent_bins: max_conc,
                cost,
                reps,
            });
        }
    }
    entries.extend(serve_dispatch_entries(scale, budget));
    // Normalize by the geometric mean over the smoke-grid keys only: the
    // smoke grid is a subset of every scale's grid, so the denominator is
    // computed from the same key set no matter the scale and normalized
    // scores stay comparable between a smoke run and a full baseline.
    let shared: Vec<f64> = entries
        .iter()
        .filter(|e| SMOKE_GRID.contains(&(e.d, e.n, e.mu)))
        .map(|e| e.items_per_sec.ln())
        .collect();
    let geo_mean = (shared.iter().sum::<f64>() / shared.len() as f64).exp();
    for e in &mut entries {
        e.normalized = e.items_per_sec / geo_mean;
    }
    Report {
        schema: "dvbp-bench-throughput/1".to_string(),
        scale: scale.to_string(),
        entries,
    }
}

/// Prints the simd/scalar throughput ratio of every scanned Any-Fit
/// policy at every grid point that measured both variants.
fn print_ablation(report: &Report) {
    for simd in report.entries.iter().filter(|e| e.variant == "simd") {
        let scalar = report.entries.iter().find(|e| {
            e.variant == "scalar"
                && e.policy == simd.policy
                && (e.d, e.n, e.mu) == (simd.d, simd.n, simd.mu)
        });
        if let Some(scalar) = scalar {
            eprintln!(
                "{} d={} n={} mu={}: simd/scalar = {:.2}x",
                simd.policy,
                simd.d,
                simd.n,
                simd.mu,
                simd.items_per_sec / scalar.items_per_sec
            );
        }
    }
}

/// Compares normalized scores against `baseline`; returns the offending
/// keys (regressed by more than `max_regression_pct`).
fn regressions(report: &Report, baseline: &Report, max_regression_pct: f64) -> Vec<String> {
    let floor = 1.0 - max_regression_pct / 100.0;
    let mut bad = Vec::new();
    for e in &report.entries {
        // Loopback TCP round-trip latency is dominated by the kernel and
        // scheduler, not this codebase; those rows are informational only.
        if e.variant.starts_with("tcp") {
            continue;
        }
        if let Some(b) = baseline.entries.iter().find(|b| b.key == e.key) {
            if e.normalized < b.normalized * floor {
                bad.push(format!(
                    "{}: normalized {:.3} vs baseline {:.3} (floor {:.3})",
                    e.key,
                    e.normalized,
                    b.normalized,
                    b.normalized * floor
                ));
            }
        }
    }
    bad
}

fn main() -> ExitCode {
    let mut out = String::from("BENCH_throughput.json");
    let mut baseline: Option<String> = None;
    let mut max_regression = 30.0f64;
    let mut scale = String::from("full");

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--out" => out = value("--out"),
            "--baseline" => baseline = Some(value("--baseline")),
            "--max-regression" => {
                max_regression = value("--max-regression")
                    .parse()
                    .expect("--max-regression takes a percentage")
            }
            "--scale" => scale = value("--scale"),
            other => {
                eprintln!("unknown flag {other}");
                return ExitCode::FAILURE;
            }
        }
    }

    let report = run_grid(&scale);
    print_ablation(&report);
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out, json + "\n").expect("write report");
    eprintln!("wrote {out} ({} entries)", report.entries.len());

    if let Some(path) = baseline {
        let data = std::fs::read_to_string(&path).expect("read baseline");
        let base: Report = serde_json::from_str(&data).expect("parse baseline");
        let bad = regressions(&report, &base, max_regression);
        if !bad.is_empty() {
            eprintln!("throughput regressions over {max_regression}% vs {path}:");
            for line in &bad {
                eprintln!("  {line}");
            }
            return ExitCode::FAILURE;
        }
        eprintln!("no regression over {max_regression}% vs {path}");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smoke grid carries both sides of the simd-vs-scalar ablation
    /// for every scanned Any-Fit policy, including the `d = 4` kernel
    /// point, so the CI smoke run gates the vectorized kernel.
    #[test]
    fn smoke_grid_carries_the_simd_scalar_ablation() {
        let rows: Vec<(&str, &str, (usize, usize, u64))> = SMOKE_GRID
            .iter()
            .flat_map(|&point| POLICIES.iter().map(move |&(p, v)| (p, v, point)))
            .collect();
        for policy in ["FirstFit", "BestFit", "WorstFit", "LastFit"] {
            for variant in ["simd", "scalar"] {
                assert!(
                    rows.contains(&(policy, variant, (4, 2000, 1000))),
                    "missing {policy}/{variant} at d = 4, n = 2000, mu = 1000"
                );
            }
        }
    }
}
