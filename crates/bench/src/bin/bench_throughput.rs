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
//! absolute speed. `--check` fails the process when any non-TCP row's
//! normalized score falls below [`FLOOR`] times its committed value, or
//! the row has none (CI runs the `smoke` scale against the committed
//! artifact).
//!
//! Usage (see `dvbp_bench::ledger`):
//!   bench_throughput [--scale full|smoke] [--out FILE] [--check]

use dvbp_bench::bench_instance;
use dvbp_bench::ledger::{self, Cli, Provenance, Scale};
use dvbp_core::{
    live_ops, Engine, FitPath, Instance, LiveOp, Policy, PolicyKind, TimeMode, TraceMode,
};
use dvbp_obs::SyncPolicy;
use dvbp_serve::client::{item_id, Client};
use dvbp_serve::protocol::{Request, Response};
use dvbp_serve::router::{fnv1a, RouterKind};
use dvbp_serve::server::{serve, ServeState};
use serde::{Deserialize, Serialize};
use std::hint::black_box;
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
    provenance: Option<Provenance>,
    entries: Vec<Entry>,
}

/// The `--check` floor: every gated row's `normalized` score must reach
/// this fraction of its committed value. Timing is noisy, so this is
/// the only gate with a tolerance.
const FLOOR: f64 = 0.7;

/// `(policy, variant)` rows of the grid, three variants per Any-Fit
/// policy:
///
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
/// All three produce identical placements; only the per-arrival cost
/// differs.
const POLICIES: [(&str, &str); 14] = [
    ("FirstFit", "indexed"),
    ("FirstFit", "simd"),
    ("FirstFit", "scalar"),
    ("BestFit", "indexed"),
    ("BestFit", "simd"),
    ("BestFit", "scalar"),
    ("WorstFit", "indexed"),
    ("WorstFit", "simd"),
    ("WorstFit", "scalar"),
    ("LastFit", "indexed"),
    ("LastFit", "simd"),
    ("LastFit", "scalar"),
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

/// The engine path a row's variant pins (`-` rows take the default).
fn fit_path(variant: &str) -> FitPath {
    match variant {
        "simd" => FitPath::Block,
        "scalar" => FitPath::Scalar,
        _ => FitPath::Auto,
    }
}

/// The timing protocol of every row: repeats `rep`, which times its own
/// window, until `budget` has elapsed and at least 3 reps ran, and
/// returns the fastest window (scheduling noise only ever adds time, so
/// the minimum is the most reproducible statistic) and the rep count.
fn fastest(budget: Duration, mut rep: impl FnMut() -> Duration) -> (Duration, u32) {
    let start = Instant::now();
    let (mut best, mut reps) = (Duration::MAX, 0u32);
    while reps < 3 || start.elapsed() < budget {
        best = best.min(rep());
        reps += 1;
    }
    (best, reps)
}

/// Times repeated warm `CostOnly` runs of `policy` over `inst` on `path`,
/// returning items/sec and the run's invariant outputs.
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

    let (best, reps) = fastest(budget, || {
        let t0 = Instant::now();
        black_box(engine.pack(inst, policy, TraceMode::CostOnly).cost());
        t0.elapsed()
    });
    let ips = inst.len() as f64 / best.as_secs_f64();
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
    let mut cost = 0;
    let (best, reps) = fastest(budget, || {
        let state = serve_state(inst, shards);
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for part in &parts {
                let state = &state;
                s.spawn(move || {
                    for req in part {
                        expect_applied(req, state.handle(req));
                    }
                });
            }
        });
        let window = t0.elapsed();
        cost = usage_time(&state);
        window
    });
    (reqs.len() as f64 / best.as_secs_f64(), cost, reps)
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
    let mut cost = 0;
    let (best, reps) = fastest(budget, || {
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
                    let mut client = Client::connect(&addr.to_string()).expect("connect");
                    for req in part {
                        expect_applied(req, client.call(req).expect("round trip"));
                    }
                });
            }
        });
        let window = t0.elapsed();
        // Stop the accept loop; the nudge connection in `serve` unblocks it.
        state.handle(&Request::Shutdown);
        let _ = TcpStream::connect(addr);
        srv.join().expect("server thread");
        cost = usage_time(&state);
        window
    });
    (reqs.len() as f64 / best.as_secs_f64(), cost, reps)
}

fn expect_applied(req: &Request, resp: Response) {
    if !matches!(resp, Response::Placed { .. } | Response::Departed { .. }) {
        panic!("serve bench rejected {req:?}: {resp:?}");
    }
}

fn usage_time(state: &ServeState<Vec<u8>>) -> u64 {
    let usage = state.status().usage_time;
    usage.parse().expect("bench serve costs fit in u64")
}

/// `ServeDispatch` rows, `(transport, shard counts)`, per scale; the
/// smoke rows are a subset of the full ones. TCP rows are recorded but
/// not gated — loopback latency is too machine-dependent.
fn serve_rows(scale: Scale) -> &'static [(&'static str, &'static [usize])] {
    match scale {
        Scale::Smoke => &[("inproc", &[1, 4]), ("tcp", &[1])],
        Scale::Full => &[("inproc", &[1, 2, 4, 8]), ("tcp", &[1, 4])],
    }
}

fn serve_dispatch_entries(scale: Scale, budget: Duration) -> Vec<Entry> {
    let (d, n, mu) = SERVE_POINT;
    let inst = bench_instance(d, n, mu, SEED);
    let reqs = serve_requests(&inst);
    let mut entries = Vec::new();
    for &(transport, shard_counts) in serve_rows(scale) {
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

fn run_grid(scale: Scale) -> Vec<Entry> {
    let (grid, budget): (&[(usize, usize, u64)], Duration) = match scale {
        Scale::Smoke => (&SMOKE_GRID, Duration::from_millis(120)),
        Scale::Full => (&FULL_GRID, Duration::from_millis(400)),
    };
    let mut entries = Vec::new();
    for &(d, n, mu) in grid {
        let inst = bench_instance(d, n, mu, SEED);
        for (policy, variant) in POLICIES {
            // Bare `BestFit`/`WorstFit` parse to the paper's `L∞`.
            let kind: PolicyKind = policy.parse().expect("grid policy names parse");
            let (ips, max_conc, cost, reps) =
                measure(&inst, kind.build().as_mut(), fit_path(variant), budget);
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
    entries
}

/// Prints the simd/scalar throughput ratio of every scanned Any-Fit
/// policy at every grid point that measured both variants.
fn print_ablation(entries: &[Entry]) {
    for simd in entries.iter().filter(|e| e.variant == "simd") {
        let scalar = entries.iter().find(|e| {
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

/// Every row but the loopback TCP ones (dominated by the kernel and
/// scheduler, not this codebase) keeps [`FLOOR`] of its committed
/// normalized score.
fn gate(run: &Report, committed: &Report) -> Vec<String> {
    let gated = run.entries.iter().filter(|e| !e.variant.starts_with("tcp"));
    ledger::rows(gated, &committed.entries, |r, c| {
        (r.normalized < FLOOR * c.normalized).then(|| {
            format!(
                "normalized {:.3} below {FLOOR} x committed {:.3}",
                r.normalized, c.normalized
            )
        })
    })
}

fn main() -> ExitCode {
    let bench = |scale: Scale, provenance| {
        let entries = run_grid(scale);
        print_ablation(&entries);
        Report {
            schema: "dvbp-bench-throughput/1".to_string(),
            scale: scale.name().to_string(),
            provenance: Some(provenance),
            entries,
        }
    };
    ledger::run_against_committed(&Cli::parse("throughput", &[]), bench, gate)
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

    #[test]
    fn smoke_grid_is_a_subset_of_the_full_grid() {
        assert!(SMOKE_GRID.iter().all(|point| FULL_GRID.contains(point)));
        let full = serve_rows(Scale::Full);
        for (transport, shards) in serve_rows(Scale::Smoke) {
            let (_, all) = full.iter().find(|(t, _)| t == transport).unwrap();
            assert!(shards.iter().all(|s| all.contains(s)), "{transport}");
        }
    }
}
