//! Meta-policy regret emitter: every static candidate plus both
//! adaptive meta-policies driven over four trace families, written as
//! `BENCH_portfolio.json`.
//!
//! Each static row is one deterministic cost-only run of a candidate
//! policy; each meta row drives the full portfolio engine (live policy
//! plus one cost-only shadow per candidate) and lets the meta-policy
//! switch at bin closes. The row's `cr` is `cost / lb_load`; a meta
//! row additionally carries its regret against the family's best and
//! worst static candidates:
//!
//! * `regret_vs_best_pct`  — how far above the best static CR the
//!   meta-policy landed (0 = matched the oracle pick).
//! * `gain_vs_worst_pct`   — how far below the worst static CR it
//!   stayed (the payoff of not committing to a bad policy up front).
//!
//! The rows are deterministic, so they are gated like `bench_repack`'s:
//! `--check` fails unless every row equals its committed row, and
//! `cargo test` runs the full grid against `BENCH_portfolio.json`.
//!
//! The report also times the dispatch layer itself: a portfolio drive
//! is compared against the sum of its parts (the plain live drive plus
//! one standalone cost-only drive per candidate). The difference is
//! pure dispatch glue — id translation, scoreboard upkeep, meta-policy
//! checks, the shadow worker's queue — and `--check` also fails when it
//! exceeds [`MAX_OVERHEAD_PCT`]. Both sides are timed in process CPU
//! time, every thread included, because the shadows run on a worker
//! thread of their own; wall time is reported beside it.
//!
//! Usage (see `dvbp_bench::ledger`):
//!   bench_portfolio [--scale full|smoke] [--out FILE] [--check]

use dvbp_bench::ledger::{self, Cli, Provenance, Scale};
use dvbp_bench::{family_instance, live_cost, FAMILY_SEED};
use dvbp_core::{
    live_ops, Instance, LiveOp, LiveRequest, LoadMeasure, PolicyKind, RepackPolicy, TraceMode,
};
use dvbp_offline::lower_bounds::lb_load;
use dvbp_portfolio::{MetaPolicy, PortfolioEngine, DEFAULT_BEST_OF_WINDOW};
use dvbp_sim::cost_ratio;
use serde::{Deserialize, Serialize};
use std::process::ExitCode;
use std::time::Instant;

/// One run's outcome: a static candidate or a meta-policy drive.
#[derive(Debug, Serialize, Deserialize)]
struct Entry {
    /// Stable identity: `family/{static:<kind>|meta:<name>}/n<N>`.
    key: String,
    family: String,
    /// `static:<kind>` or `meta:<name>`.
    policy: String,
    n: usize,
    seed: u64,
    /// MinUsageTime cost of the final packing.
    cost: u64,
    /// Offline load lower bound of the instance (eq. 2).
    lb_load: u64,
    /// `cost / lb_load` — the row's empirical competitive ratio.
    cr: f64,
    /// Policy switches taken (0 for static rows).
    switches: u64,
    /// Meta rows: percent above the family's best static CR.
    regret_vs_best_pct: f64,
    /// Meta rows: percent below the family's worst static CR.
    gain_vs_worst_pct: f64,
}

/// Wall-clock cost of the dispatch layer, measured on the smoke-scale
/// uniform family: the portfolio drive against the sum of its parts.
#[derive(Debug, Serialize, Deserialize)]
struct Overhead {
    /// Min-over-reps process CPU nanoseconds for the portfolio drive
    /// (live + one shadow per candidate, static meta), every thread
    /// included: the shadows run on a worker thread of their own.
    portfolio_cpu_ns: u64,
    /// Min-over-reps process CPU nanoseconds for the plain live drive
    /// plus one standalone cost-only drive per candidate.
    components_cpu_ns: u64,
    /// `(portfolio - components) / components` in CPU time, as a
    /// percentage: the gated figure.
    overhead_pct: f64,
    /// Min-over-reps wall nanoseconds for the portfolio drive.
    portfolio_ns: u64,
    /// Min-over-reps wall nanoseconds for the components.
    components_ns: u64,
    /// The same ratio in wall time, which stops counting the shadows'
    /// work once it overlaps the live drive; reported, not gated.
    wall_overhead_pct: f64,
}

#[derive(Debug, Serialize, Deserialize)]
struct Report {
    schema: String,
    scale: String,
    provenance: Option<Provenance>,
    overhead: Overhead,
    entries: Vec<Entry>,
}

/// The `--check` ceiling on the dispatch layer's `overhead_pct`.
const MAX_OVERHEAD_PCT: f64 = 30.0;

/// The candidate set every family is judged over: diverse enough that
/// no single policy wins everywhere, small enough that the shadow cost
/// stays readable in the overhead numbers.
fn candidates() -> [PolicyKind; 4] {
    [
        PolicyKind::FirstFit,
        PolicyKind::NextFit,
        PolicyKind::BestFit(LoadMeasure::Linf),
        PolicyKind::MoveToFront,
    ]
}

/// Both adaptive disciplines under test, with their default tunings.
fn metas() -> [MetaPolicy; 2] {
    [
        MetaPolicy::BestOf {
            window: DEFAULT_BEST_OF_WINDOW,
        },
        MetaPolicy::SwitchThreshold {
            threshold_pct: dvbp_portfolio::DEFAULT_SWITCH_THRESHOLD_PCT,
        },
    ]
}

/// `(family, n)` grid per scale; the smoke grid is a subset of the
/// full grid, so every smoke row has a committed counterpart.
fn grid(scale: Scale) -> Vec<(&'static str, usize)> {
    match scale {
        Scale::Smoke => vec![
            ("uniform", 600),
            ("zipf-bursty", 600),
            ("diurnal", 400),
            ("heavy-tail", 400),
        ],
        Scale::Full => vec![
            ("uniform", 600),
            ("uniform", 2400),
            ("zipf-bursty", 600),
            ("zipf-bursty", 2400),
            ("diurnal", 400),
            ("diurnal", 1600),
            ("heavy-tail", 400),
            ("heavy-tail", 1600),
        ],
    }
}

/// Drives the full portfolio over `inst` under `meta` and returns the
/// final packing cost plus the switch count.
///
/// `live_ops` names items by instance index while every engine assigns
/// dense arrival-order indices, so departures go through a translation
/// map — the same discipline conformance layer 11 uses.
fn run_meta(inst: &Instance, live_kind: &PolicyKind, meta: MetaPolicy) -> (u64, u64) {
    let live = LiveRequest::new(live_kind.clone())
        .capacity(inst.capacity.clone())
        .trace_mode(TraceMode::CostOnly)
        .items_hint(inst.items.len())
        .build()
        .expect("the live kind is non-clairvoyant");
    let mut pf = PortfolioEngine::new(live, &candidates(), meta, inst.items.len())
        .expect("candidates are non-clairvoyant");
    let mut ids = vec![usize::MAX; inst.items.len()];
    for op in live_ops(inst) {
        match op {
            LiveOp::Arrive { item, size, time } => {
                ids[item] = pf.arrive(size, time).expect("arrive succeeds").item;
            }
            LiveOp::Depart { item, time } => {
                pf.depart(ids[item], time).expect("depart succeeds");
            }
        }
    }
    let switches = pf.switches().len() as u64;
    // A barrier: the drive ends once the shadow worker has applied every
    // operation, so the timed overhead covers all of the shadows' work.
    let _ = pf.lower_bound();
    let packing = pf.into_live().into_packing().expect("all items departed");
    (
        u64::try_from(packing.cost()).expect("bench costs fit in u64"),
        switches,
    )
}

/// The process's CPU time so far, every thread included, in
/// nanoseconds (`clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`).
fn process_cpu_ns() -> u64 {
    use std::os::raw::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        sec: c_long,
        nsec: c_long,
    }
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live local laid out as Linux's `struct timespec`
    // (two longs).
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID)");
    let ns = i128::from(ts.sec) * 1_000_000_000 + i128::from(ts.nsec);
    u64::try_from(ns).expect("CPU time is non-negative")
}

/// Min-over-reps `(wall, process CPU)` time of `f`, in nanoseconds,
/// each minimized on its own.
fn time_min<F: FnMut()>(reps: u32, mut f: F) -> (u64, u64) {
    let (mut wall, mut cpu) = (u64::MAX, u64::MAX);
    for _ in 0..reps {
        let (start, cpu0) = (Instant::now(), process_cpu_ns());
        f();
        cpu = cpu.min(process_cpu_ns() - cpu0);
        wall = wall.min(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
    (wall, cpu)
}

/// `(a - b) / b`, as a percentage (0 when `b` is 0).
#[allow(clippy::cast_precision_loss)]
fn excess_pct(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        (a as f64 - b as f64) / b as f64 * 100.0
    }
}

/// Times the dispatch layer on a smoke-scale uniform instance: the
/// portfolio drive (static meta, so the live engine does exactly what
/// the plain drive does) against the plain drive plus one standalone
/// cost-only drive per candidate. The gate reads CPU time: the shadows
/// run on a worker thread, so the drive's wall time no longer counts
/// all of their work.
fn measure_overhead() -> Overhead {
    let inst = family_instance("uniform", 600);
    let live_kind = PolicyKind::FirstFit;
    const REPS: u32 = 5;
    let (portfolio_ns, portfolio_cpu_ns) = time_min(REPS, || {
        let (cost, switches) = run_meta(&inst, &live_kind, MetaPolicy::Static);
        assert!(cost > 0 && switches == 0);
    });
    let (components_ns, components_cpu_ns) = time_min(REPS, || {
        assert!(live_cost(&inst, &live_kind, RepackPolicy::NoRepack).0 > 0);
        for kind in candidates() {
            assert!(live_cost(&inst, &kind, RepackPolicy::NoRepack).0 > 0);
        }
    });
    Overhead {
        portfolio_cpu_ns,
        components_cpu_ns,
        overhead_pct: excess_pct(portfolio_cpu_ns, components_cpu_ns),
        portfolio_ns,
        components_ns,
        wall_overhead_pct: excess_pct(portfolio_ns, components_ns),
    }
}

fn run_grid(scale: Scale) -> Vec<Entry> {
    let mut entries = Vec::new();
    for (family, n) in grid(scale) {
        let inst = family_instance(family, n);
        let lb = u64::try_from(lb_load(&inst)).expect("bench bounds fit in u64");
        let mut best = f64::INFINITY;
        let mut worst = f64::NEG_INFINITY;
        for kind in candidates() {
            let cost = live_cost(&inst, &kind, RepackPolicy::NoRepack).0;
            let cr = cost_ratio(cost.into(), lb.into());
            best = best.min(cr);
            worst = worst.max(cr);
            eprintln!("{family}/static:{}/n{n}: cr {cr:.4}", kind.name());
            entries.push(Entry {
                key: format!("{family}/static:{}/n{n}", kind.name()),
                family: family.to_string(),
                policy: format!("static:{}", kind.name()),
                n,
                seed: FAMILY_SEED,
                cost,
                lb_load: lb,
                cr,
                switches: 0,
                regret_vs_best_pct: 0.0,
                gain_vs_worst_pct: 0.0,
            });
        }
        for meta in metas() {
            let (cost, switches) = run_meta(&inst, &PolicyKind::FirstFit, meta);
            let cr = cost_ratio(cost.into(), lb.into());
            let regret_vs_best_pct = (cr - best) / best * 100.0;
            let gain_vs_worst_pct = (worst - cr) / worst * 100.0;
            eprintln!(
                "{family}/meta:{}/n{n}: cr {cr:.4} ({switches} switch(es), \
                 regret {regret_vs_best_pct:+.2}% vs best, gain {gain_vs_worst_pct:+.2}% vs worst)",
                meta.name()
            );
            entries.push(Entry {
                key: format!("{family}/meta:{}/n{n}", meta.name()),
                family: family.to_string(),
                policy: format!("meta:{}", meta.name()),
                n,
                seed: FAMILY_SEED,
                cost,
                lb_load: lb,
                cr,
                switches,
                regret_vs_best_pct,
                gain_vs_worst_pct,
            });
        }
    }
    entries
}

/// Exact rows, and the dispatch overhead under [`MAX_OVERHEAD_PCT`].
fn gate(run: &Report, committed: &Report) -> Vec<String> {
    let mut bad = ledger::exact(&run.entries, &committed.entries);
    if run.overhead.overhead_pct > MAX_OVERHEAD_PCT {
        bad.push(format!(
            "dispatch overhead {:+.2}% exceeds {MAX_OVERHEAD_PCT}%",
            run.overhead.overhead_pct
        ));
    }
    bad
}

fn main() -> ExitCode {
    let bench = |scale: Scale, provenance| {
        let entries = run_grid(scale);
        let overhead = measure_overhead();
        eprintln!(
            "dispatch overhead: portfolio {} ns vs components {} ns of CPU ({:+.2}%); \
             wall {} ns vs {} ns ({:+.2}%)",
            overhead.portfolio_cpu_ns,
            overhead.components_cpu_ns,
            overhead.overhead_pct,
            overhead.portfolio_ns,
            overhead.components_ns,
            overhead.wall_overhead_pct
        );
        Report {
            schema: "dvbp-bench-portfolio/1".to_string(),
            scale: scale.name().to_string(),
            provenance: Some(provenance),
            overhead,
            entries,
        }
    };
    ledger::run_against_committed(&Cli::parse("portfolio", &[]), bench, gate)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_grid_is_a_subset_of_the_full_grid() {
        let full = grid(Scale::Full);
        assert!(grid(Scale::Smoke).iter().all(|cell| full.contains(cell)));
    }

    /// The regret rows are deterministic: the full grid must reproduce
    /// `BENCH_portfolio.json` row for row (the timed `overhead` block is
    /// not compared).
    #[test]
    fn full_grid_reproduces_the_committed_rows() {
        let committed: Report = ledger::read(&ledger::committed_path("portfolio")).unwrap();
        ledger::assert_golden("portfolio", &run_grid(Scale::Full), &committed.entries);
    }
}
