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
//! The packing metric is deterministic, so `--baseline` gates exactly
//! like `bench_repack`: any shared key whose `cr` grows by more than
//! `--max-regression` percent fails the process.
//!
//! The report also times the dispatch layer itself: a portfolio drive
//! is compared against the sum of its parts (the plain live drive plus
//! one standalone cost-only drive per candidate). The difference is
//! pure dispatch glue — id translation, scoreboard upkeep, meta-policy
//! checks — and `--max-overhead-pct` bounds it (CI smoke uses 30).
//!
//! Usage:
//!   bench_portfolio [--out FILE] [--baseline FILE]
//!                   [--max-regression PCT] [--max-overhead-pct PCT]
//!                   [--scale full|smoke]

use dvbp_bench::bench_instance;
use dvbp_core::{
    live_ops, Instance, InstanceSource, Item, LiveOp, LiveRequest, LoadMeasure, PolicyKind,
    TraceMode,
};
use dvbp_offline::lower_bounds::lb_load;
use dvbp_portfolio::{MetaPolicy, PortfolioEngine, DEFAULT_BEST_OF_WINDOW};
use dvbp_traces::{Diurnal, HeavyTail};
use dvbp_workloads::extended::{ArrivalDist, DurationDist, ExtendedParams, SizeDist};
use dvbp_workloads::uniform::UniformParams;
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
    /// Min-over-reps nanoseconds for the portfolio drive (live + one
    /// shadow per candidate, static meta).
    portfolio_ns: u64,
    /// Min-over-reps nanoseconds for the plain live drive plus one
    /// standalone cost-only drive per candidate.
    components_ns: u64,
    /// `(portfolio - components) / components`, as a percentage.
    overhead_pct: f64,
}

#[derive(Debug, Serialize, Deserialize)]
struct Report {
    schema: String,
    scale: String,
    overhead: Overhead,
    entries: Vec<Entry>,
}

const SEED: u64 = 7;

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
/// full grid so baseline keys always match.
fn grid(scale: &str) -> Vec<(&'static str, usize)> {
    match scale {
        "smoke" => vec![
            ("uniform", 600),
            ("zipf-bursty", 600),
            ("diurnal", 400),
            ("heavy-tail", 400),
        ],
        _ => vec![
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

/// Generates one family instance at size `n`.
///
/// * `uniform` — the Table 2 shape: stationary, the regime every
///   static policy was tuned for.
/// * `zipf-bursty` — heavy-tailed sizes in bursty waves: utilization
///   whipsaws, so the best policy changes across the run.
/// * `diurnal` — day/night arrival waves (dvbp-traces synth): long
///   quiet troughs where bins drain and close, the meta-policy's
///   natural decision points.
/// * `heavy-tail` — Pareto lifetimes: a few stragglers pin bins open,
///   punishing policies that scatter long-lived items.
fn family_instance(family: &str, n: usize) -> Instance {
    let synth = |items: dvbp_traces::ItemIter, capacity: dvbp_dimvec::DimVec| {
        let items: Vec<Item> = items.map(|(a, d, size)| Item::new(size, a, d)).collect();
        Instance::new(capacity, items).expect("synth instance valid")
    };
    match family {
        "uniform" => bench_instance(2, n, (n as u64) / 10, SEED),
        "zipf-bursty" => ExtendedParams {
            base: UniformParams {
                dims: 2,
                items: n,
                mu: 20,
                span: (n as u64) / 2,
                bin_size: 10,
            },
            sizes: SizeDist::Zipf { exponent: 1.2 },
            durations: DurationDist::Geometric { p: 0.3 },
            arrivals: ArrivalDist::Bursty { waves: 6, width: 3 },
        }
        .generate(SEED),
        "diurnal" => {
            let capacity = dvbp_dimvec::DimVec::from_slice(&[10, 10]);
            let gen = Diurnal::new(n, capacity.clone(), SEED);
            synth(gen.items(), capacity)
        }
        "heavy-tail" => {
            let capacity = dvbp_dimvec::DimVec::from_slice(&[10, 10]);
            let mut gen = HeavyTail::new(n, capacity.clone(), SEED);
            gen.max_duration = 2_000;
            synth(gen.items(), capacity)
        }
        other => panic!("unknown trace family {other}"),
    }
}

/// Drives one static candidate cost-only over `inst` and returns its
/// final packing cost.
fn run_static(inst: &Instance, kind: &PolicyKind) -> u64 {
    let mut live = LiveRequest::new(kind.clone())
        .capacity(inst.capacity.clone())
        .trace_mode(TraceMode::CostOnly)
        .items_hint(inst.items.len())
        .build()
        .expect("candidates are non-clairvoyant");
    let mut source = InstanceSource::new(inst).expect("bench instance valid");
    live.drive_source(&mut source).expect("live drive succeeds");
    let packing = live.into_packing().expect("all items departed");
    u64::try_from(packing.cost()).expect("bench costs fit in u64")
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
    let packing = pf.into_live().into_packing().expect("all items departed");
    (
        u64::try_from(packing.cost()).expect("bench costs fit in u64"),
        switches,
    )
}

/// Min-over-reps wall time of `f`, in nanoseconds.
fn time_min<F: FnMut()>(reps: u32, mut f: F) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..reps {
        let start = Instant::now();
        f();
        best = best.min(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
    best
}

/// Times the dispatch layer on a smoke-scale uniform instance: the
/// portfolio drive (static meta, so the live engine does exactly what
/// the plain drive does) against the plain drive plus one standalone
/// cost-only drive per candidate.
fn measure_overhead() -> Overhead {
    let inst = family_instance("uniform", 600);
    let live_kind = PolicyKind::FirstFit;
    const REPS: u32 = 5;
    let portfolio_ns = time_min(REPS, || {
        let (cost, switches) = run_meta(&inst, &live_kind, MetaPolicy::Static);
        assert!(cost > 0 && switches == 0);
    });
    let components_ns = time_min(REPS, || {
        assert!(run_static(&inst, &live_kind) > 0);
        for kind in candidates() {
            assert!(run_static(&inst, &kind) > 0);
        }
    });
    let overhead_pct = if components_ns == 0 {
        0.0
    } else {
        (portfolio_ns as f64 - components_ns as f64) / components_ns as f64 * 100.0
    };
    Overhead {
        portfolio_ns,
        components_ns,
        overhead_pct,
    }
}

fn run_grid(scale: &str) -> Report {
    let mut entries = Vec::new();
    for (family, n) in grid(scale) {
        let inst = family_instance(family, n);
        let lb = u64::try_from(lb_load(&inst)).expect("bench bounds fit in u64");
        let mut best = f64::INFINITY;
        let mut worst = f64::NEG_INFINITY;
        for kind in candidates() {
            let cost = run_static(&inst, &kind);
            let cr = cost as f64 / lb as f64;
            best = best.min(cr);
            worst = worst.max(cr);
            eprintln!("{family}/static:{}/n{n}: cr {cr:.4}", kind.name());
            entries.push(Entry {
                key: format!("{family}/static:{}/n{n}", kind.name()),
                family: family.to_string(),
                policy: format!("static:{}", kind.name()),
                n,
                seed: SEED,
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
            let cr = cost as f64 / lb as f64;
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
                seed: SEED,
                cost,
                lb_load: lb,
                cr,
                switches,
                regret_vs_best_pct,
                gain_vs_worst_pct,
            });
        }
    }
    Report {
        schema: "dvbp-bench-portfolio/1".to_string(),
        scale: scale.to_string(),
        overhead: measure_overhead(),
        entries,
    }
}

/// Keys whose `cr` grew by more than `max_regression_pct` over the
/// baseline — the same deterministic gate as `bench_repack`.
fn regressions(report: &Report, baseline: &Report, max_regression_pct: f64) -> Vec<String> {
    let ceiling = 1.0 + max_regression_pct / 100.0;
    let mut bad = Vec::new();
    for e in &report.entries {
        if let Some(b) = baseline.entries.iter().find(|b| b.key == e.key) {
            if e.cr > b.cr * ceiling {
                bad.push(format!(
                    "{}: cr {:.4} vs baseline {:.4} (ceiling {:.4})",
                    e.key,
                    e.cr,
                    b.cr,
                    b.cr * ceiling
                ));
            }
        }
    }
    bad
}

fn main() -> ExitCode {
    let mut out = String::from("BENCH_portfolio.json");
    let mut baseline: Option<String> = None;
    let mut max_regression = 30.0f64;
    let mut max_overhead: Option<f64> = None;
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
            "--max-overhead-pct" => {
                max_overhead = Some(
                    value("--max-overhead-pct")
                        .parse()
                        .expect("--max-overhead-pct takes a percentage"),
                )
            }
            "--scale" => scale = value("--scale"),
            other => {
                eprintln!("unknown flag {other}");
                return ExitCode::FAILURE;
            }
        }
    }

    let report = run_grid(&scale);
    eprintln!(
        "dispatch overhead: portfolio {} ns vs components {} ns ({:+.2}%)",
        report.overhead.portfolio_ns, report.overhead.components_ns, report.overhead.overhead_pct
    );
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out, json + "\n").expect("write report");
    eprintln!("wrote {out} ({} entries)", report.entries.len());

    let mut failed = false;
    if let Some(ceiling) = max_overhead {
        if report.overhead.overhead_pct > ceiling {
            eprintln!(
                "dispatch overhead {:+.2}% exceeds the {ceiling}% gate",
                report.overhead.overhead_pct
            );
            failed = true;
        } else {
            eprintln!(
                "dispatch overhead {:+.2}% within the {ceiling}% gate",
                report.overhead.overhead_pct
            );
        }
    }
    if let Some(path) = baseline {
        let data = std::fs::read_to_string(&path).expect("read baseline");
        let base: Report = serde_json::from_str(&data).expect("parse baseline");
        let bad = regressions(&report, &base, max_regression);
        if !bad.is_empty() {
            eprintln!("portfolio CR regressions over {max_regression}% vs {path}:");
            for line in &bad {
                eprintln!("  {line}");
            }
            failed = true;
        } else {
            eprintln!("no CR regression over {max_regression}% vs {path}");
        }
    }
    if failed {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
