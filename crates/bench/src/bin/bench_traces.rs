//! Trace-replay benchmark: end-to-end cost and throughput of every
//! non-clairvoyant paper policy over multi-million-event streamed
//! replays in both real-trace encodings (Azure packing trace, Google
//! `task_events`), written as `BENCH_traces.json`.
//!
//! The pipeline under test is the whole ingest path: CSV bytes →
//! format parser → `EventSource` → `Engine::run_source`, in
//! `CostOnly` mode with a `StreamingLowerBound` tapped onto the first
//! pass per format. Nothing is ever materialized: `--check` requires
//! that every generated item streamed through both encodings and that
//! peak RSS (`VmHWM`) stayed under [`RSS_LIMIT_KB`], which is
//! `dvbp-traces`' constant-memory claim made executable.
//!
//! Usage (see `dvbp_bench::ledger`):
//!   bench_traces [--scale full|smoke] [--out FILE] [--check]

use dvbp_bench::ledger::{self, Cli, Provenance, Scale};
use dvbp_core::Engine;
use dvbp_core::{PackRequest, PolicyKind, StreamingLowerBound, Tap, TraceMode};
use dvbp_dimvec::DimVec;
use dvbp_sim::cost_ratio;
use dvbp_traces::{
    peak_rss_kb, write_azure_csv, write_google_csv, HeavyTail, IngestStats, OpenOptions,
    TraceFormat, AZURE_TICKS_PER_DAY,
};
use serde::Serialize;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

/// Generated items per scale.
const FULL_ITEMS: usize = 1_000_000;
const SMOKE_ITEMS: usize = 50_000;
/// Seed of the heavy-tail generator and of Random Fit.
const SEED: u64 = 2024;
/// The `--check` ceiling on peak RSS: 512 MiB.
const RSS_LIMIT_KB: u64 = 524_288;

/// One `(format, policy)` replay.
#[derive(Debug, Serialize)]
struct Entry {
    format: String,
    policy: String,
    cost: u64,
    /// Lemma 1(i) load-integral lower bound (streamed, per format).
    lb_load: u64,
    /// `cost / lb_load` — the empirical competitive ratio witness.
    ratio: f64,
    bins_opened: usize,
    /// Events (arrivals + departures) through the full parse+pack
    /// pipeline per second.
    events_per_sec: f64,
    seconds: f64,
}

#[derive(Debug, Serialize)]
struct Report {
    schema: String,
    scale: String,
    provenance: Option<Provenance>,
    items: usize,
    seed: u64,
    capacity: Vec<u64>,
    /// Final ingest statistics per format (identical on every pass).
    azure_ingest: IngestStats,
    google_ingest: IngestStats,
    entries: Vec<Entry>,
    peak_rss_kb: u64,
    rss_limit_kb: u64,
}

fn replay(
    format: TraceFormat,
    path: &Path,
    options: &OpenOptions,
    kind: &PolicyKind,
    engine: &mut Engine,
    lb: &mut Option<(u64, IngestStats)>,
    items: usize,
) -> Entry {
    let t0 = Instant::now();
    let mut source = format
        .open_path(path, options)
        .unwrap_or_else(|e| panic!("open {format} trace: {e}"));
    // The first pass per format also folds the streamed lower bound.
    let mut slb = StreamingLowerBound::new(source.capacity());
    let request = PackRequest::new(kind.clone()).trace_mode(TraceMode::CostOnly);
    let packing = match lb {
        None => request.run_source_on(engine, &mut Tap::new(&mut *source, |op| slb.observe(op))),
        Some(_) => request.run_source_on(engine, &mut *source),
    }
    .unwrap_or_else(|e| panic!("{format}/{}: {e}", kind.name()));
    let seconds = t0.elapsed().as_secs_f64();
    let stats = source.stats();
    let (lb_load, first_pass) = lb.get_or_insert_with(|| {
        let value = u64::try_from(slb.value()).expect("lower bounds fit in u64");
        (value, stats)
    });
    assert_eq!(
        stats, *first_pass,
        "{format}: every pass ingests the same stream"
    );
    let cost = u64::try_from(packing.cost()).expect("costs fit in u64");
    #[allow(clippy::cast_precision_loss)]
    let entry = Entry {
        format: format.to_string(),
        policy: kind.name(),
        cost,
        lb_load: *lb_load,
        ratio: cost_ratio(cost.into(), (*lb_load).into()),
        bins_opened: packing.num_bins(),
        events_per_sec: (2 * items) as f64 / seconds,
        seconds,
    };
    eprintln!(
        "{}/{}: cost {} (ratio {:.4}), {} bins, {:.0} events/s",
        entry.format,
        entry.policy,
        entry.cost,
        entry.ratio,
        entry.bins_opened,
        entry.events_per_sec
    );
    entry
}

fn run(scale: Scale, provenance: Provenance) -> Report {
    let items = match scale {
        Scale::Full => FULL_ITEMS,
        Scale::Smoke => SMOKE_ITEMS,
    };
    let capacity = DimVec::from_slice(&[100, 100]);
    let gen = HeavyTail::new(items, capacity.clone(), SEED);

    // Encode the workload in both on-disk schemas. The files live in a
    // scratch dir and are the only thing whose size is O(items); the
    // replay itself must stay O(active).
    let dir = std::env::temp_dir().join(format!("dvbp-bench-traces-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let azure_path = dir.join("heavytail.azure.csv");
    let google_path = dir.join("heavytail.google.csv");
    {
        let mut w = BufWriter::new(std::fs::File::create(&azure_path).expect("create azure csv"));
        write_azure_csv(gen.items(), &capacity, AZURE_TICKS_PER_DAY, &mut w)
            .and_then(|_| w.flush())
            .expect("write azure csv");
        let mut w = BufWriter::new(std::fs::File::create(&google_path).expect("create google csv"));
        write_google_csv(gen.items(), &capacity, &mut w)
            .and_then(|_| w.flush())
            .expect("write google csv");
    }
    eprintln!(
        "wrote {} items to {} (azure) and {} (google)",
        items,
        azure_path.display(),
        google_path.display()
    );

    let options = OpenOptions {
        capacity: Some(capacity.clone()),
        ..OpenOptions::default()
    };
    let mut engine = Engine::new();
    let mut entries = Vec::new();
    let mut azure_lb: Option<(u64, IngestStats)> = None;
    let mut google_lb: Option<(u64, IngestStats)> = None;
    for (format, path, lb) in [
        (TraceFormat::Azure, &azure_path, &mut azure_lb),
        (TraceFormat::Google, &google_path, &mut google_lb),
    ] {
        for kind in &PolicyKind::paper_suite(SEED) {
            entries.push(replay(format, path, &options, kind, &mut engine, lb, items));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    let peak = peak_rss_kb();
    eprintln!("peak RSS {peak} kB");
    Report {
        schema: "dvbp-bench-traces/1".to_string(),
        scale: scale.name().to_string(),
        provenance: Some(provenance),
        items,
        seed: SEED,
        capacity: capacity.as_slice().to_vec(),
        azure_ingest: azure_lb.expect("azure replays ran").1,
        google_ingest: google_lb.expect("google replays ran").1,
        entries,
        peak_rss_kb: peak,
        rss_limit_kb: RSS_LIMIT_KB,
    }
}

/// Every generated item streamed through both encodings, and the whole
/// run stayed under the memory ceiling.
fn check(report: &Report) -> Vec<String> {
    let mut bad = Vec::new();
    for (format, stats) in [
        ("azure", &report.azure_ingest),
        ("google", &report.google_ingest),
    ] {
        if stats.items != report.items as u64 {
            bad.push(format!(
                "{format}: {} of {} generated items streamed",
                stats.items, report.items
            ));
        }
    }
    if report.peak_rss_kb > report.rss_limit_kb {
        bad.push(format!(
            "peak RSS {} kB exceeds the {} kB ceiling: the streamed replay is not constant-memory",
            report.peak_rss_kb, report.rss_limit_kb
        ));
    }
    bad
}

fn main() -> ExitCode {
    ledger::run(&Cli::parse("traces", &[]), run, check)
}
