//! `dvbp` — command-line front end for the DVBP library.
//!
//! ```text
//! dvbp gen    --d 2 --n 200 --mu 50 --span 500 --bin 100 --seed 7 --out trace.json
//! dvbp run    --trace trace.json --policy MoveToFront [--billing 60] [--out report.json]
//!             [--events events.jsonl]        # provenance event stream
//! dvbp run    --stream vms.csv --format azure --policy FirstFit
//!             [--cap 100,100] [--dirty clamp] [--max-rss-kb 524288]
//! dvbp explain --events events.jsonl [--item N] [--run K]
//! dvbp bounds --trace trace.json
//! dvbp compare --trace trace.json            # all paper algorithms side by side
//! ```
//!
//! Trace files are JSON `Instance` documents (see `dvbp::tracefile`);
//! event files are `dvbp-obs` JSONL streams with `Probe`/`Decision`
//! provenance records. `run --stream` replays a cluster trace file
//! (Azure packing, Google `task_events`, or the native CSV) through the
//! constant-memory streaming path: the trace is never materialized, the
//! Lemma 1 lower bound comes from a streamed tap, and `--max-rss-kb`
//! makes the memory claim an exit-code assertion.

use dvbp::obs::{JsonlEmitter, ObsEvent, WithProvenance};
use dvbp::tracefile::{load_instance, run_report, save_instance};
use dvbp::traces::{peak_rss_kb, stream_options, IngestStats};
use dvbp::workloads::UniformParams;
use dvbp::{BillingModel, PackRequest, PolicyKind, StreamingLowerBound, Tap, TraceMode};
use std::io::BufWriter;
use std::path::Path;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Instant;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match cmd.as_str() {
        "gen" => cmd_gen(rest),
        "run" => cmd_run(rest),
        "explain" => cmd_explain(rest),
        "bounds" => cmd_bounds(rest),
        "compare" => cmd_compare(rest),
        "show" => cmd_show(rest),
        "import" => cmd_import(rest),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
dvbp — MinUsageTime Dynamic Vector Bin Packing

USAGE:
  dvbp gen     --d D --n N --mu MU --span T --bin B --seed S --out FILE
  dvbp run     --trace FILE --policy NAME [--billing TICKS] [--out FILE]
               [--events FILE.jsonl]
  dvbp run     --stream FILE --format azure|google|csv --policy NAME
               [--cap C1,C2,...] [--dirty reject|clamp] [--ticks-per-day N]
               [--billing TICKS] [--out FILE] [--max-rss-kb KB]
  dvbp explain --events FILE.jsonl [--item N] [--run K]
  dvbp bounds  --trace FILE
  dvbp compare --trace FILE [--billing TICKS]
  dvbp show    --trace FILE --policy NAME [--width CHARS]
  dvbp import  --csv FILE --cap UNITS[,UNITS...] --out FILE

POLICIES: MoveToFront, FirstFit, NextFit, BestFit[Linf|L1|L2|Lp],
          WorstFit[...], LastFit, RandomFit[:seed], DurationClassFF, AlignedFit";

/// Tiny flag parser shared by the subcommands.
fn flag(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1).cloned())
}

fn parse<T: FromStr>(args: &[String], key: &str, default: T) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    match flag(args, key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|e| format!("{key} {v}: {e}")),
    }
}

fn required(args: &[String], key: &str) -> Result<String, String> {
    flag(args, key).ok_or_else(|| format!("missing required flag {key}"))
}

fn cmd_gen(args: &[String]) -> Result<(), String> {
    let params = UniformParams {
        dims: parse(args, "--d", 2usize)?,
        items: parse(args, "--n", 200usize)?,
        mu: parse(args, "--mu", 50u64)?,
        span: parse(args, "--span", 500u64)?,
        bin_size: parse(args, "--bin", 100u64)?,
    };
    if params.mu > params.span {
        return Err("--mu must not exceed --span".into());
    }
    let seed = parse(args, "--seed", 0u64)?;
    let out = required(args, "--out")?;
    let instance = params.generate(seed);
    save_instance(Path::new(&out), &instance)?;
    println!(
        "wrote {} ({} items, d={}, span(R)={})",
        out,
        instance.len(),
        instance.dim(),
        instance.span()
    );
    Ok(())
}

fn billing_from(args: &[String]) -> Result<BillingModel, String> {
    let g = parse(args, "--billing", 1u64)?;
    if g == 0 {
        return Err("--billing must be positive".into());
    }
    Ok(BillingModel::rounded(g))
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let trace = match (flag(args, "--trace"), flag(args, "--stream")) {
        (Some(_), Some(_)) => return Err("--trace and --stream are mutually exclusive".into()),
        (Some(trace), None) => trace,
        (None, Some(stream)) => return cmd_run_stream(args, &stream),
        (None, None) => return Err("run needs --trace FILE or --stream FILE --format ...".into()),
    };
    let policy = PolicyKind::from_str(&required(args, "--policy")?).map_err(|e| e.to_string())?;
    let billing = billing_from(args)?;
    let instance = load_instance(Path::new(&trace))?;
    let report = run_report(&instance, &policy, billing);
    println!(
        "{}: {} bins (peak {}), cost {} (billed {}), LB {}, ratio {:.3}",
        report.policy,
        report.bins,
        report.peak_bins,
        report.cost,
        report.billed_cost,
        report.lower_bound,
        report.ratio
    );
    if let Some(out) = flag(args, "--out") {
        let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
        std::fs::write(&out, json).map_err(|e| format!("writing {out}: {e}"))?;
        println!("wrote {out}");
    }
    if let Some(events) = flag(args, "--events") {
        let lines = emit_provenance(&instance, &policy, Path::new(&events))?;
        println!("wrote {events} ({lines} events — inspect with `dvbp explain`)");
    }
    Ok(())
}

/// The JSON report `run --stream --out` writes.
#[derive(serde::Serialize)]
struct StreamReport {
    schema: String,
    trace: String,
    format: String,
    policy: String,
    capacity: Vec<u64>,
    ingest: IngestStats,
    bins: usize,
    peak_bins: usize,
    cost: u128,
    billed_cost: u128,
    lower_bound: u128,
    ratio: f64,
    events_per_sec: f64,
    seconds: f64,
    peak_rss_kb: u64,
}

/// `run --stream`: replays a cluster trace file through the
/// constant-memory streaming path. The engine consumes the parser's
/// event stream directly (CostOnly mode — bit-identical placement to a
/// Full run) with the Lemma 1 lower bound folded by a streamed tap, so
/// memory stays O(active items + open bins) regardless of trace length.
fn cmd_run_stream(args: &[String], stream: &str) -> Result<(), String> {
    let policy = PolicyKind::from_str(&required(args, "--policy")?).map_err(|e| e.to_string())?;
    let billing = billing_from(args)?;
    let (format, options) = stream_options(|key| flag(args, key))?;

    let t0 = Instant::now();
    let mut source = format
        .open_path(Path::new(stream), &options)
        .map_err(|e| format!("{stream}: {e}"))?;
    let capacity = source.capacity().as_slice().to_vec();
    let mut lb = StreamingLowerBound::new(source.capacity());
    let mut tapped = Tap::new(&mut *source, |op| lb.observe(op));
    let packing = PackRequest::new(policy.clone())
        .trace_mode(TraceMode::CostOnly)
        .run_source(&mut tapped)
        .map_err(|e| format!("{stream}: {e}"))?;
    let seconds = t0.elapsed().as_secs_f64();

    let ingest = source.stats();
    let cost = packing.cost();
    let lower_bound = lb.value();
    let ratio = dvbp_sim::cost_ratio(cost, lower_bound);
    // Every streamed item is one arrival plus one departure event.
    #[allow(clippy::cast_precision_loss)]
    let events_per_sec = ((2 * ingest.items) as f64) / seconds.max(1e-9);
    let peak = peak_rss_kb();

    println!(
        "{}: streamed {} ({format}): {} item(s), {} bins (peak {}), cost {} (billed {}), \
         LB {}, ratio {:.3}",
        policy.name(),
        stream,
        ingest.items,
        packing.num_bins(),
        packing.max_concurrent_bins(),
        cost,
        billing.cost(&packing),
        lower_bound,
        ratio,
    );
    println!(
        "  {:.0} events/s over {seconds:.2}s, peak RSS {peak} kB, \
         {} row(s) skipped, {} duplicate(s) dropped, {} clamp repair(s)",
        events_per_sec,
        ingest.skipped_rows,
        ingest.dropped_duplicates,
        ingest.clamped_durations + ingest.clamped_times + ingest.clamped_sizes,
    );

    if let Some(out) = flag(args, "--out") {
        let report = StreamReport {
            schema: "dvbp-run-stream/1".to_string(),
            trace: stream.to_string(),
            format: format.to_string(),
            policy: policy.name(),
            capacity,
            ingest,
            bins: packing.num_bins(),
            peak_bins: packing.max_concurrent_bins(),
            cost,
            billed_cost: billing.cost(&packing),
            lower_bound,
            ratio,
            events_per_sec,
            seconds,
            peak_rss_kb: peak,
        };
        let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
        std::fs::write(&out, json + "\n").map_err(|e| format!("writing {out}: {e}"))?;
        println!("wrote {out}");
    }

    if let Some(limit) = flag(args, "--max-rss-kb") {
        let limit: u64 = limit
            .parse()
            .map_err(|e| format!("--max-rss-kb {limit}: {e}"))?;
        if peak > limit {
            return Err(format!(
                "peak RSS {peak} kB exceeds the {limit} kB ceiling — \
                 the streamed replay is not constant-memory"
            ));
        }
        println!("  RSS ceiling ok: {peak} kB <= {limit} kB");
    }
    Ok(())
}

/// Re-runs the instance with a provenance-aware JSONL emitter attached
/// and writes the full event stream (probes, decisions, placements) to
/// `path`. The policies are deterministic, so the emitted run is the
/// run that was just reported.
fn emit_provenance(
    instance: &dvbp::Instance,
    policy: &PolicyKind,
    path: &Path,
) -> Result<u64, String> {
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut emitter = WithProvenance(JsonlEmitter::new(BufWriter::new(file)));
    emitter.0.emit(&ObsEvent::Meta {
        algorithm: policy.name(),
        d: instance.dim(),
        mu: 0,
        seed: 0,
    });
    PackRequest::new(policy.clone())
        .observer(&mut emitter)
        .run(instance)
        .map_err(|e| e.to_string())?;
    let lines = emitter.0.lines();
    emitter.0.finish().map_err(|e| e.to_string())?;
    Ok(lines)
}

fn cmd_explain(args: &[String]) -> Result<(), String> {
    let events = required(args, "--events")?;
    let run_idx = parse(args, "--run", 0usize)?;
    let text = std::fs::read_to_string(&events).map_err(|e| format!("reading {events}: {e}"))?;
    let runs = dvbp::analysis::obs_ingest::ingest_jsonl(&text).map_err(|e| e.to_string())?;
    let run = runs
        .get(run_idx)
        .ok_or_else(|| format!("--run {run_idx}: file has {} run(s)", runs.len()))?;
    let explanations = dvbp::analysis::explain::explain_stream(&run.events);
    let migrations = dvbp::analysis::explain::explain_migrations(&run.events);
    if explanations.is_empty() && migrations.is_empty() {
        return Err("no Probe/Decision events in this stream — record it with \
             `dvbp run --events` (plain metrics streams carry no provenance)"
            .into());
    }
    let label = if run.algorithm.is_empty() {
        "unlabeled run".to_string()
    } else {
        run.algorithm.clone()
    };
    println!(
        "{label}: {} placements, {} probes total\n",
        explanations.len(),
        run.total_scanned()
    );
    match flag(args, "--item") {
        Some(v) => {
            let item: usize = v.parse().map_err(|e| format!("--item {v}: {e}"))?;
            let e = dvbp::analysis::explain::explain_item(&run.events, item)
                .ok_or_else(|| format!("item {item} has no decision in this run"))?;
            print!("{}", dvbp::analysis::explain::render(&e));
            for m in migrations.iter().filter(|m| m.item == item) {
                print!("{}", dvbp::analysis::explain::render_migration(m));
            }
        }
        None => {
            for e in &explanations {
                print!("{}", dvbp::analysis::explain::render(e));
            }
            if !migrations.is_empty() {
                println!("\n{} migration(s):", migrations.len());
                for m in &migrations {
                    print!("{}", dvbp::analysis::explain::render_migration(m));
                }
            }
        }
    }
    Ok(())
}

fn cmd_bounds(args: &[String]) -> Result<(), String> {
    let trace = required(args, "--trace")?;
    let instance = load_instance(Path::new(&trace))?;
    let lb = dvbp::offline::lb_load(&instance);
    let span = dvbp::offline::lb_span(&instance);
    let util = dvbp::offline::lb_utilization(&instance);
    let bounds = dvbp::offline::opt_bounds(&instance, 20);
    println!(
        "items: {}, d: {}, span(R): {span}",
        instance.len(),
        instance.dim()
    );
    println!("Lemma 1(i)  load-integral LB: {lb}");
    println!("Lemma 1(ii) utilization/d LB: {util:.1}");
    println!("Lemma 1(iii) span LB:         {span}");
    println!(
        "OPT (repacking) within [{}, {}]{}",
        bounds.lower,
        bounds.upper,
        if bounds.is_exact() { " — exact" } else { "" }
    );
    Ok(())
}

fn cmd_compare(args: &[String]) -> Result<(), String> {
    let trace = required(args, "--trace")?;
    let billing = billing_from(args)?;
    let instance = load_instance(Path::new(&trace))?;
    println!(
        "{:<16} {:>6} {:>6} {:>10} {:>10} {:>8}",
        "policy", "bins", "peak", "cost", "billed", "ratio"
    );
    for kind in PolicyKind::paper_suite(0) {
        let r = run_report(&instance, &kind, billing);
        println!(
            "{:<16} {:>6} {:>6} {:>10} {:>10} {:>8.3}",
            r.policy, r.bins, r.peak_bins, r.cost, r.billed_cost, r.ratio
        );
    }
    Ok(())
}

fn cmd_show(args: &[String]) -> Result<(), String> {
    let trace = required(args, "--trace")?;
    let policy = PolicyKind::from_str(&required(args, "--policy")?).map_err(|e| e.to_string())?;
    let width = parse(args, "--width", 100usize)?;
    let instance = load_instance(Path::new(&trace))?;
    let packing = PackRequest::new(policy.clone()).run(&instance).unwrap();
    let opts = dvbp::analysis::gantt::GanttOptions {
        max_width: width,
        ..Default::default()
    };
    println!(
        "{} on {} ({} items):\n",
        policy.name(),
        trace,
        instance.len()
    );
    print!(
        "{}",
        dvbp::analysis::gantt::render(&instance, &packing, &opts)
    );
    let m = dvbp::analysis::metrics::packing_metrics(&instance, &packing);
    println!(
        "cost {} | bins {} (peak {}) | utilization {:.3} | alignment {:.3}",
        m.cost, m.bins, m.peak_open_bins, m.utilization, m.alignment
    );
    Ok(())
}

fn cmd_import(args: &[String]) -> Result<(), String> {
    let csv = required(args, "--csv")?;
    let cap = required(args, "--cap")?;
    let out = required(args, "--out")?;
    let text = std::fs::read_to_string(&csv).map_err(|e| format!("reading {csv}: {e}"))?;
    let instance = dvbp::tracefile::parse_csv(&text, &cap)?;
    save_instance(Path::new(&out), &instance)?;
    println!("imported {} items -> {}", instance.len(), out);
    Ok(())
}
