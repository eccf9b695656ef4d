//! `dvbp-monitor` — live telemetry service.
//!
//! ```text
//! dvbp-monitor [--addr 127.0.0.1:9184] [--policy FirstFit]
//!              [--trace events.jsonl
//!               | --stream trace.csv --format azure|google|csv
//!                 [--cap SPEC] [--dirty reject|clamp] [--ticks-per-day N]
//!               | --d 2 --n 200 --mu 10 --span 100 --bin 100]
//!              [--seed 0] [--runs N] [--interval-ms 100]
//!              [--repack-suite none,drain:2,defrag:64:8 | --repack-suite off]
//! dvbp-monitor --scrape HOST:PORT [--shards N] [--raw-metrics]
//! ```
//!
//! Drives the configured workload through the engine on a background
//! thread (one run per interval; `--runs 0` means unbounded) while the
//! main thread serves `/metrics`, `/status`, `/healthz`, and
//! `/shutdown`. With `--trace`, instances are reconstructed from a
//! recorded `dvbp-obs` JSONL event stream and cycled; with `--stream`,
//! a real-cluster trace file (Azure packing, Google task-events, or the
//! native CSV) is replayed through the constant-memory streaming path —
//! the engine never materializes the trace, and the running competitive
//! ratio comes from the streamed Lemma 1 tap. Otherwise uniform
//! instances are generated with incrementing seeds.
//!
//! Non-clairvoyant policies additionally replay each run once under a
//! whole repack suite (`--repack-suite`, default
//! `none,drain:2,defrag:64:8`): one engine set packs the run under every
//! suite policy behind one feed, so `/metrics` carries per-policy
//! migration counters and running competitive ratios — the
//! CR-vs-migration-cost frontier, live. A `--stream` file is thus read
//! twice per run, whatever the suite's length. `--repack-suite off`
//! disables the extra replay.
//!
//! With `--scrape`, the roles flip: instead of serving its own run, the
//! monitor pulls `/status` from a running `dvbp-serve` dispatch service
//! and prints a per-shard summary (`--shards N` additionally asserts
//! the service topology; `--raw-metrics` dumps the Prometheus text
//! instead).

use dvbp_core::{InstanceSource, PolicyKind, RepackPolicy, StreamError};
use dvbp_monitor::{
    observe_repack_suite, observe_run, observe_source_run, Monitor, MonitorServer, Workload,
};
use dvbp_obs::expo::http_get;
use dvbp_traces::{OpenOptions, TraceFormat, TraceSource};
use dvbp_workloads::UniformParams;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "\
dvbp-monitor — live /metrics endpoint for DVBP packing

USAGE:
  dvbp-monitor [--addr HOST:PORT] [--policy NAME]
               [--trace FILE.jsonl
                | --stream FILE --format azure|google|csv
                  [--cap SPEC] [--dirty reject|clamp] [--ticks-per-day N]
                | --d D --n N --mu MU --span T --bin B]
               [--seed S] [--runs N] [--interval-ms MS]
               [--repack-suite LIST|off]

  dvbp-monitor --scrape HOST:PORT [--shards N] [--raw-metrics]

  --addr         bind address (default 127.0.0.1:9184; port 0 = ephemeral)
  --policy       packing policy (default FirstFit); see `dvbp --help`
  --trace        replay instances reconstructed from a dvbp-obs JSONL trace
  --stream       replay a cluster trace file through the streaming path
  --format       with --stream: azure | google | csv (native)
  --cap          with --stream: bin capacity as comma-separated units
                 (default 100 per dimension; required for --format csv)
  --dirty        with --stream: reject (default) or clamp dirty rows
  --ticks-per-day  with --stream --format azure: ticks per day (default 288)
  --runs         stop driving after N runs, keep serving (0 = unbounded)
  --interval-ms  pause between runs (default 100)
  --repack-suite comma-separated repack policies, replayed together once per run
                 (none | drain:K | defrag:BUDGET:PERIOD; default
                 none,drain:2,defrag:64:8; 'off' disables the suite)
  --scrape       pull /status from a running dvbp-serve and print a summary
  --shards       with --scrape: fail unless the service runs exactly N shards
  --raw-metrics  with --scrape: print the service's Prometheus text verbatim

ENDPOINTS: /metrics (Prometheus), /status (JSON), /healthz, /shutdown";

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

/// `--scrape` mode: one-shot pull of a running `dvbp-serve` service.
fn run_scrape(args: &[String], target: &str) -> Result<(), String> {
    if args.iter().any(|a| a == "--raw-metrics") {
        let metrics = http_get(target, "/metrics").map_err(|e| e.to_string())?;
        print!("{metrics}");
        return Ok(());
    }
    let status = dvbp_monitor::scrape_serve_status(target)?;
    if let Some(expected) = flag(args, "--shards") {
        let expected: usize = expected
            .parse()
            .map_err(|e| format!("--shards {expected}: {e}"))?;
        if status.shards != expected {
            return Err(format!(
                "{target}: service runs {} shard(s), expected {expected}",
                status.shards
            ));
        }
    }
    print!("{}", dvbp_monitor::scrape::render(target, &status));
    // Per-stage latency quantiles, when the service has span data.
    if let Ok(metrics) = http_get(target, "/metrics") {
        print!("{}", dvbp_monitor::scrape::render_stage_latencies(&metrics));
    }
    Ok(())
}

/// Parses `--repack-suite` (default `none,drain:2,defrag:64:8`;
/// `off` yields the empty suite).
fn repack_suite(args: &[String]) -> Result<Vec<RepackPolicy>, String> {
    let spec =
        flag(args, "--repack-suite").unwrap_or_else(|| "none,drain:2,defrag:64:8".to_string());
    if spec == "off" {
        return Ok(Vec::new());
    }
    spec.split(',')
        .map(|p| {
            p.trim()
                .parse::<RepackPolicy>()
                .map_err(|e| format!("--repack-suite '{p}': {e}"))
        })
        .collect()
}

/// What the driver thread replays each iteration: materialized
/// instances, or a trace file re-opened and streamed per run.
enum Drive {
    Instances(Workload),
    Stream {
        path: PathBuf,
        format: TraceFormat,
        options: OpenOptions,
    },
}

/// Opens the trace file afresh and runs one observation pass over it: a
/// pass consumes its source, and the file is the durable state.
fn replay_file(
    path: &Path,
    format: TraceFormat,
    options: &OpenOptions,
    pass: impl FnOnce(&mut (dyn TraceSource + Send)) -> Result<(), StreamError>,
) -> Result<(), String> {
    let mut source = format.open_path(path, options).map_err(|e| e.to_string())?;
    pass(&mut *source).map_err(|e| e.to_string())
}

/// Builds the streamed drive for `--stream FILE`, validating the flags
/// and the file by opening it once.
fn stream_drive(args: &[String], path: String) -> Result<Drive, String> {
    let (format, options) = dvbp_traces::stream_options(|key| flag(args, key))?;
    let path = PathBuf::from(path);
    // Fail fast on an unreadable file or a capacity/schema mismatch.
    format
        .open_path(&path, &options)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(Drive::Stream {
        path,
        format,
        options,
    })
}

fn run(args: &[String]) -> Result<(), String> {
    if let Some(target) = flag(args, "--scrape") {
        return run_scrape(args, &target);
    }
    let addr = parse(args, "--addr", "127.0.0.1:9184".to_string())?;
    let policy = PolicyKind::from_str(&parse(args, "--policy", "FirstFit".to_string())?)
        .map_err(|e| e.to_string())?;
    let runs_budget: u64 = parse(args, "--runs", 0u64)?;
    let interval = Duration::from_millis(parse(args, "--interval-ms", 100u64)?);

    let mut segments = Vec::new();
    let mut drive = match (flag(args, "--trace"), flag(args, "--stream")) {
        (Some(_), Some(_)) => return Err("--trace and --stream are mutually exclusive".into()),
        (Some(path), None) => {
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
            // A portfolio trace carries PolicySwitch markers: attribute
            // its cost to the policies that were live, per segment.
            for run in dvbp_analysis::obs_ingest::ingest_jsonl(&text).map_err(|e| e.to_string())? {
                for (live, stats) in dvbp_monitor::aggregate::attribute_policy_segments(&run.events)
                {
                    match segments
                        .iter_mut()
                        .find(|(p, _): &&mut (String, _)| *p == live)
                    {
                        Some((_, merged)) => {
                            let merged: &mut dvbp_monitor::aggregate::SegmentStats = merged;
                            merged.segments += stats.segments;
                            merged.usage_time += stats.usage_time;
                        }
                        None => segments.push((live, stats)),
                    }
                }
            }
            Drive::Instances(Workload::from_trace_jsonl(&text).map_err(|e| format!("{path}: {e}"))?)
        }
        (None, Some(path)) => stream_drive(args, path)?,
        (None, None) => {
            let params = UniformParams {
                dims: parse(args, "--d", 2usize)?,
                items: parse(args, "--n", 200usize)?,
                mu: parse(args, "--mu", 10u64)?,
                span: parse(args, "--span", 100u64)?,
                bin_size: parse(args, "--bin", 100u64)?,
            };
            if params.mu > params.span {
                return Err("--mu must not exceed --span".into());
            }
            Drive::Instances(Workload::synthetic(params, parse(args, "--seed", 0u64)?))
        }
    };

    let mut suite = repack_suite(args)?;
    // Clairvoyant kinds cannot run live; drop the suite rather than
    // logging a rejection every interval.
    let live_capable = dvbp_core::LiveRequest::new(policy.clone())
        .capacity(dvbp_dimvec::DimVec::scalar(1))
        .build()
        .is_ok();
    if !live_capable && !suite.is_empty() {
        eprintln!(
            "dvbp-monitor: {} is clairvoyant; repack suite disabled",
            policy.name()
        );
        suite.clear();
    }

    let monitor =
        Arc::new(Monitor::with_repack_suite(policy.name(), &suite).with_trace_segments(segments));
    let server =
        MonitorServer::bind(addr.as_str(), &monitor).map_err(|e| format!("binding {addr}: {e}"))?;
    let bound = server.local_addr().map_err(|e| e.to_string())?;
    println!(
        "dvbp-monitor: {} on http://{bound}/metrics (status: /status, stop: /shutdown)",
        policy.name()
    );

    let driver_monitor = Arc::clone(&monitor);
    let with_suite = !suite.is_empty();
    let driver = std::thread::spawn(move || {
        let mut completed = 0u64;
        while !driver_monitor.shutting_down() {
            if runs_budget != 0 && completed >= runs_budget {
                // Budget spent: idle (still serving) until /shutdown.
                std::thread::sleep(Duration::from_millis(20));
                continue;
            }
            match &mut drive {
                Drive::Instances(workload) => {
                    let instance = workload.next_instance();
                    observe_run(&policy, &instance, &driver_monitor.aggregate);
                    if with_suite {
                        let mut source = InstanceSource::new(&instance)
                            .expect("workload sources yield valid instances");
                        if let Err(e) =
                            observe_repack_suite(&policy, &mut source, &driver_monitor.repack)
                        {
                            eprintln!("dvbp-monitor: repack suite: {e}");
                        }
                    }
                }
                Drive::Stream {
                    path,
                    format,
                    options,
                } => {
                    let replay = replay_file(path, *format, options, |source| {
                        observe_source_run(&policy, source, &driver_monitor.aggregate)
                    });
                    if let Err(e) = replay {
                        eprintln!("dvbp-monitor: stream {}: {e}", path.display());
                        // The file is broken; keep serving what we have.
                        break;
                    }
                    let replay = with_suite.then(|| {
                        replay_file(path, *format, options, |source| {
                            observe_repack_suite(&policy, source, &driver_monitor.repack)
                        })
                    });
                    if let Some(Err(e)) = replay {
                        eprintln!("dvbp-monitor: repack suite stream {}: {e}", path.display());
                    }
                }
            }
            completed += 1;
            // Sleep in short slices so /shutdown takes effect promptly.
            let mut left = interval;
            while !left.is_zero() && !driver_monitor.shutting_down() {
                let step = left.min(Duration::from_millis(20));
                std::thread::sleep(step);
                left -= step;
            }
        }
    });

    let served = server.serve();
    monitor.shutdown.store(true, Ordering::SeqCst);
    driver.join().map_err(|_| "driver thread panicked")?;
    served.map_err(|e| format!("serving on {bound}: {e}"))?;
    println!("dvbp-monitor: stopped");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
