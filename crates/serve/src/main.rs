//! `dvbp-serve` — sharded online dispatch service with WAL durability.
//!
//! ```text
//! dvbp-serve serve --policy FirstFit --shards 4 --wal wal/ [--addr HOST:PORT]
//! dvbp-serve drive --trace instance.json [--addr HOST:PORT] [--throttle-ms N] [--shutdown]
//! dvbp-serve query [--addr HOST:PORT]
//! ```
//!
//! `serve` boots (recovering any existing WAL — one "recovered" line
//! per shard) and accepts NDJSON requests plus the HTTP operator routes
//! on one port. `drive` replays an instance trace file against a
//! running service in canonical timeline order; re-driving after a
//! crash resumes idempotently. `query` prints the `/status` JSON.

use dvbp_core::{Instance, PolicyKind, RepackPolicy, TimeMode, TraceMode};
use dvbp_obs::SyncPolicy;
use dvbp_serve::router::RouterKind;
use dvbp_serve::server::{serve, ServeState, DEFAULT_READ_TIMEOUT_MS};
use dvbp_serve::{client, Client, PortfolioConfig};
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "\
dvbp-serve — sharded online DVBP dispatch service with WAL durability

USAGE:
  dvbp-serve serve [--addr HOST:PORT] [--policy NAME] [--shards N]
                   [--router hash|round-robin|least-loaded]
                   [--repack none|drain:K|defrag:BUDGET:PERIOD]
                   [--portfolio paper|K1,K2,...]
                   [--meta static|best-of[:WINDOW]|switch[:THRESHOLD_PCT]]
                   [--wal DIR] [--sync per-event|batch:N|on-close]
                   [--time-mode strict|clamp] [--cap C1,C2,...]
  dvbp-serve drive [--addr HOST:PORT]
                   (--trace FILE.json
                    | --stream FILE --format azure|google|csv
                      [--cap C1,C2,...] [--dirty reject|clamp]
                      [--ticks-per-day N])
                   [--throttle-ms MS] [--shutdown]
  dvbp-serve query [--addr HOST:PORT]
  dvbp-serve spans [--addr HOST:PORT] [--recent N]

  --addr        bind/connect address (default 127.0.0.1:7411; port 0 = ephemeral)
  --policy      packing policy (default FirstFit); clairvoyant kinds rejected
  --shards      independent engine shards (default 1)
  --router      id -> shard strategy (default hash)
  --repack      per-shard repacking: none (default), drain:K migrates up to K
                items off a departure's bin, defrag:B:P spends migration
                budget B every P bin closes; all moves are journaled
  --portfolio   shadow-simulate candidate policies next to each shard:
                'paper' (the seven-algorithm suite) or a comma-separated
                list of policy spellings; scoreboard at /metrics
                (dvbp_shadow_cr) and /status
  --meta        with --portfolio: live-policy switching at bin-close
                boundaries — static (default; never switch), best-of:W
                adopts the cheapest shadow every W closes, switch:T
                switches when the live policy trails the best shadow by
                more than T percent (hysteresis-guarded); every switch is
                journaled, and recovery replays it under the same --meta
  --wal         write-ahead-log directory; omit for a non-durable in-memory run
  --sync        WAL durability per accepted operation (default per-event)
  --time-mode   strict rejects out-of-order timestamps; clamp pulls them forward
  --cap         per-dimension bin capacity (default 100,100)
  --slow-us     slow-request threshold in microseconds for the flight
                recorder's keep-ring (default 1000; 0 disables)
  --read-timeout-ms  disconnect a connection stalled mid-request after
                this many ms (default 10000; 0 disables)
  --recent      with spans: recent rows to print (default 20)
  --trace       instance trace file (dvbp JSON format) to replay
  --stream      cluster trace file streamed in constant memory
  --format      with --stream: azure | google | csv (native)
  --dirty       with --stream: reject (default) or clamp dirty rows
  --ticks-per-day  with --stream --format azure: ticks per day (default 288)
  --throttle-ms pause between driven operations (widens crash windows in CI)
  --shutdown    send Shutdown after driving

PROTOCOL (one JSON value per line over TCP):
  {\"Arrive\":{\"id\":\"vm-1\",\"size\":[2,3],\"time\":0}}
  {\"Depart\":{\"id\":\"vm-1\",\"time\":5}}
  \"Query\"  |  \"Shutdown\"
HTTP on the same port: /healthz, /status, /metrics, /spans, POST /shutdown";

const DEFAULT_ADDR: &str = "127.0.0.1:7411";

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

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let addr = parse(args, "--addr", DEFAULT_ADDR.to_string())?;
    let policy = PolicyKind::from_str(&parse(args, "--policy", "FirstFit".to_string())?)
        .map_err(|e| e.to_string())?;
    let shards: usize = parse(args, "--shards", 1usize)?;
    if shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    let router: RouterKind = parse(args, "--router", RouterKind::Hash)?;
    let repack: RepackPolicy = parse(args, "--repack", RepackPolicy::NoRepack)?;
    let sync: SyncPolicy = parse(args, "--sync", SyncPolicy::PerEvent)?;
    let time_mode: TimeMode = parse(args, "--time-mode", TimeMode::Strict)?;
    let capacity = dvbp_traces::parse_cap_spec(&parse(args, "--cap", "100,100".to_string())?)?;
    let slow_us: u64 = parse(args, "--slow-us", 1_000u64)?;
    let read_timeout_ms: u64 = parse(args, "--read-timeout-ms", DEFAULT_READ_TIMEOUT_MS)?;
    let portfolio = match flag(args, "--portfolio") {
        Some(spec) => {
            let candidates =
                dvbp_portfolio::parse_candidates(&spec).map_err(|e| format!("--portfolio: {e}"))?;
            let meta: dvbp_portfolio::MetaPolicy =
                parse(args, "--meta", dvbp_portfolio::MetaPolicy::Static)?;
            Some(PortfolioConfig { candidates, meta })
        }
        None => {
            if flag(args, "--meta").is_some() {
                return Err("--meta requires --portfolio".into());
            }
            None
        }
    };

    let listener = TcpListener::bind(addr.as_str()).map_err(|e| format!("binding {addr}: {e}"))?;
    let bound = listener.local_addr().map_err(|e| e.to_string())?;

    // The service journals in CostOnly: bit-identical placement to a
    // Full run, without unbounded trace growth in a long-lived process.
    let banner = |recovered: u64| {
        let meta = portfolio.as_ref().map_or_else(
            || "off".to_string(),
            |cfg| {
                format!(
                    "{} over {} shadow(s)",
                    cfg.meta.name(),
                    cfg.candidates.len()
                )
            },
        );
        println!(
            "dvbp-serve: {} x{shards} ({} router, repack {}, portfolio {meta}) on {bound}, \
             {recovered} recovered event(s)",
            policy.name(),
            router.name(),
            repack.name(),
        );
    };
    match flag(args, "--wal") {
        Some(dir) => {
            let (state, reports) = ServeState::open(
                &PathBuf::from(&dir),
                &capacity,
                &policy,
                repack,
                shards,
                router,
                TraceMode::CostOnly,
                time_mode,
                sync,
                portfolio.as_ref(),
            )
            .map_err(|e| format!("opening WAL under {dir}: {e}"))?;
            for report in &reports {
                println!("dvbp-serve: {report}");
            }
            banner(reports.iter().map(|r| r.events_applied).sum());
            state.span_hub().set_slow_threshold_ns(slow_us * 1_000);
            state.set_read_timeout_ms(read_timeout_ms);
            serve(&Arc::new(state), &listener).map_err(|e| e.to_string())?;
        }
        None => {
            let state = ServeState::in_memory(
                &capacity,
                &policy,
                repack,
                shards,
                router,
                TraceMode::CostOnly,
                time_mode,
                sync,
                portfolio.as_ref(),
            )
            .map_err(|e| e.to_string())?;
            println!("dvbp-serve: no --wal given; journaling to memory (no durability)");
            banner(0);
            state.span_hub().set_slow_threshold_ns(slow_us * 1_000);
            state.set_read_timeout_ms(read_timeout_ms);
            serve(&Arc::new(state), &listener).map_err(|e| e.to_string())?;
        }
    }
    println!("dvbp-serve: stopped");
    Ok(())
}

fn cmd_drive(args: &[String]) -> Result<(), String> {
    let addr = parse(args, "--addr", DEFAULT_ADDR.to_string())?;
    let throttle = match parse(args, "--throttle-ms", 0u64)? {
        0 => None,
        ms => Some(Duration::from_millis(ms)),
    };
    enum Input {
        Trace(Instance),
        Stream(Box<dyn dvbp_traces::TraceSource + Send>),
    }
    // Read the flags and open the trace before connecting, so a bad flag
    // or file is reported as such rather than as a connection error.
    let (label, input) = match (flag(args, "--trace"), flag(args, "--stream")) {
        (Some(_), Some(_)) => {
            return Err("--trace and --stream are mutually exclusive".into());
        }
        (Some(trace), None) => {
            let instance = client::load_instance(&PathBuf::from(&trace))?;
            (trace, Input::Trace(instance))
        }
        (None, Some(stream)) => {
            let (format, options) = dvbp_traces::stream_options(|key| flag(args, key))?;
            let source = format
                .open_path(&PathBuf::from(&stream), &options)
                .map_err(|e| format!("{stream}: {e}"))?;
            (stream, Input::Stream(source))
        }
        (None, None) => {
            return Err("drive needs --trace FILE.json or --stream FILE --format ...".into());
        }
    };
    let mut client = Client::connect(&addr).map_err(|e| format!("connecting {addr}: {e}"))?;
    let report = match input {
        Input::Trace(instance) => client.drive_instance(&instance, throttle),
        Input::Stream(mut source) => client.drive_source(&mut *source, throttle),
    }
    .map_err(|e| format!("driving {label}: {e}"))?;
    println!(
        "dvbp-serve: drove {label}: {} placed, {} departed, {} skipped, {} error(s)",
        report.placed, report.departed, report.skipped, report.errors,
    );
    if args.iter().any(|a| a == "--shutdown") {
        client.shutdown().map_err(|e| e.to_string())?;
    }
    if report.errors > 0 {
        return Err(format!("{} operation(s) rejected", report.errors));
    }
    Ok(())
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    let addr = parse(args, "--addr", DEFAULT_ADDR.to_string())?;
    let mut client = Client::connect(&addr).map_err(|e| format!("connecting {addr}: {e}"))?;
    let status = client.query().map_err(|e| e.to_string())?;
    println!(
        "{}",
        serde_json::to_string(&status).map_err(|e| e.to_string())?
    );
    Ok(())
}

fn cmd_spans(args: &[String]) -> Result<(), String> {
    let addr = parse(args, "--addr", DEFAULT_ADDR.to_string())?;
    let recent: usize = parse(args, "--recent", 20usize)?;
    let jsonl = dvbp_serve::http_get(&addr, "/spans").map_err(|e| e.to_string())?;
    print!("{}", dvbp_serve::render_spans_table(&jsonl, recent));
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let result = match args[0].as_str() {
        "serve" => cmd_serve(&args[1..]),
        "drive" => cmd_drive(&args[1..]),
        "query" => cmd_query(&args[1..]),
        "spans" => cmd_spans(&args[1..]),
        other => Err(format!("unknown subcommand {other:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
