//! Serve-stack latency benchmark: a paced NDJSON load generator driven
//! against a real, WAL-backed `dvbp-serve` service over loopback TCP,
//! emitting `BENCH_serve.json`.
//!
//! Each config boots a fresh service in-process (real listener, real
//! file WAL with real fsyncs under a scratch directory), opens `K`
//! concurrent connections, and paces requests at a target aggregate
//! rate: request `i` of a global schedule is due at `start + i/rate`.
//! Each connection still waits for its reply before it sends again, so
//! the loop is closed per connection: once a round trip takes longer
//! than `K / rate`, the delivered rate (`throughput_rps`) falls below
//! `target_rate_rps`, as it does under per-event sync. Latency is timed
//! from the send, not from the due time, so the wait of a late send is
//! not in it. Every worker arrives a block of items and then departs
//! them, so both mutating op kinds are on the wire.
//!
//! Two latency views per config, cross-checked against each other:
//!
//! * **client-side** — exact RTT percentiles over every request
//!   (send to response line), computed from the raw sample;
//! * **server-side** — per-stage quantiles scraped from `/metrics`
//!   (`dvbp_serve_stage_latency_ns`), where the sum of the stage
//!   `_sum`s must account for (almost all of) the end-to-end `_sum`.
//!
//! `--check` turns the cross-checks into hard failures — CI runs
//! `bench_serve --scale smoke --check --slow-us 1`, which also requires
//! the flight recorder's slow ring to be non-empty for the
//! fsync-per-event configs. `--slow-us` (default 1000, the value the
//! committed artifact uses) is the service's slow-request threshold.
//!
//! Usage (see `dvbp_bench::ledger`):
//!   bench_serve [--scale full|smoke] [--out FILE] [--check]
//!               [--slow-us US]

use dvbp_bench::ledger::{self, Cli, Provenance, Scale};
use dvbp_core::{PolicyKind, RepackPolicy, TimeMode, TraceMode};
use dvbp_dimvec::DimVec;
use dvbp_obs::expo::{http_get, http_post, merge_histograms};
use dvbp_obs::{LogHistogram, Stage, SyncPolicy};
use dvbp_serve::router::RouterKind;
use dvbp_serve::server::{serve, ServeState};
use serde::{Deserialize, Serialize};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Latency quantiles in nanoseconds (exact for the client-side sample,
/// bucket upper bounds for scraped histograms).
#[derive(Debug, Serialize, Deserialize)]
struct Quantiles {
    count: u64,
    mean_ns: f64,
    p50_ns: u64,
    p99_ns: u64,
    p999_ns: u64,
    max_ns: u64,
}

impl Quantiles {
    /// Exact quantiles of a raw sample (same rank convention as
    /// `LogHistogram::quantile`: element at rank `max(1, ceil(q·n))`).
    fn exact(samples: &mut [u64]) -> Quantiles {
        samples.sort_unstable();
        let n = samples.len();
        let at = |q: f64| {
            if n == 0 {
                return 0;
            }
            let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
            samples[rank - 1]
        };
        Quantiles {
            count: n as u64,
            mean_ns: if n == 0 {
                0.0
            } else {
                samples.iter().map(|&v| v as f64).sum::<f64>() / n as f64
            },
            p50_ns: at(0.5),
            p99_ns: at(0.99),
            p999_ns: at(0.999),
            max_ns: samples.last().copied().unwrap_or(0),
        }
    }

    fn scraped(h: &LogHistogram) -> Quantiles {
        Quantiles {
            count: h.total(),
            mean_ns: h.mean(),
            p50_ns: h.quantile(0.5),
            p99_ns: h.quantile(0.99),
            p999_ns: h.quantile(0.999),
            max_ns: h.max(),
        }
    }
}

/// One stage's scraped latency distribution.
#[derive(Debug, Serialize, Deserialize)]
struct StageRow {
    stage: String,
    latency: Quantiles,
}

/// One swept configuration's results.
#[derive(Debug, Serialize, Deserialize)]
struct ConfigResult {
    /// Stable identity: `s<shards>/<sync>/<repack>`.
    key: String,
    shards: usize,
    sync: String,
    repack: String,
    connections: usize,
    requests: u64,
    target_rate_rps: f64,
    throughput_rps: f64,
    /// Client-side RTT (exact over every request).
    e2e: Quantiles,
    /// Server-side per-stage quantiles from `/metrics`, merged over
    /// every op and shard, in serving-path order.
    stages: Vec<StageRow>,
    /// Server-side end-to-end from `/metrics` (bucket upper bounds).
    server_e2e: Quantiles,
    /// Sum over stages of the scraped `_sum`s (ns).
    stage_sum_ns: u64,
    /// The scraped end-to-end `_sum` (ns).
    e2e_sum_ns: u64,
    /// `stage_sum_ns / e2e_sum_ns` — the span accounting identity; the
    /// only unattributed time is the tail after the `reply` mark.
    stage_coverage: f64,
    /// `dvbp_serve_slow_requests_total` after the run.
    slow_total: u64,
    /// `"kind":"slow"` records captured in the `/spans` dump.
    slow_ring_len: u64,
}

#[derive(Debug, Serialize, Deserialize)]
struct Report {
    schema: String,
    scale: String,
    provenance: Option<Provenance>,
    slow_us: u64,
    configs: Vec<ConfigResult>,
}

struct Sweep {
    connections: usize,
    /// Arrive/depart pairs per connection (requests = 2 × this × K).
    items_per_conn: usize,
    rate_rps: f64,
}

fn sweep(scale: Scale) -> Sweep {
    match scale {
        Scale::Smoke => Sweep {
            connections: 2,
            items_per_conn: 60,
            rate_rps: 4_000.0,
        },
        Scale::Full => Sweep {
            connections: 8,
            items_per_conn: 250,
            rate_rps: 20_000.0,
        },
    }
}

/// The sweep grid: shard count × WAL sync policy × repack policy.
fn grid() -> Vec<(usize, &'static str, &'static str)> {
    let mut cells = Vec::new();
    for shards in [1usize, 2] {
        for sync in ["per-event", "batch:64"] {
            for repack in ["none", "drain:2"] {
                cells.push((shards, sync, repack));
            }
        }
    }
    cells
}

/// Drives one config and returns its results row.
fn run_config(
    shards: usize,
    sync_spec: &str,
    repack_spec: &str,
    sweep: &Sweep,
    slow_us: u64,
) -> ConfigResult {
    let sync = SyncPolicy::from_str(sync_spec).expect("sweep sync spec");
    let repack = RepackPolicy::from_str(repack_spec).expect("sweep repack spec");
    let wal_dir = std::env::temp_dir().join(format!(
        "bench_serve_{}_{shards}_{}_{}",
        std::process::id(),
        sync_spec.replace(':', "-"),
        repack_spec.replace(':', "-"),
    ));
    let _ = std::fs::remove_dir_all(&wal_dir);
    std::fs::create_dir_all(&wal_dir).expect("create WAL scratch dir");

    let (state, _reports) = ServeState::open(
        &wal_dir,
        &DimVec::from_slice(&[100, 100]),
        &PolicyKind::FirstFit,
        repack,
        shards,
        RouterKind::Hash,
        TraceMode::CostOnly,
        // Concurrent connections interleave ticks arbitrarily; clamp
        // keeps every shard's clock monotone without rejections.
        TimeMode::Clamp,
        sync,
        None,
    )
    .expect("boot WAL-backed service");
    state.span_hub().set_slow_threshold_ns(slow_us * 1_000);
    let state = Arc::new(state);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap().to_string();
    let server = {
        let state = Arc::clone(&state);
        std::thread::spawn(move || serve(&state, &listener).expect("serve loop"))
    };

    // Paced drive: request `i` of the global schedule is due at
    // `start + i/rate`; workers claim schedule slots with a shared
    // counter and never wait on each other, but each waits for its own
    // reply before it claims the next slot.
    let schedule = Arc::new(AtomicU64::new(0));
    let ticks = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    let rate = sweep.rate_rps;
    let mut workers = Vec::new();
    for c in 0..sweep.connections {
        let addr = addr.clone();
        let schedule = Arc::clone(&schedule);
        let ticks = Arc::clone(&ticks);
        let items = sweep.items_per_conn;
        workers.push(std::thread::spawn(move || {
            let conn = TcpStream::connect(&addr).expect("worker connect");
            conn.set_nodelay(true).expect("nodelay");
            let mut reader = BufReader::new(conn.try_clone().expect("clone"));
            let mut writer = conn;
            let mut rtts = Vec::with_capacity(2 * items);
            let mut line = String::new();
            let mut send = |req: String,
                            reader: &mut BufReader<TcpStream>,
                            writer: &mut TcpStream,
                            rtts: &mut Vec<u64>| {
                let slot = schedule.fetch_add(1, Ordering::Relaxed);
                let due = Duration::from_secs_f64(slot as f64 / rate);
                if let Some(wait) = due.checked_sub(start.elapsed()) {
                    std::thread::sleep(wait);
                }
                let sent = Instant::now();
                writeln!(writer, "{req}").expect("send request");
                line.clear();
                reader.read_line(&mut line).expect("read response");
                rtts.push(u64::try_from(sent.elapsed().as_nanos()).unwrap_or(u64::MAX));
                assert!(
                    !line.contains("\"Error\""),
                    "service rejected {req}: {line}"
                );
            };
            for i in 0..items {
                let t = ticks.fetch_add(1, Ordering::Relaxed);
                send(
                    format!(r#"{{"Arrive":{{"id":"c{c}-{i}","size":[2,3],"time":{t}}}}}"#),
                    &mut reader,
                    &mut writer,
                    &mut rtts,
                );
            }
            for i in 0..items {
                let t = ticks.fetch_add(1, Ordering::Relaxed);
                send(
                    format!(r#"{{"Depart":{{"id":"c{c}-{i}","time":{t}}}}}"#),
                    &mut reader,
                    &mut writer,
                    &mut rtts,
                );
            }
            rtts
        }));
    }
    let mut rtts: Vec<u64> = Vec::new();
    for w in workers {
        rtts.extend(w.join().expect("worker thread"));
    }
    let elapsed = start.elapsed();
    let requests = rtts.len() as u64;

    // Server-side view, scraped before shutdown.
    let metrics = http_get(&addr, "/metrics").expect("scrape /metrics");
    let spans_dump = http_get(&addr, "/spans").expect("fetch /spans");
    let _ = http_post(&addr, "/shutdown");
    server.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&wal_dir);

    let stage_hists = merge_histograms(&metrics, "dvbp_serve_stage_latency_ns", "stage");
    let server_e2e = merge_histograms(&metrics, "dvbp_serve_request_latency_ns", "")
        .remove("")
        .unwrap_or_default();
    let stage_sum_ns: u64 = stage_hists.values().map(LogHistogram::sum).sum();
    let e2e_sum_ns = server_e2e.sum();
    let slow_total = metrics
        .lines()
        .find_map(|l| l.strip_prefix("dvbp_serve_slow_requests_total "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0);
    let slow_ring_len = spans_dump
        .lines()
        .filter(|l| l.contains("\"kind\":\"slow\""))
        .count() as u64;

    ConfigResult {
        key: format!("s{shards}/{sync_spec}/{repack_spec}"),
        shards,
        sync: sync_spec.to_string(),
        repack: repack_spec.to_string(),
        connections: sweep.connections,
        requests,
        target_rate_rps: rate,
        throughput_rps: requests as f64 / elapsed.as_secs_f64(),
        e2e: Quantiles::exact(&mut rtts),
        stages: Stage::ALL
            .iter()
            .filter_map(|s| {
                stage_hists.get(s.name()).map(|h| StageRow {
                    stage: s.name().to_string(),
                    latency: Quantiles::scraped(h),
                })
            })
            .collect(),
        server_e2e: Quantiles::scraped(&server_e2e),
        stage_sum_ns,
        e2e_sum_ns,
        stage_coverage: if e2e_sum_ns == 0 {
            0.0
        } else {
            stage_sum_ns as f64 / e2e_sum_ns as f64
        },
        slow_total,
        slow_ring_len,
    }
}

/// `--check` validation: schema-level sanity plus the span accounting
/// identity. Returns every violated invariant.
fn check(report: &Report) -> Vec<String> {
    let mut bad = Vec::new();
    for c in &report.configs {
        let k = &c.key;
        if c.requests == 0 || c.e2e.count != c.requests {
            bad.push(format!(
                "{k}: client sample incomplete ({} RTTs)",
                c.e2e.count
            ));
        }
        if c.e2e.p50_ns == 0 || c.e2e.p999_ns < c.e2e.p50_ns {
            bad.push(format!("{k}: degenerate client quantiles {:?}", c.e2e));
        }
        if !c.throughput_rps.is_finite() || c.throughput_rps <= 0.0 {
            bad.push(format!("{k}: bad throughput {}", c.throughput_rps));
        }
        // Server saw every mutating request (plus nothing phantom).
        if c.server_e2e.count != c.requests {
            bad.push(format!(
                "{k}: server counted {} requests, client sent {}",
                c.server_e2e.count, c.requests
            ));
        }
        for stage in Stage::ALL {
            match c.stages.iter().find(|r| r.stage == stage.name()) {
                Some(r) if r.latency.count == c.requests => {}
                Some(r) => bad.push(format!(
                    "{k}: stage {} counted {} of {} requests",
                    stage.name(),
                    r.latency.count,
                    c.requests
                )),
                None => bad.push(format!("{k}: stage {} missing from scrape", stage.name())),
            }
        }
        // Stage sums must account for the end-to-end total: everything
        // except the post-reply tail is attributed to some stage.
        if c.stage_coverage < 0.90 || c.stage_coverage > 1.001 {
            bad.push(format!(
                "{k}: stage sums cover {:.1}% of end-to-end ({} vs {} ns)",
                100.0 * c.stage_coverage,
                c.stage_sum_ns,
                c.e2e_sum_ns
            ));
        }
        // With a ~zero threshold the fsync-per-event configs must have
        // captured slow outliers into the keep-ring.
        if report.slow_us <= 1
            && c.sync == "per-event"
            && (c.slow_total == 0 || c.slow_ring_len == 0)
        {
            bad.push(format!(
                "{k}: slow ring empty under per-event sync (total {}, ring {})",
                c.slow_total, c.slow_ring_len
            ));
        }
    }
    bad
}

fn main() -> ExitCode {
    let cli = Cli::parse("serve", &["--slow-us"]);
    let slow_us = cli.extra("--slow-us").unwrap_or(1_000);
    let bench = |scale: Scale, provenance| {
        let params = sweep(scale);
        let mut configs = Vec::new();
        for (shards, sync, repack) in grid() {
            let row = run_config(shards, sync, repack, &params, slow_us);
            eprintln!(
                "{}: {} req @ {:.0} rps, e2e p50 {:.1}us p99 {:.1}us p999 {:.1}us, \
                 stage coverage {:.1}%, {} slow",
                row.key,
                row.requests,
                row.throughput_rps,
                row.e2e.p50_ns as f64 / 1000.0,
                row.e2e.p99_ns as f64 / 1000.0,
                row.e2e.p999_ns as f64 / 1000.0,
                100.0 * row.stage_coverage,
                row.slow_total,
            );
            configs.push(row);
        }
        Report {
            schema: "dvbp-bench-serve/1".to_string(),
            scale: scale.name().to_string(),
            provenance: Some(provenance),
            slow_us,
            configs,
        }
    };
    ledger::run(&cli, bench, check)
}
