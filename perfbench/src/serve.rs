//! The serving workloads: the real `dvbp-serve` binary as its own
//! process, driven over loopback by the open-loop generator, killed
//! with SIGKILL and restarted on its WAL. The untraced run then times
//! the server's CPU per request in closed-loop passes on fresh server
//! processes, and the service's time per placement in process. The
//! traced run replays the same request sequence in process through
//! `ServeState::handle_spanned` and times the shadow engines and
//! recovery in passes of their own.

use crate::calib;
use crate::loadgen::{self, Conn, Req, Side};
use crate::replay::peak_rss_kb;
use crate::report::Outcome;
use crate::stats::{
    backlog_growing, due_ns, lateness_growing, max_rate, median, quantile, tail_supported,
    window_median, windowed, StepVerdict,
};
use dvbp_core::{
    EventSource, LiveOp, PolicyKind, RepackPolicy, StreamingLowerBound, TimeMode, TraceMode,
};
use dvbp_dimvec::DimVec;
use dvbp_obs::{scan_wal, ObsEvent, Span, Stage, SyncPolicy};
use dvbp_portfolio::{MetaPolicy, ShadowSet};
use dvbp_serve::router::RouterKind;
use dvbp_serve::spans::parse_histograms;
use dvbp_serve::{
    http_get, recover, shard_wal_path, PortfolioConfig, Request, Response, ServeState, ServeStatus,
};
use dvbp_traces::{Diurnal, HeavyTail};
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::str::FromStr;
use std::time::{Duration, Instant};

/// Which generator feeds a serving workload.
#[derive(Clone, Copy)]
pub enum Stream {
    /// `dvbp_traces::HeavyTail` — the `replay-azure` VM stream.
    HeavyTail,
    /// `dvbp_traces::Diurnal` — a day/night wave, ~190 bins at the peak.
    Diurnal,
}

/// One serving workload's fixed shape. Both run `dvbp-serve`'s default
/// policy, [`POLICY`], and start their ladder at the `low` step.
pub struct ServeSpec {
    pub repack: &'static str,
    pub sync: &'static str,
    /// `(--portfolio, --meta)`, when shadows run.
    pub portfolio: Option<(&'static str, &'static str)>,
    pub stream: Stream,
    /// Offered rates, ascending (requests per second).
    pub ladder: &'static [u64],
    /// Index of the `high` step in the ladder, near the knee.
    pub high: usize,
    /// Requests per throughput or service pass: the sequence's first
    /// this many.
    pub pass_requests: usize,
}

/// `serve-durable`: the default configuration (1 shard, FirstFit,
/// per-event fsync) — every ack waits for an fsync under the shard lock.
pub const DURABLE: ServeSpec = ServeSpec {
    repack: "none",
    sync: "per-event",
    portfolio: None,
    stream: Stream::HeavyTail,
    ladder: &[1_000, 2_000, 3_000, 4_000, 5_000, 6_000],
    high: 3,
    // Every request waits for an fsync, a millisecond or more.
    pass_requests: 1_024,
};

/// `serve-portfolio`: batched fsync, drain repacking and the paper's
/// seven shadow engines with best-of switching — CPU-bound.
pub const PORTFOLIO: ServeSpec = ServeSpec {
    repack: "drain:2",
    sync: "batch:64",
    portfolio: Some(("paper", "best-of:8")),
    stream: Stream::Diurnal,
    ladder: &[2_000, 4_000, 6_000, 8_000, 11_000, 14_000],
    high: 4,
    // About seven days of the `Diurnal` wave.
    pass_requests: 16_384,
};

/// The server's default policy.
const POLICY: &str = "FirstFit";
/// The `low` step: the ladder's first.
const LOW: usize = 0;
/// The p99 ack limit `max_rate_rps` is judged by (ns).
const P99_LIMIT_NS: u64 = 5_000_000;
const CAPACITY: [u64; 2] = [100, 100];
/// Share of `--seconds` the open-loop ladder takes.
const LADDER_SHARE: f64 = 0.4;
/// Unanswered requests a throughput pass keeps on its connection.
const THROUGHPUT_WINDOW: usize = 64;
/// Share of `--seconds` the throughput passes take; at least three run.
const THROUGHPUT_SHARE: f64 = 0.25;
/// Every ladder step sends at least this many requests, so its p99 has
/// at least 10 samples beyond it.
const MIN_STEP_REQUESTS: u64 = 1_200;
/// Unanswered requests each connection keeps while topping the stream
/// up to a sync batch.
const PAD_WINDOW: usize = 8;
/// Fresh boots timed for `setup_s`, restarts timed for `recover_s`.
const SETUPS: usize = 15;
const RESTARTS: usize = 3;

/// The flags this workload's server runs with.
fn server_flags(spec: &ServeSpec) -> Vec<String> {
    let mut flags: Vec<String> = [
        "--policy",
        POLICY,
        "--repack",
        spec.repack,
        "--sync",
        spec.sync,
        "--time-mode",
        "clamp",
    ]
    .iter()
    .map(|s| (*s).to_string())
    .collect();
    flags.push("--cap".to_string());
    flags.push(CAPACITY.map(|c| c.to_string()).join(","));
    if let Some((candidates, meta)) = spec.portfolio {
        for s in ["--portfolio", candidates, "--meta", meta] {
            flags.push(s.to_string());
        }
    }
    flags
}

/// The generated request sequence: the first `total` events of the
/// workload's stream, each item's two requests on connection
/// `item % 2`.
struct Sequence {
    reqs: Vec<Req>,
    conn: Vec<usize>,
    /// `lower_bound[k]`: the Lemma 1(i) lower bound of the first `k + 1`
    /// requests.
    lower_bound: Vec<u128>,
}

fn sequence(spec: &ServeSpec, seed: u64, total: usize) -> Sequence {
    let cap = DimVec::from_slice(&CAPACITY);
    let mut source: Box<dyn EventSource> = match spec.stream {
        Stream::HeavyTail => Box::new(HeavyTail::new(total, cap.clone(), seed).source()),
        Stream::Diurnal => Box::new(Diurnal::new(total, cap.clone(), seed).source()),
    };
    let mut lb = StreamingLowerBound::new(&cap);
    let mut lower_bound = Vec::with_capacity(total);
    let mut reqs = Vec::with_capacity(total);
    let mut conn = Vec::with_capacity(total);
    while reqs.len() < total {
        let op = source
            .next_event()
            .expect("generated streams are well formed")
            .expect("the stream outlasts the sequence");
        lb.observe(&op);
        lower_bound.push(lb.value());
        let (item, req) = match &op {
            LiveOp::Arrive { item, size, time } => {
                let request = Request::Arrive {
                    id: format!("vm{item}"),
                    size: size.as_slice().to_vec(),
                    time: *time,
                };
                (*item, (request, "Placed", false))
            }
            LiveOp::Depart { item, time } => {
                let request = Request::Depart {
                    id: format!("vm{item}"),
                    time: *time,
                };
                (*item, (request, "Departed", true))
            }
        };
        let (request, answer, depart) = req;
        let mut line = serde_json::to_string(&request).expect("requests serialize");
        line.push('\n');
        reqs.push(Req {
            line,
            expect: format!("{{\"{answer}\":{{\"id\":\"vm{item}\","),
            depart,
        });
        conn.push(item % 2);
    }
    Sequence {
        reqs,
        conn,
        lower_bound,
    }
}

/// A running `dvbp-serve` process, killed and reaped on drop.
struct Server {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    addr: String,
    /// Spawn → first `200` from `/healthz`.
    boot: Duration,
}

impl Server {
    fn spawn(flags: &[String], wal: &Path) -> Server {
        let bin = std::env::current_exe()
            .expect("own executable path")
            .with_file_name("dvbp-serve");
        let t0 = Instant::now();
        let mut child = Command::new(&bin)
            .args(["serve", "--addr", "127.0.0.1:0", "--wal"])
            .arg(wal)
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| panic!("spawn {}: {e}", bin.display()));
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        // The banner is printed once the listener is bound.
        let mut line = String::new();
        let addr = loop {
            line.clear();
            let n = stdout.read_line(&mut line).expect("read server banner");
            assert!(n > 0, "dvbp-serve exited before its banner");
            if line.contains("recovered event(s)") {
                let after = line
                    .rsplit(" on ")
                    .next()
                    .expect("banner names its address");
                break after
                    .split(',')
                    .next()
                    .expect("address field")
                    .trim()
                    .to_string();
            }
        };
        let mut server = Server {
            child,
            _stdout: stdout,
            addr,
            boot: Duration::ZERO,
        };
        server.healthz();
        server.boot = t0.elapsed();
        server
    }

    fn healthz(&self) {
        let body = http_get(&self.addr, "/healthz").expect("GET /healthz");
        assert_eq!(body.trim(), "ok", "healthz body");
    }

    fn status(&self) -> ServeStatus {
        let body = http_get(&self.addr, "/status").expect("GET /status");
        serde_json::from_str(&body).expect("/status parses")
    }

    fn kill(mut self) {
        self.reap();
    }

    fn reap(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.reap();
    }
}

/// Calibration-kernel samples taken at each point between boots or
/// throughput passes, while no server runs. One sample reads a fifth
/// either side of the machine's speed; a phase's median over three per
/// point, thirty or more in all, held within a few percent.
const KERNELS_PER_POINT: usize = 3;

fn kernel_samples() -> Vec<f64> {
    (0..KERNELS_PER_POINT).map(|_| calib::kernel_ns()).collect()
}

/// User plus system CPU time (s, to the microsecond) of every child
/// process this one has reaped so far, from `getrusage(RUSAGE_CHILDREN)`:
/// the difference across reaping one child is that child's CPU time.
fn reaped_children_cpu_seconds() -> f64 {
    use std::os::raw::{c_int, c_long};
    #[repr(C)]
    struct Timeval {
        sec: c_long,
        usec: c_long,
    }
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        rest: [c_long; 14],
    }
    const RUSAGE_CHILDREN: c_int = -1;
    extern "C" {
        fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    }
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `ru` is a live local laid out as Linux's `struct rusage`
    // (two `struct timeval`s of two longs, then fourteen longs).
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_CHILDREN)");
    #[allow(clippy::cast_precision_loss)]
    let secs = (ru.utime.sec + ru.stime.sec) as f64 + (ru.utime.usec + ru.stime.usec) as f64 / 1e6;
    secs
}

/// The fields a restart must reproduce exactly.
fn durable_view(s: &ServeStatus) -> String {
    let shards: Vec<String> = s
        .per_shard
        .iter()
        .map(|sh| {
            format!(
                "[{} usage {} arr {} dep {} open {} opened {} mig {} policy {} switches {} history {:?}]",
                sh.shard,
                sh.usage_time,
                sh.arrivals,
                sh.departures,
                sh.open_bins,
                sh.bins_opened,
                sh.migrations,
                sh.policy,
                sh.policy_switches,
                sh.switch_history
            )
        })
        .collect();
    format!(
        "usage {} arrivals {} departures {} active {} open {} switches {} {}",
        s.usage_time,
        s.arrivals,
        s.departures,
        s.active_items,
        s.open_bins,
        s.policy_switches,
        shards.join(" ")
    )
}

/// One ladder step's summary.
struct StepResult {
    rate: u64,
    sides: Vec<Side>,
}

impl StepResult {
    fn latencies(&self) -> Vec<u64> {
        let mut all: Vec<u64> = self
            .sides
            .iter()
            .flat_map(|s| s.latency_ns.iter().copied())
            .collect();
        all.sort_unstable();
        all
    }

    fn late(&self) -> Vec<u64> {
        let mut all: Vec<u64> = self
            .sides
            .iter()
            .flat_map(|s| s.late_ns.iter().copied())
            .collect();
        all.sort_unstable();
        all
    }

    fn failures(&self) -> u64 {
        self.sides.iter().map(|s| s.errors + s.unanswered).sum()
    }

    fn verdict(&self) -> StepVerdict {
        let lat = self.latencies();
        StepVerdict {
            rate: self.rate,
            valid: !self.sides.iter().any(|s| lateness_growing(&s.late_ns)),
            p99_ns: quantile(&lat, 0.99),
            tail_ok: tail_supported(lat.len(), 0.99),
            growing: self.sides.iter().any(|s| backlog_growing(&s.backlog)),
            errors: self.failures(),
        }
    }
}

/// Drives requests `range` of `seq` over both connections, each thread
/// sending its own connection's requests at their due times.
fn drive_range(
    conns: &mut [Conn],
    seq: &Sequence,
    range: std::ops::Range<usize>,
    rate: Option<u64>,
    epoch: Instant,
) -> Vec<Side> {
    // Start a little ahead so both threads are waiting when the first
    // request falls due.
    let start = u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(0) + 2_000_000;
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let range = range.clone();
                scope.spawn(move || {
                    let mine: Vec<usize> = range.clone().filter(|&k| seq.conn[k] == c).collect();
                    let reqs: Vec<&Req> = mine.iter().map(|&k| &seq.reqs[k]).collect();
                    let due: Vec<u64> = mine
                        .iter()
                        .map(|&k| start + rate.map_or(0, |r| due_ns((k - range.start) as u64, r)))
                        .collect();
                    let window = if rate.is_some() {
                        usize::MAX
                    } else {
                        PAD_WINDOW
                    };
                    loadgen::drive(conn, &reqs, &due, window, epoch)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread"))
            .collect()
    })
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Runs a serving workload and fills `out`.
#[allow(clippy::too_many_lines, clippy::cast_precision_loss)]
pub fn run(
    spec: &ServeSpec,
    seed: u64,
    seconds: f64,
    traced: bool,
    work: &Path,
    out: &mut Outcome,
) {
    let flags = server_flags(spec);
    let steps = spec.ladder.len() as f64;
    let counts: Vec<u64> = spec
        .ladder
        .iter()
        .map(|&r| ((r as f64 * seconds * LADDER_SHARE / steps) as u64).max(MIN_STEP_REQUESTS))
        .collect();
    let planned = counts.iter().sum::<u64>();
    let seq = sequence(
        spec,
        seed,
        usize::try_from(planned + ALIGN_SPARE).expect("sequence fits memory"),
    );

    // Set-up: fresh boots on empty WAL directories, each timed by the
    // wall clock and by the CPU time the server process used in all.
    // Each CPU-time figure is scaled by the calibration kernels timed
    // during its own phase — here before the first boot and after each:
    // the machine's speed moves within tens of milliseconds, and each
    // vCPU on its own, so neither one sample nor the run's median speaks
    // for a phase.
    let mut boot_kernel = kernel_samples();
    let mut boot_cpu = Vec::new();
    let mut boots: Vec<f64> = (0..SETUPS)
        .map(|i| {
            let dir = work.join(format!("boot-{i}"));
            let cpu0 = reaped_children_cpu_seconds();
            let server = Server::spawn(&flags, &dir);
            let secs = server.boot.as_secs_f64();
            server.kill();
            boot_cpu.push(reaped_children_cpu_seconds() - cpu0);
            let _ = std::fs::remove_dir_all(&dir);
            boot_kernel.extend(kernel_samples());
            secs
        })
        .collect();
    let wal = work.join("wal");
    let server = Server::spawn(&flags, &wal);
    boots.push(server.boot.as_secs_f64());

    // The open-loop ladder.
    let epoch = Instant::now();
    let mut conns: Vec<Conn> = (0..2)
        .map(|_| Conn::open(&server.addr).expect("connect to dvbp-serve"))
        .collect();
    let mut results = Vec::new();
    let mut at = 0usize;
    for (&rate, &count) in spec.ladder.iter().zip(&counts) {
        let range = at..at + count as usize;
        at = range.end;
        results.push(StepResult {
            rate,
            sides: drive_range(&mut conns, &seq, range, Some(rate), epoch),
        });
    }
    let mut pads = Vec::new();
    let total = align_to_sync_batch(spec, &server, &mut conns, &seq, at, epoch, &mut pads) as u64;
    drop(conns);

    // Every side that sent requests: ladder and padding.
    let all_sides: Vec<&Side> = results.iter().flat_map(|r| &r.sides).chain(&pads).collect();
    let sent: u64 = all_sides.iter().map(|s| s.sent).sum();
    let failed: u64 = all_sides.iter().map(|s| s.errors + s.unanswered).sum();
    out.attempted = total;
    out.failed = failed + (total - sent);
    out.check(
        "every-request-answered",
        out.failed == 0,
        format!(
            "{} of {total} requests failed, errored or went unanswered",
            out.failed
        ),
    );

    // Pre-kill snapshot: status, metrics, peak RSS. The server records a
    // request's span just after writing its answer, so the scrape is
    // retried briefly until the last answers' spans have landed.
    let before = server.status();
    let (metrics, server_requests) = (0..50)
        .map(|attempt| {
            if attempt > 0 {
                std::thread::sleep(Duration::from_millis(10));
            }
            let text = http_get(&server.addr, "/metrics").expect("GET /metrics");
            let handled: u64 = parse_histograms(&text, "dvbp_serve_request_latency_ns")
                .iter()
                .map(|h| h.hist.total())
                .sum();
            (text, handled)
        })
        .find(|(_, handled)| *handled >= sent)
        .unwrap_or_default();
    let rss_kb = peak_rss_kb(&server.child.id().to_string());
    out.check(
        "server-count-equals-client",
        server_requests == sent && before.arrivals + before.departures == sent - failed,
        format!(
            "server handled {server_requests} ({} applied), client sent {sent}",
            before.arrivals + before.departures
        ),
    );
    server.kill();

    // Restarts on the killed run's WAL.
    let mut recovers = Vec::new();
    let mut restart_ok = true;
    for _ in 0..RESTARTS {
        let t0 = Instant::now();
        let again = Server::spawn(&flags, &wal);
        let after = again.status();
        recovers.push(t0.elapsed().as_secs_f64());
        restart_ok &= durable_view(&after) == durable_view(&before);
        if !restart_ok {
            eprintln!(
                "before: {}\nafter:  {}",
                durable_view(&before),
                durable_view(&after)
            );
        }
        again.kill();
    }
    out.check(
        "restart-status-equals-pre-kill",
        restart_ok,
        format!(
            "{RESTARTS} restarts: usage {} arrivals {} departures {} open bins {} switches {}",
            before.usage_time,
            before.arrivals,
            before.departures,
            before.open_bins,
            before.policy_switches
        ),
    );
    let migrations: u64 = all_sides.iter().map(|s| s.migrations).sum();
    let departs: u64 = all_sides.iter().map(|s| s.departs).sum();
    if spec.portfolio.is_some() {
        out.check(
            "portfolio-not-vacuous",
            before.policy_switches >= 1 && before.migrations >= 1,
            format!(
                "{} switches, {} migrations",
                before.policy_switches, before.migrations
            ),
        );
    }

    // Ladder verdicts.
    let verdicts: Vec<StepVerdict> = results.iter().map(StepResult::verdict).collect();
    for (r, v) in results.iter().zip(&verdicts) {
        let lat = r.latencies();
        let late = r.late();
        let backlog = r
            .sides
            .iter()
            .flat_map(|s| s.backlog.iter().copied())
            .max()
            .unwrap_or(0);
        eprintln!(
            "perfbench: step {:>6} req/s: n {:>6} p50 {:>8.3} ms p99 {:>8.3} ms, \
             generator late p99 {:>7.1} us, backlog max {:>5}{}{}",
            r.rate,
            lat.len(),
            ms(quantile(&lat, 0.5)),
            ms(quantile(&lat, 0.99)),
            quantile(&late, 0.99) as f64 / 1e3,
            backlog,
            if v.growing { " GROWING" } else { "" },
            if v.valid {
                ""
            } else {
                " INVALID (generator fell behind)"
            },
        );
    }
    out.check(
        "low-step-valid",
        verdicts[LOW].valid,
        format!(
            "{} req/s: the generator kept to its schedule",
            verdicts[LOW].rate
        ),
    );
    let max_rate = max_rate(&verdicts, P99_LIMIT_NS);

    let cost: f64 = before.usage_time.parse().unwrap_or(0.0);
    let cost_ratio = cost / seq.lower_bound[total as usize - 1] as f64;

    if !traced {
        let mut throughput = throughput_passes(&flags, &seq, spec.pass_requests, seconds, work);
        out.check(
            "throughput-passes-answered",
            throughput.failed == 0,
            format!(
                "{} of {} requests over {} throughput passes failed, errored or went unanswered",
                throughput.failed,
                throughput.sent,
                throughput.rates.len()
            ),
        );
        let rate = median(&mut throughput.rates);
        let service = service_latency(
            &InProcess::new(spec),
            &seq,
            spec.pass_requests,
            seconds,
            work,
        );
        let (boot_slowdown, throughput_slowdown) = (
            calib::slowdown(&boot_kernel),
            calib::slowdown(&throughput.kernel),
        );
        out.check(
            "service-passes-answered",
            service.errors == 0,
            format!(
                "{} of {} in-process requests over {} passes answered other than Placed/Departed",
                service.errors, service.sent, service.passes
            ),
        );
        let setup = median(&mut boot_cpu);
        out.metric("events_per_s", rate * throughput_slowdown, throughput.sent);
        out.metric("lat_ms", service.scaled_ms, service.samples);
        out.metric("peak_rss_mb", rss_kb as f64 / 1024.0, 1);
        out.metric("cost_ratio", cost_ratio, 1);
        out.metric("setup_s", setup / boot_slowdown, boot_cpu.len() as u64);
        out.extra(
            "slowdown.boot",
            "ratio",
            boot_slowdown,
            boot_kernel.len() as u64,
        );
        out.extra(
            "slowdown.throughput",
            "ratio",
            throughput_slowdown,
            throughput.kernel.len() as u64,
        );
        out.extra(
            "slowdown.service",
            "ratio",
            service.slowdown,
            service.kernels,
        );
        out.extra("events_per_s.raw", "events/s", rate, throughput.sent);
        out.extra("lat_ms.raw", "ms", service.raw_ms, service.samples);
        out.extra("setup_s.raw", "s", setup, boot_cpu.len() as u64);
        out.extra(
            "setup_wall_s.raw",
            "s",
            median(&mut boots),
            boots.len() as u64,
        );
        out.extra(
            "recover_s",
            "s",
            median(&mut recovers),
            recovers.len() as u64,
        );
        // A step whose generator fell behind is not reported.
        for (name, idx) in [("low", LOW), ("high", spec.high)] {
            if !verdicts[idx].valid {
                continue;
            }
            let lat = results[idx].latencies();
            let n = lat.len() as u64;
            out.extra(
                &format!("ack_p50_ms.{name}"),
                "ms",
                ms(quantile(&lat, 0.5)),
                n,
            );
            if tail_supported(lat.len(), 0.99) {
                out.extra(
                    &format!("ack_p99_ms.{name}"),
                    "ms",
                    ms(quantile(&lat, 0.99)),
                    n,
                );
            }
        }
        out.extra(
            "max_rate_rps",
            "req/s",
            max_rate.unwrap_or(0) as f64,
            verdicts.len() as u64,
        );
        out.extra(
            "error_frac",
            "fraction",
            out.failed as f64 / total as f64,
            total,
        );
        return;
    }

    // Per-layer figures from the untraced run.
    let high_late = results[spec.high].late();
    out.metric(
        "client.late_us.p99",
        quantile(&high_late, 0.99) as f64 / 1e3,
        high_late.len() as u64,
    );
    let backlog_max = results[spec.high]
        .sides
        .iter()
        .flat_map(|s| s.backlog.iter().copied())
        .max()
        .unwrap_or(0);
    out.metric(
        "client.backlog.max",
        f64::from(backlog_max),
        high_late.len() as u64,
    );
    out.metric(
        "repack.migrations_per_depart",
        migrations as f64 / departs.max(1) as f64,
        departs,
    );
    out.metric("portfolio.switches", before.policy_switches as f64, 1);
    let wal_bytes: u64 = std::fs::read_dir(&wal)
        .expect("read WAL directory")
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum();
    out.metric(
        "wal.bytes_per_req",
        wal_bytes as f64 / (sent - failed).max(1) as f64,
        sent - failed,
    );
    stage_shares(&metrics, out);

    let cfg = InProcess::new(spec);
    layer_passes(
        &cfg,
        &seq,
        spec.ladder[spec.high],
        counts[spec.high],
        work,
        out,
    );
    shadow_pass(&cfg, &wal, out);
    recovery_pass(&cfg, &wal, out);
}

/// Placements per latency window of a service pass.
const LATENCY_WINDOW: usize = 250;
/// Requests between calibration-kernel samples in a service pass. Kernel
/// samples half a second apart differed by up to a fifth and more; a
/// sample every 2,048 requests (about 0.1 s) follows the machine's speed
/// closely enough that scaling each placement by it held `lat_ms` of
/// five seeds within 4%.
const KERNEL_EVERY: usize = 2_048;
/// Share of `--seconds` the service passes take; at least three run.
const SERVICE_SHARE: f64 = 0.2;

/// The gated `lat_ms` of a serving workload.
struct ServiceLatency {
    /// Per pass, the median over windows of [`LATENCY_WINDOW`]
    /// placements of their median, each placement scaled by the kernel
    /// timed around it; then the median over passes (ms).
    scaled_ms: f64,
    /// The same, unscaled.
    raw_ms: f64,
    /// The median kernel's slowdown, and the kernel count (for reading).
    slowdown: f64,
    kernels: u64,
    passes: u64,
    /// Placements timed over all passes.
    samples: u64,
    /// Requests sent, and answers other than the expected `Placed` /
    /// `Departed`, over all passes.
    sent: u64,
    errors: u64,
}

/// `lat_ms`: the service's own time for one placement, the request
/// handling a client waits for minus the transport — decode,
/// `ServeState::handle` (engine, shadows, repack, WAL append and the
/// batch sync), encode. Each pass sends the same prefix of the
/// generated sequence back to back, on one thread, into a fresh
/// in-process service with the workload's configuration and a WAL
/// directory of its own; passes repeat for a share of `--seconds`. The
/// calibration kernel is timed before the first pass and after every
/// [`KERNEL_EVERY`] requests.
///
/// The ack latency the generator sees over loopback is reported too
/// (`ack_p50_ms.*`), but is not gated: on a shared 2-vCPU VM it is
/// mostly timer and vCPU wake-ups. Three runs back to back put the `low`
/// step's median at 0.28–0.62 ms with the generator's own lateness at
/// 6–15 ms at the 99th percentile, and over ten runs the interquartile
/// range of that median reached three times the median itself.
#[allow(clippy::cast_precision_loss)]
fn service_latency(
    cfg: &InProcess,
    seq: &Sequence,
    requests: usize,
    seconds: f64,
    work: &Path,
) -> ServiceLatency {
    let reqs = &seq.reqs[..seq.reqs.len().min(requests)];
    let start = Instant::now();
    let mut kernel = vec![calib::kernel_ns()];
    let (mut scaled, mut raw) = (Vec::new(), Vec::new());
    let (mut samples, mut sent, mut errors) = (0, 0, 0);
    while raw.len() < 3 || start.elapsed().as_secs_f64() < seconds * SERVICE_SHARE {
        let dir = work.join(format!("service-{}", raw.len()));
        let pass = service_pass(cfg, reqs, &dir, &mut kernel, &mut errors);
        let _ = std::fs::remove_dir_all(&dir);
        let typical = |ns: &[u64]| windowed(ns.chunks_exact(LATENCY_WINDOW), window_median).0 / 1e6;
        raw.push(typical(&pass.raw));
        scaled.push(typical(&pass.scaled));
        samples += pass.raw.len() as u64;
        sent += reqs.len() as u64;
    }
    ServiceLatency {
        scaled_ms: median(&mut scaled),
        raw_ms: median(&mut raw),
        slowdown: calib::slowdown(&kernel),
        kernels: kernel.len() as u64,
        passes: raw.len() as u64,
        samples,
        sent,
        errors,
    }
}

/// One service pass's placement times (ns), in send order.
struct ServicePass {
    raw: Vec<u64>,
    /// Each divided by the slowdown the kernel read around it.
    scaled: Vec<u64>,
}

/// One service pass: `reqs` into a fresh service on `dir`, the kernel
/// timed after every [`KERNEL_EVERY`] requests (the last sample in
/// `kernel` must be fresh). Counts wrong answers into `errors`.
#[allow(
    clippy::cast_precision_loss,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss
)]
fn service_pass(
    cfg: &InProcess,
    reqs: &[Req],
    dir: &Path,
    kernel: &mut Vec<f64>,
    errors: &mut u64,
) -> ServicePass {
    let state = cfg.open(dir);
    let mut raw = Vec::with_capacity(reqs.len());
    let mut scaled = Vec::with_capacity(reqs.len());
    for chunk in reqs.chunks(KERNEL_EVERY) {
        let first = raw.len();
        for req in chunk {
            let t0 = Instant::now();
            let request: Request =
                serde_json::from_str(req.line.trim_end()).expect("request parses");
            let response = state.handle(&request);
            let text = serde_json::to_string(&response).expect("response serializes");
            let elapsed = nanos(t0.elapsed());
            if !text.starts_with(&req.expect) {
                *errors += 1;
            } else if !req.depart {
                raw.push(elapsed);
            }
        }
        kernel.push(calib::kernel_ns());
        let slowdown = calib::slowdown(&kernel[kernel.len() - 2..]);
        scaled.extend(raw[first..].iter().map(|&ns| (ns as f64 / slowdown) as u64));
    }
    ServicePass { raw, scaled }
}

/// The `events_per_s` of a serving workload.
struct Throughput {
    /// Per pass, requests applied ÷ the server's CPU time.
    rates: Vec<f64>,
    /// The calibration kernel, timed before the first pass and after
    /// each.
    kernel: Vec<f64>,
    sent: u64,
    failed: u64,
}

/// `events_per_s`: the server's capacity per CPU-second. Each pass boots
/// a fresh `dvbp-serve` with the workload's flags on a WAL directory of
/// its own and sends it the sequence's first `requests`
/// over one connection in closed loop, [`THROUGHPUT_WINDOW`] in flight,
/// so the server never waits for work and reads many requests at a
/// time; then kills it. The pass's rate is the requests applied ÷ the
/// process's CPU time from spawn to kill (user + system, boot included:
/// under 1% of it). Passes repeat for a share of `--seconds`.
///
/// Each pass is a process of its own because the same server's rate
/// moved by a tenth from one process to the next while the in-process
/// service time did not; the median over processes follows the program,
/// not the draw of one process. CPU time, not wall time, because the
/// generator shares the two vCPUs with the server.
#[allow(clippy::cast_precision_loss)]
fn throughput_passes(
    flags: &[String],
    seq: &Sequence,
    requests: usize,
    seconds: f64,
    work: &Path,
) -> Throughput {
    let reqs: Vec<&Req> = seq.reqs.iter().take(requests).collect();
    let start = Instant::now();
    let mut out = Throughput {
        rates: Vec::new(),
        kernel: kernel_samples(),
        sent: 0,
        failed: 0,
    };
    while out.rates.len() < 3 || start.elapsed().as_secs_f64() < seconds * THROUGHPUT_SHARE {
        let dir = work.join(format!("throughput-{}", out.rates.len()));
        let cpu0 = reaped_children_cpu_seconds();
        let server = Server::spawn(flags, &dir);
        let mut conn = Conn::open(&server.addr).expect("connect to dvbp-serve");
        let epoch = Instant::now();
        let side = loadgen::drive(
            &mut conn,
            &reqs,
            &vec![0; reqs.len()],
            THROUGHPUT_WINDOW,
            epoch,
        );
        drop(conn);
        server.kill();
        let cpu = reaped_children_cpu_seconds() - cpu0;
        let _ = std::fs::remove_dir_all(&dir);
        out.kernel.extend(kernel_samples());
        // Requests never sent count as unanswered.
        let failed = side.errors + side.unanswered;
        out.rates.push((reqs.len() as u64 - failed) as f64 / cpu);
        out.sent += reqs.len() as u64;
        out.failed += failed;
    }
    out
}

/// Spare requests generated past the plan, for batch alignment.
const ALIGN_SPARE: u64 = 1_024;

/// With `--sync batch:N`, up to N − 1 acknowledged operations sit in the
/// WAL's write buffer until the next batch commit, and SIGKILL loses
/// them by design. So that a restart must reproduce the pre-kill state
/// exactly, top the stream up with further requests until the shard's
/// commit count (the log header, one per applied request, one per policy
/// switch) is a multiple of N, which makes the last commit a sync. The
/// padding requests count like any other. Returns how many requests of
/// `seq` were sent in all.
fn align_to_sync_batch(
    spec: &ServeSpec,
    server: &Server,
    conns: &mut [Conn],
    seq: &Sequence,
    mut sent: usize,
    epoch: Instant,
    sides: &mut Vec<Side>,
) -> usize {
    let Some(batch) = spec.sync.strip_prefix("batch:") else {
        return sent;
    };
    let batch: u64 = batch.parse().expect("batch size parses");
    loop {
        let st = server.status();
        let commits = 1 + st.arrivals + st.departures + st.policy_switches;
        let pad = ((batch - commits % batch) % batch) as usize;
        if pad == 0 {
            return sent;
        }
        assert!(sent + pad <= seq.reqs.len(), "out of spare requests");
        sides.extend(drive_range(conns, seq, sent..sent + pad, None, epoch));
        sent += pad;
    }
}

/// `server.stage_share.<stage>`: each stage's share of the summed stage
/// time in the server's own `/metrics`, over every op and shard.
#[allow(clippy::cast_precision_loss)]
fn stage_shares(metrics: &str, out: &mut Outcome) {
    let scraped = parse_histograms(metrics, "dvbp_serve_stage_latency_ns");
    let sum_of = |stage: &str| -> u64 {
        scraped
            .iter()
            .filter(|h| h.label("stage") == stage)
            .map(|h| h.hist.sum())
            .sum()
    };
    let total: u64 = Stage::ALL.iter().map(|s| sum_of(s.name())).sum();
    for stage in Stage::ALL {
        out.metric(
            &format!("server.stage_share.{}", stage.name()),
            sum_of(stage.name()) as f64 / total.max(1) as f64,
            scraped.len() as u64,
        );
    }
}

/// The workload's server configuration, as library values.
struct InProcess {
    capacity: DimVec,
    policy: PolicyKind,
    repack: RepackPolicy,
    sync: SyncPolicy,
    portfolio: Option<PortfolioConfig>,
}

impl InProcess {
    fn new(spec: &ServeSpec) -> InProcess {
        InProcess {
            capacity: DimVec::from_slice(&CAPACITY),
            policy: PolicyKind::from_str(POLICY).expect("policy parses"),
            repack: RepackPolicy::from_str(spec.repack).expect("repack parses"),
            sync: SyncPolicy::from_str(spec.sync).expect("sync parses"),
            portfolio: spec.portfolio.map(|(candidates, meta)| PortfolioConfig {
                candidates: dvbp_portfolio::parse_candidates(candidates).expect("candidates parse"),
                meta: MetaPolicy::from_str(meta).expect("meta parses"),
            }),
        }
    }

    fn open(&self, dir: &Path) -> ServeState<std::io::BufWriter<std::fs::File>> {
        ServeState::open(
            dir,
            &self.capacity,
            &self.policy,
            self.repack,
            1,
            RouterKind::Hash,
            TraceMode::CostOnly,
            TimeMode::Clamp,
            self.sync,
            self.portfolio.as_ref(),
        )
        .expect("open in-process service")
        .0
    }
}

/// One in-process request's timings (ns).
#[derive(Clone, Copy, Default)]
struct Timed {
    decode: u64,
    encode: u64,
    total: u64,
    stages: [u64; Stage::COUNT],
    depart: bool,
}

/// Replays `count` requests of `seq` at `rate` on two threads against an
/// in-process service, traced (bench-owned spans, timed codec) or not.
fn in_process_pass(
    cfg: &InProcess,
    seq: &Sequence,
    rate: u64,
    count: usize,
    dir: &Path,
    traced: bool,
) -> Vec<Timed> {
    let state = cfg.open(dir);
    let epoch = Instant::now() + Duration::from_millis(2);
    let timed: Vec<Vec<Timed>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|c| {
                let state = &state;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for k in (0..count).filter(|&k| seq.conn[k] == c) {
                        let due = epoch + Duration::from_nanos(due_ns(k as u64, rate));
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let req = &seq.reqs[k];
                        let t0 = Instant::now();
                        let request: Request =
                            serde_json::from_str(req.line.trim_end()).expect("request parses");
                        let t1 = Instant::now();
                        let (response, stages) = if traced {
                            let mut span = Span::begin();
                            let (response, shard) = state.handle_spanned(&request, &mut span);
                            span.mark(Stage::Reply);
                            let ok = !matches!(response, Response::Error { .. });
                            (response, span.finish(shard, ok).stage_ns)
                        } else {
                            (state.handle(&request), [0; Stage::COUNT])
                        };
                        let t2 = Instant::now();
                        let text = serde_json::to_string(&response).expect("response serializes");
                        let t3 = Instant::now();
                        assert!(text.starts_with(&req.expect), "in-process answer {text}");
                        out.push(Timed {
                            decode: nanos(t1 - t0),
                            encode: nanos(t3 - t2),
                            total: nanos(t3 - t0),
                            stages,
                            depart: req.depart,
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread"))
            .collect()
    });
    timed.into_iter().flatten().collect()
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The traced in-process replay at the `high` rate, plus an untraced
/// one for the overhead.
#[allow(clippy::cast_precision_loss)]
fn layer_passes(
    cfg: &InProcess,
    seq: &Sequence,
    rate: u64,
    count: u64,
    work: &Path,
    out: &mut Outcome,
) {
    let count = usize::try_from(count).expect("count fits");
    let plain = in_process_pass(cfg, seq, rate, count, &work.join("inproc-plain"), false);
    let traced = in_process_pass(cfg, seq, rate, count, &work.join("inproc-traced"), true);
    let n = traced.len() as u64;
    let total: u64 = traced.iter().map(|t| t.total).sum();
    let stage = |s: Stage| -> Vec<u64> {
        let mut v: Vec<u64> = traced.iter().map(|t| t.stages[s.index()]).collect();
        v.sort_unstable();
        v
    };
    let sum = |v: &[u64]| v.iter().sum::<u64>();
    let share = |ns: u64| ns as f64 / total.max(1) as f64;
    let us = |ns: u64| ns as f64 / 1e3;
    let decode: u64 = traced.iter().map(|t| t.decode).sum();
    let encode: u64 = traced.iter().map(|t| t.encode).sum();
    out.metric("serve.decode_ns", decode as f64 / n as f64, n);
    out.metric("serve.encode_ns", encode as f64 / n as f64, n);
    out.metric("serve.codec.share", share(decode + encode), n);
    let route = stage(Stage::Route);
    out.metric("serve.route_ns", sum(&route) as f64 / n as f64, n);
    out.metric("serve.route.share", share(sum(&route)), n);
    let mut accounted = decode + encode + sum(&route);
    for (s, prefix) in [
        (Stage::LockWait, "serve.lock_wait"),
        (Stage::Dispatch, "serve.dispatch"),
        (Stage::WalAppend, "wal.append"),
        (Stage::WalSync, "wal.sync"),
    ] {
        let v = stage(s);
        out.metric(&format!("{prefix}_us.p50"), us(quantile(&v, 0.5)), n);
        out.metric(&format!("{prefix}_us.p99"), us(quantile(&v, 0.99)), n);
        out.metric(&format!("{prefix}.share"), share(sum(&v)), n);
        accounted += sum(&v);
    }
    let post = stage(Stage::Reply);
    out.metric("serve.post_us.p50", us(quantile(&post, 0.5)), n);
    out.metric("serve.post.share", share(sum(&post)), n);
    let mut repack: Vec<u64> = traced
        .iter()
        .filter(|t| t.depart)
        .map(|t| t.stages[Stage::Repack.index()])
        .collect();
    repack.sort_unstable();
    out.metric(
        "repack.us.p99",
        us(quantile(&repack, 0.99)),
        repack.len() as u64,
    );
    out.metric("repack.share", share(sum(&repack)), repack.len() as u64);
    accounted += sum(&post) + sum(&repack);
    out.metric("driver.share", share(total.saturating_sub(accounted)), n);
    let plain_mean = plain.iter().map(|t| t.total).sum::<u64>() as f64 / plain.len().max(1) as f64;
    let traced_mean = total as f64 / n.max(1) as f64;
    out.metric(
        "trace.overhead_frac",
        (traced_mean - plain_mean) / plain_mean,
        n,
    );
}

/// The arrivals and departures the killed run's WAL accepted, in order.
fn accepted_ops(wal: &Path) -> (Vec<u8>, Vec<LiveOp>) {
    let bytes = std::fs::read(shard_wal_path(wal, 0)).expect("read the WAL");
    let scan = scan_wal(&bytes).expect("the WAL scans");
    let ops = scan
        .events
        .iter()
        .filter_map(|ev| match ev {
            ObsEvent::Arrival { time, item, size } => Some(LiveOp::Arrive {
                item: *item,
                size: DimVec::from_slice(size),
                time: *time,
            }),
            ObsEvent::Depart { time, item, .. } => Some(LiveOp::Depart {
                item: *item,
                time: *time,
            }),
            _ => None,
        })
        .collect();
    (bytes, ops)
}

/// `portfolio.shadow_ns_per_event`: the shadow engines fed the accepted
/// stream on their own (0 for a workload without shadows).
#[allow(clippy::cast_precision_loss)]
fn shadow_pass(cfg: &InProcess, wal: &Path, out: &mut Outcome) {
    let Some(pf) = &cfg.portfolio else {
        out.metric("portfolio.shadow_ns_per_event", 0.0, 0);
        return;
    };
    let (_, ops) = accepted_ops(wal);
    let mut shadows = ShadowSet::new(&cfg.capacity, TimeMode::Clamp, &pf.candidates, ops.len())
        .expect("shadow set builds");
    let t0 = Instant::now();
    for op in &ops {
        match op {
            LiveOp::Arrive { size, time, .. } => shadows.arrive(size, *time),
            LiveOp::Depart { item, time } => shadows.depart(*item, *time),
        }
    }
    let elapsed = t0.elapsed();
    out.metric(
        "portfolio.shadow_ns_per_event",
        nanos(elapsed) as f64 / ops.len().max(1) as f64,
        ops.len() as u64,
    );
}

/// `recovery.*`: the killed run's WAL scanned, then recovered, in
/// process.
#[allow(clippy::cast_precision_loss)]
fn recovery_pass(cfg: &InProcess, wal: &Path, out: &mut Outcome) {
    let (bytes, _) = accepted_ops(wal);
    let t0 = Instant::now();
    let scan = scan_wal(&bytes).expect("the WAL scans");
    let scan_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let recovered = recover(
        &bytes,
        &cfg.capacity,
        &cfg.policy,
        cfg.repack,
        TraceMode::CostOnly,
        TimeMode::Clamp,
        cfg.portfolio.as_ref(),
    )
    .expect("the WAL recovers");
    let recover_s = t1.elapsed().as_secs_f64();
    let events = scan.events.len() as u64;
    out.metric("recovery.scan_ms", scan_s * 1e3, events);
    out.metric(
        "recovery.replay_ms",
        (recover_s - scan_s).max(0.0) * 1e3,
        events,
    );
    out.metric(
        "recovery.events_per_s",
        recovered.events_applied as f64 / recover_s,
        events,
    );
}
