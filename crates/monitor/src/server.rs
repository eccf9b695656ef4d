//! The `/metrics` endpoint: a minimal HTTP/1.1 server on
//! [`std::net::TcpListener`].
//!
//! One blocking accept loop, one scoped thread per connection (so a
//! client that stalls mid-request holds only its own thread, and only
//! until `dvbp-serve`'s [`DEFAULT_READ_TIMEOUT_MS`] read timeout),
//! `Connection: close` on every response — exactly enough HTTP for a
//! Prometheus scraper and `curl`. The framing is `dvbp-obs`'s shared
//! [`expo`] layer; the routes are this module's:
//!
//! | path        | response                                            |
//! |-------------|-----------------------------------------------------|
//! | `/metrics`  | Prometheus text exposition of the aggregate         |
//! | `/status`   | JSON summary (runs, ratio, peaks, shutdown flag)    |
//! | `/healthz`  | `ok` (liveness)                                     |
//! | `/shutdown` | `shutting down`, then the accept loop exits         |
//!
//! Graceful shutdown: `/shutdown` flips the shared [`Monitor::shutdown`]
//! flag *before* the loop exits, so the driver thread (which polls the
//! flag between runs) and the server stop together; every in-flight
//! response is fully written before [`MonitorServer::serve`] returns.

use crate::aggregate::{Aggregate, RepackStats, SegmentStats};
use crate::prometheus;
use dvbp_core::RepackPolicy;
use dvbp_obs::expo::{self, LineRead};
use dvbp_serve::DEFAULT_READ_TIMEOUT_MS;
use dvbp_sim::Cost;
use serde::{Deserialize, Serialize};
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// The `/status` document (serialized as JSON).
///
/// `usage_time` and `lb_load` are decimal strings: they are `u128`
/// bin-tick totals that can exceed what JSON numbers represent exactly.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Status {
    /// Policy label.
    pub policy: String,
    /// Completed runs.
    pub runs: u64,
    /// Items placed over all runs.
    pub arrivals: u64,
    /// Items departed over all runs.
    pub departures: u64,
    /// Bins ever opened.
    pub bins_opened: u64,
    /// Highest simultaneously-open-bin count seen.
    pub open_bins_peak: u64,
    /// Candidate bins examined over all placements.
    pub probes: u64,
    /// Accumulated usage-time cost, as a decimal string.
    pub usage_time: String,
    /// Accumulated Lemma 1 lower bound, as a decimal string.
    pub lb_load: String,
    /// Running competitive ratio.
    pub cr_running: f64,
    /// Running CR minus one.
    pub cr_drift: f64,
    /// Mean arrival-to-placement latency (ns).
    pub mean_dispatch_ns: f64,
    /// Per-repack-policy totals (empty when no suite is active).
    pub repack: Vec<RepackStatus>,
    /// Per-live-policy segment attribution of the replayed trace (empty
    /// unless the trace carried `PolicySwitch` markers).
    pub segments: Vec<SegmentStatus>,
    /// Whether shutdown was requested.
    pub shutting_down: bool,
}

/// One live-policy segment entry in the `/status` document.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SegmentStatus {
    /// Round-trippable spelling of the policy that was live.
    pub live: String,
    /// Segments this policy drove.
    pub segments: u64,
    /// Usage-time cost attributed to it, as a decimal string.
    pub usage_time: String,
    /// Its fraction of the trace's total cost (finite; 0 on cold start).
    pub cost_share: f64,
}

/// One repack-suite entry in the `/status` document.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RepackStatus {
    /// Repack policy name (`none`, `drain:K`, `defrag:B:P`).
    pub repack: String,
    /// Completed live runs under this policy.
    pub runs: u64,
    /// Items migrated between bins.
    pub migrations: u64,
    /// Accumulated migration cost.
    pub migration_cost: u64,
    /// Running competitive ratio under this policy.
    pub cr_running: f64,
}

/// State shared between the driver thread and the HTTP handlers.
#[derive(Debug)]
pub struct Monitor {
    /// Cross-run telemetry totals.
    pub aggregate: Mutex<Aggregate>,
    /// Cooperative stop flag: set by `/shutdown`, polled by the driver.
    pub shutdown: AtomicBool,
    /// Display name of the policy being driven (metric label).
    pub policy: String,
    /// Repack suite observed alongside the batch runs, in suite order,
    /// each policy with its totals (empty without a suite). One suite
    /// pass folds every entry under one lock, so a scrape never sees the
    /// entries at different run counts.
    pub repack: Mutex<Vec<(RepackPolicy, RepackStats)>>,
    /// Per-live-policy segment attribution of the replayed trace
    /// ([`crate::aggregate::attribute_policy_segments`]); empty unless
    /// the trace carried `PolicySwitch` markers. Fixed at construction —
    /// the trace is, too.
    pub segments: Vec<(String, SegmentStats)>,
    /// Failed `accept` calls on the listener.
    pub accept_errors: AtomicU64,
}

impl Monitor {
    /// Creates an empty monitor for the given policy label, with no
    /// repack suite.
    #[must_use]
    pub fn new(policy: impl Into<String>) -> Self {
        Self::with_repack_suite(policy, &[])
    }

    /// Creates an empty monitor that also observes each run under every
    /// policy in `suite` (live engines with migration budgets), exposing
    /// per-policy `dvbp_repack_*` series on `/metrics`.
    #[must_use]
    pub fn with_repack_suite(policy: impl Into<String>, suite: &[RepackPolicy]) -> Self {
        Monitor {
            aggregate: Mutex::new(Aggregate::new()),
            shutdown: AtomicBool::new(false),
            policy: policy.into(),
            repack: Mutex::new(
                suite
                    .iter()
                    .map(|&policy| (policy, RepackStats::new()))
                    .collect(),
            ),
            segments: Vec::new(),
            accept_errors: AtomicU64::new(0),
        }
    }

    /// Attaches the per-live-policy segment attribution of a replayed
    /// portfolio trace, exposing `dvbp_segment_*` series on `/metrics`
    /// and a `segments` array on `/status`.
    #[must_use]
    pub fn with_trace_segments(mut self, segments: Vec<(String, SegmentStats)>) -> Self {
        self.segments = segments;
        self
    }

    /// Point-in-time snapshot of the repack suite: `(name, totals)` per
    /// policy, in suite order.
    ///
    /// # Panics
    ///
    /// Panics if the suite mutex is poisoned.
    #[must_use]
    pub fn repack_snapshot(&self) -> Vec<(String, RepackStats)> {
        self.repack
            .lock()
            .expect("repack suite mutex poisoned")
            .iter()
            .map(|(policy, stats)| (policy.name(), *stats))
            .collect()
    }

    /// Whether shutdown was requested.
    #[must_use]
    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Point-in-time [`Status`] document.
    ///
    /// # Panics
    ///
    /// Panics if the aggregate mutex is poisoned.
    #[must_use]
    pub fn status(&self) -> Status {
        let agg = self.aggregate.lock().expect("aggregate mutex poisoned");
        Status {
            policy: self.policy.clone(),
            runs: agg.runs,
            arrivals: agg.arrivals,
            departures: agg.departures,
            bins_opened: agg.bins_opened,
            open_bins_peak: agg.open_bins_peak,
            probes: agg.probes,
            usage_time: agg.usage_time.to_string(),
            lb_load: agg.lb_load.to_string(),
            cr_running: agg.running_cr(),
            cr_drift: agg.cr_drift(),
            mean_dispatch_ns: agg.dispatch_ns.mean(),
            repack: self
                .repack_snapshot()
                .into_iter()
                .map(|(repack, stats)| RepackStatus {
                    repack,
                    runs: stats.runs,
                    migrations: stats.migrations,
                    migration_cost: stats.migration_cost,
                    cr_running: stats.running_cr(),
                })
                .collect(),
            segments: {
                let total: Cost = self.segments.iter().map(|(_, s)| s.usage_time).sum();
                self.segments
                    .iter()
                    .map(|(live, stats)| SegmentStatus {
                        live: live.clone(),
                        segments: stats.segments,
                        usage_time: stats.usage_time.to_string(),
                        cost_share: stats.cost_share(total),
                    })
                    .collect()
            },
            shutting_down: self.shutting_down(),
        }
    }

    /// JSON body of `/status`.
    ///
    /// # Panics
    ///
    /// Panics if the aggregate mutex is poisoned or serialization fails
    /// (it cannot: the document is a flat struct of scalars).
    #[must_use]
    pub fn status_json(&self) -> String {
        serde_json::to_string(&self.status()).expect("flat status document serializes")
    }

    /// Prometheus text body of `/metrics`.
    ///
    /// # Panics
    ///
    /// Panics if the aggregate mutex is poisoned.
    #[must_use]
    pub fn metrics_text(&self) -> String {
        let mut text = {
            let agg = self.aggregate.lock().expect("aggregate mutex poisoned");
            prometheus::render(&agg, &self.policy)
        };
        text.push_str(&prometheus::render_repack(
            &self.policy,
            &self.repack_snapshot(),
        ));
        text.push_str(&prometheus::render_segments(&self.policy, &self.segments));
        // Every monitor series carries the policy label.
        let name = "dvbp_monitor_accept_errors_total";
        expo::family(&mut text, name, expo::Kind::Counter, None);
        let accept_errors = self.accept_errors.load(Ordering::Relaxed);
        expo::sample(&mut text, name, &[("policy", &self.policy)], accept_errors);
        text
    }
}

/// The accept loop plus its listener.
pub struct MonitorServer<'a> {
    listener: TcpListener,
    monitor: &'a Monitor,
}

impl<'a> MonitorServer<'a> {
    /// Binds the endpoint (use port 0 for an ephemeral test port).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: impl ToSocketAddrs, monitor: &'a Monitor) -> std::io::Result<Self> {
        Ok(MonitorServer {
            listener: TcpListener::bind(addr)?,
            monitor,
        })
    }

    /// The bound address (resolves port 0).
    ///
    /// # Errors
    ///
    /// Propagates the lookup failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until `/shutdown` is requested (or the flag is already
    /// set when a connection arrives), each connection on its own scoped
    /// thread; returns once every connection thread has finished.
    /// Per-connection I/O errors are logged and skipped; a failed
    /// `accept` is counted and the loop goes on.
    ///
    /// # Errors
    ///
    /// Only when the listener has no local address.
    pub fn serve(&self) -> io::Result<()> {
        let local = self.listener.local_addr()?;
        std::thread::scope(|scope| {
            for stream in self.listener.incoming() {
                if let Some(stream) = self.accepted(stream) {
                    scope.spawn(move || {
                        if let Err(e) = self.serve_connection(stream) {
                            eprintln!("dvbp-monitor: connection error: {e}");
                        }
                        if self.monitor.shutting_down() {
                            // Nudge the accept loop out of its blocking accept.
                            let _ = TcpStream::connect(local);
                        }
                    });
                }
                if self.monitor.shutting_down() {
                    break;
                }
            }
        });
        Ok(())
    }

    /// One `accept` outcome: the connection to serve, or `None` after a
    /// failure, counted in `dvbp_monitor_accept_errors_total` and
    /// followed by a pause of [`expo::ACCEPT_BACKOFF`].
    fn accepted(&self, stream: io::Result<TcpStream>) -> Option<TcpStream> {
        match stream {
            Ok(stream) => Some(stream),
            Err(_) => {
                self.monitor.accept_errors.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(expo::ACCEPT_BACKOFF);
                None
            }
        }
    }

    fn serve_connection(&self, mut stream: TcpStream) -> io::Result<()> {
        stream.set_read_timeout(Some(Duration::from_millis(DEFAULT_READ_TIMEOUT_MS)))?;
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut request_line = String::new();
        match expo::read_line_guarded(&mut reader, &mut request_line) {
            LineRead::Line => {}
            LineRead::TooLong => {
                return expo::respond(
                    &mut stream,
                    "431 Request Header Fields Too Large",
                    "text/plain",
                    "request line too long\n",
                );
            }
            // Closed before a request, or stalled mid-line.
            LineRead::Closed | LineRead::Stalled => return Ok(()),
        }
        let monitor = self.monitor;
        let path = expo::read_head(&mut reader, &request_line).1;
        let (status, content_type, body) = match path {
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                monitor.metrics_text(),
            ),
            "/status" => ("200 OK", "application/json", monitor.status_json()),
            "/healthz" => ("200 OK", "text/plain", "ok\n".to_string()),
            "/shutdown" => {
                monitor.shutdown.store(true, Ordering::SeqCst);
                ("200 OK", "text/plain", "shutting down\n".to_string())
            }
            _ => ("404 Not Found", "text/plain", "not found\n".to_string()),
        };
        expo::respond(&mut stream, status, content_type, &body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_json_round_trips_and_carries_the_policy() {
        let monitor = Monitor::new("FirstFit");
        let parsed: Status = serde_json::from_str(&monitor.status_json()).unwrap();
        assert_eq!(parsed.policy, "FirstFit");
        assert_eq!(parsed.runs, 0);
        assert!(!parsed.shutting_down);
        assert_eq!(parsed.usage_time, "0");
    }

    #[test]
    fn a_failed_accept_is_counted_and_the_next_connection_is_served() {
        use std::io::{BufRead, Write};
        let monitor = Monitor::new("FirstFit");
        let server = MonitorServer::bind("127.0.0.1:0", &monitor).unwrap();
        let addr = server.local_addr().unwrap();
        // EMFILE: the process is out of file descriptors.
        assert!(server
            .accepted(Err(io::Error::from_raw_os_error(24)))
            .is_none());
        let client = std::thread::spawn(move || {
            let mut conn = TcpStream::connect(addr).unwrap();
            write!(conn, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
            let mut line = String::new();
            BufReader::new(conn).read_line(&mut line).unwrap();
            line
        });
        let stream = server.accepted(server.listener.accept().map(|(s, _)| s));
        server.serve_connection(stream.unwrap()).unwrap();
        let status = client.join().unwrap();
        assert!(status.starts_with("HTTP/1.1 200"), "{status}");
        assert!(monitor
            .metrics_text()
            .contains("dvbp_monitor_accept_errors_total{policy=\"FirstFit\"} 1"));
    }

    #[test]
    fn metrics_text_is_nonempty_even_before_any_run() {
        let monitor = Monitor::new("FirstFit");
        let text = monitor.metrics_text();
        assert!(text.contains("dvbp_runs_total"));
        assert!(text.contains("dvbp_cr_running"));
    }

    #[test]
    fn repack_suite_shows_up_in_status_and_metrics() {
        let monitor = Monitor::with_repack_suite(
            "FirstFit",
            &[RepackPolicy::NoRepack, RepackPolicy::DrainOnDepart { k: 2 }],
        );
        monitor.repack.lock().unwrap()[1].1.absorb(4, 4, 30, 20);
        let status: Status = serde_json::from_str(&monitor.status_json()).unwrap();
        assert_eq!(status.repack.len(), 2);
        assert_eq!(status.repack[0].repack, "none");
        assert_eq!(status.repack[1].repack, "drain:2");
        assert_eq!(status.repack[1].migrations, 4);
        assert!((status.repack[1].cr_running - 1.5).abs() < 1e-12);
        let text = monitor.metrics_text();
        assert!(
            text.contains("dvbp_repack_migrations_total{policy=\"FirstFit\",repack=\"drain:2\"} 4"),
            "{text}"
        );
        assert!(
            text.contains("dvbp_repack_cr_running{policy=\"FirstFit\",repack=\"none\"} 1"),
            "{text}"
        );
        // A suite-less monitor keeps the old document shape: no repack
        // series at all.
        assert!(!Monitor::new("FirstFit")
            .metrics_text()
            .contains("dvbp_repack_"));
    }

    #[test]
    fn cold_start_scrape_is_nan_and_inf_free() {
        // A scrape racing the driver's first run (and even one landing
        // after cost accrued but before the first lower-bound update)
        // must expose only finite gauge samples.
        let monitor = Monitor::new("FirstFit");
        monitor.aggregate.lock().unwrap().usage_time = 7;
        let text = monitor.metrics_text();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (series, value) = line.rsplit_once(' ').unwrap();
            if series.starts_with("dvbp_cr_") {
                let v: f64 = value.parse().unwrap();
                assert!(v.is_finite(), "{line}");
            }
        }
        let status = monitor.status();
        assert!(status.cr_running.is_finite());
        assert!(status.cr_drift.is_finite());
    }
}
