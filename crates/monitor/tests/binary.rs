//! The `dvbp-monitor` binary end to end: boot it on an ephemeral port,
//! read its address from the startup banner, scrape `/metrics` and
//! `/status` over real HTTP, and stop it with `/shutdown`, once for a
//! replayed `dvbp-obs` JSONL trace and once for a cluster trace
//! streamed through the constant-memory path.

use dvbp_monitor::Status;
use dvbp_obs::expo::{http_get, http_post};
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A running monitor process.
struct Monitor {
    child: Child,
    /// Held open so the monitor's final log line has a reader.
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Monitor {
    /// Boots the monitor with `args` on an ephemeral port and reads the
    /// bound address from its banner (`... on http://ADDR/metrics ...`).
    fn boot(args: &[&str]) -> Monitor {
        let mut child = Command::new(env!("CARGO_BIN_EXE_dvbp-monitor"))
            .args(["--addr", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn dvbp-monitor");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut banner = String::new();
        stdout.read_line(&mut banner).expect("read the banner");
        let addr = banner
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split('/').next())
            .unwrap_or_else(|| panic!("no address in banner {banner:?}"))
            .to_string();
        Monitor {
            child,
            _stdout: stdout,
            addr,
        }
    }

    /// `/status` once the monitor has completed `runs` runs, and every
    /// repack-suite entry as many (or after 10 s, for the assertions to
    /// report).
    fn settled_status(&self, runs: u64) -> Status {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let body = http_get(&self.addr, "/status").expect("GET /status");
            let status: Status = serde_json::from_str(&body).expect("/status parses");
            let settled = status.runs >= runs && status.repack.iter().all(|r| r.runs >= runs);
            if settled || Instant::now() > deadline {
                return status;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// `POST /shutdown`; the process must exit cleanly within 10 s.
    fn shutdown(mut self) {
        http_post(&self.addr, "/shutdown").expect("POST /shutdown");
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(exit) = self.child.try_wait().expect("poll dvbp-monitor") {
                assert!(exit.success(), "dvbp-monitor exited with {exit}");
                return;
            }
            assert!(
                Instant::now() < deadline,
                "dvbp-monitor did not exit within 10 s of /shutdown"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

impl Drop for Monitor {
    /// Keeps a failing test from leaking the process.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A path under the workspace root.
fn workspace_file(relative: &str) -> String {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(relative)
        .to_str()
        .expect("UTF-8 path")
        .to_string()
}

#[test]
fn replayed_trace_serves_every_family_and_a_status() {
    let trace = workspace_file("tests/corpus/provenance-firstfit-bestfit.jsonl");
    let monitor = Monitor::boot(&["--trace", &trace, "--runs", "4", "--interval-ms", "10"]);
    let status = monitor.settled_status(4);
    assert_eq!(status.runs, 4, "{status:?}");
    let metrics = http_get(&monitor.addr, "/metrics").expect("GET /metrics");
    for family in [
        "dvbp_runs_total",
        "dvbp_bins_opened_total",
        "dvbp_open_bins_peak",
        "dvbp_usage_time_total",
        "dvbp_lb_load_total",
        "dvbp_cr_running",
        "dvbp_cr_drift",
        "dvbp_dispatch_latency_ns_bucket",
        "dvbp_departure_latency_ns_count",
    ] {
        assert!(metrics.contains(family), "missing family {family}");
    }
    monitor.shutdown();
}

#[test]
fn streamed_azure_fixture_reports_a_finite_running_ratio() {
    let fixture = workspace_file("crates/traces/tests/fixtures/azure_subset.csv");
    let monitor = Monitor::boot(&[
        "--stream",
        &fixture,
        "--format",
        "azure",
        "--runs",
        "2",
        "--interval-ms",
        "10",
    ]);
    let status = monitor.settled_status(2);
    assert_eq!(status.runs, 2, "{status:?}");
    assert!(status.arrivals > 0, "{status:?}");
    assert_eq!(status.arrivals, status.departures, "{status:?}");
    let lb_load: u128 = status.lb_load.parse().expect("lb_load is an integer");
    assert!(lb_load > 0, "{status:?}");
    assert!(
        status.cr_running.is_finite() && status.cr_running >= 1.0,
        "{status:?}"
    );
    // The default suite, one pass per run over the same stream: its
    // `none` entry packs what the aggregate pass packed.
    let suite: Vec<&str> = status.repack.iter().map(|r| r.repack.as_str()).collect();
    assert_eq!(suite, ["none", "drain:2", "defrag:64:8"], "{status:?}");
    for entry in &status.repack {
        assert_eq!(entry.runs, status.runs, "{status:?}");
    }
    assert_eq!(
        status.repack[0].cr_running.to_bits(),
        status.cr_running.to_bits(),
        "{status:?}"
    );
    monitor.shutdown();
}

#[test]
fn stream_rejects_a_zero_capacity_component() {
    let trace = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../traces/tests/fixtures/native_subset.csv");
    let out = Command::new(env!("CARGO_BIN_EXE_dvbp-monitor"))
        .args(["--addr", "127.0.0.1:0", "--stream"])
        .arg(&trace)
        .args(["--format", "csv", "--cap", "0,5"])
        .stdin(Stdio::null())
        .output()
        .expect("spawn dvbp-monitor");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--cap 0,5: need positive units per dimension"),
        "{stderr}"
    );
}
