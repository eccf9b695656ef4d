//! End-to-end scrape test: boot the monitor against the committed
//! provenance corpus trace, scrape `/metrics` and `/status` over real
//! TCP, then shut it down gracefully.

use dvbp_core::PolicyKind;
use dvbp_monitor::{observe_run, Monitor, MonitorServer, Status, Workload};
use dvbp_obs::expo::MAX_LINE_BYTES;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn corpus_trace() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/corpus/provenance-firstfit-bestfit.jsonl");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn get(addr: &str, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: {addr}\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a header/body split");
    (head.to_string(), body.to_string())
}

#[test]
fn scrape_metrics_status_and_shutdown() {
    // Drive every instance of the corpus trace once, live, before
    // serving — the test asserts on deterministic counters.
    let mut workload = Workload::from_trace_jsonl(&corpus_trace()).expect("corpus reconstructs");
    let monitor = Arc::new(Monitor::new("FirstFit"));
    let mut total_items = 0u64;
    for _ in 0..2 {
        let inst = workload.next_instance();
        total_items += inst.len() as u64;
        observe_run(&PolicyKind::FirstFit, &inst, &monitor.aggregate);
    }

    let server = MonitorServer::bind("127.0.0.1:0", &monitor).expect("bind ephemeral port");
    let addr = server.local_addr().unwrap().to_string();
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.serve());

        let (head, body) = get(&addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body, "ok\n");

        // /metrics: correct status + content type, all required
        // families, well-formed exposition lines.
        let (head, metrics) = get(&addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(head.contains("text/plain; version=0.0.4"), "{head}");
        for family in [
            "dvbp_runs_total",
            "dvbp_arrivals_total",
            "dvbp_bins_opened_total",
            "dvbp_open_bins_peak",
            "dvbp_usage_time_total",
            "dvbp_lb_load_total",
            "dvbp_cr_running",
            "dvbp_cr_drift",
            "dvbp_dispatch_latency_ns_bucket",
            "dvbp_index_update_latency_ns_sum",
            "dvbp_departure_latency_ns_count",
        ] {
            assert!(metrics.contains(family), "missing family {family}");
        }
        for line in metrics.lines() {
            if line.starts_with('#') {
                assert!(
                    line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                    "{line}"
                );
                continue;
            }
            let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| panic!("{line}"));
            assert!(
                series.contains("policy=\"FirstFit\"") || series.starts_with("dvbp_build_info"),
                "{line}"
            );
            assert!(
                value == "+Inf" || value.parse::<f64>().is_ok(),
                "unparseable value in {line}"
            );
        }
        // Build provenance rides along on every exposition.
        assert!(
            metrics.contains("# TYPE dvbp_build_info gauge"),
            "{metrics}"
        );
        assert!(
            metrics.contains(&format!(
                "dvbp_build_info{{version=\"{}\",",
                env!("CARGO_PKG_VERSION")
            )),
            "{metrics}"
        );
        assert!(
            metrics.contains("dvbp_runs_total{policy=\"FirstFit\"} 2"),
            "{metrics}"
        );
        assert!(
            metrics.contains(&format!(
                "dvbp_arrivals_total{{policy=\"FirstFit\"}} {total_items}"
            )),
            "{metrics}"
        );

        // /status: parses back into the Status document with matching
        // counters and a Lemma 1-consistent ratio.
        let (head, body) = get(&addr, "/status");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(head.contains("application/json"), "{head}");
        let status: Status = serde_json::from_str(&body).expect("status JSON parses");
        assert_eq!(status.policy, "FirstFit");
        assert_eq!(status.runs, 2);
        assert_eq!(status.arrivals, total_items);
        assert_eq!(status.departures, total_items);
        assert!(status.cr_running >= 1.0);
        assert!(status.cr_drift >= 0.0);
        assert!(!status.shutting_down);

        let (head, _) = get(&addr, "/no-such-route");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");

        // Graceful shutdown: the accept loop exits and the scope joins.
        let (head, body) = get(&addr, "/shutdown");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body, "shutting down\n");
        assert!(monitor.shutting_down());
        handle.join().expect("server thread").expect("serve result");
    });
}

/// One `GET` with a client-side read timeout; `Err` on any failure.
fn get_within(addr: &str, path: &str, timeout: Duration) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(timeout))?;
    write!(stream, "GET {path} HTTP/1.1\r\nHost: {addr}\r\n\r\n")?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    Ok(response)
}

#[test]
fn a_stalled_client_blocks_neither_scrapes_nor_shutdown() {
    let monitor = Monitor::new("FirstFit");
    let server = MonitorServer::bind("127.0.0.1:0", &monitor).expect("bind ephemeral port");
    let addr = server.local_addr().unwrap().to_string();
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.serve());

        // Half a request line, then silence.
        let mut stalled = TcpStream::connect(&addr).unwrap();
        stalled.write_all(b"GET /heal").unwrap();
        std::thread::sleep(Duration::from_millis(100));

        let start = Instant::now();
        let healthz = get_within(&addr, "/healthz", Duration::from_secs(2));
        let healthz_took = start.elapsed();
        let shutdown = get_within(&addr, "/shutdown", Duration::from_secs(2));
        // The loop stops once the stalled client goes away. Closing it
        // before asserting also lets a blocked server drain and exit,
        // so a failure here reports instead of hanging.
        drop(stalled);
        handle.join().expect("server thread").expect("serve result");

        let healthz = healthz.expect("/healthz answered while a client stalls");
        assert!(healthz.starts_with("HTTP/1.1 200"), "{healthz}");
        assert!(healthz.ends_with("\r\n\r\nok\n"), "{healthz}");
        assert!(healthz_took < Duration::from_secs(2), "{healthz_took:?}");
        let shutdown = shutdown.expect("/shutdown answered while a client stalls");
        assert!(shutdown.ends_with("shutting down\n"), "{shutdown}");
        assert!(monitor.shutting_down());
    });
}

#[test]
fn an_overlong_request_line_is_answered_431_before_the_read_timeout() {
    let monitor = Monitor::new("FirstFit");
    let server = MonitorServer::bind("127.0.0.1:0", &monitor).expect("bind ephemeral port");
    let addr = server.local_addr().unwrap().to_string();
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.serve());

        let mut client = TcpStream::connect(&addr).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let start = Instant::now();
        client.write_all(&vec![b'a'; MAX_LINE_BYTES + 1]).unwrap();
        // The socket stays open, so only the cap can answer this early.
        // Read until EOF, a reset (the server closes with the rest of
        // the line unread) or the 2 s client timeout.
        let mut answer = Vec::new();
        let mut buf = [0u8; 4096];
        while let Ok(n @ 1..) = client.read(&mut buf) {
            answer.extend_from_slice(&buf[..n]);
        }
        let took = start.elapsed();
        let shutdown = get_within(&addr, "/shutdown", Duration::from_secs(2));
        drop(client);
        handle.join().expect("server thread").expect("serve result");

        let answer = String::from_utf8_lossy(&answer);
        assert!(
            answer.starts_with("HTTP/1.1 431 Request Header Fields Too Large\r\n"),
            "{answer:?}"
        );
        assert!(took < Duration::from_secs(2), "{took:?}");
        shutdown.expect("/shutdown answered");
    });
}
