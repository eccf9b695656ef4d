//! Scrape mode: pull a running `dvbp-serve` instance's operator
//! surface and re-render it for a human.
//!
//! `dvbp-serve` exposes `/status` (a [`ServeStatus`] JSON document) and
//! `/metrics` (Prometheus text) on its dispatch port; `dvbp-monitor
//! --scrape HOST:PORT` fetches them with the workspace's one HTTP
//! client, [`dvbp_obs::expo::http_get`] — one `TcpStream`, one request,
//! `Connection: close` — and prints a per-shard summary.

use dvbp_obs::expo::{http_get, merge_histograms};
use dvbp_obs::histogram::LogHistogram;
use dvbp_obs::Stage;
use dvbp_serve::protocol::ServeStatus;

/// Fetches and parses a `dvbp-serve` `/status` document.
///
/// # Errors
///
/// Transport failures from [`http_get`], or an unparseable body.
pub fn scrape_serve_status(addr: &str) -> Result<ServeStatus, String> {
    let body = http_get(addr, "/status").map_err(|e| e.to_string())?;
    serde_json::from_str(&body).map_err(|e| format!("{addr}/status: unparseable body: {e}"))
}

/// Renders a scraped [`ServeStatus`] as a terminal summary: one header
/// line, the service totals, and one line per shard.
#[must_use]
pub fn render(addr: &str, status: &ServeStatus) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "dvbp-serve @ {addr}: {} x{} ({} router){}\n",
        status.policy,
        status.shards,
        status.router,
        if status.shutting_down {
            " [shutting down]"
        } else {
            ""
        },
    ));
    out.push_str(&format!(
        "  totals: {} arrived / {} departed, {} active, {} open bin(s) \
         ({} ever), usage {}, wal {} line(s), {} recovered, t={}\n",
        status.arrivals,
        status.departures,
        status.active_items,
        status.open_bins,
        status.bins_opened,
        status.usage_time,
        status.wal_lines,
        status.recovered_events,
        status.last_time,
    ));
    let portfolio = status.meta != "off";
    if portfolio {
        out.push_str(&format!(
            "  portfolio: meta {}, {} switch(es)\n",
            status.meta, status.policy_switches,
        ));
    }
    for s in &status.per_shard {
        out.push_str(&format!(
            "  shard {:>3}: {:>6} arrived {:>6} departed {:>5} active \
             {:>4} open usage {:>8} t={}\n",
            s.shard,
            s.arrivals,
            s.departures,
            s.active_items,
            s.open_bins,
            s.usage_time,
            s.last_time,
        ));
        if portfolio {
            let shadows = s
                .shadows
                .iter()
                .map(|sh| format!("{} cr={:.3}", sh.policy, sh.running_cr()))
                .collect::<Vec<_>>()
                .join(", ");
            out.push_str(&format!(
                "    live {} ({} switch(es)) shadows: {}\n",
                s.policy, s.policy_switches, shadows,
            ));
        }
    }
    out
}

/// Renders per-stage request-latency quantiles from a `dvbp-serve`
/// `/metrics` document: one line per span stage (merged over every op
/// and shard) plus the end-to-end distribution, each with count, mean,
/// and p50/p99/p999 bucket upper bounds in microseconds. Returns `""`
/// when the scrape carries no span histograms (an idle service).
#[must_use]
pub fn render_stage_latencies(metrics: &str) -> String {
    let total = merge_histograms(metrics, "dvbp_serve_request_latency_ns", "")
        .remove("")
        .unwrap_or_default();
    if total.total() == 0 {
        return String::new();
    }
    let stages = merge_histograms(metrics, "dvbp_serve_stage_latency_ns", "stage");

    let mut out = String::new();
    out.push_str("  request latency by stage (us; quantiles are bucket upper bounds):\n");
    out.push_str(&format!(
        "  {:<11} {:>8} {:>10} {:>10} {:>10} {:>10}\n",
        "stage", "count", "mean", "p50<=", "p99<=", "p999<="
    ));
    let line = |out: &mut String, name: &str, h: &LogHistogram| {
        out.push_str(&format!(
            "  {:<11} {:>8} {:>10.1} {:>10.1} {:>10.1} {:>10.1}\n",
            name,
            h.total(),
            h.mean() / 1000.0,
            h.quantile(0.5) as f64 / 1000.0,
            h.quantile(0.99) as f64 / 1000.0,
            h.quantile(0.999) as f64 / 1000.0,
        ));
    };
    // Stages in serving-path order, then anything unexpected, then e2e.
    for stage in Stage::ALL {
        if let Some(h) = stages.get(stage.name()) {
            line(&mut out, stage.name(), h);
        }
    }
    for (k, h) in &stages {
        if !Stage::ALL.iter().any(|s| s.name() == k) {
            line(&mut out, k, h);
        }
    }
    line(&mut out, "end-to-end", &total);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvbp_core::{PolicyKind, TimeMode, TraceMode};
    use dvbp_dimvec::DimVec;
    use dvbp_obs::SyncPolicy;
    use dvbp_serve::protocol::Request;
    use dvbp_serve::router::RouterKind;
    use dvbp_serve::server::{serve, ServeState};
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};
    use std::sync::Arc;

    fn boot_with(
        capacity: &[u64],
        kind: PolicyKind,
        portfolio: Option<&dvbp_serve::shard::PortfolioConfig>,
    ) -> (
        String,
        Arc<ServeState<Vec<u8>>>,
        std::thread::JoinHandle<()>,
    ) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let state = Arc::new(
            ServeState::in_memory(
                &DimVec::from_slice(capacity),
                &kind,
                dvbp_core::RepackPolicy::NoRepack,
                2,
                RouterKind::RoundRobin,
                TraceMode::CostOnly,
                TimeMode::Strict,
                SyncPolicy::PerEvent,
                portfolio,
            )
            .unwrap(),
        );
        let srv = {
            let state = Arc::clone(&state);
            std::thread::spawn(move || serve(&state, &listener).unwrap())
        };
        (addr, state, srv)
    }

    fn boot() -> (
        String,
        Arc<ServeState<Vec<u8>>>,
        std::thread::JoinHandle<()>,
    ) {
        boot_with(&[10, 10], PolicyKind::FirstFit, None)
    }

    #[test]
    fn scrapes_a_live_service_and_renders_per_shard_lines() {
        use std::io::BufRead as _;
        let (addr, state, srv) = boot();
        // Drive over real TCP so the connection loop records spans.
        let mut conn = TcpStream::connect(&addr).unwrap();
        let mut reader = std::io::BufReader::new(conn.try_clone().unwrap());
        let mut line = String::new();
        for i in 0..4u64 {
            writeln!(
                conn,
                r#"{{"Arrive":{{"id":"vm-{i}","size":[1,1],"time":{i}}}}}"#
            )
            .unwrap();
            line.clear();
            reader.read_line(&mut line).unwrap();
            assert!(line.contains("Placed"), "{line}");
        }
        let status = scrape_serve_status(&addr).unwrap();
        assert_eq!(status.arrivals, 4);
        assert_eq!(status.shards, 2);
        let text = render(&addr, &status);
        assert!(text.contains("FirstFit x2"), "{text}");
        assert!(text.contains("shard   0"), "{text}");
        assert!(text.contains("shard   1"), "{text}");
        // Single-policy services keep the pre-portfolio rendering.
        assert!(!text.contains("portfolio:"), "{text}");
        assert!(!text.contains("shadows:"), "{text}");

        // The Prometheus surface scrapes through the same helper, and
        // now carries span histograms plus build provenance.
        let metrics = http_get(&addr, "/metrics").unwrap();
        assert!(metrics.contains("dvbp_serve_arrivals_total 4"), "{metrics}");
        assert!(metrics.contains("dvbp_build_info{version="), "{metrics}");
        assert!(
            metrics.contains("dvbp_serve_request_latency_ns_count{op=\"arrive\""),
            "{metrics}"
        );
        let stages = render_stage_latencies(&metrics);
        for label in ["dispatch", "wal_sync", "reply", "end-to-end", "p999<="] {
            assert!(stages.contains(label), "missing {label} in:\n{stages}");
        }

        assert!(http_get(&addr, "/nope")
            .unwrap_err()
            .to_string()
            .contains("404"));
        state.handle(&Request::Shutdown);
        let _ = TcpStream::connect(&addr);
        srv.join().unwrap();
    }

    #[test]
    fn scrape_renders_the_portfolio_surface() {
        use dvbp_portfolio::MetaPolicy;
        let cfg = dvbp_serve::shard::PortfolioConfig {
            candidates: vec![PolicyKind::FirstFit, PolicyKind::NextFit],
            meta: MetaPolicy::BestOf { window: 1 },
        };
        let (addr, state, srv) = boot_with(&[10], PolicyKind::NextFit, Some(&cfg));
        // The blocker pattern from the serve-side portfolio test, doubled
        // so round-robin lands one copy on each shard: the blocker's bin
        // closes at t=3, best-of:1 flips NextFit -> FirstFit per shard.
        let arrive = |id: &str, size: u64, time: u64| Request::Arrive {
            id: id.into(),
            size: vec![size],
            time,
        };
        for shard in 0..2u32 {
            state.handle(&arrive(&format!("small-{shard}"), 3, 0));
        }
        for shard in 0..2u32 {
            state.handle(&arrive(&format!("blocker-{shard}"), 10, 1));
        }
        for shard in 0..2u32 {
            state.handle(&arrive(&format!("tail-{shard}"), 3, 2));
        }
        for shard in 0..2u32 {
            state.handle(&Request::Depart {
                id: format!("blocker-{shard}"),
                time: 3,
            });
        }
        let status = scrape_serve_status(&addr).unwrap();
        assert_eq!(status.meta, "best-of:1");
        assert_eq!(status.policy_switches, 2);
        let text = render(&addr, &status);
        assert!(
            text.contains("portfolio: meta best-of:1, 2 switch(es)"),
            "{text}"
        );
        assert!(
            text.contains("live FirstFit (1 switch(es)) shadows:"),
            "{text}"
        );
        assert!(text.contains("FirstFit cr="), "{text}");
        assert!(text.contains("NextFit cr="), "{text}");
        assert!(
            !text.contains("NaN") && !text.contains("inf"),
            "shadow CRs must render finite:\n{text}"
        );
        // The serve /metrics families survive the scrape path verbatim.
        let metrics = http_get(&addr, "/metrics").unwrap();
        assert!(
            metrics.contains("dvbp_shadow_cr{policy=\"FirstFit\"}"),
            "{metrics}"
        );
        assert!(
            metrics.contains("dvbp_serve_policy_switches_total 2"),
            "{metrics}"
        );
        state.handle(&Request::Shutdown);
        let _ = TcpStream::connect(&addr);
        srv.join().unwrap();
    }
}
