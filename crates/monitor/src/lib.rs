//! `dvbp-monitor`: a long-running telemetry service for DVBP packing.
//!
//! The experiment harnesses answer "what was the competitive ratio" after
//! the fact; an operator running an Any Fit policy against live demand
//! wants the same quantities *while the system runs*. This crate wires
//! the observability layer into a small service:
//!
//! * [`driver`] — replays workloads through the engine (synthetic
//!   [`UniformParams`](dvbp_workloads::UniformParams) streams, or
//!   instances reconstructed from a recorded `dvbp-obs` JSONL trace)
//!   with a [`MetricsObserver`](dvbp_obs::MetricsObserver) +
//!   [`TimingObserver`](dvbp_obs::TimingObserver) stack attached;
//! * [`aggregate`] — folds each finished run into cross-run totals:
//!   usage-time cost against the Lemma 1 `lb_load` lower bound (the
//!   running competitive-ratio drift), open-bin peaks, probe counts, and
//!   merged wall-clock latency histograms; plus per-repack-policy
//!   totals ([`RepackStats`]) when a repack suite is active — each run
//!   is replayed once more through one
//!   [`EngineSet`](dvbp_core::EngineSet) that packs it under every
//!   configured [`RepackPolicy`](dvbp_core::RepackPolicy) behind one
//!   feed and one lower bound, so `/metrics` exposes the
//!   CR-vs-migration-cost frontier live;
//! * [`prometheus`] — renders the aggregate in Prometheus text
//!   exposition format (version 0.0.4);
//! * [`server`] — serves `/metrics`, `/status` (JSON), `/healthz`, and
//!   `/shutdown` over a plain [`std::net::TcpListener`] — no HTTP
//!   framework, one scoped thread per connection (a stalled client
//!   cannot hold up other scrapes or `/shutdown`), graceful stop;
//! * [`scrape`] — the other direction: pull `/status` / `/metrics` from
//!   a running `dvbp-serve` dispatch service and re-render it
//!   (`dvbp-monitor --scrape HOST:PORT`).
//!
//! Exposition, HTTP framing and the HTTP client are `dvbp-obs`'s
//! [`dvbp_obs::expo`], shared with `dvbp-serve`.
//!
//! The binary (`dvbp-monitor`) runs the driver on one thread and the
//! accept loop on the main thread; `GET /shutdown` (or the driver
//! finishing a bounded `--runs` budget plus a later `/shutdown`) stops
//! both cleanly.

pub mod aggregate;
pub mod driver;
pub mod prometheus;
pub mod scrape;
pub mod server;

pub use aggregate::{Aggregate, RepackStats};
pub use driver::{
    observe_repack_suite, observe_run, observe_source_run, reconstruct_instance, Workload,
};
pub use scrape::{render_stage_latencies, scrape_serve_status};
pub use server::{Monitor, MonitorServer, RepackStatus, Status};
