//! The dispatch service: shard set, request handling, and the TCP
//! front end.
//!
//! One listening port speaks **two** protocols, distinguished by the
//! first line of each connection (the same hand-rolled discipline as
//! `dvbp-monitor` — no HTTP library):
//!
//! * Lines starting with an HTTP method (`GET` / `POST` / `HEAD`) get
//!   the operator surface: `/healthz`, `/status` (the
//!   [`ServeStatus`] JSON), `/metrics` (Prometheus text for
//!   `dvbp-monitor --scrape`), and `POST /shutdown`.
//! * Anything else is treated as a newline-delimited JSON session: one
//!   [`Request`] per line, one [`Response`] per line, until EOF or
//!   `Shutdown`.
//!
//! Handling is thread-per-connection; each shard sits behind its own
//! mutex, so requests for different shards proceed in parallel while
//! the router itself stays lock-free on the hash path. A portfolio
//! shard also owns one shadow worker thread (see [`crate::shard`]).
//!
//! A shard that has failed — its WAL failed, its shadow worker died, or
//! a request panicked while holding its lock — answers every request
//! routed to it with a typed error (`wal` or `shard-failed`) and counts
//! it in `dvbp_serve_shard_refused_total`; `/healthz` answers 503 while
//! any shard has failed, and `/status` and `/metrics` keep answering.

use crate::protocol::{error_code, Request, Response, ServeStatus};
use crate::router::{Router, RouterKind};
use crate::shard::{mark, PortfolioConfig, Shard, ShardError};
use crate::spans::SpanHub;
use crate::wal::{open_shard, RecoveryReport, WalOpenError};
use dvbp_core::{LiveError, PolicyKind, RepackPolicy, TimeMode, TraceMode};
use dvbp_dimvec::DimVec;
use dvbp_obs::expo::Kind::{self, Counter, Gauge};
use dvbp_obs::expo::{self, LineRead};
use dvbp_obs::{OpKind, Span, SpanRecord, StableWrite, Stage, SyncPolicy};
use dvbp_sim::Time;
use std::fmt::Display;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Default per-connection read timeout: long enough for any interactive
/// client, short enough that a stalled partial line cannot pin a
/// handler thread indefinitely.
pub const DEFAULT_READ_TIMEOUT_MS: u64 = 10_000;

/// The full service state: shards, router, span sink, and shutdown
/// latch.
pub struct ServeState<W: StableWrite> {
    shards: Vec<Mutex<Shard<W>>>,
    router: Router,
    policy: PolicyKind,
    repack: RepackPolicy,
    portfolio: Option<PortfolioConfig>,
    spans: SpanHub,
    /// Per-connection socket read timeout (ms; 0 disables).
    read_timeout_ms: AtomicU64,
    shutting_down: AtomicBool,
    /// Per shard: requests refused because the shard had failed.
    refused: Vec<AtomicU64>,
    /// Failed `accept` calls on the listener.
    accept_errors: AtomicU64,
}

impl ServeState<Vec<u8>> {
    /// A service over in-memory WALs (tests, benches, conformance).
    ///
    /// # Errors
    ///
    /// [`ShardError`] for clairvoyant policy kinds.
    #[allow(clippy::too_many_arguments)] // the shard's full configuration surface
    pub fn in_memory(
        capacity: &DimVec,
        kind: &PolicyKind,
        repack: RepackPolicy,
        shards: usize,
        router: RouterKind,
        trace: TraceMode,
        time_mode: TimeMode,
        sync: SyncPolicy,
        portfolio: Option<&PortfolioConfig>,
    ) -> Result<Self, ShardError> {
        let shard_states = (0..shards)
            .map(|s| {
                let mut shard = Shard::create(
                    capacity.clone(),
                    kind,
                    repack,
                    trace,
                    time_mode,
                    Vec::new(),
                    sync,
                    portfolio,
                )?;
                shard.label(s);
                Ok(Mutex::new(shard))
            })
            .collect::<Result<Vec<_>, ShardError>>()?;
        Ok(ServeState {
            shards: shard_states,
            router: Router::new(router, shards),
            policy: kind.clone(),
            repack,
            portfolio: portfolio.cloned(),
            spans: SpanHub::new(shards),
            read_timeout_ms: AtomicU64::new(DEFAULT_READ_TIMEOUT_MS),
            shutting_down: AtomicBool::new(false),
            refused: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            accept_errors: AtomicU64::new(0),
        })
    }

    /// Consumes the service and returns each shard's state (the
    /// conformance harness snapshots engines and WAL bytes).
    #[must_use]
    pub fn into_shards(self) -> Vec<Shard<Vec<u8>>> {
        self.shards
            .into_iter()
            .map(|m| m.into_inner().unwrap_or_else(PoisonError::into_inner))
            .collect()
    }
}

impl ServeState<BufWriter<File>> {
    /// Opens (recovering if present) a file-backed service under
    /// `wal_dir` and returns it with one [`RecoveryReport`] per shard.
    ///
    /// # Errors
    ///
    /// [`WalOpenError`] if any shard's log cannot be recovered.
    #[allow(clippy::too_many_arguments)] // in_memory's surface plus the WAL dir
    pub fn open(
        wal_dir: &Path,
        capacity: &DimVec,
        kind: &PolicyKind,
        repack: RepackPolicy,
        shards: usize,
        router: RouterKind,
        trace: TraceMode,
        time_mode: TimeMode,
        sync: SyncPolicy,
        portfolio: Option<&PortfolioConfig>,
    ) -> Result<(Self, Vec<RecoveryReport>), WalOpenError> {
        let mut shard_states = Vec::with_capacity(shards);
        let mut reports = Vec::with_capacity(shards);
        for s in 0..shards {
            let (shard, report) = open_shard(
                wal_dir, s, capacity, kind, repack, trace, time_mode, sync, portfolio,
            )?;
            shard_states.push(shard);
            reports.push(report);
        }
        let state = ServeState {
            router: Router::new(router, shards),
            policy: kind.clone(),
            repack,
            portfolio: portfolio.cloned(),
            spans: SpanHub::new(shards),
            read_timeout_ms: AtomicU64::new(DEFAULT_READ_TIMEOUT_MS),
            shutting_down: AtomicBool::new(false),
            refused: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            accept_errors: AtomicU64::new(0),
            shards: Vec::new(),
        };
        // Rebuild the routing directory from the recovered id tables.
        state.router.seed(
            shard_states
                .iter()
                .enumerate()
                .flat_map(|(s, shard)| shard.ids().keys().map(move |id| (&**id, s))),
        );
        let state = ServeState {
            shards: shard_states.into_iter().map(Mutex::new).collect(),
            ..state
        };
        Ok((state, reports))
    }
}

impl<W: StableWrite> ServeState<W> {
    /// Handles one request against the shard set. Never panics on bad
    /// input — every rejection is a [`Response::Error`].
    pub fn handle(&self, req: &Request) -> Response {
        self.dispatch(req, None).0
    }

    /// [`handle`](ServeState::handle) with request-lifecycle tracing:
    /// the caller owns a started [`Span`] (with `recv`/`parse` already
    /// marked), this method charges `route`, `lock_wait`, `dispatch`,
    /// `repack`, `wal_append`, and `wal_sync`, and returns the response
    /// plus the owning shard ([`SpanRecord::SERVICE`] for requests no
    /// shard handled). The caller marks `reply` after writing and
    /// records the finished span into [`ServeState::span_hub`].
    /// Decisions, WAL bytes, and errors are identical to the untraced
    /// path — both run the same code, the span is only observed.
    pub fn handle_spanned(&self, req: &Request, span: &mut Span) -> (Response, u32) {
        self.dispatch(req, Some(span))
    }

    fn dispatch(&self, req: &Request, mut span: Option<&mut Span>) -> (Response, u32) {
        if self.is_shutting_down() && !matches!(req, Request::Query) {
            return (
                Response::Error {
                    code: error_code::SHUTTING_DOWN.into(),
                    message: "service is shutting down".into(),
                },
                SpanRecord::SERVICE,
            );
        }
        if let Some(span) = span.as_deref_mut() {
            match req {
                Request::Arrive { time, .. } => span.set_op(OpKind::Arrive, *time),
                Request::Depart { time, .. } => span.set_op(OpKind::Depart, *time),
                Request::Query | Request::Shutdown => span.set_op(OpKind::Query, 0),
            }
        }
        match req {
            Request::Arrive { id, size, time } => self.arrive(id, size, *time, span),
            Request::Depart { id, time } => self.depart(id, *time, span),
            Request::Query => {
                // A shard poisoned mid-request cannot vouch for its
                // state; the operator's `/status` still shows it.
                let response = match (0..self.shards.len()).find_map(|s| self.lock(s).err()) {
                    Some(e) => error_response(&e),
                    None => Response::Status(self.status()),
                };
                mark(&mut span, Stage::Dispatch);
                (response, SpanRecord::SERVICE)
            }
            Request::Shutdown => {
                self.begin_shutdown();
                mark(&mut span, Stage::Dispatch);
                (Response::ShuttingDown, SpanRecord::SERVICE)
            }
        }
    }

    fn arrive(
        &self,
        id: &str,
        size: &[u64],
        time: Time,
        mut span: Option<&mut Span>,
    ) -> (Response, u32) {
        if size.is_empty() {
            // No `DimVec` has zero dimensions: refuse before any shard
            // lock is taken, or the panic would poison it.
            return (
                Response::Error {
                    code: error_code::INVALID_ITEM.into(),
                    message: "size has no dimensions".into(),
                },
                SpanRecord::SERVICE,
            );
        }
        // A failed shard reads as full, so least-loaded routing avoids
        // it.
        let shard_idx = self.router.route_arrival(id, |s| {
            self.lock(s)
                .map_or(u128::MAX, |shard| shard.live().load_l1())
        });
        mark(&mut span, Stage::Route);
        let placed = self.lock(shard_idx).and_then(|mut shard| {
            mark(&mut span, Stage::LockWait);
            shard.arrive_impl(id, DimVec::from_slice(size), time, span)
        });
        let response = match placed {
            Ok(placed) => {
                self.router.record(id, shard_idx);
                Response::Placed {
                    id: id.to_string(),
                    shard: shard_idx,
                    item: placed.item,
                    bin: placed.bin.0,
                    opened_new: placed.opened_new,
                    time: placed.time,
                }
            }
            Err(e) => self.refuse(shard_idx, &e),
        };
        (response, shard_idx as u32)
    }

    fn depart(&self, id: &str, time: Time, mut span: Option<&mut Span>) -> (Response, u32) {
        let route = self.router.route_departure(id);
        mark(&mut span, Stage::Route);
        let Some(shard_idx) = route else {
            return (
                Response::Error {
                    code: error_code::UNKNOWN_ID.into(),
                    message: format!("unknown id {id:?}"),
                },
                SpanRecord::SERVICE,
            );
        };
        let departed = self.lock(shard_idx).and_then(|mut shard| {
            mark(&mut span, Stage::LockWait);
            shard.depart_impl(id, time, span)
        });
        let response = match departed {
            Ok(dep) => Response::Departed {
                id: id.to_string(),
                shard: shard_idx,
                item: dep.item,
                bin: dep.bin.0,
                closed: dep.closed,
                migrations: dep.migrations.len() as u64,
                time: dep.time,
            },
            Err(e) => self.refuse(shard_idx, &e),
        };
        (response, shard_idx as u32)
    }

    /// Shard `s`, locked. A request that panicked while holding the lock
    /// poisoned it, and the shard has failed.
    fn lock(&self, s: usize) -> Result<MutexGuard<'_, Shard<W>>, ShardError> {
        self.shards[s].lock().map_err(|_| ShardError::Failed {
            msg: format!("shard {s}: a request panicked while holding its lock"),
        })
    }

    /// Whether shard `s` has failed (see the module docs).
    fn failed(&self, s: usize) -> bool {
        self.lock(s).map_or(true, |shard| shard.failure().is_some())
    }

    /// The reply to a request shard `s` refused, counting it when the
    /// shard has failed.
    fn refuse(&self, s: usize, e: &ShardError) -> Response {
        if matches!(e, ShardError::Wal { .. } | ShardError::Failed { .. }) {
            self.refused[s].fetch_add(1, Ordering::Relaxed);
        }
        error_response(e)
    }

    /// The service-wide snapshot.
    #[must_use]
    pub fn status(&self) -> ServeStatus {
        let per_shard: Vec<_> = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let shard = m.lock().unwrap_or_else(PoisonError::into_inner);
                (shard.status(i), shard.recovered_events())
            })
            .collect();
        let mut usage: u128 = 0;
        let mut status = ServeStatus {
            policy: self.policy.name(),
            meta: self
                .portfolio
                .as_ref()
                .map_or_else(|| "off".to_string(), |cfg| cfg.meta.name()),
            policy_switches: 0,
            repack: self.repack.name(),
            router: self.router.kind().name().to_string(),
            shards: self.shards.len(),
            arrivals: 0,
            departures: 0,
            active_items: 0,
            open_bins: 0,
            bins_opened: 0,
            migrations: 0,
            migration_cost: 0,
            usage_time: String::new(),
            wal_lines: 0,
            recovered_events: 0,
            last_time: 0,
            shutting_down: self.is_shutting_down(),
            per_shard: Vec::with_capacity(per_shard.len()),
        };
        for (s, recovered) in per_shard {
            status.arrivals += s.arrivals;
            status.policy_switches += s.policy_switches;
            status.departures += s.departures;
            status.active_items += s.active_items;
            status.open_bins += s.open_bins;
            status.bins_opened += s.bins_opened;
            status.migrations += s.migrations;
            status.migration_cost += s.migration_cost;
            status.wal_lines += s.wal_lines;
            status.recovered_events += recovered;
            status.last_time = status.last_time.max(s.last_time);
            usage += s.usage_time.parse::<u128>().unwrap_or(0);
            status.per_shard.push(s);
        }
        status.usage_time = usage.to_string();
        status
    }

    /// Prometheus text exposition (scraped by `dvbp-monitor --scrape`).
    #[must_use]
    pub fn metrics_text(&self) -> String {
        let status = self.status();
        let mut out = String::new();
        let totals: [(&str, Kind, &dyn Display); 9] = [
            ("arrivals_total", Counter, &status.arrivals),
            ("departures_total", Counter, &status.departures),
            ("active_items", Gauge, &status.active_items),
            ("open_bins", Gauge, &status.open_bins),
            ("bins_opened_total", Counter, &status.bins_opened),
            ("migrations_total", Counter, &status.migrations),
            ("migration_cost_total", Counter, &status.migration_cost),
            ("usage_time_total", Counter, &status.usage_time),
            ("policy_switches_total", Counter, &status.policy_switches),
        ];
        for (name, kind, value) in totals {
            let name = format!("dvbp_serve_{name}");
            expo::family(&mut out, &name, kind, None);
            expo::sample(&mut out, &name, &[], value);
        }
        let labels = [("repack", status.repack.as_str())];
        expo::family(&mut out, "dvbp_serve_repack_info", Gauge, None);
        expo::sample(&mut out, "dvbp_serve_repack_info", &labels, 1);
        if self.portfolio.is_some() {
            let labels = [("meta", status.meta.as_str())];
            expo::family(&mut out, "dvbp_serve_meta_info", Gauge, None);
            expo::sample(&mut out, "dvbp_serve_meta_info", &labels, 1);
            // Shadow scoreboard. The aggregate series divides summed
            // shadow costs by the summed lower-bound anchor across
            // shards; both start at zero, so cold start reads 1.0 (never
            // NaN or +Inf — Prometheus would accept them, dashboards
            // would not forgive them).
            expo::family(&mut out, "dvbp_shadow_cr", Gauge, None);
            let mut agg: Vec<(&str, u128, u128)> = Vec::new();
            for s in &status.per_shard {
                for sh in &s.shadows {
                    let cost = sh.cost.parse::<u128>().unwrap_or(0);
                    let lb = sh.lb.parse::<u128>().unwrap_or(0);
                    match agg.iter_mut().find(|(p, _, _)| *p == sh.policy) {
                        Some(e) => {
                            e.1 += cost;
                            e.2 += lb;
                        }
                        None => agg.push((&sh.policy, cost, lb)),
                    }
                }
            }
            for (policy, cost, lb) in agg {
                let cr = format_args!("{:.6}", dvbp_sim::cost_ratio(cost, lb));
                expo::sample(&mut out, "dvbp_shadow_cr", &[("policy", policy)], cr);
            }
            for s in &status.per_shard {
                let shard = s.shard.to_string();
                for sh in &s.shadows {
                    let labels = [("shard", shard.as_str()), ("policy", &sh.policy)];
                    let cr = format_args!("{:.6}", sh.running_cr());
                    expo::sample(&mut out, "dvbp_shadow_cr", &labels, cr);
                }
            }
        }
        // Failed shards: 1 while the shard refuses requests, and the
        // requests it refused for that.
        let failed: Vec<u64> = (0..self.shards.len())
            .map(|s| u64::from(self.failed(s)))
            .collect();
        let refused: Vec<u64> = self
            .refused
            .iter()
            .map(|r| r.load(Ordering::Relaxed))
            .collect();
        for (name, kind, values) in [
            ("shard_failed", Gauge, &failed),
            ("shard_refused_total", Counter, &refused),
        ] {
            let name = format!("dvbp_serve_{name}");
            expo::family(&mut out, &name, kind, None);
            for (s, value) in values.iter().enumerate() {
                expo::sample(&mut out, &name, &[("shard", &s.to_string())], value);
            }
        }
        expo::family(&mut out, "dvbp_serve_accept_errors_total", Counter, None);
        let accept_errors = self.accept_errors.load(Ordering::Relaxed);
        expo::sample(
            &mut out,
            "dvbp_serve_accept_errors_total",
            &[],
            accept_errors,
        );
        for s in &status.per_shard {
            let shard = s.shard.to_string();
            let series: [(&str, &dyn Display); 7] = [
                ("arrivals_total", &s.arrivals),
                ("departures_total", &s.departures),
                ("active_items", &s.active_items),
                ("open_bins", &s.open_bins),
                ("migrations_total", &s.migrations),
                ("usage_time_total", &s.usage_time),
                ("policy_switches_total", &s.policy_switches),
            ];
            for (name, value) in series {
                let name = format!("dvbp_serve_shard_{name}");
                expo::sample(&mut out, &name, &[("shard", &shard)], value);
            }
        }
        expo::build_info(
            &mut out,
            env!("CARGO_PKG_VERSION"),
            dvbp_core::enabled_features(),
        );
        self.spans.render_metrics(&mut out);
        out
    }

    /// The span sink: per-stage latency histograms plus the flight
    /// recorder behind `GET /spans`.
    #[must_use]
    pub fn span_hub(&self) -> &SpanHub {
        &self.spans
    }

    /// Sets the per-connection socket read timeout (0 disables). Applies
    /// to connections accepted after the call.
    pub fn set_read_timeout_ms(&self, ms: u64) {
        self.read_timeout_ms.store(ms, Ordering::Relaxed);
    }

    /// The current per-connection read timeout in milliseconds.
    #[must_use]
    pub fn read_timeout_ms(&self) -> u64 {
        self.read_timeout_ms.load(Ordering::Relaxed)
    }

    /// Latches shutdown and persists every shard's WAL tail.
    pub fn begin_shutdown(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
        for shard in &self.shards {
            // A shard poisoned mid-request keeps the log it has.
            if let Ok(mut shard) = shard.lock() {
                shard.persist();
            }
        }
    }

    /// Whether shutdown has been requested.
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    /// Shard count.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards.len()
    }
}

fn error_response(e: &ShardError) -> Response {
    let code = match e {
        ShardError::DuplicateId { .. } => error_code::DUPLICATE_ID,
        ShardError::UnknownId { .. } => error_code::UNKNOWN_ID,
        ShardError::AlreadyDeparted { .. } => error_code::ALREADY_DEPARTED,
        ShardError::Live(LiveError::OutOfOrder { .. } | LiveError::EqualTickOrder { .. }) => {
            error_code::OUT_OF_ORDER
        }
        ShardError::Live(_) => error_code::INVALID_ITEM,
        ShardError::Wal { .. } => error_code::WAL,
        ShardError::Failed { .. } => error_code::SHARD_FAILED,
        ShardError::Portfolio { .. } => error_code::PORTFOLIO,
    };
    Response::Error {
        code: code.into(),
        message: e.to_string(),
    }
}

/// Runs the accept loop until a `Shutdown` request (or `POST
/// /shutdown`) arrives. Connections are handled on their own threads.
///
/// # Errors
///
/// Only when the listener has no local address. A failed `accept` is
/// counted and the loop goes on; per-connection I/O errors only end
/// that connection.
pub fn serve<W: StableWrite + Send + 'static>(
    state: &Arc<ServeState<W>>,
    listener: &TcpListener,
) -> io::Result<()> {
    let local = listener.local_addr()?;
    for stream in listener.incoming() {
        if state.is_shutting_down() {
            break;
        }
        accept(state, stream, local);
    }
    Ok(())
}

/// One step of the accept loop: serves an accepted connection on a
/// thread of its own, or counts a failed `accept` in
/// `dvbp_serve_accept_errors_total` and backs off for
/// [`expo::ACCEPT_BACKOFF`].
fn accept<W: StableWrite + Send + 'static>(
    state: &Arc<ServeState<W>>,
    stream: io::Result<TcpStream>,
    local: SocketAddr,
) {
    let Ok(stream) = stream else {
        state.accept_errors.fetch_add(1, Ordering::Relaxed);
        std::thread::sleep(expo::ACCEPT_BACKOFF);
        return;
    };
    // Request/response ping-pong over NDJSON: Nagle batching would
    // stall every round trip on the peer's delayed-ACK timer.
    let _ = stream.set_nodelay(true);
    let state = Arc::clone(state);
    std::thread::spawn(move || {
        if handle_connection(&state, stream) && !state.is_shutting_down() {
            state.begin_shutdown();
        }
        if state.is_shutting_down() {
            // Nudge the accept loop out of its blocking accept.
            let _ = TcpStream::connect(local);
        }
    });
}

/// Writes one NDJSON response line (one write call, so the payload and
/// its newline never straddle two TCP segments), encoded into `out`, a
/// buffer the connection reuses for every reply; `false` on failure.
fn send(writer: &mut impl Write, out: &mut String, response: &Response) -> bool {
    out.clear();
    if serde_json::to_string_into(out, response).is_err() {
        return false;
    }
    out.push('\n');
    writer
        .write_all(out.as_bytes())
        .and_then(|()| writer.flush())
        .is_ok()
}

/// Reads the next request line into `line` (cleared first); `false`
/// ends the connection. A client stalled mid-line, or sending a line
/// longer than [`expo::MAX_LINE_BYTES`], is told why it is being
/// disconnected (best-effort — it may not read that either).
fn next_line(reader: &mut impl BufRead, writer: &mut impl Write, line: &mut String) -> bool {
    line.clear();
    let (code, message) = match expo::read_line_guarded(reader, line) {
        LineRead::Line => return true,
        LineRead::Closed => return false,
        LineRead::Stalled => (
            error_code::TIMEOUT,
            "read timed out mid-request; disconnecting",
        ),
        LineRead::TooLong => (
            error_code::BAD_REQUEST,
            "request line too long; disconnecting",
        ),
    };
    let error = Response::Error {
        code: code.into(),
        message: message.into(),
    };
    send(writer, &mut String::new(), &error);
    false
}

/// Handles one connection; returns `true` if it requested shutdown.
fn handle_connection<W: StableWrite>(state: &ServeState<W>, stream: TcpStream) -> bool {
    let timeout_ms = state.read_timeout_ms();
    if timeout_ms > 0 {
        // A stalled partial line must not pin this thread forever; the
        // guarded read loop keeps genuinely idle connections alive.
        let _ = stream.set_read_timeout(Some(Duration::from_millis(timeout_ms)));
    }
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return false,
    });
    let mut writer = stream;
    let mut first = String::new();
    if !next_line(&mut reader, &mut writer, &mut first) {
        return false;
    }
    let verb = first.split_whitespace().next().unwrap_or("");
    if matches!(verb, "GET" | "POST" | "HEAD") {
        return handle_http(state, &mut reader, &mut writer, &first);
    }
    handle_ndjson(state, &mut reader, &mut writer, &first)
}

/// NDJSON session: `first` is the already-read first request line.
/// Every iteration runs under a [`Span`]: `recv` covers the socket
/// read, `parse` the JSON decode, the shard stages are charged inside
/// [`ServeState::handle_spanned`], and `reply` covers the response
/// write; the finished record lands in the hub's histograms and flight
/// recorder.
fn handle_ndjson<W: StableWrite>(
    state: &ServeState<W>,
    reader: &mut impl BufRead,
    writer: &mut impl Write,
    first: &str,
) -> bool {
    let mut line = first.to_string();
    let mut reply = String::new();
    let mut pending = true;
    loop {
        let mut span = Span::begin();
        if !pending && !next_line(reader, writer, &mut line) {
            return false;
        }
        pending = false;
        span.mark(Stage::Recv);
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let parsed = serde_json::from_str::<Request>(trimmed);
        span.mark(Stage::Parse);
        let (response, shard) = match parsed {
            Ok(req) => state.handle_spanned(&req, &mut span),
            Err(e) => (
                Response::Error {
                    code: error_code::BAD_REQUEST.into(),
                    message: format!("unparseable request: {e}"),
                },
                SpanRecord::SERVICE,
            ),
        };
        if !send(writer, &mut reply, &response) {
            return false;
        }
        span.mark(Stage::Reply);
        let ok = !matches!(response, Response::Error { .. });
        state.spans.record(&span.finish(shard, ok));
        if matches!(response, Response::ShuttingDown) {
            return true;
        }
    }
}

/// The HTTP operator surface: `request_line` is the already-read first
/// line; framing comes from [`dvbp_obs::expo`].
fn handle_http<W: StableWrite>(
    state: &ServeState<W>,
    reader: &mut impl BufRead,
    writer: &mut impl Write,
    request_line: &str,
) -> bool {
    let (method, path) = expo::read_head(reader, request_line);
    let shutdown = (method, path) == ("POST", "/shutdown");
    let (status, content_type, body) = match (method, path) {
        ("GET" | "HEAD", "/healthz") => {
            let failed: Vec<String> = (0..state.shards())
                .filter(|&s| state.failed(s))
                .map(|s| s.to_string())
                .collect();
            if failed.is_empty() {
                ("200 OK", "text/plain", "ok\n".to_string())
            } else {
                let body = format!("failed shard(s): {}\n", failed.join(", "));
                ("503 Service Unavailable", "text/plain", body)
            }
        }
        ("GET" | "HEAD", "/status") => (
            "200 OK",
            "application/json",
            serde_json::to_string(&state.status()).unwrap_or_else(|_| "{}".into()),
        ),
        ("GET" | "HEAD", "/metrics") => {
            ("200 OK", "text/plain; version=0.0.4", state.metrics_text())
        }
        ("GET" | "HEAD", "/spans") => ("200 OK", "application/x-ndjson", state.spans.dump_jsonl()),
        ("POST", "/shutdown") => ("200 OK", "text/plain", "shutting down\n".to_string()),
        _ => (
            "404 Not Found",
            "text/plain",
            format!("no route for {method} {path}\n"),
        ),
    };
    let _ = expo::respond(writer, status, content_type, &body);
    if shutdown {
        state.begin_shutdown();
    }
    shutdown
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(shards: usize, router: RouterKind) -> ServeState<Vec<u8>> {
        state_with(shards, router, RepackPolicy::NoRepack)
    }

    fn state_with(shards: usize, router: RouterKind, repack: RepackPolicy) -> ServeState<Vec<u8>> {
        ServeState::in_memory(
            &DimVec::from_slice(&[10, 10]),
            &PolicyKind::FirstFit,
            repack,
            shards,
            router,
            TraceMode::Full,
            TimeMode::Strict,
            SyncPolicy::PerEvent,
            None,
        )
        .unwrap()
    }

    fn arrive(id: &str, size: &[u64], time: Time) -> Request {
        Request::Arrive {
            id: id.into(),
            size: size.to_vec(),
            time,
        }
    }

    #[test]
    fn an_empty_size_is_refused_and_the_shard_keeps_serving() {
        let s = state(1, RouterKind::Hash);
        match s.handle(&arrive("a", &[], 0)) {
            Response::Error { code, .. } => assert_eq!(code, error_code::INVALID_ITEM),
            other => panic!("expected an invalid-item error, got {other:?}"),
        }
        assert!(matches!(
            s.handle(&arrive("a", &[1, 1], 0)),
            Response::Placed { .. }
        ));
        assert_eq!(s.status().arrivals, 1);
    }

    #[test]
    fn requests_route_and_resolve_across_shards() {
        let s = state(4, RouterKind::Hash);
        let mut shards_hit = std::collections::HashSet::new();
        for i in 0..32 {
            match s.handle(&arrive(&format!("vm-{i}"), &[1, 1], i)) {
                Response::Placed { shard, .. } => {
                    shards_hit.insert(shard);
                }
                other => panic!("expected Placed, got {other:?}"),
            }
        }
        assert!(shards_hit.len() > 1, "hash must spread 32 ids");
        // Departures find their items without any directory.
        for i in 0..32 {
            match s.handle(&Request::Depart {
                id: format!("vm-{i}"),
                time: 100 + i,
            }) {
                Response::Departed { .. } => {}
                other => panic!("expected Departed, got {other:?}"),
            }
        }
        let st = s.status();
        assert_eq!(st.arrivals, 32);
        assert_eq!(st.departures, 32);
        assert_eq!(st.active_items, 0);
        assert_eq!(st.open_bins, 0);
    }

    #[test]
    fn per_tick_ordering_is_per_shard_not_global() {
        // Strict mode is enforced within each shard's own clock; two
        // shards can sit at different ticks.
        let s = state(2, RouterKind::RoundRobin);
        assert!(matches!(
            s.handle(&arrive("a", &[1, 1], 100)),
            Response::Placed { shard: 0, .. }
        ));
        assert!(matches!(
            s.handle(&arrive("b", &[1, 1], 5)),
            Response::Placed { shard: 1, .. }
        ));
        // Shard 0's clock is at 100: an earlier arrival routed there
        // (round-robin cursor wraps back to 0) is out of order...
        match s.handle(&arrive("c", &[1, 1], 50)) {
            Response::Error { code, .. } => assert_eq!(code, error_code::OUT_OF_ORDER),
            other => panic!("expected out-of-order, got {other:?}"),
        }
        // ...while shard 1 (clock at 5) accepts the same tick.
        assert!(matches!(
            s.handle(&arrive("d", &[1, 1], 50)),
            Response::Placed { shard: 1, .. }
        ));
    }

    #[test]
    fn errors_map_to_protocol_codes() {
        let s = state(1, RouterKind::Hash);
        s.handle(&arrive("a", &[1, 1], 0));
        let cases: Vec<(Request, &str)> = vec![
            (arrive("a", &[1, 1], 1), error_code::DUPLICATE_ID),
            (arrive("big", &[11, 1], 1), error_code::INVALID_ITEM),
            (arrive("flat", &[0, 0], 1), error_code::INVALID_ITEM),
            (arrive("skew", &[1], 1), error_code::INVALID_ITEM),
            (
                Request::Depart {
                    id: "ghost".into(),
                    time: 1,
                },
                error_code::UNKNOWN_ID,
            ),
        ];
        for (req, expected) in cases {
            match s.handle(&req) {
                Response::Error { code, .. } => assert_eq!(code, expected, "{req:?}"),
                other => panic!("expected error for {req:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn status_totals_are_sums_of_shard_slices() {
        let s = state(3, RouterKind::RoundRobin);
        for i in 0..9 {
            s.handle(&arrive(&format!("x{i}"), &[2, 2], i));
        }
        s.handle(&Request::Depart {
            id: "x0".into(),
            time: 20,
        });
        let st = s.status();
        assert_eq!(st.per_shard.len(), 3);
        assert_eq!(
            st.arrivals,
            st.per_shard.iter().map(|p| p.arrivals).sum::<u64>()
        );
        assert_eq!(
            st.usage_time.parse::<u128>().unwrap(),
            st.per_shard
                .iter()
                .map(|p| p.usage_time.parse::<u128>().unwrap())
                .sum::<u128>()
        );
        assert_eq!(st.active_items, 8);
    }

    #[test]
    fn shutdown_latches_and_rejects_mutations() {
        let s = state(1, RouterKind::Hash);
        s.handle(&arrive("a", &[1, 1], 0));
        assert!(matches!(
            s.handle(&Request::Shutdown),
            Response::ShuttingDown
        ));
        assert!(s.is_shutting_down());
        assert!(matches!(
            s.handle(&arrive("b", &[1, 1], 1)),
            Response::Error { code, .. } if code == error_code::SHUTTING_DOWN
        ));
        // Queries still work for final-state collection.
        assert!(matches!(s.handle(&Request::Query), Response::Status(_)));
    }

    #[test]
    fn metrics_exposition_has_totals_and_shard_series() {
        let s = state(2, RouterKind::RoundRobin);
        s.handle(&arrive("a", &[1, 1], 0));
        s.handle(&arrive("b", &[1, 1], 0));
        let text = s.metrics_text();
        assert!(text.contains("# TYPE dvbp_serve_arrivals_total counter"));
        assert!(text.contains("dvbp_serve_arrivals_total 2"));
        assert!(text.contains("dvbp_serve_shard_arrivals_total{shard=\"0\"} 1"));
        assert!(text.contains("dvbp_serve_shard_arrivals_total{shard=\"1\"} 1"));
    }

    #[test]
    fn portfolio_service_reports_shadows_and_switches() {
        use dvbp_portfolio::MetaPolicy;
        let cfg = PortfolioConfig {
            candidates: vec![PolicyKind::FirstFit, PolicyKind::NextFit],
            meta: MetaPolicy::BestOf { window: 1 },
        };
        let s = ServeState::in_memory(
            &DimVec::from_slice(&[10]),
            &PolicyKind::NextFit,
            RepackPolicy::NoRepack,
            1,
            RouterKind::Hash,
            TraceMode::CostOnly,
            TimeMode::Strict,
            SyncPolicy::PerEvent,
            Some(&cfg),
        )
        .unwrap();
        s.handle(&arrive("small", &[3], 0));
        s.handle(&arrive("blocker", &[10], 1));
        s.handle(&arrive("tail", &[3], 2));
        s.handle(&Request::Depart {
            id: "blocker".into(),
            time: 3,
        });
        let st = s.status();
        assert_eq!(st.meta, "best-of:1");
        assert_eq!(st.policy_switches, 1);
        assert_eq!(st.per_shard[0].policy, "FirstFit");
        assert_eq!(st.per_shard[0].switch_history.len(), 1);
        assert_eq!(st.per_shard[0].shadows.len(), 2);
        let text = s.metrics_text();
        assert!(text.contains("dvbp_serve_policy_switches_total 1"));
        assert!(text.contains("dvbp_serve_shard_policy_switches_total{shard=\"0\"} 1"));
        assert!(text.contains("dvbp_serve_meta_info{meta=\"best-of:1\"} 1"));
        assert!(text.contains("dvbp_shadow_cr{policy=\"FirstFit\"}"));
        assert!(text.contains("dvbp_shadow_cr{shard=\"0\",policy=\"NextFit\"}"));
        assert!(
            !text.contains("NaN") && !text.contains(" inf"),
            "shadow CRs must stay finite"
        );

        // Without a portfolio, the families are absent and meta is off.
        let plain = state(1, RouterKind::Hash);
        assert_eq!(plain.status().meta, "off");
        let text = plain.metrics_text();
        assert!(!text.contains("dvbp_shadow_cr"));
        assert!(!text.contains("dvbp_serve_meta_info"));
        assert!(text.contains("dvbp_serve_policy_switches_total 0"));
    }

    /// The raw response to `GET path` on the HTTP surface.
    fn http_get(s: &ServeState<Vec<u8>>, path: &str) -> String {
        let mut head = io::Cursor::new(b"Host: x\r\n\r\n".to_vec());
        let mut out = Vec::new();
        handle_http(s, &mut head, &mut out, &format!("GET {path} HTTP/1.1"));
        String::from_utf8(out).unwrap()
    }

    fn error_code_of(s: &ServeState<Vec<u8>>, req: &Request) -> String {
        match s.handle(req) {
            Response::Error { code, .. } => code,
            other => panic!("expected an error for {req:?}, got {other:?}"),
        }
    }

    #[test]
    fn a_shard_poisoned_by_a_panic_answers_typed_errors() {
        let s = state(2, RouterKind::RoundRobin);
        assert!(matches!(
            s.handle(&arrive("a", &[1, 1], 0)),
            Response::Placed { shard: 0, .. }
        ));
        assert!(matches!(
            s.handle(&arrive("b", &[1, 1], 0)),
            Response::Placed { shard: 1, .. }
        ));
        assert!(http_get(&s, "/healthz").starts_with("HTTP/1.1 200"));
        std::thread::scope(|scope| {
            let holder = scope.spawn(|| {
                let _guard = s.shards[0].lock().unwrap();
                panic!("a request panics while holding shard 0's lock");
            });
            assert!(holder.join().is_err());
        });
        // Round robin sends "c" to shard 0.
        let depart_a = Request::Depart {
            id: "a".into(),
            time: 2,
        };
        for req in [arrive("c", &[1, 1], 1), depart_a, Request::Query] {
            assert_eq!(error_code_of(&s, &req), error_code::SHARD_FAILED, "{req:?}");
        }
        // The other shard keeps serving.
        assert!(matches!(
            s.handle(&arrive("d", &[1, 1], 1)),
            Response::Placed { shard: 1, .. }
        ));
        let text = s.metrics_text();
        for series in [
            "dvbp_serve_shard_failed{shard=\"0\"} 1",
            "dvbp_serve_shard_failed{shard=\"1\"} 0",
            "dvbp_serve_shard_refused_total{shard=\"0\"} 2",
            "dvbp_serve_shard_refused_total{shard=\"1\"} 0",
        ] {
            assert!(text.contains(series), "{series} missing:\n{text}");
        }
        let health = http_get(&s, "/healthz");
        assert!(health.starts_with("HTTP/1.1 503"), "{health}");
        assert!(health.ends_with("failed shard(s): 0\n"), "{health}");
        let status = http_get(&s, "/status");
        assert!(status.starts_with("HTTP/1.1 200"), "{status}");
    }

    fn portfolio_service(candidates: Vec<PolicyKind>, meta: &str) -> ServeState<Vec<u8>> {
        let cfg = PortfolioConfig {
            candidates,
            meta: meta.parse().unwrap(),
        };
        ServeState::in_memory(
            &DimVec::from_slice(&[10, 10]),
            &PolicyKind::FirstFit,
            RepackPolicy::NoRepack,
            1,
            RouterKind::Hash,
            TraceMode::CostOnly,
            TimeMode::Strict,
            SyncPolicy::PerEvent,
            Some(&cfg),
        )
        .unwrap()
    }

    #[test]
    fn a_dead_shadow_worker_fails_its_shard() {
        let s = portfolio_service(vec![PolicyKind::FirstFit, PolicyKind::NextFit], "best-of:1");
        assert!(matches!(
            s.handle(&arrive("a", &[3, 3], 0)),
            Response::Placed { .. }
        ));
        // A departure of an item the shadows never saw: the first shadow
        // refuses it on the worker thread, which dies.
        s.shards[0]
            .lock()
            .unwrap()
            .portfolio_mut()
            .unwrap()
            .on_depart(99, 1, 0)
            .unwrap();
        // The status read is a barrier; it must come back, not wait for
        // a worker that will never drain the queue.
        let s = Arc::new(s);
        let (tx, rx) = std::sync::mpsc::channel();
        {
            let s = Arc::clone(&s);
            std::thread::spawn(move || tx.send(s.status()).unwrap());
        }
        let status = rx
            .recv_timeout(Duration::from_secs(20))
            .expect("a barrier on a dead worker fails at once");
        assert!(status.per_shard[0].shadows.is_empty(), "no scoreboard");
        let depart_a = Request::Depart {
            id: "a".into(),
            time: 2,
        };
        for req in [arrive("b", &[1, 1], 1), depart_a] {
            assert_eq!(error_code_of(&s, &req), error_code::SHARD_FAILED, "{req:?}");
        }
        let text = s.metrics_text();
        assert!(
            text.contains("dvbp_serve_shard_failed{shard=\"0\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("dvbp_serve_shard_refused_total{shard=\"0\"} 2"),
            "{text}"
        );
        assert!(http_get(&s, "/healthz").starts_with("HTTP/1.1 503"));
    }

    #[test]
    fn status_after_a_burst_of_arrivals_reports_the_synchronous_scoreboard() {
        let candidates = dvbp_portfolio::parse_candidates("paper").unwrap();
        let s = portfolio_service(candidates.clone(), "best-of:8");
        let mut sync = dvbp_portfolio::ShadowSet::new(
            &DimVec::from_slice(&[10, 10]),
            TimeMode::Strict,
            &candidates,
            0,
        )
        .unwrap();
        // More arrivals than the worker's wake point, and no departure:
        // nothing but the status read waits for the worker.
        let mut time = 0;
        for i in 0..300u64 {
            let size = [1 + i % 7, 1 + (i * 3) % 5];
            time = i / 3;
            assert!(matches!(
                s.handle(&arrive(&format!("vm{i}"), &size, time)),
                Response::Placed { .. }
            ));
            sync.arrive(&DimVec::from_slice(&size), time);
        }
        let want: Vec<_> = sync
            .scoreboard(time)
            .into_iter()
            .map(|row| (row.policy, row.cost.to_string(), row.lb.to_string()))
            .collect();
        let got: Vec<_> = s.status().per_shard[0]
            .shadows
            .iter()
            .map(|row| (row.policy.clone(), row.cost.clone(), row.lb.clone()))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn a_failed_accept_is_counted_and_the_next_connection_is_served() {
        use std::io::{BufRead, BufReader, Write};
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let local = listener.local_addr().unwrap();
        let state = Arc::new(state(1, RouterKind::Hash));
        // EMFILE: the process is out of file descriptors.
        accept(&state, Err(io::Error::from_raw_os_error(24)), local);
        let client = std::thread::spawn(move || {
            let mut conn = TcpStream::connect(local).unwrap();
            writeln!(conn, "\"Query\"").unwrap();
            let mut line = String::new();
            BufReader::new(conn).read_line(&mut line).unwrap();
            line
        });
        accept(&state, listener.accept().map(|(stream, _)| stream), local);
        let reply = client.join().unwrap();
        assert!(reply.starts_with("{\"Status\""), "{reply}");
        assert!(state
            .metrics_text()
            .contains("dvbp_serve_accept_errors_total 1"));
    }

    #[test]
    fn repacking_service_reports_migrations() {
        let s = state_with(1, RouterKind::Hash, RepackPolicy::DrainOnDepart { k: 1 });
        s.handle(&arrive("a", &[7, 7], 0));
        s.handle(&arrive("b", &[7, 7], 1));
        s.handle(&arrive("c", &[2, 2], 2));
        match s.handle(&Request::Depart {
            id: "a".into(),
            time: 3,
        }) {
            Response::Departed {
                closed, migrations, ..
            } => {
                assert!(!closed, "c still occupied a's bin at the tick");
                assert_eq!(migrations, 1, "c drained into b's bin");
            }
            other => panic!("expected Departed, got {other:?}"),
        }
        let st = s.status();
        assert_eq!(st.repack, "drain:1");
        assert_eq!(st.migrations, 1);
        assert_eq!(st.migration_cost, 1);
        assert_eq!(st.open_bins, 1);
        let text = s.metrics_text();
        assert!(text.contains("dvbp_serve_migrations_total 1"));
        assert!(text.contains("dvbp_serve_repack_info{repack=\"drain:1\"} 1"));
        assert!(text.contains("dvbp_serve_shard_migrations_total{shard=\"0\"} 1"));
    }

    #[test]
    fn ndjson_session_over_real_tcp() {
        use std::io::{BufRead, BufReader, Write};
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let state = Arc::new(state(2, RouterKind::Hash));
        let srv = {
            let state = Arc::clone(&state);
            std::thread::spawn(move || serve(&state, &listener).unwrap())
        };

        let mut conn = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut line = String::new();
        for (req, probe) in [
            (
                r#"{"Arrive":{"id":"vm-1","size":[2,3],"time":0}}"#,
                "Placed",
            ),
            (r#"{"Depart":{"id":"vm-1","time":5}}"#, "Departed"),
            (r#""Query""#, "Status"),
            ("not json at all", "bad-request"),
        ] {
            writeln!(conn, "{req}").unwrap();
            line.clear();
            reader.read_line(&mut line).unwrap();
            assert!(line.contains(probe), "{req} -> {line}");
        }

        // HTTP on the same port, from a second connection.
        let mut http = TcpStream::connect(addr).unwrap();
        write!(http, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut text = String::new();
        BufReader::new(&mut http).read_line(&mut text).unwrap();
        assert!(text.starts_with("HTTP/1.1 200"), "{text}");

        // Shutdown ends the accept loop.
        writeln!(conn, "\"Shutdown\"").unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("ShuttingDown"), "{line}");
        srv.join().unwrap();
        assert!(state.is_shutting_down());
    }
}
