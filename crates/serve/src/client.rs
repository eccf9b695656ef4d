//! Driving client: replays any [`EventSource`] — a trace stream, a
//! generator, or a materialized [`Instance`] — against a running
//! service over TCP, in the canonical event order.
//!
//! Source item `i` is sent under the id `item-{i}`, so the id ↔ item
//! mapping is reproducible across runs — which makes the client
//! **idempotently resumable**: re-driving the same feed after a
//! service crash simply skips everything the recovered service already
//! knows (`duplicate-id` / `already-departed` rejections count as
//! [`DriveReport::skipped`], not errors). The crash-recovery test
//! (`tests/crash_recovery.rs`) leans on this: kill the service
//! mid-drive, restart it on the same WAL, re-drive from the top, and
//! the final state must match an uninterrupted run. Feeds with deterministic item indices (trace
//! parsers assign dense indices in arrival order) resume the same way.

use crate::protocol::{error_code, Request, Response, ServeStatus};
use dvbp_core::{EventSource, Instance, InstanceSource, LiveOp};
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::Duration;

/// Outcome counts of one [`Client::drive_instance`] pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DriveReport {
    /// Arrivals acknowledged with `Placed`.
    pub placed: u64,
    /// Departures acknowledged with `Departed`.
    pub departed: u64,
    /// Operations the service already knew (`duplicate-id` /
    /// `already-departed`) — the idempotent-resume path.
    pub skipped: u64,
    /// Any other rejection.
    pub errors: u64,
}

/// The id item `i` of a driven instance is sent under.
#[must_use]
pub fn item_id(item: usize) -> String {
    format!("item-{item}")
}

/// Reads an instance trace file (the `dvbp` facade's JSON format).
///
/// # Errors
///
/// Renders read, parse, and validation failures.
pub fn load_instance(path: &Path) -> Result<Instance, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let instance: Instance =
        serde_json::from_str(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))?;
    instance
        .validate()
        .map_err(|e| format!("invalid instance {}: {e}", path.display()))?;
    Ok(instance)
}

/// One NDJSON connection to a service.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to `addr` (`host:port`).
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn connect(addr: &str) -> io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        // Every call is a strict round trip; Nagle + delayed ACK would
        // add tens of milliseconds to each one.
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { writer, reader })
    }

    /// Sends one request and reads its response line.
    ///
    /// # Errors
    ///
    /// I/O failures, or an unparseable response line.
    pub fn call(&mut self, req: &Request) -> io::Result<Response> {
        let mut line = serde_json::to_string(req).map_err(io::Error::other)?;
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()?;
        let mut response = String::new();
        if self.reader.read_line(&mut response)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "service closed the connection",
            ));
        }
        serde_json::from_str(response.trim()).map_err(io::Error::other)
    }

    /// Fetches the service status.
    ///
    /// # Errors
    ///
    /// I/O failures, or a non-`Status` response.
    pub fn query(&mut self) -> io::Result<ServeStatus> {
        match self.call(&Request::Query)? {
            Response::Status(status) => Ok(status),
            other => Err(io::Error::other(format!("expected Status, got {other:?}"))),
        }
    }

    /// Requests graceful shutdown.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn shutdown(&mut self) -> io::Result<()> {
        self.call(&Request::Shutdown).map(|_| ())
    }

    /// Replays a streamed event feed in its own (canonical) order:
    /// source item `i` is sent as `item-{i}`. The feed is consumed one
    /// event at a time, so an arbitrarily long trace drives the service
    /// in constant client memory. `throttle` sleeps between operations
    /// — the crash-recovery test uses it to widen the mid-drive kill
    /// window.
    ///
    /// # Errors
    ///
    /// Transport failures and source read failures only; service-level
    /// rejections are counted in the report.
    pub fn drive_source<S: EventSource + ?Sized>(
        &mut self,
        source: &mut S,
        throttle: Option<Duration>,
    ) -> io::Result<DriveReport> {
        let mut report = DriveReport::default();
        while let Some(op) = source.next_event().map_err(io::Error::other)? {
            let req = match op {
                LiveOp::Arrive { item, size, time } => Request::Arrive {
                    id: item_id(item),
                    size: size.as_slice().to_vec(),
                    time,
                },
                LiveOp::Depart { item, time } => Request::Depart {
                    id: item_id(item),
                    time,
                },
            };
            match self.call(&req)? {
                Response::Placed { .. } => report.placed += 1,
                Response::Departed { .. } => report.departed += 1,
                Response::Error { code, .. }
                    if code == error_code::DUPLICATE_ID || code == error_code::ALREADY_DEPARTED =>
                {
                    report.skipped += 1;
                }
                Response::Error { .. } => report.errors += 1,
                _ => report.errors += 1,
            }
            if let Some(pause) = throttle {
                std::thread::sleep(pause);
            }
        }
        Ok(report)
    }

    /// Replays `instance` in canonical timeline order (departures
    /// before arrivals at equal ticks) — [`drive_source`](Self::drive_source)
    /// over the instance's [`InstanceSource`].
    ///
    /// # Errors
    ///
    /// Transport failures only; service-level rejections are counted in
    /// the report.
    pub fn drive_instance(
        &mut self,
        instance: &Instance,
        throttle: Option<Duration>,
    ) -> io::Result<DriveReport> {
        let mut source = InstanceSource::new(instance).map_err(io::Error::other)?;
        self.drive_source(&mut source, throttle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::RouterKind;
    use crate::server::{serve, ServeState};
    use dvbp_core::{Item, PolicyKind, TimeMode, TraceMode};
    use dvbp_dimvec::DimVec;
    use dvbp_obs::SyncPolicy;
    use std::net::TcpListener;
    use std::sync::Arc;

    fn instance() -> Instance {
        Instance::new(
            DimVec::from_slice(&[10, 10]),
            vec![
                Item::new(DimVec::from_slice(&[6, 2]), 0, 10),
                Item::new(DimVec::from_slice(&[2, 6]), 2, 5),
                Item::new(DimVec::from_slice(&[3, 3]), 5, 12),
            ],
        )
        .unwrap()
    }

    fn boot(shards: usize) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let state = Arc::new(
            ServeState::in_memory(
                &DimVec::from_slice(&[10, 10]),
                &PolicyKind::FirstFit,
                dvbp_core::RepackPolicy::NoRepack,
                shards,
                RouterKind::Hash,
                TraceMode::Full,
                TimeMode::Strict,
                SyncPolicy::PerEvent,
                None,
            )
            .unwrap(),
        );
        let handle = std::thread::spawn(move || serve(&state, &listener).unwrap());
        (addr, handle)
    }

    #[test]
    fn drive_reports_full_acknowledgement_and_resume_skips() {
        let (addr, srv) = boot(2);
        let inst = instance();
        let mut client = Client::connect(&addr.to_string()).unwrap();
        let report = client.drive_instance(&inst, None).unwrap();
        assert_eq!(report.placed, 3);
        assert_eq!(report.departed, 3);
        assert_eq!(report.skipped, 0);
        assert_eq!(report.errors, 0);

        // Re-driving the identical instance is a no-op: every operation
        // is skipped as already-known.
        let report = client.drive_instance(&inst, None).unwrap();
        assert_eq!(report.placed, 0);
        assert_eq!(report.departed, 0);
        assert_eq!(report.skipped, 6);
        assert_eq!(report.errors, 0);

        let status = client.query().unwrap();
        assert_eq!(status.arrivals, 3);
        assert_eq!(status.departures, 3);
        client.shutdown().unwrap();
        srv.join().unwrap();
    }

    #[test]
    fn streamed_feed_drives_the_service_without_materializing() {
        // A generator source through drive_source: every event is
        // acknowledged, and re-driving the identical stream resumes
        // idempotently, exactly like the instance path.
        let (addr, srv) = boot(2);
        let gen = dvbp_traces::HeavyTail::new(40, DimVec::from_slice(&[10, 10]), 11);
        let mut client = Client::connect(&addr.to_string()).unwrap();
        let report = client.drive_source(&mut gen.source(), None).unwrap();
        assert_eq!(report.placed, 40);
        assert_eq!(report.departed, 40);
        assert_eq!(report.errors, 0);

        let report = client.drive_source(&mut gen.source(), None).unwrap();
        assert_eq!(report.placed, 0);
        assert_eq!(report.skipped, 80);
        assert_eq!(report.errors, 0);

        let status = client.query().unwrap();
        assert_eq!(status.arrivals, 40);
        assert_eq!(status.departures, 40);
        client.shutdown().unwrap();
        srv.join().unwrap();
    }
}
