//! [`JsonlEmitter`]: streams the engine's event feed as JSON Lines.
//!
//! One [`ObsEvent`] per line, in engine order — the offline twin of
//! [`Recorder`](crate::Recorder). The stream is complete: `dvbp-analysis`
//! parses it back ([`parse_str`]) and replays it into a `Packing`
//! identical to the live run's, which the conformance harness checks for
//! every fuzzed instance.
//!
//! Errors cannot surface through the infallible observer hooks, so the
//! emitter latches the first [`ObsError`] (serialization or I/O) and
//! reports it from [`JsonlEmitter::finish`]; events after an error are
//! dropped.
//!
//! # Write-ahead-log use
//!
//! `dvbp-serve` journals accepted events through this emitter before
//! acknowledging them, which needs two things the plain observer path
//! does not: control over *when* lines reach stable storage, and a
//! reader that survives a crash mid-write. [`SyncPolicy`] +
//! [`JsonlEmitter::emit_durable`] provide the former (fsync per event,
//! per batch, or only on close, over any [`StableWrite`] sink);
//! [`scan_wal`] provides the latter — it scans raw bytes, returns the
//! end offset of every complete line, and classifies an unterminated
//! final line as a **torn write** to skip (never a fatal parse error),
//! so recovery can truncate to the last durable boundary and resume.

use crate::{
    Arrival, Decision, Depart, Migrate, ObsError, ObsEvent, Observer, Place, Probe, RunEnd,
    RunStart,
};
use dvbp_sim::Time;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// When durable emission ([`JsonlEmitter::emit_durable`]) forces written
/// lines onto stable storage.
///
/// The plain [`JsonlEmitter::emit`] path never syncs and is unaffected;
/// the policy only governs the WAL entry point.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Persist after every event — one fsync per accepted request, the
    /// strongest (and slowest) durability.
    #[default]
    PerEvent,
    /// Persist once every `n` events (`n = 0` behaves like `1`), and on
    /// [`JsonlEmitter::persist`]. A crash can lose up to `n - 1` acked
    /// events; recovery still sees a consistent prefix.
    PerBatch(u64),
    /// Never persist during emission; the caller syncs once at shutdown.
    /// A crash can lose the entire buffered tail.
    OnClose,
}

impl std::str::FromStr for SyncPolicy {
    type Err = String;

    /// Parses `per-event`, `batch:N`, or `on-close` (CLI spelling).
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "per-event" => Ok(SyncPolicy::PerEvent),
            "on-close" => Ok(SyncPolicy::OnClose),
            _ => match s.strip_prefix("batch:") {
                Some(n) => n
                    .parse()
                    .map(SyncPolicy::PerBatch)
                    .map_err(|e| format!("bad batch size {n:?}: {e}")),
                None => Err(format!(
                    "unknown sync policy {s:?} (expected per-event, batch:N, or on-close)"
                )),
            },
        }
    }
}

/// A sink whose contents can be forced onto stable storage.
///
/// `persist` is the durability point of the WAL protocol: after it
/// returns `Ok`, previously written bytes survive a crash. In-memory
/// sinks (`Vec<u8>`) are trivially "stable"; files map to
/// `File::sync_all`; a `BufWriter<File>` flushes its buffer first.
pub trait StableWrite: Write {
    /// Forces all previously written bytes to stable storage.
    ///
    /// # Errors
    ///
    /// Propagates the flush or sync failure.
    fn persist(&mut self) -> io::Result<()>;
}

impl StableWrite for Vec<u8> {
    fn persist(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl StableWrite for File {
    fn persist(&mut self) -> io::Result<()> {
        self.sync_all()
    }
}

impl StableWrite for BufWriter<File> {
    fn persist(&mut self) -> io::Result<()> {
        self.flush()?;
        self.get_ref().sync_all()
    }
}

impl<W: StableWrite> StableWrite for &mut W {
    fn persist(&mut self) -> io::Result<()> {
        (**self).persist()
    }
}

/// Observer that writes every event as one JSON object per line.
#[derive(Debug)]
pub struct JsonlEmitter<W: Write> {
    writer: W,
    /// The line being written, reused from event to event.
    line: String,
    error: Option<ObsError>,
    lines: u64,
    sync: SyncPolicy,
    /// Events emitted since the last successful persist.
    unsynced: u64,
}

impl JsonlEmitter<BufWriter<File>> {
    /// Creates an emitter writing to a fresh file at `path` (buffered).
    ///
    /// # Errors
    ///
    /// Propagates the file-creation error.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(Self::new(BufWriter::new(File::create(path)?)))
    }

    /// Opens (creating if absent) a log at `path` for appending —
    /// the WAL restart path: recovery truncates the file to its last
    /// complete group, then reopens it here.
    ///
    /// # Errors
    ///
    /// Propagates the open failure.
    pub fn open_append(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(Self::new(BufWriter::new(file)))
    }
}

impl<W: Write> JsonlEmitter<W> {
    /// Creates an emitter over an arbitrary writer.
    pub fn new(writer: W) -> Self {
        JsonlEmitter {
            writer,
            line: String::new(),
            error: None,
            lines: 0,
            sync: SyncPolicy::default(),
            unsynced: 0,
        }
    }

    /// Sets the durability policy applied by
    /// [`emit_durable`](JsonlEmitter::emit_durable).
    #[must_use]
    pub fn with_sync(mut self, sync: SyncPolicy) -> Self {
        self.sync = sync;
        self
    }

    /// Writes one event as a JSON line, encoded into the emitter's
    /// reused line buffer and handed to the writer in one `write_all`.
    /// Harnesses call this directly to interleave [`ObsEvent::Meta`]
    /// labels between engine-driven runs.
    pub fn emit(&mut self, event: &ObsEvent) {
        if self.error.is_some() {
            return;
        }
        self.line.clear();
        if let Err(e) = serde_json::to_string_into(&mut self.line, event) {
            self.error = Some(ObsError::Serialize { msg: e.to_string() });
            return;
        }
        self.line.push('\n');
        if let Err(e) = self.writer.write_all(self.line.as_bytes()) {
            self.error = Some(ObsError::Io(e));
        } else {
            self.lines += 1;
        }
    }

    /// Lines successfully written so far.
    #[must_use]
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// The first error hit, if any.
    #[must_use]
    pub fn error(&self) -> Option<&ObsError> {
        self.error.as_ref()
    }

    /// Flushes and returns the writer.
    ///
    /// # Errors
    ///
    /// Returns the first error latched during emission, or the flush
    /// error.
    pub fn finish(mut self) -> Result<W, ObsError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        self.writer.flush()?;
        Ok(self.writer)
    }
}

impl<W: StableWrite> JsonlEmitter<W> {
    /// Writes one event and applies the configured [`SyncPolicy`]:
    /// the WAL entry point. Returns `true` iff the event was written
    /// (and, where the policy demands it, persisted) successfully; on
    /// `false` the first failure is latched and readable via
    /// [`error`](JsonlEmitter::error), and the caller must not
    /// acknowledge the event.
    ///
    /// Short writes surface as a typed [`ObsError::Io`] (kind
    /// `WriteZero`): `write_all` retries until the whole line is written
    /// or the sink accepts zero bytes.
    pub fn emit_durable(&mut self, event: &ObsEvent) -> bool {
        self.emit(event);
        self.commit()
    }

    /// Marks the durability point of an already-emitted line: counts it
    /// against the [`SyncPolicy`] and persists if the policy says the
    /// batch is due. Callers that need the *write* and the *sync*
    /// separately observable (latency tracing splits `wal_append` from
    /// `wal_sync`) pair [`emit`](JsonlEmitter::emit) with this instead
    /// of calling [`emit_durable`](JsonlEmitter::emit_durable). Returns
    /// `true` iff no error is latched.
    pub fn commit(&mut self) -> bool {
        if self.error.is_none() {
            self.unsynced += 1;
            let due = match self.sync {
                SyncPolicy::PerEvent => true,
                SyncPolicy::PerBatch(n) => self.unsynced >= n.max(1),
                SyncPolicy::OnClose => false,
            };
            if due {
                self.persist();
            }
        }
        self.error.is_none()
    }

    /// Forces all written lines onto stable storage regardless of
    /// policy (shutdown, or the commit point of a multi-line group).
    /// Returns `true` on success; failures latch like emission errors.
    pub fn persist(&mut self) -> bool {
        if self.error.is_none() {
            match self.writer.persist() {
                Ok(()) => self.unsynced = 0,
                Err(e) => self.error = Some(ObsError::Io(e)),
            }
        }
        self.error.is_none()
    }
}

impl<W: Write> Observer for JsonlEmitter<W> {
    fn on_run_start(&mut self, run: RunStart<'_>) {
        self.emit(&ObsEvent::RunStart {
            capacity: run.capacity.to_vec(),
            items: run.items,
        });
    }

    fn on_arrival(&mut self, ev: Arrival<'_>) {
        self.emit(&ObsEvent::Arrival {
            time: ev.time,
            item: ev.item,
            size: ev.size.to_vec(),
        });
    }

    fn on_probe(&mut self, ev: Probe) {
        self.emit(&ObsEvent::Probe {
            time: ev.time,
            item: ev.item,
            bin: ev.bin,
            fit: ev.fit,
            dim: ev.dim,
            need: ev.need,
            have: ev.have,
        });
    }

    fn on_decision(&mut self, ev: Decision) {
        self.emit(&ObsEvent::Decision {
            time: ev.time,
            item: ev.item,
            bin: ev.bin,
            opened_new: ev.opened_new,
            probes: ev.probes,
            score: ev.score,
        });
    }

    fn on_bin_open(&mut self, time: Time, bin: usize) {
        self.emit(&ObsEvent::BinOpen { time, bin });
    }

    fn on_place(&mut self, ev: Place) {
        self.emit(&ObsEvent::Place {
            time: ev.time,
            item: ev.item,
            bin: ev.bin,
            opened_new: ev.opened_new,
            scanned: ev.scanned,
        });
    }

    fn on_depart(&mut self, ev: Depart) {
        self.emit(&ObsEvent::Depart {
            time: ev.time,
            item: ev.item,
            bin: ev.bin,
        });
    }

    fn on_migrate(&mut self, ev: Migrate) {
        self.emit(&ObsEvent::Migrate {
            time: ev.time,
            item: ev.item,
            from: ev.from,
            to: ev.to,
        });
    }

    fn on_bin_close(&mut self, time: Time, bin: usize) {
        self.emit(&ObsEvent::BinClose { time, bin });
    }

    fn on_run_end(&mut self, end: RunEnd) {
        self.emit(&ObsEvent::RunEnd {
            time: end.time,
            items: end.items,
            bins: end.bins,
        });
    }
}

/// Parses a JSONL document back into its event stream (blank lines are
/// skipped).
///
/// # Errors
///
/// Returns [`ObsError::Parse`] with the line number (1-based) of the
/// first malformed line.
pub fn parse_str(text: &str) -> Result<Vec<ObsEvent>, ObsError> {
    let mut events = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let ev: ObsEvent = serde_json::from_str(line).map_err(|e| ObsError::Parse {
            line: lineno + 1,
            msg: e.to_string(),
        })?;
        events.push(ev);
    }
    Ok(events)
}

/// Result of a crash-tolerant WAL scan ([`scan_wal`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalScan {
    /// Events parsed from complete (newline-terminated) lines, in order.
    pub events: Vec<ObsEvent>,
    /// `offsets[i]` is the byte offset just past event `i`'s terminating
    /// newline — truncating the log to `offsets[i]` retains exactly
    /// events `0..=i`.
    pub offsets: Vec<u64>,
    /// Length in bytes of a torn (unterminated) final line that the scan
    /// skipped; `0` when the log ends cleanly on a newline.
    pub torn_bytes: u64,
}

impl WalScan {
    /// Byte length of the valid prefix: the end of the last complete
    /// event line (0 for an empty or fully torn log).
    #[must_use]
    pub fn valid_bytes(&self) -> u64 {
        self.offsets.last().copied().unwrap_or(0)
    }
}

/// Scans raw WAL bytes into events, tolerating a torn final line.
///
/// The emitter writes each event and its `\n` in one `write_all`, so a
/// complete line always ends in a newline; an unterminated tail is
/// therefore proof of a cut write and is **always** classified as torn
/// and skipped — even if the fragment happens to parse as JSON. The
/// scan operates on bytes (not `&str`) because a torn write can split a
/// multi-byte UTF-8 sequence mid-character.
///
/// Blank complete lines are skipped. Trailing blank lines after the last
/// event fall outside [`WalScan::valid_bytes`] and are dropped by a
/// truncate-to-valid recovery, which is harmless.
///
/// # Errors
///
/// A newline-**terminated** line that is not valid UTF-8 or not a valid
/// [`ObsEvent`] is real corruption, not a torn write: the scan returns
/// [`ObsError::Parse`] with its 1-based line number.
pub fn scan_wal(bytes: &[u8]) -> Result<WalScan, ObsError> {
    let mut events = Vec::new();
    let mut offsets = Vec::new();
    let mut pos = 0usize;
    let mut lineno = 0usize;
    while pos < bytes.len() {
        let Some(rel) = bytes[pos..].iter().position(|&b| b == b'\n') else {
            return Ok(WalScan {
                events,
                offsets,
                torn_bytes: (bytes.len() - pos) as u64,
            });
        };
        lineno += 1;
        let end = pos + rel + 1;
        let line = &bytes[pos..pos + rel];
        if !line.iter().all(u8::is_ascii_whitespace) {
            let parsed = std::str::from_utf8(line)
                .map_err(|e| e.to_string())
                .and_then(|text| serde_json::from_str(text).map_err(|e| e.to_string()));
            match parsed {
                Ok(ev) => {
                    events.push(ev);
                    offsets.push(end as u64);
                }
                Err(msg) => return Err(ObsError::Parse { line: lineno, msg }),
            }
        }
        pos = end;
    }
    Ok(WalScan {
        events,
        offsets,
        torn_bytes: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Recorder, ScoreBreakdown, WithProvenance};

    fn drive<O: Observer>(obs: &mut O) {
        obs.on_run_start(RunStart {
            capacity: &[8, 8],
            items: 2,
        });
        obs.on_arrival(Arrival {
            time: 0,
            item: 0,
            size: &[2, 3],
        });
        obs.on_bin_open(0, 0);
        obs.on_place(Place {
            time: 0,
            item: 0,
            bin: 0,
            opened_new: true,
            scanned: 0,
        });
        obs.on_arrival(Arrival {
            time: 1,
            item: 1,
            size: &[1, 1],
        });
        obs.on_place(Place {
            time: 1,
            item: 1,
            bin: 0,
            opened_new: false,
            scanned: 1,
        });
        obs.on_depart(Depart {
            time: 3,
            item: 0,
            bin: 0,
        });
        obs.on_depart(Depart {
            time: 4,
            item: 1,
            bin: 0,
        });
        obs.on_bin_close(4, 0);
        obs.on_run_end(RunEnd {
            time: 4,
            items: 2,
            bins: 1,
        });
    }

    #[test]
    fn emit_parse_round_trip_matches_recorder() {
        let mut emitter = JsonlEmitter::new(Vec::new());
        drive(&mut emitter);
        assert_eq!(emitter.lines(), 10);
        let bytes = emitter.finish().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(text.lines().count(), 10);

        let mut rec = Recorder::new();
        drive(&mut rec);
        assert_eq!(parse_str(&text).unwrap(), rec.events);
    }

    #[test]
    fn probe_and_decision_round_trip() {
        let mut emitter = WithProvenance(JsonlEmitter::new(Vec::new()));
        emitter.on_probe(Probe {
            time: 2,
            item: 5,
            bin: 1,
            fit: false,
            dim: Some(1),
            need: 6,
            have: 3,
        });
        emitter.on_probe(Probe {
            time: 2,
            item: 5,
            bin: 2,
            fit: true,
            dim: None,
            need: 0,
            have: 0,
        });
        emitter.on_decision(Decision {
            time: 2,
            item: 5,
            bin: 2,
            opened_new: false,
            probes: 2,
            score: Some(ScoreBreakdown::Frac { num: 9, den: 16 }),
        });
        let text = String::from_utf8(emitter.0.finish().unwrap()).unwrap();
        let events = parse_str(&text).unwrap();
        assert_eq!(events.len(), 3);
        assert!(matches!(
            events[0],
            ObsEvent::Probe {
                fit: false,
                dim: Some(1),
                need: 6,
                have: 3,
                ..
            }
        ));
        assert!(matches!(events[1], ObsEvent::Probe { dim: None, .. }));
        assert!(matches!(
            events[2],
            ObsEvent::Decision {
                probes: 2,
                score: Some(ScoreBreakdown::Frac { num: 9, den: 16 }),
                ..
            }
        ));
    }

    #[test]
    fn meta_lines_interleave() {
        let mut emitter = JsonlEmitter::new(Vec::new());
        emitter.emit(&ObsEvent::Meta {
            algorithm: "FirstFit".into(),
            d: 2,
            mu: 10,
            seed: 7,
        });
        drive(&mut emitter);
        let text = String::from_utf8(emitter.finish().unwrap()).unwrap();
        let events = parse_str(&text).unwrap();
        assert!(matches!(events[0], ObsEvent::Meta { .. }));
        assert!(matches!(events[1], ObsEvent::RunStart { .. }));
    }

    #[test]
    fn parse_reports_bad_line() {
        let err =
            parse_str("{\"RunEnd\":{\"time\":0,\"items\":0,\"bins\":0}}\nnot json\n").unwrap_err();
        assert!(matches!(err, ObsError::Parse { line: 2, .. }), "{err}");
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn blank_lines_are_skipped() {
        let events = parse_str("\n\n").unwrap();
        assert!(events.is_empty());
    }

    struct FailingWriter;
    impl Write for FailingWriter {
        fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
            Err(io::Error::other("disk full"))
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn io_error_latches_and_surfaces_in_finish() {
        let mut emitter = JsonlEmitter::new(FailingWriter);
        drive(&mut emitter);
        assert!(matches!(emitter.error(), Some(ObsError::Io(_))));
        assert_eq!(emitter.lines(), 0);
        assert!(matches!(emitter.finish(), Err(ObsError::Io(_))));
    }

    fn sample_lines(n: usize) -> Vec<u8> {
        let mut emitter = JsonlEmitter::new(Vec::new());
        for bin in 0..n {
            emitter.emit(&ObsEvent::BinOpen {
                time: bin as Time,
                bin,
            });
        }
        emitter.finish().unwrap()
    }

    #[test]
    fn scan_wal_round_trips_clean_logs_with_offsets() {
        let bytes = sample_lines(3);
        let scan = scan_wal(&bytes).unwrap();
        assert_eq!(scan.events.len(), 3);
        assert_eq!(scan.torn_bytes, 0);
        assert_eq!(scan.valid_bytes(), bytes.len() as u64);
        // Each offset is a truncation point retaining exactly its prefix.
        for (i, &off) in scan.offsets.iter().enumerate() {
            let prefix = scan_wal(&bytes[..off as usize]).unwrap();
            assert_eq!(prefix.events, scan.events[..=i]);
            assert_eq!(prefix.torn_bytes, 0);
        }
    }

    #[test]
    fn scan_wal_skips_a_torn_final_line_instead_of_aborting() {
        let bytes = sample_lines(3);
        // Cut mid-way through the last line: recovery must keep the
        // first two events and report the torn tail.
        let cut = bytes.len() - 5;
        let scan = scan_wal(&bytes[..cut]).unwrap();
        assert_eq!(scan.events.len(), 2);
        assert_eq!(scan.torn_bytes as usize, cut - scan.valid_bytes() as usize);
        assert!(scan.torn_bytes > 0);
    }

    #[test]
    fn scan_wal_distrusts_an_unterminated_line_even_if_it_parses() {
        let mut bytes = sample_lines(2);
        // Drop only the trailing newline: the final line is complete
        // JSON but its missing terminator proves the write was cut.
        bytes.pop();
        let scan = scan_wal(&bytes).unwrap();
        assert_eq!(scan.events.len(), 1);
        assert!(scan.torn_bytes > 0);
    }

    #[test]
    fn scan_wal_survives_a_cut_inside_a_multibyte_character() {
        let mut emitter = JsonlEmitter::new(Vec::new());
        emitter.emit(&ObsEvent::BinOpen { time: 0, bin: 0 });
        emitter.emit(&ObsEvent::Ident {
            item: 0,
            id: "vm-α-β".into(),
        });
        let bytes = emitter.finish().unwrap();
        // The line ends `…β"}}\n` with β a 2-byte sequence; slicing off
        // the last 5 bytes leaves β's lead byte dangling, so the torn
        // tail is not even valid UTF-8.
        let scan = scan_wal(&bytes[..bytes.len() - 5]).unwrap();
        assert_eq!(scan.events.len(), 1);
        assert!(scan.torn_bytes > 0);
    }

    #[test]
    fn scan_wal_refuses_deep_nesting_with_a_parse_error() {
        // 30,000 brackets, bare and as the value of an unknown key.
        let brackets = "[".repeat(30_000);
        let nested = format!(r#"{{"BinOpen":{{"time":0,"bin":0,"x":{brackets}"#);
        for line in [brackets.as_str(), nested.as_str()] {
            let mut bytes = sample_lines(1);
            bytes.extend_from_slice(line.as_bytes());
            bytes.push(b'\n');
            match scan_wal(&bytes) {
                Err(ObsError::Parse { line: 2, .. }) => {}
                other => panic!("expected a line-2 parse error, got {other:?}"),
            }
        }
        let mut bytes = sample_lines(1);
        bytes.extend_from_slice(nested.as_bytes());
        bytes.push(b'\n');
        let err = scan_wal(&bytes).unwrap_err();
        assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
    }

    #[test]
    fn scan_wal_reports_corruption_on_a_terminated_bad_line() {
        let err = scan_wal(b"{\"BinOpen\":{\"time\":0,\"bin\":0}}\ngarbage\n").unwrap_err();
        assert!(matches!(err, ObsError::Parse { line: 2, .. }), "{err}");
    }

    /// Accepts `limit` bytes, then refuses further input (short write).
    struct ShortWriter {
        buf: Vec<u8>,
        limit: usize,
    }
    impl Write for ShortWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let room = self.limit.saturating_sub(self.buf.len());
            let k = buf.len().min(room);
            self.buf.extend_from_slice(&buf[..k]);
            Ok(k)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }
    impl StableWrite for ShortWriter {
        fn persist(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn short_write_surfaces_as_typed_io_error() {
        let mut emitter = JsonlEmitter::new(ShortWriter {
            buf: Vec::new(),
            limit: 10,
        })
        .with_sync(SyncPolicy::PerEvent);
        assert!(!emitter.emit_durable(&ObsEvent::BinOpen { time: 0, bin: 0 }));
        match emitter.error() {
            Some(ObsError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::WriteZero),
            other => panic!("expected typed short-write error, got {other:?}"),
        }
    }

    /// Counts persist calls over an in-memory sink.
    struct CountingSink {
        buf: Vec<u8>,
        persists: usize,
    }
    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.buf.write(buf)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }
    impl StableWrite for CountingSink {
        fn persist(&mut self) -> io::Result<()> {
            self.persists += 1;
            Ok(())
        }
    }

    #[test]
    fn sync_policies_persist_per_event_per_batch_or_never() {
        for (policy, expected) in [
            (SyncPolicy::PerEvent, 6),
            (SyncPolicy::PerBatch(2), 3),
            (SyncPolicy::PerBatch(4), 1),
            (SyncPolicy::OnClose, 0),
        ] {
            let mut emitter = JsonlEmitter::new(CountingSink {
                buf: Vec::new(),
                persists: 0,
            })
            .with_sync(policy);
            for bin in 0..6 {
                assert!(emitter.emit_durable(&ObsEvent::BinOpen { time: 0, bin }));
            }
            let sink = emitter.finish().unwrap();
            assert_eq!(sink.persists, expected, "{policy:?}");
            assert_eq!(sink.buf.iter().filter(|&&b| b == b'\n').count(), 6);
        }
    }

    #[test]
    fn sync_policy_parses_cli_spellings() {
        assert_eq!("per-event".parse(), Ok(SyncPolicy::PerEvent));
        assert_eq!("batch:32".parse(), Ok(SyncPolicy::PerBatch(32)));
        assert_eq!("on-close".parse(), Ok(SyncPolicy::OnClose));
        assert!("sometimes".parse::<SyncPolicy>().is_err());
        assert!("batch:x".parse::<SyncPolicy>().is_err());
    }
}
