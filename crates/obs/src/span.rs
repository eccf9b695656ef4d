//! Request-lifecycle spans: per-stage monotonic timers, lock-free
//! latency sinks, and an always-on flight recorder.
//!
//! A serving layer (`dvbp-serve`) threads one [`Span`] through each
//! request from accept to ack. The span is a stack value holding a
//! fixed [`Stage`]-indexed array of nanosecond accumulators; each
//! [`Span::mark`] charges the time since the previous boundary to one
//! stage (one `Instant::now()` per boundary — a shared clock read ends
//! stage *i* and starts stage *i+1*), and [`Span::finish`] freezes the
//! result into a [`SpanRecord`], a plain `Copy` struct with no heap
//! behind it. Recording a finished span into an [`AtomicHistogram`] or
//! a [`SpanRing`] is lock- and allocation-free, so tracing adds zero
//! steady-state allocations per request (the serve crate's
//! counting-allocator test holds it to that).
//!
//! Timing is observational only: span data never feeds back into
//! engine decisions or the write-ahead log, so traced and untraced
//! runs stay bit-identical.
//!
//! # Flight recorder
//!
//! [`SpanRing`] is a fixed-capacity, multi-producer ring of the last N
//! complete records. Each slot is a per-slot seqlock: the writer
//! claims a monotonically increasing ticket, stamps the slot's
//! sequence odd, stores the record as plain `u64` words, then stamps
//! the sequence even; a reader copies the words and keeps the slot
//! only if the sequence was stable and even around the copy. Torn or
//! in-flight slots are skipped, never blocked on — dumping the ring
//! from an HTTP handler can never stall the serving path.

use crate::histogram::LogHistogram;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::time::Instant;

/// The fixed set of request stages, in serving-path order.
///
/// Stage semantics (what the span charges to each):
///
/// * `Recv` — blocking on the socket for the request line (includes
///   client think time on keep-alive sessions, which is why slow-request
///   classification uses [`SpanRecord::service_ns`]);
/// * `Parse` — JSON decode of the request line;
/// * `Route` — id → shard resolution (and directory update);
/// * `LockWait` — waiting on the owning shard's mutex;
/// * `Dispatch` — the engine's placement / departure decision;
/// * `Repack` — migrations run by the shard's repack policy;
/// * `WalAppend` — journaling the operation's WAL group lines;
/// * `WalSync` — forcing the group's commit line onto stable storage;
/// * `Reply` — serializing and writing the response line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Socket read of the request line.
    Recv,
    /// Request-line JSON decode.
    Parse,
    /// Id → shard routing.
    Route,
    /// Shard mutex acquisition.
    LockWait,
    /// Engine placement / departure decision.
    Dispatch,
    /// Repack-policy migrations.
    Repack,
    /// WAL group append.
    WalAppend,
    /// WAL commit-line sync.
    WalSync,
    /// Response serialization and write.
    Reply,
}

impl Stage {
    /// Number of stages.
    pub const COUNT: usize = 9;

    /// Every stage, in serving-path order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::Recv,
        Stage::Parse,
        Stage::Route,
        Stage::LockWait,
        Stage::Dispatch,
        Stage::Repack,
        Stage::WalAppend,
        Stage::WalSync,
        Stage::Reply,
    ];

    /// Stable snake_case name (metric label value).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::Recv => "recv",
            Stage::Parse => "parse",
            Stage::Route => "route",
            Stage::LockWait => "lock_wait",
            Stage::Dispatch => "dispatch",
            Stage::Repack => "repack",
            Stage::WalAppend => "wal_append",
            Stage::WalSync => "wal_sync",
            Stage::Reply => "reply",
        }
    }

    /// Index into a [`Stage::COUNT`]-sized array.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// The kind of request a span covers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OpKind {
    /// Item admission.
    Arrive,
    /// Item retirement.
    Depart,
    /// Status snapshot (and every other non-mutating request).
    #[default]
    Query,
}

impl OpKind {
    /// Number of op kinds.
    pub const COUNT: usize = 3;

    /// Every op kind.
    pub const ALL: [OpKind; OpKind::COUNT] = [OpKind::Arrive, OpKind::Depart, OpKind::Query];

    /// Stable name (metric label value).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Arrive => "arrive",
            OpKind::Depart => "depart",
            OpKind::Query => "query",
        }
    }

    /// Index into an [`OpKind::COUNT`]-sized array.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    fn from_index(i: u64) -> OpKind {
        match i {
            0 => OpKind::Arrive,
            1 => OpKind::Depart,
            _ => OpKind::Query,
        }
    }
}

/// A live per-request timer: one [`Instant`] start plus a per-stage
/// nanosecond accumulator, all on the stack.
#[derive(Clone, Debug)]
pub struct Span {
    op: OpKind,
    time: u64,
    start: Instant,
    last: Instant,
    stage_ns: [u64; Stage::COUNT],
}

fn ns_between(earlier: Instant, later: Instant) -> u64 {
    u64::try_from(later.duration_since(earlier).as_nanos()).unwrap_or(u64::MAX)
}

impl Span {
    /// Starts a span now. The op kind (and logical tick) are usually
    /// unknown until the request parses; set them later via
    /// [`Span::set_op`].
    #[must_use]
    pub fn begin() -> Span {
        let now = Instant::now();
        Span {
            op: OpKind::Query,
            time: 0,
            start: now,
            last: now,
            stage_ns: [0; Stage::COUNT],
        }
    }

    /// Sets the op kind and the request's logical tick once parsed.
    pub fn set_op(&mut self, op: OpKind, time: u64) {
        self.op = op;
        self.time = time;
    }

    /// Ends the current stage: charges the time since the previous
    /// boundary to `stage`. Stages may be marked more than once (the
    /// charges accumulate) and in any order; unmarked stages stay 0.
    pub fn mark(&mut self, stage: Stage) {
        let now = Instant::now();
        self.stage_ns[stage.index()] =
            self.stage_ns[stage.index()].saturating_add(ns_between(self.last, now));
        self.last = now;
    }

    /// Freezes the span into a [`SpanRecord`]. `shard` is the owning
    /// shard's index ([`SpanRecord::SERVICE`] for service-wide ops);
    /// `ok` records whether the request succeeded.
    #[must_use]
    pub fn finish(self, shard: u32, ok: bool) -> SpanRecord {
        SpanRecord {
            op: self.op,
            shard,
            ok,
            time: self.time,
            total_ns: ns_between(self.start, Instant::now()),
            stage_ns: self.stage_ns,
        }
    }
}

/// One finished request's timing: total latency plus the per-stage
/// split. Plain `Copy` data — pushing a record anywhere is
/// allocation-free.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanRecord {
    /// Request kind.
    pub op: OpKind,
    /// Owning shard, or [`SpanRecord::SERVICE`].
    pub shard: u32,
    /// Whether the request succeeded.
    pub ok: bool,
    /// The request's logical tick (0 for queries).
    pub time: u64,
    /// End-to-end latency, accept to ack (ns).
    pub total_ns: u64,
    /// Per-stage latency split, indexed by [`Stage::index`] (ns).
    pub stage_ns: [u64; Stage::COUNT],
}

impl SpanRecord {
    /// Shard value for requests not owned by any shard (queries).
    pub const SERVICE: u32 = u32::MAX;

    /// Number of `u64` words in the wire encoding.
    pub const WORDS: usize = 3 + Stage::COUNT;

    /// Service time: total minus the socket-receive stage, i.e. the
    /// latency the *server* is responsible for. Slow-request
    /// classification uses this so an idle keep-alive connection never
    /// pollutes the slow ring.
    #[must_use]
    pub fn service_ns(&self) -> u64 {
        self.total_ns
            .saturating_sub(self.stage_ns[Stage::Recv.index()])
    }

    /// Packs the record into plain words (ring-slot encoding).
    #[must_use]
    pub fn encode(&self) -> [u64; SpanRecord::WORDS] {
        let mut w = [0u64; SpanRecord::WORDS];
        w[0] = (u64::from(self.shard) << 32) | (u64::from(self.ok) << 8) | self.op.index() as u64;
        w[1] = self.time;
        w[2] = self.total_ns;
        w[3..].copy_from_slice(&self.stage_ns);
        w
    }

    /// Unpacks a record from its word encoding.
    #[must_use]
    pub fn decode(w: &[u64; SpanRecord::WORDS]) -> SpanRecord {
        let mut stage_ns = [0u64; Stage::COUNT];
        stage_ns.copy_from_slice(&w[3..]);
        SpanRecord {
            op: OpKind::from_index(w[0] & 0xff),
            shard: (w[0] >> 32) as u32,
            ok: (w[0] >> 8) & 1 == 1,
            time: w[1],
            total_ns: w[2],
            stage_ns,
        }
    }

    /// Appends the record as one JSON object (no trailing newline).
    /// Hand-rolled so the dump path has a fixed, dependency-free shape:
    /// `{"op":"arrive","shard":0,"ok":true,"time":3,"total_ns":…,
    /// "stages":{"recv":…,…}}`. `shard` is `"svc"` for service-wide
    /// records.
    pub fn write_json(&self, out: &mut String) {
        use std::fmt::Write as _;
        out.push_str("{\"op\":\"");
        out.push_str(self.op.name());
        out.push_str("\",\"shard\":");
        if self.shard == SpanRecord::SERVICE {
            out.push_str("\"svc\"");
        } else {
            let _ = write!(out, "{}", self.shard);
        }
        let _ = write!(
            out,
            ",\"ok\":{},\"time\":{},\"total_ns\":{},\"stages\":{{",
            self.ok, self.time, self.total_ns
        );
        for (i, stage) in Stage::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", stage.name(), self.stage_ns[i]);
        }
        out.push_str("}}");
    }
}

/// Number of buckets in an [`AtomicHistogram`] (same layout as
/// [`LogHistogram`]).
const BUCKETS: usize = 65;

/// A concurrently-recordable [`LogHistogram`]: 65 relaxed `AtomicU64`
/// buckets plus sum and max. `record` is wait-free (three atomic RMW
/// ops); `snapshot` copies the buckets into a plain [`LogHistogram`]
/// whose total is computed from the copy, so a scrape racing with
/// writers always renders an internally consistent (cumulative)
/// histogram.
#[derive(Debug)]
pub struct AtomicHistogram {
    counts: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHistogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        AtomicHistogram {
            counts: [const { AtomicU64::new(0) }; BUCKETS],
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value (wait-free, relaxed ordering).
    pub fn record(&self, v: u64) {
        self.counts[LogHistogram::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Copies the current state into a plain [`LogHistogram`].
    #[must_use]
    pub fn snapshot(&self) -> LogHistogram {
        let mut counts = [0u64; BUCKETS];
        for (c, a) in counts.iter_mut().zip(&self.counts) {
            *c = a.load(Ordering::Relaxed);
        }
        LogHistogram::from_counts(
            &counts,
            self.sum.load(Ordering::Relaxed),
            self.max.load(Ordering::Relaxed),
        )
    }
}

/// One ring slot: a per-slot seqlock over the record's word encoding.
#[derive(Debug)]
struct Slot {
    /// 0 = never written; `2t+1` = ticket `t` writing; `2t+2` = ticket
    /// `t` complete. Only the writer that moved it to `2t+1` writes the
    /// words or the seq until it publishes `2t+2`.
    seq: AtomicU64,
    words: [AtomicU64; SpanRecord::WORDS],
}

/// Fixed-capacity, lock-free, multi-producer ring of the last N
/// complete [`SpanRecord`]s (the flight recorder).
///
/// Writers never block and never allocate: each claims its slot before
/// writing it, and drops its record when the slot is owned by another
/// writer or already holds a newer ticket. Readers ([`SpanRing::
/// snapshot`]) copy slots optimistically and skip any slot a writer
/// touched mid-copy. Capacity is rounded up to a power of two.
#[derive(Debug)]
pub struct SpanRing {
    mask: u64,
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl SpanRing {
    /// Creates a ring holding the last `capacity` records (rounded up
    /// to a power of two, minimum 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(1).next_power_of_two() as u64;
        let slots = (0..cap)
            .map(|_| Slot {
                seq: AtomicU64::new(0),
                words: [const { AtomicU64::new(0) }; SpanRecord::WORDS],
            })
            .collect();
        SpanRing {
            mask: cap - 1,
            head: AtomicU64::new(0),
            slots,
        }
    }

    /// Ring capacity (power of two).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Records ever pushed (not capped at capacity).
    #[must_use]
    pub fn pushed(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Pushes one record, overwriting the oldest slot. Wait-free. The
    /// record is dropped when its slot is still being written by an
    /// older ticket's writer (which was descheduled mid-write) or
    /// already holds a newer ticket (this writer was lapped before it
    /// claimed the slot).
    pub fn push(&self, rec: &SpanRecord) {
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        if let Some(slot) = self.claim(ticket) {
            Self::publish(slot, ticket, rec);
        }
    }

    /// Claims `ticket`'s slot: moves its seq from a completed older
    /// ticket (or 0) to `2t+1`. `None` when the slot is owned by another
    /// writer (odd) or holds a newer ticket. Each retry follows another
    /// writer's claim of an older ticket, so the loop is bounded.
    fn claim(&self, ticket: u64) -> Option<&Slot> {
        let slot = &self.slots[(ticket & self.mask) as usize];
        let mut seq = slot.seq.load(Ordering::Relaxed);
        while seq.is_multiple_of(2) && seq < 2 * ticket + 1 {
            // Acquire: the older writer's word stores come before ours.
            match slot.seq.compare_exchange(
                seq,
                2 * ticket + 1,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    // Release: a reader that copies any word stored after
                    // this sees the odd seq on its re-check (pairs with
                    // the Acquire fence in `snapshot`).
                    fence(Ordering::Release);
                    return Some(slot);
                }
                Err(now) => seq = now,
            }
        }
        None
    }

    /// Writes `rec` into a slot claimed for `ticket` and marks it
    /// complete.
    fn publish(slot: &Slot, ticket: u64, rec: &SpanRecord) {
        for (w, v) in slot.words.iter().zip(rec.encode()) {
            w.store(v, Ordering::Relaxed);
        }
        slot.seq.store(2 * ticket + 2, Ordering::Release);
    }

    /// Copies the current contents, oldest first. Slots being written
    /// (or overwritten) during the copy are skipped, and so is a slot
    /// whose newest ticket was dropped (see [`SpanRing::push`]) until a
    /// later ticket rewrites it, so the result can be shorter than
    /// [`SpanRing::capacity`] under contention — but every returned
    /// record is internally consistent.
    #[must_use]
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let head = self.head.load(Ordering::Acquire);
        let n = head.min(self.mask + 1);
        let mut out = Vec::with_capacity(n as usize);
        for ticket in (head - n)..head {
            let slot = &self.slots[(ticket & self.mask) as usize];
            let expected = 2 * ticket + 2;
            if slot.seq.load(Ordering::Acquire) != expected {
                continue;
            }
            let mut w = [0u64; SpanRecord::WORDS];
            for (dst, src) in w.iter_mut().zip(&slot.words) {
                *dst = src.load(Ordering::Relaxed);
            }
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) == expected {
                out.push(SpanRecord::decode(&w));
            }
        }
        out
    }
}

/// A per-shard flight recorder: a `recent` ring of every completed
/// request plus a `slow` keep-ring of outliers whose
/// [`SpanRecord::service_ns`] met the threshold.
#[derive(Debug)]
pub struct FlightRecorder {
    recent: SpanRing,
    slow: SpanRing,
    slow_threshold_ns: AtomicU64,
    slow_total: AtomicU64,
}

impl FlightRecorder {
    /// Creates a recorder with the given ring capacities and slow
    /// threshold (`0` disables slow capture).
    #[must_use]
    pub fn new(recent_capacity: usize, slow_capacity: usize, slow_threshold_ns: u64) -> Self {
        FlightRecorder {
            recent: SpanRing::new(recent_capacity),
            slow: SpanRing::new(slow_capacity),
            slow_threshold_ns: AtomicU64::new(slow_threshold_ns),
            slow_total: AtomicU64::new(0),
        }
    }

    /// Records one finished span: always into the recent ring, and into
    /// the slow ring when its service time meets the threshold.
    pub fn record(&self, rec: &SpanRecord) {
        self.recent.push(rec);
        let threshold = self.slow_threshold_ns.load(Ordering::Relaxed);
        if threshold > 0 && rec.service_ns() >= threshold {
            self.slow.push(rec);
            self.slow_total.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The recent ring.
    #[must_use]
    pub fn recent(&self) -> &SpanRing {
        &self.recent
    }

    /// The slow keep-ring.
    #[must_use]
    pub fn slow(&self) -> &SpanRing {
        &self.slow
    }

    /// Requests ever classified slow (monotonic; not capped by ring
    /// capacity).
    #[must_use]
    pub fn slow_total(&self) -> u64 {
        self.slow_total.load(Ordering::Relaxed)
    }

    /// The current slow threshold (ns; 0 = disabled).
    #[must_use]
    pub fn slow_threshold_ns(&self) -> u64 {
        self.slow_threshold_ns.load(Ordering::Relaxed)
    }

    /// Updates the slow threshold (ns; 0 disables slow capture).
    pub fn set_slow_threshold_ns(&self, ns: u64) {
        self.slow_threshold_ns.store(ns, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    fn record(shard: u32, total: u64) -> SpanRecord {
        let mut stage_ns = [0u64; Stage::COUNT];
        stage_ns[Stage::Dispatch.index()] = total;
        SpanRecord {
            op: OpKind::Arrive,
            shard,
            ok: true,
            time: 7,
            total_ns: total,
            stage_ns,
        }
    }

    #[test]
    fn span_marks_partition_the_total() {
        let mut span = Span::begin();
        span.set_op(OpKind::Depart, 42);
        span.mark(Stage::Recv);
        span.mark(Stage::Parse);
        std::thread::sleep(std::time::Duration::from_millis(2));
        span.mark(Stage::Dispatch);
        span.mark(Stage::Reply);
        let rec = span.finish(3, true);
        assert_eq!(rec.op, OpKind::Depart);
        assert_eq!(rec.shard, 3);
        assert_eq!(rec.time, 42);
        let stage_sum: u64 = rec.stage_ns.iter().sum();
        assert!(rec.total_ns >= stage_sum, "{rec:?}");
        // The sleep landed in Dispatch, and finish() only adds the
        // tail after the last mark.
        assert!(
            rec.stage_ns[Stage::Dispatch.index()] >= 2_000_000,
            "{rec:?}"
        );
        assert!(rec.total_ns - stage_sum < 1_000_000, "{rec:?}");
    }

    #[test]
    fn marks_accumulate_on_reentry() {
        let mut span = Span::begin();
        span.mark(Stage::WalAppend);
        span.mark(Stage::WalSync);
        span.mark(Stage::WalAppend);
        let rec = span.finish(0, true);
        let stage_sum: u64 = rec.stage_ns.iter().sum();
        assert!(rec.total_ns >= stage_sum);
    }

    #[test]
    fn record_encoding_round_trips() {
        let mut rec = record(SpanRecord::SERVICE, 12345);
        rec.op = OpKind::Query;
        rec.ok = false;
        for (i, s) in rec.stage_ns.iter_mut().enumerate() {
            *s = (i as u64 + 1) * 10;
        }
        assert_eq!(SpanRecord::decode(&rec.encode()), rec);
    }

    #[test]
    fn service_time_excludes_recv() {
        let mut rec = record(0, 1000);
        rec.stage_ns[Stage::Recv.index()] = 900;
        assert_eq!(rec.service_ns(), 100);
    }

    #[test]
    fn json_shape_is_stable() {
        let mut out = String::new();
        record(0, 5).write_json(&mut out);
        assert!(
            out.starts_with("{\"op\":\"arrive\",\"shard\":0,\"ok\":true"),
            "{out}"
        );
        assert!(out.contains("\"stages\":{\"recv\":0,"), "{out}");
        assert!(out.contains("\"dispatch\":5"), "{out}");
        out.clear();
        record(SpanRecord::SERVICE, 5).write_json(&mut out);
        assert!(out.contains("\"shard\":\"svc\""), "{out}");
    }

    #[test]
    fn atomic_histogram_snapshot_matches_scalar() {
        let a = AtomicHistogram::new();
        let mut h = LogHistogram::new();
        for v in [0u64, 1, 5, 1000, 1 << 40] {
            a.record(v);
            h.record(v);
        }
        assert_eq!(a.snapshot(), h);
    }

    #[test]
    fn ring_keeps_the_last_capacity_records_in_order() {
        let ring = SpanRing::new(4);
        for i in 0..10u64 {
            ring.push(&record(0, i));
        }
        let snap = ring.snapshot();
        assert_eq!(
            snap.iter().map(|r| r.total_ns).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
        assert_eq!(ring.pushed(), 10);
    }

    #[test]
    fn ring_snapshot_of_partial_fill() {
        let ring = SpanRing::new(8);
        ring.push(&record(1, 11));
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].total_ns, 11);
        assert!(SpanRing::new(8).snapshot().is_empty());
    }

    #[test]
    fn concurrent_pushes_never_yield_torn_records() {
        // Writers tag every stage slot with the record's total; any
        // torn read would mix tags from two records. `snapshot` may skip
        // every slot while writers race it, so the writers keep pushing
        // until the reader has seen a complete record.
        let ring = SpanRing::new(16);
        let stop = AtomicBool::new(false);
        let check = |snap: Vec<SpanRecord>| {
            for rec in &snap {
                assert!(
                    rec.stage_ns.iter().all(|&s| s == rec.total_ns),
                    "torn record: {rec:?}"
                );
            }
            snap.len()
        };
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        let (seen, pushed) = std::thread::scope(|scope| {
            let writers: Vec<_> = (0..4u64)
                .map(|t| {
                    let (ring, stop) = (&ring, &stop);
                    scope.spawn(move || {
                        let mut i = 0u64;
                        while i < 5000 || !stop.load(Ordering::Relaxed) {
                            let tag = (t << 40) | i;
                            let mut rec = record(t as u32, tag);
                            rec.stage_ns = [tag; Stage::COUNT];
                            ring.push(&rec);
                            i += 1;
                        }
                        i
                    })
                })
                .collect();
            let mut seen = 0usize;
            let mut snapshots = 0;
            while (seen == 0 || snapshots < 200) && std::time::Instant::now() < deadline {
                seen += check(ring.snapshot());
                snapshots += 1;
            }
            stop.store(true, Ordering::Relaxed);
            let pushed: u64 = writers.into_iter().map(|w| w.join().unwrap()).sum();
            (seen, pushed)
        });
        assert!(seen > 0, "no snapshot saw a complete record in 60 s");
        assert_eq!(ring.pushed(), pushed);
        // A writer descheduled mid-write makes the writer of the next
        // ticket on its slot drop that record, and the slot then holds
        // an older ticket's record, which `snapshot` skips. One round
        // from this thread rewrites every slot in ticket order; then a
        // quiescent snapshot is full.
        for i in 0..ring.capacity() as u64 {
            let mut rec = record(9, i);
            rec.stage_ns = [i; Stage::COUNT];
            ring.push(&rec);
        }
        assert_eq!(check(ring.snapshot()), ring.capacity());
    }

    #[test]
    fn a_late_older_writer_leaves_the_newer_record_readable() {
        let ring = SpanRing::new(4);
        // Ticket 0 is taken, then its writer is lapped before claiming.
        let late = ring.head.fetch_add(1, Ordering::Relaxed);
        for i in 1..=4u64 {
            ring.push(&record(0, i));
        }
        assert!(ring.claim(late).is_none(), "slot 0 holds ticket 4");
        let snap = ring.snapshot();
        assert_eq!(
            snap.iter().map(|r| r.total_ns).collect::<Vec<_>>(),
            vec![1, 2, 3, 4]
        );
    }

    #[test]
    fn a_writer_meeting_an_owned_slot_drops_its_record() {
        let ring = SpanRing::new(4);
        // Ticket 0's writer claims slot 0 and stalls mid-write.
        let stalled = ring.head.fetch_add(1, Ordering::Relaxed);
        let slot = ring.claim(stalled).expect("a fresh slot is free");
        for i in 1..=4u64 {
            // Ticket 4 meets slot 0 owned and drops its record.
            ring.push(&record(0, i));
        }
        assert_eq!(slot.seq.load(Ordering::Relaxed), 2 * stalled + 1);
        SpanRing::publish(slot, stalled, &record(0, 0));
        // Slot 0 holds the complete ticket-0 record, outside the window
        // of the last four tickets: skipped, never published torn.
        let snap = ring.snapshot();
        assert_eq!(
            snap.iter().map(|r| r.total_ns).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert!(snap
            .iter()
            .all(|r| r.stage_ns[Stage::Dispatch.index()] == r.total_ns));
    }

    #[test]
    fn flight_recorder_classifies_slow_by_service_time() {
        let fr = FlightRecorder::new(8, 8, 100);
        let mut idle = record(0, 1_000);
        idle.stage_ns[Stage::Recv.index()] = 950;
        idle.stage_ns[Stage::Dispatch.index()] = 50;
        fr.record(&idle); // service 50 < 100: not slow
        fr.record(&record(0, 500)); // service 500 >= 100: slow
        assert_eq!(fr.recent().snapshot().len(), 2);
        assert_eq!(fr.slow().snapshot().len(), 1);
        assert_eq!(fr.slow_total(), 1);
        fr.set_slow_threshold_ns(0);
        fr.record(&record(0, 500));
        assert_eq!(fr.slow_total(), 1, "threshold 0 disables slow capture");
    }
}
