//! Shared ingestion machinery, one copy for the three schemas:
//!
//! * [`LineReader`] is the only read loop. It reads into one reused
//!   buffer, strips a leading UTF-8 BOM, skips blank lines and `#`
//!   comments, counts physical lines for error messages, and splits
//!   fields in place (the traces this crate reads never quote fields,
//!   so a plain comma split is exact). Only the first line left after
//!   that may be a header, and the schema judges it by its time column;
//!   a later line whose time does not parse is a data row, so it fails
//!   with its line number.
//! * [`Repair`] is the only place a [`DirtyPolicy`] rule is applied and
//!   counted: a tick behind the stream clock, a departure at or before
//!   its arrival, an oversized or all-zero absolute size, and an id
//!   that is still live. Fractional demands go through [`scale_size`].
//! * [`Pending`] is the constant-memory departure merger.
//!
//! # The merger
//!
//! Trace rows carry *items* (arrival + maybe departure), but the engine
//! consumes *events* in canonical order — departures before arrivals at
//! equal ticks. [`Pending`] performs that merge with O(active) memory:
//! known departures wait in a min-heap, open-ended items (a VM still
//! running when the trace was captured) in a side table that is flushed
//! one tick past the end of the stream. As long as the row feed is
//! arrival-sorted — which every supported trace format promises, and
//! [`Repair::tick`] enforces — the emitted event stream is canonical.

use dvbp_core::{LiveOp, SourceError};
use dvbp_dimvec::DimVec;
use dvbp_sim::Time;
use serde::Serialize;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::io::BufRead;

/// How a parser treats rows a well-formed trace would not contain.
///
/// Real cluster traces are messy: zero-duration items, duplicate ids,
/// timestamps that jump backwards, empty resource columns. `Reject`
/// surfaces the first such row as a typed error — the right default for
/// conformance work. `Clamp` repairs what has an obvious minimal repair
/// (and counts every repair in [`IngestStats`]), which is what replaying
/// a multi-million-row public trace needs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DirtyPolicy {
    /// Fail on the first dirty row.
    #[default]
    Reject,
    /// Repair dirty rows: departures at/before their arrival get the
    /// minimum one-tick stay, backwards timestamps are pulled forward,
    /// all-zero sizes get one unit, oversized demands saturate at the
    /// capacity, and duplicate-id rows are dropped. Every repair is
    /// counted.
    Clamp,
}

impl std::str::FromStr for DirtyPolicy {
    type Err = String;

    /// Parses `reject` or `clamp` (CLI spelling).
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "reject" => Ok(DirtyPolicy::Reject),
            "clamp" => Ok(DirtyPolicy::Clamp),
            _ => Err(format!(
                "unknown dirty policy {s:?} (expected reject or clamp)"
            )),
        }
    }
}

/// Counters describing one ingestion pass. All clamp/drop/skip counters
/// stay zero under [`DirtyPolicy::Reject`] (the first dirty row errors
/// instead).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct IngestStats {
    /// Data rows read (excluding headers, blanks, comments).
    pub rows: u64,
    /// Items admitted (arrivals emitted).
    pub items: u64,
    /// Departures clamped to the minimum one-tick stay.
    pub clamped_durations: u64,
    /// Backwards timestamps pulled forward to the stream clock.
    pub clamped_times: u64,
    /// Sizes repaired (zero → one unit, oversized → capacity).
    pub clamped_sizes: u64,
    /// Rows dropped because their id duplicates an active item.
    pub dropped_duplicates: u64,
    /// Rows skipped as no-ops (e.g. lifecycle events for tasks that
    /// were never scheduled — routine in the Google trace).
    pub skipped_rows: u64,
    /// Items still active at end of trace, closed at the horizon tick.
    pub closed_at_horizon: u64,
}

/// The one read loop (see the [module docs](self)).
pub(crate) struct LineReader<R> {
    reader: R,
    buf: String,
    /// Byte ranges of the current line's trimmed fields in `buf`.
    spans: Vec<(usize, usize)>,
    line: u64,
    /// Whether the first content line, the only header candidate, has
    /// been read.
    past_first: bool,
}

/// One data row's fields, borrowed from the [`LineReader`]'s buffer.
pub(crate) struct Fields<'a> {
    /// 1-based physical line number.
    pub(crate) line: u64,
    buf: &'a str,
    spans: &'a [(usize, usize)],
}

impl<'a> Fields<'a> {
    pub(crate) fn len(&self) -> usize {
        self.spans.len()
    }

    /// Field `i`, trimmed. Callers check [`len`](Self::len) first.
    pub(crate) fn get(&self, i: usize) -> &'a str {
        let (start, end) = self.spans[i];
        &self.buf[start..end]
    }

    /// Field `i` as a non-negative integer; `what` names it in the error.
    pub(crate) fn int(&self, i: usize, what: &str) -> Result<u64, SourceError> {
        let field = self.get(i);
        field.parse().map_err(|_| {
            SourceError::at_line(
                self.line,
                format!("{what} {field:?} is not a non-negative integer"),
            )
        })
    }
}

impl<R: BufRead> LineReader<R> {
    pub(crate) fn new(reader: R) -> Self {
        LineReader {
            reader,
            buf: String::new(),
            spans: Vec::new(),
            line: 0,
            past_first: false,
        }
    }

    /// The next data row, or `None` at end of input. `is_header` is
    /// asked about the first content line only, which is skipped when
    /// it says yes.
    pub(crate) fn next_row(
        &mut self,
        is_header: impl Fn(&Fields<'_>) -> bool,
    ) -> Result<Option<Fields<'_>>, SourceError> {
        loop {
            self.buf.clear();
            let n = self
                .reader
                .read_line(&mut self.buf)
                .map_err(|e| SourceError::new(format!("read failed: {e}")))?;
            if n == 0 {
                return Ok(None);
            }
            self.line += 1;
            let text = if self.line == 1 {
                self.buf.trim_start_matches('\u{feff}')
            } else {
                &self.buf
            };
            let text = text.trim_start();
            let mut at = self.buf.len() - text.len();
            let text = text.trim_end();
            if text.is_empty() || text.starts_with('#') {
                continue;
            }
            self.spans.clear();
            for field in text.split(',') {
                let lead = field.len() - field.trim_start().len();
                self.spans.push((at + lead, at + lead + field.trim().len()));
                at += field.len() + 1;
            }
            let first = !std::mem::replace(&mut self.past_first, true);
            if first && is_header(&self.fields()) {
                continue;
            }
            return Ok(Some(self.fields()));
        }
    }

    fn fields(&self) -> Fields<'_> {
        Fields {
            line: self.line,
            buf: &self.buf,
            spans: &self.spans,
        }
    }
}

/// Applies `policy` to one dirty value: `Reject` fails at `line` with
/// `message`; `Clamp` counts the repair in `counter`, and the caller
/// makes it.
pub(crate) fn repair(
    policy: DirtyPolicy,
    counter: &mut u64,
    line: u64,
    message: impl FnOnce() -> String,
) -> Result<(), SourceError> {
    match policy {
        DirtyPolicy::Reject => Err(SourceError::at_line(line, message())),
        DirtyPolicy::Clamp => {
            *counter += 1;
            Ok(())
        }
    }
}

/// The one repair path (see the [module docs](self)), with the
/// [`IngestStats`] its repairs are counted in.
pub(crate) struct Repair {
    pub(crate) dirty: DirtyPolicy,
    pub(crate) stats: IngestStats,
    /// The stream clock: the latest row tick read so far.
    clock: Time,
    /// Live ids → departure tick (`Time::MAX` = open-ended), pruned
    /// through `expiry` as rows arrive.
    live: HashMap<String, Time>,
    expiry: BinaryHeap<Reverse<(Time, String)>>,
}

impl Repair {
    pub(crate) fn new(dirty: DirtyPolicy) -> Self {
        Repair {
            dirty,
            stats: IngestStats::default(),
            clock: 0,
            live: HashMap::new(),
            expiry: BinaryHeap::new(),
        }
    }

    /// A row's tick (`what` names its column), checked against the
    /// stream clock: a tick behind it is rejected or pulled forward to
    /// it. `Time::MAX` is refused under both policies: it is the
    /// engine's open-departure placeholder, and nothing could depart
    /// after it.
    pub(crate) fn tick(&mut self, line: u64, tick: Time, what: &str) -> Result<Time, SourceError> {
        if tick == Time::MAX {
            return Err(SourceError::at_line(
                line,
                format!("{what} tick {tick} is the largest tick, which no departure can follow"),
            ));
        }
        let clock = self.clock;
        if tick < clock {
            repair(self.dirty, &mut self.stats.clamped_times, line, || {
                format!("rows must be sorted by {what} (tick {tick} after tick {clock})")
            })?;
            return Ok(clock);
        }
        self.clock = tick;
        Ok(tick)
    }

    /// A departure at or before its arrival is rejected, or becomes a
    /// one-tick stay.
    pub(crate) fn departure(
        &mut self,
        line: u64,
        arrival: Time,
        departure: Time,
    ) -> Result<Time, SourceError> {
        if departure > arrival {
            return Ok(departure);
        }
        repair(self.dirty, &mut self.stats.clamped_durations, line, || {
            format!("departure (tick {departure}) must exceed arrival (tick {arrival})")
        })?;
        // `tick` refused `Time::MAX`, so the stay cannot overflow.
        Ok(arrival + 1)
    }

    /// An absolute size: a component above the capacity is rejected or
    /// saturated, and a size that is zero in every dimension is rejected
    /// or given one unit in the first. A zero component alone is legal,
    /// as `Instance::validate` holds.
    pub(crate) fn size(
        &mut self,
        line: u64,
        size: &mut DimVec,
        capacity: &DimVec,
    ) -> Result<(), SourceError> {
        for (v, &cap) in size.as_mut_slice().iter_mut().zip(capacity.as_slice()) {
            if *v > cap {
                let got = *v;
                repair(self.dirty, &mut self.stats.clamped_sizes, line, || {
                    format!("size {got} exceeds the capacity {cap}")
                })?;
                *v = cap;
            }
        }
        if size.is_zero() {
            repair(self.dirty, &mut self.stats.clamped_sizes, line, || {
                "item has zero size in every dimension".to_string()
            })?;
            size.as_mut_slice()[0] = 1;
        }
        Ok(())
    }

    /// The duplicate-id rule: an `id` still live at `start` is rejected,
    /// or its row dropped (`Ok(false)`). Otherwise the id stays live
    /// until `end` (`None` = open-ended), so reusing it after that is
    /// fine.
    pub(crate) fn admit_id(
        &mut self,
        line: u64,
        id: &str,
        start: Time,
        end: Option<Time>,
    ) -> Result<bool, SourceError> {
        while let Some(Reverse((t, _))) = self.expiry.peek() {
            if *t > start {
                break;
            }
            let Some(Reverse((t, gone))) = self.expiry.pop() else {
                break;
            };
            if self.live.get(&gone) == Some(&t) {
                self.live.remove(&gone);
            }
        }
        if self.live.contains_key(id) {
            repair(self.dirty, &mut self.stats.dropped_duplicates, line, || {
                format!("id {id:?} duplicates an item that is still live")
            })?;
            return Ok(false);
        }
        self.live.insert(id.to_string(), end.unwrap_or(Time::MAX));
        if let Some(end) = end {
            self.expiry.push(Reverse((end, id.to_string())));
        }
        Ok(true)
    }
}

/// The constant-memory departure merger (see the [module docs](self)).
///
/// Item indices are assigned densely, in arrival-emission order — so
/// every source built on `Pending` yields index `k` for its `k`-th
/// arrival, which keeps the engine's per-item ledger exactly
/// items-seen long.
#[derive(Default)]
pub(crate) struct Pending {
    /// Known departures, keyed `(tick, item)` — popping ascending gives
    /// both the time order and the within-tick index order.
    heap: BinaryHeap<Reverse<(Time, usize)>>,
    /// Open-ended items (no departure yet): item → arrival tick.
    open: HashMap<usize, Time>,
    next_index: usize,
    /// Time of the latest emitted or admitted event.
    now: Time,
    /// End-of-stream flush of `open`, sorted by item index, all at
    /// `horizon`.
    drain_open: Option<std::vec::IntoIter<usize>>,
    horizon: Time,
}

impl Pending {
    /// Departures due at or before `upcoming` (all of them, when
    /// `None`), earliest first.
    pub(crate) fn next_ready(&mut self, upcoming: Option<Time>) -> Option<LiveOp> {
        let &Reverse((time, item)) = self.heap.peek()?;
        if upcoming.is_some_and(|u| time > u) {
            return None;
        }
        self.heap.pop();
        self.now = self.now.max(time);
        Some(LiveOp::Depart { item, time })
    }

    /// Admits an item arriving at `time`, returning its dense index.
    /// A `Some` departure goes to the heap; `None` marks the item
    /// open-ended (flushed at the horizon, or resolved later via
    /// [`resolve`](Self::resolve)).
    pub(crate) fn admit(&mut self, time: Time, departure: Option<Time>) -> usize {
        let item = self.next_index;
        self.next_index += 1;
        match departure {
            Some(e) => {
                debug_assert!(e > time, "parsers clamp or reject non-positive durations");
                self.heap.push(Reverse((e, item)));
            }
            None => {
                self.open.insert(item, time);
            }
        }
        self.now = self.now.max(time);
        item
    }

    /// Resolves an open-ended item's departure to `time` (already
    /// clamped by the caller to be strictly after its arrival).
    pub(crate) fn resolve(&mut self, item: usize, time: Time) {
        let removed = self.open.remove(&item);
        debug_assert!(removed.is_some(), "resolve of a non-open item");
        self.heap.push(Reverse((time, item)));
    }

    /// Arrival tick of an open-ended item.
    pub(crate) fn arrival_of(&self, item: usize) -> Option<Time> {
        self.open.get(&item).copied()
    }

    /// End-of-stream drain: remaining heap departures, then every
    /// still-open item at one tick past the stream's last event (the
    /// *horizon*). Returns `true` in the second slot for horizon
    /// closures so callers can count them.
    pub(crate) fn drain(&mut self) -> Option<(LiveOp, bool)> {
        if let Some(op) = self.next_ready(None) {
            return Some((op, false));
        }
        if self.drain_open.is_none() {
            if self.open.is_empty() {
                return None;
            }
            let mut items: Vec<usize> = self.open.keys().copied().collect();
            items.sort_unstable();
            // Arrivals are below `Time::MAX`, so a departure at MAX
            // still leaves a horizon after every open item's arrival.
            self.horizon = self.now.saturating_add(1);
            self.drain_open = Some(items.into_iter());
        }
        let item = self.drain_open.as_mut()?.next()?;
        self.open.remove(&item);
        Some((
            LiveOp::Depart {
                item,
                time: self.horizon,
            },
            true,
        ))
    }

    /// [`drain`](Self::drain), counting horizon closures in `stats`.
    pub(crate) fn drain_counted(&mut self, stats: &mut IngestStats) -> Option<LiveOp> {
        let (op, at_horizon) = self.drain()?;
        stats.closed_at_horizon += u64::from(at_horizon);
        Some(op)
    }
}

/// Parses a non-negative decimal (`12`, `0.5`, `1e-3`) field.
pub(crate) fn parse_fraction(field: &str, line: u64, what: &str) -> Result<f64, SourceError> {
    let v: f64 = field
        .parse()
        .map_err(|_| SourceError::at_line(line, format!("{what} {field:?} is not a number")))?;
    if !v.is_finite() || v < 0.0 {
        return Err(SourceError::at_line(
            line,
            format!("{what} {field:?} is not a finite non-negative number"),
        ));
    }
    Ok(v)
}

/// Scales a fractional resource demand to integer units of `cap`,
/// repairing dirt per `policy`: a zero demand becomes one unit, an
/// oversized one saturates at the capacity (both only under `Clamp`).
pub(crate) fn scale_size(
    frac: f64,
    cap: u64,
    policy: DirtyPolicy,
    line: u64,
    clamped: &mut u64,
) -> Result<u64, SourceError> {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let units = (frac * cap as f64).round() as u64;
    if units == 0 {
        repair(policy, clamped, line, || {
            format!("zero resource demand {frac}")
        })?;
        return Ok(1);
    }
    if units > cap {
        repair(policy, clamped, line, || {
            format!("resource demand {frac} exceeds the capacity")
        })?;
        return Ok(cap);
    }
    Ok(units)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merger_orders_departures_before_equal_tick_arrivals() {
        let mut p = Pending::default();
        let a = p.admit(0, Some(5));
        assert_eq!(a, 0);
        // Next arrival is at tick 5: the tick-5 departure comes first.
        assert_eq!(
            p.next_ready(Some(5)),
            Some(LiveOp::Depart { item: 0, time: 5 })
        );
        let b = p.admit(5, Some(7));
        assert_eq!(b, 1);
        assert_eq!(p.next_ready(Some(6)), None, "tick-7 departure not yet due");
        assert_eq!(
            p.drain(),
            Some((LiveOp::Depart { item: 1, time: 7 }, false))
        );
        assert_eq!(p.drain(), None);
    }

    #[test]
    fn merger_flushes_open_ended_items_at_the_horizon() {
        let mut p = Pending::default();
        let a = p.admit(2, None);
        let b = p.admit(4, Some(9));
        let c = p.admit(5, None);
        assert_eq!(
            p.drain(),
            Some((LiveOp::Depart { item: b, time: 9 }, false))
        );
        // Horizon = one past the last event (9), open items by index.
        assert_eq!(
            p.drain(),
            Some((LiveOp::Depart { item: a, time: 10 }, true))
        );
        assert_eq!(
            p.drain(),
            Some((LiveOp::Depart { item: c, time: 10 }, true))
        );
        assert_eq!(p.drain(), None);
    }

    #[test]
    fn scale_size_repairs_only_under_clamp() {
        let mut n = 0;
        assert_eq!(
            scale_size(0.5, 100, DirtyPolicy::Reject, 1, &mut n).unwrap(),
            50
        );
        assert!(scale_size(0.0, 100, DirtyPolicy::Reject, 1, &mut n).is_err());
        assert!(scale_size(1.5, 100, DirtyPolicy::Reject, 1, &mut n).is_err());
        assert_eq!(n, 0);
        assert_eq!(
            scale_size(0.0, 100, DirtyPolicy::Clamp, 1, &mut n).unwrap(),
            1
        );
        assert_eq!(
            scale_size(1.5, 100, DirtyPolicy::Clamp, 1, &mut n).unwrap(),
            100
        );
        assert_eq!(n, 2);
    }
}
