//! Streaming parser for the repo's **native trace CSV**
//! (`arrival,departure,size...` — the format `dvbp import` and the
//! batch [`tracefile`](../../src/tracefile.rs) loader speak), for
//! traces too large to materialize.
//!
//! Unlike the batch loader, which sorts after the fact, the streaming
//! parser requires rows to arrive in nondecreasing arrival order
//! (rejecting or clamping stragglers per [`DirtyPolicy`]). Sizes are
//! raw integer units against an explicit capacity — no fraction
//! scaling.

use crate::ingest::{split_fields, DirtyPolicy, IngestStats, Pending};
use dvbp_core::{EventSource, LiveOp, SourceError};
use dvbp_dimvec::DimVec;
use dvbp_sim::Time;
use std::io::BufRead;

/// A parsed row held as lookahead until its arrival emits.
struct Row {
    arrival: Time,
    departure: Time,
    size: DimVec,
}

/// Streaming [`EventSource`] over a native `arrival,departure,size...`
/// CSV.
pub struct NativeSource<R> {
    reader: R,
    capacity: DimVec,
    dirty: DirtyPolicy,
    pending: Pending,
    stats: IngestStats,
    line_no: u64,
    /// Whether the first non-blank, non-comment line — the only one
    /// that may be a header — has been read.
    saw_first_row: bool,
    clock: Time,
    lookahead: Option<Row>,
    eof: bool,
}

impl<R: BufRead> NativeSource<R> {
    /// Opens a native-format stream against the given bin capacity
    /// (required: native sizes are absolute units, so there is no
    /// sensible default).
    pub fn new(reader: R, capacity: DimVec, dirty: DirtyPolicy) -> Self {
        NativeSource {
            reader,
            capacity,
            dirty,
            pending: Pending::default(),
            stats: IngestStats::default(),
            line_no: 0,
            saw_first_row: false,
            clock: 0,
            lookahead: None,
            eof: false,
        }
    }

    /// Ingest statistics so far (final once the stream is exhausted).
    pub fn stats(&self) -> IngestStats {
        self.stats
    }

    /// Parses the next data row, or `None` at end of input.
    fn next_row(&mut self) -> Result<Option<Row>, SourceError> {
        let mut buf = String::new();
        loop {
            buf.clear();
            let n = self
                .reader
                .read_line(&mut buf)
                .map_err(|e| SourceError::new(format!("read failed: {e}")))?;
            if n == 0 {
                return Ok(None);
            }
            self.line_no += 1;
            let line = if self.line_no == 1 {
                buf.trim_start_matches('\u{feff}').trim()
            } else {
                buf.trim()
            };
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields = split_fields(line);
            // The first non-blank, non-comment line is a header iff its
            // arrival column is not numeric (`parse_csv`'s rule); an
            // all-numeric first row is data.
            let first_row = !self.saw_first_row;
            self.saw_first_row = true;
            if first_row && fields.first().is_some_and(|f| f.parse::<u64>().is_err()) {
                continue;
            }
            let d = self.capacity.dim();
            if fields.len() != d + 2 {
                return Err(SourceError::at_line(
                    self.line_no,
                    format!(
                        "expected arrival,departure and {d} sizes ({} fields), got {}",
                        d + 2,
                        fields.len()
                    ),
                ));
            }
            self.stats.rows += 1;
            let parse = |field: &str, what: &str| -> Result<u64, SourceError> {
                field.parse().map_err(|_| {
                    SourceError::at_line(
                        self.line_no,
                        format!("{what} {field:?} is not a non-negative integer"),
                    )
                })
            };
            let mut arrival = parse(fields[0], "arrival")?;
            if arrival < self.clock {
                match self.dirty {
                    DirtyPolicy::Reject => {
                        return Err(SourceError::at_line(
                            self.line_no,
                            format!(
                                "rows must be sorted by arrival (tick {arrival} after tick {})",
                                self.clock
                            ),
                        ));
                    }
                    DirtyPolicy::Clamp => {
                        self.stats.clamped_times += 1;
                        arrival = self.clock;
                    }
                }
            }
            let mut departure = parse(fields[1], "departure")?;
            if departure <= arrival {
                match self.dirty {
                    DirtyPolicy::Reject => {
                        return Err(SourceError::at_line(
                            self.line_no,
                            format!("departure ({departure}) must exceed arrival ({arrival})"),
                        ));
                    }
                    DirtyPolicy::Clamp => {
                        self.stats.clamped_durations += 1;
                        departure = arrival + 1;
                    }
                }
            }
            let mut size = DimVec::zeros(d);
            for j in 0..d {
                let mut v = parse(fields[2 + j], "size")?;
                let cap = self.capacity.as_slice()[j];
                if v == 0 || v > cap {
                    match self.dirty {
                        DirtyPolicy::Reject => {
                            return Err(SourceError::at_line(
                                self.line_no,
                                format!("size {v} is outside 1..={cap}"),
                            ));
                        }
                        DirtyPolicy::Clamp => {
                            self.stats.clamped_sizes += 1;
                            v = v.clamp(1, cap);
                        }
                    }
                }
                size.as_mut_slice()[j] = v;
            }
            self.clock = arrival;
            return Ok(Some(Row {
                arrival,
                departure,
                size,
            }));
        }
    }

    fn fill_lookahead(&mut self) -> Result<(), SourceError> {
        if self.lookahead.is_none() && !self.eof {
            match self.next_row()? {
                None => self.eof = true,
                row => self.lookahead = row,
            }
        }
        Ok(())
    }
}

impl<R: BufRead> EventSource for NativeSource<R> {
    fn capacity(&self) -> &DimVec {
        &self.capacity
    }

    fn next_event(&mut self) -> Result<Option<LiveOp>, SourceError> {
        self.fill_lookahead()?;
        if let Some(upcoming) = self.lookahead.as_ref().map(|r| r.arrival) {
            if let Some(op) = self.pending.next_ready(Some(upcoming)) {
                return Ok(Some(op));
            }
            let row = self.lookahead.take().expect("lookahead checked above");
            let item = self.pending.admit(row.arrival, Some(row.departure));
            self.stats.items += 1;
            return Ok(Some(LiveOp::Arrive {
                item,
                size: row.size,
                time: row.arrival,
            }));
        }
        match self.pending.drain() {
            Some((op, at_horizon)) => {
                if at_horizon {
                    self.stats.closed_at_horizon += 1;
                }
                Ok(Some(op))
            }
            None => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn open(text: &str, cap: &[u64], dirty: DirtyPolicy) -> NativeSource<Cursor<Vec<u8>>> {
        NativeSource::new(
            Cursor::new(text.as_bytes().to_vec()),
            DimVec::from_slice(cap),
            dirty,
        )
    }

    fn collect(source: &mut impl EventSource) -> Result<Vec<LiveOp>, SourceError> {
        let mut ops = Vec::new();
        while let Some(op) = source.next_event()? {
            ops.push(op);
        }
        Ok(ops)
    }

    #[test]
    fn streams_the_native_format_in_canonical_order() {
        let text = "arrival,departure,cpu,mem\n0,5,60,20\n2,5,50,30\n5,9,30,70\n";
        let mut s = open(text, &[100, 100], DirtyPolicy::Reject);
        let ops = collect(&mut s).unwrap();
        assert_eq!(ops.len(), 6);
        // Both tick-5 departures precede the tick-5 arrival.
        assert_eq!(ops[2], LiveOp::Depart { item: 0, time: 5 });
        assert_eq!(ops[3], LiveOp::Depart { item: 1, time: 5 });
        assert!(matches!(
            ops[4],
            LiveOp::Arrive {
                item: 2,
                time: 5,
                ..
            }
        ));
        assert_eq!(s.stats().items, 3);
    }

    #[test]
    fn header_after_comments_and_blanks_is_skipped() {
        let text = "# exported by some tool\n\narrival,departure,cpu\n0,3,1\n1,4,2\n";
        let mut s = open(text, &[10], DirtyPolicy::Reject);
        let ops = collect(&mut s).unwrap();
        assert_eq!(ops.len(), 4);
        assert_eq!(s.stats().items, 2);
        // An all-numeric first row is data, after comments too.
        let mut s = open("# c\n0,3,1\n1,4,2\n", &[10], DirtyPolicy::Reject);
        assert_eq!(collect(&mut s).unwrap().len(), 4);
        // Only the first row may be a header.
        let err = collect(&mut open(
            "0,3,1\narrival,departure,cpu\n",
            &[10],
            DirtyPolicy::Reject,
        ))
        .unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn unsorted_rows_reject_or_clamp() {
        let text = "5,9,10,10\n2,9,10,10\n";
        assert!(collect(&mut open(text, &[100, 100], DirtyPolicy::Reject)).is_err());
        let mut s = open(text, &[100, 100], DirtyPolicy::Clamp);
        let ops = collect(&mut s).unwrap();
        assert!(matches!(ops[1], LiveOp::Arrive { time: 5, .. }));
        assert_eq!(s.stats().clamped_times, 1);
    }

    #[test]
    fn zero_duration_and_bad_sizes_reject_or_clamp() {
        let text = "0,0,0,200\n";
        assert!(collect(&mut open(text, &[100, 100], DirtyPolicy::Reject)).is_err());
        let mut s = open(text, &[100, 100], DirtyPolicy::Clamp);
        let ops = collect(&mut s).unwrap();
        assert_eq!(
            ops,
            vec![
                LiveOp::Arrive {
                    item: 0,
                    size: DimVec::from_slice(&[1, 100]),
                    time: 0
                },
                LiveOp::Depart { item: 0, time: 1 },
            ]
        );
        let st = s.stats();
        assert_eq!((st.clamped_durations, st.clamped_sizes), (1, 2));
    }
}
