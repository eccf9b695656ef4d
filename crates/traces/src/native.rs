//! Streaming parser for the repo's **native trace CSV**. It is the one
//! native grammar: `dvbp import` (`dvbp::tracefile::parse_csv`) collects
//! this parser's events into an instance, and `dvbp run --stream
//! --format csv`, `dvbp-monitor --stream` and `dvbp-serve drive
//! --stream` replay them.
//!
//! ```csv
//! # comments and blank lines are skipped
//! id,arrival,departure,cpu,mem
//! vm1,0,40,30,10
//! vm2,5,20,60,0
//! vm1,40,70,25,25
//! ```
//!
//! * One row per item: `arrival,departure,size_1,…,size_d`, in integer
//!   ticks and absolute units of the capacity, optionally led by an id
//!   column. A first data row of `d + 3` fields means the id column is
//!   there, and that holds for the rest of the file.
//! * The first content line is a header iff its arrival column is not
//!   an integer. At `d + 3` fields its first two columns must both be
//!   text, so an id-led data row is never taken for a header.
//! * Rows come in arrival order, because a stream cannot sort. A
//!   straggler is an error under [`DirtyPolicy::Reject`] and is pulled
//!   forward under `Clamp`.
//! * Sizes follow `Instance::validate`: each component at most the
//!   capacity, and not zero in every dimension. A zero component alone
//!   is legal.
//! * An id still live at a row's arrival is a duplicate; reusing an id
//!   after its item departed is fine.

use crate::ingest::{DirtyPolicy, Fields, IngestStats, LineReader, Pending, Repair};
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
    lines: LineReader<R>,
    capacity: DimVec,
    repair: Repair,
    pending: Pending,
    /// Whether rows lead with an id column, fixed by the first data row.
    has_id: Option<bool>,
    lookahead: Option<Row>,
    eof: bool,
}

impl<R: BufRead> NativeSource<R> {
    /// Opens a native-format stream against the given bin capacity
    /// (required: native sizes are absolute units, so there is no
    /// sensible default).
    pub fn new(reader: R, capacity: DimVec, dirty: DirtyPolicy) -> Self {
        NativeSource {
            lines: LineReader::new(reader),
            capacity,
            repair: Repair::new(dirty),
            pending: Pending::default(),
            has_id: None,
            lookahead: None,
            eof: false,
        }
    }

    /// Ingest statistics so far (final once the stream is exhausted).
    pub fn stats(&self) -> IngestStats {
        self.repair.stats
    }

    /// Parses the next admitted row, or `None` at end of input.
    fn next_row(&mut self) -> Result<Option<Row>, SourceError> {
        let d = self.capacity.dim();
        let is_header = |f: &Fields<'_>| {
            let text = |i| f.get(i).parse::<u64>().is_err();
            text(0) && (f.len() != d + 3 || text(1))
        };
        while let Some(f) = self.lines.next_row(is_header)? {
            let id = *self.has_id.get_or_insert(f.len() == d + 3);
            let base = usize::from(id);
            if f.len() != d + 2 + base {
                return Err(SourceError::at_line(
                    f.line,
                    format!(
                        "expected {} fields ({}arrival,departure and {d} sizes), got {}",
                        d + 2 + base,
                        if id { "id," } else { "" },
                        f.len()
                    ),
                ));
            }
            let repair = &mut self.repair;
            repair.stats.rows += 1;
            let arrival = repair.tick(f.line, f.int(base, "arrival")?, "arrival")?;
            let departure = repair.departure(f.line, arrival, f.int(base + 1, "departure")?)?;
            if id && !repair.admit_id(f.line, f.get(0), arrival, Some(departure))? {
                continue;
            }
            let mut size = DimVec::zeros(d);
            for (j, v) in size.as_mut_slice().iter_mut().enumerate() {
                *v = f.int(base + 2 + j, "size")?;
            }
            repair.size(f.line, &mut size, &self.capacity)?;
            return Ok(Some(Row {
                arrival,
                departure,
                size,
            }));
        }
        Ok(None)
    }
}

impl<R: BufRead> EventSource for NativeSource<R> {
    fn capacity(&self) -> &DimVec {
        &self.capacity
    }

    fn next_event(&mut self) -> Result<Option<LiveOp>, SourceError> {
        if self.lookahead.is_none() && !self.eof {
            self.lookahead = self.next_row()?;
            self.eof = self.lookahead.is_none();
        }
        if let Some(upcoming) = self.lookahead.as_ref().map(|r| r.arrival) {
            if let Some(op) = self.pending.next_ready(Some(upcoming)) {
                return Ok(Some(op));
            }
            let row = self.lookahead.take().expect("lookahead checked above");
            let item = self.pending.admit(row.arrival, Some(row.departure));
            self.repair.stats.items += 1;
            return Ok(Some(LiveOp::Arrive {
                item,
                size: row.size,
                time: row.arrival,
            }));
        }
        Ok(self.pending.drain_counted(&mut self.repair.stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvbp_core::{Instance, Item};
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
                    size: DimVec::from_slice(&[0, 100]),
                    time: 0
                },
                LiveOp::Depart { item: 0, time: 1 },
            ]
        );
        let st = s.stats();
        assert_eq!((st.clamped_durations, st.clamped_sizes), (1, 1));
    }

    /// The instance a stream describes, as `dvbp import` collects it.
    fn instance(text: &str, cap: &[u64], dirty: DirtyPolicy) -> (Instance, IngestStats) {
        let mut s = open(text, cap, dirty);
        let mut items: Vec<Item> = Vec::new();
        for op in collect(&mut s).unwrap() {
            match op {
                LiveOp::Arrive { size, time, .. } => items.push(Item::new(size, time, Time::MAX)),
                LiveOp::Depart { item, time } => items[item].departure = time,
            }
        }
        (
            Instance::new(DimVec::from_slice(cap), items).unwrap(),
            s.stats(),
        )
    }

    #[test]
    fn duplicate_live_ids_drop_under_clamp() {
        let (inst, stats) = instance(
            "vm1,0,10,4\nvm1,5,8,2\nvm2,5,8,2\n",
            &[10],
            DirtyPolicy::Clamp,
        );
        assert_eq!(inst.len(), 2);
        assert_eq!(stats.dropped_duplicates, 1);
        assert_eq!(stats.items, 2);
    }

    #[test]
    fn clamp_repairs_dirty_rows_with_accounting() {
        let text = "0,10,4\n5,5,6\n3,9,11\n4,6,0\n";
        let (inst, stats) = instance(text, &[10], DirtyPolicy::Clamp);
        assert_eq!(inst.len(), 4);
        assert_eq!(stats.rows, 4);
        assert_eq!(stats.items, 4);
        assert_eq!(stats.clamped_durations, 1, "5,5 becomes a one-tick stay");
        assert_eq!(inst.items[1].departure, 6);
        assert_eq!(stats.clamped_sizes, 2, "oversize 11 and the all-zero row");
        assert_eq!(inst.items[2].size.as_slice(), &[10]);
        assert_eq!(inst.items[3].size.as_slice(), &[1]);
        // The repaired instance passes full validation.
        assert!(inst.validate().is_ok());
    }

    #[test]
    fn the_largest_tick_is_refused_under_both_policies() {
        let text = "18446744073709551615,18446744073709551615,1\n";
        for dirty in [DirtyPolicy::Reject, DirtyPolicy::Clamp] {
            let err = collect(&mut open(text, &[10], dirty)).unwrap_err();
            assert_eq!(err.line, Some(1), "{err}");
        }
    }
}
