//! Streaming parser for the **Azure VM packing trace** schema.
//!
//! The public AzurePublicDataset packing traces ship as a CSV with one
//! row per VM request:
//!
//! ```csv
//! vmId,starttime,endtime,core,memory
//! vm1,0.000694,1.25,0.25,0.5
//! vm2,0.003472,,0.5,0.25
//! ```
//!
//! * `starttime`/`endtime` are **fractional days** since trace start; an
//!   empty `endtime` means the VM was still running when the trace was
//!   captured (closed at the stream horizon here).
//! * Resource columns are **fractions of one server** — every column
//!   after the first three is one dimension, so the same parser reads
//!   the 2-resource public schema and wider variants.
//! * Rows are sorted by `starttime` (the published traces are); the
//!   parser verifies this and, under [`DirtyPolicy::Clamp`], pulls
//!   stragglers forward instead of failing.
//! * The first content line is a header iff its `starttime` is not a
//!   number; any later such line is an error at its line.
//!
//! Times are quantized to integer ticks via `ticks_per_day` (288 ≙ the
//! trace's native 5-minute granularity), fractions to integer units of
//! the bin capacity. Memory is O(active VMs): rows stream through the
//! `Pending` merger and are never collected.

use crate::ingest::{
    parse_fraction, scale_size, DirtyPolicy, Fields, IngestStats, LineReader, Pending, Repair,
};
use dvbp_core::{EventSource, LiveOp, SourceError};
use dvbp_dimvec::DimVec;
use dvbp_sim::Time;
use std::io::BufRead;

/// Default tick quantization: the Azure trace's native 5-minute slots.
pub const AZURE_TICKS_PER_DAY: u64 = 288;

/// One parsed, repaired row, held as lookahead until its arrival emits.
struct Row {
    start: Time,
    /// `None` = open-ended.
    end: Option<Time>,
    size: DimVec,
}

/// Streaming [`EventSource`] over an Azure packing-trace CSV.
pub struct AzureSource<R> {
    lines: LineReader<R>,
    capacity: DimVec,
    ticks_per_day: u64,
    repair: Repair,
    pending: Pending,
    lookahead: Option<Row>,
    eof: bool,
}

/// The header test: a `starttime` column that is not a number.
fn is_header(f: &Fields<'_>) -> bool {
    f.len() >= 2 && f.get(1).parse::<f64>().is_err()
}

impl<R: BufRead> AzureSource<R> {
    /// Opens an Azure-format stream.
    ///
    /// `capacity`: bin capacity the fractional demands are scaled to;
    /// `None` uses 100 units per resource column. The dimension count is
    /// taken from the first data row. `ticks_per_day` quantizes the
    /// fractional-day timestamps ([`AZURE_TICKS_PER_DAY`] matches the
    /// trace's native granularity).
    ///
    /// # Errors
    ///
    /// [`SourceError`] if the stream has no data rows, or the first row
    /// is malformed.
    pub fn new(
        reader: R,
        capacity: Option<DimVec>,
        ticks_per_day: u64,
        dirty: DirtyPolicy,
    ) -> Result<Self, SourceError> {
        // The first data row gives the dimension count, then parses for
        // real against the resolved capacity.
        let mut lines = LineReader::new(reader);
        let Some(first) = lines.next_row(is_header)? else {
            return Err(SourceError::new("azure trace has no data rows"));
        };
        if first.len() < 4 {
            return Err(SourceError::at_line(
                first.line,
                format!(
                    "expected vmId,starttime,endtime,resources... (got {} fields)",
                    first.len()
                ),
            ));
        }
        let d = first.len() - 3;
        let capacity = match capacity {
            Some(cap) if cap.dim() == d => cap,
            Some(cap) => {
                return Err(SourceError::at_line(
                    first.line,
                    format!(
                        "capacity has {} dimensions but the trace has {d} resource columns",
                        cap.dim()
                    ),
                ));
            }
            None => DimVec::splat(d, 100),
        };
        let ticks_per_day = ticks_per_day.max(1);
        let mut repair = Repair::new(dirty);
        let lookahead = parse_row(&mut repair, &capacity, ticks_per_day, &first)?;
        Ok(AzureSource {
            lines,
            capacity,
            ticks_per_day,
            repair,
            pending: Pending::default(),
            lookahead,
            eof: false,
        })
    }

    /// Ingest statistics so far (final once the stream is exhausted).
    pub fn stats(&self) -> IngestStats {
        self.repair.stats
    }

    /// Refills the lookahead row, skipping dropped rows.
    fn fill_lookahead(&mut self) -> Result<(), SourceError> {
        while self.lookahead.is_none() && !self.eof {
            match self.lines.next_row(is_header)? {
                None => self.eof = true,
                Some(f) => {
                    self.lookahead =
                        parse_row(&mut self.repair, &self.capacity, self.ticks_per_day, &f)?;
                }
            }
        }
        Ok(())
    }
}

/// Parses one data row into a repaired [`Row`]. `Ok(None)` means the
/// row was dropped (duplicate id under Clamp).
fn parse_row(
    repair: &mut Repair,
    capacity: &DimVec,
    ticks_per_day: u64,
    f: &Fields<'_>,
) -> Result<Option<Row>, SourceError> {
    let d = capacity.dim();
    if f.len() != d + 3 {
        return Err(SourceError::at_line(
            f.line,
            format!("expected {} fields, got {}", d + 3, f.len()),
        ));
    }
    repair.stats.rows += 1;
    // Quantizes a fractional-day timestamp to ticks.
    #[allow(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_precision_loss
    )]
    let ticks = |field: usize, what: &str| -> Result<Time, SourceError> {
        let days = parse_fraction(f.get(field), f.line, what)?;
        Ok((days * ticks_per_day as f64).round() as Time)
    };
    let start = repair.tick(f.line, ticks(1, "starttime")?, "starttime")?;
    let end = if f.get(2).is_empty() {
        None
    } else {
        Some(repair.departure(f.line, start, ticks(2, "endtime")?)?)
    };
    if !repair.admit_id(f.line, f.get(0), start, end)? {
        return Ok(None);
    }
    let mut size = DimVec::zeros(d);
    for (j, v) in size.as_mut_slice().iter_mut().enumerate() {
        let frac = parse_fraction(f.get(3 + j), f.line, "resource demand")?;
        *v = scale_size(
            frac,
            capacity.as_slice()[j],
            repair.dirty,
            f.line,
            &mut repair.stats.clamped_sizes,
        )?;
    }
    Ok(Some(Row { start, end, size }))
}

impl<R: BufRead> EventSource for AzureSource<R> {
    fn capacity(&self) -> &DimVec {
        &self.capacity
    }

    fn next_event(&mut self) -> Result<Option<LiveOp>, SourceError> {
        self.fill_lookahead()?;
        if let Some(row) = &self.lookahead {
            // Departures due at or before the next arrival go first —
            // that is exactly the engine's canonical order.
            if let Some(op) = self.pending.next_ready(Some(row.start)) {
                return Ok(Some(op));
            }
            let Some(row) = self.lookahead.take() else {
                unreachable!()
            };
            let item = self.pending.admit(row.start, row.end);
            self.repair.stats.items += 1;
            return Ok(Some(LiveOp::Arrive {
                item,
                size: row.size,
                time: row.start,
            }));
        }
        // End of file: drain remaining departures, then horizon-close
        // open-ended VMs.
        Ok(self.pending.drain_counted(&mut self.repair.stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn open(
        text: &str,
        cap: Option<DimVec>,
        tpd: u64,
        dirty: DirtyPolicy,
    ) -> Result<AzureSource<Cursor<&[u8]>>, SourceError> {
        AzureSource::new(Cursor::new(text.as_bytes()), cap, tpd, dirty)
    }

    fn collect(source: &mut impl EventSource) -> Vec<LiveOp> {
        let mut ops = Vec::new();
        while let Some(op) = source.next_event().unwrap() {
            ops.push(op);
        }
        ops
    }

    #[test]
    fn parses_the_documented_schema() {
        // ticks_per_day = 4: starttimes 0.0, 0.25, 0.5 → ticks 0, 1, 2.
        let text = "vmId,starttime,endtime,core,memory\n\
                    vm1,0.0,0.5,0.25,0.5\n\
                    vm2,0.25,0.75,0.5,0.25\n\
                    vm3,0.5,1.0,1.0,1.0\n";
        let mut s = open(text, None, 4, DirtyPolicy::Reject).unwrap();
        assert_eq!(s.capacity().as_slice(), &[100, 100]);
        let ops = collect(&mut s);
        assert_eq!(
            ops,
            vec![
                LiveOp::Arrive {
                    item: 0,
                    size: DimVec::from_slice(&[25, 50]),
                    time: 0
                },
                LiveOp::Arrive {
                    item: 1,
                    size: DimVec::from_slice(&[50, 25]),
                    time: 1
                },
                // vm1's tick-2 departure precedes vm3's tick-2 arrival.
                LiveOp::Depart { item: 0, time: 2 },
                LiveOp::Arrive {
                    item: 2,
                    size: DimVec::from_slice(&[100, 100]),
                    time: 2
                },
                LiveOp::Depart { item: 1, time: 3 },
                LiveOp::Depart { item: 2, time: 4 },
            ]
        );
        let st = s.stats();
        assert_eq!((st.rows, st.items), (3, 3));
        assert_eq!(st.closed_at_horizon, 0);
    }

    #[test]
    fn open_ended_vms_close_at_the_horizon() {
        let text = "vm1,0.0,,0.5,0.5\nvm2,0.25,0.5,0.25,0.25\n";
        let mut s = open(text, None, 4, DirtyPolicy::Reject).unwrap();
        let ops = collect(&mut s);
        // Last event is vm2's tick-2 departure; horizon = tick 3.
        assert_eq!(*ops.last().unwrap(), LiveOp::Depart { item: 0, time: 3 });
        assert_eq!(s.stats().closed_at_horizon, 1);
    }

    #[test]
    fn dirty_rows_reject_by_default_and_mend_under_clamp() {
        // Zero duration, backwards start + oversized demand, duplicate id.
        let text = "vm1,0.5,0.5,0.25,0.25\n\
                    vm2,0.25,2.5,1.5,0.25\n\
                    vm1,0.5,0.75,0.25,0.25\n";
        assert!(open(text, None, 4, DirtyPolicy::Reject).is_err());
        let mut s = open(text, None, 4, DirtyPolicy::Clamp).unwrap();
        let ops = collect(&mut s);
        let st = s.stats();
        assert_eq!(st.clamped_durations, 1, "vm1 row 1 gets a one-tick stay");
        assert_eq!(st.clamped_times, 1, "row 2 pulled forward to tick 2");
        assert_eq!(st.clamped_sizes, 1, "1.5 cores saturates at capacity");
        assert_eq!(st.dropped_duplicates, 1, "third row duplicates live vm1");
        assert_eq!(st.items, 2);
        assert_eq!(
            ops.iter()
                .filter(|op| matches!(op, LiveOp::Arrive { .. }))
                .count(),
            2
        );
    }

    #[test]
    fn duplicate_id_is_fine_once_the_first_instance_departed() {
        let text = "vm1,0.0,0.25,0.25,0.25\nvm1,0.25,0.5,0.25,0.25\n";
        let mut s = open(text, None, 4, DirtyPolicy::Reject).unwrap();
        assert_eq!(
            collect(&mut s)
                .iter()
                .filter(|op| matches!(op, LiveOp::Arrive { .. }))
                .count(),
            2
        );
        assert_eq!(s.stats().dropped_duplicates, 0);
    }

    #[test]
    fn capacity_dimension_mismatch_is_reported() {
        let text = "vm1,0.0,0.5,0.25,0.25\n";
        let err = open(text, Some(DimVec::scalar(64)), 4, DirtyPolicy::Reject)
            .err()
            .expect("1-d capacity against 2 resource columns");
        assert!(err.to_string().contains("resource columns"), "{err}");
    }

    #[test]
    fn empty_input_is_an_error() {
        assert!(open(
            "vmId,starttime,endtime,core\n",
            None,
            4,
            DirtyPolicy::Reject
        )
        .is_err());
    }

    /// The first error the stream reports.
    fn first_error(text: &str, dirty: DirtyPolicy) -> SourceError {
        let mut s = match open(text, None, 4, dirty) {
            Ok(s) => s,
            Err(e) => return e,
        };
        loop {
            match s.next_event() {
                Err(e) => return e,
                Ok(Some(_)) => {}
                Ok(None) => panic!("no error in {text:?} under {dirty:?}"),
            }
        }
    }

    #[test]
    fn only_the_first_line_may_be_a_header() {
        for bad in ["vm2,abc,0.5,0.25,0.25", "vm2,,0.5,0.25,0.25"] {
            let text = format!(
                "vmId,starttime,endtime,core,memory\n\
                 vm1,0.0,0.5,0.25,0.25\n{bad}\nvm3,0.25,0.5,0.25,0.25\n"
            );
            for dirty in [DirtyPolicy::Reject, DirtyPolicy::Clamp] {
                let err = first_error(&text, dirty);
                assert_eq!(err.line, Some(3), "{bad}: {err}");
                assert!(err.to_string().contains("starttime"), "{err}");
            }
        }
    }

    #[test]
    fn the_largest_tick_is_refused_under_both_policies() {
        // 1e300 days saturates at `Time::MAX` ticks.
        for dirty in [DirtyPolicy::Reject, DirtyPolicy::Clamp] {
            let err = first_error("vm1,1e300,1e300,0.25,0.25\n", dirty);
            assert_eq!(err.line, Some(1), "{err}");
        }
        // A departure at `Time::MAX` is fine, and open VMs still close
        // after their arrival.
        let text = "vm1,0.0,1e300,0.25,0.25\nvm2,0.0,,0.25,0.25\n";
        let mut s = open(text, None, 4, DirtyPolicy::Reject).unwrap();
        let ops = collect(&mut s);
        assert_eq!(
            ops[2..],
            [
                LiveOp::Depart {
                    item: 0,
                    time: Time::MAX
                },
                LiveOp::Depart {
                    item: 1,
                    time: Time::MAX
                },
            ]
        );
    }
}
