//! Streaming parser for the **Google cluster-usage `task_events`**
//! schema (clusterdata-2011 format).
//!
//! Each row is one lifecycle event for a task, 13 comma-separated
//! columns (headerless in the published trace):
//!
//! | col | field               | used as                       |
//! |-----|---------------------|-------------------------------|
//! | 0   | timestamp (µs)      | tick, verbatim                |
//! | 2   | job id              | task key, half                |
//! | 3   | task index          | task key, half                |
//! | 5   | event type          | 1 = arrive, 2–6 = depart      |
//! | 9   | CPU request (frac)  | dimension 0                   |
//! | 10  | memory request (frac)| dimension 1                  |
//!
//! Event types: `SUBMIT(0)`, `UPDATE_PENDING(7)` and `UPDATE_RUNNING(8)`
//! are queue/accounting events with no placement effect — skipped.
//! `SCHEDULE(1)` places the task; `EVICT(2)`, `FAIL(3)`, `FINISH(4)`,
//! `KILL(5)` and `LOST(6)` all free it. Depart events for tasks that
//! were never scheduled (routine: the trace window cuts lifecycles in
//! half, and kills of pending tasks are common) are counted as skipped.
//!
//! The trace orders rows by timestamp but makes **no promise about row
//! order within one timestamp**, and a task may be scheduled and killed
//! at the same microsecond. The parser therefore buffers one timestamp
//! *group* at a time: departures resolve through the `Pending` heap
//! (a same-tick death is clamped to a one-tick stay — the engine's
//! zero-duration rule), arrivals are admitted in file order after them.
//! Memory is O(active tasks + largest single-timestamp group).

use crate::ingest::{
    parse_fraction, repair, scale_size, DirtyPolicy, Fields, IngestStats, LineReader, Pending,
    Repair,
};
use dvbp_core::{EventSource, LiveOp, SourceError};
use dvbp_dimvec::DimVec;
use dvbp_sim::Time;
use std::collections::{HashMap, VecDeque};
use std::io::BufRead;

/// The `task_events` column count.
const FIELDS: usize = 13;

/// `SCHEDULE` — the task starts occupying its machine.
const EV_SCHEDULE: u64 = 1;
/// `EVICT..=LOST` — the task stops occupying its machine.
const EV_DEPART: std::ops::RangeInclusive<u64> = 2..=6;

/// A resource request as read: `Ok(None)` for an empty field, and a
/// parse error kept until the row's task is placed.
type Request = Result<Option<f64>, SourceError>;

/// A raw row carried across a group boundary.
struct RawRow {
    line_no: u64,
    time: Time,
    job: u64,
    task: u64,
    event: u64,
    cpu: Request,
    ram: Request,
}

/// Streaming [`EventSource`] over a Google `task_events` CSV.
pub struct GoogleSource<R> {
    lines: LineReader<R>,
    capacity: DimVec,
    repair: Repair,
    pending: Pending,
    /// Scheduled tasks: (job, task) → item index.
    active: HashMap<(u64, u64), usize>,
    /// First row of the next group, read while closing the current one.
    lookahead: Option<RawRow>,
    /// Arrivals of the current group, ready to emit after its departures.
    ready: VecDeque<LiveOp>,
    eof: bool,
}

impl<R: BufRead> GoogleSource<R> {
    /// Opens a `task_events` stream. `capacity` scales the CPU and
    /// memory request fractions (`None` = 100 units each). The trace is
    /// headerless; a header as the first content line is tolerated and
    /// skipped.
    ///
    /// # Errors
    ///
    /// [`SourceError`] if the capacity is not 2-dimensional.
    pub fn new(
        reader: R,
        capacity: Option<DimVec>,
        dirty: DirtyPolicy,
    ) -> Result<Self, SourceError> {
        let capacity = capacity.unwrap_or_else(|| DimVec::splat(2, 100));
        if capacity.dim() != 2 {
            return Err(SourceError::new(format!(
                "google task_events has 2 resource columns (cpu, ram) but the capacity has {} dimensions",
                capacity.dim()
            )));
        }
        Ok(GoogleSource {
            lines: LineReader::new(reader),
            capacity,
            repair: Repair::new(dirty),
            pending: Pending::default(),
            active: HashMap::new(),
            lookahead: None,
            ready: VecDeque::new(),
            eof: false,
        })
    }

    /// Ingest statistics so far (final once the stream is exhausted).
    pub fn stats(&self) -> IngestStats {
        self.repair.stats
    }

    /// Next SCHEDULE/depart row, or `None` at end of input. Skips no-op
    /// event types, counting them.
    fn next_row(&mut self) -> Result<Option<RawRow>, SourceError> {
        // Header iff the timestamp column is not numeric.
        let is_header = |f: &Fields<'_>| f.get(0).parse::<u64>().is_err();
        while let Some(f) = self.lines.next_row(is_header)? {
            if f.len() != FIELDS {
                return Err(SourceError::at_line(
                    f.line,
                    format!("expected {FIELDS} task_events fields, got {}", f.len()),
                ));
            }
            self.repair.stats.rows += 1;
            let event = f.int(5, "event type")?;
            if event != EV_SCHEDULE && !EV_DEPART.contains(&event) {
                self.repair.stats.skipped_rows += 1;
                continue;
            }
            // Every row, even one still waiting as lookahead, is checked
            // against the largest timestamp read so far, so emitted
            // group times never go backwards.
            let time = self
                .repair
                .tick(f.line, f.int(0, "timestamp")?, "timestamp")?;
            let request = |i: usize| -> Request {
                match f.get(i) {
                    "" => Ok(None),
                    field => parse_fraction(field, f.line, "resource request").map(Some),
                }
            };
            return Ok(Some(RawRow {
                line_no: f.line,
                time,
                job: f.int(2, "job id")?,
                task: f.int(3, "task index")?,
                event,
                cpu: request(9),
                ram: request(10),
            }));
        }
        Ok(None)
    }

    /// Scales a resource request; empty means "not recorded" (dirty:
    /// one unit under Clamp, error under Reject).
    fn size_field(
        &mut self,
        request: &Request,
        j: usize,
        line_no: u64,
    ) -> Result<u64, SourceError> {
        let frac = match request {
            Ok(Some(frac)) => *frac,
            Ok(None) => match self.repair.dirty {
                DirtyPolicy::Reject => {
                    return Err(SourceError::at_line(line_no, "empty resource request"));
                }
                DirtyPolicy::Clamp => 0.0, // scale_size turns 0 into 1 unit
            },
            Err(e) => return Err(e.clone()),
        };
        scale_size(
            frac,
            self.capacity.as_slice()[j],
            self.repair.dirty,
            line_no,
            &mut self.repair.stats.clamped_sizes,
        )
    }

    /// Reads and processes the next timestamp group: departures resolve
    /// into the heap, arrivals queue into `ready` in file order.
    fn process_group(&mut self) -> Result<(), SourceError> {
        let first = match self.lookahead.take() {
            Some(row) => Some(row),
            None => self.next_row()?,
        };
        let Some(first) = first else {
            self.eof = true;
            return Ok(());
        };
        let group_time = first.time;
        let mut row = Some(first);
        while let Some(r) = row {
            if r.time != group_time {
                self.lookahead = Some(r);
                break;
            }
            self.process_row(&r)?;
            row = self.next_row()?;
        }
        // Departures due at the group's timestamp come before its
        // arrivals, which are all `ready` holds; later ones (e.g.
        // clamped one-tick stays) wait in the heap for the next group
        // or the drain.
        let arrivals = self.ready.len();
        while let Some(op) = self.pending.next_ready(Some(group_time)) {
            self.ready.push_back(op);
        }
        self.ready.rotate_right(self.ready.len() - arrivals);
        Ok(())
    }

    /// Folds one SCHEDULE/depart row into the merger state.
    fn process_row(&mut self, r: &RawRow) -> Result<(), SourceError> {
        let key = (r.job, r.task);
        if r.event == EV_SCHEDULE {
            if self.active.contains_key(&key) {
                return repair(
                    self.repair.dirty,
                    &mut self.repair.stats.dropped_duplicates,
                    r.line_no,
                    || format!("task {}/{} scheduled while already running", r.job, r.task),
                );
            }
            let size = DimVec::from_slice(&[
                self.size_field(&r.cpu, 0, r.line_no)?,
                self.size_field(&r.ram, 1, r.line_no)?,
            ]);
            let item = self.pending.admit(r.time, None);
            self.active.insert(key, item);
            self.repair.stats.items += 1;
            self.ready.push_back(LiveOp::Arrive {
                item,
                size,
                time: r.time,
            });
            return Ok(());
        }
        // Depart event.
        let Some(&item) = self.active.get(&key) else {
            // Lifecycle event for a task outside the trace window or
            // never scheduled — a no-op for packing.
            self.repair.stats.skipped_rows += 1;
            return Ok(());
        };
        let arrival = self
            .pending
            .arrival_of(item)
            .expect("active tasks are open in the merger");
        let departure = self.repair.departure(r.line_no, arrival, r.time)?;
        self.pending.resolve(item, departure);
        self.active.remove(&key);
        Ok(())
    }
}

impl<R: BufRead> EventSource for GoogleSource<R> {
    fn capacity(&self) -> &DimVec {
        &self.capacity
    }

    fn next_event(&mut self) -> Result<Option<LiveOp>, SourceError> {
        loop {
            if let Some(op) = self.ready.pop_front() {
                return Ok(Some(op));
            }
            if self.eof {
                return Ok(self.pending.drain_counted(&mut self.repair.stats));
            }
            self.process_group()?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn row(time: u64, job: u64, task: u64, event: u64, cpu: &str, ram: &str) -> String {
        format!("{time},,{job},{task},,{event},u,,0,{cpu},{ram},,\n")
    }

    fn open(text: &str, dirty: DirtyPolicy) -> GoogleSource<Cursor<Vec<u8>>> {
        GoogleSource::new(Cursor::new(text.as_bytes().to_vec()), None, dirty).unwrap()
    }

    fn collect(source: &mut impl EventSource) -> Vec<LiveOp> {
        let mut ops = Vec::new();
        while let Some(op) = source.next_event().unwrap() {
            ops.push(op);
        }
        ops
    }

    #[test]
    fn schedule_and_finish_become_arrive_and_depart() {
        let text = [
            row(100, 7, 0, 0, "0.25", "0.5"), // SUBMIT: skipped
            row(100, 7, 0, 1, "0.25", "0.5"), // SCHEDULE
            row(150, 8, 1, 1, "0.5", "0.25"),
            row(200, 7, 0, 4, "", ""), // FINISH (sizes blank, as in the trace)
            row(300, 8, 1, 5, "", ""), // KILL
        ]
        .concat();
        let mut s = open(&text, DirtyPolicy::Reject);
        let ops = collect(&mut s);
        assert_eq!(
            ops,
            vec![
                LiveOp::Arrive {
                    item: 0,
                    size: DimVec::from_slice(&[25, 50]),
                    time: 100
                },
                LiveOp::Arrive {
                    item: 1,
                    size: DimVec::from_slice(&[50, 25]),
                    time: 150
                },
                LiveOp::Depart { item: 0, time: 200 },
                LiveOp::Depart { item: 1, time: 300 },
            ]
        );
        let st = s.stats();
        assert_eq!((st.rows, st.items, st.skipped_rows), (5, 2, 1));
    }

    #[test]
    fn within_group_departs_precede_arrivals() {
        // At t=200 task 7/0 finishes and task 9/0 is scheduled; the
        // depart must emit first regardless of row order in the file.
        let text = [
            row(100, 7, 0, 1, "0.25", "0.25"),
            row(200, 9, 0, 1, "0.25", "0.25"), // arrive row first in file
            row(200, 7, 0, 4, "", ""),
            row(300, 9, 0, 4, "", ""),
        ]
        .concat();
        let ops = collect(&mut open(&text, DirtyPolicy::Reject));
        assert_eq!(
            ops[1..3],
            [
                LiveOp::Depart { item: 0, time: 200 },
                LiveOp::Arrive {
                    item: 1,
                    size: DimVec::from_slice(&[25, 25]),
                    time: 200
                },
            ]
        );
    }

    #[test]
    fn same_tick_death_gets_a_one_tick_stay_under_clamp() {
        let text = [
            row(100, 7, 0, 1, "0.25", "0.25"),
            row(100, 7, 0, 5, "", ""), // killed the same microsecond
            row(500, 8, 0, 1, "0.25", "0.25"),
            row(600, 8, 0, 4, "", ""),
        ]
        .concat();
        assert!(
            collect_err(&text),
            "zero-duration task must be rejected by default"
        );
        let mut s = open(&text, DirtyPolicy::Clamp);
        let ops = collect(&mut s);
        assert_eq!(ops[1], LiveOp::Depart { item: 0, time: 101 });
        assert_eq!(s.stats().clamped_durations, 1);
    }

    fn collect_err(text: &str) -> bool {
        let mut s = open(text, DirtyPolicy::Reject);
        loop {
            match s.next_event() {
                Err(_) => return true,
                Ok(None) => return false,
                Ok(Some(_)) => {}
            }
        }
    }

    #[test]
    fn depart_for_unscheduled_task_is_skipped() {
        let text = [
            row(100, 1, 0, 1, "0.25", "0.25"),
            row(150, 99, 3, 2, "", ""), // EVICT of a task we never saw
            row(200, 1, 0, 4, "", ""),
        ]
        .concat();
        let mut s = open(&text, DirtyPolicy::Reject);
        assert_eq!(collect(&mut s).len(), 2);
        assert_eq!(s.stats().skipped_rows, 1);
    }

    #[test]
    fn unfinished_tasks_close_at_the_horizon() {
        let text = [
            row(100, 1, 0, 1, "0.25", "0.25"),
            row(200, 2, 0, 1, "0.25", "0.25"),
            row(300, 2, 0, 4, "", ""),
        ]
        .concat();
        let mut s = open(&text, DirtyPolicy::Reject);
        let ops = collect(&mut s);
        assert_eq!(*ops.last().unwrap(), LiveOp::Depart { item: 0, time: 301 });
        assert_eq!(s.stats().closed_at_horizon, 1);
    }

    #[test]
    fn duplicate_schedule_rejects_or_drops() {
        let text = [
            row(100, 1, 0, 1, "0.25", "0.25"),
            row(150, 1, 0, 1, "0.5", "0.5"),
            row(200, 1, 0, 4, "", ""),
        ]
        .concat();
        assert!(collect_err(&text));
        let mut s = open(&text, DirtyPolicy::Clamp);
        let ops = collect(&mut s);
        assert_eq!(
            ops.iter()
                .filter(|op| matches!(op, LiveOp::Arrive { .. }))
                .count(),
            1
        );
        assert_eq!(s.stats().dropped_duplicates, 1);
    }

    #[test]
    fn a_header_after_comments_is_skipped() {
        let header = "time,missing,job,task,machine,event,user,class,priority,cpu,ram,disk,other\n";
        let text = [
            "# exported task_events\n\n",
            header,
            &row(100, 7, 0, 1, "0.25", "0.5"),
            &row(200, 7, 0, 4, "", ""),
        ]
        .concat();
        let mut s = open(&text, DirtyPolicy::Reject);
        assert_eq!(collect(&mut s).len(), 2);
        assert_eq!(s.stats().rows, 2);
    }

    #[test]
    fn the_largest_tick_is_refused_under_both_policies() {
        let text = [
            row(u64::MAX, 7, 0, 1, "0.25", "0.25"),
            row(u64::MAX, 7, 0, 5, "", ""),
        ]
        .concat();
        for dirty in [DirtyPolicy::Reject, DirtyPolicy::Clamp] {
            let mut s = open(&text, dirty);
            let err = loop {
                match s.next_event() {
                    Err(e) => break e,
                    Ok(Some(_)) => {}
                    Ok(None) => panic!("{dirty:?} accepted a schedule at the largest tick"),
                }
            };
            assert_eq!(err.line, Some(1), "{err}");
        }
    }
}
