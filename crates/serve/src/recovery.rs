//! Crash recovery: replay a shard's write-ahead log back to the exact
//! live-engine state it described.
//!
//! Recovery replays the log *through the code that wrote it*. It builds
//! the shard with [`Shard::create`] over a sink that stores nothing and
//! instead checks every byte the shard writes against the log's next
//! byte, then feeds the shard the log's requests: each `Ident` +
//! `Arrival` pair to [`Shard::arrive`], each `Depart` to
//! [`Shard::depart`] under the item's recorded id. The shard journals
//! every group again — placement, bin opens and closes, migrations,
//! policy switches — so the group grammar is defined once, by the write
//! path in [`crate::shard`], and a log is explained exactly when the
//! replay writes it again byte for byte. Because the engine and the
//! meta-policy are deterministic, a clean replay reproduces
//! **bit-identical** state: same bins, same loads, same policy-internal
//! order, same switch history and shadow costs.
//!
//! # Outcomes
//!
//! * The replay writes every complete line again: recovered.
//! * The log ends inside one request's bytes — complete lines short of
//!   the group the replay writes, or a torn (unterminated) final line,
//!   which [`scan_wal`] skips. That request was never acknowledged, and
//!   neither was any migration or policy switch it caused, so the prefix
//!   before it is replayed instead. Its complete lines are reported in
//!   [`Recovered::dropped_events`] and excluded from
//!   [`Recovered::valid_bytes`]; the caller truncates the log file to
//!   `valid_bytes` before appending new groups, restoring the
//!   acknowledged-prefix invariant.
//! * Any other difference is [`RecoveryError::Diverged`]: the log was
//!   written under another policy, repack or portfolio configuration,
//!   or is corrupt.

use crate::shard::{ItemId, PortfolioConfig, Shard, ShardError};
use dvbp_core::{LiveEngine, LiveError, PolicyKind, RepackPolicy, TimeMode, TraceMode};
use dvbp_dimvec::DimVec;
use dvbp_obs::{scan_wal, ObsError, ObsEvent, StableWrite, SyncPolicy};
use dvbp_portfolio::PortfolioState;
use std::cell::Cell;
use std::collections::HashMap;
use std::io::{self, Write};

/// A WAL that could not be recovered. All variants are fatal: the
/// service refuses to boot on a log it cannot fully explain.
#[derive(Debug)]
pub enum RecoveryError {
    /// A newline-terminated line failed to parse (real corruption, not
    /// a torn tail).
    Scan(ObsError),
    /// The log is non-empty but does not start with the `RunStart`
    /// header.
    MissingHeader,
    /// The header's capacity differs from the service configuration.
    HeaderMismatch {
        /// Capacity the service was configured with.
        expected: Vec<u64>,
        /// Capacity recorded in the WAL header.
        found: Vec<u64>,
    },
    /// An `Ident` line not followed by its `Arrival`, or a `Depart` of
    /// an item the log never admitted.
    Malformed {
        /// 0-based index into the scanned event list.
        event: usize,
        /// What was wrong.
        msg: String,
    },
    /// The replay wrote a line differently from the log, or the log has
    /// a line that cannot start a request where the next one should.
    Diverged {
        /// 0-based index of the first event the replay does not write
        /// again.
        event: usize,
        /// The disagreement.
        msg: String,
    },
    /// Replay rejected a journaled operation outright (corrupt size or
    /// timestamp), or the policy kind is not liveable.
    Live(LiveError),
    /// The portfolio configuration itself was rejected (empty candidate
    /// list) — a boot-configuration problem, not a log problem.
    Portfolio {
        /// The rendered [`dvbp_portfolio::PortfolioError`].
        msg: String,
    },
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::Scan(e) => write!(f, "unreadable WAL: {e}"),
            RecoveryError::MissingHeader => write!(f, "WAL does not start with a RunStart header"),
            RecoveryError::HeaderMismatch { expected, found } => write!(
                f,
                "WAL capacity {found:?} does not match configured capacity {expected:?}"
            ),
            RecoveryError::Malformed { event, msg } => {
                write!(f, "malformed WAL at event {event}: {msg}")
            }
            RecoveryError::Diverged { event, msg } => {
                write!(f, "WAL diverged from replay at event {event}: {msg}")
            }
            RecoveryError::Live(e) => write!(f, "replay rejected a journaled operation: {e}"),
            RecoveryError::Portfolio { msg } => write!(f, "portfolio rejected: {msg}"),
        }
    }
}

impl std::error::Error for RecoveryError {}

/// The state rebuilt from a WAL by [`recover`].
pub struct Recovered {
    /// A live engine holding exactly the state the WAL's acknowledged
    /// prefix described.
    pub live: LiveEngine,
    /// External id → run-local index for every recovered arrival.
    pub ids: HashMap<ItemId, usize>,
    /// Run-local index → external id (the keys of `ids`, shared).
    pub names: Vec<ItemId>,
    /// Events (journal lines, header included) applied by the replay.
    pub events_applied: u64,
    /// Byte length of the acknowledged prefix; the caller truncates the
    /// log file to this before appending.
    pub valid_bytes: u64,
    /// Complete lines of the unacknowledged request the log ends inside,
    /// discarded with it.
    pub dropped_events: u64,
    /// Bytes of torn (unterminated) final line skipped by the scan.
    pub torn_bytes: u64,
    /// Whether the log contained the `RunStart` header (false only for
    /// an empty/fully-torn log).
    pub has_header: bool,
    /// The replayed portfolio state when a [`PortfolioConfig`] was
    /// given: shadows and meta-policy re-driven over the acknowledged
    /// stream, their switches matched against the log's.
    pub portfolio: Option<PortfolioState>,
}

/// Replays raw WAL bytes into a [`Recovered`] shard state for the given
/// service configuration. Pass the service's [`PortfolioConfig`] to
/// also rebuild the shard's [`PortfolioState`]; a log holding
/// `PolicySwitch` lines replays only under the portfolio configuration
/// that wrote it, as any log replays only under its `kind` and
/// `repack`.
///
/// # Errors
///
/// See [`RecoveryError`]; every variant means the service must not
/// boot on this log.
#[allow(clippy::too_many_arguments)] // the shard's full configuration surface
pub fn recover(
    bytes: &[u8],
    capacity: &DimVec,
    kind: &PolicyKind,
    repack: RepackPolicy,
    trace: TraceMode,
    time_mode: TimeMode,
    portfolio: Option<&PortfolioConfig>,
) -> Result<Recovered, RecoveryError> {
    let scan = scan_wal(bytes).map_err(RecoveryError::Scan)?;
    match scan.events.first() {
        Some(ObsEvent::RunStart {
            capacity: found, ..
        }) if found != capacity.as_slice() => {
            return Err(RecoveryError::HeaderMismatch {
                expected: capacity.as_slice().to_vec(),
                found: found.clone(),
            });
        }
        // An empty or fully torn log boots fresh.
        None | Some(ObsEvent::RunStart { .. }) => {}
        Some(_) => return Err(RecoveryError::MissingHeader),
    }
    // Replay every complete line; when the log ends inside a request,
    // replay again up to the line before it.
    let mut kept = scan.events.len();
    loop {
        let end = scan.offsets[..kept].last().copied().unwrap_or(0);
        let tally = Tally::default();
        let sink = Check {
            log: &bytes[..usize::try_from(end).expect("WAL offsets fit usize")],
            tally: &tally,
        };
        let mut shard = Shard::create(
            capacity.clone(),
            kind,
            repack,
            trace,
            time_mode,
            sink,
            SyncPolicy::OnClose,
            portfolio,
        )
        .map_err(|e| rejected(e, 0))?;
        match replay(&mut shard, &scan.events[..kept], &scan.offsets, &tally)? {
            Pass::Cut(start) => kept = start,
            Pass::Whole => {
                let (live, ids, names, portfolio) = shard.into_state();
                return Ok(Recovered {
                    live,
                    ids,
                    names,
                    events_applied: kept as u64,
                    valid_bytes: end,
                    dropped_events: (scan.events.len() - kept) as u64,
                    torn_bytes: scan.torn_bytes,
                    has_header: kept > 0,
                    portfolio,
                });
            }
        }
    }
}

/// How one replay pass ended.
enum Pass {
    /// The replay wrote every line of the log again.
    Whole,
    /// The log ends inside the request that starts at this event.
    Cut(usize),
}

/// Feeds a freshly created replay shard the requests in `events` (the
/// log's complete lines; `offsets` as scanned) and checks the lines it
/// writes after each one.
fn replay(
    shard: &mut Shard<Check<'_>>,
    events: &[ObsEvent],
    offsets: &[u64],
    tally: &Tally,
) -> Result<Pass, RecoveryError> {
    let Some(&end) = offsets[..events.len()].last() else {
        return Ok(Pass::Whole); // an empty log holds no header to check
    };
    // The event holding byte `offset` of the log.
    let event_at = |offset: usize| offsets.partition_point(|&o| o <= offset as u64);
    // Where the request just replayed starts; first, the header
    // `Shard::create` wrote.
    let mut start = 0;
    loop {
        if let Some(offset) = tally.differs.get() {
            let event = event_at(offset);
            return Err(RecoveryError::Diverged {
                event,
                msg: format!(
                    "the replay writes this line differently: {:?}",
                    events[event]
                ),
            });
        }
        let written = tally.written.get();
        if written as u64 > end {
            return Ok(Pass::Cut(start));
        }
        start = event_at(written);
        let applied = match events.get(start) {
            None => return Ok(Pass::Whole),
            Some(ObsEvent::Ident { item, id }) => match events.get(start + 1) {
                None => return Ok(Pass::Cut(start)),
                Some(ObsEvent::Arrival {
                    time,
                    item: arrival,
                    size,
                }) if arrival == item => {
                    if size.is_empty() {
                        return Err(RecoveryError::Malformed {
                            event: start + 1,
                            msg: format!("Arrival of item {item} has no dimensions"),
                        });
                    }
                    shard.arrive(id, DimVec::from_slice(size), *time).map(drop)
                }
                Some(_) => {
                    return Err(RecoveryError::Malformed {
                        event: start + 1,
                        msg: format!("Ident of item {item} is not followed by its Arrival"),
                    })
                }
            },
            Some(ObsEvent::Depart { time, item, .. }) => {
                let Some(id) = shard.names().get(*item).cloned() else {
                    return Err(RecoveryError::Malformed {
                        event: start,
                        msg: format!("Depart of item {item}, which the log never admitted"),
                    });
                };
                shard.depart(&id, *time).map(drop)
            }
            Some(other) => {
                return Err(RecoveryError::Diverged {
                    event: start,
                    msg: format!("{other:?} cannot start a request"),
                })
            }
        };
        applied.map_err(|e| rejected(e, start))?;
    }
}

/// Classifies a shard rejection met while replaying the request that
/// starts at `event`: engine and portfolio rejections keep their kind;
/// a duplicate id or a repeated departure means the replay writes
/// nothing where the log has a group.
fn rejected(e: ShardError, event: usize) -> RecoveryError {
    match e {
        ShardError::Live(e) => RecoveryError::Live(e),
        ShardError::Portfolio { msg } => RecoveryError::Portfolio { msg },
        other => RecoveryError::Diverged {
            event,
            msg: other.to_string(),
        },
    }
}

/// How far the replay's bytes agree with the log, shared between the
/// [`Check`] sink inside the shard and [`replay`] outside it.
#[derive(Default)]
struct Tally {
    /// Bytes the replay has written; past the log's length once the
    /// replay outruns it.
    written: Cell<usize>,
    /// Offset of the first byte the replay wrote differently.
    differs: Cell<Option<usize>>,
}

/// The replay's WAL sink: compares what the shard writes with the log
/// and stores nothing. Writes never fail, so the shard stays healthy
/// and [`replay`] reads the outcome from the [`Tally`].
struct Check<'a> {
    log: &'a [u8],
    tally: &'a Tally,
}

impl Write for Check<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let at = self.tally.written.get();
        if self.tally.differs.get().is_none() {
            let expected = self.log.get(at..).unwrap_or_default();
            if let Some(k) = buf.iter().zip(expected).position(|(a, b)| a != b) {
                self.tally.differs.set(Some(at + k));
            }
        }
        self.tally.written.set(at + buf.len());
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl StableWrite for Check<'_> {
    fn persist(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvbp_obs::JsonlEmitter;

    fn capacity() -> DimVec {
        DimVec::from_slice(&[10, 10])
    }

    fn shard_with(repack: RepackPolicy) -> Shard<Vec<u8>> {
        Shard::create(
            capacity(),
            &PolicyKind::FirstFit,
            repack,
            TraceMode::Full,
            TimeMode::Strict,
            Vec::new(),
            SyncPolicy::OnClose,
            None,
        )
        .unwrap()
    }

    /// A shard driven through a fixed script, returning its WAL bytes.
    fn scripted_wal() -> Vec<u8> {
        let mut s = shard_with(RepackPolicy::NoRepack);
        s.arrive("a", DimVec::from_slice(&[6, 6]), 0).unwrap();
        s.arrive("b", DimVec::from_slice(&[2, 2]), 1).unwrap();
        s.arrive("c", DimVec::from_slice(&[6, 6]), 2).unwrap();
        s.depart("b", 3).unwrap();
        s.depart("a", 4).unwrap(); // closes bin 0
        s.arrive("d", DimVec::from_slice(&[3, 3]), 5).unwrap();
        s.into_wal_bytes()
    }

    /// A drain-on-depart shard whose last group is a depart with a
    /// journaled migration (plus the drained bin's close).
    fn migrating_wal() -> Vec<u8> {
        let mut s = shard_with(RepackPolicy::DrainOnDepart { k: 1 });
        s.arrive("a", DimVec::from_slice(&[7, 7]), 0).unwrap(); // bin 0
        s.arrive("b", DimVec::from_slice(&[7, 7]), 1).unwrap(); // bin 1
        s.arrive("c", DimVec::from_slice(&[2, 2]), 2).unwrap(); // bin 0
        let dep = s.depart("a", 3).unwrap(); // drains c into bin 1
        assert_eq!(dep.migrations.len(), 1);
        s.into_wal_bytes()
    }

    fn recover_with(bytes: &[u8], repack: RepackPolicy) -> Result<Recovered, RecoveryError> {
        recover(
            bytes,
            &capacity(),
            &PolicyKind::FirstFit,
            repack,
            TraceMode::Full,
            TimeMode::Strict,
            None,
        )
    }

    fn recover_ff(bytes: &[u8]) -> Result<Recovered, RecoveryError> {
        recover_with(bytes, RepackPolicy::NoRepack)
    }

    #[test]
    fn clean_log_recovers_every_detail() {
        let bytes = scripted_wal();
        let rec = recover_ff(&bytes).unwrap();
        assert_eq!(rec.valid_bytes as usize, bytes.len());
        assert_eq!(rec.dropped_events, 0);
        assert_eq!(rec.torn_bytes, 0);
        assert!(rec.has_header);
        assert_eq!(rec.names, ["a", "b", "c", "d"].map(ItemId::from));
        assert_eq!(rec.ids["d"], 3);
        assert_eq!(rec.live.items_seen(), 4);
        assert_eq!(rec.live.active_items(), 2);
        assert!(rec.live.has_departed(0));
        assert!(rec.live.has_departed(1));
        // Bin 0 closed at t=4; c sits in bin 1; d reuses... FirstFit
        // placed d in the earliest open bin that fits.
        assert_eq!(rec.live.bins_opened(), rec.live.item_bin(3).unwrap().0 + 1);
    }

    #[test]
    fn empty_log_boots_fresh() {
        let rec = recover_ff(b"").unwrap();
        assert!(!rec.has_header);
        assert_eq!(rec.events_applied, 0);
        assert_eq!(rec.live.items_seen(), 0);
    }

    #[test]
    fn every_event_boundary_is_a_consistent_recovery_point() {
        let bytes = scripted_wal();
        let scan = scan_wal(&bytes).unwrap();
        for &off in &scan.offsets {
            let rec = recover_ff(&bytes[..off as usize]).unwrap();
            // The recovered prefix must itself re-recover to the same
            // byte count it reported valid.
            let again = recover_ff(&bytes[..rec.valid_bytes as usize]).unwrap();
            assert_eq!(again.valid_bytes, rec.valid_bytes);
            assert_eq!(again.dropped_events, 0, "truncation must be a fixpoint");
            assert_eq!(again.live.items_seen(), rec.live.items_seen());
            assert_eq!(again.live.active_items(), rec.live.active_items());
        }
    }

    #[test]
    fn torn_final_line_is_dropped_not_fatal() {
        let bytes = scripted_wal();
        // Cut mid-way through the final line.
        let cut = bytes.len() - 7;
        let rec = recover_ff(&bytes[..cut]).unwrap();
        assert!(rec.torn_bytes > 0);
        assert!(rec.valid_bytes <= cut as u64 - rec.torn_bytes);
    }

    #[test]
    fn trailing_incomplete_arrival_group_is_rolled_back() {
        let bytes = scripted_wal();
        let scan = scan_wal(&bytes).unwrap();
        // The last group is d's arrival: Ident, Arrival, BinOpen?,
        // Place. Cut after its Ident line (events_kept would end
        // mid-group).
        let full = recover_ff(&bytes).unwrap();
        let d_first_event = full.events_applied - group_lines_of_last(&bytes);
        let cut = scan.offsets[d_first_event as usize] as usize; // keep Ident only
        let rec = recover_ff(&bytes[..cut]).unwrap();
        assert_eq!(rec.live.items_seen(), 3, "d's arrival must be dropped");
        assert_eq!(rec.dropped_events, 1);
        assert!(!rec.ids.contains_key("d"));
    }

    fn group_lines_of_last(bytes: &[u8]) -> u64 {
        // d's arrival group: 3 lines + 1 if it opened a bin. Derive
        // from the log itself to stay policy-agnostic.
        let scan = scan_wal(bytes).unwrap();
        let mut n = 0;
        for ev in scan.events.iter().rev() {
            n += 1;
            if matches!(ev, ObsEvent::Ident { .. }) {
                break;
            }
        }
        n
    }

    #[test]
    fn trailing_closing_depart_without_binclose_is_rolled_back() {
        // Build a log whose last group is a depart that closes its bin,
        // then strip the BinClose commit line.
        let mut s = shard_with(RepackPolicy::NoRepack);
        s.arrive("only", DimVec::from_slice(&[5, 5]), 0).unwrap();
        s.depart("only", 9).unwrap(); // Depart + BinClose
        let bytes = s.into_wal_bytes();
        let scan = scan_wal(&bytes).unwrap();
        assert!(matches!(
            scan.events.last(),
            Some(ObsEvent::BinClose { .. })
        ));
        let cut = scan.offsets[scan.offsets.len() - 2] as usize; // drop BinClose
        let rec = recover_ff(&bytes[..cut]).unwrap();
        // The depart never committed: "only" must still be active.
        assert_eq!(rec.live.active_items(), 1);
        assert!(!rec.live.has_departed(0));
        assert_eq!(rec.dropped_events, 1);
        // valid_bytes excludes the rolled-back Depart line.
        let again = recover_ff(&bytes[..rec.valid_bytes as usize]).unwrap();
        assert_eq!(again.dropped_events, 0);
        assert_eq!(again.live.active_items(), 1);
    }

    #[test]
    fn mid_log_disagreement_is_diverged_not_rolled_back() {
        // Same closing-depart-without-BinClose shape, but with a later
        // group following — the group is complete, so the missing
        // BinClose is corruption.
        let mut s = shard_with(RepackPolicy::NoRepack);
        s.arrive("x", DimVec::from_slice(&[5, 5]), 0).unwrap();
        s.depart("x", 3).unwrap();
        s.arrive("y", DimVec::from_slice(&[5, 5]), 4).unwrap();
        let bytes = s.into_wal_bytes();
        let scan = scan_wal(&bytes).unwrap();
        // Remove x's BinClose line (event index: header=0, x group
        // 1..=4 or 1..=3 +BinOpen... find it).
        let bc = scan
            .events
            .iter()
            .position(|e| matches!(e, ObsEvent::BinClose { .. }))
            .unwrap();
        let start = scan.offsets[bc - 1] as usize;
        let end = scan.offsets[bc] as usize;
        let mut cut = bytes[..start].to_vec();
        cut.extend_from_slice(&bytes[end..]);
        let err = recover_ff(&cut).err().expect("recovery must fail");
        assert!(matches!(err, RecoveryError::Diverged { .. }), "{err}");
    }

    #[test]
    fn wrong_capacity_or_policy_is_rejected() {
        let bytes = scripted_wal();
        let err = recover(
            &bytes,
            &DimVec::from_slice(&[10, 11]),
            &PolicyKind::FirstFit,
            RepackPolicy::NoRepack,
            TraceMode::Full,
            TimeMode::Strict,
            None,
        )
        .err()
        .expect("recovery must fail");
        assert!(matches!(err, RecoveryError::HeaderMismatch { .. }), "{err}");
        // A different policy replays to different bin choices: FirstFit
        // sends d back to bin 0, NextFit (never looks back) to bin 1.
        let mut s = shard_with(RepackPolicy::NoRepack);
        s.arrive("a", DimVec::from_slice(&[6, 6]), 0).unwrap(); // bin 0
        s.arrive("c", DimVec::from_slice(&[6, 6]), 2).unwrap(); // bin 1
        s.arrive("d", DimVec::from_slice(&[3, 3]), 5).unwrap(); // FF: bin 0
        let bytes = s.into_wal_bytes();
        let err = recover(
            &bytes,
            &capacity(),
            &PolicyKind::NextFit,
            RepackPolicy::NoRepack,
            TraceMode::Full,
            TimeMode::Strict,
            None,
        )
        .err()
        .expect("recovery must fail");
        assert!(matches!(err, RecoveryError::Diverged { .. }), "{err}");
    }

    #[test]
    fn migration_groups_replay_to_identical_state() {
        let bytes = migrating_wal();
        let rec = recover_with(&bytes, RepackPolicy::DrainOnDepart { k: 1 }).unwrap();
        assert_eq!(rec.valid_bytes as usize, bytes.len());
        assert_eq!(rec.dropped_events, 0);
        assert_eq!(rec.live.migrations(), 1);
        // c ended up in bin 1, and the drained bin 0 is closed.
        assert_eq!(rec.live.item_bin(2), Some(dvbp_core::BinId(1)));
        assert_eq!(rec.live.open_bins(), 1);
    }

    #[test]
    fn trailing_migration_lines_cut_before_commit_roll_back_the_depart() {
        let bytes = migrating_wal();
        let scan = scan_wal(&bytes).unwrap();
        // The last group is Depart, Migrate, BinClose (a's departure
        // does not close bin 0 — c is still there — so the drain's
        // close is the only BinClose). Cut at every boundary inside
        // the group: all three cuts must roll back the whole depart.
        let depart_at = scan
            .events
            .iter()
            .position(|e| matches!(e, ObsEvent::Depart { .. }))
            .unwrap();
        for keep in depart_at..scan.events.len() - 1 {
            let cut = scan.offsets[keep] as usize;
            let rec = recover_with(&bytes[..cut], RepackPolicy::DrainOnDepart { k: 1 }).unwrap();
            assert_eq!(rec.live.active_items(), 3, "cut after event {keep}");
            assert!(!rec.live.has_departed(0));
            assert_eq!(rec.live.migrations(), 0);
            assert_eq!(
                rec.dropped_events,
                keep as u64 - depart_at as u64 + 1,
                "the partial group is dropped whole"
            );
            // Truncation is a fixpoint.
            let again = recover_with(
                &bytes[..rec.valid_bytes as usize],
                RepackPolicy::DrainOnDepart { k: 1 },
            )
            .unwrap();
            assert_eq!(again.dropped_events, 0);
        }
    }

    #[test]
    fn repack_policy_mismatch_is_diverged() {
        // A WAL written with migrations cannot replay under NoRepack
        // (mid-log Migrate lines never match), and a NoRepack WAL whose
        // non-trailing departs should have migrated diverges under
        // DrainOnDepart.
        let bytes = migrating_wal();
        let err = recover_ff(&bytes).err().expect("recovery must fail");
        assert!(matches!(err, RecoveryError::Diverged { .. }), "{err}");

        let mut s = shard_with(RepackPolicy::NoRepack);
        s.arrive("a", DimVec::from_slice(&[7, 7]), 0).unwrap();
        s.arrive("b", DimVec::from_slice(&[7, 7]), 1).unwrap();
        s.arrive("c", DimVec::from_slice(&[2, 2]), 2).unwrap();
        s.depart("a", 3).unwrap(); // no migration journaled
        s.arrive("d", DimVec::from_slice(&[1, 1]), 4).unwrap(); // completes the group
        let bytes = s.into_wal_bytes();
        let err = recover_with(&bytes, RepackPolicy::DrainOnDepart { k: 1 })
            .err()
            .expect("recovery must fail");
        assert!(matches!(err, RecoveryError::Diverged { .. }), "{err}");
    }

    #[test]
    fn a_rewritten_bin_open_or_close_is_diverged() {
        let log = String::from_utf8(scripted_wal()).unwrap();
        for (line, corrupt) in [
            (
                r#"{"BinOpen":{"time":2,"bin":1}}"#,
                r#"{"BinOpen":{"time":2,"bin":7}}"#,
            ),
            (
                r#"{"BinClose":{"time":4,"bin":0}}"#,
                r#"{"BinClose":{"time":9,"bin":0}}"#,
            ),
        ] {
            assert!(log.contains(line), "{line} is journaled");
            let err = recover_ff(log.replace(line, corrupt).as_bytes())
                .err()
                .expect("recovery must fail");
            assert!(matches!(err, RecoveryError::Diverged { .. }), "{err}");
        }
    }

    #[test]
    fn terminated_garbage_is_fatal() {
        let mut bytes = scripted_wal();
        bytes.extend_from_slice(b"garbage\n");
        assert!(matches!(
            recover_ff(&bytes),
            Err(RecoveryError::Scan(ObsError::Parse { .. }))
        ));
    }

    #[test]
    fn an_arrival_without_dimensions_is_malformed_not_a_crash() {
        let mut bytes = scripted_wal();
        bytes.extend_from_slice(b"{\"Ident\":{\"item\":4,\"id\":\"e\"}}\n");
        bytes.extend_from_slice(b"{\"Arrival\":{\"time\":9,\"item\":4,\"size\":[]}}\n");
        assert!(matches!(
            recover_ff(&bytes),
            Err(RecoveryError::Malformed { .. })
        ));
    }

    #[test]
    fn a_deeply_nested_line_is_a_scan_error_not_a_crash() {
        let mut bytes = scripted_wal();
        bytes.extend_from_slice(br#"{"Depart":{"time":9,"item":0,"bin":0,"x":"#);
        bytes.extend_from_slice(&b"[".repeat(30_000));
        bytes.push(b'\n');
        match recover_ff(&bytes) {
            Err(RecoveryError::Scan(ObsError::Parse { msg, .. })) => {
                assert!(msg.contains("nesting deeper than 128"), "{msg}");
            }
            other => panic!("expected a scan error, got {:?}", other.err()),
        }
    }

    use dvbp_portfolio::MetaPolicy;

    fn pf_config() -> PortfolioConfig {
        PortfolioConfig {
            candidates: vec![PolicyKind::FirstFit, PolicyKind::NextFit],
            meta: MetaPolicy::BestOf { window: 1 },
        }
    }

    /// A NextFit portfolio shard whose blocker departure journals a
    /// switch to FirstFit, followed by a post-switch arrival that only
    /// replays cleanly if the switch was re-applied.
    fn switching_wal() -> Vec<u8> {
        let cfg = pf_config();
        let mut s = Shard::create(
            DimVec::from_slice(&[10]),
            &PolicyKind::NextFit,
            RepackPolicy::NoRepack,
            TraceMode::CostOnly,
            TimeMode::Strict,
            Vec::new(),
            SyncPolicy::PerEvent,
            Some(&cfg),
        )
        .unwrap();
        s.arrive("small", DimVec::from_slice(&[3]), 0).unwrap(); // b0
        s.arrive("blocker", DimVec::from_slice(&[10]), 1).unwrap(); // b1
        s.arrive("tail", DimVec::from_slice(&[3]), 2).unwrap(); // NF: b2
        s.depart("blocker", 3).unwrap(); // closes b1 -> switch group
                                         // FirstFit sends this to b0 (3+4 fits); NextFit would pick its
                                         // current bin b2 — the replay must honor the journaled switch.
        s.arrive("post", DimVec::from_slice(&[4]), 4).unwrap();
        assert_eq!(s.live().kind(), &PolicyKind::FirstFit);
        s.into_wal_bytes()
    }

    fn recover_pf(
        bytes: &[u8],
        portfolio: Option<&PortfolioConfig>,
    ) -> Result<Recovered, RecoveryError> {
        recover(
            bytes,
            &DimVec::from_slice(&[10]),
            &PolicyKind::NextFit,
            RepackPolicy::NoRepack,
            TraceMode::CostOnly,
            TimeMode::Strict,
            portfolio,
        )
    }

    #[test]
    fn journaled_switches_replay_verbatim() {
        let bytes = switching_wal();
        let cfg = pf_config();
        let rec = recover_pf(&bytes, Some(&cfg)).unwrap();
        assert_eq!(rec.valid_bytes as usize, bytes.len());
        assert_eq!(rec.dropped_events, 0);
        assert_eq!(rec.live.kind(), &PolicyKind::FirstFit);
        assert_eq!(rec.live.policy_switches(), 1);
        assert_eq!(rec.live.item_bin(3), Some(dvbp_core::BinId(0)));
        let pf = rec.portfolio.expect("config given, state rebuilt");
        assert_eq!(pf.switches().len(), 1);
        assert_eq!(pf.switches()[0].from, "NextFit");
        assert_eq!(pf.switches()[0].to, "FirstFit");
        assert_eq!(pf.switches()[0].time, 3);
        assert_eq!(pf.shadows().items_seen(), 4, "shadows saw the stream");
    }

    #[test]
    fn a_switching_wal_without_its_portfolio_config_is_diverged() {
        // Without the config the replay never switches, so the log's
        // PolicySwitch line sits where the next request should start.
        let bytes = switching_wal();
        let err = recover_pf(&bytes, None).err().expect("recovery must fail");
        assert!(matches!(err, RecoveryError::Diverged { .. }), "{err}");
    }

    #[test]
    fn a_cut_switch_line_rolls_back_its_closing_depart() {
        let bytes = switching_wal();
        let scan = scan_wal(&bytes).unwrap();
        let switch_at = scan
            .events
            .iter()
            .position(|e| matches!(e, ObsEvent::PolicySwitch { .. }))
            .unwrap();
        // End the log right after the closing depart's lines: the
        // switch it caused was never written, so the depart was never
        // acknowledged and is dropped with it.
        let cut = scan.offsets[switch_at - 1] as usize;
        let cfg = pf_config();
        let rec = recover_pf(&bytes[..cut], Some(&cfg)).unwrap();
        assert_eq!(rec.dropped_events, 2, "the Depart and BinClose lines");
        assert_eq!(rec.valid_bytes, scan.offsets[switch_at - 3]);
        assert!(!rec.live.has_departed(1), "the blocker is still placed");
        assert_eq!(rec.live.kind(), &PolicyKind::NextFit);

        // Re-driving the same five requests reaches the uninterrupted
        // run's state: the switch happens, and FirstFit sends post to b0.
        let mut s = Shard::resume(
            rec.live,
            rec.ids,
            rec.names,
            rec.events_applied,
            JsonlEmitter::new(Vec::new()),
            rec.portfolio,
        );
        for (id, size, time) in [("small", 3, 0), ("blocker", 10, 1), ("tail", 3, 2)] {
            assert!(matches!(
                s.arrive(id, DimVec::from_slice(&[size]), time),
                Err(ShardError::DuplicateId { .. })
            ));
        }
        s.depart("blocker", 3).unwrap();
        s.arrive("post", DimVec::from_slice(&[4]), 4).unwrap();
        assert_eq!(s.live().kind(), &PolicyKind::FirstFit);
        assert_eq!(s.live().item_bin(3), Some(dvbp_core::BinId(0)));
        let whole = recover_pf(&bytes, Some(&cfg)).unwrap();
        assert_eq!(
            s.portfolio().unwrap().switches(),
            whole.portfolio.unwrap().switches()
        );
    }

    #[test]
    fn switch_to_a_foreign_candidate_is_diverged() {
        let bytes = switching_wal();
        let cfg = PortfolioConfig {
            candidates: vec![PolicyKind::NextFit, PolicyKind::MoveToFront],
            meta: MetaPolicy::BestOf { window: 1 },
        };
        let err = recover_pf(&bytes, Some(&cfg)).err().expect("must fail");
        assert!(matches!(err, RecoveryError::Diverged { .. }), "{err}");
    }

    #[test]
    fn every_switching_wal_boundary_is_a_consistent_recovery_point() {
        let bytes = switching_wal();
        let scan = scan_wal(&bytes).unwrap();
        let cfg = pf_config();
        for &off in &scan.offsets {
            let rec = recover_pf(&bytes[..off as usize], Some(&cfg)).unwrap();
            let again = recover_pf(&bytes[..rec.valid_bytes as usize], Some(&cfg)).unwrap();
            assert_eq!(again.valid_bytes, rec.valid_bytes);
            assert_eq!(again.dropped_events, 0, "truncation must be a fixpoint");
            assert_eq!(again.live.kind(), rec.live.kind());
            assert_eq!(again.live.policy_switches(), rec.live.policy_switches());
            assert_eq!(
                again.portfolio.unwrap().switches(),
                rec.portfolio.unwrap().switches()
            );
        }
    }
}
