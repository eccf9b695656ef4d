//! WAL files on disk: one `shard-NNN.wal` per shard under the service's
//! `--wal` directory.
//!
//! Opening a shard's WAL is the whole crash-recovery cycle in one call:
//! read the file, [`recover`](crate::recovery::recover) the
//! acknowledged prefix, **truncate** the file back to that prefix
//! (dropping torn tails and unacknowledged trailing groups), and reopen
//! it in append mode so new groups extend the restored log. A fresh
//! file gets the `RunStart` header instead.

use crate::recovery::{recover_shard, RecoveryError};
use crate::shard::{PortfolioConfig, Shard, ShardError};
use dvbp_core::{PolicyKind, RepackPolicy, TimeMode, TraceMode};
use dvbp_dimvec::DimVec;
use dvbp_obs::{JsonlEmitter, SyncPolicy};
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter};
use std::path::{Path, PathBuf};

/// The WAL file for shard `shard` under `dir`.
#[must_use]
pub fn shard_wal_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard:03}.wal"))
}

/// What [`open_shard`] did to get the shard back: one of these per
/// shard is logged at boot (the "recovered" line CI greps for).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Shard index.
    pub shard: usize,
    /// WAL file path.
    pub path: PathBuf,
    /// Events (lines) replayed, header included; 0 for a fresh WAL.
    pub events_applied: u64,
    /// Complete-line events dropped as unacknowledged trailing work.
    pub dropped_events: u64,
    /// Torn trailing bytes discarded.
    pub torn_bytes: u64,
    /// Whether the file was truncated back to the acknowledged prefix.
    pub truncated: bool,
}

impl std::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shard {}: recovered {} event(s) from {} (dropped {}, torn {} byte(s){})",
            self.shard,
            self.events_applied,
            self.path.display(),
            self.dropped_events,
            self.torn_bytes,
            if self.truncated { ", truncated" } else { "" },
        )
    }
}

/// Why a shard could not be opened.
#[derive(Debug)]
pub enum WalOpenError {
    /// Filesystem failure (read, truncate, open-append, mkdir).
    Io(io::Error),
    /// The log exists but cannot be recovered.
    Recovery(RecoveryError),
    /// Fresh-shard construction failed (clairvoyant policy, header
    /// write).
    Shard(ShardError),
}

impl std::fmt::Display for WalOpenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalOpenError::Io(e) => write!(f, "WAL I/O: {e}"),
            WalOpenError::Recovery(e) => write!(f, "{e}"),
            WalOpenError::Shard(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for WalOpenError {}

impl From<io::Error> for WalOpenError {
    fn from(e: io::Error) -> Self {
        WalOpenError::Io(e)
    }
}

/// Opens (recovering if present) shard `shard`'s WAL under `dir` and
/// returns the ready-to-serve shard plus the recovery report.
///
/// # Errors
///
/// See [`WalOpenError`]; the service must not boot a shard it cannot
/// open.
#[allow(clippy::too_many_arguments)] // the shard's full configuration surface
pub fn open_shard(
    dir: &Path,
    shard: usize,
    capacity: &DimVec,
    kind: &PolicyKind,
    repack: RepackPolicy,
    trace: TraceMode,
    time_mode: TimeMode,
    sync: SyncPolicy,
    portfolio: Option<&PortfolioConfig>,
) -> Result<(Shard<BufWriter<File>>, RecoveryReport), WalOpenError> {
    std::fs::create_dir_all(dir)?;
    let path = shard_wal_path(dir, shard);
    let bytes = match std::fs::read(&path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e.into()),
    };
    let rec = recover_shard(
        &bytes,
        capacity,
        kind,
        repack,
        trace,
        time_mode,
        portfolio,
        Some(shard),
    )
    .map_err(WalOpenError::Recovery)?;

    let truncated = rec.valid_bytes < bytes.len() as u64;
    if truncated {
        // Cut the file back to the acknowledged prefix before anything
        // is appended; set_len is the durability-safe primitive here
        // (the prefix bytes themselves are untouched).
        let file = OpenOptions::new().write(true).open(&path)?;
        file.set_len(rec.valid_bytes)?;
        file.sync_all()?;
    }

    let report = RecoveryReport {
        shard,
        path: path.clone(),
        events_applied: rec.events_applied,
        dropped_events: rec.dropped_events,
        torn_bytes: rec.torn_bytes,
        truncated,
    };

    let shard_state = if rec.has_header {
        let emitter = JsonlEmitter::open_append(&path)?.with_sync(sync);
        Shard::resume(
            rec.live,
            rec.ids,
            rec.names,
            rec.events_applied,
            emitter,
            rec.portfolio,
        )
    } else {
        // Fresh (or fully-torn) log: start over with a new header.
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&path)?;
        let mut fresh = Shard::create(
            capacity.clone(),
            kind,
            repack,
            trace,
            time_mode,
            BufWriter::new(file),
            sync,
            portfolio,
        )
        .map_err(WalOpenError::Shard)?;
        fresh.label(shard);
        fresh
    };
    Ok((shard_state, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Unique temp dir per test (no external tempfile crate).
    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("dvbp-serve-wal-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn open(dir: &Path) -> (Shard<BufWriter<File>>, RecoveryReport) {
        open_with(dir, RepackPolicy::NoRepack)
    }

    fn open_with(dir: &Path, repack: RepackPolicy) -> (Shard<BufWriter<File>>, RecoveryReport) {
        open_shard(
            dir,
            0,
            &DimVec::from_slice(&[10, 10]),
            &PolicyKind::FirstFit,
            repack,
            TraceMode::Full,
            TimeMode::Strict,
            SyncPolicy::PerEvent,
            None,
        )
        .unwrap()
    }

    #[test]
    fn fresh_then_reopen_round_trips_state() {
        let dir = temp_dir("roundtrip");
        {
            let (mut s, report) = open(&dir);
            assert_eq!(report.events_applied, 0);
            s.arrive("a", DimVec::from_slice(&[6, 6]), 0).unwrap();
            s.arrive("b", DimVec::from_slice(&[2, 2]), 1).unwrap();
            s.depart("a", 4).unwrap();
            assert!(s.persist());
            // Simulate a crash: the shard is dropped without any
            // graceful close (per-event sync already persisted it).
        }
        let (s, report) = open(&dir);
        assert_eq!(report.dropped_events, 0);
        assert!(!report.truncated);
        assert!(report.events_applied > 0);
        assert_eq!(s.live().items_seen(), 2);
        assert_eq!(s.live().active_items(), 1);
        assert!(s.live().has_departed(0));
        assert_eq!(s.ids()["b"], 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_on_open_and_service_resumes() {
        let dir = temp_dir("torn");
        {
            let (mut s, _) = open(&dir);
            s.arrive("a", DimVec::from_slice(&[6, 6]), 0).unwrap();
            s.arrive("b", DimVec::from_slice(&[2, 2]), 1).unwrap();
            assert!(s.persist());
        }
        // Tear the final line mid-byte.
        let path = shard_wal_path(&dir, 0);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 4]).unwrap();

        let (mut s, report) = open(&dir);
        assert!(report.truncated);
        assert!(report.torn_bytes > 0);
        // b's group lost its Place commit line, so b was rolled back.
        assert_eq!(s.live().items_seen(), 1);
        assert!(!s.ids().contains_key("b"));
        // The service resumes: b retries and the log heals.
        s.arrive("b", DimVec::from_slice(&[2, 2]), 1).unwrap();
        drop(s);
        let (s, report) = open(&dir);
        assert!(!report.truncated);
        assert_eq!(s.live().items_seen(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn migrating_shard_round_trips_through_its_wal() {
        let dir = temp_dir("repack");
        let drain = RepackPolicy::DrainOnDepart { k: 1 };
        {
            let (mut s, _) = open_with(&dir, drain);
            s.arrive("a", DimVec::from_slice(&[7, 7]), 0).unwrap();
            s.arrive("b", DimVec::from_slice(&[7, 7]), 1).unwrap();
            s.arrive("c", DimVec::from_slice(&[2, 2]), 2).unwrap();
            let dep = s.depart("a", 3).unwrap();
            assert_eq!(dep.migrations.len(), 1, "c drained into b's bin");
            assert!(s.persist());
        }
        let (s, report) = open_with(&dir, drain);
        assert!(!report.truncated);
        assert_eq!(s.live().migrations(), 1);
        assert_eq!(s.live().open_bins(), 1);
        assert_eq!(s.live().item_bin(2), Some(dvbp_core::BinId(1)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn portfolio_shard_round_trips_switch_history_through_its_wal() {
        use dvbp_portfolio::MetaPolicy;
        let dir = temp_dir("portfolio");
        let cfg = PortfolioConfig {
            candidates: vec![PolicyKind::FirstFit, PolicyKind::NextFit],
            meta: MetaPolicy::BestOf { window: 1 },
        };
        let open_pf = |dir: &Path| {
            open_shard(
                dir,
                0,
                &DimVec::from_slice(&[10]),
                &PolicyKind::NextFit,
                RepackPolicy::NoRepack,
                TraceMode::CostOnly,
                TimeMode::Strict,
                SyncPolicy::PerEvent,
                Some(&cfg),
            )
            .unwrap()
        };
        {
            let (mut s, _) = open_pf(&dir);
            s.arrive("small", DimVec::from_slice(&[3]), 0).unwrap();
            s.arrive("blocker", DimVec::from_slice(&[10]), 1).unwrap();
            s.arrive("tail", DimVec::from_slice(&[3]), 2).unwrap();
            s.depart("blocker", 3).unwrap(); // closes a bin -> switch
            assert_eq!(s.live().kind(), &PolicyKind::FirstFit);
            assert!(s.persist());
        }
        let (s, report) = open_pf(&dir);
        assert!(!report.truncated);
        assert_eq!(report.dropped_events, 0);
        assert_eq!(s.live().kind(), &PolicyKind::FirstFit);
        assert_eq!(s.live().policy_switches(), 1);
        let pf = s.portfolio().expect("state rebuilt on resume");
        assert_eq!(pf.switches().len(), 1);
        assert_eq!(pf.switches()[0].to, "FirstFit");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shard_files_are_distinct_per_index() {
        let dir = PathBuf::from("/tmp/whatever");
        assert_eq!(
            shard_wal_path(&dir, 7),
            PathBuf::from("/tmp/whatever/shard-007.wal")
        );
        assert_ne!(shard_wal_path(&dir, 0), shard_wal_path(&dir, 1));
    }
}
