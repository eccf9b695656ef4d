//! Ingestion of `dvbp-obs` JSONL event streams.
//!
//! The engine's observer feed is **complete**: every placement, bin
//! opening, departure, and bin closing appears exactly once, in
//! simulation order. This module exploits that to
//!
//! * [`replay_packing`] — reconstruct the run's full
//!   [`Packing`] from the stream alone (the conformance harness checks
//!   the reconstruction is bit-identical to the live run's);
//! * [`split_runs`] / [`ingest_jsonl`] — group a multi-run JSONL file
//!   (as produced by the experiment CLIs' `--metrics` flag, with
//!   interleaved [`ObsEvent::Meta`] labels) into labelled runs.

use dvbp_core::{BinId, BinUsage, Packing, TraceEvent};
use dvbp_obs::ObsEvent;

/// A malformed event stream detected during replay.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplayError {
    /// A `Place` referenced a bin with no preceding `BinOpen`.
    PlaceBeforeOpen {
        /// Offending bin index.
        bin: usize,
    },
    /// A `Place` re-assigned an item that was already placed.
    DuplicatePlacement {
        /// Offending item index.
        item: usize,
    },
    /// A `BinClose` referenced an unknown bin.
    CloseUnknownBin {
        /// Offending bin index.
        bin: usize,
    },
    /// Bin ids did not appear in opening order (the engine numbers bins
    /// `0, 1, 2, …` in opening order).
    NonSequentialBin {
        /// Offending bin index.
        bin: usize,
        /// Expected bin index.
        expected: usize,
    },
    /// The stream ended with an item never placed (stream truncated).
    MissingPlacement {
        /// Offending item index.
        item: usize,
    },
    /// A `Migrate` moved an item that was not resident in its `from` bin.
    MigrateMismatch {
        /// Offending item index.
        item: usize,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::PlaceBeforeOpen { bin } => {
                write!(f, "place into bin {bin} before its BinOpen")
            }
            ReplayError::DuplicatePlacement { item } => {
                write!(f, "item {item} placed twice")
            }
            ReplayError::CloseUnknownBin { bin } => write!(f, "close of unknown bin {bin}"),
            ReplayError::NonSequentialBin { bin, expected } => {
                write!(f, "bin {bin} opened out of order (expected {expected})")
            }
            ReplayError::MissingPlacement { item } => {
                write!(f, "item {item} never placed (truncated stream?)")
            }
            ReplayError::MigrateMismatch { item } => {
                write!(f, "item {item} migrated out of a bin it was not in")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

/// Reconstructs the run's [`Packing`] from its observer event stream.
///
/// Requires one complete run (one `RunStart`..`RunEnd` window);
/// [`ObsEvent::Meta`] lines and events of other kinds outside the window
/// are ignored. The result is identical — assignment, per-bin usage
/// records, and decision trace — to the `Packing` returned by the live
/// [`TraceMode::Full`](dvbp_core::TraceMode::Full) run that emitted the
/// stream.
///
/// # Errors
///
/// Returns a [`ReplayError`] for streams that are internally
/// inconsistent or truncated.
pub fn replay_packing(events: &[ObsEvent]) -> Result<Packing, ReplayError> {
    let mut assignment: Vec<Option<BinId>> = Vec::new();
    let mut bins: Vec<BinUsage> = Vec::new();
    let mut trace: Vec<TraceEvent> = Vec::new();
    for ev in events {
        match ev {
            ObsEvent::RunStart { items, .. } => {
                assignment = vec![None; *items];
            }
            ObsEvent::BinOpen { time, bin } => {
                if *bin != bins.len() {
                    return Err(ReplayError::NonSequentialBin {
                        bin: *bin,
                        expected: bins.len(),
                    });
                }
                bins.push(BinUsage {
                    opened: *time,
                    closed: *time,
                    items: Vec::new(),
                });
            }
            ObsEvent::Place {
                time,
                item,
                bin,
                opened_new,
                ..
            } => {
                if *bin >= bins.len() {
                    return Err(ReplayError::PlaceBeforeOpen { bin: *bin });
                }
                if *item >= assignment.len() {
                    assignment.resize(*item + 1, None);
                }
                if assignment[*item].is_some() {
                    return Err(ReplayError::DuplicatePlacement { item: *item });
                }
                assignment[*item] = Some(BinId(*bin));
                bins[*bin].items.push(*item);
                trace.push(TraceEvent::Packed {
                    time: *time,
                    item: *item,
                    bin: BinId(*bin),
                    opened_new: *opened_new,
                });
            }
            ObsEvent::BinClose { time, bin } => {
                if *bin >= bins.len() {
                    return Err(ReplayError::CloseUnknownBin { bin: *bin });
                }
                bins[*bin].closed = *time;
                trace.push(TraceEvent::Closed {
                    time: *time,
                    bin: BinId(*bin),
                });
            }
            ObsEvent::Migrate {
                time,
                item,
                from,
                to,
            } => {
                // Repacking moves a live item; the final Packing records
                // it in the destination bin only (mirroring the engine's
                // item chains after a migration).
                if *to >= bins.len() {
                    return Err(ReplayError::PlaceBeforeOpen { bin: *to });
                }
                if assignment.get(*item).copied().flatten() != Some(BinId(*from)) {
                    return Err(ReplayError::MigrateMismatch { item: *item });
                }
                assignment[*item] = Some(BinId(*to));
                bins[*from].items.retain(|&i| i != *item);
                bins[*to].items.push(*item);
                trace.push(TraceEvent::Migrated {
                    time: *time,
                    item: *item,
                    from: BinId(*from),
                    to: BinId(*to),
                });
            }
            ObsEvent::Meta { .. }
            | ObsEvent::Arrival { .. }
            | ObsEvent::Ident { .. }
            | ObsEvent::Probe { .. }
            | ObsEvent::Decision { .. }
            | ObsEvent::Depart { .. }
            | ObsEvent::PolicySwitch { .. }
            | ObsEvent::RunEnd { .. } => {}
        }
    }
    let assignment = assignment
        .into_iter()
        .enumerate()
        .map(|(item, b)| b.ok_or(ReplayError::MissingPlacement { item }))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Packing {
        assignment,
        bins,
        trace,
    })
}

/// One run's slice of a JSONL stream: the label of the nearest preceding
/// [`ObsEvent::Meta`] line plus the `RunStart`..`RunEnd` events.
#[derive(Clone, Debug, PartialEq)]
pub struct RunLog {
    /// Algorithm name from the `Meta` line (empty if unlabeled).
    pub algorithm: String,
    /// Dimension `d` from the `Meta` line (0 if unlabeled).
    pub d: usize,
    /// Max duration `μ` from the `Meta` line (0 if unlabeled).
    pub mu: u64,
    /// Trial seed from the `Meta` line (0 if unlabeled).
    pub seed: u64,
    /// The run's events, `RunStart` through `RunEnd` inclusive.
    pub events: Vec<ObsEvent>,
}

impl RunLog {
    /// Reconstructs this run's [`Packing`]; see [`replay_packing`].
    ///
    /// # Errors
    ///
    /// Returns a [`ReplayError`] for inconsistent or truncated streams.
    pub fn replay(&self) -> Result<Packing, ReplayError> {
        replay_packing(&self.events)
    }

    /// Total scan work reported by the run's `Place` events.
    #[must_use]
    pub fn total_scanned(&self) -> u64 {
        self.events
            .iter()
            .map(|ev| match ev {
                ObsEvent::Place { scanned, .. } => *scanned,
                _ => 0,
            })
            .sum()
    }
}

/// Groups a parsed JSONL stream into per-run [`RunLog`]s.
///
/// Each [`ObsEvent::Meta`] line labels the runs that follow it (the
/// experiment CLIs emit one `Meta` per trial); events before the first
/// `RunStart` and outside any run window are dropped.
#[must_use]
pub fn split_runs(events: &[ObsEvent]) -> Vec<RunLog> {
    let mut runs = Vec::new();
    let mut label = (String::new(), 0usize, 0u64, 0u64);
    let mut current: Option<RunLog> = None;
    for ev in events {
        match ev {
            ObsEvent::Meta {
                algorithm,
                d,
                mu,
                seed,
            } => {
                label = (algorithm.clone(), *d, *mu, *seed);
            }
            ObsEvent::RunStart { .. } => {
                current = Some(RunLog {
                    algorithm: label.0.clone(),
                    d: label.1,
                    mu: label.2,
                    seed: label.3,
                    events: vec![ev.clone()],
                });
            }
            ObsEvent::RunEnd { .. } => {
                if let Some(mut run) = current.take() {
                    run.events.push(ev.clone());
                    runs.push(run);
                }
            }
            _ => {
                if let Some(run) = current.as_mut() {
                    run.events.push(ev.clone());
                }
            }
        }
    }
    runs
}

/// Parses JSONL text and groups it into runs in one step.
///
/// # Errors
///
/// Returns the [`ObsError`](dvbp_obs::ObsError) of the first malformed
/// line.
pub fn ingest_jsonl(text: &str) -> Result<Vec<RunLog>, dvbp_obs::ObsError> {
    Ok(split_runs(&dvbp_obs::jsonl::parse_str(text)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvbp_core::{Instance, Item, PackRequest, PolicyKind};
    use dvbp_dimvec::DimVec;
    use dvbp_obs::{JsonlEmitter, Recorder};

    fn item(size: &[u64], a: u64, e: u64) -> Item {
        Item::new(DimVec::from_slice(size), a, e)
    }

    fn sample_instance() -> Instance {
        Instance::new(
            DimVec::from_slice(&[10, 10]),
            vec![
                item(&[7, 2], 0, 10),
                item(&[2, 7], 2, 5),
                item(&[3, 3], 4, 6),
                item(&[9, 9], 6, 12),
                item(&[1, 1], 7, 9),
            ],
        )
        .unwrap()
    }

    #[test]
    fn replay_reconstructs_live_packing() {
        let inst = sample_instance();
        for kind in PolicyKind::paper_suite(42) {
            let mut rec = Recorder::new();
            let live = PackRequest::new(kind.clone())
                .observer(&mut rec)
                .run(&inst)
                .unwrap();
            let replayed = replay_packing(&rec.events).unwrap();
            assert_eq!(replayed, live, "{}", kind.name());
        }
    }

    #[test]
    fn jsonl_round_trip_replays_identically() {
        let inst = sample_instance();
        let mut emitter = JsonlEmitter::new(Vec::new());
        emitter.emit(&dvbp_obs::ObsEvent::Meta {
            algorithm: "FirstFit".into(),
            d: 2,
            mu: 6,
            seed: 1,
        });
        let live = PackRequest::new(PolicyKind::FirstFit)
            .observer(&mut emitter)
            .run(&inst)
            .unwrap();
        let text = String::from_utf8(emitter.finish().unwrap()).unwrap();
        let runs = ingest_jsonl(&text).unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].algorithm, "FirstFit");
        assert_eq!(runs[0].replay().unwrap(), live);
    }

    #[test]
    fn truncated_stream_is_a_replay_error() {
        let inst = sample_instance();
        let mut rec = Recorder::new();
        PackRequest::new(PolicyKind::FirstFit)
            .observer(&mut rec)
            .run(&inst)
            .unwrap();
        // Drop a Place event: the replay must notice the missing item.
        let mut events = rec.events.clone();
        let place_at = events
            .iter()
            .position(|e| matches!(e, ObsEvent::Place { .. }))
            .unwrap();
        events.remove(place_at);
        assert!(matches!(
            replay_packing(&events),
            Err(ReplayError::DuplicatePlacement { .. } | ReplayError::MissingPlacement { .. })
        ));
    }
}
