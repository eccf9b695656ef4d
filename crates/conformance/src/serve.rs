//! Layer 8: serving-path conformance — `dvbp-serve` against the batch
//! engine, with crash recovery at arbitrary write-ahead-log cuts.
//!
//! For one `(instance, policy)` pair the serving checks are:
//!
//! * **one-shard identity** — driving the canonical operation feed
//!   ([`dvbp_core::live_ops`]) through a one-shard in-memory
//!   [`ServeState`] and snapshotting the shard must reproduce the batch
//!   [`PackRequest`] run **bit for bit**: assignment, per-bin usage
//!   records, decision trace, and cost (after mapping the shard's
//!   arrival-order item indices back to instance indices);
//! * **crash recovery** — the shard's WAL, cut at event boundaries *and*
//!   mid-line (torn final write), must recover without error; resuming
//!   the service from the recovered state and idempotently re-driving
//!   the full feed (duplicate-id / already-departed rejections are the
//!   resume path, not failures) must land in the *same* final state as
//!   the uninterrupted run — bit-identical drained packing, and equal
//!   shard status (policy, switch history, migrations, usage time,
//!   shadow scoreboard) but for `wal_lines` — for every cut. The plain
//!   shard is always crashed; a `drain:2` shard (migration groups) and
//!   a `best-of:1` portfolio shard over layer 11's candidates
//!   (`PolicySwitch` lines) are crashed too under the exhaustive plan,
//!   and for live `FirstFit` and `NextFit` under the sampled one;
//! * **sharded invariants** — with 2 and 3 hash-routed shards, each
//!   shard's packing must pass [`Packing::verify`] (and
//!   `verify_any_fit` for full-candidate policies) against its own
//!   sub-instance, totals must add up (`arrivals = n`, everything
//!   drained), and the reported service cost must equal the sum of the
//!   per-shard packing costs.
//!
//! The clairvoyant kinds (`DurationClassFirstFit`, `AlignedFit`) are
//! skipped: the serving layer rejects them by design, since a live
//! dispatch service has no announced durations.

use crate::diff::{first_difference, kinds_for, Divergence};
use dvbp_core::{
    live_ops, BinId, BinUsage, Instance, LiveOp, PackRequest, Packing, PolicyKind, RepackPolicy,
    TimeMode, TraceEvent, TraceMode,
};
use dvbp_obs::{scan_wal, JsonlEmitter, SyncPolicy};
use dvbp_portfolio::MetaPolicy;
use dvbp_serve::client::item_id;
use dvbp_serve::protocol::{Request, Response, ServeStatus, ShardStatus};
use dvbp_serve::recovery::recover;
use dvbp_serve::router::RouterKind;
use dvbp_serve::server::ServeState;
use dvbp_serve::shard::{PortfolioConfig, Shard, ShardError};

/// Which crash points of the WAL to exercise.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashPlan {
    /// Every event boundary plus a mid-line (torn) cut inside every
    /// line — the corpus-replay setting.
    Exhaustive,
    /// A deterministic sample of boundary and torn cuts (always
    /// including the empty log, one torn cut, and the full log) — the
    /// fuzzing setting.
    Sampled {
        /// Picks which cuts survive the subsampling.
        seed: u64,
    },
    /// No crash cuts; serving equivalence and shard invariants only.
    Skip,
}

/// Whether the serving layer accepts `kind` (it rejects the clairvoyant
/// policies, which need announced durations no live service has).
#[must_use]
pub fn servable(kind: &PolicyKind) -> bool {
    !matches!(
        kind,
        PolicyKind::DurationClassFirstFit | PolicyKind::AlignedFit
    )
}

/// The per-shard configuration a serving run uses next to its policy.
#[derive(Debug, PartialEq)]
struct ShardConfig {
    repack: RepackPolicy,
    portfolio: Option<PortfolioConfig>,
}

/// No repacking, no portfolio: the configuration pinned to the batch
/// engine.
const PLAIN: ShardConfig = ShardConfig {
    repack: RepackPolicy::NoRepack,
    portfolio: None,
};

/// The configurations whose WALs `plan` crashes for live `kind`: the
/// plain shard always; a `drain:2` shard and a `best-of:1` portfolio
/// shard over layer 11's candidates under the exhaustive plan, and
/// under the sampled one for `FirstFit` and `NextFit`.
fn crash_configs(kind: &PolicyKind, plan: CrashPlan) -> Vec<ShardConfig> {
    let mut configs = vec![PLAIN];
    if plan == CrashPlan::Exhaustive || matches!(kind, PolicyKind::FirstFit | PolicyKind::NextFit) {
        configs.push(ShardConfig {
            repack: RepackPolicy::DrainOnDepart { k: 2 },
            portfolio: None,
        });
        configs.push(ShardConfig {
            repack: RepackPolicy::NoRepack,
            portfolio: Some(PortfolioConfig {
                candidates: crate::portfolio::candidates(kind),
                meta: MetaPolicy::BestOf { window: 1 },
            }),
        });
    }
    configs
}

/// One completed in-memory serving run.
struct ServeRun {
    shards: Vec<Shard<Vec<u8>>>,
    status: ServeStatus,
}

/// Drives the canonical feed through a fresh in-memory service; every
/// operation must be acknowledged.
fn drive(
    instance: &Instance,
    kind: &PolicyKind,
    ops: &[LiveOp],
    shards: usize,
    config: &ShardConfig,
) -> Result<ServeRun, Divergence> {
    let state = ServeState::in_memory(
        &instance.capacity,
        kind,
        config.repack,
        shards,
        RouterKind::Hash,
        TraceMode::Full,
        TimeMode::Strict,
        SyncPolicy::PerEvent,
        config.portfolio.as_ref(),
    )
    .map_err(|e| Divergence::new(kind, format!("serve[shards={shards}]: boot: {e}")))?;
    for op in ops {
        let req = match op {
            LiveOp::Arrive { item, size, time } => Request::Arrive {
                id: item_id(*item),
                size: size.as_slice().to_vec(),
                time: *time,
            },
            LiveOp::Depart { item, time } => Request::Depart {
                id: item_id(*item),
                time: *time,
            },
        };
        match (op, state.handle(&req)) {
            (LiveOp::Arrive { .. }, Response::Placed { .. })
            | (LiveOp::Depart { .. }, Response::Departed { .. }) => {}
            (_, other) => {
                return Err(Divergence::new(
                    kind,
                    format!("serve[shards={shards}]: {op:?} answered {other:?}"),
                ));
            }
        }
    }
    let status = state.status();
    Ok(ServeRun {
        shards: state.into_shards(),
        status,
    })
}

/// Recovers each shard-local index's instance index from the id table
/// (`item-{i}`, assigned by [`item_id`]).
fn back_map(kind: &PolicyKind, names: &[String]) -> Result<Vec<usize>, Divergence> {
    names
        .iter()
        .map(|name| {
            name.strip_prefix("item-")
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| {
                    Divergence::new(kind, format!("serve: unparseable shard id {name:?}"))
                })
        })
        .collect()
}

/// Re-indexes a shard-local packing by instance item (`back[local] =
/// instance index`), against an instance of `n` items. Also used by the
/// layer-10 repack audit, whose live engines index items in arrival
/// order.
pub(crate) fn remap(packing: &Packing, back: &[usize], n: usize) -> Packing {
    let mut assignment = vec![BinId(usize::MAX); n];
    for (local, &bin) in packing.assignment.iter().enumerate() {
        assignment[back[local]] = bin;
    }
    let bins = packing
        .bins
        .iter()
        .map(|b| BinUsage {
            opened: b.opened,
            closed: b.closed,
            items: b.items.iter().map(|&i| back[i]).collect(),
        })
        .collect();
    let trace = packing
        .trace
        .iter()
        .map(|ev| match *ev {
            TraceEvent::Packed {
                time,
                item,
                bin,
                opened_new,
            } => TraceEvent::Packed {
                time,
                item: back[item],
                bin,
                opened_new,
            },
            closed => closed,
        })
        .collect();
    Packing {
        assignment,
        bins,
        trace,
    }
}

/// A drained one-shard run: its instance-indexed packing and its status
/// with `wal_lines` zeroed (a resumed shard counts only the lines it
/// wrote since boot).
struct Settled {
    packing: Packing,
    status: ShardStatus,
}

/// Consumes a drained one-shard run into its [`Settled`] state and WAL
/// bytes.
fn snapshot(
    kind: &PolicyKind,
    shard: Shard<Vec<u8>>,
    n: usize,
    context: &str,
) -> Result<(Settled, Vec<u8>), Divergence> {
    let back = back_map(kind, shard.names())?;
    let status = ShardStatus {
        wal_lines: 0,
        ..shard.status(0)
    };
    let (live, wal) = shard.into_parts();
    let packing = live
        .into_packing()
        .map_err(|e| Divergence::new(kind, format!("serve{context}: snapshot: {e}")))?;
    let packing = remap(&packing, &back, n);
    Ok((Settled { packing, status }, wal))
}

/// The crash points for `wal` under `plan`: event boundaries (a crash
/// between complete writes) interleaved with mid-line cuts (a torn
/// final write), 0 (nothing persisted), and the full log.
fn crash_cuts(wal: &[u8], plan: CrashPlan) -> Vec<usize> {
    let scan = scan_wal(wal).expect("an uninterrupted serve WAL must scan cleanly");
    let mut cuts = vec![0usize];
    let mut prev = 0usize;
    for &off in &scan.offsets {
        let off = usize::try_from(off).expect("WAL offsets fit usize");
        if off > prev + 1 {
            cuts.push(prev + (off - prev) / 2);
        }
        cuts.push(off);
        prev = off;
    }
    match plan {
        CrashPlan::Exhaustive => cuts,
        CrashPlan::Skip => Vec::new(),
        CrashPlan::Sampled { seed } => {
            let stride = (cuts.len() / 8).max(1);
            let phase = usize::try_from(seed % stride as u64).unwrap_or(0);
            let mut sample: Vec<usize> = cuts
                .iter()
                .copied()
                .enumerate()
                .filter(|&(i, _)| i % stride == phase)
                .map(|(_, c)| c)
                .collect();
            sample.push(0);
            sample.push(*cuts.last().expect("cuts always holds 0"));
            sample.sort_unstable();
            sample.dedup();
            sample
        }
    }
}

/// Crashes a one-shard service under `config` at `cut` bytes of `wal`,
/// recovers, re-drives the full feed idempotently, and compares the
/// final state with the same configuration's uninterrupted run.
fn check_crash_cut(
    instance: &Instance,
    kind: &PolicyKind,
    ops: &[LiveOp],
    config: &ShardConfig,
    uninterrupted: &Settled,
    wal: &[u8],
    cut: usize,
) -> Result<(), Divergence> {
    let context = format!("[{config:?}, crash@{cut} of {} WAL bytes]", wal.len());
    let rec = recover(
        &wal[..cut],
        &instance.capacity,
        kind,
        config.repack,
        TraceMode::Full,
        TimeMode::Strict,
        config.portfolio.as_ref(),
    )
    .map_err(|e| Divergence::new(kind, format!("serve{context}: recovery: {e}")))?;
    let mut shard = Shard::resume(
        rec.live,
        rec.ids,
        rec.names,
        rec.events_applied,
        JsonlEmitter::new(Vec::new()).with_sync(SyncPolicy::PerEvent),
        rec.portfolio,
    );
    for op in ops {
        let outcome = match op {
            LiveOp::Arrive { item, size, time } => {
                match shard.arrive(&item_id(*item), size.clone(), *time) {
                    Ok(_) | Err(ShardError::DuplicateId { .. }) => Ok(()),
                    Err(e) => Err(e),
                }
            }
            LiveOp::Depart { item, time } => match shard.depart(&item_id(*item), *time) {
                Ok(_) | Err(ShardError::AlreadyDeparted { .. }) => Ok(()),
                Err(e) => Err(e),
            },
        };
        if let Err(e) = outcome {
            return Err(Divergence::new(
                kind,
                format!("serve{context}: resume rejected {op:?}: {e}"),
            ));
        }
    }
    let (served, _) = snapshot(kind, shard, instance.len(), &context)?;
    if let Some(diff) = first_difference(&served.packing, &uninterrupted.packing) {
        return Err(Divergence::new(kind, format!("serve{context}: {diff}")));
    }
    if served.status != uninterrupted.status {
        return Err(Divergence::new(
            kind,
            format!(
                "serve{context}: status {:?} vs uninterrupted {:?}",
                served.status, uninterrupted.status
            ),
        ));
    }
    Ok(())
}

/// Per-shard invariants for a 2- and 3-shard hash-routed run: every
/// shard verifies against its sub-instance, and the service cost is the
/// sum of the shard costs.
fn check_sharded(
    instance: &Instance,
    kind: &PolicyKind,
    ops: &[LiveOp],
    shards: usize,
) -> Result<(), Divergence> {
    let run = drive(instance, kind, ops, shards, &PLAIN)?;
    let n = instance.len() as u64;
    if run.status.arrivals != n || run.status.departures != n {
        return Err(Divergence::new(
            kind,
            format!(
                "serve[shards={shards}]: {} arrivals / {} departures for {n} items",
                run.status.arrivals, run.status.departures
            ),
        ));
    }
    if run.status.active_items != 0 || run.status.open_bins != 0 {
        return Err(Divergence::new(
            kind,
            format!(
                "serve[shards={shards}]: {} items / {} bins left after a drained feed",
                run.status.active_items, run.status.open_bins
            ),
        ));
    }
    let mut total_cost: u128 = 0;
    for (s, shard) in run.shards.into_iter().enumerate() {
        let back = back_map(kind, shard.names())?;
        let (live, _) = shard.into_parts();
        let packing = live
            .into_packing()
            .map_err(|e| Divergence::new(kind, format!("serve[shards={shards}] shard {s}: {e}")))?;
        total_cost += packing.cost();
        if back.is_empty() {
            continue;
        }
        let items = back.iter().map(|&i| instance.items[i].clone()).collect();
        let sub = Instance::new(instance.capacity.clone(), items).map_err(|e| {
            Divergence::new(
                kind,
                format!("serve[shards={shards}] shard {s}: invalid sub-instance: {e}"),
            )
        })?;
        if let Err(e) = packing.verify(&sub) {
            return Err(Divergence::new(
                kind,
                format!("serve[shards={shards}] shard {s}: verify: {e}"),
            ));
        }
        if kind.is_full_candidate_any_fit() {
            if let Err(e) = packing.verify_any_fit(&sub) {
                return Err(Divergence::new(
                    kind,
                    format!("serve[shards={shards}] shard {s}: any-fit: {e}"),
                ));
            }
        }
    }
    if run.status.usage_time != total_cost.to_string() {
        return Err(Divergence::new(
            kind,
            format!(
                "serve[shards={shards}]: service cost {} vs shard cost sum {total_cost}",
                run.status.usage_time
            ),
        ));
    }
    Ok(())
}

/// Runs every serving check for one `(instance, kind)` pair. Clairvoyant
/// kinds pass vacuously (see [`servable`]).
///
/// # Errors
///
/// Returns the first [`Divergence`] found.
pub fn check_policy(
    instance: &Instance,
    kind: &PolicyKind,
    plan: CrashPlan,
) -> Result<(), Divergence> {
    if !servable(kind) {
        return Ok(());
    }
    let batch = PackRequest::new(kind.clone())
        .run(instance)
        .expect("batch run of a valid instance succeeds");
    let ops = live_ops(instance);

    // One shard, uninterrupted, under each crashed configuration; the
    // plain one is the batch engine, bit for bit.
    for config in crash_configs(kind, plan) {
        let run = drive(instance, kind, &ops, 1, &config)?;
        let shard = run
            .shards
            .into_iter()
            .next()
            .expect("a one-shard service has one shard");
        let (uninterrupted, wal) = snapshot(kind, shard, instance.len(), &format!("[{config:?}]"))?;
        if config == PLAIN {
            if run.status.usage_time != batch.cost().to_string() {
                return Err(Divergence::new(
                    kind,
                    format!(
                        "serve[shards=1]: status cost {} vs batch cost {}",
                        run.status.usage_time,
                        batch.cost()
                    ),
                ));
            }
            if let Some(diff) = first_difference(&uninterrupted.packing, &batch) {
                return Err(Divergence::new(kind, format!("serve[shards=1]: {diff}")));
            }
        }
        // Crash the one-shard service at each planned WAL cut.
        for cut in crash_cuts(&wal, plan) {
            check_crash_cut(instance, kind, &ops, &config, &uninterrupted, &wal, cut)?;
        }
    }

    // Multi-shard routing invariants and cost additivity.
    for shards in [2usize, 3] {
        check_sharded(instance, kind, &ops, shards)?;
    }
    Ok(())
}

/// Runs the serving checks over the applicable policy suite.
///
/// # Errors
///
/// Returns the first [`Divergence`] across the suite.
pub fn check_instance(
    instance: &Instance,
    random_fit_seed: u64,
    plan: CrashPlan,
) -> Result<(), Divergence> {
    for kind in kinds_for(instance, random_fit_seed) {
        check_policy(instance, &kind, plan)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvbp_core::Item;
    use dvbp_dimvec::DimVec;

    fn sample() -> Instance {
        Instance::new(
            DimVec::from_slice(&[10, 10]),
            vec![
                Item::new(DimVec::from_slice(&[7, 2]), 0, 10),
                Item::new(DimVec::from_slice(&[2, 7]), 2, 5),
                Item::new(DimVec::from_slice(&[3, 3]), 4, 6),
                Item::new(DimVec::from_slice(&[9, 9]), 5, 12),
                Item::new(DimVec::from_slice(&[1, 1]), 5, 7),
                Item::new(DimVec::from_slice(&[5, 5]), 10, 14),
            ],
        )
        .unwrap()
    }

    #[test]
    fn sample_instance_passes_every_cut_for_firstfit() {
        check_policy(&sample(), &PolicyKind::FirstFit, CrashPlan::Exhaustive).unwrap();
    }

    #[test]
    fn full_suite_passes_with_sampled_cuts() {
        check_instance(&sample(), 7, CrashPlan::Sampled { seed: 7 }).unwrap();
    }

    #[test]
    fn clairvoyant_kinds_pass_vacuously() {
        let announced = dvbp_workloads::predictions::announce_exact(&sample());
        check_policy(
            &announced,
            &PolicyKind::DurationClassFirstFit,
            CrashPlan::Exhaustive,
        )
        .unwrap();
        assert!(!servable(&PolicyKind::AlignedFit));
    }

    #[test]
    fn crash_cuts_cover_boundaries_and_torn_lines() {
        let ops = live_ops(&sample());
        let run = drive(&sample(), &PolicyKind::FirstFit, &ops, 1, &PLAIN).unwrap();
        let shard = run.shards.into_iter().next().unwrap();
        let (_, wal) = shard.into_parts();
        let scan = scan_wal(&wal).unwrap();
        let cuts = crash_cuts(&wal, CrashPlan::Exhaustive);
        // Every event boundary is a cut, and between any two boundaries
        // there is a torn mid-line cut.
        for &off in &scan.offsets {
            assert!(cuts.contains(&(off as usize)));
        }
        assert!(cuts.len() > scan.offsets.len());
        let sampled = crash_cuts(&wal, CrashPlan::Sampled { seed: 3 });
        assert!(sampled.first() == Some(&0));
        assert!(sampled.last() == Some(&wal.len()));
        assert!(sampled.len() <= cuts.len());
        assert!(crash_cuts(&wal, CrashPlan::Skip).is_empty());
    }
}
