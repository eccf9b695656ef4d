//! Layer 10: repacking conformance.
//!
//! A [`RepackPolicy`] is allowed to move items between open bins — an
//! entirely new way for the engine to corrupt state if the bookkeeping
//! is wrong. This layer drives every instance through live engines
//! under the standard repack suite ([`SUITE`]) and audits the recorded
//! observer stream with an independent reference checker:
//!
//! * **slice-wise capacity** — after every `Place` and `Migrate`, each
//!   bin's per-dimension load must fit the capacity;
//! * **liveness** — a migration never references a departed item, an
//!   unknown item, or a closed bin, and the source bin actually holds
//!   the item being moved;
//! * **closure** — `BinClose` only fires on empty bins, and a closed
//!   bin never receives another placement or migration;
//! * **provenance** — the `Migrate` events in the observer stream must
//!   equal, move for move, the [`LiveMigration`]s the engine reported
//!   from [`LiveEngine::depart`](dvbp_core::LiveEngine::depart);
//! * **accounting** — `migrations()` / `migration_cost()` totals match
//!   the reported moves, and each move's charge follows the policy's
//!   cost model (`1` per drained item, L1 size for defrag);
//! * **`NoRepack` identity** — with migration disabled the live run
//!   must still be bit-identical to the batch engine (the repack layer
//!   costs nothing when it is off).

use crate::diff::{first_difference, Divergence};
use dvbp_core::{
    live_ops, Instance, LiveMigration, LiveOp, LiveRequest, PackRequest, PolicyKind, RepackPolicy,
};
use dvbp_obs::{ObsEvent, Recorder};
use dvbp_sim::Time;
use std::collections::HashMap;

/// The repack suite every instance is checked under: migration off
/// (the bit-identity baseline), a per-departure drain, and a periodic
/// budgeted defrag sweep.
pub const SUITE: [RepackPolicy; 3] = [
    RepackPolicy::NoRepack,
    RepackPolicy::DrainOnDepart { k: 2 },
    RepackPolicy::BudgetedDefrag {
        budget: 8,
        period: 2,
    },
];

/// One bin's audited state.
#[derive(Debug, Default)]
struct BinState {
    /// Per-dimension load of the items currently inside.
    load: Vec<u64>,
    /// Items currently inside, with their sizes.
    contents: HashMap<usize, Vec<u64>>,
    /// Whether the bin's usage period has ended.
    closed: bool,
}

/// Replays one recorded observer stream from scratch, enforcing the
/// capacity / liveness / closure invariants at every event. Returns the
/// `Migrate` events seen, in stream order.
fn audit_stream(events: &[ObsEvent]) -> Result<Vec<(Time, usize, usize, usize)>, String> {
    let mut capacity: Vec<u64> = Vec::new();
    let mut sizes: HashMap<usize, Vec<u64>> = HashMap::new();
    let mut bins: HashMap<usize, BinState> = HashMap::new();
    let mut departed: std::collections::HashSet<usize> = std::collections::HashSet::new();
    let mut migrations = Vec::new();

    let place = |bins: &mut HashMap<usize, BinState>,
                 capacity: &[u64],
                 bin: usize,
                 item: usize,
                 size: &[u64],
                 what: &str|
     -> Result<(), String> {
        let state = bins
            .get_mut(&bin)
            .ok_or(format!("{what}: bin {bin} was never opened"))?;
        if state.closed {
            return Err(format!("{what}: bin {bin} is closed"));
        }
        state.load.resize(size.len().max(state.load.len()), 0);
        for (d, &s) in size.iter().enumerate() {
            state.load[d] += s;
            if state.load[d] > capacity[d] {
                return Err(format!(
                    "{what}: bin {bin} overflows dim {d}: {} > {}",
                    state.load[d], capacity[d]
                ));
            }
        }
        state.contents.insert(item, size.to_vec());
        Ok(())
    };
    let remove = |bins: &mut HashMap<usize, BinState>,
                  bin: usize,
                  item: usize,
                  what: &str|
     -> Result<Vec<u64>, String> {
        let state = bins
            .get_mut(&bin)
            .ok_or(format!("{what}: bin {bin} was never opened"))?;
        let size = state
            .contents
            .remove(&item)
            .ok_or(format!("{what}: bin {bin} does not hold item {item}"))?;
        for (d, &s) in size.iter().enumerate() {
            state.load[d] -= s;
        }
        Ok(size)
    };

    for ev in events {
        match ev {
            ObsEvent::RunStart { capacity: cap, .. } => capacity.clone_from(cap),
            ObsEvent::Arrival { item, size, .. } => {
                sizes.insert(*item, size.clone());
            }
            ObsEvent::BinOpen { bin, .. } => {
                if bins.contains_key(bin) {
                    return Err(format!("BinOpen: bin {bin} opened twice"));
                }
                bins.insert(*bin, BinState::default());
            }
            ObsEvent::Place { item, bin, .. } => {
                let size = sizes
                    .get(item)
                    .ok_or(format!("Place: item {item} never arrived"))?
                    .clone();
                place(&mut bins, &capacity, *bin, *item, &size, "Place")?;
            }
            ObsEvent::Depart { item, bin, .. } => {
                remove(&mut bins, *bin, *item, "Depart")?;
                departed.insert(*item);
            }
            ObsEvent::Migrate {
                time,
                item,
                from,
                to,
            } => {
                if departed.contains(item) {
                    return Err(format!("Migrate: item {item} already departed"));
                }
                if from == to {
                    return Err(format!(
                        "Migrate: item {item} moved onto itself (bin {from})"
                    ));
                }
                let size = remove(&mut bins, *from, *item, "Migrate")?;
                place(&mut bins, &capacity, *to, *item, &size, "Migrate")?;
                migrations.push((*time, *item, *from, *to));
            }
            ObsEvent::BinClose { bin, .. } => {
                let state = bins
                    .get_mut(bin)
                    .ok_or(format!("BinClose: bin {bin} was never opened"))?;
                if state.closed {
                    return Err(format!("BinClose: bin {bin} closed twice"));
                }
                if !state.contents.is_empty() {
                    return Err(format!(
                        "BinClose: bin {bin} still holds {} item(s)",
                        state.contents.len()
                    ));
                }
                state.closed = true;
            }
            _ => {}
        }
    }
    Ok(migrations)
}

/// Expected charge of one migration under `repack`'s cost model.
fn model_cost(repack: RepackPolicy, size: &[u64]) -> u64 {
    match repack {
        RepackPolicy::NoRepack => 0,
        RepackPolicy::DrainOnDepart { .. } => 1,
        RepackPolicy::BudgetedDefrag { .. } => size.iter().fold(0, |a, &c| a.saturating_add(c)),
    }
}

/// Runs the layer-10 checks for one `(instance, kind, repack)` triple.
///
/// # Errors
///
/// Returns the first [`Divergence`] found.
///
/// # Panics
///
/// Panics if `kind` is clairvoyant (live engines reject it); callers
/// gate on the non-clairvoyant suite.
pub fn check_policy(
    instance: &Instance,
    kind: &PolicyKind,
    repack: RepackPolicy,
) -> Result<(), Divergence> {
    let name = repack.name();
    let fail = |detail: String| Divergence::new(kind, format!("repack[{name}]: {detail}"));

    let mut live = LiveRequest::new(kind.clone())
        .capacity(instance.capacity.clone())
        .repack(repack)
        .observer(Recorder::new())
        .build()
        .expect("layer 10 runs non-clairvoyant kinds only");

    let mut local: HashMap<usize, usize> = HashMap::new();
    // back[engine index] = instance index (live engines index items in
    // arrival order; the batch packing indexes them in instance order).
    let mut back: Vec<usize> = Vec::new();
    let mut sizes: HashMap<usize, Vec<u64>> = HashMap::new();
    let mut reported: Vec<(Time, LiveMigration)> = Vec::new();
    for op in live_ops(instance) {
        match op {
            LiveOp::Arrive { item, size, time } => {
                let placed = live
                    .arrive(size.clone(), time)
                    .map_err(|e| fail(format!("arrive {item}: {e}")))?;
                sizes.insert(placed.item, size.as_slice().to_vec());
                local.insert(item, placed.item);
                debug_assert_eq!(placed.item, back.len());
                back.push(item);
            }
            LiveOp::Depart { item, time } => {
                let idx = local.remove(&item).expect("instance items arrive once");
                let dep = live
                    .depart(idx, time)
                    .map_err(|e| fail(format!("depart {item}: {e}")))?;
                for m in &dep.migrations {
                    reported.push((dep.time, *m));
                }
            }
        }
    }

    let migrations_total = live.migrations();
    let migration_cost_total = live.migration_cost();
    let (packing, recorder) = live
        .into_parts()
        .map_err(|e| fail(format!("into_parts: {e}")))?;

    // Independent stream audit: capacity, liveness, closure.
    let streamed = audit_stream(&recorder.events).map_err(&fail)?;

    // Provenance: the stream's Migrate events are exactly the engine's
    // reported moves, in order.
    let reported_tuples: Vec<(Time, usize, usize, usize)> = reported
        .iter()
        .map(|(t, m)| (*t, m.item, m.from.0, m.to.0))
        .collect();
    if streamed != reported_tuples {
        return Err(fail(format!(
            "observer stream migrations {streamed:?} != reported {reported_tuples:?}"
        )));
    }

    // Accounting: totals and the per-move cost model.
    if migrations_total != reported.len() as u64 {
        return Err(fail(format!(
            "migrations() reports {migrations_total} but {} moves were returned",
            reported.len()
        )));
    }
    let cost_sum = reported
        .iter()
        .fold(0u64, |total, (_, m)| total.saturating_add(m.cost));
    if migration_cost_total != cost_sum {
        return Err(fail(format!(
            "migration_cost() reports {migration_cost_total} but moves sum to {cost_sum}"
        )));
    }
    for (t, m) in &reported {
        let size = &sizes[&m.item];
        let expected = model_cost(repack, size);
        if m.cost != expected {
            return Err(fail(format!(
                "move of item {} at t={t} charged {} (cost model says {expected})",
                m.item, m.cost
            )));
        }
    }

    // NoRepack is the bit-identity baseline: no moves, and the live
    // packing equals the batch engine's.
    if repack == RepackPolicy::NoRepack {
        if !reported.is_empty() {
            return Err(fail(format!(
                "NoRepack executed {} migration(s)",
                reported.len()
            )));
        }
        let batch = PackRequest::new(kind.clone()).run(instance).unwrap();
        let remapped = crate::serve::remap(&packing, &back, instance.len());
        if let Some(diff) = first_difference(&remapped, &batch) {
            return Err(fail(format!("NoRepack vs batch: {diff}")));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvbp_core::Item;
    use dvbp_dimvec::DimVec;

    fn migrating_instance() -> Instance {
        // cap [10]: 7 (t0..3), 7 (t1..5), 2 (t2..5). Item 0's departure
        // at t3 leaves bin 0 holding only the 2-item, which drains into
        // bin 1's residual 3.
        let item = |size: u64, a: u64, e: u64| Item::new(DimVec::scalar(size), a, e);
        Instance::new(
            DimVec::scalar(10),
            vec![item(7, 0, 3), item(7, 1, 5), item(2, 2, 5)],
        )
        .unwrap()
    }

    #[test]
    fn suite_passes_on_a_migrating_instance() {
        for repack in SUITE {
            check_policy(&migrating_instance(), &PolicyKind::FirstFit, repack).unwrap();
        }
    }

    #[test]
    fn audit_rejects_capacity_overflow() {
        let events = vec![
            ObsEvent::RunStart {
                capacity: vec![10],
                items: 2,
            },
            ObsEvent::Arrival {
                time: 0,
                item: 0,
                size: vec![7],
            },
            ObsEvent::Arrival {
                time: 0,
                item: 1,
                size: vec![7],
            },
            ObsEvent::BinOpen { time: 0, bin: 0 },
            ObsEvent::Place {
                time: 0,
                item: 0,
                bin: 0,
                opened_new: true,
                scanned: 0,
            },
            ObsEvent::BinOpen { time: 0, bin: 1 },
            ObsEvent::Place {
                time: 0,
                item: 1,
                bin: 1,
                opened_new: true,
                scanned: 1,
            },
            // 7 + 7 > 10: an illegal move the audit must catch.
            ObsEvent::Migrate {
                time: 1,
                item: 1,
                from: 1,
                to: 0,
            },
        ];
        let err = audit_stream(&events).unwrap_err();
        assert!(err.contains("overflows"), "{err}");
    }

    #[test]
    fn audit_rejects_resurrecting_a_departed_item() {
        let events = vec![
            ObsEvent::RunStart {
                capacity: vec![10],
                items: 1,
            },
            ObsEvent::Arrival {
                time: 0,
                item: 0,
                size: vec![2],
            },
            ObsEvent::BinOpen { time: 0, bin: 0 },
            ObsEvent::Place {
                time: 0,
                item: 0,
                bin: 0,
                opened_new: true,
                scanned: 0,
            },
            ObsEvent::Depart {
                time: 1,
                item: 0,
                bin: 0,
            },
            ObsEvent::Migrate {
                time: 1,
                item: 0,
                from: 0,
                to: 1,
            },
        ];
        let err = audit_stream(&events).unwrap_err();
        assert!(err.contains("already departed"), "{err}");
    }

    #[test]
    fn audit_rejects_closing_a_nonempty_bin() {
        let events = vec![
            ObsEvent::RunStart {
                capacity: vec![10],
                items: 1,
            },
            ObsEvent::Arrival {
                time: 0,
                item: 0,
                size: vec![2],
            },
            ObsEvent::BinOpen { time: 0, bin: 0 },
            ObsEvent::Place {
                time: 0,
                item: 0,
                bin: 0,
                opened_new: true,
                scanned: 0,
            },
            ObsEvent::BinClose { time: 1, bin: 0 },
        ];
        let err = audit_stream(&events).unwrap_err();
        assert!(err.contains("still holds"), "{err}");
    }

    #[test]
    fn no_repack_is_bit_identical_to_batch_for_the_whole_suite() {
        let inst = migrating_instance();
        for kind in [
            PolicyKind::FirstFit,
            PolicyKind::MoveToFront,
            PolicyKind::NextFit,
        ] {
            check_policy(&inst, &kind, RepackPolicy::NoRepack).unwrap();
        }
    }
}
