//! [`EngineSet`]: several policies packing one event stream behind one
//! feed.
//!
//! A portfolio compares candidate policies on the stream a live engine
//! accepted (`dvbp-portfolio`'s shadows). Each candidate needs bins of
//! its own, but the stream's rules and its active items are the same
//! for every candidate. An `EngineSet` holds those once: one feed (the
//! clock, the admission and retirement rules and the active items, as
//! [`Engine::run_source`] and [`LiveEngine`](crate::LiveEngine) hold
//! them) and one Lemma 1(i) load integral. Beside them it holds one
//! bare, cost-only [`Engine`] with its policy per candidate kind, so
//! per active item the set keeps one record however many policies it
//! runs.
//!
//! [`apply`](EngineSet::apply) takes a batch in two passes. The feed
//! resolves every operation once — admission or retirement, the
//! effective tick, the lower-bound fold — into a reused buffer; then
//! each engine steps through the whole resolved batch before the next
//! engine starts, which keeps one engine's bins and policy state warm
//! for the batch.

use crate::engine::Engine;
use crate::item::Item;
use crate::live::{LiveError, LiveOp, TimeMode};
use crate::policy::{Policy, PolicyKind};
use crate::source::{streamed_engine, Feed, LoadIntegral};
use dvbp_dimvec::DimVec;
use dvbp_obs::NoopObserver;
use dvbp_sim::{Cost, Time};

/// An operation the feed accepted, with its item's record: an
/// arrival's effective tick is the record's `arrival`, a departure's
/// its `departure`.
enum Resolved {
    Arrive(usize, Item),
    Depart(usize, Item),
}

/// Cost-only engines of several policies over one stream, behind one
/// feed; see the module docs.
///
/// Every engine's usage time is bit-identical to a standalone cost-only
/// [`LiveEngine`](crate::LiveEngine) of its policy fed the same
/// operations under the same [`TimeMode`].
pub struct EngineSet {
    capacity: DimVec,
    feed: Feed,
    lb: LoadIntegral,
    engines: Vec<(Engine, Box<dyn Policy>)>,
    /// The batch being applied; cleared, not freed, between batches.
    resolved: Vec<Resolved>,
}

impl EngineSet {
    /// One engine per entry of `kinds`, in that order, for bins of
    /// `capacity`. `items_hint` pre-reserves each engine's item ledger
    /// (see [`LiveRequest::items_hint`](crate::LiveRequest::items_hint)).
    ///
    /// # Errors
    ///
    /// [`LiveError::Clairvoyant`] for a kind that reads announced
    /// durations.
    pub fn new(
        capacity: &DimVec,
        time_mode: TimeMode,
        kinds: &[PolicyKind],
        items_hint: usize,
    ) -> Result<Self, LiveError> {
        let engines = kinds
            .iter()
            .map(|kind| streamed_engine(kind, capacity, items_hint))
            .collect::<Result<_, _>>()?;
        Ok(EngineSet {
            capacity: capacity.clone(),
            feed: Feed::new(time_mode),
            lb: LoadIntegral::new(capacity),
            engines,
            resolved: Vec::new(),
        })
    }

    /// Applies `ops` in order to every engine and the lower bound.
    ///
    /// Items are numbered as a live engine numbers them, from 0 in
    /// arrival order: an `Arrive` must carry the next number,
    /// [`items_seen`](Self::items_seen), and a `Depart` names an item by
    /// it.
    ///
    /// # Errors
    ///
    /// The [`LiveError`] of the first operation the feed refuses — an
    /// `Arrive` not carrying the next number is a
    /// [`LiveError::DuplicateArrival`]. The operations before it are
    /// applied and the rest are not, so the set equals one fed only the
    /// operations before it.
    pub fn apply(&mut self, ops: &[LiveOp]) -> Result<(), LiveError> {
        let resolved = self.resolve(ops);
        for (engine, policy) in &mut self.engines {
            for step in &self.resolved {
                match step {
                    Resolved::Arrive(item, entry) => {
                        engine.step_arrive(
                            &self.capacity,
                            entry.arrival,
                            *item,
                            entry,
                            policy.as_mut(),
                            &mut NoopObserver,
                            None,
                        );
                    }
                    Resolved::Depart(item, entry) => {
                        engine
                            .step_depart(
                                entry.departure,
                                *item,
                                entry,
                                policy.as_mut(),
                                &mut NoopObserver,
                                None,
                            )
                            .expect("an active item has an assignment");
                    }
                }
            }
        }
        self.resolved.clear();
        resolved
    }

    /// Runs `ops` through the feed and the lower bound into the resolved
    /// buffer, up to the first refusal.
    fn resolve(&mut self, ops: &[LiveOp]) -> Result<(), LiveError> {
        for op in ops {
            // Numbers below the next one are taken; so, for an arrival,
            // is any other than the next.
            let next = self.feed.admitted();
            match op {
                LiveOp::Arrive { item, size, time } => {
                    let taken = *item != next;
                    let (time, entry) =
                        self.feed
                            .admit(taken, &self.capacity, *item, size.clone(), *time)?;
                    self.lb.arrive(time, &entry.size);
                    self.resolved.push(Resolved::Arrive(*item, entry.clone()));
                }
                LiveOp::Depart { item, time } => {
                    let gone = self.feed.retire(*item < next, *item, *time)?;
                    self.lb.depart(gone.departure, Some(&gone.size));
                    self.resolved.push(Resolved::Depart(*item, gone));
                }
            }
        }
        Ok(())
    }

    /// Each engine's accumulated usage time at tick `at`, in the order of
    /// the kinds the set was built with.
    pub fn costs_at(&self, at: Time) -> impl Iterator<Item = Cost> + '_ {
        self.engines
            .iter()
            .map(move |(engine, _)| engine.usage_time_at(at))
    }

    /// The Lemma 1(i) lower bound of the applied stream (bin-ticks), the
    /// value a [`StreamingLowerBound`](crate::StreamingLowerBound) fed
    /// the same effective ticks holds.
    #[must_use]
    pub fn lower_bound(&self) -> Cost {
        self.lb.value()
    }

    /// Arrivals applied so far: the next arrival's number.
    #[must_use]
    pub fn items_seen(&self) -> usize {
        self.feed.admitted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::TraceMode;
    use crate::live::LiveEngine;
    use crate::request::PackError;
    use crate::StreamingLowerBound;

    fn arrive(item: usize, size: &[u64], time: Time) -> LiveOp {
        LiveOp::Arrive {
            item,
            size: DimVec::from_slice(size),
            time,
        }
    }

    fn depart(item: usize, time: Time) -> LiveOp {
        LiveOp::Depart { item, time }
    }

    fn set(mode: TimeMode) -> EngineSet {
        EngineSet::new(
            &DimVec::from_slice(&[10, 10]),
            mode,
            &PolicyKind::paper_suite(5),
            0,
        )
        .unwrap()
    }

    /// What a set shows of itself: costs at `at`, lower bound, count.
    fn state(set: &EngineSet, at: Time) -> (Vec<Cost>, Cost, usize) {
        (
            set.costs_at(at).collect(),
            set.lower_bound(),
            set.items_seen(),
        )
    }

    /// A dirty stream: ticks behind the clock, a zero-duration stay, a
    /// departure after an arrival at its tick.
    fn dirty() -> Vec<LiveOp> {
        vec![
            arrive(0, &[6, 2], 3),
            arrive(1, &[5, 5], 1),
            arrive(2, &[3, 8], 4),
            depart(2, 4),
            arrive(3, &[2, 2], 4),
            depart(0, 2),
            arrive(4, &[9, 1], 7),
            depart(1, 9),
            depart(3, 9),
            depart(4, 12),
        ]
    }

    #[test]
    fn every_engine_equals_a_standalone_live_engine() {
        let canonical = vec![
            arrive(0, &[6, 2], 0),
            arrive(1, &[5, 5], 1),
            arrive(2, &[3, 8], 2),
            depart(1, 4),
            arrive(3, &[2, 2], 4),
            depart(0, 6),
            depart(2, 6),
            depart(3, 9),
        ];
        for (mode, ops) in [(TimeMode::Strict, canonical), (TimeMode::Clamp, dirty())] {
            let kinds = PolicyKind::paper_suite(5);
            let mut set = set(mode);
            let mut lb = StreamingLowerBound::new(&DimVec::from_slice(&[10, 10]));
            let mut alone: Vec<LiveEngine> = kinds
                .iter()
                .map(|kind| {
                    let cap = DimVec::from_slice(&[10, 10]);
                    LiveEngine::new(cap, kind, TraceMode::CostOnly, mode).unwrap()
                })
                .collect();
            // Two batches, split mid-stream.
            let (head, tail) = ops.split_at(5);
            set.apply(head).unwrap();
            set.apply(tail).unwrap();
            let mut now = 0;
            for op in &ops {
                for live in &mut alone {
                    now = match op {
                        LiveOp::Arrive { size, time, .. } => {
                            live.arrive(size.clone(), *time).unwrap().time
                        }
                        LiveOp::Depart { item, time } => live.depart(*item, *time).unwrap().time,
                    };
                }
                lb.observe(&match op {
                    LiveOp::Arrive { item, size, .. } => LiveOp::Arrive {
                        item: *item,
                        size: size.clone(),
                        time: now,
                    },
                    LiveOp::Depart { item, .. } => depart(*item, now),
                });
            }
            let want: Vec<Cost> = alone.iter().map(|live| live.usage_time_at(now)).collect();
            assert_eq!(set.costs_at(now).collect::<Vec<_>>(), want, "{mode:?}");
            assert_eq!(set.lower_bound(), lb.value(), "{mode:?}");
            let arrivals = ops.iter().filter(|op| matches!(op, LiveOp::Arrive { .. }));
            assert_eq!(set.items_seen(), arrivals.count());
        }
    }

    #[test]
    fn a_refused_operation_leaves_the_set_as_the_operations_before_it() {
        let prefix = [arrive(0, &[6, 2], 2), arrive(1, &[5, 5], 3)];
        let refused: Vec<(LiveOp, LiveError)> = vec![
            (
                arrive(2, &[1, 1], 1),
                LiveError::OutOfOrder { time: 1, now: 3 },
            ),
            (depart(1, 3), LiveError::EqualTickOrder { time: 3 }),
            (depart(7, 5), LiveError::UnknownItem { item: 7 }),
            (
                arrive(1, &[1, 1], 4),
                LiveError::DuplicateArrival { item: 1 },
            ),
            (
                arrive(5, &[1, 1], 4),
                LiveError::DuplicateArrival { item: 5 },
            ),
            (
                arrive(2, &[11, 1], 4),
                PackError::OversizedItem { item: 2 }.into(),
            ),
        ];
        let tail = [
            depart(0, 5),
            arrive(2, &[4, 4], 6),
            depart(1, 8),
            depart(2, 9),
        ];
        for (bad, err) in refused {
            let mut fed = set(TimeMode::Strict);
            let mut batch = prefix.to_vec();
            batch.push(bad);
            batch.extend(tail.iter().cloned());
            assert_eq!(fed.apply(&batch), Err(err));
            let mut clean = set(TimeMode::Strict);
            clean.apply(&prefix).unwrap();
            assert_eq!(state(&fed, 4), state(&clean, 4));
            // Both go on alike: the refusal changed neither feed.
            fed.apply(&tail).unwrap();
            clean.apply(&tail).unwrap();
            assert_eq!(state(&fed, 9), state(&clean, 9));
        }
        // A second departure of one item.
        let mut fed = set(TimeMode::Strict);
        let twice = [arrive(0, &[6, 2], 0), depart(0, 2), depart(0, 3)];
        assert_eq!(
            fed.apply(&twice),
            Err(LiveError::AlreadyDeparted { item: 0 })
        );
        let mut clean = set(TimeMode::Strict);
        clean.apply(&twice[..2]).unwrap();
        assert_eq!(state(&fed, 3), state(&clean, 3));
    }

    #[test]
    fn clairvoyant_kinds_are_refused() {
        let err = EngineSet::new(
            &DimVec::from_slice(&[10]),
            TimeMode::Strict,
            &[PolicyKind::FirstFit, PolicyKind::AlignedFit],
            0,
        )
        .err()
        .expect("a clairvoyant kind is refused");
        assert!(matches!(err, LiveError::Clairvoyant { .. }), "{err}");
    }
}
