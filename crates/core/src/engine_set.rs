//! [`EngineSet`]: several policies packing one event stream behind one
//! feed.
//!
//! A portfolio compares candidate policies on the stream a live engine
//! accepted (`dvbp-portfolio`'s shadows), and a repack frontier compares
//! migration budgets on one workload (`dvbp-monitor`'s repack suite,
//! `bench_repack`). Each candidate needs bins of its own, but the
//! stream's rules and its active items are the same for every
//! candidate. An `EngineSet` holds those once: one feed (the clock, the
//! admission and retirement rules and the active items, as
//! [`Engine::run_source`](crate::Engine::run_source) and
//! [`LiveEngine`](crate::LiveEngine) hold them) and one Lemma 1(i) load
//! integral. Beside them it holds, per candidate — a [`PolicyKind`] and
//! a [`RepackPolicy`] — one bare, cost-only engine with its policy and
//! its repack planner, the one a `LiveEngine` steps through. A
//! [`RepackPolicy::NoRepack`] candidate keeps nothing per item, so per
//! active item the set keeps one record however many such candidates it
//! runs; a repacking candidate also keeps its residents' records.
//!
//! [`apply`](EngineSet::apply) takes a batch in two passes. The feed
//! resolves every operation once — admission or retirement, the
//! effective tick, the lower-bound fold — into a reused buffer; then
//! each engine steps through the whole resolved batch before the next
//! engine starts, which keeps one engine's bins and policy state warm
//! for the batch.

use crate::item::Item;
use crate::live::{LiveDriveStats, LiveError, LiveOp, TimeMode};
use crate::policy::PolicyKind;
use crate::repack::{RepackPolicy, Repacker};
use crate::source::{renumbered, EventSource, Feed, LoadIntegral, StreamError};
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

/// Cost-only engines of several (policy, repack) candidates over one
/// stream, behind one feed; see the module docs.
///
/// Every engine's usage time, migrations and migration cost are
/// bit-identical to a standalone cost-only
/// [`LiveEngine`](crate::LiveEngine) of its candidate fed the same
/// operations under the same [`TimeMode`].
pub struct EngineSet {
    capacity: DimVec,
    feed: Feed,
    lb: LoadIntegral,
    engines: Vec<Repacker>,
    /// The batch being applied; cleared, not freed, between batches.
    resolved: Vec<Resolved>,
}

impl EngineSet {
    /// One engine per entry of `candidates`, in that order, for bins of
    /// `capacity`: each places with its kind and repacks with its
    /// policy. `items_hint` pre-reserves each engine's item ledger (see
    /// [`LiveRequest::items_hint`](crate::LiveRequest::items_hint)).
    ///
    /// # Errors
    ///
    /// [`LiveError::Clairvoyant`] for a kind that reads announced
    /// durations.
    pub fn new(
        capacity: &DimVec,
        time_mode: TimeMode,
        candidates: &[(PolicyKind, RepackPolicy)],
        items_hint: usize,
    ) -> Result<Self, LiveError> {
        let engines = candidates
            .iter()
            .map(|(kind, repack)| Repacker::new(kind, *repack, capacity, items_hint))
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
        for packer in &mut self.engines {
            for step in &self.resolved {
                match step {
                    Resolved::Arrive(item, entry) => {
                        packer.arrive(&self.capacity, *item, entry, &mut NoopObserver, None);
                    }
                    Resolved::Depart(item, gone) => {
                        packer.depart(&self.capacity, *item, gone, &mut NoopObserver, None, || {});
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

    /// Applies every event of `source`, its items renumbered to the
    /// set's dense indices as [`LiveEngine::drive_source`] renumbers
    /// them.
    ///
    /// [`LiveEngine::drive_source`]: crate::LiveEngine::drive_source
    ///
    /// # Errors
    ///
    /// [`StreamError::Source`] when the source fails;
    /// [`StreamError::Feed`] with the [`LiveError`] of the first refused
    /// operation, the operations before it applied.
    pub fn drive_source<S: EventSource + ?Sized>(
        &mut self,
        source: &mut S,
    ) -> Result<LiveDriveStats, StreamError> {
        renumbered(source, self.items_seen(), |op| {
            self.apply(std::slice::from_ref(&op))
        })
    }

    /// Each engine's accumulated usage time at tick `at`, in candidate
    /// order.
    pub fn costs_at(&self, at: Time) -> impl Iterator<Item = Cost> + '_ {
        self.engines
            .iter()
            .map(move |packer| packer.engine.usage_time_at(at))
    }

    /// Each engine's items migrated and migration cost charged so far
    /// (as [`LiveEngine::migrations`] and
    /// [`LiveEngine::migration_cost`] count them), in candidate order.
    ///
    /// [`LiveEngine::migrations`]: crate::LiveEngine::migrations
    /// [`LiveEngine::migration_cost`]: crate::LiveEngine::migration_cost
    pub fn migrations(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.engines
            .iter()
            .map(|packer| (packer.migrations(), packer.migration_cost()))
    }

    /// The last effective tick of a drained stream, at which every
    /// engine's bins have closed and [`costs_at`](Self::costs_at) is
    /// final.
    ///
    /// # Errors
    ///
    /// [`LiveError::StillActive`] while items are active, as
    /// [`LiveEngine::into_packing`](crate::LiveEngine::into_packing)
    /// refuses an undrained run.
    pub fn end(&self) -> Result<Time, LiveError> {
        self.feed.end(0).map(|end| end.time)
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
    use crate::item::Instance;
    use crate::live::{live_ops, LiveEngine, LiveRequest};
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
        let candidates: Vec<_> = PolicyKind::paper_suite(5)
            .into_iter()
            .map(|kind| (kind, RepackPolicy::NoRepack))
            .collect();
        EngineSet::new(&DimVec::from_slice(&[10, 10]), mode, &candidates, 0).unwrap()
    }

    /// What a set shows of itself: costs at `at`, lower bound, count.
    fn state(set: &EngineSet, at: Time) -> (Vec<Cost>, Cost, usize) {
        (
            set.costs_at(at).collect(),
            set.lower_bound(),
            set.items_seen(),
        )
    }

    /// Conformance layer 10's repack suite: off, a per-departure drain
    /// and a budgeted defrag sweep.
    const SUITE: [RepackPolicy; 3] = [
        RepackPolicy::NoRepack,
        RepackPolicy::DrainOnDepart { k: 2 },
        RepackPolicy::BudgetedDefrag {
            budget: 8,
            period: 2,
        },
    ];

    /// A stream whose first five operations set the drain trap, then 80
    /// arrivals of sizes U{1..6}² in bins of 10², each staying U{1..8}
    /// ticks. Under First Fit, item 2 shares bin 0 with item 0 and fits
    /// bin 1, so `drain:2` moves it when item 0 departs at tick 3, and it
    /// departs itself at tick 4. Items are numbered in arrival order. In
    /// `Clamp` mode the tail is made dirty: ticks up to 2 behind the
    /// clock and zero-duration stays.
    fn stream(mode: TimeMode) -> Vec<LiveOp> {
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let mut items = vec![
            Item::new(DimVec::from_slice(&[8, 8]), 0, 3),
            Item::new(DimVec::from_slice(&[3, 3]), 1, 30),
            Item::new(DimVec::from_slice(&[2, 2]), 2, 4),
        ];
        let mut tick = 5;
        for _ in 0..80 {
            tick += next(2);
            let size = DimVec::from_slice(&[1 + next(6), 1 + next(6)]);
            items.push(Item::new(size, tick, tick + 1 + next(8)));
        }
        let instance = Instance::new(DimVec::from_slice(&[10, 10]), items).unwrap();
        let mut ops = live_ops(&instance);
        if mode == TimeMode::Clamp {
            for op in &mut ops[5..] {
                let (LiveOp::Arrive { time, .. } | LiveOp::Depart { time, .. }) = op;
                *time = time.saturating_sub(next(3));
            }
        }
        ops
    }

    /// Each engine's cost at `at`, migrations and migration cost.
    type Totals = Vec<(Cost, u64, u64)>;

    fn set_totals(set: &EngineSet, at: Time) -> Totals {
        set.costs_at(at)
            .zip(set.migrations())
            .map(|(cost, (moves, charged))| (cost, moves, charged))
            .collect()
    }

    fn live_totals(alone: &[LiveEngine], at: Time) -> Totals {
        alone
            .iter()
            .map(|live| {
                let totals = (live.migrations(), live.migration_cost());
                (live.usage_time_at(at), totals.0, totals.1)
            })
            .collect()
    }

    #[test]
    fn every_engine_equals_a_standalone_live_engine() {
        let cap = DimVec::from_slice(&[10, 10]);
        for mode in [TimeMode::Strict, TimeMode::Clamp] {
            let candidates: Vec<(PolicyKind, RepackPolicy)> = PolicyKind::paper_suite(5)
                .into_iter()
                .flat_map(|kind| SUITE.map(|repack| (kind.clone(), repack)))
                .collect();
            let mut set = EngineSet::new(&cap, mode, &candidates, 0).unwrap();
            let mut lb = StreamingLowerBound::new(&cap);
            let mut alone: Vec<LiveEngine> = candidates
                .iter()
                .map(|(kind, repack)| {
                    LiveRequest::new(kind.clone())
                        .capacity(cap.clone())
                        .trace_mode(TraceMode::CostOnly)
                        .time_mode(mode)
                        .repack(*repack)
                        .build()
                        .unwrap()
                })
                .collect();
            let ops = stream(mode);
            // Batches of 3, then the trap's two departures together,
            // then 1 to 6 operations at a time.
            let mut cuts = vec![0, 3, 5];
            while *cuts.last().unwrap() < ops.len() {
                let at = *cuts.last().unwrap();
                cuts.push((at + 1 + at % 6).min(ops.len()));
            }
            for batch in cuts.windows(2).map(|w| &ops[w[0]..w[1]]) {
                set.apply(batch).unwrap();
                let mut now = 0;
                for op in batch {
                    for live in &mut alone {
                        now = match op {
                            LiveOp::Arrive { size, time, .. } => {
                                live.arrive(size.clone(), *time).unwrap().time
                            }
                            LiveOp::Depart { item, time } => {
                                live.depart(*item, *time).unwrap().time
                            }
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
                assert_eq!(
                    set_totals(&set, now),
                    live_totals(&alone, now),
                    "{mode:?} after {batch:?}"
                );
                assert_eq!(set.lower_bound(), lb.value(), "{mode:?}");
            }
            // The trap fired, and each repacking policy moved something.
            let first_fit_drain = candidates
                .iter()
                .position(|c| *c == (PolicyKind::FirstFit, SUITE[1]))
                .unwrap();
            assert!(alone[first_fit_drain].migrations() > 0);
            for repack in &SUITE[1..] {
                let moved: u64 = candidates
                    .iter()
                    .zip(&alone)
                    .filter(|((_, r), _)| r == repack)
                    .map(|(_, live)| live.migrations())
                    .sum();
                assert!(moved > 0, "{mode:?}: {repack} never migrated");
            }
            let end = set.end().unwrap();
            let arrivals = ops.iter().filter(|op| matches!(op, LiveOp::Arrive { .. }));
            assert_eq!(set.items_seen(), arrivals.count());
            for (cost, live) in set.costs_at(end).zip(alone) {
                assert_eq!(cost, live.into_packing().unwrap().cost(), "{mode:?}");
            }
        }
    }

    #[test]
    fn an_undrained_set_has_no_end() {
        let mut fed = set(TimeMode::Strict);
        fed.apply(&[arrive(0, &[6, 2], 2), arrive(1, &[5, 5], 3)])
            .unwrap();
        assert_eq!(fed.end(), Err(LiveError::StillActive { active: 2 }));
        fed.apply(&[depart(0, 5), depart(1, 6)]).unwrap();
        assert_eq!(fed.end(), Ok(6));
    }

    #[test]
    fn drive_source_renumbers_as_a_live_engine_does() {
        let instance = Instance::new(
            DimVec::from_slice(&[10, 10]),
            vec![
                Item::new(DimVec::from_slice(&[6, 2]), 4, 9),
                Item::new(DimVec::from_slice(&[5, 5]), 1, 6),
                Item::new(DimVec::from_slice(&[3, 8]), 2, 4),
            ],
        )
        .unwrap();
        let candidates = [(PolicyKind::FirstFit, SUITE[1])];
        let cap = &instance.capacity;
        let mut fed = EngineSet::new(cap, TimeMode::Strict, &candidates, 3).unwrap();
        let stats = fed
            .drive_source(&mut crate::InstanceSource::new(&instance).unwrap())
            .unwrap();
        let mut live = LiveRequest::new(PolicyKind::FirstFit)
            .capacity(cap.clone())
            .trace_mode(TraceMode::CostOnly)
            .repack(SUITE[1])
            .build()
            .unwrap();
        let want = live
            .drive_source(&mut crate::InstanceSource::new(&instance).unwrap())
            .unwrap();
        assert_eq!(stats, want);
        let end = fed.end().unwrap();
        assert_eq!(end, live.now());
        assert_eq!(
            set_totals(&fed, end),
            live_totals(std::slice::from_ref(&live), end)
        );
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
            &[
                (PolicyKind::FirstFit, RepackPolicy::NoRepack),
                (PolicyKind::AlignedFit, RepackPolicy::NoRepack),
            ],
            0,
        )
        .err()
        .expect("a clairvoyant kind is refused");
        assert!(matches!(err, LiveError::Clairvoyant { .. }), "{err}");
    }
}
