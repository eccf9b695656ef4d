//! [`EventSource`]: streaming, constant-memory event feeds for the
//! packing engine.
//!
//! A batch [`Engine::run`] replays a fully materialized [`Instance`] —
//! every item, with its size and both endpoints, resident in memory
//! before the first placement. Real cluster traces (Azure VM packing,
//! Google cluster-usage) hold millions of items; materializing them is
//! both wasteful and unnecessary, because the online model only ever
//! needs the *next* event. An `EventSource` is exactly that: a pull
//! iterator of time-ordered [`LiveOp`]s (canonical order — departures
//! before arrivals at equal ticks) that the engine consumes one event at
//! a time via [`Engine::run_source`], never holding more than the
//! currently *active* items.
//!
//! # The contract
//!
//! A well-formed source yields events satisfying:
//!
//! 1. event times are non-decreasing, and within one tick all departures
//!    precede the first arrival (the paper's §2.1 equal-tick rule);
//! 2. every `Arrive` carries a fresh item index (indices need not be
//!    dense — the engine's per-item ledger is indexed by them, so dense
//!    indices cost the least memory);
//! 3. every arrived item departs strictly after it arrived, and departs
//!    exactly once, before the stream ends.
//!
//! [`Engine::run_source`] *enforces* the tick discipline and the
//! arrive/depart pairing (typed [`StreamError`]s) through the feed type
//! the [`LiveEngine`](crate::LiveEngine) also uses, so a buggy source
//! cannot silently corrupt a run. Within-tick index order (arrivals by
//! ascending item index) is the source's responsibility; every source in
//! `dvbp-traces` and [`InstanceSource`] below produce it.
//!
//! # Streamed ≡ materialized
//!
//! [`InstanceSource`] adapts a materialized `Instance` into its
//! canonical event stream with the *instance's own* item indices, so
//!
//! ```text
//! Engine::run(instance, ..)  ==  Engine::run_source(InstanceSource::new(instance), ..)
//! ```
//!
//! bit-for-bit — same [`Packing`], same trace, same observer event
//! stream. Conformance layer 9 holds every policy to that over the
//! whole corpus.
//!
//! # Memory
//!
//! Per item, both paths hold the item while it is active and the
//! engine's two-word ledger (receiving bin + trace chain slot) for every
//! item placed — the ledger is also the run's *output*
//! (`Packing::assignment`). Per bin, the engine's arenas are indexed by
//! every bin ever opened. The streamed path never holds the instance
//! itself: no sizes or departure times of items not yet active, no event
//! vector. The `dvbp-traces` memory test pins the streamed peak to a
//! small fraction of the materialized one.

use crate::engine::{Engine, Packing, TraceEvent, TraceMode};
use crate::item::{check_size, Instance, Item};
use crate::live::{live_ops, LiveDriveStats, LiveError, LiveOp, TimeMode};
use crate::policy::{Policy, PolicyKind};
use crate::request::PackError;
use dvbp_dimvec::{DimVec, WideSum};
use dvbp_obs::Observer;
use dvbp_sim::{Cost, Time};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Hashes a `usize` key with one multiply by 2⁶⁴/φ (Fibonacci hashing):
/// the std map's `SipHash` costs more than the rest of an engine event's
/// map work. Fit only for keys the engine or a trace parser assigns —
/// dense indices, never client input — in maps nothing iterates.
/// `hashbrown` takes its 7-bit tag from the top bits and the bucket from
/// the low ones; the product mixes the key into both (the identity would
/// leave every tag zero).
#[derive(Clone, Copy, Default)]
pub(crate) struct IndexHasher(u64);

impl Hasher for IndexHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("an IndexMap key is a usize, hashed by write_usize")
    }

    fn write_usize(&mut self, key: usize) {
        self.0 = (key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// A map keyed by engine- or parser-assigned item indices.
pub(crate) type IndexMap<V> = HashMap<usize, V, BuildHasherDefault<IndexHasher>>;

/// A failure producing the *next event* of a stream (I/O, a malformed
/// row, an unfixably dirty trace under the `Reject` policy).
///
/// Kept deliberately open-shaped — each trace format has its own
/// pathologies — with an optional 1-based source line for parser errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SourceError {
    /// 1-based line of the offending row, when the source is a file.
    pub line: Option<u64>,
    /// Human-readable description.
    pub message: String,
}

impl SourceError {
    /// An error with no source location (I/O, generator exhaustion…).
    #[must_use]
    pub fn new(message: impl Into<String>) -> Self {
        SourceError {
            line: None,
            message: message.into(),
        }
    }

    /// A parse error at 1-based `line`.
    #[must_use]
    pub fn at_line(line: u64, message: impl Into<String>) -> Self {
        SourceError {
            line: Some(line),
            message: message.into(),
        }
    }
}

impl std::fmt::Display for SourceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.line {
            Some(line) => write!(f, "line {line}: {}", self.message),
            None => write!(f, "{}", self.message),
        }
    }
}

impl std::error::Error for SourceError {}

/// A failed streamed run: either the source broke, or its feed violated
/// the event contract (surfaced with the same typed [`LiveError`]s the
/// [`LiveEngine`](crate::LiveEngine) uses).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StreamError {
    /// The source failed to produce its next event.
    Source(SourceError),
    /// The event feed violated the contract (out-of-order ticks,
    /// equal-tick departures after arrivals, unknown/duplicate items,
    /// invalid sizes, items still active at end of stream).
    Feed(LiveError),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Source(e) => write!(f, "source error: {e}"),
            StreamError::Feed(e) => write!(f, "bad event feed: {e}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<SourceError> for StreamError {
    fn from(e: SourceError) -> Self {
        StreamError::Source(e)
    }
}

impl From<LiveError> for StreamError {
    fn from(e: LiveError) -> Self {
        StreamError::Feed(e)
    }
}

impl From<PackError> for StreamError {
    fn from(e: PackError) -> Self {
        StreamError::Feed(LiveError::Pack(e))
    }
}

/// A pull stream of time-ordered packing events.
///
/// See the module docs above for the event contract. Sources are
/// one-shot: a consumed source is exhausted, and re-reading requires
/// constructing a fresh one (deterministic sources — everything in
/// `dvbp-traces` — then yield the identical stream).
pub trait EventSource {
    /// The bin capacity the streamed items are packed against.
    fn capacity(&self) -> &DimVec;

    /// The next event, `None` once the stream is exhausted.
    ///
    /// # Errors
    ///
    /// [`SourceError`] on I/O failures or malformed input.
    fn next_event(&mut self) -> Result<Option<LiveOp>, SourceError>;

    /// Expected number of distinct items, when the source knows it
    /// up front — used only to pre-size the engine's per-item ledger.
    fn items_hint(&self) -> Option<usize> {
        None
    }
}

impl<S: EventSource + ?Sized> EventSource for &mut S {
    fn capacity(&self) -> &DimVec {
        (**self).capacity()
    }

    fn next_event(&mut self) -> Result<Option<LiveOp>, SourceError> {
        (**self).next_event()
    }

    fn items_hint(&self) -> Option<usize> {
        (**self).items_hint()
    }
}

impl<S: EventSource + ?Sized> EventSource for Box<S> {
    fn capacity(&self) -> &DimVec {
        (**self).capacity()
    }

    fn next_event(&mut self) -> Result<Option<LiveOp>, SourceError> {
        (**self).next_event()
    }

    fn items_hint(&self) -> Option<usize> {
        (**self).items_hint()
    }
}

/// A materialized [`Instance`] as an [`EventSource`]: yields the batch
/// engine's exact canonical event order, with the instance's own item
/// indices — the bridge that makes every existing call site a special
/// case of the streaming path, and the witness for the streamed ≡
/// materialized conformance layer.
pub struct InstanceSource {
    capacity: DimVec,
    ops: std::vec::IntoIter<LiveOp>,
    total: usize,
}

impl InstanceSource {
    /// Builds the canonical event stream for `instance`, running the
    /// same validation as [`Engine::run`] so a malformed instance fails
    /// identically on both paths.
    ///
    /// # Errors
    ///
    /// The [`PackError`] the batch run would return.
    pub fn new(instance: &Instance) -> Result<Self, PackError> {
        instance.check_run()?;
        Ok(InstanceSource {
            capacity: instance.capacity.clone(),
            ops: live_ops(instance).into_iter(),
            total: instance.len(),
        })
    }
}

impl EventSource for InstanceSource {
    fn capacity(&self) -> &DimVec {
        &self.capacity
    }

    fn next_event(&mut self) -> Result<Option<LiveOp>, SourceError> {
        Ok(self.ops.next())
    }

    fn items_hint(&self) -> Option<usize> {
        Some(self.total)
    }
}

/// An [`EventSource`] adapter that calls a hook on every event passing
/// through — the zero-copy way to feed side computations (the
/// [`StreamingLowerBound`], counters, progress logs) off a stream the
/// engine is consuming.
pub struct Tap<S, F> {
    source: S,
    hook: F,
}

impl<S: EventSource, F: FnMut(&LiveOp)> Tap<S, F> {
    /// Wraps `source`, invoking `hook` on each yielded event.
    pub fn new(source: S, hook: F) -> Self {
        Tap { source, hook }
    }
}

impl<S: EventSource, F: FnMut(&LiveOp)> EventSource for Tap<S, F> {
    fn capacity(&self) -> &DimVec {
        self.source.capacity()
    }

    fn next_event(&mut self) -> Result<Option<LiveOp>, SourceError> {
        let ev = self.source.next_event()?;
        if let Some(op) = &ev {
            (self.hook)(op);
        }
        Ok(ev)
    }

    fn items_hint(&self) -> Option<usize> {
        self.source.items_hint()
    }
}

/// The Lemma 1(i) load integral, folded one event at a time: at every
/// tick, the bins the active load needs. Shared by
/// [`StreamingLowerBound`] and [`EngineSet`](crate::EngineSet).
///
/// The load sums many items' sizes, so it is a [`WideSum`]: every item
/// fits the capacity, but the items active at one tick need not fit a
/// `u64` together.
pub(crate) struct LoadIntegral {
    capacity: DimVec,
    load: WideSum,
    last: Time,
    total: Cost,
    started: bool,
}

impl LoadIntegral {
    pub(crate) fn new(capacity: &DimVec) -> Self {
        LoadIntegral {
            capacity: capacity.clone(),
            load: WideSum::zeros(capacity.dim()),
            last: 0,
            total: 0,
            started: false,
        }
    }

    /// Charges the load held since the previous event up to `time`.
    fn advance(&mut self, time: Time) {
        if self.started && time > self.last {
            self.total += self.load.bins_needed(&self.capacity) * Cost::from(time - self.last);
        }
        self.last = time;
        self.started = true;
    }

    /// Folds an arrival of `size` at `time`.
    pub(crate) fn arrive(&mut self, time: Time, size: &DimVec) {
        self.advance(time);
        self.load.add(size);
    }

    /// Folds a departure at `time`; `size` is `None` for an item the
    /// fold never saw arrive.
    pub(crate) fn depart(&mut self, time: Time, size: Option<&DimVec>) {
        self.advance(time);
        if let Some(size) = size {
            self.load.sub(size);
        }
    }

    pub(crate) fn value(&self) -> Cost {
        self.total
    }
}

/// Streaming form of the Lemma 1(i) load-integral lower bound
/// (`dvbp_offline::lb_load`): folds events as they stream by, keeping
/// only the current per-dimension load and the sizes of active items —
/// O(active) memory against the offline sweep's O(n). It keeps the
/// sizes because a [`LiveOp::Depart`] carries none; an
/// [`EngineSet`](crate::EngineSet) folds the same integral from the
/// sizes its feed already holds.
///
/// Feed it every event (e.g. through a [`Tap`] in front of the engine);
/// [`value`](Self::value) then equals `lb_load` of the materialized
/// instance exactly (the `dvbp-traces` property tests pin this).
pub struct StreamingLowerBound {
    fold: LoadIntegral,
    sizes: IndexMap<DimVec>,
}

impl StreamingLowerBound {
    /// An empty accumulator for bins of the given capacity.
    #[must_use]
    pub fn new(capacity: &DimVec) -> Self {
        StreamingLowerBound {
            fold: LoadIntegral::new(capacity),
            sizes: IndexMap::default(),
        }
    }

    /// Folds one event into the integral. Events must be observed in
    /// stream order.
    pub fn observe(&mut self, op: &LiveOp) {
        match op {
            LiveOp::Arrive { item, size, time } => {
                self.fold.arrive(*time, size);
                self.sizes.insert(*item, size.clone());
            }
            LiveOp::Depart { item, time } => {
                self.fold.depart(*time, self.sizes.remove(item).as_ref());
            }
        }
    }

    /// The accumulated lower bound (bin-ticks).
    #[must_use]
    pub fn value(&self) -> Cost {
        self.fold.value()
    }
}

/// Refuses a policy kind that reads announced durations: streamed and
/// live items have none.
pub(crate) fn check_streamable(kind: &PolicyKind) -> Result<(), LiveError> {
    match kind {
        PolicyKind::DurationClassFirstFit | PolicyKind::AlignedFit => Err(LiveError::Clairvoyant {
            policy: kind.name(),
        }),
        _ => Ok(()),
    }
}

/// A fresh engine and reset policy for a live or shadow run of `kind`
/// in bins of `capacity`, the engine's item ledger reserved for
/// `items_hint` items.
pub(crate) fn streamed_engine(
    kind: &PolicyKind,
    capacity: &DimVec,
    items_hint: usize,
) -> Result<(Engine, Box<dyn Policy>), LiveError> {
    check_streamable(kind)?;
    let mut policy = kind.build();
    policy.reset();
    let mut engine = Engine::new();
    engine.reset_for(capacity, 0);
    engine.reserve_items(items_hint);
    Ok((engine, policy))
}

/// Pulls `source` dry through `apply`, each event's item renumbered to
/// the dense index a live driver assigns: arrivals take `next`,
/// `next + 1`, … in order, and a departure names its item by that
/// index. The map holds only active items, so a source that re-uses the
/// index of a departed item gets a fresh item; re-use of an active index
/// is a [`LiveError::DuplicateArrival`].
pub(crate) fn renumbered<S: EventSource + ?Sized>(
    source: &mut S,
    mut next: usize,
    mut apply: impl FnMut(LiveOp) -> Result<(), LiveError>,
) -> Result<LiveDriveStats, StreamError> {
    // Source index → dense index; the source assigns the keys.
    let mut local = IndexMap::<usize>::default();
    let mut stats = LiveDriveStats::default();
    while let Some(op) = source.next_event()? {
        match op {
            LiveOp::Arrive { item, size, time } => {
                if local.contains_key(&item) {
                    return Err(LiveError::DuplicateArrival { item }.into());
                }
                apply(LiveOp::Arrive {
                    item: next,
                    size,
                    time,
                })?;
                local.insert(item, next);
                next += 1;
                stats.placed += 1;
            }
            LiveOp::Depart { item, time } => {
                let Some(item) = local.remove(&item) else {
                    return Err(LiveError::UnknownItem { item }.into());
                };
                apply(LiveOp::Depart { item, time })?;
                stats.departed += 1;
            }
        }
    }
    Ok(stats)
}

/// The event-feed contract, held once for [`Engine::run_source`], the
/// [`LiveEngine`](crate::LiveEngine) and the
/// [`EngineSet`](crate::EngineSet): the tick clock under a [`TimeMode`],
/// every admission and retirement rule, and the active items keyed by the
/// engine's item index. An item is held from its admission to its
/// retirement and no longer, so a drained feed holds nothing per item but
/// the admitted count.
///
/// Rules apply in one order — the item's identity, then the clock, then
/// the item itself — and all of them before any state changes, so a
/// refused event leaves the feed as it was.
#[derive(Default)]
pub(crate) struct Feed {
    mode: TimeMode,
    /// The latest effective tick.
    now: Time,
    /// Whether an arrival was admitted at tick `now`.
    arrived_this_tick: bool,
    /// Admitted, not yet retired items. A live item's departure is the
    /// `Time::MAX` placeholder, which non-clairvoyant policies never read.
    active: IndexMap<Item>,
    admitted: usize,
}

impl Feed {
    pub(crate) fn new(mode: TimeMode) -> Self {
        Feed {
            mode,
            ..Feed::default()
        }
    }

    /// `time` under the clock: `Strict` refuses a tick before `now`,
    /// `Clamp` raises it to `now`.
    fn tick(mode: TimeMode, now: Time, time: Time) -> Result<Time, LiveError> {
        match mode {
            TimeMode::Strict if time < now => Err(LiveError::OutOfOrder { time, now }),
            TimeMode::Strict => Ok(time),
            TimeMode::Clamp => Ok(time.max(now)),
        }
    }

    /// Admits `item` of `size` arriving at `time` and returns the
    /// effective tick with the stored item. `taken` says whether the
    /// index was given out before: a taken index is never admitted
    /// again.
    pub(crate) fn admit(
        &mut self,
        taken: bool,
        capacity: &DimVec,
        item: usize,
        size: DimVec,
        time: Time,
    ) -> Result<(Time, &Item), LiveError> {
        if taken {
            return Err(LiveError::DuplicateArrival { item });
        }
        let time = Self::tick(self.mode, self.now, time)?;
        check_size(&size, capacity, item)?;
        if time == Time::MAX {
            // MAX is the departure placeholder; an item arriving there
            // could never depart strictly later.
            return Err(PackError::NonMonotoneTime { item }.into());
        }
        self.arrived_this_tick = true;
        self.now = time;
        self.admitted += 1;
        let entry = self.active.entry(item).or_insert(Item {
            size,
            arrival: time,
            departure: Time::MAX,
            announced_duration: None,
        });
        Ok((time, entry))
    }

    /// Retires active `item` at `time` and returns it with its effective
    /// departure. `taken`, whether the index was given out, tells an
    /// inactive index that departed from one that never arrived. A
    /// departure at the clock's tick after an arrival there is refused
    /// under `Strict`; one not after its arrival is refused under
    /// `Strict` and given the minimum one-tick stay under `Clamp`.
    pub(crate) fn retire(
        &mut self,
        taken: bool,
        item: usize,
        time: Time,
    ) -> Result<Item, LiveError> {
        let Entry::Occupied(slot) = self.active.entry(item) else {
            return Err(if taken {
                LiveError::AlreadyDeparted { item }
            } else {
                LiveError::UnknownItem { item }
            });
        };
        let strict = self.mode == TimeMode::Strict;
        let time = Self::tick(self.mode, self.now, time)?;
        if strict && time == self.now && self.arrived_this_tick {
            return Err(LiveError::EqualTickOrder { time });
        }
        let arrival = slot.get().arrival;
        let time = if time > arrival {
            time
        } else if strict {
            return Err(PackError::NonMonotoneTime { item }.into());
        } else {
            // The clock already raised the tick to `now >= arrival`, so
            // this is a zero-duration stay. Arrivals at `Time::MAX` are
            // refused, so the `+ 1` cannot overflow.
            arrival + 1
        };
        let mut gone = slot.remove();
        gone.departure = time;
        self.arrived_this_tick &= time == self.now;
        self.now = time;
        Ok(gone)
    }

    /// The run-end record, or [`LiveError::StillActive`] while items are
    /// active.
    pub(crate) fn end(&self, bins: usize) -> Result<dvbp_obs::RunEnd, LiveError> {
        match self.active.len() {
            0 => Ok(dvbp_obs::RunEnd {
                time: self.now,
                items: self.admitted,
                bins,
            }),
            active => Err(LiveError::StillActive { active }),
        }
    }

    pub(crate) fn mode(&self) -> TimeMode {
        self.mode
    }

    pub(crate) fn now(&self) -> Time {
        self.now
    }

    pub(crate) fn admitted(&self) -> usize {
        self.admitted
    }

    pub(crate) fn active_count(&self) -> usize {
        self.active.len()
    }

    pub(crate) fn is_active(&self, item: usize) -> bool {
        self.active.contains_key(&item)
    }
}

impl Engine {
    /// Runs `policy` over a streamed event feed, never materializing an
    /// instance: the streamed twin of [`Engine::run`]. An
    /// [`InstanceSource`] feed reproduces the batch run bit-for-bit;
    /// any other well-formed source gets the same engine, the same
    /// policies, and the same observability.
    ///
    /// The feed's tick discipline is enforced (strict canonical order,
    /// as [`TimeMode::Strict`](crate::TimeMode) does for live feeds);
    /// sources wanting clamping semantics apply them source-side, where
    /// the dirt is (see `dvbp-traces`' dirty-trace policies).
    ///
    /// The policy must not be clairvoyant: streamed items carry no
    /// announced durations (the [`PackRequest`](crate::PackRequest)
    /// entry points reject clairvoyant kinds up front).
    ///
    /// # Errors
    ///
    /// [`StreamError::Source`] when the source fails;
    /// [`StreamError::Feed`] when the feed violates the event contract.
    ///
    /// # Panics
    ///
    /// Panics if the policy names a bin that is closed or cannot hold
    /// the item — a policy implementation bug, not an input error.
    pub fn run_source<S: EventSource + ?Sized, O: Observer>(
        &mut self,
        source: &mut S,
        policy: &mut dyn Policy,
        mode: TraceMode,
        observer: &mut O,
    ) -> Result<Packing, StreamError> {
        policy.reset();
        let capacity = source.capacity().clone();
        let hint = source.items_hint().unwrap_or(0);
        self.reset_for(&capacity, hint);

        let full = mode == TraceMode::Full;
        let mut trace: Vec<TraceEvent> = if full {
            Vec::with_capacity(hint * 2)
        } else {
            Vec::new()
        };
        observer.on_run_start(dvbp_obs::RunStart {
            capacity: capacity.as_slice(),
            items: hint,
        });

        let mut feed = Feed::new(TimeMode::Strict);
        while let Some(op) = source.next_event()? {
            match op {
                LiveOp::Arrive { item, size, time } => {
                    let taken = self.assignment_of(item).is_some();
                    let (time, entry) = feed.admit(taken, &capacity, item, size, time)?;
                    self.step_arrive(
                        &capacity,
                        time,
                        item,
                        entry,
                        policy,
                        observer,
                        full.then_some(&mut trace),
                    );
                }
                LiveOp::Depart { item, time } => {
                    let gone = feed.retire(self.assignment_of(item).is_some(), item, time)?;
                    self.step_depart(
                        gone.departure,
                        item,
                        &gone,
                        policy,
                        observer,
                        full.then_some(&mut trace),
                    )
                    .expect("an active item has an assignment");
                }
            }
        }
        observer.on_run_end(feed.end(self.bins_opened())?);
        Ok(self.snapshot_packing(full, trace))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::live::LiveEngine;
    use crate::policy::PolicyKind;
    use crate::request::PackRequest;
    use dvbp_obs::NoopObserver;

    fn item(size: &[u64], a: Time, e: Time) -> Item {
        Item::new(DimVec::from_slice(size), a, e)
    }

    fn sample() -> Instance {
        Instance::new(
            DimVec::from_slice(&[10, 10]),
            vec![
                item(&[7, 2], 0, 10),
                item(&[2, 7], 2, 5),
                item(&[3, 3], 4, 6),
                item(&[9, 9], 5, 12),
                item(&[1, 1], 5, 7),
                item(&[5, 5], 10, 14),
            ],
        )
        .unwrap()
    }

    #[test]
    fn instance_source_reproduces_batch_bit_for_bit() {
        let instance = sample();
        for kind in [
            PolicyKind::FirstFit,
            PolicyKind::MoveToFront,
            PolicyKind::NextFit,
            PolicyKind::LastFit,
            PolicyKind::BestFit(crate::LoadMeasure::Linf),
            PolicyKind::WorstFit(crate::LoadMeasure::Linf),
            PolicyKind::RandomFit { seed: 11 },
        ] {
            let batch = PackRequest::new(kind.clone()).run(&instance).unwrap();
            let mut source = InstanceSource::new(&instance).unwrap();
            let streamed = PackRequest::new(kind.clone())
                .run_source(&mut source)
                .unwrap();
            assert_eq!(streamed, batch, "{}", kind.name());
        }
    }

    #[test]
    fn cost_only_streamed_matches_batch() {
        let instance = sample();
        let batch = PackRequest::new(PolicyKind::MoveToFront)
            .trace_mode(TraceMode::CostOnly)
            .run(&instance)
            .unwrap();
        let mut source = InstanceSource::new(&instance).unwrap();
        let streamed = PackRequest::new(PolicyKind::MoveToFront)
            .trace_mode(TraceMode::CostOnly)
            .run_source(&mut source)
            .unwrap();
        assert_eq!(streamed, batch);
        assert!(streamed.trace.is_empty());
    }

    #[test]
    fn instance_source_validates_like_the_batch_run() {
        // Oversized item: both paths return the same typed error.
        let bad = Instance {
            capacity: DimVec::from_slice(&[10]),
            items: vec![Item {
                size: DimVec::from_slice(&[11]),
                arrival: 0,
                departure: 5,
                announced_duration: None,
            }],
        };
        let batch = PackRequest::new(PolicyKind::FirstFit)
            .run(&bad)
            .unwrap_err();
        let streamed = InstanceSource::new(&bad)
            .err()
            .expect("malformed instance must be rejected");
        assert_eq!(batch, streamed);
    }

    /// A hand-rolled source for contract-violation tests.
    struct RawSource {
        capacity: DimVec,
        ops: std::vec::IntoIter<LiveOp>,
    }

    impl RawSource {
        fn new(cap: &[u64], ops: Vec<LiveOp>) -> Self {
            RawSource {
                capacity: DimVec::from_slice(cap),
                ops: ops.into_iter(),
            }
        }
    }

    impl EventSource for RawSource {
        fn capacity(&self) -> &DimVec {
            &self.capacity
        }

        fn next_event(&mut self) -> Result<Option<LiveOp>, SourceError> {
            Ok(self.ops.next())
        }
    }

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

    fn run_raw(source: RawSource) -> Result<Packing, StreamError> {
        let mut source = source;
        PackRequest::new(PolicyKind::FirstFit).run_source(&mut source)
    }

    #[test]
    fn feed_violations_get_typed_errors() {
        let cases: Vec<(Vec<LiveOp>, StreamError)> = vec![
            (
                vec![arrive(0, &[5], 4), arrive(1, &[5], 2)],
                LiveError::OutOfOrder { time: 2, now: 4 }.into(),
            ),
            (
                vec![arrive(0, &[5], 4), depart(0, 4)],
                LiveError::EqualTickOrder { time: 4 }.into(),
            ),
            (
                vec![arrive(0, &[5], 0), arrive(0, &[5], 1)],
                LiveError::DuplicateArrival { item: 0 }.into(),
            ),
            (
                vec![depart(3, 1)],
                LiveError::UnknownItem { item: 3 }.into(),
            ),
            (
                vec![arrive(0, &[5], 0), depart(0, 2), depart(0, 3)],
                LiveError::AlreadyDeparted { item: 0 }.into(),
            ),
            (
                vec![arrive(0, &[5], 0)],
                LiveError::StillActive { active: 1 }.into(),
            ),
            (
                vec![arrive(0, &[11], 0)],
                PackError::OversizedItem { item: 0 }.into(),
            ),
            // Combined violations: the item's identity is checked before
            // the clock.
            (
                vec![arrive(0, &[5], 4), depart(3, 4)],
                LiveError::UnknownItem { item: 3 }.into(),
            ),
            (
                vec![arrive(0, &[5], 4), arrive(0, &[5], 2)],
                LiveError::DuplicateArrival { item: 0 }.into(),
            ),
        ];
        for (ops, want) in cases {
            let got = run_raw(RawSource::new(&[10], ops.clone())).unwrap_err();
            assert_eq!(got, want);

            // A strict live engine fed through `drive_source` applies the
            // same contract, apart from two differences by design.
            let mut live = LiveEngine::new(
                DimVec::from_slice(&[10]),
                &PolicyKind::FirstFit,
                TraceMode::Full,
                TimeMode::Strict,
            )
            .unwrap();
            let driven = live.drive_source(&mut RawSource::new(&[10], ops));
            match want {
                // `drive_source` forgets a source index once it departs,
                // so a second departure under it is unknown...
                StreamError::Feed(LiveError::AlreadyDeparted { item }) => {
                    assert_eq!(driven.unwrap_err(), LiveError::UnknownItem { item }.into());
                }
                // ...and a live engine may stop with items active: the
                // drained check is `into_packing`'s, not the drive's.
                StreamError::Feed(LiveError::StillActive { active }) => {
                    driven.unwrap();
                    assert_eq!(
                        live.into_packing().unwrap_err(),
                        LiveError::StillActive { active }
                    );
                }
                want => assert_eq!(driven.unwrap_err(), want),
            }
        }

        // A later arrival under a departed source index is a fresh live
        // item, where the stream path refuses any index it has placed.
        let reuse = || {
            RawSource::new(
                &[10],
                vec![
                    arrive(0, &[5], 0),
                    depart(0, 2),
                    arrive(0, &[5], 3),
                    depart(0, 4),
                ],
            )
        };
        assert_eq!(
            run_raw(reuse()).unwrap_err(),
            LiveError::DuplicateArrival { item: 0 }.into()
        );
        let mut live = LiveEngine::new(
            DimVec::from_slice(&[10]),
            &PolicyKind::FirstFit,
            TraceMode::Full,
            TimeMode::Strict,
        )
        .unwrap();
        let stats = live.drive_source(&mut reuse()).unwrap();
        assert_eq!((stats.placed, stats.departed), (2, 2));
    }

    #[test]
    fn sparse_item_indices_are_allowed() {
        // Indices need not be dense; the ledger grows to the max index.
        let p = run_raw(RawSource::new(
            &[10],
            vec![
                arrive(4, &[5], 0),
                arrive(9, &[5], 1),
                depart(4, 3),
                depart(9, 5),
            ],
        ))
        .unwrap();
        assert_eq!(p.num_bins(), 1);
        assert_eq!(p.cost(), 5);
    }

    #[test]
    fn clairvoyant_kinds_are_rejected_for_streams() {
        for kind in [PolicyKind::DurationClassFirstFit, PolicyKind::AlignedFit] {
            let mut source = InstanceSource::new(&sample()).unwrap();
            let err = PackRequest::new(kind).run_source(&mut source).unwrap_err();
            assert!(
                matches!(err, StreamError::Feed(LiveError::Clairvoyant { .. })),
                "{err}"
            );
        }
    }

    #[test]
    fn tap_sees_every_event_and_changes_nothing() {
        let instance = sample();
        let mut seen = 0usize;
        let mut tapped = Tap::new(InstanceSource::new(&instance).unwrap(), |_op: &LiveOp| {
            seen += 1;
        });
        let streamed = PackRequest::new(PolicyKind::FirstFit)
            .run_source(&mut tapped)
            .unwrap();
        drop(tapped);
        assert_eq!(seen, instance.len() * 2);
        let batch = PackRequest::new(PolicyKind::FirstFit)
            .run(&instance)
            .unwrap();
        assert_eq!(streamed, batch);
    }

    #[test]
    fn streaming_lower_bound_matches_height_sum_by_hand() {
        // Two unit-height plateaus: [0,4) one bin forced, [4,6) two.
        let cap = DimVec::from_slice(&[10]);
        let mut lb = StreamingLowerBound::new(&cap);
        for op in [
            arrive(0, &[7], 0),
            arrive(1, &[7], 4),
            depart(0, 6),
            depart(1, 6),
        ] {
            lb.observe(&op);
        }
        assert_eq!(lb.value(), 4 + 2 * 2);
    }

    #[test]
    fn streaming_lower_bound_sums_past_u64() {
        // Two concurrent items whose sizes sum to 2^64 under a capacity
        // of 2^64 − 1: two bins for two ticks (Lemma 1(i)).
        let cap = DimVec::from_slice(&[u64::MAX]);
        let mut lb = StreamingLowerBound::new(&cap);
        for op in [
            arrive(0, &[u64::MAX], 0),
            arrive(1, &[1], 0),
            depart(0, 2),
            depart(1, 2),
        ] {
            lb.observe(&op);
        }
        assert_eq!(lb.value(), 4);
    }

    #[test]
    fn engine_reuse_across_batch_and_stream_is_clean() {
        let instance = sample();
        let mut engine = Engine::new();
        let mut policy = crate::policy::first_fit::FirstFit::new();
        let batch = engine.pack(&instance, &mut policy, TraceMode::Full);
        let mut source = InstanceSource::new(&instance).unwrap();
        let streamed = engine
            .run_source(&mut source, &mut policy, TraceMode::Full, &mut NoopObserver)
            .unwrap();
        assert_eq!(streamed, batch);
        let again = engine.pack(&instance, &mut policy, TraceMode::Full);
        assert_eq!(again, batch);
    }
}
