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
//! arrive/depart pairing (typed [`StreamError`]s), so a buggy source
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
//! The streamed path keeps O(active items + bins ever opened) state plus
//! a flat two-word-per-item ledger (receiving bin + trace chain slot) —
//! the ledger is also the run's *output* (`Packing::assignment`), so it
//! is the floor for any run that reports per-item placements. What the
//! streamed path never holds is the instance itself: no per-item
//! `DimVec`s, no departure times for items not yet active, no event
//! vector. The `dvbp-traces` memory test pins the streamed peak to a
//! small fraction of the materialized one.

use crate::engine::{Engine, Packing, TraceEvent, TraceMode};
use crate::item::{Instance, Item};
use crate::live::{live_ops, LiveError, LiveOp};
use crate::policy::Policy;
use crate::request::PackError;
use dvbp_dimvec::DimVec;
use dvbp_obs::Observer;
use dvbp_sim::{Cost, Time};
use std::collections::HashMap;

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
        for (idx, item) in instance.items.iter().enumerate() {
            if item.departure <= item.arrival {
                return Err(PackError::NonMonotoneTime { item: idx });
            }
        }
        instance.validate()?;
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

/// Streaming form of the Lemma 1(i) load-integral lower bound
/// (`dvbp_offline::lb_load`): folds events as they stream by, keeping
/// only the current per-dimension load and the sizes of active items —
/// O(active) memory against the offline sweep's O(n).
///
/// Feed it every event (e.g. through a [`Tap`] in front of the engine);
/// [`value`](Self::value) then equals `lb_load` of the materialized
/// instance exactly (the `dvbp-traces` property tests pin this).
pub struct StreamingLowerBound {
    capacity: DimVec,
    load: Vec<u64>,
    sizes: HashMap<usize, DimVec>,
    last: Time,
    total: Cost,
    started: bool,
}

impl StreamingLowerBound {
    /// An empty accumulator for bins of the given capacity.
    #[must_use]
    pub fn new(capacity: &DimVec) -> Self {
        StreamingLowerBound {
            capacity: capacity.clone(),
            load: vec![0; capacity.dim()],
            sizes: HashMap::new(),
            last: 0,
            total: 0,
            started: false,
        }
    }

    /// The minimum number of bins forced by the current load:
    /// `max_j ⌈load_j / cap_j⌉`.
    fn height(&self) -> Cost {
        (0..self.capacity.dim())
            .map(|j| Cost::from(self.load[j].div_ceil(self.capacity[j])))
            .max()
            .unwrap_or(0)
    }

    /// Folds one event into the integral. Events must be observed in
    /// stream order.
    pub fn observe(&mut self, op: &LiveOp) {
        let time = match op {
            LiveOp::Arrive { time, .. } | LiveOp::Depart { time, .. } => *time,
        };
        if self.started && time > self.last {
            self.total += self.height() * Cost::from(time - self.last);
        }
        match op {
            LiveOp::Arrive { item, size, .. } => {
                for (j, slot) in self.load.iter_mut().enumerate() {
                    *slot += size[j];
                }
                self.sizes.insert(*item, size.clone());
            }
            LiveOp::Depart { item, .. } => {
                if let Some(size) = self.sizes.remove(item) {
                    for (j, slot) in self.load.iter_mut().enumerate() {
                        *slot -= size[j];
                    }
                }
            }
        }
        self.last = time;
        self.started = true;
    }

    /// The accumulated lower bound (bin-ticks).
    #[must_use]
    pub fn value(&self) -> Cost {
        self.total
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
        self.reset_for(capacity.dim(), hint);

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

        // Sizes of currently active items — the only per-item state the
        // streamed path holds beyond the engine's flat ledger.
        let mut in_flight: HashMap<usize, Item> = HashMap::new();
        let mut items_seen = 0usize;
        let mut now: Time = 0;
        let mut last_time: Time = 0;
        let mut arrived_this_tick = false;

        while let Some(op) = source.next_event()? {
            match op {
                LiveOp::Arrive { item, size, time } => {
                    if time < now {
                        return Err(LiveError::OutOfOrder { time, now }.into());
                    }
                    if self.assignment_of(item).is_some() {
                        return Err(LiveError::DuplicateArrival { item }.into());
                    }
                    if size.dim() != capacity.dim() {
                        return Err(PackError::DimMismatch { item }.into());
                    }
                    if !size.fits_within(&capacity) {
                        return Err(PackError::OversizedItem { item }.into());
                    }
                    if size.is_zero() {
                        return Err(PackError::ZeroSizeItem { item }.into());
                    }
                    if time == Time::MAX {
                        // MAX is the live-departure placeholder; an item
                        // arriving there could never depart strictly later.
                        return Err(PackError::NonMonotoneTime { item }.into());
                    }
                    now = time;
                    last_time = time;
                    let entry = in_flight.entry(item).or_insert(Item {
                        size,
                        arrival: time,
                        departure: Time::MAX,
                        announced_duration: None,
                    });
                    items_seen += 1;
                    self.step_arrive(
                        &capacity,
                        time,
                        item,
                        entry,
                        policy,
                        observer,
                        full.then_some(&mut trace),
                    );
                    arrived_this_tick = true;
                }
                LiveOp::Depart { item, time } => {
                    if time < now {
                        return Err(LiveError::OutOfOrder { time, now }.into());
                    }
                    if time == now && arrived_this_tick {
                        return Err(LiveError::EqualTickOrder { time }.into());
                    }
                    if time > now {
                        arrived_this_tick = false;
                    }
                    let Some(mut entry) = in_flight.remove(&item) else {
                        return Err(if self.assignment_of(item).is_some() {
                            LiveError::AlreadyDeparted { item }.into()
                        } else {
                            LiveError::UnknownItem { item }.into()
                        });
                    };
                    if time <= entry.arrival {
                        return Err(PackError::NonMonotoneTime { item }.into());
                    }
                    entry.departure = time;
                    now = time;
                    last_time = time;
                    self.step_depart(
                        time,
                        item,
                        &entry,
                        policy,
                        observer,
                        full.then_some(&mut trace),
                    )
                    .expect("active item has an assignment");
                }
            }
        }
        if !in_flight.is_empty() {
            return Err(LiveError::StillActive {
                active: in_flight.len(),
            }
            .into());
        }
        observer.on_run_end(dvbp_obs::RunEnd {
            time: last_time,
            items: items_seen,
            bins: self.bins_opened(),
        });

        Ok(self.snapshot_packing(full, trace))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        ];
        for (ops, want) in cases {
            let got = run_raw(RawSource::new(&[10], ops)).unwrap_err();
            assert_eq!(got, want);
        }
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
