//! [`LiveEngine`]: open-ended, one-event-at-a-time driving of the
//! packing engine — the in-memory core of a dispatch *service*.
//!
//! The batch [`Engine`](crate::Engine) replays a complete
//! [`Instance`] whose departures are known up front. A serving process
//! cannot do that: items arrive and depart over the wire, the future is
//! unknown, and the run never "finishes". `LiveEngine` wraps the same
//! engine step functions ([`Engine::step_arrive`] /
//! [`Engine::step_depart`](crate::engine::Engine::step_depart)) behind
//! an incremental API, so a live run that receives the batch timeline's
//! events in timeline order produces **bit-identical** state — the
//! conformance harness's layer 8 holds it to that.
//!
//! # Time discipline
//!
//! The paper's equal-tick rule (§2.1) — at one tick, all departures are
//! processed before any arrival — is a property of the *feed*, not of
//! the engine. In [`TimeMode::Strict`] the live engine enforces it:
//! timestamps must be non-decreasing, and a departure at the current
//! tick is rejected once an arrival has been processed at that tick.
//! [`TimeMode::Clamp`] instead clamps early timestamps up to the
//! current tick (`t ← max(t, now)`), accepts equal-tick departures
//! after arrivals, and gives zero-duration items (arrive and depart at
//! one timestamp — common in dirty wall-clock feeds) the minimum
//! one-tick stay by clamping the departure to `arrival + 1` — useful
//! for feeds that cannot promise canonical order, at the price of
//! batch reachability. These are the stream path's rules, applied by the
//! feed type [`Engine::run_source`] uses, so per item a live engine holds
//! what that path holds: the item while active, and a two-word ledger.
//!
//! # Clairvoyance
//!
//! Live items have unknown departure times, so the clairvoyant policy
//! kinds (`DurationClassFirstFit`, `AlignedFit`) are rejected at
//! construction ([`LiveError::Clairvoyant`]). All non-clairvoyant
//! policies honor the documented contract of never reading
//! `Item::departure`; internally a live item carries `Time::MAX` as a
//! placeholder until its departure is announced.
//!
//! # Construction and repacking
//!
//! [`LiveRequest`] is the construction path — capacity, trace and time
//! modes, an owned [`Observer`], and a [`RepackPolicy`]. With repacking
//! attached, a departure may additionally *migrate* bounded numbers of
//! still-active items to drain nearly-empty bins (see
//! [`crate::repack`]); the executed moves come back in
//! [`LiveDeparture::migrations`] and as
//! [`Migrate`](dvbp_obs::ObsEvent) observer events.
//! [`RepackPolicy::NoRepack`] (the default) keeps the engine exactly on
//! the paper's irrevocable model.

use crate::bin::BinId;
use crate::engine::{Engine, Packing, TraceEvent, TraceMode};
use crate::item::Instance;
use crate::policy::{Policy, PolicyKind};
use crate::repack::RepackPolicy;
use crate::request::PackError;
use crate::source::{check_streamable, streamed_engine, Feed};
use dvbp_dimvec::DimVec;
use dvbp_obs::{NoopObserver, Observer};
use dvbp_sim::timeline::{Event, OnlineTimeline};
use dvbp_sim::{Cost, Time};

/// How a [`LiveEngine`] treats request timestamps.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TimeMode {
    /// Reject anything the batch timeline could not produce: ticks must
    /// be non-decreasing ([`LiveError::OutOfOrder`]) and, within one
    /// tick, all departures must precede the first arrival
    /// ([`LiveError::EqualTickOrder`]). Keeps the live run on the batch
    /// engine's reachable-state manifold — required for conformance
    /// and recovery equivalence.
    #[default]
    Strict,
    /// Clamp early timestamps up to the current tick (`t ← max(t,
    /// now)`) instead of rejecting, and accept equal-tick departures
    /// after arrivals. A departure clamped onto its item's arrival tick
    /// (a zero-duration item) is clamped one tick further, to
    /// `arrival + 1` — the minimum one-tick stay, matching what the
    /// batch engine would charge for the clamped feed. The effective
    /// (clamped) time is journaled and returned, so recovery still
    /// replays deterministically.
    Clamp,
}

impl std::str::FromStr for TimeMode {
    type Err = String;

    /// Parses `strict` or `clamp` (CLI spelling).
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "strict" => Ok(TimeMode::Strict),
            "clamp" => Ok(TimeMode::Clamp),
            _ => Err(format!(
                "unknown time mode {s:?} (expected strict or clamp)"
            )),
        }
    }
}

/// A rejected live operation. The engine state is unchanged by any
/// rejected call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LiveError {
    /// The arrival failed the same validation an [`Instance`] gets
    /// (dimension mismatch, oversized, zero size, or an unusable
    /// timestamp).
    Pack(PackError),
    /// The policy kind needs announced durations, which a live feed
    /// does not have.
    Clairvoyant {
        /// Display name of the rejected policy.
        policy: String,
    },
    /// Strict mode: the timestamp precedes the engine's current tick.
    OutOfOrder {
        /// The rejected timestamp.
        time: Time,
        /// The engine's current tick.
        now: Time,
    },
    /// Strict mode: a departure at the current tick after an arrival
    /// was already processed at that tick (the paper orders equal-tick
    /// departures first).
    EqualTickOrder {
        /// The rejected timestamp.
        time: Time,
    },
    /// Departure for an item index that never arrived.
    UnknownItem {
        /// The unknown index.
        item: usize,
    },
    /// A streamed feed re-used an item index that is already placed.
    /// Live feeds assign their own dense indices, so this only arises
    /// on the [`EventSource`](crate::EventSource) paths
    /// ([`Engine::run_source`](crate::Engine::run_source) /
    /// [`LiveEngine::drive_source`]), whose items carry caller-chosen
    /// indices.
    DuplicateArrival {
        /// The repeated index.
        item: usize,
    },
    /// Departure for an item that already departed.
    AlreadyDeparted {
        /// The repeated index.
        item: usize,
    },
    /// [`LiveEngine::into_packing`] with items still active.
    StillActive {
        /// Number of items not yet departed.
        active: usize,
    },
    /// [`LiveRequest::build`] without a [`capacity`](LiveRequest::capacity).
    NoCapacity,
}

impl std::fmt::Display for LiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LiveError::Pack(e) => write!(f, "{e}"),
            LiveError::Clairvoyant { policy } => {
                write!(
                    f,
                    "policy {policy} is clairvoyant; live items have unknown departures"
                )
            }
            LiveError::OutOfOrder { time, now } => {
                write!(f, "timestamp {time} precedes current tick {now}")
            }
            LiveError::EqualTickOrder { time } => write!(
                f,
                "departure at tick {time} after an arrival at the same tick \
                 (departures precede arrivals within a tick)"
            ),
            LiveError::UnknownItem { item } => write!(f, "item {item} never arrived"),
            LiveError::DuplicateArrival { item } => {
                write!(f, "item {item} already arrived")
            }
            LiveError::AlreadyDeparted { item } => write!(f, "item {item} already departed"),
            LiveError::StillActive { active } => {
                write!(f, "{active} item(s) still active")
            }
            LiveError::NoCapacity => {
                write!(
                    f,
                    "live engine needs a bin capacity (LiveRequest::capacity)"
                )
            }
        }
    }
}

impl std::error::Error for LiveError {}

impl From<PackError> for LiveError {
    fn from(e: PackError) -> Self {
        LiveError::Pack(e)
    }
}

/// Outcome of an accepted [`LiveEngine::arrive`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LivePlacement {
    /// Dense run-local index assigned to the item (arrival order).
    pub item: usize,
    /// The receiving bin.
    pub bin: BinId,
    /// Whether the bin was opened for this item.
    pub opened_new: bool,
    /// The effective tick (equals the request's in strict mode; may be
    /// clamped up in [`TimeMode::Clamp`]).
    pub time: Time,
}

/// Outcome of an accepted [`LiveEngine::depart`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LiveDeparture {
    /// The departing item's run-local index.
    pub item: usize,
    /// The bin it departed from.
    pub bin: BinId,
    /// Whether that departure emptied (and permanently closed) the bin.
    pub closed: bool,
    /// The effective tick.
    pub time: Time,
    /// Migrations the attached [`RepackPolicy`] executed in response, in
    /// execution order. Always empty under [`RepackPolicy::NoRepack`].
    pub migrations: Vec<LiveMigration>,
}

/// One executed repacking move (see [`RepackPolicy`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LiveMigration {
    /// The moved item's run-local index.
    pub item: usize,
    /// The bin it was drained out of.
    pub from: BinId,
    /// The bin it landed in.
    pub to: BinId,
    /// Whether this move emptied (and permanently closed) `from`.
    pub closed_from: bool,
    /// The move's charge under the policy's cost model: `1` for
    /// [`RepackPolicy::DrainOnDepart`], the item's L1 size (saturating
    /// at `u64::MAX`) for [`RepackPolicy::BudgetedDefrag`].
    pub cost: u64,
}

/// Builder for a [`LiveEngine`] — the single construction path,
/// mirroring [`PackRequest`](crate::PackRequest) for batch runs.
///
/// ```
/// use dvbp_core::{LiveRequest, PolicyKind, RepackPolicy, TimeMode};
/// use dvbp_dimvec::DimVec;
///
/// let mut live = LiveRequest::new(PolicyKind::FirstFit)
///     .capacity(DimVec::from_slice(&[100, 100]))
///     .time_mode(TimeMode::Strict)
///     .repack(RepackPolicy::DrainOnDepart { k: 2 })
///     .build()
///     .unwrap();
/// let placed = live.arrive(DimVec::from_slice(&[60, 20]), 0).unwrap();
/// let gone = live.depart(placed.item, 5).unwrap();
/// assert!(gone.closed);
/// ```
///
/// Unlike `PackRequest`, the observer is **owned** (a live run has no
/// enclosing scope to borrow from); get it back with
/// [`LiveEngine::observer`] / [`LiveEngine::into_parts`].
pub struct LiveRequest<O: Observer = NoopObserver> {
    kind: PolicyKind,
    capacity: Option<DimVec>,
    trace: TraceMode,
    time_mode: TimeMode,
    repack: RepackPolicy,
    observer: O,
    items_hint: usize,
}

impl LiveRequest<NoopObserver> {
    /// Starts a request for a live engine driven by policy `kind`.
    #[must_use]
    pub fn new(kind: PolicyKind) -> Self {
        LiveRequest {
            kind,
            capacity: None,
            trace: TraceMode::Full,
            time_mode: TimeMode::Strict,
            repack: RepackPolicy::NoRepack,
            observer: NoopObserver,
            items_hint: 0,
        }
    }
}

impl<O: Observer> LiveRequest<O> {
    /// Sets the bin capacity vector (required).
    #[must_use]
    pub fn capacity(mut self, capacity: DimVec) -> Self {
        self.capacity = Some(capacity);
        self
    }

    /// Selects trace recording (default [`TraceMode::Full`]).
    #[must_use]
    pub fn trace_mode(mut self, trace: TraceMode) -> Self {
        self.trace = trace;
        self
    }

    /// Selects the timestamp discipline (default [`TimeMode::Strict`]).
    #[must_use]
    pub fn time_mode(mut self, time_mode: TimeMode) -> Self {
        self.time_mode = time_mode;
        self
    }

    /// Attaches a repacking policy (default [`RepackPolicy::NoRepack`],
    /// which reproduces the irrevocable engine bit for bit).
    #[must_use]
    pub fn repack(mut self, repack: RepackPolicy) -> Self {
        self.repack = repack;
        self
    }

    /// Pre-reserves the engine's per-item ledger (receiving bin and
    /// chain slot) for an expected stream length. Purely an
    /// optimization: with a hint covering the run, the ledger never
    /// reallocates in steady state — the portfolio crate's
    /// counting-allocator test drives engines sized this way to prove
    /// shadows add zero steady-state allocations. The active items are
    /// sized by what is active, not by the hint.
    #[must_use]
    pub fn items_hint(mut self, items: usize) -> Self {
        self.items_hint = items;
        self
    }

    /// Attaches an observer, replacing the previous one. The engine
    /// owns it; every arrival, departure, migration, and bin event is
    /// forwarded to it.
    #[must_use]
    pub fn observer<P: Observer>(self, observer: P) -> LiveRequest<P> {
        LiveRequest {
            kind: self.kind,
            capacity: self.capacity,
            trace: self.trace,
            time_mode: self.time_mode,
            repack: self.repack,
            observer,
            items_hint: self.items_hint,
        }
    }

    /// Builds the live engine and fires the observer's run-start hook
    /// (`items: 0` — a live run's length is unknown).
    ///
    /// # Errors
    ///
    /// [`LiveError::NoCapacity`] without a capacity;
    /// [`LiveError::Clairvoyant`] for policy kinds that read announced
    /// durations.
    pub fn build(self) -> Result<LiveEngine<O>, LiveError> {
        let Some(capacity) = self.capacity else {
            return Err(LiveError::NoCapacity);
        };
        let (engine, policy) = streamed_engine(&self.kind, &capacity, self.items_hint)?;
        let mut observer = self.observer;
        observer.on_run_start(dvbp_obs::RunStart {
            capacity: capacity.as_slice(),
            items: 0,
        });
        Ok(LiveEngine {
            engine,
            policy,
            kind: self.kind,
            capacity,
            repack: self.repack,
            observer,
            full: self.trace == TraceMode::Full,
            feed: Feed::new(self.time_mode),
            trace: Vec::new(),
            active_by_bin: Vec::new(),
            migrations: 0,
            migration_cost: 0,
            closes_since_sweep: 0,
            policy_switches: 0,
        })
    }
}

/// An incremental driver over the packing engine: accepts arrivals and
/// departures one at a time, maintains the exact state a batch run over
/// the same event sequence would hold, and can snapshot that state as a
/// [`Packing`] once drained.
///
/// Construct one with [`LiveRequest`]; with a [`RepackPolicy`] attached,
/// departures may additionally migrate items (see
/// [`LiveDeparture::migrations`]).
pub struct LiveEngine<O: Observer = NoopObserver> {
    engine: Engine,
    policy: Box<dyn Policy>,
    kind: PolicyKind,
    capacity: DimVec,
    repack: RepackPolicy,
    observer: O,
    /// Whether the per-bin item chains / trace are recorded
    /// ([`TraceMode::Full`]).
    full: bool,
    /// The clock, the admission and retirement rules, and the active
    /// items — the per-item state `Engine::run_source` also holds.
    feed: Feed,
    trace: Vec<TraceEvent>,
    /// Active item indices per bin — the repack planner's drain lists.
    /// Maintained only when `repack.is_enabled()` (empty otherwise).
    active_by_bin: Vec<Vec<usize>>,
    migrations: u64,
    migration_cost: u64,
    /// Natural bin closes since the last defrag sweep.
    closes_since_sweep: u32,
    /// Accepted [`switch_policy`](LiveEngine::switch_policy) calls.
    policy_switches: u64,
}

impl LiveEngine {
    /// Creates a live engine for `capacity` under `kind` — a shim over
    /// [`LiveRequest`], which is the construction path with the full
    /// option surface ([`RepackPolicy`], owned observers).
    ///
    /// # Errors
    ///
    /// [`LiveError::Clairvoyant`] for policy kinds that read announced
    /// durations.
    pub fn new(
        capacity: DimVec,
        kind: &PolicyKind,
        trace: TraceMode,
        time_mode: TimeMode,
    ) -> Result<Self, LiveError> {
        LiveRequest::new(kind.clone())
            .capacity(capacity)
            .trace_mode(trace)
            .time_mode(time_mode)
            .build()
    }
}

impl<O: Observer> LiveEngine<O> {
    /// Admits an item of the given size at `time` and returns its
    /// placement. The item gets the next dense run-local index.
    ///
    /// # Errors
    ///
    /// [`LiveError::Pack`] for an invalid size or unusable timestamp;
    /// [`LiveError::OutOfOrder`] in strict mode for a timestamp before
    /// the current tick. The engine state is unchanged on error.
    pub fn arrive(&mut self, size: DimVec, time: Time) -> Result<LivePlacement, LiveError> {
        let item = self.feed.admitted();
        let taken = self.engine.assignment_of(item).is_some();
        let (time, entry) = self.feed.admit(taken, &self.capacity, item, size, time)?;
        let (bin, opened_new) = self.engine.step_arrive(
            &self.capacity,
            time,
            item,
            entry,
            self.policy.as_mut(),
            &mut self.observer,
            self.full.then_some(&mut self.trace),
        );
        if self.repack.is_enabled() {
            if bin.0 >= self.active_by_bin.len() {
                self.active_by_bin.resize_with(bin.0 + 1, Vec::new);
            }
            self.active_by_bin[bin.0].push(item);
        }
        Ok(LivePlacement {
            item,
            bin,
            opened_new,
            time,
        })
    }

    /// Retires the item with run-local index `item` at `time`.
    ///
    /// # Errors
    ///
    /// [`LiveError::UnknownItem`] / [`LiveError::AlreadyDeparted`] for
    /// bad indices; [`LiveError::OutOfOrder`] /
    /// [`LiveError::EqualTickOrder`] for strict-mode time violations;
    /// in strict mode, [`LiveError::Pack`]
    /// ([`PackError::NonMonotoneTime`]) when the tick is not strictly
    /// after the item's arrival (every item occupies at least one
    /// tick). In [`TimeMode::Clamp`] a departure landing on the item's
    /// arrival tick — the zero-duration items real wall-clock feeds
    /// produce — is clamped one tick further, to `arrival + 1`: the
    /// item gets the minimum one-tick stay, so its cost contribution
    /// and any bin-close it triggers match the batch engine packing the
    /// clamped image of the feed (the returned effective tick journals
    /// the clamp, keeping recovery replays deterministic). The engine
    /// state is unchanged on error.
    pub fn depart(&mut self, item: usize, time: Time) -> Result<LiveDeparture, LiveError> {
        self.depart_with_mark(item, time, || {})
    }

    /// [`depart`](LiveEngine::depart) with an observation seam: `mark`
    /// runs after the engine's departure step (and its bookkeeping) and
    /// immediately before the repack policy, letting a latency tracer
    /// charge engine dispatch and repack migrations to separate stages.
    /// `mark` must not touch the engine; it sees no state and runs
    /// exactly once iff the departure succeeds.
    ///
    /// # Errors
    ///
    /// Exactly as [`depart`](LiveEngine::depart).
    pub fn depart_with_mark(
        &mut self,
        item: usize,
        time: Time,
        mark: impl FnOnce(),
    ) -> Result<LiveDeparture, LiveError> {
        let taken = self.engine.assignment_of(item).is_some();
        let gone = self.feed.retire(taken, item, time)?;
        let time = gone.departure;
        let step = self
            .engine
            .step_depart(
                time,
                item,
                &gone,
                self.policy.as_mut(),
                &mut self.observer,
                self.full.then_some(&mut self.trace),
            )
            .expect("an active item has an assignment");
        if self.repack.is_enabled() {
            self.active_by_bin[step.bin.0].retain(|&i| i != item);
        }
        mark();
        let migrations = self.run_repack(step.bin, step.closed, time);
        Ok(LiveDeparture {
            item,
            bin: step.bin,
            closed: step.closed,
            time,
            migrations,
        })
    }

    /// Runs the attached [`RepackPolicy`] after the departure of an item
    /// from `dep_bin` (which `closed` it or not) at tick `time`, and
    /// returns the executed moves in order.
    fn run_repack(&mut self, dep_bin: BinId, closed: bool, time: Time) -> Vec<LiveMigration> {
        let mut migrations = Vec::new();
        match self.repack {
            RepackPolicy::NoRepack => {}
            RepackPolicy::DrainOnDepart { k } => {
                if !closed && k > 0 {
                    let remaining = self.engine.bin_active(dep_bin.0);
                    if remaining > 0 && remaining <= k {
                        if let Some(plan) = self.plan_drain(dep_bin) {
                            self.execute_drain(time, &plan, true, &mut migrations);
                        }
                    }
                }
            }
            RepackPolicy::BudgetedDefrag { budget, period } => {
                if closed && budget > 0 {
                    self.closes_since_sweep += 1;
                    if self.closes_since_sweep >= period.max(1) {
                        self.closes_since_sweep = 0;
                        self.defrag_sweep(time, budget, &mut migrations);
                    }
                }
            }
        }
        self.migrations += migrations.len() as u64;
        self.migration_cost = migrations
            .iter()
            .fold(self.migration_cost, |total, m| total.saturating_add(m.cost));
        migrations
    }

    /// Plans a full drain of `src`: each resident item, in ascending
    /// index order, goes to the first other open bin (ascending id) that
    /// fits it given the residuals left by the earlier planned moves.
    /// All-or-nothing: `None` if any resident has no feasible
    /// destination.
    fn plan_drain(&self, src: BinId) -> Option<Vec<(usize, BinId)>> {
        let d = self.capacity.dim();
        let mut residents: Vec<usize> = self.active_by_bin[src.0].clone();
        residents.sort_unstable();
        // Planned additional load per destination, keyed by bin id.
        let mut extra: Vec<(usize, Vec<u64>)> = Vec::new();
        let mut plan = Vec::with_capacity(residents.len());
        for &it in &residents {
            let size = &self.feed.item(it).size;
            let mut dest = None;
            for &b in self.engine.open_bins() {
                if b == src {
                    continue;
                }
                let load = self.engine.bin_load(b.0);
                let planned = extra.iter().find(|(id, _)| *id == b.0).map(|(_, e)| e);
                let fits = (0..d).all(|j| {
                    let used = load[j] + planned.map_or(0, |e| e[j]);
                    size[j] <= self.capacity[j] - used
                });
                if fits {
                    dest = Some(b);
                    break;
                }
            }
            let b = dest?;
            match extra.iter_mut().find(|(id, _)| *id == b.0) {
                Some((_, e)) => {
                    for j in 0..d {
                        e[j] += size[j];
                    }
                }
                None => extra.push((b.0, size.as_slice().to_vec())),
            }
            plan.push((it, b));
        }
        Some(plan)
    }

    /// Executes a drain plan through [`Engine::step_migrate`], charging
    /// each move `1` (`unit_cost`) or its item's L1 size.
    fn execute_drain(
        &mut self,
        time: Time,
        plan: &[(usize, BinId)],
        unit_cost: bool,
        out: &mut Vec<LiveMigration>,
    ) {
        for &(item, to) in plan {
            let step = self.engine.step_migrate(
                &self.capacity,
                time,
                item,
                self.feed.item(item),
                to,
                self.policy.as_mut(),
                &mut self.observer,
                self.full.then_some(&mut self.trace),
            );
            self.active_by_bin[step.from.0].retain(|&i| i != item);
            if to.0 >= self.active_by_bin.len() {
                self.active_by_bin.resize_with(to.0 + 1, Vec::new);
            }
            self.active_by_bin[to.0].push(item);
            let cost = if unit_cost {
                1
            } else {
                l1_units(&self.feed.item(item).size)
            };
            out.push(LiveMigration {
                item,
                from: step.from,
                to,
                closed_from: step.closed_from,
                cost,
            });
        }
    }

    /// One defragmentation sweep: repeatedly drain the open bin with the
    /// fewest active items (ties to the lowest id) whose full drain is
    /// feasible and affordable within the remaining per-sweep L1-size
    /// `budget`.
    fn defrag_sweep(&mut self, time: Time, budget: u64, out: &mut Vec<LiveMigration>) {
        let mut remaining = budget;
        loop {
            let mut candidates: Vec<BinId> = self.engine.open_bins().to_vec();
            candidates.sort_by_key(|b| (self.engine.bin_active(b.0), b.0));
            let mut executed = false;
            for src in candidates {
                // Summed across items (and dimensions) in u128: only a
                // drain that fits the u64 budget runs.
                let drain_cost: u128 = self.active_by_bin[src.0]
                    .iter()
                    .flat_map(|&i| self.feed.item(i).size.iter())
                    .map(u128::from)
                    .sum();
                let Ok(drain_cost) = u64::try_from(drain_cost) else {
                    continue;
                };
                if drain_cost > remaining {
                    continue;
                }
                let Some(plan) = self.plan_drain(src) else {
                    continue;
                };
                if plan.is_empty() {
                    continue;
                }
                self.execute_drain(time, &plan, false, out);
                remaining -= drain_cost;
                executed = true;
                break;
            }
            if !executed {
                break;
            }
        }
    }

    /// Swaps the live policy for a fresh instance of `kind` mid-run.
    ///
    /// The incoming policy adopts the current open-bin set through
    /// [`Policy::on_adopt`] — a deterministic function of the open bins,
    /// so replaying the same event/switch sequence (e.g. from a WAL)
    /// reproduces every subsequent decision bit-for-bit. No placed item
    /// moves: only future arrivals see the new policy.
    ///
    /// Callers decide *when*; the portfolio meta-policy layer only
    /// switches at bin-close boundaries so the open set handed to
    /// `on_adopt` is exactly what a fresh run of the incoming policy
    /// could itself be facing. The switch is forwarded to the observer
    /// ([`Observer::on_policy_switch`]) with round-trippable
    /// [`PolicyKind::spec`] spellings.
    ///
    /// # Errors
    ///
    /// [`LiveError::Clairvoyant`] for policy kinds that read announced
    /// durations; the engine state is unchanged.
    pub fn switch_policy(&mut self, kind: PolicyKind) -> Result<(), LiveError> {
        check_streamable(&kind)?;
        let mut policy = kind.build();
        policy.on_adopt(self.engine.open_bins());
        let from = self.kind.spec();
        self.observer
            .on_policy_switch(self.feed.now(), &from, &kind.spec());
        self.policy = policy;
        self.kind = kind;
        self.policy_switches += 1;
        Ok(())
    }

    /// Accepted [`switch_policy`](LiveEngine::switch_policy) calls so far.
    #[must_use]
    pub fn policy_switches(&self) -> u64 {
        self.policy_switches
    }

    /// Bin capacity vector.
    #[must_use]
    pub fn capacity(&self) -> &DimVec {
        &self.capacity
    }

    /// The policy kind driving placement.
    #[must_use]
    pub fn kind(&self) -> &PolicyKind {
        &self.kind
    }

    /// The timestamp discipline this engine was built with.
    #[must_use]
    pub fn time_mode(&self) -> TimeMode {
        self.feed.mode()
    }

    /// The attached repacking policy.
    #[must_use]
    pub fn repack_policy(&self) -> RepackPolicy {
        self.repack
    }

    /// Items migrated by the repacking policy over the run so far.
    #[must_use]
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Total migration cost charged over the run so far (unit per move
    /// for [`RepackPolicy::DrainOnDepart`], L1 item size for
    /// [`RepackPolicy::BudgetedDefrag`]), saturating at `u64::MAX`.
    #[must_use]
    pub fn migration_cost(&self) -> u64 {
        self.migration_cost
    }

    /// The owned observer.
    #[must_use]
    pub fn observer(&self) -> &O {
        &self.observer
    }

    /// The owned observer, mutably.
    pub fn observer_mut(&mut self) -> &mut O {
        &mut self.observer
    }

    /// The engine's current tick (the latest effective timestamp).
    #[must_use]
    pub fn now(&self) -> Time {
        self.feed.now()
    }

    /// Items ever admitted (the next arrival's run-local index).
    #[must_use]
    pub fn items_seen(&self) -> usize {
        self.feed.admitted()
    }

    /// Items admitted and not yet departed.
    #[must_use]
    pub fn active_items(&self) -> usize {
        self.feed.active_count()
    }

    /// Currently open bins.
    #[must_use]
    pub fn open_bins(&self) -> usize {
        self.engine.open_bins().len()
    }

    /// Bins ever opened.
    #[must_use]
    pub fn bins_opened(&self) -> usize {
        self.engine.bins_opened()
    }

    /// Sum of all open bins' loads over all dimensions — the
    /// least-loaded router's shard weight.
    #[must_use]
    pub fn load_l1(&self) -> u128 {
        self.engine
            .open_bins()
            .iter()
            .map(|b| {
                self.engine
                    .bin_load(b.0)
                    .iter()
                    .map(|&v| u128::from(v))
                    .sum::<u128>()
            })
            .sum()
    }

    /// The bin holding `item`, if it has arrived (still set after
    /// departure).
    #[must_use]
    pub fn item_bin(&self, item: usize) -> Option<BinId> {
        self.engine.assignment_of(item)
    }

    /// Whether `item` has departed: admitted and no longer active.
    #[must_use]
    pub fn has_departed(&self, item: usize) -> bool {
        item < self.feed.admitted() && !self.feed.is_active(item)
    }

    /// Accumulated usage time at tick `at` (eq. 1, evaluated mid-run):
    /// closed bins contribute their full usage period (kept as a running
    /// total), open bins the span from opening to `max(at, opened)`, so
    /// the cost is O(open bins), not O(bins ever opened).
    #[must_use]
    pub fn usage_time_at(&self, at: Time) -> Cost {
        self.engine.usage_time_at(at)
    }

    /// Feeds every event of `source` through the live engine, mapping
    /// the source's item indices to this engine's dense run-local ones
    /// (the map holds only *active* items, so a constant-memory source
    /// drives a constant-memory live run).
    ///
    /// Because departed entries are dropped from the map, a source that
    /// re-uses the index of an already-departed item is admitted as a
    /// fresh item rather than rejected — live engines assign their own
    /// identities. Re-use of a still-active index is rejected.
    ///
    /// # Errors
    ///
    /// [`crate::StreamError::Source`] when the source fails;
    /// [`crate::StreamError::Feed`] when an operation is rejected (the
    /// [`LiveError`] of the failing [`arrive`](Self::arrive) /
    /// [`depart`](Self::depart), state unchanged by the rejected call).
    pub fn drive_source<S: crate::EventSource + ?Sized>(
        &mut self,
        source: &mut S,
    ) -> Result<LiveDriveStats, crate::StreamError> {
        // Source index → engine index; the source assigns the keys.
        let mut local = crate::source::IndexMap::<usize>::default();
        let mut stats = LiveDriveStats::default();
        while let Some(op) = source.next_event().map_err(crate::StreamError::Source)? {
            match op {
                LiveOp::Arrive { item, size, time } => {
                    if local.contains_key(&item) {
                        return Err(LiveError::DuplicateArrival { item }.into());
                    }
                    let placed = self.arrive(size, time).map_err(crate::StreamError::Feed)?;
                    local.insert(item, placed.item);
                    stats.placed += 1;
                }
                LiveOp::Depart { item, time } => {
                    let Some(idx) = local.remove(&item) else {
                        return Err(LiveError::UnknownItem { item }.into());
                    };
                    self.depart(idx, time)?;
                    stats.departed += 1;
                }
            }
        }
        Ok(stats)
    }

    /// Snapshot of the run as a [`Packing`], consuming the engine.
    /// Requires a drained run (every admitted item departed), since a
    /// packing's bins all have closed usage periods.
    ///
    /// # Errors
    ///
    /// [`LiveError::StillActive`] if items remain.
    pub fn into_packing(self) -> Result<Packing, LiveError> {
        self.into_parts().map(|(packing, _)| packing)
    }

    /// Like [`into_packing`](Self::into_packing), but also returns the
    /// owned observer after firing its run-end hook — the way to get a
    /// [`Recorder`](dvbp_obs::Recorder)'s complete event stream back.
    ///
    /// # Errors
    ///
    /// [`LiveError::StillActive`] if items remain.
    pub fn into_parts(mut self) -> Result<(Packing, O), LiveError> {
        let end = self.feed.end(self.engine.bins_opened())?;
        self.observer.on_run_end(end);
        Ok((
            self.engine.snapshot_packing(self.full, self.trace),
            self.observer,
        ))
    }
}

/// Outcome counts of one [`LiveEngine::drive_source`] pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LiveDriveStats {
    /// Arrivals admitted and placed.
    pub placed: u64,
    /// Departures applied.
    pub departed: u64,
}

/// One replayable live operation. `item` indices refer to positions in
/// the originating [`Instance`]; a [`LiveEngine`] fed these operations
/// assigns its own dense indices in arrival order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LiveOp {
    /// Arrival of instance item `item`.
    Arrive {
        /// Instance item index.
        item: usize,
        /// The item's size vector.
        size: DimVec,
        /// Arrival tick.
        time: Time,
    },
    /// Departure of instance item `item`.
    Depart {
        /// Instance item index.
        item: usize,
        /// Departure tick.
        time: Time,
    },
}

/// The batch engine's exact event order for `instance`, as a list of
/// live operations: departures before arrivals at equal ticks, arrivals
/// tie-broken by item index. Feeding these to a [`LiveEngine`] in order
/// (strict mode) reproduces the batch run bit-for-bit — the canonical
/// feed of the serve conformance layer and the recovery fuzzer.
#[must_use]
pub fn live_ops(instance: &Instance) -> Vec<LiveOp> {
    OnlineTimeline::build(&instance.intervals())
        .events()
        .iter()
        .map(|ev| match *ev {
            Event::Arrival { time, item } => LiveOp::Arrive {
                item,
                size: instance.items[item].size.clone(),
                time,
            },
            Event::Departure { time, item } => LiveOp::Depart { item, time },
        })
        .collect()
}

/// An item's L1 size in resource units — the defrag migration cost —
/// saturating at `u64::MAX`: each component fits the capacity, but
/// their sum need not fit a `u64`.
fn l1_units(size: &DimVec) -> u64 {
    size.iter().fold(0, u64::saturating_add)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::Item;
    use crate::request::PackRequest;
    use std::collections::HashMap;

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

    /// Drives `instance` through a live engine in timeline order and
    /// returns the live packing with its assignment/bins/trace mapped
    /// back to instance item indices.
    fn live_run(instance: &Instance, kind: &PolicyKind) -> Packing {
        let mut live = LiveEngine::new(
            instance.capacity.clone(),
            kind,
            TraceMode::Full,
            TimeMode::Strict,
        )
        .unwrap();
        // orig item index -> live index
        let mut local = HashMap::new();
        for op in live_ops(instance) {
            match op {
                LiveOp::Arrive { item, size, time } => {
                    let placed = live.arrive(size, time).unwrap();
                    local.insert(item, placed.item);
                }
                LiveOp::Depart { item, time } => {
                    live.depart(local[&item], time).unwrap();
                }
            }
        }
        assert_eq!(live.active_items(), 0);
        assert_eq!(live.open_bins(), 0);
        let packing = live.into_packing().unwrap();
        // Map live indices back to instance indices.
        let mut back = vec![usize::MAX; local.len()];
        for (&orig, &idx) in &local {
            back[idx] = orig;
        }
        let mut assignment = vec![BinId(usize::MAX); packing.assignment.len()];
        for (idx, &bin) in packing.assignment.iter().enumerate() {
            assignment[back[idx]] = bin;
        }
        let bins = packing
            .bins
            .iter()
            .map(|b| crate::bin::BinUsage {
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

    #[test]
    fn timeline_feed_is_bit_identical_to_batch_for_every_live_kind() {
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
            let live = live_run(&instance, &kind);
            assert_eq!(live, batch, "{}", kind.name());
        }
    }

    #[test]
    fn clairvoyant_kinds_are_rejected() {
        for kind in [PolicyKind::DurationClassFirstFit, PolicyKind::AlignedFit] {
            let err = LiveEngine::new(
                DimVec::from_slice(&[10]),
                &kind,
                TraceMode::Full,
                TimeMode::Strict,
            )
            .err()
            .expect("clairvoyant kinds must be rejected");
            assert!(matches!(err, LiveError::Clairvoyant { .. }), "{err}");
        }
    }

    #[test]
    fn invalid_arrivals_are_rejected_without_state_change() {
        let mut live = LiveEngine::new(
            DimVec::from_slice(&[10, 10]),
            &PolicyKind::FirstFit,
            TraceMode::Full,
            TimeMode::Strict,
        )
        .unwrap();
        let cases = [
            (DimVec::from_slice(&[5]), 0, "dim mismatch"),
            (DimVec::from_slice(&[11, 1]), 0, "oversized"),
            (DimVec::from_slice(&[0, 0]), 0, "zero size"),
            (DimVec::from_slice(&[1, 1]), Time::MAX, "time at MAX"),
        ];
        for (size, t, what) in cases {
            assert!(
                matches!(live.arrive(size, t), Err(LiveError::Pack(_))),
                "{what}"
            );
        }
        assert_eq!(live.items_seen(), 0);
        assert_eq!(live.bins_opened(), 0);
    }

    #[test]
    fn strict_mode_enforces_order_and_equal_tick_rule() {
        let mut live = LiveEngine::new(
            DimVec::from_slice(&[10]),
            &PolicyKind::FirstFit,
            TraceMode::Full,
            TimeMode::Strict,
        )
        .unwrap();
        live.arrive(DimVec::from_slice(&[5]), 5).unwrap();
        // Time moves backwards: rejected.
        assert!(matches!(
            live.arrive(DimVec::from_slice(&[1]), 4),
            Err(LiveError::OutOfOrder { time: 4, now: 5 })
        ));
        live.arrive(DimVec::from_slice(&[2]), 7).unwrap();
        // A departure at tick 7 after tick-7 arrivals violates the
        // equal-tick rule...
        assert!(matches!(
            live.depart(0, 7),
            Err(LiveError::EqualTickOrder { time: 7 })
        ));
        // ...but a later tick is fine, and frees capacity.
        let dep = live.depart(0, 8).unwrap();
        assert_eq!(dep.bin, BinId(0));
        assert!(!dep.closed);
        // Unknown / duplicate departures.
        assert!(matches!(
            live.depart(9, 9),
            Err(LiveError::UnknownItem { item: 9 })
        ));
        assert!(matches!(
            live.depart(0, 9),
            Err(LiveError::AlreadyDeparted { item: 0 })
        ));
        // Departing the last item closes the bin.
        let dep = live.depart(1, 9).unwrap();
        assert!(dep.closed);
        assert_eq!(live.open_bins(), 0);
        assert_eq!(live.usage_time_at(live.now()), 4);
    }

    #[test]
    fn strict_mode_rejects_zero_duration_departs() {
        // A zero-duration item (depart on its arrival tick) stays an
        // error in strict mode — the batch timeline cannot produce it.
        let mut live = LiveEngine::new(
            DimVec::from_slice(&[10]),
            &PolicyKind::FirstFit,
            TraceMode::Full,
            TimeMode::Strict,
        )
        .unwrap();
        live.arrive(DimVec::from_slice(&[5]), 3).unwrap();
        assert!(matches!(
            live.depart(0, 3),
            Err(LiveError::EqualTickOrder { time: 3 })
        ));
        live.depart(0, 4).unwrap();
    }

    #[test]
    fn clamp_mode_pulls_early_timestamps_forward() {
        let mut live = LiveEngine::new(
            DimVec::from_slice(&[10]),
            &PolicyKind::FirstFit,
            TraceMode::Full,
            TimeMode::Clamp,
        )
        .unwrap();
        live.arrive(DimVec::from_slice(&[5]), 10).unwrap();
        // t=4 is behind the clock: clamped to 10, not rejected.
        let placed = live.arrive(DimVec::from_slice(&[2]), 4).unwrap();
        assert_eq!(placed.time, 10);
        live.arrive(DimVec::from_slice(&[1]), 12).unwrap();
        // An early departure clamps forward to the current tick.
        let dep = live.depart(0, 2).unwrap();
        assert_eq!(dep.time, 12);
    }

    #[test]
    fn clamp_mode_gives_zero_duration_items_a_one_tick_stay() {
        // The dirty-feed shape real traces produce: an item arrives and
        // departs at the same wall-clock tick. Clamp mode charges the
        // minimum one-tick stay instead of rejecting.
        let mut live = LiveEngine::new(
            DimVec::from_slice(&[10]),
            &PolicyKind::FirstFit,
            TraceMode::Full,
            TimeMode::Clamp,
        )
        .unwrap();
        live.arrive(DimVec::from_slice(&[5]), 3).unwrap();
        let dep = live.depart(0, 3).unwrap();
        assert_eq!(dep.time, 4, "zero-duration stay clamps to arrival + 1");
        assert!(dep.closed, "the one-tick stay still closes the bin");
        let clamped = live.into_packing().unwrap();

        // Cost accounting and bin-close events match the batch engine
        // packing the clamped image of the feed ([3, 4)).
        let image = Instance::new(DimVec::from_slice(&[10]), vec![item(&[5], 3, 4)]).unwrap();
        let batch = PackRequest::new(PolicyKind::FirstFit).run(&image).unwrap();
        assert_eq!(clamped, batch);
        assert_eq!(clamped.cost(), 1);
    }

    #[test]
    fn clamp_mode_zero_duration_departure_behind_the_clock() {
        // A departure both behind the clock *and* at/before its item's
        // arrival first clamps to `now`, then (still on the arrival
        // tick) to `arrival + 1`.
        let mut live = LiveEngine::new(
            DimVec::from_slice(&[10]),
            &PolicyKind::FirstFit,
            TraceMode::Full,
            TimeMode::Clamp,
        )
        .unwrap();
        live.arrive(DimVec::from_slice(&[5]), 7).unwrap();
        let dep = live.depart(0, 2).unwrap();
        assert_eq!(dep.time, 8);
        assert_eq!(live.now(), 8);
        assert_eq!(live.usage_time_at(live.now()), 1);
    }

    #[test]
    fn drive_source_replays_an_instance_stream() {
        let instance = sample();
        let mut live = LiveEngine::new(
            instance.capacity.clone(),
            &PolicyKind::FirstFit,
            TraceMode::Full,
            TimeMode::Strict,
        )
        .unwrap();
        let mut source = crate::InstanceSource::new(&instance).unwrap();
        let stats = live.drive_source(&mut source).unwrap();
        assert_eq!(stats.placed, instance.len() as u64);
        assert_eq!(stats.departed, instance.len() as u64);
        // `sample()` is arrival-sorted, so the live engine's dense
        // arrival-order indices coincide with the instance's and the
        // packings compare directly.
        let batch = PackRequest::new(PolicyKind::FirstFit)
            .run(&instance)
            .unwrap();
        assert_eq!(live.into_packing().unwrap(), batch);
    }

    #[test]
    fn usage_time_tracks_open_and_closed_bins() {
        let mut live = LiveEngine::new(
            DimVec::from_slice(&[4]),
            &PolicyKind::FirstFit,
            TraceMode::CostOnly,
            TimeMode::Strict,
        )
        .unwrap();
        live.arrive(DimVec::from_slice(&[3]), 0).unwrap();
        live.arrive(DimVec::from_slice(&[3]), 2).unwrap(); // second bin
        assert_eq!(live.open_bins(), 2);
        assert_eq!(live.load_l1(), 6);
        // At t=5: bin0 open since 0 (5 ticks), bin1 open since 2 (3).
        assert_eq!(live.usage_time_at(5), 5 + 3);
        live.depart(0, 5).unwrap();
        assert_eq!(live.usage_time_at(5), 5 + 3);
        live.depart(1, 6).unwrap();
        assert_eq!(live.usage_time_at(8), 5 + 4);
        let packing = live.into_packing().unwrap();
        assert_eq!(packing.cost(), 9);
    }

    /// The running closed-bin total against the whole history: a
    /// `drain:1` repack closes bins through migrations, `TimeMode::Clamp`
    /// pulls late timestamps forward, and after every operation
    /// `usage_time_at` must equal the sum over every bin ever opened,
    /// for an `at` before, at and after the clock.
    #[test]
    fn usage_time_matches_the_full_history_sum() {
        let mut live = LiveRequest::new(PolicyKind::BestFit(crate::LoadMeasure::Linf))
            .capacity(DimVec::from_slice(&[10, 10]))
            .time_mode(TimeMode::Clamp)
            .repack(RepackPolicy::DrainOnDepart { k: 1 })
            .build()
            .unwrap();
        // Per bin ever opened: opening tick and, once closed, closing tick.
        let mut bins: Vec<(Time, Option<Time>)> = Vec::new();
        let full_history = |bins: &[(Time, Option<Time>)], at: Time| -> Cost {
            bins.iter()
                .map(|&(opened, closed)| Cost::from(closed.unwrap_or(at.max(opened)) - opened))
                .sum()
        };
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let mut active: Vec<usize> = Vec::new();
        let mut migrations = 0;
        for step in 0..600u64 {
            // Timestamps wander up to 3 ticks behind the clock.
            let time = (step / 2).saturating_sub(next(4));
            if active.is_empty() || next(5) < 3 {
                let size = DimVec::from_slice(&[1 + next(6), 1 + next(6)]);
                let placed = live.arrive(size, time).unwrap();
                if placed.opened_new {
                    assert_eq!(placed.bin.0, bins.len());
                    bins.push((placed.time, None));
                }
                active.push(placed.item);
            } else {
                let item = active.swap_remove(next(active.len() as u64) as usize);
                let dep = live.depart(item, time).unwrap();
                if dep.closed {
                    bins[dep.bin.0].1 = Some(dep.time);
                }
                for m in &dep.migrations {
                    if m.closed_from {
                        bins[m.from.0].1 = Some(dep.time);
                    }
                }
                migrations += dep.migrations.len();
            }
            let now = live.now();
            for at in [0, now / 2, now, now + 7] {
                assert_eq!(
                    live.usage_time_at(at),
                    full_history(&bins, at),
                    "step {step} at {at}"
                );
            }
        }
        assert!(migrations > 0, "the drive never drained a bin");
        assert!(bins.iter().filter(|b| b.1.is_some()).count() > 10);
    }

    #[test]
    fn into_packing_requires_a_drained_run() {
        let mut live = LiveEngine::new(
            DimVec::from_slice(&[10]),
            &PolicyKind::FirstFit,
            TraceMode::Full,
            TimeMode::Strict,
        )
        .unwrap();
        live.arrive(DimVec::from_slice(&[5]), 0).unwrap();
        assert!(matches!(
            live.into_packing(),
            Err(LiveError::StillActive { active: 1 })
        ));
    }

    #[test]
    fn live_request_requires_capacity() {
        assert!(matches!(
            LiveRequest::new(PolicyKind::FirstFit).build(),
            Err(LiveError::NoCapacity)
        ));
    }

    #[test]
    fn live_request_builds_the_same_engine_as_the_shim() {
        let instance = sample();
        let mut a = LiveEngine::new(
            instance.capacity.clone(),
            &PolicyKind::FirstFit,
            TraceMode::Full,
            TimeMode::Strict,
        )
        .unwrap();
        let mut b = LiveRequest::new(PolicyKind::FirstFit)
            .capacity(instance.capacity.clone())
            .build()
            .unwrap();
        for op in live_ops(&instance) {
            match op {
                LiveOp::Arrive { size, time, .. } => {
                    assert_eq!(
                        a.arrive(size.clone(), time).unwrap(),
                        b.arrive(size, time).unwrap()
                    );
                }
                LiveOp::Depart { item, time } => {
                    // `sample()` is arrival-sorted, so indices coincide.
                    assert_eq!(a.depart(item, time).unwrap(), b.depart(item, time).unwrap());
                }
            }
        }
        assert_eq!(a.into_packing().unwrap(), b.into_packing().unwrap());
    }

    #[test]
    fn drain_on_depart_drains_a_small_bin_and_closes_it() {
        let mut live = LiveRequest::new(PolicyKind::FirstFit)
            .capacity(DimVec::from_slice(&[10]))
            .repack(RepackPolicy::DrainOnDepart { k: 1 })
            .build()
            .unwrap();
        live.arrive(DimVec::from_slice(&[7]), 0).unwrap(); // b0
        live.arrive(DimVec::from_slice(&[7]), 1).unwrap(); // b1
        live.arrive(DimVec::from_slice(&[2]), 2).unwrap(); // b0 (7+2)
        let dep = live.depart(0, 3).unwrap();
        assert!(!dep.closed, "item 2 still occupied b0 at the departure");
        assert_eq!(
            dep.migrations,
            vec![LiveMigration {
                item: 2,
                from: BinId(0),
                to: BinId(1),
                closed_from: true,
                cost: 1,
            }]
        );
        assert_eq!(live.open_bins(), 1);
        assert_eq!(live.item_bin(2), Some(BinId(1)));
        assert_eq!(live.migrations(), 1);
        assert_eq!(live.migration_cost(), 1);
        live.depart(1, 5).unwrap();
        let dep = live.depart(2, 6).unwrap();
        assert!(dep.closed);
        let packing = live.into_packing().unwrap();
        // b0 closed at the drain tick 3, not at item 2's departure.
        assert_eq!(packing.bins[0].closed, 3);
        assert_eq!(packing.cost(), 3 + 5);
    }

    #[test]
    fn drain_is_all_or_nothing() {
        let mut live = LiveRequest::new(PolicyKind::FirstFit)
            .capacity(DimVec::from_slice(&[10]))
            .repack(RepackPolicy::DrainOnDepart { k: 2 })
            .build()
            .unwrap();
        live.arrive(DimVec::from_slice(&[5]), 0).unwrap(); // b0
        live.arrive(DimVec::from_slice(&[8]), 1).unwrap(); // b1
        live.arrive(DimVec::from_slice(&[4]), 2).unwrap(); // b0 (5+4)
                                                           // Departing item 0 leaves item 2 (size 4); b1 has residual 2, so
                                                           // the drain is infeasible and nothing moves.
        let dep = live.depart(0, 3).unwrap();
        assert!(dep.migrations.is_empty());
        assert_eq!(live.open_bins(), 2);
        assert_eq!(live.migrations(), 0);
    }

    #[test]
    fn no_repack_never_migrates() {
        let instance = sample();
        let mut live = LiveRequest::new(PolicyKind::FirstFit)
            .capacity(instance.capacity.clone())
            .build()
            .unwrap();
        let mut local = HashMap::new();
        for op in live_ops(&instance) {
            match op {
                LiveOp::Arrive { item, size, time } => {
                    local.insert(item, live.arrive(size, time).unwrap().item);
                }
                LiveOp::Depart { item, time } => {
                    assert!(live
                        .depart(local[&item], time)
                        .unwrap()
                        .migrations
                        .is_empty());
                }
            }
        }
        assert_eq!(live.migrations(), 0);
    }

    /// Builds the defrag scenario: b0 = {big [0,3), small [1,·)},
    /// b1 = {filler 10 [1,5)}, b2 = {small [2,·)}. Departing the big
    /// item leaves two half-empty bins; departing the filler closes b1
    /// naturally, triggering the sweep.
    fn defrag_engine(budget: u64) -> LiveEngine {
        let mut live = LiveRequest::new(PolicyKind::FirstFit)
            .capacity(DimVec::from_slice(&[10]))
            .repack(RepackPolicy::BudgetedDefrag { budget, period: 1 })
            .build()
            .unwrap();
        live.arrive(DimVec::from_slice(&[8]), 0).unwrap(); // 0 -> b0
        live.arrive(DimVec::from_slice(&[2]), 1).unwrap(); // 1 -> b0
        live.arrive(DimVec::from_slice(&[10]), 1).unwrap(); // 2 -> b1
        live.arrive(DimVec::from_slice(&[2]), 2).unwrap(); // 3 -> b2
        live.depart(0, 3).unwrap(); // b0 = {1}, no close
        live
    }

    #[test]
    fn budgeted_defrag_sweeps_on_a_natural_close() {
        let mut live = defrag_engine(16);
        let dep = live.depart(2, 5).unwrap(); // closes b1 -> sweep
        assert!(dep.closed);
        assert_eq!(
            dep.migrations,
            vec![LiveMigration {
                item: 1,
                from: BinId(0),
                to: BinId(2),
                closed_from: true,
                cost: 2,
            }]
        );
        assert_eq!(live.open_bins(), 1);
        assert_eq!(live.migration_cost(), 2);
        live.depart(1, 9).unwrap();
        live.depart(3, 9).unwrap();
        let packing = live.into_packing().unwrap();
        assert_eq!(packing.bins[0].closed, 5, "b0 drained at the sweep tick");
    }

    #[test]
    fn budgeted_defrag_respects_the_budget() {
        let mut live = defrag_engine(1); // item 1's L1 size is 2 > 1
        let dep = live.depart(2, 5).unwrap();
        assert!(dep.migrations.is_empty());
        assert_eq!(live.open_bins(), 2);
        assert_eq!(live.migrations(), 0);
    }

    #[test]
    fn migrations_reach_the_observer_and_trace() {
        let mut live = LiveRequest::new(PolicyKind::FirstFit)
            .capacity(DimVec::from_slice(&[10]))
            .repack(RepackPolicy::DrainOnDepart { k: 1 })
            .observer(dvbp_obs::Recorder::new())
            .build()
            .unwrap();
        live.arrive(DimVec::from_slice(&[7]), 0).unwrap();
        live.arrive(DimVec::from_slice(&[7]), 1).unwrap();
        live.arrive(DimVec::from_slice(&[2]), 2).unwrap();
        live.depart(0, 3).unwrap();
        live.depart(1, 5).unwrap();
        live.depart(2, 6).unwrap();
        let (packing, recorder) = live.into_parts().unwrap();
        let migrate_events: Vec<_> = recorder
            .events
            .iter()
            .filter(|ev| matches!(ev, dvbp_obs::ObsEvent::Migrate { .. }))
            .collect();
        assert_eq!(
            migrate_events,
            vec![&dvbp_obs::ObsEvent::Migrate {
                time: 3,
                item: 2,
                from: 0,
                to: 1,
            }]
        );
        assert!(packing
            .trace
            .iter()
            .any(|ev| matches!(ev, TraceEvent::Migrated { item: 2, .. })));
        // The observer stream replays to the live packing even across
        // the migration.
        assert!(matches!(
            recorder.events.last(),
            Some(dvbp_obs::ObsEvent::RunEnd { .. })
        ));
    }

    #[test]
    fn switch_policy_rejects_clairvoyant_and_counts_switches() {
        let mut live = LiveEngine::new(
            DimVec::from_slice(&[10]),
            &PolicyKind::FirstFit,
            TraceMode::Full,
            TimeMode::Strict,
        )
        .unwrap();
        assert!(matches!(
            live.switch_policy(PolicyKind::AlignedFit),
            Err(LiveError::Clairvoyant { .. })
        ));
        assert_eq!(live.policy_switches(), 0);
        live.switch_policy(PolicyKind::MoveToFront).unwrap();
        assert_eq!(live.kind(), &PolicyKind::MoveToFront);
        assert_eq!(live.policy_switches(), 1);
    }

    #[test]
    fn switch_policy_changes_future_placements_only() {
        // Two bins open, both with room. FirstFit would pick b0 for the
        // next small item; after switching to MoveToFront (which adopts
        // latest-opened-first order) the same item goes to b1.
        let mut live = LiveEngine::new(
            DimVec::from_slice(&[10]),
            &PolicyKind::FirstFit,
            TraceMode::Full,
            TimeMode::Strict,
        )
        .unwrap();
        live.arrive(DimVec::from_slice(&[6]), 0).unwrap(); // b0
        live.arrive(DimVec::from_slice(&[6]), 1).unwrap(); // b1
        live.switch_policy(PolicyKind::MoveToFront).unwrap();
        let placed = live.arrive(DimVec::from_slice(&[2]), 2).unwrap();
        assert_eq!(placed.bin, BinId(1), "MTF adoption puts b1 in front");
        assert_eq!(live.item_bin(0), Some(BinId(0)), "no placed item moved");
    }

    #[test]
    fn switch_policy_reaches_the_observer_with_spec_spellings() {
        let mut live = LiveRequest::new(PolicyKind::FirstFit)
            .capacity(DimVec::from_slice(&[10]))
            .observer(dvbp_obs::Recorder::new())
            .build()
            .unwrap();
        live.arrive(DimVec::from_slice(&[5]), 3).unwrap();
        live.switch_policy(PolicyKind::RandomFit { seed: 9 })
            .unwrap();
        live.depart(0, 7).unwrap();
        let (_, recorder) = live.into_parts().unwrap();
        assert!(recorder.events.contains(&dvbp_obs::ObsEvent::PolicySwitch {
            time: 3,
            from: "FirstFit".into(),
            to: "RandomFit:9".into(),
        }));
    }

    #[test]
    fn items_hint_does_not_change_the_run() {
        let instance = sample();
        let mut hinted = LiveRequest::new(PolicyKind::FirstFit)
            .capacity(instance.capacity.clone())
            .items_hint(1000)
            .build()
            .unwrap();
        let mut plain = LiveRequest::new(PolicyKind::FirstFit)
            .capacity(instance.capacity.clone())
            .build()
            .unwrap();
        assert_eq!(plain.time_mode(), TimeMode::Strict, "the default");
        for op in live_ops(&instance) {
            match op {
                LiveOp::Arrive { size, time, .. } => {
                    assert_eq!(
                        hinted.arrive(size.clone(), time).unwrap(),
                        plain.arrive(size, time).unwrap()
                    );
                }
                LiveOp::Depart { item, time } => {
                    assert_eq!(
                        hinted.depart(item, time).unwrap(),
                        plain.depart(item, time).unwrap()
                    );
                }
            }
        }
        assert_eq!(
            hinted.into_packing().unwrap(),
            plain.into_packing().unwrap()
        );
    }

    #[test]
    fn live_ops_order_departures_before_equal_tick_arrivals() {
        let instance = sample();
        let ops = live_ops(&instance);
        // Item 1 departs at t=5; items 3 and 4 arrive at t=5. The
        // departure must come first, then arrivals by item index.
        let tick5: Vec<&LiveOp> = ops
            .iter()
            .filter(|op| match op {
                LiveOp::Arrive { time, .. } | LiveOp::Depart { time, .. } => *time == 5,
            })
            .collect();
        assert!(matches!(tick5[0], LiveOp::Depart { item: 1, .. }));
        assert!(matches!(tick5[1], LiveOp::Arrive { item: 3, .. }));
        assert!(matches!(tick5[2], LiveOp::Arrive { item: 4, .. }));
    }
}
