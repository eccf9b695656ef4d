//! [`PortfolioState`]: shadows + meta-policy + switch bookkeeping,
//! decoupled from the live engine so both the standalone
//! [`PortfolioEngine`](crate::PortfolioEngine) and `dvbp-serve`'s
//! WAL-journaling shards can drive the same logic — and so WAL recovery
//! can rebuild the exact state by replaying the journaled operations.
//!
//! The shadows run on a worker thread of their own ([`crate::worker`]):
//! forwarding an operation queues it and returns, and every read of
//! shadow state — the meta-policy's evaluation in
//! [`on_depart`](PortfolioState::on_depart),
//! [`scoreboard`](PortfolioState::scoreboard),
//! [`lower_bound`](PortfolioState::lower_bound),
//! [`items_seen`](PortfolioState::items_seen) — first waits until the
//! worker has applied every operation forwarded before it. Decisions
//! are therefore those of a synchronously fed shadow set.

use crate::meta::MetaPolicy;
use crate::shadow::{ShadowScore, ShadowSet};
use crate::worker::{ShadowWorker, WorkerDown};
use dvbp_core::{LiveError, PolicyKind, TimeMode};
use dvbp_dimvec::DimVec;
use dvbp_sim::{Cost, Time};

/// A rejected portfolio construction or replay step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PortfolioError {
    /// A candidate (or the live kind) failed live-engine validation.
    Live(LiveError),
    /// The candidate list was empty.
    NoCandidates,
    /// A switch targeted a policy outside the candidate list.
    UnknownCandidate {
        /// The unmatched round-trippable policy spelling.
        spec: String,
    },
    /// The shadow worker died (a shadow refused an accepted operation,
    /// which is a bug) or could not start; the state answers nothing
    /// more.
    Shadows {
        /// Why, naming the worker thread.
        msg: String,
    },
}

impl std::fmt::Display for PortfolioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PortfolioError::Live(e) => write!(f, "{e}"),
            PortfolioError::NoCandidates => write!(f, "portfolio needs at least one candidate"),
            PortfolioError::UnknownCandidate { spec } => {
                write!(f, "switch target {spec} is not a portfolio candidate")
            }
            PortfolioError::Shadows { msg } => write!(f, "shadows stopped: {msg}"),
        }
    }
}

impl std::error::Error for PortfolioError {}

impl From<LiveError> for PortfolioError {
    fn from(e: LiveError) -> Self {
        PortfolioError::Live(e)
    }
}

impl From<WorkerDown> for PortfolioError {
    fn from(WorkerDown(msg): WorkerDown) -> Self {
        PortfolioError::Shadows { msg }
    }
}

/// One applied policy switch, for audit trails and status reports.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SwitchRecord {
    /// Tick of the triggering bin close.
    pub time: Time,
    /// Outgoing policy (round-trippable spelling).
    pub from: String,
    /// Incoming policy (round-trippable spelling).
    pub to: String,
}

/// The portfolio's decision state: candidate shadows, the meta-policy,
/// and the close/switch counters its decisions read.
///
/// The state never touches the live engine. Callers forward every
/// accepted operation ([`on_arrive`](PortfolioState::on_arrive) /
/// [`on_depart`](PortfolioState::on_depart)), apply a returned switch
/// proposal to their live engine, then confirm it with
/// [`record_switch`](PortfolioState::record_switch).
///
/// The shadows run on a worker thread that starts with the first
/// forwarded operation and is joined when the state is dropped (see the
/// module docs for the barrier rule).
pub struct PortfolioState {
    shadows: ShadowWorker,
    meta: MetaPolicy,
    candidates: Vec<PolicyKind>,
    /// Index (into `candidates`) of the policy currently live.
    current: usize,
    /// Live-engine bin closes observed so far.
    closes: u64,
    /// Live-engine bin closes since the last applied switch.
    closes_since_switch: u64,
    /// Applied switches, in order.
    switches: Vec<SwitchRecord>,
    /// Scratch cost vector, reused across decisions (no steady-state
    /// allocations).
    costs: Vec<Cost>,
}

impl PortfolioState {
    /// Builds the state for `candidates` with `live_kind` currently
    /// driving the live engine. If `live_kind` is not among the
    /// candidates it is prepended, so the live policy always has a
    /// shadow (its scoreboard row) and a candidate index.
    ///
    /// # Errors
    ///
    /// [`PortfolioError::NoCandidates`] when both `candidates` and the
    /// live kind are absent (impossible — live kind always exists), and
    /// [`PortfolioError::Live`] for clairvoyant candidates.
    pub fn new(
        capacity: &DimVec,
        time_mode: TimeMode,
        candidates: &[PolicyKind],
        live_kind: &PolicyKind,
        meta: MetaPolicy,
        items_hint: usize,
    ) -> Result<Self, PortfolioError> {
        let mut candidates = candidates.to_vec();
        if !candidates.contains(live_kind) {
            candidates.insert(0, live_kind.clone());
        }
        if candidates.is_empty() {
            return Err(PortfolioError::NoCandidates);
        }
        let current = candidates
            .iter()
            .position(|k| k == live_kind)
            .expect("live kind inserted above");
        let shadows = ShadowWorker::new(ShadowSet::new(
            capacity,
            time_mode,
            &candidates,
            items_hint,
        )?);
        let n = candidates.len();
        Ok(PortfolioState {
            shadows,
            meta,
            candidates,
            current,
            closes: 0,
            closes_since_switch: 0,
            switches: Vec::new(),
            costs: Vec::with_capacity(n),
        })
    }

    /// Names the shadow worker thread after a shard
    /// (`dvbp-shadows-<shard>`). Call it before the first operation,
    /// which starts the thread.
    pub fn label(&mut self, shard: usize) {
        self.shadows.label(shard);
    }

    /// Mirrors an accepted arrival into the shadows: queues it for the
    /// worker and returns.
    ///
    /// # Errors
    ///
    /// [`PortfolioError::Shadows`] once the worker has died.
    pub fn on_arrive(&mut self, size: &DimVec, time: Time) -> Result<(), PortfolioError> {
        Ok(self.shadows.arrive(size, time)?)
    }

    /// Mirrors an accepted departure into the shadows, advances the
    /// close counters by `live_closes` (bins the *live* engine closed
    /// processing this departure, including repack-drained ones), and —
    /// when at least one bin closed — evaluates the meta-policy at tick
    /// `time`. Returns the candidate to adopt, or `None` to stay.
    ///
    /// The proposal is **not** applied here; the caller switches its
    /// live engine and then confirms with
    /// [`record_switch`](PortfolioState::record_switch). An evaluation
    /// is a barrier: it waits for the worker to apply every operation
    /// forwarded so far, this departure included.
    ///
    /// # Errors
    ///
    /// [`PortfolioError::Shadows`] once the worker has died.
    pub fn on_depart(
        &mut self,
        item: usize,
        time: Time,
        live_closes: u64,
    ) -> Result<Option<PolicyKind>, PortfolioError> {
        self.shadows.depart(item, time)?;
        if live_closes == 0 {
            return Ok(None);
        }
        self.closes += live_closes;
        self.closes_since_switch += live_closes;
        // Skip the O(bins) cost evaluation whenever the meta-policy
        // could not act anyway.
        let worth_evaluating = match self.meta {
            MetaPolicy::Static => false,
            MetaPolicy::BestOf { window } => self.closes.is_multiple_of(window.max(1)),
            MetaPolicy::SwitchThreshold { .. } => {
                self.closes_since_switch >= crate::meta::SWITCH_COOLDOWN_CLOSES
            }
        };
        if !worth_evaluating {
            return Ok(None);
        }
        let costs = &mut self.costs;
        costs.clear();
        self.shadows
            .read(|set| costs.extend(set.shadows().iter().map(|s| s.cost_at(time))))?;
        Ok(self
            .meta
            .decide(
                self.current,
                &self.costs,
                self.closes,
                self.closes_since_switch,
            )
            .map(|idx| self.candidates[idx].clone()))
    }

    /// Confirms that the live engine adopted `to` at tick `time`:
    /// updates the current-candidate index, resets the hysteresis
    /// counter, and appends the audit record.
    ///
    /// # Errors
    ///
    /// [`PortfolioError::UnknownCandidate`] when `to` is not in the
    /// candidate list.
    pub fn record_switch(&mut self, to: &PolicyKind, time: Time) -> Result<(), PortfolioError> {
        let idx = self
            .candidates
            .iter()
            .position(|k| k == to)
            .ok_or_else(|| PortfolioError::UnknownCandidate { spec: to.spec() })?;
        self.switches.push(SwitchRecord {
            time,
            from: self.candidates[self.current].spec(),
            to: to.spec(),
        });
        self.current = idx;
        self.closes_since_switch = 0;
        Ok(())
    }

    /// The candidate currently driving the live engine.
    #[must_use]
    pub fn current_kind(&self) -> &PolicyKind {
        &self.candidates[self.current]
    }

    /// The candidate list, in declaration order (live kind included).
    #[must_use]
    pub fn candidates(&self) -> &[PolicyKind] {
        &self.candidates
    }

    /// The meta-policy in force.
    #[must_use]
    pub fn meta(&self) -> MetaPolicy {
        self.meta
    }

    /// Applied switches, in order.
    #[must_use]
    pub fn switches(&self) -> &[SwitchRecord] {
        &self.switches
    }

    /// Live-engine bin closes observed so far.
    #[must_use]
    pub fn closes(&self) -> u64 {
        self.closes
    }

    /// Scoreboard rows at tick `at`, in candidate order. A barrier.
    ///
    /// # Errors
    ///
    /// [`PortfolioError::Shadows`] once the worker has died.
    pub fn scoreboard(&self, at: Time) -> Result<Vec<ShadowScore>, PortfolioError> {
        Ok(self.shadows.read(|set| set.scoreboard(at))?)
    }

    /// The shared Lemma-1 lower bound of the observed stream. A
    /// barrier.
    ///
    /// # Errors
    ///
    /// [`PortfolioError::Shadows`] once the worker has died.
    pub fn lower_bound(&self) -> Result<Cost, PortfolioError> {
        Ok(self.shadows.read(ShadowSet::lower_bound)?)
    }

    /// Arrivals the shadows have applied. A barrier, so it equals the
    /// arrivals forwarded.
    ///
    /// # Errors
    ///
    /// [`PortfolioError::Shadows`] once the worker has died.
    pub fn items_seen(&self) -> Result<usize, PortfolioError> {
        Ok(self.shadows.read(ShadowSet::items_seen)?)
    }

    /// Why the shadow worker died, if it has; does not wait for it.
    #[must_use]
    pub fn failure(&self) -> Option<PortfolioError> {
        self.shadows.failure().map(PortfolioError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dv(units: &[u64]) -> DimVec {
        DimVec::from_slice(units)
    }

    #[test]
    fn live_kind_is_prepended_when_missing() {
        let state = PortfolioState::new(
            &dv(&[10]),
            TimeMode::Strict,
            &[PolicyKind::NextFit],
            &PolicyKind::FirstFit,
            MetaPolicy::Static,
            0,
        )
        .unwrap();
        assert_eq!(
            state.candidates(),
            &[PolicyKind::FirstFit, PolicyKind::NextFit]
        );
        assert_eq!(state.current_kind(), &PolicyKind::FirstFit);
    }

    #[test]
    fn static_meta_never_proposes() {
        let mut state = PortfolioState::new(
            &dv(&[10]),
            TimeMode::Strict,
            &[PolicyKind::FirstFit, PolicyKind::NextFit],
            &PolicyKind::NextFit,
            MetaPolicy::Static,
            0,
        )
        .unwrap();
        state.on_arrive(&dv(&[6]), 0).unwrap();
        assert_eq!(state.on_depart(0, 5, 1), Ok(None));
        assert_eq!(state.closes(), 1);
        assert!(state.switches().is_empty());
    }

    #[test]
    fn best_of_proposes_the_cheaper_candidate_and_records_the_switch() {
        let mut state = PortfolioState::new(
            &dv(&[10]),
            TimeMode::Strict,
            &[PolicyKind::FirstFit, PolicyKind::NextFit],
            &PolicyKind::NextFit,
            MetaPolicy::BestOf { window: 1 },
            0,
        )
        .unwrap();
        // NextFit wastes a bin: [6] opens b0, blocker [9] takes b1 and
        // becomes current, [4] then opens b2 under NextFit but rides b0
        // under FirstFit.
        state.on_arrive(&dv(&[6]), 0).unwrap();
        state.on_arrive(&dv(&[9]), 1).unwrap();
        state.on_arrive(&dv(&[4]), 2).unwrap();
        let proposal = state.on_depart(1, 6, 1);
        assert_eq!(proposal, Ok(Some(PolicyKind::FirstFit)));
        state.record_switch(&PolicyKind::FirstFit, 6).unwrap();
        assert_eq!(state.current_kind(), &PolicyKind::FirstFit);
        assert_eq!(state.switches().len(), 1);
        assert_eq!(state.switches()[0].from, "NextFit");
        assert_eq!(state.switches()[0].to, "FirstFit");
        // Unknown targets are rejected (foreign WAL).
        assert!(matches!(
            state.record_switch(&PolicyKind::LastFit, 7),
            Err(PortfolioError::UnknownCandidate { .. })
        ));
    }

    #[test]
    fn a_dead_worker_fails_the_next_barrier_without_waiting() {
        let mut state = PortfolioState::new(
            &dv(&[10]),
            TimeMode::Strict,
            &[PolicyKind::FirstFit, PolicyKind::NextFit],
            &PolicyKind::NextFit,
            MetaPolicy::BestOf { window: 1 },
            0,
        )
        .unwrap();
        state.label(3);
        state.on_arrive(&dv(&[6]), 0).unwrap();
        // A departure of an item that never arrived: queued here, refused
        // by the first shadow on the worker thread.
        state.on_depart(5, 1, 0).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let board = state.scoreboard(1);
            tx.send((board, state)).unwrap();
        });
        let (board, mut state) = rx
            .recv_timeout(std::time::Duration::from_secs(20))
            .expect("the barrier must fail, not wait for a dead worker");
        match board {
            Err(PortfolioError::Shadows { msg }) => {
                assert!(msg.starts_with("dvbp-shadows-3 panicked: "), "{msg}");
            }
            other => panic!("expected a failed barrier, got {other:?}"),
        }
        assert!(state.failure().is_some());
        assert!(state.lower_bound().is_err());
        assert!(matches!(
            state.on_arrive(&dv(&[1]), 2),
            Err(PortfolioError::Shadows { .. })
        ));
        assert!(matches!(
            state.on_depart(0, 2, 1),
            Err(PortfolioError::Shadows { .. })
        ));
    }

    #[test]
    fn reads_before_the_first_operation_start_no_thread() {
        let state = PortfolioState::new(
            &dv(&[10]),
            TimeMode::Strict,
            &[PolicyKind::FirstFit],
            &PolicyKind::FirstFit,
            MetaPolicy::Static,
            0,
        )
        .unwrap();
        assert_eq!(state.items_seen(), Ok(0));
        assert_eq!(state.lower_bound(), Ok(0));
        assert_eq!(state.scoreboard(0).unwrap().len(), 1);
        assert!(!state.shadows.started());
    }
}
