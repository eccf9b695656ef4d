//! [`ShadowSet`]: the portfolio's cost-only mirror engines.
//!
//! Every candidate [`PolicyKind`] gets a bare cost-only engine in one
//! [`EngineSet`], paired with [`RepackPolicy::NoRepack`]: a shadow never
//! migrates. The set receives the *exact* event stream the live
//! engine accepted — same sizes, same ticks, same dense item indices
//! (both sides number items in arrival order). A shadow's accumulated
//! usage time is therefore **bit-identical** to a standalone cost-only
//! run of its policy over the stream; conformance layer 11 holds every
//! shadow to that.
//!
//! The set's feed holds the active items once for every candidate, and
//! its Lemma-1 `lb_load` fold reads their sizes from that same table.
//! All shadows share that anchor, so comparing shadows by competitive
//! ratio reduces to comparing raw costs, which keeps the meta-policy's
//! decisions in exact integer arithmetic.

use dvbp_core::{EngineSet, LiveError, LiveOp, PolicyKind, RepackPolicy, TimeMode};
use dvbp_dimvec::DimVec;
use dvbp_sim::{Cost, Time};

/// A shadow's scoreboard row: cost and the shared lower-bound anchor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShadowScore {
    /// Candidate policy (round-trippable spelling).
    pub policy: String,
    /// Accumulated usage time of the shadow.
    pub cost: Cost,
    /// The stream's Lemma-1 lower bound (shared by all shadows).
    pub lb: Cost,
}

impl ShadowScore {
    /// Running competitive ratio, cold-start neutral: `1.0` until the
    /// lower bound is positive (never NaN or infinite).
    #[must_use]
    pub fn running_cr(&self) -> f64 {
        dvbp_sim::cost_ratio(self.cost, self.lb)
    }
}

/// The portfolio's candidate list and its shadow engines.
///
/// Feed it every operation the live engine *accepted* (after the live
/// call returned `Ok`). The shadows share the live engine's capacity and
/// time mode, so an operation the live engine accepted is accepted by
/// the set — a refusal here means the caller fed a different stream,
/// which is a bug, and panics.
pub struct ShadowSet {
    kinds: Vec<PolicyKind>,
    engines: EngineSet,
}

impl ShadowSet {
    /// Builds one cost-only shadow per candidate kind.
    ///
    /// `items_hint` pre-reserves each shadow's item ledger (see
    /// [`dvbp_core::LiveRequest::items_hint`]) so steady-state operation
    /// stays allocation-free.
    ///
    /// # Errors
    ///
    /// [`LiveError::Clairvoyant`] for clairvoyant candidates.
    pub fn new(
        capacity: &DimVec,
        time_mode: TimeMode,
        kinds: &[PolicyKind],
        items_hint: usize,
    ) -> Result<Self, LiveError> {
        let candidates: Vec<_> = kinds
            .iter()
            .map(|kind| (kind.clone(), RepackPolicy::NoRepack))
            .collect();
        Ok(ShadowSet {
            kinds: kinds.to_vec(),
            engines: EngineSet::new(capacity, time_mode, &candidates, items_hint)?,
        })
    }

    /// Mirrors an accepted arrival into every shadow and the lower
    /// bound. The next dense index is assigned implicitly, matching the
    /// live engine's.
    ///
    /// # Panics
    ///
    /// If the set refuses the arrival — impossible when the caller
    /// forwards exactly the operations the live engine accepted.
    pub fn arrive(&mut self, size: &DimVec, time: Time) {
        self.apply(&[LiveOp::Arrive {
            item: self.items_seen(),
            size: size.clone(),
            time,
        }]);
    }

    /// Mirrors an accepted departure into every shadow and the lower
    /// bound.
    ///
    /// # Panics
    ///
    /// If the set refuses the departure — impossible when the caller
    /// forwards exactly the operations the live engine accepted.
    pub fn depart(&mut self, item: usize, time: Time) {
        self.apply(&[LiveOp::Depart { item, time }]);
    }

    /// Mirrors a batch of accepted operations, in order, through
    /// [`EngineSet::apply`]: the feed and the lower bound take the batch
    /// once, then each shadow takes all of it before the next starts.
    /// Arrivals carry the dense index the set assigns next
    /// ([`items_seen`](Self::items_seen) onwards).
    ///
    /// # Panics
    ///
    /// If the set refuses an operation, as [`arrive`](Self::arrive).
    pub(crate) fn apply(&mut self, ops: &[LiveOp]) {
        self.engines
            .apply(ops)
            .expect("shadow engines mirror the accepted live stream");
    }

    /// Arrivals mirrored so far (the next dense item index).
    #[must_use]
    pub fn items_seen(&self) -> usize {
        self.engines.items_seen()
    }

    /// The stream's Lemma-1 lower bound so far — shared anchor of every
    /// shadow's running CR.
    #[must_use]
    pub fn lower_bound(&self) -> Cost {
        self.engines.lower_bound()
    }

    /// Each shadow's cost at tick `at`, in declaration order.
    pub(crate) fn costs_at(&self, at: Time) -> impl Iterator<Item = Cost> + '_ {
        self.engines.costs_at(at)
    }

    /// Scoreboard rows at tick `at`, in declaration order.
    #[must_use]
    pub fn scoreboard(&self, at: Time) -> Vec<ShadowScore> {
        let lb = self.lower_bound();
        self.kinds
            .iter()
            .zip(self.costs_at(at))
            .map(|(kind, cost)| ShadowScore {
                policy: kind.spec(),
                cost,
                lb,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvbp_core::{LiveEngine, TraceMode};

    fn set(kinds: &[PolicyKind]) -> ShadowSet {
        ShadowSet::new(&DimVec::from_slice(&[10]), TimeMode::Strict, kinds, 0).unwrap()
    }

    #[test]
    fn rejects_clairvoyant_candidates() {
        let err = ShadowSet::new(
            &DimVec::from_slice(&[10]),
            TimeMode::Strict,
            &[PolicyKind::FirstFit, PolicyKind::DurationClassFirstFit],
            0,
        )
        .err()
        .expect("clairvoyant candidates must be rejected");
        assert!(matches!(err, LiveError::Clairvoyant { .. }));
    }

    #[test]
    fn shadows_track_a_standalone_run() {
        let kinds = [PolicyKind::FirstFit, PolicyKind::NextFit];
        let mut shadows = set(&kinds);
        let mut standalone = LiveEngine::new(
            DimVec::from_slice(&[10]),
            &PolicyKind::NextFit,
            TraceMode::CostOnly,
            TimeMode::Strict,
        )
        .unwrap();
        let stream: [(&[u64], u64); 3] = [(&[6], 0), (&[6], 1), (&[4], 2)];
        for (size, t) in stream {
            let size = DimVec::from_slice(size);
            standalone.arrive(size.clone(), t).unwrap();
            shadows.arrive(&size, t);
        }
        for item in 0..3 {
            standalone.depart(item, 9).unwrap();
            shadows.depart(item, 9);
        }
        assert_eq!(
            shadows.scoreboard(9)[1].cost,
            standalone.usage_time_at(9),
            "shadow cost must equal the standalone cost-only run"
        );
        assert_eq!(shadows.items_seen(), 3);
    }

    #[test]
    fn shared_lower_bound_and_best_pick() {
        // NextFit opens a bin the Any-Fit policies avoid: items [6],[4]
        // at distinct ticks fit one bin under FirstFit, two under
        // NextFit once a blocker intervenes.
        let mut shadows = set(&[PolicyKind::FirstFit, PolicyKind::NextFit]);
        shadows.arrive(&DimVec::from_slice(&[6]), 0); // b0 everywhere
        shadows.arrive(&DimVec::from_slice(&[9]), 1); // b1 everywhere (blocker)
        shadows.arrive(&DimVec::from_slice(&[4]), 2); // FF: b0; NF: b2 (current b1 full)
        let board = shadows.scoreboard(4);
        assert_eq!(board.len(), 2);
        assert_eq!(board[0].lb, board[1].lb, "anchor is shared");
        assert!(
            board[0].cost < board[1].cost,
            "FirstFit packs tighter here: {board:?}"
        );
        for s in &board {
            assert!(s.running_cr().is_finite());
        }
    }

    #[test]
    fn cold_start_cr_is_neutral() {
        let shadows = set(&[PolicyKind::FirstFit]);
        let board = shadows.scoreboard(0);
        assert_eq!(board[0].running_cr(), 1.0);
    }
}
