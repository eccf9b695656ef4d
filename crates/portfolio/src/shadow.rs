//! [`ShadowSet`]: the portfolio's cost-only mirror engines.
//!
//! Every candidate [`PolicyKind`] gets a full [`LiveEngine`] in
//! [`TraceMode::CostOnly`] that receives the *exact* event stream the
//! live engine accepted — same sizes, same ticks, same dense item
//! indices (both sides assign indices in arrival order). A shadow's
//! accumulated usage time is therefore **bit-identical** to a standalone
//! cost-only run of its policy over the stream; conformance layer 11
//! holds every shadow to that.
//!
//! One [`StreamingLowerBound`] is shared by the whole set: all shadows
//! observe the same stream, so their Lemma-1 `lb_load` anchors coincide
//! — and comparing shadows by competitive ratio reduces to comparing
//! raw costs, which keeps the meta-policy's decisions in exact integer
//! arithmetic.

use dvbp_core::{
    LiveEngine, LiveError, LiveOp, LiveRequest, PolicyKind, StreamingLowerBound, TimeMode,
    TraceMode,
};
use dvbp_dimvec::DimVec;
use dvbp_sim::{Cost, Time};

/// One shadow: a candidate policy running cost-only over the live
/// stream.
pub struct Shadow {
    kind: PolicyKind,
    engine: LiveEngine,
}

impl Shadow {
    /// The candidate policy this shadow evaluates.
    #[must_use]
    pub fn kind(&self) -> &PolicyKind {
        &self.kind
    }

    /// The shadow's accumulated usage time at tick `at` — identical to
    /// what a standalone cost-only run of this policy over the same
    /// stream would report.
    #[must_use]
    pub fn cost_at(&self, at: Time) -> Cost {
        self.engine.usage_time_at(at)
    }

    /// Bins the shadow has ever opened.
    #[must_use]
    pub fn bins_opened(&self) -> usize {
        self.engine.bins_opened()
    }
}

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

/// The portfolio's shadow engines plus their shared lower-bound anchor.
///
/// Feed it every operation the live engine *accepted* (after the live
/// call returned `Ok`); the set forwards the operation to each shadow
/// and the lower bound. Shadows share the live engine's capacity and
/// time mode, so an operation the live engine accepted is accepted by
/// every shadow — a rejection here means the caller fed a different
/// stream, which is a bug, and panics.
pub struct ShadowSet {
    shadows: Vec<Shadow>,
    lb: StreamingLowerBound,
    items_seen: usize,
}

impl ShadowSet {
    /// Builds one cost-only shadow per candidate kind.
    ///
    /// `items_hint` pre-reserves each shadow's item ledger (see
    /// [`LiveRequest::items_hint`]) so steady-state operation stays
    /// allocation-free.
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
        let shadows = kinds
            .iter()
            .map(|kind| {
                LiveRequest::new(kind.clone())
                    .capacity(capacity.clone())
                    .trace_mode(TraceMode::CostOnly)
                    .time_mode(time_mode)
                    .items_hint(items_hint)
                    .build()
                    .map(|engine| Shadow {
                        kind: kind.clone(),
                        engine,
                    })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ShadowSet {
            shadows,
            lb: StreamingLowerBound::new(capacity),
            items_seen: 0,
        })
    }

    /// Mirrors an accepted arrival into every shadow and the lower
    /// bound. The next dense index is assigned implicitly, matching the
    /// live engine's.
    ///
    /// # Panics
    ///
    /// If a shadow rejects the arrival — impossible when the caller
    /// forwards exactly the operations the live engine accepted.
    pub fn arrive(&mut self, size: &DimVec, time: Time) {
        self.apply(&[LiveOp::Arrive {
            item: self.items_seen,
            size: size.clone(),
            time,
        }]);
    }

    /// Mirrors an accepted departure into every shadow and the lower
    /// bound.
    ///
    /// # Panics
    ///
    /// If a shadow rejects the departure — impossible when the caller
    /// forwards exactly the operations the live engine accepted.
    pub fn depart(&mut self, item: usize, time: Time) {
        self.apply(&[LiveOp::Depart { item, time }]);
    }

    /// Mirrors a batch of accepted operations, in order, shadow by
    /// shadow: each shadow takes the whole batch before the next starts,
    /// and the lower bound folds it once. Arrivals carry the dense index
    /// the set assigns next ([`items_seen`](Self::items_seen) onwards).
    ///
    /// # Panics
    ///
    /// If a shadow rejects an operation, as [`arrive`](Self::arrive).
    pub(crate) fn apply(&mut self, ops: &[LiveOp]) {
        for op in ops {
            if let LiveOp::Arrive { item, .. } = op {
                debug_assert_eq!(*item, self.items_seen, "arrivals carry dense indices");
                self.items_seen += 1;
            }
            self.lb.observe(op);
        }
        for shadow in &mut self.shadows {
            for op in ops {
                let accepted = match op {
                    LiveOp::Arrive { size, time, .. } => {
                        shadow.engine.arrive(size.clone(), *time).map(drop)
                    }
                    LiveOp::Depart { item, time } => shadow.engine.depart(*item, *time).map(drop),
                };
                accepted.expect("shadow engines mirror the accepted live stream");
            }
        }
    }

    /// The candidate shadows, in declaration order.
    #[must_use]
    pub fn shadows(&self) -> &[Shadow] {
        &self.shadows
    }

    /// Number of candidates.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shadows.len()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.shadows.is_empty()
    }

    /// Arrivals mirrored so far (the next dense item index).
    #[must_use]
    pub fn items_seen(&self) -> usize {
        self.items_seen
    }

    /// The stream's Lemma-1 lower bound so far — shared anchor of every
    /// shadow's running CR.
    #[must_use]
    pub fn lower_bound(&self) -> Cost {
        self.lb.value()
    }

    /// Index of the candidate whose shadow has the lowest cost at `at`
    /// (ties break to the earliest declared candidate). `None` when the
    /// set is empty.
    #[must_use]
    pub fn best_at(&self, at: Time) -> Option<usize> {
        self.shadows
            .iter()
            .enumerate()
            .min_by_key(|(idx, s)| (s.cost_at(at), *idx))
            .map(|(idx, _)| idx)
    }

    /// Scoreboard rows at tick `at`, in declaration order.
    #[must_use]
    pub fn scoreboard(&self, at: Time) -> Vec<ShadowScore> {
        let lb = self.lb.value();
        self.shadows
            .iter()
            .map(|s| ShadowScore {
                policy: s.kind.spec(),
                cost: s.cost_at(at),
                lb,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            shadows.shadows()[1].cost_at(9),
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
        assert_eq!(shadows.best_at(4), Some(0));
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
