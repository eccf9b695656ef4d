//! [`PortfolioEngine`]: a live engine plus its shadow portfolio.
//!
//! The standalone (non-serving) wrapper: takes a [`LiveEngine`], shadows
//! it with a candidate set, mirrors every accepted operation into the
//! shadows, and lets the meta-policy flip the live policy at bin-close
//! boundaries. Under [`MetaPolicy::Static`] the wrapped engine is
//! byte-identical to a plain single-policy `LiveEngine` — conformance
//! layer 11 checks that on every fuzzed instance.

use crate::meta::MetaPolicy;
use crate::shadow::ShadowScore;
use crate::state::{PortfolioError, PortfolioState, SwitchRecord};
use dvbp_core::{LiveDeparture, LiveEngine, LiveError, LivePlacement, Observer, PolicyKind};
use dvbp_dimvec::DimVec;
use dvbp_sim::{Cost, Time};

/// The standalone engine's shadows refuse nothing it accepted; a dead
/// worker is a bug, and the engine panics on it.
const SHADOWS_ALIVE: &str = "the shadow worker mirrors the accepted live stream";

/// Outcome of one [`PortfolioEngine::depart`]: the live departure plus
/// the switch it triggered, if any.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PortfolioDeparture {
    /// The live engine's departure outcome.
    pub departure: LiveDeparture,
    /// The applied policy switch, when the departure's bin close(s)
    /// tripped the meta-policy.
    pub switched: Option<SwitchRecord>,
}

/// A live engine running its policy portfolio in the shadows.
pub struct PortfolioEngine<O: Observer = dvbp_core::NoopObserver> {
    live: LiveEngine<O>,
    state: PortfolioState,
}

impl<O: Observer> PortfolioEngine<O> {
    /// Wraps `live`, building one cost-only shadow per entry of
    /// `candidates` (the live kind is added when missing). `items_hint`
    /// pre-reserves the shadows' item ledgers; pass the same hint the
    /// live engine was built with.
    ///
    /// # Errors
    ///
    /// [`PortfolioError::Live`] when a candidate fails live-engine
    /// validation (clairvoyant kinds).
    pub fn new(
        live: LiveEngine<O>,
        candidates: &[PolicyKind],
        meta: MetaPolicy,
        items_hint: usize,
    ) -> Result<Self, PortfolioError> {
        let state = PortfolioState::new(
            &live.capacity().clone(),
            live.time_mode(),
            candidates,
            &live.kind().clone(),
            meta,
            items_hint,
        )?;
        Ok(PortfolioEngine { live, state })
    }

    /// Admits an item: live placement first, then the shadow mirror.
    /// Arrivals never switch the policy (no bin closes).
    ///
    /// # Errors
    ///
    /// Exactly as [`LiveEngine::arrive`]; on error the shadows see
    /// nothing, keeping every engine on the same accepted stream.
    ///
    /// # Panics
    ///
    /// If the shadow worker died (the shadow set refused an operation the
    /// live engine accepted).
    pub fn arrive(&mut self, size: DimVec, time: Time) -> Result<LivePlacement, LiveError> {
        let placed = self.live.arrive(size.clone(), time)?;
        self.state
            .on_arrive(&size, placed.time)
            .expect(SHADOWS_ALIVE);
        Ok(placed)
    }

    /// Retires an item: live departure, shadow mirror, then — if the
    /// departure closed at least one live bin — the meta-policy
    /// evaluation and (possibly) the switch, applied through
    /// [`PortfolioState::switch`] so the observer journals it.
    ///
    /// # Errors
    ///
    /// Exactly as [`LiveEngine::depart`]; on error nothing reaches the
    /// shadows.
    ///
    /// # Panics
    ///
    /// If the shadow worker died, as [`arrive`](Self::arrive).
    pub fn depart(&mut self, item: usize, time: Time) -> Result<PortfolioDeparture, LiveError> {
        let departure = self.live.depart(item, time)?;
        let proposal = self.state.on_depart(&departure).expect(SHADOWS_ALIVE);
        let switched = proposal.map(|kind| {
            self.state
                .switch(&mut self.live, kind)
                .expect("proposals are validated candidates")
        });
        Ok(PortfolioDeparture {
            departure,
            switched,
        })
    }

    /// The wrapped live engine (read-only).
    #[must_use]
    pub fn live(&self) -> &LiveEngine<O> {
        &self.live
    }

    /// The portfolio decision state (read-only).
    #[must_use]
    pub fn state(&self) -> &PortfolioState {
        &self.state
    }

    /// The candidate currently driving the live engine.
    #[must_use]
    pub fn current_kind(&self) -> &PolicyKind {
        self.state.current_kind()
    }

    /// Scoreboard rows at tick `at`, in candidate order.
    ///
    /// # Panics
    ///
    /// If the shadow worker died, as the operations do.
    #[must_use]
    pub fn scoreboard(&self, at: Time) -> Vec<ShadowScore> {
        self.state.scoreboard(at).expect(SHADOWS_ALIVE)
    }

    /// Applied switches, in order.
    #[must_use]
    pub fn switches(&self) -> &[SwitchRecord] {
        self.state.switches()
    }

    /// The live engine's accumulated usage time at tick `at`.
    #[must_use]
    pub fn usage_time_at(&self, at: Time) -> Cost {
        self.live.usage_time_at(at)
    }

    /// The shared Lemma-1 lower bound of the accepted stream.
    ///
    /// # Panics
    ///
    /// If the shadow worker died, as the operations do.
    #[must_use]
    pub fn lower_bound(&self) -> Cost {
        self.state.lower_bound().expect(SHADOWS_ALIVE)
    }

    /// Unwraps the live engine (dropping shadows and meta state), e.g.
    /// to snapshot a drained run as a `Packing`.
    #[must_use]
    pub fn into_live(self) -> LiveEngine<O> {
        self.live
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvbp_core::{LiveRequest, TimeMode, TraceMode};

    fn dv(units: &[u64]) -> DimVec {
        DimVec::from_slice(units)
    }

    fn portfolio(meta: MetaPolicy) -> PortfolioEngine {
        let live = LiveRequest::new(PolicyKind::NextFit)
            .capacity(dv(&[10]))
            .trace_mode(TraceMode::CostOnly)
            .time_mode(TimeMode::Strict)
            .build()
            .unwrap();
        PortfolioEngine::new(live, &[PolicyKind::FirstFit, PolicyKind::NextFit], meta, 0).unwrap()
    }

    /// A stream where NextFit strands capacity: the blocker fills a
    /// fresh bin and becomes current, so small follow-ups open new bins
    /// while FirstFit rides the first one.
    fn drive_blocker_phase(engine: &mut PortfolioEngine, base: Time) -> usize {
        let start = engine.live.items_seen();
        engine.arrive(dv(&[3]), base).unwrap(); // b_k everywhere
        engine.arrive(dv(&[10]), base + 1).unwrap(); // blocker, new bin
        engine.arrive(dv(&[3]), base + 2).unwrap(); // NF: new bin; FF: first
        start
    }

    #[test]
    fn static_meta_is_identical_to_a_plain_live_engine() {
        let mut plain = LiveEngine::new(
            dv(&[10]),
            &PolicyKind::NextFit,
            TraceMode::CostOnly,
            TimeMode::Strict,
        )
        .unwrap();
        let mut pf = portfolio(MetaPolicy::Static);
        let stream: [(&[u64], Time); 4] = [(&[6], 0), (&[9], 1), (&[4], 2), (&[2], 3)];
        for (size, t) in stream {
            assert_eq!(
                pf.arrive(dv(size), t).unwrap(),
                plain.arrive(dv(size), t).unwrap()
            );
        }
        for item in 0..4 {
            let d = pf.depart(item, 10 + item as Time).unwrap();
            assert_eq!(d.switched, None);
            assert_eq!(d.departure, plain.depart(item, 10 + item as Time).unwrap());
        }
        assert_eq!(pf.usage_time_at(20), plain.usage_time_at(20));
        assert!(pf.switches().is_empty());
    }

    #[test]
    fn switch_happens_only_at_a_bin_close() {
        let mut pf = portfolio(MetaPolicy::BestOf { window: 1 });
        let first = drive_blocker_phase(&mut pf, 0);
        // A departure that leaves its bin occupied must not switch.
        // (b0 holds only item `first`... it would close; depart the
        // blocker's bin-mate instead: blocker is alone, so depart a
        // NON-closing item: none here — use the NF-stranded item whose
        // bin it shares with nothing. So assert the closing case flips.)
        let out = pf.depart(first + 1, 5).unwrap(); // blocker alone -> closes
        assert!(out.departure.closed);
        assert_eq!(
            out.switched.as_ref().map(|s| s.to.as_str()),
            Some("FirstFit"),
            "bin close under best-of:1 adopts the cheaper shadow"
        );
        assert_eq!(pf.current_kind(), &PolicyKind::FirstFit);
        assert_eq!(pf.live().kind(), &PolicyKind::FirstFit);
        assert_eq!(pf.live().policy_switches(), 1);
    }

    #[test]
    fn no_close_no_switch() {
        let mut pf = portfolio(MetaPolicy::BestOf { window: 1 });
        pf.arrive(dv(&[4]), 0).unwrap(); // b0
        pf.arrive(dv(&[4]), 1).unwrap(); // b0 (NF current fits)
        pf.arrive(dv(&[9]), 2).unwrap(); // b1
        pf.arrive(dv(&[5]), 3).unwrap(); // b2 under NF (b1 current, full)
        let out = pf.depart(0, 4).unwrap(); // b0 keeps item 1: no close
        assert!(!out.departure.closed);
        assert_eq!(out.switched, None, "no bin-close boundary, no switch");
        assert_eq!(pf.current_kind(), &PolicyKind::NextFit);
    }

    #[test]
    fn scoreboard_tracks_both_candidates() {
        let mut pf = portfolio(MetaPolicy::Static);
        drive_blocker_phase(&mut pf, 0);
        let board = pf.scoreboard(4);
        assert_eq!(board.len(), 2);
        let ff = board.iter().find(|s| s.policy == "FirstFit").unwrap();
        let nf = board.iter().find(|s| s.policy == "NextFit").unwrap();
        assert!(ff.cost < nf.cost, "{board:?}");
        assert_eq!(pf.lower_bound(), ff.lb);
    }
}
