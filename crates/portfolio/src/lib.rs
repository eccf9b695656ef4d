//! `dvbp-portfolio` — shadow-policy portfolio dispatch with an adaptive
//! meta-policy.
//!
//! The paper fixes one Any-Fit policy for a whole run, but no single
//! policy wins across workload families, and an operator cannot know
//! the family in advance. This crate runs the *whole candidate
//! portfolio* next to the live engine:
//!
//! * [`ShadowSet`] — the candidate list plus one
//!   [`EngineSet`](dvbp_core::EngineSet): a bare cost-only engine per
//!   candidate [`PolicyKind`] behind one feed of the exact stream the
//!   live engine accepted, each scoring a running competitive ratio
//!   against the one Lemma-1 lower bound folded from that feed.
//! * [`MetaPolicy`] — `static` (never switch), `best-of:window`
//!   (periodic adoption of the cheapest shadow), and `switch:threshold`
//!   (hysteresis-guarded adoption whenever the live policy trails the
//!   best shadow by more than a relative threshold).
//! * [`PortfolioState`] — the shared decision state `dvbp-serve` shards
//!   journal switches from: it counts a departure's bin closes, asks the
//!   meta-policy, and switches the live engine. WAL recovery re-runs it
//!   over the journaled operations and checks its switches against the
//!   journal. Its shadows run on a worker thread of their own, fed
//!   through a bounded in-order queue; every read of them waits for the
//!   queue to drain.
//! * [`PortfolioEngine`] — the standalone live-engine wrapper used by
//!   benches, property tests, and the conformance harness.
//!
//! Switches happen **only at bin-close boundaries**: no placed item is
//! ever invalidated, the incoming policy adopts the surviving open set
//! deterministically ([`dvbp_core::Policy::on_adopt`]), and the whole
//! switch history re-derives bit-for-bit from the journal.

mod engine;
mod meta;
mod shadow;
mod state;
mod worker;

pub use engine::{PortfolioDeparture, PortfolioEngine};
pub use meta::{
    MetaPolicy, ParseMetaError, DEFAULT_BEST_OF_WINDOW, DEFAULT_SWITCH_THRESHOLD_PCT,
    SWITCH_COOLDOWN_CLOSES,
};
pub use shadow::{ShadowScore, ShadowSet};
pub use state::{PortfolioError, PortfolioState, SwitchRecord};
pub use worker::WAKE_AT;

use dvbp_core::PolicyKind;

/// Parses a `--portfolio` candidate list: `paper` (the seven-algorithm
/// suite of §7, Random Fit seeded 0) or a comma-separated list of
/// policy spellings (`FirstFit,MoveToFront,BestFit[Linf]`). Clairvoyant
/// kinds are rejected later, at shadow construction.
///
/// # Errors
///
/// The offending spelling's parse error, as a display string.
pub fn parse_candidates(spec: &str) -> Result<Vec<PolicyKind>, String> {
    if spec == "paper" {
        // The paper suite contains the clairvoyant-free seven; live
        // candidates must also exclude none of them (all are live-safe).
        return Ok(PolicyKind::paper_suite(0));
    }
    spec.split(',')
        .map(|p| p.trim().parse::<PolicyKind>().map_err(|e| e.to_string()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_candidates_accepts_paper_and_lists() {
        assert_eq!(parse_candidates("paper").unwrap().len(), 7);
        assert_eq!(
            parse_candidates("FirstFit, MoveToFront").unwrap(),
            vec![PolicyKind::FirstFit, PolicyKind::MoveToFront]
        );
        assert!(parse_candidates("FirstFit,NoSuchFit").is_err());
    }
}
