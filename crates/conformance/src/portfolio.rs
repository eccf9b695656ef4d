//! Layer 11: portfolio dispatch conformance.
//!
//! The shadow portfolio must be *pure observation*: running candidates
//! next to the live engine may never change what the live engine does,
//! and each shadow must be exactly the engine it claims to simulate.
//! For one `(instance, kind)` pair this layer checks:
//!
//! * **shadow fidelity** — after driving the canonical feed through a
//!   [`PortfolioEngine`], every candidate's shadow cost equals a
//!   standalone [`TraceMode::CostOnly`] `LiveEngine` run of that
//!   candidate over the same accepted stream, bit for bit (`Cost` is
//!   `u128`; no tolerance), and the shared lower-bound anchor is
//!   identical for every row;
//! * **static identity** — under [`MetaPolicy::Static`] the portfolio's
//!   live engine is indistinguishable from a plain single-policy
//!   `LiveEngine`: every placement and departure outcome matches, no
//!   switch is ever applied, and the drained [`dvbp_core::Packing`]s are equal
//!   (assignment, usage records, cost).
//!
//! Clairvoyant kinds ([`PolicyKind::DurationClassFirstFit`],
//! [`PolicyKind::AlignedFit`]) are exempt: live candidates must be
//! servable, and the portfolio rejects them by design.

use crate::diff::{first_difference, Divergence};
use dvbp_core::{live_ops, Instance, LiveEngine, LiveOp, LiveRequest, PolicyKind, TraceMode};
use dvbp_portfolio::{MetaPolicy, PortfolioEngine};

/// The candidate set layer 11 shadows next to `kind`: two cheap
/// always-on baselines plus the live kind itself (deduplicated by the
/// engine). Small on purpose — every kind in the suite takes a turn as
/// the live policy, so fidelity is still checked for all of them.
pub(crate) fn candidates(kind: &PolicyKind) -> Vec<PolicyKind> {
    let mut set = vec![PolicyKind::FirstFit, PolicyKind::NextFit];
    if !set.contains(kind) {
        set.push(kind.clone());
    }
    set
}

/// Runs the layer-11 checks for one `(instance, kind)` pair.
///
/// # Errors
///
/// Returns the first [`Divergence`] found.
pub fn check_policy(instance: &Instance, kind: &PolicyKind) -> Result<(), Divergence> {
    if matches!(
        kind,
        PolicyKind::DurationClassFirstFit | PolicyKind::AlignedFit
    ) {
        return Ok(());
    }
    let ops = live_ops(instance);
    let shadows = candidates(kind);

    // Portfolio under Static meta, next to a plain single-policy engine.
    let live = LiveRequest::new(kind.clone())
        .capacity(instance.capacity.clone())
        .trace_mode(TraceMode::CostOnly)
        .items_hint(instance.items.len())
        .build()
        .map_err(|e| Divergence::new(kind, format!("portfolio: live boot: {e}")))?;
    let mut pf = PortfolioEngine::new(live, &shadows, MetaPolicy::Static, instance.items.len())
        .map_err(|e| Divergence::new(kind, format!("portfolio: boot: {e}")))?;
    let mut plain = LiveRequest::new(kind.clone())
        .capacity(instance.capacity.clone())
        .trace_mode(TraceMode::CostOnly)
        .items_hint(instance.items.len())
        .build()
        .map_err(|e| Divergence::new(kind, format!("portfolio: plain boot: {e}")))?;

    // Standalone CostOnly engines, one per candidate, fed the same
    // accepted stream — the ground truth every shadow must hit exactly.
    let mut standalone: Vec<(PolicyKind, LiveEngine)> = shadows
        .iter()
        .map(|c| {
            LiveRequest::new(c.clone())
                .capacity(instance.capacity.clone())
                .trace_mode(TraceMode::CostOnly)
                .items_hint(instance.items.len())
                .build()
                .map(|eng| (c.clone(), eng))
                .map_err(|e| Divergence::new(kind, format!("portfolio: standalone {c:?}: {e}")))
        })
        .collect::<Result<_, _>>()?;

    // `live_ops` names items by instance index; every engine here
    // assigns its own dense arrival-order index. All of them see the
    // same arrival sequence, so one translation map serves them all.
    let mut ids = vec![usize::MAX; instance.items.len()];
    for op in &ops {
        match op {
            LiveOp::Arrive { item, size, time } => {
                let got = pf
                    .arrive(size.clone(), *time)
                    .map_err(|e| Divergence::new(kind, format!("portfolio: arrive: {e}")))?;
                ids[*item] = got.item;
                let want = plain
                    .arrive(size.clone(), *time)
                    .map_err(|e| Divergence::new(kind, format!("portfolio: plain arrive: {e}")))?;
                if got != want {
                    return Err(Divergence::new(
                        kind,
                        format!(
                            "portfolio: static-meta placement of item {item} diverged: \
                             portfolio {got:?} vs plain {want:?}"
                        ),
                    ));
                }
                for (_, eng) in &mut standalone {
                    eng.arrive(size.clone(), *time).map_err(|e| {
                        Divergence::new(kind, format!("portfolio: standalone arrive: {e}"))
                    })?;
                }
            }
            LiveOp::Depart { item, time } => {
                let got = pf
                    .depart(ids[*item], *time)
                    .map_err(|e| Divergence::new(kind, format!("portfolio: depart: {e}")))?;
                if let Some(s) = got.switched {
                    return Err(Divergence::new(
                        kind,
                        format!("portfolio: static meta-policy switched: {s:?}"),
                    ));
                }
                let want = plain
                    .depart(ids[*item], *time)
                    .map_err(|e| Divergence::new(kind, format!("portfolio: plain depart: {e}")))?;
                if got.departure != want {
                    return Err(Divergence::new(
                        kind,
                        format!(
                            "portfolio: static-meta departure of item {item} diverged: \
                             portfolio {:?} vs plain {want:?}",
                            got.departure
                        ),
                    ));
                }
                for (_, eng) in &mut standalone {
                    eng.depart(ids[*item], *time).map_err(|e| {
                        Divergence::new(kind, format!("portfolio: standalone depart: {e}"))
                    })?;
                }
            }
        }
    }

    // Shadow fidelity: scoreboard costs vs the standalone ground truth,
    // at the portfolio's final tick.
    let at = pf.live().now();
    let board = pf.scoreboard(at);
    if board.len() != standalone.len() {
        return Err(Divergence::new(
            kind,
            format!(
                "portfolio: {} scoreboard rows for {} candidates",
                board.len(),
                standalone.len()
            ),
        ));
    }
    let lb = pf.lower_bound();
    for (row, (cand, eng)) in board.iter().zip(&standalone) {
        if row.policy != cand.spec() {
            return Err(Divergence::new(
                kind,
                format!(
                    "portfolio: scoreboard row {:?} out of candidate order (expected {})",
                    row.policy,
                    cand.spec()
                ),
            ));
        }
        let want = eng.usage_time_at(at);
        if row.cost != want {
            return Err(Divergence::new(
                kind,
                format!(
                    "portfolio: shadow {} cost {} vs standalone CostOnly cost {want}",
                    row.policy, row.cost
                ),
            ));
        }
        if row.lb != lb {
            return Err(Divergence::new(
                kind,
                format!(
                    "portfolio: shadow {} anchored to lb {} instead of the shared {lb}",
                    row.policy, row.lb
                ),
            ));
        }
    }

    // Drained packings must be equal too — same bins, same usage
    // records, same cost (the canonical feed departs every item).
    if pf.live().policy_switches() != 0 {
        return Err(Divergence::new(
            kind,
            "portfolio: static meta-policy recorded live switches".to_string(),
        ));
    }
    let pf_packing = pf
        .into_live()
        .into_packing()
        .map_err(|e| Divergence::new(kind, format!("portfolio: drain: {e}")))?;
    let plain_packing = plain
        .into_packing()
        .map_err(|e| Divergence::new(kind, format!("portfolio: plain drain: {e}")))?;
    if let Some(diff) = first_difference(&pf_packing, &plain_packing) {
        return Err(Divergence::new(kind, format!("portfolio: {diff}")));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvbp_core::Item;
    use dvbp_dimvec::DimVec;

    fn sample() -> Instance {
        Instance::new(
            DimVec::from_slice(&[10, 10]),
            vec![
                Item::new(DimVec::from_slice(&[7, 2]), 0, 10),
                Item::new(DimVec::from_slice(&[2, 7]), 2, 5),
                Item::new(DimVec::from_slice(&[3, 3]), 4, 6),
                Item::new(DimVec::from_slice(&[9, 9]), 6, 12),
                Item::new(DimVec::from_slice(&[1, 1]), 7, 9),
            ],
        )
        .unwrap()
    }

    #[test]
    fn layer_passes_for_the_servable_suite() {
        let inst = sample();
        for kind in crate::diff::kinds_for(&inst, 3) {
            check_policy(&inst, &kind).unwrap();
        }
    }

    #[test]
    fn clairvoyant_kinds_are_exempt() {
        let inst = sample();
        check_policy(&inst, &PolicyKind::DurationClassFirstFit).unwrap();
        check_policy(&inst, &PolicyKind::AlignedFit).unwrap();
    }
}
