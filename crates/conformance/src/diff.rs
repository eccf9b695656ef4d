//! Differential runner: optimized engine vs. reference simulator, plus
//! the invariant suite.
//!
//! For one `(instance, policy)` pair the check layers are:
//!
//! 1. **differential** — [`dvbp_core::PackRequest`] and
//!    [`crate::reference::simulate`] must return *equal* packings:
//!    assignment, per-bin usage records, decision trace, and cost;
//! 2. **feasibility** — [`Packing::verify`]: per-slice capacity in every
//!    dimension and a single contiguous usage interval per bin;
//! 3. **Any Fit** — [`Packing::verify_any_fit`] for every full-candidate
//!    policy (all but Next Fit and the class-restricted clairvoyant);
//! 4. **forced index** — every kind whose bins come from the engine's
//!    feasibility queries (First, Best, Worst, Last and Random Fit) is
//!    packed again on an [`Engine`] pinned to [`FitPath::Index`], and
//!    the full packing must equal the default run: the fit index is a
//!    data-structure change only, and pinning it exercises the tree at
//!    every open-bin count, not just above the crossover;
//! 5. **cost-only identity** — re-running under
//!    [`TraceMode::CostOnly`] must reproduce the `Full` run's assignment,
//!    cost, and max concurrency (the mode skips bookkeeping, never
//!    decisions);
//! 6. **lower bounds** — `lb_span ≤ lb_load ≤ cost` (Lemma 1: the span
//!    bound is dominated by the load integral, and every online cost is
//!    at least the optimum, hence at least any lower bound on it);
//! 7. **observer replay** — re-running with a recording observer and
//!    replaying the event stream through
//!    [`dvbp_analysis::obs_ingest::replay_packing`] must reconstruct the
//!    live packing bit for bit (the observer feed is complete and
//!    hook-ordered, and observation never perturbs decisions). The same
//!    layer then re-runs under a
//!    [`ProvenanceObserver`](dvbp_obs::ProvenanceObserver): probe
//!    collection must not perturb the packing either, the provenance
//!    stream must still replay, total probes must equal the run's total
//!    scan count, and every `Decision` must agree with its placement
//!    (bin, open/existing, per-arrival probe count);
//! 8. **serving path** — see [`crate::serve`]: a one-shard `dvbp-serve`
//!    run must be bit-identical to the batch run, crash recovery from
//!    any WAL cut must converge to the same state, and sharded runs
//!    must verify per shard with additive cost ([`check_instance`] runs
//!    this layer with sampled crash cuts);
//! 9. **stream ≡ batch** — replaying the instance through
//!    [`InstanceSource`](dvbp_core::InstanceSource) via
//!    [`PackRequest::run_source`] must reproduce the batch packing bit
//!    for bit, under both `Full` and `CostOnly` trace modes (the
//!    constant-memory streaming path changes delivery, never
//!    decisions). Clairvoyant kinds are exempt: streamed items carry no
//!    announced durations and the stream entry points reject them;
//! 10. **repacking** — see [`crate::repack`]: live runs under the
//!     standard [`RepackPolicy`](dvbp_core::RepackPolicy) suite are
//!     audited by an independent event-stream checker (capacity,
//!     liveness, closure, Migrate provenance, cost accounting), with
//!     `NoRepack` pinned bit-identical to the batch engine. Clairvoyant
//!     kinds are exempt for the same reason as layer 9;
//! 11. **portfolio** — see [`crate::portfolio`]: shadow simulation must
//!     be pure observation. Every candidate's shadow cost must equal a
//!     standalone `CostOnly` run of that candidate bit for bit against
//!     the shared lower-bound anchor, and a `static`-meta
//!     [`PortfolioEngine`](dvbp_portfolio::PortfolioEngine) must be
//!     indistinguishable from the plain single-policy live path.
//!     Clairvoyant kinds are exempt (live candidates must be servable).

use crate::reference;
use dvbp_core::{Engine, FitPath, Instance, PackRequest, Packing, PolicyKind, TraceMode};
use dvbp_offline::lower_bounds::{lb_load, lb_span};
use std::fmt;

/// One conformance failure, with enough context to reproduce it.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Display name of the offending policy.
    pub policy: String,
    /// The [`PolicyKind`] that diverged (reproducers re-run it exactly).
    pub kind: PolicyKind,
    /// Which layer failed and how.
    pub detail: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.policy, self.detail)
    }
}

impl Divergence {
    pub(crate) fn new(kind: &PolicyKind, detail: String) -> Self {
        Divergence {
            policy: kind.name(),
            kind: kind.clone(),
            detail,
        }
    }
}

/// Describes the first difference between two packings, if any.
pub(crate) fn first_difference(fast: &Packing, slow: &Packing) -> Option<String> {
    if let Some(i) = (0..fast.assignment.len().min(slow.assignment.len()))
        .find(|&i| fast.assignment[i] != slow.assignment[i])
    {
        return Some(format!(
            "assignment[{i}]: engine {} vs reference {}",
            fast.assignment[i], slow.assignment[i]
        ));
    }
    if fast.assignment.len() != slow.assignment.len() {
        return Some(format!(
            "assignment length: engine {} vs reference {}",
            fast.assignment.len(),
            slow.assignment.len()
        ));
    }
    if fast.bins != slow.bins {
        return Some(format!(
            "bin usage records differ: engine {:?} vs reference {:?}",
            fast.bins, slow.bins
        ));
    }
    if let Some(i) =
        (0..fast.trace.len().min(slow.trace.len())).find(|&i| fast.trace[i] != slow.trace[i])
    {
        return Some(format!(
            "trace[{i}]: engine {:?} vs reference {:?}",
            fast.trace[i], slow.trace[i]
        ));
    }
    if fast.trace.len() != slow.trace.len() {
        return Some(format!(
            "trace length: engine {} vs reference {}",
            fast.trace.len(),
            slow.trace.len()
        ));
    }
    if fast.cost() != slow.cost() {
        return Some(format!(
            "cost: engine {} vs reference {}",
            fast.cost(),
            slow.cost()
        ));
    }
    None
}

/// Runs every check layer for one `(instance, kind)` pair.
///
/// # Errors
///
/// Returns the first [`Divergence`] found, layer by layer.
pub fn check_policy(instance: &Instance, kind: &PolicyKind) -> Result<(), Divergence> {
    let fast = PackRequest::new(kind.clone()).run(instance).unwrap();
    let slow = reference::simulate(instance, kind);

    if let Some(diff) = first_difference(&fast, &slow) {
        return Err(Divergence::new(kind, format!("differential: {diff}")));
    }
    if let Err(e) = fast.verify(instance) {
        return Err(Divergence::new(kind, format!("verify: {e}")));
    }
    if kind.is_full_candidate_any_fit() {
        if let Err(e) = fast.verify_any_fit(instance) {
            return Err(Divergence::new(kind, format!("any-fit: {e}")));
        }
    }
    if matches!(
        kind,
        PolicyKind::FirstFit
            | PolicyKind::BestFit(_)
            | PolicyKind::WorstFit(_)
            | PolicyKind::LastFit
            | PolicyKind::RandomFit { .. }
    ) {
        let indexed = Engine::new().with_fit_path(FitPath::Index).pack(
            instance,
            kind.build().as_mut(),
            TraceMode::Full,
        );
        if let Some(diff) = first_difference(&indexed, &fast) {
            return Err(Divergence::new(kind, format!("forced index: {diff}")));
        }
    }

    let cost_only = PackRequest::new(kind.clone())
        .trace_mode(TraceMode::CostOnly)
        .run(instance)
        .unwrap();
    if cost_only.assignment != fast.assignment {
        let i = (0..fast.assignment.len())
            .find(|&i| cost_only.assignment[i] != fast.assignment[i])
            .unwrap_or(0);
        return Err(Divergence::new(
            kind,
            format!(
                "cost-only: item {i} goes to {} under CostOnly but {} under Full",
                cost_only.assignment[i], fast.assignment[i]
            ),
        ));
    }
    if cost_only.cost() != fast.cost() {
        return Err(Divergence::new(
            kind,
            format!(
                "cost-only: cost {} vs Full cost {}",
                cost_only.cost(),
                fast.cost()
            ),
        ));
    }
    if cost_only.max_concurrent_bins() != fast.max_concurrent_bins() {
        return Err(Divergence::new(
            kind,
            format!(
                "cost-only: max concurrent bins {} vs Full {}",
                cost_only.max_concurrent_bins(),
                fast.max_concurrent_bins()
            ),
        ));
    }

    let mut recorder = dvbp_obs::Recorder::new();
    let observed = PackRequest::new(kind.clone())
        .observer(&mut recorder)
        .run(instance)
        .unwrap();
    if observed != fast {
        return Err(Divergence::new(
            kind,
            "observer replay: attaching an observer changed the packing".to_string(),
        ));
    }
    match dvbp_analysis::obs_ingest::replay_packing(&recorder.events) {
        Ok(replayed) => {
            if let Some(diff) = first_difference(&replayed, &fast) {
                return Err(Divergence::new(kind, format!("observer replay: {diff}")));
            }
        }
        Err(e) => {
            return Err(Divergence::new(
                kind,
                format!("observer replay: stream does not replay: {e}"),
            ));
        }
    }

    let mut prov = dvbp_obs::ProvenanceObserver::new();
    let prov_observed = PackRequest::new(kind.clone())
        .observer(&mut prov)
        .run(instance)
        .unwrap();
    if prov_observed != fast {
        return Err(Divergence::new(
            kind,
            "provenance: probe collection changed the packing".to_string(),
        ));
    }
    match dvbp_analysis::obs_ingest::replay_packing(&prov.events) {
        Ok(replayed) => {
            if let Some(diff) = first_difference(&replayed, &fast) {
                return Err(Divergence::new(kind, format!("provenance replay: {diff}")));
            }
        }
        Err(e) => {
            return Err(Divergence::new(
                kind,
                format!("provenance replay: stream does not replay: {e}"),
            ));
        }
    }
    let scanned_total: u64 = prov
        .events
        .iter()
        .map(|ev| match ev {
            dvbp_obs::ObsEvent::Place { scanned, .. } => *scanned,
            _ => 0,
        })
        .sum();
    if prov.total_probes() != scanned_total {
        return Err(Divergence::new(
            kind,
            format!(
                "provenance: {} probe events vs {} total scanned",
                prov.total_probes(),
                scanned_total
            ),
        ));
    }
    let explanations = dvbp_analysis::explain::explain_stream(&prov.events);
    if explanations.len() != fast.assignment.len() {
        return Err(Divergence::new(
            kind,
            format!(
                "provenance: {} decisions for {} placements",
                explanations.len(),
                fast.assignment.len()
            ),
        ));
    }
    for e in &explanations {
        if e.probes.len() as u64 != e.reported_probes {
            return Err(Divergence::new(
                kind,
                format!(
                    "provenance: item {} has {} probe events but Decision reports {}",
                    e.item,
                    e.probes.len(),
                    e.reported_probes
                ),
            ));
        }
        if fast.assignment[e.item].0 != e.bin {
            return Err(Divergence::new(
                kind,
                format!(
                    "provenance: Decision sends item {} to bin {} but the packing says {}",
                    e.item, e.bin, fast.assignment[e.item]
                ),
            ));
        }
    }

    if !matches!(
        kind,
        PolicyKind::DurationClassFirstFit | PolicyKind::AlignedFit
    ) {
        let mut source = dvbp_core::InstanceSource::new(instance)
            .expect("instance already validated by the batch run");
        let streamed = PackRequest::new(kind.clone())
            .run_source(&mut source)
            .map_err(|e| Divergence::new(kind, format!("stream: {e}")))?;
        if let Some(diff) = first_difference(&streamed, &fast) {
            return Err(Divergence::new(kind, format!("stream: {diff}")));
        }
        let mut source = dvbp_core::InstanceSource::new(instance)
            .expect("instance already validated by the batch run");
        let streamed_cost_only = PackRequest::new(kind.clone())
            .trace_mode(TraceMode::CostOnly)
            .run_source(&mut source)
            .map_err(|e| Divergence::new(kind, format!("stream cost-only: {e}")))?;
        if let Some(diff) = first_difference(&streamed_cost_only, &cost_only) {
            return Err(Divergence::new(kind, format!("stream cost-only: {diff}")));
        }
    }

    let span = lb_span(instance);
    let load = lb_load(instance);
    if span > load {
        return Err(Divergence::new(
            kind,
            format!("lower bounds: lb_span {span} > lb_load {load}"),
        ));
    }
    if load > fast.cost() {
        return Err(Divergence::new(
            kind,
            format!("lower bounds: lb_load {load} > cost {}", fast.cost()),
        ));
    }
    Ok(())
}

/// The policy suite applicable to `instance`: every [`PolicyKind`]
/// variant, with the clairvoyant kinds included only when all items carry
/// announced durations (they panic otherwise, by design).
#[must_use]
pub fn kinds_for(instance: &Instance, random_fit_seed: u64) -> Vec<PolicyKind> {
    use dvbp_core::LoadMeasure;
    let mut kinds = vec![
        PolicyKind::MoveToFront,
        PolicyKind::FirstFit,
        PolicyKind::NextFit,
        PolicyKind::BestFit(LoadMeasure::Linf),
        PolicyKind::BestFit(LoadMeasure::L1),
        PolicyKind::WorstFit(LoadMeasure::Linf),
        PolicyKind::LastFit,
        PolicyKind::RandomFit {
            seed: random_fit_seed,
        },
    ];
    if instance
        .items
        .iter()
        .all(|i| i.announced_duration.is_some())
    {
        kinds.push(PolicyKind::DurationClassFirstFit);
        kinds.push(PolicyKind::AlignedFit);
    }
    kinds
}

/// Checks the full applicable suite over one instance, including the
/// layer-8 serving checks ([`crate::serve`]) with deterministically
/// sampled crash cuts and the layer-10 repacking audit
/// ([`crate::repack`]) for every non-clairvoyant kind. The corpus
/// replay runs the exhaustive crash plan separately
/// (`tests/serve_recovery_corpus.rs`).
///
/// # Errors
///
/// Returns the first [`Divergence`] across the suite.
pub fn check_instance(instance: &Instance, random_fit_seed: u64) -> Result<(), Divergence> {
    for kind in kinds_for(instance, random_fit_seed) {
        check_policy(instance, &kind)?;
        crate::serve::check_policy(
            instance,
            &kind,
            crate::serve::CrashPlan::Sampled {
                seed: random_fit_seed,
            },
        )?;
        if !matches!(
            kind,
            PolicyKind::DurationClassFirstFit | PolicyKind::AlignedFit
        ) {
            for repack in crate::repack::SUITE {
                crate::repack::check_policy(instance, &kind, repack)?;
            }
        }
        crate::portfolio::check_policy(instance, &kind)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvbp_core::Item;
    use dvbp_dimvec::DimVec;

    #[test]
    fn clean_instance_passes_all_layers() {
        let inst = Instance::new(
            DimVec::scalar(10),
            vec![
                Item::new(DimVec::scalar(6), 0, 9).with_announced_duration(9),
                Item::new(DimVec::scalar(6), 1, 9).with_announced_duration(8),
                Item::new(DimVec::scalar(4), 2, 5).with_announced_duration(3),
            ],
        )
        .unwrap();
        check_instance(&inst, 7).unwrap();
    }

    #[test]
    fn clairvoyant_kinds_gated_on_announcements() {
        let bare =
            Instance::new(DimVec::scalar(10), vec![Item::new(DimVec::scalar(5), 0, 4)]).unwrap();
        assert_eq!(kinds_for(&bare, 0).len(), 8);
        let announced = dvbp_workloads::predictions::announce_exact(&bare);
        assert_eq!(kinds_for(&announced, 0).len(), 10);
    }
}
