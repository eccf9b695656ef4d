//! Integration of the observer stack with the real engine.
//!
//! The golden guarantee: the event stream an observer sees is complete
//! and consistent enough to reconstruct the run — and the summary
//! statistics `MetricsObserver` keeps incrementally agree with the
//! ground truth computed from the finished `Packing`.

use dvbp_core::{Instance, Item, PackRequest, PolicyKind};
use dvbp_dimvec::DimVec;
use dvbp_obs::{MetricsObserver, ObsEvent, ProvenanceObserver, Recorder};
use proptest::prelude::*;

fn instances() -> impl Strategy<Value = Instance> {
    (1usize..=3, 1usize..=40).prop_flat_map(|(d, n)| {
        let cap = 20u64;
        let item = (prop::collection::vec(1u64..=cap, d), 0u64..50, 1u64..=20)
            .prop_map(move |(size, a, dur)| Item::new(DimVec::from_slice(&size), a, a + dur));
        prop::collection::vec(item, n).prop_map(move |items| {
            Instance::new(DimVec::splat(d, cap), items).expect("generated instance valid")
        })
    })
}

fn suite() -> Vec<PolicyKind> {
    PolicyKind::paper_suite(99)
}

/// Re-announces every item's exact duration so the clairvoyant policies
/// can run on a generated instance.
fn announce(inst: &Instance) -> Instance {
    Instance::new(
        inst.capacity.clone(),
        inst.items
            .iter()
            .map(|it| {
                it.clone()
                    .with_announced_duration(it.departure - it.arrival)
            })
            .collect(),
    )
    .unwrap()
}

/// The full policy roster, clairvoyant kinds included.
fn all_kinds() -> Vec<PolicyKind> {
    let mut kinds = suite();
    kinds.push(PolicyKind::DurationClassFirstFit);
    kinds.push(PolicyKind::AlignedFit);
    kinds
}

proptest! {
    /// MetricsObserver's incrementally-maintained peak concurrency
    /// equals the Packing's sweep-line answer, and its counters balance.
    #[test]
    fn metrics_agree_with_packing_ground_truth(inst in instances()) {
        for kind in suite() {
            let mut metrics = MetricsObserver::new();
            let packing = PackRequest::new(kind.clone())
                .observer(&mut metrics)
                .run(&inst)
                .unwrap();
            prop_assert_eq!(metrics.max_concurrent_bins(), packing.max_concurrent_bins());
            prop_assert_eq!(metrics.arrivals as usize, inst.len());
            prop_assert_eq!(metrics.departures, metrics.arrivals);
            prop_assert_eq!(metrics.bins_opened as usize, packing.num_bins());
            prop_assert_eq!(metrics.bins_closed, metrics.bins_opened);
            prop_assert_eq!(metrics.open_bins(), 0);
        }
    }

    /// The recorded event stream is well-formed: hook ordering per item
    /// and per bin, one Place per arrival, balanced opens/closes.
    #[test]
    fn event_stream_is_well_formed(inst in instances()) {
        let mut rec = Recorder::new();
        PackRequest::new(PolicyKind::FirstFit)
            .observer(&mut rec)
            .run(&inst)
            .unwrap();
        let ev = &rec.events;
        prop_assert!(matches!(ev.first(), Some(ObsEvent::RunStart { .. })));
        prop_assert!(matches!(ev.last(), Some(ObsEvent::RunEnd { .. })));
        let mut open = 0i64;
        let mut placed = vec![false; inst.len()];
        let mut last_arrival: Option<usize> = None;
        for e in ev {
            match e {
                ObsEvent::Arrival { item, .. } => last_arrival = Some(*item),
                ObsEvent::BinOpen { .. } => open += 1,
                ObsEvent::Place { item, opened_new, .. } => {
                    // Every Place follows its own Arrival, and a BinOpen
                    // intervenes exactly when `opened_new` says so.
                    prop_assert_eq!(last_arrival, Some(*item));
                    prop_assert!(!placed[*item]);
                    placed[*item] = true;
                    let _ = opened_new;
                }
                ObsEvent::BinClose { .. } => open -= 1,
                _ => {}
            }
            prop_assert!(open >= 0);
        }
        prop_assert_eq!(open, 0);
        prop_assert!(placed.iter().all(|&p| p));
    }

    /// Probe ≡ scanned, on every policy: the probe events a
    /// `ProvenanceObserver` collects are exactly the candidate
    /// examinations `MetricsObserver` counts from `Place.scanned` —
    /// in total, and per arrival against each `Decision` — and probe
    /// collection never perturbs the packing.
    #[test]
    fn provenance_probes_equal_metrics_scans(inst in instances()) {
        let inst = announce(&inst);
        for kind in all_kinds() {
            let plain = PackRequest::new(kind.clone()).run(&inst).unwrap();
            let mut metrics = MetricsObserver::new();
            let mut prov = ProvenanceObserver::new();
            let mut stack = (&mut metrics, &mut prov);
            let observed = PackRequest::new(kind.clone())
                .observer(&mut stack)
                .run(&inst)
                .unwrap();
            prop_assert_eq!(&observed, &plain, "{}", kind.name());
            prop_assert_eq!(prov.total_probes(), metrics.total_scanned, "{}", kind.name());
            let mut per_arrival = 0u64;
            let mut decisions = 0usize;
            for e in &prov.events {
                match e {
                    ObsEvent::Arrival { .. } => per_arrival = 0,
                    ObsEvent::Probe { .. } => per_arrival += 1,
                    ObsEvent::Decision { probes, .. } => {
                        decisions += 1;
                        prop_assert_eq!(*probes, per_arrival, "{}", kind.name());
                    }
                    _ => {}
                }
            }
            prop_assert_eq!(decisions, inst.len(), "{}", kind.name());
        }
    }
}

/// Observers do not perturb placement: runs with and without the full
/// observer stack produce identical packings (golden zero-interference
/// check, every paper policy).
#[test]
fn observation_never_changes_the_packing() {
    let inst = Instance::new(
        DimVec::from_slice(&[10, 10]),
        vec![
            Item::new(DimVec::from_slice(&[7, 2]), 0, 10),
            Item::new(DimVec::from_slice(&[2, 7]), 2, 5),
            Item::new(DimVec::from_slice(&[3, 3]), 4, 6),
            Item::new(DimVec::from_slice(&[9, 9]), 6, 12),
            Item::new(DimVec::from_slice(&[1, 1]), 7, 9),
        ],
    )
    .unwrap();
    for kind in suite() {
        let plain = PackRequest::new(kind.clone()).run(&inst).unwrap();
        let mut metrics = MetricsObserver::new();
        let mut rec = Recorder::new();
        let mut stack = (&mut metrics, &mut rec);
        let observed = PackRequest::new(kind.clone())
            .observer(&mut stack)
            .run(&inst)
            .unwrap();
        assert_eq!(observed, plain, "{}", kind.name());
    }
}
