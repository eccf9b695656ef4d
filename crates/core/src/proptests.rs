//! Property tests over randomly generated instances for every policy.

use crate::{
    Engine, FitPath, Instance, Item, LoadMeasure, PackRequest, Packing, PolicyKind, TraceMode,
};
use dvbp_dimvec::DimVec;
use proptest::prelude::*;

// Non-deprecated stand-ins for the legacy crate-root shims.
fn pack_with(instance: &Instance, kind: &PolicyKind) -> Packing {
    PackRequest::new(kind.clone()).run(instance).unwrap()
}

fn pack_with_mode(instance: &Instance, kind: &PolicyKind, mode: TraceMode) -> Packing {
    PackRequest::new(kind.clone())
        .trace_mode(mode)
        .run(instance)
        .unwrap()
}

/// Strategy: a random valid instance with `d ∈ [1,4]`, up to 40 items,
/// sizes in `[1, cap]`, arrivals in `[0, 50]`, durations in `[1, 20]`.
fn instances() -> impl Strategy<Value = Instance> {
    (1usize..=4, 1usize..=40).prop_flat_map(|(d, n)| {
        let cap = 20u64;
        let item = (prop::collection::vec(1u64..=cap, d), 0u64..50, 1u64..=20)
            .prop_map(move |(size, a, dur)| Item::new(DimVec::from_slice(&size), a, a + dur));
        prop::collection::vec(item, n).prop_map(move |items| {
            Instance::new(DimVec::splat(d, cap), items).expect("generated instance valid")
        })
    })
}

/// Strategy: scalar (d = 1) instances with a small capacity so bins fill,
/// close, and reopen often — the regime where the engine's fit index
/// does real work.
fn instances_1d() -> impl Strategy<Value = Instance> {
    (1usize..=60).prop_flat_map(|n| {
        let cap = 10u64;
        let item = (1u64..=cap, 0u64..50, 1u64..=20)
            .prop_map(move |(size, a, dur)| Item::new(DimVec::scalar(size), a, a + dur));
        prop::collection::vec(item, n).prop_map(move |items| {
            Instance::new(DimVec::scalar(cap), items).expect("generated instance valid")
        })
    })
}

/// Strategy: high-dimensional instances (`d ∈ {8, 9}`) straddling
/// [`dvbp_dimvec::INLINE_DIMS`], so both the inline and the heap `DimVec`
/// representations flow through the fit index.
fn instances_hd() -> impl Strategy<Value = Instance> {
    (8usize..=9, 1usize..=30).prop_flat_map(|(d, n)| {
        let cap = 12u64;
        let item = (prop::collection::vec(1u64..=cap, d), 0u64..40, 1u64..=15)
            .prop_map(move |(size, a, dur)| Item::new(DimVec::from_slice(&size), a, a + dur));
        prop::collection::vec(item, n).prop_map(move |items| {
            Instance::new(DimVec::splat(d, cap), items).expect("generated instance valid")
        })
    })
}

/// One item's random draw: per-dimension raw values, arrival, duration.
fn item_draw(d: usize) -> impl Strategy<Value = (Vec<u64>, u64, u64)> {
    (prop::collection::vec(0u64..1 << 20, d), 0u64..50, 1u64..=20)
}

/// Builds an instance over `cap` whose item `i` has size
/// `size(c_j, raw_j)` per dimension (at least one unit somewhere).
fn scaled_instance(
    cap: &[u64],
    draws: Vec<(Vec<u64>, u64, u64)>,
    size: impl Fn(u64, u64) -> u64,
) -> Instance {
    let items = draws
        .into_iter()
        .map(|(raw, a, dur)| {
            let mut units: Vec<u64> = cap.iter().zip(raw).map(|(&c, r)| size(c, r)).collect();
            if units.iter().all(|&u| u == 0) {
                units[0] = 1;
            }
            Item::new(DimVec::from_slice(&units), a, a + dur)
        })
        .collect();
    Instance::new(DimVec::from_slice(cap), items).expect("generated instance valid")
}

/// Strategy: independent capacity components in `1..=40` at
/// `d ∈ 1..=4 ∪ {8, 9}` (`d = 9` puts `DimVec` on the heap), so the
/// exact L∞ key's scale `L / c_j` differs per dimension; sizes in
/// `0..=c_j`, zero components included.
fn instances_unequal_cap() -> impl Strategy<Value = Instance> {
    let dims = (0usize..6).prop_map(|k| [1, 2, 3, 4, 8, 9][k]);
    (dims, 1usize..=40).prop_flat_map(|(d, n)| {
        (
            prop::collection::vec(1u64..=40, d),
            prop::collection::vec(item_draw(d), n),
        )
            .prop_map(|(cap, draws)| scaled_instance(&cap, draws, |c, raw| raw % (c + 1)))
    })
}

/// Strategy: pairwise-coprime capacity components `c, c + 1[, c + 2]`
/// (`c` odd, above 2^33), whose lcm exceeds `u64::MAX`, so the L∞
/// queries take the per-bin loop; sizes are whole multiples of
/// `c_j / 40` up to half the capacity, plus up to 3 units, so bins hold
/// several items.
fn instances_coprime_cap() -> impl Strategy<Value = Instance> {
    (2u64..=3, (1u64 << 32)..(1 << 33), 1usize..=40).prop_flat_map(|(d, half, n)| {
        let cap: Vec<u64> = (0..d).map(|j| 2 * half + 1 + j).collect();
        prop::collection::vec(item_draw(d as usize), n).prop_map(move |draws| {
            scaled_instance(&cap, draws, |c, raw| (c / 40) * (raw % 21) + raw % 4)
        })
    })
}

/// The Any-Fit kinds whose bins come from the engine's feasibility
/// queries, with every load measure for Best/Worst Fit.
fn query_kinds() -> Vec<PolicyKind> {
    let mut kinds = vec![
        PolicyKind::FirstFit,
        PolicyKind::LastFit,
        PolicyKind::RandomFit { seed: 5 },
    ];
    for m in [
        LoadMeasure::Linf,
        LoadMeasure::L1,
        LoadMeasure::L2,
        LoadMeasure::Lp(3),
    ] {
        kinds.push(PolicyKind::BestFit(m));
        kinds.push(PolicyKind::WorstFit(m));
    }
    kinds
}

/// Packs `inst` with every query kind on the fit index and on the block
/// scan and asserts full `Packing` equality. The index is pinned: the
/// default crossover would scan on instances this small and the
/// comparison would be vacuous.
fn assert_indexed_matches_scan(inst: &Instance) -> Result<(), TestCaseError> {
    for kind in query_kinds() {
        let [indexed, scanned] = [FitPath::Index, FitPath::Block].map(|path| {
            Engine::new()
                .with_fit_path(path)
                .pack(inst, kind.build().as_mut(), TraceMode::Full)
        });
        prop_assert_eq!(indexed, scanned, "{}", kind.name());
    }
    Ok(())
}

/// Records the full observer event stream of one run on `path` (no
/// probe sink, so the block-scan kernel and the tree stay active).
fn record_events(inst: &Instance, kind: &PolicyKind, path: FitPath) -> Vec<dvbp_obs::ObsEvent> {
    let mut rec = dvbp_obs::Recorder::new();
    Engine::new()
        .with_fit_path(path)
        .run(inst, kind.build().as_mut(), TraceMode::CostOnly, &mut rec)
        .expect("generated instance valid");
    rec.events
}

/// The vectorized block scan and the tree must be *observer*-identical
/// to the scalar loop, not just placement-identical: `Place.scanned`
/// counts (the provenance layer's `Σ scanned == #Probe` currency) are
/// reproduced from the hit position, so the whole event streams must
/// match.
fn assert_block_scan_events_match_scalar(inst: &Instance) -> Result<(), TestCaseError> {
    for kind in query_kinds() {
        let scalar = record_events(inst, &kind, FitPath::Scalar);
        for path in [FitPath::Block, FitPath::Index] {
            let events = record_events(inst, &kind, path);
            prop_assert_eq!(&events, &scalar, "{} on {:?}", kind.name(), path);
        }
    }
    Ok(())
}

/// The migrating repack policies exercised by the live-run properties.
/// `period: 1` sweeps at every natural close and `budget: 12` covers a
/// whole small bin, so the defrag arm migrates often on these strategies.
fn repack_policies() -> [crate::RepackPolicy; 2] {
    [
        crate::RepackPolicy::DrainOnDepart { k: 2 },
        crate::RepackPolicy::BudgetedDefrag {
            budget: 12,
            period: 1,
        },
    ]
}

/// Drives `inst` live under `repack` recording the full observer stream,
/// then replays that stream with independent accounting. Properties
/// enforced at every event: per-dimension capacity holds after each
/// `Place` and `Migrate`; a `Migrate` only moves a currently active item
/// between two distinct open bins; bins close empty and never take load
/// (or reopen) afterwards.
fn audit_live_repack(inst: &Instance, repack: crate::RepackPolicy) -> Result<(), TestCaseError> {
    use dvbp_obs::ObsEvent;

    let mut live = crate::LiveRequest::new(PolicyKind::FirstFit)
        .capacity(inst.capacity.clone())
        .repack(repack)
        .observer(dvbp_obs::Recorder::new())
        .build()
        .expect("FirstFit live engine builds");
    let mut source = crate::InstanceSource::new(inst).expect("generated instance valid");
    live.drive_source(&mut source).expect("live drive succeeds");
    let (_, rec) = live.into_parts().expect("all items departed");

    let d = inst.dim();
    let cap = inst.capacity.as_slice();
    let mut sizes: Vec<Vec<u64>> = Vec::new(); // by live (arrival-order) item index
    let mut active: Vec<bool> = Vec::new();
    let mut loads: Vec<Vec<u64>> = Vec::new(); // by bin index
    let mut open: Vec<bool> = Vec::new();
    let mut ever_closed: Vec<bool> = Vec::new();

    for ev in &rec.events {
        match ev {
            ObsEvent::Arrival { item, size, .. } => {
                prop_assert_eq!(*item, sizes.len(), "live indices are dense");
                sizes.push(size.clone());
                active.push(true);
            }
            ObsEvent::BinOpen { bin, .. } => {
                if *bin >= loads.len() {
                    loads.resize(*bin + 1, vec![0; d]);
                    open.resize(*bin + 1, false);
                    ever_closed.resize(*bin + 1, false);
                }
                prop_assert!(!ever_closed[*bin], "bin {} reopened after closing", bin);
                open[*bin] = true;
            }
            ObsEvent::Place { item, bin, .. } => {
                prop_assert!(open[*bin], "placed into unopened bin {}", bin);
                for j in 0..d {
                    loads[*bin][j] += sizes[*item][j];
                    prop_assert!(
                        loads[*bin][j] <= cap[j],
                        "place of {} overflows bin {} dim {}",
                        item,
                        bin,
                        j
                    );
                }
            }
            ObsEvent::Depart { item, bin, .. } => {
                prop_assert!(active[*item], "item {} departed twice", item);
                active[*item] = false;
                for j in 0..d {
                    prop_assert!(loads[*bin][j] >= sizes[*item][j], "bin {} underflow", bin);
                    loads[*bin][j] -= sizes[*item][j];
                }
            }
            ObsEvent::Migrate { item, from, to, .. } => {
                prop_assert!(active[*item], "migrated departed item {}", item);
                prop_assert_ne!(*from, *to, "self-migration");
                prop_assert!(open[*to], "migrated into closed bin {}", to);
                for j in 0..d {
                    prop_assert!(loads[*from][j] >= sizes[*item][j], "bin {} underflow", from);
                    loads[*from][j] -= sizes[*item][j];
                    loads[*to][j] += sizes[*item][j];
                    prop_assert!(
                        loads[*to][j] <= cap[j],
                        "migration of {} overflows bin {} dim {}",
                        item,
                        to,
                        j
                    );
                }
            }
            ObsEvent::BinClose { bin, .. } => {
                prop_assert!(
                    loads[*bin].iter().all(|&l| l == 0),
                    "bin {} closed while loaded",
                    bin
                );
                open[*bin] = false;
                ever_closed[*bin] = true;
            }
            _ => {}
        }
    }
    prop_assert!(active.iter().all(|a| !a), "items still active at run end");
    Ok(())
}

fn all_kinds() -> Vec<PolicyKind> {
    let mut kinds = PolicyKind::paper_suite(99);
    kinds.push(PolicyKind::BestFit(crate::LoadMeasure::L1));
    kinds.push(PolicyKind::BestFit(crate::LoadMeasure::L2));
    kinds.push(PolicyKind::WorstFit(crate::LoadMeasure::L1));
    kinds
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every policy produces a feasible, internally consistent packing.
    #[test]
    fn packings_always_valid(inst in instances()) {
        for kind in all_kinds() {
            let p = pack_with(&inst, &kind);
            prop_assert!(p.verify(&inst).is_ok(), "{}: {:?}", kind.name(), p.verify(&inst));
        }
    }

    /// Full-candidate policies never open a bin while one fits.
    #[test]
    fn any_fit_property_holds(inst in instances()) {
        for kind in all_kinds().into_iter().filter(PolicyKind::is_full_candidate_any_fit) {
            let p = pack_with(&inst, &kind);
            prop_assert!(p.verify_any_fit(&inst).is_ok(), "{}", kind.name());
        }
    }

    /// cost ≥ span for every policy (Lemma 1(iii) applied to the
    /// algorithm's own packing).
    #[test]
    fn cost_at_least_span(inst in instances()) {
        let span = inst.span();
        for kind in all_kinds() {
            let p = pack_with(&inst, &kind);
            prop_assert!(p.cost() >= span, "{}: {} < {span}", kind.name(), p.cost());
        }
    }

    /// The number of bins any policy opens is at most the number of items,
    /// and at least the number needed at the busiest instant.
    #[test]
    fn bin_count_sane(inst in instances()) {
        for kind in all_kinds() {
            let p = pack_with(&inst, &kind);
            prop_assert!(p.num_bins() <= inst.len());
            prop_assert!(p.num_bins() >= 1 || inst.is_empty());
            prop_assert!(p.max_concurrent_bins() <= p.num_bins());
        }
    }

    /// Every item is assigned to a bin whose usage period covers the
    /// item's active interval.
    #[test]
    fn usage_covers_items(inst in instances()) {
        let p = pack_with(&inst, &PolicyKind::MoveToFront);
        for (i, item) in inst.items.iter().enumerate() {
            let usage = p.bins[p.assignment[i].0].usage();
            prop_assert!(usage.covers(&item.interval()));
        }
    }

    /// Next Fit opens at least as many bins as First Fit... is NOT a
    /// theorem — but Next Fit's cost is never lower than the span and the
    /// single-current-bin invariant holds: bins receive disjoint,
    /// consecutive runs of the item sequence **ordered by packing time**.
    #[test]
    fn next_fit_packs_consecutive_runs(inst in instances()) {
        let p = pack_with(&inst, &PolicyKind::NextFit);
        // Reconstruct packing order from the trace; each Packed event's bin
        // must be the same as, or newer than, every later... i.e. the bin
        // sequence of packing events never returns to an abandoned bin.
        let mut seen_after: Option<usize> = None;
        let mut current = usize::MAX;
        for ev in &p.trace {
            if let crate::TraceEvent::Packed { bin, .. } = ev {
                if bin.0 != current {
                    if let Some(prev_max) = seen_after {
                        prop_assert!(bin.0 > prev_max, "Next Fit returned to an old bin");
                    }
                    seen_after = Some(seen_after.map_or(bin.0, |m| m.max(bin.0)));
                    current = bin.0;
                }
            }
        }
    }

    /// The fit-index query path is a pure data-structure change: for every
    /// query policy the indexed and scanning runs produce identical
    /// packings (assignment, trace, and cost), with equal capacity
    /// components, unequal ones, and ones whose L∞ key scale overflows.
    #[test]
    fn indexed_matches_scan(
        inst in instances(),
        unequal in instances_unequal_cap(),
        coprime in instances_coprime_cap(),
    ) {
        for inst in [&inst, &unequal, &coprime] {
            assert_indexed_matches_scan(inst)?;
        }
    }

    /// Same identity on high-churn d = 1 instances, where bins fill,
    /// close and reopen often and the tree's update paths do real work.
    #[test]
    fn indexed_matches_scan_1d(inst in instances_1d()) {
        assert_indexed_matches_scan(&inst)?;
    }

    /// Same identity at `d ∈ {8, 9}` — across the `DimVec` inline/heap
    /// boundary, where the pruning descent backtracks most.
    #[test]
    fn indexed_matches_scan_high_dim(inst in instances_hd()) {
        assert_indexed_matches_scan(&inst)?;
    }

    /// Block-scan and tree runs emit byte-identical observer streams to
    /// scalar runs, `Place.scanned` included, on the three capacity
    /// families of `indexed_matches_scan`.
    #[test]
    fn block_scan_events_match_scalar(
        inst in instances(),
        unequal in instances_unequal_cap(),
        coprime in instances_coprime_cap(),
    ) {
        for inst in [&inst, &unequal, &coprime] {
            assert_block_scan_events_match_scalar(inst)?;
        }
    }

    /// Same stream identity at `d ∈ {8, 9}` (remainder rows of the SoA
    /// mirror's lane-padded layout).
    #[test]
    fn block_scan_events_match_scalar_high_dim(inst in instances_hd()) {
        assert_block_scan_events_match_scalar(&inst)?;
    }

    /// `TraceMode::CostOnly` skips bookkeeping, not decisions: assignment,
    /// cost, and max concurrency agree with a `Full` run.
    #[test]
    fn cost_only_matches_full(inst in instances()) {
        for kind in all_kinds() {
            let full = pack_with_mode(&inst, &kind, TraceMode::Full);
            let cost_only = pack_with_mode(&inst, &kind, TraceMode::CostOnly);
            prop_assert_eq!(&full.assignment, &cost_only.assignment, "{}", kind.name());
            prop_assert_eq!(full.cost(), cost_only.cost(), "{}", kind.name());
            prop_assert_eq!(
                full.max_concurrent_bins(),
                cost_only.max_concurrent_bins(),
                "{}", kind.name()
            );
        }
    }

    /// `max_concurrent_bins()` (sweep-line over bin usage intervals)
    /// equals the high-water mark of open bins derived from the trace.
    #[test]
    fn max_concurrent_bins_matches_trace(inst in instances()) {
        for kind in all_kinds() {
            let p = pack_with(&inst, &kind);
            let mut open = 0usize;
            let mut high_water = 0usize;
            for ev in &p.trace {
                match ev {
                    crate::TraceEvent::Packed { opened_new: true, .. } => {
                        open += 1;
                        high_water = high_water.max(open);
                    }
                    crate::TraceEvent::Closed { .. } => open -= 1,
                    crate::TraceEvent::Packed { .. } | crate::TraceEvent::Migrated { .. } => {}
                }
            }
            prop_assert_eq!(p.max_concurrent_bins(), high_water, "{}", kind.name());
        }
    }

    /// High-churn 1-d live runs under every migrating repack policy:
    /// migrations never violate capacity, never move a departed item,
    /// and never touch a closed bin (the small capacity keeps bins
    /// filling, draining, and closing, so plans actually execute).
    #[test]
    fn repack_respects_capacity_and_liveness_1d(inst in instances_1d()) {
        for repack in repack_policies() {
            audit_live_repack(&inst, repack)?;
        }
    }

    /// The same live-run invariants on multi-dimensional instances,
    /// where a migration destination must fit in *every* dimension.
    #[test]
    fn repack_respects_capacity_and_liveness(inst in instances()) {
        for repack in repack_policies() {
            audit_live_repack(&inst, repack)?;
        }
    }

    /// `Packing::cost()` (the sum of per-bin usage lengths, eq. 1) equals
    /// the sweep-line integral `∫ |open bins at t| dt` over the bins'
    /// usage intervals — the two spellings of the objective agree.
    #[test]
    fn cost_equals_open_bin_integral(inst in instances()) {
        for kind in all_kinds() {
            let p = pack_with(&inst, &kind);
            let usages: Vec<dvbp_sim::Interval> =
                p.bins.iter().map(crate::BinUsage::usage).collect();
            let mut integral: dvbp_sim::Cost = 0;
            dvbp_sim::sweep::sweep(&usages, |slice| {
                integral += slice.active.len() as dvbp_sim::Cost
                    * dvbp_sim::Cost::from(slice.interval.len());
            });
            prop_assert_eq!(p.cost(), integral, "{}", kind.name());
        }
    }
}
