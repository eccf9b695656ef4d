//! Tier-1 differential conformance: a bounded, deterministic slice of the
//! fuzzer runs on every `cargo test`. The full campaign is
//! `cargo run -p dvbp-conformance -- --seeds 200` (also run in CI).

use dvbp_conformance::{diff, fuzz, reference};
use dvbp_core::{Instance, Item, PackRequest, PolicyKind};
use dvbp_dimvec::DimVec;
use dvbp_workloads::predictions::{announce_exact, announce_noisy};
use dvbp_workloads::uniform::UniformParams;

#[test]
fn bounded_fuzz_finds_no_divergence() {
    let report = fuzz::run(12, |_, _| {});
    assert!(
        report.failures.is_empty(),
        "divergences: {:#?}",
        report
            .failures
            .iter()
            .map(|f| format!("{} seed {}: {}", f.family.name(), f.seed, f.divergence))
            .collect::<Vec<_>>()
    );
    // 12 seeds × families × 10 policies (all instances are announced).
    assert_eq!(report.runs, 12 * fuzz::FAMILIES.len() * 10);
}

/// The paper's own Table 2 corner (d = 1, μ = 200, n = 1000) through the
/// full suite once: big enough to exercise hundreds of concurrent bins
/// and the fit index's growth, small enough for one tier-1 run.
#[test]
fn table2_extreme_point_conforms() {
    let inst = announce_exact(&UniformParams::table2(1, 200).generate(42));
    diff::check_instance(&inst, 42).unwrap();
}

/// Noisy duration predictions (announced ≠ true) are the one input shape
/// the fuzzer's `announce_exact` never produces; the clairvoyant policies
/// must still conform when their announcements lie.
#[test]
fn noisy_announcements_conform() {
    for seed in 0..6u64 {
        let base = UniformParams {
            dims: 2,
            items: 40,
            mu: 8,
            span: 40,
            bin_size: 10,
        }
        .generate(seed);
        let noisy = announce_noisy(&base, 1.5, seed);
        diff::check_instance(&noisy, seed).unwrap();
    }
}

/// Reference and engine agree on the degenerate but legal extremes:
/// exact-capacity items (every bin holds one item) and 1-unit slivers
/// (maximal sharing).
#[test]
fn degenerate_extremes_conform() {
    let full = Instance::new(
        DimVec::scalar(7),
        (0..10u64)
            .map(|t| Item::new(DimVec::scalar(7), t, t + 3))
            .collect(),
    )
    .unwrap();
    diff::check_instance(&full, 0).unwrap();

    let slivers = Instance::new(
        DimVec::scalar(7),
        (0..30u64)
            .map(|t| Item::new(DimVec::scalar(1), t / 3, t / 3 + 2))
            .collect(),
    )
    .unwrap();
    diff::check_instance(&slivers, 0).unwrap();
}

/// A dirty live feed whose zero-duration items (depart timestamp equal
/// to the arrival's) run under `TimeMode::Clamp` must land exactly on
/// the batch packing of the clamped instance, where each such item is
/// the one-tick stay `[a, a+1)` — the live clamp changes timestamps,
/// never placements.
#[test]
fn live_clamp_zero_duration_matches_batch_one_tick_stays() {
    use dvbp_core::{live_ops, LiveEngine, LiveOp, TimeMode, TraceMode};
    let items: Vec<Item> = (0..20u64)
        .map(|i| {
            let a = i / 2;
            // Odd items are the clamped image of zero-duration arrivals.
            let dur = if i % 2 == 0 { 3 } else { 1 };
            Item::new(DimVec::scalar(2 + i % 4), a, a + dur)
        })
        .collect();
    let clamped = Instance::new(DimVec::scalar(8), items).unwrap();
    for kind in PolicyKind::paper_suite(9) {
        let batch = PackRequest::new(kind.clone()).run(&clamped).unwrap();
        let mut live = LiveEngine::new(
            clamped.capacity.clone(),
            &kind,
            TraceMode::Full,
            TimeMode::Clamp,
        )
        .unwrap();
        let mut local = std::collections::HashMap::new();
        for op in live_ops(&clamped) {
            match op {
                LiveOp::Arrive { item, size, time } => {
                    local.insert(item, live.arrive(size, time).unwrap().item);
                }
                LiveOp::Depart { item, time } => {
                    // Re-dirty the feed: one-tick stays depart at their
                    // own arrival tick, as the raw trace had them.
                    let dirty = if clamped.items[item].duration() == 1 {
                        time - 1
                    } else {
                        time
                    };
                    live.depart(local[&item], dirty).unwrap();
                }
            }
        }
        let packing = live.into_packing().unwrap();
        assert_eq!(packing, batch, "{}", kind.name());
    }
}

/// Direct spot-check that the reference itself equals the engine on a
/// policy with internal state that survives closings (Move To Front).
#[test]
fn reference_equals_engine_on_mtf_churn() {
    // Heavy churn: bins open and close repeatedly so the MRU order is
    // pruned many times.
    let items: Vec<Item> = (0..24u64)
        .map(|i| {
            let a = i % 8;
            Item::new(DimVec::scalar(3 + (i % 5)), a, a + 1 + (i % 3))
        })
        .collect();
    let inst = Instance::new(DimVec::scalar(10), items).unwrap();
    let fast = PackRequest::new(PolicyKind::MoveToFront)
        .run(&inst)
        .unwrap();
    let slow = reference::simulate(&inst, &PolicyKind::MoveToFront);
    assert_eq!(fast, slow);
}
