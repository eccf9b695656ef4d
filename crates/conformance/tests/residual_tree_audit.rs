//! Targeted audit of the fit index's update and query paths.
//!
//! The engine updates the index's segment tree at four sites — a bin
//! opens (`open`, which grows the leaf level by doubling), an item packs
//! (subtract), an item departs (add back) and a bin closes (zero). Each
//! test shapes an instance family so one of those paths dominates, runs
//! every Any-Fit query kind on an engine pinned to the fit index (the
//! default crossover would scan at these open-bin counts), and requires
//! exact agreement with both the scalar-scan run and the reference
//! simulator.

use dvbp_conformance::reference;
use dvbp_core::{Engine, FitPath, Instance, Item, LoadMeasure, Packing, PolicyKind, TraceMode};
use dvbp_dimvec::DimVec;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn pack_on(inst: &Instance, kind: &PolicyKind, path: FitPath) -> Packing {
    Engine::new()
        .with_fit_path(path)
        .pack(inst, kind.build().as_mut(), TraceMode::Full)
}

fn check(inst: &Instance, case: &str) {
    for kind in [
        PolicyKind::FirstFit,
        PolicyKind::LastFit,
        PolicyKind::BestFit(LoadMeasure::Linf),
        PolicyKind::WorstFit(LoadMeasure::Linf),
        PolicyKind::RandomFit { seed: 3 },
    ] {
        let indexed = pack_on(inst, &kind, FitPath::Index);
        let scalar = pack_on(inst, &kind, FitPath::Scalar);
        assert_eq!(indexed, scalar, "{case}: {kind:?} index vs scalar");
        let slow = reference::simulate(inst, &kind);
        assert_eq!(indexed, slow, "{case}: {kind:?} index vs reference");
    }
}

/// Growth path: every item blocks sharing, so the bin count (and the
/// tree's leaf count) doubles past 1, 2, 4, …, 64 within one run.
#[test]
fn tree_growth_across_many_doublings() {
    let items: Vec<Item> = (0..100u64)
        .map(|t| Item::new(DimVec::scalar(6), t, t + 200))
        .collect();
    let inst = Instance::new(DimVec::scalar(10), items).unwrap();
    check(&inst, "growth");
}

/// Departure path: long-lived slivers keep bins open while large items
/// come and go, so residuals oscillate between nearly-empty and full.
#[test]
fn residual_oscillation_under_churn() {
    let mut items = Vec::new();
    for b in 0..6u64 {
        items.push(Item::new(DimVec::scalar(1), 0, 100 + b));
    }
    for round in 0..10u64 {
        for b in 0..6u64 {
            let a = 1 + round * 8 + b;
            items.push(Item::new(DimVec::scalar(9), a, a + 4));
        }
    }
    let inst = Instance::new(DimVec::scalar(10), items).unwrap();
    check(&inst, "churn");
}

/// Close path: waves of bins all close at once, then a new wave arrives
/// at the same tick; stale (non-zeroed) leaves would resurrect them.
#[test]
fn mass_closure_then_same_tick_arrivals() {
    let mut items = Vec::new();
    for wave in 0..5u64 {
        let a = wave * 10;
        for _ in 0..8 {
            items.push(Item::new(DimVec::scalar(7), a, a + 10));
        }
    }
    let inst = Instance::new(DimVec::scalar(10), items).unwrap();
    check(&inst, "closure");
}

/// Randomized sweep over the whole surface: many seeds, sizes spanning
/// sliver-to-full, durations spanning instant-to-run-length.
#[test]
fn randomized_audit_sweep() {
    for seed in 0..25u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.random_range(20..=120usize);
        let cap = rng.random_range(4..=16u64);
        let items: Vec<Item> = (0..n)
            .map(|_| {
                let a = rng.random_range(0..50u64);
                let dur = rng.random_range(1..=30u64);
                Item::new(DimVec::scalar(rng.random_range(1..=cap)), a, a + dur)
            })
            .collect();
        let inst = Instance::new(DimVec::scalar(cap), items).unwrap();
        check(&inst, &format!("seed {seed}"));
    }
}
