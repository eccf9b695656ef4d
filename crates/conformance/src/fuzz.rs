//! Deterministic conformance fuzzer.
//!
//! Three workload families feed the differential check of [`crate::diff`]:
//!
//! * **uniform** — small instances from the paper's §7 model
//!   ([`UniformParams`]) with randomized `(d, n, μ, T, B)`;
//! * **adversarial** — the §6 lower-bound constructions (Thm 5/6/8),
//!   which release many equal-tick items in a crafted order and so
//!   exercise the tie-breaking rules hardest;
//! * **extended** — Zipf sizes, geometric durations, and bursty arrivals
//!   ([`ExtendedParams`]), stressing skewed loads and arrival spikes;
//! * **high-churn** — phases of mostly *blocker* items (over half a small
//!   bin in some dimension) separated by idle gaps that drain every bin.
//!   Many bins stay concurrently open within a phase and **all** of them
//!   close between phases, hammering the engine fit index's open → close
//!   → never-reopen lifecycle and its growth-by-doubling, at
//!   `d ∈ {1, 2, 8, 9}` (both `DimVec` representations);
//! * **equal-tick** — dense waves of one-tick stays (the materialized
//!   image of live zero-duration items under `TimeMode::Clamp`, which
//!   become `[a, a+1)`) interleaved with longer residents, every wave
//!   landing exactly on the previous wave's departure tick. Almost every
//!   placement is decided by the equal-tick rules (departures first,
//!   then item order), the edge where the live clamp semantics and the
//!   batch simulator must agree;
//! * **wide-dim** — `d ∈ {3, 7, 8, 12, 16}` blocker waves whose
//!   steady-state open-bin count straddles a lane boundary of the
//!   vectorized block scan (`LANES ± 1`, `2·LANES − 1`), so the mask
//!   kernel's remainder lanes and padding sentinels decide placements;
//!   light items then have to land in whatever residual the masks
//!   report feasible;
//! * **repack-churn** — big anchors paired with small stragglers, the
//!   anchors departing first: bins go nearly empty while neighbours
//!   hold residual room, so the layer-10 repack audit sees real
//!   migrations (drain and defrag both fire) instead of vacuously
//!   passing on migration-free runs;
//! * **regime-shift** — the workload distribution flips mid-stream:
//!   phases of heavy blockers (over half the bin) alternate with phases
//!   of light uniform items, separated by full-drain gaps. Each regime
//!   boundary is a burst of bin closes — exactly the decision points
//!   where a portfolio meta-policy may switch the live policy — and no
//!   single Any-Fit policy is best across both regimes, so the layer-11
//!   shadow-fidelity checks run against genuinely diverging scoreboards.
//!
//! Every instance is derived deterministically from its `(family, seed)`
//! pair, so a reported failure is reproducible from its seed alone even
//! before the shrunk trace file is consulted. Instances are kept small
//! (tens of items): the reference simulator is quadratic by design, and
//! small failures shrink to readable reproducers.

use crate::diff::{self, Divergence};
use crate::shrink;
use dvbp_core::{Instance, Item, LANES};
use dvbp_dimvec::DimVec;
use dvbp_workloads::adversarial::{AnyFitLb, MtfLb, NextFitLb};
use dvbp_workloads::extended::{ArrivalDist, DurationDist, ExtendedParams, SizeDist};
use dvbp_workloads::predictions::announce_exact;
use dvbp_workloads::uniform::UniformParams;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A workload family the fuzzer draws from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// The paper's uniform model, small parameters.
    Uniform,
    /// The §6 adversarial lower-bound constructions.
    Adversarial,
    /// Extended marginals: Zipf / geometric / bursty.
    Extended,
    /// Blocker-heavy phases with full-drain gaps, `d ∈ {1, 2, 8, 9}`.
    HighChurn,
    /// One-tick stays colliding with departures at every tick.
    EqualTick,
    /// High-dimensional blocker waves straddling block-scan lane
    /// boundaries, `d ∈ {3, 7, 8, 12, 16}`.
    WideDim,
    /// Big-anchor/small-straggler pairs whose anchors depart early,
    /// leaving nearly-empty bins next to bins with residual room — the
    /// shape that makes every repack policy actually migrate.
    RepackChurn,
    /// Alternating heavy-blocker / light-uniform phases with full-drain
    /// gaps: every regime boundary is a burst of bin closes, the
    /// switch points of the portfolio meta-policies.
    RegimeShift,
    /// Capacity components within 2^16 of `u64::MAX` and tens of
    /// concurrent items sized at fractions of it: the items active at
    /// one tick sum far past `u64`, which every lower bound and load
    /// total must add without overflow.
    HugeUnits,
}

impl Family {
    /// Stable name for reports and reproducer file names.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Family::Uniform => "uniform",
            Family::Adversarial => "adversarial",
            Family::Extended => "extended",
            Family::HighChurn => "highchurn",
            Family::EqualTick => "equaltick",
            Family::WideDim => "widedim",
            Family::RepackChurn => "repackchurn",
            Family::RegimeShift => "regimeshift",
            Family::HugeUnits => "hugeunits",
        }
    }
}

/// All families, in fuzzing order.
pub const FAMILIES: [Family; 9] = [
    Family::Uniform,
    Family::Adversarial,
    Family::Extended,
    Family::HighChurn,
    Family::EqualTick,
    Family::WideDim,
    Family::RepackChurn,
    Family::RegimeShift,
    Family::HugeUnits,
];

/// Small randomized base parameters shared by the uniform and extended
/// families.
fn small_base(rng: &mut StdRng) -> UniformParams {
    let span = rng.random_range(20..=60u64);
    UniformParams {
        dims: rng.random_range(1..=3usize),
        items: rng.random_range(10..=50usize),
        mu: rng.random_range(1..=span.min(10)),
        span,
        bin_size: rng.random_range(4..=12u64),
    }
}

/// Generates the instance for `(family, seed)`, with exact duration
/// announcements attached so the clairvoyant policies join the suite.
#[must_use]
pub fn generate(family: Family, seed: u64) -> Instance {
    let inst = match family {
        Family::Uniform => {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
            small_base(&mut rng).generate(seed)
        }
        Family::Adversarial => {
            let v = seed / 3;
            match seed % 3 {
                0 => AnyFitLb {
                    k: 1 + (v % 2) as usize,
                    d: 1 + (v / 2 % 2) as usize,
                    mu: 1 + v / 4 % 3,
                    m: 2 + v / 12 % 3,
                }
                .instance(),
                1 => NextFitLb {
                    k: 2 + 2 * (v % 2) as usize,
                    d: 1 + (v / 2 % 2) as usize,
                    mu: 1 + v / 4 % 4,
                }
                .instance(),
                _ => MtfLb {
                    n: 1 + (v % 4) as usize,
                    mu: 1 + v / 4 % 4,
                }
                .instance(),
            }
        }
        Family::Extended => {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0xa24b_aed4_963e_e407));
            let base = small_base(&mut rng);
            let sizes = match rng.random_range(0..3u32) {
                0 => SizeDist::Uniform,
                1 => SizeDist::Zipf { exponent: 1.2 },
                _ => SizeDist::Correlated {
                    spread: rng.random_range(0..=3u64),
                },
            };
            let durations = if rng.random_bool(0.5) {
                DurationDist::Uniform
            } else {
                DurationDist::Geometric { p: 0.3 }
            };
            let arrivals = if rng.random_bool(0.5) {
                ArrivalDist::Uniform
            } else {
                ArrivalDist::Bursty {
                    waves: rng.random_range(1..=4usize),
                    width: rng.random_range(0..=5u64),
                }
            };
            ExtendedParams {
                base,
                sizes,
                durations,
                arrivals,
            }
            .generate(seed)
        }
        Family::HighChurn => {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0xd6e8_feb8_6659_fd93));
            let dims = [1usize, 2, 8, 9][rng.random_range(0..4usize)];
            let cap = 10u64;
            let mut items = Vec::new();
            let mut t = 0u64;
            for _ in 0..rng.random_range(2..=3u32) {
                for _ in 0..rng.random_range(8..=20usize) {
                    let a = t + rng.random_range(0..=4u64);
                    let dur = rng.random_range(1..=6u64);
                    let size = DimVec::from_fn(dims, |_| {
                        if rng.random_bool(0.7) {
                            rng.random_range(6..=cap)
                        } else {
                            rng.random_range(1..=3)
                        }
                    });
                    items.push(Item::new(size, a, a + dur));
                }
                // Last arrival is t+4, last departure t+10; advancing by 12
                // leaves an idle gap, so every bin closes between phases.
                t += 12;
            }
            Instance::new(DimVec::splat(dims, cap), items).expect("high-churn instance valid")
        }
        Family::EqualTick => {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x2545_f491_4f6c_dd1d));
            let dims = rng.random_range(1..=2usize);
            let cap = 8u64;
            let mut items = Vec::new();
            // Consecutive-tick waves: each wave's one-tick stays depart
            // exactly when the next wave arrives, so every tick carries
            // departures and arrivals simultaneously.
            let waves = rng.random_range(6..=12u64);
            for t in 0..waves {
                for _ in 0..rng.random_range(2..=5usize) {
                    let size = DimVec::from_fn(dims, |_| rng.random_range(1..=cap.min(5)));
                    // Mostly one-tick stays (a clamped zero-duration
                    // item's shape); a few span several waves so bins
                    // stay populated across the collision ticks.
                    let dur = if rng.random_bool(0.7) {
                        1
                    } else {
                        rng.random_range(2..=4u64)
                    };
                    items.push(Item::new(size, t, t + dur));
                }
            }
            Instance::new(DimVec::splat(dims, cap), items).expect("equal-tick instance valid")
        }
        Family::WideDim => {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x94d0_49bb_1331_11eb));
            let dims = [3usize, 7, 8, 12, 16][rng.random_range(0..5usize)];
            let cap = 10u64;
            // Steady-state open-bin targets straddling the kernel's lane
            // boundaries: remainder lanes (below), exact blocks, and the
            // first lane of a second block.
            let target = [LANES - 1, LANES, LANES + 1, 2 * LANES - 1][rng.random_range(0..4usize)];
            let mut items = Vec::new();
            let mut t = 0u64;
            for _ in 0..2 {
                // One blocker per bin (over half the bin in every
                // dimension), arrivals staggered so the open count walks
                // through the lane boundary one bin at a time.
                for b in 0..target {
                    let a = t + (b as u64 % 3);
                    let dur = rng.random_range(4..=8u64);
                    let size = DimVec::from_fn(dims, |_| rng.random_range(6..=cap));
                    items.push(Item::new(size, a, a + dur));
                }
                // Light items that must land in whatever remainder the
                // mask kernel reports feasible (if any).
                for _ in 0..rng.random_range(2..=5usize) {
                    let a = t + rng.random_range(0..=4u64);
                    let dur = rng.random_range(1..=4u64);
                    let size = DimVec::from_fn(dims, |_| rng.random_range(1..=4u64));
                    items.push(Item::new(size, a, a + dur));
                }
                // Last arrival t+4, last departure t+12; the gap closes
                // every bin before the next wave.
                t += 14;
            }
            Instance::new(DimVec::splat(dims, cap), items).expect("wide-dim instance valid")
        }
        Family::RepackChurn => {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9fb2_1c65_1e98_df25));
            let dims = rng.random_range(1..=2usize);
            let cap = 10u64;
            let mut items = Vec::new();
            let mut t = 0u64;
            // Waves of anchor+straggler bins: the anchor (over half the
            // bin) departs well before its stragglers, so a drain or
            // defrag sweep finds a nearly-empty bin right next to bins
            // with residual room. A few long-lived light items keep
            // destination bins open across the migration window.
            for _ in 0..rng.random_range(2..=4u32) {
                for _ in 0..rng.random_range(2..=4usize) {
                    let anchor_dur = rng.random_range(2..=4u64);
                    let size = DimVec::from_fn(dims, |_| rng.random_range(6..=8u64));
                    items.push(Item::new(size, t, t + anchor_dur));
                    for _ in 0..rng.random_range(1..=2usize) {
                        let size = DimVec::from_fn(dims, |_| rng.random_range(1..=2u64));
                        let dur = anchor_dur + rng.random_range(2..=5u64);
                        items.push(Item::new(size, t + 1, t + 1 + dur));
                    }
                }
                for _ in 0..rng.random_range(1..=3usize) {
                    let size = DimVec::from_fn(dims, |_| rng.random_range(1..=3u64));
                    items.push(Item::new(size, t, t + rng.random_range(8..=12u64)));
                }
                t += rng.random_range(6..=10u64);
            }
            Instance::new(DimVec::splat(dims, cap), items).expect("repack-churn instance valid")
        }
        Family::RegimeShift => {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0xbf58_476d_1ce4_e5b9));
            let dims = rng.random_range(1..=2usize);
            let cap = 10u64;
            let mut items = Vec::new();
            let mut t = 0u64;
            let regimes = rng.random_range(2..=3u32);
            for r in 0..regimes {
                // Alternate which distribution leads so both orders
                // (heavy→light, light→heavy) are drawn across seeds.
                let heavy = (u64::from(r) + seed).is_multiple_of(2);
                for _ in 0..rng.random_range(8..=16usize) {
                    let a = t + rng.random_range(0..=3u64);
                    let dur = rng.random_range(1..=5u64);
                    let size = if heavy {
                        DimVec::from_fn(dims, |_| rng.random_range(6..=cap))
                    } else {
                        DimVec::from_fn(dims, |_| rng.random_range(1..=3u64))
                    };
                    items.push(Item::new(size, a, a + dur));
                }
                // Last arrival t+3, last departure t+8; the gap drains
                // every bin, so each regime boundary is a burst of
                // close events — the meta-policy's switch points.
                t += 10;
            }
            Instance::new(DimVec::splat(dims, cap), items).expect("regime-shift instance valid")
        }
        Family::HugeUnits => {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0xd6e8_feb8_6659_fd93));
            let dims = rng.random_range(1..=3usize);
            let cap = DimVec::from_fn(dims, |_| {
                u64::MAX - rng.random_range(0..=u64::from(u16::MAX))
            });
            let mut items = Vec::new();
            for _ in 0..rng.random_range(20..=60usize) {
                let a = rng.random_range(0..=20u64);
                let dur = rng.random_range(1..=10u64);
                // A half, third or quarter of the bin, give or take a few
                // units, so near-fits are decided by the low bits.
                let size = DimVec::from_fn(dims, |j| {
                    let share = cap[j] / rng.random_range(2..=4u64);
                    share - rng.random_range(0..=2u64) + rng.random_range(0..=1u64)
                });
                items.push(Item::new(size, a, a + dur));
            }
            Instance::new(cap, items).expect("huge-unit instance valid")
        }
    };
    announce_exact(&inst)
}

/// One fuzzer-found conformance failure, already minimized.
#[derive(Clone, Debug)]
pub struct FuzzFailure {
    /// Family the failing instance came from.
    pub family: Family,
    /// Generator seed of the failing instance.
    pub seed: u64,
    /// The divergence on the *shrunk* instance.
    pub divergence: Divergence,
    /// Delta-debugged minimal instance still exhibiting the divergence.
    pub shrunk: Instance,
}

/// Summary of one fuzzing campaign.
#[derive(Clone, Debug)]
pub struct FuzzReport {
    /// Seeds exercised per family.
    pub seeds: u64,
    /// Total `(instance, policy)` differential runs executed.
    pub runs: usize,
    /// Minimized failures, in discovery order.
    pub failures: Vec<FuzzFailure>,
}

/// Runs `seeds` seeds across every family, shrinking each failure.
///
/// `on_instance` is called once per generated instance (for progress
/// output); pass `|_, _| {}` to ignore.
#[must_use]
pub fn run(seeds: u64, mut on_instance: impl FnMut(Family, u64)) -> FuzzReport {
    let mut report = FuzzReport {
        seeds,
        runs: 0,
        failures: Vec::new(),
    };
    for seed in 0..seeds {
        for family in FAMILIES {
            on_instance(family, seed);
            let inst = generate(family, seed);
            report.runs += diff::kinds_for(&inst, seed).len();
            if let Err(_first) = diff::check_instance(&inst, seed) {
                let (shrunk, divergence) = shrink::shrink(&inst, seed);
                report.failures.push(FuzzFailure {
                    family,
                    seed,
                    divergence,
                    shrunk,
                });
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_family_and_seed() {
        for family in FAMILIES {
            let a = generate(family, 3);
            let b = generate(family, 3);
            assert_eq!(a, b, "{}", family.name());
        }
    }

    #[test]
    fn families_produce_distinct_instances() {
        let u = generate(Family::Uniform, 0);
        let a = generate(Family::Adversarial, 0);
        let e = generate(Family::Extended, 0);
        assert_ne!(u, a);
        assert_ne!(u, e);
    }

    #[test]
    fn high_churn_spans_both_dimvec_representations() {
        let mut dims_seen = std::collections::HashSet::new();
        for seed in 0..40 {
            dims_seen.insert(generate(Family::HighChurn, seed).dim());
        }
        assert!(
            dims_seen.iter().any(|&d| d >= 8),
            "no heap-DimVec dimensionality drawn: {dims_seen:?}"
        );
        assert!(
            dims_seen.iter().any(|&d| d <= 2),
            "no inline dimensionality drawn: {dims_seen:?}"
        );
    }

    #[test]
    fn equal_tick_family_collides_departures_with_arrivals() {
        for seed in 0..10 {
            let inst = generate(Family::EqualTick, seed);
            let one_tick = inst.items.iter().filter(|i| i.duration() == 1).count();
            assert!(
                one_tick * 2 >= inst.len(),
                "seed {seed}: only {one_tick}/{} one-tick stays",
                inst.len()
            );
            let arrivals: std::collections::HashSet<_> =
                inst.items.iter().map(|i| i.arrival).collect();
            assert!(
                inst.items.iter().any(|i| arrivals.contains(&i.departure)),
                "seed {seed}: no departure lands on an arrival tick"
            );
        }
    }

    #[test]
    fn repack_churn_family_actually_migrates() {
        // The family exists to exercise the layer-10 audit on real
        // migration plans; if no seed ever migrates, it is vacuous.
        let mut migrating_seeds = 0u32;
        for seed in 0..12 {
            let inst = generate(Family::RepackChurn, seed);
            let mut live = dvbp_core::LiveRequest::new(dvbp_core::PolicyKind::FirstFit)
                .capacity(inst.capacity.clone())
                .repack(dvbp_core::RepackPolicy::DrainOnDepart { k: 2 })
                .build()
                .unwrap();
            let mut source = dvbp_core::InstanceSource::new(&inst).unwrap();
            live.drive_source(&mut source).unwrap();
            if live.migrations() > 0 {
                migrating_seeds += 1;
            }
        }
        assert!(
            migrating_seeds >= 6,
            "only {migrating_seeds}/12 repack-churn seeds migrate"
        );
    }

    #[test]
    fn regime_shift_family_actually_flips_the_meta_policy() {
        // The family exists to hand the meta-policies genuinely
        // diverging scoreboards; if no seed ever makes a best-of
        // portfolio switch its live policy, it is vacuous.
        let mut switching_seeds = 0u32;
        for seed in 0..12 {
            let inst = generate(Family::RegimeShift, seed);
            let live = dvbp_core::LiveRequest::new(dvbp_core::PolicyKind::NextFit)
                .capacity(inst.capacity.clone())
                .trace_mode(dvbp_core::TraceMode::CostOnly)
                .items_hint(inst.items.len())
                .build()
                .unwrap();
            let mut pf = dvbp_portfolio::PortfolioEngine::new(
                live,
                &[
                    dvbp_core::PolicyKind::FirstFit,
                    dvbp_core::PolicyKind::NextFit,
                ],
                dvbp_portfolio::MetaPolicy::BestOf { window: 1 },
                inst.items.len(),
            )
            .unwrap();
            let mut ids = vec![usize::MAX; inst.items.len()];
            for op in dvbp_core::live_ops(&inst) {
                match op {
                    dvbp_core::LiveOp::Arrive { item, size, time } => {
                        ids[item] = pf.arrive(size, time).unwrap().item;
                    }
                    dvbp_core::LiveOp::Depart { item, time } => {
                        pf.depart(ids[item], time).unwrap();
                    }
                }
            }
            if !pf.switches().is_empty() {
                switching_seeds += 1;
            }
        }
        assert!(
            switching_seeds >= 6,
            "only {switching_seeds}/12 regime-shift seeds switch"
        );
    }

    #[test]
    fn instances_are_announced_for_clairvoyant_kinds() {
        for family in FAMILIES {
            let inst = generate(family, 1);
            assert!(
                inst.items.iter().all(|i| i.announced_duration.is_some()),
                "{}",
                family.name()
            );
        }
    }
}
