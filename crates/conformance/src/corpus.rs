//! The curated seed corpus: regression instances committed under the
//! repository's `tests/corpus/` and replayed by a tier-1 test.
//!
//! Two kinds of entries live in the corpus:
//!
//! * **seed entries** (this module) — hand-built and generator-derived
//!   instances targeting the engine's sharpest edges: fit-index growth
//!   and closure (reached at any open-bin count through the
//!   forced-index differential pass), equal-tick departure/arrival
//!   races, and the §6 adversarial tie-breaking sequences. Regenerate
//!   the files with `dvbp-conformance --write-seed-corpus`;
//! * **shrunk reproducers** — written automatically by the fuzzer when a
//!   divergence is found (`div-<family>-seed<N>-<policy>.json`). None
//!   exist while the engine conforms; any that appear must be committed
//!   and kept green forever.

use dvbp_core::{Instance, Item};
use dvbp_dimvec::DimVec;
use dvbp_workloads::adversarial::{AnyFitLb, MtfLb, NextFitLb};
use dvbp_workloads::extended::{ArrivalDist, DurationDist, ExtendedParams, SizeDist};
use dvbp_workloads::predictions::announce_exact;
use dvbp_workloads::uniform::UniformParams;

fn item(size: &[u64], a: u64, e: u64) -> Item {
    Item::new(DimVec::from_slice(size), a, e)
}

/// Drives the fit index's residual tree (pinned on by the forced-index
/// differential pass) through two capacity doublings (1 → 2 → 4 → 8
/// leaves) while bins fill, drain, and close, then packs into the
/// survivors — the exact paths a stale tree node would corrupt.
fn residual_tree_growth() -> Instance {
    let mut items = Vec::new();
    // Five 6-unit blockers open five bins (6 + 6 > 10): the tree must
    // grow past the 4-leaf boundary, preserving earlier residuals.
    for t in 0..5u64 {
        items.push(item(&[6], t, 20));
    }
    // Fillers that first-fit into the earliest bins with room.
    items.push(item(&[4], 5, 12)); // bin 0 -> full
    items.push(item(&[4], 6, 12)); // bin 1 -> full
    items.push(item(&[3], 7, 20)); // bin 2 -> residual 1
                                   // After the fillers depart at 12, bins 0 and 1 have room again.
    items.push(item(&[2], 13, 18));
    items.push(item(&[2], 14, 18));
    // Everything is gone by 20; these must open fresh bins, not match
    // the closed ones through a stale tree entry.
    items.push(item(&[5], 21, 25));
    items.push(item(&[5], 22, 25));
    Instance::new(DimVec::scalar(10), items).expect("hand-built instance is valid")
}

/// A bin closing at the exact tick another item arrives: the departing
/// item's capacity must not be offered to the arrival (closed bins are
/// dead), and the residual tree must be zeroed before the query.
fn residual_tree_close_race() -> Instance {
    let items = vec![
        item(&[10], 0, 5), // fills bin 0, departs at 5
        item(&[2], 4, 6),  // bin 0 is full -> opens bin 1
        item(&[10], 5, 9), // arrives as bin 0 closes; must open bin 2
        item(&[8], 5, 6),  // fits bin 1 (2 + 8 = 10)
        item(&[1], 9, 12), // everything closed or full history; fresh bin
    ];
    Instance::new(DimVec::scalar(10), items).expect("hand-built instance is valid")
}

/// A burst of equal-tick arrivals followed by equal-tick departures
/// interleaved with arrivals at the same tick — the tie-breaking rules
/// (departures first, then item order) decide every placement.
fn equal_tick_burst() -> Instance {
    let items = vec![
        item(&[5], 0, 3),
        item(&[4], 0, 3),
        item(&[3], 0, 3),
        item(&[2], 0, 6),
        item(&[5], 0, 6),
        item(&[4], 0, 3),
        // Arrive exactly as the t = 3 departures free capacity.
        item(&[6], 3, 6),
        item(&[6], 3, 6),
        item(&[2], 3, 6),
    ];
    Instance::new(DimVec::scalar(8), items).expect("hand-built instance is valid")
}

/// Linf ties in two dimensions: loads (6,0) and (0,6) measure equal, so
/// Best/Worst Fit must fall back to the earliest-bin rule.
fn multidim_tiebreak() -> Instance {
    let items = vec![
        item(&[6, 1], 0, 10),
        item(&[1, 6], 0, 10),
        item(&[3, 3], 1, 5),
        item(&[3, 3], 2, 5),
        item(&[4, 4], 3, 8),
    ];
    Instance::new(DimVec::from_slice(&[10, 10]), items).expect("hand-built instance is valid")
}

/// Two-dimensional fit-index growth with closes interleaved: bins open
/// past the 4-leaf boundary while earlier bins close, so the doubling
/// rebuild must copy live residuals and keep closed leaves pinned at 0.
fn fitindex_growth_close_2d() -> Instance {
    let items = vec![
        // Wave 1: three mutually exclusive blockers -> bins 0..2.
        item(&[7, 2], 0, 6),
        item(&[2, 7], 0, 9),
        item(&[6, 6], 1, 12),
        // Bin 0 drains at 6 and closes; growth continues past it.
        item(&[7, 7], 7, 14),  // fits no survivor -> bin 3
        item(&[9, 1], 8, 14),  // bin 4: crosses the 4-leaf boundary
        item(&[1, 9], 9, 14),  // only bin 4 has room ([10, 10])
        item(&[3, 3], 10, 13), // first fit lands in bin 1
        // Everything drains by 14; these must not resurrect closed leaves.
        item(&[5, 5], 15, 18),
        item(&[5, 5], 16, 18),
    ];
    Instance::new(DimVec::from_slice(&[10, 10]), items).expect("hand-built instance is valid")
}

/// Nine-dimensional open → drain → idle-gap → fresh-arrival cycles: after
/// each gap every bin is closed, so the fit index must never surface the
/// old bins even though their leaves once held near-full residuals.
fn reopen_gap_d9() -> Instance {
    let d = 9;
    let blocker = |t: u64, hot: usize, e: u64| {
        Item::new(DimVec::from_fn(d, |j| if j == hot { 6 } else { 1 }), t, e)
    };
    let mut items = Vec::new();
    for cycle in 0..3u64 {
        let t = cycle * 20;
        // Two blockers hot in dimension 0 cannot share a bin; the third,
        // hot in dimension 1, fits alongside either.
        items.push(blocker(t, 0, t + 8));
        items.push(blocker(t + 1, 0, t + 8));
        items.push(blocker(t + 2, 1, t + 6));
        items.push(Item::new(DimVec::splat(d, 1), t + 3, t + 7));
        // Idle until the next cycle: every bin closes.
    }
    Instance::new(DimVec::splat(d, 10), items).expect("hand-built instance is valid")
}

/// An anchor departure that strands two small stragglers in a
/// two-dimensional bin while a long-lived neighbor has room for both:
/// `DrainOnDepart{k: 2}` must migrate the pair (all-or-nothing, in
/// index order) and close the drained bin, so the committed replay
/// pins layer 10's audit on a real multi-item vector-capacity plan —
/// and pins `NoRepack` to the batch packing on the same trace.
fn repack_drain_stragglers() -> Instance {
    let items = vec![
        item(&[7, 5], 0, 4),  // bin 0 anchor; its departure triggers the drain
        item(&[2, 2], 1, 9),  // bin 0 straggler (migrates first)
        item(&[1, 2], 2, 8),  // bin 0 straggler (fits only after the first move)
        item(&[6, 6], 1, 10), // bin 1: the destination, (6,6)+(2,2)+(1,2) = (9,10)
    ];
    Instance::new(DimVec::from_slice(&[10, 10]), items).expect("hand-built instance is valid")
}

/// Natural closes pace a `BudgetedDefrag{period: 2}` sweep: the second
/// close (at t = 5) finds a one-item bin whose resident fits a later
/// bin, so the sweep drains it at L1 cost — while `DrainOnDepart`
/// migrates the same item one tick earlier from the departure boundary.
/// One committed trace exercises both trigger paths of layer 10.
fn repack_defrag_sweep() -> Instance {
    let items = vec![
        item(&[9], 0, 2),  // bin 0, sole item; closes at 2 (first natural close)
        item(&[8], 0, 4),  // bin 1 anchor
        item(&[2], 1, 9),  // bin 1 straggler (8 + 2 = 10)
        item(&[9], 1, 5),  // bin 2, sole item; closing at 5 fires the sweep
        item(&[3], 3, 10), // bin 3: the only destination with room
    ];
    Instance::new(DimVec::scalar(10), items).expect("hand-built instance is valid")
}

/// The minimal switch-on-close shape: a full-bin blocker forces NextFit
/// to strand a tail item in a fresh bin while FirstFit would reuse the
/// earliest bin, so the blocker's close (the first close of the run)
/// hands a `best-of:1` portfolio a strictly better FirstFit shadow and
/// the live policy flips exactly there — never between placements. The
/// post-switch arrival then lands where only FirstFit would put it.
fn portfolio_switch_on_close() -> Instance {
    let items = vec![
        item(&[3], 0, 8),  // bin 0 resident
        item(&[10], 1, 3), // bin 1 blocker; its close at 3 is the switch point
        item(&[3], 2, 8),  // NextFit: bin 1 full -> bin 2; FirstFit: bin 0
        item(&[4], 4, 8),  // post-switch probe: FirstFit packs bin 0 (3+3+4)
    ];
    Instance::new(DimVec::scalar(10), items).expect("hand-built instance is valid")
}

/// The hysteresis guard earning its keep: NextFit falls more than 10%
/// behind FirstFit at the second bin close — inside the
/// `SWITCH_COOLDOWN_CLOSES` guard, so `switch:10` must hold — and by the
/// time the cooldown expires the long-lived base bins have diluted the
/// constant absolute gap below the threshold, so the run ends with the
/// transient regret recorded on the scoreboard and zero switches.
fn portfolio_no_switch_hysteresis() -> Instance {
    let items = vec![
        item(&[9], 0, 40),   // base bins: three long residents whose
        item(&[9], 0, 40),   // growing cost dilutes the NextFit gap
        item(&[4], 0, 40),   // NextFit's current bin (residual 6)
        item(&[10], 1, 3),   // bin 3 blocker; close #1
        item(&[5], 2, 6),    // NextFit: bin 3 full -> bin 4; FirstFit: bin 2
        item(&[10], 8, 10),  // close #3 (bin 4 closed at 6: close #2)
        item(&[10], 12, 14), // close #4: cooldown over, gap already < 10%
    ];
    Instance::new(DimVec::scalar(10), items).expect("hand-built instance is valid")
}

/// Staggered lone departures from a shared bin: most depart groups in
/// the serve WAL are single `Depart` lines whose bin stays open, so
/// crash cuts land on the trailing-lone-`Depart` ambiguity the recovery
/// replay has to resolve (and the final departures *do* close bins,
/// exercising the closed-flag rollback).
fn crash_wal_lone_depart() -> Instance {
    let items = vec![
        item(&[3], 0, 20), // bin 0 anchor; its departure closes the bin
        item(&[3], 1, 5),  // lone depart at 5
        item(&[3], 2, 6),  // lone depart at 6
        item(&[8], 3, 12), // bin 1 blocker; sole item -> closing depart
        item(&[6], 7, 9),  // rejoins bin 0 after the drains; lone depart
    ];
    Instance::new(DimVec::scalar(10), items).expect("hand-built instance is valid")
}

/// Blocker waves that open and close whole bins each phase: the WAL is
/// dense with 4-line arrival groups (`BinOpen` present) and `BinClose`
/// commits, including two closings at the same tick — mid-group crash
/// cuts must roll back exactly one unacknowledged operation.
fn crash_wal_openclose_churn() -> Instance {
    let items = vec![
        item(&[7], 0, 4),   // bin 0, closes at 4
        item(&[7], 1, 4),   // bin 1, closes at 4 (same tick as bin 0)
        item(&[7], 5, 8),   // bin 2
        item(&[4], 5, 8),   // does not fit 7 -> bin 3; both close at 8
        item(&[10], 9, 11), // bin 4, full then gone
    ];
    Instance::new(DimVec::scalar(10), items).expect("hand-built instance is valid")
}

/// An equal-tick burst where departures close a bin at the very tick new
/// items arrive: crash cuts inside the tick-3 batch force the resumed
/// service to re-drive departures before arrivals at the same tick.
fn crash_wal_equal_tick_resume() -> Instance {
    let items = vec![
        item(&[5], 0, 3), // bin 0
        item(&[4], 0, 3), // opens bin 1; its departure closes it at 3
        item(&[2], 0, 6), // bin 0 survivor
        item(&[5], 3, 6), // arrives as bins drain at 3
        item(&[6], 3, 6),
        item(&[2], 3, 6),
    ];
    Instance::new(DimVec::scalar(8), items).expect("hand-built instance is valid")
}

/// The committed image of live zero-duration churn: under
/// `TimeMode::Clamp` a zero-duration live item becomes the one-tick stay
/// `[a, a+1)`, so every tick here carries simultaneous departures and
/// arrivals and the equal-tick rules (departures first, then item order)
/// decide each placement — including a full-bin one-tick blocker whose
/// departure must free its capacity for the very next tick's arrivals.
fn clamp_zero_duration() -> Instance {
    let items = vec![
        item(&[8], 0, 1), // full-bin blocker, gone at 1
        item(&[3], 0, 4), // long resident alongside (opens bin 1)
        item(&[5], 1, 2), // arrives as the blocker departs: bin 0 is
        item(&[5], 1, 2), // closed, bin 1 has room for one of these
        item(&[4], 2, 3), // chases the tick-2 departures
        item(&[4], 2, 3),
        item(&[8], 3, 4), // full-bin again at the drain tick
        item(&[1], 4, 5), // everything else gone; fresh bin
    ];
    Instance::new(DimVec::scalar(8), items).expect("hand-built instance is valid")
}

/// A committed high-churn draw at the requested dimensionality (the
/// family randomizes `d ∈ {1, 2, 8, 9}`; scanning seeds keeps the corpus
/// file deterministic).
fn high_churn_with_dim(d: usize) -> Instance {
    (0..256u64)
        .map(|s| crate::fuzz::generate(crate::fuzz::Family::HighChurn, s))
        .find(|i| i.dim() == d)
        .expect("some seed in 0..256 draws each dimensionality")
}

/// A committed wide-dim draw at `d = 16`: blocker waves whose open-bin
/// count straddles the block scan's lane boundaries, so the remainder
/// lanes and padding sentinels of the vectorized kernel decide the
/// light items' placements.
fn widedim_remainder_d16() -> Instance {
    (0..256u64)
        .map(|s| crate::fuzz::generate(crate::fuzz::Family::WideDim, s))
        .find(|i| i.dim() == 16)
        .expect("some wide-dim seed in 0..256 draws d = 16")
}

/// Ramps ~260 concurrent 12-dimensional blockers — through every block
/// of the SoA mirror's doubling growth and across the hybrid's d ≥ 10
/// scan-vs-index crossover (256 open bins) — then packs light items via
/// the indexed path and drains everything. Placements before and after
/// the crossover must agree bit for bit with the scalar reference.
fn widedim_crossover_d12() -> Instance {
    let d = 12;
    let blockers = 260u64;
    let mut items = Vec::new();
    // Each blocker is over half the bin in every dimension, so no two
    // share: open-bin count climbs 1, 2, ..., 260 and holds.
    for i in 0..blockers {
        items.push(Item::new(DimVec::splat(d, 6), i, blockers + 40));
    }
    // Light items arriving above the crossover: the fit index (latched
    // live mid-run) and the residual mirror must agree on the earliest
    // feasible bin.
    for i in 0..12u64 {
        items.push(Item::new(
            DimVec::splat(d, 2),
            blockers + 1 + i,
            blockers + 30,
        ));
    }
    Instance::new(DimVec::splat(d, 10), items).expect("crossover instance valid")
}

/// Every committed seed entry as `(file_stem, instance)`, with exact
/// duration announcements so the clairvoyant policies join the replay.
#[must_use]
pub fn seed_corpus() -> Vec<(&'static str, Instance)> {
    let zipf_bursty = ExtendedParams {
        base: UniformParams {
            dims: 2,
            items: 40,
            mu: 8,
            span: 40,
            bin_size: 10,
        },
        sizes: SizeDist::Zipf { exponent: 1.2 },
        durations: DurationDist::Geometric { p: 0.3 },
        arrivals: ArrivalDist::Bursty { waves: 3, width: 2 },
    }
    .generate(0);
    let entries = vec![
        ("residual-tree-growth", residual_tree_growth()),
        ("residual-tree-close-race", residual_tree_close_race()),
        ("equal-tick-burst", equal_tick_burst()),
        ("clamp-zero-duration", clamp_zero_duration()),
        ("multidim-tiebreak", multidim_tiebreak()),
        (
            "thm5-anyfit-lb",
            AnyFitLb {
                k: 1,
                d: 2,
                mu: 2,
                m: 2,
            }
            .instance(),
        ),
        (
            "thm6-nextfit-lb",
            NextFitLb { k: 2, d: 1, mu: 2 }.instance(),
        ),
        ("thm8-mtf-lb", MtfLb { n: 2, mu: 3 }.instance()),
        ("zipf-bursty", zipf_bursty),
        ("fitindex-growth-close-2d", fitindex_growth_close_2d()),
        ("reopen-gap-d9", reopen_gap_d9()),
        ("highchurn-blockers-d8", high_churn_with_dim(8)),
        ("widedim-remainder-d16", widedim_remainder_d16()),
        ("widedim-crossover-d12", widedim_crossover_d12()),
        ("repack-drain-stragglers", repack_drain_stragglers()),
        ("repack-defrag-sweep", repack_defrag_sweep()),
        ("crash-wal-lone-depart", crash_wal_lone_depart()),
        ("crash-wal-openclose-churn", crash_wal_openclose_churn()),
        ("crash-wal-equal-tick-resume", crash_wal_equal_tick_resume()),
        ("portfolio-switch-on-close", portfolio_switch_on_close()),
        (
            "portfolio-no-switch-hysteresis",
            portfolio_no_switch_hysteresis(),
        ),
    ];
    entries
        .into_iter()
        .map(|(name, inst)| (name, announce_exact(&inst)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff;
    use dvbp_core::PackRequest;

    #[test]
    fn seed_corpus_is_valid_and_conformant() {
        for (name, inst) in seed_corpus() {
            inst.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
            diff::check_instance(&inst, 0xC0FFEE).unwrap_or_else(|d| panic!("{name}: {d}"));
        }
    }

    #[test]
    fn seed_corpus_names_are_unique() {
        let mut names: Vec<_> = seed_corpus().into_iter().map(|(n, _)| n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), seed_corpus().len());
    }

    #[test]
    fn growth_case_really_opens_five_concurrent_bins() {
        let inst = residual_tree_growth();
        let p = PackRequest::new(dvbp_core::PolicyKind::FirstFit)
            .run(&inst)
            .unwrap();
        assert!(p.max_concurrent_bins() >= 5, "{}", p.max_concurrent_bins());
    }

    #[test]
    fn growth_close_2d_crosses_the_four_leaf_boundary() {
        let inst = fitindex_growth_close_2d();
        let p = PackRequest::new(dvbp_core::PolicyKind::FirstFit)
            .run(&inst)
            .unwrap();
        assert!(p.num_bins() >= 5, "{}", p.num_bins());
    }

    #[test]
    fn reopen_gap_d9_opens_fresh_bins_each_cycle() {
        let inst = reopen_gap_d9();
        assert_eq!(inst.dim(), 9);
        let p = PackRequest::new(dvbp_core::PolicyKind::FirstFit)
            .run(&inst)
            .unwrap();
        // Each of the three cycles needs at least two bins, and bins are
        // never reused across the idle gaps.
        assert!(p.num_bins() >= 6, "{}", p.num_bins());
    }

    /// Drives `inst` under FirstFit with `repack` attached and returns
    /// `(migrations, migration_cost)`.
    fn drive_repack(inst: &Instance, repack: dvbp_core::RepackPolicy) -> (u64, u64) {
        let mut live = dvbp_core::LiveRequest::new(dvbp_core::PolicyKind::FirstFit)
            .capacity(inst.capacity.clone())
            .repack(repack)
            .build()
            .unwrap();
        let mut source = dvbp_core::InstanceSource::new(inst).unwrap();
        live.drive_source(&mut source).unwrap();
        (live.migrations(), live.migration_cost())
    }

    #[test]
    fn drain_stragglers_really_migrates_the_pair() {
        let inst = repack_drain_stragglers();
        let (moves, cost) = drive_repack(&inst, dvbp_core::RepackPolicy::DrainOnDepart { k: 2 });
        assert_eq!((moves, cost), (2, 2), "unit-cost pair drain");
    }

    #[test]
    fn defrag_sweep_entry_migrates_under_both_trigger_paths() {
        let inst = repack_defrag_sweep();
        let (moves, cost) = drive_repack(&inst, dvbp_core::RepackPolicy::DrainOnDepart { k: 2 });
        assert_eq!((moves, cost), (1, 1), "departure-boundary drain");
        let (moves, cost) = drive_repack(
            &inst,
            dvbp_core::RepackPolicy::BudgetedDefrag {
                budget: 8,
                period: 2,
            },
        );
        assert_eq!((moves, cost), (1, 2), "close-boundary sweep at L1 cost");
    }

    /// Drives `inst` through a portfolio (NextFit live, FirstFit and
    /// NextFit shadows) under `meta`; returns the engine and the shadow
    /// costs captured right after the last operation at tick `snap_at`
    /// (candidate order), for asserting on mid-run scoreboards that the
    /// finished run's closed bins would otherwise absorb.
    fn drive_portfolio(
        inst: &Instance,
        meta: dvbp_portfolio::MetaPolicy,
        snap_at: u64,
    ) -> (dvbp_portfolio::PortfolioEngine, Vec<dvbp_sim::Cost>) {
        let live = dvbp_core::LiveRequest::new(dvbp_core::PolicyKind::NextFit)
            .capacity(inst.capacity.clone())
            .trace_mode(dvbp_core::TraceMode::CostOnly)
            .shadow_policies([
                dvbp_core::PolicyKind::FirstFit,
                dvbp_core::PolicyKind::NextFit,
            ])
            .items_hint(inst.items.len())
            .build()
            .unwrap();
        let mut pf = dvbp_portfolio::PortfolioEngine::new(live, meta, inst.items.len()).unwrap();
        let mut ids = vec![usize::MAX; inst.items.len()];
        let mut snap = Vec::new();
        for op in dvbp_core::live_ops(inst) {
            let time = match op {
                dvbp_core::LiveOp::Arrive { item, size, time } => {
                    ids[item] = pf.arrive(size, time).unwrap().item;
                    time
                }
                dvbp_core::LiveOp::Depart { item, time } => {
                    pf.depart(ids[item], time).unwrap();
                    time
                }
            };
            if time == snap_at {
                snap = pf.scoreboard(time).iter().map(|row| row.cost).collect();
            }
        }
        (pf, snap)
    }

    #[test]
    fn switch_on_close_entry_really_switches_at_the_close() {
        let inst = portfolio_switch_on_close();
        let (pf, _) = drive_portfolio(&inst, dvbp_portfolio::MetaPolicy::BestOf { window: 1 }, 3);
        let switches = pf.switches();
        assert_eq!(switches.len(), 1, "{switches:?}");
        assert_eq!(switches[0].time, 3, "switch rides the blocker's close");
        assert_eq!(switches[0].from, "NextFit");
        assert_eq!(switches[0].to, "FirstFit");
        assert_eq!(pf.live().kind(), &dvbp_core::PolicyKind::FirstFit);
    }

    #[test]
    fn hysteresis_entry_suppresses_a_transiently_winning_shadow() {
        let inst = portfolio_no_switch_hysteresis();
        let (pf, costs_at_6) = drive_portfolio(
            &inst,
            dvbp_portfolio::MetaPolicy::SwitchThreshold { threshold_pct: 10 },
            6,
        );
        assert!(pf.switches().is_empty(), "{:?}", pf.switches());
        assert_eq!(pf.live().kind(), &dvbp_core::PolicyKind::NextFit);
        // The guard did real work: at the second close (t = 6) the
        // FirstFit shadow led by more than the threshold — only the
        // cooldown kept the live policy in place.
        let unguarded = dvbp_portfolio::MetaPolicy::SwitchThreshold { threshold_pct: 10 }.decide(
            1,
            &costs_at_6,
            2,
            dvbp_portfolio::SWITCH_COOLDOWN_CLOSES,
        );
        assert_eq!(unguarded, Some(0), "shadow costs at t = 6: {costs_at_6:?}");
    }

    #[test]
    fn committed_high_churn_draw_is_really_d8() {
        assert_eq!(high_churn_with_dim(8).dim(), 8);
    }

    #[test]
    fn committed_widedim_draw_is_really_d16() {
        assert_eq!(widedim_remainder_d16().dim(), 16);
    }

    #[test]
    fn widedim_crossover_really_crosses_the_hybrid_latch() {
        let inst = widedim_crossover_d12();
        assert_eq!(inst.dim(), 12);
        let p = PackRequest::new(dvbp_core::PolicyKind::FirstFit)
            .run(&inst)
            .unwrap();
        // 260 mutually exclusive blockers: the open-bin count must pass
        // the d ≥ 10 scan-vs-index crossover (256) while they overlap.
        assert!(
            p.max_concurrent_bins() >= 260,
            "{}",
            p.max_concurrent_bins()
        );
    }
}
