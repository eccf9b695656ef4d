//! Counting-allocator bound on shadow overhead: in steady state (items
//! ledger pre-sized, every bin already open, no bin ever closing) a
//! portfolio drive — live engine plus one cost-only shadow per
//! candidate behind the shadow set's one feed and lower bound —
//! performs **zero** heap allocations per operation, and therefore no
//! more than the plain single-policy engine on the identical stream.
//! The candidates cover the first-hit query (First Fit), no query (Next
//! Fit) and both whole-set queries (Best Fit[L∞]'s ranking, Random
//! Fit's block list).
//!
//! This file holds exactly one `#[test]` so the global allocation
//! counter is not polluted by concurrent tests in the same binary.

use dvbp_core::{LiveEngine, LiveRequest, LoadMeasure, PolicyKind, TraceMode};
use dvbp_dimvec::DimVec;
use dvbp_portfolio::{MetaPolicy, PortfolioEngine};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

struct CountingAlloc;

// SAFETY: delegates every operation to `System`; only adds a counter.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const N: u64 = 64;
const ROUNDS: u64 = 5;
/// Every item the run will ever see, so `items_hint` pre-sizes the
/// ledgers past any mid-run growth.
const TOTAL_ITEMS: usize = (1 + N * (ROUNDS + 1)) as usize;

fn candidates() -> [PolicyKind; 4] {
    [
        PolicyKind::FirstFit,
        PolicyKind::NextFit,
        PolicyKind::BestFit(LoadMeasure::Linf),
        PolicyKind::RandomFit { seed: 7 },
    ]
}

fn plain_engine() -> LiveEngine {
    LiveRequest::new(PolicyKind::FirstFit)
        .capacity(DimVec::from_slice(&[100, 100]))
        .trace_mode(TraceMode::CostOnly)
        .items_hint(TOTAL_ITEMS)
        .build()
        .unwrap()
}

fn portfolio_engine() -> PortfolioEngine {
    let live = LiveRequest::new(PolicyKind::FirstFit)
        .capacity(DimVec::from_slice(&[100, 100]))
        .trace_mode(TraceMode::CostOnly)
        .items_hint(TOTAL_ITEMS)
        .build()
        .unwrap();
    PortfolioEngine::new(
        live,
        &candidates(),
        MetaPolicy::BestOf { window: 8 },
        TOTAL_ITEMS,
    )
    .unwrap()
}

/// One steady-state round: `N` transient items, one in flight at a
/// time, each fitting the residual of the single pinned-open bin under
/// every candidate policy — so no engine ever opens or closes a bin.
fn round_plain(engine: &mut LiveEngine, base: u64) {
    for i in 0..N {
        let t = base + 2 * i;
        let item = engine.arrive(DimVec::from_slice(&[2, 3]), t).unwrap().item;
        engine.depart(item, t + 1).unwrap();
    }
}

/// [`round_plain`] through the portfolio: same stream, same shape.
fn round_portfolio(engine: &mut PortfolioEngine, base: u64) {
    for i in 0..N {
        let t = base + 2 * i;
        let item = engine.arrive(DimVec::from_slice(&[2, 3]), t).unwrap().item;
        let got = engine.depart(item, t + 1).unwrap();
        assert!(got.switched.is_none(), "no bin ever closes");
    }
}

#[test]
fn shadows_add_zero_steady_state_allocations() {
    let mut plain = plain_engine();
    let mut pf = portfolio_engine();

    // One pinned resident per engine keeps its bin open for the whole
    // run: transients land in that bin's residual under FirstFit,
    // NextFit, BestFit and RandomFit alike, so rounds never open or
    // close bins.
    plain.arrive(DimVec::from_slice(&[1, 1]), 0).unwrap();
    pf.arrive(DimVec::from_slice(&[1, 1]), 0).unwrap();

    // Warm both sides (hash-map growth in the streaming lower bound,
    // any lazily sized scratch) before counting.
    round_plain(&mut plain, 1_000_000);
    round_portfolio(&mut pf, 1_000_000);

    let mut plain_min = usize::MAX;
    let mut pf_min = usize::MAX;
    for r in 0..ROUNDS {
        let base = 2_000_000 + r * 2 * N;

        let before = ALLOCS.load(Ordering::Relaxed);
        round_plain(&mut plain, base);
        plain_min = plain_min.min(ALLOCS.load(Ordering::Relaxed) - before);

        let before = ALLOCS.load(Ordering::Relaxed);
        round_portfolio(&mut pf, base);
        pf_min = pf_min.min(ALLOCS.load(Ordering::Relaxed) - before);
    }

    // The shadows and the meta-policy are allocation-free per op once
    // warm — not merely "no worse than plain", but literally zero.
    assert_eq!(
        pf_min, 0,
        "portfolio steady-state round allocated (plain round: {plain_min})"
    );
    assert!(
        pf_min <= plain_min,
        "shadows allocated beyond the plain engine: {pf_min} vs {plain_min}"
    );

    // Sanity: both sides really did pack the same stream.
    assert_eq!(pf.live().active_items(), plain.active_items());
    assert!(pf.switches().is_empty());
}
