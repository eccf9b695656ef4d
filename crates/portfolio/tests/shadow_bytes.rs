//! A paper-suite shadow set holds one table of active items, however
//! many candidates it runs: fed 4,096 arrivals at d = 2, with every
//! engine's item ledger reserved up front by `items_hint`, it holds at
//! most 400 bytes of net heap per active item. The seven engines'
//! per-bin arenas, the set's one active-item table and its lower bound
//! fit in that; a table per shadow does not (each entry is an item
//! record of over 100 bytes).
//!
//! This file holds exactly one `#[test]` so the global byte counter is
//! not polluted by concurrent tests in the same binary.

use dvbp_core::{PolicyKind, TimeMode};
use dvbp_dimvec::DimVec;
use dvbp_portfolio::ShadowSet;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

static LIVE: AtomicIsize = AtomicIsize::new(0);

struct CountingAlloc;

// SAFETY: delegates every operation to `System`; only tracks net bytes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const ARRIVALS: usize = 4_096;
const MAX_BYTES_PER_ITEM: isize = 400;

#[test]
fn a_paper_suite_shadow_set_holds_one_active_item_table() {
    let mut shadows = ShadowSet::new(
        &DimVec::from_slice(&[100, 100]),
        TimeMode::Strict,
        &PolicyKind::paper_suite(0),
        ARRIVALS,
    )
    .unwrap();
    let base = LIVE.load(Ordering::Relaxed);
    for i in 0..ARRIVALS as u64 {
        let size = DimVec::from_slice(&[1 + i % 13, 1 + (i * 7) % 11]);
        shadows.arrive(&size, i / 4);
    }
    let held = LIVE.load(Ordering::Relaxed) - base;
    let per_item = held / ARRIVALS as isize;
    println!("{held} B for {ARRIVALS} active items: {per_item} B per item");
    assert_eq!(shadows.items_seen(), ARRIVALS);
    assert!(
        per_item <= MAX_BYTES_PER_ITEM,
        "the shadow set holds {per_item} B per active item (at most {MAX_BYTES_PER_ITEM})"
    );
}
