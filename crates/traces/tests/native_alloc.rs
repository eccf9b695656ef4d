//! Steady-state native ingest allocates nothing per row: the line
//! reader reuses one buffer and splits fields in place, sizes are
//! inline `DimVec`s, and the merger's heap stops growing once the
//! number of live items is steady.
//!
//! Uses a counting `#[global_allocator]`, so this file holds exactly
//! one `#[test]` — a second test in the same binary would add its
//! allocations to the count.

use dvbp_core::EventSource;
use dvbp_dimvec::DimVec;
use dvbp_traces::{DirtyPolicy, NativeSource};
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write;
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        unsafe { System.dealloc(p, layout) };
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_native_rows_allocate_nothing() {
    // Row i arrives at tick i and departs at tick i + 10, so ten items
    // are live at a time. The header is longer than every row, so the
    // first line sizes the reader's buffer for the whole file.
    let mut text = String::from("arrival,departure,cpu,mem\n");
    for i in 0..20_000u64 {
        writeln!(text, "{i},{},{},{}", i + 10, 1 + i % 7, 1 + i % 5).unwrap();
    }
    let mut source = NativeSource::new(
        text.as_bytes(),
        DimVec::from_slice(&[100, 100]),
        DirtyPolicy::Reject,
    );
    for _ in 0..1_000 {
        source.next_event().unwrap().expect("warm-up events");
    }
    let before = ALLOCS.load(Ordering::SeqCst);
    let mut events = 0u64;
    while let Some(op) = source.next_event().unwrap() {
        std::hint::black_box(op);
        events += 1;
    }
    let allocs = ALLOCS.load(Ordering::SeqCst) - before;
    assert_eq!(events, 39_000);
    assert_eq!(allocs, 0, "{allocs} allocation(s) over {events} events");
}
