//! Counting-allocator bound on the serve request path: decoding a
//! request line, [`ServeState::handle`] (engine, WAL group, reply) and
//! encoding the reply, averaged over 20,000 steady-state requests of a
//! plain FirstFit `batch:64` shard.
//!
//! An arrival allocates its decoded id and size, the shard's two stored
//! copies of the id, the reply's id echo and the reply text (6); a
//! departure its decoded id, the reply's id echo and the reply text
//! (3). The limits, 8 and 4, leave room for amortized growth of the
//! shard's tables. Neither codec builds a tree or a per-key string, and
//! the WAL encodes every line into one reused buffer.
//!
//! This file holds exactly one `#[test]` so the global allocation
//! counter is not polluted by concurrent tests in the same binary.

use dvbp_core::{PolicyKind, RepackPolicy, TimeMode, TraceMode};
use dvbp_dimvec::DimVec;
use dvbp_obs::SyncPolicy;
use dvbp_serve::protocol::{Request, Response};
use dvbp_serve::router::RouterKind;
use dvbp_serve::server::ServeState;
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

/// Request lines for `steps` ticks: item `t` arrives at tick `t` and item
/// `t - 200` departs there, so about 200 items stay active.
fn request_lines(steps: u64) -> Vec<(bool, String)> {
    let mut state = 0x9E37_79B9_7F4A_7C15_u64;
    let mut size = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        1 + state % 20
    };
    let mut lines = Vec::new();
    for t in 0..steps {
        // Departures precede arrivals within a tick.
        if t >= 200 {
            let depart = Request::Depart {
                id: format!("vm-{}", t - 200),
                time: t,
            };
            lines.push((false, serde_json::to_string(&depart).unwrap()));
        }
        let arrive = Request::Arrive {
            id: format!("vm-{t}"),
            size: vec![size(), size()],
            time: t,
        };
        lines.push((true, serde_json::to_string(&arrive).unwrap()));
    }
    lines
}

#[test]
fn a_steady_state_request_allocates_a_bounded_handful() {
    const WARMUP: usize = 20_000;
    const MEASURED: usize = 20_000;
    let state = ServeState::in_memory(
        &DimVec::from_slice(&[100, 100]),
        &PolicyKind::FirstFit,
        RepackPolicy::NoRepack,
        1,
        RouterKind::Hash,
        TraceMode::CostOnly,
        TimeMode::Strict,
        SyncPolicy::PerBatch(64),
        None,
    )
    .unwrap();
    let lines = request_lines(((WARMUP + MEASURED) / 2 + 200) as u64);
    // (arrivals, their allocations, departures, their allocations)
    let mut counts = [0usize; 4];
    for (n, (arrive, line)) in lines.iter().take(WARMUP + MEASURED).enumerate() {
        let before = ALLOCS.load(Ordering::Relaxed);
        let request: Request = serde_json::from_str(line).unwrap();
        let response = state.handle(&request);
        let text = serde_json::to_string(&response).unwrap();
        let spent = ALLOCS.load(Ordering::Relaxed) - before;
        let ok = matches!(
            response,
            Response::Placed { .. } | Response::Departed { .. }
        );
        assert!(ok, "{line} -> {text}");
        drop((request, response, text));
        if n >= WARMUP {
            let at = if *arrive { 0 } else { 2 };
            counts[at] += 1;
            counts[at + 1] += spent;
        }
    }
    let per_arrive = counts[1] as f64 / counts[0] as f64;
    let per_depart = counts[3] as f64 / counts[2] as f64;
    println!(
        "allocations per request: Arrive {per_arrive:.2} ({} requests), \
         Depart {per_depart:.2} ({} requests)",
        counts[0], counts[2]
    );
    assert!(
        per_arrive <= 8.0,
        "Arrive allocates {per_arrive:.2} times per request"
    );
    assert!(
        per_depart <= 4.0,
        "Depart allocates {per_depart:.2} times per request"
    );
}
