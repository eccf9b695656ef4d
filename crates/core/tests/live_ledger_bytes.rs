//! A live engine holds per item what the stream path holds: after the
//! same drained stream, a `Strict` cost-only [`LiveEngine`] and a
//! one-engine [`EngineSet`] each keep at most 64 KiB more heap than
//! [`PackRequest::run_source`] over the same events, for every
//! paper-suite policy. All three keep the engine's two-word per-item
//! ledger and its per-bin arenas; none keeps a record of an item once
//! it has departed.
//!
//! This file holds exactly one `#[test]` so the global byte counter is
//! not polluted by concurrent tests in the same binary.

use dvbp_core::{
    EngineSet, EventSource, LiveOp, LiveRequest, PackRequest, PolicyKind, SourceError, TimeMode,
    TraceMode,
};
use dvbp_dimvec::DimVec;
use dvbp_sim::Time;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
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

fn live_bytes() -> isize {
    LIVE.load(Ordering::Relaxed)
}

const ARRIVALS: usize = 50_000;
/// Durations are U{1..MAX_DURATION}: about 330 items active at a time.
const MAX_DURATION: u64 = 660;
const SLACK: isize = 64 * 1024;

/// One arrival per tick, sizes U{1..50}⁴ against capacity 100⁴, every
/// item departing; canonical order (departures first within a tick).
/// Records the net live bytes when it is pulled past its last event.
struct Stream {
    capacity: DimVec,
    rng: u64,
    next: usize,
    pending: BinaryHeap<Reverse<(Time, usize)>>,
    at_end: Option<isize>,
}

impl Stream {
    fn new() -> Self {
        Stream {
            capacity: DimVec::from_slice(&[100; 4]),
            rng: 0x9E37_79B9_7F4A_7C15,
            next: 0,
            pending: BinaryHeap::new(),
            at_end: None,
        }
    }

    /// splitmix64.
    fn draw(&mut self, bound: u64) -> u64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        1 + (z ^ (z >> 31)) % bound
    }
}

impl EventSource for Stream {
    fn capacity(&self) -> &DimVec {
        &self.capacity
    }

    fn next_event(&mut self) -> Result<Option<LiveOp>, SourceError> {
        let tick = self.next as Time;
        if let Some(&Reverse((time, item))) = self.pending.peek() {
            if self.next == ARRIVALS || time <= tick {
                self.pending.pop();
                return Ok(Some(LiveOp::Depart { item, time }));
            }
        }
        if self.next == ARRIVALS {
            self.at_end = Some(live_bytes());
            return Ok(None);
        }
        let item = self.next;
        self.next += 1;
        let size: Vec<u64> = (0..4).map(|_| self.draw(50)).collect();
        let departure = tick + self.draw(MAX_DURATION);
        self.pending.push(Reverse((departure, item)));
        Ok(Some(LiveOp::Arrive {
            item,
            size: DimVec::from_slice(&size),
            time: tick,
        }))
    }
}

#[test]
fn live_engine_holds_what_the_stream_path_holds() {
    for kind in PolicyKind::paper_suite(7) {
        let base = live_bytes();
        let mut stream = Stream::new();
        let streamed = PackRequest::new(kind.clone())
            .trace_mode(TraceMode::CostOnly)
            .run_source(&mut stream)
            .unwrap();
        let stream_held = stream.at_end.expect("the run drained the stream") - base;
        drop(stream);

        let base = live_bytes();
        let mut stream = Stream::new();
        let mut live = LiveRequest::new(kind.clone())
            .capacity(stream.capacity.clone())
            .trace_mode(TraceMode::CostOnly)
            .time_mode(TimeMode::Strict)
            .build()
            .unwrap();
        while let Some(op) = stream.next_event().unwrap() {
            match op {
                LiveOp::Arrive { item, size, time } => {
                    assert_eq!(live.arrive(size, time).unwrap().item, item);
                }
                LiveOp::Depart { item, time } => {
                    live.depart(item, time).unwrap();
                }
            }
        }
        let live_held = stream.at_end.expect("every event was applied") - base;
        assert_eq!(live.into_packing().unwrap(), streamed, "{}", kind.name());

        let base = live_bytes();
        let mut stream = Stream::new();
        let mut set = EngineSet::new(
            &stream.capacity,
            TimeMode::Strict,
            std::slice::from_ref(&kind),
            0,
        )
        .unwrap();
        let mut last = 0;
        while let Some(op) = stream.next_event().unwrap() {
            if let LiveOp::Depart { time, .. } = op {
                last = time;
            }
            set.apply(&[op]).unwrap();
        }
        let set_held = stream.at_end.expect("every event was applied") - base;
        let costs: Vec<_> = set.costs_at(last).collect();
        assert_eq!(costs, [streamed.cost()], "{}", kind.name());

        for (path, held) in [("live engine", live_held), ("engine set", set_held)] {
            println!(
                "{}: stream path {stream_held} B, {path} {held} B ({:+.1} B per arrival)",
                kind.name(),
                (held - stream_held) as f64 / ARRIVALS as f64
            );
            assert!(
                held - stream_held <= SLACK,
                "{}: the {path} holds {held} B, the stream path {stream_held} B",
                kind.name()
            );
        }
    }
}
