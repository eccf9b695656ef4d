//! Dropping a portfolio state joins its shadow worker thread, also with
//! operations still queued: after a thousand states built, fed and
//! dropped one after another, the process runs as many threads as it
//! did before the first.
//!
//! This file holds exactly one `#[test]`, because the thread count is
//! the whole process's.

use dvbp_core::{PolicyKind, TimeMode};
use dvbp_dimvec::DimVec;
use dvbp_portfolio::{MetaPolicy, PortfolioState, WAKE_AT};
use std::time::{Duration, Instant};

/// The process's thread count, from `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .expect("a Threads: line")
        .trim()
        .parse()
        .expect("a thread count")
}

#[test]
#[cfg_attr(not(target_os = "linux"), ignore = "reads /proc/self/status")]
fn dropped_states_leave_no_threads_behind() {
    let start = threads();
    let candidates = PolicyKind::paper_suite(0);
    for round in 0..1_000u64 {
        let mut state = PortfolioState::new(
            &DimVec::from_slice(&[10, 10]),
            TimeMode::Strict,
            &candidates,
            &PolicyKind::FirstFit,
            MetaPolicy::BestOf { window: 8 },
            0,
        )
        .unwrap();
        // Past the wake point, so the worker runs, and a remainder that
        // is still queued when the state is dropped.
        let ops = WAKE_AT as u64 + 1 + round % 50;
        for t in 0..ops {
            state
                .on_arrive(&DimVec::from_slice(&[1 + t % 5, 1 + t % 3]), t)
                .unwrap();
        }
        drop(state);
        assert_eq!(settled(start), start, "round {round} left a thread behind");
    }
}

/// The thread count once it is back at `start`, or after a second. A
/// joined thread can still be counted for a moment: `join` returns when
/// the thread clears its id, slightly before the kernel reaps it.
fn settled(start: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(1);
    loop {
        let now = threads();
        if now == start || Instant::now() > deadline {
            return now;
        }
        std::thread::sleep(Duration::from_micros(100));
    }
}
