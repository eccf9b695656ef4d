//! Centralized scan-vs-index decision logic for the engine's
//! feasibility queries; `EngineView` is the only caller.
//!
//! Two independent choices are made per query, both pure functions of
//! cheap engine state so every replay (batch, live, stream, WAL
//! recovery) decides identically:
//!
//! 1. **scan vs [`FitIndex`](crate::fit_index::FitIndex)** — [`use_index`] compares
//!    the open-bin count against a per-dimension crossover. Both sides
//!    run the same 8-bin mask kernel: the block scan on every block of
//!    the open-id span, the 8-ary tree only on the blocks its summary
//!    levels cannot rule out, at the price of one extra mask per level
//!    on the way down and of keeping the levels current. The
//!    break-even *rises* with `d`: a summary node holds each
//!    dimension's maximum separately, so the wider the item, the more
//!    often a node covers it while no bin below it does, and the more
//!    blocks the tree masks in vain.
//! 2. **block vs scalar scan** — once scanning, [`block_scan_pays`]
//!    checks that the open-bin id *span* is not too sparse: the block
//!    kernel walks `span / LANES` blocks, the scalar loop walks exactly
//!    the open list, so a long-lived run whose open ids are spread over
//!    a huge closed-id range falls back to the scalar loop.
//!
//! Crossover methodology: the `calibrate_hybrid` bench (in
//! `dvbp-bench`) times First Fit's pure block-scan path against its
//! pure fit-index path on uniform workloads, sweeping `mu` (and
//! therefore the steady-state open-bin count `m`) at
//! `d ∈ {1..5, 8, 9, 12, 16}` on AVX2 x86-64. Over three passes on a
//! 2-vCPU VM the tree won every pass from `m ≈ 58` at `d ≤ 2` (the
//! passes split at `m ≈ 35`) and from `m ≈ 69–82` at `d ∈ 3..=5` (the
//! scan won at `m ≈ 42–47`); at `d ∈ {8, 9}` the two tied at
//! `m ≈ 170–180` and the tree won from `m ≈ 340`; at `d ∈ {12, 16}` the
//! scan won to `m ≈ 170` in five passes of six and the tree from
//! `m ≈ 355`. Past its first win the tree stayed ahead at every
//! measured `m` but one (a `d = 5` pass at `m ≈ 324`). The table below
//! rounds to the nearest lane-friendly step; near the boundary the two
//! paths time within noise of each other (and are placement-identical),
//! so a misestimate costs only nanoseconds.
//!
//! The same binary also times Best Fit[L∞], whose whole-set query must
//! see every feasible bin and ranks them a block at a time. One pass on
//! the same VM, first `m` at which the index won (it stayed ahead at
//! every larger `m` measured, up to about 2,700):
//!
//! | d  | First Fit | Best Fit[L∞] |
//! |----|-----------|--------------|
//! | 1  | 58        | 34           |
//! | 2  | 59        | 109          |
//! | 3  | 69        | 129          |
//! | 4  | 74        | 283          |
//! | 5  | 82        | 316          |
//! | 8  | 169       | 338          |
//! | 9  | 181       | 353          |
//! | 12 | 375       | 375          |
//! | 16 | 158       | 355          |
//!
//! So a whole-set query pays for the tree later than First Fit's, at
//! `d ≥ 2`. The table below stays First Fit's: sending whole-set queries
//! to the block scan wherever the block kernel pays halved the
//! `replay-dense` benchmark's throughput (Best Fit[L∞] at `d = 4`, about
//! 1,450 open bins over a sparse id span) in a prototype.

use crate::block_scan::LANES;

/// Open-bin count at which the indexed path overtakes the block scan
/// for dimensionality `dims`.
#[must_use]
pub(crate) fn index_crossover(dims: usize) -> usize {
    match dims {
        0..=5 => 64,
        6..=9 => 192,
        _ => 256,
    }
}

/// `true` iff an arrival with `open_bins` open bins in `dims` dimensions
/// should use the [`FitIndex`](crate::fit_index::FitIndex) rather than a scan.
#[must_use]
pub(crate) fn use_index(open_bins: usize, dims: usize) -> bool {
    open_bins >= index_crossover(dims)
}

/// `true` iff a block scan over the open-bin id span `span` beats the
/// scalar loop over `open_bins` list entries: the kernel touches
/// `span / LANES` blocks, so it pays until the span is more than
/// `LANES`× sparser than the open list.
#[must_use]
pub(crate) fn block_scan_pays(span: usize, open_bins: usize) -> bool {
    span <= open_bins.saturating_mul(LANES)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossover_is_monotone_in_dims() {
        // Wider items prune the tree less, so the measured break-even
        // never falls as d grows.
        let mut last = 0;
        for d in 1..=16 {
            let c = index_crossover(d);
            assert!(c >= last, "crossover must not fall with d");
            last = c;
        }
    }

    #[test]
    fn crossover_never_drops_below_the_old_scalar_latch() {
        // The pre-kernel hybrid latched at 64 open bins; a vectorized
        // scan is strictly faster than the scalar one, so the measured
        // break-even can only sit at or above that latch.
        for d in 1..=16 {
            assert!(index_crossover(d) >= 64, "d={d}");
        }
    }

    #[test]
    fn use_index_boundary_is_exact() {
        for d in [1, 2, 4, 8, 9, 16] {
            let c = index_crossover(d);
            assert!(!use_index(c - 1, d));
            assert!(use_index(c, d));
        }
    }

    #[test]
    fn block_scan_pays_dense_spans_only() {
        // Dense ids: always pays.
        assert!(block_scan_pays(100, 100));
        // Boundary: exactly LANES× sparser still pays.
        assert!(block_scan_pays(800, 100));
        assert!(!block_scan_pays(801, 100));
        // Degenerate empty state.
        assert!(block_scan_pays(0, 0));
        // Saturation: a huge open list never overflows.
        assert!(block_scan_pays(usize::MAX, usize::MAX));
    }
}
