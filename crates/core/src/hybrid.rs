//! Centralized scan-vs-index decision logic for the engine's
//! feasibility queries; `EngineView` is the only caller.
//!
//! Two independent choices are made per query, both pure functions of
//! cheap engine state so every replay (batch, live, stream, WAL
//! recovery) decides identically:
//!
//! 1. **scan vs [`FitIndex`](crate::fit_index::FitIndex)** — [`use_index`] compares
//!    the open-bin count against a per-dimension crossover. Before the
//!    block-scan kernel, the crossover was a flat 64 bins; vectorized
//!    scans retire [`LANES`](crate::block_scan::LANES) bins per step,
//!    and the measured break-even *rises* with `d`: the tree descent
//!    re-checks all `d` per-dimension structures on every step, while
//!    the block scan streams `d` contiguous rows through the mask
//!    kernel, so wider items amortize the scan better than the tree.
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
//! `d ∈ {1..5, 8, 9, 12, 16}` on AVX2 x86-64. Measured break-evens:
//! `m ≈ 60` at `d ≤ 2`, `m ≈ 130` at `d = 4`, `m ≈ 170–180` at
//! `d ∈ {8, 9}`, and `m ≈ 250–375` at `d ∈ {12, 16}`. The table below
//! rounds to the nearest lane-friendly step; near the boundary the two
//! paths time within noise of each other (and are placement-identical),
//! so a misestimate costs only nanoseconds.

use crate::block_scan::LANES;

/// Open-bin count at which the indexed path overtakes the block scan
/// for dimensionality `dims`.
#[must_use]
pub(crate) fn index_crossover(dims: usize) -> usize {
    match dims {
        0..=2 => 64,
        3..=4 => 128,
        5..=9 => 192,
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
        // Wider items amortize the block scan better, so the measured
        // break-even never falls as d grows.
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
