//! Vectorized bin-feasibility kernel: a dimension-major (SoA) residual
//! mirror of the engine's load arena, scanned in blocks of [`LANES`]
//! bins per step.
//!
//! The Any-Fit hot path answers one question per candidate bin —
//! `need[j] ≤ residual[j]` for every dimension `j`. The engine's load
//! arena is bin-major (good for committing a placement, bad for
//! scanning), so [`ResidualBlocks`] keeps the *residuals* a second time,
//! dimension-major: `rows[j * stride + bin]`. A block scan then streams
//! `LANES` consecutive bins' residuals for one dimension with a single
//! contiguous load, accumulates a branchless feasibility mask across
//! dimensions, and resolves the first/last/all feasible bins from the
//! mask bits.
//!
//! Invariants that make a mask hit trustworthy without consulting the
//! open-bin list:
//!
//! * **closed bins are pinned to residual 0** (and so are ids that were
//!   never opened, and the padding lanes past the last bin), and
//! * **items have a nonzero demand in at least one dimension** — both
//!   `Instance::validate` and `LiveEngine::arrive` reject all-zero
//!   sizes,
//!
//! so `need ≤ residual` can only hold for an *open* bin. Callers still
//! confirm every selected bin against the authoritative load arena
//! (`EngineView::fits`) before acting on it — a desynchronized mirror
//! panics instead of corrupting a packing.
//!
//! The mask kernel has three interchangeable backends with identical
//! results: a portable branchless form written so LLVM can autovectorize
//! it, an AVX2 `core::arch` path selected at runtime on `x86_64`, and a
//! NEON path on `aarch64`. The fit index masks its tree nodes with the
//! same kernel. The `scalar-scan` cargo feature routes every engine
//! query, tree included, to the scalar per-bin loop (CI builds and tests
//! that leg), without affecting these primitives or their tests.

/// Bins examined per block-scan step. The arena stride is kept a
/// multiple of this so a block load never runs past the allocation.
pub const LANES: usize = 8;

/// Initial stride (in bins) of a fresh arena.
const INITIAL_STRIDE: usize = 64;

/// Dimension-major residual mirror with lane-padded stride.
///
/// Maintained unconditionally by the engine (unlike the lazily-built
/// summary levels of the fit index, whose leaf level it is): updates
/// are O(d) plain stores per event, so there is nothing to latch. The arena is kept across runs
/// of the owning [`Engine`](crate::Engine) — `ResidualBlocks::reset`
/// zeroes in place when the dimensionality is unchanged, preserving the
/// engine's zero-allocations-per-arrival steady state.
#[derive(Debug, Default)]
pub struct ResidualBlocks {
    dims: usize,
    /// Row length in bins; a multiple of [`LANES`].
    stride: usize,
    /// Bins registered so far (open ids are dense: `0..bins`).
    bins: usize,
    /// `dims * stride` residuals, dimension-major.
    rows: Vec<u64>,
}

impl ResidualBlocks {
    /// Creates an empty mirror.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears all bins for a `dims`-dimensional run, keeping the arena
    /// allocation when the dimensionality is unchanged.
    pub(crate) fn reset(&mut self, dims: usize) {
        if self.dims == dims {
            self.rows.fill(0);
        } else {
            self.rows.clear();
            self.stride = 0;
        }
        self.dims = dims;
        self.bins = 0;
    }

    /// Number of bins registered (open or closed).
    #[must_use]
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// Dimensionality of the residual vectors.
    pub(crate) fn dims(&self) -> usize {
        self.dims
    }

    /// Row length in bins (a multiple of [`LANES`]).
    pub(crate) fn stride(&self) -> usize {
        self.stride
    }

    /// The `dims * stride` residuals, dimension-major: the leaf level of
    /// the [`FitIndex`](crate::fit_index::FitIndex).
    pub(crate) fn rows(&self) -> &[u64] {
        &self.rows
    }

    /// Current residual of `bin` in dimension `j`.
    #[must_use]
    pub fn residual(&self, bin: usize, j: usize) -> u64 {
        self.rows[j * self.stride + bin]
    }

    /// Grows the stride (doubling) until `bin` is addressable,
    /// re-striding existing rows in place and zeroing the vacated tails.
    fn ensure(&mut self, bin: usize) {
        if bin < self.stride {
            return;
        }
        let old = self.stride;
        let mut new = old.max(INITIAL_STRIDE / 2) * 2;
        while new <= bin {
            new *= 2;
        }
        debug_assert_eq!(new % LANES, 0);
        self.rows.resize(self.dims * new, 0);
        // Move rows from the back so no copy overwrites a row that has
        // not been moved yet (destination `j * new` is past every source
        // `j' * old + old` for `j' ≤ j`).
        for j in (1..self.dims).rev() {
            self.rows.copy_within(j * old..(j + 1) * old, j * new);
        }
        // Each row's tail `[j*new + old, (j+1)*new)` may hold stale data
        // from the old layout; padding must read as residual 0.
        for j in 0..self.dims {
            self.rows[j * new + old..(j + 1) * new].fill(0);
        }
        self.stride = new;
    }

    /// Registers a freshly opened bin with its initial residual vector.
    /// Bins open in id order, densely.
    pub(crate) fn open(&mut self, bin: usize, residual: &[u64]) {
        debug_assert_eq!(bin, self.bins, "bins must open in id order");
        self.ensure(bin);
        self.bins = bin + 1;
        for (j, &r) in residual.iter().enumerate() {
            self.rows[j * self.stride + bin] = r;
        }
    }

    /// Subtracts an item's size from `bin`'s residual.
    pub(crate) fn pack(&mut self, bin: usize, size: &[u64]) {
        for (j, &s) in size.iter().enumerate() {
            self.rows[j * self.stride + bin] -= s;
        }
    }

    /// Adds a departing item's size back to `bin`'s residual.
    pub(crate) fn unpack(&mut self, bin: usize, size: &[u64]) {
        for (j, &s) in size.iter().enumerate() {
            self.rows[j * self.stride + bin] += s;
        }
    }

    /// Pins a closing bin to residual 0 in every dimension, so no block
    /// scan can ever select it again.
    pub(crate) fn close(&mut self, bin: usize) {
        for j in 0..self.dims {
            self.rows[j * self.stride + bin] = 0;
        }
    }

    /// Scalar reference predicate: `need ≤ residual` for every
    /// dimension of `bin`. Used by tests and debug confirms.
    #[must_use]
    pub fn covers(&self, bin: usize, need: &[u64]) -> bool {
        need.iter()
            .enumerate()
            .all(|(j, &n)| self.rows[j * self.stride + bin] >= n)
    }

    /// Feasibility mask for the aligned block starting at `base`:
    /// bit `l` is set iff bin `base + l` covers `need`.
    #[inline]
    fn mask8(&self, base: usize, need: &[u64]) -> u8 {
        debug_assert_eq!(base % LANES, 0);
        debug_assert!(base + LANES <= self.stride);
        mask8_dispatch(&self.rows, self.stride, base, need)
    }

    /// Lowest bin id in `lo..=hi` that covers `need`, or `None`.
    ///
    /// `lo..=hi` is a hint (callers pass the open-bin id span); because
    /// closed, never-opened, and padding lanes all read 0 and `need` is
    /// nonzero in some dimension, any mask hit — even outside the hint —
    /// is a genuinely feasible open bin.
    #[must_use]
    pub fn first_feasible_in(&self, need: &[u64], lo: usize, hi: usize) -> Option<usize> {
        debug_assert!(need.iter().any(|&n| n > 0), "zero need matches closed bins");
        if self.bins == 0 {
            return None;
        }
        let hi = hi.min(self.bins - 1);
        let mut base = lo & !(LANES - 1);
        while base <= hi {
            let m = self.mask8(base, need);
            if m != 0 {
                return Some(base + m.trailing_zeros() as usize);
            }
            base += LANES;
        }
        None
    }

    /// Highest bin id in `lo..=hi` that covers `need`, or `None`.
    #[must_use]
    pub fn last_feasible_in(&self, need: &[u64], lo: usize, hi: usize) -> Option<usize> {
        debug_assert!(need.iter().any(|&n| n > 0), "zero need matches closed bins");
        if self.bins == 0 {
            return None;
        }
        let lo_block = lo & !(LANES - 1);
        let mut base = hi.min(self.bins - 1) & !(LANES - 1);
        loop {
            let m = self.mask8(base, need);
            if m != 0 {
                return Some(base + 7 - m.leading_zeros() as usize);
            }
            if base == lo_block {
                return None;
            }
            base -= LANES;
        }
    }

    /// Calls `f` for every bin in `lo..=hi` covering `need`, in
    /// ascending id order (the order the scalar scan visits open bins).
    pub fn for_each_feasible_in(
        &self,
        need: &[u64],
        lo: usize,
        hi: usize,
        mut f: impl FnMut(usize),
    ) {
        debug_assert!(need.iter().any(|&n| n > 0), "zero need matches closed bins");
        if self.bins == 0 {
            return;
        }
        let hi = hi.min(self.bins - 1);
        let mut base = lo & !(LANES - 1);
        while base <= hi {
            let mut m = self.mask8(base, need);
            while m != 0 {
                f(base + m.trailing_zeros() as usize);
                m &= m - 1;
            }
            base += LANES;
        }
    }
}

/// Backend-selecting mask kernel: bit `l` of the result is set iff
/// `rows[j * stride + base + l] >= need[j]` for every `j`.
#[inline]
pub(crate) fn mask8_dispatch(rows: &[u64], stride: usize, base: usize, need: &[u64]) -> u8 {
    #[cfg(target_arch = "x86_64")]
    {
        // Cached cpuid probe: one relaxed atomic load per call.
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 presence was just verified.
            return unsafe { mask8_avx2(rows, stride, base, need) };
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        return mask8_neon(rows, stride, base, need);
    }
    #[allow(unreachable_code)]
    mask8_portable(rows, stride, base, need)
}

/// Portable branchless backend: explicit unrolled lanes with mask
/// accumulation, shaped so LLVM can autovectorize the inner loop.
#[inline]
pub(crate) fn mask8_portable(rows: &[u64], stride: usize, base: usize, need: &[u64]) -> u8 {
    let mut ok = [true; LANES];
    for (j, &n) in need.iter().enumerate() {
        let row = &rows[j * stride + base..j * stride + base + LANES];
        for l in 0..LANES {
            ok[l] &= row[l] >= n;
        }
    }
    let mut mask = 0u8;
    for (l, &o) in ok.iter().enumerate() {
        mask |= u8::from(o) << l;
    }
    mask
}

/// AVX2 backend: two 4×u64 vectors per dimension row, unsigned `>=` via
/// the sign-flip trick over `_mm256_cmpgt_epi64`, mask accumulated with
/// `andnot`. Bit-identical to [`mask8_portable`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn mask8_avx2(rows: &[u64], stride: usize, base: usize, need: &[u64]) -> u8 {
    use core::arch::x86_64::{
        _mm256_andnot_si256, _mm256_castsi256_pd, _mm256_cmpgt_epi64, _mm256_loadu_si256,
        _mm256_movemask_pd, _mm256_set1_epi64x, _mm256_xor_si256,
    };
    debug_assert!(base + LANES <= stride && need.len() * stride <= rows.len());
    let sign = _mm256_set1_epi64x(i64::MIN);
    let mut ok_lo = _mm256_set1_epi64x(-1);
    let mut ok_hi = _mm256_set1_epi64x(-1);
    for (j, &n) in need.iter().enumerate() {
        let p = rows.as_ptr().add(j * stride + base);
        let r_lo = _mm256_xor_si256(_mm256_loadu_si256(p.cast()), sign);
        let r_hi = _mm256_xor_si256(_mm256_loadu_si256(p.add(4).cast()), sign);
        #[allow(clippy::cast_possible_wrap)]
        let nv = _mm256_xor_si256(_mm256_set1_epi64x(n as i64), sign);
        // violated = need > residual (signed compare on biased values);
        // ok &= !violated.
        ok_lo = _mm256_andnot_si256(_mm256_cmpgt_epi64(nv, r_lo), ok_lo);
        ok_hi = _mm256_andnot_si256(_mm256_cmpgt_epi64(nv, r_hi), ok_hi);
    }
    #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
    let (lo, hi) = (
        _mm256_movemask_pd(_mm256_castsi256_pd(ok_lo)) as u8 & 0x0f,
        _mm256_movemask_pd(_mm256_castsi256_pd(ok_hi)) as u8 & 0x0f,
    );
    lo | (hi << 4)
}

/// NEON backend (`aarch64`, where NEON is baseline): four 2×u64 vectors
/// per dimension row with native unsigned `vcgeq_u64` compares.
/// Bit-identical to [`mask8_portable`].
#[cfg(target_arch = "aarch64")]
#[inline]
pub(crate) fn mask8_neon(rows: &[u64], stride: usize, base: usize, need: &[u64]) -> u8 {
    use core::arch::aarch64::{vandq_u64, vcgeq_u64, vdupq_n_u64, vgetq_lane_u64, vld1q_u64};
    debug_assert!(base + LANES <= stride && need.len() * stride <= rows.len());
    // SAFETY: NEON is mandatory on aarch64; loads stay inside `rows` by
    // the bound check above.
    unsafe {
        let mut acc = [vdupq_n_u64(u64::MAX); 4];
        for (j, &n) in need.iter().enumerate() {
            let nv = vdupq_n_u64(n);
            let p = rows.as_ptr().add(j * stride + base);
            for (k, a) in acc.iter_mut().enumerate() {
                *a = vandq_u64(*a, vcgeq_u64(vld1q_u64(p.add(2 * k)), nv));
            }
        }
        let mut mask = 0u8;
        for (k, a) in acc.iter().enumerate() {
            mask |= ((vgetq_lane_u64::<0>(*a) & 1) as u8) << (2 * k);
            mask |= ((vgetq_lane_u64::<1>(*a) & 1) as u8) << (2 * k + 1);
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Builds a mirror holding `residuals[bin][j]` for open bins.
    fn mirror(dims: usize, residuals: &[Vec<u64>]) -> ResidualBlocks {
        let mut blocks = ResidualBlocks::new();
        blocks.reset(dims);
        for (b, r) in residuals.iter().enumerate() {
            blocks.open(b, r);
        }
        blocks
    }

    /// Scalar reference: first open bin covering `need`.
    fn naive_first(residuals: &[Vec<u64>], need: &[u64]) -> Option<usize> {
        residuals
            .iter()
            .position(|r| need.iter().enumerate().all(|(j, &n)| r[j] >= n))
    }

    #[test]
    fn lifecycle_updates_mirror() {
        let mut blocks = mirror(2, &[vec![10, 10], vec![4, 8]]);
        blocks.pack(0, &[3, 5]);
        assert_eq!(blocks.residual(0, 0), 7);
        assert_eq!(blocks.residual(0, 1), 5);
        blocks.unpack(0, &[3, 5]);
        assert_eq!(blocks.residual(0, 0), 10);
        blocks.close(0);
        assert!(!blocks.covers(0, &[1, 1]));
        assert_eq!(blocks.first_feasible_in(&[1, 1], 0, 1), Some(1));
    }

    #[test]
    fn growth_restrides_and_preserves_residuals() {
        let mut blocks = ResidualBlocks::new();
        blocks.reset(3);
        let n = 5 * INITIAL_STRIDE + 3;
        for b in 0..n {
            let b64 = b as u64;
            blocks.open(b, &[b64 + 1, 2 * b64 + 1, 7]);
        }
        for b in 0..n {
            let b64 = b as u64;
            assert_eq!(blocks.residual(b, 0), b64 + 1);
            assert_eq!(blocks.residual(b, 1), 2 * b64 + 1);
            assert_eq!(blocks.residual(b, 2), 7);
        }
        // The unique bin with residual exactly [n, 2n-1, 7] is the last.
        let n64 = n as u64;
        assert_eq!(
            blocks.first_feasible_in(&[n64, 2 * n64 - 1, 7], 0, n - 1),
            Some(n - 1)
        );
    }

    /// Satellite 2: padding lanes read residual 0 and can never be
    /// selected, at bin counts just below, at, and above a lane
    /// boundary — and after closes.
    #[test]
    fn padding_lanes_are_never_selected() {
        for m in [LANES - 1, LANES, LANES + 1, 2 * LANES - 1, 2 * LANES + 1] {
            let residuals: Vec<Vec<u64>> = (0..m).map(|_| vec![5, 5]).collect();
            let mut blocks = mirror(2, &residuals);
            // Everything feasible: hits must stay within 0..m.
            let mut seen = Vec::new();
            blocks.for_each_feasible_in(&[1, 1], 0, m - 1, |b| seen.push(b));
            assert_eq!(seen, (0..m).collect::<Vec<_>>(), "m={m}");
            assert_eq!(blocks.last_feasible_in(&[1, 1], 0, m - 1), Some(m - 1));
            // Close every bin: nothing is feasible, padding included.
            for b in 0..m {
                blocks.close(b);
            }
            assert_eq!(blocks.first_feasible_in(&[1, 1], 0, m - 1), None, "m={m}");
            assert_eq!(blocks.last_feasible_in(&[1, 1], 0, m - 1), None, "m={m}");
        }
    }

    #[test]
    fn reset_keeps_arena_and_clears_bins() {
        let mut blocks = mirror(2, &[vec![9, 9]]);
        blocks.reset(2);
        assert_eq!(blocks.bins(), 0);
        assert_eq!(blocks.first_feasible_in(&[1, 1], 0, 0), None);
        blocks.open(0, &[3, 3]);
        assert_eq!(blocks.first_feasible_in(&[1, 1], 0, 0), Some(0));
        // Dimensionality change rebuilds the arena.
        blocks.reset(5);
        blocks.open(0, &[1, 2, 3, 4, 5]);
        assert_eq!(blocks.residual(0, 4), 5);
    }

    /// Adversarial boundary values: every backend must agree with the
    /// scalar predicate on 0, `u64::MAX`, and exact-equality residuals.
    #[test]
    fn mask_backends_agree_on_boundary_values() {
        let vals = [0u64, 1, u64::MAX - 1, u64::MAX];
        let stride = LANES;
        for d in [1usize, 2, 3] {
            let mut rows = vec![0u64; d * stride];
            for (i, slot) in rows.iter_mut().enumerate() {
                *slot = vals[(i * 7 + i / 3) % vals.len()];
            }
            for &n0 in &vals {
                for &n1 in &vals {
                    let need: Vec<u64> = (0..d).map(|j| if j % 2 == 0 { n0 } else { n1 }).collect();
                    let expect: u8 = (0..LANES)
                        .map(|l| u8::from((0..d).all(|j| rows[j * stride + l] >= need[j])) << l)
                        .sum();
                    assert_eq!(mask8_portable(&rows, stride, 0, &need), expect);
                    assert_eq!(mask8_dispatch(&rows, stride, 0, &need), expect);
                    #[cfg(target_arch = "x86_64")]
                    if std::arch::is_x86_feature_detected!("avx2") {
                        assert_eq!(unsafe { mask8_avx2(&rows, stride, 0, &need) }, expect);
                    }
                }
            }
        }
    }

    proptest! {
        /// Satellite 3 (first half): block-scan feasibility ≡ the scalar
        /// predicate on adversarial residual/need vectors, across every
        /// compiled backend.
        #[test]
        fn mask_matches_scalar_reference(
            d in 1usize..=16,
            row_picks in prop::collection::vec(0usize..5, 16 * LANES),
            need_picks in prop::collection::vec(0usize..5, 16),
            mix in 0u64..u64::MAX,
        ) {
            // Adversarial palette: zero, one, both u64 extremes, plus a
            // pseudo-random filler derived from `mix` and the position.
            let pick = |choice: usize, i: usize| -> u64 {
                match choice {
                    0 => 0,
                    1 => 1,
                    2 => u64::MAX - 1,
                    3 => u64::MAX,
                    _ => mix.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(i as u64),
                }
            };
            let stride = LANES;
            let rows: Vec<u64> = row_picks[..d * stride]
                .iter()
                .enumerate()
                .map(|(i, &c)| pick(c, i))
                .collect();
            let need_raw: Vec<u64> = need_picks
                .iter()
                .enumerate()
                .map(|(i, &c)| pick(c, i + 7))
                .collect();
            // Equal-boundary stress: echo some residuals into the need.
            let need: Vec<u64> = (0..d)
                .map(|j| if j % 3 == 0 { rows[j * stride + j % LANES] } else { need_raw[j] })
                .collect();
            let expect: u8 = (0..LANES)
                .map(|l| u8::from((0..d).all(|j| rows[j * stride + l] >= need[j])) << l)
                .sum();
            prop_assert_eq!(mask8_portable(&rows, stride, 0, &need), expect);
            prop_assert_eq!(mask8_dispatch(&rows, stride, 0, &need), expect);
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                prop_assert_eq!(unsafe { mask8_avx2(&rows, stride, 0, &need) }, expect);
            }
        }

        /// Satellite 3 (second half): first-feasible identity against a
        /// naive scan across random m and d ∈ 1..=16.
        #[test]
        fn first_feasible_matches_naive_scan(
            d in 1usize..=16,
            m in 1usize..=80,
            seed in 0u64..u64::MAX,
        ) {
            let mut state = seed | 1;
            let mut next = move || {
                // xorshift64*: cheap deterministic values, small range.
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % 16
            };
            let residuals: Vec<Vec<u64>> = (0..m)
                .map(|_| (0..d).map(|_| next()).collect())
                .collect();
            let blocks = mirror(d, &residuals);
            for _ in 0..8 {
                let mut need: Vec<u64> = (0..d).map(|_| next()).collect();
                if need.iter().all(|&n| n == 0) {
                    need[0] = 1;
                }
                let expect = naive_first(&residuals, &need);
                prop_assert_eq!(blocks.first_feasible_in(&need, 0, m - 1), expect);
                let expect_last = residuals.iter().rposition(
                    |r| need.iter().enumerate().all(|(j, &n)| r[j] >= n));
                prop_assert_eq!(blocks.last_feasible_in(&need, 0, m - 1), expect_last);
                let mut hits = Vec::new();
                blocks.for_each_feasible_in(&need, 0, m - 1, |b| hits.push(b));
                let expect_all: Vec<usize> = (0..m)
                    .filter(|&b| need.iter().enumerate().all(|(j, &n)| residuals[b][j] >= n))
                    .collect();
                prop_assert_eq!(hits, expect_all);
            }
        }
    }
}
