//! `FitIndex`: per-dimension max-residual segment trees over bins, the
//! engine's O(log m) bin-selection structure.
//!
//! Generalizes the classic d = 1 max-residual tree to arbitrary
//! dimension. One implicit-heap segment tree is kept per dimension, stored **node-major** in a single
//! flat `u64` arena: node `i` owns `tree[i*d .. (i+1)*d]`, where entry `j`
//! is the maximum residual capacity in dimension `j` over the leaves
//! below `i`. Leaves are bins in opening order (leaf `b` = node
//! `leaves + b`), so an in-order traversal enumerates bins by `BinId` —
//! exactly the First Fit order.
//!
//! A subtree can contain a bin that fits an item needing `need[j]` units
//! only if its max residual is `≥ need[j]` **in every dimension** — a
//! necessary condition that is also sufficient at a leaf, where the node
//! holds one bin's actual residual vector. The descents below prune on
//! that condition and backtrack where it is necessary-but-not-sufficient
//! (possible only for `d ≥ 2`): `first_fit`/`last_fit` are exact
//! O(log m) for `d = 1` and expected O(log m) on non-adversarial
//! workloads otherwise, degrading gracefully to the scan's O(m·d) in the
//! worst case. Closed bins are pinned to residual 0 in all dimensions, so
//! they are never matched: a valid item has at least one nonzero size
//! component (enforced by `Instance::validate`), which the zero residual
//! cannot cover.
//!
//! The tree grows by doubling (amortized O(d) per opened bin) and is
//! reused across runs via [`FitIndex::reset`], so a warmed engine
//! performs no allocations here in steady state.

/// Per-dimension max-residual segment trees over bins, node-major SoA.
#[derive(Clone, Debug, Default)]
pub struct FitIndex {
    /// Dimensionality `d` of residual vectors.
    dims: usize,
    /// Number of leaves (a power of two, or 0 before first use).
    leaves: usize,
    /// Node-major arena: `2 * leaves * dims` entries, root at node 1.
    tree: Vec<u64>,
    /// Number of bins ever registered (leaves `0..bins` are live).
    bins: usize,
}

impl FitIndex {
    /// Creates an empty index for `dims`-dimensional residuals (the
    /// engine starts from `Default` and sizes it with
    /// [`FitIndex::reset`]).
    #[cfg(test)]
    #[must_use]
    pub fn new(dims: usize) -> Self {
        FitIndex {
            dims,
            leaves: 0,
            tree: Vec::new(),
            bins: 0,
        }
    }

    /// Clears all bins. When `dims` is unchanged the grown arena is kept
    /// (zeroed in place), so a warmed index re-runs without allocating;
    /// a dimension change discards it.
    pub fn reset(&mut self, dims: usize) {
        if dims == self.dims {
            self.tree.fill(0);
        } else {
            self.dims = dims;
            self.leaves = 0;
            self.tree.clear();
        }
        self.bins = 0;
    }

    /// Number of bins registered via [`FitIndex::open`].
    #[cfg(test)]
    #[must_use]
    pub fn num_bins(&self) -> usize {
        self.bins
    }

    #[inline]
    fn node(&self, i: usize) -> &[u64] {
        &self.tree[i * self.dims..(i + 1) * self.dims]
    }

    /// Recomputes node `i` from its two children.
    #[inline]
    fn pull(&mut self, i: usize) {
        let d = self.dims;
        for j in 0..d {
            self.tree[i * d + j] = self.tree[(2 * i) * d + j].max(self.tree[(2 * i + 1) * d + j]);
        }
    }

    /// Recomputes node `i` from its two children; returns whether any
    /// component actually changed. An unchanged node implies all its
    /// ancestors are unchanged too, so update climbs can stop here.
    #[inline]
    fn pull_changed(&mut self, i: usize) -> bool {
        let d = self.dims;
        let mut changed = false;
        for j in 0..d {
            let v = self.tree[(2 * i) * d + j].max(self.tree[(2 * i + 1) * d + j]);
            if self.tree[i * d + j] != v {
                self.tree[i * d + j] = v;
                changed = true;
            }
        }
        changed
    }

    /// Grows the leaf level to hold at least `bins` bins, preserving
    /// existing residuals.
    fn ensure(&mut self, bins: usize) {
        if bins <= self.leaves {
            return;
        }
        let d = self.dims;
        let mut leaves = self.leaves.max(1);
        while leaves < bins {
            leaves *= 2;
        }
        let mut fresh = vec![0u64; 2 * leaves * d];
        fresh[leaves * d..(leaves + self.leaves) * d]
            .copy_from_slice(&self.tree[self.leaves * d..2 * self.leaves * d]);
        self.leaves = leaves;
        self.tree = fresh;
        for i in (1..leaves).rev() {
            self.pull(i);
        }
    }

    /// Fixes a leaf's root path after its residual changed, stopping at
    /// the first ancestor whose per-dimension max is unaffected (a bin
    /// rarely holds the subtree max in every dimension, so most climbs
    /// terminate after one or two pulls).
    fn update_path(&mut self, bin: usize) {
        let mut i = (self.leaves + bin) / 2;
        while i >= 1 {
            if !self.pull_changed(i) {
                return;
            }
            i /= 2;
        }
    }

    /// Bulk-(re)builds the index over `bins` bins in O(bins · d),
    /// reading each leaf's residual through `residual_of` (closed bins
    /// must be written as all-zero). Used by the engine to bring a
    /// deliberately-stale index up to date the first time a query is
    /// routed to it mid-run; a warmed arena of sufficient size is reused
    /// without allocating.
    pub fn rebuild(&mut self, bins: usize, mut residual_of: impl FnMut(usize, &mut [u64])) {
        let d = self.dims;
        let mut leaves = self.leaves.max(1);
        while leaves < bins {
            leaves *= 2;
        }
        if self.tree.len() != 2 * leaves * d {
            self.leaves = leaves;
            self.tree.clear();
            self.tree.resize(2 * leaves * d, 0);
        }
        self.bins = bins;
        let base = leaves * d;
        for b in 0..bins {
            residual_of(b, &mut self.tree[base + b * d..base + (b + 1) * d]);
        }
        // Stale leaves past `bins` and all internal nodes are recomputed.
        self.tree[base + bins * d..].fill(0);
        for i in (1..leaves).rev() {
            self.pull(i);
        }
    }

    /// Registers bin `bin` (must be `num_bins()`, i.e. bins open in id
    /// order) with the given initial residual (= full capacity).
    ///
    /// # Panics
    ///
    /// Panics if bins are opened out of order or `residual` has the wrong
    /// dimension.
    pub fn open(&mut self, bin: usize, residual: &[u64]) {
        assert_eq!(bin, self.bins, "bins must open in id order");
        assert_eq!(residual.len(), self.dims, "residual dimension mismatch");
        self.bins += 1;
        self.ensure(self.bins);
        let d = self.dims;
        let leaf = (self.leaves + bin) * d;
        self.tree[leaf..leaf + d].copy_from_slice(residual);
        self.update_path(bin);
    }

    /// Subtracts `size` from `bin`'s residual (an item was packed).
    ///
    /// # Panics
    ///
    /// Debug-asserts that the residual covers `size` (the engine checks
    /// feasibility before packing).
    pub fn pack(&mut self, bin: usize, size: &[u64]) {
        let d = self.dims;
        let leaf = (self.leaves + bin) * d;
        for (j, &s) in size.iter().enumerate().take(d) {
            debug_assert!(self.tree[leaf + j] >= s, "overpacked bin {bin}");
            self.tree[leaf + j] -= s;
        }
        self.update_path(bin);
    }

    /// Adds `size` back to `bin`'s residual (an item departed).
    pub fn unpack(&mut self, bin: usize, size: &[u64]) {
        let d = self.dims;
        let leaf = (self.leaves + bin) * d;
        for (j, &s) in size.iter().enumerate().take(d) {
            self.tree[leaf + j] += s;
        }
        self.update_path(bin);
    }

    /// Pins `bin`'s residual to 0 in every dimension: the bin closed and
    /// must never be matched again.
    pub fn close(&mut self, bin: usize) {
        let d = self.dims;
        let leaf = (self.leaves + bin) * d;
        self.tree[leaf..leaf + d].fill(0);
        self.update_path(bin);
    }

    #[inline]
    fn covers(residual: &[u64], need: &[u64]) -> bool {
        residual.iter().zip(need).all(|(r, n)| r >= n)
    }

    /// Lowest-id bin whose residual covers `need` in every dimension —
    /// the First Fit choice. Left-first pruned descent with backtracking.
    #[must_use]
    pub fn first_fit(&self, need: &[u64]) -> Option<usize> {
        if self.bins == 0 || !Self::covers(self.node(1), need) {
            return None;
        }
        let mut i = 1usize;
        loop {
            if i >= self.leaves {
                return Some(i - self.leaves);
            }
            if Self::covers(self.node(2 * i), need) {
                i *= 2;
                continue;
            }
            // Left subtree pruned; the right must cover (the parent did),
            // but for d >= 2 "covers" is only necessary: if the right
            // subtree later dead-ends we must backtrack past it.
            if Self::covers(self.node(2 * i + 1), need) {
                i = 2 * i + 1;
                continue;
            }
            // Dead end: climb until we can move to an unvisited right
            // sibling whose subtree covers `need`.
            loop {
                if i == 1 {
                    return None;
                }
                let parent = i / 2;
                if i == 2 * parent {
                    // We came from the left child; try the right sibling.
                    if Self::covers(self.node(2 * parent + 1), need) {
                        i = 2 * parent + 1;
                        break;
                    }
                }
                i = parent;
            }
        }
    }

    /// Highest-id bin whose residual covers `need` — the Last Fit choice.
    #[must_use]
    pub fn last_fit(&self, need: &[u64]) -> Option<usize> {
        if self.bins == 0 || !Self::covers(self.node(1), need) {
            return None;
        }
        let mut i = 1usize;
        loop {
            if i >= self.leaves {
                return Some(i - self.leaves);
            }
            if Self::covers(self.node(2 * i + 1), need) {
                i = 2 * i + 1;
                continue;
            }
            if Self::covers(self.node(2 * i), need) {
                i *= 2;
                continue;
            }
            loop {
                if i == 1 {
                    return None;
                }
                let parent = i / 2;
                if i == 2 * parent + 1 {
                    // We came from the right child; try the left sibling.
                    if Self::covers(self.node(2 * parent), need) {
                        i = 2 * parent;
                        break;
                    }
                }
                i = parent;
            }
        }
    }

    /// Calls `f(bin)` for every bin whose residual covers `need`, in
    /// ascending bin-id order (pruned in-order traversal):
    /// O(log m + feasible · d) instead of the scan's O(m · d).
    pub fn for_each_feasible(&self, need: &[u64], mut f: impl FnMut(usize)) {
        if self.bins == 0 {
            return;
        }
        self.visit(1, need, &mut f);
    }

    fn visit(&self, i: usize, need: &[u64], f: &mut impl FnMut(usize)) {
        if !Self::covers(self.node(i), need) {
            return;
        }
        if i >= self.leaves {
            f(i - self.leaves);
            return;
        }
        self.visit(2 * i, need, f);
        self.visit(2 * i + 1, need, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force twin used to cross-check every query.
    fn naive_first_fit(res: &[Vec<u64>], need: &[u64]) -> Option<usize> {
        res.iter()
            .position(|r| r.iter().zip(need).all(|(a, b)| a >= b))
    }

    #[test]
    fn one_dim_basic() {
        let mut idx = FitIndex::new(1);
        idx.open(0, &[10]);
        idx.open(1, &[10]);
        idx.pack(0, &[5]);
        idx.pack(1, &[3]);
        assert_eq!(idx.first_fit(&[4]), Some(0));
        assert_eq!(idx.first_fit(&[6]), Some(1));
        assert_eq!(idx.first_fit(&[8]), None);
        assert_eq!(idx.last_fit(&[4]), Some(1));
        idx.unpack(0, &[5]);
        assert_eq!(idx.first_fit(&[8]), Some(0));
    }

    #[test]
    fn multidim_backtracking() {
        // Bin 0 covers dim 0 only, bin 1 covers dim 1 only, bin 2 covers
        // both: the left-first descent must backtrack past both fakes.
        let mut idx = FitIndex::new(2);
        idx.open(0, &[9, 1]);
        idx.open(1, &[1, 9]);
        idx.open(2, &[5, 5]);
        assert_eq!(idx.first_fit(&[2, 2]), Some(2));
        assert_eq!(idx.first_fit(&[6, 1]), Some(0));
        assert_eq!(idx.first_fit(&[1, 6]), Some(1));
        assert_eq!(idx.first_fit(&[6, 6]), None);
        assert_eq!(idx.last_fit(&[2, 2]), Some(2));
        assert_eq!(idx.last_fit(&[6, 1]), Some(0));
    }

    #[test]
    fn closed_bins_never_match() {
        let mut idx = FitIndex::new(1);
        idx.open(0, &[10]);
        idx.open(1, &[10]);
        idx.close(0);
        assert_eq!(idx.first_fit(&[1]), Some(1));
        idx.close(1);
        assert_eq!(idx.first_fit(&[1]), None);
    }

    #[test]
    fn growth_preserves_residuals() {
        let mut idx = FitIndex::new(3);
        let mut naive: Vec<Vec<u64>> = Vec::new();
        for b in 0..40 {
            let r = vec![(b as u64 % 7) + 1, (b as u64 % 5) + 1, (b as u64 % 3) + 1];
            idx.open(b, &r);
            naive.push(r);
        }
        for need in [[1, 1, 1], [7, 1, 1], [7, 5, 3], [8, 1, 1], [2, 4, 2]] {
            assert_eq!(idx.first_fit(&need), naive_first_fit(&naive, &need));
        }
    }

    #[test]
    fn enumeration_matches_scan_order() {
        let mut idx = FitIndex::new(2);
        let residuals = [[3u64, 4], [5, 1], [2, 2], [6, 6], [0, 9]];
        for (b, r) in residuals.iter().enumerate() {
            idx.open(b, r);
        }
        let mut seen = Vec::new();
        idx.for_each_feasible(&[2, 2], |b| seen.push(b));
        assert_eq!(seen, vec![0, 2, 3]);
    }

    #[test]
    fn randomized_against_naive() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        for d in [1usize, 2, 3, 8, 9] {
            let mut idx = FitIndex::new(d);
            let mut naive: Vec<Vec<u64>> = Vec::new();
            for step in 0..400 {
                let op = rng.random_range(0..4u32);
                match op {
                    0 => {
                        let r: Vec<u64> = (0..d).map(|_| rng.random_range(0..=10)).collect();
                        idx.open(naive.len(), &r);
                        naive.push(r);
                    }
                    1 if !naive.is_empty() => {
                        let b = rng.random_range(0..naive.len());
                        let delta: Vec<u64> =
                            naive[b].iter().map(|&r| rng.random_range(0..=r)).collect();
                        idx.pack(b, &delta);
                        for (r, x) in naive[b].iter_mut().zip(&delta) {
                            *r -= x;
                        }
                    }
                    2 if !naive.is_empty() => {
                        let b = rng.random_range(0..naive.len());
                        let delta: Vec<u64> = (0..d).map(|_| rng.random_range(0..=3)).collect();
                        idx.unpack(b, &delta);
                        for (r, x) in naive[b].iter_mut().zip(&delta) {
                            *r += x;
                        }
                    }
                    _ if !naive.is_empty() => {
                        let b = rng.random_range(0..naive.len());
                        idx.close(b);
                        naive[b].fill(0);
                    }
                    _ => {}
                }
                if step % 7 == 0 {
                    let need: Vec<u64> = (0..d).map(|_| rng.random_range(1..=6)).collect();
                    assert_eq!(
                        idx.first_fit(&need),
                        naive_first_fit(&naive, &need),
                        "d={d} step={step} need={need:?}"
                    );
                    let last = naive
                        .iter()
                        .rposition(|r| r.iter().zip(&need).all(|(a, b)| a >= b));
                    assert_eq!(idx.last_fit(&need), last, "d={d} step={step}");
                    let mut enumerated = Vec::new();
                    idx.for_each_feasible(&need, |b| enumerated.push(b));
                    let expected: Vec<usize> = naive
                        .iter()
                        .enumerate()
                        .filter(|(_, r)| r.iter().zip(&need).all(|(a, b)| a >= b))
                        .map(|(b, _)| b)
                        .collect();
                    assert_eq!(enumerated, expected, "d={d} step={step}");
                }
            }
        }
    }

    #[test]
    fn reset_reuses_allocation() {
        let mut idx = FitIndex::new(2);
        for b in 0..20 {
            idx.open(b, &[5, 5]);
        }
        // Same-dims reset keeps the grown arena zeroed in place.
        idx.reset(2);
        assert_eq!(idx.num_bins(), 0);
        assert_eq!(idx.first_fit(&[1, 1]), None);
        idx.open(0, &[4, 4]);
        assert_eq!(idx.first_fit(&[1, 1]), Some(0));
        // Dimension change rebuilds from scratch.
        idx.reset(3);
        assert_eq!(idx.first_fit(&[1, 1, 1]), None);
        idx.open(0, &[4, 4, 4]);
        assert_eq!(idx.first_fit(&[1, 1, 1]), Some(0));
    }
}
