//! `FitIndex`: an 8-ary max-residual tree over the block-scan mirror,
//! the engine's bin-selection structure at or above the crossover.
//!
//! The tree keeps no residual copy of its own: its leaf level is
//! [`ResidualBlocks`]' dimension-major rows. Each summary level above
//! holds, dimension-major and padded to a multiple of [`LANES`] like the
//! mirror, the per-dimension maximum of 8 consecutive entries of the
//! level below: node `i` of level `ℓ` covers entries `8i .. 8i + 8` of
//! level `ℓ − 1`. Levels are added until the top one fits in one block
//! of 8. Closed, never-opened and padding bins read residual 0, and so
//! does every summary entry with nothing open below it; a valid item
//! needs a nonzero amount in some dimension (`Instance::validate`), so
//! none of them ever matches.
//!
//! Every node visit is one [`mask8_dispatch`] call: bit `l` of a block's
//! mask says whether entry `l`'s maxima cover the need in every
//! dimension — necessary for a feasible bin below it, and sufficient at
//! a leaf. [`FitIndex::first_fit`], [`FitIndex::last_fit`] and
//! [`FitIndex::for_each_feasible`] descend from the top block through the
//! lowest set bit, the highest, or all of them in ascending id order.
//! For `d ≥ 2` a node can cover the need while none of its children
//! does; the child's mask is then empty and the descent moves on to the
//! parent's next set bit.
//!
//! The engine maintains nothing until the run's first query routed
//! here: [`FitIndex::build`] then computes the levels from the mirror,
//! and [`FitIndex::lower`] / [`FitIndex::raise`] keep them current after
//! every residual change (a change of the mirror's stride rebuilds).

use crate::block_scan::{mask8_dispatch, ResidualBlocks, LANES};
use std::ops::ControlFlow;

/// Most levels (leaves included) any mirror stride can need.
const MAX_DEPTH: usize = usize::BITS as usize / 3 + 1;

/// The summary levels of an 8-ary max-residual tree over a
/// [`ResidualBlocks`] mirror.
#[derive(Debug, Default)]
pub(crate) struct FitIndex {
    /// Mirror stride the levels were built for; 0 while the tree is not
    /// live (never built this run, or built over no bins).
    stride: usize,
    dims: usize,
    /// `(offset, stride)` of summary level `ℓ` (1-based) in `tree`.
    levels: Vec<(usize, usize)>,
    /// Every summary level, each `dims * stride` entries dimension-major.
    tree: Vec<u64>,
}

impl FitIndex {
    /// Marks the tree stale for a new run, keeping its allocations.
    pub(crate) fn reset(&mut self) {
        self.stride = 0;
    }

    /// Whether the levels are current (see [`FitIndex::build`]).
    #[must_use]
    pub(crate) fn is_live(&self) -> bool {
        self.stride != 0
    }

    /// Level `l`'s rows and stride; level 0 is the mirror itself.
    fn rows<'a>(&'a self, leaves: &'a ResidualBlocks, l: usize) -> (&'a [u64], usize) {
        if l == 0 {
            (leaves.rows(), leaves.stride())
        } else {
            let (off, stride) = self.levels[l - 1];
            (&self.tree[off..off + self.dims * stride], stride)
        }
    }

    /// Dimension `j`'s maximum over the block of level `l` starting at
    /// `base`.
    fn block_max(&self, leaves: &ResidualBlocks, l: usize, j: usize, base: usize) -> u64 {
        let (rows, stride) = self.rows(leaves, l);
        let block = &rows[j * stride + base..j * stride + base + LANES];
        block.iter().fold(0, |m, &r| m.max(r))
    }

    /// Computes every summary level from the mirror; the tree is live
    /// from then on unless the mirror holds no bins yet.
    pub(crate) fn build(&mut self, leaves: &ResidualBlocks) {
        self.stride = if leaves.bins() == 0 {
            0
        } else {
            leaves.stride()
        };
        self.dims = leaves.dims();
        self.levels.clear();
        let (mut n, mut len) = (self.stride, 0);
        while n > LANES {
            n = n.div_ceil(LANES);
            let stride = n.next_multiple_of(LANES);
            self.levels.push((len, stride));
            len += self.dims * stride;
        }
        self.tree.clear();
        self.tree.resize(len, 0);
        for l in 1..=self.levels.len() {
            let (off, stride) = self.levels[l - 1];
            let below = self.rows(leaves, l - 1).1;
            for j in 0..self.dims {
                for node in 0..below / LANES {
                    self.tree[off + j * stride + node] =
                        self.block_max(leaves, l - 1, j, node * LANES);
                }
            }
        }
    }

    /// Refreshes the ancestors of `bin` after its residual fell (an item
    /// packed, or the bin closed): each is recomputed from its 8
    /// children, stopping at the first that does not change.
    pub(crate) fn lower(&mut self, leaves: &ResidualBlocks, bin: usize) {
        if !self.is_live() {
            return;
        }
        debug_assert_eq!(leaves.stride(), self.stride, "only opens grow the mirror");
        let mut node = bin;
        for l in 1..=self.levels.len() {
            let base = node & !(LANES - 1);
            node /= LANES;
            let (off, stride) = self.levels[l - 1];
            let mut changed = false;
            for j in 0..self.dims {
                let max = self.block_max(leaves, l - 1, j, base);
                let slot = &mut self.tree[off + j * stride + node];
                changed |= *slot != max;
                *slot = max;
            }
            if !changed {
                return;
            }
        }
    }

    /// Refreshes the ancestors of `bin` after its residual rose (an item
    /// departed, or the bin opened): each takes the larger of its value
    /// and the child's, stopping at the first that does not change. An
    /// open that grew the mirror's stride rebuilds the levels instead.
    pub(crate) fn raise(&mut self, leaves: &ResidualBlocks, bin: usize) {
        if !self.is_live() {
            return;
        }
        if leaves.stride() != self.stride {
            return self.build(leaves);
        }
        let mut child = bin;
        for l in 1..=self.levels.len() {
            let node = child / LANES;
            let (off, stride) = self.levels[l - 1];
            let mut changed = false;
            for j in 0..self.dims {
                let (rows, below) = self.rows(leaves, l - 1);
                let r = rows[j * below + child];
                let slot = &mut self.tree[off + j * stride + node];
                if r > *slot {
                    *slot = r;
                    changed = true;
                }
            }
            if !changed {
                return;
            }
            child = node;
        }
    }

    /// Depth-first walk over the nodes covering `need`, calling `f` for
    /// each feasible bin in ascending id order (descending when `REV`)
    /// until it breaks. Each visit masks one block of 8 entries.
    fn walk<const REV: bool>(
        &self,
        leaves: &ResidualBlocks,
        need: &[u64],
        mut f: impl FnMut(usize) -> ControlFlow<()>,
    ) {
        debug_assert!(need.iter().any(|&n| n > 0), "zero need matches closed bins");
        if !self.is_live() {
            return;
        }
        let top = self.levels.len();
        let mask_at = |l: usize, base: usize| {
            let (rows, stride) = self.rows(leaves, l);
            mask8_dispatch(rows, stride, base, need)
        };
        // Unvisited set bits and block base, per level on the path.
        let mut mask = [0u8; MAX_DEPTH];
        let mut base = [0usize; MAX_DEPTH];
        let mut l = top;
        mask[l] = mask_at(l, 0);
        loop {
            let m = mask[l];
            if m == 0 {
                if l == top {
                    return;
                }
                l += 1;
                continue;
            }
            let bit = if REV {
                7 - m.leading_zeros() as usize
            } else {
                m.trailing_zeros() as usize
            };
            mask[l] = m & !(1 << bit);
            let node = base[l] + bit;
            if l == 0 {
                if f(node).is_break() {
                    return;
                }
            } else {
                l -= 1;
                base[l] = node * LANES;
                mask[l] = mask_at(l, base[l]);
            }
        }
    }

    /// Lowest-id bin whose residual covers `need` in every dimension —
    /// the First Fit choice.
    #[must_use]
    pub(crate) fn first_fit(&self, leaves: &ResidualBlocks, need: &[u64]) -> Option<usize> {
        let mut hit = None;
        self.walk::<false>(leaves, need, |b| {
            hit = Some(b);
            ControlFlow::Break(())
        });
        hit
    }

    /// Highest-id bin whose residual covers `need` — the Last Fit choice.
    #[must_use]
    pub(crate) fn last_fit(&self, leaves: &ResidualBlocks, need: &[u64]) -> Option<usize> {
        let mut hit = None;
        self.walk::<true>(leaves, need, |b| {
            hit = Some(b);
            ControlFlow::Break(())
        });
        hit
    }

    /// Calls `f(bin)` for every bin whose residual covers `need`, in
    /// ascending bin-id order.
    pub(crate) fn for_each_feasible(
        &self,
        leaves: &ResidualBlocks,
        need: &[u64],
        mut f: impl FnMut(usize),
    ) {
        self.walk::<false>(leaves, need, |b| {
            f(b);
            ControlFlow::Continue(())
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A mirror and its tree, updated the way the engine updates them.
    struct Model {
        blocks: ResidualBlocks,
        index: FitIndex,
    }

    impl Model {
        fn new(dims: usize) -> Self {
            let mut blocks = ResidualBlocks::new();
            blocks.reset(dims);
            Model {
                blocks,
                index: FitIndex::default(),
            }
        }

        fn open(&mut self, bin: usize, residual: &[u64]) {
            self.blocks.open(bin, residual);
            self.index.raise(&self.blocks, bin);
        }

        fn pack(&mut self, bin: usize, size: &[u64]) {
            self.blocks.pack(bin, size);
            self.index.lower(&self.blocks, bin);
        }

        fn unpack(&mut self, bin: usize, size: &[u64]) {
            self.blocks.unpack(bin, size);
            self.index.raise(&self.blocks, bin);
        }

        fn close(&mut self, bin: usize) {
            self.blocks.close(bin);
            self.index.lower(&self.blocks, bin);
        }

        /// Latches the tree on first use, as the engine's view does.
        fn live(&mut self) -> &FitIndex {
            if !self.index.is_live() {
                self.index.build(&self.blocks);
            }
            &self.index
        }

        fn first(&mut self, need: &[u64]) -> Option<usize> {
            self.live();
            self.index.first_fit(&self.blocks, need)
        }

        fn last(&mut self, need: &[u64]) -> Option<usize> {
            self.live();
            self.index.last_fit(&self.blocks, need)
        }

        fn all(&mut self, need: &[u64]) -> Vec<usize> {
            self.live();
            let mut seen = Vec::new();
            self.index
                .for_each_feasible(&self.blocks, need, |b| seen.push(b));
            seen
        }
    }

    fn covers(r: &[u64], need: &[u64]) -> bool {
        r.iter().zip(need).all(|(a, b)| a >= b)
    }

    #[test]
    fn one_dim_basic() {
        let mut t = Model::new(1);
        t.open(0, &[10]);
        t.open(1, &[10]);
        t.pack(0, &[5]);
        t.pack(1, &[3]);
        assert_eq!(t.first(&[4]), Some(0));
        assert_eq!(t.first(&[6]), Some(1));
        assert_eq!(t.first(&[8]), None);
        assert_eq!(t.last(&[4]), Some(1));
        t.unpack(0, &[5]);
        assert_eq!(t.first(&[8]), Some(0));
    }

    #[test]
    fn multidim_backtracking() {
        // Bins 24 and 25 hold `[9, 1]` and `[1, 9]`: their block's
        // summary `[9, 9]` covers `[2, 2]` and `[6, 6]` though neither bin
        // does, so those descents meet an empty child mask and must move
        // on to the parent's next set bit (or give up).
        let mut t = Model::new(2);
        for b in 0..24 {
            let r = match b {
                0..=7 => [9, 1],
                8..=15 => [1, 9],
                _ => [5, 5],
            };
            t.open(b, &r);
        }
        t.live();
        for b in 0..8 {
            t.close(b);
        }
        t.open(24, &[9, 1]);
        t.open(25, &[1, 9]);
        assert_eq!(t.first(&[2, 2]), Some(16));
        assert_eq!(t.first(&[6, 1]), Some(24));
        assert_eq!(t.first(&[1, 6]), Some(8));
        assert_eq!(t.first(&[6, 6]), None);
        assert_eq!(t.last(&[2, 2]), Some(23));
        assert_eq!(t.last(&[6, 1]), Some(24));
        assert_eq!(t.last(&[1, 6]), Some(25));
    }

    #[test]
    fn closed_bins_never_match() {
        let mut t = Model::new(1);
        t.open(0, &[10]);
        t.open(1, &[10]);
        t.close(0);
        assert_eq!(t.first(&[1]), Some(1));
        t.close(1);
        assert_eq!(t.first(&[1]), None);
        assert_eq!(t.all(&[1]), Vec::<usize>::new());
    }

    #[test]
    fn enumeration_matches_scan_order() {
        let mut t = Model::new(2);
        let residuals = [[3u64, 4], [5, 1], [2, 2], [6, 6], [0, 9]];
        for (b, r) in residuals.iter().enumerate() {
            t.open(b, r);
        }
        assert_eq!(t.all(&[2, 2]), vec![0, 2, 3]);
    }

    #[test]
    fn empty_mirror_is_not_live() {
        let mut t = Model::new(2);
        assert_eq!(t.first(&[1, 1]), None);
        assert!(!t.index.is_live());
        t.open(0, &[4, 4]);
        assert_eq!(t.first(&[1, 1]), Some(0));
        assert!(t.index.is_live());
    }

    /// Every query of `t` against the naive residuals, and every summary
    /// entry against a fresh build: upkeep keeps the levels exact, not
    /// merely upper bounds (a stale maximum would still answer right,
    /// only slower).
    fn check(t: &mut Model, naive: &[Vec<u64>], need: &[u64], at: &str) {
        let all: Vec<usize> = (0..naive.len())
            .filter(|&b| covers(&naive[b], need))
            .collect();
        assert_eq!(t.first(need), all.first().copied(), "{at} need={need:?}");
        assert_eq!(t.last(need), all.last().copied(), "{at} need={need:?}");
        assert_eq!(t.all(need), all, "{at} need={need:?}");
        let mut fresh = FitIndex::default();
        fresh.build(&t.blocks);
        assert_eq!(fresh.levels, t.index.levels, "{at}");
        assert_eq!(fresh.tree, t.index.tree, "{at}");
    }

    /// The tree against a naive model across the level boundaries:
    /// opens past 600 bins (the mirror's stride reaches 1,024, where a
    /// third summary level appears) while the levels are live, closes
    /// that zero a whole 8-bin and a whole 64-bin group, and a first
    /// query issued only after bins have opened and closed.
    #[test]
    fn randomized_against_naive() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        for d in [1usize, 2, 4, 9] {
            let mut t = Model::new(d);
            let mut naive: Vec<Vec<u64>> = Vec::new();
            let mut step = 0;
            while naive.len() < 640 || step < 1500 {
                step += 1;
                let at = format!("d={d} step={step}");
                match rng.random_range(0..5u32) {
                    0 | 1 => {
                        let r: Vec<u64> = (0..d).map(|_| rng.random_range(0..=10)).collect();
                        t.open(naive.len(), &r);
                        naive.push(r);
                        // Whole-group closes once the group exists: an
                        // aligned 8-bin block, then an aligned 64-bin one.
                        for (len, group) in [(96, 8..16), (400, 192..256)] {
                            if naive.len() == len {
                                for b in group {
                                    t.close(b);
                                    naive[b].fill(0);
                                }
                                if t.index.is_live() {
                                    check(&mut t, &naive, &vec![1; d], &at);
                                }
                            }
                        }
                    }
                    2 if !naive.is_empty() => {
                        let b = rng.random_range(0..naive.len());
                        let delta: Vec<u64> =
                            naive[b].iter().map(|&r| rng.random_range(0..=r)).collect();
                        t.pack(b, &delta);
                        for (r, x) in naive[b].iter_mut().zip(&delta) {
                            *r -= x;
                        }
                    }
                    3 if !naive.is_empty() => {
                        let b = rng.random_range(0..naive.len());
                        let delta: Vec<u64> = (0..d).map(|_| rng.random_range(0..=3)).collect();
                        t.unpack(b, &delta);
                        for (r, x) in naive[b].iter_mut().zip(&delta) {
                            *r += x;
                        }
                    }
                    _ if !naive.is_empty() => {
                        let b = rng.random_range(0..naive.len());
                        t.close(b);
                        naive[b].fill(0);
                    }
                    _ => {}
                }
                // No query before step 60: the tree latches mid-run.
                if step >= 60 && step % 3 == 0 {
                    assert_eq!(step == 60, !t.index.is_live(), "{at}");
                    let hi = rng.random_range(1..=8);
                    let need: Vec<u64> = (0..d).map(|_| rng.random_range(1..=hi)).collect();
                    check(&mut t, &naive, &need, &at);
                }
            }
            assert!(
                t.blocks.stride() >= 1024,
                "d={d}: the third level was never reached"
            );
        }
    }

    #[test]
    fn reset_reuses_allocation() {
        let mut t = Model::new(2);
        for b in 0..20 {
            t.open(b, &[5, 5]);
        }
        assert_eq!(t.first(&[1, 1]), Some(0));
        // A new run: the engine resets both, keeping their arenas.
        t.blocks.reset(2);
        t.index.reset();
        assert!(!t.index.is_live());
        assert_eq!(t.first(&[1, 1]), None);
        t.open(0, &[4, 4]);
        assert_eq!(t.first(&[1, 1]), Some(0));
        // Dimension change: both rebuild from scratch.
        t.blocks.reset(3);
        t.index.reset();
        assert_eq!(t.first(&[1, 1, 1]), None);
        t.open(0, &[4, 4, 4]);
        assert_eq!(t.first(&[1, 1, 1]), Some(0));
    }
}
