//! Exact static vector bin packing by branch & bound.
//!
//! Computes the minimum number of unit bins needed to pack a set of
//! `d`-dimensional sizes — the quantity `OPT(R, t)` of §2.3, evaluated on
//! the items active at time `t`. NP-hard, but the slices arising in tests,
//! in the adversarial constructions, and in small random instances have at
//! most a few dozen items, which this solver handles comfortably:
//!
//! * items are pre-sorted by decreasing exact `L∞` size (big rocks first);
//! * the incumbent is seeded with the FFD solution, so the search only
//!   explores assignments that would strictly improve on FFD;
//! * the per-dimension volume bound `max_j ⌈Σ load_j / cap_j⌉` prunes
//!   subtrees (applied to the remaining items against remaining free
//!   space, plus bins already committed);
//! * symmetric branches are skipped: an item is never tried in two bins
//!   with identical load vectors, and opening "the" new bin is a single
//!   branch.

use dvbp_dimvec::{DimVec, WideSum};

/// Hard cap on items per exact solve; beyond this, callers should use the
/// `[lb, ffd]` sandwich instead (see [`crate::opt::opt_bounds`]).
pub const DEFAULT_ITEM_LIMIT: usize = 28;

/// Minimum number of bins of capacity `cap` needed to pack all `sizes`.
///
/// Returns `None` if `sizes.len()` exceeds `item_limit` (the caller asked
/// for a bounded-effort solve). `Some(0)` for an empty input.
///
/// # Panics
///
/// Panics if any size does not fit an empty bin.
#[must_use]
pub fn pack_count(sizes: &[DimVec], cap: &DimVec, item_limit: usize) -> Option<usize> {
    pack_assignment(sizes, cap, item_limit).map(|a| a.bins)
}

/// An optimal packing: the number of bins and an `item → bin` map.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExactPacking {
    /// Optimal bin count.
    pub bins: usize,
    /// `assignment[i]` is the bin index of `sizes[i]` in an optimal
    /// packing (bin indices `0..bins`).
    pub assignment: Vec<usize>,
}

/// Like [`pack_count`], but also returns a witness assignment realizing
/// the optimum.
///
/// Returns `None` if `sizes.len()` exceeds `item_limit`. `Some` with an
/// empty assignment for an empty input.
///
/// # Panics
///
/// Panics if any size does not fit an empty bin.
#[must_use]
pub fn pack_assignment(sizes: &[DimVec], cap: &DimVec, item_limit: usize) -> Option<ExactPacking> {
    if sizes.len() > item_limit {
        return None;
    }
    if sizes.is_empty() {
        return Some(ExactPacking {
            bins: 0,
            assignment: Vec::new(),
        });
    }
    for (i, s) in sizes.iter().enumerate() {
        assert!(s.fits_within(cap), "item {i} larger than a bin");
    }

    // Sort descending by exact Linf ratio; larger items branch earlier,
    // which tightens pruning dramatically.
    let mut order: Vec<usize> = (0..sizes.len()).collect();
    order.sort_by(|&a, &b| {
        let (_, na, da) = dvbp_dimvec::ratio_linf(&sizes[a], cap);
        let (_, nb, db) = dvbp_dimvec::ratio_linf(&sizes[b], cap);
        (u128::from(nb) * u128::from(da))
            .cmp(&(u128::from(na) * u128::from(db)))
            .then_with(|| sizes[b].cmp(&sizes[a]))
    });
    let sorted: Vec<&DimVec> = order.iter().map(|&i| &sizes[i]).collect();

    // Suffix totals for the volume lower bound.
    let dim = cap.dim();
    let mut suffix_total: Vec<WideSum> = vec![WideSum::zeros(dim); sorted.len() + 1];
    for i in (0..sorted.len()).rev() {
        let mut t = suffix_total[i + 1].clone();
        t.add(sorted[i]);
        suffix_total[i] = t;
    }

    // Seed the incumbent with FFD (both count and assignment).
    let ffd = crate::ffd::ffd_assignment(sizes, cap);
    let mut best = ffd.iter().max().map_or(0, |&m| m + 1);
    // best_assign lives in *sorted* index space during the search.
    let mut best_assign: Vec<usize> = order.iter().map(|&i| ffd[i]).collect();

    let lb = suffix_total[0].bins_needed(cap);
    if lb < best as u128 {
        let mut bins: Vec<DimVec> = Vec::new();
        let mut cur: Vec<usize> = vec![usize::MAX; sorted.len()];
        branch(
            &sorted,
            cap,
            &suffix_total,
            &mut bins,
            &mut cur,
            &mut best,
            &mut best_assign,
            0,
        );
    }

    // Translate back to input index space.
    let mut assignment = vec![usize::MAX; sizes.len()];
    for (sorted_idx, &orig_idx) in order.iter().enumerate() {
        assignment[orig_idx] = best_assign[sorted_idx];
    }
    Some(ExactPacking {
        bins: best,
        assignment,
    })
}

#[allow(clippy::too_many_arguments)]
fn branch(
    sorted: &[&DimVec],
    cap: &DimVec,
    suffix_total: &[WideSum],
    bins: &mut Vec<DimVec>,
    cur: &mut Vec<usize>,
    best: &mut usize,
    best_assign: &mut Vec<usize>,
    next: usize,
) {
    if next == sorted.len() {
        if bins.len() < *best {
            *best = bins.len();
            best_assign.clone_from(cur);
        }
        return;
    }
    if bins.len() >= *best {
        return; // can't improve
    }
    // Free-space-aware volume bound: remaining demand beyond current free
    // space needs fresh bins.
    let remaining = &suffix_total[next];
    let mut deficit_bins = 0u128;
    for j in 0..cap.dim() {
        let free: u128 = bins.iter().map(|b| u128::from(cap[j] - b[j])).sum();
        let rem = remaining.get(j);
        if rem > free {
            deficit_bins = deficit_bins.max((rem - free).div_ceil(u128::from(cap[j])));
        }
    }
    if bins.len() as u128 + deficit_bins >= *best as u128 {
        return;
    }

    let size = sorted[next];
    // Try existing bins, skipping duplicates of identical load vectors.
    for i in 0..bins.len() {
        if !bins[i].fits_with(size, cap) {
            continue;
        }
        if bins[..i].iter().any(|b| b == &bins[i]) {
            continue; // symmetric to an earlier branch
        }
        bins[i].add_assign(size);
        cur[next] = i;
        branch(
            sorted,
            cap,
            suffix_total,
            bins,
            cur,
            best,
            best_assign,
            next + 1,
        );
        bins[i].sub_assign(size);
        if bins.len() >= *best {
            return;
        }
    }
    // Open a new bin — only when doing so can still beat the incumbent.
    if bins.len() + 1 < *best {
        cur[next] = bins.len();
        bins.push((*size).clone());
        branch(
            sorted,
            cap,
            suffix_total,
            bins,
            cur,
            best,
            best_assign,
            next + 1,
        );
        bins.pop();
    }
}

/// Brute-force optimum by enumerating set partitions — exponential, for
/// cross-validating [`pack_count`] on tiny inputs in tests.
///
/// # Panics
///
/// Panics if `sizes.len() > 10`.
#[must_use]
pub fn brute_force_count(sizes: &[DimVec], cap: &DimVec) -> usize {
    assert!(sizes.len() <= 10, "brute force limited to 10 items");
    if sizes.is_empty() {
        return 0;
    }
    let mut best = sizes.len();
    let mut bins: Vec<DimVec> = Vec::new();
    fn rec(sizes: &[DimVec], cap: &DimVec, bins: &mut Vec<DimVec>, best: &mut usize, next: usize) {
        if next == sizes.len() {
            *best = (*best).min(bins.len());
            return;
        }
        if bins.len() >= *best {
            return;
        }
        for i in 0..bins.len() {
            if bins[i].fits_with(&sizes[next], cap) {
                bins[i].add_assign(&sizes[next]);
                rec(sizes, cap, bins, best, next + 1);
                bins[i].sub_assign(&sizes[next]);
            }
        }
        bins.push(sizes[next].clone());
        rec(sizes, cap, bins, best, next + 1);
        bins.pop();
    }
    rec(sizes, cap, &mut bins, &mut best, 0);
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ffd::ffd_count;

    fn v(s: &[u64]) -> DimVec {
        DimVec::from_slice(s)
    }

    fn scalars(s: &[u64]) -> Vec<DimVec> {
        s.iter().map(|&x| v(&[x])).collect()
    }

    #[test]
    fn volume_bounds_sum_past_u64() {
        let sizes = vec![v(&[u64::MAX]), v(&[1]), v(&[u64::MAX])];
        assert_eq!(pack_count(&sizes, &v(&[u64::MAX]), 28), Some(3));
    }

    #[test]
    fn empty_and_single() {
        let cap = v(&[10]);
        assert_eq!(pack_count(&[], &cap, 28), Some(0));
        assert_eq!(pack_count(&scalars(&[10]), &cap, 28), Some(1));
    }

    #[test]
    fn where_ffd_is_suboptimal() {
        // Capacity 10, sizes 5,5,4,4,3,3,3,3: FFD packs {5,5},{4,4},
        // {3,3,3},{3} = 4 bins; the optimum is 3: {5,5},{4,3,3},{4,3,3}.
        let sizes = scalars(&[5, 5, 4, 4, 3, 3, 3, 3]);
        let cap = v(&[10]);
        assert_eq!(ffd_count(&sizes, &cap), 4);
        assert_eq!(pack_count(&sizes, &cap, 28), Some(3));
    }

    #[test]
    fn matches_brute_force_on_grid() {
        // Deterministic pseudo-random small instances, 1-D and 2-D.
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for d in 1..=2usize {
            for n in 1..=7usize {
                for _case in 0..10 {
                    let cap = DimVec::splat(d, 12);
                    let sizes: Vec<DimVec> = (0..n)
                        .map(|_| DimVec::from_fn(d, |_| 1 + next() % 12))
                        .collect();
                    let exact = pack_count(&sizes, &cap, 28).unwrap();
                    let brute = brute_force_count(&sizes, &cap);
                    assert_eq!(exact, brute, "d={d} n={n} sizes={sizes:?}");
                }
            }
        }
    }

    #[test]
    fn two_dim_complementary_shapes() {
        // (9,1) and (1,9) pair perfectly; 4 items -> 2 bins.
        let sizes = vec![v(&[9, 1]), v(&[9, 1]), v(&[1, 9]), v(&[1, 9])];
        assert_eq!(pack_count(&sizes, &v(&[10, 10]), 28), Some(2));
    }

    #[test]
    fn item_limit_respected() {
        let sizes = scalars(&[1, 1, 1]);
        assert_eq!(pack_count(&sizes, &v(&[10]), 2), None);
        assert_eq!(pack_count(&sizes, &v(&[10]), 3), Some(1));
    }

    #[test]
    fn volume_bound_short_circuits() {
        // 20 unit items into capacity 10: exactly 2 bins; the volume LB
        // equals FFD so no branching happens (fast even at the limit).
        let sizes = scalars(&[1; 20]);
        assert_eq!(pack_count(&sizes, &v(&[10]), 28), Some(2));
    }

    #[test]
    fn moderately_hard_instance() {
        // 15 items with awkward sizes; exact must not blow up.
        let sizes = scalars(&[7, 7, 6, 6, 5, 5, 5, 4, 4, 4, 3, 3, 2, 2, 2]);
        let cap = v(&[10]);
        let exact = pack_count(&sizes, &cap, 28).unwrap();
        // Total volume = 65 -> ≥ 7 bins; a 7-bin packing exists:
        // {7,3},{7,3},{6,4},{6,4},{5,5},{5,4}... 5+4=9 plus 2: {5,4,...}
        assert_eq!(exact, 7);
    }

    #[test]
    fn assignment_is_feasible_and_optimal() {
        let sizes = scalars(&[5, 5, 4, 4, 3, 3, 3, 3]);
        let cap = v(&[10]);
        let packing = pack_assignment(&sizes, &cap, 28).unwrap();
        assert_eq!(packing.bins, 3);
        assert_eq!(packing.assignment.len(), sizes.len());
        let mut loads = vec![0u64; packing.bins];
        for (i, &b) in packing.assignment.iter().enumerate() {
            assert!(b < packing.bins, "bin index within range");
            loads[b] += sizes[i][0];
        }
        for load in loads {
            assert!(load <= 10);
        }
    }

    #[test]
    fn assignment_agrees_with_count_on_random_cases() {
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..20 {
            let n = 1 + (next() % 10) as usize;
            let d = 1 + (next() % 2) as usize;
            let cap = DimVec::splat(d, 12);
            let sizes: Vec<DimVec> = (0..n)
                .map(|_| DimVec::from_fn(d, |_| 1 + next() % 12))
                .collect();
            let packing = pack_assignment(&sizes, &cap, 28).unwrap();
            assert_eq!(Some(packing.bins), pack_count(&sizes, &cap, 28));
            // Validate feasibility dimension-wise.
            let mut loads = vec![DimVec::zeros(d); packing.bins];
            for (i, &b) in packing.assignment.iter().enumerate() {
                loads[b].add_assign(&sizes[i]);
            }
            for load in &loads {
                assert!(load.fits_within(&cap));
            }
            // Every bin index 0..bins is used (no gaps).
            let mut used = vec![false; packing.bins];
            for &b in &packing.assignment {
                used[b] = true;
            }
            assert!(used.iter().all(|&u| u));
        }
    }

    #[test]
    fn assignment_empty_input() {
        let p = pack_assignment(&[], &v(&[10]), 28).unwrap();
        assert_eq!(p.bins, 0);
        assert!(p.assignment.is_empty());
    }

    #[test]
    #[should_panic(expected = "larger than a bin")]
    fn oversized_panics() {
        let _ = pack_count(&scalars(&[11]), &v(&[10]), 28);
    }
}
