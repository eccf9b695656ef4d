//! The optimal offline cost `OPT(R)` via the time-slice integral (eq. 2).
//!
//! Because the offline optimum may repack items at any instant (§2.2),
//! `OPT(R) = ∫ OPT(R, t) dt`, and `OPT(R, t)` is the static vector bin
//! packing optimum of the items active at `t` — constant between
//! consecutive events. We therefore sweep the elementary slices and solve
//! (or sandwich) each slice's static problem.

use crate::exact::pack_count;
use crate::ffd::ffd_count;
use dvbp_core::Instance;
use dvbp_dimvec::{DimVec, WideSum};
use dvbp_sim::{sweep, Cost};

/// A two-sided estimate of `OPT(R)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OptBounds {
    /// Certified lower bound on `OPT(R)`.
    pub lower: Cost,
    /// Certified upper bound on `OPT(R)` (achieved by per-slice FFD
    /// repacking, which is an admissible offline strategy).
    pub upper: Cost,
}

impl OptBounds {
    /// `true` iff the bounds coincide, i.e. `OPT(R)` is known exactly.
    #[must_use]
    pub fn is_exact(&self) -> bool {
        self.lower == self.upper
    }
}

/// Exact `OPT(R)`, provided every elementary slice has at most
/// `item_limit` active items; `None` otherwise.
///
/// `item_limit` trades time for reach — see
/// [`DEFAULT_ITEM_LIMIT`](crate::exact::DEFAULT_ITEM_LIMIT).
#[must_use]
pub fn opt_exact(instance: &Instance, item_limit: usize) -> Option<Cost> {
    let intervals = instance.intervals();
    let mut total: Cost = 0;
    let mut feasible = true;
    sweep::sweep(&intervals, |slice| {
        if !feasible {
            return;
        }
        let sizes: Vec<DimVec> = slice
            .active
            .iter()
            .map(|&id| instance.items[id].size.clone())
            .collect();
        match pack_count(&sizes, &instance.capacity, item_limit) {
            Some(bins) => {
                total += Cost::from(bins as u64) * Cost::from(slice.interval.len());
            }
            None => feasible = false,
        }
    });
    feasible.then_some(total)
}

/// A `[lower, upper]` sandwich around `OPT(R)` that always succeeds.
///
/// Per slice: lower = `max_j ⌈Σ load_j / cap_j⌉` (Lemma 1(i)); upper =
/// FFD bin count. Slices small enough for the exact solver contribute
/// their exact value to both sides.
#[must_use]
pub fn opt_bounds(instance: &Instance, item_limit: usize) -> OptBounds {
    let intervals = instance.intervals();
    let mut lower: Cost = 0;
    let mut upper: Cost = 0;
    sweep::sweep(&intervals, |slice| {
        let sizes: Vec<DimVec> = slice
            .active
            .iter()
            .map(|&id| instance.items[id].size.clone())
            .collect();
        let len = Cost::from(slice.interval.len());
        if let Some(exact) = pack_count(&sizes, &instance.capacity, item_limit) {
            lower += Cost::from(exact as u64) * len;
            upper += Cost::from(exact as u64) * len;
        } else {
            let mut total = WideSum::zeros(instance.dim());
            for s in &sizes {
                total.add(s);
            }
            lower += total.bins_needed(&instance.capacity) * len;
            upper += Cost::from(ffd_count(&sizes, &instance.capacity) as u64) * len;
        }
    });
    OptBounds { lower, upper }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower_bounds::{lb_load, lb_span};
    use dvbp_core::{Item, PackRequest, PolicyKind};

    fn item(size: &[u64], a: u64, e: u64) -> Item {
        Item::new(DimVec::from_slice(size), a, e)
    }

    fn inst(cap: &[u64], items: Vec<Item>) -> Instance {
        Instance::new(DimVec::from_slice(cap), items).unwrap()
    }

    #[test]
    fn single_item() {
        let i = inst(&[10], vec![item(&[5], 0, 4)]);
        assert_eq!(opt_exact(&i, 28), Some(4));
        let b = opt_bounds(&i, 28);
        assert!(b.is_exact());
        assert_eq!(b.lower, 4);
    }

    #[test]
    fn opt_uses_repacking() {
        // Two size-6 items overlap briefly; a third size-6 item overlaps
        // only the first. Online FF needs two bins for a long time; OPT
        // pays 2 bins only where two items truly overlap.
        let i = inst(
            &[10],
            vec![item(&[6], 0, 10), item(&[6], 4, 6), item(&[6], 8, 9)],
        );
        // Slices: [0,4): {0} ->1; [4,6): {0,1} ->2; [6,8): {0} ->1;
        // [8,9): {0,2} ->2; [9,10): {0} ->1.
        assert_eq!(opt_exact(&i, 28), Some(4 + 4 + 2 + 2 + 1));
    }

    #[test]
    fn exact_opt_between_lb_and_online_cost() {
        let i = inst(
            &[10, 10],
            vec![
                item(&[3, 7], 0, 5),
                item(&[8, 2], 1, 9),
                item(&[5, 5], 3, 4),
                item(&[2, 2], 7, 20),
                item(&[6, 1], 2, 12),
            ],
        );
        let opt = opt_exact(&i, 28).unwrap();
        assert!(opt >= lb_load(&i));
        assert!(opt >= lb_span(&i));
        for kind in PolicyKind::paper_suite(5) {
            let cost = PackRequest::new(kind.clone()).run(&i).unwrap().cost();
            assert!(cost >= opt, "{}: {} < {}", kind.name(), cost, opt);
        }
    }

    #[test]
    fn item_limit_fallback() {
        let items: Vec<Item> = (0..40).map(|k| item(&[1], 0, 10 + k)).collect();
        let i = inst(&[100], items);
        assert_eq!(opt_exact(&i, 8), None);
        let b = opt_bounds(&i, 8);
        // All 40 unit items fit one bin: lower == upper == span.
        assert_eq!(b.lower, b.upper);
        assert_eq!(b.lower, i.span());
    }

    #[test]
    fn bounds_bracket_exact() {
        let i = inst(
            &[10],
            vec![
                item(&[6], 0, 10),
                item(&[6], 0, 10),
                item(&[5], 2, 8),
                item(&[3], 4, 6),
            ],
        );
        let exact = opt_exact(&i, 28).unwrap();
        let b = opt_bounds(&i, 28);
        assert!(b.lower <= exact && exact <= b.upper);
        assert!(b.is_exact());
    }

    #[test]
    fn bounds_sum_active_sizes_past_u64() {
        // The sizes sum to 2^64, one more than the capacity: two bins for
        // two ticks, exactly and by the volume fallback alike.
        let i = inst(&[u64::MAX], vec![item(&[u64::MAX], 0, 2), item(&[1], 0, 2)]);
        assert_eq!(opt_exact(&i, 28), Some(4));
        assert_eq!(opt_bounds(&i, 28), OptBounds { lower: 4, upper: 4 });
        assert_eq!(opt_bounds(&i, 1).lower, 4);
    }

    #[test]
    fn empty_instance() {
        let i = Instance::new(DimVec::scalar(10), vec![]).unwrap();
        assert_eq!(opt_exact(&i, 28), Some(0));
        assert_eq!(opt_bounds(&i, 28), OptBounds { lower: 0, upper: 0 });
    }
}
