//! Lower bounds on the optimum cost — Lemma 1 of the paper.

use dvbp_core::Instance;
use dvbp_dimvec::WideSum;
use dvbp_sim::{sweep, Cost};

/// Lemma 1(i): `OPT(R) ≥ ∫ ⌈‖s(R,t)‖∞⌉ dt`.
///
/// In integer units, the number of bins needed at time `t` for the load in
/// dimension `j` is `⌈load_j(t)/cap_j⌉`, and `max_j ⌈x_j⌉ = ⌈max_j x_j⌉`.
/// This is the tightest of the three bounds and the comparator used by
/// the paper's experiments (§7).
#[must_use]
pub fn lb_load(instance: &Instance) -> Cost {
    let intervals = instance.intervals();
    let mut total: Cost = 0;
    let mut load = WideSum::zeros(instance.dim());
    sweep::sweep(&intervals, |slice| {
        // Recompute the slice load from scratch: `sweep` hands us the
        // active set, and n is small enough that incremental maintenance
        // is not worth the bookkeeping here.
        load.clear();
        for &id in slice.active {
            load.add(&instance.items[id].size);
        }
        total += load.bins_needed(&instance.capacity) * Cost::from(slice.interval.len());
    });
    total
}

/// Lemma 1(ii): `OPT(R) ≥ (1/d) Σ_r ‖s(r)‖∞ · ℓ(I(r))`.
///
/// The *time–space utilization* bound. Returned as `f64` (the normalized
/// `L∞` sizes are rationals); it is used for analysis and cross-checks,
/// while the integer-valued [`lb_load`] is the operational comparator.
#[must_use]
pub fn lb_utilization(instance: &Instance) -> f64 {
    let d = instance.dim() as f64;
    instance
        .items
        .iter()
        .map(|r| dvbp_dimvec::linf(&r.size, &instance.capacity) * r.duration() as f64)
        .sum::<f64>()
        / d
}

/// Lemma 1(iii): `OPT(R) ≥ span(R)`.
#[must_use]
pub fn lb_span(instance: &Instance) -> Cost {
    instance.span()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvbp_core::Item;
    use dvbp_dimvec::DimVec;

    fn item(size: &[u64], a: u64, e: u64) -> Item {
        Item::new(DimVec::from_slice(size), a, e)
    }

    fn inst(cap: &[u64], items: Vec<Item>) -> Instance {
        Instance::new(DimVec::from_slice(cap), items).unwrap()
    }

    #[test]
    fn single_item_bounds() {
        let i = inst(&[10], vec![item(&[5], 0, 4)]);
        assert_eq!(lb_load(&i), 4); // one bin needed over [0,4)
        assert_eq!(lb_span(&i), 4);
        let u = lb_utilization(&i);
        assert!((u - 2.0).abs() < 1e-12); // 0.5 * 4
    }

    #[test]
    fn parallel_items_force_bins() {
        // Three items of size 6/10 over [0,2): load 18 -> ceil(18/10) = 2 bins.
        let i = inst(
            &[10],
            vec![item(&[6], 0, 2), item(&[6], 0, 2), item(&[6], 0, 2)],
        );
        assert_eq!(lb_load(&i), 4); // 2 bins * 2 ticks
        assert_eq!(lb_span(&i), 2);
    }

    #[test]
    fn lb_load_uses_worst_dimension() {
        // Dim 0 lightly loaded, dim 1 forces 3 bins.
        let i = inst(
            &[10, 10],
            vec![
                item(&[1, 9], 0, 5),
                item(&[1, 9], 0, 5),
                item(&[1, 9], 0, 5),
            ],
        );
        assert_eq!(lb_load(&i), 15); // ceil(27/10)=3 bins * 5 ticks
    }

    #[test]
    fn lb_load_sums_active_sizes_past_u64() {
        // Two concurrent items whose sizes sum to 2^64 under a capacity
        // of 2^64 − 1: two bins for two ticks.
        let i = inst(&[u64::MAX], vec![item(&[u64::MAX], 0, 2), item(&[1], 0, 2)]);
        assert_eq!(lb_load(&i), 4);
    }

    #[test]
    fn lb_load_piecewise() {
        // Load 12 over [0,2) (2 bins), load 6 over [2,4) (1 bin).
        let i = inst(&[10], vec![item(&[6], 0, 2), item(&[6], 0, 4)]);
        assert_eq!(lb_load(&i), 2 * 2 + 2);
    }

    #[test]
    fn utilization_divides_by_d() {
        // Two dims, item with Linf = 0.9, duration 10 -> sum 9 / d=2 -> 4.5.
        let i = inst(&[10, 10], vec![item(&[9, 3], 0, 10)]);
        assert!((lb_utilization(&i) - 4.5).abs() < 1e-12);
    }

    #[test]
    fn bound_ordering_lemma_1() {
        // On any instance: lb_utilization ≤ lb_load and lb_span ≤ lb_load.
        let i = inst(
            &[10, 10],
            vec![
                item(&[3, 7], 0, 5),
                item(&[8, 2], 1, 9),
                item(&[5, 5], 3, 4),
                item(&[2, 2], 7, 20),
            ],
        );
        let load = lb_load(&i) as f64;
        assert!(lb_utilization(&i) <= load + 1e-9);
        assert!(lb_span(&i) <= lb_load(&i));
    }

    #[test]
    fn disjoint_bursts() {
        let i = inst(&[10], vec![item(&[10], 0, 3), item(&[10], 10, 13)]);
        assert_eq!(lb_span(&i), 6);
        assert_eq!(lb_load(&i), 6);
    }

    #[test]
    fn empty_instance() {
        let i = Instance::new(DimVec::scalar(10), vec![]).unwrap();
        assert_eq!(lb_load(&i), 0);
        assert_eq!(lb_span(&i), 0);
        assert_eq!(lb_utilization(&i), 0.0);
    }
}
