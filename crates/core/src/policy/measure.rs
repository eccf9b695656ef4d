//! Bin-load measures for Best/Worst Fit in `d ≥ 2` dimensions (§2.2).
//!
//! For `d = 1` the load of a bin is just its occupied fraction; for
//! `d ≥ 2` the paper lists several reasonable scalarizations of the load
//! vector. Best Fit packs into the bin *maximizing* the measure, Worst Fit
//! into the bin *minimizing* it.
//!
//! Loads are compared as raw component slices so that the engine's flat
//! (SoA) load arena can be ranked without materializing `DimVec`s.

use dvbp_dimvec::{lp_slices, ratio_linf_slices};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// Scalarization of a normalized load vector.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LoadMeasure {
    /// `‖s(R)‖∞` — max normalized component. The paper's experiments use
    /// this measure for Best Fit. Compared exactly (no floating point).
    Linf,
    /// `‖s(R)‖₁` — sum of normalized components.
    L1,
    /// `‖s(R)‖₂` — Euclidean norm of the normalized load.
    L2,
    /// `‖s(R)‖_p` for integer `p ≥ 1`.
    Lp(u32),
}

/// A bin's scalarized load under one [`LoadMeasure`], precomputed so an
/// incumbent-vs-candidate tournament evaluates each bin's measure once
/// instead of re-deriving the incumbent's for every comparison.
///
/// Keys from different measures are not comparable; policies always rank
/// keys produced by their own configured measure.
#[derive(Clone, Copy, Debug)]
pub enum LoadKey {
    /// Exact normalized-`L∞` fraction `num/den` (compared by `u128`
    /// cross-multiplication, no floating point).
    Frac {
        /// Numerator: the max-ratio dimension's load component.
        num: u64,
        /// Denominator: that dimension's capacity component.
        den: u64,
    },
    /// Float norm value (ties compare `Equal`).
    Value(f64),
}

impl LoadKey {
    /// Compares two keys of the same measure.
    ///
    /// # Panics
    ///
    /// Panics when the keys come from different measure families.
    #[must_use]
    pub fn compare(&self, other: &LoadKey) -> Ordering {
        match (self, other) {
            (LoadKey::Frac { num: na, den: da }, LoadKey::Frac { num: nb, den: db }) => {
                // na/da vs nb/db  <=>  na*db vs nb*da
                (u128::from(*na) * u128::from(*db)).cmp(&(u128::from(*nb) * u128::from(*da)))
            }
            (LoadKey::Value(a), LoadKey::Value(b)) => a.partial_cmp(b).unwrap_or(Ordering::Equal),
            _ => panic!("LoadKeys from different measures are not comparable"),
        }
    }
}

impl LoadMeasure {
    /// Compares the measures of two load vectors under shared `cap`.
    ///
    /// `Linf` is compared exactly by cross-multiplication; the float-based
    /// measures compare `f64` values (ties resolve `Equal`, and callers
    /// break ties deterministically by bin id).
    #[must_use]
    pub fn cmp_loads(&self, a: &[u64], b: &[u64], cap: &[u64]) -> Ordering {
        self.key(a, cap).compare(&self.key(b, cap))
    }

    /// The ranking key of one load vector under `cap`.
    #[must_use]
    pub fn key(&self, load: &[u64], cap: &[u64]) -> LoadKey {
        match self {
            LoadMeasure::Linf => {
                let (_, num, den) = ratio_linf_slices(load, cap);
                LoadKey::Frac { num, den }
            }
            LoadMeasure::L1 => LoadKey::Value(lp_slices(load, cap, 1.0)),
            LoadMeasure::L2 => LoadKey::Value(lp_slices(load, cap, 2.0)),
            LoadMeasure::Lp(p) => LoadKey::Value(lp_slices(load, cap, f64::from(*p))),
        }
    }
}

impl fmt::Display for LoadMeasure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadMeasure::Linf => write!(f, "Linf"),
            LoadMeasure::L1 => write!(f, "L1"),
            LoadMeasure::L2 => write!(f, "L2"),
            LoadMeasure::Lp(p) => write!(f, "L{p}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linf_exact_comparison() {
        let cap = [10, 10];
        // max(3,5)/10 = 0.5 vs max(6,1)/10 = 0.6
        assert_eq!(
            LoadMeasure::Linf.cmp_loads(&[3, 5], &[6, 1], &cap),
            Ordering::Less
        );
        assert_eq!(
            LoadMeasure::Linf.cmp_loads(&[6, 0], &[0, 6], &cap),
            Ordering::Equal
        );
    }

    #[test]
    fn linf_heterogeneous_capacity() {
        let cap = [10, 100];
        // 5/10 = 0.5 vs 60/100 = 0.6
        assert_eq!(
            LoadMeasure::Linf.cmp_loads(&[5, 0], &[0, 60], &cap),
            Ordering::Less
        );
    }

    #[test]
    fn l1_sums_dimensions() {
        let cap = [10, 10];
        // L1: 0.8 vs 0.6 — but Linf: 0.4 vs 0.6.
        let a = [4, 4];
        let b = [6, 0];
        assert_eq!(LoadMeasure::L1.cmp_loads(&a, &b, &cap), Ordering::Greater);
        assert_eq!(LoadMeasure::Linf.cmp_loads(&a, &b, &cap), Ordering::Less);
    }

    #[test]
    fn l2_between_l1_and_linf() {
        let cap = [10, 10];
        // a = (3,4): L2 = 0.5; b = (5,0): L2 = 0.5 — exact tie.
        assert_eq!(
            LoadMeasure::L2.cmp_loads(&[3, 4], &[5, 0], &cap),
            Ordering::Equal
        );
    }

    #[test]
    fn lp_general() {
        let cap = [10, 10];
        assert_eq!(
            LoadMeasure::Lp(4).cmp_loads(&[5, 5], &[6, 0], &cap),
            Ordering::Less
        );
    }

    #[test]
    fn display_names() {
        assert_eq!(LoadMeasure::Linf.to_string(), "Linf");
        assert_eq!(LoadMeasure::L1.to_string(), "L1");
        assert_eq!(LoadMeasure::Lp(4).to_string(), "L4");
    }
}
