//! [`WideSum`]: a componentwise sum of many vectors in `u128`.

use crate::DimVec;

/// A componentwise sum of many [`DimVec`]s, kept in `u128`.
///
/// One bin's load never exceeds its capacity, so [`DimVec::add_assign`]
/// treats a `u64` overflow as corruption. A sum across *items* — the
/// load of every item active at one tick, a volume bound, the suffix
/// totals of a branch and bound — is a different quantity: each item
/// fits the capacity, but many of them together need not fit a `u64`.
/// Such sums go here, in `u128` as cost totals are.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WideSum(Vec<u128>);

impl WideSum {
    /// A zero sum of `dim` dimensions.
    #[must_use]
    pub fn zeros(dim: usize) -> Self {
        WideSum(vec![0; dim])
    }

    /// Number of dimensions.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.0.len()
    }

    /// Component `j`.
    #[must_use]
    pub fn get(&self, j: usize) -> u128 {
        self.0[j]
    }

    /// Resets every component to zero.
    pub fn clear(&mut self) {
        self.0.fill(0);
    }

    /// Componentwise `self += v`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn add(&mut self, v: &DimVec) {
        assert_eq!(self.dim(), v.dim(), "dimension mismatch");
        for (slot, unit) in self.0.iter_mut().zip(v.iter()) {
            *slot += u128::from(unit);
        }
    }

    /// Componentwise `self -= v`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch or when `v` was never added.
    pub fn sub(&mut self, v: &DimVec) {
        assert_eq!(self.dim(), v.dim(), "dimension mismatch");
        for (slot, unit) in self.0.iter_mut().zip(v.iter()) {
            *slot = slot
                .checked_sub(u128::from(unit))
                .expect("resource-unit underflow");
        }
    }

    /// Whether the sum fits within `cap` in every dimension.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    #[must_use]
    pub fn fits_within(&self, cap: &DimVec) -> bool {
        assert_eq!(self.dim(), cap.dim(), "dimension mismatch");
        self.0
            .iter()
            .zip(cap.iter())
            .all(|(&s, c)| s <= u128::from(c))
    }

    /// `max_j ⌈self_j / cap_j⌉`: the bins of capacity `cap` this much
    /// load needs at least (Lemma 1(i) for one instant). Each component
    /// is divided in `u64` whenever it fits one.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch or a zero capacity component.
    #[must_use]
    pub fn bins_needed(&self, cap: &DimVec) -> u128 {
        assert_eq!(self.dim(), cap.dim(), "dimension mismatch");
        self.0
            .iter()
            .zip(cap.iter())
            .map(|(&s, c)| match u64::try_from(s) {
                Ok(s) => u128::from(s.div_ceil(c)),
                Err(_) => s.div_ceil(u128::from(c)),
            })
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sums_past_u64_without_overflow() {
        let cap = DimVec::from_slice(&[u64::MAX, 10]);
        let mut sum = WideSum::zeros(2);
        sum.add(&DimVec::from_slice(&[u64::MAX, 10]));
        sum.add(&DimVec::from_slice(&[1, 1]));
        assert_eq!(sum.get(0), u128::from(u64::MAX) + 1);
        assert!(!sum.fits_within(&cap));
        // ⌈(2^64) / (2^64 − 1)⌉ = 2 and ⌈11 / 10⌉ = 2.
        assert_eq!(sum.bins_needed(&cap), 2);
        sum.add(&DimVec::from_slice(&[u64::MAX, 0]));
        assert_eq!(sum.bins_needed(&cap), 3);
        sum.sub(&DimVec::from_slice(&[u64::MAX, 10]));
        sum.sub(&DimVec::from_slice(&[u64::MAX, 0]));
        assert_eq!(sum.get(0), 1);
        assert!(sum.fits_within(&cap));
        assert_eq!(sum.bins_needed(&cap), 1);
        sum.clear();
        assert_eq!(sum.bins_needed(&cap), 0);
    }

    #[test]
    #[should_panic(expected = "resource-unit underflow")]
    fn subtracting_what_was_never_added_panics() {
        let mut sum = WideSum::zeros(1);
        sum.sub(&DimVec::from_slice(&[1]));
    }
}
