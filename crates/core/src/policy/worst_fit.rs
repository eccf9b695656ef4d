//! Worst Fit: pack into the *least*-loaded open bin that fits (§7).
//!
//! Included in the paper's experimental study as the natural foil to Best
//! Fit; it spreads load thin and, as §7 observes, has the worst average
//! performance of the seven algorithms.
//!
//! It ranks the feasible open bins the way
//! [`BestFit`](super::best_fit::BestFit) does, with the order reversed
//! (earliest bin on ties).

use super::{Decision, LoadMeasure, Policy};
use crate::bin::BinId;
use crate::engine::EngineView;
use crate::item::Item;
use std::borrow::Cow;
use std::cmp::Ordering;

/// The Worst Fit policy with a configurable load measure.
#[derive(Clone, Copy, Debug)]
pub struct WorstFit {
    measure: LoadMeasure,
}

impl WorstFit {
    /// Creates a Worst Fit policy using `measure` to rank bins.
    #[must_use]
    pub fn new(measure: LoadMeasure) -> Self {
        WorstFit { measure }
    }
}

impl Policy for WorstFit {
    fn name(&self) -> Cow<'static, str> {
        Cow::Owned(format!("WorstFit[{}]", self.measure))
    }

    fn choose(&mut self, view: &EngineView<'_>, item: &Item, _item_idx: usize) -> Decision {
        super::pick_by_load(view, item, self.measure, Ordering::Less)
    }

    fn after_pack(&mut self, _item: &Item, _item_idx: usize, _bin: BinId, _newly_opened: bool) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::pack;
    use crate::item::Instance;
    use dvbp_dimvec::DimVec;

    fn item(size: &[u64], a: u64, e: u64) -> Item {
        Item::new(DimVec::from_slice(size), a, e)
    }

    #[test]
    fn prefers_least_loaded_feasible_bin() {
        let inst = Instance::new(
            DimVec::scalar(10),
            vec![item(&[4], 0, 9), item(&[7], 1, 9), item(&[3], 2, 5)],
        )
        .unwrap();
        let p = pack(&inst, &mut WorstFit::new(LoadMeasure::Linf));
        assert_eq!(p.assignment[2], BinId(0));
        p.verify(&inst).unwrap();
        p.verify_any_fit(&inst).unwrap();
    }

    #[test]
    fn still_respects_any_fit() {
        // Even Worst Fit never opens a bin while one fits.
        let inst = Instance::new(
            DimVec::scalar(10),
            vec![item(&[9], 0, 9), item(&[9], 1, 9), item(&[1], 2, 5)],
        )
        .unwrap();
        let p = pack(&inst, &mut WorstFit::new(LoadMeasure::Linf));
        assert_eq!(p.num_bins(), 2);
        p.verify_any_fit(&inst).unwrap();
    }

    #[test]
    fn tie_breaks_to_earliest_bin() {
        // Sizes 6 cannot share a bin, so two bins open with equal load 6.
        let inst = Instance::new(
            DimVec::scalar(10),
            vec![item(&[6], 0, 9), item(&[6], 1, 9), item(&[2], 2, 5)],
        )
        .unwrap();
        let p = pack(&inst, &mut WorstFit::new(LoadMeasure::Linf));
        assert_eq!(p.assignment[2], BinId(0));
    }
}
