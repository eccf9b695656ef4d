//! First Fit: pack into the earliest-opened open bin that fits (§2.2).
//!
//! CR bounds from the paper: at most `(μ+2)d + 1` (Thm 3), at least
//! `(μ+1)d` (Thm 5).
//!
//! The engine's [`EngineView::first_fit`] query finds the bin; how (block
//! scan, scalar loop or fit index) is the engine's choice.

use super::{Decision, Policy};
use crate::bin::BinId;
use crate::engine::EngineView;
use crate::item::Item;
use std::borrow::Cow;

/// The First Fit policy. Stateless: the engine's open-bin list is
/// already ordered by opening time.
#[derive(Clone, Copy, Debug, Default)]
pub struct FirstFit;

impl FirstFit {
    /// Creates a First Fit policy.
    #[must_use]
    pub fn new() -> Self {
        FirstFit
    }
}

impl Policy for FirstFit {
    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("FirstFit")
    }

    fn choose(&mut self, view: &EngineView<'_>, item: &Item, _item_idx: usize) -> Decision {
        view.first_fit(&item.size)
            .map_or(Decision::OpenNew, Decision::Existing)
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
    fn prefers_earliest_opened_bin() {
        // Items 0,1 open bins B0,B1 (each size 6 > half). Item 2 (size 4)
        // fits in both; First Fit must choose B0.
        let inst = Instance::new(
            DimVec::scalar(10),
            vec![item(&[6], 0, 9), item(&[6], 0, 9), item(&[4], 1, 5)],
        )
        .unwrap();
        let p = pack(&inst, &mut FirstFit::new());
        assert_eq!(p.assignment[2], BinId(0));
        assert_eq!(p.num_bins(), 2);
        p.verify(&inst).unwrap();
        p.verify_any_fit(&inst).unwrap();
    }

    #[test]
    fn skips_full_early_bins() {
        // B0 full; item 2 must go to B1 even though B0 opened earlier.
        let inst = Instance::new(
            DimVec::scalar(10),
            vec![item(&[10], 0, 9), item(&[6], 0, 9), item(&[4], 1, 5)],
        )
        .unwrap();
        let p = pack(&inst, &mut FirstFit::new());
        assert_eq!(p.assignment[2], BinId(1));
        p.verify_any_fit(&inst).unwrap();
    }

    #[test]
    fn reuses_bin_after_departure_frees_space() {
        // Item 0 departs at 5, freeing B0 for item 2 which arrives at 5.
        let inst = Instance::new(
            DimVec::scalar(10),
            vec![item(&[8], 0, 5), item(&[2], 0, 9), item(&[8], 5, 8)],
        )
        .unwrap();
        let p = pack(&inst, &mut FirstFit::new());
        // B0 holds items 0 and 1 (8+2 = 10); when item 0 leaves at 5,
        // B0's load is 2, so item 2 (size 8) fits into B0 again.
        assert_eq!(p.assignment[2], BinId(0));
        assert_eq!(p.num_bins(), 1);
        p.verify(&inst).unwrap();
    }

    #[test]
    fn one_d_matches_classic_first_fit_on_static_items() {
        // All items same interval: reduces to classic bin packing FF.
        // Sizes 5,6,4,3 into capacity 10: FF gives {5,4}, {6,3}.
        let inst = Instance::new(
            DimVec::scalar(10),
            vec![
                item(&[5], 0, 1),
                item(&[6], 0, 1),
                item(&[4], 0, 1),
                item(&[3], 0, 1),
            ],
        )
        .unwrap();
        let p = pack(&inst, &mut FirstFit::new());
        assert_eq!(p.assignment, vec![BinId(0), BinId(1), BinId(0), BinId(1)]);
    }
}
