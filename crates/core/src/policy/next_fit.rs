//! Next Fit: a single *current* bin; opening a new bin releases the old
//! one forever (§2.2).
//!
//! CR bounds from the paper: at most `2μd + 1` (Thm 4), at least `2μd`
//! (Thm 6) — almost tight.
//!
//! Note the candidate list `L` contains only the current bin: Next Fit may
//! open a new bin even though an older, *released* bin could hold the item.
//! [`crate::Packing::verify_any_fit`] therefore does not apply to it.

use super::{Decision, Policy};
use crate::bin::BinId;
use crate::engine::EngineView;
use crate::item::Item;
use std::borrow::Cow;

/// The Next Fit policy.
#[derive(Clone, Copy, Debug, Default)]
pub struct NextFit {
    /// The designated current bin, if one is open.
    current: Option<BinId>,
}

impl NextFit {
    /// Creates a Next Fit policy.
    #[must_use]
    pub fn new() -> Self {
        NextFit { current: None }
    }

    /// The current bin (visible for analyses/tests).
    #[must_use]
    pub fn current(&self) -> Option<BinId> {
        self.current
    }
}

impl Policy for NextFit {
    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("NextFit")
    }

    fn choose(&mut self, view: &EngineView<'_>, item: &Item, _item_idx: usize) -> Decision {
        match self.current {
            // The item either goes to the current bin or releases it (the
            // bin simply stops being current) — one probe either way.
            Some(b) => {
                if view.probe(b, &item.size) {
                    Decision::Existing(b)
                } else {
                    Decision::OpenNew
                }
            }
            None => Decision::OpenNew,
        }
    }

    fn after_pack(&mut self, _item: &Item, _item_idx: usize, bin: BinId, _newly_opened: bool) {
        self.current = Some(bin);
    }

    fn on_close(&mut self, bin: BinId) {
        if self.current == Some(bin) {
            self.current = None;
        }
    }

    fn reset(&mut self) {
        self.current = None;
    }

    /// Adopting an engine mid-run designates the latest-opened open bin
    /// (highest id) as current; earlier bins count as released. With no
    /// open bins the next arrival opens one, as after `reset`.
    fn on_adopt(&mut self, open_bins: &[BinId]) {
        self.current = open_bins.last().copied();
    }
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
    fn released_bin_never_reused() {
        // Item 1 forces a new bin; item 2 would fit in B0, but Next Fit
        // only considers the current bin B1.
        let inst = Instance::new(
            DimVec::scalar(10),
            vec![item(&[6], 0, 9), item(&[6], 1, 9), item(&[4], 2, 5)],
        )
        .unwrap();
        let p = pack(&inst, &mut NextFit::new());
        assert_eq!(p.assignment[2], BinId(1));
        // And the Any Fit check against all open bins indeed rejects
        // Next Fit behaviour when a third large item arrives:
        let inst2 = Instance::new(
            DimVec::scalar(10),
            vec![
                item(&[6], 0, 9),
                item(&[6], 1, 9),
                item(&[7], 2, 5), // doesn't fit B1 (current), fits nowhere else either
                item(&[3], 3, 5), // fits B0 (released) but NF opens... no: fits current B2
            ],
        )
        .unwrap();
        let p2 = pack(&inst2, &mut NextFit::new());
        assert_eq!(p2.assignment[2], BinId(2));
        assert_eq!(p2.assignment[3], BinId(2));
        p2.verify(&inst2).unwrap();
    }

    #[test]
    fn next_fit_violates_global_any_fit() {
        // Current bin too full; a released bin has room. NF opens a new
        // bin — verify_any_fit (full-candidate check) must flag this.
        let inst = Instance::new(
            DimVec::scalar(10),
            vec![
                item(&[2], 0, 9), // B0 becomes current, load 2
                item(&[7], 1, 9), // fits B0 (load 9)
                item(&[5], 2, 9), // doesn't fit B0 -> B1 current
                item(&[5], 3, 9), // fits B1 (load 10)
                item(&[1], 4, 9), // doesn't fit B1 -> B2, though B0 has room? no: B0 load 9, fits!
            ],
        )
        .unwrap();
        let p = pack(&inst, &mut NextFit::new());
        assert_eq!(p.assignment[4], BinId(2));
        assert!(p.verify_any_fit(&inst).is_err());
        p.verify(&inst).unwrap();
    }

    #[test]
    fn current_resets_when_bin_closes() {
        let inst =
            Instance::new(DimVec::scalar(10), vec![item(&[5], 0, 2), item(&[5], 3, 5)]).unwrap();
        let p = pack(&inst, &mut NextFit::new());
        assert_eq!(p.num_bins(), 2);
        assert_eq!(p.cost(), 2 + 2);
    }

    #[test]
    fn single_current_bin_invariant() {
        // At most one bin receives items at any time; max concurrent open
        // bins can still exceed 1 because released bins stay active.
        let inst = Instance::new(
            DimVec::scalar(10),
            vec![item(&[6], 0, 100), item(&[6], 1, 100), item(&[6], 2, 100)],
        )
        .unwrap();
        let p = pack(&inst, &mut NextFit::new());
        assert_eq!(p.num_bins(), 3);
        assert_eq!(p.max_concurrent_bins(), 3);
    }
}
