//! Last Fit: pack into the *latest*-opened open bin that fits (§7).
//!
//! The mirror image of First Fit, included in the paper's experimental
//! study. No competitive-ratio bound is claimed for it.
//!
//! The engine's [`EngineView::last_fit`] query finds the bin; how (block
//! scan, scalar loop or fit index) is the engine's choice.

use super::{Decision, Policy};
use crate::bin::BinId;
use crate::engine::EngineView;
use crate::item::Item;
use std::borrow::Cow;

/// The Last Fit policy. Stateless.
#[derive(Clone, Copy, Debug, Default)]
pub struct LastFit;

impl LastFit {
    /// Creates a Last Fit policy.
    #[must_use]
    pub fn new() -> Self {
        LastFit
    }
}

impl Policy for LastFit {
    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("LastFit")
    }

    fn choose(&mut self, view: &EngineView<'_>, item: &Item, _item_idx: usize) -> Decision {
        view.last_fit(&item.size)
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
    fn prefers_latest_opened_bin() {
        let inst = Instance::new(
            DimVec::scalar(10),
            vec![item(&[6], 0, 9), item(&[6], 1, 9), item(&[4], 2, 5)],
        )
        .unwrap();
        let p = pack(&inst, &mut LastFit::new());
        assert_eq!(p.assignment[2], BinId(1));
        p.verify(&inst).unwrap();
        p.verify_any_fit(&inst).unwrap();
    }

    #[test]
    fn falls_back_to_earlier_bins() {
        // Latest bin is full; must fall back to B0, not open a new bin.
        let inst = Instance::new(
            DimVec::scalar(10),
            vec![item(&[6], 0, 9), item(&[10], 1, 9), item(&[4], 2, 5)],
        )
        .unwrap();
        let p = pack(&inst, &mut LastFit::new());
        assert_eq!(p.assignment[2], BinId(0));
        assert_eq!(p.num_bins(), 2);
        p.verify_any_fit(&inst).unwrap();
    }
}
