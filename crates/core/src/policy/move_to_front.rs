//! Move To Front: pack into the most-recently-used open bin that fits
//! (§2.2).
//!
//! The paper's headline algorithm: CR at most `(2μ+1)d + 1` (Thm 2), at
//! least `max{2μ, (μ+1)d}` (Thm 8), and the best average-case performance
//! in the experimental study (§7).

use super::{Decision, Policy};
use crate::bin::BinId;
use crate::engine::EngineView;
use crate::item::Item;
use std::borrow::Cow;

/// The Move To Front policy.
///
/// Maintains the open bins in most-recently-used order; an item goes to
/// the first bin in that order that can hold it, and the receiving bin is
/// immediately moved to the front.
#[derive(Clone, Debug, Default)]
pub struct MoveToFront {
    /// Open bins, front (most recently used) first.
    order: Vec<BinId>,
}

impl MoveToFront {
    /// Creates a Move To Front policy.
    #[must_use]
    pub fn new() -> Self {
        MoveToFront { order: Vec::new() }
    }

    /// The current MRU order (front first); for analyses/tests.
    #[must_use]
    pub fn order(&self) -> &[BinId] {
        &self.order
    }

    fn move_to_front(&mut self, bin: BinId) {
        if let Some(pos) = self.order.iter().position(|&b| b == bin) {
            self.order.remove(pos);
        }
        self.order.insert(0, bin);
    }
}

impl Policy for MoveToFront {
    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("MoveToFront")
    }

    fn choose(&mut self, view: &EngineView<'_>, item: &Item, _item_idx: usize) -> Decision {
        debug_assert_eq!(self.order.len(), view.open_bins().len());
        match self.order.iter().position(|&b| view.probe(b, &item.size)) {
            Some(pos) => Decision::Existing(self.order[pos]),
            None => Decision::OpenNew,
        }
    }

    fn after_pack(&mut self, _item: &Item, _item_idx: usize, bin: BinId, _newly_opened: bool) {
        self.move_to_front(bin);
    }

    fn on_close(&mut self, bin: BinId) {
        self.order.retain(|&b| b != bin);
    }

    fn reset(&mut self) {
        self.order.clear();
    }

    /// Adopting an engine mid-run seeds the MRU order with the open bins
    /// in descending id order (latest-opened in front) — the order a
    /// fresh MTF run would hold after opening those bins with no
    /// intervening reuse. Deterministic, so WAL replay reproduces it.
    fn on_adopt(&mut self, open_bins: &[BinId]) {
        self.order.clear();
        self.order.extend(open_bins.iter().rev());
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
    fn prefers_most_recently_used_bin() {
        // B0 then B1 open; B1 is more recent, so item 2 goes to B1 even
        // though First Fit would pick B0.
        let inst = Instance::new(
            DimVec::scalar(10),
            vec![item(&[6], 0, 9), item(&[6], 1, 9), item(&[4], 2, 5)],
        )
        .unwrap();
        let p = pack(&inst, &mut MoveToFront::new());
        assert_eq!(p.assignment[2], BinId(1));
        p.verify(&inst).unwrap();
        p.verify_any_fit(&inst).unwrap();
    }

    #[test]
    fn packing_moves_bin_to_front() {
        // After packing item 2 into B0 (B1 is full), B0 is most recent, so
        // item 3 also goes to B0.
        let inst = Instance::new(
            DimVec::scalar(10),
            vec![
                item(&[6], 0, 9),  // B0
                item(&[10], 1, 9), // B1 (full), now front
                item(&[2], 2, 9),  // B1 full -> next in MRU order is B0
                item(&[2], 3, 9),  // B0 is front now
            ],
        )
        .unwrap();
        let p = pack(&inst, &mut MoveToFront::new());
        assert_eq!(p.assignment[2], BinId(0));
        assert_eq!(p.assignment[3], BinId(0));
        p.verify_any_fit(&inst).unwrap();
    }

    #[test]
    fn theorem8_lower_bound_pattern() {
        // The Thm 8 construction (d=1, n=2): items of size 1/2 (5 units of
        // 10) and 1/(2n) alternate; MTF pairs each large item with a small
        // long-lived item in a fresh bin, creating 2n bins of duration μ.
        // Sizes: large = 5 units, small = 1 unit (n=5 -> 1/(2n)=1 of 10).
        let mu = 7u64;
        let mut items = Vec::new();
        for _ in 0..5 {
            items.push(item(&[5], 0, 1)); // odd-indexed in paper: size 1/2, [0,1)
            items.push(item(&[1], 0, mu)); // even-indexed: size 1/(2n), [0,μ)
        }
        let inst = Instance::new(DimVec::scalar(10), items).unwrap();
        let p = pack(&inst, &mut MoveToFront::new());
        // MTF: items (5,1) pair into bins; each pair's bin load = 6, so the
        // next size-5 item opens a new bin: 5 bins total, each active μ.
        assert_eq!(p.num_bins(), 5);
        assert_eq!(p.cost(), 5 * u128::from(mu));
        p.verify(&inst).unwrap();
        p.verify_any_fit(&inst).unwrap();
    }

    #[test]
    fn closed_bins_leave_mru_order() {
        let inst =
            Instance::new(DimVec::scalar(10), vec![item(&[6], 0, 2), item(&[6], 3, 5)]).unwrap();
        let mut policy = MoveToFront::new();
        let p = pack(&inst, &mut policy);
        assert_eq!(p.num_bins(), 2);
        assert!(policy.order().is_empty(), "all bins closed at the end");
    }
}
