//! Clairvoyant extension: duration-class First Fit (paper §8 future work).
//!
//! In the clairvoyant DVBP problem the duration of an item is revealed on
//! arrival. A classic way to exploit this (cf. Ren–Tang SPAA'16 and
//! Azar–Vainstein's class-based schemes for the 1-D problem) is to
//! segregate items into geometric duration classes — class
//! `c = ⌊log₂ duration⌋` — and run First Fit *within each class*: bins
//! only ever hold items of one class, so a bin's items have durations
//! within a factor 2 of each other. That aligns departures (the paper §7's
//! "alignment" notion) at the price of opening more bins ("packing").
//!
//! This is **not** an Any Fit algorithm: an item may open a class-`c` bin
//! while a bin of another class has room. The engine supports it all the
//! same; it is excluded from Any Fit property checks.
//!
//! The same policy doubles as the *prediction* policy for experiment X3:
//! feed it noisy [`Item::announced_duration`] values and its advantage
//! degrades gracefully with prediction error.

use super::{Decision, Policy};
use crate::bin::BinId;
use crate::engine::EngineView;
use crate::item::Item;
use std::borrow::Cow;

/// First Fit within geometric duration classes.
#[derive(Clone, Debug, Default)]
pub struct DurationClassFirstFit {
    /// `class_of[bin] = c` for every bin this policy has opened.
    class_of: Vec<u32>,
}

impl DurationClassFirstFit {
    /// Creates the policy.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The duration class of an announced duration: `⌊log₂ d⌋`.
    #[must_use]
    pub fn class_of_duration(duration: u64) -> u32 {
        debug_assert!(duration > 0);
        63 - duration.leading_zeros()
    }

    fn item_class(item: &Item) -> u32 {
        let announced = item.announced_duration.expect(
            "DurationClassFirstFit requires announced durations; \
             attach them with Item::with_announced_duration",
        );
        Self::class_of_duration(announced.max(1))
    }
}

impl Policy for DurationClassFirstFit {
    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("DurationClassFF")
    }

    fn choose(&mut self, view: &EngineView<'_>, item: &Item, _item_idx: usize) -> Decision {
        let class = Self::item_class(item);
        // A bin of the wrong class is a policy-level rejection: it counts
        // as one probe (the scan examined it) without a capacity check.
        for &b in view.open_bins() {
            if self.class_of[b.0] != class {
                view.probe_incompatible(b);
                continue;
            }
            if view.probe(b, &item.size) {
                return Decision::Existing(b);
            }
        }
        Decision::OpenNew
    }

    fn after_pack(&mut self, item: &Item, _item_idx: usize, bin: BinId, newly_opened: bool) {
        if newly_opened {
            debug_assert_eq!(bin.0, self.class_of.len());
            self.class_of.push(Self::item_class(item));
        }
    }

    fn reset(&mut self) {
        self.class_of.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::pack;
    use crate::item::Instance;
    use dvbp_dimvec::DimVec;

    fn citem(size: &[u64], a: u64, e: u64) -> Item {
        Item::new(DimVec::from_slice(size), a, e).with_announced_duration(e - a)
    }

    #[test]
    fn duration_classes() {
        assert_eq!(DurationClassFirstFit::class_of_duration(1), 0);
        assert_eq!(DurationClassFirstFit::class_of_duration(2), 1);
        assert_eq!(DurationClassFirstFit::class_of_duration(3), 1);
        assert_eq!(DurationClassFirstFit::class_of_duration(4), 2);
        assert_eq!(DurationClassFirstFit::class_of_duration(1023), 9);
        assert_eq!(DurationClassFirstFit::class_of_duration(1024), 10);
    }

    #[test]
    fn separates_short_and_long_items() {
        // A short and a long item would share a bin under First Fit; the
        // clairvoyant policy gives each its own class bin.
        let inst = Instance::new(
            DimVec::scalar(10),
            vec![citem(&[2], 0, 1), citem(&[2], 0, 100)],
        )
        .unwrap();
        let p = pack(&inst, &mut DurationClassFirstFit::new());
        assert_eq!(p.num_bins(), 2);
        p.verify(&inst).unwrap();
    }

    #[test]
    fn same_class_items_share_bins_first_fit_style() {
        let inst = Instance::new(
            DimVec::scalar(10),
            vec![citem(&[4], 0, 3), citem(&[4], 0, 2), citem(&[4], 0, 3)],
        )
        .unwrap();
        // Durations 3, 2, 3 are all class 1.
        let p = pack(&inst, &mut DurationClassFirstFit::new());
        assert_eq!(p.num_bins(), 2);
        assert_eq!(p.assignment[0], p.assignment[1]);
        p.verify(&inst).unwrap();
    }

    #[test]
    fn alignment_beats_first_fit_on_staggered_longs() {
        // Classic pathology: pairs of (short, long) items. First Fit mixes
        // them, stranding long items in many bins; the clairvoyant policy
        // concentrates long items into one bin.
        let mut items = Vec::new();
        for k in 0..4 {
            items.push(citem(&[9], k, k + 2)); // short blockader, class 1
            items.push(citem(&[1], k, 100)); // long sliver, class 6
        }
        let inst = Instance::new(DimVec::scalar(10), items).unwrap();
        let clair = pack(&inst, &mut DurationClassFirstFit::new());
        let ff = pack(&inst, &mut crate::policy::first_fit::FirstFit::new());
        assert!(
            clair.cost() < ff.cost(),
            "clairvoyant {} !< first fit {}",
            clair.cost(),
            ff.cost()
        );
        clair.verify(&inst).unwrap();
    }

    #[test]
    #[should_panic(expected = "requires announced durations")]
    fn missing_announcement_panics() {
        let inst =
            Instance::new(DimVec::scalar(10), vec![Item::new(DimVec::scalar(1), 0, 5)]).unwrap();
        let _ = pack(&inst, &mut DurationClassFirstFit::new());
    }
}
