//! Aligned Fit: a clairvoyant Any Fit policy that packs by *departure
//! alignment* (extension; paper §7–§8).
//!
//! §7's discussion attributes solution quality to *packing* (space
//! efficiency) and *alignment* (items in a bin departing together).
//! Aligned Fit optimizes alignment directly: among the open bins that can
//! hold the item, it picks the one whose latest announced departure is
//! closest to the arriving item's announced departure, breaking ties
//! toward the fuller bin (packing) and then the earlier bin
//! (determinism). Unlike [`DurationClassFirstFit`], it remains a
//! full-candidate Any Fit algorithm: a new bin opens only when nothing
//! fits.
//!
//! [`DurationClassFirstFit`]: super::clairvoyant::DurationClassFirstFit

use super::{Decision, LoadMeasure, Policy};
use crate::bin::BinId;
use crate::engine::EngineView;
use crate::item::Item;
use dvbp_sim::Time;
use std::borrow::Cow;
use std::cmp::Ordering;

/// The Aligned Fit policy.
#[derive(Clone, Debug, Default)]
pub struct AlignedFit {
    /// `latest_dep[bin]` = latest announced departure among items ever
    /// packed into the bin (an upper bound on its drain time).
    latest_dep: Vec<Time>,
}

impl AlignedFit {
    /// Creates an Aligned Fit policy.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn announced_departure(item: &Item) -> Time {
        let dur = item.announced_duration.expect(
            "AlignedFit requires announced durations; \
             attach them with Item::with_announced_duration",
        );
        item.arrival.saturating_add(dur.max(1))
    }
}

impl Policy for AlignedFit {
    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("AlignedFit")
    }

    fn choose(&mut self, view: &EngineView<'_>, item: &Item, _item_idx: usize) -> Decision {
        let target = Self::announced_departure(item);
        let mut best: Option<(BinId, u64)> = None;
        for &b in view.open_bins() {
            if !view.probe(b, &item.size) {
                continue;
            }
            let gap = self.latest_dep[b.0].abs_diff(target);
            best = Some(match best {
                None => (b, gap),
                Some((cur, cur_gap)) => match gap.cmp(&cur_gap) {
                    Ordering::Less => (b, gap),
                    Ordering::Equal => {
                        // Tie on alignment: prefer the fuller bin.
                        match LoadMeasure::Linf.cmp_loads(
                            view.load(b),
                            view.load(cur),
                            view.capacity().as_slice(),
                        ) {
                            Ordering::Greater => (b, gap),
                            _ => (cur, cur_gap),
                        }
                    }
                    Ordering::Greater => (cur, cur_gap),
                },
            });
        }
        best.map_or(Decision::OpenNew, |(b, _)| Decision::Existing(b))
    }

    fn after_pack(&mut self, item: &Item, _item_idx: usize, bin: BinId, newly_opened: bool) {
        let dep = Self::announced_departure(item);
        if newly_opened {
            debug_assert_eq!(bin.0, self.latest_dep.len());
            self.latest_dep.push(dep);
        } else {
            self.latest_dep[bin.0] = self.latest_dep[bin.0].max(dep);
        }
    }

    fn reset(&mut self) {
        self.latest_dep.clear();
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
    fn packs_with_the_bin_departing_closest() {
        // B0 drains at 100, B1 drains at 12; an item departing at 10
        // should join B1.
        let inst = Instance::new(
            DimVec::scalar(10),
            vec![citem(&[6], 0, 100), citem(&[6], 1, 12), citem(&[2], 2, 10)],
        )
        .unwrap();
        let p = pack(&inst, &mut AlignedFit::new());
        assert_eq!(p.assignment[2], BinId(1));
        p.verify(&inst).unwrap();
        p.verify_any_fit(&inst).unwrap();
    }

    #[test]
    fn is_a_full_candidate_any_fit_algorithm() {
        let inst = Instance::new(
            DimVec::scalar(10),
            vec![citem(&[9], 0, 50), citem(&[9], 1, 60), citem(&[1], 2, 55)],
        )
        .unwrap();
        let p = pack(&inst, &mut AlignedFit::new());
        // Item 2 fits both near-full bins; no third bin may open.
        assert_eq!(p.num_bins(), 2);
        p.verify_any_fit(&inst).unwrap();
    }

    #[test]
    fn alignment_tie_prefers_fuller_bin() {
        // Both bins drain at 20; the item should join the fuller one.
        let inst = Instance::new(
            DimVec::scalar(10),
            vec![citem(&[4], 0, 20), citem(&[7], 1, 20), citem(&[3], 2, 20)],
        )
        .unwrap();
        let p = pack(&inst, &mut AlignedFit::new());
        assert_eq!(p.assignment[2], BinId(1));
    }

    #[test]
    fn avoids_stranding_longs_in_dying_bins() {
        // B0 holds a short (drains at 10), B1 a long (drains at 300). A
        // long item fitting both goes to B0 under First Fit — stranding
        // it there until 300 — but Aligned Fit sends it to B1, letting B0
        // close at 10.
        let items = vec![
            citem(&[60], 0, 10),  // short -> B0
            citem(&[60], 0, 300), // long  -> B1 (does not fit B0)
            citem(&[30], 1, 300), // long, fits both
        ];
        let inst = Instance::new(DimVec::scalar(100), items).unwrap();
        let aligned = pack(&inst, &mut AlignedFit::new());
        let ff = pack(&inst, &mut crate::policy::first_fit::FirstFit::new());
        assert_eq!(aligned.assignment[2], BinId(1));
        assert_eq!(ff.assignment[2], BinId(0));
        assert_eq!(aligned.cost(), 10 + 300);
        assert_eq!(ff.cost(), 300 + 300);
        aligned.verify(&inst).unwrap();
        aligned.verify_any_fit(&inst).unwrap();
    }

    #[test]
    #[should_panic(expected = "requires announced durations")]
    fn missing_announcement_panics() {
        let inst =
            Instance::new(DimVec::scalar(10), vec![Item::new(DimVec::scalar(1), 0, 5)]).unwrap();
        let _ = pack(&inst, &mut AlignedFit::new());
    }
}
