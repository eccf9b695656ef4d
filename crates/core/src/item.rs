//! Items and problem instances (§2.1 of the paper).

use crate::request::PackError;
use dvbp_dimvec::DimVec;
use dvbp_sim::{span_of, Interval, Time};
use serde::{Deserialize, Serialize};

/// One item (job/VM request): a `d`-dimensional size and an active interval.
///
/// The tuple `(a(r), e(r), s(r))` of §2.1, in integer units/ticks. The
/// departure time `e(r)` is part of the instance (the generator knows it),
/// but *online, non-clairvoyant* algorithms never read it — the engine only
/// reveals departures as they happen. Clairvoyant extensions (§8 future
/// work) read [`Item::announced_duration`] instead, which carries either
/// the true duration or a noisy prediction, as the workload dictates.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Item {
    /// Resource demand in units per dimension; `s(r)`.
    pub size: DimVec,
    /// Arrival tick `a(r)`.
    pub arrival: Time,
    /// Departure tick `e(r)`; the item is active over `[arrival, departure)`.
    pub departure: Time,
    /// Duration information revealed to clairvoyant/prediction policies at
    /// arrival time. `None` in the non-clairvoyant setting of the paper.
    pub announced_duration: Option<Time>,
}

impl Item {
    /// Creates a non-clairvoyant item.
    ///
    /// # Panics
    ///
    /// Panics if `departure <= arrival` (durations must be ≥ 1 tick).
    #[must_use]
    pub fn new(size: impl Into<DimVec>, arrival: Time, departure: Time) -> Self {
        assert!(
            departure > arrival,
            "item duration must be positive: [{arrival}, {departure})"
        );
        Item {
            size: size.into(),
            arrival,
            departure,
            announced_duration: None,
        }
    }

    /// Attaches an announced duration (true or predicted) for clairvoyant
    /// policies.
    #[must_use]
    pub fn with_announced_duration(mut self, duration: Time) -> Self {
        self.announced_duration = Some(duration);
        self
    }

    /// The active interval `I(r) = [a(r), e(r))`.
    #[must_use]
    pub fn interval(&self) -> Interval {
        Interval::new(self.arrival, self.departure)
    }

    /// Duration `ℓ(I(r)) = e(r) − a(r)`.
    #[must_use]
    pub fn duration(&self) -> Time {
        self.departure - self.arrival
    }
}

/// A complete DVBP instance: bin capacity and the item list in arrival
/// (input-sequence) order.
///
/// The paper normalizes bins to `1^d`; here a bin has integer capacity
/// `capacity[j]` units in dimension `j` and an item of size `s` is feasible
/// iff `s[j] ≤ capacity[j]` for all `j`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Instance {
    /// Per-dimension bin capacity in units.
    pub capacity: DimVec,
    /// Items, in the order the online algorithm sees them.
    pub items: Vec<Item>,
}

/// The item rule every admission applies, batch or streamed: a size of
/// the capacity's dimension that fits an empty bin and is not zero in
/// every dimension (a zero item is free and makes μ and the competitive
/// ratio degenerate). `item` names the offender in the error.
pub(crate) fn check_size(size: &DimVec, capacity: &DimVec, item: usize) -> Result<(), PackError> {
    if size.dim() != capacity.dim() {
        Err(PackError::DimMismatch { item })
    } else if !size.fits_within(capacity) {
        Err(PackError::OversizedItem { item })
    } else if size.is_zero() {
        Err(PackError::ZeroSizeItem { item })
    } else {
        Ok(())
    }
}

impl Instance {
    /// Creates and validates an instance.
    ///
    /// # Errors
    ///
    /// Returns the first [`PackError`] found, if any.
    pub fn new(capacity: impl Into<DimVec>, items: Vec<Item>) -> Result<Self, PackError> {
        let inst = Instance {
            capacity: capacity.into(),
            items,
        };
        inst.validate()?;
        Ok(inst)
    }

    /// Checks every item is packable and dimensionally consistent.
    ///
    /// # Errors
    ///
    /// Returns the first [`PackError`] found, if any.
    pub fn validate(&self) -> Result<(), PackError> {
        self.items
            .iter()
            .enumerate()
            .try_for_each(|(idx, item)| check_size(&item.size, &self.capacity, idx))
    }

    /// The check a run makes before its first event, batch or streamed
    /// ([`InstanceSource`](crate::InstanceSource)): every active interval
    /// non-empty, then every size valid.
    pub(crate) fn check_run(&self) -> Result<(), PackError> {
        match self.items.iter().position(|it| it.departure <= it.arrival) {
            Some(item) => Err(PackError::NonMonotoneTime { item }),
            None => self.validate(),
        }
    }

    /// Number of resource dimensions `d`.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.capacity.dim()
    }

    /// Number of items `n`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` iff the instance has no items.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Active intervals of all items, in item order.
    #[must_use]
    pub fn intervals(&self) -> Vec<Interval> {
        self.items.iter().map(Item::interval).collect()
    }

    /// `span(R)`: total time at least one item is active (§2.1).
    #[must_use]
    pub fn span(&self) -> dvbp_sim::Cost {
        span_of(&self.intervals())
    }

    /// μ as the exact rational `(max duration, min duration)`.
    ///
    /// The paper normalizes the minimum duration to 1 so that μ is the
    /// max duration; with integer ticks we keep the ratio un-normalized.
    /// Returns `None` for an empty instance.
    #[must_use]
    pub fn mu(&self) -> Option<(Time, Time)> {
        let durations = self.items.iter().map(Item::duration);
        let max = durations.clone().max()?;
        let min = self.items.iter().map(Item::duration).min()?;
        Some((max, min))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(size: &[u64], a: Time, e: Time) -> Item {
        Item::new(DimVec::from_slice(size), a, e)
    }

    #[test]
    fn item_basics() {
        let r = item(&[3, 4], 2, 9);
        assert_eq!(r.interval(), Interval::new(2, 9));
        assert_eq!(r.duration(), 7);
        assert_eq!(r.announced_duration, None);
        let c = r.clone().with_announced_duration(7);
        assert_eq!(c.announced_duration, Some(7));
    }

    #[test]
    #[should_panic(expected = "duration must be positive")]
    fn zero_duration_item_panics() {
        let _ = item(&[1], 5, 5);
    }

    #[test]
    fn instance_validation() {
        let cap = DimVec::from_slice(&[10, 10]);
        assert!(Instance::new(cap.clone(), vec![item(&[10, 10], 0, 1)]).is_ok());
        assert_eq!(
            Instance::new(cap.clone(), vec![item(&[11, 0], 0, 1)]),
            Err(PackError::OversizedItem { item: 0 })
        );
        assert_eq!(
            Instance::new(cap.clone(), vec![item(&[1], 0, 1)]),
            Err(PackError::DimMismatch { item: 0 })
        );
        assert_eq!(
            Instance::new(cap, vec![item(&[0, 0], 0, 1)]),
            Err(PackError::ZeroSizeItem { item: 0 })
        );
    }

    #[test]
    fn error_messages() {
        assert!(PackError::OversizedItem { item: 3 }
            .to_string()
            .contains("item 3"));
        assert!(PackError::DimMismatch { item: 0 }
            .to_string()
            .contains("mismatch"));
        assert!(PackError::ZeroSizeItem { item: 1 }
            .to_string()
            .contains("zero"));
    }

    #[test]
    fn span_and_mu() {
        let cap = DimVec::scalar(10);
        let inst = Instance::new(
            cap,
            vec![item(&[1], 0, 4), item(&[1], 2, 6), item(&[1], 10, 11)],
        )
        .unwrap();
        assert_eq!(inst.span(), 7); // [0,6) ∪ [10,11)
        assert_eq!(inst.mu(), Some((4, 1)));
        assert_eq!(inst.dim(), 1);
        assert_eq!(inst.len(), 3);
        assert!(!inst.is_empty());
    }

    #[test]
    fn empty_instance_mu() {
        let inst = Instance::new(DimVec::scalar(1), vec![]).unwrap();
        assert_eq!(inst.mu(), None);
        assert_eq!(inst.span(), 0);
        assert!(inst.is_empty());
    }
}
