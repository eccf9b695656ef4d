//! Half-open time intervals and unions of intervals.

use crate::{Cost, Time};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A half-open interval `[start, end)` on the tick timeline.
///
/// The paper defines an item's active interval as `I(r) = [a(r), e(r))`
/// (footnote 1 of §2.1): the item has already departed at `e(r)`. Empty
/// intervals (`start == end`) are permitted — the proof decompositions in
/// §3 produce possibly-empty trailing intervals (`Q_{i,n_i}` may be `∅`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Interval {
    /// Inclusive start tick.
    pub start: Time,
    /// Exclusive end tick. Invariant: `end >= start`.
    pub end: Time,
}

impl Interval {
    /// Creates `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if `end < start`.
    #[must_use]
    pub fn new(start: Time, end: Time) -> Self {
        assert!(end >= start, "interval end {end} precedes start {start}");
        Interval { start, end }
    }

    /// The empty interval anchored at `t`.
    #[must_use]
    pub fn empty_at(t: Time) -> Self {
        Interval { start: t, end: t }
    }

    /// Length `ℓ(I) = end - start` in ticks.
    #[must_use]
    #[inline]
    pub fn len(&self) -> Time {
        self.end - self.start
    }

    /// `true` iff the interval contains no ticks.
    #[must_use]
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// `true` iff tick `t` lies in `[start, end)`.
    #[must_use]
    #[inline]
    pub fn contains(&self, t: Time) -> bool {
        self.start <= t && t < self.end
    }

    /// `true` iff the two intervals share at least one tick.
    #[must_use]
    pub fn overlaps(&self, other: &Interval) -> bool {
        self.start < other.end && other.start < self.end
    }

    /// The intersection, or `None` if disjoint (an empty intersection at a
    /// shared boundary counts as disjoint).
    #[must_use]
    pub fn intersection(&self, other: &Interval) -> Option<Interval> {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        (start < end).then_some(Interval { start, end })
    }

    /// `true` iff `other` is fully contained in `self`.
    #[must_use]
    pub fn covers(&self, other: &Interval) -> bool {
        other.is_empty() || (self.start <= other.start && other.end <= self.end)
    }
}

impl fmt::Debug for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

/// A union of half-open intervals, kept as a sorted list of disjoint,
/// non-adjacent intervals.
///
/// Supports the `span` computation of eq. (1): `span(R) = ℓ(∪_r I(r))`.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IntervalSet {
    /// Sorted, pairwise disjoint, non-adjacent, non-empty intervals.
    segments: Vec<Interval>,
}

impl IntervalSet {
    /// The empty set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a set from arbitrary intervals (they may overlap).
    #[must_use]
    pub fn from_intervals(intervals: impl IntoIterator<Item = Interval>) -> Self {
        let mut set = Self::new();
        for iv in intervals {
            set.insert(iv);
        }
        set
    }

    /// Inserts an interval, merging with existing overlapping or adjacent
    /// segments. Empty intervals are ignored.
    pub fn insert(&mut self, iv: Interval) {
        if iv.is_empty() {
            return;
        }
        // Find the range of segments that overlap or touch `iv`.
        let lo = self.segments.partition_point(|s| s.end < iv.start);
        let hi = self.segments.partition_point(|s| s.start <= iv.end);
        if lo == hi {
            self.segments.insert(lo, iv);
            return;
        }
        let merged = Interval {
            start: iv.start.min(self.segments[lo].start),
            end: iv.end.max(self.segments[hi - 1].end),
        };
        self.segments.splice(lo..hi, std::iter::once(merged));
    }

    /// Total length of the union, in ticks.
    #[must_use]
    pub fn span(&self) -> Cost {
        self.segments.iter().map(|s| Cost::from(s.len())).sum()
    }

    /// The disjoint segments, sorted by start.
    #[must_use]
    pub fn segments(&self) -> &[Interval] {
        &self.segments
    }

    /// `true` iff no tick is covered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Number of maximal disjoint segments.
    #[must_use]
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// `true` iff tick `t` is covered.
    #[must_use]
    pub fn contains(&self, t: Time) -> bool {
        let idx = self.segments.partition_point(|s| s.end <= t);
        self.segments.get(idx).is_some_and(|s| s.contains(t))
    }
}

impl FromIterator<Interval> for IntervalSet {
    fn from_iter<I: IntoIterator<Item = Interval>>(iter: I) -> Self {
        Self::from_intervals(iter)
    }
}

/// `span` of a collection of intervals: the length of their union.
///
/// This is `span(R)` from §2.1 when applied to the items' active intervals,
/// and `span(R_i)` (a bin's usage time) when applied to one bin's items.
#[must_use]
pub fn span_of<'a>(intervals: impl IntoIterator<Item = &'a Interval>) -> Cost {
    IntervalSet::from_intervals(intervals.into_iter().copied()).span()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_basics() {
        let iv = Interval::new(2, 5);
        assert_eq!(iv.len(), 3);
        assert!(!iv.is_empty());
        assert!(iv.contains(2));
        assert!(iv.contains(4));
        assert!(!iv.contains(5), "half-open: end tick excluded");
        assert!(!iv.contains(1));
    }

    #[test]
    fn empty_interval() {
        let iv = Interval::empty_at(7);
        assert!(iv.is_empty());
        assert_eq!(iv.len(), 0);
        assert!(!iv.contains(7));
    }

    #[test]
    #[should_panic(expected = "precedes start")]
    fn inverted_interval_panics() {
        let _ = Interval::new(5, 2);
    }

    #[test]
    fn overlap_semantics_half_open() {
        let a = Interval::new(0, 5);
        let b = Interval::new(5, 10);
        assert!(!a.overlaps(&b), "touching intervals do not overlap");
        let c = Interval::new(4, 6);
        assert!(a.overlaps(&c));
        assert_eq!(a.intersection(&c), Some(Interval::new(4, 5)));
        assert_eq!(a.intersection(&b), None);
    }

    #[test]
    fn covers() {
        let outer = Interval::new(0, 10);
        assert!(outer.covers(&Interval::new(3, 7)));
        assert!(outer.covers(&Interval::new(0, 10)));
        assert!(!outer.covers(&Interval::new(3, 11)));
        assert!(
            outer.covers(&Interval::empty_at(99)),
            "empty is covered by anything"
        );
    }

    #[test]
    fn interval_set_merges_overlaps() {
        let set = IntervalSet::from_intervals([
            Interval::new(0, 3),
            Interval::new(2, 5),
            Interval::new(7, 9),
        ]);
        assert_eq!(set.segments(), &[Interval::new(0, 5), Interval::new(7, 9)]);
        assert_eq!(set.span(), 7);
        assert_eq!(set.segment_count(), 2);
    }

    #[test]
    fn interval_set_merges_adjacent() {
        // [0,3) and [3,5) are adjacent: their union is the single [0,5).
        let set = IntervalSet::from_intervals([Interval::new(0, 3), Interval::new(3, 5)]);
        assert_eq!(set.segments(), &[Interval::new(0, 5)]);
        assert_eq!(set.span(), 5);
    }

    #[test]
    fn interval_set_insert_bridging_many() {
        let mut set = IntervalSet::from_intervals([
            Interval::new(0, 1),
            Interval::new(2, 3),
            Interval::new(4, 5),
            Interval::new(10, 11),
        ]);
        set.insert(Interval::new(1, 4)); // bridges the first three
        assert_eq!(
            set.segments(),
            &[Interval::new(0, 5), Interval::new(10, 11)]
        );
        assert_eq!(set.span(), 6);
    }

    #[test]
    fn interval_set_ignores_empty() {
        let mut set = IntervalSet::new();
        set.insert(Interval::empty_at(4));
        assert!(set.is_empty());
        assert_eq!(set.span(), 0);
    }

    #[test]
    fn interval_set_contains() {
        let set = IntervalSet::from_intervals([Interval::new(0, 2), Interval::new(5, 8)]);
        assert!(set.contains(0));
        assert!(set.contains(1));
        assert!(!set.contains(2));
        assert!(!set.contains(4));
        assert!(set.contains(5));
        assert!(set.contains(7));
        assert!(!set.contains(8));
    }

    #[test]
    fn span_of_items_equals_paper_span() {
        // Three items: [0,4), [2,6), [10,12) — span = 6 + 2 = 8.
        let ivs = [
            Interval::new(0, 4),
            Interval::new(2, 6),
            Interval::new(10, 12),
        ];
        assert_eq!(span_of(&ivs), 8);
    }

    #[test]
    fn insert_prefix_before_all() {
        let mut set = IntervalSet::from_intervals([Interval::new(10, 20)]);
        set.insert(Interval::new(0, 5));
        assert_eq!(
            set.segments(),
            &[Interval::new(0, 5), Interval::new(10, 20)]
        );
    }
}
