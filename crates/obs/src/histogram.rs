//! [`LogHistogram`]: a log-bucketed distribution of `u64` values, for
//! heavy-tailed, run-length-independent quantities such as latencies
//! (the serve spans, [`TimingObserver`](crate::TimingObserver)) and
//! scraped Prometheus histograms ([`crate::expo`]).
//!
//! Power-of-two buckets: O(1) record, fixed 65-slot footprint
//! regardless of magnitude.

use serde::{Deserialize, Serialize};

/// Number of buckets: one for zero plus one per power of two of `u64`.
const BUCKETS: usize = 65;

/// A log-bucketed histogram of `u64` values.
///
/// Value `v` lands in bucket 0 if `v == 0`, else in bucket
/// `ilog2(v) + 1`; bucket `i ≥ 1` therefore covers `[2^(i-1), 2^i)`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LogHistogram {
    counts: Vec<u64>,
    total: u64,
    sum: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        LogHistogram {
            counts: vec![0; BUCKETS],
            total: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Bucket index of `v`.
    #[must_use]
    pub fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            v.ilog2() as usize + 1
        }
    }

    /// Inclusive-exclusive value range `[lo, hi)` of bucket `i` (bucket 0
    /// is the singleton `[0, 1)`).
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ 65`.
    #[must_use]
    pub fn bucket_range(i: usize) -> (u64, u128) {
        assert!(i < BUCKETS, "bucket {i} out of range");
        if i == 0 {
            (0, 1)
        } else {
            (1 << (i - 1), 1u128 << i)
        }
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket_of(v)] += 1;
        self.total += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Largest recorded value (0 for an empty histogram).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Sum of the recorded values (saturating; exact for any realistic
    /// run). Prometheus exposition needs this as the `_sum` series.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean of the recorded values (0 for an empty histogram; saturating
    /// in the sum, exact for any realistic run).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Per-bucket counts (65 slots; see [`LogHistogram::bucket_range`]).
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Index of the highest non-empty bucket, if any value was recorded.
    #[must_use]
    pub fn last_bucket(&self) -> Option<usize> {
        self.counts.iter().rposition(|&c| c > 0)
    }

    /// Rebuilds a histogram from raw per-bucket counts plus the tracked
    /// `sum` and `max` (the total is recomputed from the counts, so a
    /// snapshot assembled from concurrently-updated buckets is always
    /// internally consistent).
    ///
    /// # Panics
    ///
    /// Panics if `counts` does not have exactly 65 buckets.
    #[must_use]
    pub fn from_counts(counts: &[u64], sum: u64, max: u64) -> Self {
        assert_eq!(counts.len(), BUCKETS, "expected {BUCKETS} buckets");
        LogHistogram {
            counts: counts.to_vec(),
            total: counts.iter().sum(),
            sum,
            max,
        }
    }

    /// Inclusive upper bound of bucket `i` — the largest `u64` the
    /// bucket can hold (bucket 0 → 0, bucket `i ≥ 1` → `2^i − 1`,
    /// bucket 64 → `u64::MAX`). This is also the Prometheus `le` bound
    /// of the bucket under integer-valued observations.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ 65`.
    #[must_use]
    pub fn bucket_upper(i: usize) -> u64 {
        assert!(i < BUCKETS, "bucket {i} out of range");
        if i == 0 {
            0
        } else if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// The `q`-quantile with upper-bound-of-bucket semantics: the
    /// inclusive upper bound ([`LogHistogram::bucket_upper`]) of the
    /// smallest bucket whose cumulative count reaches rank
    /// `max(1, ceil(q·total))`. Returns 0 for an empty histogram.
    ///
    /// The result is a guaranteed *over*-estimate of the exact quantile
    /// (by less than 2× for non-zero values, the bucket resolution),
    /// monotone in `q`, and exact whenever the selected bucket holds a
    /// single distinct value. `q` is clamped to `[0, 1]`; `q = 0` maps
    /// to rank 1 (the minimum's bucket).
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Self::bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout() {
        assert_eq!(LogHistogram::bucket_of(0), 0);
        assert_eq!(LogHistogram::bucket_of(1), 1);
        assert_eq!(LogHistogram::bucket_of(2), 2);
        assert_eq!(LogHistogram::bucket_of(3), 2);
        assert_eq!(LogHistogram::bucket_of(4), 3);
        assert_eq!(LogHistogram::bucket_of(u64::MAX), 64);
        assert_eq!(LogHistogram::bucket_range(0), (0, 1));
        assert_eq!(LogHistogram::bucket_range(3), (4, 8));
        // Every value sits inside its bucket's range.
        for v in [0u64, 1, 2, 5, 1023, 1024, u64::MAX] {
            let b = LogHistogram::bucket_of(v);
            let (lo, hi) = LogHistogram::bucket_range(b);
            assert!(u128::from(v) >= u128::from(lo) && u128::from(v) < hi, "{v}");
        }
    }

    #[test]
    fn record_and_merge() {
        let mut h = LogHistogram::new();
        for v in [0u64, 1, 1, 3, 8] {
            h.record(v);
        }
        assert_eq!(h.total(), 5);
        assert_eq!(h.max(), 8);
        assert!((h.mean() - 13.0 / 5.0).abs() < 1e-12);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[1], 2);
        assert_eq!(h.counts()[2], 1);
        assert_eq!(h.counts()[4], 1);
        assert_eq!(h.last_bucket(), Some(4));

        let mut other = LogHistogram::new();
        other.record(8);
        h.merge(&other);
        assert_eq!(h.total(), 6);
        assert_eq!(h.counts()[4], 2);
    }
}
