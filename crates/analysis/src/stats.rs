//! Summary statistics for trial aggregation (mean ± std of Figure 4).

use serde::{Deserialize, Serialize};

/// Streaming mean/variance accumulator (Welford's algorithm), plus
/// min/max. Numerically stable for the thousands of trials per grid
/// point used by the experiments.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Accumulator {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Accumulator {
    /// An empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Accumulator {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator (parallel reduction; Chan et al.).
    pub fn merge(&mut self, other: &Accumulator) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 for an empty accumulator).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample standard deviation (`n − 1` denominator; 0 for < 2 samples).
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / (self.count as f64 - 1.0)).sqrt()
        }
    }

    /// Smallest observation (`None` when empty).
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }
}

/// A finalized summary, convenient for serialization into reports.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of observations.
    pub count: u64,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// Minimum observation.
    pub min: f64,
    /// Maximum observation.
    pub max: f64,
}

impl From<&Accumulator> for Summary {
    fn from(acc: &Accumulator) -> Self {
        Summary {
            count: acc.count(),
            mean: acc.mean(),
            std_dev: acc.std_dev(),
            min: acc.min().unwrap_or(f64::NAN),
            max: acc.max().unwrap_or(f64::NAN),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_values() {
        let mut acc = Accumulator::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            acc.push(x);
        }
        assert_eq!(acc.count(), 8);
        assert!((acc.mean() - 5.0).abs() < 1e-12);
        // Population variance 4 -> sample variance 32/7.
        assert!((acc.std_dev() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(acc.min(), Some(2.0));
        assert_eq!(acc.max(), Some(9.0));
    }

    #[test]
    fn empty_and_single() {
        let acc = Accumulator::new();
        assert_eq!(acc.mean(), 0.0);
        assert_eq!(acc.std_dev(), 0.0);
        assert_eq!(acc.min(), None);
        let mut one = Accumulator::new();
        one.push(3.5);
        assert_eq!(one.mean(), 3.5);
        assert_eq!(one.std_dev(), 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64 * 0.37).sin() * 10.0).collect();
        let mut whole = Accumulator::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut left = Accumulator::new();
        let mut right = Accumulator::new();
        for &x in &xs[..37] {
            left.push(x);
        }
        for &x in &xs[37..] {
            right.push(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.std_dev() - whole.std_dev()).abs() < 1e-9);
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
    }

    #[test]
    fn merge_with_empty() {
        let mut a = Accumulator::new();
        a.push(1.0);
        let b = Accumulator::new();
        let mut a2 = a;
        a2.merge(&b);
        assert_eq!(a2, a);
        let mut c = Accumulator::new();
        c.merge(&a);
        assert_eq!(c, a);
    }

    #[test]
    fn summary_conversion() {
        let mut acc = Accumulator::new();
        acc.push(1.0);
        acc.push(3.0);
        let s = Summary::from(&acc);
        assert_eq!(s.count, 2);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
    }
}
