//! The paper's uniform synthetic workload (§7, Table 2).
//!
//! Each instance is a sequence of `n` items; for every item,
//! independently and uniformly:
//!
//! * size: each dimension uniform on `{1, …, B}` (bins have capacity `B`
//!   per dimension);
//! * arrival: uniform on `{0, …, T − μ}`;
//! * duration: uniform on `{1, …, μ}`.
//!
//! Table 2 fixes `n = 1000`, `T = 1000`, `B = 100` and sweeps
//! `d ∈ {1, 2, 5}`, `μ ∈ {1, 2, 5, 10, 100, 200}`.

use dvbp_core::{Instance, Item};
use dvbp_dimvec::DimVec;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// The paper's `d` sweep (Table 2).
pub const PAPER_DIMS: [usize; 3] = [1, 2, 5];

/// The paper's `μ` sweep (Table 2).
pub const PAPER_MUS: [u64; 6] = [1, 2, 5, 10, 100, 200];

/// Parameters of the uniform workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct UniformParams {
    /// Number of resource dimensions `d`.
    pub dims: usize,
    /// Sequence length `n`.
    pub items: usize,
    /// Maximum item duration `μ` (ticks; the minimum is 1).
    pub mu: u64,
    /// Sequence span `T`: arrivals fall in `[0, T − μ]`.
    pub span: u64,
    /// Bin capacity `B` per dimension; sizes are uniform on `{1..B}`.
    pub bin_size: u64,
}

impl UniformParams {
    /// Table 2 parameters for a given `(d, μ)` grid point.
    ///
    /// # Panics
    ///
    /// Panics if `mu > span` (arrival range would be empty).
    #[must_use]
    pub fn table2(dims: usize, mu: u64) -> Self {
        let p = UniformParams {
            dims,
            items: 1000,
            mu,
            span: 1000,
            bin_size: 100,
        };
        assert!(p.mu <= p.span, "μ must not exceed T");
        p
    }

    /// Generates the instance for `seed`. Identical `(params, seed)`
    /// always yields the identical instance, independent of platform and
    /// thread schedule.
    #[must_use]
    pub fn generate(&self, seed: u64) -> Instance {
        assert!(self.dims > 0 && self.items > 0);
        assert!(self.mu >= 1 && self.mu <= self.span);
        assert!(self.bin_size >= 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let items = (0..self.items)
            .map(|_| {
                let size = DimVec::from_fn(self.dims, |_| rng.random_range(1..=self.bin_size));
                let arrival = rng.random_range(0..=self.span - self.mu);
                let duration = rng.random_range(1..=self.mu);
                Item::new(size, arrival, arrival + duration)
            })
            .collect();
        Instance::new(DimVec::splat(self.dims, self.bin_size), items)
            .expect("uniform generator produces valid instances")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let p = UniformParams::table2(2, 10);
        let a = p.generate(42);
        let b = p.generate(42);
        assert_eq!(a, b);
        let c = p.generate(43);
        assert_ne!(a, c);
    }

    #[test]
    fn generated_items_respect_ranges() {
        let p = UniformParams::table2(5, 100);
        let inst = p.generate(7);
        assert_eq!(inst.dim(), 5);
        assert_eq!(inst.len(), 1000);
        for item in &inst.items {
            assert!(item.size.iter().all(|s| (1..=100).contains(&s)));
            assert!(item.arrival <= 900);
            let dur = item.duration();
            assert!((1..=100).contains(&dur));
            assert!(item.departure <= 1000);
        }
        inst.validate().unwrap();
    }

    #[test]
    fn mu_one_means_unit_durations() {
        let p = UniformParams::table2(1, 1);
        let inst = p.generate(1);
        assert!(inst.items.iter().all(|i| i.duration() == 1));
        assert_eq!(inst.mu(), Some((1, 1)));
    }

    #[test]
    fn instance_mu_at_most_parameter_mu() {
        let p = UniformParams::table2(1, 200);
        let inst = p.generate(9);
        let (max_d, min_d) = inst.mu().unwrap();
        assert!(max_d <= 200);
        assert!(min_d >= 1);
    }

    #[test]
    fn custom_params() {
        let p = UniformParams {
            dims: 3,
            items: 50,
            mu: 5,
            span: 20,
            bin_size: 10,
        };
        let inst = p.generate(0);
        assert_eq!(inst.len(), 50);
        assert_eq!(inst.capacity, DimVec::splat(3, 10));
    }

    #[test]
    #[should_panic(expected = "μ must not exceed T")]
    fn mu_above_span_rejected() {
        let _ = UniformParams::table2(1, 2000);
    }
}
