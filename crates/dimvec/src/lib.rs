//! Inline small-vector of per-dimension resource units.
//!
//! The DVBP problem works with `d`-dimensional resource demands where `d` is
//! small (the paper evaluates `d ∈ {1, 2, 5}`) but chosen at runtime. This
//! crate provides [`DimVec`], a vector of `u64` *resource units* that stores
//! up to [`INLINE_DIMS`] components inline (no heap allocation) and falls
//! back to a boxed slice for larger dimensionalities.
//!
//! All feasibility arithmetic in the packing engine is exact integer
//! arithmetic on `DimVec`s: an item of size `s` fits into a bin with load
//! `load` and capacity `cap` iff `load[j] + s[j] <= cap[j]` for every
//! dimension `j`. Using integer units (rather than normalized floats)
//! eliminates epsilon-comparison bugs in the adversarial constructions,
//! which rely on exact `1 - ε'` style loads.

mod norms;
mod vec;
mod wide;

pub use norms::{linf, lp_f64, lp_slices, ratio_linf, ratio_linf_slices};
pub use vec::{DimVec, INLINE_DIMS};
pub use wide::WideSum;

#[cfg(test)]
mod proptests;
