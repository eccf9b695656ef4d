//! Offline quantities for DVBP: lower bounds on OPT (Lemma 1), an exact
//! vector bin packing solver, the First-Fit-Decreasing heuristic, and the
//! optimal offline cost `OPT(R)` via the time-slice integral of eq. (2).
//!
//! The paper's competitive-ratio analyses compare online costs against
//! `OPT(R)`, the cost of an optimal offline algorithm **that may repack
//! items at any time** (§2.2). Repacking decouples time slices: between
//! two consecutive arrival/departure events the active set is constant,
//! and the optimal number of open bins in that slice is exactly the static
//! vector-bin-packing optimum of the active items. Hence
//!
//! ```text
//! OPT(R) = Σ_slices  VBP_opt(active items in slice) · slice length     (eq. 2)
//! ```
//!
//! Static VBP is NP-hard, so the exact solver ([`exact::pack_count`])
//! targets the small-to-moderate active sets that arise in tests and in
//! the adversarial constructions; large instances fall back to the
//! [LB, FFD] sandwich of [`opt::opt_bounds`]. The paper's own experiments
//! (§7) sidestep OPT the same way, normalizing by the Lemma 1(i) lower
//! bound — reproduce that with [`lower_bounds::lb_load`].

pub mod exact;
pub mod ffd;
pub mod lower_bounds;
pub mod opt;
pub mod witness;

#[cfg(test)]
mod proptests;

pub use exact::{pack_assignment, pack_count, ExactPacking};
pub use ffd::ffd_count;
pub use lower_bounds::{lb_load, lb_span, lb_utilization};
pub use opt::{opt_bounds, opt_exact, OptBounds};
