//! Time model, intervals, event timeline, and sweep-line utilities.
//!
//! The MinUsageTime DVBP problem (paper §2.1) is defined over a continuous
//! timeline; this crate fixes the discrete time model used throughout the
//! reproduction:
//!
//! * time is measured in integer **ticks** ([`Time`] = `u64`);
//! * every item is active over a **half-open interval** `[a, e)` — at tick
//!   `e` the item has already departed, so a departure and an arrival at the
//!   same tick free capacity *before* the arrival is dispatched;
//! * costs and spans are exact `u128` sums of tick counts.
//!
//! The paper's experiments (§7, Table 2) also use integral arrival times
//! and durations, so nothing is lost by the discretization; the theory
//! constructions (§6) scale their rationals onto the tick grid.
//!
//! Three building blocks live here:
//!
//! * [`Interval`] / [`IntervalSet`] — half-open intervals and their unions
//!   (the `span` of eq. (1));
//! * [`timeline::OnlineTimeline`] — the exact event order an online
//!   algorithm observes (departures before arrivals at equal ticks,
//!   arrivals in input-sequence order);
//! * [`sweep::sweep`] — elementary-slice sweep-line over a set of
//!   intervals, the engine behind the OPT lower bounds of Lemma 1 and the
//!   exact OPT integral of eq. (2).

mod interval;
pub mod loadcurve;
pub mod sweep;
pub mod timeline;

#[cfg(test)]
mod proptests;

pub use interval::{span_of, Interval, IntervalSet};
pub use loadcurve::{StepCurve, StepCurveBuilder};

/// A point in time, in integer ticks.
pub type Time = u64;

/// A length of time, in integer ticks.
pub type TickLen = u64;

/// An accumulated cost (sum of interval lengths), in ticks.
///
/// `u128` so that summing many `u64` spans can never overflow.
pub type Cost = u128;

/// The running competitive ratio `cost / lb`, cold-start neutral: it
/// reads `1.0` while the lower bound is 0, so a ratio taken before any
/// lower-bound evidence is never NaN or infinite.
#[must_use]
pub fn cost_ratio(cost: Cost, lb: Cost) -> f64 {
    if lb == 0 {
        1.0
    } else {
        cost as f64 / lb as f64
    }
}
