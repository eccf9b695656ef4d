//! Cross-run aggregation of per-run observer output.
//!
//! One [`Aggregate`] lives behind the monitor's mutex; the driver folds
//! each finished run into it ([`Aggregate::absorb`]) and the HTTP
//! handlers render point-in-time copies. Everything here is monotone
//! (counters and merged histograms only grow; the peak only rises), so
//! Prometheus rate queries over scrapes are meaningful.

use dvbp_obs::histogram::LogHistogram;
use dvbp_obs::{MetricsObserver, ObsEvent, TimingSnapshot};
use dvbp_sim::{Cost, Time};
use std::collections::HashMap;

/// Totals over every run the driver has completed.
#[derive(Clone, Debug, Default)]
pub struct Aggregate {
    /// Completed engine runs.
    pub runs: u64,
    /// Items placed over all runs.
    pub arrivals: u64,
    /// Items departed over all runs.
    pub departures: u64,
    /// Bins ever opened over all runs.
    pub bins_opened: u64,
    /// Bins closed over all runs.
    pub bins_closed: u64,
    /// Candidate bins examined by the policy over all placements.
    pub probes: u64,
    /// Highest number of simultaneously open bins seen in any run.
    pub open_bins_peak: u64,
    /// Total usage-time cost (objective of eq. 1) over all runs.
    pub usage_time: Cost,
    /// Total Lemma 1 load-integral lower bound over the same runs.
    pub lb_load: Cost,
    /// Arrival-to-placement wall-clock latency (ns), merged over runs.
    pub dispatch_ns: LogHistogram,
    /// Arrival-to-bin-open wall-clock latency (ns), merged over runs.
    pub index_update_ns: LogHistogram,
    /// Pre-departure hook gap (ns), merged over runs.
    pub departure_ns: LogHistogram,
}

impl Aggregate {
    /// Creates an empty aggregate.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one finished run into the totals.
    pub fn absorb(
        &mut self,
        metrics: &MetricsObserver,
        timing: &TimingSnapshot,
        cost: Cost,
        lb: Cost,
    ) {
        self.runs += 1;
        self.arrivals += metrics.arrivals;
        self.departures += metrics.departures;
        self.bins_opened += metrics.bins_opened;
        self.bins_closed += metrics.bins_closed;
        self.probes += metrics.total_scanned;
        self.open_bins_peak = self
            .open_bins_peak
            .max(metrics.max_concurrent_bins() as u64);
        self.usage_time += cost;
        self.lb_load += lb;
        self.dispatch_ns.merge(&timing.dispatch);
        self.index_update_ns.merge(&timing.index_update);
        self.departure_ns.merge(&timing.departure);
    }

    /// Running competitive ratio: accumulated usage-time cost over the
    /// accumulated Lemma 1 lower bound.
    ///
    /// With no lower-bound evidence yet (`lb_load == 0` — a cold-start
    /// scrape, or a stream whose first lower-bound update has not landed)
    /// the ratio is undefined; this reports the neutral `1.0` rather
    /// than `NaN` or `+Inf`, so dashboards and rate queries over early
    /// scrapes never see a non-finite sample.
    #[must_use]
    pub fn running_cr(&self) -> f64 {
        dvbp_sim::cost_ratio(self.usage_time, self.lb_load)
    }

    /// Competitive-ratio drift: how far the achieved cost sits above the
    /// Lemma 1 bound (`running_cr − 1`; 0 means the policy is provably
    /// optimal on the traffic seen so far).
    #[must_use]
    pub fn cr_drift(&self) -> f64 {
        self.running_cr() - 1.0
    }
}

/// Totals over every repack observation run under one
/// [`RepackPolicy`](dvbp_core::RepackPolicy).
///
/// The repack suite drives the same workload through live engines with
/// different migration budgets; each policy keeps its own monotone
/// totals so the per-policy running competitive ratio and migration
/// counters can sit side by side on one scrape.
#[derive(Clone, Copy, Debug, Default)]
pub struct RepackStats {
    /// Completed live runs under this policy.
    pub runs: u64,
    /// Items migrated between bins over all runs.
    pub migrations: u64,
    /// Accumulated migration cost (policy-defined units).
    pub migration_cost: u64,
    /// Total usage-time cost (objective of eq. 1) over all runs.
    pub usage_time: Cost,
    /// Total Lemma 1 load-integral lower bound over the same runs.
    pub lb_load: Cost,
}

impl RepackStats {
    /// Creates empty totals.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one finished live run into the totals.
    pub fn absorb(&mut self, migrations: u64, migration_cost: u64, cost: Cost, lb: Cost) {
        self.runs += 1;
        self.migrations += migrations;
        self.migration_cost += migration_cost;
        self.usage_time += cost;
        self.lb_load += lb;
    }

    /// Running competitive ratio under this repack policy, with the
    /// same neutral-`1.0` cold-start convention as
    /// [`Aggregate::running_cr`].
    #[must_use]
    pub fn running_cr(&self) -> f64 {
        dvbp_sim::cost_ratio(self.usage_time, self.lb_load)
    }
}

/// Usage-time totals attributed to one live policy across the segments
/// (spans between [`ObsEvent::PolicySwitch`] markers) it drove.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SegmentStats {
    /// Segments this policy was live for.
    pub segments: u64,
    /// Usage-time cost accrued while this policy was live (bin-ticks:
    /// each open bin charges the overlap of its open interval with the
    /// segment).
    pub usage_time: Cost,
}

impl SegmentStats {
    /// This policy's share of the run's total cost, as a fraction in
    /// `[0, 1]`. With no cost evidence yet (`total == 0` — a cold-start
    /// scrape) the share is undefined; this reports `0.0` rather than
    /// `NaN`, so dashboards never see a non-finite sample.
    #[must_use]
    pub fn cost_share(&self, total: Cost) -> f64 {
        if total == 0 {
            0.0
        } else {
            self.usage_time as f64 / total as f64
        }
    }
}

/// Attributes a recorded stream's usage-time cost to the policy live
/// during each segment, keyed by the round-trippable policy spelling in
/// first-seen order.
///
/// A segment is the span between two [`ObsEvent::PolicySwitch`] markers
/// (the stretch before the first switch belongs to that switch's `from`
/// side; the stretch after the last to its `to` side). Each open bin
/// charges every segment the overlap of its open interval, so summing
/// the attribution over policies reproduces the run's total usage time
/// exactly. Streams without switch markers (single-policy runs) yield
/// an empty vector; streams holding several runs attribute each run's
/// segments independently into the same totals.
#[must_use]
pub fn attribute_policy_segments(events: &[ObsEvent]) -> Vec<(String, SegmentStats)> {
    let mut totals: Vec<(String, SegmentStats)> = Vec::new();
    let credit = |policy: &str, cost: Cost, totals: &mut Vec<(String, SegmentStats)>| {
        let stats = match totals.iter_mut().find(|(p, _)| p == policy) {
            Some((_, stats)) => stats,
            None => {
                totals.push((policy.to_string(), SegmentStats::default()));
                &mut totals.last_mut().expect("just pushed").1
            }
        };
        stats.segments += 1;
        stats.usage_time += cost;
    };
    // Bin -> start of its unattributed open span (clamped forward at
    // each segment boundary); `pending` accrues the current segment.
    let mut open: HashMap<usize, Time> = HashMap::new();
    let mut pending: Cost = 0;
    let mut current: Option<String> = None;
    let mut last_time: Time = 0;
    let flush = |at: Time, open: &mut HashMap<usize, Time>, pending: &mut Cost| {
        for since in open.values_mut() {
            *pending += Cost::from(at.max(*since) - *since);
            *since = at.max(*since);
        }
    };
    for ev in events {
        match ev {
            ObsEvent::RunStart { .. } => {
                // A fresh run: its initial policy is unknown until its
                // first switch, exactly like the stream head.
                open.clear();
                pending = 0;
                current = None;
            }
            ObsEvent::BinOpen { time, bin } => {
                open.insert(*bin, *time);
                last_time = last_time.max(*time);
            }
            ObsEvent::BinClose { time, bin } => {
                if let Some(since) = open.remove(bin) {
                    pending += Cost::from((*time).max(since) - since);
                }
                last_time = last_time.max(*time);
            }
            ObsEvent::PolicySwitch { time, from, to } => {
                flush(*time, &mut open, &mut pending);
                credit(from, pending, &mut totals);
                pending = 0;
                current = Some(to.clone());
                last_time = last_time.max(*time);
            }
            ObsEvent::RunEnd { time, .. } => {
                flush(*time, &mut open, &mut pending);
                if let Some(policy) = current.take() {
                    credit(&policy, pending, &mut totals);
                }
                open.clear();
                pending = 0;
            }
            _ => {}
        }
    }
    // A truncated stream (no RunEnd): settle up to the last tick seen.
    if let Some(policy) = current {
        flush(last_time, &mut open, &mut pending);
        credit(&policy, pending, &mut totals);
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvbp_core::{Instance, Item, PackRequest, PolicyKind};
    use dvbp_dimvec::DimVec;
    use dvbp_obs::TimingObserver;

    fn sample_instance() -> Instance {
        let item = |size: &[u64], a: u64, e: u64| Item::new(DimVec::from_slice(size), a, e);
        Instance::new(
            DimVec::from_slice(&[10, 10]),
            vec![
                item(&[7, 2], 0, 10),
                item(&[2, 7], 2, 5),
                item(&[3, 3], 4, 6),
            ],
        )
        .unwrap()
    }

    #[test]
    fn absorb_accumulates_and_cr_is_bounded_below_by_one() {
        let inst = sample_instance();
        let mut agg = Aggregate::new();
        for _ in 0..2 {
            let mut metrics = dvbp_obs::MetricsObserver::new();
            let mut timing = TimingObserver::new();
            let mut stack = (&mut metrics, &mut timing);
            let packing = PackRequest::new(PolicyKind::FirstFit)
                .observer(&mut stack)
                .run(&inst)
                .unwrap();
            let lb = dvbp_offline::lb_load(&inst);
            agg.absorb(&metrics, &timing.snapshot(), packing.cost(), lb);
        }
        assert_eq!(agg.runs, 2);
        assert_eq!(agg.arrivals, 6);
        assert_eq!(agg.departures, 6);
        assert_eq!(agg.bins_opened, agg.bins_closed);
        assert_eq!(agg.dispatch_ns.total(), 6);
        assert!(agg.usage_time >= agg.lb_load, "Lemma 1 violated");
        assert!(agg.running_cr() >= 1.0);
        assert!(agg.cr_drift() >= 0.0);
    }

    #[test]
    fn empty_aggregate_has_unit_ratio() {
        let agg = Aggregate::new();
        assert_eq!(agg.running_cr(), 1.0);
        assert_eq!(agg.cr_drift(), 0.0);
    }

    #[test]
    fn repack_stats_accumulate_and_cold_start_is_finite() {
        let mut stats = RepackStats::new();
        assert_eq!(stats.running_cr(), 1.0);
        stats.absorb(2, 3, 40, 25);
        stats.absorb(1, 1, 10, 5);
        assert_eq!(stats.runs, 2);
        assert_eq!(stats.migrations, 3);
        assert_eq!(stats.migration_cost, 4);
        assert_eq!(stats.usage_time, 50);
        assert_eq!(stats.lb_load, 30);
        assert!((stats.running_cr() - 50.0 / 30.0).abs() < 1e-12);
    }

    #[test]
    fn segment_attribution_splits_bins_at_the_switch_and_sums_to_total() {
        // Bin 0 spans the switch at t=4 (2 ticks NextFit, 6 FirstFit);
        // bin 1 lives entirely inside the first segment.
        let events = vec![
            dvbp_obs::ObsEvent::BinOpen { time: 2, bin: 0 },
            dvbp_obs::ObsEvent::BinOpen { time: 2, bin: 1 },
            dvbp_obs::ObsEvent::BinClose { time: 3, bin: 1 },
            dvbp_obs::ObsEvent::PolicySwitch {
                time: 4,
                from: "NextFit".into(),
                to: "FirstFit".into(),
            },
            dvbp_obs::ObsEvent::BinClose { time: 10, bin: 0 },
            dvbp_obs::ObsEvent::RunEnd {
                time: 10,
                items: 3,
                bins: 2,
            },
        ];
        let totals = attribute_policy_segments(&events);
        assert_eq!(
            totals,
            vec![
                (
                    "NextFit".to_string(),
                    SegmentStats {
                        segments: 1,
                        usage_time: 3
                    }
                ),
                (
                    "FirstFit".to_string(),
                    SegmentStats {
                        segments: 1,
                        usage_time: 6
                    }
                ),
            ]
        );
        let total: Cost = totals.iter().map(|(_, s)| s.usage_time).sum();
        assert_eq!(total, 9, "attribution must reproduce the run's cost");
        assert!((totals[0].1.cost_share(total) - 3.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn single_policy_streams_attribute_nothing() {
        let inst = sample_instance();
        let mut rec = dvbp_obs::Recorder::new();
        PackRequest::new(PolicyKind::FirstFit)
            .observer(&mut rec)
            .run(&inst)
            .unwrap();
        assert!(attribute_policy_segments(&rec.events).is_empty());
    }

    #[test]
    fn segment_cost_share_is_finite_on_cold_start() {
        let stats = SegmentStats::default();
        assert_eq!(stats.cost_share(0), 0.0);
        assert!(stats.cost_share(0).is_finite());
    }

    #[test]
    fn ratio_is_finite_even_with_cost_but_no_lower_bound() {
        // The cold-start shape that used to render +Inf: cost has
        // accumulated but the first lower-bound update has not.
        let mut agg = Aggregate::new();
        agg.usage_time = 5;
        assert!(agg.running_cr().is_finite());
        assert_eq!(agg.running_cr(), 1.0);
        assert!(agg.cr_drift().is_finite());
        assert_eq!(agg.cr_drift(), 0.0);
    }
}
