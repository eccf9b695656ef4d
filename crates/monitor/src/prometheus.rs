//! Prometheus text exposition (format version 0.0.4) of an
//! [`Aggregate`].
//!
//! Families:
//!
//! * open-bin — `dvbp_bins_opened_total`, `dvbp_bins_closed_total`,
//!   `dvbp_open_bins_peak`;
//! * usage-time — `dvbp_usage_time_total`, `dvbp_lb_load_total`;
//! * CR drift — `dvbp_cr_running`, `dvbp_cr_drift`;
//! * latency histograms — `dvbp_dispatch_latency_ns`,
//!   `dvbp_index_update_latency_ns`, `dvbp_departure_latency_ns`, each
//!   with the cumulative `_bucket{le=…}` series plus `_sum`/`_count`;
//! * throughput — `dvbp_runs_total`, `dvbp_arrivals_total`,
//!   `dvbp_departures_total`, `dvbp_probes_total`.
//!
//! Every series carries a `policy` label so several monitors can feed
//! one scrape target. Every line is formatted by the shared writer in
//! [`dvbp_obs::expo`] (the one `dvbp-serve` uses), so the histograms
//! carry its inclusive `le` bounds `2^i − 1` and parse back losslessly
//! through [`dvbp_obs::expo::parse_histograms`].

use crate::aggregate::{Aggregate, RepackStats, SegmentStats};
use dvbp_obs::expo::Kind::{self, Counter, Gauge, Histogram};
use dvbp_obs::expo::{self, Float};
use dvbp_sim::Cost;
use std::fmt::Display;

/// One row of a [`labelled_families`] table: family name, kind, help,
/// and the sample value of one entry.
type Column<'a, S> = (&'a str, Kind, &'a str, &'a dyn Fn(&S) -> String);

/// Renders the full exposition document for one aggregate snapshot.
#[must_use]
pub fn render(agg: &Aggregate, policy: &str) -> String {
    let mut out = String::new();
    let labels = [("policy", policy)];
    let scalars: [(&str, Kind, &dyn Display, &str); 11] = [
        (
            "dvbp_runs_total",
            Counter,
            &agg.runs,
            "Completed engine runs.",
        ),
        (
            "dvbp_arrivals_total",
            Counter,
            &agg.arrivals,
            "Items placed over all runs.",
        ),
        (
            "dvbp_departures_total",
            Counter,
            &agg.departures,
            "Items departed over all runs.",
        ),
        (
            "dvbp_probes_total",
            Counter,
            &agg.probes,
            "Candidate bins examined by the policy over all placements.",
        ),
        (
            "dvbp_bins_opened_total",
            Counter,
            &agg.bins_opened,
            "Bins ever opened over all runs.",
        ),
        (
            "dvbp_bins_closed_total",
            Counter,
            &agg.bins_closed,
            "Bins closed over all runs.",
        ),
        (
            "dvbp_open_bins_peak",
            Gauge,
            &Float(agg.open_bins_peak as f64),
            "Highest number of simultaneously open bins seen in any run.",
        ),
        (
            "dvbp_usage_time_total",
            Counter,
            &agg.usage_time,
            "Accumulated MinUsageTime cost (bin-ticks rented, eq. 1).",
        ),
        (
            "dvbp_lb_load_total",
            Counter,
            &agg.lb_load,
            "Accumulated Lemma 1 load-integral lower bound (bin-ticks).",
        ),
        (
            "dvbp_cr_running",
            Gauge,
            &Float(agg.running_cr()),
            "Running competitive ratio: usage-time cost over the Lemma 1 bound.",
        ),
        (
            "dvbp_cr_drift",
            Gauge,
            &Float(agg.cr_drift()),
            "Cost drift above the Lemma 1 bound (running CR minus one).",
        ),
    ];
    for (name, kind, value, help) in scalars {
        expo::family(&mut out, name, kind, Some(help));
        expo::sample(&mut out, name, &labels, value);
    }
    for (name, help, h) in [
        (
            "dvbp_dispatch_latency_ns",
            "Wall-clock arrival-to-placement latency per item (ns).",
            &agg.dispatch_ns,
        ),
        (
            "dvbp_index_update_latency_ns",
            "Wall-clock arrival-to-bin-open latency on the open-new path (ns).",
            &agg.index_update_ns,
        ),
        (
            "dvbp_departure_latency_ns",
            "Wall-clock hook gap preceding each departure (ns).",
            &agg.departure_ns,
        ),
    ] {
        expo::family(&mut out, name, Histogram, Some(help));
        expo::histogram(&mut out, name, &labels, h);
    }
    expo::build_info(
        &mut out,
        env!("CARGO_PKG_VERSION"),
        dvbp_core::enabled_features(),
    );
    out
}

/// One family per `(name, kind, help, value)` row, each with one
/// `{policy=…,<key>=…}` sample per entry: `# HELP`/`# TYPE` once per
/// family, not per label value. Empty entries render nothing.
fn labelled_families<S>(
    policy: &str,
    key: &str,
    entries: &[(String, S)],
    families: &[Column<'_, S>],
) -> String {
    let mut out = String::new();
    if entries.is_empty() {
        return out;
    }
    for (name, kind, help, value) in families {
        expo::family(&mut out, name, *kind, Some(help));
        for (label, stats) in entries {
            let labels = [("policy", policy), (key, label.as_str())];
            expo::sample(&mut out, name, &labels, value(stats));
        }
    }
    out
}

/// Renders the repack-suite section of the exposition: per-policy
/// migration counters and the running competitive ratio, one `repack`
/// label value per suite entry. Appended to [`render`]'s document by
/// the monitor when a repack suite is active.
#[must_use]
pub fn render_repack(policy: &str, entries: &[(String, RepackStats)]) -> String {
    labelled_families(
        policy,
        "repack",
        entries,
        &[
            (
                "dvbp_repack_runs_total",
                Counter,
                "Completed live runs per repack policy.",
                &|s| s.runs.to_string(),
            ),
            (
                "dvbp_repack_migrations_total",
                Counter,
                "Items migrated between bins per repack policy.",
                &|s| s.migrations.to_string(),
            ),
            (
                "dvbp_repack_migration_cost_total",
                Counter,
                "Accumulated migration cost per repack policy.",
                &|s| s.migration_cost.to_string(),
            ),
            (
                "dvbp_repack_usage_time_total",
                Counter,
                "Accumulated MinUsageTime cost per repack policy (bin-ticks).",
                &|s| s.usage_time.to_string(),
            ),
            (
                "dvbp_repack_lb_load_total",
                Counter,
                "Accumulated Lemma 1 lower bound per repack policy (bin-ticks).",
                &|s| s.lb_load.to_string(),
            ),
            (
                "dvbp_repack_cr_running",
                Gauge,
                "Running competitive ratio per repack policy.",
                &|s| Float(s.running_cr()).to_string(),
            ),
        ],
    )
}

/// Renders the per-policy-segment attribution of a replayed portfolio
/// trace: segment counts, attributed usage-time cost, and each policy's
/// share of the total — one `live` label value per policy that ever
/// drove the run. Appended to [`render`]'s document when the monitor
/// replays a trace carrying `PolicySwitch` markers; empty otherwise.
#[must_use]
pub fn render_segments(policy: &str, entries: &[(String, SegmentStats)]) -> String {
    let total: Cost = entries.iter().map(|(_, s)| s.usage_time).sum();
    labelled_families(
        policy,
        "live",
        entries,
        &[
            (
                "dvbp_segments_total",
                Counter,
                "Live-policy segments attributed to each portfolio candidate.",
                &|s| s.segments.to_string(),
            ),
            (
                "dvbp_segment_usage_time_total",
                Counter,
                "Usage-time cost accrued while each policy was live (bin-ticks).",
                &|s| s.usage_time.to_string(),
            ),
            (
                "dvbp_segment_cost_share",
                Gauge,
                "Each live policy's fraction of the replayed trace's total cost.",
                &|s| s.cost_share(total).to_string(),
            ),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_aggregate() -> Aggregate {
        let mut agg = Aggregate::new();
        agg.runs = 2;
        agg.arrivals = 10;
        agg.departures = 10;
        agg.bins_opened = 4;
        agg.bins_closed = 4;
        agg.probes = 17;
        agg.open_bins_peak = 3;
        agg.usage_time = 40;
        agg.lb_load = 25;
        agg.dispatch_ns.record(0);
        agg.dispatch_ns.record(5);
        agg.dispatch_ns.record(1000);
        agg
    }

    /// Structural validity: every non-comment line is `name{labels} value`,
    /// histogram buckets are cumulative, and `_count` equals `+Inf`.
    #[test]
    fn exposition_is_well_formed() {
        let text = render(&sample_aggregate(), "FirstFit");
        let mut inf_bucket = None;
        let mut count = None;
        let mut prev_bucket = 0u64;
        for line in text.lines() {
            if line.starts_with('#') {
                assert!(
                    line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                    "{line}"
                );
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect(line);
            assert!(
                series.contains("{policy=\"FirstFit\"") || series.starts_with("dvbp_build_info"),
                "{line}"
            );
            assert!(
                value == "+Inf" || value.parse::<f64>().is_ok(),
                "unparseable sample value in {line}"
            );
            if series.starts_with("dvbp_dispatch_latency_ns_bucket") {
                let v: u64 = value.parse().unwrap();
                assert!(v >= prev_bucket, "non-cumulative buckets: {line}");
                prev_bucket = v;
                if series.contains("le=\"+Inf\"") {
                    inf_bucket = Some(v);
                }
            }
            if series.starts_with("dvbp_dispatch_latency_ns_count") {
                count = Some(value.parse::<u64>().unwrap());
            }
        }
        assert_eq!(inf_bucket, Some(3));
        assert_eq!(count, Some(3));
        assert!(text.contains("dvbp_cr_running{policy=\"FirstFit\"} 1.6"));
        assert!(text.contains("dvbp_usage_time_total{policy=\"FirstFit\"} 40"));
    }

    #[test]
    fn bucket_bounds_are_powers_of_two_minus_one() {
        let text = render(&sample_aggregate(), "p");
        // 1000 lands in bucket 10 ([512, 1024)), le = 1023.
        assert!(text.contains("le=\"1023\""), "{text}");
        assert!(text.contains("le=\"0\""), "{text}");
    }

    #[test]
    fn repack_section_emits_one_labeled_sample_per_policy() {
        let mut drain = RepackStats::new();
        drain.absorb(3, 3, 40, 25);
        let entries = vec![
            ("none".to_string(), RepackStats::new()),
            ("drain:2".to_string(), drain),
        ];
        let text = render_repack("FirstFit", &entries);
        assert!(
            text.contains("dvbp_repack_migrations_total{policy=\"FirstFit\",repack=\"drain:2\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("dvbp_repack_migrations_total{policy=\"FirstFit\",repack=\"none\"} 0"),
            "{text}"
        );
        assert!(
            text.contains("dvbp_repack_cr_running{policy=\"FirstFit\",repack=\"drain:2\"} 1.6"),
            "{text}"
        );
        // Cold-start entry renders the neutral 1 — no non-finite samples.
        assert!(
            text.contains("dvbp_repack_cr_running{policy=\"FirstFit\",repack=\"none\"} 1"),
            "{text}"
        );
        assert!(!text.contains("Inf"), "{text}");
        // HELP/TYPE once per family, not per label value.
        assert_eq!(
            text.matches("# TYPE dvbp_repack_migrations_total").count(),
            1
        );
    }

    #[test]
    fn empty_repack_suite_renders_nothing() {
        assert!(render_repack("p", &[]).is_empty());
    }

    #[test]
    fn segment_section_attributes_cost_per_live_policy() {
        let entries = vec![
            (
                "NextFit".to_string(),
                SegmentStats {
                    segments: 1,
                    usage_time: 3,
                },
            ),
            (
                "FirstFit".to_string(),
                SegmentStats {
                    segments: 2,
                    usage_time: 9,
                },
            ),
        ];
        let text = render_segments("portfolio", &entries);
        assert!(
            text.contains("dvbp_segment_usage_time_total{policy=\"portfolio\",live=\"NextFit\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("dvbp_segments_total{policy=\"portfolio\",live=\"FirstFit\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("dvbp_segment_cost_share{policy=\"portfolio\",live=\"FirstFit\"} 0.75"),
            "{text}"
        );
        assert_eq!(text.matches("# TYPE dvbp_segments_total").count(), 1);
        assert!(!text.contains("NaN") && !text.contains(" inf"), "{text}");
        // Cold-start shape: entries with no cost at all stay finite.
        let cold = vec![("NextFit".to_string(), SegmentStats::default())];
        let text = render_segments("portfolio", &cold);
        assert!(
            text.contains("dvbp_segment_cost_share{policy=\"portfolio\",live=\"NextFit\"} 0"),
            "{text}"
        );
        assert!(render_segments("p", &[]).is_empty());
    }

    #[test]
    fn cold_start_ratio_scrapes_finite() {
        // Cost without lower-bound evidence (the cold-start shape that
        // used to scrape as +Inf) must render the neutral 1.0 — a
        // Prometheus rate query must never ingest a non-finite sample.
        let mut agg = Aggregate::new();
        agg.usage_time = 5;
        let text = render(&agg, "p");
        assert!(text.contains("dvbp_cr_running{policy=\"p\"} 1"), "{text}");
        assert!(text.contains("dvbp_cr_drift{policy=\"p\"} 0"), "{text}");
        assert!(!text.contains("Inf\n"), "non-finite gauge escaped: {text}");
        assert!(!text.contains("NaN"), "{text}");
    }
}
