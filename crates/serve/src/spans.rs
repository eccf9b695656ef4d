//! The service's span sink: per-shard latency histograms, flight
//! recorders, and every rendering of them (Prometheus families, the
//! `/spans` JSONL dump, the `dvbp-serve spans` breakdown table).
//!
//! One [`SpanHub`] lives in the [`ServeState`](crate::ServeState). The
//! connection loop finishes one [`SpanRecord`] per request and hands it
//! to [`SpanHub::record`], which is wait-free: histogram buckets are
//! relaxed atomics and the flight-recorder rings are per-slot seqlocks
//! (`dvbp-obs`'s [`SpanRing`](dvbp_obs::SpanRing)), so the serving path
//! never blocks on a scrape and a scrape never tears a record.
//!
//! Every request records **all nine stages** (zeros included), so each
//! stage histogram's `_count` equals the request count and the sum of
//! the stage `_sum`s cross-checks against the end-to-end `_sum` —
//! `bench_serve` asserts that identity and the monitor renders
//! per-stage quantiles from the same families.
//!
//! The families are written, and parsed back, by `dvbp-obs`'s shared
//! exposition module ([`dvbp_obs::expo`]); [`parse_histograms`] is
//! re-exported here for the monitor and the load generators.

use dvbp_obs::expo::{self, Kind};
use dvbp_obs::{AtomicHistogram, LogHistogram, OpKind, SpanRecord, Stage};
use serde_json::Value;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

pub use dvbp_obs::expo::{parse_histograms, ScrapedHistogram};

/// Default capacity of each shard's recent-requests ring.
pub const RECENT_RING: usize = 256;
/// Default capacity of each shard's slow-requests keep-ring.
pub const SLOW_RING: usize = 64;
/// Default slow-request threshold: 1 ms of *service* time (total minus
/// socket receive), so an idle keep-alive connection is never "slow".
pub const DEFAULT_SLOW_THRESHOLD_NS: u64 = 1_000_000;

/// Latency sinks for one op kind on one shard slot.
struct OpSpans {
    stages: [AtomicHistogram; Stage::COUNT],
    total: AtomicHistogram,
}

impl OpSpans {
    fn new() -> Self {
        OpSpans {
            stages: std::array::from_fn(|_| AtomicHistogram::new()),
            total: AtomicHistogram::new(),
        }
    }
}

/// One shard's slice of the hub: three op kinds of histograms plus the
/// flight recorder.
struct SpanSlot {
    ops: [OpSpans; OpKind::COUNT],
    rec: dvbp_obs::FlightRecorder,
}

/// The service-wide span sink: one slot per shard plus a trailing
/// service slot (label `shard="svc"`) for requests no shard owns
/// (queries, parse failures, shutdown).
pub struct SpanHub {
    slots: Vec<SpanSlot>,
    slow_threshold_ns: AtomicU64,
}

impl SpanHub {
    /// A hub for `shards` shards with default ring sizes and slow
    /// threshold.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        Self::with_config(shards, RECENT_RING, SLOW_RING, DEFAULT_SLOW_THRESHOLD_NS)
    }

    /// A hub with explicit ring capacities and slow threshold (ns).
    #[must_use]
    pub fn with_config(shards: usize, recent: usize, slow: usize, threshold_ns: u64) -> Self {
        SpanHub {
            slots: (0..=shards)
                .map(|_| SpanSlot {
                    ops: std::array::from_fn(|_| OpSpans::new()),
                    rec: dvbp_obs::FlightRecorder::new(recent, slow, threshold_ns),
                })
                .collect(),
            slow_threshold_ns: AtomicU64::new(threshold_ns),
        }
    }

    fn slot_of(&self, shard: u32) -> &SpanSlot {
        let svc = self.slots.len() - 1;
        let idx = if shard == SpanRecord::SERVICE {
            svc
        } else {
            (shard as usize).min(svc)
        };
        &self.slots[idx]
    }

    fn shard_label(&self, slot: usize) -> String {
        if slot == self.slots.len() - 1 {
            "svc".to_string()
        } else {
            slot.to_string()
        }
    }

    /// Records one finished request: every stage (zeros included) plus
    /// the end-to-end total into the owning slot's histograms, and the
    /// record into its flight recorder. Wait-free, allocation-free.
    pub fn record(&self, rec: &SpanRecord) {
        let slot = self.slot_of(rec.shard);
        let ops = &slot.ops[rec.op.index()];
        for (hist, &ns) in ops.stages.iter().zip(&rec.stage_ns) {
            hist.record(ns);
        }
        ops.total.record(rec.total_ns);
        slot.rec.record(rec);
    }

    /// The current slow-request threshold (ns).
    #[must_use]
    pub fn slow_threshold_ns(&self) -> u64 {
        self.slow_threshold_ns.load(Ordering::Relaxed)
    }

    /// Updates the slow threshold on every slot (ns; 0 disables).
    pub fn set_slow_threshold_ns(&self, ns: u64) {
        self.slow_threshold_ns.store(ns, Ordering::Relaxed);
        for slot in &self.slots {
            slot.rec.set_slow_threshold_ns(ns);
        }
    }

    /// Requests ever classified slow, over all slots.
    #[must_use]
    pub fn slow_total(&self) -> u64 {
        self.slots.iter().map(|s| s.rec.slow_total()).sum()
    }

    /// End-to-end latency histogram merged over every slot and op.
    #[must_use]
    pub fn merged_total(&self) -> LogHistogram {
        let mut h = LogHistogram::new();
        for slot in &self.slots {
            for ops in &slot.ops {
                h.merge(&ops.total.snapshot());
            }
        }
        h
    }

    /// Per-stage histograms merged over every slot and op, indexed by
    /// [`Stage::index`].
    #[must_use]
    pub fn merged_stages(&self) -> Vec<LogHistogram> {
        let mut out: Vec<LogHistogram> = (0..Stage::COUNT).map(|_| LogHistogram::new()).collect();
        for slot in &self.slots {
            for ops in &slot.ops {
                for (m, h) in out.iter_mut().zip(&ops.stages) {
                    m.merge(&h.snapshot());
                }
            }
        }
        out
    }

    /// Appends the span metric families in Prometheus text format:
    /// `dvbp_serve_request_latency_ns` (per op × shard),
    /// `dvbp_serve_stage_latency_ns` (per op × shard × stage),
    /// `dvbp_serve_slow_requests_total`, and
    /// `dvbp_serve_slow_threshold_ns`. Histograms that never saw a
    /// request are omitted.
    pub fn render_metrics(&self, out: &mut String) {
        let name = "dvbp_serve_request_latency_ns";
        expo::family(out, name, Kind::Histogram, None);
        for (i, slot) in self.slots.iter().enumerate() {
            let shard = self.shard_label(i);
            for op in OpKind::ALL {
                let h = slot.ops[op.index()].total.snapshot();
                if h.total() > 0 {
                    expo::histogram(out, name, &[("op", op.name()), ("shard", &shard)], &h);
                }
            }
        }
        let name = "dvbp_serve_stage_latency_ns";
        expo::family(out, name, Kind::Histogram, None);
        for (i, slot) in self.slots.iter().enumerate() {
            let shard = self.shard_label(i);
            for op in OpKind::ALL {
                for stage in Stage::ALL {
                    let h = slot.ops[op.index()].stages[stage.index()].snapshot();
                    if h.total() > 0 {
                        let labels = [
                            ("op", op.name()),
                            ("shard", &shard),
                            ("stage", stage.name()),
                        ];
                        expo::histogram(out, name, &labels, &h);
                    }
                }
            }
        }
        let name = "dvbp_serve_slow_requests_total";
        expo::family(out, name, Kind::Counter, None);
        expo::sample(out, name, &[], self.slow_total());
        let name = "dvbp_serve_slow_threshold_ns";
        expo::family(out, name, Kind::Gauge, None);
        expo::sample(out, name, &[], self.slow_threshold_ns());
    }

    /// Renders the flight recorders as JSONL (the `GET /spans` body):
    /// one object per captured record, `kind` `"recent"` or `"slow"`,
    /// oldest first within each ring, shards in order with the service
    /// slot last.
    #[must_use]
    pub fn dump_jsonl(&self) -> String {
        let mut out = String::new();
        let mut scratch = String::new();
        for slot in &self.slots {
            for (kind, ring) in [("recent", slot.rec.recent()), ("slow", slot.rec.slow())] {
                for rec in ring.snapshot() {
                    scratch.clear();
                    rec.write_json(&mut scratch);
                    let _ = write!(out, "{{\"kind\":\"{kind}\",{}", &scratch[1..]);
                    out.push('\n');
                }
            }
        }
        out
    }
}

/// Renders a `/spans` JSONL dump as the `dvbp-serve spans` breakdown:
/// the last `recent` recent requests, every captured slow request, and
/// a per-stage aggregate table (mean, p50/p99 upper bounds, share of
/// total). Returns an explanatory line when no spans are captured yet.
#[must_use]
pub fn render_spans_table(jsonl: &str, recent: usize) -> String {
    let mut recent_rows = Vec::new();
    let mut slow_rows = Vec::new();
    for line in jsonl.lines() {
        let Ok(v) = serde_json::from_str::<Value>(line) else {
            continue;
        };
        match v.get("kind").and_then(|k| k.as_str()) {
            Some("recent") => recent_rows.push(v),
            Some("slow") => slow_rows.push(v),
            _ => {}
        }
    }
    if recent_rows.is_empty() && slow_rows.is_empty() {
        return "no spans captured yet (drive some requests first)\n".to_string();
    }

    let mut out = String::new();
    let header = format!(
        "{:<7} {:>5} {:<3} {:>8} {:>10} {}\n",
        "op",
        "shard",
        "ok",
        "time",
        "total_us",
        Stage::ALL
            .iter()
            .map(|s| format!("{:>11}", s.name()))
            .collect::<String>(),
    );

    let num = |v: &Value, key: &str| v.get(key).and_then(Value::as_u64).unwrap_or(0);
    let stage_ns = |v: &Value, stage: Stage| v.get("stages").map_or(0, |s| num(s, stage.name()));
    let row = |v: &Value, out: &mut String| {
        let shard = v
            .get("shard")
            .and_then(|s| {
                s.as_u64()
                    .map(|n| n.to_string())
                    .or_else(|| s.as_str().map(String::from))
            })
            .unwrap_or_default();
        let _ = write!(
            out,
            "{:<7} {:>5} {:<3} {:>8} {:>10.1}",
            v.get("op").and_then(|o| o.as_str()).unwrap_or("?"),
            shard,
            if v.get("ok").and_then(|o| o.as_bool()).unwrap_or(false) {
                "ok"
            } else {
                "ERR"
            },
            num(v, "time"),
            num(v, "total_ns") as f64 / 1000.0,
        );
        for stage in Stage::ALL {
            let _ = write!(out, " {:>10.1}", stage_ns(v, stage) as f64 / 1000.0);
        }
        out.push('\n');
    };

    let shown = recent_rows.len().min(recent);
    let _ = writeln!(
        out,
        "recent requests (showing {shown} of {} captured; stage columns in us):",
        recent_rows.len()
    );
    out.push_str(&header);
    for v in recent_rows.iter().rev().take(recent).rev() {
        row(v, &mut out);
    }

    let _ = writeln!(out, "\nslow requests ({} captured):", slow_rows.len());
    if slow_rows.is_empty() {
        out.push_str("  none\n");
    } else {
        out.push_str(&header);
        for v in &slow_rows {
            row(v, &mut out);
        }
    }

    // Per-stage aggregate over the recent ring.
    let mut stage_hists = vec![LogHistogram::new(); Stage::COUNT];
    let mut total_sum = 0u64;
    for v in &recent_rows {
        total_sum += num(v, "total_ns");
        for (h, stage) in stage_hists.iter_mut().zip(Stage::ALL) {
            h.record(stage_ns(v, stage));
        }
    }
    if total_sum > 0 {
        out.push_str("\nper-stage breakdown over the recent ring (us):\n");
        let _ = writeln!(
            out,
            "{:<11} {:>10} {:>10} {:>10} {:>7}",
            "stage", "mean", "p50<=", "p99<=", "share"
        );
        for (h, stage) in stage_hists.iter().zip(Stage::ALL) {
            let _ = writeln!(
                out,
                "{:<11} {:>10.1} {:>10.1} {:>10.1} {:>6.1}%",
                stage.name(),
                h.mean() / 1000.0,
                h.quantile(0.5) as f64 / 1000.0,
                h.quantile(0.99) as f64 / 1000.0,
                100.0 * h.sum() as f64 / total_sum as f64,
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvbp_obs::Span;

    fn finished(op: OpKind, shard: u32, busy_ns: u64) -> SpanRecord {
        let mut rec = SpanRecord {
            op,
            shard,
            ok: true,
            time: 1,
            total_ns: busy_ns,
            stage_ns: [0; Stage::COUNT],
        };
        rec.stage_ns[Stage::Dispatch.index()] = busy_ns;
        rec
    }

    #[test]
    fn record_routes_to_shard_and_service_slots() {
        let hub = SpanHub::new(2);
        hub.record(&finished(OpKind::Arrive, 0, 100));
        hub.record(&finished(OpKind::Depart, 1, 200));
        hub.record(&finished(OpKind::Query, SpanRecord::SERVICE, 300));
        let mut text = String::new();
        hub.render_metrics(&mut text);
        assert!(
            text.contains("request_latency_ns_count{op=\"arrive\",shard=\"0\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("request_latency_ns_count{op=\"depart\",shard=\"1\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("request_latency_ns_count{op=\"query\",shard=\"svc\"} 1"),
            "{text}"
        );
        // All nine stages record per request, zeros included.
        assert!(
            text.contains("stage_latency_ns_count{op=\"arrive\",shard=\"0\",stage=\"recv\"} 1"),
            "{text}"
        );
        assert!(text.contains("dvbp_serve_slow_requests_total 0"), "{text}");
    }

    #[test]
    fn stage_sums_cross_check_against_total() {
        let hub = SpanHub::new(1);
        let mut span = Span::begin();
        span.set_op(OpKind::Arrive, 3);
        for stage in Stage::ALL {
            span.mark(stage);
        }
        hub.record(&span.finish(0, true));
        let stage_sum: u64 = hub.merged_stages().iter().map(LogHistogram::sum).sum();
        let total = hub.merged_total().sum();
        assert!(stage_sum <= total, "{stage_sum} vs {total}");
        // finish() adds only the post-last-mark tail beyond the stages.
        assert!(total - stage_sum < 1_000_000, "{stage_sum} vs {total}");
    }

    #[test]
    fn slow_requests_land_in_the_keep_ring_and_dump() {
        let hub = SpanHub::with_config(1, 8, 8, 1_000);
        hub.record(&finished(OpKind::Arrive, 0, 100)); // fast
        hub.record(&finished(OpKind::Depart, 0, 5_000)); // slow
        assert_eq!(hub.slow_total(), 1);
        let dump = hub.dump_jsonl();
        let slow_lines: Vec<&str> = dump
            .lines()
            .filter(|l| l.contains("\"kind\":\"slow\""))
            .collect();
        assert_eq!(slow_lines.len(), 1);
        assert!(slow_lines[0].contains("\"op\":\"depart\""), "{dump}");
        // Every dumped line is valid JSON.
        for line in dump.lines() {
            serde_json::from_str::<serde_json::Value>(line).unwrap();
        }
    }

    #[test]
    fn spans_table_renders_rows_and_breakdown() {
        let hub = SpanHub::with_config(1, 8, 8, 1_000);
        hub.record(&finished(OpKind::Arrive, 0, 100));
        hub.record(&finished(OpKind::Depart, 0, 5_000));
        let table = render_spans_table(&hub.dump_jsonl(), 16);
        assert!(table.contains("recent requests"), "{table}");
        assert!(table.contains("slow requests (1 captured)"), "{table}");
        assert!(table.contains("per-stage breakdown"), "{table}");
        assert!(table.contains("dispatch"), "{table}");
        assert!(
            render_spans_table("", 16).contains("no spans captured"),
            "empty dump explains itself"
        );
    }
}
