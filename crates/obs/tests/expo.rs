//! The shared operator surface, `dvbp_obs::expo`: the exposition
//! writer's line format, the HTTP framing, and the writer's contract —
//! every histogram family either service publishes parses back through
//! [`parse_histograms`] to the exact [`LogHistogram`] it was rendered
//! from (bucket counts, `_sum` and `_count`). `dvbp-serve`'s span
//! families and `dvbp-monitor`'s latency families are both rendered by
//! the real service code.

use dvbp_monitor::prometheus;
use dvbp_monitor::Aggregate;
use dvbp_obs::expo::*;
use dvbp_obs::{LogHistogram, OpKind, SpanRecord, Stage};
use dvbp_serve::SpanHub;
use std::io::{Cursor, Read};

#[test]
fn samples_render_with_and_without_labels() {
    let mut out = String::new();
    family(&mut out, "x_total", Kind::Counter, Some("Things."));
    sample(&mut out, "x_total", &[], 3);
    family(&mut out, "y", Kind::Gauge, None);
    sample(&mut out, "y", &[("a", "1"), ("b", "two")], Float(0.5));
    sample(&mut out, "y", &[("a", "2")], Float(f64::INFINITY));
    assert_eq!(
        out,
        "# HELP x_total Things.\n# TYPE x_total counter\nx_total 3\n\
         # TYPE y gauge\ny{a=\"1\",b=\"two\"} 0.5\ny{a=\"2\"} +Inf\n"
    );
    for (v, s) in [(f64::NEG_INFINITY, "-Inf"), (f64::NAN, "NaN"), (3.0, "3")] {
        assert_eq!(Float(v).to_string(), s);
    }
}

#[test]
fn histogram_buckets_are_cumulative_with_inclusive_bounds() {
    let mut h = LogHistogram::new();
    for v in [0, 1, 5, 1000] {
        h.record(v);
    }
    let mut out = String::new();
    histogram(&mut out, "lat", &[("op", "x")], &h);
    assert!(
        out.starts_with("lat_bucket{op=\"x\",le=\"0\"} 1\n"),
        "{out}"
    );
    assert!(out.contains("lat_bucket{op=\"x\",le=\"7\"} 3\n"), "{out}");
    assert!(
        out.contains("lat_bucket{op=\"x\",le=\"1023\"} 4\n"),
        "{out}"
    );
    assert!(
        out.contains("lat_bucket{op=\"x\",le=\"+Inf\"} 4\n"),
        "{out}"
    );
    assert!(
        out.ends_with("lat_sum{op=\"x\"} 1006\nlat_count{op=\"x\"} 4\n"),
        "{out}"
    );
    // Unlabelled members still carry `le`.
    let mut bare = String::new();
    histogram(&mut bare, "lat", &[], &LogHistogram::new());
    assert_eq!(
        bare,
        "lat_bucket{le=\"0\"} 0\nlat_bucket{le=\"+Inf\"} 0\nlat_sum 0\nlat_count 0\n"
    );
}

#[test]
fn parser_inverts_the_writer_across_every_bucket() {
    let mut a = LogHistogram::new();
    let mut b = LogHistogram::new();
    for i in 0..64 {
        a.record(1u64 << i);
    }
    a.record(0);
    b.record(7);
    let mut out = String::new();
    family(&mut out, "f", Kind::Histogram, None);
    histogram(&mut out, "f", &[("k", "a")], &a);
    histogram(&mut out, "f", &[("k", "b")], &b);
    let parsed = parse_histograms(&out, "f");
    assert_eq!(parsed.len(), 2);
    for (sh, h) in parsed.iter().zip([&a, &b]) {
        assert_eq!(sh.hist.counts(), h.counts());
        assert_eq!((sh.hist.total(), sh.hist.sum()), (h.total(), h.sum()));
    }
    assert_eq!((parsed[0].label("k"), parsed[1].label("k")), ("a", "b"));
    assert_eq!(parsed[0].label("missing"), "");
    assert!(parse_histograms(&out, "other").is_empty());
}

#[test]
fn build_info_has_version_and_profile() {
    let mut out = String::new();
    build_info(&mut out, "1.2.3", "scalar-scan");
    assert!(out.starts_with("# TYPE dvbp_build_info gauge\n"), "{out}");
    assert!(
        out.contains("dvbp_build_info{version=\"1.2.3\",features=\"scalar-scan\",profile="),
        "{out}"
    );
    assert!(out.ends_with("} 1\n"), "{out}");
}

#[test]
fn head_read_drains_headers_and_splits_the_request_line() {
    let mut reader = Cursor::new("Host: x\r\nAccept: */*\r\n\r\nleftover");
    assert_eq!(
        read_head(&mut reader, "POST /shutdown HTTP/1.1\r\n"),
        ("POST", "/shutdown")
    );
    let mut rest = String::new();
    reader.read_to_string(&mut rest).unwrap();
    assert_eq!(rest, "leftover");
    assert_eq!(read_head(&mut Cursor::new(""), ""), ("", "/"));
}

#[test]
fn guarded_read_reports_lines_and_eof() {
    let mut reader = Cursor::new("one\npartial");
    let mut line = String::new();
    assert_eq!(read_line_guarded(&mut reader, &mut line), LineRead::Line);
    line.clear();
    assert_eq!(read_line_guarded(&mut reader, &mut line), LineRead::Line);
    assert_eq!(line, "partial");
    assert_eq!(read_line_guarded(&mut reader, &mut line), LineRead::Closed);
}

#[test]
fn guarded_read_and_header_drain_stop_at_the_line_cap() {
    let flood = "a".repeat(1 << 20);
    let mut line = String::new();
    assert_eq!(
        read_line_guarded(&mut Cursor::new(flood.as_str()), &mut line),
        LineRead::TooLong
    );
    assert!(line.len() <= 64 * 1024, "{} bytes buffered", line.len());
    // A line that fits, newline included, reads whole.
    let fits = format!("{}\n", "b".repeat(MAX_LINE_BYTES - 1));
    line.clear();
    assert_eq!(
        read_line_guarded(&mut Cursor::new(fits.as_str()), &mut line),
        LineRead::Line
    );
    assert_eq!(line, fits);
    let mut headers = Cursor::new(flood.as_str());
    assert_eq!(read_head(&mut headers, "GET / HTTP/1.1\r\n"), ("GET", "/"));
    assert_eq!(headers.position(), MAX_LINE_BYTES as u64);
}

#[test]
fn response_is_framed_once() {
    let mut out = Vec::new();
    respond(&mut out, "404 Not Found", "text/plain", "no\n").unwrap();
    assert_eq!(
        String::from_utf8(out).unwrap(),
        "HTTP/1.1 404 Not Found\r\nContent-Type: text/plain\r\n\
         Content-Length: 3\r\nConnection: close\r\n\r\nno\n"
    );
}

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

/// The value of the one `{family}_count{…}` sample carrying `labels`.
fn count_sample(text: &str, family: &str, labels: &str) -> u64 {
    let prefix = format!("{family}_count{{{labels}}} ");
    let mut values = text.lines().filter_map(|l| l.strip_prefix(&prefix));
    let value = values
        .next()
        .unwrap_or_else(|| panic!("no {prefix} in\n{text}"));
    assert!(values.next().is_none(), "duplicate {prefix}");
    value.parse().unwrap()
}

#[test]
fn serve_span_families_round_trip() {
    let hub = SpanHub::new(2);
    for i in 0..100u64 {
        hub.record(&finished(OpKind::Arrive, (i % 2) as u32, i * i));
    }
    let mut text = String::new();
    hub.render_metrics(&mut text);
    let parsed = parse_histograms(&text, "dvbp_serve_request_latency_ns");
    assert_eq!(parsed.len(), 2);
    let mut merged = LogHistogram::new();
    for sh in &parsed {
        assert_eq!(sh.label("op"), "arrive");
        let labels = format!("op=\"arrive\",shard=\"{}\"", sh.label("shard"));
        let count = count_sample(&text, "dvbp_serve_request_latency_ns", &labels);
        assert_eq!(count, sh.hist.total());
        merged.merge(&sh.hist);
    }
    let expect = hub.merged_total();
    assert_eq!(merged.total(), expect.total());
    assert_eq!(merged.sum(), expect.sum());
    assert_eq!(merged.counts(), expect.counts());
    // Counts are identical, so quantiles land in the same bucket;
    // the scraped max is only the bucket's upper bound, so a
    // max-capped quantile can sit above the exact one (never below).
    for q in [0.5, 0.99, 0.999] {
        let (scraped, exact) = (merged.quantile(q), expect.quantile(q));
        assert!(scraped >= exact, "q={q}: {scraped} < {exact}");
        assert_eq!(
            LogHistogram::bucket_of(scraped),
            LogHistogram::bucket_of(exact),
            "q={q}"
        );
    }
}

#[test]
fn monitor_latency_families_round_trip() {
    // Values in buckets 0, 1, 10 and 64 (the top bucket's `le` is
    // u64::MAX), spread differently over the three families.
    let mut agg = Aggregate::new();
    for v in [0, 1, 1000, 1 << 63] {
        agg.dispatch_ns.record(v);
    }
    for v in [1, 1, 600, 1023] {
        agg.index_update_ns.record(v);
    }
    for v in [0, 0, 0, 1 << 63, 512] {
        agg.departure_ns.record(v);
    }
    for bucket in [0, 1, 10, 64] {
        assert_eq!(agg.dispatch_ns.counts()[bucket], 1, "bucket {bucket}");
    }
    let text = prometheus::render(&agg, "FirstFit");
    for (family, expect) in [
        ("dvbp_dispatch_latency_ns", &agg.dispatch_ns),
        ("dvbp_index_update_latency_ns", &agg.index_update_ns),
        ("dvbp_departure_latency_ns", &agg.departure_ns),
    ] {
        let parsed = parse_histograms(&text, family);
        assert_eq!(parsed.len(), 1, "{family}");
        let got = &parsed[0].hist;
        assert_eq!(parsed[0].label("policy"), "FirstFit");
        assert_eq!(got.counts(), expect.counts(), "{family}");
        assert_eq!(got.sum(), expect.sum(), "{family}");
        assert_eq!(got.total(), expect.total(), "{family}");
        let count = count_sample(&text, family, "policy=\"FirstFit\"");
        assert_eq!(count, expect.total(), "{family}");
    }
}
