//! The metric catalogue, the run outcome, and how it is printed: a
//! human-readable table, one provenance-stamped record line, and the
//! final one-line JSON result.

use crate::stats::valid_metric_name;
use std::fmt::Write as _;
use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

/// End-to-end metrics (untraced run), `(name, unit)`. Every workload
/// reports every one; README.md defines each per workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("events_per_s", "events/s"),
    ("lat_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("cost_ratio", "ratio"),
    ("setup_s", "s"),
];

/// Per-layer metrics (traced run), `(name, unit)`. A workload that
/// never enters a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("traces.next_event_ns", "ns"),
    ("traces.share", "fraction"),
    ("lb.observe_ns", "ns"),
    ("lb.share", "fraction"),
    ("engine.arrive_ns.p50", "ns"),
    ("engine.arrive_ns.p99", "ns"),
    ("engine.arrive.share", "fraction"),
    ("engine.depart_ns.p50", "ns"),
    ("engine.depart_ns.p99", "ns"),
    ("engine.depart.share", "fraction"),
    ("engine.open_bins.peak", "count"),
    ("engine.open_bins.mean", "count"),
    ("engine.new_bin_frac", "fraction"),
    ("serve.decode_ns", "ns"),
    ("serve.encode_ns", "ns"),
    ("serve.codec.share", "fraction"),
    ("serve.route_ns", "ns"),
    ("serve.route.share", "fraction"),
    ("serve.lock_wait_us.p50", "us"),
    ("serve.lock_wait_us.p99", "us"),
    ("serve.lock_wait.share", "fraction"),
    ("serve.dispatch_us.p50", "us"),
    ("serve.dispatch_us.p99", "us"),
    ("serve.dispatch.share", "fraction"),
    ("serve.post_us.p50", "us"),
    ("serve.post.share", "fraction"),
    ("repack.us.p99", "us"),
    ("repack.share", "fraction"),
    ("repack.migrations_per_depart", "ratio"),
    ("portfolio.shadow_ns_per_event", "ns"),
    ("portfolio.switches", "count"),
    ("wal.append_us.p50", "us"),
    ("wal.append_us.p99", "us"),
    ("wal.append.share", "fraction"),
    ("wal.bytes_per_req", "bytes"),
    ("wal.sync_us.p50", "us"),
    ("wal.sync_us.p99", "us"),
    ("wal.sync.share", "fraction"),
    ("recovery.scan_ms", "ms"),
    ("recovery.replay_ms", "ms"),
    ("recovery.events_per_s", "events/s"),
    ("client.late_us.p99", "us"),
    ("client.backlog.max", "count"),
    ("server.stage_share.recv", "fraction"),
    ("server.stage_share.parse", "fraction"),
    ("server.stage_share.route", "fraction"),
    ("server.stage_share.lock_wait", "fraction"),
    ("server.stage_share.dispatch", "fraction"),
    ("server.stage_share.repack", "fraction"),
    ("server.stage_share.wal_append", "fraction"),
    ("server.stage_share.wal_sync", "fraction"),
    ("server.stage_share.reply", "fraction"),
    ("driver.share", "fraction"),
    ("trace.overhead_frac", "fraction"),
];

/// One measured figure.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// How many samples the figure summarizes (passes, requests, ...).
    pub samples: u64,
}

/// A named correctness check and what it saw.
#[derive(Clone, Debug)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Figures the issue names that are not in the declared catalogue
    /// (printed in the table and the record only).
    pub extra: Vec<Metric>,
    pub checks: Vec<Check>,
    /// Operations attempted / failed (rows for replay, requests for
    /// serve).
    pub attempted: u64,
    pub failed: u64,
}

impl Outcome {
    /// Records a catalogued metric. The unit comes from the catalogue so
    /// the two can never disagree.
    pub fn metric(&mut self, name: &str, value: f64, samples: u64) {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
        });
    }

    /// Records a figure outside the catalogue.
    pub fn extra(&mut self, name: &str, unit: &'static str, value: f64, samples: u64) {
        self.extra.push(Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
        });
    }

    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        });
    }

    #[must_use]
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    fn find(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The human-readable table: every figure with unit and sample
    /// count, then every check.
    #[must_use]
    pub fn table(&self, workload: &str) -> String {
        let mut out = format!("== {workload}\n");
        for m in self.metrics.iter().chain(&self.extra) {
            let _ = writeln!(
                out,
                "  {:<34} {:>16} {:<9} n={}",
                m.name,
                fmt_value(m.value),
                m.unit,
                m.samples
            );
        }
        for c in &self.checks {
            let mark = if c.ok { "ok  " } else { "FAIL" };
            let _ = writeln!(out, "  [{mark}] {}: {}", c.name, c.detail);
        }
        let _ = writeln!(out, "  attempted {} failed {}", self.attempted, self.failed);
        out
    }

    /// The final result line: exactly the catalogue metrics of `names`
    /// (per-layer figures a workload never measured read 0).
    ///
    /// # Errors
    ///
    /// When an end-to-end metric is missing, or a value is not finite.
    pub fn result_line(&self, names: &[(&str, &str)], zero_fill: bool) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in names.iter().enumerate() {
            debug_assert!(valid_metric_name(name));
            let value = match self.find(name) {
                Some(m) => m.value,
                None if zero_fill => 0.0,
                None => return Err(format!("metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_num(value)
            );
        }
        out.push_str("}}");
        Ok(out)
    }

    /// The result record: provenance plus every figure and check.
    #[must_use]
    pub fn record(&self, provenance: &str) -> String {
        let mut out = format!("{{\"provenance\":{provenance},\"metrics\":[");
        for (i, m) in self.metrics.iter().chain(&self.extra).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"value\":{},\"samples\":{}}}",
                m.name,
                m.unit,
                json_num(m.value),
                m.samples
            );
        }
        out.push_str("],\"checks\":[");
        for (i, c) in self.checks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ok\":{},\"detail\":\"{}\"}}",
                c.name,
                c.ok,
                json_escape(&c.detail)
            );
        }
        let _ = write!(
            out,
            "],\"attempted\":{},\"failed\":{},\"correct\":{}}}",
            self.attempted,
            self.failed,
            self.correct()
        );
        out
    }
}

fn fmt_value(v: f64) -> String {
    if v != 0.0 && (v.abs() < 1e-3 || v.abs() >= 1e9) {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

/// A finite number as JSON, with every digit (shortest round-trip).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out
}

/// What produced a result: commit, toolchain, machine, run-time SIMD
/// backend, build features, workload, seed and date, as one JSON object.
#[must_use]
pub fn provenance(workload: &str, seed: u64, seconds: u64, traced: bool) -> String {
    // `--git-dir .git` pins the lookup to the checkout itself: outside a
    // git checkout the rev reads "unknown" instead of a parent repo's.
    let git = |args: &[&str]| {
        Command::new("git")
            .args(["--git-dir", ".git", "--work-tree", "."])
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let rev = git(&["rev-parse", "HEAD"]);
    let dirty = match (
        &rev,
        git(&["status", "--porcelain", "--untracked-files=no"]),
    ) {
        (Some(_), Some(status)) => (!status.is_empty()).to_string(),
        _ => "null".to_string(),
    };
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_default();
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    format!(
        "{{\"git_rev\":\"{}\",\"git_dirty\":{dirty},\"rustc\":\"{}\",\"cpu\":\"{}\",\
         \"nproc\":{nproc},\"simd\":\"{}\",\"features\":\"{}\",\"workload\":\"{workload}\",\
         \"seed\":{seed},\"seconds\":{seconds},\"traced\":{traced},\"date_utc\":\"{}\"}}",
        json_escape(rev.as_deref().unwrap_or("unknown")),
        json_escape(&rustc),
        json_escape(&cpu),
        simd_backend(),
        dvbp_core::enabled_features(),
        utc_now(),
    )
}

/// The block-scan kernel `dvbp-core` selects on this machine, by the
/// same run-time test its dispatcher makes.
#[must_use]
pub fn simd_backend() -> &'static str {
    if dvbp_core::enabled_features() == "scalar-scan" {
        return "scalar";
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        return "neon";
    }
    #[allow(unreachable_code)]
    "portable"
}

/// Now as `YYYY-MM-DDTHH:MM:SSZ`.
fn utc_now() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let (y, m, d) = civil_from_days(i64::try_from(secs / 86_400).unwrap_or(0));
    let rem = secs % 86_400;
    format!(
        "{y:04}-{m:02}-{d:02}T{:02}:{:02}:{:02}Z",
        rem / 3600,
        rem % 3600 / 60,
        rem % 60
    )
}

/// Days since 1970-01-01 to a proleptic Gregorian date (Howard
/// Hinnant's `civil_from_days`).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = u32::try_from(doy - (153 * mp + 2) / 5 + 1).unwrap_or(1);
    let m = u32::try_from(if mp < 10 { mp + 3 } else { mp - 9 }).unwrap_or(1);
    let y = yoe + era * 400 + i64::from(m <= 2);
    (y, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_follow_the_grammar_and_are_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for name in &all {
            assert!(valid_metric_name(name), "{name}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    /// BENCHMARK.json at the checkout root declares exactly this
    /// catalogue, in this order.
    #[test]
    fn benchmark_json_declares_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the checkout root");
        let doc: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(String, String)> = doc
                .get(key)
                .and_then(serde_json::Value::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m.get("name")
                            .and_then(serde_json::Value::as_str)
                            .unwrap()
                            .to_string(),
                        m.get("unit")
                            .and_then(serde_json::Value::as_str)
                            .unwrap()
                            .to_string(),
                    )
                })
                .collect();
            let expected: Vec<(String, String)> = catalogue
                .iter()
                .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
                .collect();
            assert_eq!(declared, expected, "{key}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            attempted: 4,
            ..Outcome::default()
        };
        for (name, _) in END_TO_END {
            o.metric(name, 1.5, 3);
        }
        let line = o.result_line(END_TO_END, false).unwrap();
        let v: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(
            v.get("correct").and_then(serde_json::Value::as_bool),
            Some(true)
        );
        assert_eq!(
            v.get("attempted").and_then(serde_json::Value::as_u64),
            Some(4)
        );
        let m = v.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(
            m.get("value").and_then(serde_json::Value::as_f64),
            Some(1.5)
        );
        assert_eq!(m.get("unit").and_then(serde_json::Value::as_str), Some("s"));
        // A missing end-to-end metric is an error, a per-layer one reads 0.
        let empty = Outcome::default();
        assert!(empty.result_line(END_TO_END, false).is_err());
        assert!(empty
            .result_line(PER_LAYER, true)
            .unwrap()
            .contains("\"value\":0,"));
    }

    #[test]
    fn dates_from_days() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(11_016), (2000, 2, 29));
        assert_eq!(civil_from_days(20_743), (2026, 10, 17));
    }
}
