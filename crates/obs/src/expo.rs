//! The operator surface `dvbp-serve` and `dvbp-monitor` share:
//! Prometheus text exposition (format 0.0.4), its inverse, and just
//! enough HTTP/1.1 to serve and scrape it — std only.
//!
//! * **Writer** — [`family`], [`sample`], [`histogram`], [`build_info`]:
//!   every exposition line either service emits is formatted here.
//! * **Parser** — [`parse_histograms`] rebuilds the exact
//!   [`LogHistogram`]s from a scrape; [`merge_histograms`] folds them
//!   per label value.
//! * **Server side** — [`read_line_guarded`], [`read_head`],
//!   [`respond`]; each service keeps its own routes and accept loop.
//! * **Client** — [`http_get`] / [`http_post`].

use crate::histogram::LogHistogram;
use std::collections::BTreeMap;
use std::fmt::{self, Display, Write as _};
use std::io::{self, BufRead, Read, Write};
use std::net::TcpStream;

/// Prometheus metric type of a family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Monotone total.
    Counter,
    /// Point-in-time value.
    Gauge,
    /// Cumulative-bucket distribution.
    Histogram,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// A float sample value in exposition spelling: `+Inf` / `-Inf` for
/// the infinities, Rust's shortest round-trip decimal (or `NaN`)
/// otherwise.
#[derive(Clone, Copy, Debug)]
pub struct Float(pub f64);

impl Display for Float {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            v if v.is_infinite() => f.write_str(if v > 0.0 { "+Inf" } else { "-Inf" }),
            v => write!(f, "{v}"),
        }
    }
}

/// Appends a family header: `# HELP name help` when `help` is given,
/// then `# TYPE name kind`.
pub fn family(out: &mut String, name: &str, kind: Kind, help: Option<&str>) {
    if let Some(help) = help {
        let _ = writeln!(out, "# HELP {name} {help}");
    }
    let _ = writeln!(out, "# TYPE {name} {}", kind.name());
}

/// Appends one sample line, `name{k="v",…} value` (`name value` with no
/// labels). Label values are written verbatim: ours never carry quotes,
/// backslashes or newlines.
pub fn sample(out: &mut String, name: &str, labels: &[(&str, &str)], value: impl Display) {
    series(out, name, "", labels, None, value);
}

/// Appends one histogram family member: cumulative `_bucket` lines with
/// inclusive integer bounds (bucket 0 gets `le="0"`, bucket `i ≥ 1`
/// gets `le="2^i − 1"`) up to the highest non-empty bucket, then
/// `le="+Inf"`, `_sum` and `_count`.
pub fn histogram(out: &mut String, name: &str, labels: &[(&str, &str)], h: &LogHistogram) {
    let last = h.last_bucket().unwrap_or(0);
    let mut cumulative = 0u64;
    for (i, &count) in h.counts().iter().enumerate().take(last + 1) {
        cumulative += count;
        let le = LogHistogram::bucket_upper(i);
        series(out, name, "_bucket", labels, Some(&le), cumulative);
    }
    series(out, name, "_bucket", labels, Some(&"+Inf"), h.total());
    series(out, name, "_sum", labels, None, h.sum());
    series(out, name, "_count", labels, None, h.total());
}

/// Appends the `dvbp_build_info` gauge: crate version, enabled feature
/// summary and compile profile.
pub fn build_info(out: &mut String, version: &str, features: &str) {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    family(out, "dvbp_build_info", Kind::Gauge, None);
    let labels = [
        ("version", version),
        ("features", features),
        ("profile", profile),
    ];
    sample(out, "dvbp_build_info", &labels, 1);
}

fn series(
    out: &mut String,
    name: &str,
    suffix: &str,
    labels: &[(&str, &str)],
    le: Option<&dyn Display>,
    value: impl Display,
) {
    out.push_str(name);
    out.push_str(suffix);
    let mut sep = '{';
    for (key, val) in labels {
        let _ = write!(out, "{sep}{key}=\"{val}\"");
        sep = ',';
    }
    if let Some(le) = le {
        let _ = write!(out, "{sep}le=\"{le}\"");
        sep = ',';
    }
    if sep == ',' {
        out.push('}');
    }
    let _ = writeln!(out, " {value}");
}

/// One histogram reconstructed from a Prometheus scrape: its label set
/// (minus `le`) and the rebuilt [`LogHistogram`].
#[derive(Clone, Debug)]
pub struct ScrapedHistogram {
    /// Label key → value, `le` excluded.
    pub labels: BTreeMap<String, String>,
    /// The reconstructed histogram. `max` is approximated by the upper
    /// bound of the highest non-empty bucket (the exposition does not
    /// carry the exact max).
    pub hist: LogHistogram,
}

impl ScrapedHistogram {
    /// The value of label `key`, or `""`.
    #[must_use]
    pub fn label(&self, key: &str) -> &str {
        self.labels.get(key).map_or("", String::as_str)
    }
}

/// Reconstructs every member of histogram family `family` from
/// Prometheus text, ordered by label set. Inverse of [`histogram`]: an
/// `le` bound `2^i − 1` is the largest value of bucket `i`, and
/// consecutive cumulative counts recover per-bucket counts exactly.
/// Unparseable lines are skipped.
#[must_use]
pub fn parse_histograms(text: &str, family: &str) -> Vec<ScrapedHistogram> {
    let bucket_prefix = format!("{family}_bucket{{");
    let sum_prefix = format!("{family}_sum{{");
    // Per label set (le excluded): (le bound, cumulative count) pairs
    // and the `_sum`.
    type Buckets = (Vec<(u64, u64)>, u64);
    let mut groups: BTreeMap<BTreeMap<String, String>, Buckets> = BTreeMap::new();
    for line in text.lines() {
        let (rest, is_bucket) = if let Some(rest) = line.strip_prefix(&bucket_prefix) {
            (rest, true)
        } else if let Some(rest) = line.strip_prefix(&sum_prefix) {
            (rest, false)
        } else {
            continue;
        };
        let Some((labels_str, value_str)) = rest.split_once('}') else {
            continue;
        };
        let Ok(value) = value_str.trim().parse::<u64>() else {
            continue;
        };
        // Our exposition never escapes quotes or embeds commas in
        // label values, so a plain split recovers the pairs.
        let mut labels: BTreeMap<String, String> = labels_str
            .split(',')
            .filter_map(|part| part.split_once('='))
            .map(|(k, v)| (k.trim().to_string(), v.trim().trim_matches('"').to_string()))
            .collect();
        let le = labels.remove("le");
        let entry = groups.entry(labels).or_default();
        if !is_bucket {
            entry.1 = value;
            continue;
        }
        // `+Inf` is redundant with `_count`; anything else must be an
        // integer bound.
        if let Some(bound) = le.and_then(|le| le.parse().ok()) {
            entry.0.push((bound, value));
        }
    }
    groups
        .into_iter()
        .map(|(labels, (mut buckets, sum))| {
            buckets.sort_unstable_by_key(|&(le, _)| le);
            let mut counts = [0u64; 65];
            let mut prev = 0u64;
            for (le, cumulative) in buckets {
                counts[LogHistogram::bucket_of(le)] = cumulative.saturating_sub(prev);
                prev = cumulative;
            }
            let max = counts
                .iter()
                .rposition(|&c| c > 0)
                .map_or(0, LogHistogram::bucket_upper);
            ScrapedHistogram {
                labels,
                hist: LogHistogram::from_counts(&counts, sum, max),
            }
        })
        .collect()
}

/// [`parse_histograms`] merged per value of label `by` (`""` merges
/// every member into one entry under `""`).
#[must_use]
pub fn merge_histograms(text: &str, family: &str, by: &str) -> BTreeMap<String, LogHistogram> {
    let mut merged: BTreeMap<String, LogHistogram> = BTreeMap::new();
    for sh in parse_histograms(text, family) {
        let key = sh.label(by).to_string();
        merged.entry(key).or_default().merge(&sh.hist);
    }
    merged
}

/// The most bytes either service reads for one request line (its
/// newline included), and for the header lines after an HTTP request
/// line together: a peer that streams bytes without a newline is
/// answered and disconnected here instead of growing a buffer for as
/// long as it keeps sending.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// How long an accept loop pauses after a failed `accept` before it
/// accepts again, so that a persistent error (out of file descriptors,
/// say) is counted without spinning a vCPU.
pub const ACCEPT_BACKOFF: std::time::Duration = std::time::Duration::from_millis(50);

/// Outcome of one guarded line read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LineRead {
    /// A line (a final unterminated one included) landed in the buffer.
    Line,
    /// Clean EOF (or a hard I/O error) — end the connection silently.
    Closed,
    /// The socket timed out with a *partial* line buffered: the peer
    /// started a request and stalled mid-line.
    Stalled,
    /// [`MAX_LINE_BYTES`] arrived without a newline; the buffer holds
    /// them and the rest of the line is left unread.
    TooLong,
}

/// Reads one line of at most [`MAX_LINE_BYTES`] under the socket's read
/// timeout. A timeout with nothing buffered is a benign idle connection
/// and the read resumes; a timeout after partial bytes is a stall
/// ([`LineRead::Stalled`]) — `BufRead::read_line` appends whatever was
/// read before the error, so `line` growing distinguishes the two.
pub fn read_line_guarded(reader: &mut impl BufRead, line: &mut String) -> LineRead {
    let start_len = line.len();
    loop {
        // Only an idle timeout loops, so the whole budget is left.
        match reader.take(MAX_LINE_BYTES as u64).read_line(line) {
            Ok(0) => return LineRead::Closed,
            Ok(n) if n == MAX_LINE_BYTES && !line.ends_with('\n') => return LineRead::TooLong,
            Ok(_) => return LineRead::Line,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if line.len() == start_len {
                    continue; // idle between requests: keep waiting
                }
                return LineRead::Stalled;
            }
            Err(_) => return LineRead::Closed,
        }
    }
}

/// Drains the headers after an HTTP request line (every route ignores
/// them; bodies are not supported) up to the blank line, EOF, a read
/// error or [`MAX_LINE_BYTES`] in all, and returns the line's method and
/// path (`""` / `"/"` when missing).
pub fn read_head<'a>(reader: &mut impl BufRead, request_line: &'a str) -> (&'a str, &'a str) {
    let mut headers = reader.take(MAX_LINE_BYTES as u64);
    let mut header = String::new();
    loop {
        header.clear();
        match headers.read_line(&mut header) {
            Ok(0) | Err(_) => break,
            Ok(_) if header == "\r\n" || header == "\n" => break,
            Ok(_) => {}
        }
    }
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    (method, parts.next().unwrap_or("/"))
}

/// Writes one complete HTTP/1.1 response (`status` like `"200 OK"`)
/// with `Content-Length` and `Connection: close`, in a single write,
/// and flushes.
///
/// # Errors
///
/// Propagates the write or flush failure.
pub fn respond(
    out: &mut impl Write,
    status: &str,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    let mut response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    response.push_str(body);
    out.write_all(response.as_bytes())?;
    out.flush()
}

/// Fetches `path` from `addr` (`HOST:PORT`) with one `GET` on its own
/// connection and returns the response body.
///
/// # Errors
///
/// Connection and I/O failures, a malformed response, and any non-200
/// status, each naming the request.
pub fn http_get(addr: &str, path: &str) -> io::Result<String> {
    request(addr, "GET", path)
}

/// [`http_get`] with `POST` (the operator routes take no body).
///
/// # Errors
///
/// As [`http_get`].
pub fn http_post(addr: &str, path: &str) -> io::Result<String> {
    request(addr, "POST", path)
}

fn request(addr: &str, method: &str, path: &str) -> io::Result<String> {
    let fail = |e: &dyn Display| io::Error::other(format!("{method} {addr}{path}: {e}"));
    let mut response = String::new();
    TcpStream::connect(addr)
        .and_then(|mut stream| {
            let head =
                format!("{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
            stream.write_all(head.as_bytes())?;
            stream.read_to_string(&mut response)
        })
        .map_err(|e| fail(&e))?;
    let Some((head, body)) = response.split_once("\r\n\r\n") else {
        return Err(fail(&"malformed HTTP response"));
    };
    let status_line = head.lines().next().unwrap_or("");
    if status_line.split_whitespace().nth(1) != Some("200") {
        return Err(fail(&status_line));
    }
    Ok(body.to_string())
}
