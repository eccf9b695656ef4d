//! The trace-replay workloads: a generated trace file replayed through
//! the path `dvbp run --stream` takes — `TraceFormat::open_path` →
//! `Tap(StreamingLowerBound)` → `PackRequest::run_source`, CostOnly.
//!
//! The parent process writes the trace; a child process (this binary's
//! `replay-child` mode) replays it pass after pass, so the child's peak
//! RSS is the replay's alone, not the generator's.

use crate::calib;
use crate::report::Outcome;
use crate::stats::{median, quantile, window_mean, windowed};
use dvbp_core::{
    EventSource, InstanceSource, LiveOp, PackRequest, PolicyKind, SourceError, StreamingLowerBound,
    Tap, TraceMode,
};
use dvbp_dimvec::DimVec;
use dvbp_obs::{Observer, Place};
use dvbp_traces::{write_azure_csv, HeavyTail, OpenOptions, TraceFormat, AZURE_TICKS_PER_DAY};
use dvbp_workloads::UniformParams;
use serde::{Deserialize, Serialize};
use std::cell::{Cell, RefCell};
use std::io::{BufWriter, Write};
use std::path::Path;
use std::process::Command;
use std::str::FromStr;
use std::time::Instant;

/// One replay workload's fixed shape.
pub struct ReplaySpec {
    pub format: TraceFormat,
    pub policy: &'static str,
    pub capacity: &'static [u64],
    generate: fn(u64, &Path) -> Generated,
}

/// `replay-azure`: heavy-tailed VM lifetimes in the Azure schema,
/// FirstFit — about 9 bins open, so parsing dominates.
pub const AZURE: ReplaySpec = ReplaySpec {
    format: TraceFormat::Azure,
    policy: "FirstFit",
    capacity: &[100, 100],
    generate: generate_azure,
};

/// `replay-dense`: the paper's Table-2 generator at d=4 with long
/// lifetimes, BestFit[Linf] — about 1,500 bins open, so bin selection
/// dominates.
pub const DENSE: ReplaySpec = ReplaySpec {
    format: TraceFormat::Native,
    policy: "BestFit[Linf]",
    capacity: &[100, 100, 100, 100],
    generate: generate_dense,
};

/// VMs in the `replay-azure` trace.
pub const AZURE_ITEMS: usize = 400_000;
/// Table-2 shape of `replay-dense`: items, μ and span T.
pub const DENSE_ITEMS: usize = 78_000;
pub const DENSE_MU: u64 = 4_000;
pub const DENSE_SPAN: u64 = 80_000;

/// What the generator wrote.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Generated {
    pub items: u64,
    /// The Lemma 1(i) lower bound of the stream as generated.
    pub lower_bound: u128,
}

fn lower_bound_of(mut source: impl EventSource) -> u128 {
    let mut lb = StreamingLowerBound::new(&source.capacity().clone());
    while let Some(op) = source
        .next_event()
        .expect("generated streams are well formed")
    {
        lb.observe(&op);
    }
    lb.value()
}

/// Writes the `replay-azure` trace for `seed`.
pub fn generate_azure(seed: u64, path: &Path) -> Generated {
    let gen = HeavyTail::new(AZURE_ITEMS, DimVec::from_slice(AZURE.capacity), seed);
    let mut out = BufWriter::new(std::fs::File::create(path).expect("create trace file"));
    let rows = write_azure_csv(gen.items(), &gen.capacity, AZURE_TICKS_PER_DAY, &mut out)
        .expect("write trace file");
    out.flush().expect("flush trace file");
    Generated {
        items: rows,
        lower_bound: lower_bound_of(gen.source()),
    }
}

/// Writes the `replay-dense` trace for `seed` as native CSV, rows in
/// arrival order (the order the streaming parser requires).
pub fn generate_dense(seed: u64, path: &Path) -> Generated {
    let params = UniformParams {
        dims: DENSE.capacity.len(),
        items: DENSE_ITEMS,
        mu: DENSE_MU,
        span: DENSE_SPAN,
        bin_size: DENSE.capacity[0],
    };
    let mut instance = params.generate(seed);
    instance.items.sort_by_key(|item| item.arrival);
    let mut out = BufWriter::new(std::fs::File::create(path).expect("create trace file"));
    writeln!(out, "arrival,departure,s0,s1,s2,s3").expect("write trace file");
    for item in &instance.items {
        write!(out, "{},{}", item.arrival, item.departure).expect("write trace file");
        for v in item.size.as_slice() {
            write!(out, ",{v}").expect("write trace file");
        }
        writeln!(out).expect("write trace file");
    }
    out.flush().expect("flush trace file");
    Generated {
        items: instance.items.len() as u64,
        lower_bound: lower_bound_of(
            InstanceSource::new(&instance).expect("generated instance is valid"),
        ),
    }
}

/// One replay pass as the child reports it.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Pass {
    pub seconds: f64,
    /// Open → first event out of the streaming path.
    pub setup_seconds: f64,
    pub events: u64,
    pub items: u64,
    pub rows: u64,
    /// Rows skipped, dropped, clamped or closed at the horizon.
    pub repaired: u64,
    pub cost: String,
    pub bins: u64,
    pub peak_bins: u64,
    pub lower_bound: String,
}

/// Layer timings of one traced pass.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Layers {
    pub wall_ns: u64,
    pub parse_ns: u64,
    pub pulls: u64,
    pub lb_ns: u64,
    pub arrive_ns: u64,
    pub depart_ns: u64,
    pub arrive_p50_ns: u64,
    pub arrive_p99_ns: u64,
    pub depart_p50_ns: u64,
    pub depart_p99_ns: u64,
    pub open_peak: u64,
    pub open_mean: f64,
    pub new_bin_frac: f64,
}

/// The child's report.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ChildReport {
    pub passes: Vec<Pass>,
    pub layers: Vec<Layers>,
    /// Sampled placement latencies, when untraced: the count over all
    /// passes, each pass's typical value (ns; the median over windows of
    /// [`LATENCY_WINDOW`] samples of their mean), and the p99 over all
    /// passes (ns).
    pub lat_samples: u64,
    pub lat_ns: Vec<f64>,
    pub lat_p99_ns: u64,
    /// Peak RSS after the first pass: one replay's footprint (later
    /// passes in the same process only add allocator churn).
    pub peak_rss_kb: u64,
    /// The calibration kernel's time (ns), taken before each pass and
    /// after the last: pass `i` ran between samples `i` and `i + 1`.
    pub kernel_ns: Vec<f64>,
}

/// Peak resident set of process `pid` (`"self"` for this one), kB.
#[must_use]
pub fn peak_rss_kb(pid: &str) -> u64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Samples the placement latency of one arrival in [`SAMPLE_EVERY`]
/// pulls — the time from the pull that yields it to the next pull: its
/// parse, lower-bound fold and engine step — and stamps the first
/// event's arrival. Departures are not sampled: they cost a fraction of
/// an arrival, and a median over both would sit between the two modes.
struct Sampler<S> {
    inner: S,
    pulls: u64,
    started: Option<Instant>,
    first_event: Option<Instant>,
    samples: Vec<u64>,
}

const SAMPLE_EVERY: u64 = 64;

/// Sampled placements per latency window. An arrival's sample holds the
/// parse of the row after it when the parser must read ahead, so the
/// samples are bimodal and a median would flip between the modes as
/// their mix shifts; window means follow the mix smoothly.
const LATENCY_WINDOW: usize = 64;

impl<S: EventSource> EventSource for Sampler<S> {
    fn capacity(&self) -> &DimVec {
        self.inner.capacity()
    }

    fn next_event(&mut self) -> Result<Option<LiveOp>, SourceError> {
        if self.pulls.is_multiple_of(SAMPLE_EVERY) || self.started.is_some() {
            let now = Instant::now();
            if let Some(t) = self.started.take() {
                self.samples.push(ns(now - t));
            } else {
                self.started = Some(now);
            }
        }
        self.pulls += 1;
        let ev = self.inner.next_event()?;
        if self.first_event.is_none() {
            self.first_event = Some(Instant::now());
        }
        if !matches!(ev, Some(LiveOp::Arrive { .. })) {
            self.started = None;
        }
        Ok(ev)
    }

    fn items_hint(&self) -> Option<usize> {
        self.inner.items_hint()
    }
}

fn ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Shared clock of a traced pass: each boundary closes one layer's
/// interval and opens the next's.
struct LayerClock {
    last: Cell<Instant>,
    /// Kind of the event whose engine step is running (`Some(true)` for
    /// an arrival), closed by the next pull.
    in_engine: Cell<Option<bool>>,
    parse_ns: Cell<u64>,
    pulls: Cell<u64>,
    lb_ns: Cell<u64>,
    arrive: RefCell<Vec<u64>>,
    depart: RefCell<Vec<u64>>,
}

impl LayerClock {
    fn lap(&self) -> u64 {
        let now = Instant::now();
        let d = ns(now - self.last.get());
        self.last.set(now);
        d
    }
}

/// The parser, timed: a pull first closes the previous event's engine
/// step, then charges the parse to `dvbp-traces`.
struct ParserTimer<'a, S> {
    inner: S,
    clock: &'a LayerClock,
}

impl<S: EventSource> EventSource for ParserTimer<'_, S> {
    fn capacity(&self) -> &DimVec {
        self.inner.capacity()
    }

    fn next_event(&mut self) -> Result<Option<LiveOp>, SourceError> {
        let c = self.clock;
        let engine = c.lap();
        match c.in_engine.take() {
            Some(true) => c.arrive.borrow_mut().push(engine),
            Some(false) => c.depart.borrow_mut().push(engine),
            None => {}
        }
        let ev = self.inner.next_event();
        c.parse_ns.set(c.parse_ns.get() + c.lap());
        c.pulls.set(c.pulls.get() + 1);
        ev
    }

    fn items_hint(&self) -> Option<usize> {
        self.inner.items_hint()
    }
}

/// Placement outcome counters, from the engine's observer hooks.
#[derive(Default)]
struct OpenBins {
    open: u64,
    peak: u64,
    sum_at_place: u128,
    places: u64,
    opened: u64,
}

impl Observer for OpenBins {
    fn on_bin_open(&mut self, _time: dvbp_sim::Time, _bin: usize) {
        self.open += 1;
        self.opened += 1;
        self.peak = self.peak.max(self.open);
    }

    fn on_place(&mut self, _ev: Place) {
        self.places += 1;
        self.sum_at_place += u128::from(self.open);
    }

    fn on_bin_close(&mut self, _time: dvbp_sim::Time, _bin: usize) {
        self.open -= 1;
    }
}

fn open(
    format: TraceFormat,
    path: &Path,
    capacity: &[u64],
) -> Box<dyn dvbp_traces::TraceSource + Send> {
    let options = OpenOptions {
        capacity: Some(DimVec::from_slice(capacity)),
        ..OpenOptions::default()
    };
    format.open_path(path, &options).expect("open trace file")
}

fn finish_pass(
    t0: Instant,
    first: Option<Instant>,
    source: &dyn dvbp_traces::TraceSource,
    packing: &dvbp_core::Packing,
    lb: u128,
) -> Pass {
    let seconds = t0.elapsed().as_secs_f64();
    let stats = source.stats();
    Pass {
        seconds,
        setup_seconds: first.map_or(seconds, |t| (t - t0).as_secs_f64()),
        events: 2 * stats.items,
        items: stats.items,
        rows: stats.rows,
        repaired: stats.clamped_durations
            + stats.clamped_times
            + stats.clamped_sizes
            + stats.dropped_duplicates
            + stats.skipped_rows
            + stats.closed_at_horizon,
        cost: packing.cost().to_string(),
        bins: packing.num_bins() as u64,
        peak_bins: packing.max_concurrent_bins() as u64,
        lower_bound: lb.to_string(),
    }
}

/// One untraced pass: the `dvbp run --stream` path plus the 1-in-64
/// latency sampler.
fn untraced_pass(spec: &ReplaySpec, path: &Path, samples: &mut Vec<u64>) -> Pass {
    let policy = PolicyKind::from_str(spec.policy).expect("workload policy parses");
    let t0 = Instant::now();
    let mut source = open(spec.format, path, spec.capacity);
    let mut lb = StreamingLowerBound::new(source.capacity());
    let tapped = Tap::new(&mut *source, |op| lb.observe(op));
    let mut sampled = Sampler {
        inner: tapped,
        pulls: 0,
        started: None,
        first_event: None,
        samples: std::mem::take(samples),
    };
    let packing = PackRequest::new(policy)
        .trace_mode(TraceMode::CostOnly)
        .run_source(&mut sampled)
        .expect("replay succeeds");
    let first = sampled.first_event;
    *samples = std::mem::take(&mut sampled.samples);
    finish_pass(t0, first, &*source, &packing, lb.value())
}

/// One traced pass: the same path with the parser, the lower-bound
/// fold and each engine step timed separately.
fn traced_pass(spec: &ReplaySpec, path: &Path) -> (Pass, Layers) {
    let policy = PolicyKind::from_str(spec.policy).expect("workload policy parses");
    let t0 = Instant::now();
    let clock = LayerClock {
        last: Cell::new(t0),
        in_engine: Cell::new(None),
        parse_ns: Cell::new(0),
        pulls: Cell::new(0),
        lb_ns: Cell::new(0),
        arrive: RefCell::new(Vec::new()),
        depart: RefCell::new(Vec::new()),
    };
    let mut source = open(spec.format, path, spec.capacity);
    clock.parse_ns.set(clock.lap());
    let mut lb = StreamingLowerBound::new(source.capacity());
    let mut first = None;
    let timer = ParserTimer {
        inner: &mut *source,
        clock: &clock,
    };
    let mut tapped = Tap::new(timer, |op| {
        lb.observe(op);
        clock.lb_ns.set(clock.lb_ns.get() + clock.lap());
        clock
            .in_engine
            .set(Some(matches!(op, LiveOp::Arrive { .. })));
        if first.is_none() {
            first = Some(clock.last.get());
        }
    });
    let mut bins = OpenBins::default();
    let packing = PackRequest::new(policy)
        .trace_mode(TraceMode::CostOnly)
        .observer(&mut bins)
        .run_source(&mut tapped)
        .expect("replay succeeds");
    let end = Instant::now();
    let pass = finish_pass(t0, first, &*source, &packing, lb.value());
    let mut arrive = clock.arrive.take();
    let mut depart = clock.depart.take();
    arrive.sort_unstable();
    depart.sort_unstable();
    #[allow(clippy::cast_precision_loss)]
    let layers = Layers {
        wall_ns: ns(end - t0),
        parse_ns: clock.parse_ns.get(),
        pulls: clock.pulls.get(),
        lb_ns: clock.lb_ns.get(),
        arrive_ns: arrive.iter().sum(),
        depart_ns: depart.iter().sum(),
        arrive_p50_ns: quantile(&arrive, 0.5),
        arrive_p99_ns: quantile(&arrive, 0.99),
        depart_p50_ns: quantile(&depart, 0.5),
        depart_p99_ns: quantile(&depart, 0.99),
        open_peak: bins.peak,
        open_mean: bins.sum_at_place as f64 / bins.places.max(1) as f64,
        new_bin_frac: bins.opened as f64 / bins.places.max(1) as f64,
    };
    (pass, layers)
}

/// `replay-child`: replays the trace for at least `seconds` (and at
/// least three passes) and prints one JSON [`ChildReport`] line.
pub fn child_main(spec: &ReplaySpec, path: &Path, seconds: f64, traced: bool) {
    let start = Instant::now();
    let mut passes = Vec::new();
    let mut layers = Vec::new();
    let mut all_samples = Vec::new();
    let mut lat_ns = Vec::new();
    let mut peak_rss = 0;
    let mut kernel_ns = vec![calib::kernel_ns()];
    while passes.len() < 3 || start.elapsed().as_secs_f64() < seconds {
        if traced {
            let (p, l) = traced_pass(spec, path);
            passes.push(p);
            layers.push(l);
        } else {
            let mut samples = Vec::new();
            passes.push(untraced_pass(spec, path, &mut samples));
            lat_ns.push(windowed(samples.chunks_exact(LATENCY_WINDOW), window_mean).0);
            all_samples.extend(samples);
        }
        kernel_ns.push(calib::kernel_ns());
        if passes.len() == 1 {
            peak_rss = peak_rss_kb("self");
        }
    }
    all_samples.sort_unstable();
    let report = ChildReport {
        passes,
        layers,
        lat_samples: all_samples.len() as u64,
        lat_ns,
        lat_p99_ns: quantile(&all_samples, 0.99),
        peak_rss_kb: peak_rss,
        kernel_ns,
    };
    println!(
        "{}",
        serde_json::to_string(&report).expect("report serializes")
    );
}

fn run_child(spec_name: &str, path: &Path, seconds: f64, traced: bool) -> ChildReport {
    let exe = std::env::current_exe().expect("own executable path");
    let out = Command::new(exe)
        .args(["replay-child", spec_name])
        .arg(path)
        .arg(seconds.to_string())
        .arg(if traced { "1" } else { "0" })
        .output()
        .expect("spawn replay child");
    assert!(
        out.status.success(),
        "replay child failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    serde_json::from_str(text.lines().last().unwrap_or("")).expect("replay child report parses")
}

/// Runs a replay workload and fills `out`.
pub fn run(
    name: &str,
    spec: &ReplaySpec,
    seed: u64,
    seconds: f64,
    traced: bool,
    work: &Path,
    out: &mut Outcome,
) {
    let path = work.join("trace.csv");
    let t = Instant::now();
    let gen = (spec.generate)(seed, &path);
    eprintln!(
        "perfbench: {name}: wrote {} items in {:.2}s",
        gen.items,
        t.elapsed().as_secs_f64()
    );

    // The traced invocation also replays untraced, for the overhead.
    let untraced = run_child(
        name,
        &path,
        if traced { seconds / 2.0 } else { seconds },
        false,
    );
    check_passes(&untraced.passes, &gen, "untraced", out);
    let first = &untraced.passes[0];
    out.attempted = first.rows;
    out.failed = first.repaired;

    // Each pass's times are scaled by the kernel timed around it.
    let slowdowns: Vec<f64> = untraced.kernel_ns.windows(2).map(calib::slowdown).collect();
    let per_pass = |f: &dyn Fn(usize, &Pass) -> f64| -> Vec<f64> {
        untraced
            .passes
            .iter()
            .enumerate()
            .map(|(i, p)| f(i, p))
            .collect()
    };
    let rate = |p: &Pass| p.events as f64 / p.seconds;
    let mut events_per_s = per_pass(&|i, p| rate(p) * slowdowns[i]);
    let mut setups = per_pass(&|i, p| p.setup_seconds / slowdowns[i]);
    let mut lat = per_pass(&|i, _| untraced.lat_ns[i] / 1e6 / slowdowns[i]);
    let mut raw_rates = per_pass(&|_, p| rate(p));
    let mut raw_setups = per_pass(&|_, p| p.setup_seconds);
    let mut raw_lat = per_pass(&|i, _| untraced.lat_ns[i] / 1e6);
    let mut walls = per_pass(&|_, p| p.seconds);
    let n = untraced.passes.len() as u64;
    #[allow(clippy::cast_precision_loss)]
    let cost_ratio = first.cost.parse::<f64>().unwrap_or(0.0) / gen.lower_bound as f64;
    if !traced {
        out.metric("events_per_s", median(&mut events_per_s), n);
        out.metric("lat_ms", median(&mut lat), untraced.lat_samples);
        out.metric("peak_rss_mb", untraced.peak_rss_kb as f64 / 1024.0, 1);
        out.metric("cost_ratio", cost_ratio, 1);
        out.metric("setup_s", median(&mut setups), n);
        out.extra(
            "slowdown",
            "ratio",
            calib::slowdown(&untraced.kernel_ns),
            untraced.kernel_ns.len() as u64,
        );
        out.extra("events_per_s.raw", "events/s", median(&mut raw_rates), n);
        out.extra(
            "lat_ms.raw",
            "ms",
            median(&mut raw_lat),
            untraced.lat_samples,
        );
        out.extra(
            "lat_p99_ms.raw",
            "ms",
            untraced.lat_p99_ns as f64 / 1e6,
            untraced.lat_samples,
        );
        out.extra("setup_s.raw", "s", median(&mut raw_setups), n);
        out.extra(
            "error_frac",
            "fraction",
            first.repaired as f64 / first.rows.max(1) as f64,
            first.rows,
        );
        out.extra("engine.open_bins.peak", "count", first.peak_bins as f64, 1);
        return;
    }

    let traced_report = run_child(name, &path, seconds / 2.0, true);
    check_passes(&traced_report.passes, &gen, "traced", out);
    let same = traced_report.passes.iter().all(|p| {
        (&p.cost, p.bins, &p.lower_bound) == (&first.cost, first.bins, &first.lower_bound)
    });
    out.check(
        "traced-equals-untraced",
        same,
        format!(
            "cost {} bins {} lb {} in every traced pass",
            first.cost, first.bins, first.lower_bound
        ),
    );
    let mut traced_walls: Vec<f64> = traced_report.passes.iter().map(|p| p.seconds).collect();
    let untraced_wall = median(&mut walls);
    let overhead = (median(&mut traced_walls) - untraced_wall) / untraced_wall;
    report_layers(&traced_report.layers, overhead, out);
}

fn check_passes(passes: &[Pass], gen: &Generated, label: &str, out: &mut Outcome) {
    let first = &passes[0];
    out.check(
        &format!("{label}-all-items-stream"),
        passes
            .iter()
            .all(|p| p.items == gen.items && p.rows == gen.items),
        format!("{} of {} items in every pass", first.items, gen.items),
    );
    out.check(
        &format!("{label}-no-repairs"),
        passes.iter().all(|p| p.repaired == 0),
        format!("{} rows skipped or repaired", first.repaired),
    );
    out.check(
        &format!("{label}-lower-bound-matches-generator"),
        passes
            .iter()
            .all(|p| p.lower_bound == gen.lower_bound.to_string()),
        format!(
            "streamed {} vs generated {}",
            first.lower_bound, gen.lower_bound
        ),
    );
    out.check(
        &format!("{label}-passes-agree"),
        passes
            .iter()
            .all(|p| (&p.cost, p.bins, p.peak_bins) == (&first.cost, first.bins, first.peak_bins)),
        format!("{} passes, cost {}", passes.len(), first.cost),
    );
}

/// Per-layer figures: the median over traced passes of each.
#[allow(clippy::cast_precision_loss)]
fn report_layers(layers: &[Layers], overhead: f64, out: &mut Outcome) {
    let n = layers.len() as u64;
    let med = |f: &dyn Fn(&Layers) -> f64| median(&mut layers.iter().map(f).collect::<Vec<_>>());
    let share = |ns: fn(&Layers) -> u64| med(&|l: &Layers| ns(l) as f64 / l.wall_ns as f64);
    out.metric(
        "traces.next_event_ns",
        med(&|l| l.parse_ns as f64 / l.pulls as f64),
        n,
    );
    out.metric("traces.share", share(|l| l.parse_ns), n);
    out.metric(
        "lb.observe_ns",
        med(&|l| l.lb_ns as f64 / (l.pulls - 1).max(1) as f64),
        n,
    );
    out.metric("lb.share", share(|l| l.lb_ns), n);
    out.metric("engine.arrive_ns.p50", med(&|l| l.arrive_p50_ns as f64), n);
    out.metric("engine.arrive_ns.p99", med(&|l| l.arrive_p99_ns as f64), n);
    out.metric("engine.arrive.share", share(|l| l.arrive_ns), n);
    out.metric("engine.depart_ns.p50", med(&|l| l.depart_p50_ns as f64), n);
    out.metric("engine.depart_ns.p99", med(&|l| l.depart_p99_ns as f64), n);
    out.metric("engine.depart.share", share(|l| l.depart_ns), n);
    out.metric("engine.open_bins.peak", med(&|l| l.open_peak as f64), n);
    out.metric("engine.open_bins.mean", med(&|l| l.open_mean), n);
    out.metric("engine.new_bin_frac", med(&|l| l.new_bin_frac), n);
    out.metric(
        "driver.share",
        share(|l| l.wall_ns - l.parse_ns - l.lb_ns - l.arrive_ns - l.depart_ns),
        n,
    );
    out.metric("trace.overhead_frac", overhead, n);
}

/// The `replay-child` entry: `replay-child NAME PATH SECONDS TRACED`.
pub fn child_entry(args: &[String]) -> Result<(), String> {
    let [name, path, seconds, traced] = args else {
        return Err("usage: replay-child NAME PATH SECONDS 0|1".into());
    };
    let spec = match name.as_str() {
        "replay-azure" => &AZURE,
        "replay-dense" => &DENSE,
        other => return Err(format!("unknown replay workload {other}")),
    };
    let seconds: f64 = seconds.parse().map_err(|e| format!("seconds: {e}"))?;
    child_main(spec, Path::new(path), seconds, traced == "1");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The same seed writes a byte-identical trace; another seed does
    /// not (smoke size: the real generators, a temporary directory).
    #[test]
    fn same_seed_same_trace_bytes() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.bench_build")
            .join(format!("perfbench-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let small = |seed: u64, file: &str| {
            let path = dir.join(file);
            let gen = HeavyTail::new(2_000, DimVec::from_slice(AZURE.capacity), seed);
            let mut out = Vec::new();
            write_azure_csv(gen.items(), &gen.capacity, AZURE_TICKS_PER_DAY, &mut out).unwrap();
            std::fs::write(&path, &out).unwrap();
            out
        };
        assert_eq!(small(7, "a.csv"), small(7, "b.csv"));
        assert_ne!(small(7, "a.csv"), small(8, "c.csv"));
        let dense = |seed: u64| {
            let path = dir.join(format!("dense-{seed}.csv"));
            let gen = generate_dense(seed, &path);
            (std::fs::read(&path).unwrap(), gen)
        };
        let (a, ga) = dense(3);
        let (b, gb) = dense(3);
        assert_eq!(a, b);
        assert_eq!(ga, gb);
        assert_ne!(a, dense(4).0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
