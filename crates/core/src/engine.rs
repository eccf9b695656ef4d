//! The online packing engine: Algorithm 1 of the paper, generalized over a
//! pluggable bin-selection policy.
//!
//! The engine owns the ground truth (bins, loads, active items) and
//! replays the instance's [`OnlineTimeline`] event by event:
//!
//! * on a **departure**, the item's load is subtracted from its bin; a bin
//!   whose last active item departs is *closed* (§2.1) and can never
//!   receive items again;
//! * on an **arrival**, the policy is shown a read-only [`EngineView`] and
//!   must either name an open bin that can hold the item or ask for a new
//!   bin. The engine asserts feasibility of the choice — a policy bug
//!   cannot silently overload a bin.
//!
//! Bin state lives in flat structure-of-arrays buffers (loads in one
//! `u64` arena with stride `d`, per-bin items as an intrusive linked list
//! over a flat `next` array). The view's feasibility queries
//! ([`EngineView::first_fit`], [`EngineView::last_fit`],
//! [`EngineView::for_each_feasible`] and the crate's whole-set queries,
//! which rank or draw from 8-bin feasibility masks) are the one place
//! that decides how feasible bins are found: a vectorized block scan
//! over a residual mirror, the scalar per-bin loop, or a fit index (an
//! 8-ary max-residual tree whose leaves are that mirror) built on the
//! run's first query at or above the measured crossover. A reusable
//! [`Engine`] keeps these buffers across runs, so the steady-state hot
//! loop performs **zero heap allocations per arrival**.
//!
//! In [`TraceMode::Full`] the engine records a full decision
//! [`trace`](Packing::trace) so that analyses (e.g. the Move To Front
//! leading-interval decomposition of §3) can reconstruct any
//! policy-internal state after the fact; [`TraceMode::CostOnly`] skips
//! the trace and the per-bin item lists for experiment sweeps that only
//! read [`Packing::cost`].

use crate::bin::{BinId, BinUsage};
use crate::block_scan::{lanes, linf_key_scale, linf_keys8, ResidualBlocks, LANES};
use crate::fit_index::FitIndex;
use crate::hybrid;
use crate::item::{Instance, Item};
use crate::policy::{Decision, LoadKey, Policy};
use crate::request::PackError;
use dvbp_dimvec::DimVec;
use dvbp_obs::{NoopObserver, Observer};
use dvbp_sim::timeline::{Event, OnlineTimeline};
use dvbp_sim::{sweep, Cost, Interval, Time};
use serde::{Deserialize, Serialize};
use std::cell::{Cell, Ref, RefCell};
use std::cmp::Ordering;
use std::ops::ControlFlow;

/// Sentinel for "no item" in the flat per-bin item chains.
const NO_ITEM: usize = usize::MAX;

/// One recorded engine decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// `item` was packed into `bin` at `time`; `opened_new` is `true` iff
    /// the bin was created for it.
    Packed {
        /// Tick of the arrival.
        time: Time,
        /// Item index.
        item: usize,
        /// Receiving bin.
        bin: BinId,
        /// Whether the bin was opened by this packing.
        opened_new: bool,
    },
    /// `bin` became empty at `time` and closed.
    Closed {
        /// Tick of the closing departure.
        time: Time,
        /// Closing bin.
        bin: BinId,
    },
    /// A live repacking policy moved still-active `item` from `from` to
    /// `to` at `time`. Batch runs never emit this — only a
    /// [`LiveEngine`](crate::LiveEngine) with a
    /// [`RepackPolicy`](crate::RepackPolicy) does.
    Migrated {
        /// Tick of the migration.
        time: Time,
        /// The migrated item.
        item: usize,
        /// Source bin (may close right after; a `Closed` event follows).
        from: BinId,
        /// Destination bin.
        to: BinId,
    },
}

/// How much per-run bookkeeping the engine records.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceMode {
    /// Record the full decision trace and per-bin item lists (required by
    /// [`Packing::verify`] and the trace-driven analyses).
    #[default]
    Full,
    /// Skip the trace and item lists; [`Packing::assignment`], the bins'
    /// usage periods, [`Packing::cost`] and
    /// [`Packing::max_concurrent_bins`] remain exact.
    CostOnly,
}

/// How [`EngineView`]'s feasibility queries find feasible bins.
///
/// Every path yields the same bins in the same order and reports the
/// same scan counts and probes, so the choice changes speed, never a
/// placement or an event stream. Runs use [`FitPath::Auto`]; the other
/// variants pin one path for differential tests and benchmarks through
/// [`Engine::with_fit_path`]. Provenance runs (`Observer::WANTS_PROBES`)
/// and `scalar-scan` builds take the scalar loop on every path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FitPath {
    /// The measured choice: the fit index once the open-bin count
    /// reaches the crossover for the run's dimensionality, the block
    /// scan below it, and the scalar loop where the block kernel cannot
    /// pay (a sparse open-id span).
    #[default]
    Auto,
    /// The fit index on every query.
    Index,
    /// A scan on every query: the block kernel, or the scalar loop
    /// wherever [`FitPath::Auto`] would fall back to it.
    Block,
    /// The scalar per-bin loop on every query.
    Scalar,
}

/// The structure one query runs on, resolved from [`FitPath`] and the
/// current engine state.
enum Route {
    Index,
    Block,
    Scalar,
}

/// One candidate-bin examination, buffered per arrival when the run's
/// observer opts into provenance (`Observer::WANTS_PROBES`).
#[derive(Clone, Copy, Debug)]
pub(crate) struct ProbeRec {
    bin: usize,
    fit: bool,
    /// First violated dimension; `None` on a successful probe or a
    /// policy-level rejection.
    dim: Option<usize>,
    need: u64,
    have: u64,
}

/// Read-only view of the engine state, handed to policies at each arrival.
pub struct EngineView<'a> {
    capacity: &'a DimVec,
    dims: usize,
    loads: &'a [u64],
    active: &'a [u32],
    opened: &'a [Time],
    open: &'a [BinId],
    /// Summary levels of the 8-ary max-residual tree over `blocks`.
    /// Current only once live: the first index query of a run builds
    /// it, and the engine maintains it from then on.
    index: &'a RefCell<FitIndex>,
    /// Dimension-major residual mirror, maintained unconditionally —
    /// the block-scan backend and the tree's leaf level.
    blocks: &'a ResidualBlocks,
    /// Per-dimension factors of the exact L∞ residual key
    /// ([`linf_keys8`]); empty when the capacity's lcm exceeds `u64`.
    key_scale: &'a [u64],
    fit_path: FitPath,
    /// Candidate bins the policy reported examining (see
    /// [`EngineView::note_scanned`]).
    scanned: Cell<u64>,
    /// Per-arrival probe sink; `None` unless the observer declared
    /// `WANTS_PROBES`, so the uninstrumented path pays one null check
    /// per probe and no writes.
    probes: Option<&'a RefCell<Vec<ProbeRec>>>,
    /// Winning bin's ranking score, reported by Best/Worst Fit via
    /// [`EngineView::note_score`].
    score: Cell<Option<LoadKey>>,
    now: Time,
}

impl EngineView<'_> {
    /// Bin capacity vector.
    #[must_use]
    pub fn capacity(&self) -> &DimVec {
        self.capacity
    }

    /// Dimensionality `d` of the instance.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dims
    }

    /// Currently open bins, sorted by opening time (= by id).
    #[must_use]
    pub fn open_bins(&self) -> &[BinId] {
        self.open
    }

    /// Current load vector of an open (or closed) bin, as a `d`-slice
    /// into the engine's flat load arena.
    #[must_use]
    pub fn load(&self, bin: BinId) -> &[u64] {
        &self.loads[bin.0 * self.dims..(bin.0 + 1) * self.dims]
    }

    /// Number of items currently active in `bin`.
    #[must_use]
    pub fn active_count(&self, bin: BinId) -> usize {
        self.active[bin.0] as usize
    }

    /// Tick at which `bin` was opened.
    #[must_use]
    pub fn opened_at(&self, bin: BinId) -> Time {
        self.opened[bin.0]
    }

    /// The current tick (the arriving item's arrival time).
    #[must_use]
    pub fn now(&self) -> Time {
        self.now
    }

    /// `true` iff `size` fits into `bin`'s residual capacity.
    ///
    /// Checked against the load arena — the engine uses the same
    /// predicate to assert every [`Decision::Existing`].
    #[must_use]
    pub fn fits(&self, bin: BinId, size: &DimVec) -> bool {
        let load = self.load(bin);
        (0..self.dims).all(|j| size[j] <= self.capacity[j] - load[j])
    }

    /// Reports that the policy examined `n` candidate bins while
    /// choosing; the engine forwards the total to the observer's
    /// [`on_place`](dvbp_obs::Observer::on_place) hook as the placement's
    /// scan length.
    ///
    /// One `Cell` store per call — policies call it once per decision
    /// with the final count, so the uninstrumented hot path is
    /// unaffected. Calls accumulate within one arrival and reset on the
    /// next.
    pub fn note_scanned(&self, n: u64) {
        self.scanned.set(self.scanned.get() + n);
    }

    /// Examines one candidate bin: the counted, provenance-aware form of
    /// [`EngineView::fits`]. Returns whether `size` fits in `bin`,
    /// counts the bin as scanned, and — on provenance runs — records the
    /// first violated dimension with its demand and residual slack.
    ///
    /// Policy scan loops call this instead of `fits` +
    /// [`note_scanned`](EngineView::note_scanned), so the scan count and
    /// the probe log agree by construction.
    #[must_use]
    pub fn probe(&self, bin: BinId, size: &DimVec) -> bool {
        let load = self.load(bin);
        let mut rejected: Option<(usize, u64, u64)> = None;
        for j in 0..self.dims {
            let have = self.capacity[j] - load[j];
            if size[j] > have {
                rejected = Some((j, size[j], have));
                break;
            }
        }
        self.scanned.set(self.scanned.get() + 1);
        if let Some(log) = self.probes {
            let (dim, need, have) = match rejected {
                Some((j, need, have)) => (Some(j), need, have),
                None => (None, 0, 0),
            };
            log.borrow_mut().push(ProbeRec {
                bin: bin.0,
                fit: rejected.is_none(),
                dim,
                need,
                have,
            });
        }
        rejected.is_none()
    }

    /// Counts a bin the policy rejected on its own state (e.g. a
    /// duration-class mismatch) before any capacity check: one failed
    /// probe with no violated dimension.
    pub fn probe_incompatible(&self, bin: BinId) {
        self.scanned.set(self.scanned.get() + 1);
        if let Some(log) = self.probes {
            log.borrow_mut().push(ProbeRec {
                bin: bin.0,
                fit: false,
                dim: None,
                need: 0,
                have: 0,
            });
        }
    }

    /// Reports the winning bin's ranking score (Best/Worst Fit); the
    /// engine forwards it to the observer's
    /// [`on_decision`](dvbp_obs::Observer::on_decision) hook.
    pub fn note_score(&self, key: LoadKey) {
        self.score.set(Some(key));
    }

    /// Picks the structure for one feasibility query — the engine's only
    /// scan-vs-index decision. The scalar per-bin loop answers every
    /// query, whatever the [`FitPath`], when:
    ///
    /// * the `scalar-scan` cargo feature is on (CI fallback leg: neither
    ///   the block scan nor the tree, which masks with the same kernel);
    /// * a probe sink is attached (`Observer::WANTS_PROBES`) — the
    ///   provenance stream records one `ProbeRec` per candidate with
    ///   its first violated dimension, which only the scalar loop
    ///   produces, keeping layer-7's `Σ scanned == #Probe` and the
    ///   byte-compared provenance corpus exact.
    ///
    /// Otherwise, under [`FitPath::Auto`] the fit index answers at or
    /// above the per-`d` crossover ([`hybrid::use_index`]), and a scan
    /// takes the scalar loop instead of the block kernel when
    /// [`FitPath::Scalar`] pins it or the open-bin id span is too sparse
    /// for block scanning to pay ([`hybrid::block_scan_pays`]).
    fn route(&self) -> Route {
        if cfg!(feature = "scalar-scan") || self.probes.is_some() {
            return Route::Scalar;
        }
        let index = match self.fit_path {
            FitPath::Auto => hybrid::use_index(self.open.len(), self.dims),
            FitPath::Index => true,
            FitPath::Block => false,
            FitPath::Scalar => return Route::Scalar,
        };
        if index {
            return Route::Index;
        }
        match self.open {
            [] => Route::Scalar,
            [first, .., last]
                if !hybrid::block_scan_pays(last.0 - first.0 + 1, self.open.len()) =>
            {
                Route::Scalar
            }
            _ => Route::Block,
        }
    }

    /// The fit index, current as of this arrival. The run's first call
    /// builds its summary levels from the residual mirror; the engine
    /// keeps them current for the rest of the run, so runs that never
    /// query it pay nothing.
    fn fit_index(&self) -> Ref<'_, FitIndex> {
        if !self.index.borrow().is_live() {
            self.index.borrow_mut().build(self.blocks);
        }
        self.index.borrow()
    }

    /// Open-id range `[lo, hi]` a block scan covers (non-empty `open`).
    fn span(&self) -> (usize, usize) {
        (self.open[0].0, self.open[self.open.len() - 1].0)
    }

    /// Confirms a bin the mirror or the tree selected against the load
    /// arena: a desynchronized mirror must never change a packing.
    fn confirm(&self, b: usize, size: &DimVec) -> BinId {
        let bin = BinId(b);
        assert!(self.fits(bin, size), "residual mirror out of sync at {bin}");
        bin
    }

    /// First (earliest-opened) open bin that fits `size` — First Fit's
    /// choice. Every route counts the open bins a scalar scan probes up
    /// to the hit (all of them on a miss).
    #[must_use]
    pub fn first_fit(&self, size: &DimVec) -> Option<BinId> {
        let need = size.as_slice();
        let hit = match self.route() {
            Route::Scalar => return self.open.iter().copied().find(|&b| self.probe(b, size)),
            Route::Block => {
                let (lo, hi) = self.span();
                self.blocks.first_feasible_in(need, lo, hi)
            }
            Route::Index => self.fit_index().first_fit(self.blocks, need),
        };
        let probed = hit.map_or(self.open.len(), |b| self.open.partition_point(|x| x.0 <= b));
        self.note_scanned(probed as u64);
        hit.map(|b| self.confirm(b, size))
    }

    /// Last (latest-opened) open bin that fits `size` — Last Fit's
    /// choice, counted like [`EngineView::first_fit`] with the scan
    /// running from the newest bin down.
    #[must_use]
    pub fn last_fit(&self, size: &DimVec) -> Option<BinId> {
        let need = size.as_slice();
        let hit = match self.route() {
            Route::Scalar => {
                return self
                    .open
                    .iter()
                    .rev()
                    .copied()
                    .find(|&b| self.probe(b, size))
            }
            Route::Block => {
                let (lo, hi) = self.span();
                self.blocks.last_feasible_in(need, lo, hi)
            }
            Route::Index => self.fit_index().last_fit(self.blocks, need),
        };
        let probed = hit.map_or(self.open.len(), |b| {
            self.open.len() - self.open.partition_point(|x| x.0 < b)
        });
        self.note_scanned(probed as u64);
        hit.map(|b| self.confirm(b, size))
    }

    /// Hands `f` every leaf block holding an open bin that fits `size`
    /// as `(base, mask)`, in ascending `base`, from the block scan over
    /// the open-id span or the fit index's walk (never the scalar
    /// route). Debug builds confirm every bin against the load arena.
    fn each_block(&self, index: bool, size: &DimVec, mut f: impl FnMut(usize, u8)) {
        let visit = |base, m| {
            debug_assert!(
                lanes(base, m).all(|b| self.fits(BinId(b), size)),
                "residual mirror out of sync in block {base}"
            );
            f(base, m);
            ControlFlow::Continue(())
        };
        let need = size.as_slice();
        if index {
            self.fit_index().walk::<false>(self.blocks, need, visit);
        } else {
            let (lo, hi) = self.span();
            self.blocks.walk_in::<false>(need, lo, hi, visit);
        }
    }

    /// Calls `f(base, mask)` for each block of [`LANES`] bin ids that
    /// holds an open bin fitting `size`: bit `l` of `mask` is set iff
    /// bin `base + l` is open and fits. Blocks come in ascending `base`
    /// on every route (the scalar route hands each feasible bin as its
    /// own one-bit block), and every route counts every open bin as
    /// scanned. Random Fit draws from these masks.
    pub(crate) fn for_each_feasible_block(&self, size: &DimVec, mut f: impl FnMut(usize, u8)) {
        let index = match self.route() {
            Route::Scalar => {
                for &b in self.open {
                    if self.probe(b, size) {
                        f(b.0 & !(LANES - 1), 1 << (b.0 % LANES));
                    }
                }
                return;
            }
            Route::Block => false,
            Route::Index => true,
        };
        self.each_block(index, size, f);
        self.note_scanned(self.open.len() as u64);
    }

    /// Calls `f` for every open bin that fits `size`, in ascending bin
    /// id (the order the scalar scan visits open bins — Best/Worst Fit
    /// tie-breaking depends on it). Every route counts every open bin
    /// as scanned.
    pub fn for_each_feasible(&self, size: &DimVec, mut f: impl FnMut(BinId)) {
        self.for_each_feasible_block(size, |base, m| lanes(base, m).for_each(|b| f(BinId(b))));
    }

    /// Best Fit[L∞]'s choice (`wins == Greater`: the fullest bin) or
    /// Worst Fit[L∞]'s (`Less`: the emptiest) among the open bins that
    /// fit `size`, the earliest on ties: the ranking of
    /// [`LoadMeasure::Linf`](crate::LoadMeasure::Linf) keys, computed
    /// eight bins at a time from the residual mirror
    /// ([`linf_keys8`]). `None` when the query takes the per-bin loop
    /// instead: on the scalar route, and when the key scale does not fit
    /// a `u64`. Counts every open bin as scanned.
    pub(crate) fn linf_pick(&self, size: &DimVec, wins: Ordering) -> Option<Option<BinId>> {
        if self.key_scale.is_empty() {
            return None;
        }
        let index = match self.route() {
            Route::Scalar => return None,
            Route::Block => false,
            Route::Index => true,
        };
        // A fuller bin has a smaller residual key.
        let beats = wins.reverse();
        let (rows, stride) = (self.blocks.rows(), self.blocks.stride());
        let mut best: Option<(u64, usize)> = None;
        self.each_block(index, size, |base, m| {
            let keys = linf_keys8(rows, stride, base, self.key_scale);
            for b in lanes(base, m) {
                let key = keys[b - base];
                if best.is_none_or(|(k, _)| key.cmp(&k) == beats) {
                    best = Some((key, b));
                }
            }
        });
        self.note_scanned(self.open.len() as u64);
        Some(best.map(|(_, b)| self.confirm(b, size)))
    }
}

/// Converts a policy [`LoadKey`] into the serialization-stable
/// [`ScoreBreakdown`](dvbp_obs::ScoreBreakdown) (floats stored as bits
/// so event streams stay `Eq`-comparable).
fn score_breakdown(key: LoadKey) -> dvbp_obs::ScoreBreakdown {
    match key {
        LoadKey::Frac { num, den } => dvbp_obs::ScoreBreakdown::Frac { num, den },
        LoadKey::Value(v) => dvbp_obs::ScoreBreakdown::Bits { bits: v.to_bits() },
    }
}

/// The completed packing produced by a run of the engine.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Packing {
    /// `assignment[i]` is the bin that received item `i`.
    pub assignment: Vec<BinId>,
    /// Per-bin usage records, indexed by `BinId`. Item lists are empty in
    /// [`TraceMode::CostOnly`].
    pub bins: Vec<BinUsage>,
    /// Full decision trace in simulation order; empty in
    /// [`TraceMode::CostOnly`].
    pub trace: Vec<TraceEvent>,
}

impl Packing {
    /// Total usage time of all bins — the MinUsageTime objective (eq. 1).
    #[must_use]
    pub fn cost(&self) -> Cost {
        self.bins.iter().map(|b| Cost::from(b.usage_len())).sum()
    }

    /// Number of bins ever opened.
    #[must_use]
    pub fn num_bins(&self) -> usize {
        self.bins.len()
    }

    /// Maximum number of simultaneously open bins over the run, computed
    /// by a sweep over the bins' usage intervals (so it also works in
    /// [`TraceMode::CostOnly`], where the trace is empty).
    #[must_use]
    pub fn max_concurrent_bins(&self) -> usize {
        let usages: Vec<Interval> = self.bins.iter().map(BinUsage::usage).collect();
        let mut max = 0usize;
        sweep::sweep(&usages, |slice| max = max.max(slice.active.len()));
        max
    }

    /// Exhaustively re-checks the packing against the instance:
    ///
    /// 1. every item is assigned to exactly the bin whose record lists it;
    /// 2. in every elementary time slice, every bin's total active load
    ///    respects the capacity in every dimension;
    /// 3. each bin's usage period is the single interval spanned by its
    ///    items (bins are never idle-then-reused).
    ///
    /// Requires a [`TraceMode::Full`] packing (the per-bin item lists).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn verify(&self, instance: &Instance) -> Result<(), String> {
        if self.assignment.len() != instance.len() {
            return Err(format!(
                "assignment covers {} items, instance has {}",
                self.assignment.len(),
                instance.len()
            ));
        }
        for (i, &bin) in self.assignment.iter().enumerate() {
            let rec = self
                .bins
                .get(bin.0)
                .ok_or_else(|| format!("item {i} assigned to nonexistent {bin}"))?;
            if !rec.items.contains(&i) {
                return Err(format!("item {i} missing from {bin}'s record"));
            }
        }
        for (b, rec) in self.bins.iter().enumerate() {
            let bin = BinId(b);
            if rec.items.is_empty() {
                return Err(format!("{bin} was opened but holds no items"));
            }
            for &i in &rec.items {
                if self.assignment.get(i) != Some(&bin) {
                    return Err(format!("{bin} lists item {i} not assigned to it"));
                }
            }
            let intervals: Vec<Interval> = rec
                .items
                .iter()
                .map(|&i| instance.items[i].interval())
                .collect();
            // Capacity in every elementary slice of this bin.
            let mut violation: Option<String> = None;
            sweep::sweep(&intervals, |slice| {
                if violation.is_some() {
                    return;
                }
                let mut load = DimVec::zeros(instance.dim());
                for &k in slice.active {
                    load.add_assign(&instance.items[rec.items[k]].size);
                }
                if !load.fits_within(&instance.capacity) {
                    violation = Some(format!(
                        "{bin} overloaded during {}: load {load:?} > cap {:?}",
                        slice.interval, instance.capacity
                    ));
                }
            });
            if let Some(v) = violation {
                return Err(v);
            }
            // Single contiguous usage period equal to the items' span.
            let set = dvbp_sim::IntervalSet::from_intervals(intervals);
            if set.segment_count() != 1 {
                return Err(format!("{bin} has a gap in its usage period"));
            }
            let seg = set.segments()[0];
            if seg != rec.usage() {
                return Err(format!(
                    "{bin} usage {} disagrees with items' span {seg}",
                    rec.usage()
                ));
            }
        }
        Ok(())
    }

    /// Checks the **Any Fit property** against the full set of open bins:
    /// a new bin was only ever opened when the arriving item fit in *no*
    /// open bin.
    ///
    /// This holds for Move To Front, First/Last Fit, Best/Worst Fit and
    /// Random Fit, whose candidate list `L` is all open bins. It does
    /// *not* hold for Next Fit, whose `L` contains only the current bin —
    /// call this only for policies with full candidate lists.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation.
    pub fn verify_any_fit(&self, instance: &Instance) -> Result<(), String> {
        let timeline = OnlineTimeline::build(&instance.intervals());
        let mut loads: Vec<DimVec> = vec![DimVec::zeros(instance.dim()); self.bins.len()];
        let mut active: Vec<usize> = vec![0; self.bins.len()];
        let mut open: Vec<BinId> = Vec::new();
        // A bin is newly opened exactly when its record's first item arrives.
        let first_item: Vec<usize> = self.bins.iter().map(|b| b.items[0]).collect();
        for ev in timeline.events() {
            match *ev {
                Event::Departure { item, .. } => {
                    let bin = self.assignment[item];
                    loads[bin.0].sub_assign(&instance.items[item].size);
                    active[bin.0] -= 1;
                    if active[bin.0] == 0 {
                        open.retain(|&b| b != bin);
                    }
                }
                Event::Arrival { time, item } => {
                    let size = &instance.items[item].size;
                    let bin = self.assignment[item];
                    if first_item[bin.0] == item {
                        for &b in &open {
                            if loads[b.0].fits_with(size, &instance.capacity) {
                                return Err(format!(
                                    "item {item} at t={time} opened {bin} although it fit in {b}"
                                ));
                            }
                        }
                        open.push(bin);
                    }
                    loads[bin.0].add_assign(size);
                    active[bin.0] += 1;
                }
            }
        }
        Ok(())
    }
}

/// A reusable packing engine.
///
/// All per-run scratch — the SoA bin state, the open-bin list, the
/// fit-index arena, the flat item chains — is kept between runs, so
/// repeated packing of similarly-sized instances (the experiment sweeps)
/// allocates nothing in the hot loop. A fresh engine per run behaves
/// identically; reuse is purely an optimization.
#[derive(Default)]
pub struct Engine {
    /// Flat bin loads, bin-major with stride `dims`.
    loads: Vec<u64>,
    /// Per-bin count of currently active items.
    active: Vec<u32>,
    /// Per-bin opening tick.
    opened: Vec<Time>,
    /// Per-bin closing tick (valid once the bin has closed).
    closed: Vec<Time>,
    /// Summed usage periods of the bins closed so far this run.
    closed_usage: Cost,
    /// Per-bin count of items ever packed (sizes the output item lists).
    item_count: Vec<u32>,
    /// Per-bin head/tail of the intrusive item chain (`NO_ITEM` = empty).
    head: Vec<usize>,
    tail: Vec<usize>,
    /// Per-item chain successor within its bin (`NO_ITEM` = last).
    next_item: Vec<usize>,
    /// Per-item receiving bin.
    assignment: Vec<BinId>,
    /// Currently open bins, sorted by id.
    open: Vec<BinId>,
    /// Summary levels of the 8-ary max-residual tree over `blocks`.
    /// Behind a `RefCell` because the view builds them on the run's
    /// first index query; until then every upkeep call is a no-op, and
    /// from then on they are maintained for the rest of the run.
    index: RefCell<FitIndex>,
    /// Dimension-major residual mirror for vectorized scans and the
    /// tree's leaf level. Unlike the latched `index`, it is maintained
    /// unconditionally: updates are a handful of plain stores per event,
    /// and keeping it always current means every scan path (and every
    /// replay — batch, live, stream, WAL recovery) sees the same state.
    blocks: ResidualBlocks,
    /// The run's L∞ key scale (see [`EngineView::linf_pick`]).
    key_scale: Vec<u64>,
    /// How the view's feasibility queries run; kept across runs.
    fit_path: FitPath,
    /// `dims`-sized scratch for a freshly opened bin's initial residual.
    scratch: Vec<u64>,
    /// Per-arrival probe buffer, reused across arrivals; only touched
    /// when the run's observer declares `WANTS_PROBES`.
    probe_log: RefCell<Vec<ProbeRec>>,
    dims: usize,
}

impl Engine {
    /// Creates an engine with empty scratch buffers.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Pins how this engine's feasibility queries find feasible bins
    /// (default [`FitPath::Auto`]). Placements and event streams are
    /// identical on every path; differential tests and benchmarks pin
    /// one to compare them.
    #[must_use]
    pub fn with_fit_path(mut self, path: FitPath) -> Self {
        self.fit_path = path;
        self
    }

    /// Clears all per-run state for a run over `n` items in bins of
    /// `capacity`. Batch runs pre-size the per-item arrays here so the event
    /// loop never grows them; incremental drivers (`LiveEngine`) pass
    /// `n = 0` and let [`step_arrive`](Engine::step_arrive) grow them on
    /// demand.
    pub(crate) fn reset_for(&mut self, capacity: &DimVec, n: usize) {
        self.dims = capacity.dim();
        linf_key_scale(capacity.as_slice(), &mut self.key_scale);
        self.loads.clear();
        self.active.clear();
        self.opened.clear();
        self.closed.clear();
        self.closed_usage = 0;
        self.item_count.clear();
        self.head.clear();
        self.tail.clear();
        self.open.clear();
        self.index.get_mut().reset();
        self.blocks.reset(self.dims);
        self.scratch.clear();
        self.scratch.resize(self.dims, 0);
        self.next_item.clear();
        self.next_item.resize(n, NO_ITEM);
        self.assignment.clear();
        self.assignment.resize(n, BinId(usize::MAX));
    }

    /// Reserves per-item array capacity for `n` expected items without
    /// changing their lengths — the live engine's
    /// [`items_hint`](crate::LiveRequest::items_hint) path, which must
    /// not pre-populate placeholder entries the way batch pre-sizing
    /// does (a live run may see fewer items than hinted).
    pub(crate) fn reserve_items(&mut self, n: usize) {
        self.next_item.reserve(n);
        self.assignment.reserve(n);
    }

    /// Runs `policy` over `instance` and returns the resulting packing.
    ///
    /// The policy is `reset()` first, so a policy value can be reused
    /// across runs. This is the uninstrumented wrapper over
    /// [`Engine::run`]; prefer the [`PackRequest`](crate::PackRequest)
    /// builder at the application level.
    ///
    /// # Panics
    ///
    /// Panics if the policy names a bin that is closed or cannot hold the
    /// item (a policy implementation bug), or if the instance fails
    /// validation ([`Engine::run`] surfaces the latter as a typed
    /// [`PackError`] instead).
    pub fn pack(
        &mut self,
        instance: &Instance,
        policy: &mut dyn Policy,
        mode: TraceMode,
    ) -> Packing {
        self.run(instance, policy, mode, &mut NoopObserver)
            .unwrap_or_else(|e| panic!("invalid instance: {e}"))
    }

    /// Runs `policy` over `instance`, firing `observer`'s hooks at every
    /// engine event, and returns the resulting packing.
    ///
    /// The observer is a **static-dispatch** generic: with the default
    /// [`NoopObserver`] every hook is an empty inline body and the loop
    /// monomorphizes to exactly the uninstrumented code — zero branches,
    /// zero allocations per arrival (the counting-allocator test and the
    /// CI bench-smoke gate hold it to that).
    ///
    /// The policy is `reset()` first, so a policy value can be reused
    /// across runs.
    ///
    /// # Errors
    ///
    /// Returns a [`PackError`] when the instance is malformed: an item
    /// larger than the bin capacity, dimension mismatch, zero size, or a
    /// non-positive active interval.
    ///
    /// # Panics
    ///
    /// Panics if the policy names a bin that is closed or cannot hold the
    /// item — a policy implementation bug, not an input error.
    pub fn run<O: Observer>(
        &mut self,
        instance: &Instance,
        policy: &mut dyn Policy,
        mode: TraceMode,
        observer: &mut O,
    ) -> Result<Packing, PackError> {
        instance.check_run()?;
        policy.reset();
        self.reset_for(&instance.capacity, instance.len());

        let full = mode == TraceMode::Full;
        let timeline = OnlineTimeline::build(&instance.intervals());
        let mut trace: Vec<TraceEvent> = if full {
            Vec::with_capacity(instance.len() * 2)
        } else {
            Vec::new()
        };
        let capacity = &instance.capacity;
        observer.on_run_start(dvbp_obs::RunStart {
            capacity: capacity.as_slice(),
            items: instance.len(),
        });
        let mut last_time: Time = 0;

        for ev in timeline.events() {
            match *ev {
                Event::Departure { time, item } => {
                    last_time = time;
                    self.step_depart(
                        time,
                        item,
                        &instance.items[item],
                        policy,
                        observer,
                        full.then_some(&mut trace),
                    )?;
                }
                Event::Arrival { time, item } => {
                    last_time = time;
                    self.step_arrive(
                        capacity,
                        time,
                        item,
                        &instance.items[item],
                        policy,
                        observer,
                        full.then_some(&mut trace),
                    );
                }
            }
        }
        observer.on_run_end(dvbp_obs::RunEnd {
            time: last_time,
            items: instance.len(),
            bins: self.active.len(),
        });

        debug_assert!(
            self.assignment.iter().all(|b| b.0 != usize::MAX),
            "item never arrived"
        );
        debug_assert!(self.open.is_empty(), "bin never closed");

        Ok(self.snapshot_packing(full, trace))
    }

    /// Applies one departure: subtracts the item's load, fires the
    /// policy/observer hooks, and closes the bin if it emptied. The
    /// single-event body of the batch loop's `Departure` arm, shared
    /// with the incremental [`LiveEngine`](crate::LiveEngine) driver.
    ///
    /// # Errors
    ///
    /// [`PackError::UnknownDeparture`] when `item` was never placed.
    pub(crate) fn step_depart<O: Observer>(
        &mut self,
        time: Time,
        item: usize,
        item_ref: &Item,
        policy: &mut dyn Policy,
        observer: &mut O,
        trace: Option<&mut Vec<TraceEvent>>,
    ) -> Result<DepartStep, PackError> {
        let bin = match self.assignment.get(item) {
            Some(&bin) if bin.0 != usize::MAX => bin,
            _ => return Err(PackError::UnknownDeparture { item }),
        };
        let d = self.dims;
        let size = &item_ref.size;
        let base = bin.0 * d;
        for j in 0..d {
            self.loads[base + j] -= size[j];
        }
        self.active[bin.0] -= 1;
        let closing = self.active[bin.0] == 0;
        if !closing {
            // A closing bin skips this: `close` below pins the
            // residual to zero anyway, so one update suffices.
            self.blocks.unpack(bin.0, size.as_slice());
            self.index.get_mut().raise(&self.blocks, bin.0);
        }
        policy.on_departure(item_ref, item, bin);
        observer.on_depart(dvbp_obs::Depart {
            time,
            item,
            bin: bin.0,
        });
        if closing {
            self.closed[bin.0] = time;
            self.closed_usage += Cost::from(time - self.opened[bin.0]);
            let idx = self
                .open
                .binary_search(&bin)
                .expect("closing a non-open bin");
            self.open.remove(idx);
            self.blocks.close(bin.0);
            self.index.get_mut().lower(&self.blocks, bin.0);
            policy.on_close(bin);
            observer.on_bin_close(time, bin.0);
            if let Some(trace) = trace {
                trace.push(TraceEvent::Closed { time, bin });
            }
        }
        Ok(DepartStep {
            bin,
            closed: closing,
        })
    }

    /// Moves still-active `item` from its current bin into open bin
    /// `to`: the execution half of a repacking move. The caller (the
    /// live engine's repack planner) chooses item and destination; the
    /// engine asserts feasibility and keeps every derived structure —
    /// loads, fit index, residual mirror, item chains, policy state —
    /// coherent, closing the source bin if the move emptied it.
    ///
    /// Policy hooks fire as a departure-from-`from` followed by a
    /// pack-into-`to` (`newly_opened = false`), so policies with derived
    /// state (Move To Front's MRU order, Next Fit's current bin) track
    /// migrations deterministically and recovery re-drives to identical
    /// state.
    ///
    /// # Panics
    ///
    /// Panics if `item` is not placed, `to` equals its current bin, or
    /// `to` is closed or cannot hold the item — planner bugs, not input
    /// errors.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn step_migrate<O: Observer>(
        &mut self,
        capacity: &DimVec,
        time: Time,
        item: usize,
        item_ref: &Item,
        to: BinId,
        policy: &mut dyn Policy,
        observer: &mut O,
        mut trace: Option<&mut Vec<TraceEvent>>,
    ) -> MigrateStep {
        let from = match self.assignment.get(item) {
            Some(&bin) if bin.0 != usize::MAX => bin,
            _ => panic!("migrating item {item} that was never placed"),
        };
        assert_ne!(from, to, "migrating item {item} onto its own bin");
        assert!(
            self.open.binary_search(&to).is_ok(),
            "migration target {to} is closed or unknown"
        );
        let d = self.dims;
        let size = &item_ref.size;
        let to_base = to.0 * d;
        assert!(
            (0..d).all(|j| size[j] <= capacity[j] - self.loads[to_base + j]),
            "migration target {to} cannot hold item {item}"
        );

        // Departure half: lift the item out of its source bin.
        let from_base = from.0 * d;
        for j in 0..d {
            self.loads[from_base + j] -= size[j];
        }
        self.active[from.0] -= 1;
        let closing = self.active[from.0] == 0;
        if !closing {
            self.blocks.unpack(from.0, size.as_slice());
            self.index.get_mut().raise(&self.blocks, from.0);
        }
        policy.on_departure(item_ref, item, from);

        // Pack half: land it in the destination.
        for j in 0..d {
            self.loads[to_base + j] += size[j];
        }
        self.blocks.pack(to.0, size.as_slice());
        self.index.get_mut().lower(&self.blocks, to.0);
        self.active[to.0] += 1;
        self.item_count[from.0] -= 1;
        self.item_count[to.0] += 1;
        if trace.is_some() {
            self.unlink_from_chain(from.0, item);
            if self.head[to.0] == NO_ITEM {
                self.head[to.0] = item;
            } else {
                self.next_item[self.tail[to.0]] = item;
            }
            self.tail[to.0] = item;
        }
        self.assignment[item] = to;
        policy.after_pack(item_ref, item, to, false);
        observer.on_migrate(dvbp_obs::Migrate {
            time,
            item,
            from: from.0,
            to: to.0,
        });
        if let Some(trace) = trace.as_deref_mut() {
            trace.push(TraceEvent::Migrated {
                time,
                item,
                from,
                to,
            });
        }
        if closing {
            self.closed[from.0] = time;
            self.closed_usage += Cost::from(time - self.opened[from.0]);
            let idx = self
                .open
                .binary_search(&from)
                .expect("closing a non-open bin");
            self.open.remove(idx);
            self.blocks.close(from.0);
            self.index.get_mut().lower(&self.blocks, from.0);
            policy.on_close(from);
            observer.on_bin_close(time, from.0);
            if let Some(trace) = trace {
                trace.push(TraceEvent::Closed { time, bin: from });
            }
        }
        MigrateStep {
            from,
            closed_from: closing,
        }
    }

    /// Removes `item` from bin `bin`'s intrusive item chain (Full-mode
    /// bookkeeping for migrations; O(chain length)).
    fn unlink_from_chain(&mut self, bin: usize, item: usize) {
        let mut prev = NO_ITEM;
        let mut cur = self.head[bin];
        while cur != item {
            debug_assert!(cur != NO_ITEM, "item {item} not in bin {bin}'s chain");
            prev = cur;
            cur = self.next_item[cur];
        }
        let next = self.next_item[item];
        if prev == NO_ITEM {
            self.head[bin] = next;
        } else {
            self.next_item[prev] = next;
        }
        if self.tail[bin] == item {
            self.tail[bin] = prev;
        }
        self.next_item[item] = NO_ITEM;
    }

    /// Applies one arrival: runs the policy over an [`EngineView`],
    /// asserts its decision, commits the placement, and fires the
    /// observer hooks. The single-event body of the batch loop's
    /// `Arrival` arm, shared with the incremental
    /// [`LiveEngine`](crate::LiveEngine) driver. The per-item arrays
    /// grow on demand for items beyond the `reset_for` pre-sizing —
    /// batch runs pre-size exactly, so their hot loop never takes that
    /// branch. Recording into `trace` also switches the per-bin item
    /// chains on, matching [`TraceMode::Full`].
    ///
    /// Returns the receiving bin and whether it was opened for this
    /// item.
    ///
    /// # Panics
    ///
    /// Panics if the policy names a bin that is closed or cannot hold
    /// the item — a policy implementation bug, not an input error.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn step_arrive<O: Observer>(
        &mut self,
        capacity: &DimVec,
        time: Time,
        item: usize,
        item_ref: &Item,
        policy: &mut dyn Policy,
        observer: &mut O,
        trace: Option<&mut Vec<TraceEvent>>,
    ) -> (BinId, bool) {
        let d = self.dims;
        if item >= self.assignment.len() {
            self.assignment.resize(item + 1, BinId(usize::MAX));
            self.next_item.resize(item + 1, NO_ITEM);
        }
        observer.on_arrival(dvbp_obs::Arrival {
            time,
            item,
            size: item_ref.size.as_slice(),
        });
        if O::WANTS_PROBES {
            self.probe_log.borrow_mut().clear();
        }
        let (decision, scanned, score) = {
            let view = EngineView {
                capacity,
                dims: d,
                loads: &self.loads,
                active: &self.active,
                opened: &self.opened,
                open: &self.open,
                index: &self.index,
                blocks: &self.blocks,
                key_scale: &self.key_scale,
                fit_path: self.fit_path,
                scanned: Cell::new(0),
                probes: if O::WANTS_PROBES {
                    Some(&self.probe_log)
                } else {
                    None
                },
                score: Cell::new(None),
                now: time,
            };
            let decision = policy.choose(&view, item_ref, item);
            (decision, view.scanned.get(), view.score.get())
        };
        if O::WANTS_PROBES {
            for rec in self.probe_log.borrow().iter() {
                observer.on_probe(dvbp_obs::Probe {
                    time,
                    item,
                    bin: rec.bin,
                    fit: rec.fit,
                    dim: rec.dim,
                    need: rec.need,
                    have: rec.have,
                });
            }
        }
        let (bin, opened_new) = match decision {
            Decision::Existing(bin) => {
                assert!(
                    self.open.binary_search(&bin).is_ok(),
                    "policy chose closed or unknown {bin}"
                );
                let base = bin.0 * d;
                assert!(
                    (0..d).all(|j| item_ref.size[j] <= capacity[j] - self.loads[base + j]),
                    "policy chose {bin} which cannot hold item {item}"
                );
                (bin, false)
            }
            Decision::OpenNew => {
                let bin = BinId(self.active.len());
                self.loads.resize(self.loads.len() + d, 0);
                self.active.push(0);
                self.opened.push(time);
                self.closed.push(time);
                self.item_count.push(0);
                self.head.push(NO_ITEM);
                self.tail.push(NO_ITEM);
                self.open.push(bin);
                // Register the bin already net of the arriving item
                // (one update, not an open + a pack).
                for j in 0..d {
                    debug_assert!(
                        item_ref.size[j] <= capacity[j],
                        "validated item exceeds capacity"
                    );
                    self.scratch[j] = capacity[j] - item_ref.size[j];
                }
                self.blocks.open(bin.0, &self.scratch);
                self.index.get_mut().raise(&self.blocks, bin.0);
                observer.on_bin_open(time, bin.0);
                (bin, true)
            }
        };
        let base = bin.0 * d;
        for j in 0..d {
            self.loads[base + j] += item_ref.size[j];
        }
        if !opened_new {
            self.blocks.pack(bin.0, item_ref.size.as_slice());
            self.index.get_mut().lower(&self.blocks, bin.0);
        }
        self.active[bin.0] += 1;
        self.item_count[bin.0] += 1;
        if let Some(trace) = trace {
            if self.head[bin.0] == NO_ITEM {
                self.head[bin.0] = item;
            } else {
                self.next_item[self.tail[bin.0]] = item;
            }
            self.tail[bin.0] = item;
            trace.push(TraceEvent::Packed {
                time,
                item,
                bin,
                opened_new,
            });
        }
        self.assignment[item] = bin;
        policy.after_pack(item_ref, item, bin, opened_new);
        observer.on_place(dvbp_obs::Place {
            time,
            item,
            bin: bin.0,
            opened_new,
            scanned,
        });
        if O::WANTS_PROBES {
            observer.on_decision(dvbp_obs::Decision {
                time,
                item,
                bin: bin.0,
                opened_new,
                probes: scanned,
                score: score.map(score_breakdown),
            });
        }
        (bin, opened_new)
    }

    /// Number of bins ever opened.
    pub(crate) fn bins_opened(&self) -> usize {
        self.active.len()
    }

    /// Currently open bins, sorted by id.
    pub(crate) fn open_bins(&self) -> &[BinId] {
        &self.open
    }

    /// Accumulated usage time at tick `at`: the closed bins' running
    /// total plus, per open bin, the span from opening to `max(at,
    /// opened)`.
    pub(crate) fn usage_time_at(&self, at: Time) -> Cost {
        let open: Cost = self
            .open
            .iter()
            .map(|b| {
                let opened = self.opened[b.0];
                Cost::from(at.max(opened) - opened)
            })
            .sum();
        self.closed_usage + open
    }

    /// Currently active items in `bin`.
    pub(crate) fn bin_active(&self, bin: usize) -> u32 {
        self.active[bin]
    }

    /// Current load vector of `bin` as a `d`-slice into the load arena.
    pub(crate) fn bin_load(&self, bin: usize) -> &[u64] {
        &self.loads[bin * self.dims..(bin + 1) * self.dims]
    }

    /// The bin holding `item`, if it was ever placed.
    pub(crate) fn assignment_of(&self, item: usize) -> Option<BinId> {
        self.assignment
            .get(item)
            .copied()
            .filter(|b| b.0 != usize::MAX)
    }

    /// Materializes the engine's current bin state as a [`Packing`]
    /// (the tail of a batch run; `LiveEngine::into_packing` for live
    /// runs). `full` must match whether the item chains were recorded.
    pub(crate) fn snapshot_packing(&self, full: bool, trace: Vec<TraceEvent>) -> Packing {
        let mut bins = Vec::with_capacity(self.active.len());
        for b in 0..self.active.len() {
            let items = if full {
                let mut items = Vec::with_capacity(self.item_count[b] as usize);
                let mut i = self.head[b];
                while i != NO_ITEM {
                    items.push(i);
                    i = self.next_item[i];
                }
                items
            } else {
                Vec::new()
            };
            bins.push(BinUsage {
                opened: self.opened[b],
                closed: self.closed[b],
                items,
            });
        }
        Packing {
            assignment: self.assignment.clone(),
            bins,
            trace,
        }
    }
}

/// Outcome of one [`Engine::step_depart`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct DepartStep {
    /// The bin the item departed from.
    pub(crate) bin: BinId,
    /// Whether that departure emptied (and permanently closed) the bin.
    pub(crate) closed: bool,
}

/// Outcome of one [`Engine::step_migrate`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct MigrateStep {
    /// The bin the item was moved out of.
    pub(crate) from: BinId,
    /// Whether the move emptied (and permanently closed) the source.
    pub(crate) closed_from: bool,
}

/// Runs `policy` over `instance` with a fresh [`Engine`] in
/// [`TraceMode::Full`] and returns the resulting packing.
///
/// The policy is `reset()` first, so a policy value can be reused across
/// runs.
///
/// # Panics
///
/// Panics if the policy names a bin that is closed or cannot hold the item
/// (a policy implementation bug), or if the instance fails validation.
///
/// Test convenience; public callers go through
/// [`PackRequest`](crate::PackRequest).
#[cfg(test)]
pub fn pack(instance: &Instance, policy: &mut dyn Policy) -> Packing {
    Engine::new().pack(instance, policy, TraceMode::Full)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::first_fit::FirstFit;
    use crate::policy::move_to_front::MoveToFront;
    use crate::{LoadMeasure, PolicyKind};
    use dvbp_dimvec::DimVec;

    fn item(size: &[u64], a: Time, e: Time) -> Item {
        Item::new(DimVec::from_slice(size), a, e)
    }

    fn inst(cap: &[u64], items: Vec<Item>) -> Instance {
        Instance::new(DimVec::from_slice(cap), items).unwrap()
    }

    #[test]
    fn single_item_single_bin() {
        let instance = inst(&[10], vec![item(&[5], 0, 4)]);
        let p = pack(&instance, &mut FirstFit::new());
        assert_eq!(p.num_bins(), 1);
        assert_eq!(p.cost(), 4);
        assert_eq!(p.assignment, vec![BinId(0)]);
        p.verify(&instance).unwrap();
        p.verify_any_fit(&instance).unwrap();
    }

    #[test]
    fn departure_frees_capacity_for_same_tick_arrival() {
        // Item 0 fills the bin over [0,5); item 1 (same size) arrives at 5.
        // Half-open semantics: item 1 must reuse... the bin CLOSES at 5, so
        // a new bin opens — but only one bin is ever open at a time.
        let instance = inst(&[10], vec![item(&[10], 0, 5), item(&[10], 5, 9)]);
        let p = pack(&instance, &mut FirstFit::new());
        assert_eq!(p.num_bins(), 2, "closed bins are never reused");
        assert_eq!(p.max_concurrent_bins(), 1);
        assert_eq!(p.cost(), 5 + 4);
        p.verify(&instance).unwrap();
    }

    #[test]
    fn overlap_forces_second_bin() {
        let instance = inst(&[10], vec![item(&[6], 0, 4), item(&[6], 1, 3)]);
        let p = pack(&instance, &mut FirstFit::new());
        assert_eq!(p.num_bins(), 2);
        assert_eq!(p.max_concurrent_bins(), 2);
        assert_eq!(p.cost(), 4 + 2);
        p.verify(&instance).unwrap();
        p.verify_any_fit(&instance).unwrap();
    }

    #[test]
    fn trace_records_openings_and_closures() {
        let instance = inst(&[10], vec![item(&[6], 0, 2), item(&[6], 3, 5)]);
        let p = pack(&instance, &mut FirstFit::new());
        assert_eq!(
            p.trace,
            vec![
                TraceEvent::Packed {
                    time: 0,
                    item: 0,
                    bin: BinId(0),
                    opened_new: true
                },
                TraceEvent::Closed {
                    time: 2,
                    bin: BinId(0)
                },
                TraceEvent::Packed {
                    time: 3,
                    item: 1,
                    bin: BinId(1),
                    opened_new: true
                },
                TraceEvent::Closed {
                    time: 5,
                    bin: BinId(1)
                },
            ]
        );
    }

    #[test]
    fn multidimensional_blocking() {
        // Fits in dim 0 but not dim 1 — must open a second bin.
        let instance = inst(&[10, 10], vec![item(&[1, 9], 0, 4), item(&[1, 2], 0, 4)]);
        let p = pack(&instance, &mut FirstFit::new());
        assert_eq!(p.num_bins(), 2);
        p.verify(&instance).unwrap();
        p.verify_any_fit(&instance).unwrap();
    }

    #[test]
    fn verify_catches_tampered_assignment() {
        let instance = inst(&[10], vec![item(&[5], 0, 4), item(&[5], 0, 4)]);
        let mut p = pack(&instance, &mut FirstFit::new());
        p.assignment[1] = BinId(5);
        assert!(p.verify(&instance).is_err());
    }

    #[test]
    fn cost_is_sum_of_usage_periods() {
        let instance = inst(
            &[10],
            vec![item(&[7], 0, 10), item(&[7], 2, 5), item(&[3], 4, 6)],
        );
        let p = pack(&instance, &mut FirstFit::new());
        let total: Cost = p.bins.iter().map(|b| Cost::from(b.usage_len())).sum();
        assert_eq!(p.cost(), total);
        p.verify(&instance).unwrap();
    }

    #[test]
    fn cost_only_matches_full_except_bookkeeping() {
        let instance = inst(
            &[10, 10],
            vec![
                item(&[7, 2], 0, 10),
                item(&[2, 7], 2, 5),
                item(&[3, 3], 4, 6),
                item(&[9, 9], 11, 14),
            ],
        );
        let full = pack(&instance, &mut FirstFit::new());
        let lean = Engine::new().pack(&instance, &mut FirstFit::new(), TraceMode::CostOnly);
        assert_eq!(lean.assignment, full.assignment);
        assert_eq!(lean.cost(), full.cost());
        assert_eq!(lean.max_concurrent_bins(), full.max_concurrent_bins());
        assert!(lean.trace.is_empty());
        assert!(lean.bins.iter().all(|b| b.items.is_empty()));
        for (a, b) in lean.bins.iter().zip(&full.bins) {
            assert_eq!(a.usage(), b.usage());
        }
    }

    #[test]
    fn engine_reuse_is_identical_to_fresh() {
        let instance = inst(
            &[10],
            vec![item(&[7], 0, 10), item(&[7], 2, 5), item(&[3], 4, 6)],
        );
        let mut engine = Engine::new();
        let mut policy = FirstFit::new();
        let a = engine.pack(&instance, &mut policy, TraceMode::Full);
        let b = engine.pack(&instance, &mut policy, TraceMode::Full);
        let fresh = pack(&instance, &mut FirstFit::new());
        assert_eq!(a, fresh);
        assert_eq!(b, fresh);
    }

    #[test]
    fn every_fit_path_is_placement_identical() {
        // Small enough that `Auto` always scans; the pinned paths force
        // the tree and the scalar loop on the same decisions.
        let instance = inst(
            &[10, 10],
            vec![
                item(&[6, 2], 0, 9),
                item(&[2, 6], 0, 9),
                item(&[4, 4], 1, 5),
                item(&[8, 0], 1, 9),
                item(&[3, 3], 2, 7),
                item(&[1, 1], 2, 5),
                item(&[8, 8], 6, 12),
                item(&[2, 2], 7, 10),
            ],
        );
        let measures = [LoadMeasure::Linf, LoadMeasure::L1, LoadMeasure::Lp(4)];
        let kinds = [PolicyKind::FirstFit, PolicyKind::LastFit]
            .into_iter()
            .chain(measures.map(PolicyKind::BestFit))
            .chain(measures.map(PolicyKind::WorstFit))
            .chain((0..8).map(|seed| PolicyKind::RandomFit { seed }));
        for kind in kinds {
            let auto = pack(&instance, kind.build().as_mut());
            for path in [FitPath::Index, FitPath::Block, FitPath::Scalar] {
                let pinned = Engine::new().with_fit_path(path).pack(
                    &instance,
                    kind.build().as_mut(),
                    TraceMode::Full,
                );
                assert_eq!(pinned, auto, "{} on {path:?}", kind.name());
            }
        }
    }

    #[test]
    fn fit_index_is_built_only_by_a_query_at_the_crossover() {
        // Each 6-unit item blocks sharing, so bin `t` opens at tick `t`
        // and all stay open: arrival `t` sees `t` open bins.
        let crossover = hybrid::index_crossover(1);
        let run = |n: usize, policy: &mut dyn Policy| {
            let items = (0..n as Time).map(|t| item(&[6], t, 1000)).collect();
            let mut engine = Engine::new();
            engine.pack(&inst(&[10], items), policy, TraceMode::CostOnly);
            engine.index.get_mut().is_live()
        };
        assert!(!run(crossover, &mut FirstFit::new()));
        // `scalar-scan` builds never query the tree at all.
        assert_eq!(
            run(crossover + 1, &mut FirstFit::new()),
            !cfg!(feature = "scalar-scan")
        );
        // Move To Front never queries, so it never pays for the index.
        assert!(!run(crossover + 1, &mut MoveToFront::new()));
    }

    fn record<O: Observer>(instance: &Instance, kind: &PolicyKind, path: FitPath, mut obs: O) -> O {
        Engine::new()
            .with_fit_path(path)
            .run(instance, kind.build().as_mut(), TraceMode::Full, &mut obs)
            .unwrap();
        obs
    }

    #[test]
    fn event_streams_do_not_depend_on_the_fit_path() {
        use dvbp_obs::{ObsEvent, Recorder, WithProvenance};
        // 100 blockers of 6..=9 units per dimension stay open, no two in
        // one bin, with unequal loads for Best/Worst Fit to rank; a
        // `(1, 1)` item fits every one of them and a `(5, 5)` item fits
        // nowhere. Past the `d = 2` crossover, so `Auto` sends most of
        // these queries to the tree.
        let mut items: Vec<Item> = (0..100)
            .map(|t| item(&[6 + (t * 7) % 4, 6 + (t * 5) % 4], t, 1000))
            .collect();
        items.push(item(&[1, 1], 100, 1000));
        items.push(item(&[5, 5], 101, 1000));
        let instance = inst(&[10, 10], items);
        let count = |events: &[ObsEvent], per_event: fn(&ObsEvent) -> u64| {
            events.iter().map(per_event).sum::<u64>()
        };
        // Σ_{k<100} k probes by the blockers, then First Fit probes 1 for
        // the (1, 1) and the whole-set queries all 100; 100 for the
        // (5, 5): every rejected candidate is counted and logged.
        let kinds = [
            (PolicyKind::FirstFit, 5051),
            (PolicyKind::BestFit(LoadMeasure::Linf), 5150),
            (PolicyKind::WorstFit(LoadMeasure::Linf), 5150),
            (PolicyKind::RandomFit { seed: 3 }, 5150),
        ];
        for (kind, expect) in kinds {
            let name = kind.name();
            let plain = |path| record(&instance, &kind, path, Recorder::new()).events;
            let scalar = plain(FitPath::Scalar);
            let scanned = count(&scalar, |e| match e {
                ObsEvent::Place { scanned, .. } => *scanned,
                _ => 0,
            });
            assert_eq!(scanned, expect, "{name}");
            let provenance = |path| {
                record(&instance, &kind, path, WithProvenance(Recorder::new()))
                    .0
                    .events
            };
            let scalar_provenance = provenance(FitPath::Scalar);
            let probes = count(&scalar_provenance, |e| {
                u64::from(matches!(e, ObsEvent::Probe { .. }))
            });
            assert_eq!(probes, expect, "{name}");
            for path in [FitPath::Auto, FitPath::Index, FitPath::Block] {
                assert_eq!(plain(path), scalar, "{name} on {path:?}");
                assert_eq!(
                    provenance(path),
                    scalar_provenance,
                    "{name} on {path:?} provenance"
                );
            }
        }
    }

    #[test]
    fn engine_reuse_across_dimensionalities() {
        let one_d = inst(&[10], vec![item(&[5], 0, 4)]);
        let two_d = inst(&[10, 10], vec![item(&[5, 5], 0, 4), item(&[6, 1], 1, 3)]);
        let mut engine = Engine::new();
        let mut policy = FirstFit::new();
        let a = engine.pack(&two_d, &mut policy, TraceMode::Full);
        let _ = engine.pack(&one_d, &mut policy, TraceMode::Full);
        let c = engine.pack(&two_d, &mut policy, TraceMode::Full);
        assert_eq!(a, c);
    }
}
