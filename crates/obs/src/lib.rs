//! **dvbp-obs** — zero-cost observability for the DVBP packing engine.
//!
//! The engine's event loop is instrumented with a set of *static-dispatch*
//! hook points — the [`Observer`] trait. The engine's run path is generic
//! over the observer, so the uninstrumented default ([`NoopObserver`],
//! whose hooks are empty `#[inline]` bodies) monomorphizes to the exact
//! code that would exist without the layer: no branches, no virtual
//! calls, no allocations. Telemetry is strictly **pay-as-you-go** — the
//! motivation of the paper's usage-time objective, applied to the
//! reproduction itself.
//!
//! Hook points, in the order the engine fires them:
//!
//! 1. [`Observer::on_run_start`] — once, before the first event;
//! 2. [`Observer::on_arrival`] — an item arrived, before the policy runs;
//! 3. [`Observer::on_bin_open`] — a fresh bin was opened for the item;
//! 4. [`Observer::on_place`] — the item was placed (every arrival);
//! 5. [`Observer::on_depart`] — an item departed its bin;
//! 6. [`Observer::on_bin_close`] — the departing item's bin became empty;
//! 7. [`Observer::on_run_end`] — once, after the last event.
//!
//! Built-in observers:
//!
//! * [`MetricsObserver`] — counters plus reservoir-sampled open-bin and
//!   utilization time series;
//! * [`JsonlEmitter`] — streams every event as one JSON object per line
//!   for offline analysis (`dvbp-analysis` ingests and replays it);
//! * [`Recorder`] — buffers the [`ObsEvent`] stream in memory (tests,
//!   conformance replay);
//! * tuples `(A, B)` / `(A, B, C)` — fan one run out to several
//!   observers.
//!
//! The operator surface lives here too: [`expo`] writes and parses the
//! Prometheus exposition and carries the minimal HTTP/1.1 that
//! `dvbp-serve` and `dvbp-monitor` serve it over.
//!
//! This crate deliberately speaks in primitives (`u64` ticks, `usize`
//! bin/item indices, `&[u64]` size slices) so it sits *below*
//! `dvbp-core` in the dependency graph; core re-exports the trait and
//! threads it through the engine.

pub mod error;
pub mod expo;
pub mod histogram;
pub mod jsonl;
pub mod metrics;
pub mod provenance;
pub mod span;
pub mod timing;

pub use error::ObsError;
pub use histogram::LogHistogram;
pub use jsonl::{scan_wal, JsonlEmitter, StableWrite, SyncPolicy, WalScan};
pub use metrics::{Gauge, MetricsObserver};
pub use provenance::{ProvenanceObserver, WithProvenance};
pub use span::{AtomicHistogram, FlightRecorder, OpKind, Span, SpanRecord, SpanRing, Stage};
pub use timing::{TimingObserver, TimingSnapshot};

use dvbp_sim::Time;
use serde::{Deserialize, Serialize};

/// Context of a starting run: dimensions, capacity, and item count.
#[derive(Clone, Copy, Debug)]
pub struct RunStart<'a> {
    /// Per-dimension bin capacity.
    pub capacity: &'a [u64],
    /// Number of items in the instance.
    pub items: usize,
}

/// An item arrival, observed before the policy chooses a bin.
#[derive(Clone, Copy, Debug)]
pub struct Arrival<'a> {
    /// Arrival tick.
    pub time: Time,
    /// Item index within the instance.
    pub item: usize,
    /// The item's size vector.
    pub size: &'a [u64],
}

/// A completed placement decision.
#[derive(Clone, Copy, Debug)]
pub struct Place {
    /// Tick of the arrival.
    pub time: Time,
    /// Item index.
    pub item: usize,
    /// Receiving bin index.
    pub bin: usize,
    /// `true` iff the bin was opened for this item.
    pub opened_new: bool,
    /// Number of open bins whose feasibility the policy evaluated while
    /// choosing (0 when the decision needed no candidate, e.g. an indexed
    /// descent that proved no bin fits).
    pub scanned: u64,
}

/// One candidate bin the policy examined while choosing — fired only
/// when the observer opts in via [`Observer::WANTS_PROBES`].
///
/// For a rejected candidate, `dim`/`need`/`have` pin the cause: the
/// first dimension whose residual slack could not hold the item. A
/// policy-level rejection (e.g. a clairvoyant policy skipping a bin of
/// the wrong duration class) has `fit == false` with `dim == None`.
#[derive(Clone, Copy, Debug)]
pub struct Probe {
    /// Tick of the arrival being decided.
    pub time: Time,
    /// Arriving item index.
    pub item: usize,
    /// The candidate bin examined.
    pub bin: usize,
    /// `true` iff the item fit the candidate.
    pub fit: bool,
    /// First violated dimension of a capacity rejection.
    pub dim: Option<usize>,
    /// The item's demand in that dimension (0 unless `dim` is set).
    pub need: u64,
    /// The bin's residual slack in that dimension (0 unless `dim` is
    /// set).
    pub have: u64,
}

/// The winning side of a placement decision — fired after
/// [`on_place`](Observer::on_place) when the observer opts in via
/// [`Observer::WANTS_PROBES`].
#[derive(Clone, Copy, Debug)]
pub struct Decision {
    /// Tick of the arrival.
    pub time: Time,
    /// Item index.
    pub item: usize,
    /// Receiving bin.
    pub bin: usize,
    /// Whether the bin was opened for this item.
    pub opened_new: bool,
    /// Candidate bins probed while choosing (equals the corresponding
    /// [`Place::scanned`]).
    pub probes: u64,
    /// The winning bin's score under the policy's ranking measure, when
    /// the policy ranks candidates (Best/Worst Fit).
    pub score: Option<ScoreBreakdown>,
}

/// A ranking score in owned, `Eq`-safe form: the components of a
/// Best/Worst Fit `LoadKey`.
///
/// Float-valued measures store the IEEE-754 bit pattern so the event
/// stream keeps a total `Eq` (and round-trips through JSON exactly);
/// [`ScoreBreakdown::value`] recovers the numeric score.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScoreBreakdown {
    /// Exact normalized-`L∞` fraction `num/den`.
    Frac {
        /// Numerator: the max-ratio dimension's load component.
        num: u64,
        /// Denominator: that dimension's capacity component.
        den: u64,
    },
    /// A float norm, stored as its exact bit pattern.
    Bits {
        /// `f64::to_bits` of the norm value.
        bits: u64,
    },
}

impl ScoreBreakdown {
    /// The numeric score.
    #[must_use]
    pub fn value(&self) -> f64 {
        match *self {
            ScoreBreakdown::Frac { num, den } => {
                if den == 0 {
                    0.0
                } else {
                    num as f64 / den as f64
                }
            }
            ScoreBreakdown::Bits { bits } => f64::from_bits(bits),
        }
    }
}

/// An item departure, observed after loads are updated.
#[derive(Clone, Copy, Debug)]
pub struct Depart {
    /// Departure tick.
    pub time: Time,
    /// Item index.
    pub item: usize,
    /// The bin the item departed from.
    pub bin: usize,
}

/// A still-active item moved between open bins by a repacking policy
/// (`RepackPolicy` in `dvbp-core`), observed after loads are updated.
///
/// Only live runs with repacking enabled emit this; the batch engine's
/// placements stay irrevocable. If the move emptied `from`, the usual
/// [`on_bin_close`](Observer::on_bin_close) fires right after.
#[derive(Clone, Copy, Debug)]
pub struct Migrate {
    /// Tick of the migration (the departure that triggered it).
    pub time: Time,
    /// The migrated item's index.
    pub item: usize,
    /// The bin the item was moved out of.
    pub from: usize,
    /// The bin the item was moved into.
    pub to: usize,
}

/// Summary of a finished run.
#[derive(Clone, Copy, Debug)]
pub struct RunEnd {
    /// Tick of the last event (0 for an empty instance).
    pub time: Time,
    /// Number of items packed.
    pub items: usize,
    /// Number of bins ever opened.
    pub bins: usize,
}

/// Static-dispatch observer hooks fired by the engine's event loop.
///
/// Every hook has an empty default body, so an observer implements only
/// what it needs; [`NoopObserver`] implements none and compiles away
/// entirely. Hooks must not panic on well-formed streams and must not
/// assume anything beyond the ordering documented at the crate root.
pub trait Observer {
    /// Whether the engine should collect per-candidate probe records and
    /// fire [`on_probe`](Observer::on_probe) /
    /// [`on_decision`](Observer::on_decision).
    ///
    /// Defaults to `false`: the engine's choose path then skips probe
    /// collection entirely (the branch is a compile-time constant per
    /// observer type, so `NoopObserver` runs pay nothing). Composite
    /// observers opt in if any component does.
    const WANTS_PROBES: bool = false;

    /// The run is about to start.
    #[inline]
    fn on_run_start(&mut self, _run: RunStart<'_>) {}

    /// An item arrived (fires before the policy's decision).
    #[inline]
    fn on_arrival(&mut self, _ev: Arrival<'_>) {}

    /// A candidate bin was examined while choosing (fires between
    /// [`on_arrival`](Observer::on_arrival) and the placement, once per
    /// candidate, in examination order; only when
    /// [`WANTS_PROBES`](Observer::WANTS_PROBES)).
    #[inline]
    fn on_probe(&mut self, _ev: Probe) {}

    /// The placement decision, with probe count and winning score (fires
    /// after [`on_place`](Observer::on_place); only when
    /// [`WANTS_PROBES`](Observer::WANTS_PROBES)).
    #[inline]
    fn on_decision(&mut self, _ev: Decision) {}

    /// A fresh bin was opened (fires before the corresponding
    /// [`on_place`](Observer::on_place)).
    #[inline]
    fn on_bin_open(&mut self, _time: Time, _bin: usize) {}

    /// An item was placed.
    #[inline]
    fn on_place(&mut self, _ev: Place) {}

    /// An item departed.
    #[inline]
    fn on_depart(&mut self, _ev: Depart) {}

    /// A repacking policy moved a still-active item between open bins
    /// (fires after the triggering [`on_depart`](Observer::on_depart),
    /// once per migration, in execution order; live runs only).
    #[inline]
    fn on_migrate(&mut self, _ev: Migrate) {}

    /// A bin became empty and closed permanently (fires after the
    /// corresponding [`on_depart`](Observer::on_depart) or
    /// [`on_migrate`](Observer::on_migrate)).
    #[inline]
    fn on_bin_close(&mut self, _time: Time, _bin: usize) {}

    /// The live policy was swapped mid-run at a bin-close boundary
    /// (portfolio dispatch; the engine itself never switches). `from`
    /// and `to` are round-trippable policy spellings.
    #[inline]
    fn on_policy_switch(&mut self, _time: Time, _from: &str, _to: &str) {}

    /// The run finished.
    #[inline]
    fn on_run_end(&mut self, _end: RunEnd) {}
}

/// The do-nothing observer: the engine's default.
///
/// Every hook is an empty inline body, so a run instrumented with
/// `NoopObserver` monomorphizes to exactly the uninstrumented loop —
/// the counting-allocator test and the throughput-bench gate hold it to
/// that claim.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopObserver;

impl Observer for NoopObserver {}

/// Forwarding impl so `&mut O` can be handed around without consuming
/// the observer.
impl<O: Observer + ?Sized> Observer for &mut O {
    const WANTS_PROBES: bool = O::WANTS_PROBES;
    #[inline]
    fn on_run_start(&mut self, run: RunStart<'_>) {
        (**self).on_run_start(run);
    }
    #[inline]
    fn on_arrival(&mut self, ev: Arrival<'_>) {
        (**self).on_arrival(ev);
    }
    #[inline]
    fn on_probe(&mut self, ev: Probe) {
        (**self).on_probe(ev);
    }
    #[inline]
    fn on_decision(&mut self, ev: Decision) {
        (**self).on_decision(ev);
    }
    #[inline]
    fn on_bin_open(&mut self, time: Time, bin: usize) {
        (**self).on_bin_open(time, bin);
    }
    #[inline]
    fn on_place(&mut self, ev: Place) {
        (**self).on_place(ev);
    }
    #[inline]
    fn on_depart(&mut self, ev: Depart) {
        (**self).on_depart(ev);
    }
    #[inline]
    fn on_migrate(&mut self, ev: Migrate) {
        (**self).on_migrate(ev);
    }
    #[inline]
    fn on_bin_close(&mut self, time: Time, bin: usize) {
        (**self).on_bin_close(time, bin);
    }
    #[inline]
    fn on_policy_switch(&mut self, time: Time, from: &str, to: &str) {
        (**self).on_policy_switch(time, from, to);
    }
    #[inline]
    fn on_run_end(&mut self, end: RunEnd) {
        (**self).on_run_end(end);
    }
}

macro_rules! tuple_observer {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Observer),+> Observer for ($($name,)+) {
            const WANTS_PROBES: bool = false $(|| $name::WANTS_PROBES)+;
            #[inline]
            fn on_run_start(&mut self, run: RunStart<'_>) {
                $(self.$idx.on_run_start(run);)+
            }
            #[inline]
            fn on_arrival(&mut self, ev: Arrival<'_>) {
                $(self.$idx.on_arrival(ev);)+
            }
            #[inline]
            fn on_probe(&mut self, ev: Probe) {
                $(self.$idx.on_probe(ev);)+
            }
            #[inline]
            fn on_decision(&mut self, ev: Decision) {
                $(self.$idx.on_decision(ev);)+
            }
            #[inline]
            fn on_bin_open(&mut self, time: Time, bin: usize) {
                $(self.$idx.on_bin_open(time, bin);)+
            }
            #[inline]
            fn on_place(&mut self, ev: Place) {
                $(self.$idx.on_place(ev);)+
            }
            #[inline]
            fn on_depart(&mut self, ev: Depart) {
                $(self.$idx.on_depart(ev);)+
            }
            #[inline]
            fn on_migrate(&mut self, ev: Migrate) {
                $(self.$idx.on_migrate(ev);)+
            }
            #[inline]
            fn on_bin_close(&mut self, time: Time, bin: usize) {
                $(self.$idx.on_bin_close(time, bin);)+
            }
            #[inline]
            fn on_policy_switch(&mut self, time: Time, from: &str, to: &str) {
                $(self.$idx.on_policy_switch(time, from, to);)+
            }
            #[inline]
            fn on_run_end(&mut self, end: RunEnd) {
                $(self.$idx.on_run_end(end);)+
            }
        }
    };
}

tuple_observer!(A: 0, B: 1);
tuple_observer!(A: 0, B: 1, C: 2);

/// One engine event in owned, serializable form — the wire format of
/// [`JsonlEmitter`] and the buffer element of [`Recorder`].
///
/// The stream of `ObsEvent`s emitted by a run is **complete**: replaying
/// it reconstructs the run's `Packing` exactly (assignment, per-bin usage
/// records and item lists, decision trace) — `dvbp-analysis` implements
/// the replay and the conformance harness checks it for every fuzzed run.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ObsEvent {
    /// Free-form run label written by experiment harnesses (not emitted
    /// by the engine itself): identifies the algorithm and workload of
    /// the run that follows.
    Meta {
        /// Algorithm display name.
        algorithm: String,
        /// Instance dimensionality.
        d: usize,
        /// Workload μ (max/min duration ratio), if meaningful.
        mu: u64,
        /// Workload seed.
        seed: u64,
    },
    /// Run started.
    RunStart {
        /// Per-dimension bin capacity.
        capacity: Vec<u64>,
        /// Number of items in the instance.
        items: usize,
    },
    /// Item arrived.
    Arrival {
        /// Arrival tick.
        time: Time,
        /// Item index.
        item: usize,
        /// Item size vector.
        size: Vec<u64>,
    },
    /// Binds a run-local item index to an external string identifier.
    ///
    /// Written by serving layers (`dvbp-serve`'s write-ahead log) that
    /// admit items under client-chosen ids; the engine itself never
    /// emits it. Replay and analysis treat it as an annotation on the
    /// `Arrival` that follows.
    Ident {
        /// Run-local item index (the `item` of the following events).
        item: usize,
        /// External client-assigned identifier.
        id: String,
    },
    /// A candidate bin was examined for one arrival (provenance runs
    /// only — emitted solely by probe-aware observers).
    Probe {
        /// Arrival tick.
        time: Time,
        /// Item index.
        item: usize,
        /// The bin that was examined.
        bin: usize,
        /// Whether the item fit (or, for policy-level rejections, was
        /// eligible at all).
        fit: bool,
        /// First violated dimension for a rejection; `None` when the
        /// probe succeeded or the bin was rejected by policy state
        /// before any capacity check.
        dim: Option<usize>,
        /// Demand in the violated dimension (0 when `dim` is `None`).
        need: u64,
        /// Residual slack in the violated dimension (0 when `dim` is
        /// `None`).
        have: u64,
    },
    /// Fresh bin opened.
    BinOpen {
        /// Opening tick.
        time: Time,
        /// Bin index.
        bin: usize,
    },
    /// Item placed.
    Place {
        /// Tick of the arrival.
        time: Time,
        /// Item index.
        item: usize,
        /// Receiving bin.
        bin: usize,
        /// Whether the bin was opened for this item.
        opened_new: bool,
        /// Candidate bins the policy examined.
        scanned: u64,
    },
    /// Placement summary closing one arrival's probe sequence
    /// (provenance runs only).
    Decision {
        /// Arrival tick.
        time: Time,
        /// Item index.
        item: usize,
        /// Receiving bin.
        bin: usize,
        /// Whether the bin was opened for this item.
        opened_new: bool,
        /// Candidate bins the policy examined (equals the run's
        /// [`ObsEvent::Place`] `scanned` for the same arrival).
        probes: u64,
        /// Winning bin's score for ranking policies (Best/Worst Fit);
        /// `None` for order-based policies.
        score: Option<ScoreBreakdown>,
    },
    /// Item departed.
    Depart {
        /// Departure tick.
        time: Time,
        /// Item index.
        item: usize,
        /// The bin departed from.
        bin: usize,
    },
    /// A repacking policy moved a still-active item between open bins
    /// (live runs with a `RepackPolicy` only).
    Migrate {
        /// Tick of the migration.
        time: Time,
        /// The migrated item.
        item: usize,
        /// Source bin.
        from: usize,
        /// Destination bin.
        to: usize,
    },
    /// Bin closed.
    BinClose {
        /// Closing tick.
        time: Time,
        /// Bin index.
        bin: usize,
    },
    /// The live policy was swapped at a bin-close boundary (portfolio
    /// dispatch only; the engine itself never emits it). `dvbp-serve`
    /// journals it as the last line of the depart group that caused
    /// it; recovery re-runs the meta-policy and checks its switches
    /// against these lines.
    PolicySwitch {
        /// Tick of the switch (the triggering bin-close's tick).
        time: Time,
        /// Round-trippable spelling of the outgoing policy.
        from: String,
        /// Round-trippable spelling of the incoming policy.
        to: String,
    },
    /// Run finished.
    RunEnd {
        /// Tick of the last event.
        time: Time,
        /// Items packed.
        items: usize,
        /// Bins ever opened.
        bins: usize,
    },
}

/// Buffers the full [`ObsEvent`] stream in memory.
///
/// The in-process twin of [`JsonlEmitter`]: tests and the conformance
/// harness record a run and replay the buffer without a serialization
/// round-trip.
#[derive(Clone, Debug, Default)]
pub struct Recorder {
    /// Recorded events, in engine order.
    pub events: Vec<ObsEvent>,
}

impl Recorder {
    /// Creates an empty recorder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Observer for Recorder {
    fn on_run_start(&mut self, run: RunStart<'_>) {
        self.events.push(ObsEvent::RunStart {
            capacity: run.capacity.to_vec(),
            items: run.items,
        });
    }

    fn on_arrival(&mut self, ev: Arrival<'_>) {
        self.events.push(ObsEvent::Arrival {
            time: ev.time,
            item: ev.item,
            size: ev.size.to_vec(),
        });
    }

    fn on_bin_open(&mut self, time: Time, bin: usize) {
        self.events.push(ObsEvent::BinOpen { time, bin });
    }

    fn on_probe(&mut self, ev: Probe) {
        self.events.push(ObsEvent::Probe {
            time: ev.time,
            item: ev.item,
            bin: ev.bin,
            fit: ev.fit,
            dim: ev.dim,
            need: ev.need,
            have: ev.have,
        });
    }

    fn on_decision(&mut self, ev: Decision) {
        self.events.push(ObsEvent::Decision {
            time: ev.time,
            item: ev.item,
            bin: ev.bin,
            opened_new: ev.opened_new,
            probes: ev.probes,
            score: ev.score,
        });
    }

    fn on_place(&mut self, ev: Place) {
        self.events.push(ObsEvent::Place {
            time: ev.time,
            item: ev.item,
            bin: ev.bin,
            opened_new: ev.opened_new,
            scanned: ev.scanned,
        });
    }

    fn on_depart(&mut self, ev: Depart) {
        self.events.push(ObsEvent::Depart {
            time: ev.time,
            item: ev.item,
            bin: ev.bin,
        });
    }

    fn on_migrate(&mut self, ev: Migrate) {
        self.events.push(ObsEvent::Migrate {
            time: ev.time,
            item: ev.item,
            from: ev.from,
            to: ev.to,
        });
    }

    fn on_bin_close(&mut self, time: Time, bin: usize) {
        self.events.push(ObsEvent::BinClose { time, bin });
    }

    fn on_policy_switch(&mut self, time: Time, from: &str, to: &str) {
        self.events.push(ObsEvent::PolicySwitch {
            time,
            from: from.to_string(),
            to: to.to_string(),
        });
    }

    fn on_run_end(&mut self, end: RunEnd) {
        self.events.push(ObsEvent::RunEnd {
            time: end.time,
            items: end.items,
            bins: end.bins,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive<O: Observer>(obs: &mut O) {
        obs.on_run_start(RunStart {
            capacity: &[10, 10],
            items: 1,
        });
        obs.on_arrival(Arrival {
            time: 0,
            item: 0,
            size: &[3, 4],
        });
        obs.on_bin_open(0, 0);
        obs.on_place(Place {
            time: 0,
            item: 0,
            bin: 0,
            opened_new: true,
            scanned: 0,
        });
        obs.on_depart(Depart {
            time: 5,
            item: 0,
            bin: 0,
        });
        obs.on_bin_close(5, 0);
        obs.on_run_end(RunEnd {
            time: 5,
            items: 1,
            bins: 1,
        });
    }

    #[test]
    fn recorder_captures_the_full_stream_in_order() {
        let mut rec = Recorder::new();
        drive(&mut rec);
        assert_eq!(rec.events.len(), 7);
        assert!(matches!(rec.events[0], ObsEvent::RunStart { .. }));
        assert!(matches!(
            rec.events[2],
            ObsEvent::BinOpen { time: 0, bin: 0 }
        ));
        assert!(matches!(
            rec.events[6],
            ObsEvent::RunEnd {
                time: 5,
                items: 1,
                bins: 1
            }
        ));
    }

    #[test]
    fn noop_and_tuple_observers_compose() {
        let mut noop = NoopObserver;
        drive(&mut noop);
        let mut pair = (Recorder::new(), Recorder::new());
        drive(&mut pair);
        assert_eq!(pair.0.events, pair.1.events);
        let mut triple = (NoopObserver, Recorder::new(), NoopObserver);
        drive(&mut triple);
        assert_eq!(triple.1.events, pair.0.events);
    }

    #[test]
    fn mut_ref_forwarding() {
        let mut rec = Recorder::new();
        drive(&mut &mut rec);
        assert_eq!(rec.events.len(), 7);
    }

    #[test]
    fn obs_event_json_round_trip() {
        let events = {
            let mut rec = Recorder::new();
            drive(&mut rec);
            rec.events
        };
        for ev in &events {
            let line = serde_json::to_string(ev).unwrap();
            let back: ObsEvent = serde_json::from_str(&line).unwrap();
            assert_eq!(&back, ev, "{line}");
        }
    }
}
