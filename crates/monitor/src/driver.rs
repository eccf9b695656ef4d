//! Workload sources and the per-run observation passes.
//!
//! The monitor drives the engine itself — it does not tail a log — so
//! wall-clock timing and probe counters come from live runs. Each run is
//! one pass with the full telemetry stack ([`observe_source_run`]) and,
//! with a repack suite, one more pass through one
//! [`EngineSet`] holding the run's policy under every suite entry
//! ([`observe_repack_suite`]). Two sources:
//!
//! * **synthetic** — an endless stream of [`UniformParams`] instances
//!   with incrementing seeds (the Table 2 workload family);
//! * **replay** — instances reconstructed from a recorded `dvbp-obs`
//!   JSONL trace via [`reconstruct_instance`]: the observer feed is
//!   complete, so each run's `Arrival` (time + size vector) and `Depart`
//!   (time) events pin down the original instance exactly. The driver
//!   cycles through the reconstructed instances forever.

use crate::aggregate::{Aggregate, RepackStats};
use dvbp_analysis::obs_ingest::RunLog;
use dvbp_core::{
    EngineSet, EventSource, Instance, InstanceSource, Item, PackRequest, PolicyKind, RepackPolicy,
    StreamError, StreamingLowerBound, Tap, TimeMode, TraceMode,
};
use dvbp_dimvec::DimVec;
use dvbp_obs::{MetricsObserver, ObsEvent, TimingObserver};
use dvbp_sim::Time;
use dvbp_workloads::UniformParams;
use std::sync::Mutex;

/// Rebuilds the packed [`Instance`] from one run's event stream.
///
/// # Errors
///
/// Returns a description of the first inconsistency: a placed item with
/// no arrival, a missing departure, an item count or index that the
/// run's events cannot back, or size/capacity data the engine would
/// reject (an empty vector among them).
pub fn reconstruct_instance(run: &RunLog) -> Result<Instance, String> {
    // Every item needs an Arrival and a Depart event, so a count or an
    // index at or above the event count is refused before it sizes a
    // table.
    let events = run.events.len();
    let backed = |what: String, n: usize| {
        if n < events {
            Ok(n)
        } else {
            Err(format!(
                "{what} {n} is out of range for a run of {events} events"
            ))
        }
    };
    let dimvec = |what: String, v: &[u64]| {
        if v.is_empty() {
            Err(format!("{what} has no dimensions"))
        } else {
            Ok(DimVec::from_slice(v))
        }
    };
    let mut capacity: Option<DimVec> = None;
    let mut arrivals: Vec<Option<(DimVec, Time)>> = Vec::new();
    let mut departures: Vec<Option<Time>> = Vec::new();
    for ev in &run.events {
        match ev {
            ObsEvent::RunStart {
                capacity: cap,
                items,
            } => {
                let items = backed("RunStart item count".into(), *items)?;
                capacity = Some(dimvec("RunStart capacity".into(), cap)?);
                arrivals = vec![None; items];
                departures = vec![None; items];
            }
            ObsEvent::Arrival { time, item, size } => {
                let item = backed("Arrival item index".into(), *item)?;
                if item >= arrivals.len() {
                    arrivals.resize(item + 1, None);
                    departures.resize(item + 1, None);
                }
                arrivals[item] = Some((dimvec(format!("item {item}'s size"), size)?, *time));
            }
            ObsEvent::Depart { time, item, .. } => {
                if let Some(slot) = departures.get_mut(*item) {
                    *slot = Some(*time);
                }
            }
            _ => {}
        }
    }
    let capacity = capacity.ok_or("trace has no RunStart event")?;
    let items = arrivals
        .into_iter()
        .zip(departures)
        .enumerate()
        .map(|(i, (arr, dep))| {
            let (size, arrival) = arr.ok_or(format!("item {i}: no Arrival event"))?;
            let departure = dep.ok_or(format!("item {i}: no Depart event"))?;
            Ok(Item::new(size, arrival, departure))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Instance::new(capacity, items).map_err(|e| format!("reconstructed instance invalid: {e}"))
}

/// An endless instance source for the driver loop.
pub enum Workload {
    /// Freshly generated uniform instances, one seed per run.
    Synthetic {
        /// Generation parameters.
        params: UniformParams,
        /// Seed of the next run (increments).
        next_seed: u64,
    },
    /// Instances reconstructed from a recorded trace, cycled forever.
    Replay {
        /// The reconstructed instances.
        instances: Vec<Instance>,
        /// Index of the next instance.
        next: usize,
    },
}

impl Workload {
    /// A synthetic source starting at `seed`.
    #[must_use]
    pub fn synthetic(params: UniformParams, seed: u64) -> Self {
        Workload::Synthetic {
            params,
            next_seed: seed,
        }
    }

    /// A replay source over every run in a `dvbp-obs` JSONL trace.
    ///
    /// # Errors
    ///
    /// Returns a message if the text does not parse as an event stream,
    /// contains no runs, or any run does not reconstruct.
    pub fn from_trace_jsonl(text: &str) -> Result<Self, String> {
        let runs = dvbp_analysis::obs_ingest::ingest_jsonl(text).map_err(|e| e.to_string())?;
        if runs.is_empty() {
            return Err("trace contains no runs".into());
        }
        let instances = runs
            .iter()
            .map(reconstruct_instance)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Workload::Replay { instances, next: 0 })
    }

    /// Produces the next instance (never exhausts).
    pub fn next_instance(&mut self) -> Instance {
        match self {
            Workload::Synthetic { params, next_seed } => {
                let inst = params.generate(*next_seed);
                *next_seed += 1;
                inst
            }
            Workload::Replay { instances, next } => {
                let inst = instances[*next].clone();
                *next = (*next + 1) % instances.len();
                inst
            }
        }
    }
}

/// Packs one streamed event feed with the full telemetry stack attached
/// and folds the run into the shared aggregate. The engine never
/// materializes an instance, and the Lemma 1 lower bound comes from a
/// [`StreamingLowerBound`] tap on the feed, so memory stays
/// `O(active items)` no matter how long the trace is. This is the one
/// observation path: the instance-backed [`observe_run`] is a thin
/// wrapper replaying through an [`InstanceSource`].
///
/// # Errors
///
/// The [`StreamError`] of the failing source read or rejected feed
/// operation (the aggregate is left untouched on error).
///
/// # Panics
///
/// Panics if the aggregate mutex is poisoned.
pub fn observe_source_run<S: EventSource + ?Sized>(
    kind: &PolicyKind,
    source: &mut S,
    aggregate: &Mutex<Aggregate>,
) -> Result<(), StreamError> {
    let mut metrics = MetricsObserver::new();
    let mut timing = TimingObserver::new();
    let mut lb = StreamingLowerBound::new(source.capacity());
    let mut tapped = Tap::new(source, |op| lb.observe(op));
    let mut stack = (&mut metrics, &mut timing);
    let packing = PackRequest::new(kind.clone())
        .trace_mode(TraceMode::CostOnly)
        .observer(&mut stack)
        .run_source(&mut tapped)?;
    aggregate.lock().expect("aggregate mutex poisoned").absorb(
        &metrics,
        &timing.snapshot(),
        packing.cost(),
        lb.value(),
    );
    Ok(())
}

/// Packs one instance with the full telemetry stack attached and folds
/// the run into the shared aggregate — [`observe_source_run`] over the
/// instance's canonical event stream (bit-identical placements, and the
/// streamed lower bound equals the offline `lb_load`).
///
/// # Panics
///
/// Panics if the instance is rejected by the engine (sources only yield
/// validated instances), the policy is clairvoyant (streams carry no
/// announced durations), or the aggregate mutex is poisoned.
pub fn observe_run(kind: &PolicyKind, instance: &Instance, aggregate: &Mutex<Aggregate>) {
    let mut source = InstanceSource::new(instance).expect("workload sources yield valid instances");
    observe_source_run(kind, &mut source, aggregate)
        .expect("instance-backed streams replay without feed errors");
}

/// Packs one streamed event feed once for the whole repack suite and
/// folds each entry's run into its totals. The pass is one
/// [`EngineSet`] whose candidates pair `kind` with every policy of the
/// suite, in suite order: one feed, one Lemma 1 lower bound, and per
/// policy a cost-only engine with its repack planner, so `/metrics` can
/// expose the CR-vs-migration-cost frontier live. The source's items
/// are renumbered densely, as a live engine numbers them, and the stream
/// must drain.
///
/// # Errors
///
/// The [`StreamError`] of the failing source read, a rejected feed
/// operation, a stream that ends with items active
/// ([`LiveError::StillActive`](dvbp_core::LiveError::StillActive)), or
/// a clairvoyant `kind`, which live engines refuse. `suite` is left
/// untouched on error.
///
/// # Panics
///
/// Panics if the suite mutex is poisoned.
pub fn observe_repack_suite<S: EventSource + ?Sized>(
    kind: &PolicyKind,
    source: &mut S,
    suite: &Mutex<Vec<(RepackPolicy, RepackStats)>>,
) -> Result<(), StreamError> {
    let candidates: Vec<(PolicyKind, RepackPolicy)> = suite
        .lock()
        .expect("repack suite mutex poisoned")
        .iter()
        .map(|(repack, _)| (kind.clone(), *repack))
        .collect();
    let hint = source.items_hint().unwrap_or(0);
    let mut set = EngineSet::new(source.capacity(), TimeMode::Strict, &candidates, hint)?;
    set.drive_source(source)?;
    let end = set.end()?;
    let runs = set.costs_at(end).zip(set.migrations());
    let mut suite = suite.lock().expect("repack suite mutex poisoned");
    for ((_, stats), (cost, (migrations, migration_cost))) in suite.iter_mut().zip(runs) {
        stats.absorb(migrations, migration_cost, cost, set.lower_bound());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvbp_obs::{JsonlEmitter, ObsEvent};

    fn sample_instance() -> Instance {
        let item = |size: &[u64], a: u64, e: u64| Item::new(DimVec::from_slice(size), a, e);
        Instance::new(
            DimVec::from_slice(&[10, 10]),
            vec![
                item(&[7, 2], 0, 10),
                item(&[2, 7], 2, 5),
                item(&[3, 3], 4, 6),
                item(&[9, 9], 6, 12),
            ],
        )
        .unwrap()
    }

    #[test]
    fn trace_round_trips_to_the_original_instance() {
        let inst = sample_instance();
        let mut emitter = JsonlEmitter::new(Vec::new());
        emitter.emit(&ObsEvent::Meta {
            algorithm: "FirstFit".into(),
            d: 2,
            mu: 10,
            seed: 0,
        });
        PackRequest::new(PolicyKind::FirstFit)
            .observer(&mut emitter)
            .run(&inst)
            .unwrap();
        let text = String::from_utf8(emitter.finish().unwrap()).unwrap();
        let mut workload = Workload::from_trace_jsonl(&text).unwrap();
        let rebuilt = workload.next_instance();
        assert_eq!(rebuilt, inst);
        // Cycles: the source never exhausts.
        assert_eq!(workload.next_instance(), inst);
    }

    #[test]
    fn synthetic_source_advances_seeds() {
        let params = UniformParams {
            dims: 2,
            items: 20,
            mu: 5,
            span: 30,
            bin_size: 50,
        };
        let mut w = Workload::synthetic(params, 7);
        let a = w.next_instance();
        let b = w.next_instance();
        assert_ne!(a, b, "consecutive seeds should differ");
        assert_eq!(a, params.generate(7));
        assert_eq!(b, params.generate(8));
    }

    #[test]
    fn observe_run_populates_the_aggregate() {
        let inst = sample_instance();
        let agg = Mutex::new(Aggregate::new());
        observe_run(&PolicyKind::MoveToFront, &inst, &agg);
        let agg = agg.into_inner().unwrap();
        assert_eq!(agg.runs, 1);
        assert_eq!(agg.arrivals, 4);
        assert_eq!(agg.dispatch_ns.total(), 4);
        assert!(agg.usage_time >= agg.lb_load);
    }

    /// The four-line run of one item, with `header` and `arrival` as its
    /// first two lines.
    fn one_item_run(header: &str, arrival: &str) -> Result<Workload, String> {
        let text = format!(
            "{header}\n{arrival}\n{}\n{}\n",
            r#"{"Depart":{"time":5,"item":0,"bin":0}}"#,
            r#"{"RunEnd":{"time":5,"items":1,"bins":1}}"#,
        );
        Workload::from_trace_jsonl(&text)
    }

    const HEADER: &str = r#"{"RunStart":{"capacity":[10,10],"items":1}}"#;
    const ARRIVAL: &str = r#"{"Arrival":{"time":0,"item":0,"size":[3,4]}}"#;

    #[test]
    fn an_empty_capacity_is_an_error_not_a_panic() {
        assert!(one_item_run(HEADER, ARRIVAL).is_ok());
        let header = r#"{"RunStart":{"capacity":[],"items":1}}"#;
        let err = one_item_run(header, ARRIVAL).err().unwrap();
        assert!(err.contains("RunStart capacity has no dimensions"), "{err}");
    }

    #[test]
    fn an_empty_size_is_an_error_not_a_panic() {
        let arrival = r#"{"Arrival":{"time":0,"item":0,"size":[]}}"#;
        let err = one_item_run(HEADER, arrival).err().unwrap();
        assert!(err.contains("item 0's size has no dimensions"), "{err}");
    }

    #[test]
    fn an_item_count_beyond_the_events_is_refused_before_allocating() {
        let header = r#"{"RunStart":{"capacity":[10,10],"items":1000000000000000}}"#;
        let err = one_item_run(header, ARRIVAL).err().unwrap();
        assert!(
            err.contains("item count 1000000000000000 is out of range"),
            "{err}"
        );
    }

    #[test]
    fn an_item_index_beyond_the_events_is_refused_before_allocating() {
        let arrival = r#"{"Arrival":{"time":0,"item":1000000000000000,"size":[3,4]}}"#;
        let err = one_item_run(HEADER, arrival).err().unwrap();
        assert!(
            err.contains("item index 1000000000000000 is out of range"),
            "{err}"
        );
    }

    #[test]
    fn empty_trace_is_rejected() {
        assert!(Workload::from_trace_jsonl("").is_err());
    }

    #[test]
    fn streamed_run_matches_the_instance_run() {
        // The same workload through both entry points must fold the
        // same cost and lower bound into the aggregate.
        let inst = sample_instance();
        let via_instance = Mutex::new(Aggregate::new());
        observe_run(&PolicyKind::FirstFit, &inst, &via_instance);
        let via_stream = Mutex::new(Aggregate::new());
        let mut source = InstanceSource::new(&inst).unwrap();
        observe_source_run(&PolicyKind::FirstFit, &mut source, &via_stream).unwrap();
        let a = via_instance.into_inner().unwrap();
        let b = via_stream.into_inner().unwrap();
        assert_eq!(a.usage_time, b.usage_time);
        assert_eq!(a.lb_load, b.lb_load);
        assert_eq!(a.arrivals, b.arrivals);
        assert_eq!(a.bins_opened, b.bins_opened);
        assert_eq!(a.lb_load, dvbp_offline::lb_load(&inst));
    }

    #[test]
    fn streamed_trace_feed_drives_the_running_cr() {
        // A real trace parser (synthetic Azure encoding) through the
        // streamed observation path: the running CR must come out
        // finite and ≥ 1 — the cold-start divide-by-zero shape never
        // reaches the scrape.
        let cap = DimVec::from_slice(&[50, 50]);
        let gen = dvbp_traces::HeavyTail::new(200, cap.clone(), 5);
        let mut csv = Vec::new();
        dvbp_traces::write_azure_csv(gen.items(), &cap, 288, &mut csv).unwrap();
        let mut source = dvbp_traces::AzureSource::new(
            std::io::Cursor::new(csv),
            Some(cap),
            288,
            dvbp_traces::DirtyPolicy::Reject,
        )
        .unwrap();
        let agg = Mutex::new(Aggregate::new());
        observe_source_run(&PolicyKind::FirstFit, &mut source, &agg).unwrap();
        let agg = agg.into_inner().unwrap();
        assert_eq!(agg.arrivals, 200);
        assert_eq!(agg.departures, 200);
        assert!(agg.lb_load > 0);
        assert!(agg.running_cr().is_finite());
        assert!(agg.running_cr() >= 1.0);
    }

    /// A suite of `policies`, every entry's totals empty.
    fn suite(policies: &[RepackPolicy]) -> Mutex<Vec<(RepackPolicy, RepackStats)>> {
        Mutex::new(policies.iter().map(|&p| (p, RepackStats::new())).collect())
    }

    fn observe_suite(
        kind: &PolicyKind,
        instance: &Instance,
        policies: &[RepackPolicy],
    ) -> Vec<RepackStats> {
        let totals = suite(policies);
        let mut source = InstanceSource::new(instance).unwrap();
        observe_repack_suite(kind, &mut source, &totals).unwrap();
        totals
            .into_inner()
            .unwrap()
            .into_iter()
            .map(|(_, stats)| stats)
            .collect()
    }

    #[test]
    fn no_repack_observation_matches_the_batch_cost() {
        // The suite's NoRepack entry must fold exactly the batch cost and
        // lower bound — it is the bit-identical baseline of the suite.
        let inst = sample_instance();
        let batch = Mutex::new(Aggregate::new());
        observe_run(&PolicyKind::FirstFit, &inst, &batch);
        let live = observe_suite(&PolicyKind::FirstFit, &inst, &[RepackPolicy::NoRepack]);
        let batch = batch.into_inner().unwrap();
        assert_eq!(live[0].usage_time, batch.usage_time);
        assert_eq!(live[0].lb_load, batch.lb_load);
        assert_eq!(live[0].migrations, 0);
        assert_eq!(live[0].migration_cost, 0);
        assert_eq!(live[0].runs, 1);
    }

    #[test]
    fn drain_policy_records_migrations_and_saves_usage_time() {
        // cap [10]: items 7 (t0..3), 7 (t1..5), 2 (t2..5). When item 0
        // departs at t3, bin 0 holds only the 2-item and bin 1 has
        // residual 3 — DrainOnDepart{1} migrates it and closes bin 0
        // two ticks early.
        let item = |size: u64, a: u64, e: u64| Item::new(DimVec::scalar(size), a, e);
        let inst = Instance::new(
            DimVec::scalar(10),
            vec![item(7, 0, 3), item(7, 1, 5), item(2, 2, 5)],
        )
        .unwrap();
        let policies = [RepackPolicy::NoRepack, RepackPolicy::DrainOnDepart { k: 1 }];
        let [none, drain] = observe_suite(&PolicyKind::FirstFit, &inst, &policies)[..] else {
            panic!("one total per suite entry");
        };
        assert_eq!(drain.migrations, 1);
        assert_eq!(drain.migration_cost, 1);
        assert!(
            drain.usage_time < none.usage_time,
            "drain must save bin-ticks"
        );
        assert_eq!(drain.lb_load, none.lb_load, "the bound is policy-free");
    }

    #[test]
    fn clairvoyant_kinds_are_rejected_by_the_repack_path() {
        let inst = sample_instance();
        let totals = suite(&[RepackPolicy::NoRepack]);
        let mut source = InstanceSource::new(&inst).unwrap();
        let err = observe_repack_suite(&PolicyKind::DurationClassFirstFit, &mut source, &totals)
            .unwrap_err();
        assert!(matches!(
            err,
            StreamError::Feed(dvbp_core::LiveError::Clairvoyant { .. })
        ));
        assert_eq!(totals.into_inner().unwrap()[0].1.runs, 0);
    }

    #[test]
    fn an_undrained_stream_leaves_the_suite_untouched() {
        let arrival = dvbp_core::LiveOp::Arrive {
            item: 0,
            size: DimVec::scalar(1),
            time: 5,
        };
        let mut source = Script(DimVec::scalar(10), vec![arrival].into_iter());
        let totals = suite(&[RepackPolicy::NoRepack]);
        let err = observe_repack_suite(&PolicyKind::FirstFit, &mut source, &totals).unwrap_err();
        assert_eq!(
            err,
            StreamError::Feed(dvbp_core::LiveError::StillActive { active: 1 })
        );
        assert_eq!(totals.into_inner().unwrap()[0].1.runs, 0);
    }

    /// A scripted event feed.
    struct Script(DimVec, std::vec::IntoIter<dvbp_core::LiveOp>);

    impl EventSource for Script {
        fn capacity(&self) -> &DimVec {
            &self.0
        }
        fn next_event(&mut self) -> Result<Option<dvbp_core::LiveOp>, dvbp_core::SourceError> {
            Ok(self.1.next())
        }
    }

    #[test]
    fn failed_stream_leaves_the_aggregate_untouched() {
        // An out-of-order feed is rejected mid-stream; nothing partial
        // may leak into the totals.
        let backwards = [5, 3]
            .map(|time| dvbp_core::LiveOp::Arrive {
                item: time as usize,
                size: DimVec::scalar(1),
                time,
            })
            .to_vec();
        let mut source = Script(DimVec::scalar(10), backwards.into_iter());
        let agg = Mutex::new(Aggregate::new());
        assert!(observe_source_run(&PolicyKind::FirstFit, &mut source, &agg).is_err());
        let agg = agg.into_inner().unwrap();
        assert_eq!(agg.runs, 0);
        assert_eq!(agg.usage_time, 0);
        assert_eq!(agg.running_cr(), 1.0);
    }
}
