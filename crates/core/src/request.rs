//! [`PackRequest`]: the unified entry point to the packing engine.
//!
//! The engine's surface had fragmented into `pack` / `pack_with` /
//! `pack_with_mode` / `pack_cost`; this builder collapses them into one
//! request object that also carries the run's [`TraceMode`] and an
//! optional [`Observer`]:
//!
//! ```
//! use dvbp_core::{Instance, Item, PackRequest, PolicyKind, TraceMode};
//! use dvbp_dimvec::DimVec;
//!
//! let instance = Instance::new(
//!     DimVec::from_slice(&[10]),
//!     vec![Item::new(DimVec::from_slice(&[6]), 0, 4)],
//! )
//! .unwrap();
//!
//! // Full run, observed:
//! let mut metrics = dvbp_obs::MetricsObserver::new();
//! let packing = PackRequest::new(PolicyKind::MoveToFront)
//!     .observer(&mut metrics)
//!     .run(&instance)
//!     .unwrap();
//! assert_eq!(packing.num_bins(), 1);
//! assert_eq!(metrics.max_concurrent_bins(), 1);
//!
//! // Cost-only sweep (no trace, allocation-free hot loop):
//! let cost = PackRequest::new(PolicyKind::MoveToFront)
//!     .trace_mode(TraceMode::CostOnly)
//!     .cost(&instance)
//!     .unwrap();
//! assert_eq!(cost, 4);
//! ```
//!
//! Malformed instances surface as a typed [`PackError`] instead of the
//! panics the old entry points raised.

use crate::engine::{Engine, Packing, TraceMode};
use crate::item::Instance;
use crate::policy::{Policy, PolicyKind};
use crate::source::{check_streamable, EventSource, StreamError};
use dvbp_obs::{NoopObserver, Observer};
use dvbp_sim::Cost;

/// A malformed item, as [`Instance::new`], [`PackRequest::run`] and
/// every streamed admission report it.
///
/// Each variant names the first offending item index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PackError {
    /// The item exceeds the bin capacity in some dimension — it can
    /// never be placed.
    OversizedItem {
        /// Offending item index.
        item: usize,
    },
    /// The item's dimensionality differs from the capacity's.
    DimMismatch {
        /// Offending item index.
        item: usize,
    },
    /// The item has zero size in every dimension; such items are free
    /// and make μ and the competitive ratio degenerate.
    ZeroSizeItem {
        /// Offending item index.
        item: usize,
    },
    /// The item's departure tick is not after its arrival tick (active
    /// intervals must be non-empty and forward in time).
    NonMonotoneTime {
        /// Offending item index.
        item: usize,
    },
    /// A departure was observed for an item that never arrived — a
    /// malformed event stream (unreachable for instances that pass
    /// validation; kept as a typed defense for replayed traces).
    UnknownDeparture {
        /// Offending item index.
        item: usize,
    },
}

impl std::fmt::Display for PackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PackError::OversizedItem { item } => {
                write!(f, "item {item}: larger than bin capacity in some dimension")
            }
            PackError::DimMismatch { item } => {
                write!(f, "item {item}: dimension mismatch with capacity")
            }
            PackError::ZeroSizeItem { item } => write!(f, "item {item}: zero size"),
            PackError::NonMonotoneTime { item } => {
                write!(f, "item {item}: departure not after arrival")
            }
            PackError::UnknownDeparture { item } => {
                write!(f, "item {item}: departure without a prior arrival")
            }
        }
    }
}

impl std::error::Error for PackError {}

/// What drives the bin-selection decisions of a request.
enum PolicySource<'a> {
    /// Build a fresh policy from a descriptor at run time.
    Kind(PolicyKind),
    /// Use a caller-owned policy (reset by the engine before the run).
    Borrowed(&'a mut (dyn Policy + 'a)),
}

/// A configured packing run: policy, trace mode, observer.
///
/// Build with [`PackRequest::new`] (from a [`PolicyKind`]) or
/// [`PackRequest::with_policy`] (from a caller-owned [`Policy`]), refine
/// with the chained setters, and execute with [`run`](Self::run) /
/// [`run_on`](Self::run_on) / [`cost`](Self::cost).
///
/// The observer type parameter defaults to [`NoopObserver`]; the engine
/// monomorphizes over it, so an unobserved request compiles to the same
/// hot loop as before the observability layer existed.
pub struct PackRequest<'a, O: Observer = NoopObserver> {
    policy: PolicySource<'a>,
    mode: TraceMode,
    observer: Option<&'a mut O>,
}

impl<'a> PackRequest<'a, NoopObserver> {
    /// A request packing with a fresh policy built from `kind`, in
    /// [`TraceMode::Full`], unobserved.
    #[must_use]
    pub fn new(kind: PolicyKind) -> Self {
        PackRequest {
            policy: PolicySource::Kind(kind),
            mode: TraceMode::Full,
            observer: None,
        }
    }

    /// A request driving a caller-owned policy (stateful policies can be
    /// inspected after the run; the engine still `reset()`s it first).
    #[must_use]
    pub fn with_policy(policy: &'a mut (dyn Policy + 'a)) -> Self {
        PackRequest {
            policy: PolicySource::Borrowed(policy),
            mode: TraceMode::Full,
            observer: None,
        }
    }
}

impl<'a, O: Observer> PackRequest<'a, O> {
    /// Sets how much per-run bookkeeping the engine records.
    #[must_use]
    pub fn trace_mode(mut self, mode: TraceMode) -> Self {
        self.mode = mode;
        self
    }

    /// Attaches an observer; its hooks fire at every engine event.
    ///
    /// A request carries one observer — compose several with the tuple
    /// impls (`(A, B)`, `(A, B, C)`) from `dvbp-obs`.
    #[must_use]
    pub fn observer<P: Observer>(self, observer: &'a mut P) -> PackRequest<'a, P> {
        PackRequest {
            policy: self.policy,
            mode: self.mode,
            observer: Some(observer),
        }
    }

    /// Runs the request on a fresh [`Engine`].
    ///
    /// # Errors
    ///
    /// Returns a [`PackError`] for a malformed instance.
    pub fn run(self, instance: &Instance) -> Result<Packing, PackError> {
        self.run_on(&mut Engine::new(), instance)
    }

    /// Runs the request on a caller-owned [`Engine`], reusing its
    /// arenas — the allocation-free path for experiment sweeps.
    ///
    /// # Errors
    ///
    /// Returns a [`PackError`] for a malformed instance.
    pub fn run_on(self, engine: &mut Engine, instance: &Instance) -> Result<Packing, PackError> {
        let mode = self.mode;
        let mut built;
        let policy: &mut dyn Policy = match self.policy {
            PolicySource::Kind(kind) => {
                built = kind.build();
                built.as_mut()
            }
            PolicySource::Borrowed(policy) => policy,
        };
        match self.observer {
            Some(observer) => engine.run(instance, policy, mode, observer),
            None => engine.run(instance, policy, mode, &mut NoopObserver),
        }
    }

    /// Runs the request over a streamed event feed on a fresh
    /// [`Engine`] — the streaming twin of [`run`](Self::run), never
    /// materializing an instance. An
    /// [`InstanceSource`](crate::InstanceSource) feed reproduces the
    /// batch run bit-for-bit.
    ///
    /// # Errors
    ///
    /// [`StreamError::Feed`] with
    /// [`LiveError::Clairvoyant`](crate::LiveError::Clairvoyant) when
    /// the request's [`PolicyKind`] needs announced durations (streamed
    /// items have none; a [`with_policy`](Self::with_policy) request
    /// carries that responsibility itself), plus the source and feed
    /// errors of [`Engine::run_source`].
    pub fn run_source<S: EventSource + ?Sized>(
        self,
        source: &mut S,
    ) -> Result<Packing, StreamError> {
        self.run_source_on(&mut Engine::new(), source)
    }

    /// Runs the request over a streamed event feed on a caller-owned
    /// [`Engine`], reusing its arenas.
    ///
    /// # Errors
    ///
    /// As for [`run_source`](Self::run_source).
    pub fn run_source_on<S: EventSource + ?Sized>(
        self,
        engine: &mut Engine,
        source: &mut S,
    ) -> Result<Packing, StreamError> {
        if let PolicySource::Kind(kind) = &self.policy {
            check_streamable(kind)?;
        }
        let mode = self.mode;
        let mut built;
        let policy: &mut dyn Policy = match self.policy {
            PolicySource::Kind(kind) => {
                built = kind.build();
                built.as_mut()
            }
            PolicySource::Borrowed(policy) => policy,
        };
        match self.observer {
            Some(observer) => engine.run_source(source, policy, mode, observer),
            None => engine.run_source(source, policy, mode, &mut NoopObserver),
        }
    }

    /// Runs the request in [`TraceMode::CostOnly`] and returns only the
    /// usage-time cost. Placement decisions — and therefore the cost —
    /// are identical to a full run.
    ///
    /// # Errors
    ///
    /// Returns a [`PackError`] for a malformed instance.
    pub fn cost(self, instance: &Instance) -> Result<Cost, PackError> {
        Ok(self.trace_mode(TraceMode::CostOnly).run(instance)?.cost())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::Item;
    use crate::policy::first_fit::FirstFit;
    use crate::BinId;
    use dvbp_dimvec::DimVec;

    fn item(size: &[u64], a: u64, e: u64) -> Item {
        Item::new(DimVec::from_slice(size), a, e)
    }

    fn inst(cap: &[u64], items: Vec<Item>) -> Instance {
        Instance::new(DimVec::from_slice(cap), items).unwrap()
    }

    #[test]
    fn builder_matches_legacy_entry_points() {
        let instance = inst(
            &[10, 10],
            vec![
                item(&[7, 2], 0, 10),
                item(&[2, 7], 2, 5),
                item(&[3, 3], 4, 6),
            ],
        );
        let legacy = crate::engine::pack(&instance, &mut FirstFit::new());
        let built = PackRequest::new(PolicyKind::FirstFit)
            .run(&instance)
            .unwrap();
        assert_eq!(built, legacy);

        let cost = PackRequest::new(PolicyKind::FirstFit)
            .cost(&instance)
            .unwrap();
        assert_eq!(cost, legacy.cost());

        let lean = PackRequest::new(PolicyKind::FirstFit)
            .trace_mode(TraceMode::CostOnly)
            .run(&instance)
            .unwrap();
        assert_eq!(lean.assignment, legacy.assignment);
        assert!(lean.trace.is_empty());
    }

    #[test]
    fn borrowed_policy_keeps_state_accessible() {
        let instance = inst(&[10], vec![item(&[6], 0, 4), item(&[6], 1, 3)]);
        let mut policy = crate::policy::move_to_front::MoveToFront::new();
        let p = PackRequest::with_policy(&mut policy)
            .run(&instance)
            .unwrap();
        assert_eq!(p.num_bins(), 2);
        assert!(policy.order().is_empty(), "all bins closed");
    }

    #[test]
    fn oversized_item_is_a_typed_error() {
        let instance = Instance {
            capacity: DimVec::from_slice(&[10]),
            items: vec![item(&[11], 0, 4)],
        };
        assert_eq!(
            PackRequest::new(PolicyKind::FirstFit).run(&instance),
            Err(PackError::OversizedItem { item: 0 })
        );
    }

    #[test]
    fn non_monotone_time_is_a_typed_error() {
        // `Item::new` rejects this shape, so build the struct directly —
        // the path a deserialized or hand-built trace would take.
        let bad = Item {
            size: DimVec::from_slice(&[5]),
            arrival: 7,
            departure: 7,
            announced_duration: None,
        };
        let instance = Instance {
            capacity: DimVec::from_slice(&[10]),
            items: vec![item(&[5], 0, 4), bad],
        };
        assert_eq!(
            PackRequest::new(PolicyKind::FirstFit).run(&instance),
            Err(PackError::NonMonotoneTime { item: 1 })
        );
    }

    #[test]
    fn dim_mismatch_and_zero_size_are_typed_errors() {
        let mismatch = Instance {
            capacity: DimVec::from_slice(&[10, 10]),
            items: vec![item(&[5], 0, 4)],
        };
        assert_eq!(
            PackRequest::new(PolicyKind::FirstFit).run(&mismatch),
            Err(PackError::DimMismatch { item: 0 })
        );
        let zero = Instance {
            capacity: DimVec::from_slice(&[10]),
            items: vec![Item {
                size: DimVec::from_slice(&[0]),
                arrival: 0,
                departure: 4,
                announced_duration: None,
            }],
        };
        assert_eq!(
            PackRequest::new(PolicyKind::FirstFit).run(&zero),
            Err(PackError::ZeroSizeItem { item: 0 })
        );
    }

    #[test]
    fn error_messages_name_the_item() {
        for (err, needle) in [
            (PackError::OversizedItem { item: 3 }, "item 3"),
            (PackError::DimMismatch { item: 1 }, "mismatch"),
            (PackError::ZeroSizeItem { item: 0 }, "zero"),
            (PackError::NonMonotoneTime { item: 2 }, "departure"),
            (PackError::UnknownDeparture { item: 5 }, "arrival"),
        ] {
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    #[test]
    fn observer_sees_the_run() {
        let instance = inst(&[10], vec![item(&[6], 0, 4), item(&[6], 1, 3)]);
        let mut rec = dvbp_obs::Recorder::new();
        let p = PackRequest::new(PolicyKind::FirstFit)
            .observer(&mut rec)
            .run(&instance)
            .unwrap();
        assert_eq!(p.assignment, vec![BinId(0), BinId(1)]);
        // RunStart, 2×(Arrival+BinOpen+Place), 2×Depart, 2×BinClose, RunEnd.
        assert_eq!(rec.events.len(), 12);
        assert!(matches!(
            rec.events.last(),
            Some(dvbp_obs::ObsEvent::RunEnd { bins: 2, .. })
        ));
    }

    #[test]
    fn engine_reuse_via_run_on() {
        let instance = inst(&[10], vec![item(&[6], 0, 4), item(&[6], 1, 3)]);
        let mut engine = Engine::new();
        let a = PackRequest::new(PolicyKind::FirstFit)
            .run_on(&mut engine, &instance)
            .unwrap();
        let b = PackRequest::new(PolicyKind::FirstFit)
            .run_on(&mut engine, &instance)
            .unwrap();
        assert_eq!(a, b);
    }
}
