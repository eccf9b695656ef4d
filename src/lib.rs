//! **dvbp** — MinUsageTime Dynamic Vector Bin Packing.
//!
//! A reproduction of *"Dynamic Vector Bin Packing for Online Resource
//! Allocation in the Cloud"* (Murhekar, Arbour, Mai, Rao — SPAA 2023):
//! online Any Fit packing algorithms for jobs with `d`-dimensional
//! resource demands and unknown departure times, minimizing total server
//! usage time, together with the paper's lower-bound constructions,
//! offline optimum machinery, workload generators, and experiment
//! harness.
//!
//! This crate is a facade: it re-exports the public API of the workspace
//! crates so applications can depend on a single name.
//!
//! ```
//! use dvbp::prelude::*;
//!
//! let instance = Instance::new(
//!     DimVec::from_slice(&[100, 100]),
//!     vec![Item::new(DimVec::from_slice(&[70, 30]), 0, 10)],
//! )
//! .unwrap();
//! let packing = PackRequest::new(PolicyKind::MoveToFront)
//!     .run(&instance)
//!     .unwrap();
//! assert_eq!(packing.cost(), 10);
//!
//! // Cost-only runs skip trace recording (and, with a reused
//! // `dvbp::Engine`, allocate nothing per arrival). Observers hook the
//! // engine's event stream without touching the unobserved fast path:
//! let mut metrics = dvbp::obs::MetricsObserver::new();
//! let cost = PackRequest::new(PolicyKind::MoveToFront)
//!     .observer(&mut metrics)
//!     .cost(&instance)
//!     .unwrap();
//! assert_eq!(cost, 10);
//! assert_eq!(metrics.max_concurrent_bins(), 1);
//! ```
//!
//! # Module map
//!
//! | Re-export | Source crate | Contents |
//! |---|---|---|
//! | [`DimVec`], [`norms`] | `dvbp-dimvec` | integer resource vectors |
//! | [`sim`] | `dvbp-sim` | intervals, timeline, sweep-line |
//! | core types at the root | `dvbp-core` | items, engine, policies |
//! | [`obs`] | `dvbp-obs` | observers: metrics, histograms, JSONL |
//! | [`offline`] | `dvbp-offline` | Lemma 1 bounds, exact OPT |
//! | [`workloads`] | `dvbp-workloads` | uniform + adversarial generators |
//! | [`analysis`] | `dvbp-analysis` | decompositions, stats, reports |
//! | [`parallel`] | `dvbp-parallel` | deterministic trial runner |
//! | [`traces`] | `dvbp-traces` | streaming cluster-trace ingestion |

pub mod tracefile;

pub use dvbp_core::{
    live_ops, LiveDeparture, LiveDriveStats, LiveEngine, LiveError, LiveMigration, LivePlacement,
    LiveRequest, ParseRepackError, RepackPolicy, TimeMode,
};
pub use dvbp_core::{
    BillingModel, BinId, BinUsage, Decision, Engine, EngineView, Instance, InstanceError, Item,
    LoadMeasure, NoopObserver, Observer, PackError, PackRequest, Packing, Policy, PolicyKind,
    TraceEvent, TraceMode,
};
pub use dvbp_core::{
    EventSource, InstanceSource, LiveOp, SourceError, StreamError, StreamingLowerBound, Tap,
};
pub use dvbp_dimvec::DimVec;

/// One-line import for the common API surface:
/// `use dvbp::prelude::*;`.
pub mod prelude {
    pub use dvbp_core::{
        Instance, Item, LiveEngine, LiveRequest, Observer, PackError, PackRequest, Packing, Policy,
        PolicyKind, RepackPolicy, TimeMode, TraceMode,
    };
    pub use dvbp_dimvec::DimVec;
}

/// Norms of normalized load vectors (Proposition 1).
pub mod norms {
    pub use dvbp_dimvec::{linf, lp_f64, lp_slices, ratio_linf, ratio_linf_slices};
}

/// Time model, intervals, and sweep-line utilities.
pub mod sim {
    pub use dvbp_sim::*;
}

/// Engine observability: metrics, histograms, and JSONL event streams
/// attachable to any [`PackRequest`] via
/// [`observer`](PackRequest::observer).
pub mod obs {
    pub use dvbp_obs::*;
}

/// Offline machinery: Lemma 1 lower bounds, exact vector bin packing,
/// the OPT integral, and witness verification.
pub mod offline {
    pub use dvbp_offline::*;
}

/// Workload generators: the paper's uniform model, the §6 adversarial
/// families, extended distributions, and duration announcements.
pub mod workloads {
    pub use dvbp_workloads::*;
}

/// Shadow-policy portfolio dispatch: cost-only candidate engines
/// mirroring the live stream, plus a meta-policy that may switch the
/// live policy at bin-close boundaries.
pub mod portfolio {
    pub use dvbp_portfolio::*;
}

/// Packing analyses: proof decompositions, statistics, report tables.
pub mod analysis {
    pub use dvbp_analysis::*;
}

/// Deterministic parallel trial running.
pub mod parallel {
    pub use dvbp_parallel::*;
}

/// Streaming trace ingestion: Azure/Google cluster-trace parsers, the
/// native CSV stream, and constant-memory synthetic generators.
pub mod traces {
    pub use dvbp_traces::*;
}
