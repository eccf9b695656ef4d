//! Core library for **MinUsageTime Dynamic Vector Bin Packing** (DVBP).
//!
//! This crate implements the online packing model of
//! *"Dynamic Vector Bin Packing for Online Resource Allocation in the
//! Cloud"* (Murhekar, Arbour, Mai, Rao — SPAA 2023):
//!
//! * items (jobs/VM requests) with `d`-dimensional integer resource
//!   demands arrive online and must be dispatched immediately and
//!   irrevocably to a bin (server) with sufficient residual capacity in
//!   every dimension;
//! * items depart at times unknown in advance (non-clairvoyant);
//! * the objective is the **total usage time** of all bins — the
//!   "pay-as-you-go" server rental cost (eq. 1 of the paper).
//!
//! # Quick start
//!
//! ```
//! use dvbp_core::{Instance, Item, PackRequest, PolicyKind};
//! use dvbp_dimvec::DimVec;
//!
//! // Two-dimensional bins (say CPU and memory), capacity 100 each.
//! let instance = Instance::new(
//!     DimVec::from_slice(&[100, 100]),
//!     vec![
//!         Item::new(DimVec::from_slice(&[60, 20]), 0, 10),
//!         Item::new(DimVec::from_slice(&[50, 30]), 2, 8),
//!         Item::new(DimVec::from_slice(&[30, 70]), 4, 12),
//!     ],
//! )
//! .unwrap();
//!
//! let packing = PackRequest::new(PolicyKind::MoveToFront)
//!     .run(&instance)
//!     .unwrap();
//! packing.verify(&instance).unwrap();
//! assert_eq!(packing.num_bins(), 2);
//! println!("usage-time cost: {}", packing.cost());
//! ```
//!
//! Every run goes through [`PackRequest`], which also selects the
//! [`TraceMode`] and attaches [`Observer`]s (metrics, histograms, JSONL
//! event logs — see `dvbp-obs`). The seven algorithms of the paper's
//! experimental study are available through [`PolicyKind::paper_suite`];
//! custom policies implement [`Policy`].
//!
//! Bin selection belongs to the engine, not the policies: First, Last,
//! Best, Worst and Random Fit each make one feasibility query on the
//! [`EngineView`]. It answers with a vectorized block scan of a
//! dimension-major residual mirror ([`ResidualBlocks`]) or, from a
//! measured per-dimension crossover in open bins on, with an 8-ary
//! max-residual tree whose leaf level is that mirror. Every route
//! selects the same bins and reports the same scan counts ([`FitPath`]).

pub mod billing;
mod bin;
mod block_scan;
mod engine;
mod fit_index;
mod hybrid;
mod item;
mod live;
pub mod policy;
pub mod repack;
mod request;
mod source;

pub use billing::BillingModel;
pub use bin::{BinId, BinUsage};
pub use block_scan::{ResidualBlocks, LANES};
pub use dvbp_obs::{NoopObserver, Observer};
pub use engine::{Engine, EngineView, FitPath, Packing, TraceEvent, TraceMode};
pub use item::{Instance, Item};
pub use live::{
    live_ops, LiveDeparture, LiveDriveStats, LiveEngine, LiveError, LiveMigration, LiveOp,
    LivePlacement, LiveRequest, TimeMode,
};
pub use policy::{Decision, LoadMeasure, Policy, PolicyKind};
pub use repack::{ParseRepackError, RepackPolicy};
pub use request::{PackError, PackRequest};
pub use source::{EventSource, InstanceSource, SourceError, StreamError, StreamingLowerBound, Tap};

/// Compile-time feature summary for build-info exposition
/// (`dvbp_build_info{features=…}` in the serving and monitor crates).
#[must_use]
pub fn enabled_features() -> &'static str {
    if cfg!(feature = "scalar-scan") {
        "scalar-scan"
    } else {
        "default"
    }
}

/// The block-scan kernel the engine's dispatcher picks on this machine,
/// by the same run-time test: `avx2`, `neon` or `portable`, and `scalar`
/// in `scalar-scan` builds, which never reach the kernel.
#[must_use]
pub fn simd_backend() -> &'static str {
    if cfg!(feature = "scalar-scan") {
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

#[cfg(test)]
mod proptests;

#[cfg(test)]
mod cross_policy_tests {
    use super::*;
    use dvbp_dimvec::DimVec;

    fn pack_with(instance: &Instance, kind: &PolicyKind) -> Packing {
        PackRequest::new(kind.clone()).run(instance).unwrap()
    }

    fn item(size: &[u64], a: u64, e: u64) -> Item {
        Item::new(DimVec::from_slice(size), a, e)
    }

    /// A moderately complex instance exercised by every paper policy.
    fn mixed_instance() -> Instance {
        let mut items = Vec::new();
        // Three waves of overlapping items of varied shapes.
        for w in 0..3u64 {
            let t = w * 10;
            items.push(item(&[40, 10], t, t + 15));
            items.push(item(&[25, 60], t + 1, t + 6));
            items.push(item(&[70, 20], t + 2, t + 4));
            items.push(item(&[10, 10], t + 3, t + 30));
            items.push(item(&[55, 55], t + 4, t + 9));
        }
        Instance::new(DimVec::from_slice(&[100, 100]), items).unwrap()
    }

    #[test]
    fn every_paper_policy_produces_valid_packing() {
        let inst = mixed_instance();
        for kind in PolicyKind::paper_suite(12345) {
            let p = pack_with(&inst, &kind);
            p.verify(&inst)
                .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
            if kind.is_full_candidate_any_fit() {
                p.verify_any_fit(&inst)
                    .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
            }
            // Cost can never be below the instance span (one bin must be
            // open whenever an item is active).
            assert!(p.cost() >= inst.span(), "{}: cost below span", kind.name());
        }
    }

    #[test]
    fn policies_disagree_on_purpose() {
        // Sanity: FF and MTF produce different assignments on an instance
        // designed to separate them (MRU differs from earliest-open).
        let inst = Instance::new(
            DimVec::scalar(10),
            vec![item(&[6], 0, 9), item(&[6], 1, 9), item(&[4], 2, 5)],
        )
        .unwrap();
        let ff = pack_with(&inst, &PolicyKind::FirstFit);
        let mtf = pack_with(&inst, &PolicyKind::MoveToFront);
        assert_eq!(ff.assignment[2], BinId(0));
        assert_eq!(mtf.assignment[2], BinId(1));
    }

    #[test]
    fn pack_with_is_deterministic() {
        let inst = mixed_instance();
        for kind in PolicyKind::paper_suite(7) {
            let a = pack_with(&inst, &kind);
            let b = pack_with(&inst, &kind);
            assert_eq!(a, b, "{} not deterministic", kind.name());
        }
    }
}
