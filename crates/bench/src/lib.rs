//! Shared fixtures for the Criterion benchmarks and the bench binaries.
//!
//! Each paper artifact has a bench target mirroring its experiment
//! binary at reduced scale, plus throughput/ablation benches for the
//! design choices called out in DESIGN.md:
//!
//! * `fig4_average_case` — grid-point evaluation cost (workload
//!   generation + 7 packings + LB).
//! * `table1_bounds` — adversarial construction, packing, and witness
//!   certification.
//! * `throughput` — packing throughput per policy across `n` and `d`.
//! * `ablation_bestfit` — Best Fit under the §2.2 load measures.
//! * `opt_solver` — exact branch-and-bound vs FFD on static VBP.
//!
//! The bench binaries (`src/bin/bench_*.rs`) share the [`ledger`]; the
//! two CR frontiers (`bench_repack`, `bench_portfolio`) also share the
//! trace families of [`family_instance`] and the cost-only live drive
//! [`live_cost`].

use dvbp_core::{Instance, InstanceSource, Item, LiveRequest, PolicyKind, RepackPolicy, TraceMode};
use dvbp_dimvec::DimVec;
use dvbp_traces::{Diurnal, HeavyTail};
use dvbp_workloads::extended::{ArrivalDist, DurationDist, ExtendedParams, SizeDist};
use dvbp_workloads::UniformParams;

pub mod ledger;

/// A standard benchmark instance: Table 2 shape scaled to `n` items.
#[must_use]
pub fn bench_instance(d: usize, n: usize, mu: u64, seed: u64) -> Instance {
    let span = (n as u64).max(mu + 1);
    UniformParams {
        dims: d,
        items: n,
        mu,
        span,
        bin_size: 100,
    }
    .generate(seed)
}

/// The seed of every trace family.
pub const FAMILY_SEED: u64 = 7;

/// Generates one two-dimensional trace family at size `n`:
///
/// * `uniform` — the Table 2 shape ([`bench_instance`]): stationary, few
///   large items per bin, so departures routinely strand one or two
///   stragglers (the `DrainOnDepart` regime).
/// * `zipf-bursty` — heavy-tailed sizes in bursty waves over small bins:
///   utilization whipsaws, the best policy changes across the run, and
///   only close-paced defrag sweeps find whole bins to drain.
/// * `diurnal` — day/night arrival waves (`dvbp-traces` synth): long
///   quiet troughs where bins drain and close, a meta-policy's natural
///   decision points.
/// * `heavy-tail` — Pareto lifetimes: a few stragglers pin bins open,
///   punishing policies that scatter long-lived items.
///
/// # Panics
///
/// On any other family name.
#[must_use]
pub fn family_instance(family: &str, n: usize) -> Instance {
    let synth = |items: dvbp_traces::ItemIter, capacity: DimVec| {
        let items: Vec<Item> = items.map(|(a, d, size)| Item::new(size, a, d)).collect();
        Instance::new(capacity, items).expect("synth instance valid")
    };
    let capacity = DimVec::from_slice(&[10, 10]);
    match family {
        "uniform" => bench_instance(2, n, (n as u64) / 10, FAMILY_SEED),
        "zipf-bursty" => ExtendedParams {
            base: UniformParams {
                dims: 2,
                items: n,
                mu: 20,
                span: (n as u64) / 2,
                bin_size: 10,
            },
            sizes: SizeDist::Zipf { exponent: 1.2 },
            durations: DurationDist::Geometric { p: 0.3 },
            arrivals: ArrivalDist::Bursty { waves: 6, width: 3 },
        }
        .generate(FAMILY_SEED),
        "diurnal" => synth(
            Diurnal::new(n, capacity.clone(), FAMILY_SEED).items(),
            capacity,
        ),
        "heavy-tail" => {
            let mut gen = HeavyTail::new(n, capacity.clone(), FAMILY_SEED);
            gen.max_duration = 2_000;
            synth(gen.items(), capacity)
        }
        other => panic!("unknown trace family {other}"),
    }
}

/// Drives `inst` through one cost-only [`LiveEngine`](dvbp_core::LiveEngine)
/// placing with `kind` and repacking with `repack`, and returns `(cost,
/// migrations, migration_cost)`: the MinUsageTime cost of the final
/// packing (migrations included), the items moved and the migration
/// cost charged (unit per drain move, L1 size per defrag move).
///
/// # Panics
///
/// If `kind` is clairvoyant (the live engine refuses it).
#[must_use]
pub fn live_cost(inst: &Instance, kind: &PolicyKind, repack: RepackPolicy) -> (u64, u64, u64) {
    let mut live = LiveRequest::new(kind.clone())
        .capacity(inst.capacity.clone())
        .trace_mode(TraceMode::CostOnly)
        .items_hint(inst.items.len())
        .repack(repack)
        .build()
        .expect("bench kinds are non-clairvoyant");
    let mut source = InstanceSource::new(inst).expect("bench instance valid");
    live.drive_source(&mut source).expect("live drive succeeds");
    let (migrations, migration_cost) = (live.migrations(), live.migration_cost());
    let packing = live.into_packing().expect("all items departed");
    let cost = u64::try_from(packing.cost()).expect("bench costs fit in u64");
    (cost, migrations, migration_cost)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_is_valid_and_sized() {
        let inst = bench_instance(3, 250, 20, 9);
        assert_eq!(inst.len(), 250);
        assert_eq!(inst.dim(), 3);
        inst.validate().unwrap();
    }
}
