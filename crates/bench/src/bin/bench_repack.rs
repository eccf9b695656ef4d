//! CR-vs-migration-cost frontier emitter: every repack policy in a
//! budget ladder (none → drain:k → budgeted defrag) driven live over
//! two trace families, written as `BENCH_repack.json`. Each (family, n)
//! cell is one pass of one [`EngineSet`] over the instance, with one
//! candidate per (kind, repack) row: a candidate's cost and migrations
//! equal those of a standalone cost-only live engine.
//!
//! Each row is one deterministic live run — no wall-clock timing — so
//! the artifact is exactly reproducible: `cost` (the MinUsageTime
//! objective of the final packing, migrations included), the offline
//! load lower bound `lb_load`, their ratio `cr`, and the migration
//! counters the policy spent to get there. Reading a family's rows
//! top-to-bottom is the frontier: how much competitive ratio each
//! marginal unit of migration budget buys.
//!
//! Because the rows are deterministic, the gate is equality: `--check`
//! fails unless every row equals its committed row, and `cargo test`
//! runs the full grid against `BENCH_repack.json` the same way, so a
//! change to packing regenerates the artifact in the same commit.
//!
//! Usage (see `dvbp_bench::ledger`):
//!   bench_repack [--scale full|smoke] [--out FILE] [--check]

use dvbp_bench::ledger::{self, Cli, Provenance, Scale};
use dvbp_bench::{family_instance, FAMILY_SEED};
use dvbp_core::{EngineSet, InstanceSource, PolicyKind, RepackPolicy, TimeMode};
use dvbp_offline::lower_bounds::lb_load;
use dvbp_sim::cost_ratio;
use serde::{Deserialize, Serialize};
use std::process::ExitCode;

/// One live run's outcome on the frontier.
#[derive(Debug, Serialize, Deserialize)]
struct Entry {
    /// Stable identity: `family/kind/repack/d<D>/n<N>`.
    key: String,
    family: String,
    policy: String,
    repack: String,
    d: usize,
    n: usize,
    seed: u64,
    /// MinUsageTime cost of the final packing (migrations included).
    cost: u64,
    /// Offline load lower bound of the instance (eq. 2).
    lb_load: u64,
    /// `cost / lb_load` — the row's empirical competitive ratio.
    cr: f64,
    /// Items moved by the repack policy over the run.
    migrations: u64,
    /// Total migration cost charged (unit per drain move, L1 size per
    /// defrag move).
    migration_cost: u64,
}

#[derive(Debug, Serialize, Deserialize)]
struct Report {
    schema: String,
    scale: String,
    provenance: Option<Provenance>,
    entries: Vec<Entry>,
}

/// The migration-budget ladder, cheapest first. `none` anchors the
/// irrevocable baseline every other row is read against.
const REPACKS: [RepackPolicy; 6] = [
    RepackPolicy::NoRepack,
    RepackPolicy::DrainOnDepart { k: 1 },
    RepackPolicy::DrainOnDepart { k: 2 },
    RepackPolicy::DrainOnDepart { k: 4 },
    RepackPolicy::BudgetedDefrag {
        budget: 32,
        period: 4,
    },
    RepackPolicy::BudgetedDefrag {
        budget: 128,
        period: 2,
    },
];

/// Placement kinds on the frontier (non-clairvoyant — the live engine
/// rejects duration-announced kinds).
fn kinds() -> [PolicyKind; 2] {
    [
        PolicyKind::FirstFit,
        PolicyKind::BestFit(dvbp_core::LoadMeasure::Linf),
    ]
}

/// `(family, n)` grid per scale; the smoke grid is a subset of the full
/// grid, so every smoke row has a committed counterpart.
fn grid(scale: Scale) -> Vec<(&'static str, usize)> {
    match scale {
        Scale::Smoke => vec![("uniform", 600), ("zipf-bursty", 600)],
        Scale::Full => vec![
            ("uniform", 600),
            ("uniform", 2400),
            ("zipf-bursty", 600),
            ("zipf-bursty", 2400),
        ],
    }
}

fn run_grid(scale: Scale) -> Vec<Entry> {
    let mut entries = Vec::new();
    for (family, n) in grid(scale) {
        let inst = family_instance(family, n);
        let d = inst.dim();
        let lb = u64::try_from(lb_load(&inst)).expect("bench bounds fit in u64");
        let candidates: Vec<(PolicyKind, RepackPolicy)> = kinds()
            .into_iter()
            .flat_map(|kind| REPACKS.map(|repack| (kind.clone(), repack)))
            .collect();
        let mut set = EngineSet::new(&inst.capacity, TimeMode::Strict, &candidates, inst.len())
            .expect("bench kinds are non-clairvoyant");
        let mut source = InstanceSource::new(&inst).expect("bench instance valid");
        set.drive_source(&mut source).expect("live drive succeeds");
        let end = set.end().expect("all items departed");
        let runs = set.costs_at(end).zip(set.migrations());
        for ((kind, repack), (cost, (migrations, migration_cost))) in
            candidates.into_iter().zip(runs)
        {
            let cost = u64::try_from(cost).expect("bench costs fit in u64");
            if repack == RepackPolicy::NoRepack {
                assert_eq!(migrations, 0, "NoRepack migrated");
            }
            let cr = cost_ratio(cost.into(), lb.into());
            eprintln!(
                "{family}/{}/{} n={n}: cr {cr:.4} ({migrations} moves, cost {migration_cost})",
                kind.name(),
                repack.name()
            );
            entries.push(Entry {
                key: format!("{family}/{}/{}/d{d}/n{n}", kind.name(), repack.name()),
                family: family.to_string(),
                policy: kind.name(),
                repack: repack.name(),
                d,
                n,
                seed: FAMILY_SEED,
                cost,
                lb_load: lb,
                cr,
                migrations,
                migration_cost,
            });
        }
    }
    entries
}

fn main() -> ExitCode {
    let bench = |scale: Scale, provenance| Report {
        schema: "dvbp-bench-repack/1".to_string(),
        scale: scale.name().to_string(),
        provenance: Some(provenance),
        entries: run_grid(scale),
    };
    let gate = |run: &Report, committed: &Report| ledger::exact(&run.entries, &committed.entries);
    ledger::run_against_committed(&Cli::parse("repack", &[]), bench, gate)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_grid_is_a_subset_of_the_full_grid() {
        let full = grid(Scale::Full);
        assert!(grid(Scale::Smoke).iter().all(|cell| full.contains(cell)));
    }

    /// The frontier is deterministic: the full grid must reproduce
    /// `BENCH_repack.json` row for row.
    #[test]
    fn full_grid_reproduces_the_committed_rows() {
        let committed: Report = ledger::read(&ledger::committed_path("repack")).unwrap();
        ledger::assert_golden("repack", &run_grid(Scale::Full), &committed.entries);
    }
}
