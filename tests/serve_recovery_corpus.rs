//! Tier-1 serving-path replay: every corpus instance goes through the
//! layer-8 serve conformance check with the **exhaustive** crash plan —
//! a one-shard `dvbp-serve` run must be bit-identical to the batch
//! engine, and crash recovery from *every* WAL event boundary (plus a
//! torn mid-line cut inside every line) must converge to the same final
//! state.
//!
//! The differential corpus test (`conformance_corpus.rs`) already runs
//! the serve layer for the full policy suite with sampled cuts; this
//! test pays for exhaustive cuts on a representative policy spread
//! (scan-order, index-backed, load-ranked, and cursor-based selection)
//! so every boundary of every committed log is a verified recovery
//! point on each `cargo test`.

use dvbp_conformance::serve::{self, CrashPlan};
use dvbp_core::{LoadMeasure, PolicyKind};
use std::path::PathBuf;

fn corpus_files() -> Vec<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("tests/corpus must exist")
        .map(|e| e.expect("readable corpus dir").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    files
}

#[test]
fn every_corpus_wal_boundary_is_a_verified_recovery_point() {
    let kinds = [
        PolicyKind::FirstFit,
        PolicyKind::BestFit(LoadMeasure::Linf),
        PolicyKind::NextFit,
    ];
    for path in corpus_files() {
        let inst = dvbp::tracefile::load_instance(&path)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        for kind in &kinds {
            serve::check_policy(&inst, kind, CrashPlan::Exhaustive)
                .unwrap_or_else(|d| panic!("{}: {d}", path.display()));
        }
    }
}

#[test]
fn crash_corpus_entries_are_committed() {
    let on_disk: Vec<String> = corpus_files()
        .iter()
        .filter_map(|p| p.file_stem().and_then(|s| s.to_str()).map(String::from))
        .collect();
    let crash_entries: Vec<_> = dvbp_conformance::corpus::seed_corpus()
        .into_iter()
        .map(|(n, _)| n)
        .filter(|n| n.starts_with("crash-wal-"))
        .collect();
    assert!(
        crash_entries.len() >= 2,
        "the crash-recovery corpus must keep its curated entries"
    );
    for name in crash_entries {
        assert!(
            on_disk.iter().any(|s| s == name),
            "crash corpus entry '{name}' missing from tests/corpus; \
             regenerate with: cargo run -p dvbp-conformance -- --write-seed-corpus"
        );
    }
}
