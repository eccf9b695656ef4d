//! WAL and reply bytes, held to committed golden files.
//!
//! The zipf corpus trace (`tests/corpus/zipf-bursty.json`, 40 items) is
//! driven through [`ServeState::handle`] in three shard configurations —
//! plain FirstFit, FirstFit with `drain:1` repacking, and FirstFit under
//! the paper-suite portfolio with `best-of:1` switching — followed by
//! ten refused requests and a final `Query`. For one shard the test
//! compares the WAL and the reply stream with `tests/golden/<config>.wal`
//! and `.replies` byte for byte; for two shards it compares each file's
//! byte length and FNV-1a digest with `tests/golden/two-shards.txt`.
//! The committed WALs must also still recover: a log written by an
//! older build boots a newer one.
//!
//! After an intended format change, regenerate the files with
//! `cargo test -p dvbp-serve --test golden_bytes -- --ignored regenerate`.

use dvbp_core::{EventSource, InstanceSource, LiveOp, PolicyKind, RepackPolicy, TimeMode};
use dvbp_core::{Instance, TraceMode};
use dvbp_dimvec::DimVec;
use dvbp_obs::SyncPolicy;
use dvbp_portfolio::MetaPolicy;
use dvbp_serve::router::RouterKind;
use dvbp_serve::{fnv1a, load_instance, recover, PortfolioConfig, Request, ServeState, Shard};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

const REGENERATE: &str = "cargo test -p dvbp-serve --test golden_bytes -- --ignored regenerate";

struct Config {
    name: &'static str,
    repack: RepackPolicy,
    portfolio: Option<PortfolioConfig>,
}

fn configs() -> Vec<Config> {
    vec![
        Config {
            name: "plain",
            repack: RepackPolicy::NoRepack,
            portfolio: None,
        },
        Config {
            name: "drain1",
            repack: RepackPolicy::DrainOnDepart { k: 1 },
            portfolio: None,
        },
        Config {
            name: "best-of1",
            repack: RepackPolicy::NoRepack,
            portfolio: Some(PortfolioConfig {
                candidates: dvbp_portfolio::parse_candidates("paper").unwrap(),
                meta: MetaPolicy::BestOf { window: 1 },
            }),
        },
    ]
}

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn corpus() -> Instance {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus/zipf-bursty.json");
    load_instance(&path).unwrap()
}

/// The corpus in canonical event order, then ten requests every shard
/// refuses, then `Query`.
fn requests(instance: &Instance) -> Vec<Request> {
    let mut source = InstanceSource::new(instance).unwrap();
    let mut reqs = Vec::new();
    let mut last = 0;
    while let Some(op) = source.next_event().unwrap() {
        reqs.push(match op {
            LiveOp::Arrive { item, size, time } => Request::Arrive {
                id: format!("item-{item}"),
                size: size.as_slice().to_vec(),
                time,
            },
            LiveOp::Depart { item, time } => {
                last = time;
                Request::Depart {
                    id: format!("item-{item}"),
                    time,
                }
            }
        });
    }
    let arrive = |id: &str, size: &[u64], time| Request::Arrive {
        id: id.into(),
        size: size.to_vec(),
        time,
    };
    let depart = |id: &str, time| Request::Depart {
        id: id.into(),
        time,
    };
    reqs.extend([
        arrive("item-0", &[1, 1], last),         // duplicate-id
        depart("ghost", last),                   // unknown-id
        depart("item-0", last),                  // already-departed
        arrive("wide", &[1, 1, 1], last),        // wrong dimension
        arrive("huge", &[11, 1], last),          // larger than a bin
        arrive("empty", &[0, 0], last),          // zero size
        arrive("tall", &[1, 11], last),          // larger than a bin
        arrive("late", &[1, 1], 0),              // behind the clock
        depart("item-39", last),                 // already departed
        arrive("item-\"quoted\"\n", &[1, 1], 0), // escaped id, behind the clock
    ]);
    reqs.push(Request::Query);
    reqs
}

/// Drives `reqs` through a fresh in-memory service and returns its
/// shards with the reply stream (one JSON line per request).
fn run(cfg: &Config, shards: usize, reqs: &[Request]) -> (Vec<Shard<Vec<u8>>>, Vec<u8>) {
    let state = ServeState::in_memory(
        &DimVec::from_slice(&[10, 10]),
        &PolicyKind::FirstFit,
        cfg.repack,
        shards,
        RouterKind::Hash,
        TraceMode::CostOnly,
        TimeMode::Strict,
        SyncPolicy::PerEvent,
        cfg.portfolio.as_ref(),
    )
    .unwrap();
    let mut replies = String::new();
    for req in reqs {
        replies.push_str(&serde_json::to_string(&state.handle(req)).unwrap());
        replies.push('\n');
    }
    (state.into_shards(), replies.into_bytes())
}

/// Every file the test compares: `(name, bytes)` for one shard, and the
/// two-shard digest table.
fn outputs() -> (Vec<(String, Vec<u8>)>, String) {
    let instance = corpus();
    let reqs = requests(&instance);
    let mut files = Vec::new();
    let mut digests = String::new();
    for cfg in configs() {
        let (mut shards, replies) = run(&cfg, 1, &reqs);
        files.push((
            format!("{}.wal", cfg.name),
            shards.remove(0).into_wal_bytes(),
        ));
        files.push((format!("{}.replies", cfg.name), replies));
        let (shards, replies) = run(&cfg, 2, &reqs);
        let named = shards
            .into_iter()
            .enumerate()
            .map(|(s, shard)| {
                (
                    format!("{}.shard-{s}.wal", cfg.name),
                    shard.into_wal_bytes(),
                )
            })
            .chain([(format!("{}.replies", cfg.name), replies)]);
        for (name, bytes) in named {
            let _ = writeln!(digests, "{name} {} {:016x}", bytes.len(), fnv1a(&bytes));
        }
    }
    (files, digests)
}

/// The first line where `got` and `want` differ, for the failure text.
fn first_difference(got: &[u8], want: &[u8]) -> String {
    let got = String::from_utf8_lossy(got);
    let want = String::from_utf8_lossy(want);
    let mut got_lines = got.lines();
    let mut want_lines = want.lines();
    for line in 1.. {
        match (got_lines.next(), want_lines.next()) {
            (None, None) => break,
            (g, w) if g != w => {
                return format!(
                    "line {line}:\n  committed: {}\n  now:       {}",
                    w.unwrap_or("<end of file>"),
                    g.unwrap_or("<end of file>")
                );
            }
            _ => {}
        }
    }
    "the files differ only in their line endings".into()
}

#[test]
fn wal_and_reply_bytes_match_the_golden_files() {
    let (files, digests) = outputs();
    let dir = golden_dir();
    for (name, bytes) in &files {
        let want = std::fs::read(dir.join(name))
            .unwrap_or_else(|e| panic!("read {name}: {e}; regenerate with `{REGENERATE}`"));
        assert!(
            *bytes == want,
            "{name} differs from the committed file at {}\nregenerate with `{REGENERATE}`",
            first_difference(bytes, &want)
        );
    }
    let want = std::fs::read_to_string(dir.join("two-shards.txt")).unwrap();
    assert!(
        digests == want,
        "two-shard digests differ at {}\nregenerate with `{REGENERATE}`",
        first_difference(digests.as_bytes(), want.as_bytes())
    );
}

#[test]
fn the_golden_wals_recover() {
    let instance = corpus();
    let reqs = requests(&instance);
    for cfg in configs() {
        let path = golden_dir().join(format!("{}.wal", cfg.name));
        let bytes = std::fs::read(&path).unwrap();
        let lines = bytes.iter().filter(|&&b| b == b'\n').count() as u64;
        let rec = recover(
            &bytes,
            &DimVec::from_slice(&[10, 10]),
            &PolicyKind::FirstFit,
            cfg.repack,
            TraceMode::CostOnly,
            TimeMode::Strict,
            cfg.portfolio.as_ref(),
        )
        .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(rec.events_applied, lines, "{}", cfg.name);
        assert_eq!(rec.valid_bytes, bytes.len() as u64, "{}", cfg.name);
        assert_eq!((rec.dropped_events, rec.torn_bytes), (0, 0), "{}", cfg.name);
        // The recovered engine is the one the requests built.
        let live = run(&cfg, 1, &reqs).0.remove(0).into_live();
        assert_eq!(rec.names.len(), 40, "{}", cfg.name);
        assert_eq!(rec.live.now(), live.now(), "{}", cfg.name);
        assert_eq!(rec.live.kind(), live.kind(), "{}", cfg.name);
        assert_eq!(
            rec.live.usage_time_at(live.now()),
            live.usage_time_at(live.now()),
            "{}",
            cfg.name
        );
        assert_eq!(rec.live.bins_opened(), live.bins_opened(), "{}", cfg.name);
        assert_eq!(rec.live.migrations(), live.migrations(), "{}", cfg.name);
    }
}

#[test]
#[ignore = "writes the golden files; run after an intended format change"]
fn regenerate() {
    let (files, digests) = outputs();
    let dir = golden_dir();
    std::fs::create_dir_all(&dir).unwrap();
    for (name, bytes) in files {
        std::fs::write(dir.join(name), bytes).unwrap();
    }
    std::fs::write(dir.join("two-shards.txt"), digests).unwrap();
}
