//! **dvbp-serve**: a sharded online dispatch service over the
//! MinUsageTime DVBP engine, with write-ahead-log durability and crash
//! recovery.
//!
//! The batch crates replay complete instances; this crate turns the
//! same engine into a long-lived *service*: items arrive and depart
//! over a newline-delimited-JSON TCP protocol ([`protocol`]), a router
//! ([`router`]) spreads them over `N` independent engine shards, and
//! every accepted operation is journaled to a per-shard write-ahead log
//! in the `dvbp-obs` JSONL event format *before* it is acknowledged
//! ([`shard`]). After a crash, [`recovery`] replays each log's requests
//! through a shard whose writes are checked byte for byte against the
//! log, back to **bit-identical** in-memory state — the conformance
//! harness holds a one-shard service to exact equality with the batch
//! engine, at every possible crash point.
//!
//! ```text
//!        TCP (NDJSON + HTTP operator routes)
//!                      │
//!                 [server::serve]
//!                      │ route(id)
//!            ┌─────────┼─────────┐
//!        [Shard 0] [Shard 1] [Shard N-1]     shard = LiveEngine + WAL
//!            │         │         │
//!        shard-000  shard-001  shard-…  .wal  (JSONL ObsEvent groups)
//! ```
//!
//! See DESIGN.md ("Serving & durability") for the WAL group grammar and
//! the recovery contract.

pub mod client;
pub mod protocol;
pub mod recovery;
pub mod router;
pub mod server;
pub mod shard;
pub mod spans;
pub mod wal;

pub use client::{load_instance, Client, DriveReport};
/// The shared operator-surface client (see [`dvbp_obs::expo`]).
pub use dvbp_obs::expo::http_get;
pub use protocol::{Request, Response, ServeStatus, ShadowStatus, ShardStatus, SwitchEntry};
pub use recovery::{recover, Recovered, RecoveryError};
pub use router::{fnv1a, Router, RouterKind};
pub use server::{serve, ServeState, DEFAULT_READ_TIMEOUT_MS};
pub use shard::{PortfolioConfig, Shard, ShardError};
pub use spans::{parse_histograms, render_spans_table, ScrapedHistogram, SpanHub};
pub use wal::{open_shard, shard_wal_path, RecoveryReport, WalOpenError};
