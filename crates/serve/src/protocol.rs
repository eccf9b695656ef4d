//! The wire protocol: newline-delimited JSON over TCP.
//!
//! One [`Request`] per line in, one [`Response`] per line out, in
//! order. Requests are externally tagged JSON — the exact grammar is
//! documented in DESIGN.md ("Serving & durability"); a session looks
//! like:
//!
//! ```text
//! > {"Arrive":{"id":"vm-1","size":[2,3],"time":0}}
//! < {"Placed":{"id":"vm-1","shard":0,"item":0,"bin":0,"opened_new":true,"time":0}}
//! > {"Depart":{"id":"vm-1","time":5}}
//! < {"Departed":{"id":"vm-1","shard":0,"item":0,"bin":0,"closed":true,"time":5}}
//! > "Query"
//! < {"Status":{...}}
//! ```
//!
//! Identifiers are client-chosen opaque strings and are *permanent*:
//! re-using a departed item's id is rejected (`duplicate-id`), which is
//! what makes blind client retries after a crash idempotent.

use serde::{Deserialize, Serialize};

/// One client request (one JSON value per line).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Request {
    /// Admit an item under a client-chosen id.
    Arrive {
        /// Client-chosen opaque identifier, unique for the lifetime of
        /// the service.
        id: String,
        /// Resource demand vector (must match the service dimension).
        size: Vec<u64>,
        /// Arrival tick.
        time: u64,
    },
    /// Retire a previously admitted item.
    Depart {
        /// The id given at arrival.
        id: String,
        /// Departure tick.
        time: u64,
    },
    /// Snapshot of service totals and per-shard state.
    Query,
    /// Stop the service gracefully (persist WALs, exit accept loop).
    Shutdown,
}

/// Machine-readable rejection categories carried by [`Response::Error`].
pub mod error_code {
    /// The id is already in use (or was used by a departed item).
    pub const DUPLICATE_ID: &str = "duplicate-id";
    /// Departure for an id that never arrived.
    pub const UNKNOWN_ID: &str = "unknown-id";
    /// Departure for an id that already departed.
    pub const ALREADY_DEPARTED: &str = "already-departed";
    /// The item itself is invalid (dimension, oversized, zero size).
    pub const INVALID_ITEM: &str = "invalid-item";
    /// Strict time mode rejected the timestamp.
    pub const OUT_OF_ORDER: &str = "out-of-order";
    /// The write-ahead log failed; the shard no longer accepts writes.
    pub const WAL: &str = "wal";
    /// The shard failed (its shadow worker died, or a request panicked
    /// while holding its lock); it refuses every request.
    pub const SHARD_FAILED: &str = "shard-failed";
    /// The portfolio layer rejected the configuration or operation.
    pub const PORTFOLIO: &str = "portfolio";
    /// The request line did not parse.
    pub const BAD_REQUEST: &str = "bad-request";
    /// The service is shutting down.
    pub const SHUTTING_DOWN: &str = "shutting-down";
    /// The connection stalled mid-request past the read timeout.
    pub const TIMEOUT: &str = "timeout";
}

/// One service response (one JSON value per line, matching the request
/// order).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// The arrival was journaled and placed.
    Placed {
        /// Echo of the request id.
        id: String,
        /// Shard that owns the item.
        shard: usize,
        /// Shard-local dense item index.
        item: usize,
        /// Shard-local receiving bin index.
        bin: usize,
        /// Whether the bin was opened for this item.
        opened_new: bool,
        /// Effective tick (may exceed the request's in clamp mode).
        time: u64,
    },
    /// The departure was journaled and applied.
    Departed {
        /// Echo of the request id.
        id: String,
        /// Shard that owned the item.
        shard: usize,
        /// Shard-local item index.
        item: usize,
        /// Shard-local bin index departed from.
        bin: usize,
        /// Whether the departure closed the bin.
        closed: bool,
        /// Repack migrations this departure triggered (see
        /// `--repack`); 0 unless a repacking policy is active.
        migrations: u64,
        /// Effective tick.
        time: u64,
    },
    /// Snapshot answering [`Request::Query`].
    Status(ServeStatus),
    /// The request was rejected; no state changed.
    Error {
        /// One of the [`error_code`] constants.
        code: String,
        /// Human-readable cause.
        message: String,
    },
    /// Shutdown acknowledged; the connection closes after this line.
    ShuttingDown,
}

/// One applied policy switch, as journaled in the WAL (a `PolicySwitch`
/// line) and reproduced by the recovery replay.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SwitchEntry {
    /// Tick of the triggering bin close.
    pub time: u64,
    /// Outgoing policy (round-trippable spelling).
    pub from: String,
    /// Incoming policy (round-trippable spelling).
    pub to: String,
}

/// One shadow engine's scoreboard row: the cost its candidate policy
/// would have accumulated over the shard's accepted stream, plus the
/// stream's shared Lemma-1 lower bound.
///
/// Both values are decimal strings for the same reason `usage_time` is
/// (`u128` totals exceed exact JSON numbers).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShadowStatus {
    /// Candidate policy (round-trippable spelling).
    pub policy: String,
    /// The shadow's accumulated usage time at the shard's current tick.
    pub cost: String,
    /// The stream's Lemma-1 lower bound (shared by all shadows).
    pub lb: String,
}

impl ShadowStatus {
    /// Running competitive ratio, cold-start neutral: `1.0` until the
    /// lower bound is positive (never NaN or infinite).
    #[must_use]
    pub fn running_cr(&self) -> f64 {
        let cost = self.cost.parse::<u128>().unwrap_or(0);
        let lb = self.lb.parse::<u128>().unwrap_or(0);
        dvbp_sim::cost_ratio(cost, lb)
    }
}

/// Service-wide snapshot: totals plus one [`ShardStatus`] per shard.
///
/// `usage_time` values are decimal strings — they are `u128` bin-tick
/// totals that can exceed what JSON numbers represent exactly (same
/// convention as `dvbp-monitor`'s `/status`).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeStatus {
    /// Policy display name (the *configured* policy; under a portfolio,
    /// shards report their current policy in their own slice).
    pub policy: String,
    /// Meta-policy display name (`off` when no portfolio is running).
    pub meta: String,
    /// Policy switches applied over all shards since boot (including
    /// replayed ones).
    pub policy_switches: u64,
    /// Repack policy display name (`none`, `drain:K`, `defrag:B:P`).
    pub repack: String,
    /// Router display name (`hash`, `round-robin`, `least-loaded`).
    pub router: String,
    /// Number of shards.
    pub shards: usize,
    /// Items admitted over all shards.
    pub arrivals: u64,
    /// Items departed over all shards.
    pub departures: u64,
    /// Items currently active.
    pub active_items: u64,
    /// Bins currently open.
    pub open_bins: u64,
    /// Bins ever opened.
    pub bins_opened: u64,
    /// Repack migrations executed over all shards.
    pub migrations: u64,
    /// Total migration cost (L1 item size per defrag move, 1 per drain
    /// move) over all shards.
    pub migration_cost: u64,
    /// Total usage time at each shard's current tick, as a decimal
    /// string (the MinUsageTime objective; `Σ` over shards).
    pub usage_time: String,
    /// WAL lines written since boot (excludes recovered lines).
    pub wal_lines: u64,
    /// Events replayed from the WAL at boot.
    pub recovered_events: u64,
    /// Highest current tick over all shards.
    pub last_time: u64,
    /// Whether shutdown was requested.
    pub shutting_down: bool,
    /// Per-shard state, indexed by shard id.
    pub per_shard: Vec<ShardStatus>,
}

/// One shard's slice of the [`ServeStatus`].
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardStatus {
    /// Shard index.
    pub shard: usize,
    /// The policy currently driving this shard's live engine
    /// (round-trippable spelling; equals the configured policy unless a
    /// meta-policy switched it).
    pub policy: String,
    /// Policy switches applied on this shard (including replayed ones).
    pub policy_switches: u64,
    /// Applied switches in order, replay-identical after recovery.
    pub switch_history: Vec<SwitchEntry>,
    /// Shadow scoreboard rows, in candidate order (empty without a
    /// portfolio).
    pub shadows: Vec<ShadowStatus>,
    /// Items admitted.
    pub arrivals: u64,
    /// Items departed.
    pub departures: u64,
    /// Items currently active.
    pub active_items: u64,
    /// Bins currently open.
    pub open_bins: u64,
    /// Bins ever opened.
    pub bins_opened: u64,
    /// Repack migrations executed.
    pub migrations: u64,
    /// Total migration cost.
    pub migration_cost: u64,
    /// Usage time at the shard's current tick, as a decimal string.
    pub usage_time: String,
    /// WAL lines written since boot.
    pub wal_lines: u64,
    /// The shard's current tick.
    pub last_time: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_as_single_json_lines() {
        let reqs = [
            Request::Arrive {
                id: "vm-1".into(),
                size: vec![2, 3],
                time: 0,
            },
            Request::Depart {
                id: "vm-1".into(),
                time: 5,
            },
            Request::Query,
            Request::Shutdown,
        ];
        for req in reqs {
            let line = serde_json::to_string(&req).unwrap();
            assert!(!line.contains('\n'));
            let back: Request = serde_json::from_str(&line).unwrap();
            assert_eq!(back, req);
        }
    }

    #[test]
    fn unit_requests_are_bare_strings() {
        // The nc-friendly spelling: `"Query"` on a line by itself.
        assert_eq!(
            serde_json::from_str::<Request>("\"Query\"").unwrap(),
            Request::Query
        );
        assert_eq!(
            serde_json::from_str::<Request>("\"Shutdown\"").unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn responses_round_trip() {
        let status = ServeStatus {
            policy: "FirstFit".into(),
            meta: "off".into(),
            policy_switches: 0,
            repack: "drain:2".into(),
            router: "hash".into(),
            shards: 2,
            arrivals: 3,
            departures: 1,
            active_items: 2,
            open_bins: 1,
            bins_opened: 2,
            migrations: 1,
            migration_cost: 1,
            usage_time: "12".into(),
            wal_lines: 9,
            recovered_events: 0,
            last_time: 7,
            shutting_down: false,
            per_shard: vec![ShardStatus {
                shard: 0,
                policy: "FirstFit".into(),
                policy_switches: 0,
                switch_history: Vec::new(),
                shadows: Vec::new(),
                arrivals: 2,
                departures: 1,
                active_items: 1,
                open_bins: 1,
                bins_opened: 1,
                migrations: 1,
                migration_cost: 1,
                usage_time: "8".into(),
                wal_lines: 5,
                last_time: 7,
            }],
        };
        let resps = [
            Response::Placed {
                id: "a".into(),
                shard: 0,
                item: 0,
                bin: 0,
                opened_new: true,
                time: 0,
            },
            Response::Status(status),
            Response::Error {
                code: error_code::DUPLICATE_ID.into(),
                message: "id a in use".into(),
            },
            Response::ShuttingDown,
        ];
        for resp in resps {
            let line = serde_json::to_string(&resp).unwrap();
            let back: Response = serde_json::from_str(&line).unwrap();
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn shadow_status_cr_is_cold_start_finite() {
        let cold = ShadowStatus {
            policy: "FirstFit".into(),
            cost: "0".into(),
            lb: "0".into(),
        };
        assert_eq!(cold.running_cr(), 1.0);
        let warm = ShadowStatus {
            policy: "NextFit".into(),
            cost: "30".into(),
            lb: "20".into(),
        };
        assert!((warm.running_cr() - 1.5).abs() < 1e-12);
        let line = serde_json::to_string(&warm).unwrap();
        assert_eq!(serde_json::from_str::<ShadowStatus>(&line).unwrap(), warm);
        let switch = SwitchEntry {
            time: 7,
            from: "NextFit".into(),
            to: "RandomFit:3".into(),
        };
        let line = serde_json::to_string(&switch).unwrap();
        assert_eq!(serde_json::from_str::<SwitchEntry>(&line).unwrap(), switch);
    }
}
