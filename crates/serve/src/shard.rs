//! One dispatch shard: a [`LiveEngine`] fronted by a write-ahead log.
//!
//! Every accepted operation is journaled to the shard's WAL — in the
//! `dvbp-obs` [`ObsEvent`] JSONL format — *before* the shard
//! acknowledges it, so a restart can replay the log back to the exact
//! in-memory state (see [`crate::recovery`]).
//!
//! # WAL groups
//!
//! [`Shard::arrive`] and [`Shard::depart`] are the only definition of
//! the log's format: recovery parses no groups, it replays the log's
//! requests through these two methods and checks that they write the
//! log again byte for byte. The log is a header followed by the lines
//! each accepted request writes:
//!
//! ```text
//! header        := RunStart{capacity, items: 0}
//! arrival group := Ident{item, id}  Arrival{time, item, size}
//!                  BinOpen{time, bin}?            // iff a bin was opened
//!                  Place{time, item, bin, opened_new, scanned: 0}
//! depart group  := Depart{time, item, bin}
//!                  BinClose{time, bin}?           // iff the bin closed
//!                  ( Migrate{time, item, from, to}
//!                    BinClose{time, bin: from}? )*  // repack moves
//!                  PolicySwitch{time, from, to}?  // iff the closes
//!                                                 // tripped the meta-policy
//! ```
//!
//! The configured [`SyncPolicy`] is applied at the last line of each
//! group (so `batch:N` counts *operations*, not lines); a switching
//! depart commits its depart lines, then its `PolicySwitch` line, and
//! is acknowledged after both. Migration lines and the switch line
//! belong to the departure that caused them: repacking and the
//! [`MetaPolicy`] are deterministic given the shard's state, so a log
//! that ends inside a request's lines means the request, with its
//! migrations and switch, was never acknowledged, and recovery rolls it
//! back whole.
//!
//! # Ordering
//!
//! Apply-then-journal: the engine decides the placement first (the
//! journal needs the chosen bin), the group is written and persisted
//! per policy, and only then is the operation acknowledged. If the WAL
//! write fails after the engine applied, the shard **poisons** itself —
//! it rejects all further mutations — so the unacknowledged divergence
//! between memory and log can never grow; a restart recovers the
//! pre-operation state, which is correct because the operation was
//! never acked.
//!
//! A portfolio shard hands each journaled operation to its shadow
//! worker thread and does not wait for it (see
//! [`dvbp_portfolio::PortfolioState`]); only a meta-policy evaluation or
//! a status read waits for the worker to catch up. A dead worker fails
//! the shard like a WAL failure: every later request is refused with
//! [`ShardError::Failed`].

use crate::protocol::{ShadowStatus, ShardStatus, SwitchEntry};
use dvbp_core::{
    LiveDeparture, LiveEngine, LiveError, LivePlacement, LiveRequest, PolicyKind, RepackPolicy,
    TimeMode, TraceMode,
};
use dvbp_dimvec::DimVec;
use dvbp_obs::{JsonlEmitter, ObsEvent, Span, StableWrite, Stage, SyncPolicy};
use dvbp_portfolio::{MetaPolicy, PortfolioError, PortfolioState};
use dvbp_sim::Time;
use std::collections::HashMap;
use std::sync::Arc;

/// The service-level portfolio configuration: which candidates to
/// shadow and which [`MetaPolicy`] decides switches. One config is
/// shared by every shard (each shard runs its own independent
/// [`PortfolioState`] over its own stream).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PortfolioConfig {
    /// Candidate policies (the live policy is added when missing).
    pub candidates: Vec<PolicyKind>,
    /// The switching discipline.
    pub meta: MetaPolicy,
}

/// Ends the current stage on a span that may not be there. The traced
/// and untraced request paths share one implementation; with `None`
/// every mark is a no-op branch.
pub(crate) fn mark(span: &mut Option<&mut Span>, stage: Stage) {
    if let Some(s) = span {
        s.mark(stage);
    }
}

/// A rejected shard operation. The shard state is unchanged except for
/// [`ShardError::Wal`] and [`ShardError::Failed`], which mean the shard
/// refuses every later request (see module docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardError {
    /// The arrival id is already in use (ids are permanent — departed
    /// items keep theirs, which is what makes client retries safe).
    DuplicateId {
        /// The rejected id.
        id: String,
    },
    /// Departure for an id this shard has never admitted.
    UnknownId {
        /// The unknown id.
        id: String,
    },
    /// Departure for an id that already departed.
    AlreadyDeparted {
        /// The repeated id.
        id: String,
    },
    /// The live engine rejected the operation (validation, time
    /// discipline).
    Live(LiveError),
    /// The portfolio configuration was rejected (clairvoyant candidate,
    /// empty candidate list).
    Portfolio {
        /// The rendered [`PortfolioError`].
        msg: String,
    },
    /// The write-ahead log failed; the shard no longer accepts writes.
    Wal {
        /// The latched emitter error, rendered.
        msg: String,
    },
    /// The shard failed: its shadow worker died, or a request panicked
    /// while holding the shard's lock. It refuses every request.
    Failed {
        /// What failed, rendered.
        msg: String,
    },
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::DuplicateId { id } => write!(f, "id {id:?} already in use"),
            ShardError::UnknownId { id } => write!(f, "unknown id {id:?}"),
            ShardError::AlreadyDeparted { id } => write!(f, "id {id:?} already departed"),
            ShardError::Live(e) => write!(f, "{e}"),
            ShardError::Portfolio { msg } => write!(f, "portfolio rejected: {msg}"),
            ShardError::Wal { msg } => write!(f, "write-ahead log failed: {msg}"),
            ShardError::Failed { msg } => write!(f, "shard failed: {msg}"),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<LiveError> for ShardError {
    fn from(e: LiveError) -> Self {
        ShardError::Live(e)
    }
}

impl From<PortfolioError> for ShardError {
    fn from(e: PortfolioError) -> Self {
        match e {
            PortfolioError::Live(e) => ShardError::Live(e),
            PortfolioError::Shadows { .. } => ShardError::Failed { msg: e.to_string() },
            other => ShardError::Portfolio {
                msg: other.to_string(),
            },
        }
    }
}

/// An external item id: one allocation, shared by a shard's two id
/// tables.
pub type ItemId = Arc<str>;

/// One dispatch shard: live engine, WAL, and the id ↔ run-local-index
/// tables.
pub struct Shard<W: StableWrite> {
    live: LiveEngine,
    wal: JsonlEmitter<W>,
    /// Shadow portfolio + meta-policy state; `None` runs the classic
    /// single-policy shard byte-identically.
    portfolio: Option<PortfolioState>,
    /// External id → run-local item index. Entries are permanent.
    ids: HashMap<ItemId, usize>,
    /// Run-local item index → external id: the same shared allocation
    /// as the id's key in `ids`.
    names: Vec<ItemId>,
    arrivals: u64,
    departures: u64,
    /// Events replayed from the WAL at construction (0 for a fresh
    /// shard).
    recovered_events: u64,
    poisoned: bool,
    /// The arrival group's `Ident` and `Arrival` lines, rewritten in
    /// place for each arrival so their id string and size vector are
    /// allocated once per shard, not once per arrival.
    ident_line: ObsEvent,
    arrival_line: ObsEvent,
}

/// The reusable `Ident` and `Arrival` lines of a fresh shard.
fn arrival_lines() -> (ObsEvent, ObsEvent) {
    (
        ObsEvent::Ident {
            item: 0,
            id: String::new(),
        },
        ObsEvent::Arrival {
            time: 0,
            item: 0,
            size: Vec::new(),
        },
    )
}

impl<W: StableWrite> Shard<W> {
    /// Creates a fresh shard over an empty WAL sink and journals the
    /// header line. With a [`PortfolioConfig`], every candidate gets a
    /// cost-only shadow engine and the config's meta-policy may switch
    /// the live policy at bin-close boundaries (journaled as
    /// `PolicySwitch` lines).
    ///
    /// # Errors
    ///
    /// [`ShardError::Live`] for clairvoyant policy kinds (live or
    /// candidate); [`ShardError::Wal`] if the header cannot be
    /// persisted.
    #[allow(clippy::too_many_arguments)] // the shard's full configuration surface
    pub fn create(
        capacity: DimVec,
        kind: &PolicyKind,
        repack: RepackPolicy,
        trace: TraceMode,
        time_mode: TimeMode,
        sink: W,
        sync: SyncPolicy,
        portfolio: Option<&PortfolioConfig>,
    ) -> Result<Self, ShardError> {
        let live = LiveRequest::new(kind.clone())
            .capacity(capacity)
            .trace_mode(trace)
            .time_mode(time_mode)
            .repack(repack)
            .build()?;
        let portfolio = portfolio
            .map(|cfg| {
                PortfolioState::new(
                    &live.capacity().clone(),
                    live.time_mode(),
                    &cfg.candidates,
                    live.kind(),
                    cfg.meta,
                    0,
                )
            })
            .transpose()?;
        let mut wal = JsonlEmitter::new(sink).with_sync(sync);
        let header = ObsEvent::RunStart {
            capacity: live.capacity().as_slice().to_vec(),
            items: 0,
        };
        if !wal.emit_durable(&header) {
            return Err(wal_error(&wal));
        }
        let (ident_line, arrival_line) = arrival_lines();
        Ok(Shard {
            live,
            wal,
            portfolio,
            ids: HashMap::new(),
            names: Vec::new(),
            arrivals: 0,
            departures: 0,
            recovered_events: 0,
            poisoned: false,
            ident_line,
            arrival_line,
        })
    }

    /// Re-assembles a shard from recovered state (see
    /// [`crate::recovery::recover`]) and a WAL emitter positioned at the
    /// end of the log's valid prefix. `portfolio` is the recovery's
    /// replayed portfolio state (switch history and shadow costs are
    /// replay-identical to the pre-crash process).
    pub fn resume(
        live: LiveEngine,
        ids: HashMap<ItemId, usize>,
        names: Vec<ItemId>,
        recovered_events: u64,
        wal: JsonlEmitter<W>,
        portfolio: Option<PortfolioState>,
    ) -> Self {
        let departures = names
            .iter()
            .enumerate()
            .filter(|&(item, _)| live.has_departed(item))
            .count() as u64;
        let (ident_line, arrival_line) = arrival_lines();
        Shard {
            arrivals: names.len() as u64,
            departures,
            live,
            wal,
            portfolio,
            ids,
            names,
            recovered_events,
            poisoned: false,
            ident_line,
            arrival_line,
        }
    }

    /// Names the shard's shadow worker thread after shard `index`
    /// (`dvbp-shadows-<index>`); call before the first request.
    pub(crate) fn label(&mut self, index: usize) {
        if let Some(pf) = self.portfolio.as_mut() {
            pf.label(index);
        }
    }

    /// Why the shard refuses requests: a WAL failure or a dead shadow
    /// worker. `None` while it serves.
    #[must_use]
    pub(crate) fn failure(&self) -> Option<ShardError> {
        if self.poisoned {
            return Some(wal_error(&self.wal));
        }
        let pf = self.portfolio.as_ref()?;
        pf.failure().map(ShardError::from)
    }

    fn check_writable(&self) -> Result<(), ShardError> {
        self.failure().map_or(Ok(()), Err)
    }

    /// Admits an item under `id`, journals the arrival group, and
    /// returns the placement.
    ///
    /// # Errors
    ///
    /// [`ShardError::DuplicateId`] for a reused id (including departed
    /// items' ids); [`ShardError::Live`] for engine rejections (state
    /// unchanged); [`ShardError::Wal`] if journaling fails (shard
    /// poisons).
    pub fn arrive(
        &mut self,
        id: &str,
        size: DimVec,
        time: Time,
    ) -> Result<LivePlacement, ShardError> {
        self.arrive_impl(id, size, time, None)
    }

    /// [`arrive`](Shard::arrive), with per-stage latency attribution
    /// when a span is given: the engine's placement lands in
    /// `dispatch`, the group's journal writes in `wal_append`, and the
    /// commit-line durability point in `wal_sync`. Identical decisions,
    /// WAL bytes, and errors — timing is observational only.
    pub(crate) fn arrive_impl(
        &mut self,
        id: &str,
        size: DimVec,
        time: Time,
        mut span: Option<&mut Span>,
    ) -> Result<LivePlacement, ShardError> {
        self.check_writable()?;
        if self.ids.contains_key(id) {
            return Err(ShardError::DuplicateId { id: id.to_string() });
        }
        if let ObsEvent::Arrival { size: units, .. } = &mut self.arrival_line {
            units.clear();
            units.extend_from_slice(size.as_slice());
        }
        let mirror_size = self.portfolio.as_ref().map(|_| size.clone());
        let placed = self.live.arrive(size, time)?;
        mark(&mut span, Stage::Dispatch);
        if let ObsEvent::Ident { item, id: text } = &mut self.ident_line {
            *item = placed.item;
            text.clear();
            text.push_str(id);
        }
        if let ObsEvent::Arrival { time, item, .. } = &mut self.arrival_line {
            *time = placed.time;
            *item = placed.item;
        }
        self.wal.emit(&self.ident_line);
        self.wal.emit(&self.arrival_line);
        if placed.opened_new {
            self.wal.emit(&ObsEvent::BinOpen {
                time: placed.time,
                bin: placed.bin.0,
            });
        }
        self.wal.emit(&ObsEvent::Place {
            time: placed.time,
            item: placed.item,
            bin: placed.bin.0,
            opened_new: placed.opened_new,
            scanned: 0,
        });
        mark(&mut span, Stage::WalAppend);
        let committed = self.wal.commit();
        mark(&mut span, Stage::WalSync);
        if !committed {
            self.poisoned = true;
            return Err(wal_error(&self.wal));
        }
        let id: ItemId = Arc::from(id);
        self.ids.insert(Arc::clone(&id), placed.item);
        self.names.push(id);
        self.arrivals += 1;
        if let (Some(pf), Some(sz)) = (self.portfolio.as_mut(), mirror_size.as_ref()) {
            pf.on_arrive(sz, placed.time)?;
        }
        Ok(placed)
    }

    /// Retires the item admitted under `id`, journals the depart group,
    /// and returns the departure.
    ///
    /// # Errors
    ///
    /// [`ShardError::UnknownId`] / [`ShardError::AlreadyDeparted`] for
    /// bad ids; [`ShardError::Live`] for engine rejections (state
    /// unchanged); [`ShardError::Wal`] if journaling fails (shard
    /// poisons).
    pub fn depart(&mut self, id: &str, time: Time) -> Result<LiveDeparture, ShardError> {
        self.depart_impl(id, time, None)
    }

    /// [`depart`](Shard::depart), with per-stage latency attribution
    /// when a span is given: the engine's departure step lands in
    /// `dispatch`, repack-policy migrations in `repack` (split via the
    /// engine's `depart_with_mark` seam), journal writes in
    /// `wal_append`, and the commit-line durability point in
    /// `wal_sync`. Identical decisions, WAL bytes, and errors.
    pub(crate) fn depart_impl(
        &mut self,
        id: &str,
        time: Time,
        mut span: Option<&mut Span>,
    ) -> Result<LiveDeparture, ShardError> {
        self.check_writable()?;
        let Some(&item) = self.ids.get(id) else {
            return Err(ShardError::UnknownId { id: id.to_string() });
        };
        if self.live.has_departed(item) {
            return Err(ShardError::AlreadyDeparted { id: id.to_string() });
        }
        let dep = self
            .live
            .depart_with_mark(item, time, || mark(&mut span, Stage::Dispatch))?;
        mark(&mut span, Stage::Repack);
        // Journal the group line by line; the commit below makes its
        // last line the durability point.
        let time = dep.time;
        self.wal.emit(&ObsEvent::Depart {
            time,
            item: dep.item,
            bin: dep.bin.0,
        });
        if dep.closed {
            self.wal.emit(&ObsEvent::BinClose {
                time,
                bin: dep.bin.0,
            });
        }
        for m in &dep.migrations {
            self.wal.emit(&ObsEvent::Migrate {
                time,
                item: m.item,
                from: m.from.0,
                to: m.to.0,
            });
            if m.closed_from {
                self.wal.emit(&ObsEvent::BinClose {
                    time,
                    bin: m.from.0,
                });
            }
        }
        mark(&mut span, Stage::WalAppend);
        let committed = self.wal.commit();
        mark(&mut span, Stage::WalSync);
        if !committed {
            self.poisoned = true;
            return Err(wal_error(&self.wal));
        }
        self.departures += 1;
        // The depart lines are durable; mirror the departure into the
        // portfolio and — when its bin close(s) trip the meta-policy —
        // apply the switch and journal it as the group's last line. A
        // crash before that line commits leaves the departure
        // unacknowledged: recovery rolls it back with the switch.
        if let Some(pf) = self.portfolio.as_mut() {
            if let Some(kind) = pf.on_depart(&dep)? {
                let switch = pf
                    .switch(&mut self.live, kind)
                    .expect("proposals are validated candidates");
                self.wal.emit(&ObsEvent::PolicySwitch {
                    time: switch.time,
                    from: switch.from,
                    to: switch.to,
                });
                if !self.wal.commit() {
                    self.poisoned = true;
                    return Err(wal_error(&self.wal));
                }
            }
        }
        Ok(dep)
    }

    /// Forces the WAL onto stable storage (shutdown path for
    /// [`SyncPolicy::OnClose`] / pending `batch:N` tails). Returns
    /// `false` (and poisons) on failure.
    pub fn persist(&mut self) -> bool {
        if self.poisoned {
            return false;
        }
        if !self.wal.persist() {
            self.poisoned = true;
            return false;
        }
        true
    }

    /// The underlying live engine (read-only).
    #[must_use]
    pub fn live(&self) -> &LiveEngine {
        &self.live
    }

    /// Consumes the shard, returning the live engine (conformance
    /// snapshotting).
    #[must_use]
    pub fn into_live(self) -> LiveEngine {
        self.live
    }

    /// External id → run-local index table.
    #[must_use]
    pub fn ids(&self) -> &HashMap<ItemId, usize> {
        &self.ids
    }

    /// Run-local index → external id table.
    #[must_use]
    pub fn names(&self) -> &[ItemId] {
        &self.names
    }

    /// Whether a WAL failure has made the shard read-only (a dead
    /// shadow worker fails the shard too; see the module docs).
    #[must_use]
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    /// Events replayed from the WAL when this shard was resumed.
    #[must_use]
    pub fn recovered_events(&self) -> u64 {
        self.recovered_events
    }

    /// WAL lines written since construction (excludes recovered lines).
    #[must_use]
    pub fn wal_lines(&self) -> u64 {
        self.wal.lines()
    }

    /// The shard's portfolio state, when one is running.
    #[must_use]
    pub fn portfolio(&self) -> Option<&PortfolioState> {
        self.portfolio.as_ref()
    }

    /// The portfolio state, for tests that break it on purpose.
    #[cfg(test)]
    pub(crate) fn portfolio_mut(&mut self) -> Option<&mut PortfolioState> {
        self.portfolio.as_mut()
    }

    /// Consumes the shard into the state [`crate::recovery::recover`]
    /// hands back: engine, id tables and portfolio state.
    pub(crate) fn into_state(
        self,
    ) -> (
        LiveEngine,
        HashMap<ItemId, usize>,
        Vec<ItemId>,
        Option<PortfolioState>,
    ) {
        (self.live, self.ids, self.names, self.portfolio)
    }

    /// The shard's slice of a [`crate::protocol::ServeStatus`].
    #[must_use]
    pub fn status(&self, shard: usize) -> ShardStatus {
        let (switch_history, shadows) = match &self.portfolio {
            None => (Vec::new(), Vec::new()),
            Some(pf) => (
                pf.switches()
                    .iter()
                    .map(|s| SwitchEntry {
                        time: s.time,
                        from: s.from.clone(),
                        to: s.to.clone(),
                    })
                    .collect(),
                // A dead shadow worker has no scoreboard to report.
                pf.scoreboard(self.live.now())
                    .unwrap_or_default()
                    .iter()
                    .map(|s| ShadowStatus {
                        policy: s.policy.clone(),
                        cost: s.cost.to_string(),
                        lb: s.lb.to_string(),
                    })
                    .collect(),
            ),
        };
        ShardStatus {
            shard,
            policy: self.live.kind().spec(),
            policy_switches: self.live.policy_switches(),
            switch_history,
            shadows,
            arrivals: self.arrivals,
            departures: self.departures,
            active_items: self.live.active_items() as u64,
            open_bins: self.live.open_bins() as u64,
            bins_opened: self.live.bins_opened() as u64,
            migrations: self.live.migrations(),
            migration_cost: self.live.migration_cost(),
            usage_time: self.live.usage_time_at(self.live.now()).to_string(),
            wal_lines: self.wal.lines(),
            last_time: self.live.now(),
        }
    }
}

impl Shard<Vec<u8>> {
    /// Consumes an in-memory shard into its engine and WAL bytes (the
    /// conformance layer snapshots the packing *and* cuts the log at
    /// arbitrary offsets).
    #[must_use]
    pub fn into_parts(self) -> (LiveEngine, Vec<u8>) {
        let wal = self
            .wal
            .finish()
            .expect("an in-memory WAL sink cannot fail");
        (self.live, wal)
    }

    /// Consumes an in-memory shard and returns its WAL bytes.
    #[must_use]
    pub fn into_wal_bytes(self) -> Vec<u8> {
        self.into_parts().1
    }
}

fn wal_error<W: StableWrite>(wal: &JsonlEmitter<W>) -> ShardError {
    ShardError::Wal {
        msg: wal
            .error()
            .map_or_else(|| "unknown".to_string(), |e| e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvbp_obs::scan_wal;
    use std::io::{self, Write};

    fn shard() -> Shard<Vec<u8>> {
        Shard::create(
            DimVec::from_slice(&[10, 10]),
            &PolicyKind::FirstFit,
            RepackPolicy::NoRepack,
            TraceMode::Full,
            TimeMode::Strict,
            Vec::new(),
            SyncPolicy::PerEvent,
            None,
        )
        .unwrap()
    }

    /// A one-dimensional portfolio shard: NextFit live, FirstFit in the
    /// shadows, switching under the given meta-policy.
    fn portfolio_shard(meta: MetaPolicy) -> Shard<Vec<u8>> {
        Shard::create(
            DimVec::from_slice(&[10]),
            &PolicyKind::NextFit,
            RepackPolicy::NoRepack,
            TraceMode::CostOnly,
            TimeMode::Strict,
            Vec::new(),
            SyncPolicy::PerEvent,
            Some(&PortfolioConfig {
                candidates: vec![PolicyKind::FirstFit, PolicyKind::NextFit],
                meta,
            }),
        )
        .unwrap()
    }

    #[test]
    fn arrival_groups_follow_the_grammar() {
        let mut s = shard();
        s.arrive("a", DimVec::from_slice(&[6, 6]), 0).unwrap();
        s.arrive("b", DimVec::from_slice(&[2, 2]), 1).unwrap();
        s.arrive("c", DimVec::from_slice(&[6, 6]), 2).unwrap(); // new bin
        let dep = s.depart("b", 3).unwrap();
        assert!(!dep.closed);
        let dep = s.depart("a", 4).unwrap();
        assert!(dep.closed);

        let sink = s.wal.finish().unwrap();
        let scan = scan_wal(&sink).unwrap();
        assert_eq!(scan.torn_bytes, 0);
        let kinds: Vec<&'static str> = scan
            .events
            .iter()
            .map(|e| match e {
                ObsEvent::RunStart { .. } => "RunStart",
                ObsEvent::Ident { .. } => "Ident",
                ObsEvent::Arrival { .. } => "Arrival",
                ObsEvent::BinOpen { .. } => "BinOpen",
                ObsEvent::Place { .. } => "Place",
                ObsEvent::Depart { .. } => "Depart",
                ObsEvent::BinClose { .. } => "BinClose",
                _ => "other",
            })
            .collect();
        assert_eq!(
            kinds,
            [
                "RunStart", "Ident", "Arrival", "BinOpen", "Place", // a opens bin 0
                "Ident", "Arrival", "Place", // b joins bin 0
                "Ident", "Arrival", "BinOpen", "Place",  // c opens bin 1
                "Depart", // b leaves, bin 0 stays open
                "Depart", "BinClose", // a leaves, bin 0 closes
            ]
        );
    }

    #[test]
    fn migration_lines_extend_the_depart_group() {
        let mut s = Shard::create(
            DimVec::from_slice(&[10, 10]),
            &PolicyKind::FirstFit,
            RepackPolicy::DrainOnDepart { k: 1 },
            TraceMode::Full,
            TimeMode::Strict,
            Vec::new(),
            SyncPolicy::PerEvent,
            None,
        )
        .unwrap();
        s.arrive("a", DimVec::from_slice(&[7, 7]), 0).unwrap(); // bin 0
        s.arrive("b", DimVec::from_slice(&[7, 7]), 1).unwrap(); // bin 1
        s.arrive("c", DimVec::from_slice(&[2, 2]), 2).unwrap(); // bin 0
        let dep = s.depart("a", 3).unwrap(); // drains c into bin 1
        assert_eq!(dep.migrations.len(), 1);
        let sink = s.wal.finish().unwrap();
        let scan = scan_wal(&sink).unwrap();
        let tail: Vec<&ObsEvent> = scan.events.iter().rev().take(3).collect();
        assert!(matches!(tail[2], ObsEvent::Depart { item: 0, .. }));
        assert!(matches!(
            tail[1],
            ObsEvent::Migrate {
                item: 2,
                from: 0,
                to: 1,
                ..
            }
        ));
        assert!(
            matches!(tail[0], ObsEvent::BinClose { bin: 0, .. }),
            "the drained source bin's close commits the group"
        );
    }

    #[test]
    fn duplicate_and_unknown_ids_are_rejected() {
        let mut s = shard();
        s.arrive("a", DimVec::from_slice(&[1, 1]), 0).unwrap();
        assert!(matches!(
            s.arrive("a", DimVec::from_slice(&[1, 1]), 1),
            Err(ShardError::DuplicateId { .. })
        ));
        assert!(matches!(
            s.depart("ghost", 1),
            Err(ShardError::UnknownId { .. })
        ));
        s.depart("a", 1).unwrap();
        assert!(matches!(
            s.depart("a", 2),
            Err(ShardError::AlreadyDeparted { .. })
        ));
        // The id stays burned after departure.
        assert!(matches!(
            s.arrive("a", DimVec::from_slice(&[1, 1]), 3),
            Err(ShardError::DuplicateId { .. })
        ));
    }

    #[test]
    fn rejected_operations_leave_no_journal_trace() {
        let mut s = shard();
        let before = s.wal_lines();
        assert!(s.arrive("x", DimVec::from_slice(&[11, 1]), 0).is_err()); // oversized
        assert!(s.depart("x", 1).is_err());
        assert_eq!(s.wal_lines(), before);
        assert_eq!(s.live().items_seen(), 0);
    }

    /// Fails every write after the first `ok_writes`.
    struct FlakysSink {
        ok_writes: usize,
        seen: usize,
    }
    impl Write for FlakysSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.seen += 1;
            if self.seen > self.ok_writes {
                Err(io::Error::other("disk detached"))
            } else {
                Ok(buf.len())
            }
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }
    impl StableWrite for FlakysSink {
        fn persist(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn wal_failure_poisons_the_shard() {
        let mut s = Shard::create(
            DimVec::from_slice(&[10]),
            &PolicyKind::FirstFit,
            RepackPolicy::NoRepack,
            TraceMode::CostOnly,
            TimeMode::Strict,
            // Each line is one write call; allow the header and the
            // arrival's first line, then fail mid-group.
            FlakysSink {
                ok_writes: 2,
                seen: 0,
            },
            SyncPolicy::PerEvent,
            None,
        )
        .unwrap();
        let err = s.arrive("a", DimVec::from_slice(&[5]), 0).unwrap_err();
        assert!(matches!(err, ShardError::Wal { .. }), "{err}");
        assert!(s.poisoned());
        // Everything afterwards is rejected without touching the engine.
        let items = s.live().items_seen();
        assert!(matches!(
            s.arrive("b", DimVec::from_slice(&[1]), 1),
            Err(ShardError::Wal { .. })
        ));
        assert_eq!(s.live().items_seen(), items);
        assert!(!s.persist());
    }

    #[test]
    fn status_reports_live_counters() {
        let mut s = shard();
        s.arrive("a", DimVec::from_slice(&[6, 6]), 0).unwrap();
        s.arrive("b", DimVec::from_slice(&[6, 6]), 2).unwrap();
        s.depart("a", 5).unwrap();
        let st = s.status(3);
        assert_eq!(st.shard, 3);
        assert_eq!(st.arrivals, 2);
        assert_eq!(st.departures, 1);
        assert_eq!(st.active_items, 1);
        assert_eq!(st.open_bins, 1);
        assert_eq!(st.bins_opened, 2);
        // bin 0: [0,5) closed = 5; bin 1: open since 2, now=5 → 3.
        assert_eq!(st.usage_time, "8");
        assert_eq!(st.last_time, 5);
        assert_eq!(st.policy, "FirstFit");
        assert_eq!(st.policy_switches, 0);
        assert!(st.switch_history.is_empty());
        assert!(st.shadows.is_empty(), "no portfolio, no scoreboard");
    }

    /// NextFit strands capacity here: the blocker fills a fresh bin and
    /// becomes current, so the follow-up opens a third bin while
    /// FirstFit rides the first.
    fn drive_blocker(s: &mut Shard<Vec<u8>>) {
        s.arrive("small", DimVec::from_slice(&[3]), 0).unwrap(); // b0
        s.arrive("blocker", DimVec::from_slice(&[10]), 1).unwrap(); // b1
        s.arrive("tail", DimVec::from_slice(&[3]), 2).unwrap(); // NF: b2
    }

    #[test]
    fn switch_group_is_journaled_after_the_closing_depart() {
        let mut s = portfolio_shard(MetaPolicy::BestOf { window: 1 });
        drive_blocker(&mut s);
        let dep = s.depart("blocker", 3).unwrap();
        assert!(dep.closed, "the blocker was alone in its bin");
        assert_eq!(s.live().kind(), &PolicyKind::FirstFit, "best-of:1 flips");
        let st = s.status(0);
        assert_eq!(st.policy, "FirstFit");
        assert_eq!(st.policy_switches, 1);
        assert_eq!(st.switch_history.len(), 1);
        assert_eq!(st.switch_history[0].from, "NextFit");
        assert_eq!(st.switch_history[0].to, "FirstFit");
        assert_eq!(st.switch_history[0].time, 3);
        assert_eq!(st.shadows.len(), 2, "one scoreboard row per candidate");

        let bytes = s.into_wal_bytes();
        let scan = scan_wal(&bytes).unwrap();
        let tail: Vec<&ObsEvent> = scan.events.iter().rev().take(3).collect();
        assert!(
            matches!(
                tail[0],
                ObsEvent::PolicySwitch { time: 3, from, to }
                    if from == "NextFit" && to == "FirstFit"
            ),
            "the switch group follows the depart group: {tail:?}"
        );
        assert!(matches!(tail[1], ObsEvent::BinClose { .. }));
        assert!(matches!(tail[2], ObsEvent::Depart { .. }));
    }

    #[test]
    fn departures_without_closes_never_switch() {
        let mut s = portfolio_shard(MetaPolicy::BestOf { window: 1 });
        drive_blocker(&mut s);
        // "small" departs but "tail"... sits in its own NF bin; depart
        // nothing-sharing "small" -> its bin b0 closes? b0 holds only
        // "small" under NextFit, so pick the pair that keeps b0 open:
        // add a bin-mate first.
        s.arrive("mate", DimVec::from_slice(&[2]), 3).unwrap(); // NF current b2 fits [2]
        let dep = s.depart("tail", 4).unwrap(); // b2 keeps "mate": no close
        assert!(!dep.closed);
        assert_eq!(s.live().kind(), &PolicyKind::NextFit, "no close, no switch");
        assert_eq!(s.status(0).policy_switches, 0);
    }

    #[test]
    fn static_portfolio_wal_is_byte_identical_to_single_policy() {
        let mut plain = Shard::create(
            DimVec::from_slice(&[10]),
            &PolicyKind::NextFit,
            RepackPolicy::NoRepack,
            TraceMode::CostOnly,
            TimeMode::Strict,
            Vec::new(),
            SyncPolicy::PerEvent,
            None,
        )
        .unwrap();
        let mut pf = portfolio_shard(MetaPolicy::Static);
        drive_blocker(&mut plain);
        drive_blocker(&mut pf);
        for (id, t) in [("blocker", 3), ("small", 4), ("tail", 5)] {
            assert_eq!(pf.depart(id, t).unwrap(), plain.depart(id, t).unwrap());
        }
        let st = pf.status(0);
        assert_eq!(st.policy, "NextFit");
        assert_eq!(st.policy_switches, 0);
        assert_eq!(st.shadows.len(), 2, "shadows still score under static");
        assert_eq!(
            pf.into_wal_bytes(),
            plain.into_wal_bytes(),
            "static meta never journals a switch group"
        );
    }
}
