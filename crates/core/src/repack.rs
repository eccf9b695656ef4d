//! Repacking policies: bounded migration on top of the live engine.
//!
//! The paper's model places items irrevocably, but its related work
//! (Berndt–Jansen–Klein, *Fully Dynamic Bin Packing Revisited*;
//! Kamali–López-Ortiz, *Renting Servers in the Cloud*) studies *limited
//! repacking*: a bounded number of migrations per operation — or a
//! migration-cost budget — buys strictly better competitive ratios.
//! That is the knob real cloud operators tune: live-migrating a handful
//! of VMs off a nearly-empty server lets it be released, and the rent
//! saved can dwarf the migration cost.
//!
//! A [`RepackPolicy`] is attached to a
//! [`LiveEngine`](crate::LiveEngine) at construction (via
//! [`LiveRequest::repack`](crate::LiveRequest::repack)) or paired with a
//! policy kind as an [`EngineSet`](crate::EngineSet) candidate. Both step
//! their engines through one planner (`Repacker`), which consults the
//! policy only at **departure** and **bin-close** boundaries — arrivals
//! stay byte-identical to the irrevocable engine, so
//! [`RepackPolicy::NoRepack`] reproduces the paper's model bit for bit
//! (conformance layer 10 pins that).
//!
//! Policies shipped here:
//!
//! * [`RepackPolicy::NoRepack`] — the identity: never migrates.
//! * [`RepackPolicy::DrainOnDepart`] — when a departure leaves its bin
//!   with at most `k` active items, try to migrate **all** of them into
//!   other open bins (all-or-nothing), closing the drained bin. The
//!   migration cost model is a unit count: at most `k` moves per
//!   departure.
//! * [`RepackPolicy::BudgetedDefrag`] — every `period` natural bin
//!   closes, run a defragmentation sweep: repeatedly pick the open bin
//!   with the fewest active items and try to drain it entirely into the
//!   other open bins, charging each move the item's **L1 size** (its
//!   total resource demand — the non-clairvoyant proxy for the
//!   remaining size·duration cost, whose duration factor a live run
//!   cannot know). The sweep stops when the per-sweep `budget` cannot
//!   pay for the next full drain or no candidate drains.
//!
//! Migration planning is deterministic (ascending item index, first
//! feasible destination bin by ascending id), so WAL recovery re-drives
//! a repacking run to bit-identical state, and every executed move is
//! emitted as [`ObsEvent::Migrate`](dvbp_obs::ObsEvent) provenance that
//! `dvbp explain` can justify.

use crate::bin::BinId;
use crate::engine::{DepartStep, Engine, TraceEvent};
use crate::item::Item;
use crate::live::{LiveError, LiveMigration};
use crate::policy::{Policy, PolicyKind};
use crate::source::streamed_engine;
use dvbp_dimvec::DimVec;
use dvbp_obs::Observer;
use dvbp_sim::Time;
use serde::{Deserialize, Serialize};

/// A bounded-migration policy run at departure and bin-close
/// boundaries. See the [module docs](self) for semantics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RepackPolicy {
    /// Never migrate: placements stay irrevocable (the paper's model).
    #[default]
    NoRepack,
    /// Drain a departure's bin when at most `k` active items remain in
    /// it, moving each to the first open bin that fits
    /// (all-or-nothing). Unit cost per move.
    DrainOnDepart {
        /// Maximum items migrated per departure (0 disables draining).
        k: u32,
    },
    /// Every `period` natural closes, drain fewest-occupied bins first
    /// while the per-sweep L1-size budget lasts.
    BudgetedDefrag {
        /// Per-sweep migration budget in summed L1 item size.
        budget: u64,
        /// Natural bin closes between sweeps (0 is rounded up to 1).
        period: u32,
    },
}

impl RepackPolicy {
    /// `true` iff this policy can ever migrate an item.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        match *self {
            RepackPolicy::NoRepack => false,
            RepackPolicy::DrainOnDepart { k } => k > 0,
            RepackPolicy::BudgetedDefrag { budget, .. } => budget > 0,
        }
    }

    /// Stable display name, e.g. for bench rows and metric labels.
    /// Round-trips through [`FromStr`](std::str::FromStr).
    #[must_use]
    pub fn name(&self) -> String {
        match *self {
            RepackPolicy::NoRepack => "none".into(),
            RepackPolicy::DrainOnDepart { k } => format!("drain:{k}"),
            RepackPolicy::BudgetedDefrag { budget, period } => {
                format!("defrag:{budget}:{period}")
            }
        }
    }
}

impl std::fmt::Display for RepackPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

/// Error parsing a [`RepackPolicy`] from its CLI spelling.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseRepackError(String);

impl std::fmt::Display for ParseRepackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown repack policy '{}'; expected none, drain:<k>, or \
             defrag:<budget>:<period>",
            self.0
        )
    }
}

impl std::error::Error for ParseRepackError {}

impl std::str::FromStr for RepackPolicy {
    type Err = ParseRepackError;

    /// Parses the CLI spelling: `none`, `drain:<k>`, or
    /// `defrag:<budget>:<period>`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s == "none" {
            return Ok(RepackPolicy::NoRepack);
        }
        if let Some(k) = s.strip_prefix("drain:").and_then(|v| v.parse().ok()) {
            return Ok(RepackPolicy::DrainOnDepart { k });
        }
        if let Some(rest) = s.strip_prefix("defrag:") {
            if let Some((budget, period)) = rest.split_once(':') {
                if let (Ok(budget), Ok(period)) = (budget.parse(), period.parse()) {
                    return Ok(RepackPolicy::BudgetedDefrag { budget, period });
                }
            }
        }
        Err(ParseRepackError(s.to_string()))
    }
}

/// One engine, its placement policy and the planner of its
/// [`RepackPolicy`]: a [`LiveEngine`](crate::LiveEngine) and every
/// [`EngineSet`](crate::EngineSet) candidate step their arrivals and
/// departures through one of these. The caller's feed has admitted or
/// retired each item before it gets here.
pub(crate) struct Repacker {
    pub(crate) engine: Engine,
    pub(crate) policy: Box<dyn Policy>,
    repack: RepackPolicy,
    /// Active items per bin with their records: the drain lists. Kept
    /// only while the policy can migrate, so a `NoRepack` engine holds
    /// nothing per bin or per item. The records are the planner's own
    /// because an `EngineSet` resolves a whole batch through its feed
    /// before any engine steps: the feed's table may already lack a
    /// resident that departs later in the batch.
    residents: Vec<Vec<(usize, Item)>>,
    migrations: u64,
    migration_cost: u64,
    /// Natural bin closes since the last defrag sweep.
    closes_since_sweep: u32,
}

impl Repacker {
    /// A fresh engine placing with `kind` and repacking with `repack` in
    /// bins of `capacity`, its item ledger reserved for `items_hint`
    /// items.
    pub(crate) fn new(
        kind: &PolicyKind,
        repack: RepackPolicy,
        capacity: &DimVec,
        items_hint: usize,
    ) -> Result<Self, LiveError> {
        let (engine, policy) = streamed_engine(kind, capacity, items_hint)?;
        Ok(Repacker {
            engine,
            policy,
            repack,
            residents: Vec::new(),
            migrations: 0,
            migration_cost: 0,
            closes_since_sweep: 0,
        })
    }

    /// Items migrated so far.
    pub(crate) fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Migration cost charged so far, saturating at `u64::MAX`.
    pub(crate) fn migration_cost(&self) -> u64 {
        self.migration_cost
    }

    /// Places admitted `item`, whose record `entry` carries its size and
    /// effective arrival tick, and returns the receiving bin and whether
    /// it was opened for the item.
    pub(crate) fn arrive<O: Observer>(
        &mut self,
        capacity: &DimVec,
        item: usize,
        entry: &Item,
        observer: &mut O,
        trace: Option<&mut Vec<TraceEvent>>,
    ) -> (BinId, bool) {
        let placed = self.engine.step_arrive(
            capacity,
            entry.arrival,
            item,
            entry,
            self.policy.as_mut(),
            observer,
            trace,
        );
        if self.repack.is_enabled() {
            self.settle(placed.0, item, entry.clone());
        }
        placed
    }

    /// Retires `item`, whose record `gone` carries its effective
    /// departure tick; then runs `mark`, then the repack policy. Returns
    /// the departure step and the executed moves, in order.
    pub(crate) fn depart<O: Observer>(
        &mut self,
        capacity: &DimVec,
        item: usize,
        gone: &Item,
        observer: &mut O,
        mut trace: Option<&mut Vec<TraceEvent>>,
        mark: impl FnOnce(),
    ) -> (DepartStep, Vec<LiveMigration>) {
        let time = gone.departure;
        let step = self
            .engine
            .step_depart(
                time,
                item,
                gone,
                self.policy.as_mut(),
                observer,
                trace.as_deref_mut(),
            )
            .expect("an active item has an assignment");
        if self.repack.is_enabled() {
            self.unsettle(step.bin, item);
        }
        mark();
        let mut migrations = Vec::new();
        match self.repack {
            RepackPolicy::NoRepack => return (step, migrations),
            RepackPolicy::DrainOnDepart { k } => {
                let remaining = self.engine.bin_active(step.bin.0);
                if !step.closed && remaining > 0 && remaining <= k {
                    if let Some(plan) = self.plan_drain(capacity, step.bin) {
                        self.execute_drain(capacity, time, &plan, observer, trace, &mut migrations);
                    }
                }
            }
            RepackPolicy::BudgetedDefrag { budget, period } => {
                if step.closed && budget > 0 {
                    self.closes_since_sweep += 1;
                    if self.closes_since_sweep >= period.max(1) {
                        self.closes_since_sweep = 0;
                        self.defrag_sweep(capacity, time, budget, observer, trace, &mut migrations);
                    }
                }
            }
        }
        self.migrations += migrations.len() as u64;
        self.migration_cost = migrations
            .iter()
            .fold(self.migration_cost, |total, m| total.saturating_add(m.cost));
        (step, migrations)
    }

    /// Adds `item` with its record to `bin`'s drain list.
    fn settle(&mut self, bin: BinId, item: usize, entry: Item) {
        if bin.0 >= self.residents.len() {
            self.residents.resize_with(bin.0 + 1, Vec::new);
        }
        self.residents[bin.0].push((item, entry));
    }

    /// Takes `item`'s record out of `bin`'s drain list. The list of a
    /// bin its last item leaves is freed: that bin has closed for good.
    fn unsettle(&mut self, bin: BinId, item: usize) -> Item {
        let list = &mut self.residents[bin.0];
        let at = list
            .iter()
            .position(|(i, _)| *i == item)
            .expect("a placed item is on its bin's drain list");
        let (_, entry) = list.swap_remove(at);
        if list.is_empty() {
            *list = Vec::new();
        }
        entry
    }

    /// Plans a full drain of `src`: each resident item, in ascending
    /// index order, goes to the first other open bin (ascending id) that
    /// fits it given the residuals left by the earlier planned moves.
    /// All-or-nothing: `None` if any resident has no feasible
    /// destination.
    fn plan_drain(&self, capacity: &DimVec, src: BinId) -> Option<Vec<(usize, BinId)>> {
        let d = capacity.dim();
        let mut residents: Vec<&(usize, Item)> = self.residents[src.0].iter().collect();
        residents.sort_unstable_by_key(|(item, _)| *item);
        // Planned additional load per destination, keyed by bin id.
        let mut extra: Vec<(usize, Vec<u64>)> = Vec::new();
        let mut plan = Vec::with_capacity(residents.len());
        for (it, entry) in residents {
            let size = &entry.size;
            let mut dest = None;
            for &b in self.engine.open_bins() {
                if b == src {
                    continue;
                }
                let load = self.engine.bin_load(b.0);
                let planned = extra.iter().find(|(id, _)| *id == b.0).map(|(_, e)| e);
                let fits = (0..d).all(|j| {
                    let used = load[j] + planned.map_or(0, |e| e[j]);
                    size[j] <= capacity[j] - used
                });
                if fits {
                    dest = Some(b);
                    break;
                }
            }
            let b = dest?;
            match extra.iter_mut().find(|(id, _)| *id == b.0) {
                Some((_, e)) => {
                    for j in 0..d {
                        e[j] += size[j];
                    }
                }
                None => extra.push((b.0, size.as_slice().to_vec())),
            }
            plan.push((*it, b));
        }
        Some(plan)
    }

    /// Executes a drain plan through [`Engine::step_migrate`], charging
    /// each move `1` under [`RepackPolicy::DrainOnDepart`] and its
    /// item's L1 size under [`RepackPolicy::BudgetedDefrag`].
    fn execute_drain<O: Observer>(
        &mut self,
        capacity: &DimVec,
        time: Time,
        plan: &[(usize, BinId)],
        observer: &mut O,
        mut trace: Option<&mut Vec<TraceEvent>>,
        out: &mut Vec<LiveMigration>,
    ) {
        let unit_cost = matches!(self.repack, RepackPolicy::DrainOnDepart { .. });
        for &(item, to) in plan {
            let from = self
                .engine
                .assignment_of(item)
                .expect("a planned item is placed");
            let entry = self.unsettle(from, item);
            let step = self.engine.step_migrate(
                capacity,
                time,
                item,
                &entry,
                to,
                self.policy.as_mut(),
                observer,
                trace.as_deref_mut(),
            );
            let cost = if unit_cost { 1 } else { l1_units(&entry.size) };
            self.settle(to, item, entry);
            out.push(LiveMigration {
                item,
                from: step.from,
                to,
                closed_from: step.closed_from,
                cost,
            });
        }
    }

    /// One defragmentation sweep: repeatedly drain the open bin with the
    /// fewest active items (ties to the lowest id) whose full drain is
    /// feasible and affordable within the remaining per-sweep L1-size
    /// `budget`.
    fn defrag_sweep<O: Observer>(
        &mut self,
        capacity: &DimVec,
        time: Time,
        budget: u64,
        observer: &mut O,
        mut trace: Option<&mut Vec<TraceEvent>>,
        out: &mut Vec<LiveMigration>,
    ) {
        let mut remaining = budget;
        loop {
            let mut candidates: Vec<BinId> = self.engine.open_bins().to_vec();
            candidates.sort_by_key(|b| (self.engine.bin_active(b.0), b.0));
            let mut executed = false;
            for src in candidates {
                // Summed across items (and dimensions) in u128: only a
                // drain that fits the u64 budget runs.
                let drain_cost: u128 = self.residents[src.0]
                    .iter()
                    .flat_map(|(_, entry)| entry.size.iter())
                    .map(u128::from)
                    .sum();
                let Ok(drain_cost) = u64::try_from(drain_cost) else {
                    continue;
                };
                if drain_cost > remaining {
                    continue;
                }
                let Some(plan) = self.plan_drain(capacity, src) else {
                    continue;
                };
                if plan.is_empty() {
                    continue;
                }
                self.execute_drain(capacity, time, &plan, observer, trace.as_deref_mut(), out);
                remaining -= drain_cost;
                executed = true;
                break;
            }
            if !executed {
                break;
            }
        }
    }
}

/// An item's L1 size in resource units — the defrag migration cost —
/// saturating at `u64::MAX`: each component fits the capacity, but
/// their sum need not fit a `u64`.
fn l1_units(size: &DimVec) -> u64 {
    size.iter().fold(0, u64::saturating_add)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::str::FromStr;

    #[test]
    fn parse_round_trips_names() {
        for policy in [
            RepackPolicy::NoRepack,
            RepackPolicy::DrainOnDepart { k: 3 },
            RepackPolicy::BudgetedDefrag {
                budget: 40,
                period: 2,
            },
        ] {
            assert_eq!(RepackPolicy::from_str(&policy.name()), Ok(policy));
        }
        assert!(RepackPolicy::from_str("drain").is_err());
        assert!(RepackPolicy::from_str("defrag:5").is_err());
        let err = RepackPolicy::from_str("zzz").unwrap_err().to_string();
        assert!(err.contains("zzz"));
    }

    #[test]
    fn enablement_reflects_parameters() {
        assert!(!RepackPolicy::NoRepack.is_enabled());
        assert!(!RepackPolicy::DrainOnDepart { k: 0 }.is_enabled());
        assert!(RepackPolicy::DrainOnDepart { k: 1 }.is_enabled());
        assert!(!RepackPolicy::BudgetedDefrag {
            budget: 0,
            period: 1
        }
        .is_enabled());
        assert!(RepackPolicy::BudgetedDefrag {
            budget: 9,
            period: 4
        }
        .is_enabled());
    }
}
