//! Differential conformance harness for the DVBP engine.
//!
//! The optimized engine (`dvbp-core`) earns its speed from incremental
//! state — cached loads, a maintained open-bin list, a vectorized
//! residual mirror, a fit-index tree over it. This crate checks that none
//! of that machinery ever changes an answer:
//!
//! * [`mod@reference`] — a slow simulator that recomputes feasibility, loads,
//!   and openness from scratch at every event and re-implements each
//!   policy's selection rule from its paper definition;
//! * [`diff`] — the differential runner: engine vs. reference must agree
//!   on the full [`dvbp_core::Packing`] (assignment, usage records,
//!   trace, cost), layered with the invariant suite (feasibility, the
//!   Any Fit property, forced fit index ≡ default path, and the Lemma 1
//!   bound chain `lb_span ≤ lb_load ≤ cost`);
//! * [`mod@serve`] — layer 8, the serving path: a one-shard `dvbp-serve`
//!   service must be bit-identical to the batch engine, crash recovery
//!   from any WAL cut (event boundary or torn line) must land in the
//!   same final state, and multi-shard runs must verify per shard with
//!   additive cost;
//! * [`mod@repack`] — layer 10, repacking: live runs under every
//!   [`RepackPolicy`](dvbp_core::RepackPolicy) in the standard suite are
//!   audited by an independent event-stream checker (slice-wise
//!   capacity, no resurrected items, empty-close discipline, Migrate
//!   provenance ≡ reported moves, cost-model accounting), and
//!   `NoRepack` must stay bit-identical to the batch engine;
//! * [`mod@portfolio`] — layer 11, shadow-policy portfolio dispatch:
//!   every candidate's shadow cost must equal a standalone
//!   `CostOnly` run of that candidate bit for bit, and a
//!   `static`-meta portfolio engine must be indistinguishable from the
//!   plain single-policy path (placements, departures, drained
//!   packing);
//! * [`fuzz`] — a deterministic fuzzer feeding uniform, adversarial, and
//!   extended workloads into the differential check;
//! * [`shrink`] — a delta-debugging shrinker that minimizes any failure
//!   (drop items, shrink sizes/durations/spans) into a reproducer small
//!   enough to read.
//!
//! Shrunk failures are written as ordinary JSON trace files (the format
//! of `dvbp::tracefile`) into the repository's `tests/corpus/`, which a
//! tier-1 test replays on every `cargo test`.

pub mod corpus;
pub mod diff;
pub mod fuzz;
pub mod portfolio;
pub mod reference;
pub mod repack;
pub mod serve;
pub mod shrink;
