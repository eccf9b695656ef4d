//! Property tests for the portfolio's two load-bearing equivalences,
//! over fuzzed uniform instances rather than the conformance corpus:
//!
//! * **Shadow fidelity** — every shadow's accumulated cost is
//!   bit-identical to a standalone cost-only run of its policy over
//!   the same accepted stream (what conformance layer 11 checks on
//!   curated instances, here across the parameter space).
//! * **Static transparency** — a portfolio under `MetaPolicy::Static`
//!   is byte-identical to the plain single-policy engine: same
//!   placements, same departures, same final packing cost.
//!
//! * **Worker transparency** — a [`PortfolioState`], whose shadows run
//!   on a worker thread, answers every read (the meta-policy's
//!   evaluations, `scoreboard`, `lower_bound`) exactly as a synchronously
//!   fed [`ShadowSet`] plus [`MetaPolicy::decide`] do at the same point.
//!
//! `live_ops` names items by instance index while every engine assigns
//! dense arrival-order indices, so departures go through a translation
//! map — the same discipline the conformance driver uses.

use dvbp_core::{live_ops, LiveOp, LiveRequest, LoadMeasure, PolicyKind, TimeMode, TraceMode};
use dvbp_portfolio::{MetaPolicy, PortfolioEngine, PortfolioState, ShadowSet};
use dvbp_workloads::uniform::UniformParams;
use proptest::prelude::*;

fn candidates() -> Vec<PolicyKind> {
    vec![
        PolicyKind::FirstFit,
        PolicyKind::NextFit,
        PolicyKind::BestFit(LoadMeasure::Linf),
        PolicyKind::MoveToFront,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn shadow_costs_match_standalone_cost_only_runs(
        d in 1usize..=3,
        n in 1usize..=120,
        mu in 1u64..=10,
        seed in 0u64..10_000,
    ) {
        let inst = UniformParams { dims: d, items: n, mu, span: mu + 20, bin_size: 8 }
            .generate(seed);
        let live = LiveRequest::new(PolicyKind::FirstFit)
            .capacity(inst.capacity.clone())
            .trace_mode(TraceMode::CostOnly)
            .items_hint(n)
            .build()
            .unwrap();
        let mut pf = PortfolioEngine::new(live, &candidates(), MetaPolicy::Static, n).unwrap();
        let mut standalone: Vec<_> = candidates()
            .into_iter()
            .map(|k| {
                let eng = LiveRequest::new(k.clone())
                    .capacity(inst.capacity.clone())
                    .trace_mode(TraceMode::CostOnly)
                    .items_hint(n)
                    .build()
                    .unwrap();
                (k, eng)
            })
            .collect();

        let mut ids = vec![usize::MAX; n];
        let mut last = 0;
        for op in live_ops(&inst) {
            match op {
                LiveOp::Arrive { item, size, time } => {
                    ids[item] = pf.arrive(size.clone(), time).unwrap().item;
                    for (_, eng) in &mut standalone {
                        eng.arrive(size.clone(), time).unwrap();
                    }
                    last = last.max(time);
                }
                LiveOp::Depart { item, time } => {
                    let got = pf.depart(ids[item], time).unwrap();
                    prop_assert!(got.switched.is_none(), "static meta switched");
                    for (_, eng) in &mut standalone {
                        eng.depart(ids[item], time).unwrap();
                    }
                    last = last.max(time);
                }
            }
        }

        let rows = pf.scoreboard(last);
        prop_assert_eq!(rows.len(), standalone.len());
        for (row, (kind, eng)) in rows.iter().zip(&standalone) {
            prop_assert_eq!(&row.policy, &kind.name());
            prop_assert_eq!(
                row.cost,
                eng.usage_time_at(last),
                "shadow {} diverged from its standalone run",
                kind.name()
            );
        }
    }

    #[test]
    fn static_meta_is_byte_identical_to_the_plain_engine(
        d in 1usize..=3,
        n in 1usize..=120,
        mu in 1u64..=10,
        seed in 0u64..10_000,
        kidx in 0usize..4,
    ) {
        let kind = candidates().swap_remove(kidx);
        let inst = UniformParams { dims: d, items: n, mu, span: mu + 20, bin_size: 8 }
            .generate(seed);
        let live = LiveRequest::new(kind.clone())
            .capacity(inst.capacity.clone())
            .trace_mode(TraceMode::CostOnly)
            .items_hint(n)
            .build()
            .unwrap();
        let mut pf = PortfolioEngine::new(live, &candidates(), MetaPolicy::Static, n).unwrap();
        let mut plain = LiveRequest::new(kind)
            .capacity(inst.capacity.clone())
            .trace_mode(TraceMode::CostOnly)
            .items_hint(n)
            .build()
            .unwrap();

        let mut ids = vec![usize::MAX; n];
        for op in live_ops(&inst) {
            match op {
                LiveOp::Arrive { item, size, time } => {
                    let got = pf.arrive(size.clone(), time).unwrap();
                    let want = plain.arrive(size, time).unwrap();
                    prop_assert_eq!(got, want, "placements diverged");
                    ids[item] = got.item;
                }
                LiveOp::Depart { item, time } => {
                    let got = pf.depart(ids[item], time).unwrap();
                    let want = plain.depart(ids[item], time).unwrap();
                    prop_assert!(got.switched.is_none(), "static meta switched");
                    prop_assert_eq!(got.departure, want, "departures diverged");
                }
            }
        }
        prop_assert!(pf.switches().is_empty());
        let pf_cost = pf.into_live().into_packing().unwrap().cost();
        let plain_cost = plain.into_packing().unwrap().cost();
        prop_assert_eq!(pf_cost, plain_cost);
    }

    #[test]
    fn worker_fed_state_answers_like_synchronous_shadows(
        d in 1usize..=3,
        n in 1usize..=300,
        mu in 1u64..=10,
        seed in 0u64..10_000,
        switch in 0u8..2,
        reads in proptest::collection::vec(0u8..24, 600),
    ) {
        let inst = UniformParams { dims: d, items: n, mu, span: mu + 20, bin_size: 8 }
            .generate(seed);
        let meta = if switch == 1 {
            MetaPolicy::SwitchThreshold { threshold_pct: 10 }
        } else {
            MetaPolicy::BestOf { window: 1 }
        };
        let candidates = candidates();
        let mut live = LiveRequest::new(PolicyKind::NextFit)
            .capacity(inst.capacity.clone())
            .trace_mode(TraceMode::CostOnly)
            .build()
            .unwrap();
        let mut state = PortfolioState::new(
            &inst.capacity,
            TimeMode::Strict,
            &candidates,
            live.kind(),
            meta,
            0,
        )
        .unwrap();
        let kinds = state.candidates().to_vec();
        let mut sync = ShadowSet::new(&inst.capacity, TimeMode::Strict, &kinds, 0).unwrap();
        let mut current = kinds.iter().position(|k| k == live.kind()).unwrap();
        let (mut closes, mut since) = (0u64, 0u64);

        let mut ids = vec![usize::MAX; n];
        let mut now = 0;
        for (op, read) in live_ops(&inst).into_iter().zip(reads.iter().cycle()) {
            match op {
                LiveOp::Arrive { item, size, time } => {
                    let placed = live.arrive(size.clone(), time).unwrap();
                    ids[item] = placed.item;
                    state.on_arrive(&size, placed.time).unwrap();
                    sync.arrive(&size, placed.time);
                    now = placed.time;
                }
                LiveOp::Depart { item, time } => {
                    let dep = live.depart(ids[item], time).unwrap();
                    let n_closes = u64::from(dep.closed);
                    let got = state.on_depart(dep.item, dep.time, n_closes).unwrap();
                    sync.depart(dep.item, dep.time);
                    now = dep.time;
                    let want = if n_closes == 0 {
                        None
                    } else {
                        closes += n_closes;
                        since += n_closes;
                        let costs: Vec<_> =
                            sync.shadows().iter().map(|s| s.cost_at(dep.time)).collect();
                        meta.decide(current, &costs, closes, since)
                    };
                    prop_assert_eq!(got.as_ref(), want.map(|i| &kinds[i]));
                    if let Some(kind) = got {
                        live.switch_policy(kind.clone()).unwrap();
                        state.record_switch(&kind, dep.time).unwrap();
                        current = kinds.iter().position(|k| *k == kind).unwrap();
                        since = 0;
                    }
                }
            }
            match read {
                0 => prop_assert_eq!(state.scoreboard(now).unwrap(), sync.scoreboard(now)),
                1 => prop_assert_eq!(state.lower_bound().unwrap(), sync.lower_bound()),
                _ => {}
            }
        }
        prop_assert_eq!(state.scoreboard(now).unwrap(), sync.scoreboard(now));
        prop_assert_eq!(state.items_seen().unwrap(), sync.items_seen());
        prop_assert_eq!(state.closes(), closes);
    }
}
