//! Determinism and stream≡batch properties over every source family:
//!
//! * any source built twice from the same inputs yields bit-identical
//!   event streams (generators, all three trace encodings);
//! * packing a streamed synthetic feed is bit-identical to packing the
//!   materialized [`Instance`] built from the same items — the
//!   constant-memory path changes nothing;
//! * the streamed Lemma 1 lower bound equals the offline one.

use dvbp_core::{
    EventSource, Instance, InstanceSource, Item, LiveOp, PackRequest, PolicyKind,
    StreamingLowerBound, Tap,
};
use dvbp_dimvec::DimVec;
use dvbp_offline::lb_load;
use dvbp_traces::{
    write_azure_csv, write_google_csv, AzureSource, Burst, DirtyPolicy, Diurnal, GoogleSource,
    HeavyTail, NativeSource,
};
use proptest::prelude::*;
use std::io::Cursor;

fn drain(source: &mut impl EventSource) -> Vec<LiveOp> {
    let mut ops = Vec::new();
    while let Some(op) = source.next_event().unwrap() {
        ops.push(op);
    }
    ops
}

/// The materialized twin of a generator's item stream.
fn materialize(capacity: &DimVec, items: impl Iterator<Item = (u64, u64, DimVec)>) -> Instance {
    Instance::new(
        capacity.clone(),
        items.map(|(a, e, size)| Item::new(size, a, e)).collect(),
    )
    .expect("generators emit valid items")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn generators_are_deterministic(seed in 0u64..1_000, n in 1usize..300) {
        let cap = DimVec::from_slice(&[100, 100]);
        let ht = HeavyTail::new(n, cap.clone(), seed);
        prop_assert_eq!(drain(&mut ht.source()), drain(&mut ht.source()));
        let di = Diurnal::new(n, cap.clone(), seed);
        prop_assert_eq!(drain(&mut di.source()), drain(&mut di.source()));
        let bu = Burst::new(n, cap, seed);
        prop_assert_eq!(drain(&mut bu.source()), drain(&mut bu.source()));
    }

    #[test]
    fn trace_parsers_are_deterministic(seed in 0u64..1_000, n in 1usize..200) {
        let cap = DimVec::from_slice(&[64, 256]);
        let gen = HeavyTail::new(n, cap.clone(), seed);

        let mut azure = Vec::new();
        write_azure_csv(gen.items(), &cap, 288, &mut azure).unwrap();
        let parse_azure = || {
            let mut s = AzureSource::new(
                Cursor::new(azure.clone()), Some(cap.clone()), 288, DirtyPolicy::Reject,
            ).unwrap();
            drain(&mut s)
        };
        prop_assert_eq!(parse_azure(), parse_azure());

        let mut google = Vec::new();
        write_google_csv(gen.items(), &cap, &mut google).unwrap();
        let parse_google = || {
            let mut s = GoogleSource::new(
                Cursor::new(google.clone()), Some(cap.clone()), DirtyPolicy::Reject,
            ).unwrap();
            drain(&mut s)
        };
        prop_assert_eq!(parse_google(), parse_google());

        let native: String = gen
            .items()
            .map(|(a, e, size)| {
                let [cpu, mem] = size.as_slice() else { unreachable!("2-d capacity") };
                format!("{a},{e},{cpu},{mem}\n")
            })
            .collect();
        let parse_native = || {
            let mut s = NativeSource::new(
                Cursor::new(native.clone()), cap.clone(), DirtyPolicy::Reject,
            );
            drain(&mut s)
        };
        prop_assert_eq!(parse_native(), parse_native());
    }

    #[test]
    fn streamed_packing_equals_batch_packing(seed in 0u64..1_000, n in 1usize..250) {
        let cap = DimVec::from_slice(&[100, 100]);
        let gen = HeavyTail::new(n, cap.clone(), seed);
        let inst = materialize(&cap, gen.items());
        for kind in PolicyKind::paper_suite(seed ^ 0xabcd) {
            let batch = PackRequest::new(kind.clone()).run(&inst).unwrap();
            let streamed = PackRequest::new(kind.clone())
                .run_source(&mut gen.source())
                .unwrap();
            prop_assert_eq!(&batch, &streamed, "{} diverges streamed", kind.name());
            // And the Instance-as-source bridge agrees too.
            let mut via_instance = InstanceSource::new(&inst).unwrap();
            let replayed = PackRequest::new(kind.clone())
                .run_source(&mut via_instance)
                .unwrap();
            prop_assert_eq!(&batch, &replayed, "{} diverges via InstanceSource", kind.name());
        }
    }

    #[test]
    fn streamed_lower_bound_equals_offline(seed in 0u64..1_000, n in 1usize..250) {
        let cap = DimVec::from_slice(&[100, 100]);
        let gen = Burst::new(n, cap.clone(), seed);
        let inst = materialize(&cap, gen.items());
        let mut lb = StreamingLowerBound::new(&cap);
        let mut tapped = Tap::new(gen.source(), |op| lb.observe(op));
        drain(&mut tapped);
        prop_assert_eq!(lb.value(), lb_load(&inst));
    }
}
