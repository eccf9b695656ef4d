//! JSON trace-file I/O for the `dvbp` command-line tool.
//!
//! A *trace file* is a JSON document holding a full [`Instance`]
//! (capacity vector plus items in arrival order); sizes are integer units
//! and times integer ticks, exactly as in the API. [`PackingReport`] is
//! the tool's output: per-bin usage records, the objective under a
//! configurable billing model, and the Lemma 1(i) lower bound for
//! context.
//!
//! `dvbp import` turns a native CSV into a trace file with
//! [`parse_csv`], which has no grammar of its own: it collects the
//! events of the streaming [`NativeSource`] into an instance, so the
//! importer and `dvbp run --stream --format csv` accept the same files
//! and fail on the same line.

use crate::{BillingModel, EventSource, Instance, Item, LiveOp, PackRequest, Packing, PolicyKind};
use dvbp_sim::Time;
use dvbp_traces::{parse_cap_spec, DirtyPolicy, NativeSource};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Reads and validates an instance from a JSON trace file.
///
/// # Errors
///
/// I/O errors, malformed JSON, or an instance failing validation.
pub fn load_instance(path: &Path) -> Result<Instance, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let instance: Instance =
        serde_json::from_str(&text).map_err(|e| format!("parsing {}: {e}", path.display()))?;
    instance
        .validate()
        .map_err(|e| format!("invalid instance in {}: {e}", path.display()))?;
    Ok(instance)
}

/// Writes an instance as pretty JSON.
///
/// # Errors
///
/// I/O or serialization errors.
pub fn save_instance(path: &Path, instance: &Instance) -> Result<(), String> {
    let text = serde_json::to_string_pretty(instance).map_err(|e| e.to_string())?;
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// The output of a `dvbp run` invocation.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PackingReport {
    /// Policy display name.
    pub policy: String,
    /// Number of bins opened.
    pub bins: usize,
    /// Peak simultaneously-open bins.
    pub peak_bins: usize,
    /// Exact usage-time objective (eq. 1).
    pub cost: u128,
    /// Objective under the requested billing model.
    pub billed_cost: u128,
    /// Lemma 1(i) lower bound on OPT.
    pub lower_bound: u128,
    /// `cost / lower_bound`.
    pub ratio: f64,
    /// `assignment[i]` = bin of item `i`.
    pub assignment: Vec<usize>,
}

/// Packs a loaded instance and assembles the report.
#[must_use]
pub fn run_report(instance: &Instance, kind: &PolicyKind, billing: BillingModel) -> PackingReport {
    let packing: Packing = PackRequest::new(kind.clone()).run(instance).unwrap();
    let lb = dvbp_offline::lb_load(instance);
    PackingReport {
        policy: kind.name(),
        bins: packing.num_bins(),
        peak_bins: packing.max_concurrent_bins(),
        cost: packing.cost(),
        billed_cost: billing.cost(&packing),
        lower_bound: lb,
        ratio: crate::analysis::ratio(packing.cost(), lb),
        assignment: packing.assignment.iter().map(|b| b.0).collect(),
    }
}

/// Parses a native CSV job trace into an instance: `dvbp import`.
///
/// The grammar is [`NativeSource`]'s, so the importer and `dvbp run
/// --stream --format csv` accept the same files: one job per line,
/// `arrival,departure,size_1[,size_2,…]` or `id,arrival,departure,
/// size_1[,…]`, rows in arrival order, with an optional header, blank
/// lines and `#` comments. `cap_spec` is the bin capacity as
/// [`parse_cap_spec`] reads it; the dimensionality must match the size
/// columns. Items keep the file's order.
///
/// # Errors
///
/// The capacity spec's error, or the first bad row's, with its line.
pub fn parse_csv(text: &str, cap_spec: &str) -> Result<Instance, String> {
    let capacity = parse_cap_spec(cap_spec)?;
    let mut source = NativeSource::new(text.as_bytes(), capacity.clone(), DirtyPolicy::Reject);
    let mut items: Vec<Item> = Vec::new();
    while let Some(op) = source.next_event().map_err(|e| e.to_string())? {
        match op {
            // Arrival indices are dense, so `items[i]` is item `i`.
            LiveOp::Arrive { size, time, .. } => items.push(Item::new(size, time, Time::MAX)),
            LiveOp::Depart { item, time } => items[item].departure = time,
        }
    }
    Instance::new(capacity, items).map_err(|e| format!("invalid trace: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::UniformParams;
    use crate::DimVec;
    use proptest::prelude::*;

    fn sample_instance() -> Instance {
        Instance::new(
            DimVec::from_slice(&[10, 10]),
            vec![
                Item::new(DimVec::from_slice(&[5, 3]), 0, 10),
                Item::new(DimVec::from_slice(&[6, 6]), 2, 8),
                Item::new(DimVec::from_slice(&[2, 2]), 5, 20),
            ],
        )
        .unwrap()
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = std::env::temp_dir().join("dvbp_tracefile_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        let inst = sample_instance();
        save_instance(&path, &inst).unwrap();
        let back = load_instance(&path).unwrap();
        assert_eq!(back, inst);
    }

    #[test]
    fn load_rejects_invalid_instances() {
        let dir = std::env::temp_dir().join("dvbp_tracefile_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.json");
        // Oversized item: size 11 > capacity 10.
        std::fs::write(
            &path,
            r#"{"capacity":[10],"items":[{"size":[11],"arrival":0,"departure":5,"announced_duration":null}]}"#,
        )
        .unwrap();
        let err = load_instance(&path).unwrap_err();
        assert!(err.contains("invalid instance"), "{err}");
    }

    #[test]
    fn load_reports_missing_file() {
        let err = load_instance(Path::new("/nonexistent/nope.json")).unwrap_err();
        assert!(err.contains("reading"));
    }

    #[test]
    fn csv_parses_with_and_without_header() {
        let csv = "arrival,departure,cpu,mem\n0,10,4,8\n2,5,2,2\n";
        let inst = parse_csv(csv, "8,32").unwrap();
        assert_eq!(inst.len(), 2);
        assert_eq!(inst.dim(), 2);
        assert_eq!(inst.items[0].size.as_slice(), &[4, 8]);
        let headerless = parse_csv("0,10,4,8\n2,5,2,2", "8,32").unwrap();
        assert_eq!(headerless, inst);
    }

    #[test]
    fn csv_skips_comments_and_blank_lines() {
        let csv = "# a comment\n\n0,3,1\n";
        let inst = parse_csv(csv, "10").unwrap();
        assert_eq!(inst.len(), 1);
    }

    #[test]
    fn csv_header_detected_after_comments_and_blanks() {
        // The header is not necessarily the physical first line; any
        // comment/blank prefix must not defeat its detection.
        let csv = "# exported by some tool\n\narrival,departure,cpu\n0,3,1\n1,4,2\n";
        let inst = parse_csv(csv, "10").unwrap();
        assert_eq!(inst.len(), 2);
        assert_eq!(inst.items[1].size.as_slice(), &[2]);
    }

    #[test]
    fn csv_all_numeric_first_row_is_data_even_with_bom() {
        // A UTF-8 BOM used to make the leading "0" unparseable, silently
        // swallowing the first job as a header.
        let with_bom = "\u{feff}0,10,4,8\n2,5,2,2\n";
        let inst = parse_csv(with_bom, "8,32").unwrap();
        assert_eq!(inst.len(), 2);
        assert_eq!(inst.items[0].size.as_slice(), &[4, 8]);
        assert_eq!(inst, parse_csv("0,10,4,8\n2,5,2,2\n", "8,32").unwrap());
    }

    #[test]
    fn csv_roundtrip_through_trace_file_with_header() {
        let dir = std::env::temp_dir().join("dvbp_tracefile_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("csv_roundtrip_header.json");
        let inst = parse_csv("arrival,departure,cpu,mem\n0,10,4,8\n2,5,2,2\n", "8,32").unwrap();
        save_instance(&path, &inst).unwrap();
        assert_eq!(load_instance(&path).unwrap(), inst);
    }

    #[test]
    fn csv_roundtrip_through_trace_file_headerless() {
        let dir = std::env::temp_dir().join("dvbp_tracefile_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("csv_roundtrip_headerless.json");
        let inst = parse_csv("0,10,4,8\n2,5,2,2\n", "8,32").unwrap();
        save_instance(&path, &inst).unwrap();
        assert_eq!(load_instance(&path).unwrap(), inst);
        // Headered and headerless spellings of the same trace stay equal
        // through the whole pipeline.
        let headered = parse_csv("arrival,departure,cpu,mem\n0,10,4,8\n2,5,2,2\n", "8,32").unwrap();
        assert_eq!(inst, headered);
    }

    #[test]
    fn csv_rejects_bad_rows() {
        assert!(parse_csv("0,3", "10")
            .unwrap_err()
            .contains("expected 3 fields"));
        assert!(parse_csv("5,5,1", "10").unwrap_err().contains("departure"));
        assert!(parse_csv("0,3,abc", "10").unwrap_err().contains("abc"));
        assert!(parse_csv("0,3,11", "10")
            .unwrap_err()
            .contains("exceeds the capacity"));
        assert!(parse_csv("0,3,0,0", "10,10")
            .unwrap_err()
            .contains("zero size"));
        assert!(parse_csv("0,3,1", "0").unwrap_err().contains("positive"));
    }

    #[test]
    fn csv_errors_are_typed_with_line_numbers() {
        let err = |text: &str, cap: &str| parse_csv(text, cap).unwrap_err();
        assert_eq!(
            err("0,10,4\n5,5,1\n", "10"),
            "line 2: departure (tick 5) must exceed arrival (tick 5)"
        );
        assert_eq!(
            err("0,10,4\n1,2\n", "10"),
            "line 2: expected 3 fields (arrival,departure and 1 sizes), got 2"
        );
        assert_eq!(
            err("0,10,4,x\n", "10,10"),
            "line 1: size \"x\" is not a non-negative integer"
        );
        assert_eq!(
            err("0,10,11\n", "10"),
            "line 1: size 11 exceeds the capacity 10"
        );
        // Every line-carrying error renders with its line prefix.
        assert!(err("0,10,4\n5,5,1\n", "10").starts_with("line 2:"));
    }

    #[test]
    fn csv_id_column_is_detected_by_field_count() {
        // `d + 3` fields means the leading column is an id — even an
        // all-numeric one — and ids never leak into sizes.
        let with_ids = parse_csv("vmId,arrival,departure,cpu\nvm1,0,10,4\nvm2,2,5,2\n", "10");
        let inst = with_ids.unwrap();
        assert_eq!(inst.len(), 2);
        assert_eq!(inst.items[0].size.as_slice(), &[4]);
        let numeric_ids = parse_csv("7,0,10,4\n9,2,5,2\n", "10").unwrap();
        assert_eq!(numeric_ids, inst);
        // Once locked in, a row missing the id column is a shape error.
        let err = parse_csv("vm1,0,10,4\n2,5,2\n", "10").unwrap_err();
        assert!(err.contains("expected 4 fields"), "{err}");
    }

    #[test]
    fn csv_duplicate_overlapping_ids_are_rejected_but_reuse_is_fine() {
        // vm1 reappears while its first interval [0, 10) is still open.
        let err = parse_csv("vm1,0,10,4\nvm1,5,8,2\n", "10").unwrap_err();
        assert_eq!(
            err,
            "line 2: id \"vm1\" duplicates an item that is still live"
        );
        // Id reuse after departure — routine in real cluster traces —
        // is not a duplicate.
        let reused = parse_csv("vm1,0,10,4\nvm1,10,20,2\n", "10").unwrap();
        assert_eq!(reused.len(), 2);
    }

    #[test]
    fn csv_clamp_repairs_dirty_rows_with_accounting() {
        // The importer always rejects: it fails on the first dirty row.
        // `NativeSource` under `DirtyPolicy::Clamp` repairs these rows.
        let text = "0,10,4\n5,5,6\n3,9,11\n4,6,0\n";
        assert!(parse_csv(text, "10").unwrap_err().starts_with("line 2:"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// An arrival-sorted instance, written in any of the native
        /// spellings, imports back unchanged and streams to the batch
        /// run's packing under every paper policy.
        #[test]
        fn native_csv_round_trips_through_import_and_stream(
            seed in 0u64..10_000,
            pick in 0usize..3,
            n in 1usize..80,
        ) {
            let d = [1, 2, 4][pick];
            let mut inst = UniformParams { dims: d, items: n, mu: 20, span: 200, bin_size: 10 }
                .generate(seed);
            inst.items.sort_by_key(|item| item.arrival);
            if d > 1 {
                // Zero components are legal as long as one stays positive.
                for (i, item) in inst.items.iter_mut().enumerate().step_by(3) {
                    item.size[i % d] = 0;
                }
            }
            let row = |item: &Item| {
                let sizes: Vec<String> = item.size.as_slice().iter().map(u64::to_string).collect();
                format!("{},{},{}\n", item.arrival, item.departure, sizes.join(","))
            };
            let rows: Vec<String> = inst.items.iter().map(row).collect();
            let header = (0..d).fold("arrival,departure".to_string(), |h, j| h + &format!(",s{j}"));
            let with_ids: String = rows.iter().enumerate().map(|(i, r)| format!("vm{i},{r}")).collect();
            let spellings = [
                rows.concat(),
                format!("{header}\n{}", rows.concat()),
                format!("id,{header}\n{with_ids}"),
                format!("\u{feff}{}# exported\n{}", rows[0], rows[1..].concat()),
            ];
            let cap_spec = vec!["10"; d].join(",");
            for text in &spellings {
                prop_assert_eq!(&parse_csv(text, &cap_spec).unwrap(), &inst);
                for kind in PolicyKind::paper_suite(seed) {
                    let batch = PackRequest::new(kind.clone()).run(&inst).unwrap();
                    let mut source = NativeSource::new(
                        text.as_bytes(),
                        inst.capacity.clone(),
                        DirtyPolicy::Reject,
                    );
                    let streamed = PackRequest::new(kind.clone())
                        .run_source(&mut source)
                        .unwrap();
                    prop_assert_eq!(&batch, &streamed, "{} on {:?}", kind.name(), text);
                }
            }
        }
    }

    #[test]
    fn run_report_fields_consistent() {
        let inst = sample_instance();
        let report = run_report(&inst, &PolicyKind::MoveToFront, BillingModel::exact());
        assert_eq!(report.policy, "MoveToFront");
        assert_eq!(report.assignment.len(), inst.len());
        assert!(report.cost >= report.lower_bound);
        assert_eq!(report.billed_cost, report.cost);
        assert!(report.ratio >= 1.0);
        let hourly = run_report(&inst, &PolicyKind::MoveToFront, BillingModel::rounded(60));
        assert!(hourly.billed_cost >= report.cost);
        assert!(hourly.billed_cost.is_multiple_of(60));
    }
}
