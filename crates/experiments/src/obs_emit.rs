//! `--metrics` support: streaming observer metrics from experiment runs.
//!
//! The Figure 4 / Table 2 sweeps run thousands of trials in
//! [`TraceMode::CostOnly`](dvbp_core::TraceMode::CostOnly); replaying
//! every one through an emitter would swamp the output. Instead the
//! harness re-runs **one representative trial (trial 0) per grid point
//! and algorithm** with a [`JsonlEmitter`] + [`MetricsObserver`] pair
//! attached, labeling each run with an [`ObsEvent::Meta`] line so
//! `dvbp-analysis` can group the file back into runs
//! (`dvbp_analysis::obs_ingest::ingest_jsonl`).

use dvbp_core::{Instance, PackRequest, PolicyKind};
use dvbp_obs::{JsonlEmitter, MetricsObserver, ObsEvent};
use std::fs::File;
use std::io::BufWriter;
use std::path::Path;

/// One labeled run to emit: the grid coordinates plus the instance.
pub struct MetricsRun<'a> {
    /// Algorithm to pack with.
    pub kind: PolicyKind,
    /// Dimension label for the `Meta` line.
    pub d: usize,
    /// μ label for the `Meta` line.
    pub mu: u64,
    /// Trial seed label for the `Meta` line.
    pub seed: u64,
    /// The instance the run packs.
    pub instance: &'a Instance,
}

/// Streams the given runs to a JSONL file at `path`, one `Meta` line
/// followed by the full engine event stream per run. Returns the number
/// of JSON lines written.
///
/// Each run also feeds a [`MetricsObserver`] through the tuple-observer
/// composition; its peak-concurrency counter is cross-checked against
/// the packing's sweep-line ground truth, so a corrupted stream fails
/// loudly at emission time rather than at analysis time.
///
/// # Errors
///
/// Returns the first [`ObsError`](dvbp_obs::ObsError) hit (file
/// creation, serialization, write, or final flush).
pub fn emit_metrics_jsonl(path: &Path, runs: &[MetricsRun<'_>]) -> Result<u64, dvbp_obs::ObsError> {
    let mut emitter = JsonlEmitter::new(BufWriter::new(File::create(path)?));
    for run in runs {
        emitter.emit(&ObsEvent::Meta {
            algorithm: run.kind.name(),
            d: run.d,
            mu: run.mu,
            seed: run.seed,
        });
        let mut metrics = MetricsObserver::new();
        let mut both = (&mut emitter, &mut metrics);
        let packing = PackRequest::new(run.kind.clone())
            .observer(&mut both)
            .run(run.instance)
            .unwrap_or_else(|e| panic!("invalid instance in metrics run: {e}"));
        assert_eq!(
            metrics.max_concurrent_bins(),
            packing.max_concurrent_bins(),
            "{}: observer peak concurrency diverged from sweep line",
            run.kind.name()
        );
    }
    let lines = emitter.lines();
    emitter.finish()?;
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvbp_workloads::UniformParams;

    #[test]
    fn emitted_file_ingests_and_replays() {
        let params = UniformParams {
            dims: 2,
            items: 60,
            mu: 10,
            span: 50,
            bin_size: 100,
        };
        let inst = params.generate(7);
        let runs: Vec<MetricsRun<'_>> = [PolicyKind::FirstFit, PolicyKind::MoveToFront]
            .into_iter()
            .map(|kind| MetricsRun {
                kind,
                d: 2,
                mu: 10,
                seed: 7,
                instance: &inst,
            })
            .collect();
        let dir = std::env::temp_dir().join("dvbp_obs_emit_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.jsonl");
        let lines = emit_metrics_jsonl(&path, &runs).unwrap();
        assert!(lines > 0);

        let text = std::fs::read_to_string(&path).unwrap();
        let ingested = dvbp_analysis::obs_ingest::ingest_jsonl(&text).unwrap();
        assert_eq!(ingested.len(), 2);
        for run in &ingested {
            let packing = run.replay().unwrap();
            packing.verify(&inst).unwrap();
            // The stream's open-bin peak is the replayed packing's.
            let mut open = 0;
            let peak = run.events.iter().fold(0, |peak, ev| {
                match ev {
                    ObsEvent::BinOpen { .. } => open += 1,
                    ObsEvent::BinClose { .. } => open -= 1,
                    _ => {}
                }
                peak.max(open)
            });
            assert_eq!(peak, packing.max_concurrent_bins());
        }
        std::fs::remove_file(&path).ok();
    }
}
