//! **dvbp-traces** — streaming ingestion of real cluster traces and
//! synthetic workload generators for MinUsageTime DVBP.
//!
//! Every source in this crate implements
//! [`dvbp_core::EventSource`]: a pull stream of canonical-order
//! [`LiveOp`](dvbp_core::LiveOp)s that the engine consumes with
//! `Engine::run_source` (or `LiveEngine::drive_source`) in **constant
//! memory** — O(active items + open bins), independent of trace length.
//! A multi-million-row replay never materializes an
//! [`Instance`](dvbp_core::Instance).
//!
//! # Supported formats
//!
//! | [`TraceFormat`] | schema | module |
//! |-----------------|--------|--------|
//! | `Azure`  | AzurePublicDataset packing trace (`vmId,starttime,endtime,frac...`, fractional days) | [`azure`] |
//! | `Google` | clusterdata-2011 `task_events` (13 columns, µs timestamps) | [`google`] |
//! | `Native` | this repo's `arrival,departure,size...` CSV | [`native`] |
//!
//! Real traces are dirty; [`DirtyPolicy`] picks between failing fast
//! (`Reject`, the default) and minimally repairing with full accounting
//! (`Clamp` + [`IngestStats`]).
//!
//! # Quick start
//!
//! ```
//! use dvbp_core::{PackRequest, PolicyKind};
//! use dvbp_traces::{DirtyPolicy, OpenOptions, TraceFormat};
//! use std::io::Cursor;
//!
//! let csv = "vmId,starttime,endtime,core,memory\n\
//!            vm1,0.0,0.5,0.25,0.5\n\
//!            vm2,0.25,0.75,0.5,0.25\n";
//! let mut source = TraceFormat::Azure
//!     .open_reader(Cursor::new(csv.as_bytes()), &OpenOptions::default())
//!     .unwrap();
//! let packing = PackRequest::new(PolicyKind::FirstFit)
//!     .run_source(&mut *source)
//!     .unwrap();
//! assert_eq!(packing.num_bins(), 1);
//! ```

pub mod azure;
pub mod emit;
pub mod google;
mod ingest;
pub mod native;
pub mod synth;

pub use azure::{AzureSource, AZURE_TICKS_PER_DAY};
pub use emit::{write_azure_csv, write_google_csv};
pub use google::GoogleSource;
pub use ingest::{DirtyPolicy, IngestStats};
pub use native::NativeSource;
pub use synth::{Burst, Diurnal, FeedSource, HeavyTail, ItemIter, SynthItem};

use dvbp_core::{EventSource, SourceError};
use dvbp_dimvec::DimVec;
use std::fs::File;
use std::io::BufReader;
use std::path::Path;
use std::str::FromStr;

/// An [`EventSource`] that also reports [`IngestStats`] — what every
/// trace parser in this crate is, behind one object-safe face.
pub trait TraceSource: EventSource {
    /// Ingest statistics so far (final once the stream is exhausted).
    fn stats(&self) -> IngestStats;
}

impl<R: std::io::BufRead> TraceSource for AzureSource<R> {
    fn stats(&self) -> IngestStats {
        self.stats()
    }
}

impl<R: std::io::BufRead> TraceSource for GoogleSource<R> {
    fn stats(&self) -> IngestStats {
        self.stats()
    }
}

impl<R: std::io::BufRead> TraceSource for NativeSource<R> {
    fn stats(&self) -> IngestStats {
        self.stats()
    }
}

/// Which on-disk trace schema to parse.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceFormat {
    /// AzurePublicDataset packing trace.
    Azure,
    /// Google cluster-usage `task_events`.
    Google,
    /// This repo's native `arrival,departure,size...` CSV.
    Native,
}

impl std::str::FromStr for TraceFormat {
    type Err = String;

    /// Parses `azure`, `google`, or `native`/`csv` (CLI spelling).
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "azure" => Ok(TraceFormat::Azure),
            "google" => Ok(TraceFormat::Google),
            "native" | "csv" => Ok(TraceFormat::Native),
            _ => Err(format!(
                "unknown trace format {s:?} (expected azure, google, or native)"
            )),
        }
    }
}

impl std::fmt::Display for TraceFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TraceFormat::Azure => "azure",
            TraceFormat::Google => "google",
            TraceFormat::Native => "native",
        })
    }
}

/// Knobs shared by every trace opener.
#[derive(Clone, Debug)]
pub struct OpenOptions {
    /// Bin capacity. Fractional formats (Azure, Google) default to 100
    /// units per dimension when `None`; the native format requires it.
    pub capacity: Option<DimVec>,
    /// Tick quantization for the Azure format's fractional-day
    /// timestamps.
    pub ticks_per_day: u64,
    /// Dirty-row handling.
    pub dirty: DirtyPolicy,
}

impl Default for OpenOptions {
    fn default() -> Self {
        OpenOptions {
            capacity: None,
            ticks_per_day: AZURE_TICKS_PER_DAY,
            dirty: DirtyPolicy::default(),
        }
    }
}

/// Parses a `--cap C1,C2,...` bin capacity: positive units per
/// dimension.
///
/// # Errors
///
/// A component that is not a number, or a spec that is empty or has a
/// zero component.
pub fn parse_cap_spec(spec: &str) -> Result<DimVec, String> {
    let units = spec
        .split(',')
        .map(|c| {
            c.trim()
                .parse::<u64>()
                .map_err(|e| format!("--cap {c}: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    if units.is_empty() || units.contains(&0) {
        return Err(format!("--cap {spec}: need positive units per dimension"));
    }
    Ok(DimVec::from_slice(&units))
}

/// The stream flags every binary that opens a trace takes — `--format`,
/// `--cap`, `--ticks-per-day` and `--dirty` — as a format and its
/// [`OpenOptions`]. `flag` looks a flag's value up on the command line.
///
/// # Errors
///
/// A missing `--format`, or the first flag whose value does not parse.
pub fn stream_options(
    flag: impl Fn(&str) -> Option<String>,
) -> Result<(TraceFormat, OpenOptions), String> {
    fn parse<T: FromStr>(key: &str, value: Option<String>, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        value.map_or(Ok(default), |v| {
            v.parse().map_err(|e| format!("{key} {v}: {e}"))
        })
    }
    let format = flag("--format")
        .ok_or("--stream requires --format azure|google|csv")?
        .parse()?;
    let options = OpenOptions {
        capacity: flag("--cap")
            .map(|spec| parse_cap_spec(&spec))
            .transpose()?,
        ticks_per_day: parse(
            "--ticks-per-day",
            flag("--ticks-per-day"),
            AZURE_TICKS_PER_DAY,
        )?,
        dirty: parse("--dirty", flag("--dirty"), DirtyPolicy::default())?,
    };
    Ok((format, options))
}

/// Peak resident set of this process in kB (`VmHWM` in
/// `/proc/self/status`): how `dvbp run --stream --max-rss-kb` and
/// `bench_traces` hold a replay to its constant-memory ceiling. Zero
/// where that file is unavailable (non-Linux), which passes the
/// ceiling check rather than failing it spuriously.
#[must_use]
pub fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|l| l.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

impl TraceFormat {
    /// Opens a trace stream over any buffered reader.
    ///
    /// # Errors
    ///
    /// [`SourceError`] on construction-time problems: empty Azure
    /// input, capacity/dimension mismatches, or a missing capacity for
    /// the native format.
    pub fn open_reader<R: std::io::BufRead + Send + 'static>(
        self,
        reader: R,
        options: &OpenOptions,
    ) -> Result<Box<dyn TraceSource + Send>, SourceError> {
        match self {
            TraceFormat::Azure => Ok(Box::new(AzureSource::new(
                reader,
                options.capacity.clone(),
                options.ticks_per_day,
                options.dirty,
            )?)),
            TraceFormat::Google => Ok(Box::new(GoogleSource::new(
                reader,
                options.capacity.clone(),
                options.dirty,
            )?)),
            TraceFormat::Native => {
                let Some(capacity) = options.capacity.clone() else {
                    return Err(SourceError::new(
                        "the native format needs an explicit capacity (sizes are absolute units)",
                    ));
                };
                Ok(Box::new(NativeSource::new(reader, capacity, options.dirty)))
            }
        }
    }

    /// Opens a trace file on disk.
    ///
    /// # Errors
    ///
    /// [`SourceError`] if the file cannot be opened, plus everything
    /// [`open_reader`](Self::open_reader) reports.
    pub fn open_path(
        self,
        path: &Path,
        options: &OpenOptions,
    ) -> Result<Box<dyn TraceSource + Send>, SourceError> {
        let file = File::open(path)
            .map_err(|e| SourceError::new(format!("cannot open {}: {e}", path.display())))?;
        self.open_reader(BufReader::new(file), options)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_names_round_trip() {
        for (name, fmt) in [
            ("azure", TraceFormat::Azure),
            ("google", TraceFormat::Google),
            ("native", TraceFormat::Native),
        ] {
            assert_eq!(name.parse::<TraceFormat>().unwrap(), fmt);
            assert_eq!(fmt.to_string(), name);
        }
        assert_eq!("csv".parse::<TraceFormat>().unwrap(), TraceFormat::Native);
        assert!("xlsx".parse::<TraceFormat>().is_err());
    }

    #[test]
    fn native_without_capacity_is_a_construction_error() {
        let err = TraceFormat::Native
            .open_reader(std::io::Cursor::new(Vec::new()), &OpenOptions::default())
            .err()
            .expect("native needs a capacity");
        assert!(err.to_string().contains("capacity"), "{err}");
    }
}
