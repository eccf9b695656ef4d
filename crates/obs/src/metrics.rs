//! [`MetricsObserver`]: counters over one engine run.
//!
//! The paper's average-case study (Table 2 / Figure 4) reasons about
//! quantities — open-bin counts, placement effort — that a cost-only
//! sweep cannot see. This observer counts them in O(1) per event and
//! O(1) memory, independent of the run length, so it can ride along
//! production-scale traces.

use crate::{Arrival, Depart, Migrate, Observer, Place, RunStart};
use dvbp_sim::Time;

/// Counters over one run.
///
/// * **Counters** — arrivals, departures, migrations, bins
///   opened/closed, total candidate bins scanned by the policy.
/// * **Exact extrema** — [`max_concurrent_bins`](Self::max_concurrent_bins)
///   is tracked exactly (a property test pins it to
///   `Packing::max_concurrent_bins`).
#[derive(Clone, Debug, Default)]
pub struct MetricsObserver {
    /// Items arrived (= items placed).
    pub arrivals: u64,
    /// Items departed.
    pub departures: u64,
    /// Items migrated between bins by a repacking policy (live runs
    /// with repacking only; 0 for batch runs).
    pub migrations: u64,
    /// Bins ever opened.
    pub bins_opened: u64,
    /// Bins closed.
    pub bins_closed: u64,
    /// Total candidate bins examined by the policy over all placements.
    pub total_scanned: u64,
    open_bins: usize,
    max_open: usize,
}

impl MetricsObserver {
    /// Creates a metrics observer with every counter at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Bins currently open (0 after a completed run: every bin closes).
    #[must_use]
    pub fn open_bins(&self) -> usize {
        self.open_bins
    }

    /// Maximum number of simultaneously open bins over the run — exact,
    /// and equal to `Packing::max_concurrent_bins` of the same run.
    #[must_use]
    pub fn max_concurrent_bins(&self) -> usize {
        self.max_open
    }

    /// Mean candidate bins examined per placement (0 for an empty run).
    #[must_use]
    pub fn mean_scan_length(&self) -> f64 {
        if self.arrivals == 0 {
            0.0
        } else {
            self.total_scanned as f64 / self.arrivals as f64
        }
    }
}

impl Observer for MetricsObserver {
    fn on_run_start(&mut self, _run: RunStart<'_>) {
        *self = Self::new();
    }

    fn on_arrival(&mut self, _ev: Arrival<'_>) {
        self.arrivals += 1;
    }

    fn on_bin_open(&mut self, _time: Time, _bin: usize) {
        self.bins_opened += 1;
        self.open_bins += 1;
        self.max_open = self.max_open.max(self.open_bins);
    }

    fn on_place(&mut self, ev: Place) {
        self.total_scanned += ev.scanned;
    }

    fn on_depart(&mut self, _ev: Depart) {
        self.departures += 1;
    }

    fn on_migrate(&mut self, _ev: Migrate) {
        self.migrations += 1;
    }

    fn on_bin_close(&mut self, _time: Time, _bin: usize) {
        self.bins_closed += 1;
        self.open_bins -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunEnd;

    #[test]
    fn counters_track_a_tiny_run() {
        let mut m = MetricsObserver::new();
        m.on_run_start(RunStart {
            capacity: &[10],
            items: 2,
        });
        m.on_arrival(Arrival {
            time: 0,
            item: 0,
            size: &[5],
        });
        m.on_bin_open(0, 0);
        m.on_place(Place {
            time: 0,
            item: 0,
            bin: 0,
            opened_new: true,
            scanned: 0,
        });
        m.on_arrival(Arrival {
            time: 1,
            item: 1,
            size: &[5],
        });
        m.on_place(Place {
            time: 1,
            item: 1,
            bin: 0,
            opened_new: false,
            scanned: 1,
        });
        m.on_depart(Depart {
            time: 4,
            item: 0,
            bin: 0,
        });
        m.on_depart(Depart {
            time: 5,
            item: 1,
            bin: 0,
        });
        m.on_bin_close(5, 0);
        m.on_run_end(RunEnd {
            time: 5,
            items: 2,
            bins: 1,
        });

        assert_eq!(m.arrivals, 2);
        assert_eq!(m.departures, 2);
        assert_eq!(m.bins_opened, 1);
        assert_eq!(m.bins_closed, 1);
        assert_eq!(m.open_bins(), 0);
        assert_eq!(m.max_concurrent_bins(), 1);
        assert_eq!(m.total_scanned, 1);
        assert!((m.mean_scan_length() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn run_start_resets_previous_run() {
        let mut m = MetricsObserver::new();
        m.on_run_start(RunStart {
            capacity: &[10],
            items: 1,
        });
        m.on_arrival(Arrival {
            time: 0,
            item: 0,
            size: &[5],
        });
        m.on_bin_open(0, 0);
        m.on_place(Place {
            time: 0,
            item: 0,
            bin: 0,
            opened_new: true,
            scanned: 0,
        });
        m.on_run_start(RunStart {
            capacity: &[10],
            items: 0,
        });
        assert_eq!(m.arrivals, 0);
        assert_eq!(m.bins_opened, 0);
        assert_eq!(m.open_bins(), 0);
    }
}
