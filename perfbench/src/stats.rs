//! Order statistics and the open-loop ladder rules every reported
//! figure goes through. Pure functions, unit-tested below.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_TAIL: usize = 10;

/// Nearest-rank position (1-based) of quantile `q` in `n` samples:
/// `max(1, ceil(q·n))`, the convention `LogHistogram::quantile` and
/// `bench_serve` use.
#[must_use]
pub fn rank(n: usize, q: f64) -> usize {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let r = (q * n as f64).ceil() as usize;
    r.clamp(1, n.max(1))
}

/// The nearest-rank quantile of an ascending sample (0 when empty).
#[must_use]
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    sorted[rank(sorted.len(), q) - 1]
}

/// Whether at least [`MIN_TAIL`] of `n` samples lie beyond quantile
/// `q`, so the percentile rests on more than a handful of outliers.
#[must_use]
pub fn tail_supported(n: usize, q: f64) -> bool {
    n > 0 && n - rank(n, q) >= MIN_TAIL
}

/// The median of `values` (mean of the middle pair for an even count;
/// 0 when empty). Sorts in place.
#[must_use]
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The typical value of a long, noisy sample: `each` window's central
/// value, then the median over windows. A stall moves a window or two,
/// not the figure. Returns it with the window count.
pub fn windowed<'a>(
    windows: impl Iterator<Item = &'a [u64]>,
    each: fn(&[u64]) -> f64,
) -> (f64, u64) {
    let mut values: Vec<f64> = windows.map(each).collect();
    let n = values.len() as u64;
    (median(&mut values), n)
}

/// A window's mean.
#[must_use]
#[allow(clippy::cast_precision_loss)]
pub fn window_mean(w: &[u64]) -> f64 {
    w.iter().sum::<u64>() as f64 / w.len().max(1) as f64
}

/// A window's median.
#[must_use]
#[allow(clippy::cast_precision_loss)]
pub fn window_median(w: &[u64]) -> f64 {
    let mut w = w.to_vec();
    w.sort_unstable();
    quantile(&w, 0.5) as f64
}

/// Offset from the step start (ns) at which request `k` of a step
/// offered at `rate` requests per second is due.
#[must_use]
pub fn due_ns(k: u64, rate: u64) -> u64 {
    assert!(rate > 0, "a ladder rate is positive");
    u64::try_from(u128::from(k) * 1_000_000_000 / u128::from(rate)).unwrap_or(u64::MAX)
}

/// How late a request went out: send time minus due time (ns), zero
/// when it left early or on time.
#[must_use]
pub fn lateness_ns(due: u64, sent: u64) -> u64 {
    sent.saturating_sub(due)
}

/// Whether a series sampled at each send of one connection grew over
/// the step: the mean of its last quarter exceeds twice the first
/// quarter's plus `floor`. A queue that keeps up stays flat (Little's
/// law); one that falls behind by any fixed rate deficit grows
/// linearly, which puts the last quarter's mean at about seven times
/// the first's. Transient stalls move a few samples, not a quarter.
#[must_use]
pub fn growing(series: &[f64], floor: f64) -> bool {
    let q = series.len() / 4;
    if q == 0 {
        return false;
    }
    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
    mean(&series[series.len() - q..]) > 2.0 * mean(&series[..q]) + floor
}

/// Below this many outstanding requests a queue never counts as
/// growing: pipelining two connections keeps a few in flight anyway.
pub const BACKLOG_FLOOR: f64 = 8.0;

/// Whether the server fell behind: the unanswered-request count at each
/// send [`growing`] past [`BACKLOG_FLOOR`].
#[must_use]
pub fn backlog_growing(backlog: &[u32]) -> bool {
    growing(
        &backlog.iter().map(|&v| f64::from(v)).collect::<Vec<_>>(),
        BACKLOG_FLOOR,
    )
}

/// Lateness below this (ns) never counts as the generator falling
/// behind.
pub const LATE_FLOOR_NS: f64 = 1e6;

/// Whether the generator fell behind its schedule: its lateness at each
/// send [`growing`] past [`LATE_FLOOR_NS`]. A stall of the generator's
/// thread makes a few requests late and is already charged to them,
/// since latency runs from the due time; only a generator that cannot
/// keep up lags more and more.
#[must_use]
pub fn lateness_growing(late_ns: &[u64]) -> bool {
    #[allow(clippy::cast_precision_loss)]
    let series: Vec<f64> = late_ns.iter().map(|&v| v as f64).collect();
    growing(&series, LATE_FLOOR_NS)
}

/// What the ladder rule needs to know about one rate step.
#[derive(Clone, Copy, Debug)]
pub struct StepVerdict {
    /// Offered rate (requests per second).
    pub rate: u64,
    /// The generator kept to its schedule (see [`lateness_growing`]).
    pub valid: bool,
    /// Acknowledgement p99 from due time (ns).
    pub p99_ns: u64,
    /// The p99 rests on at least [`MIN_TAIL`] samples beyond it.
    pub tail_ok: bool,
    /// Either connection's backlog grew over the step.
    pub growing: bool,
    /// Requests that failed, errored or went unanswered.
    pub errors: u64,
}

impl StepVerdict {
    /// Whether the step meets the latency limit with a flat backlog.
    #[must_use]
    pub fn passes(&self, p99_limit_ns: u64) -> bool {
        self.valid
            && self.tail_ok
            && !self.growing
            && self.errors == 0
            && self.p99_ns <= p99_limit_ns
    }
}

/// `max_rate_rps`: walking the ladder upwards, the rate of the last step
/// before the first one that fails the limit (`None` if the lowest
/// fails). Stopping at the first failure keeps a lucky step above the
/// knee from being reported.
#[must_use]
pub fn max_rate(steps: &[StepVerdict], p99_limit_ns: u64) -> Option<u64> {
    debug_assert!(steps.windows(2).all(|w| w[0].rate < w[1].rate));
    steps
        .iter()
        .take_while(|s| s.passes(p99_limit_ns))
        .last()
        .map(|s| s.rate)
}

/// The metric-name grammar: 1 to 64 characters of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
#[must_use]
pub fn valid_metric_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_convention() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&s, 0.5), 50);
        assert_eq!(quantile(&s, 0.99), 99);
        assert_eq!(quantile(&s, 1.0), 100);
        assert_eq!(quantile(&s, 0.0), 1, "rank is at least 1");
        assert_eq!(quantile(&[7], 0.99), 7);
        assert_eq!(quantile(&[], 0.5), 0);
        // ceil, not round: 0.5 of 3 samples is rank 2.
        assert_eq!(quantile(&[1, 2, 3], 0.5), 2);
        assert_eq!(rank(1000, 0.99), 990);
    }

    #[test]
    fn ten_samples_beyond_the_reported_percentile() {
        assert!(!tail_supported(999, 0.99), "rank 990 of 999 leaves 9");
        assert!(tail_supported(1000, 0.99), "rank 990 of 1000 leaves 10");
        assert!(tail_supported(20, 0.5));
        assert!(!tail_supported(19, 0.5));
        assert!(!tail_supported(0, 0.5));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn windowed_central_values() {
        let stalled: Vec<u64> = (0..40)
            .map(|i| if i == 5 { 1_000_000 } else { 10 + i % 2 })
            .collect();
        let (m, n) = windowed(stalled.chunks_exact(10), window_mean);
        assert_eq!(n, 4);
        assert_eq!(m, 10.5, "the stalled window is outvoted");
        assert_eq!(windowed(stalled.chunks_exact(10), window_median).0, 10.0);
        // Bimodal samples: window medians jump between the modes as their
        // mix shifts; window means follow the mix smoothly.
        let mix = |fast: usize| -> Vec<u64> {
            (0..100)
                .map(|i| if i < fast { 600 } else { 2_000 })
                .collect()
        };
        assert_eq!(window_median(&mix(51)), 600.0);
        assert_eq!(window_median(&mix(49)), 2_000.0);
        assert!((window_mean(&mix(51)) - window_mean(&mix(49))).abs() < 30.0);
        assert_eq!(windowed(std::iter::empty(), window_mean), (0.0, 0));
    }

    #[test]
    fn due_time_and_lateness_arithmetic() {
        assert_eq!(due_ns(0, 1000), 0);
        assert_eq!(due_ns(1, 1000), 1_000_000);
        assert_eq!(due_ns(3, 3), 1_000_000_000);
        // Integer math: no drift after many requests at an odd rate.
        assert_eq!(due_ns(7_000_000, 7), 1_000_000_000_000_000);
        assert_eq!(due_ns(1, 3), 333_333_333);
        assert_eq!(lateness_ns(1_000, 1_250), 250);
        assert_eq!(lateness_ns(1_000, 900), 0, "early sends are not late");
    }

    #[test]
    fn backlog_growth_detection() {
        assert!(!backlog_growing(&[2; 400]), "flat");
        assert!(!backlog_growing(&[]));
        let noisy: Vec<u32> = (0..400).map(|i| [1, 5, 2, 9][i % 4]).collect();
        assert!(!backlog_growing(&noisy), "noisy but flat");
        let ramp: Vec<u32> = (0..400).collect();
        assert!(backlog_growing(&ramp), "linear growth");
        let small_ramp: Vec<u32> = (0..400).map(|i| i / 80).collect();
        assert!(!backlog_growing(&small_ramp), "stays under the floor");
    }

    #[test]
    fn generator_lag_detection() {
        let mut stalled = vec![20_000u64; 1_000];
        // One 8 ms stall: the requests due during it go out late, then
        // the generator is back on schedule.
        for (i, l) in stalled[400..440].iter_mut().enumerate() {
            *l = 8_000_000 - i as u64 * 200_000;
        }
        assert!(!lateness_growing(&stalled), "a transient stall is not lag");
        let lagging: Vec<u64> = (0..1_000).map(|i| i * 10_000).collect();
        assert!(lateness_growing(&lagging), "10 us more behind per request");
    }

    fn step(rate: u64, p99_ns: u64) -> StepVerdict {
        StepVerdict {
            rate,
            valid: true,
            p99_ns,
            tail_ok: true,
            growing: false,
            errors: 0,
        }
    }

    #[test]
    fn max_rate_is_the_last_step_before_the_first_failure() {
        let limit = 1_000;
        let ladder = [
            step(100, 10),
            step(200, 500),
            step(300, 2_000),
            step(400, 900),
        ];
        assert_eq!(
            max_rate(&ladder, limit),
            Some(200),
            "400 passes only by luck"
        );
        assert_eq!(max_rate(&ladder[..2], limit), Some(200));
        assert_eq!(max_rate(&[step(100, 5_000)], limit), None);
        let mut late = ladder;
        late[1].valid = false;
        assert_eq!(
            max_rate(&late, limit),
            Some(100),
            "an invalid step ends the walk"
        );
        let mut growing = ladder;
        growing[1].growing = true;
        assert_eq!(max_rate(&growing, limit), Some(100));
        let mut errors = ladder;
        errors[0].errors = 1;
        assert_eq!(max_rate(&errors, limit), None);
        let mut thin = ladder;
        thin[1].tail_ok = false;
        assert_eq!(max_rate(&thin, limit), Some(100));
    }

    #[test]
    fn metric_name_grammar() {
        for ok in [
            "events_per_s",
            "ack_p99_ms.high",
            "server.stage_share.wal_sync",
            "9x",
            "a-b",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", ".x", "_x", "a b", "a/b", "ä", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
