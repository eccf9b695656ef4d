//! Machine-speed calibration.
//!
//! On a shared VM the CPU itself speeds up and slows down: the same
//! replay ran at 0.74M events/s and at 1.3–1.5M events/s ten minutes
//! apart, with wall and CPU time equal throughout (no steal shows),
//! which is what another tenant on the sibling hyperthread looks like.
//! No amount of work in a run averages that away, so the gated figures
//! that are CPU work are scaled to a reference speed: each run times a
//! fixed kernel of the benchmark's own — no code of the program under
//! test — next to its measurements, and reports a time `t` as
//! `t · REFERENCE_NS / kernel` and a rate `r` as `r · kernel /
//! REFERENCE_NS`. A change to the program moves the scaled figure as
//! much as the raw one; a change of machine speed moves the kernel too
//! and largely cancels (over six runs, the spread of replay throughput
//! fell from 0.30 raw to 0.08 scaled). The raw figures are printed next
//! to the scaled ones.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time (ns) on the reference machine in its fast state:
/// scaled figures read as measured there.
pub const REFERENCE_NS: f64 = 400_000.0;

/// Values sorted per kernel iteration: 64 KiB, cache-resident like the
/// engine's hot state.
const LEN: usize = 16_384;
/// Timed kernel iterations per calibration; the median is kept.
const ITERATIONS: usize = 15;

/// One kernel iteration: fill a buffer from a xorshift generator, sort
/// it, fold it — integer work, branches and cache traffic, the mix the
/// parsers and the engine run on.
fn iteration(buf: &mut [u32], seed: u64) -> u64 {
    let mut x = seed | 1;
    for slot in buf.iter_mut() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *slot = (x >> 32) as u32;
    }
    buf.sort_unstable();
    buf.iter().enumerate().fold(0u64, |acc, (i, &v)| {
        acc.wrapping_mul(31).wrapping_add(u64::from(v) ^ i as u64)
    })
}

/// The kernel's median iteration time now (ns).
#[must_use]
pub fn kernel_ns() -> f64 {
    let mut buf = vec![0u32; LEN];
    let mut times: Vec<f64> = (0..ITERATIONS)
        .map(|i| {
            let t0 = Instant::now();
            black_box(iteration(black_box(&mut buf), i as u64 + 1));
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    median(&mut times)
}

/// How much slower than the reference this machine ran, from kernel
/// samples taken during the run (their median): times are divided by
/// it, rates multiplied.
#[must_use]
pub fn slowdown(samples: &[f64]) -> f64 {
    median(&mut samples.to_vec()) / REFERENCE_NS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_sorts() {
        let mut a = vec![0u32; LEN];
        let mut b = vec![0u32; LEN];
        assert_eq!(iteration(&mut a, 7), iteration(&mut b, 7));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert_ne!(iteration(&mut a, 7), iteration(&mut b, 8));
    }

    #[test]
    fn slowdown_is_the_median_sample_over_the_reference() {
        assert_eq!(
            slowdown(&[REFERENCE_NS, 3.0 * REFERENCE_NS, 2.0 * REFERENCE_NS]),
            2.0
        );
        assert!(kernel_ns() > 0.0);
    }
}
