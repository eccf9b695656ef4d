//! Deterministic parallel trial runner for DVBP experiments.
//!
//! The online packing algorithms are inherently sequential, but the
//! experiments are embarrassingly parallel across *trials* (Figure 4 runs
//! `m = 1000` seeded instances per grid point) and across grid points.
//! This crate runs a seeded closure over trial indices on scoped std
//! threads. [`run_trials_on`] statically splits the output buffer into
//! per-worker `&mut` chunks, so workers write results without any locks
//! or atomics on the hot path.
//!
//! Determinism contract: the closure receives the **trial index**, derives
//! its own seed from it, and returns a value; results are written to the
//! trial's slot, so the output vector is identical regardless of thread
//! count or scheduling. (This is the guides' "no data races, same results
//! as sequential" discipline: parallelism only over independent trials.)

use std::mem::MaybeUninit;
use std::num::NonZeroUsize;

/// Number of worker threads used by [`run_trials`]: the machine's
/// available parallelism, capped by the trial count.
#[must_use]
pub fn default_threads(trials: usize) -> NonZeroUsize {
    let hw = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    NonZeroUsize::new(hw.min(trials).max(1)).expect("max(1) is nonzero")
}

/// Runs `f(trial_index)` for every index in `0..trials` on `threads`
/// workers and returns the results in index order.
///
/// `f` must derive all randomness from the trial index (e.g.
/// `StdRng::seed_from_u64(base ^ index)`), which makes the output
/// independent of the parallel schedule.
///
/// The result vector's spare capacity is split into one contiguous
/// `&mut [MaybeUninit<T>]` chunk per worker before the threads start, so
/// each worker writes its trials' results directly into the output with
/// no locks, atomics, or per-slot `Option` wrappers.
///
/// # Panics
///
/// Propagates the first panic raised by `f`. On that path the results
/// already produced by other workers are leaked (never dropped), which is
/// safe; the buffer itself is still freed.
#[must_use]
pub fn run_trials_on<T, F>(trials: usize, threads: NonZeroUsize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if trials == 0 {
        return Vec::new();
    }
    let threads = threads.get().min(trials);
    if threads == 1 {
        return (0..trials).map(f).collect();
    }

    let mut slots: Vec<T> = Vec::with_capacity(trials);
    let spare: &mut [MaybeUninit<T>] = &mut slots.spare_capacity_mut()[..trials];
    std::thread::scope(|scope| {
        // Distribute trials evenly: the first `trials % threads` workers
        // take one extra. Contiguous ranges keep each worker's seeds (and
        // caches) local while the static split stays schedule-independent.
        let base = trials / threads;
        let extra = trials % threads;
        let mut rest = spare;
        let mut start = 0usize;
        for w in 0..threads {
            let len = base + usize::from(w < extra);
            let (chunk, tail) = rest.split_at_mut(len);
            rest = tail;
            let f = &f;
            scope.spawn(move || {
                for (k, slot) in chunk.iter_mut().enumerate() {
                    slot.write(f(start + k));
                }
            });
            start += len;
        }
        // Implicit joins at scope exit re-raise any worker panic.
    });
    // SAFETY: the chunks partition `spare[..trials]` exactly and every
    // worker wrote each slot of its chunk; a panicking worker would have
    // propagated out of the scope above before reaching this point.
    unsafe { slots.set_len(trials) };
    slots
}

/// [`run_trials_on`] with [`default_threads`].
#[must_use]
pub fn run_trials<T, F>(trials: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_trials_on(trials, default_threads(trials), f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_index_order() {
        let out = run_trials(100, |i| i * i);
        assert_eq!(out.len(), 100);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn identical_across_thread_counts() {
        let f = |i: usize| {
            // A little CPU noise to encourage interleaving.
            let mut x = i as u64 + 1;
            for _ in 0..50 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
            }
            x
        };
        let one = run_trials_on(200, NonZeroUsize::new(1).unwrap(), f);
        let four = run_trials_on(200, NonZeroUsize::new(4).unwrap(), f);
        let many = run_trials_on(200, NonZeroUsize::new(16).unwrap(), f);
        assert_eq!(one, four);
        assert_eq!(one, many);
    }

    #[test]
    fn zero_trials() {
        let out: Vec<u32> = run_trials(0, |_| unreachable!("no trials"));
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_trials() {
        let out = run_trials_on(3, NonZeroUsize::new(64).unwrap(), |i| i + 1);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn default_threads_bounds() {
        assert_eq!(default_threads(0).get(), 1);
        assert_eq!(default_threads(1).get(), 1);
        assert!(default_threads(10_000).get() >= 1);
    }

    #[test]
    fn uneven_chunking_covers_every_trial() {
        // trials not divisible by threads: 7 over 3 workers → 3/2/2.
        for (trials, threads) in [(7, 3), (5, 5), (9, 2), (16, 5)] {
            let out = run_trials_on(trials, NonZeroUsize::new(threads).unwrap(), |i| i);
            assert_eq!(out, (0..trials).collect::<Vec<_>>(), "{trials}/{threads}");
        }
    }

    #[test]
    fn heap_results_survive_the_unsafe_handoff() {
        // String results exercise drop/ownership through the MaybeUninit
        // buffer (miri-style sanity: no double drops, no leaks on success).
        let out = run_trials_on(50, NonZeroUsize::new(4).unwrap(), |i| format!("trial-{i}"));
        for (i, s) in out.iter().enumerate() {
            assert_eq!(s, &format!("trial-{i}"));
        }
    }

    #[test]
    #[should_panic]
    fn worker_panics_propagate() {
        let _ = run_trials_on(10, NonZeroUsize::new(4).unwrap(), |i| {
            assert!(i != 5, "boom");
            i
        });
    }
}
