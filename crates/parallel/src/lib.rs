//! Deterministic parallel execution substrate.
//!
//! MorphQPV's hot paths are embarrassingly parallel — one program execution
//! per sampled input per tracepoint (characterization), one independent run
//! per solver restart, one grid point per baseline sweep — but naive
//! threading would destroy reproducibility: the serial code threads a single
//! `StdRng` through input generation, noise, and shot readout, so any
//! reordering changes every sampled trace.
//!
//! This crate fixes that with two pieces:
//!
//! 1. **Seed splitting** ([`derive_master`] + [`child_seed`]): draw one
//!    *master seed* from the caller's RNG, then give task `i` its own
//!    `StdRng` seeded with `child_seed(master, i)`. Each task's stream is a
//!    pure function of `(master, i)` — independent of scheduling, worker
//!    count, and the progress of other tasks.
//! 2. **Deterministic fan-out** ([`parallel_map`]): a scoped-thread work
//!    queue that evaluates `f(i, &items[i])` for every index and returns
//!    results *in index order*. With per-task seeds, running with 1 worker
//!    or N workers produces bit-identical output. A worker count of `0`
//!    fans out only when the work pays for the threads: the first item
//!    runs on the caller and is timed, and helpers start only if the rest
//!    would take longer than [`FAN_OUT_PAYBACK`] serially.
//!
//! Combined with order-independent cost merging (`CostLedger` totals are
//! sums of `u64`s), serial and parallel runs of characterization, solvers,
//! and baseline sweeps agree exactly — the determinism guarantee documented
//! in `DESIGN.md`.
//!
//! For long-lived services that accept jobs over time rather than fanning
//! out a known batch, the [`pool`] module provides [`WorkerPool`]: a bounded
//! FIFO drained by a fixed set of threads, with explicit backpressure,
//! panic isolation, pause/resume, and drain-then-shutdown.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

pub mod pool;

pub use pool::{PoolRejection, WorkerPool};

/// Locks a mutex, recovering the inner guard if a previous holder panicked.
///
/// Every mutex in this crate protects state whose invariants hold at each
/// lock release (queues, counters, result slots), so a poisoned lock — a
/// job panicked while a worker held the guard — is safe to keep using. The
/// panic itself is surfaced elsewhere (the pool's panic backstop counter,
/// `parallel_map`'s scope propagation); recovering here keeps one
/// panicking job from wedging every later request behind a
/// `PoisonError` cascade.
pub fn lock_or_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Derives the master seed for a parallel region from the caller's RNG.
///
/// Consumes exactly one `u64` draw, so the caller's stream advances the same
/// way regardless of how many tasks the region spawns.
pub fn derive_master(rng: &mut impl Rng) -> u64 {
    rng.gen::<u64>()
}

/// Derives the seed of task `index` from a master seed.
///
/// Uses the SplitMix64 finalizer over `master + (index + 1) · φ64`, giving
/// well-separated, statistically independent child streams even for adjacent
/// indices (the standard splittable-PRNG construction).
pub fn child_seed(master: u64, index: u64) -> u64 {
    let mut z = master.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A `StdRng` for task `index` of the region rooted at `master`.
pub fn child_rng(master: u64, index: u64) -> StdRng {
    StdRng::seed_from_u64(child_seed(master, index))
}

/// Serial time above which `parallel_map(0, ..)` spreads the items after
/// the first over helper threads.
///
/// Measured on a 2-vCPU host, the only one measured. In a hot loop, two
/// workers broke even at 0.03–0.05 ms of serial work after the first
/// item, on uniform arithmetic and on whole characterization sweeps
/// alike. Inside a verification the helpers start cold, and calls that
/// fanned out a few microseconds of input preparation cost 0.08–0.24 ms
/// more than serial. Two cores save at most half the remaining time, so
/// the constant is set where that half, 0.5 ms, is twice the worst cost
/// seen. The `corpus` benchmark read the same at 0.25 ms. More cores
/// start more helpers, whose spawn cost was not measured.
pub const FAN_OUT_PAYBACK: Duration = Duration::from_millis(1);

/// The number of available cores, looked up once per process: the lookup
/// reads the cgroup quota and costs about 12 µs.
fn available_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Resolves a requested worker count: `0` means "all available cores".
pub fn effective_workers(requested: usize) -> usize {
    if requested == 0 {
        available_cores()
    } else {
        requested
    }
}

/// Evaluates `f(i, &items[i])` for every index and returns the results in
/// index order.
///
/// - `workers == 0` uses all available cores where the work pays for
///   them: item 0 runs on the caller's thread and is timed, and the other
///   items fan out only if that time, times their count, exceeds
///   [`FAN_OUT_PAYBACK`] (and the host has more than one core). Otherwise
///   they run serially on the caller, with no thread spawned. A call that
///   fans out therefore pays at most one item's time before its helpers
///   start.
/// - `workers == 1` (or a single item) runs inline on the caller's thread
///   with no synchronization.
/// - `workers == k > 1` runs exactly `k` workers.
///
/// Fanned-out work is distributed through a shared atomic cursor, so long
/// and short tasks balance across threads, and the caller is one of the
/// workers. Because each result lands in its input's slot, scheduling
/// never affects output order or content.
///
/// # Panics
///
/// Propagates the panic of any task.
pub fn parallel_map<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if workers != 0 {
        let workers = workers.min(items.len());
        if workers <= 1 {
            return items
                .iter()
                .enumerate()
                .map(|(i, item)| f(i, item))
                .collect();
        }
        return fan_out(workers, items, Vec::new(), &f);
    }

    let Some(first_item) = items.first() else {
        return Vec::new();
    };
    let started = Instant::now();
    let first = f(0, first_item);
    let rest = items.len() - 1;
    let serial_estimate = started.elapsed().as_nanos().saturating_mul(rest as u128);
    let mut done = vec![first];
    if rest == 0 || serial_estimate <= FAN_OUT_PAYBACK.as_nanos() || available_cores() == 1 {
        done.extend(items.iter().enumerate().skip(1).map(|(i, item)| f(i, item)));
        return done;
    }
    fan_out(available_cores().min(rest), items, done, &f)
}

/// Runs `f` on the items after the `done` prefix with `workers` workers:
/// the caller and `workers - 1` scoped helper threads.
fn fan_out<T, R, F>(workers: usize, items: &[T], done: Vec<R>, f: &F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let cursor = AtomicUsize::new(done.len());
    let work = || {
        let mut results = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= items.len() {
                return results;
            }
            results.push((i, f(i, &items[i])));
        }
    };
    let mut slots: Vec<Option<R>> = done.into_iter().map(Some).collect();
    slots.resize_with(items.len(), || None);
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let mut results = work();
        for helper in helpers {
            match helper.join() {
                Ok(theirs) => results.extend(theirs),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        for (i, result) in results {
            slots[i] = Some(result);
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every index was visited by exactly one worker"))
        .collect()
}

/// [`parallel_map`] over indices alone: evaluates `f(i)` for `i < count`,
/// results in index order.
pub fn parallel_map_indices<R, F>(workers: usize, count: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let indices: Vec<usize> = (0..count).collect();
    parallel_map(workers, &indices, |_, &i| f(i))
}

/// Splits `0..count` into consecutive index ranges of at most `batch` items
/// (the last range may be shorter).
///
/// Range boundaries depend only on `count` and `batch`, never on the worker
/// count, so distributing the ranges with [`parallel_map`] keeps batched
/// sweeps bit-identical at any parallelism: each item's global index — and
/// therefore its [`child_rng`] stream — is fixed by the range layout alone.
///
/// # Panics
///
/// Panics if `batch == 0`.
pub fn batch_ranges(count: usize, batch: usize) -> Vec<std::ops::Range<usize>> {
    assert!(batch > 0, "batch must be positive");
    (0..count.div_ceil(batch))
        .map(|i| i * batch..((i + 1) * batch).min(count))
        .collect()
}

/// Splits `data` into consecutive chunks of `chunk_len` elements (the last
/// chunk may be shorter) and evaluates `f(chunk_index, chunk)` on each, in
/// parallel across `workers` threads.
///
/// Chunk boundaries depend only on `chunk_len`, never on the worker count, so
/// a kernel whose output for each element is a pure function of that chunk's
/// input (no cross-chunk reductions) produces bit-identical results with 1 or
/// N workers. This is the in-place counterpart of [`parallel_map`], used by
/// the density-matrix kernels to fan out over row blocks.
///
/// # Panics
///
/// Panics if `chunk_len == 0`; propagates the panic of any task.
pub fn parallel_chunks_mut<T, F>(workers: usize, data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    let n_chunks = data.len().div_ceil(chunk_len);
    let workers = effective_workers(workers).min(n_chunks);
    if workers <= 1 {
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(i, chunk);
        }
        return;
    }

    let queue = Mutex::new(data.chunks_mut(chunk_len).enumerate());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let next = lock_or_recover(&queue).next();
                match next {
                    Some((i, chunk)) => f(i, chunk),
                    None => break,
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_or_recover_survives_a_poisoned_mutex() {
        let m = Mutex::new(7u32);
        let _ = std::panic::catch_unwind(|| {
            let _guard = m.lock().unwrap();
            panic!("poison the lock");
        });
        assert!(m.is_poisoned());
        *lock_or_recover(&m) += 1;
        assert_eq!(*lock_or_recover(&m), 8, "state stays usable after poison");
    }

    #[test]
    fn child_seeds_are_distinct_and_stable() {
        let master = 0xDEAD_BEEF;
        let a = child_seed(master, 0);
        let b = child_seed(master, 1);
        assert_ne!(a, b);
        assert_eq!(a, child_seed(master, 0), "pure function of (master, index)");
        assert_ne!(child_seed(master + 1, 0), a, "master changes every child");
    }

    #[test]
    fn derive_master_consumes_one_draw() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let _ = derive_master(&mut a);
        let _ = b.gen::<u64>();
        assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "streams stay aligned");
    }

    #[test]
    fn parallel_map_matches_serial_in_order() {
        let items: Vec<u64> = (0..103).collect();
        let serial = parallel_map(1, &items, |i, &x| x * 2 + i as u64);
        let parallel = parallel_map(8, &items, |i, &x| x * 2 + i as u64);
        assert_eq!(serial, parallel);
        assert_eq!(serial[5], 15);
    }

    #[test]
    fn parallel_map_with_child_rngs_is_schedule_independent() {
        let master = 42u64;
        let draw = |i: usize| child_rng(master, i as u64).gen::<f64>();
        let serial = parallel_map_indices(1, 64, draw);
        let wide = parallel_map_indices(16, 64, draw);
        assert_eq!(
            serial, wide,
            "per-task seeding removes scheduling sensitivity"
        );
    }

    #[test]
    fn empty_and_single_inputs_run_inline() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(4, &empty, |_, &x| x).is_empty());
        assert_eq!(parallel_map(4, &[9u32], |i, &x| x + i as u32), vec![9]);
    }

    #[test]
    fn effective_workers_resolves_zero_to_cores() {
        assert!(effective_workers(0) >= 1);
        assert_eq!(effective_workers(3), 3);
    }

    #[test]
    fn cheap_auto_map_runs_every_item_on_the_caller() {
        let caller = std::thread::current().id();
        let ran_on = parallel_map(0, &[1u32, 2, 3], |_, _| std::thread::current().id());
        assert_eq!(ran_on, vec![caller; 3]);
    }

    #[test]
    fn auto_map_past_the_payback_fans_out_in_order() {
        let caller = std::thread::current().id();
        let items: Vec<u64> = (0..8).collect();
        let results = parallel_map(0, &items, |i, &x| {
            // Item 0 alone exceeds the payback; the rest take long enough
            // that a helper claims some before the caller drains the queue.
            let pause = if i == 0 {
                FAN_OUT_PAYBACK * 2
            } else {
                Duration::from_millis(2)
            };
            std::thread::sleep(pause);
            (x * 3 + i as u64, std::thread::current().id())
        });
        let values: Vec<u64> = results.iter().map(|&(v, _)| v).collect();
        assert_eq!(values, (0..8).map(|x| x * 4).collect::<Vec<_>>());
        assert_eq!(results[0].1, caller, "item 0 runs on the caller");
        if available_cores() >= 2 {
            assert!(
                results.iter().any(|&(_, id)| id != caller),
                "some item ran on a helper thread"
            );
        }
    }

    #[test]
    fn panics_propagate_from_every_branch() {
        let slow_first_then_panic = |i: usize, _: &u8| {
            if i == 0 {
                std::thread::sleep(FAN_OUT_PAYBACK * 2);
            }
            assert!(i != 3, "item 3 fails");
            i
        };
        let items = [0u8; 6];
        for workers in [0, 1, 2] {
            let cheap = std::panic::catch_unwind(|| {
                parallel_map(workers, &items, |i, _| {
                    assert!(i != 3, "item 3 fails");
                    i
                })
            });
            assert!(cheap.is_err(), "workers={workers}, cheap items");
            let slow =
                std::panic::catch_unwind(|| parallel_map(workers, &items, slow_first_then_panic));
            assert!(slow.is_err(), "workers={workers}, slow first item");
        }
    }

    #[test]
    fn heavy_fan_out_uses_all_slots_exactly_once() {
        let results = parallel_map_indices(0, 1000, |i| i);
        assert_eq!(results, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn batch_ranges_cover_all_indices_in_order() {
        for (count, batch) in [(0usize, 4usize), (1, 4), (4, 4), (5, 4), (103, 32), (7, 1)] {
            let ranges = batch_ranges(count, batch);
            let flat: Vec<usize> = ranges.iter().cloned().flatten().collect();
            assert_eq!(
                flat,
                (0..count).collect::<Vec<_>>(),
                "count={count} batch={batch}"
            );
            for r in &ranges {
                assert!(r.len() <= batch && !r.is_empty());
            }
        }
    }

    #[test]
    fn chunks_mut_visits_every_element_once() {
        let mut data: Vec<u64> = (0..1027).collect();
        parallel_chunks_mut(8, &mut data, 64, |ci, chunk| {
            for x in chunk.iter_mut() {
                *x = x.wrapping_mul(3).wrapping_add(ci as u64);
            }
        });
        for (i, &x) in data.iter().enumerate() {
            let expect = (i as u64).wrapping_mul(3).wrapping_add((i / 64) as u64);
            assert_eq!(x, expect);
        }
    }

    #[test]
    fn chunks_mut_is_worker_count_independent() {
        let base: Vec<f64> = (0..512).map(|i| i as f64 * 0.37).collect();
        let run = |workers: usize| {
            let mut data = base.clone();
            parallel_chunks_mut(workers, &mut data, 33, |ci, chunk| {
                for x in chunk.iter_mut() {
                    *x = x.sin() + ci as f64;
                }
            });
            data
        };
        assert_eq!(run(1), run(7));
        assert_eq!(run(1), run(0));
    }

    #[test]
    fn chunks_mut_handles_empty_and_oversized_chunks() {
        let mut empty: Vec<u8> = Vec::new();
        parallel_chunks_mut(4, &mut empty, 16, |_, _| panic!("no chunks expected"));
        let mut small = vec![1u8, 2, 3];
        parallel_chunks_mut(4, &mut small, 100, |ci, chunk| {
            assert_eq!(ci, 0);
            for x in chunk.iter_mut() {
                *x += 1;
            }
        });
        assert_eq!(small, vec![2, 3, 4]);
    }
}
