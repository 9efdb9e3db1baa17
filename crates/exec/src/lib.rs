//! Parallel sweep engine for independent simulation points.
//!
//! The paper's evaluation is a grid of independent `(workload, scheme,
//! config)` simulations — Figures 10–14, Tables 1–2, the ablations and the
//! differential keystone test all sweep that grid. Each point is a pure
//! function of its inputs (the simulator is deterministic and shares no
//! state between runs), so the sweep is embarrassingly parallel. This
//! crate provides the primitive everything routes through: [`par_map`], a
//! pooled map that preserves input order, plus its supervised form
//! [`try_par_map`], which isolates per-job panics as typed [`JobError`]s
//! instead of letting one poisoned point abort the whole sweep.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism.** Results are written into per-index slots and
//!    collected in input order, so the output of `par_map(items, f)` is
//!    byte-identical to `items.into_iter().map(f).collect()` regardless of
//!    thread count or scheduling. The differential tests assert this.
//! 2. **Std only.** The workspace builds offline; no rayon/crossbeam. The
//!    pool is plain threads parked on a condvar plus an atomic next-index
//!    counter per sweep, which is plenty for jobs that each run millions
//!    of simulated cycles.
//! 3. **Persistent.** Workers are spawned once (lazily) and reused across
//!    sweeps, so the many small grids in the test suite stop paying
//!    thread-spawn cost per call; the serial fast path (1 worker or 1
//!    job) never touches the pool at all.
//! 4. **Observable.** [`threads`] reports the effective worker count so
//!    a measurement can record it, [`set_threads`] lets the same process
//!    time serial and parallel sweeps back to back, and
//!    [`pooled_workers`] exposes the persistent pool's size.
//!
//! Thread-count resolution order: [`set_threads`] override, then the
//! `GEX_THREADS` environment variable, then
//! [`std::thread::available_parallelism`].

mod pool;

use std::cell::UnsafeCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Process-wide override set by [`set_threads`]; 0 means "no override".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// The number of worker threads [`par_map`] will use.
///
/// Resolution order: a [`set_threads`] override, the `GEX_THREADS`
/// environment variable (clamped to at least 1; unparsable values are
/// ignored), then [`std::thread::available_parallelism`], falling back to
/// 1 if even that is unavailable.
pub fn threads() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    if let Ok(v) = std::env::var("GEX_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Force the worker count for subsequent [`par_map`] calls in this
/// process, overriding `GEX_THREADS`. Pass 0 to clear the override.
///
/// Used by the repo benchmark (`benchmark/`) to time the serial and
/// parallel paths of the same sweep in one process, and by `gex-served
/// --threads`.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

/// Worker threads alive in the persistent pool. Workers are spawned on
/// first parallel use, grow to the largest concurrency any sweep asked
/// for, and are parked (not joined) between sweeps.
pub fn pooled_workers() -> usize {
    pool::Pool::global().spawned_workers()
}

/// One sweep job panicked. The panic was caught at the job boundary —
/// sibling jobs of the same sweep run to completion — and is reported
/// with enough identity for a supervisor to quarantine the point.
#[derive(Debug, Clone)]
pub struct JobError {
    /// Index of the job in the sweep's input order.
    pub index: usize,
    /// The panic payload, stringified (`String` and `&str` payloads are
    /// preserved verbatim).
    pub payload: String,
    /// Wall-clock time the job ran before panicking.
    pub elapsed: Duration,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sweep job {} panicked after {:.3}s: {}",
            self.index,
            self.elapsed.as_secs_f64(),
            self.payload
        )
    }
}

impl std::error::Error for JobError {}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Per-index cells shared across sweep runners without per-cell locks.
///
/// Exclusivity comes from the claim protocol, not a lock: the counter in
/// [`try_par_map`] hands each index to exactly one runner, which takes
/// the job out of its cell and writes the result in exactly once. The
/// completion latch inside `pool::scope_run` (release-on-signal,
/// acquire-on-check) orders every helper's writes before the caller
/// collects.
struct IndexCells<T> {
    cells: Vec<UnsafeCell<T>>,
}

// SAFETY: cells are only accessed through the exclusive-claim protocol
// above; `T: Send` is required because claimed values move across the
// worker threads.
unsafe impl<T: Send> Sync for IndexCells<T> {}

impl<T> IndexCells<T> {
    fn new(values: impl Iterator<Item = T>) -> Self {
        IndexCells { cells: values.map(UnsafeCell::new).collect() }
    }

    /// # Safety
    /// The caller must hold the exclusive claim on `idx` (no other thread
    /// may touch this index between claim and latch release).
    #[allow(clippy::mut_from_ref)]
    unsafe fn get_mut(&self, idx: usize) -> &mut T {
        unsafe { &mut *self.cells[idx].get() }
    }
}

/// Map `f` over `items` on the persistent pool, returning results in
/// input order with every job's panic isolated as a [`JobError`].
///
/// This is the supervised primitive: a panicking job never takes down its
/// siblings or the caller — the caller decides what a poisoned point
/// means (the campaign supervisor quarantines it). With one worker (or at
/// most one item) jobs run serially on the caller's thread — same code
/// path, same result order, no pool — which is the determinism anchor:
/// the parallel path must and does reproduce it byte for byte.
pub fn try_par_map<I, T, F>(items: Vec<I>, f: F) -> Vec<Result<T, JobError>>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    let n_jobs = items.len();
    let n_workers = threads().min(n_jobs.max(1));
    let run_one = |index: usize, item: I| -> Result<T, JobError> {
        let start = Instant::now();
        catch_unwind(AssertUnwindSafe(|| f(item))).map_err(|p| JobError {
            index,
            payload: panic_message(p),
            elapsed: start.elapsed(),
        })
    };
    if n_workers <= 1 || n_jobs <= 1 {
        return items.into_iter().enumerate().map(|(i, item)| run_one(i, item)).collect();
    }

    // Jobs move into per-index cells so runners can take them without
    // cloning; results land in per-index cells, so output order is input
    // order no matter which thread ran what. No per-cell locks: index
    // exclusivity comes from the claim counter (see IndexCells).
    let jobs: IndexCells<Option<I>> = IndexCells::new(items.into_iter().map(Some));
    let slots: IndexCells<Option<Result<T, JobError>>> =
        IndexCells::new((0..n_jobs).map(|_| None));
    let next = AtomicUsize::new(0);

    // Each runner (pooled helpers + the caller) claims one index at a
    // time from the shared counter until the sweep is drained: every
    // caller's jobs are simulation points (milliseconds each), so the
    // counter is never contended and the tail is at most one point.
    // `run_one` catches the job's panic, so the runner itself never
    // unwinds — a guarantee `pool::scope_run`'s safety argument relies on.
    let runner = || loop {
        let idx = next.fetch_add(1, Ordering::Relaxed);
        if idx >= n_jobs {
            break;
        }
        // SAFETY: the fetch_add above handed `idx` to this runner
        // exclusively (the counter only grows), and `idx < n_jobs` is
        // in bounds for both cell vectors.
        let item = unsafe { jobs.get_mut(idx) }.take().expect("job index claimed twice");
        let out = run_one(idx, item);
        // SAFETY: same exclusive claim on `idx` as above.
        unsafe { *slots.get_mut(idx) = Some(out) };
    };
    pool::scope_run(n_workers - 1, &runner);

    slots
        .cells
        .into_iter()
        .map(|slot| {
            slot.into_inner().expect("every job index produced exactly one result")
        })
        .collect()
}

/// Map `f` over `items` on the persistent pool, returning results in
/// input order.
///
/// A panic in `f` propagates to the caller (after every other job of the
/// sweep has finished); use [`try_par_map`] to supervise panics instead.
pub fn par_map<I, T, F>(items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    let mut first_panic: Option<JobError> = None;
    let out: Vec<Option<T>> = try_par_map(items, f)
        .into_iter()
        .map(|r| match r {
            Ok(v) => Some(v),
            Err(e) => {
                if first_panic.is_none() {
                    first_panic = Some(e);
                }
                None
            }
        })
        .collect();
    if let Some(e) = first_panic {
        // Re-raise with the original message so assertion failures inside
        // sweeps read the same as they would single-threaded.
        std::panic::panic_any(e.payload);
    }
    out.into_iter().map(|v| v.expect("no panic implies every slot filled")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serialize tests that touch the process-wide override.
    static OVERRIDE_GUARD: Mutex<()> = Mutex::new(());

    #[test]
    fn preserves_input_order() {
        let _g = OVERRIDE_GUARD.lock().unwrap();
        set_threads(8);
        let out = par_map((0..257).collect::<Vec<u64>>(), |x| x * 3 + 1);
        set_threads(0);
        assert_eq!(out, (0..257).map(|x| x * 3 + 1).collect::<Vec<u64>>());
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let _g = OVERRIDE_GUARD.lock().unwrap();
        // A non-commutative accumulation per item: any ordering mistake
        // shows up as a different string.
        let items: Vec<usize> = (0..100).collect();
        let f = |i: usize| format!("job-{i}:{}", (0..i).sum::<usize>());
        set_threads(1);
        let serial = par_map(items.clone(), f);
        set_threads(7);
        let parallel = par_map(items, f);
        set_threads(0);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn handles_fewer_jobs_than_workers() {
        let _g = OVERRIDE_GUARD.lock().unwrap();
        set_threads(16);
        let out = par_map(vec![41], |x: i32| x + 1);
        set_threads(0);
        assert_eq!(out, vec![42]);
        let empty: Vec<i32> = par_map(Vec::<i32>::new(), |x| x + 1);
        assert!(empty.is_empty());
    }

    #[test]
    fn set_threads_overrides_env() {
        let _g = OVERRIDE_GUARD.lock().unwrap();
        set_threads(3);
        assert_eq!(threads(), 3);
        set_threads(0);
        assert!(threads() >= 1);
    }

    #[test]
    fn worker_panic_propagates() {
        let _g = OVERRIDE_GUARD.lock().unwrap();
        set_threads(4);
        let res = std::panic::catch_unwind(|| {
            par_map((0..64).collect::<Vec<u32>>(), |x| {
                assert!(x != 13, "boom");
                x
            })
        });
        set_threads(0);
        assert!(res.is_err(), "panic in a worker must reach the caller");
    }

    #[test]
    fn try_par_map_isolates_panics_per_job() {
        let _g = OVERRIDE_GUARD.lock().unwrap();
        set_threads(4);
        let out = try_par_map((0..64).collect::<Vec<u32>>(), |x| {
            if x % 13 == 5 {
                panic!("poisoned point {x}");
            }
            x * 2
        });
        set_threads(0);
        assert_eq!(out.len(), 64);
        for (i, r) in out.iter().enumerate() {
            if i % 13 == 5 {
                let e = r.as_ref().expect_err("injected panic must surface");
                assert_eq!(e.index, i);
                assert!(e.payload.contains(&format!("poisoned point {i}")), "{}", e.payload);
                assert!(e.to_string().contains("panicked"), "{e}");
            } else {
                assert_eq!(*r.as_ref().unwrap(), (i as u32) * 2);
            }
        }
    }

    #[test]
    fn pool_is_persistent_across_sweeps() {
        let _g = OVERRIDE_GUARD.lock().unwrap();
        set_threads(4);
        let _ = par_map((0..32).collect::<Vec<u32>>(), |x| x + 1);
        let after_first = pooled_workers();
        assert!(after_first >= 3, "a 4-worker sweep keeps >= 3 pooled helpers");
        for _ in 0..5 {
            let _ = par_map((0..32).collect::<Vec<u32>>(), |x| x + 1);
        }
        set_threads(0);
        // Re-running at the same concurrency reuses the parked workers
        // rather than spawning fresh threads per sweep.
        assert_eq!(pooled_workers(), after_first, "same concurrency must not respawn");
    }

    #[test]
    fn nested_sweeps_cannot_deadlock() {
        let _g = OVERRIDE_GUARD.lock().unwrap();
        set_threads(2);
        // Outer jobs each run an inner sweep; the caller-participates rule
        // guarantees progress even with every pooled worker occupied.
        let out = par_map(vec![10u32, 20, 30], |base| {
            par_map((0..4u32).collect::<Vec<_>>(), move |i| base + i).into_iter().sum::<u32>()
        });
        set_threads(0);
        assert_eq!(out, vec![46, 86, 126]);
    }
}
