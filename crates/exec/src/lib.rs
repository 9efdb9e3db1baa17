//! Parallel sweep engine for independent simulation points.
//!
//! The paper's evaluation is a grid of independent `(workload, scheme,
//! config)` simulations — Figures 10–14, Tables 1–2, the ablations and the
//! differential keystone test all sweep that grid. Each point is a pure
//! function of its inputs (the simulator is deterministic and shares no
//! state between runs), so the sweep is embarrassingly parallel. This
//! crate provides the primitive everything routes through: [`par_map`], a
//! parallel map that preserves input order, plus its supervised form
//! [`try_par_map`], which isolates per-job panics as typed [`JobError`]s
//! instead of letting one poisoned point abort the whole sweep.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism.** Every result carries its job's index and is
//!    placed back in input order, so the output of `par_map(items, f)` is
//!    byte-identical to `items.into_iter().map(f).collect()` regardless of
//!    thread count or scheduling. The differential tests assert this.
//! 2. **Std only.** The workspace builds offline; no rayon/crossbeam. A
//!    sweep is one mutex-guarded job queue drained by plain threads,
//!    which is plenty for jobs that each run millions of simulated cycles.
//! 3. **Scoped.** The parallel path runs on the caller's thread plus
//!    helpers spawned in a [`std::thread::scope`] for that one sweep:
//!    tens of microseconds against milliseconds per point, and no thread
//!    outlives the call. The serial path (1 worker or 1 job) spawns none.
//! 4. **Observable.** [`threads`] reports the effective worker count so
//!    a measurement can record it, and [`set_threads`] lets the same
//!    process time serial and parallel sweeps back to back.
//!
//! Thread-count resolution order: [`set_threads`] override, then the
//! `GEX_THREADS` environment variable, then
//! [`std::thread::available_parallelism`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
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
/// parallel paths of the same sweep in one process.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
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

/// Map `f` over `items` in parallel, returning results in input order
/// with every job's panic isolated as a [`JobError`].
///
/// This is the supervised primitive: a panicking job never takes down its
/// siblings or the caller — the caller decides what a poisoned point
/// means (the campaign supervisor quarantines it). With one worker (or at
/// most one item) jobs run serially on the caller's thread — same code
/// path, same result order, no helper threads — which is the determinism
/// anchor: the parallel path must and does reproduce it byte for byte.
pub fn try_par_map<I, T, F>(items: Vec<I>, f: F) -> Vec<Result<T, JobError>>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    let n_workers = threads().min(items.len());
    let run_one = |index: usize, item: I| -> Result<T, JobError> {
        let start = Instant::now();
        catch_unwind(AssertUnwindSafe(|| f(item))).map_err(|p| JobError {
            index,
            payload: panic_message(p),
            elapsed: start.elapsed(),
        })
    };
    if n_workers <= 1 {
        return items.into_iter().enumerate().map(|(i, item)| run_one(i, item)).collect();
    }

    // The caller and `n_workers - 1` scoped helpers each claim one job at
    // a time (jobs are milliseconds each, so the lock is never contended
    // and the tail is at most one point). The guard drops inside `claim`,
    // before the job runs; no runner ever unwinds.
    let queue = Mutex::new(items.into_iter().enumerate());
    let claim = || queue.lock().expect("no runner panics holding the queue").next();
    let runner = || {
        let mut done = Vec::new();
        while let Some((i, item)) = claim() {
            done.push((i, run_one(i, item)));
        }
        done
    };
    let mut done = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..n_workers).map(|_| s.spawn(runner)).collect();
        let mut done = runner();
        for h in helpers {
            done.extend(h.join().expect("sweep runners never unwind"));
        }
        done
    });
    // Indices are unique, so placing each result by index is a sort.
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// Map `f` over `items` in parallel, returning results in input order.
///
/// A panic in `f` propagates to the caller (after every other job of the
/// sweep has finished); use [`try_par_map`] to supervise panics instead.
pub fn par_map<I, T, F>(items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    // The first panic in input order wins; re-raise it with the original
    // message so assertion failures inside sweeps read the same as they
    // would single-threaded.
    try_par_map(items, f)
        .into_iter()
        .collect::<Result<_, _>>()
        .unwrap_or_else(|e| std::panic::panic_any(e.payload))
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn one_worker_runs_every_job_on_the_callers_thread() {
        let _g = OVERRIDE_GUARD.lock().unwrap();
        let caller = std::thread::current().id();
        set_threads(1);
        let serial = par_map((0..16).collect::<Vec<u32>>(), |_| std::thread::current().id());
        set_threads(8);
        let single = par_map(vec![0u32], |_| std::thread::current().id());
        set_threads(0);
        assert!(serial.iter().chain(&single).all(|&id| id == caller), "serial path spawned");
    }

    #[test]
    fn concurrent_callers_each_get_their_own_order() {
        let _g = OVERRIDE_GUARD.lock().unwrap();
        set_threads(3);
        let start = std::sync::Barrier::new(4);
        let sweep = |c: u64| {
            start.wait();
            par_map((0..50).collect(), move |x: u64| c * 1000 + x)
        };
        std::thread::scope(|s| {
            let callers: Vec<_> = (0..4).map(|c| (c, s.spawn(move || sweep(c)))).collect();
            for (c, h) in callers {
                let want: Vec<u64> = (0..50).map(|x| c * 1000 + x).collect();
                assert_eq!(h.join().unwrap(), want, "caller {c} got another caller's order");
            }
        });
        set_threads(0);
    }

    #[test]
    fn nested_sweeps_cannot_deadlock() {
        let _g = OVERRIDE_GUARD.lock().unwrap();
        set_threads(2);
        // Outer jobs each run an inner sweep; each inner sweep spawns its
        // own scoped helpers, so no sweep waits on another's threads.
        let out = par_map(vec![10u32, 20, 30], |base| {
            par_map((0..4u32).collect::<Vec<_>>(), move |i| base + i).into_iter().sum::<u32>()
        });
        set_threads(0);
        assert_eq!(out, vec![46, 86, 126]);
    }
}
