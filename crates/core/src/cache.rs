//! Cross-sweep simulation result cache.
//!
//! Figure campaigns share simulation points: every operand-log point in
//! fig11 normalizes against the same stall-on-fault baseline fig10
//! already simulated, `normalized_performance` re-runs the baseline per
//! call, and a scalability sweep replays whole grids per SM count. The
//! simulator is deterministic — a `(workload, scheme, GPU config, paging,
//! residency, injection plan)` tuple always produces the same
//! [`GpuRunReport`] — so this module memoizes completed runs
//! process-wide and hands out shared [`Arc`]s instead of re-simulating.
//!
//! * **Keyed by simulation identity only.** Run budgets (cycle
//!   deadlines, cancel tokens) are supervision policy, not physics, so a
//!   point simulated under one budget answers every later budget; only
//!   successful runs are cached. Under [`PagingMode::AllResident`] the
//!   engine ignores the residency argument, so the key omits it there.
//! * **One lock, single-flight.** One `Mutex<HashMap>` holds every entry
//!   and the counters. Of two workers wanting the same uncached point,
//!   one claims it and simulates outside the lock; the other waits on the
//!   condvar and shares the report. A failed build removes its claim and
//!   wakes the waiters, so one of them retries. Lookups are separated by
//!   whole simulations, so the lock has nothing to contend on.
//! * **Bounded.** At most 8192 finished reports, far above any figure
//!   grid; an insert past that drops every finished report (claims stay).
//!   An evicted point only costs a re-simulation. The bound caps a
//!   long-lived daemon's memory and is not tunable.
//! * **A/B switchable.** [`set_enabled`]`(false)` bypasses the cache;
//!   results must be byte-identical either way.

use crate::poison;
use gex_sim::{Gpu, GpuRunReport, PagingMode, Residency, SimError};
use gex_workloads::Workload;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Finished reports the process-wide cache holds at most.
const CAP: usize = 8192;

/// One key's lifecycle.
enum Slot {
    /// A worker is simulating this point right now.
    Building,
    /// The finished report.
    Ready(Arc<GpuRunReport>),
}

#[derive(Default)]
struct State {
    map: HashMap<String, Slot>,
    stats: CacheStats,
}

struct Cache {
    state: Mutex<State>,
    /// Signalled whenever a claim is published or given up.
    built: Condvar,
    cap: usize,
}

fn cache() -> &'static Cache {
    static CACHE: OnceLock<Cache> = OnceLock::new();
    CACHE.get_or_init(|| Cache::new(CAP))
}

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Turn the cache on (the default) or off for this process: the A/B
/// switch for equivalence tests, and off for anything timing simulation.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// True if [`run_cached`] consults the cache.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Monotonic process-wide cache counters; snapshot via [`stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from a finished entry.
    pub hits: u64,
    /// Lookups that had to simulate.
    pub misses: u64,
    /// Reports inserted (misses that simulated successfully).
    pub stores: u64,
    /// Finished reports dropped to stay under the bound.
    pub evictions: u64,
}

impl CacheStats {
    /// Counter increase from `earlier` to `self` — the per-campaign view
    /// the supervised drivers report.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            stores: self.stores - earlier.stores,
            evictions: self.evictions - earlier.evictions,
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hit(s), {} miss(es), {} stored, {} evicted",
            self.hits, self.misses, self.stores, self.evictions
        )
    }
}

/// Snapshot the process-wide cache counters.
pub fn stats() -> CacheStats {
    poison::lock(&cache().state).stats
}

/// Drop every cached report (counters keep running). Long multi-preset
/// campaigns can call this between phases to bound memory. In-flight
/// claims stay: their waiters are parked on a build that is still running.
pub fn clear() {
    poison::lock(&cache().state).map.retain(|_, slot| matches!(slot, Slot::Building));
}

/// The simulation-identity key: everything that determines the report,
/// nothing that doesn't. The workload is pinned by name + functional
/// image digest + launch geometry (construction is deterministic, so
/// these pin the exact trace); budgets are deliberately absent.
fn key_of(gpu: &Gpu, w: &Workload, residency: &Residency) -> String {
    use std::fmt::Write;
    let t = &w.trace;
    let mut k = String::with_capacity(192);
    let _ = write!(
        k,
        "w={}|img={:016x}|di={}|b={}|tpb={}|r={}|sh={}|s={:?}|cfg={:?}|p={:?}",
        w.name,
        w.image_digest,
        t.dyn_instrs(),
        t.blocks.len(),
        t.threads_per_block,
        t.regs_per_thread,
        t.shared_bytes,
        gpu.scheme(),
        gpu.config(),
        gpu.paging(),
    );
    // AllResident pre-maps every touched page and never reads the
    // residency; keying it would split identical simulations.
    if !matches!(gpu.paging(), PagingMode::AllResident) {
        let _ = write!(k, "|res={residency:?}");
    }
    if let Some(plan) = gpu.injection() {
        let _ = write!(k, "|inj={plan:?}");
    }
    k
}

impl Cache {
    /// An empty cache holding at most `cap` finished reports.
    fn new(cap: usize) -> Self {
        Cache { state: Mutex::new(State::default()), built: Condvar::new(), cap }
    }

    fn run(
        &self,
        gpu: &Gpu,
        w: &Workload,
        residency: &Residency,
    ) -> Result<Arc<GpuRunReport>, SimError> {
        let key = key_of(gpu, w, residency);
        {
            let mut st = poison::lock(&self.state);
            loop {
                match st.map.get(&key) {
                    Some(Slot::Ready(report)) => {
                        let report = Arc::clone(report);
                        st.stats.hits += 1;
                        return Ok(report);
                    }
                    Some(Slot::Building) => st = poison::wait(&self.built, st),
                    None => break,
                }
            }
            if st.map.len() >= self.cap {
                let before = st.map.len();
                st.map.retain(|_, slot| matches!(slot, Slot::Building));
                st.stats.evictions += (before - st.map.len()) as u64;
            }
            st.map.insert(key.clone(), Slot::Building);
            st.stats.misses += 1;
        }
        let mut claim = Claim { cache: self, key, report: None };
        // The simulation itself runs outside the lock.
        let report = Arc::new(gpu.try_run(&w.trace, residency)?);
        claim.report = Some(Arc::clone(&report));
        Ok(report)
    }
}

/// A claimed `Building` slot. Dropping it publishes the report, or — when
/// the build returned an error or unwound — removes the claim; either way
/// it wakes the waiters, who find the report or retry themselves.
struct Claim<'a> {
    cache: &'a Cache,
    key: String,
    report: Option<Arc<GpuRunReport>>,
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        // This drop also runs while unwinding from a panicking build;
        // recovering from a poisoned lock (rather than double panicking
        // and aborting) is what lets the supervisor quarantine the point
        // and keep the cache usable.
        let mut st = poison::lock(&self.cache.state);
        match self.report.take() {
            Some(report) => {
                st.map.insert(std::mem::take(&mut self.key), Slot::Ready(report));
                st.stats.stores += 1;
            }
            None => {
                st.map.remove(&self.key);
            }
        }
        drop(st);
        self.cache.built.notify_all();
    }
}

/// Run `gpu` on `w`'s trace with `residency`, answering from the cache
/// when an identical point has already simulated. On a miss the caller's
/// thread simulates (under its own budget) and publishes the report for
/// everyone else. Errors are returned, never cached.
pub fn run_cached(
    gpu: &Gpu,
    w: &Workload,
    residency: &Residency,
) -> Result<Arc<GpuRunReport>, SimError> {
    if !enabled() {
        return gpu.try_run(&w.trace, residency).map(Arc::new);
    }
    cache().run(gpu, w, residency)
}

/// Held by every unit test of this crate that simulates through the
/// process-wide cache: the tests below assert exact counter deltas, which
/// a lookup from a concurrently running test would move.
#[cfg(test)]
pub(crate) fn serialize_cache_tests() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    poison::lock(&LOCK)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gex_sim::{GpuConfig, RunBudget};
    use gex_sm::Scheme;
    use gex_workloads::{suite, Preset};

    // Tests through the process-global cache hold `serialize_cache_tests`
    // and assert via counter deltas and distinct keys only; tests of the
    // bound and of failed builds use a private `Cache`. The end-to-end
    // behaviour (hit identity, figure equivalence, fig11 baseline
    // sharing) lives in `tests/cache_equivalence.rs`, its own process.

    #[test]
    fn identical_points_share_one_simulation() {
        let _serial = serialize_cache_tests();
        let w = suite::by_name("histo", Preset::Test).unwrap();
        let gpu =
            Gpu::new(GpuConfig::kepler_k20().with_sms(2), Scheme::WdCommit, PagingMode::AllResident);
        let res = Residency::new();
        let before = stats();
        let a = run_cached(&gpu, &w, &res).unwrap();
        let b = run_cached(&gpu, &w, &res).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "a hit must share the stored report");
        let d = stats().since(&before);
        assert_eq!((d.hits, d.misses, d.stores), (1, 1, 1));
    }

    #[test]
    fn concurrent_lookups_agree_and_count_one_store_per_key() {
        // Hammer one shared key plus a distinct key per thread through
        // the cache. Every thread must see the same Arc for
        // the shared key, and the counters must record exactly one store
        // per distinct key (coalescing, not duplicate simulation).
        let _serial = serialize_cache_tests();
        let gpu = Gpu::new(
            GpuConfig::kepler_k20().with_sms(2),
            Scheme::ReplayQueue,
            PagingMode::AllResident,
        );
        let before = stats();
        let shared = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|i| {
                    let gpu = &gpu;
                    s.spawn(move || {
                        let shared = suite::by_name("spmv", Preset::Test).unwrap();
                        let own = suite::by_name("bfs", Preset::Test).unwrap();
                        let own_gpu = Gpu::new(
                            GpuConfig::kepler_k20().with_sms(2 + i as u32),
                            Scheme::ReplayQueue,
                            PagingMode::AllResident,
                        );
                        let a = run_cached(gpu, &shared, &Residency::new()).unwrap();
                        let b = run_cached(&own_gpu, &own, &Residency::new()).unwrap();
                        (a, b)
                    })
                })
                .collect();
            let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            let first = Arc::clone(&results[0].0);
            for (a, _) in &results {
                assert!(Arc::ptr_eq(a, &first), "all threads share one stored report");
            }
            first
        });
        let d = stats().since(&before);
        // 1 store for the shared key + 4 for the per-thread keys.
        assert_eq!(d.stores, 5, "each distinct key simulates exactly once");
        assert_eq!(d.hits + d.misses, 8, "every lookup is either a hit or a miss");
        assert!(Arc::strong_count(&shared) >= 1);
    }

    #[test]
    fn a_full_cache_evicts_and_the_point_re_simulates_to_an_equal_report() {
        let c = Cache::new(2);
        let gpu =
            Gpu::new(GpuConfig::kepler_k20().with_sms(1), Scheme::Baseline, PagingMode::AllResident);
        let res = Residency::new();
        let [histo, sad, bfs] =
            ["histo", "sad", "bfs"].map(|n| suite::by_name(n, Preset::Test).unwrap());
        // Another worker's claim, which no eviction may drop: its waiters
        // would otherwise start a second build of a running simulation.
        poison::lock(&c.state).map.insert("in-flight".to_string(), Slot::Building);
        let first = c.run(&gpu, &histo, &res).unwrap();
        c.run(&gpu, &sad, &res).unwrap();
        c.run(&gpu, &bfs, &res).unwrap();
        let again = c.run(&gpu, &histo, &res).unwrap();
        let st = poison::lock(&c.state);
        let s = st.stats;
        assert_eq!(s.evictions, 3, "every insert past a bound of 2 must evict: {s}");
        assert_eq!((s.hits, s.misses), (0, 4), "the evicted point re-simulates: {s}");
        let claim = st.map.get("in-flight");
        assert!(matches!(claim, Some(Slot::Building)), "claims are never evicted");
        assert!(!Arc::ptr_eq(&first, &again), "the re-simulation is a fresh report");
        assert_eq!(*first, *again, "eviction must never change an answer");
    }

    #[test]
    fn a_failed_build_unclaims_its_slot() {
        let c = Cache::new(CAP);
        let w = suite::by_name("histo", Preset::Test).unwrap();
        let gpu =
            Gpu::new(GpuConfig::kepler_k20().with_sms(1), Scheme::Baseline, PagingMode::AllResident)
                .budget(RunBudget::cycles(10));
        let res = Residency::new();
        assert!(c.run(&gpu, &w, &res).is_err());
        assert!(c.run(&gpu, &w, &res).is_err(), "a failure is not cached: the retry re-runs");
        let st = poison::lock(&c.state);
        assert!(st.map.is_empty(), "a failed build must leave no claim behind");
        assert_eq!((st.stats.misses, st.stats.stores), (2, 0));
    }

    #[test]
    fn all_resident_key_ignores_the_residency_argument() {
        let w = suite::by_name("sad", Preset::Test).unwrap();
        let gpu =
            Gpu::new(GpuConfig::kepler_k20().with_sms(2), Scheme::Baseline, PagingMode::AllResident);
        assert_eq!(key_of(&gpu, &w, &Residency::new()), key_of(&gpu, &w, &w.demand_residency()));
    }

    #[test]
    fn key_separates_scheme_config_and_injection() {
        let w = suite::by_name("sad", Preset::Test).unwrap();
        let res = Residency::new();
        let base =
            Gpu::new(GpuConfig::kepler_k20().with_sms(2), Scheme::Baseline, PagingMode::AllResident);
        let other_scheme =
            Gpu::new(GpuConfig::kepler_k20().with_sms(2), Scheme::WdCommit, PagingMode::AllResident);
        let other_sms =
            Gpu::new(GpuConfig::kepler_k20().with_sms(4), Scheme::Baseline, PagingMode::AllResident);
        let injected = base.clone().inject(gex_sim::InjectionPlan::light(7));
        let k = key_of(&base, &w, &res);
        assert_ne!(k, key_of(&other_scheme, &w, &res));
        assert_ne!(k, key_of(&other_sms, &w, &res));
        assert_ne!(k, key_of(&injected, &w, &res));
    }

    #[test]
    fn stats_since_subtracts_fieldwise() {
        let a = CacheStats { hits: 5, misses: 3, stores: 2, evictions: 0 };
        let b = CacheStats { hits: 7, misses: 4, stores: 3, evictions: 2 };
        assert_eq!(b.since(&a), CacheStats { hits: 2, misses: 1, stores: 1, evictions: 2 });
        assert!(b.to_string().contains("7 hit(s)"));
        assert!(b.to_string().contains("2 evicted"));
    }
}
