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
//! Design points:
//!
//! * **Keyed by simulation identity only.** The key digests everything
//!   that determines the report and nothing that doesn't: run budgets
//!   (wall clocks, deadlines, cancel tokens) are supervision policy, not
//!   physics, so a point simulated under one budget answers every later
//!   budget. Under [`PagingMode::AllResident`] the engine pre-maps every
//!   touched page and ignores the residency argument, so the key omits
//!   it there — the drivers' shared empty residency and the facade's
//!   per-workload residency hit the same entry.
//! * **Only successful runs are cached.** Errors depend on the budget
//!   (deadlines) or wall clock and must re-run.
//! * **Contention-free hits.** Each shard is a read-mostly
//!   `RwLock<HashMap>`: lookups that find a finished report take the
//!   shard *shared*, bump the LRU stamp with a relaxed atomic store, and
//!   clone the `Arc` — concurrent hits on the same shard (even the same
//!   key) never serialize. Only misses (insert a placeholder, publish a
//!   report, evict) take the lock exclusive, and a build's simulation
//!   always runs outside it.
//! * **Concurrent-builder coalescing, per key.** When two workers want
//!   the same uncached point, one simulates and the other parks on that
//!   *entry's own* condvar — distinct keys that happen to share a shard
//!   no longer wake or wait on each other. A failed build wakes its
//!   waiters to try themselves.
//! * **Observable without locking.** Global [`stats`] counters (hits,
//!   misses, stores, coalesced waits, evictions) and the entry count
//!   behind [`len`] are relaxed atomics, so `Supervised.cache` delta
//!   printing never contends with in-flight builds.
//! * **A/B switchable.** `GEX_SIM_CACHE=0` (or [`set_enabled`]`(false)`)
//!   bypasses the cache entirely for equivalence testing; results must
//!   be byte-identical either way.
//! * **Bounded.** At most [`DEFAULT_CAP`] finished reports process-wide
//!   (sliced evenly across the shards), least-recently-used entries
//!   evicted first; `GEX_SIM_CACHE_CAP` / [`set_cap`] tune it (0 =
//!   unbounded). The default is far above a full figure campaign, so
//!   exactly-once behaviour is unchanged there; it exists to bound long
//!   multi-grid sweeps. Evictions show up in [`stats`].

use crate::journal::digest;
use crate::poison;
use gex_sim::{Gpu, GpuRunReport, PagingMode, Residency, SimError};
use gex_workloads::Workload;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, RwLock};

/// A finished report plus its last-used tick. The stamp is an atomic so
/// hits can refresh it under the shard's *read* lock.
struct Entry {
    report: Arc<GpuRunReport>,
    stamp: AtomicU64,
}

/// Per-key rendezvous for one in-flight build. Waiters park here — on
/// the entry, not the shard — so builds of distinct keys never wake each
/// other.
#[derive(Default)]
struct Build {
    done: Mutex<bool>,
    cv: Condvar,
}

impl Build {
    /// Park until the builder publishes or gives up.
    fn block(&self) {
        let mut done = poison::lock(&self.done);
        while !*done {
            done = poison::wait(&self.cv, done);
        }
    }

    /// Wake every waiter; they re-run the lookup and find either the
    /// published report or (after a failed build) an empty slot.
    fn finish(&self) {
        *poison::lock(&self.done) = true;
        self.cv.notify_all();
    }
}

/// One entry's lifecycle inside a shard.
enum Slot {
    /// A worker is simulating this point right now.
    Building(Arc<Build>),
    /// The finished report, stamped with its last-used tick (the LRU
    /// eviction order).
    Ready(Entry),
}

/// One lock-sharded slice of the cache. Read-mostly: hits take `map`
/// shared; only placeholder inserts, publishes, and evictions take it
/// exclusive.
#[derive(Default)]
struct Shard {
    map: RwLock<HashMap<String, Slot>>,
    /// Finished (`Ready`) entries currently in `map`; keeps [`len`]
    /// lock-free.
    ready_count: AtomicU64,
}

const SHARDS: usize = 16;

struct Cache {
    shards: Vec<Shard>,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    coalesced: AtomicU64,
    evictions: AtomicU64,
    /// Monotonic last-used clock for LRU stamps.
    tick: AtomicU64,
}

impl Cache {
    /// Hit bookkeeping: refresh the LRU stamp and clone the report —
    /// relaxed atomics only, callable under a read guard.
    fn hit(&self, e: &Entry, waited: bool) -> Arc<GpuRunReport> {
        e.stamp.store(self.tick.fetch_add(1, Ordering::Relaxed), Ordering::Relaxed);
        self.hits.fetch_add(1, Ordering::Relaxed);
        if waited {
            self.coalesced.fetch_add(1, Ordering::Relaxed);
        }
        Arc::clone(&e.report)
    }
}

fn cache() -> &'static Cache {
    static CACHE: OnceLock<Cache> = OnceLock::new();
    CACHE.get_or_init(|| Cache {
        shards: (0..SHARDS).map(|_| Shard::default()).collect(),
        hits: AtomicU64::new(0),
        misses: AtomicU64::new(0),
        stores: AtomicU64::new(0),
        coalesced: AtomicU64::new(0),
        evictions: AtomicU64::new(0),
        tick: AtomicU64::new(0),
    })
}

/// 0 = unset (consult `GEX_SIM_CACHE`), 1 = forced on, 2 = forced off.
static ENABLED_OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Force the cache on or off for this process, overriding
/// `GEX_SIM_CACHE`. The A/B switch for equivalence tests.
pub fn set_enabled(on: bool) {
    ENABLED_OVERRIDE.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}

/// True if [`run_cached`] consults the cache: on by default, disabled by
/// `GEX_SIM_CACHE=0` in the environment or [`set_enabled`]`(false)`.
pub fn enabled() -> bool {
    match ENABLED_OVERRIDE.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => std::env::var("GEX_SIM_CACHE").map_or(true, |v| v != "0"),
    }
}

/// Default total capacity in finished reports. A full fig10+fig11 grid is
/// a few hundred points, so campaigns still hit exactly-once well below
/// this; it exists to bound very long scalability sweeps.
pub const DEFAULT_CAP: usize = 8192;

/// `u64::MAX` = unset (consult `GEX_SIM_CACHE_CAP`), otherwise the total
/// entry cap (0 = unbounded).
static CAP_OVERRIDE: AtomicU64 = AtomicU64::new(u64::MAX);

/// Set the total cache capacity in finished reports for this process,
/// overriding `GEX_SIM_CACHE_CAP`. `0` means unbounded.
pub fn set_cap(cap: usize) {
    CAP_OVERRIDE.store(cap as u64, Ordering::Relaxed);
}

/// Total entry cap: [`set_cap`] override, else `GEX_SIM_CACHE_CAP`, else
/// [`DEFAULT_CAP`]. `0` means unbounded.
pub fn cap() -> usize {
    match CAP_OVERRIDE.load(Ordering::Relaxed) {
        u64::MAX => std::env::var("GEX_SIM_CACHE_CAP")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(DEFAULT_CAP),
        v => v as usize,
    }
}

/// Per-shard slice of `total` entries; `None` when unbounded.
fn per_shard_cap(total: usize) -> Option<usize> {
    (total > 0).then(|| total.div_ceil(SHARDS).max(1))
}

/// Evict least-recently-used `Ready` entries until fewer than `cap`
/// remain (making room for one insert). `Building` placeholders are never
/// evicted — a waiter parked on one would retry a simulation that is
/// already running. Returns the number of entries evicted.
fn evict_to_cap(map: &mut HashMap<String, Slot>, cap: usize) -> u64 {
    let mut evicted = 0;
    loop {
        let ready = map.values().filter(|s| matches!(s, Slot::Ready(..))).count();
        if ready < cap {
            break;
        }
        let victim = map
            .iter()
            .filter_map(|(k, s)| match s {
                Slot::Ready(e) => Some((e.stamp.load(Ordering::Relaxed), k.clone())),
                Slot::Building(_) => None,
            })
            .min();
        let Some((_, key)) = victim else { break };
        map.remove(&key);
        evicted += 1;
    }
    evicted
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
    /// Hits that waited for a concurrent builder instead of finding the
    /// entry already finished (a subset of `hits`).
    pub coalesced: u64,
    /// Least-recently-used entries dropped to stay under the capacity.
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
            coalesced: self.coalesced - earlier.coalesced,
            evictions: self.evictions - earlier.evictions,
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hit(s) ({} coalesced), {} miss(es), {} stored, {} evicted",
            self.hits, self.coalesced, self.misses, self.stores, self.evictions
        )
    }
}

/// Snapshot the process-wide cache counters. Relaxed atomic loads only —
/// never contends with in-flight builds.
pub fn stats() -> CacheStats {
    let c = cache();
    CacheStats {
        hits: c.hits.load(Ordering::Relaxed),
        misses: c.misses.load(Ordering::Relaxed),
        stores: c.stores.load(Ordering::Relaxed),
        coalesced: c.coalesced.load(Ordering::Relaxed),
        evictions: c.evictions.load(Ordering::Relaxed),
    }
}

/// Number of finished reports currently held. Sums the per-shard atomic
/// counters — takes no locks, so progress printing never stalls a build.
pub fn len() -> usize {
    cache().shards.iter().map(|s| s.ready_count.load(Ordering::Relaxed) as usize).sum()
}

/// Drop every cached report (counters keep running). Long multi-preset
/// campaigns can call this between phases to bound memory. In-flight
/// `Building` placeholders are kept — their waiters stay parked on a
/// build that is still running.
pub fn clear() {
    for s in &cache().shards {
        let mut map = poison::write(&s.map);
        map.retain(|_, slot| matches!(slot, Slot::Building(_)));
        s.ready_count.store(0, Ordering::Relaxed);
    }
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

/// Removes a `Building` placeholder if the builder unwinds or errors, and
/// wakes its waiters so they retry instead of deadlocking on a corpse.
struct BuildGuard<'a> {
    shard: &'a Shard,
    key: String,
    build: Arc<Build>,
    armed: bool,
}

impl Drop for BuildGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            // This drop runs while unwinding from a panicking build;
            // recovering from a poisoned lock (rather than double
            // panicking and aborting) is what lets the supervisor
            // quarantine the point and keep the shard usable.
            {
                let mut map = poison::write(&self.shard.map);
                // Only remove our own placeholder: `clear`-then-rebuild
                // races could have put someone else's slot here.
                if let Some(Slot::Building(b)) = map.get(&self.key) {
                    if Arc::ptr_eq(b, &self.build) {
                        map.remove(&self.key);
                    }
                }
            }
            self.build.finish();
        }
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
    let c = cache();
    let key = key_of(gpu, w, residency);
    let shard = &c.shards[(digest(&key) as usize) % SHARDS];
    let mut waited = false;
    let build = loop {
        // Fast path: a shared read and relaxed atomics. Concurrent hits
        // — the common case once a campaign warms up — never serialize.
        let in_flight = {
            let map = poison::read(&shard.map);
            match map.get(&key) {
                Some(Slot::Ready(e)) => return Ok(c.hit(e, waited)),
                Some(Slot::Building(b)) => Some(Arc::clone(b)),
                None => None,
            }
        };
        if let Some(b) = in_flight {
            // Park on the entry's own rendezvous — not the shard — so
            // builds of other keys neither wake us nor wait on us.
            waited = true;
            b.block();
            continue;
        }
        // Slow path: claim the builder slot, double-checking under the
        // exclusive lock (another thread can publish or claim between
        // our read unlock and here).
        let mut map = poison::write(&shard.map);
        match map.get(&key) {
            Some(Slot::Ready(e)) => return Ok(c.hit(e, waited)),
            Some(Slot::Building(b)) => {
                let b = Arc::clone(b);
                drop(map);
                waited = true;
                b.block();
            }
            None => {
                let b = Arc::new(Build::default());
                map.insert(key.clone(), Slot::Building(Arc::clone(&b)));
                break b;
            }
        }
    };
    c.misses.fetch_add(1, Ordering::Relaxed);
    let mut guard =
        BuildGuard { shard, key: key.clone(), build: Arc::clone(&build), armed: true };
    // The simulation itself runs outside every lock.
    let report = gpu.try_run(&w.trace, residency)?;
    let report = Arc::new(report);
    guard.armed = false;
    {
        let mut map = poison::write(&shard.map);
        if let Some(cap) = per_shard_cap(cap()) {
            let evicted = evict_to_cap(&mut map, cap);
            if evicted > 0 {
                c.evictions.fetch_add(evicted, Ordering::Relaxed);
                shard.ready_count.fetch_sub(evicted, Ordering::Relaxed);
            }
        }
        let stamp = AtomicU64::new(c.tick.fetch_add(1, Ordering::Relaxed));
        let prev = map.insert(key, Slot::Ready(Entry { report: Arc::clone(&report), stamp }));
        // We owned the Building placeholder, so the slot we replace is
        // never a Ready entry; the shard gains exactly one report.
        debug_assert!(matches!(prev, None | Some(Slot::Building(_))));
        shard.ready_count.fetch_add(1, Ordering::Relaxed);
    }
    build.finish();
    c.stores.fetch_add(1, Ordering::Relaxed);
    Ok(report)
}

/// Held by every unit test of this crate that simulates through the
/// cache: the tests below assert exact counter deltas, which a lookup
/// from a concurrently running test would move.
#[cfg(test)]
pub(crate) fn serialize_cache_tests() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    poison::lock(&LOCK)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gex_sim::GpuConfig;
    use gex_sm::Scheme;
    use gex_workloads::{suite, Preset};

    // Unit tests share the process-global cache with each other, so they
    // hold `serialize_cache_tests` and assert via counter deltas and
    // distinct keys only; the end-to-end behaviour (hit identity, figure
    // equivalence, fig11 baseline sharing) lives in
    // `tests/cache_equivalence.rs`, its own process.

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
        // the read-mostly path. Every thread must see the same Arc for
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
        let a = CacheStats { hits: 5, misses: 3, stores: 2, coalesced: 1, evictions: 0 };
        let b = CacheStats { hits: 7, misses: 4, stores: 3, coalesced: 1, evictions: 2 };
        assert_eq!(
            b.since(&a),
            CacheStats { hits: 2, misses: 1, stores: 1, coalesced: 0, evictions: 2 }
        );
        assert!(b.to_string().contains("7 hit(s)"));
        assert!(b.to_string().contains("2 evicted"));
    }

    #[test]
    fn shard_cap_slices_the_total() {
        assert_eq!(per_shard_cap(0), None, "0 means unbounded");
        assert_eq!(per_shard_cap(1), Some(1));
        assert_eq!(per_shard_cap(8), Some(1));
        assert_eq!(per_shard_cap(DEFAULT_CAP), Some(DEFAULT_CAP / SHARDS));
    }

    // Eviction is tested on a hand-built map: the process-global cache is
    // shared with every other test in this binary, so temporarily
    // shrinking its cap here could evict their entries mid-assertion.
    #[test]
    fn evicts_least_recently_used_ready_entries_only() {
        let dummy = || {
            let w = suite::by_name("histo", Preset::Test).unwrap();
            let gpu = Gpu::new(
                GpuConfig::kepler_k20().with_sms(1),
                Scheme::Baseline,
                PagingMode::AllResident,
            );
            Arc::new(gpu.try_run(&w.trace, &Residency::new()).unwrap())
        };
        let report = dummy();
        let ready = |stamp: u64| {
            Slot::Ready(Entry { report: Arc::clone(&report), stamp: AtomicU64::new(stamp) })
        };
        let mut map = HashMap::new();
        map.insert("old".to_string(), ready(1));
        map.insert("new".to_string(), ready(9));
        map.insert("building".to_string(), Slot::Building(Arc::new(Build::default())));
        // Cap of 1: room for one more Ready entry means both existing
        // Ready entries go, oldest stamp first — but never the builder.
        assert_eq!(evict_to_cap(&mut map, 2), 1);
        assert!(!map.contains_key("old"), "stamp 1 is the LRU victim");
        assert!(map.contains_key("new"));
        assert!(map.contains_key("building"));
        assert_eq!(evict_to_cap(&mut map, 1), 1);
        assert!(!map.contains_key("new"));
        assert!(map.contains_key("building"), "builders are never evicted");
        // Only a builder left: nothing evictable, must not loop forever.
        assert_eq!(evict_to_cap(&mut map, 1), 0);
    }
}
