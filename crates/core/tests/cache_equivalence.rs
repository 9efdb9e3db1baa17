//! Cross-sweep cache equivalence suite.
//!
//! The result cache ([`gex::cache`]) must be *invisible* except for time
//! saved: a hit returns a report bit-identical to a fresh simulation
//! (including under fault-injection plans), figures render byte-identically
//! with the cache on or off, and — the headline saving — the Figure 11
//! campaign run after Figure 10 simulates each workload's baseline exactly
//! once, answering the other ten.. fifty-four baseline lookups from cache.
//!
//! The cache is process-global, so every test here serializes on one lock
//! and measures counters as deltas.

use gex::cache::{self, CacheStats};
use gex::experiments;
use gex::sm::Scheme;
use gex::workloads::{suite, Preset};
use gex::{Gpu, GpuConfig, InjectionPlan, Interconnect, PagingMode, SweepOptions};
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

/// Restores the previous cache on/off state on drop, so a failing test
/// cannot leak a disabled cache into the next one.
struct EnabledGuard(bool);

impl EnabledGuard {
    fn set(on: bool) -> Self {
        let prev = cache::enabled();
        cache::set_enabled(on);
        EnabledGuard(prev)
    }
}

impl Drop for EnabledGuard {
    fn drop(&mut self) {
        cache::set_enabled(self.0);
    }
}

/// Figure 10 at the Test preset on 4 SMs, rendered; panics on a
/// quarantined point.
fn fig10_render() -> String {
    let cfg = GpuConfig::kepler_k20().with_sms(4);
    experiments::fig10(Preset::Test, &cfg, &SweepOptions::default()).expect_healthy().to_string()
}

fn delta_since(before: &CacheStats) -> CacheStats {
    cache::stats().since(before)
}

/// A cache hit hands back the same bytes a fresh simulation produces —
/// full-report equality, exercised under demand paging with a chaos
/// injection plan so the fault timeline and injection stats are compared
/// too.
#[test]
fn hit_is_bit_identical_to_fresh_simulation() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _on = EnabledGuard::set(true);
    cache::clear();

    let w = suite::by_name("spmv", Preset::Test).unwrap();
    let res = w.demand_residency();
    let gpu = Gpu::new(
        GpuConfig::kepler_k20().with_sms(4),
        Scheme::ReplayQueue,
        PagingMode::Demand {
            interconnect: Interconnect::nvlink(),
            block_switch: None,
            local_handling: None,
        },
    )
    .inject(InjectionPlan::chaos(7));

    // An uncached reference run, straight through the simulator.
    let fresh = gpu.try_run(&w.trace, &res).expect("reference run");

    let before = cache::stats();
    let miss = cache::run_cached(&gpu, &w, &res).expect("first cached run");
    let d = delta_since(&before);
    assert_eq!((d.hits, d.misses, d.stores), (0, 1, 1), "first lookup must miss: {d:?}");

    let before = cache::stats();
    let hit = cache::run_cached(&gpu, &w, &res).expect("second cached run");
    let d = delta_since(&before);
    assert_eq!((d.hits, d.misses), (1, 0), "second lookup must hit: {d:?}");

    assert_eq!(*miss, fresh, "cached miss diverged from a direct run");
    assert_eq!(*hit, fresh, "cache hit diverged from a direct run");
}

/// Runs that differ only in injection plan (or in having none) must not
/// share a cache entry.
#[test]
fn injection_plans_get_distinct_entries() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _on = EnabledGuard::set(true);
    cache::clear();

    let w = suite::by_name("bfs", Preset::Test).unwrap();
    let res = w.demand_residency();
    let demand = PagingMode::Demand {
        interconnect: Interconnect::nvlink(),
        block_switch: None,
        local_handling: None,
    };
    let cfg = GpuConfig::kepler_k20().with_sms(2);
    let clean = Gpu::new(cfg.clone(), Scheme::ReplayQueue, demand);
    let chaos = Gpu::new(cfg, Scheme::ReplayQueue, demand).inject(InjectionPlan::chaos(3));

    let before = cache::stats();
    let a = cache::run_cached(&clean, &w, &res).unwrap();
    let b = cache::run_cached(&chaos, &w, &res).unwrap();
    let d = delta_since(&before);
    assert_eq!((d.hits, d.misses), (0, 2), "clean and chaos must be distinct entries: {d:?}");
    assert!(a.injection.is_none());
    assert!(b.injection.is_some());
    assert_ne!(*a, *b);
}

/// Figure 10 renders byte-identically with the cache enabled and disabled
/// (and a warm second render stays identical too).
#[test]
fn fig10_render_identical_cache_on_vs_off() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    cache::clear();

    let cached = {
        let _on = EnabledGuard::set(true);
        fig10_render()
    };
    let warm = {
        let _on = EnabledGuard::set(true);
        fig10_render()
    };
    let uncached = {
        let _off = EnabledGuard::set(false);
        fig10_render()
    };
    assert_eq!(cached, uncached, "cache on vs off changed Figure 10");
    assert_eq!(cached, warm, "a fully warm render changed Figure 10");
}

/// The acceptance criterion: a Figure 11 campaign run after Figure 10
/// simulates each workload's stall-on-fault baseline exactly once per
/// process — every one of its 11 baseline points answers from the cache,
/// and only the 44 operand-log points simulate.
#[test]
fn fig11_after_fig10_reuses_every_baseline() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _on = EnabledGuard::set(true);
    cache::clear();

    let (cfg, opts) = (GpuConfig::kepler_k20().with_sms(4), SweepOptions::default());
    let n = suite::parboil(Preset::Test).len();

    let f10 = experiments::fig10(Preset::Test, &cfg, &opts);
    assert!(f10.quarantine.is_empty());
    assert_eq!(
        (f10.cache.hits, f10.cache.misses),
        (0, 4 * n as u64),
        "a cold Figure 10 sweep must simulate its whole grid: {}",
        f10.cache
    );

    let f11 = experiments::fig11(Preset::Test, &cfg, &opts);
    assert!(f11.quarantine.is_empty());
    assert_eq!(
        f11.cache.hits,
        n as u64,
        "Figure 11 must reuse each of the {n} baselines Figure 10 already simulated: {}",
        f11.cache
    );
    assert_eq!(
        f11.cache.misses,
        4 * n as u64,
        "only the operand-log points should simulate: {}",
        f11.cache
    );

    // A repeat of the whole campaign is fully cached: zero simulations.
    let again = experiments::fig11(Preset::Test, &cfg, &opts);
    assert!(again.quarantine.is_empty());
    assert_eq!(
        (again.cache.hits, again.cache.misses),
        (5 * n as u64, 0),
        "a warm Figure 11 sweep must not simulate at all: {}",
        again.cache
    );
}
