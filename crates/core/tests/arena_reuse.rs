//! Arena-reuse determinism through the persistent worker pool.
//!
//! The sweep engine's workers keep a per-thread simulation arena (SMs,
//! event wheels, dispatch queues) that is recycled between
//! points. The contract: running the *same point list twice* through the
//! persistent pool — the first pass on cold arenas, the second on arenas
//! warmed by the first, with the scheduling order shuffled — yields
//! byte-identical [`GpuRunReport`]s, and identical figure renders. The
//! result cache is disabled throughout so every pass actually simulates
//! (cached replies would trivially match without exercising the arenas).
//!
//! The fresh-state reference for a point is the same run on a newly
//! spawned thread ([`on_new_thread`]): its thread-local arena is empty by
//! construction.

use gex::workloads::{suite, Preset};
use gex::{cache, Gpu, GpuConfig, GpuRunReport, Interconnect, PagingMode, Scheme};
use gex_testkit::prelude::*;
use std::sync::Mutex;

/// Serializes tests that flip process-global knobs (thread override,
/// cache enable).
static GLOBALS_LOCK: Mutex<()> = Mutex::new(());

fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    gex::exec::set_threads(n);
    let out = f();
    gex::exec::set_threads(0);
    out
}

/// Restores the cache on drop so a failing assert can't poison later
/// tests in this binary.
struct CacheOff;
impl CacheOff {
    fn new() -> Self {
        cache::set_enabled(false);
        CacheOff
    }
}
impl Drop for CacheOff {
    fn drop(&mut self) {
        cache::set_enabled(true);
    }
}

/// Deterministic Fisher-Yates permutation of `0..n` from an xorshift
/// stream — scheduling-order shuffle without a rand dependency.
fn permutation(n: usize, mut seed: u64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        idx.swap(i, (seed % (i as u64 + 1)) as usize);
    }
    idx
}

/// Run `f` on a thread of its own, i.e. against an empty arena.
fn on_new_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| s.spawn(f).join().expect("fresh-arena run panicked"))
}

fn run_point(wi: usize, scheme: Scheme, sms: u32) -> GpuRunReport {
    let ws = suite::parboil(Preset::Test);
    Gpu::new(
        GpuConfig::kepler_k20().with_sms(sms),
        scheme,
        PagingMode::demand(Interconnect::nvlink()),
    )
    .run(&ws[wi].trace, &ws[wi].demand_residency())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Same point list, twice through the pool: cold arenas, then warmed
    /// arenas under a shuffled scheduling order, both equal to serial
    /// runs on fresh state.
    #[test]
    fn pool_reuse_with_shuffled_order_is_byte_identical(
        sms in prop_oneof![Just(1u32), Just(2), Just(4)],
        shuffle_seed in 1u64..10_000,
    ) {
        let _g = GLOBALS_LOCK.lock().unwrap();
        let _cache_off = CacheOff::new();
        let jobs: Vec<(usize, Scheme)> = (0..3usize)
            .flat_map(|i| [(i, Scheme::Baseline), (i, Scheme::ReplayQueue)])
            .collect();
        // Reference: fresh state per run, no pool.
        let fresh: Vec<GpuRunReport> =
            jobs.iter().map(|&(wi, s)| on_new_thread(|| run_point(wi, s, sms))).collect();
        // Pass 1: cold worker arenas, natural order.
        let cold = with_threads(4, || {
            gex::exec::par_map(jobs.clone(), |(wi, s)| run_point(wi, s, sms))
        });
        // Pass 2: arenas warmed by pass 1, scheduling order shuffled.
        let perm = permutation(jobs.len(), shuffle_seed);
        let shuffled: Vec<(usize, Scheme)> = perm.iter().map(|&i| jobs[i]).collect();
        let warm_shuffled = with_threads(4, || {
            gex::exec::par_map(shuffled, |(wi, s)| run_point(wi, s, sms))
        });
        let mut warm: Vec<Option<GpuRunReport>> = vec![None; jobs.len()];
        for (k, &i) in perm.iter().enumerate() {
            warm[i] = Some(warm_shuffled[k].clone());
        }
        for (i, f) in fresh.iter().enumerate() {
            prop_assert_eq!(&cold[i], f, "cold-arena pool run diverged at job {}", i);
            prop_assert_eq!(
                warm[i].as_ref().unwrap(),
                f,
                "warmed-arena shuffled pool run diverged at job {}",
                i
            );
        }
    }
}

/// Arena recycling across stream-count changes: alternating single-stream
/// and two-tenant runs through the same thread-local arena yields reports
/// byte-identical to fresh-state runs. This locks the multi-tenant
/// state (per-tenant dispatch queues, SM-ownership map, fault budgets)
/// into the arena reset contract.
#[test]
fn arena_recycles_across_single_and_multi_tenant_runs() {
    use gex::{PartitionPolicy, SharedRunReport, TenantId, TenantWorkload};
    let _g = GLOBALS_LOCK.lock().unwrap();
    let _cache_off = CacheOff::new();
    let run_single = || run_point(2, Scheme::ReplayQueue, 4);
    let run_multi = || -> SharedRunReport {
        let ws = suite::parboil(Preset::Test);
        // ws[2] = histo (victim), ws[3] = lbm (budgeted noisy neighbor).
        let tenants = [
            TenantWorkload::new(
                TenantId::new("a"),
                ws[2].trace.clone(),
                ws[2].demand_residency(),
            ),
            TenantWorkload::new(TenantId::new("b"), ws[3].trace.clone(), ws[3].demand_residency())
                .fault_budget(4),
        ];
        Gpu::new(
            GpuConfig::kepler_k20().with_sms(4),
            Scheme::ReplayQueue,
            PagingMode::demand(Interconnect::nvlink()),
        )
        .run_multi(&tenants, PartitionPolicy::Quarantine)
    };
    let fresh_single = on_new_thread(run_single);
    let fresh_multi = on_new_thread(run_multi);
    // Warm the arena with a multi-tenant run, then alternate shapes.
    let m1 = run_multi();
    let s1 = run_single();
    let m2 = run_multi();
    let s2 = run_single();
    assert_eq!(m1, fresh_multi, "cold-arena multi-tenant run diverged");
    assert_eq!(s1, fresh_single, "single-stream run on a multi-warmed arena diverged");
    assert_eq!(m2, fresh_multi, "multi-tenant run on a single-warmed arena diverged");
    assert_eq!(s2, fresh_single, "second single-stream run diverged");
}

/// Figure renders are identical across pool reuse and against a serial
/// sweep on a new thread (one arena that sees every point in order) —
/// the user-visible form of the same contract.
#[test]
fn figure_renders_survive_pool_and_arena_reuse() {
    let _g = GLOBALS_LOCK.lock().unwrap();
    let _cache_off = CacheOff::new();
    let fig10 = || {
        gex::experiments::fig10(Preset::Test, 2, &gex::SweepOptions::default())
            .expect_healthy()
            .to_string()
    };
    let first = with_threads(4, fig10);
    // The pool's worker arenas are warm now; render again.
    let second = with_threads(4, fig10);
    assert_eq!(first, second, "warmed arenas changed a figure render");
    let serial = on_new_thread(move || with_threads(1, fig10));
    assert_eq!(first, serial, "arena history changed a figure render");
    assert!(!first.is_empty());
}
