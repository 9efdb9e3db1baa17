//! Determinism contract of the parallel sweep engine: a sweep run on N
//! workers is byte-identical to the same sweep run serially. The engine
//! only distributes *independent* `(workload, scheme, config)` points and
//! reassembles results by job index, so thread count must never leak into
//! any figure or report.
//!
//! `gex_exec` resolves its worker count from a process-global override,
//! so these tests serialize on a lock instead of racing `set_threads`.

use gex::workloads::{suite, Preset};
use gex::{experiments, Gpu, GpuConfig, Interconnect, PagingMode, Scheme, SweepOptions};
use std::sync::Mutex;

/// Serializes every test that flips the global thread override.
static THREADS_LOCK: Mutex<()> = Mutex::new(());

fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    gex::exec::set_threads(n);
    let out = f();
    gex::exec::set_threads(0);
    out
}

#[test]
fn fig10_parallel_is_byte_identical_to_serial() {
    let _g = THREADS_LOCK.lock().unwrap();
    let (cfg, opts) = (GpuConfig::kepler_k20().with_sms(4), SweepOptions::default());
    let fig10 = || experiments::fig10(Preset::Test, &cfg, &opts).expect_healthy().to_string();
    let serial = with_threads(1, fig10);
    let parallel = with_threads(8, fig10);
    assert_eq!(serial, parallel, "fig10 must not depend on worker count");
    assert!(!serial.is_empty());
}

#[test]
fn fig12_and_fig13_parallel_match_serial() {
    let _g = THREADS_LOCK.lock().unwrap();
    let ic = Interconnect::nvlink();
    let (cfg, opts) = (GpuConfig::kepler_k20().with_sms(2), SweepOptions::default());
    let fig12 = || experiments::fig12(Preset::Test, &cfg, ic, &opts).expect_healthy().to_string();
    let fig13 = || experiments::fig13(Preset::Test, &cfg, ic, &opts).expect_healthy().to_string();
    let s12 = with_threads(1, fig12);
    let p12 = with_threads(8, fig12);
    assert_eq!(s12, p12, "fig12 must not depend on worker count");
    let s13 = with_threads(1, fig13);
    let p13 = with_threads(8, fig13);
    assert_eq!(s13, p13, "fig13 must not depend on worker count");
}

#[test]
fn raw_reports_from_par_map_match_serial_runs() {
    let _g = THREADS_LOCK.lock().unwrap();
    // Beyond the rendered figures: every full report out of the sweep
    // engine must equal one-at-a-time simulation, with the jobs submitted
    // in order and reversed — a run keeps no state on its worker thread,
    // so no report may depend on the points that ran there before it.
    let ws = suite::parboil(Preset::Test);
    let cfg = GpuConfig::kepler_k20().with_sms(2);
    let run_one = |wi: usize, scheme: Scheme| {
        Gpu::new(cfg.clone(), scheme, PagingMode::demand(Interconnect::nvlink()))
            .run(&ws[wi].trace, &ws[wi].demand_residency())
    };
    let jobs: Vec<(usize, Scheme)> = (0..ws.len().min(4))
        .flat_map(|i| [(i, Scheme::Baseline), (i, Scheme::ReplayQueue)])
        .collect();
    let swept = with_threads(8, || gex::exec::par_map(jobs.clone(), |(i, s)| run_one(i, s)));
    let reversed_jobs: Vec<(usize, Scheme)> = jobs.iter().rev().copied().collect();
    let mut reversed =
        with_threads(8, || gex::exec::par_map(reversed_jobs, |(i, s)| run_one(i, s)));
    reversed.reverse();
    for (((wi, scheme), par), rev) in jobs.iter().zip(&swept).zip(&reversed) {
        let ser = run_one(*wi, *scheme);
        assert_eq!(&ser, par, "{}/{scheme}: pooled report drifted", ws[*wi].name);
        assert_eq!(&ser, rev, "{}/{scheme}: reversed pooled report drifted", ws[*wi].name);
    }
}
