//! Page-size-policy equivalence keystone (ISSUE 9).
//!
//! The large-page machinery (2 MB frames, two-size TLB, transparent
//! coalescing) must be *invisible* unless switched on:
//!
//! 1. `PageSizePolicy::Small` reproduces the pre-large-page simulator
//!    byte-for-byte. `tests/golden/page_size_small.txt` holds full
//!    `Debug` report dumps generated by the simulator *before* the
//!    large-page change landed (verified against a pristine checkout);
//!    this test recomputes the same schemes × paging × chaos grid and
//!    asserts byte-identity.
//! 2. `PageSizePolicy::Transparent` with the background coalescer
//!    disabled degrades to `Small` exactly — same reports, same error
//!    diagnostics — across every scheme and chaos seed, and through the
//!    GPU-local fault handler.

use gex::workloads::{suite, Preset};
use gex::{
    cache, Gpu, GpuConfig, InjectionPlan, Interconnect, LocalFaultConfig, PageSizePolicy,
    PagingMode, Residency, Scheme,
};
use std::fmt::Write as _;

const SCHEMES: [Scheme; 5] = [
    Scheme::Baseline,
    Scheme::WdCommit,
    Scheme::WdLastCheck,
    Scheme::ReplayQueue,
    Scheme::OperandLog { bytes: 16384 },
];

const LEGS: [(&str, Option<u64>); 4] =
    [("resident", None), ("demand", None), ("demand+chaos7", Some(7)), ("demand+chaos42", Some(42))];

/// The GPU-local leg: a heap backed lazily, whose first touches the
/// GPU-local handler services.
const LOCAL_LEG: (&str, Option<u64>) = ("demand+local", None);

fn leg_paging(leg: &str) -> PagingMode {
    match leg {
        "resident" => PagingMode::AllResident,
        "demand+local" => PagingMode::Demand {
            interconnect: Interconnect::nvlink(),
            block_switch: None,
            local_handling: Some(LocalFaultConfig::default()),
        },
        _ => PagingMode::demand(Interconnect::nvlink()),
    }
}

/// Recompute the 2 workloads × 5 schemes × 4 legs grid pinned by the
/// golden and assert the `Small` policy reproduces every report
/// byte-for-byte.
#[test]
fn small_policy_is_byte_identical_to_the_prechange_simulator() {
    let golden = include_str!("golden/page_size_small.txt");
    let mut out = String::new();
    for name in ["histo", "bfs"] {
        let w = suite::by_name(name, Preset::Test).expect("known benchmark");
        for scheme in SCHEMES {
            for (leg, seed) in LEGS {
                let paging = leg_paging(leg);
                let mut gpu = Gpu::new(
                    GpuConfig::kepler_k20().with_sms(4).with_page_size(PageSizePolicy::Small),
                    scheme,
                    paging,
                );
                if let Some(seed) = seed {
                    gpu = gpu.inject(InjectionPlan::chaos(seed));
                }
                let res = if matches!(paging, PagingMode::AllResident) {
                    Residency::new()
                } else {
                    w.demand_residency()
                };
                let report = cache::run_cached(&gpu, &w, &res).expect("grid point runs");
                writeln!(out, "== {name} {scheme:?} {leg} ==").unwrap();
                writeln!(out, "{report:?}").unwrap();
            }
        }
    }
    assert_eq!(
        out, golden,
        "PageSizePolicy::Small drifted from the pre-large-page simulator; \
         this policy must stay byte-identical — fix the regression rather \
         than regenerating the golden"
    );
}

/// `Transparent` with coalescing disabled never promotes a frame, so the
/// whole run — reports and error diagnostics alike — must match `Small`
/// exactly on every scheme × leg of the golden grid plus the
/// fault-heaviest workload (lbm), and on halloc-fixed's GPU-local leg
/// under every preemptible scheme.
#[test]
fn transparent_without_coalescing_degrades_to_small_exactly() {
    for (name, legs) in [("histo", &LEGS[..]), ("lbm", &LEGS[..]), ("halloc-fixed", &[LOCAL_LEG])] {
        let w = suite::by_name(name, Preset::Test).expect("known benchmark");
        for scheme in SCHEMES {
            for &(leg, seed) in legs {
                if leg == LOCAL_LEG.0 && !scheme.preemptible() {
                    // GPU-local handling needs a preemptible scheme.
                    continue;
                }
                let paging = leg_paging(leg);
                let build = |policy: PageSizePolicy| {
                    let cfg = GpuConfig::kepler_k20()
                        .with_sms(4)
                        .with_page_size(policy)
                        .with_coalescing(false);
                    let mut gpu = Gpu::new(cfg, scheme, paging);
                    if let Some(seed) = seed {
                        gpu = gpu.inject(InjectionPlan::chaos(seed));
                    }
                    gpu
                };
                let res = match leg {
                    "resident" => Residency::new(),
                    "demand+local" => w.heap_lazy_residency(),
                    _ => w.demand_residency(),
                };
                let small = build(PageSizePolicy::Small).try_run(&w.trace, &res);
                let transparent = build(PageSizePolicy::Transparent).try_run(&w.trace, &res);
                match (&small, &transparent) {
                    (Ok(s), Ok(t)) => {
                        assert_eq!(
                            s, t,
                            "transparent-without-coalescing diverged from small \
                             on {name}/{scheme:?}/{leg}"
                        );
                        let local = s.local.resolved > 0;
                        assert_eq!(local, leg == LOCAL_LEG.0, "{name}/{scheme:?}/{leg}");
                    }
                    _ => assert_eq!(
                        format!("{small:?}"),
                        format!("{transparent:?}"),
                        "outcomes diverged on {name}/{scheme:?}/{leg}"
                    ),
                }
            }
        }
    }
}
