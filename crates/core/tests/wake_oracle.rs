//! Wake queue == scan oracle.
//!
//! The tick loops find their idle-skip jump target with the push-based
//! wake queue ([`gex::sm::WakeQueue`]). In debug builds every idle window
//! of every run also recomputes the target with the linear scan over all
//! components and asserts the two equal, so one run of a point *is* the
//! equivalence check: a wake the queue missed, or one the scan does not
//! corroborate, panics inside the engine at the cycle it happens.
//!
//! This file walks that assertion across the engine's configuration
//! space — scheme, SM count, paging mode and handlers, page size, chaos
//! seed, the single-SM harness, multi-tenant policies and the
//! deadline/watchdog clamps. Release builds compile the oracle out, so
//! the whole file is debug-only rather than passing vacuously.
#![cfg(debug_assertions)]

use gex::sm::{Scheme, SingleSmHarness};
use gex::workloads::{suite, Preset};
use gex::{
    BlockSwitchConfig, Gpu, GpuConfig, InjectionPlan, Interconnect, LocalFaultConfig,
    PageSizePolicy, PagingMode, RunBudget, SimError,
};
use gex_testkit::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Whole-GPU engine: randomized workload x scheme x SM count x paging
    /// x page size x chaos seed.
    #[test]
    fn gpu_wake_queue_matches_scan_oracle(
        name in prop_oneof![
            Just("histo"), Just("sad"), Just("spmv"), Just("bfs"), Just("stencil")
        ],
        sms in prop_oneof![Just(1u32), Just(2), Just(4), Just(8)],
        scheme in prop_oneof![
            Just(Scheme::Baseline),
            Just(Scheme::WdCommit),
            Just(Scheme::WdLastCheck),
            Just(Scheme::ReplayQueue),
            Just(Scheme::operand_log_kib(16)),
        ],
        flavor in 0u8..4,
        seed in 0u64..1_000,
        page_size in prop_oneof![
            Just(PageSizePolicy::Small),
            Just(PageSizePolicy::Transparent),
            Just(PageSizePolicy::HugeOnly),
        ],
    ) {
        let w = suite::by_name(name, Preset::Test).expect("known benchmark");
        let cfg = GpuConfig::kepler_k20().with_sms(sms).with_page_size(page_size);
        // Flavors walk the paging/handler space: fault-free, plain demand
        // paging, demand + block switching, demand + GPU-local handling
        // (which needs a preemptible scheme), so every wake source — the
        // memory system, CPU handler, local handler, per-SM schedulers —
        // gets exercised.
        let (scheme, paging) = match flavor {
            0 => (scheme, PagingMode::AllResident),
            1 => (scheme, PagingMode::demand(Interconnect::nvlink())),
            2 => (
                scheme,
                PagingMode::Demand {
                    interconnect: Interconnect::nvlink(),
                    block_switch: Some(BlockSwitchConfig::default()),
                    local_handling: None,
                },
            ),
            _ => (
                Scheme::ReplayQueue,
                PagingMode::Demand {
                    interconnect: Interconnect::nvlink(),
                    block_switch: None,
                    local_handling: Some(LocalFaultConfig::default()),
                },
            ),
        };
        let mut gpu = Gpu::new(cfg, scheme, paging);
        if flavor != 0 && seed % 3 != 0 {
            // Chaos only perturbs demand paging; a third of the demand
            // cases stay clean.
            gpu = gpu.inject(InjectionPlan::chaos(seed));
        }
        let res =
            if flavor == 3 { w.outputs_lazy_residency() } else { w.demand_residency() };
        let report = gpu.try_run(&w.trace, &res).expect("chaos plans always terminate");
        prop_assert_eq!(report.sm.committed, w.trace.dyn_instrs());
    }

    /// Single-SM harness: its own loop carries the same oracle.
    #[test]
    fn harness_wake_queue_matches_scan_oracle(
        name in prop_oneof![Just("histo"), Just("sad"), Just("sgemm"), Just("cutcp")],
        scheme in prop_oneof![
            Just(Scheme::Baseline),
            Just(Scheme::WdLastCheck),
            Just(Scheme::ReplayQueue),
            Just(Scheme::operand_log_kib(8)),
        ],
    ) {
        let w = suite::by_name(name, Preset::Test).expect("known benchmark");
        let run = SingleSmHarness::new(scheme).run(&w.trace);
        prop_assert_eq!(run.sm_stats.committed, w.trace.dyn_instrs());
    }
}

/// Multi-tenant engine under every partitioning policy, with a noisy
/// neighbor that exhausts its fault budget (denials, purges, lockout).
#[test]
fn multi_tenant_wake_queue_matches_scan_oracle() {
    use gex::{PartitionPolicy, TenantId, TenantWorkload};
    let victim = suite::by_name("histo", Preset::Test).unwrap();
    let noisy = suite::by_name("lbm", Preset::Test).unwrap();
    let tenants = [
        TenantWorkload::new(
            TenantId::new("victim"),
            victim.trace.clone(),
            victim.demand_residency(),
        ),
        TenantWorkload::new(TenantId::new("noisy"), noisy.trace.clone(), noisy.demand_residency())
            .inject(InjectionPlan::chaos(11))
            .fault_budget(4),
    ];
    for policy in
        [PartitionPolicy::Shared, PartitionPolicy::Quarantine, PartitionPolicy::Static]
    {
        let gpu = Gpu::new(
            GpuConfig::kepler_k20().with_sms(4),
            Scheme::ReplayQueue,
            PagingMode::demand(Interconnect::nvlink()),
        );
        let report = gpu.run_multi(&tenants, policy);
        let v = report.tenant(&TenantId::new("victim")).unwrap();
        assert_eq!(v.completed, v.blocks, "victim must finish under {policy}");
    }
}

/// A budget deadline inside an idle window fires at its exact cycle: the
/// jump clamps to the deadline rather than skipping it.
#[test]
fn deadline_clamps_the_idle_jump() {
    let w = suite::by_name("lbm", Preset::Test).unwrap();
    let gpu = Gpu::new(
        GpuConfig::kepler_k20().with_sms(2),
        Scheme::ReplayQueue,
        PagingMode::demand(Interconnect::pcie()),
    )
    .budget(RunBudget::cycles(40_000));
    match gpu.try_run(&w.trace, &w.demand_residency()) {
        Err(SimError::Deadline(d)) => assert_eq!(d.cycle, 40_000),
        other => panic!("a 40k-cycle budget must trip on lbm under PCIe paging: {other:?}"),
    }
}

/// The watchdog fires exactly one window after the last progress when a
/// wedge plan NACKs every fault forever.
#[test]
fn watchdog_clamps_the_idle_jump() {
    let w = suite::by_name("histo", Preset::Test).unwrap();
    let gpu = Gpu::new(
        GpuConfig::kepler_k20().with_sms(2).with_watchdog_cycles(200_000),
        Scheme::ReplayQueue,
        PagingMode::demand(Interconnect::nvlink()),
    )
    .inject(InjectionPlan::wedge(3));
    match gpu.try_run(&w.trace, &w.demand_residency()) {
        Err(SimError::Watchdog(d)) => assert_eq!(d.cycle, d.last_progress + 200_000),
        other => panic!("a wedge plan must trip the watchdog: {other:?}"),
    }
}
