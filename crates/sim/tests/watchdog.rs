//! Forward-progress watchdog and structured run-abort errors.
//!
//! A wedged configuration — here, an injection schedule that NACKs every
//! fault service forever — must abort with a structured [`SimError`]
//! carrying per-warp and fault-queue diagnostics, never hang or panic.

use gex_isa::asm::Asm;
use gex_isa::func::FuncSim;
use gex_isa::kernel::{Dim3, KernelBuilder};
use gex_isa::mem_image::MemImage;
use gex_isa::reg::Reg;
use gex_isa::trace::KernelTrace;
use gex_sim::{
    Gpu, GpuConfig, InjectionPlan, Interconnect, PagingMode, Residency, SimError,
};
use gex_sm::Scheme;

const IN: u64 = 0x100_0000;

/// Every block loads from its own CPU-dirty 64 KB region: one migration
/// fault per block, so a handler that never resolves wedges the launch.
fn faulting_kernel(blocks: u32) -> (KernelTrace, Residency) {
    let mut a = Asm::new();
    let (tid, bid, addr, v) = (Reg(0), Reg(1), Reg(2), Reg(3));
    a.flat_tid(tid);
    a.flat_ctaid(bid);
    a.mul(addr, bid, 0x1_0000u64);
    a.add(addr, addr, IN);
    a.shl_imm(v, tid, 2);
    a.add(addr, addr, v);
    a.ld_global_u32(v, addr, 0);
    a.add(v, v, 1u64);
    a.st_global_u32(addr, v, 0);
    a.exit();
    let k = KernelBuilder::new("faulting", a.assemble().unwrap())
        .grid(Dim3::x(blocks))
        .block(Dim3::x(128))
        .regs_per_thread(16)
        .build()
        .unwrap();
    let mut img = MemImage::new();
    for b in 0..blocks as u64 {
        for t in 0..128u64 {
            img.write_u32(IN + b * 0x1_0000 + t * 4, (b + t) as u32);
        }
    }
    let trace = FuncSim::new().run(&k, &mut img).unwrap().trace;
    let res = Residency::new().cpu_dirty(IN, blocks as u64 * 0x1_0000);
    (trace, res)
}

fn demand_gpu(scheme: Scheme, cfg: GpuConfig) -> Gpu {
    Gpu::new(cfg, scheme, PagingMode::demand(Interconnect::nvlink()))
}

#[test]
fn wedged_nacks_trip_the_watchdog_with_diagnostics() {
    let (trace, res) = faulting_kernel(4);
    let cfg = GpuConfig::kepler_k20().with_sms(2).with_watchdog_cycles(300_000);
    let gpu = demand_gpu(Scheme::ReplayQueue, cfg).inject(InjectionPlan::wedge(3));
    let err = gpu.try_run(&trace, &res).expect_err("every service NACKs: must wedge");
    let SimError::Watchdog(d) = err else {
        panic!("expected a watchdog abort, got: {err}");
    };
    assert_eq!(d.window, 300_000);
    assert_eq!(d.cycle, d.last_progress + d.window, "the idle jump clamps to the watchdog");
    assert!(d.completed_blocks < d.total_blocks, "no block can finish");
    assert!(
        !d.stuck_warps().is_empty(),
        "warps waiting on never-resolving faults must show up as stuck"
    );
    let waiting: usize = d.stuck_warps().iter().map(|w| w.waiting_regions.len()).sum();
    assert!(waiting > 0, "stuck warps must name the regions they wait on");
    assert!(
        !d.fault_queue.is_empty() || !d.in_service.is_empty(),
        "the wedged fault must be visible in the queue snapshot"
    );
    // The rendered diagnostic is self-contained.
    let msg = SimError::Watchdog(d).to_string();
    assert!(msg.contains("no forward progress"), "{msg}");
    assert!(msg.contains("stuck warps"), "{msg}");
}

#[test]
fn stall_on_fault_baseline_also_gets_watchdog_coverage() {
    // The non-preemptible baseline stalls warps on faults instead of
    // squashing; a wedged handler must still be caught.
    let (trace, res) = faulting_kernel(2);
    let cfg = GpuConfig::kepler_k20().with_sms(2).with_watchdog_cycles(300_000);
    let gpu = demand_gpu(Scheme::Baseline, cfg).inject(InjectionPlan::wedge(5));
    match gpu.try_run(&trace, &res) {
        Err(SimError::Watchdog(d)) => {
            assert!(d.committed < trace.dyn_instrs());
        }
        other => panic!("expected watchdog, got {other:?}"),
    }
}

#[test]
fn healthy_runs_are_untouched_by_the_guards() {
    // A clean run under the default guards completes and reports per-warp
    // retirement adding up to the trace.
    let (trace, res) = faulting_kernel(4);
    let cfg = GpuConfig::kepler_k20().with_sms(2);
    let report = demand_gpu(Scheme::ReplayQueue, cfg)
        .try_run(&trace, &res)
        .expect("healthy run");
    assert_eq!(report.sm.committed, trace.dyn_instrs());
    let retired: u64 = report.warp_retired.values().sum();
    assert_eq!(retired, report.sm.committed);
    assert!(report.injection.is_none(), "no plan attached, no stats reported");
}

#[test]
fn duplicated_service_and_nack_backoff_on_one_warp_complete_under_the_watchdog() {
    // Every fault service is both issued twice (duplicate_prob 1.0) and
    // NACKed twice with exponential backoff before resolving, so the same
    // warp sits through duplicated completions *and* NACK retries in one
    // run. A tight (but fair) watchdog window stays armed throughout: the
    // backoff stalls must not read as a wedge, the duplicate resolutions
    // must not corrupt architectural state, and the run must finish.
    let (trace, res) = faulting_kernel(2);
    let plan = InjectionPlan {
        seed: 7,
        duplicate_prob: 1.0,
        nack_prob: 1.0,
        max_nacks_per_region: 2,
        nack_backoff: 1_500,
        ..InjectionPlan::none()
    };
    let cfg = GpuConfig::kepler_k20().with_sms(1).with_watchdog_cycles(200_000);
    let clean = demand_gpu(Scheme::ReplayQueue, cfg.clone()).run(&trace, &res);
    let report = demand_gpu(Scheme::ReplayQueue, cfg)
        .inject(plan)
        .try_run(&trace, &res)
        .expect("duplicate + bounded-NACK service must still finish");
    let inj = report.injection.expect("stats present");
    assert!(inj.duplicates > 0, "duplicated fault service must fire: {inj:?}");
    assert!(inj.nacks > 0, "NACK backoff must fire in the same run: {inj:?}");
    assert_eq!(report.sm.committed, trace.dyn_instrs());
    assert_eq!(
        report.warp_retired, clean.warp_retired,
        "perturbed timing must not change per-warp retirement"
    );
    assert!(
        report.cycles > clean.cycles,
        "duplicates + backoff must cost simulated time ({} vs {})",
        report.cycles,
        clean.cycles
    );
}

#[test]
fn wedged_duplicates_still_trip_the_watchdog() {
    // Duplicated services must not mask a wedge: with every resolution
    // NACKed forever, the extra duplicate round trips keep the fault
    // pipeline busy without ever making progress, and the watchdog must
    // still classify the launch as stuck rather than spin.
    let (trace, res) = faulting_kernel(2);
    let plan = InjectionPlan { duplicate_prob: 1.0, ..InjectionPlan::wedge(9) };
    let cfg = GpuConfig::kepler_k20().with_sms(2).with_watchdog_cycles(300_000);
    let err = demand_gpu(Scheme::ReplayQueue, cfg)
        .inject(plan)
        .try_run(&trace, &res)
        .expect_err("a wedge stays a wedge under duplication");
    let SimError::Watchdog(d) = err else {
        panic!("expected a watchdog abort, got: {err}");
    };
    assert!(d.completed_blocks < d.total_blocks);
    assert!(!d.stuck_warps().is_empty(), "the stuck warps must still be identified");
}

#[test]
fn bounded_nacks_recover_and_finish() {
    // With a finite NACK budget the run limps through retries, then
    // completes with full architectural results and nack accounting.
    let (trace, res) = faulting_kernel(4);
    let plan = InjectionPlan {
        seed: 11,
        nack_prob: 1.0,
        max_nacks_per_region: 2,
        nack_backoff: 2_000,
        ..InjectionPlan::none()
    };
    let cfg = GpuConfig::kepler_k20().with_sms(2);
    let clean = demand_gpu(Scheme::ReplayQueue, cfg.clone()).run(&trace, &res);
    let report = demand_gpu(Scheme::ReplayQueue, cfg)
        .inject(plan)
        .try_run(&trace, &res)
        .expect("bounded NACKs must still finish");
    assert_eq!(report.sm.committed, trace.dyn_instrs());
    assert_eq!(report.warp_retired, clean.warp_retired);
    let inj = report.injection.expect("stats present");
    assert!(inj.nacks > 0, "every region is NACKed twice before resolving");
    assert!(
        report.cycles > clean.cycles,
        "retry/backoff must cost simulated time ({} vs {})",
        report.cycles,
        clean.cycles
    );
}
