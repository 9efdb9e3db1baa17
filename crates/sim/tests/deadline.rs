//! Cooperative run budgets on the whole-GPU engine.
//!
//! A supervised sweep gives every point a [`RunBudget`]; the engine loop
//! checks it each iteration and surfaces a blown budget as
//! [`SimError::Deadline`] with progress diagnostics — never a hang, never
//! a panic. Budgets compose with the idle-skip optimisation (the jump
//! target is clamped to the cycle deadline so it fires at its exact
//! cycle), and a budget that admits the run leaves it bit-identical to an
//! unbudgeted one.

use gex_isa::asm::Asm;
use gex_isa::func::FuncSim;
use gex_isa::kernel::{Dim3, KernelBuilder};
use gex_isa::mem_image::MemImage;
use gex_isa::reg::Reg;
use gex_isa::trace::KernelTrace;
use gex_sim::{
    BudgetExceeded, CancelToken, Gpu, GpuConfig, Interconnect, PagingMode, Residency,
    RunBudget, SimError, SingleSmHarness,
};
use gex_sm::Scheme;

const IN: u64 = 0x100_0000;

/// Every block loads from its own CPU-dirty 64 KB region — one migration
/// fault per block, so demand-paging runs spend most of their cycles in
/// idle-skipped fault round trips.
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
fn cycle_deadline_fires_at_exactly_its_cycle_despite_idle_skip() {
    let (trace, res) = faulting_kernel(4);
    // 5000 cycles sits inside the first NVLink fault round trip (~12k
    // cycles), i.e. in the middle of an idle-skipped stretch: the clamp
    // must stop the jump at the deadline, not fly past it.
    let cfg = GpuConfig::kepler_k20().with_sms(2);
    let err = demand_gpu(Scheme::ReplayQueue, cfg)
        .budget(RunBudget::cycles(5_000))
        .try_run(&trace, &res)
        .expect_err("deadline well below the first fault resolution");
    let SimError::Deadline(d) = err else {
        panic!("expected a deadline abort, got: {err}");
    };
    assert_eq!(d.cause, BudgetExceeded::Cycles { deadline: 5_000 });
    assert_eq!(d.cycle, 5_000, "idle skip must not overshoot the deadline");
    assert!(d.completed_blocks < d.total_blocks);
    assert!(err_is_deadline_roundtrip(&SimError::Deadline(d)));
}

fn err_is_deadline_roundtrip(e: &SimError) -> bool {
    e.is_deadline() && e.to_string().contains("deadline")
}

#[test]
fn cancel_token_aborts_a_run_before_it_starts_ticking() {
    let (trace, res) = faulting_kernel(2);
    let token = CancelToken::new();
    token.cancel();
    let cfg = GpuConfig::kepler_k20().with_sms(2);
    let err = demand_gpu(Scheme::ReplayQueue, cfg)
        .budget(RunBudget::none().with_token(token))
        .try_run(&trace, &res)
        .expect_err("pre-cancelled token");
    match err {
        SimError::Deadline(d) => assert_eq!(d.cause, BudgetExceeded::Cancelled),
        other => panic!("expected a cancellation, got {other:?}"),
    }
}

#[test]
fn unlimited_budget_leaves_a_healthy_run_untouched() {
    let (trace, res) = faulting_kernel(2);
    let cfg = GpuConfig::kepler_k20().with_sms(2);
    let clean = demand_gpu(Scheme::ReplayQueue, cfg.clone()).run(&trace, &res);
    let budgeted = demand_gpu(Scheme::ReplayQueue, cfg.clone())
        .budget(RunBudget::none())
        .run(&trace, &res);
    assert_eq!(budgeted.cycles, clean.cycles);
    assert_eq!(budgeted.warp_retired, clean.warp_retired);
    // The tightest budget that admits the run ends one cycle past its
    // last one, and the run under it is the unbudgeted run exactly.
    let tight = demand_gpu(Scheme::ReplayQueue, cfg.clone())
        .budget(RunBudget::cycles(clean.cycles + 1))
        .run(&trace, &res);
    assert_eq!(tight.cycles, clean.cycles);
    assert_eq!(tight.warp_retired, clean.warp_retired);
    let err = demand_gpu(Scheme::ReplayQueue, cfg)
        .budget(RunBudget::cycles(clean.cycles))
        .try_run(&trace, &res)
        .expect_err("a budget of the run's own length ends it on its last cycle");
    assert!(err.is_deadline(), "{err}");
}

#[test]
fn single_sm_harness_honours_cycle_budgets_too() {
    let (trace, _res) = faulting_kernel(2);
    let err = SingleSmHarness::new(Scheme::ReplayQueue)
        .budget(RunBudget::cycles(10))
        .try_run(&trace)
        .expect_err("10 cycles cannot finish anything");
    match err {
        SimError::Deadline(d) => {
            assert_eq!(d.cause, BudgetExceeded::Cycles { deadline: 10 });
            assert_eq!(d.cycle, 10);
        }
        other => panic!("expected a budget abort, got {other:?}"),
    }
    // And an ample budget changes nothing.
    let clean = SingleSmHarness::new(Scheme::ReplayQueue).run(&trace);
    let budgeted = SingleSmHarness::new(Scheme::ReplayQueue)
        .budget(RunBudget::cycles(u64::MAX))
        .run(&trace);
    assert_eq!(budgeted.cycles, clean.cycles);
    assert_eq!(budgeted.sm_stats.committed, clean.sm_stats.committed);
}
