//! Tests for the arithmetic-exception extension (Sections 3.1/3.2: the
//! preemptible schemes apply to exceptions like divide-by-zero too).

use gex_isa::asm::Asm;
use gex_isa::func::FuncSim;
use gex_isa::kernel::{Dim3, KernelBuilder};
use gex_isa::mem_image::MemImage;
use gex_isa::reg::Reg;
use gex_isa::trace::KernelTrace;
use gex_sim::SingleSmHarness;
use gex_sm::Scheme;

/// Every thread divides by (tid % 2): half the lanes divide by zero, so
/// every div instruction traps on some lane.
fn div_kernel(divide_by_zero: bool) -> KernelTrace {
    let mut a = Asm::new();
    let (i, d, q) = (Reg(0), Reg(1), Reg(2));
    a.gtid(i);
    if divide_by_zero {
        a.and(d, i, 1u64);
    } else {
        a.mov(d, 2u64);
    }
    for _ in 0..4 {
        a.div(q, i, d);
        a.add(i, i, 1u64);
    }
    a.mov(d, 0x10_0000u64);
    a.st_global_u64(d, q, 0);
    a.exit();
    let k = KernelBuilder::new("div", a.assemble().unwrap())
        .grid(Dim3::x(2))
        .block(Dim3::x(64))
        .build()
        .unwrap();
    let mut img = MemImage::new();
    let run = FuncSim::new().run(&k, &mut img).unwrap();
    if divide_by_zero {
        assert!(run.stats.arithmetic_exceptions > 0, "functional sim must flag the traps");
    } else {
        assert_eq!(run.stats.arithmetic_exceptions, 0);
    }
    run.trace
}

#[test]
fn traps_squash_and_replay_under_preemptible_schemes() {
    let t = div_kernel(true);
    for scheme in [Scheme::WdCommit, Scheme::ReplayQueue, Scheme::operand_log_kib(16)] {
        let run = SingleSmHarness::new(scheme).run(&t);
        assert_eq!(run.sm_stats.committed, t.dyn_instrs(), "{scheme}");
        assert!(run.sm_stats.traps > 0, "{scheme}: traps must be taken");
        assert!(
            run.sm_stats.issued > run.sm_stats.committed,
            "{scheme}: trapped instructions replay"
        );
    }
}

#[test]
fn traps_cost_handler_time() {
    let clean = div_kernel(false);
    let trapping = div_kernel(true);
    let fast = SingleSmHarness::new(Scheme::ReplayQueue).run(&clean);
    let slow = SingleSmHarness::new(Scheme::ReplayQueue).run(&trapping);
    // 4 traps per warp x 500-cycle handler, partially overlapped.
    assert!(
        slow.cycles > fast.cycles + 500,
        "handler latency must show: {} vs {}",
        slow.cycles,
        fast.cycles
    );
}

#[test]
fn baseline_reports_but_does_not_preempt() {
    // The stall-on-fault baseline cannot preempt: the trapping instruction
    // commits (current GPUs would terminate the process; Section 2.2).
    let t = div_kernel(true);
    let run = SingleSmHarness::new(Scheme::Baseline).run(&t);
    assert_eq!(run.sm_stats.committed, t.dyn_instrs());
    assert_eq!(run.sm_stats.traps, 0, "baseline takes no preemptible traps");
    assert_eq!(run.sm_stats.issued, run.sm_stats.committed);
}

#[test]
fn trapped_warp_survives_a_context_switch() {
    use gex_isa::trace::KernelTrace;
    use gex_mem::system::{FaultMode, MemSystem};
    use gex_mem::{MemConfig, PageState};
    use gex_sm::sm::KernelSetup;
    use gex_sm::{Sm, SmConfig, WarpState};

    let t: KernelTrace = div_kernel(true);
    let mut mem = MemSystem::new(MemConfig::kepler_k20().with_sms(1), FaultMode::SquashNotify);
    for &page in t.touched_pages() {
        mem.page_table.set_range(page, 1, PageState::Present);
    }
    let cfg = SmConfig::kepler_k20();
    let mut sm = Sm::new(0, cfg.clone(), gex_sm::Scheme::ReplayQueue);
    sm.configure_kernel(KernelSetup {
        warps_per_block: t.warps_per_block,
        regs_per_thread: t.regs_per_thread,
        shared_bytes: t.shared_bytes,
        occupancy_blocks: 4,
    });
    let slot = sm.assign_block(t.blocks[0].clone());
    // Run until some warp traps, then switch the block out mid-handler.
    let mut now = 0u64;
    while sm.stats().traps == 0 {
        mem.tick(now);
        sm.tick(now, &mut mem);
        now += 1;
        assert!(now < 100_000, "no trap ever fired");
    }
    sm.begin_drain(slot);
    while !sm.drained(slot) {
        mem.tick(now);
        sm.tick(now, &mut mem);
        now += 1;
        assert!(now < 200_000, "drain hung");
    }
    let saved = sm.take_block(slot);
    now += 1000; // off-chip dead time (longer than the handler)
    sm.restore_block(saved);
    while !sm.is_empty() {
        mem.tick(now);
        sm.tick(now, &mut mem);
        now += 1;
        assert!(now < 1_000_000, "restored block hung");
    }
    let stats = sm.stats();
    assert_eq!(stats.committed, t.blocks[0].dyn_instrs());
    assert!(stats.traps > 0);
    // No warp may be left in the Trapped state machinery after completion.
    let _ = WarpState::Trapped;
}
