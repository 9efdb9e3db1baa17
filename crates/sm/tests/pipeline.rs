//! Integration tests for the SM pipeline and the five exception designs,
//! including the inter-instruction orderings of the paper's Figures 3-7.

use gex_isa::asm::Asm;
use gex_isa::func::FuncSim;
use gex_isa::kernel::{Dim3, KernelBuilder};
use gex_isa::mem_image::MemImage;
use gex_isa::reg::Reg;
use gex_isa::trace::KernelTrace;
use gex_mem::system::{FaultMode, MemSystem};
use gex_mem::{Cycle, MemConfig, PageState};
use gex_sm::sm::KernelSetup;
use gex_sim::SingleSmHarness;
use gex_sm::{ProbeStage, Scheme, Sm, SmConfig};

const BUF: u64 = 0x10_0000;

fn trace_of(a: Asm, grid: u32, block: u32, params: Vec<u64>, regs: u32) -> KernelTrace {
    let k = KernelBuilder::new("t", a.assemble().unwrap())
        .grid(Dim3::x(grid))
        .block(Dim3::x(block))
        .regs_per_thread(regs)
        .params(params)
        .build()
        .unwrap();
    let mut mem = MemImage::new();
    // Pre-touch input so loads read real pages.
    for i in 0..(1 << 16) {
        mem.write_u32(BUF + i * 4, i as u32);
    }
    FuncSim::new().run(&k, &mut mem).unwrap().trace
}

/// A streaming kernel: each thread loads, computes, stores.
fn streaming_kernel(grid: u32, block: u32) -> KernelTrace {
    let mut a = Asm::new();
    let (i, addr, v) = (Reg(0), Reg(1), Reg(2));
    a.gtid(i);
    a.shl_imm(addr, i, 2);
    a.add(addr, addr, BUF);
    a.ld_global_u32(v, addr, 0);
    a.mad(v, v, 3u64, 7u64);
    a.st_global_u32(addr, v, 0);
    a.exit();
    trace_of(a, grid, block, vec![], 16)
}

/// ALU-only kernel: schemes must behave identically (no global memory).
fn alu_kernel() -> KernelTrace {
    let mut a = Asm::new();
    a.mov(Reg(0), 1u64);
    for _ in 0..20 {
        a.mad(Reg(0), Reg(0), 3u64, 1u64);
    }
    a.exit();
    trace_of(a, 2, 64, vec![], 16)
}

#[test]
fn alu_kernel_identical_across_schemes() {
    let t = alu_kernel();
    let cycles: Vec<u64> = Scheme::all()
        .into_iter()
        .map(|s| SingleSmHarness::new(s).run(&t).cycles)
        .collect();
    for (i, c) in cycles.iter().enumerate() {
        assert_eq!(*c, cycles[0], "scheme {i} diverged on ALU-only code: {cycles:?}");
    }
    let run = SingleSmHarness::new(Scheme::Baseline).run(&t);
    assert_eq!(run.sm_stats.committed, t.dyn_instrs());
}

#[test]
fn streaming_kernel_completes_on_all_schemes() {
    let t = streaming_kernel(4, 128);
    for s in Scheme::all() {
        let run = SingleSmHarness::new(s).run(&t);
        assert_eq!(run.sm_stats.committed, t.dyn_instrs(), "scheme {s}");
        assert_eq!(run.sm_stats.faults, 0, "no faults expected under {s}");
        assert!(run.mem_stats.accesses > 0);
    }
}

/// A kernel with heavy WAR pressure on address registers and few warps —
/// the `lbm`-style situation where the schemes separate.
fn war_pressure_kernel() -> KernelTrace {
    let mut a = Asm::new();
    let (i, addr, acc) = (Reg(0), Reg(1), Reg(2));
    a.gtid(i);
    a.shl_imm(addr, i, 2);
    a.add(addr, addr, BUF);
    a.mov(acc, 0u64);
    for k in 0..16 {
        let v = Reg(3 + (k % 4) as u8);
        a.ld_global_u32(v, addr, 0);
        a.add(acc, acc, v);
        // WAR: rewrite the address register the load just used.
        a.add(addr, addr, 128u64);
    }
    a.st_global_u32(addr, acc, 0);
    a.exit();
    trace_of(a, 1, 32, vec![], 64)
}

#[test]
fn scheme_performance_ordering_matches_paper() {
    let t = war_pressure_kernel();
    let base = SingleSmHarness::new(Scheme::Baseline).run(&t).cycles;
    let ol = SingleSmHarness::new(Scheme::operand_log_kib(16)).run(&t).cycles;
    let rq = SingleSmHarness::new(Scheme::ReplayQueue).run(&t).cycles;
    let wdl = SingleSmHarness::new(Scheme::WdLastCheck).run(&t).cycles;
    let wdc = SingleSmHarness::new(Scheme::WdCommit).run(&t).cycles;
    // Figure 10/11 ordering: baseline <= operand log <= replay queue <=
    // wd-lastcheck <= wd-commit (more constraints, more cycles).
    assert!(base <= ol, "baseline {base} vs operand log {ol}");
    assert!(ol <= rq, "operand log {ol} vs replay queue {rq}");
    assert!(rq <= wdl, "replay queue {rq} vs wd-lastcheck {wdl}");
    assert!(wdl <= wdc, "wd-lastcheck {wdl} vs wd-commit {wdc}");
    // And the ends must actually separate on this kernel.
    assert!(wdc > base, "warp disable should cost cycles on a low-TLP kernel");
}

/// The paper's running example (Figure 3):
///   A: R3 <- ld [R2]
///   B: R9 <- sub R9, 4
///   C: R8 <- ld [R4]
///   D: R4 <- add R7, 8
fn figure3_kernel() -> (KernelTrace, [usize; 4]) {
    let mut a = Asm::new();
    a.mov(Reg(2), BUF); // idx 0
    a.mov(Reg(4), BUF + 128); // idx 1
    a.mov(Reg(7), BUF); // idx 2
    a.mov(Reg(9), 64u64); // idx 3
    a.ld_global_u32(Reg(3), Reg(2), 0); // idx 4 = A
    a.sub(Reg(9), Reg(9), 4u64); // idx 5 = B
    a.ld_global_u32(Reg(8), Reg(4), 0); // idx 6 = C
    a.add(Reg(4), Reg(7), 8u64); // idx 7 = D
    a.exit();
    (trace_of(a, 1, 32, vec![], 16), [4, 5, 6, 7])
}

fn stage_cycle(run: &gex_sim::SingleSmRun, idx: usize, stage: ProbeStage) -> Cycle {
    run.probe
        .iter()
        .find(|e| e.idx == idx && e.stage == stage)
        .unwrap_or_else(|| panic!("no {stage:?} for idx {idx}"))
        .cycle
}

#[test]
fn figure3_baseline_d_issues_before_loads_complete() {
    let (t, [a, b, c, d]) = figure3_kernel();
    let run = SingleSmHarness::new(Scheme::Baseline).probe().run(&t);
    // B and D commit while the loads are still in flight (out-of-order
    // commit), and D issues right after C's operand read releases R4.
    assert!(stage_cycle(&run, b, ProbeStage::Commit) < stage_cycle(&run, a, ProbeStage::Commit));
    assert!(stage_cycle(&run, d, ProbeStage::Commit) < stage_cycle(&run, c, ProbeStage::Commit));
    assert!(
        stage_cycle(&run, d, ProbeStage::Issue) < stage_cycle(&run, c, ProbeStage::LastCheck),
        "baseline releases C's sources at operand read, before the TLB check"
    );
}

#[test]
fn figure4_warp_disable_serializes_around_loads() {
    let (t, [a, b, c, _d]) = figure3_kernel();
    let run = SingleSmHarness::new(Scheme::WdCommit).probe().run(&t);
    // B cannot issue until A (the fetched global load) commits.
    assert!(
        stage_cycle(&run, b, ProbeStage::Issue) > stage_cycle(&run, a, ProbeStage::Commit),
        "warp disable keeps younger instructions out of the pipeline"
    );
    // B and C may dual-issue in the same cycle once fetch re-enables.
    assert!(stage_cycle(&run, c, ProbeStage::Issue) >= stage_cycle(&run, b, ProbeStage::Issue));

    // WD-lastcheck re-enables earlier: B issues after A's last TLB check
    // but may precede A's commit.
    let run2 = SingleSmHarness::new(Scheme::WdLastCheck).probe().run(&t);
    assert!(
        stage_cycle(&run2, b, ProbeStage::Issue) > stage_cycle(&run2, a, ProbeStage::LastCheck)
    );
    assert!(
        stage_cycle(&run2, b, ProbeStage::Issue) < stage_cycle(&run2, a, ProbeStage::Commit),
        "wd-lastcheck must beat wd-commit's re-enable point"
    );
}

#[test]
fn figure6_replay_queue_delays_war_writer() {
    let (t, [_a, b, c, d]) = figure3_kernel();
    let run = SingleSmHarness::new(Scheme::ReplayQueue).probe().run(&t);
    // B issues back-to-back (no barrier semantics)...
    assert!(stage_cycle(&run, b, ProbeStage::Commit) < stage_cycle(&run, c, ProbeStage::Commit));
    // ...but D (writes R4, a source of in-flight load C) waits for C's
    // last TLB check.
    assert!(
        stage_cycle(&run, d, ProbeStage::Issue) >= stage_cycle(&run, c, ProbeStage::LastCheck),
        "replay queue releases global-memory sources only after the last TLB check"
    );
}

#[test]
fn figure7_operand_log_restores_baseline_issue() {
    let (t, [_a, _b, c, d]) = figure3_kernel();
    let run = SingleSmHarness::new(Scheme::operand_log_kib(16)).probe().run(&t);
    // With the log, D issues before C's last TLB check, like the baseline.
    assert!(
        stage_cycle(&run, d, ProbeStage::Issue) < stage_cycle(&run, c, ProbeStage::LastCheck),
        "operand log re-enables early source release"
    );
    let base = SingleSmHarness::new(Scheme::Baseline).run(&t);
    assert_eq!(run.cycles, base.cycles, "sufficient log reaches baseline performance");
}

// ---------------------------------------------------------------- faults

/// Drive one SM by hand against a memory system with unmapped pages,
/// resolving faults as they appear. Returns (cycles, stats).
fn run_with_faults(scheme: Scheme, t: &KernelTrace) -> (u64, gex_sm::SmStats) {
    let mut mem = MemSystem::new(MemConfig::kepler_k20().with_sms(1), FaultMode::SquashNotify);
    // Input pages present; everything else first-touch.
    mem.page_table.set_range(BUF, 1 << 20, PageState::Present);
    mem.page_table.add_lazy_range(0x4000_0000, 1 << 20);
    let cfg = SmConfig::kepler_k20();
    let mut sm = Sm::new(0, cfg.clone(), scheme);
    sm.configure_kernel(KernelSetup::for_trace(&cfg, t));
    let mut pending = t.blocks.clone();
    pending.reverse();
    let mut now = 0u64;
    // Faults resolve after a fixed 2000-cycle handler latency.
    let mut resolutions: Vec<(u64, u64)> = Vec::new();
    loop {
        while sm.free_slot().is_some() && !pending.is_empty() {
            sm.assign_block(pending.pop().unwrap());
        }
        mem.tick(now);
        sm.tick(now, &mut mem);
        sm.drain_fault_notices(&mut Vec::new());
        while let Some(e) = mem.fault_queue.pop() {
            resolutions.push((now + 2000, e.region));
        }
        resolutions.retain(|&(when, region)| {
            if when <= now {
                mem.resolve_region(region, now);
                sm.on_region_resolved(region);
                false
            } else {
                true
            }
        });
        if sm.is_empty() && pending.is_empty() {
            break;
        }
        now += 1;
        assert!(now < 10_000_000, "fault run did not converge");
    }
    (now, sm.stats())
}

/// Kernel storing to an unbacked (lazy) output buffer: every first store to
/// a region faults.
fn lazy_store_kernel(grid: u32, block: u32) -> KernelTrace {
    let mut a = Asm::new();
    let (i, addr, v) = (Reg(0), Reg(1), Reg(2));
    a.gtid(i);
    a.shl_imm(addr, i, 2);
    a.add(addr, addr, 0x4000_0000u64);
    a.mov(v, 42u64);
    a.st_global_u32(addr, v, 0);
    a.ld_global_u32(v, addr, 0);
    a.exit();
    trace_of(a, grid, block, vec![], 16)
}

#[test]
fn fault_squash_replay_completes() {
    for scheme in [Scheme::WdCommit, Scheme::ReplayQueue, Scheme::operand_log_kib(16)] {
        let t = lazy_store_kernel(2, 64);
        let (_cycles, stats) = run_with_faults(scheme, &t);
        assert_eq!(stats.committed, t.dyn_instrs(), "{scheme}: sparse replay must not re-commit");
        assert!(stats.faults > 0, "{scheme}: expected at least one fault");
        assert_eq!(stats.squashed, stats.faults);
        // Replayed instructions are issued twice (or more).
        assert!(stats.issued > stats.committed, "{scheme}");
    }
}

#[test]
fn faults_inflate_runtime_vs_prefaulted() {
    let t = lazy_store_kernel(2, 64);
    let (faulting, _) = run_with_faults(Scheme::ReplayQueue, &t);
    let clean = SingleSmHarness::new(Scheme::ReplayQueue).run(&t).cycles;
    assert!(
        faulting > clean + 1000,
        "fault handling latency must show up: {faulting} vs {clean}"
    );
}

// ------------------------------------------------------ context switching

#[test]
fn context_switch_roundtrip_preserves_progress() {
    let t = streaming_kernel(1, 128);
    let mut mem = MemSystem::new(MemConfig::kepler_k20().with_sms(1), FaultMode::SquashNotify);
    for &page in t.touched_pages() {
        mem.page_table.set_range(page, 1, PageState::Present);
    }
    let cfg = SmConfig::kepler_k20();
    let mut sm = Sm::new(0, cfg.clone(), Scheme::ReplayQueue);
    sm.configure_kernel(KernelSetup {
        warps_per_block: t.warps_per_block,
        regs_per_thread: t.regs_per_thread,
        shared_bytes: t.shared_bytes,
        occupancy_blocks: 4,
    });
    let slot = sm.assign_block(t.blocks[0].clone());
    let mut now = 0u64;
    // Run a little, then drain and switch out.
    for _ in 0..30 {
        mem.tick(now);
        sm.tick(now, &mut mem);
        now += 1;
    }
    sm.begin_drain(slot);
    while !sm.drained(slot) {
        mem.tick(now);
        sm.tick(now, &mut mem);
        now += 1;
        assert!(now < 100_000, "drain did not converge");
    }
    let committed_before = sm.stats().committed;
    let saved = sm.take_block(slot);
    assert!(saved.context_bytes() > 0);
    assert!(!saved.has_pending_fault());

    // Dead time while "switched out"...
    now += 500;
    let _slot2 = sm.restore_block(saved);
    while !sm.is_empty() {
        mem.tick(now);
        sm.tick(now, &mut mem);
        now += 1;
        assert!(now < 1_000_000, "restored block did not finish");
    }
    let stats = sm.stats();
    assert_eq!(stats.committed, t.blocks[0].dyn_instrs());
    assert!(stats.committed > committed_before);
    assert_eq!(stats.blocks_switched_out, 1);
    assert_eq!(stats.blocks_restored, 1);
    assert_eq!(stats.blocks_completed, 1);
}

// ------------------------------------------------------------- miscellany

#[test]
fn barrier_kernel_completes() {
    let mut a = Asm::new();
    let (i, addr, v) = (Reg(0), Reg(1), Reg(2));
    a.flat_tid(i);
    a.shl_imm(addr, i, 2);
    a.st_shared_u32(addr, i, 0);
    a.bar();
    a.ld_shared_u32(v, addr, 0);
    a.bar();
    a.exit();
    let k = KernelBuilder::new("t", a.assemble().unwrap())
        .grid(Dim3::x(2))
        .block(Dim3::x(128))
        .shared_bytes(512)
        .build()
        .unwrap();
    let mut img = MemImage::new();
    let t = FuncSim::new().run(&k, &mut img).unwrap().trace;
    for s in Scheme::all() {
        let run = SingleSmHarness::new(s).run(&t);
        assert_eq!(run.sm_stats.committed, t.dyn_instrs(), "{s}");
        assert!(run.sm_stats.barriers >= 2, "{s}: barriers must release");
    }
}

#[test]
fn tiny_operand_log_serializes_memory_instructions() {
    let t = streaming_kernel(1, 256); // 8 warps, 1 block
    let big = SingleSmHarness::new(Scheme::operand_log_kib(32)).run(&t);
    let tiny = SingleSmHarness::new(Scheme::OperandLog { bytes: 512 }).run(&t);
    assert!(
        tiny.cycles > big.cycles,
        "512B log ({}) must be slower than 32KB ({})",
        tiny.cycles,
        big.cycles
    );
    assert!(tiny.sm_stats.stall_log > 0, "log-full stalls should be recorded");
}

/// A single warp issuing many *independent* loads: the baseline exploits
/// memory-level parallelism that warp disable destroys.
fn mlp_kernel(warps_per_block: u32, blocks: u32) -> KernelTrace {
    let mut a = Asm::new();
    let (i, addr, acc) = (Reg(0), Reg(1), Reg(2));
    a.gtid(i);
    a.shr_imm(addr, i, 5); // warp id
    a.shl_imm(addr, addr, 11); // 16 lines of 128B per warp
    a.add(addr, addr, BUF);
    for k in 0..16u8 {
        a.ld_global_u32(Reg(4 + k), addr, (k as i64) * 128);
    }
    a.mov(acc, 0u64);
    for k in 0..16u8 {
        a.add(acc, acc, Reg(4 + k));
    }
    a.st_global_u32(addr, acc, 0);
    a.exit();
    trace_of(a, blocks, warps_per_block * 32, vec![], 32)
}

#[test]
fn more_warps_hide_scheme_overhead() {
    // The paper: TLP-rich kernels barely notice the schemes; low-occupancy
    // kernels with memory-level parallelism get hit hardest by warp
    // disable.
    let rich = mlp_kernel(8, 8);
    let base = SingleSmHarness::new(Scheme::Baseline).run(&rich).cycles as f64;
    let wd = SingleSmHarness::new(Scheme::WdCommit).run(&rich).cycles as f64;
    let rel_rich = base / wd;

    let poor = mlp_kernel(1, 1);
    let base_p = SingleSmHarness::new(Scheme::Baseline).run(&poor).cycles as f64;
    let wd_p = SingleSmHarness::new(Scheme::WdCommit).run(&poor).cycles as f64;
    let rel_poor = base_p / wd_p;
    assert!(
        rel_rich > rel_poor + 0.1,
        "TLP should hide warp-disable cost: rich {rel_rich:.3} vs poor {rel_poor:.3}"
    );
    assert!(rel_poor < 0.5, "a lone warp's MLP should collapse under WD: {rel_poor:.3}");
}

#[test]
fn scheduler_policies_both_complete_and_differ() {
    use gex_sm::config::SchedulerPolicy;
    let t = streaming_kernel(2, 256);
    let mut gto_cfg = SmConfig::kepler_k20();
    gto_cfg.scheduler = SchedulerPolicy::GreedyThenOldest;
    let lrr = SingleSmHarness::new(Scheme::Baseline).run(&t);
    let gto = SingleSmHarness::new(Scheme::Baseline).sm_config(gto_cfg).run(&t);
    assert_eq!(lrr.sm_stats.committed, t.dyn_instrs());
    assert_eq!(gto.sm_stats.committed, t.dyn_instrs());
    // Policies genuinely change the schedule (cycle counts may go either
    // way, but must stay in the same ballpark).
    let ratio = gto.cycles as f64 / lrr.cycles as f64;
    assert!((0.5..=2.0).contains(&ratio), "GTO {} vs LRR {}", gto.cycles, lrr.cycles);
}
