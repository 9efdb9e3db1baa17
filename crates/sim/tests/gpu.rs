//! End-to-end tests of the whole-GPU simulator: demand paging, block
//! switching on fault (use case 1) and GPU-local fault handling (use
//! case 2).

use gex_isa::asm::Asm;
use gex_isa::func::FuncSim;
use gex_isa::kernel::{Dim3, KernelBuilder};
use gex_isa::mem_image::MemImage;
use gex_isa::op::{CmpKind, CmpType};
use gex_isa::reg::{Pred, Reg};
use gex_isa::trace::KernelTrace;
use gex_sim::{
    BlockSwitchConfig, BudgetExceeded, Gpu, GpuConfig, GpuRunReport, Interconnect,
    LocalFaultConfig, PagingMode, Residency, RunBudget, SimError, SingleSmHarness,
};
use gex_sm::Scheme;
use gex_workloads::{suite, Preset};

const IN: u64 = 0x100_0000; // input buffer
const OUT: u64 = 0x800_0000; // output buffer

/// Each block streams its own 64 KB input region, computes on it, and
/// stores to its output region — one migration fault per block, then
/// plenty of compute to overlap with.
fn region_compute_kernel(blocks: u32, compute_iters: u32) -> (KernelTrace, Residency) {
    region_compute_kernel_shared(blocks, compute_iters, 0)
}

/// Like [`region_compute_kernel`] with a declared shared-memory footprint
/// to throttle occupancy (the oversubscribed, low-occupancy shape where
/// block switching pays off).
fn region_compute_kernel_shared(
    blocks: u32,
    compute_iters: u32,
    shared: u32,
) -> (KernelTrace, Residency) {
    let mut a = Asm::new();
    let (tid, bid, addr, v, acc, i, p) =
        (Reg(0), Reg(1), Reg(2), Reg(3), Reg(4), Reg(5), Pred(0));
    a.flat_tid(tid);
    a.flat_ctaid(bid);
    // addr = IN + bid * 64KB + tid * 4
    a.mul(addr, bid, 0x1_0000u64);
    a.add(addr, addr, IN);
    a.shl_imm(v, tid, 2);
    a.add(addr, addr, v);
    a.ld_global_u32(acc, addr, 0);
    // compute loop
    a.mov(i, 0u64);
    a.label("loop");
    a.mad(acc, acc, 5u64, 3u64);
    a.add(i, i, 1u64);
    a.setp(p, CmpKind::Lt, CmpType::U64, i, compute_iters as u64);
    a.bra_if("loop", p, true);
    // store to OUT + bid*64KB + tid*4
    a.mul(v, bid, 0x1_0000u64);
    a.add(v, v, OUT);
    a.shl_imm(i, tid, 2);
    a.add(v, v, i);
    a.st_global_u32(v, acc, 0);
    a.exit();
    let k = KernelBuilder::new("region_compute", a.assemble().unwrap())
        .grid(Dim3::x(blocks))
        .block(Dim3::x(128))
        .regs_per_thread(32)
        .shared_bytes(shared)
        .build()
        .unwrap();
    let mut img = MemImage::new();
    for b in 0..blocks as u64 {
        for t in 0..128u64 {
            img.write_u32(IN + b * 0x1_0000 + t * 4, (b * 1000 + t) as u32);
        }
    }
    let trace = FuncSim::new().run(&k, &mut img).unwrap().trace;
    let res = Residency::new()
        .cpu_dirty(IN, blocks as u64 * 0x1_0000)
        .resident(OUT, blocks as u64 * 0x1_0000);
    (trace, res)
}

/// Every thread stores into a huge unbacked buffer with a block-strided
/// pattern: a first-touch fault storm (use case 2's shape).
fn first_touch_storm_kernel(blocks: u32) -> (KernelTrace, Residency) {
    let mut a = Asm::new();
    let (tid, bid, addr, v) = (Reg(0), Reg(1), Reg(2), Reg(3));
    a.flat_tid(tid);
    a.flat_ctaid(bid);
    a.mul(addr, bid, 0x1_0000u64);
    a.add(addr, addr, OUT);
    a.shl_imm(v, tid, 2);
    a.add(addr, addr, v);
    a.mov(v, 7u64);
    a.st_global_u32(addr, v, 0);
    a.ld_global_u32(v, addr, 0);
    a.st_global_u32(addr, v, 4096); // second page of the region
    a.exit();
    let k = KernelBuilder::new("first_touch", a.assemble().unwrap())
        .grid(Dim3::x(blocks))
        .block(Dim3::x(128))
        .regs_per_thread(16)
        .build()
        .unwrap();
    let mut img = MemImage::new();
    let trace = FuncSim::new().run(&k, &mut img).unwrap().trace;
    let res = Residency::new().lazy(OUT, blocks as u64 * 0x1_0000);
    (trace, res)
}

/// Compute-dense blocks with one migration fault mid-execution: the shape
/// where block switching pays off (paper: sgemm/stencil/histo, Section
/// 5.3). Single-warp blocks, occupancy 2 per SM via shared memory.
fn phase_kernel(blocks: u32, iters: u64) -> (KernelTrace, Residency) {
    fn compute_loop(a: &mut Asm, label: &str, iters: u64) {
        let (acc, i, p) = (Reg(4), Reg(5), Pred(0));
        a.mov(i, 0u64);
        a.label(label);
        for _ in 0..8 {
            a.frsqrt(acc, acc);
        }
        a.add(i, i, 1u64);
        a.setp(p, CmpKind::Lt, CmpType::U64, i, iters);
        a.bra_if(label, p, true);
    }
    let mut a = Asm::new();
    let (tid, bid, addr, v) = (Reg(0), Reg(1), Reg(2), Reg(3));
    a.flat_tid(tid);
    a.flat_ctaid(bid);
    a.mov_f32(Reg(4), 1.5);
    compute_loop(&mut a, "p1", iters);
    a.mul(addr, bid, 0x1_0000u64);
    a.add(addr, addr, IN);
    a.shl_imm(v, tid, 2);
    a.add(addr, addr, v);
    a.ld_global_u32(Reg(6), addr, 0);
    compute_loop(&mut a, "p2", iters);
    a.mul(v, bid, 0x1_0000u64);
    a.add(v, v, OUT);
    a.shl_imm(Reg(7), tid, 2);
    a.add(v, v, Reg(7));
    a.st_global_u32(v, Reg(6), 0);
    a.exit();
    let k = KernelBuilder::new("phase", a.assemble().unwrap())
        .grid(Dim3::x(blocks))
        .block(Dim3::x(32))
        .regs_per_thread(32)
        .shared_bytes(16 * 1024)
        .build()
        .unwrap();
    let mut img = MemImage::new();
    for b in 0..blocks as u64 {
        for t in 0..32u64 {
            img.write_u32(IN + b * 0x1_0000 + t * 4, 1);
        }
    }
    let trace = FuncSim::new().run(&k, &mut img).unwrap().trace;
    let res = Residency::new()
        .cpu_dirty(IN, blocks as u64 * 0x1_0000)
        .resident(OUT, blocks as u64 * 0x1_0000);
    (trace, res)
}

fn gpu(scheme: Scheme, paging: PagingMode, sms: u32) -> Gpu {
    Gpu::new(GpuConfig::kepler_k20().with_sms(sms), scheme, paging)
        .budget(RunBudget::cycles(500_000_000))
}

fn assert_complete(r: &GpuRunReport, t: &KernelTrace) {
    assert_eq!(r.sm.committed, t.dyn_instrs(), "every instruction commits exactly once");
    assert_eq!(r.blocks, t.blocks.len() as u64);
}

#[test]
fn all_resident_runs_to_completion_on_16_sms() {
    let (t, res) = region_compute_kernel(64, 8);
    let r = gpu(Scheme::ReplayQueue, PagingMode::AllResident, 16).run(&t, &res);
    assert_complete(&r, &t);
    assert_eq!(r.sm.faults, 0);
    assert_eq!(r.cpu.resolved(), 0);
}

#[test]
fn a_finished_run_holds_no_block_of_its_trace() {
    // The dispatch queues share the trace's own blocks; once a run is over
    // (switched-out blocks included), the trace is their only owner again.
    let (t, res) = phase_kernel(12, 850);
    let switching = PagingMode::Demand {
        interconnect: Interconnect::nvlink(),
        block_switch: Some(BlockSwitchConfig::default()),
        local_handling: None,
    };
    for paging in [PagingMode::AllResident, switching] {
        let r = gpu(Scheme::ReplayQueue, paging, 4).run(&t, &res);
        assert_complete(&r, &t);
        assert!(t.blocks.iter().all(|b| std::sync::Arc::strong_count(b) == 1));
    }
}

#[test]
fn demand_paging_migrates_and_costs_time() {
    let (t, res) = region_compute_kernel(32, 8);
    let resident = gpu(Scheme::ReplayQueue, PagingMode::AllResident, 16).run(&t, &res);
    let demand = gpu(
        Scheme::ReplayQueue,
        PagingMode::demand(Interconnect::nvlink()),
        16,
    )
    .run(&t, &res);
    assert_complete(&demand, &t);
    assert_eq!(demand.cpu.migrations, 32, "one 64 KB migration per block");
    assert!(
        demand.cycles > resident.cycles + 10_000,
        "migrations must cost time: {} vs {}",
        demand.cycles,
        resident.cycles
    );
}

#[test]
fn stall_on_fault_baseline_supports_demand_paging() {
    // The baseline scheme handles faults as very long TLB misses; execution
    // must still complete with identical work.
    let (t, res) = region_compute_kernel(8, 8);
    let r = gpu(Scheme::Baseline, PagingMode::demand(Interconnect::nvlink()), 4).run(&t, &res);
    assert_complete(&r, &t);
    assert_eq!(r.cpu.migrations, 8);
    assert_eq!(r.sm.faults, 0, "stall mode never notifies the SM");
}

#[test]
fn pcie_migrations_cost_more_than_nvlink() {
    let (t, res) = region_compute_kernel(32, 8);
    let nv = gpu(Scheme::ReplayQueue, PagingMode::demand(Interconnect::nvlink()), 16)
        .run(&t, &res);
    let pcie =
        gpu(Scheme::ReplayQueue, PagingMode::demand(Interconnect::pcie()), 16).run(&t, &res);
    assert!(pcie.cycles > nv.cycles, "PCIe {} vs NVLink {}", pcie.cycles, nv.cycles);
}

#[test]
fn block_switching_hides_migration_latency() {
    // 4 SMs x 2-block occupancy hold 8 blocks, 4 stay pending; each block
    // faults once mid-execution, so the local scheduler can run another
    // block's compute during the migration.
    let (t, res) = phase_kernel(12, 850);
    let ic = Interconnect::nvlink();
    let plain = gpu(Scheme::ReplayQueue, PagingMode::demand(ic), 4).run(&t, &res);
    let switching = gpu(
        Scheme::ReplayQueue,
        PagingMode::Demand {
            interconnect: ic,
            block_switch: Some(BlockSwitchConfig::default()),
            local_handling: None,
        },
        4,
    )
    .run(&t, &res);
    assert_complete(&switching, &t);
    assert!(switching.switches > 0, "the local scheduler must act");
    assert!(
        (switching.cycles as f64) < plain.cycles as f64 * 0.95,
        "switching should hide migration latency: {} vs {}",
        switching.cycles,
        plain.cycles
    );
}

#[test]
fn ideal_switching_completes_with_reordering_effects() {
    let (t, res) = phase_kernel(12, 850);
    let ic = Interconnect::pcie();
    let normal = gpu(
        Scheme::ReplayQueue,
        PagingMode::Demand {
            interconnect: ic,
            block_switch: Some(BlockSwitchConfig::default()),
            local_handling: None,
        },
        4,
    )
    .run(&t, &res);
    let ideal = gpu(
        Scheme::ReplayQueue,
        PagingMode::Demand {
            interconnect: ic,
            block_switch: Some(BlockSwitchConfig::ideal()),
            local_handling: None,
        },
        4,
    )
    .run(&t, &res);
    assert_complete(&ideal, &t);
    assert!(ideal.switches > 0);
    // Ideal (1-cycle) context switching removes the transfer cost but also
    // perturbs the block-to-slot ordering; the paper observes it can even
    // lose to normal switching through tail effects (mri-gridding, Section
    // 5.3). Require it to stay within a sane band of the normal variant.
    let ratio = ideal.cycles as f64 / normal.cycles as f64;
    assert!(
        (0.5..=1.5).contains(&ratio),
        "ideal {} vs normal {} (ratio {ratio:.2})",
        ideal.cycles,
        normal.cycles
    );
}

#[test]
fn local_handling_beats_cpu_on_first_touch_storms() {
    let (t, res) = first_touch_storm_kernel(128);
    let ic = Interconnect::pcie();
    let cpu_handled = gpu(Scheme::ReplayQueue, PagingMode::demand(ic), 16).run(&t, &res);
    let local = gpu(
        Scheme::ReplayQueue,
        PagingMode::Demand {
            interconnect: ic,
            block_switch: None,
            local_handling: Some(LocalFaultConfig::default()),
        },
        16,
    )
    .run(&t, &res);
    assert_complete(&local, &t);
    assert!(local.local.resolved > 0, "local handler must resolve faults");
    assert_eq!(local.cpu.resolved(), 0, "no CPU involvement for first-touch faults");
    assert!(
        local.cycles < cpu_handled.cycles,
        "local handling should win under a fault storm: {} vs {}",
        local.cycles,
        cpu_handled.cycles
    );
    assert!(local.local.peak_concurrency > 1, "handlers must overlap");
}

#[test]
fn more_sms_increase_cpu_handler_contention() {
    // Section 5.5: more SMs -> more concurrent faults -> more contention at
    // the serialized CPU handler. Mean fault latency should grow.
    let (t4, res4) = first_touch_storm_kernel(64);
    let small = gpu(Scheme::ReplayQueue, PagingMode::demand(Interconnect::nvlink()), 4)
        .run(&t4, &res4);
    let big = gpu(Scheme::ReplayQueue, PagingMode::demand(Interconnect::nvlink()), 16)
        .run(&t4, &res4);
    assert!(
        big.cpu.mean_latency() >= small.cpu.mean_latency(),
        "fault latency should not shrink with more concurrent faulters: {} vs {}",
        big.cpu.mean_latency(),
        small.cpu.mean_latency()
    );
}

#[test]
fn reports_are_consistent() {
    let (t, res) = region_compute_kernel(16, 8);
    let r = gpu(Scheme::operand_log_kib(16), PagingMode::demand(Interconnect::nvlink()), 8)
        .run(&t, &res);
    assert_complete(&r, &t);
    assert!(r.ipc() > 0.0);
    assert_eq!(r.kernel, "region_compute");
    // Faults notified to SMs equal squashes, and every region the CPU
    // resolved was a real region of the input.
    assert_eq!(r.sm.faults, r.sm.squashed);
    assert!(r.cpu.resolved() <= 16 + r.local.resolved);
}

#[test]
fn oversubscribed_memory_swaps_and_completes() {
    // Working set of 12 input regions + 12 output regions, but GPU memory
    // that only holds 8 regions: the handler must evict (swap) and the
    // run must still commit everything.
    let (t, res) = region_compute_kernel(12, 32);
    let mut cfg = GpuConfig::kepler_k20().with_sms(4);
    cfg.mem.gpu_mem_bytes = 8 * 64 * 1024;
    let r = Gpu::new(cfg, Scheme::ReplayQueue, PagingMode::demand(Interconnect::nvlink()))
        .budget(RunBudget::cycles(500_000_000))
        .run(&t, &res);
    assert_complete(&r, &t);
    assert!(r.cpu.evictions > 0, "swapping must occur");
    // Evicted-then-retouched regions re-fault: more migrations than the
    // 12 initial input regions.
    assert!(
        r.cpu.migrations >= 12,
        "migrations {} should cover at least the input set",
        r.cpu.migrations
    );

    // The same run with ample memory is faster and never evicts.
    let ample = Gpu::new(
        GpuConfig::kepler_k20().with_sms(4),
        Scheme::ReplayQueue,
        PagingMode::demand(Interconnect::nvlink()),
    )
    .run(&t, &res);
    assert_eq!(ample.cpu.evictions, 0);
    assert!(ample.cycles <= r.cycles);
}

/// The single-SM harness is a one-SM `Gpu` run: same `SmStats` and
/// `MemStats`, and exactly one cycle shorter, because the harness fills
/// the SM before its first cycle while the engine dispatches at the end
/// of each cycle, so a plain run's cycle 0 is always empty.
#[test]
fn single_sm_harness_is_a_one_sm_gpu() {
    let schemes = [
        Scheme::Baseline,
        Scheme::WdCommit,
        Scheme::WdLastCheck,
        Scheme::ReplayQueue,
        Scheme::OperandLog { bytes: 8192 },
    ];
    for name in ["lbm", "sgemm", "mri-gridding"] {
        let w = suite::by_name(name, Preset::Test).expect("known benchmark");
        for scheme in schemes {
            let h = SingleSmHarness::new(scheme).run(&w.trace);
            let g = Gpu::new(GpuConfig::kepler_k20().with_sms(1), scheme, PagingMode::AllResident)
                .run(&w.trace, &Residency::new());
            assert_eq!(h.cycles + 1, g.cycles, "{name} {scheme}");
            assert_eq!(h.sm_stats, g.sm, "{name} {scheme}");
            assert_eq!(h.mem_stats, g.mem, "{name} {scheme}");
        }
    }
    // Its aborts are the engine's typed errors.
    let lbm = suite::by_name("lbm", Preset::Test).expect("known benchmark");
    let err = SingleSmHarness::new(Scheme::Baseline)
        .budget(RunBudget::cycles(1_000))
        .try_run(&lbm.trace)
        .expect_err("lbm cannot finish in 1 000 cycles");
    assert!(
        matches!(&err, SimError::Deadline(d) if d.cause == BudgetExceeded::Cycles { deadline: 1_000 }),
        "{err:?}"
    );
}
