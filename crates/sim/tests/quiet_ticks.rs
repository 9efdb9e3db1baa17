//! Pinned quiet-tick digest: a Test-preset 4-SM grid, every run folded
//! into one FNV-1a digest of its full report (cycles, `SmStats`,
//! `MemStats`, per-warp retirement and the handler counters).
//!
//! An SM tick that issues nothing, fetches nothing and raises no error is
//! replayed from a record until the SM's next event instead of being
//! simulated again (see "Quiet ticks" in `gex_sm::sm`). Debug builds run
//! every such tick in full and assert the replay would match; release
//! builds replay, and this test pins what they produce to values recorded
//! by running the same body on the simulator before the replay existed.
//!
//! The grid covers each way a record expires or is cleared: the three
//! benchmark traces under every scheme and both warp schedulers, trap
//! handlers (internal `TrapDone` events), barriers, block switching
//! (drain, save, restore), demand paging under chaos injection with CPU
//! and GPU-local fault handling (region broadcasts), a two-tenant
//! quarantine run, and the single-SM harness with its probe on.

use gex_isa::asm::Asm;
use gex_isa::func::FuncSim;
use gex_isa::kernel::{Dim3, KernelBuilder};
use gex_isa::mem_image::MemImage;
use gex_isa::op::{CmpKind, CmpType};
use gex_isa::reg::{Pred, Reg};
use gex_isa::trace::KernelTrace;
use gex_sim::{
    BlockSwitchConfig, Gpu, GpuConfig, GpuRunReport, InjectionPlan, Interconnect,
    LocalFaultConfig, PagingMode, PartitionPolicy, Residency, RunBudget, SingleSmHarness,
    TenantId, TenantWorkload,
};
use gex_sm::config::SchedulerPolicy;
use gex_sm::Scheme;
use gex_workloads::{suite, Preset};

const SMS: u32 = 4;
const IN: u64 = 0x100_0000;
const OUT: u64 = 0x800_0000;
const CHAOS_SEED: u64 = 7;

/// The five schemes of the figures plus the 16 KB operand log.
const SCHEMES: [Scheme; 6] = [
    Scheme::Baseline,
    Scheme::WdCommit,
    Scheme::WdLastCheck,
    Scheme::ReplayQueue,
    Scheme::OperandLog { bytes: 8192 },
    Scheme::OperandLog { bytes: 16384 },
];

struct Fnv(u64);

impl Fnv {
    fn fold(&mut self, s: &str) {
        for b in s.bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn report(&mut self, label: &str, r: &GpuRunReport) {
        self.fold(&format!("{label} {r:?}\n"));
    }
}

fn gpu(scheme: Scheme, paging: PagingMode) -> Gpu {
    Gpu::new(GpuConfig::kepler_k20().with_sms(SMS), scheme, paging)
        .budget(RunBudget::cycles(500_000_000))
}

fn kernel_trace(k: gex_isa::kernel::Kernel, mut img: MemImage) -> KernelTrace {
    FuncSim::new().run(&k, &mut img).unwrap().trace
}

/// Half the lanes divide by zero, so every `div` traps under the
/// preemptible schemes and the warp waits out the handler.
fn trap_kernel() -> KernelTrace {
    let mut a = Asm::new();
    let (i, d, q, addr) = (Reg(0), Reg(1), Reg(2), Reg(3));
    a.gtid(i);
    a.and(d, i, 1u64);
    for _ in 0..4 {
        a.div(q, i, d);
        a.add(i, i, 1u64);
    }
    a.gtid(i);
    a.shl_imm(addr, i, 3);
    a.add(addr, addr, OUT);
    a.st_global_u64(addr, q, 0);
    a.exit();
    let k = KernelBuilder::new("trap", a.assemble().unwrap())
        .grid(Dim3::x(8))
        .block(Dim3::x(64))
        .build()
        .unwrap();
    kernel_trace(k, MemImage::new())
}

/// Warp `w` of a block spins `20 w` iterations, then the block meets at a
/// barrier, swaps values through shared memory and meets again: barrier
/// waits of uneven length.
fn barrier_kernel() -> KernelTrace {
    let mut a = Asm::new();
    let (tid, w, i, acc, addr, p) = (Reg(0), Reg(1), Reg(2), Reg(3), Reg(4), Pred(0));
    a.flat_tid(tid);
    a.shr_imm(w, tid, 5);
    a.mul(w, w, 20u64);
    a.mov(acc, 1u64);
    a.mov(i, 0u64);
    a.label("spin");
    a.mad(acc, acc, 3u64, 1u64);
    a.add(i, i, 1u64);
    a.setp(p, CmpKind::Lt, CmpType::U64, i, w);
    a.bra_if("spin", p, true);
    a.shl_imm(addr, tid, 2);
    a.st_shared_u32(addr, acc, 0);
    a.bar();
    a.xor(addr, addr, 4u64);
    a.ld_shared_u32(acc, addr, 0);
    a.bar();
    a.gtid(tid);
    a.shl_imm(addr, tid, 2);
    a.add(addr, addr, OUT);
    a.st_global_u32(addr, acc, 0);
    a.exit();
    let k = KernelBuilder::new("barrier", a.assemble().unwrap())
        .grid(Dim3::x(8))
        .block(Dim3::x(256))
        .regs_per_thread(16)
        .shared_bytes(1024)
        .build()
        .unwrap();
    kernel_trace(k, MemImage::new())
}

/// Compute-dense single-warp blocks with one migration fault between two
/// compute phases, two blocks per SM: the configuration of the two
/// block-switching tests in `gpu.rs`.
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
    let res = Residency::new()
        .cpu_dirty(IN, blocks as u64 * 0x1_0000)
        .resident(OUT, blocks as u64 * 0x1_0000);
    (kernel_trace(k, img), res)
}

fn quiet_tick_grid() -> u64 {
    let mut d = Fnv(0xcbf2_9ce4_8422_2325);

    // The benchmark's three traces, every scheme, both warp schedulers.
    for name in ["lbm", "sgemm", "mri-gridding"] {
        let w = suite::by_name(name, Preset::Test).unwrap();
        for scheme in SCHEMES {
            for policy in [SchedulerPolicy::LooseRoundRobin, SchedulerPolicy::GreedyThenOldest] {
                let mut cfg = GpuConfig::kepler_k20().with_sms(SMS);
                cfg.sm.scheduler = policy;
                let r = Gpu::new(cfg, scheme, PagingMode::AllResident)
                    .run(&w.trace, &Residency::new());
                d.report(&format!("{name} {scheme} {policy:?}"), &r);
            }
        }
        // The single-SM harness, probe on: every stage transition's cycle.
        for scheme in SCHEMES {
            let run = SingleSmHarness::new(scheme).probe().try_run(&w.trace).unwrap();
            d.fold(&format!(
                "harness {name} {scheme} {} {:?} {:?} {:?}\n",
                run.cycles, run.sm_stats, run.mem_stats, run.probe
            ));
        }
    }

    let traps = trap_kernel();
    for scheme in [Scheme::WdCommit, Scheme::ReplayQueue, Scheme::OperandLog { bytes: 16384 }] {
        let r = gpu(scheme, PagingMode::AllResident).run(&traps, &Residency::new());
        assert!(r.sm.traps > 0, "{scheme}: the trap handler must run");
        d.report(&format!("trap {scheme}"), &r);
    }

    let barrier = barrier_kernel();
    for scheme in SCHEMES {
        let r = gpu(scheme, PagingMode::AllResident).run(&barrier, &Residency::new());
        assert!(r.sm.barriers > 0, "{scheme}: barriers must release");
        d.report(&format!("barrier {scheme}"), &r);
    }

    let (phase, phase_res) = phase_kernel(12, 850);
    for (ic, switch) in [
        (Interconnect::nvlink(), BlockSwitchConfig::default()),
        (Interconnect::pcie(), BlockSwitchConfig::ideal()),
    ] {
        let paging = PagingMode::Demand {
            interconnect: ic,
            block_switch: Some(switch),
            local_handling: None,
        };
        let r = gpu(Scheme::ReplayQueue, paging).run(&phase, &phase_res);
        assert!(r.switches > 0, "the local scheduler must switch blocks");
        d.report(&format!("switch {ic:?} {switch:?}"), &r);
    }

    // Demand paging under chaos injection: CPU handling of every fault,
    // then GPU-local handling of the first touches.
    let histo = suite::by_name("histo", Preset::Test).unwrap();
    for scheme in [Scheme::Baseline, Scheme::WdCommit, Scheme::OperandLog { bytes: 16384 }] {
        let r = gpu(scheme, PagingMode::demand(Interconnect::pcie()))
            .inject(InjectionPlan::chaos(CHAOS_SEED))
            .run(&histo.trace, &histo.demand_residency());
        assert!(r.mem.faulted_requests > 0, "{scheme}: demand paging must fault");
        d.report(&format!("chaos cpu {scheme}"), &r);
    }
    for scheme in [Scheme::WdLastCheck, Scheme::ReplayQueue] {
        let paging = PagingMode::Demand {
            interconnect: Interconnect::nvlink(),
            block_switch: None,
            local_handling: Some(LocalFaultConfig::default()),
        };
        let r = gpu(scheme, paging)
            .inject(InjectionPlan::chaos(CHAOS_SEED))
            .run(&histo.trace, &histo.outputs_lazy_residency());
        assert!(r.local.resolved > 0, "{scheme}: the GPU-local handler must resolve faults");
        d.report(&format!("chaos local {scheme}"), &r);
    }

    // Two tenants: a victim, and a chaos neighbor locked out once its
    // fault budget is spent.
    let lbm = suite::by_name("lbm", Preset::Test).unwrap();
    let tenants = [
        TenantWorkload::new(TenantId::new("victim"), histo.trace.clone(), histo.demand_residency()),
        TenantWorkload::new(TenantId::new("chaos"), lbm.trace.clone(), lbm.demand_residency())
            .inject(InjectionPlan::chaos(CHAOS_SEED))
            .fault_budget(4),
    ];
    for scheme in [Scheme::WdCommit, Scheme::ReplayQueue] {
        let r = gpu(scheme, PagingMode::demand(Interconnect::nvlink()))
            .run_multi(&tenants, PartitionPolicy::Quarantine);
        assert!(r.tenant(&TenantId::new("chaos")).unwrap().quarantined);
        d.fold(&format!("quarantine {scheme} {r:?}\n"));
    }

    d.0
}

#[test]
fn quiet_tick_digest_is_pinned() {
    let got = quiet_tick_grid();
    assert_eq!(got, 0xcb93_2d76_c8af_683e, "quiet-tick grid digest moved: {got:#018x}");
}
