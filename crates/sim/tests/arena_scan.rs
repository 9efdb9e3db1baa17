//! Arena equivalence: a run that reuses the thread's recycled simulation
//! arena (SMs, schedulers, dispatch queues) must produce a
//! byte-identical [`GpuRunReport`](gex_sim::GpuRunReport) to a run on
//! fresh state, including after the arena was disturbed by a run of a
//! different shape (SM count, scheme, paging mode).
//!
//! The fresh reference comes from a newly spawned thread: its
//! thread-local arena is empty by construction.

use gex_isa::asm::Asm;
use gex_isa::func::FuncSim;
use gex_isa::kernel::{Dim3, KernelBuilder};
use gex_isa::mem_image::MemImage;
use gex_isa::op::{CmpKind, CmpType};
use gex_isa::reg::{Pred, Reg};
use gex_isa::trace::KernelTrace;
use gex_sim::{BlockSwitchConfig, Gpu, GpuConfig, Interconnect, PagingMode, Residency};
use gex_sm::Scheme;

const IN: u64 = 0x100_0000;
const OUT: u64 = 0x800_0000;

/// Each block streams its own 64 KB input region (one migration fault per
/// block) and computes on it; shared memory throttles occupancy so the
/// block-switching machinery has slots to churn.
fn faulting_kernel(blocks: u32, compute_iters: u64) -> (KernelTrace, Residency) {
    let mut a = Asm::new();
    let (tid, bid, addr, v, acc, i, p) =
        (Reg(0), Reg(1), Reg(2), Reg(3), Reg(4), Reg(5), Pred(0));
    a.flat_tid(tid);
    a.flat_ctaid(bid);
    a.mul(addr, bid, 0x1_0000u64);
    a.add(addr, addr, IN);
    a.shl_imm(v, tid, 2);
    a.add(addr, addr, v);
    a.ld_global_u32(acc, addr, 0);
    a.mov(i, 0u64);
    a.label("loop");
    a.mad(acc, acc, 5u64, 3u64);
    a.add(i, i, 1u64);
    a.setp(p, CmpKind::Lt, CmpType::U64, i, compute_iters);
    a.bra_if("loop", p, true);
    a.mul(v, bid, 0x1_0000u64);
    a.add(v, v, OUT);
    a.shl_imm(i, tid, 2);
    a.add(v, v, i);
    a.st_global_u32(v, acc, 0);
    a.exit();
    let k = KernelBuilder::new("arena_probe", a.assemble().unwrap())
        .grid(Dim3::x(blocks))
        .block(Dim3::x(128))
        .regs_per_thread(32)
        .shared_bytes(16_384)
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

fn switching_demand() -> PagingMode {
    PagingMode::Demand {
        interconnect: Interconnect::pcie(),
        block_switch: Some(BlockSwitchConfig::default()),
        local_handling: None,
    }
}

fn gpu(sms: u32, scheme: Scheme, paging: PagingMode) -> Gpu {
    Gpu::new(GpuConfig::kepler_k20().with_sms(sms), scheme, paging).max_cycles(500_000_000)
}

#[test]
fn arena_reuse_is_observably_identical_to_fresh_state() {
    let (t, res) = faulting_kernel(8, 300);
    let reusing = gpu(4, Scheme::WdCommit, switching_demand());
    let fresh = std::thread::scope(|s| {
        s.spawn(|| reusing.run(&t, &res)).join().expect("fresh-arena run panicked")
    });

    let cold = reusing.run(&t, &res);
    let warm = reusing.run(&t, &res);
    assert_eq!(cold, fresh, "cold arena diverged from fresh state");
    assert_eq!(warm, fresh, "reused arena diverged from fresh state");

    // Disturb the arena with a different shape — more SMs, a different
    // scheme, no paging machinery — then reuse it for the original run:
    // recycle must erase every trace of the interloper (including the
    // extra SMs it grew).
    let (t2, res2) = faulting_kernel(3, 50);
    let _ = gpu(8, Scheme::ReplayQueue, PagingMode::AllResident).run(&t2, &res2);
    let after_disturb = reusing.run(&t, &res);
    assert_eq!(after_disturb, fresh, "arena reuse leaked state across run shapes");
}
