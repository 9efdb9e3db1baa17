//! Property tests over demand paging: for random kernels and random
//! subsets of unmapped memory, every scheme completes with exactly the
//! trace's instructions committed, no matter where faults land.

use gex_isa::asm::Asm;
use gex_isa::func::FuncSim;
use gex_isa::kernel::{Dim3, KernelBuilder};
use gex_isa::mem_image::MemImage;
use gex_isa::op::{CmpKind, CmpType};
use gex_isa::reg::{Pred, Reg};
use gex_isa::trace::KernelTrace;
use gex_sim::{
    BlockSwitchConfig, Gpu, GpuConfig, Interconnect, LocalFaultConfig, PagingMode, Residency,
    RunBudget,
};
use gex_sm::Scheme;
use gex_testkit::prelude::*;

const BUF: u64 = 0x100_0000;
const BUF_LEN: u64 = 1 << 20; // 16 regions

/// A kernel whose threads walk the buffer with a parameterized stride and
/// phase, mixing loads, stores and compute.
fn build_trace(stride: u64, phase: u64, iters: u64, blocks: u32) -> KernelTrace {
    let mut a = Asm::new();
    let (i, k, addr, v, p) = (Reg(0), Reg(1), Reg(2), Reg(3), Pred(0));
    a.gtid(i);
    a.mov(k, 0u64);
    a.label("loop");
    // addr = BUF + ((i * stride + k * 4096 + phase) & (BUF_LEN-4))
    a.mul(addr, i, stride);
    a.mad(addr, k, 4096u64, addr);
    a.add(addr, addr, phase);
    a.and(addr, addr, BUF_LEN - 4);
    a.add(addr, addr, BUF);
    a.ld_global_u32(v, addr, 0);
    a.mad(v, v, 3u64, 1u64);
    a.st_global_u32(addr, v, 0);
    a.add(k, k, 1u64);
    a.setp(p, CmpKind::Lt, CmpType::U64, k, iters);
    a.bra_if("loop", p, true);
    a.exit();
    let kernel = KernelBuilder::new("prop-fault", a.assemble().expect("assembles"))
        .grid(Dim3::x(blocks))
        .block(Dim3::x(64))
        .regs_per_thread(16)
        .build()
        .expect("kernel");
    let mut img = MemImage::new();
    for j in 0..BUF_LEN / 4096 {
        img.write_u32(BUF + j * 4096, j as u32);
    }
    FuncSim::new().run(&kernel, &mut img).expect("functional run").trace
}

/// Residency with a random subset of 64 KB regions CPU-resident (dirty) or
/// lazily backed; the rest pre-mapped.
fn residency(unmapped: &[u8]) -> Residency {
    let mut r = Residency::new();
    for (i, kind) in unmapped.iter().enumerate() {
        let addr = BUF + i as u64 * 65536;
        r = match kind % 3 {
            0 => r.resident(addr, 65536),
            1 => r.cpu_dirty(addr, 65536),
            _ => r.lazy(addr, 65536),
        };
    }
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Faults anywhere, under any preemptible scheme, never lose or
    /// duplicate instructions and always resolve.
    #[test]
    fn fault_placement_never_breaks_execution(
        stride in prop_oneof![Just(4u64), Just(128), Just(4096), Just(65536)],
        phase in 0u64..65536,
        regions in gex_testkit::collection::vec(0u8..3, 16),
        scheme in prop_oneof![
            Just(Scheme::WdLastCheck),
            Just(Scheme::ReplayQueue),
            Just(Scheme::operand_log_kib(16)),
        ],
    ) {
        let t = build_trace(stride, phase & !3, 3, 8);
        let res = residency(&regions);
        let gpu = Gpu::new(
            GpuConfig::kepler_k20().with_sms(4),
            scheme,
            PagingMode::demand(Interconnect::nvlink()),
        )
        .budget(RunBudget::cycles(200_000_000));
        let r = gpu.run(&t, &res);
        prop_assert_eq!(r.sm.committed, t.dyn_instrs(),
            "lost/duplicated instructions under {}", scheme);
        prop_assert_eq!(r.sm.faults, r.sm.squashed);
    }

    /// The baseline stall-on-fault path resolves the same faults with no SM
    /// notifications, and both use cases stay sound under random faults.
    #[test]
    fn use_cases_survive_random_faults(
        stride in prop_oneof![Just(4u64), Just(4096)],
        regions in gex_testkit::collection::vec(0u8..3, 16),
    ) {
        let t = build_trace(stride, 0, 2, 8);
        let res = residency(&regions);
        let cfg = GpuConfig::kepler_k20().with_sms(4);

        let stall = Gpu::new(cfg.clone(), Scheme::Baseline,
            PagingMode::demand(Interconnect::pcie()))
            .budget(RunBudget::cycles(200_000_000))
            .run(&t, &res);
        prop_assert_eq!(stall.sm.committed, t.dyn_instrs());
        prop_assert_eq!(stall.sm.faults, 0, "stall mode never notifies");

        let switching = Gpu::new(cfg.clone(), Scheme::ReplayQueue,
            PagingMode::Demand {
                interconnect: Interconnect::pcie(),
                block_switch: Some(BlockSwitchConfig::default()),
                local_handling: None,
            })
            .budget(RunBudget::cycles(200_000_000))
            .run(&t, &res);
        prop_assert_eq!(switching.sm.committed, t.dyn_instrs());

        let local = Gpu::new(cfg, Scheme::ReplayQueue,
            PagingMode::Demand {
                interconnect: Interconnect::pcie(),
                block_switch: None,
                local_handling: Some(LocalFaultConfig::default()),
            })
            .budget(RunBudget::cycles(200_000_000))
            .run(&t, &res);
        prop_assert_eq!(local.sm.committed, t.dyn_instrs());
        // every first-touch region was handled on the GPU, not the CPU
        let lazy_regions = regions.iter().filter(|&&k| k % 3 == 2).count() as u64;
        if lazy_regions > 0 && local.local.resolved > 0 {
            prop_assert_eq!(local.cpu.allocations, 0,
                "CPU must not see first-touch faults when local handling is on");
        }
    }
}
