//! Property tests over the exception schemes: for arbitrary programs, all
//! five pipeline designs retire exactly the same instructions, and the
//! performance ordering the paper establishes holds.

use gex_isa::asm::Asm;
use gex_isa::func::FuncSim;
use gex_isa::kernel::{Dim3, KernelBuilder};
use gex_isa::mem_image::MemImage;
use gex_isa::reg::Reg;
use gex_isa::trace::KernelTrace;
use gex_sim::{RunBudget, SingleSmHarness};
use gex_sm::Scheme;
use gex_testkit::prelude::*;

const BUF: u64 = 0x10_0000;
const BUF_LEN: u64 = 1 << 16;

/// Simplified random instruction set biased toward the patterns that
/// stress the schemes: loads/stores with recycled address registers and
/// dependent ALU chains.
#[derive(Debug, Clone)]
enum Op {
    Chain(u8),
    LoadBump(u8, u32),
    StoreBump(u8, u32),
    SharedPingPong,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u8..6).prop_map(Op::Chain),
        (1u8..6, 0u32..1024).prop_map(|(d, s)| Op::LoadBump(d, s * 4)),
        (1u8..6, 0u32..1024).prop_map(|(v, s)| Op::StoreBump(v, s * 4)),
        Just(Op::SharedPingPong),
    ]
}

fn build_trace(ops: &[Op], warps: u32) -> KernelTrace {
    let mut a = Asm::new();
    let addr = Reg(8);
    a.gtid(Reg(0));
    a.shl_imm(addr, Reg(0), 2);
    a.add(addr, addr, BUF);
    for op in ops {
        match *op {
            Op::Chain(d) => {
                a.mad(Reg(d), Reg(d), 3u64, 1u64);
                a.mad(Reg(d), Reg(d), 5u64, 2u64);
            }
            Op::LoadBump(d, stride) => {
                // Figure-3 pattern: load through addr, then overwrite addr.
                a.ld_global_u32(Reg(d), addr, 0);
                a.add(addr, addr, stride as u64);
                a.and(addr, addr, BUF_LEN - 4);
                a.add(addr, addr, BUF);
            }
            Op::StoreBump(v, stride) => {
                a.st_global_u32(addr, Reg(v), 0);
                a.add(addr, addr, stride as u64);
                a.and(addr, addr, BUF_LEN - 4);
                a.add(addr, addr, BUF);
            }
            Op::SharedPingPong => {
                a.flat_tid(Reg(7));
                a.shl_imm(Reg(7), Reg(7), 2);
                a.st_shared_u32(Reg(7), Reg(1), 0);
                a.bar();
                a.ld_shared_u32(Reg(2), Reg(7), 0);
            }
        }
    }
    a.exit();
    let k = KernelBuilder::new("prop", a.assemble().expect("assembles"))
        .grid(Dim3::x(2))
        .block(Dim3::x(warps * 32))
        .regs_per_thread(16)
        .shared_bytes(warps * 32 * 4)
        .build()
        .expect("kernel");
    let mut mem = MemImage::new();
    for j in 0..BUF_LEN / 4 {
        mem.write_u32(BUF + j * 4, j as u32);
    }
    FuncSim::new().run(&k, &mut mem).expect("functional run").trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// All five schemes retire exactly the trace's instructions, once each
    /// (no lost or double commits under any constraint set).
    #[test]
    fn schemes_commit_identical_work(
        ops in gex_testkit::collection::vec(op_strategy(), 1..10),
        warps in 1u32..4,
    ) {
        let t = build_trace(&ops, warps);
        for scheme in Scheme::all() {
            let run = SingleSmHarness::new(scheme).budget(RunBudget::cycles(20_000_000)).run(&t);
            prop_assert_eq!(run.sm_stats.committed, t.dyn_instrs(), "{}", scheme);
            prop_assert_eq!(run.sm_stats.issued, run.sm_stats.committed,
                "no replays without faults under {}", scheme);
        }
    }

    /// The paper's constraint ordering: baseline <= operand log <= replay
    /// queue <= wd-lastcheck <= wd-commit in cycles. The constraints are
    /// not strict formal subsets (a scheme that delays one warp can
    /// accidentally improve another's scheduling), so a few cycles of
    /// dual-issue noise are tolerated.
    #[test]
    fn performance_ordering_is_total(
        ops in gex_testkit::collection::vec(op_strategy(), 1..10),
        warps in 1u32..4,
    ) {
        let t = build_trace(&ops, warps);
        let cycles = |s: Scheme| SingleSmHarness::new(s).budget(RunBudget::cycles(20_000_000)).run(&t).cycles;
        let base = cycles(Scheme::Baseline);
        let ol = cycles(Scheme::operand_log_kib(32));
        let rq = cycles(Scheme::ReplayQueue);
        let wdl = cycles(Scheme::WdLastCheck);
        let wdc = cycles(Scheme::WdCommit);
        let slack = |c: u64| c + 8 + c / 100;
        prop_assert!(base <= slack(ol), "baseline {base} > operand log {ol}");
        prop_assert!(ol <= slack(rq), "operand log {ol} > replay queue {rq}");
        prop_assert!(rq <= slack(wdl), "replay queue {rq} > wd-lastcheck {wdl}");
        prop_assert!(wdl <= slack(wdc), "wd-lastcheck {wdl} > wd-commit {wdc}");
    }
}
