//! Reproduce the paper's pipeline timing diagrams (Figures 3, 4, 6, 7):
//! the four-instruction example program run under each exception scheme,
//! showing when every instruction issues, passes its last TLB check, and
//! commits.
//!
//! ```text
//! cargo run --release -p gex --example pipeline_diagrams
//! ```

use gex::isa::asm::Asm;
use gex::isa::func::FuncSim;
use gex::isa::kernel::{Dim3, KernelBuilder};
use gex::isa::mem_image::MemImage;
use gex::isa::reg::Reg;
use gex::sim::SingleSmHarness;
use gex::sm::{ProbeStage, Scheme};

const BUF: u64 = 0x10_0000;

fn main() {
    // The paper's running example (Figure 3):
    //   A: R3 <- ld [R2]      (global load)
    //   B: R9 <- sub R9, 4    (independent ALU)
    //   C: R8 <- ld [R4]      (global load reading R4)
    //   D: R4 <- add R7, 8    (WAR on R4 with C)
    let mut a = Asm::new();
    a.mov(Reg(2), BUF);
    a.mov(Reg(4), BUF + 128);
    a.mov(Reg(7), BUF);
    a.mov(Reg(9), 64u64);
    let first = 4usize;
    a.ld_global_u32(Reg(3), Reg(2), 0); // A
    a.sub(Reg(9), Reg(9), 4u64); // B
    a.ld_global_u32(Reg(8), Reg(4), 0); // C
    a.add(Reg(4), Reg(7), 8u64); // D
    a.exit();

    let kernel = KernelBuilder::new("figure3", a.assemble().expect("assembles"))
        .grid(Dim3::x(1))
        .block(Dim3::x(32))
        .build()
        .expect("valid kernel");
    let mut image = MemImage::new();
    image.write_u32(BUF, 7);
    let trace = FuncSim::new().run(&kernel, &mut image).expect("functional run").trace;

    let names = ["A: R3 <- ld [R2] ", "B: R9 <- sub R9,4", "C: R8 <- ld [R4] ", "D: R4 <- add R7,8"];
    for (scheme, figure) in [
        (Scheme::Baseline, "Figure 3 (baseline, the two problems)"),
        (Scheme::WdCommit, "Figure 4 (warp disable)"),
        (Scheme::ReplayQueue, "Figure 6 (replay queue)"),
        (Scheme::operand_log_kib(16), "Figure 7 (operand log)"),
    ] {
        let run = SingleSmHarness::new(scheme).probe().run(&trace);
        println!("{figure} — scheme `{scheme}`:");
        println!("  {:<18} {:>6} {:>10} {:>7}", "instruction", "issue", "last-check", "commit");
        for (k, name) in names.iter().enumerate() {
            let idx = first + k;
            let find = |stage: ProbeStage| {
                run.probe
                    .iter()
                    .find(|e| e.idx == idx && e.stage == stage)
                    .map(|e| e.cycle.to_string())
                    .unwrap_or_else(|| "-".into())
            };
            println!(
                "  {:<18} {:>6} {:>10} {:>7}",
                name,
                find(ProbeStage::Issue),
                find(ProbeStage::LastCheck),
                find(ProbeStage::Commit)
            );
        }
        println!();
    }
    println!("Things to check against the paper:");
    println!(" * baseline/operand log: D issues before C's last TLB check (early release);");
    println!(" * warp disable: B and C issue only after A commits (instruction barrier);");
    println!(" * replay queue: D's issue waits for C's last TLB check (delayed release).");
}
