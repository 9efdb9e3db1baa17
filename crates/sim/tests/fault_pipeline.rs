//! The engine against the fault pipeline's closed form (DESIGN.md,
//! decision 5).
//!
//! A storm of `n` faults, each on its own 64 KB region, runs through the
//! whole engine in two shapes:
//!
//! * one SM: a single warp whose lane `l` loads from region `l % n`; the
//!   lanes' requests inject a cycle apart, so fault `k` is enqueued `k`
//!   cycles after the first;
//! * sixteen SMs: `n` one-warp blocks, block `b` loading from region `b`;
//!   every fault is enqueued in the same cycle.
//!
//! Under a preemptible scheme each faulted warp waits for its region, so
//! every SM is stalled while the faults are serviced and the engine's
//! idle skip carries the whole storm. Under CPU handling, fault
//! `k` (in admission order) is admitted `k` CPU stages after the first
//! and resolves at `max(k × CPU_STAGE_CYCLES + latency, k × max(stage,
//! occupancy) + occupancy)` after the first enqueue: the round trip while
//! the CPU stage is the bottleneck, the link-bound series once each
//! fault's link occupancy outlasts a CPU stage (PCIe and NVLink
//! migrations). GPU-local handling resolves every first touch a fixed
//! `handler_cycles` after its claim, with no serialization.

use gex_isa::asm::Asm;
use gex_isa::func::FuncSim;
use gex_isa::kernel::{Dim3, KernelBuilder};
use gex_isa::mem_image::MemImage;
use gex_isa::reg::Reg;
use gex_isa::trace::KernelTrace;
use gex_mem::{Cycle, FaultKind, REGION_BYTES};
use gex_sim::paging::CPU_STAGE_CYCLES;
use gex_sim::{
    Gpu, GpuConfig, GpuRunReport, Interconnect, LocalFaultConfig, PagingMode, Residency,
};
use gex_sm::Scheme;

const BASE: u64 = 0x100_0000;
const MAX_FAULTS: u64 = 12;

/// The storm kernel: `n` regions touched by one warp's lanes, or by `n`
/// one-warp blocks.
fn storm(n: u64, one_warp: bool) -> KernelTrace {
    let mut a = Asm::new();
    let (id, addr, v) = (Reg(0), Reg(1), Reg(2));
    if one_warp {
        a.flat_tid(id);
        a.rem(id, id, n);
    } else {
        a.flat_ctaid(id);
    }
    a.mul(addr, id, REGION_BYTES);
    a.add(addr, addr, BASE);
    a.ld_global_u32(v, addr, 0);
    a.exit();
    let kernel = KernelBuilder::new("storm", a.assemble().expect("assembles"))
        .grid(Dim3::x(if one_warp { 1 } else { n as u32 }))
        .block(Dim3::x(32))
        .build()
        .expect("kernel");
    FuncSim::new().run(&kernel, &mut MemImage::new()).expect("functional run").trace
}

/// Run an `n`-fault storm on one SM (one warp) or sixteen (one warp per
/// block), its regions CPU-dirty (`Migration`) or never touched, handled
/// by the CPU or, given a handler latency, the first touches on the GPU.
fn run(
    n: u64,
    one_sm: bool,
    link: Interconnect,
    kind: FaultKind,
    handler: Option<Cycle>,
) -> GpuRunReport {
    let len = n * REGION_BYTES;
    let residency = match kind {
        FaultKind::Migration => Residency::new().cpu_dirty(BASE, len),
        _ => Residency::new().lazy(BASE, len),
    };
    let local_handling = handler.map(|handler_cycles| LocalFaultConfig { handler_cycles });
    let paging = PagingMode::Demand { interconnect: link, block_switch: None, local_handling };
    let cfg = GpuConfig::kepler_k20().with_sms(if one_sm { 1 } else { 16 });
    Gpu::new(cfg, Scheme::ReplayQueue, paging).run(&storm(n, one_sm), &residency)
}

/// Cycles from the first enqueue of a CPU-handled storm to the
/// resolution of its `k`-th admitted fault.
fn resolved(k: u64, link: Interconnect, kind: FaultKind) -> Cycle {
    let mut occupancy = link.signal_cycles;
    if kind == FaultKind::Migration {
        occupancy += link.region_transfer_cycles();
    }
    (k * CPU_STAGE_CYCLES + link.fault_cost(kind))
        .max(k * CPU_STAGE_CYCLES.max(occupancy) + occupancy)
}

#[test]
fn cpu_handled_storms_resolve_at_the_closed_form() {
    for one_sm in [true, false] {
        for link in [Interconnect::nvlink(), Interconnect::pcie()] {
            for kind in [FaultKind::FirstTouch, FaultKind::Migration] {
                let lone = run(1, one_sm, link, kind, None);
                for n in 2..=MAX_FAULTS {
                    let leg = format!("{n} faults, {kind:?}, {link}, one SM: {one_sm}");
                    let r = run(n, one_sm, link, kind, None);
                    let series: Vec<Cycle> = (0..n).map(|k| resolved(k, link, kind)).collect();
                    assert_eq!(r.cpu.resolved(), n, "{leg}");
                    // Each fault's enqueue-to-resolution latency.
                    let enqueued: Cycle = if one_sm { (0..n).sum() } else { 0 };
                    let latency: Cycle = series.iter().sum();
                    assert_eq!(r.cpu.latency_sum, latency - enqueued, "{leg}");
                    // Fault `k` is admitted with every earlier fault that
                    // has not resolved by then still in flight.
                    let in_flight = |k: u64| {
                        let admitted = k * CPU_STAGE_CYCLES;
                        1 + series[..k as usize].iter().filter(|&&d| d > admitted).count() as u64
                    };
                    assert_eq!(Some(r.cpu.peak_in_flight), (0..n).map(in_flight).max(), "{leg}");
                    // The last resolution moves the end; the rest of the
                    // run is the lone fault's, but for the one warp's
                    // replayed load, whose `n` lines inject a cycle apart.
                    let lines = if one_sm { n - 1 } else { 0 };
                    let last = series[n as usize - 1] - series[0];
                    assert_eq!(r.cycles - lone.cycles, last + lines, "{leg}");
                }
            }
        }
    }
}

#[test]
fn gpu_local_storms_resolve_a_handler_latency_after_their_claims() {
    let handler = LocalFaultConfig::default().handler_cycles;
    let (link, kind) = (Interconnect::nvlink(), FaultKind::FirstTouch);
    for one_sm in [true, false] {
        let lone = run(1, one_sm, link, kind, Some(handler));
        for n in 2..=MAX_FAULTS {
            let leg = format!("{n} faults, one SM: {one_sm}");
            let r = run(n, one_sm, link, kind, Some(handler));
            assert_eq!((r.local.resolved, r.cpu.resolved()), (n, 0), "{leg}");
            // Every fault is claimed in the cycle its notice arrives and
            // all handlers run at once: no fault waits for another.
            assert_eq!(r.local.peak_concurrency, n, "{leg}");
            // So the storm ends where the lone fault does, but for the
            // replayed load's extra lines, which inject a cycle apart and
            // queue for DRAM: nothing like the CPU stage's serialization.
            assert!(
                r.cycles - lone.cycles <= 2 * (n - 1),
                "{leg}: {} vs {}",
                r.cycles,
                lone.cycles
            );
            // And a fault resolves `handler_cycles` after its claim: a
            // slower handler moves the end by exactly the difference.
            let slower = run(n, one_sm, link, kind, Some(handler + 777));
            assert_eq!(slower.cycles - r.cycles, 777, "{leg}");
        }
    }
}
