//! Both fault handlers under each page-size policy.
//!
//! The CPU handler and the GPU-local handler back and map their regions
//! through the memory system's one backing path, which decides the policy:
//! how many frames a fault needs, what a NACK gives back and what a
//! resolution maps.

use gex_mem::system::{FaultMode, MemSystem};
use gex_mem::{
    FaultKind, MemConfig, PageSizePolicy, PageState, REGIONS_PER_LARGE, REGION_BYTES, REGION_PAGES,
    SUBPAGES_PER_LARGE,
};
use gex_sim::local_fault::LocalFaultState;
use gex_sim::paging::CpuHandler;
use gex_sim::{InjectionPlan, Interconnect, LocalFaultConfig};

/// A memory system under `policy` whose first 16 MB are CPU-dirty and
/// whose 16 MB from `0x4000_0000` are backed lazily.
fn mem_under(policy: PageSizePolicy) -> MemSystem {
    let cfg = MemConfig { page_size: policy, ..MemConfig::kepler_k20() };
    let mut mem = MemSystem::new(cfg, FaultMode::SquashNotify);
    mem.page_table.set_range(0, 1 << 24, PageState::CpuDirty);
    mem.page_table.add_lazy_range(0x4000_0000, 1 << 24);
    mem
}

/// Every region's first service is NACKed.
fn nack_once() -> InjectionPlan {
    InjectionPlan {
        nack_prob: 1.0,
        max_nacks_per_region: 1,
        nack_backoff: 100,
        ..InjectionPlan::none()
    }
}

/// A NACKed service gives back the frames it was admitted with: two
/// regions of one 2 MB frame, each NACKed once, hold one admission's
/// frames apiece when they land (under `HugeOnly`, one for the whole
/// frame, which the region covered by the NACKed one inherits).
#[test]
fn a_nack_gives_back_its_frames() {
    for (policy, frames) in [
        (PageSizePolicy::Small, 2 * REGION_PAGES),
        (PageSizePolicy::Transparent, 2 * REGION_PAGES),
        (PageSizePolicy::HugeOnly, 512),
    ] {
        let mut mem = mem_under(policy);
        mem.fault_queue.report(0, FaultKind::Migration, 0, 0);
        mem.fault_queue.report(REGION_BYTES, FaultKind::Migration, 0, 0);
        let free = mem.phys().free_frames();
        let mut cpu = CpuHandler::new(Interconnect::nvlink()).with_injection(nack_once());
        let mut resolved = Vec::new();
        for t in 0..200_000 {
            resolved.extend(cpu.tick(t, &mut mem));
        }
        assert_eq!(cpu.injection_stats().map(|s| s.nacks), Some(2), "{policy:?}");
        assert!(resolved.contains(&0) && resolved.contains(&REGION_BYTES), "{policy:?}");
        assert_eq!(free - mem.phys().free_frames(), frames, "{policy:?}");
    }
}

/// A NACK gives its frames back to the 2 MB block they were carved from
/// without punching a hole: under `Transparent`, the 32 regions of one
/// frame, each NACKed once, still fill the block contiguously.
#[test]
fn nacked_regions_leave_their_frame_coalescible() {
    let mut mem = mem_under(PageSizePolicy::Transparent);
    for i in 0..REGIONS_PER_LARGE {
        mem.fault_queue.report(i * REGION_BYTES, FaultKind::Migration, 0, 0);
    }
    let free = mem.phys().free_frames();
    let mut cpu = CpuHandler::new(Interconnect::nvlink()).with_injection(nack_once());
    let mut resolved = Vec::new();
    for t in 0..400_000 {
        resolved.extend(cpu.tick(t, &mut mem));
    }
    assert_eq!(cpu.injection_stats().map(|s| s.nacks), Some(REGIONS_PER_LARGE));
    assert_eq!(resolved.len() as u64, REGIONS_PER_LARGE);
    assert_eq!(free - mem.phys().free_frames(), SUBPAGES_PER_LARGE);
    assert!(mem.phys().frame_coalescible(0));
}

/// Under `HugeOnly` a GPU-local fault maps its whole 2 MB frame, which its
/// contiguous block promotes to one large mapping at once.
#[test]
fn a_gpu_local_fault_under_huge_only_maps_its_whole_frame() {
    let mut mem = mem_under(PageSizePolicy::HugeOnly);
    let heap = 0x4000_0000;
    mem.fault_queue.report(heap, FaultKind::FirstTouch, 0, 0);
    let mut local = LocalFaultState::new(LocalFaultConfig::default());
    assert!(local.try_claim(0, heap, &mut mem));
    let done = local.tick(20_000, &mut mem);
    let frame: Vec<u64> = (0..REGIONS_PER_LARGE).map(|i| heap + i * REGION_BYTES).collect();
    assert_eq!(done, frame);
    assert_eq!(local.stats().resolved, 1);
    assert_eq!(mem.phys().gpu_frames(), SUBPAGES_PER_LARGE);
    assert!(mem.page_table.large_mapped(heap));
}
