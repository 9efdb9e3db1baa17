//! Both fault handlers under each page-size policy.
//!
//! The CPU handler and the GPU-local handler back and map their regions
//! through the memory system's one backing path, which decides the policy
//! and keeps the frame ledger: how many frames a fault needs, what a NACK
//! gives back, what a resolution maps and what an eviction frees.

use gex_mem::phys::AllocOwner;
use gex_mem::system::{FaultMode, MemSystem};
use gex_mem::{
    FaultKind, MemConfig, PageSizePolicy, PageState, LARGE_PAGE_BYTES, REGIONS_PER_LARGE,
    REGION_BYTES, REGION_PAGES, SUBPAGES_PER_LARGE,
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

/// A memory system under `policy` with a pool of `frames` frames and
/// nothing placed.
fn pool_under(policy: PageSizePolicy, frames: u64) -> MemSystem {
    let cfg = MemConfig { page_size: policy, ..MemConfig::kepler_k20() };
    MemSystem::new(MemConfig { gpu_mem_bytes: frames * 4096, ..cfg }, FaultMode::SquashNotify)
}

/// Frames of the pool in use.
fn used(mem: &MemSystem) -> u64 {
    mem.config().gpu_mem_bytes / 4096 - mem.phys().free_frames()
}

/// Back and resolve the faults on `regions` in turn, returning the
/// regions evicted on the way.
fn back_and_resolve(mem: &mut MemSystem, regions: &[u64]) -> u64 {
    let mut evictions = 0;
    for &region in regions {
        let backing = mem.back_fault(region, AllocOwner::Cpu);
        assert!(backing.frames.is_some(), "{region:#x} found no room");
        evictions += backing.evictions;
        mem.resolve_fault(region, 0, &mut Vec::new());
    }
    evictions
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
/// frame: a NACK leaves the frame's backing to a sibling still in flight).
/// The last input reports the sibling while the first region's service is
/// in flight, so that service's NACK lands while the sibling is live.
#[test]
fn a_nack_gives_back_its_frames() {
    let together = [(0, 0), (REGION_BYTES, 0)];
    for (policy, reports, frames) in [
        (PageSizePolicy::Small, together, 2 * REGION_PAGES),
        (PageSizePolicy::Transparent, together, 2 * REGION_PAGES),
        (PageSizePolicy::HugeOnly, together, 512),
        (PageSizePolicy::HugeOnly, [(0, 0), (REGION_BYTES, 30_000)], 512),
    ] {
        let mut mem = mem_under(policy);
        let free = mem.phys().free_frames();
        let mut cpu = CpuHandler::new(Interconnect::nvlink()).with_injection(nack_once());
        let mut resolved = Vec::new();
        for t in 0..200_000 {
            for &(region, _) in reports.iter().filter(|&&(_, at)| at == t) {
                mem.fault_queue.report(region, FaultKind::Migration, 0, t);
            }
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

/// A region that a buffer ends inside is backed with only the pages its
/// resolution maps, so evicting it frees all it took: a 32-frame pool
/// backs a 5-page region and then two full regions, evicting the partial
/// one, and ends full with 32 present pages.
#[test]
fn a_partial_region_frees_what_it_took() {
    for policy in [PageSizePolicy::Small, PageSizePolicy::Transparent] {
        let mut mem = pool_under(policy, 32);
        mem.page_table.set_range(0, 5 * 4096, PageState::CpuDirty);
        mem.page_table.set_range(REGION_BYTES, 2 * REGION_BYTES, PageState::CpuDirty);
        let evictions = back_and_resolve(&mut mem, &[0, REGION_BYTES, 2 * REGION_BYTES]);
        assert_eq!(evictions, 1, "{policy:?}");
        assert_eq!(mem.page_table.state(0), PageState::CpuDirty, "{policy:?}");
        assert_eq!(mem.page_table.present_pages(), 32, "{policy:?}");
        assert_eq!(used(&mem), 32, "{policy:?}");
    }
}

/// Under `HugeOnly` a GPU-local first touch on a frame's second region,
/// claimed at cycle 0, completes at 20 000 while the CPU migration of the
/// frame's first region, reported at 15 000, is still in flight. The two
/// handlers share that migration's backing, so the frame is backed once,
/// by one contiguous block that promotes.
#[test]
fn two_handlers_back_one_huge_frame_once() {
    let mut mem = mem_under(PageSizePolicy::HugeOnly);
    let heap = 0x4000_0000;
    mem.page_table.set_range(heap, REGION_BYTES, PageState::CpuDirty);
    let mut cpu = CpuHandler::new(Interconnect::nvlink()).without_first_touch();
    let mut local = LocalFaultState::new(LocalFaultConfig::default());
    mem.fault_queue.report(heap + REGION_BYTES, FaultKind::FirstTouch, 0, 0);
    assert!(local.try_claim(0, heap + REGION_BYTES, &mut mem));
    for t in 0..100_000 {
        if t == 15_000 {
            mem.fault_queue.report(heap, FaultKind::Migration, 0, t);
        }
        cpu.tick(t, &mut mem);
        local.tick(t, &mut mem);
    }
    assert_eq!((cpu.stats().migrations, local.stats().resolved), (1, 1));
    assert_eq!(mem.page_table.present_pages(), 512);
    assert_eq!(used(&mem), 512);
    assert!(mem.page_table.large_mapped(heap));
}

/// Under `HugeOnly` eviction passes over every region of a frame whose
/// fault holds a live backing. A 528-frame pool holds a fully backed frame
/// and two 1-region frames; the big frame's first region is evicted and
/// re-faults, and backing it evicts the oldest other frame's region, not
/// the big frame's next one.
#[test]
fn a_live_huge_backing_shields_its_frame_from_eviction() {
    let mut mem = pool_under(PageSizePolicy::HugeOnly, 528);
    let (big, one, two) = (0, LARGE_PAGE_BYTES, 2 * LARGE_PAGE_BYTES);
    mem.page_table.set_range(big, LARGE_PAGE_BYTES, PageState::CpuDirty);
    mem.page_table.set_range(one, REGION_BYTES, PageState::CpuDirty);
    mem.page_table.set_range(two, REGION_BYTES, PageState::CpuDirty);
    assert_eq!(back_and_resolve(&mut mem, &[big, one, two]), 1);
    assert_eq!(mem.page_table.state(big), PageState::CpuDirty);
    assert_eq!(back_and_resolve(&mut mem, &[big]), 1);
    assert_eq!(mem.page_table.state(one), PageState::CpuDirty);
    assert_eq!(mem.page_table.present_pages(), 528);
    assert_eq!(used(&mem), 528);
}
