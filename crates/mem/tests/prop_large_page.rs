//! Property tests for the 2 MB large-page machinery (ISSUE 9): the
//! page table's coalesce/splinter pair against a shadow model, the
//! contiguity-conserving physical allocator's coalescibility gate, and
//! the two-size TLB's exclusivity invariant.

use gex_mem::phys::{AllocOwner, PhysAllocator};
use gex_mem::tlb::Tlb;
use gex_mem::{
    frame_of, MemConfig, PageState, PageTable, LARGE_PAGE_BYTES, REGIONS_PER_LARGE, REGION_BYTES,
    REGION_PAGES, SUBPAGES_PER_LARGE,
};
use gex_testkit::prelude::*;
use std::collections::HashMap;

const PAGE_BYTES: u64 = 4096;

/// The tests drive two adjacent 2 MB frames so cross-frame isolation is
/// exercised too.
const FRAMES: u64 = 2;

// ------------------------------------------------ page table vs shadow

/// One random page-table operation over the two-frame arena.
#[derive(Debug, Clone)]
enum PtOp {
    /// Map the `r`-th 64 KB region (of `FRAMES * 32`).
    MapRegion(u8),
    /// Evict the oldest resident region.
    Evict,
    /// Attempt to promote frame `f`.
    Coalesce(u8),
    /// Demote frame `f` if large-mapped.
    Splinter(u8),
}

fn pt_op() -> impl Strategy<Value = PtOp> {
    let regions = (FRAMES * REGIONS_PER_LARGE) as u8;
    prop_oneof![
        (0..regions).prop_map(PtOp::MapRegion),
        Just(PtOp::Evict),
        (0..FRAMES as u8).prop_map(PtOp::Coalesce),
        (0..FRAMES as u8).prop_map(PtOp::Splinter),
    ]
}

/// Shadow of the 4 KB-visible residency the page table must preserve
/// across promote/demote cycles.
#[derive(Default)]
struct Shadow {
    present: HashMap<u64, bool>,
}

impl Shadow {
    fn all_present(&self, frame: u64) -> bool {
        (0..SUBPAGES_PER_LARGE)
            .all(|i| self.present.get(&(frame + i * PAGE_BYTES)).copied().unwrap_or(false))
    }
}

fn run_pt_ops(ops: &[PtOp]) {
    let mut pt = PageTable::new();
    pt.set_range(0, FRAMES * LARGE_PAGE_BYTES, PageState::CpuClean);
    let mut shadow = Shadow::default();
    for (step, op) in ops.iter().enumerate() {
        match op {
            PtOp::MapRegion(r) => {
                let base = *r as u64 * REGION_BYTES;
                pt.map_region(base);
                for i in 0..REGION_PAGES {
                    shadow.present.insert(base + i * PAGE_BYTES, true);
                }
            }
            PtOp::Evict => {
                if let Some((victim, _)) = pt.evict_oldest_region(u64::MAX) {
                    for i in 0..REGION_PAGES {
                        shadow.present.insert(victim + i * PAGE_BYTES, false);
                    }
                }
            }
            PtOp::Coalesce(f) => {
                let frame = *f as u64 * LARGE_PAGE_BYTES;
                let expect = shadow.all_present(frame) && !pt.large_mapped(frame);
                let promoted = pt.try_coalesce(frame);
                prop_assert_eq!(
                    promoted, expect,
                    "coalesce iff all 512 subpages resident and not already large (step {step})"
                );
            }
            PtOp::Splinter(f) => {
                pt.splinter(*f as u64 * LARGE_PAGE_BYTES);
            }
        }
        // The 4 KB view never changes observably across promotes and
        // demotes: every page answers exactly what the shadow says.
        for (&page, &present) in &shadow.present {
            prop_assert_eq!(
                pt.present(page),
                present,
                "page {page:#x} visibility diverged at step {step}"
            );
        }
    }
}

// ------------------------------------------- phys allocator coalescibility

/// One random allocator operation against a single 2 MB block key.
#[derive(Debug, Clone)]
enum PhysOp {
    /// Carve one region's worth (16 frames) as `AllocOwner::Cpu`.
    CarveCpu,
    /// Carve as `AllocOwner::Gpu` (may mix owners).
    CarveGpu,
    /// Free one region's worth back.
    Free,
}

fn phys_op() -> impl Strategy<Value = PhysOp> {
    prop_oneof![Just(PhysOp::CarveCpu), Just(PhysOp::CarveGpu), Just(PhysOp::Free)]
}

// ----------------------------------------------------- TLB exclusivity

/// One random two-size-TLB operation over the two-frame VPN arena.
#[derive(Debug, Clone)]
enum TlbOp {
    /// 4 KB fill of vpn `v` (of `FRAMES * 512`).
    Fill(u16),
    /// 2 MB fill of frame `f`.
    FillLarge(u8),
    /// Dual lookup of vpn `v`.
    Lookup(u16),
    /// Drop the 2 MB entry of frame `f`.
    InvalidateLarge(u8),
    /// Frame shootdown (promotion/demotion path).
    Shootdown(u8),
}

fn tlb_op() -> impl Strategy<Value = TlbOp> {
    let vpns = (FRAMES * SUBPAGES_PER_LARGE) as u16;
    prop_oneof![
        (0..vpns).prop_map(TlbOp::Fill),
        (0..FRAMES as u8).prop_map(TlbOp::FillLarge),
        (0..vpns).prop_map(TlbOp::Lookup),
        (0..FRAMES as u8).prop_map(TlbOp::InvalidateLarge),
        (0..FRAMES as u8).prop_map(TlbOp::Shootdown),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random map/evict/promote/demote sequences: promotion happens
    /// exactly when all 512 subpages are resident, and the 4 KB-visible
    /// residency never diverges from the shadow model.
    #[test]
    fn coalesce_only_when_frame_fully_resident(
        ops in collection::vec(pt_op(), 1..80),
    ) {
        run_pt_ops(&ops);
    }

    /// Splintering restores the exact pre-coalesce page table: the state
    /// of every subpage, residency order, and the region-eviction view
    /// (splinter ∘ coalesce = identity on page states).
    #[test]
    fn splinter_restores_the_precoalesce_table(
        first in 0u64..32,
        frame_idx in 0u8..FRAMES as u8,
    ) {
        let frame = frame_idx as u64 * LARGE_PAGE_BYTES;
        let mut pt = PageTable::new();
        pt.set_range(0, FRAMES * LARGE_PAGE_BYTES, PageState::CpuClean);
        // Map all 32 regions of the frame, starting at region `first`, so
        // the eviction order differs from address order.
        for r in 0..32 {
            pt.map_region(frame + (first + r) % 32 * REGION_BYTES);
        }
        let before = pt.clone();
        prop_assert!(pt.try_coalesce(frame));
        prop_assert!(pt.large_mapped(frame));
        prop_assert!(pt.splinter(frame));
        for i in 0..SUBPAGES_PER_LARGE {
            let page = frame + i * PAGE_BYTES;
            prop_assert_eq!(pt.state(page), before.state(page));
        }
        prop_assert_eq!(pt.resident_regions(), before.resident_regions());
        prop_assert_eq!(pt.present_pages(), before.present_pages());
        // Eviction order survives the round trip: both tables pick the
        // same victim.
        let mut a = pt.clone();
        let mut b = before.clone();
        prop_assert_eq!(a.evict_oldest_region(u64::MAX), b.evict_oldest_region(u64::MAX));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The allocator reports a frame coalescible exactly when its 512
    /// subpages were carved contiguously under one owner and none were
    /// freed (a full free retires the block and a fresh one starts
    /// clean).
    #[test]
    fn coalescible_iff_contiguous_single_owner_and_full(
        ops in collection::vec(phys_op(), 1..80),
    ) {
        let key = frame_of(0x4000_0000);
        let mut a = PhysAllocator::new(4 * FRAMES * LARGE_PAGE_BYTES);
        let (mut carved, mut live) = (0u64, 0u64);
        let mut block_owner: Option<AllocOwner> = None;
        let (mut overflowed, mut freed_into, mut owner_mixed) = (false, false, false);
        for op in &ops {
            match op {
                PhysOp::CarveCpu | PhysOp::CarveGpu => {
                    let owner = if matches!(op, PhysOp::CarveCpu) {
                        AllocOwner::Cpu
                    } else {
                        AllocOwner::Gpu
                    };
                    match block_owner {
                        Some(bo) if bo != owner => owner_mixed = true,
                        Some(_) => {}
                        None => block_owner = Some(owner),
                    }
                    a.alloc(key, REGION_PAGES, owner).unwrap();
                    if carved + REGION_PAGES > SUBPAGES_PER_LARGE {
                        overflowed = true;
                    }
                    carved += REGION_PAGES;
                    live += REGION_PAGES;
                }
                PhysOp::Free => {
                    if live >= REGION_PAGES {
                        a.free(key, REGION_PAGES, true);
                        live -= REGION_PAGES;
                        if live == 0 {
                            // Block retired: the next carve starts fresh.
                            carved = 0;
                            block_owner = None;
                            overflowed = false;
                            freed_into = false;
                            owner_mixed = false;
                        } else {
                            freed_into = true;
                        }
                    }
                }
            }
            let model = !overflowed
                && !freed_into
                && !owner_mixed
                && carved == SUBPAGES_PER_LARGE
                && live == SUBPAGES_PER_LARGE;
            prop_assert_eq!(
                a.frame_coalescible(key),
                model,
                "coalescibility diverged from the shadow model after {:?}",
                op
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Exclusivity: after any operation sequence, no VA is covered by
    /// both a 2 MB entry and a 4 KB entry at once, at either TLB level's
    /// geometry.
    #[test]
    fn no_va_is_covered_at_both_sizes(
        ops in collection::vec(tlb_op(), 1..60),
        use_l2 in any::<bool>(),
    ) {
        let cfg = MemConfig::kepler_k20();
        let tcfg = if use_l2 { &cfg.l2_tlb } else { &cfg.l1_tlb };
        let mut t = Tlb::new(tcfg);
        t.enable_large(tcfg);
        for op in &ops {
            match op {
                TlbOp::Fill(v) => t.fill(*v as u64),
                TlbOp::FillLarge(f) => t.fill_large(*f as u64),
                TlbOp::Lookup(v) => {
                    t.lookup_dual(*v as u64);
                }
                TlbOp::InvalidateLarge(f) => {
                    t.invalidate_large(*f as u64);
                }
                TlbOp::Shootdown(f) => t.shootdown_frame(*f as u64),
            }
            for vpn in 0..FRAMES * SUBPAGES_PER_LARGE {
                prop_assert!(
                    !(t.holds_small(vpn) && t.has_large(vpn >> 9)),
                    "vpn {vpn:#x} covered at both sizes after {op:?}"
                );
            }
        }
        // Counter consistency: every dual lookup probed the large side.
        let s = t.size_stats();
        prop_assert_eq!(t.hits() + t.misses(), s.large_hits + s.large_misses);
    }
}
