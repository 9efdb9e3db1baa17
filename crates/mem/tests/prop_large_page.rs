//! Property tests for the 2 MB large-page machinery: the page table's
//! coalesce/splinter pair against a shadow model, the
//! contiguity-conserving physical allocator's coalescibility gate, the
//! two-size TLB's exclusivity invariant, and the memory system's frame
//! ledger under every page-size policy.

use gex_mem::phys::{AllocOwner, PhysAllocator};
use gex_mem::system::{FaultMode, MemSystem};
use gex_mem::tlb::Tlb;
use gex_mem::{
    frame_of, MemConfig, PageSizePolicy, PageState, PageTable, LARGE_PAGE_BYTES, REGIONS_PER_LARGE,
    REGION_BYTES, REGION_PAGES, SUBPAGES_PER_LARGE,
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
                if let Some((victim, _)) = pt.evict_oldest_region(|_| false) {
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

// ------------------------------------------------------ the frame ledger

/// Pages of the ledger arena: three 2 MB frames, so that even a two-frame
/// `HugeOnly` pool is oversubscribed.
const ARENA_PAGES: u64 = 3 * SUBPAGES_PER_LARGE;

/// One step of a random fault-service sequence, as the fault handlers
/// drive the memory system.
#[derive(Debug, Clone)]
enum ServiceOp {
    /// Admit a service of the fault on the `r`-th region holding a valid
    /// page (modulo their number), for the GPU-local handler if `gpu`.
    Back { r: u8, gpu: bool },
    /// NACK the `i`-th live service (modulo their number).
    Nack(u8),
    /// Resolve the `i`-th live service (modulo their number).
    Resolve(u8),
}

fn service_op() -> impl Strategy<Value = ServiceOp> {
    prop_oneof![
        (any::<u8>(), any::<bool>()).prop_map(|(r, gpu)| ServiceOp::Back { r, gpu }),
        any::<u8>().prop_map(ServiceOp::Nack),
        any::<u8>().prop_map(ServiceOp::Resolve),
    ]
}

/// Frames in use, present pages and held frames must balance, and the
/// present pages fit the pool.
fn check_ledger(mem: &MemSystem, pool: u64, step: &str) {
    let used = pool - mem.phys().free_frames();
    let present = mem.page_table.present_pages() as u64;
    prop_assert_eq!(used, present + mem.held_frames(), "ledger out of balance after {}", step);
    prop_assert!(present <= pool, "{present} present pages in a {pool}-frame pool after {step}");
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
        prop_assert_eq!(a.evict_oldest_region(|_| false), b.evict_oldest_region(|_| false));
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random back / NACK / resolve sequences under every page-size policy,
    /// in pools of 1–4 regions (1–2 frames under `HugeOnly`), over a
    /// CPU-dirty and a lazily backed buffer that end mid-region: after
    /// every step frames in use equal present pages plus the frames live
    /// backings hold, and present pages never exceed the pool.
    #[test]
    fn the_frame_ledger_balances_after_every_step(
        policy in 0u8..3,
        units in 1u64..=4,
        dirty in 1u64..=ARENA_PAGES / 2,
        lazy in 1u64..=ARENA_PAGES / 2,
        ops in collection::vec(service_op(), 1..60),
    ) {
        let policy =
            [PageSizePolicy::Small, PageSizePolicy::Transparent, PageSizePolicy::HugeOnly]
                [policy as usize];
        let pool = match policy {
            PageSizePolicy::HugeOnly => units.div_ceil(2) * SUBPAGES_PER_LARGE,
            _ => units * REGION_PAGES,
        };
        let cfg = MemConfig {
            page_size: policy,
            gpu_mem_bytes: pool * PAGE_BYTES,
            ..MemConfig::kepler_k20()
        };
        let mut mem = MemSystem::new(cfg, FaultMode::SquashNotify);
        let half = ARENA_PAGES / 2 * PAGE_BYTES;
        mem.page_table.set_range(0, dirty * PAGE_BYTES, PageState::CpuDirty);
        mem.page_table.add_lazy_range(half, lazy * PAGE_BYTES);
        let valid: Vec<u64> = (0..ARENA_PAGES / REGION_PAGES)
            .map(|r| r * REGION_BYTES)
            .filter(|&r| r < dirty * PAGE_BYTES || (r >= half && r < half + lazy * PAGE_BYTES))
            .collect();
        let mut live: Vec<u64> = Vec::new();
        for (step, op) in ops.iter().enumerate() {
            match *op {
                ServiceOp::Back { r, gpu } => {
                    let region = valid[r as usize % valid.len()];
                    let owner = if gpu { AllocOwner::Gpu } else { AllocOwner::Cpu };
                    if mem.back_fault(region, owner).frames.is_some() {
                        live.push(region);
                    }
                }
                ServiceOp::Nack(i) if !live.is_empty() => {
                    mem.give_back(live.remove(i as usize % live.len()));
                }
                ServiceOp::Resolve(i) if !live.is_empty() => {
                    mem.resolve_fault(live.remove(i as usize % live.len()), 0, &mut Vec::new());
                }
                _ => {}
            }
            check_ledger(&mem, pool, &format!("step {step}: {op:?}"));
        }
        // Once every service has landed, nothing is held: the frames in use
        // are exactly the present pages.
        for region in live.drain(..) {
            mem.resolve_fault(region, 0, &mut Vec::new());
        }
        check_ledger(&mem, pool, "the last landing");
        prop_assert_eq!(mem.held_frames(), 0);
    }
}
