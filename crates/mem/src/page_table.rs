//! The GPU page table and page-ownership states.
//!
//! Demand paging (paper Section 2.3) distinguishes:
//!
//! * pages **present** in GPU memory — accesses translate normally;
//! * pages **owned by the CPU and dirty** — a fault triggers allocation *and*
//!   a data transfer over the interconnect;
//! * pages **owned by the CPU but clean** — a fault needs only allocation
//!   and page-table updates ("pages not dirty in the CPU page table",
//!   Section 5.3);
//! * pages **untouched** — never written by anyone, e.g. kernel output
//!   buffers or device `malloc` backing store; these are the faults the
//!   paper's use case 2 handles on the GPU itself;
//! * everything else is **invalid** — an access aborts the kernel.

use crate::large::{frame_of, SUBPAGES_PER_LARGE};
use gex_isa::PAGE_BYTES;
use std::collections::{HashMap, HashSet};
use std::ops::Range;

/// Pages per 64 KB fault-handling region (Section 5.1 handles faults at a
/// 64 KB granularity to amortize the per-fault cost).
pub const REGION_PAGES: u64 = 16;

/// Bytes per fault-handling region.
pub const REGION_BYTES: u64 = REGION_PAGES * PAGE_BYTES;

/// The 64 KB region address containing `addr`.
pub fn region_of(addr: u64) -> u64 {
    addr & !(REGION_BYTES - 1)
}

/// Ownership / residency state of one virtual page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageState {
    /// Mapped in GPU memory; accesses translate.
    Present,
    /// CPU-resident with data the GPU needs: fault requires migration.
    CpuDirty,
    /// CPU-owned but never written: fault requires allocation only.
    CpuClean,
    /// No physical backing anywhere: first-touch fault, eligible for
    /// GPU-local handling (use case 2).
    Untouched,
    /// Not part of any allocation: access is an error.
    Invalid,
}

impl PageState {
    /// True if a fault on this page needs a data transfer from the CPU.
    pub fn needs_transfer(self) -> bool {
        self == PageState::CpuDirty
    }

    /// True if the GPU-local handler may resolve this fault without
    /// involving the CPU (Section 4.2: the page is not owned by the CPU).
    pub fn local_eligible(self) -> bool {
        self == PageState::Untouched
    }
}

/// The GPU page table: virtual page -> state, plus migration bookkeeping.
///
/// Pages default to [`PageState::Untouched`] if they fall inside a
/// registered *lazy* range (heap / output buffers) and
/// [`PageState::Invalid`] otherwise.
#[derive(Debug, Clone, Default)]
pub struct PageTable {
    pages: HashMap<u64, PageState>,
    lazy_ranges: Vec<Range<u64>>,
    /// Regions in mapping order (oldest first) — the eviction order under
    /// memory oversubscription.
    region_order: Vec<u64>,
    /// Frames ([`frame_of`]) promoted to one 2 MB leaf mapping covering
    /// all 512 subpages. A promoted frame's subpages were all `Present`,
    /// so splintering re-inserts 512 `Present` entries. Empty under
    /// `PageSizePolicy::Small`.
    large: HashSet<u64>,
    /// Frames promoted to 2 MB so far.
    coalesces: u64,
    /// Large mappings demoted back to 4 KB so far.
    splinters: u64,
}

impl PageTable {
    /// An empty page table.
    pub fn new() -> Self {
        PageTable::default()
    }

    /// Set every page overlapping `addr..addr+len` to `state`.
    pub fn set_range(&mut self, addr: u64, len: u64, state: PageState) {
        let first = gex_isa::page_of(addr);
        let last = gex_isa::page_of(addr + len.max(1) - 1);
        let mut p = first;
        while p <= last {
            self.pages.insert(p, state);
            p += PAGE_BYTES;
        }
    }

    /// Register `addr..addr+len` as lazily allocated: unmapped pages inside
    /// it read as [`PageState::Untouched`] rather than invalid.
    pub fn add_lazy_range(&mut self, addr: u64, len: u64) {
        self.lazy_ranges.push(addr..addr + len);
    }

    /// Current state of the page containing `addr`.
    pub fn state(&self, addr: u64) -> PageState {
        let page = gex_isa::page_of(addr);
        if !self.large.is_empty() && self.large.contains(&frame_of(page)) {
            return PageState::Present;
        }
        if let Some(&s) = self.pages.get(&page) {
            return s;
        }
        if self.lazy_ranges.iter().any(|r| r.contains(&page)) {
            PageState::Untouched
        } else {
            PageState::Invalid
        }
    }

    /// True if the page containing `addr` translates without faulting.
    pub fn present(&self, addr: u64) -> bool {
        self.state(addr) == PageState::Present
    }

    /// Map one page as present (after allocation / migration completes).
    pub fn map_page(&mut self, addr: u64) {
        self.pages.insert(gex_isa::page_of(addr), PageState::Present);
    }

    /// Map the whole 64 KB region containing `addr` (the paper's fault
    /// handling granularity). Pages of the region that are `Invalid` stay
    /// invalid. Returns the number of pages newly mapped.
    pub fn map_region(&mut self, addr: u64) -> u32 {
        let base = region_of(addr);
        let mut mapped = 0;
        for i in 0..REGION_PAGES {
            let page = base + i * PAGE_BYTES;
            match self.state(page) {
                PageState::Present | PageState::Invalid => {}
                _ => {
                    self.map_page(page);
                    mapped += 1;
                }
            }
        }
        if mapped > 0 {
            self.region_order.retain(|&r| r != base);
            self.region_order.push(base);
        }
        mapped
    }

    /// Evict the oldest-mapped region other than `except` (memory
    /// oversubscription): its present pages return to CPU ownership (dirty,
    /// since the GPU may have written them) and will re-fault as migrations
    /// if touched again. Returns the evicted region and its page count.
    pub fn evict_oldest_region(&mut self, except: u64) -> Option<(u64, u32)> {
        let pos = self.region_order.iter().position(|&r| r != region_of(except))?;
        let victim = self.region_order.remove(pos);
        // Eviction granularity stays 64 KB: a victim inside a 2 MB mapping
        // splinters the mapping back to 4 KB entries first.
        if !self.large.is_empty() {
            self.splinter(frame_of(victim));
        }
        let mut evicted = 0;
        for i in 0..REGION_PAGES {
            let page = victim + i * PAGE_BYTES;
            if self.pages.get(&page) == Some(&PageState::Present) {
                self.pages.insert(page, PageState::CpuDirty);
                evicted += 1;
            }
        }
        Some((victim, evicted))
    }

    /// Regions currently resident (mapping order, oldest first).
    pub fn resident_regions(&self) -> &[u64] {
        &self.region_order
    }

    /// Number of present pages (subpages under a 2 MB mapping included).
    pub fn present_pages(&self) -> usize {
        self.pages.values().filter(|&&s| s == PageState::Present).count()
            + self.large.len() * SUBPAGES_PER_LARGE as usize
    }

    /// Promote the 2 MB frame at `frame` ([`frame_of`]-aligned) to one
    /// large mapping if *all* 512 subpages are currently `Present`. The
    /// subpages' 4 KB entries give way to the one mapping; region-order
    /// eviction accounting is untouched (fault and eviction granularity
    /// stay 64 KB). Returns whether the promotion happened.
    ///
    /// The caller gates on the physical side
    /// ([`crate::phys::PhysAllocator::frame_coalescible`]) — the page
    /// table only checks residency.
    pub fn try_coalesce(&mut self, frame: u64) -> bool {
        let frame = frame_of(frame);
        if self.large.contains(&frame) {
            return false;
        }
        let all_present = (0..SUBPAGES_PER_LARGE)
            .all(|i| self.pages.get(&(frame + i * PAGE_BYTES)) == Some(&PageState::Present));
        if !all_present {
            return false;
        }
        for i in 0..SUBPAGES_PER_LARGE {
            self.pages.remove(&(frame + i * PAGE_BYTES));
        }
        self.large.insert(frame);
        self.coalesces += 1;
        true
    }

    /// Demote the 2 MB mapping at `frame` back to its 512 4 KB entries,
    /// all `Present` as they were before [`PageTable::try_coalesce`]
    /// (splinter ∘ coalesce = identity). No-op if the frame is not
    /// large-mapped.
    pub fn splinter(&mut self, frame: u64) -> bool {
        let frame = frame_of(frame);
        if !self.large.remove(&frame) {
            return false;
        }
        for i in 0..SUBPAGES_PER_LARGE {
            self.pages.insert(frame + i * PAGE_BYTES, PageState::Present);
        }
        self.splinters += 1;
        true
    }

    /// True if `addr` is covered by a 2 MB mapping.
    pub fn large_mapped(&self, addr: u64) -> bool {
        !self.large.is_empty() && self.large.contains(&frame_of(addr))
    }

    /// True if every subpage of `addr`'s 2 MB frame translates (either via
    /// one large mapping or 512 present 4 KB entries).
    pub fn frame_fully_resident(&self, addr: u64) -> bool {
        let frame = frame_of(addr);
        if self.large.contains(&frame) {
            return true;
        }
        (0..SUBPAGES_PER_LARGE)
            .all(|i| self.pages.get(&(frame + i * PAGE_BYTES)) == Some(&PageState::Present))
    }

    /// Subpages of `addr`'s 2 MB frame that a `HugeOnly` fault would newly
    /// map (everything not already present and not invalid).
    pub fn frame_mappable_pages(&self, addr: u64) -> u64 {
        let frame = frame_of(addr);
        (0..SUBPAGES_PER_LARGE)
            .filter(|i| {
                !matches!(
                    self.state(frame + i * PAGE_BYTES),
                    PageState::Present | PageState::Invalid
                )
            })
            .count() as u64
    }

    /// Frames promoted to 2 MB mappings so far.
    pub fn coalesced_frames(&self) -> u64 {
        self.coalesces
    }

    /// Large mappings splintered back to 4 KB so far.
    pub fn splintered_frames(&self) -> u64 {
        self.splinters
    }

    /// Pages of the 64 KB region containing `addr` that need a data
    /// transfer if the region faults now.
    pub fn region_transfer_pages(&self, addr: u64) -> u32 {
        let base = region_of(addr);
        (0..REGION_PAGES)
            .filter(|i| self.state(base + i * PAGE_BYTES).needs_transfer())
            .count() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_math() {
        assert_eq!(REGION_BYTES, 64 * 1024);
        assert_eq!(region_of(0), 0);
        assert_eq!(region_of(65535), 0);
        assert_eq!(region_of(65536), 65536);
        assert_eq!(region_of(0x12_3456), 0x12_0000);
    }

    #[test]
    fn unknown_pages_are_invalid_unless_lazy() {
        let mut pt = PageTable::new();
        assert_eq!(pt.state(0x1000), PageState::Invalid);
        pt.add_lazy_range(0x1000, 0x2000);
        assert_eq!(pt.state(0x1000), PageState::Untouched);
        assert_eq!(pt.state(0x2fff), PageState::Untouched);
        assert_eq!(pt.state(0x3000), PageState::Invalid);
    }

    #[test]
    fn set_range_covers_partial_pages() {
        let mut pt = PageTable::new();
        pt.set_range(0x1800, 0x1000, PageState::CpuDirty); // straddles 2 pages
        assert_eq!(pt.state(0x1000), PageState::CpuDirty);
        assert_eq!(pt.state(0x2000), PageState::CpuDirty);
        assert_eq!(pt.state(0x3000), PageState::Invalid);
    }

    #[test]
    fn map_region_skips_present_and_invalid() {
        let mut pt = PageTable::new();
        // Region 0: pages 0..16. Mark pages 0..8 dirty, page 8 present,
        // leave 9..16 invalid.
        pt.set_range(0, 8 * PAGE_BYTES, PageState::CpuDirty);
        pt.map_page(8 * PAGE_BYTES);
        let mapped = pt.map_region(0);
        assert_eq!(mapped, 8);
        assert!(pt.present(0));
        assert!(pt.present(7 * PAGE_BYTES));
        assert!(pt.present(8 * PAGE_BYTES));
        assert_eq!(pt.state(9 * PAGE_BYTES), PageState::Invalid);
        assert_eq!(pt.present_pages(), 9);
    }

    #[test]
    fn eviction_returns_pages_to_cpu_dirty() {
        let mut pt = PageTable::new();
        pt.set_range(0, 2 * REGION_BYTES, PageState::CpuClean);
        pt.map_region(0);
        pt.map_region(REGION_BYTES);
        assert_eq!(pt.resident_regions(), &[0, REGION_BYTES]);
        // `except` protects the region being faulted in right now.
        let (victim, pages) = pt.evict_oldest_region(REGION_BYTES + 4096).unwrap();
        assert_eq!(victim, 0);
        assert_eq!(pages as u64, REGION_PAGES);
        assert_eq!(pt.state(0), PageState::CpuDirty, "evicted pages re-fault as migrations");
        assert!(pt.present(REGION_BYTES));
        assert_eq!(pt.resident_regions(), &[REGION_BYTES]);
    }

    #[test]
    fn coalesce_requires_all_subpages_present() {
        let mut pt = PageTable::new();
        let frame_bytes = SUBPAGES_PER_LARGE * PAGE_BYTES;
        pt.set_range(0, frame_bytes, PageState::CpuClean);
        for r in 0..frame_bytes / REGION_BYTES {
            if r == 5 {
                continue; // leave one region unmapped
            }
            pt.map_region(r * REGION_BYTES);
        }
        assert!(!pt.try_coalesce(0));
        pt.map_region(5 * REGION_BYTES);
        assert!(pt.try_coalesce(0));
        assert!(pt.large_mapped(12345));
        assert!(pt.present(7 * REGION_BYTES));
        assert_eq!(pt.present_pages(), SUBPAGES_PER_LARGE as usize);
        assert_eq!(pt.coalesced_frames(), 1);
        // Second promote of the same frame is a no-op.
        assert!(!pt.try_coalesce(0));
    }

    #[test]
    fn splinter_is_exact_inverse() {
        let mut pt = PageTable::new();
        let frame_bytes = SUBPAGES_PER_LARGE * PAGE_BYTES;
        pt.set_range(0, frame_bytes, PageState::CpuClean);
        for r in 0..frame_bytes / REGION_BYTES {
            pt.map_region(r * REGION_BYTES);
        }
        let before = pt.clone();
        assert!(pt.try_coalesce(0));
        assert!(pt.splinter(0));
        assert!(!pt.large_mapped(0));
        for r in 0..frame_bytes / REGION_BYTES {
            for i in 0..REGION_PAGES {
                let addr = r * REGION_BYTES + i * PAGE_BYTES;
                assert_eq!(pt.state(addr), before.state(addr));
            }
        }
        assert_eq!(pt.resident_regions(), before.resident_regions());
        assert!(!pt.splinter(0), "double splinter is a no-op");
    }

    #[test]
    fn eviction_splinters_large_mapping_first() {
        let mut pt = PageTable::new();
        let frame_bytes = SUBPAGES_PER_LARGE * PAGE_BYTES;
        pt.set_range(0, frame_bytes, PageState::CpuClean);
        for r in 0..frame_bytes / REGION_BYTES {
            pt.map_region(r * REGION_BYTES);
        }
        assert!(pt.try_coalesce(0));
        // Evict the oldest region: the 2 MB mapping must splinter so the
        // other 31 regions stay present as 4 KB pages.
        let (victim, pages) = pt.evict_oldest_region(u64::MAX).unwrap();
        assert_eq!(victim, 0);
        assert_eq!(pages as u64, REGION_PAGES);
        assert!(!pt.large_mapped(0));
        assert_eq!(pt.splintered_frames(), 1);
        assert_eq!(pt.state(0), PageState::CpuDirty);
        assert!(pt.present(REGION_BYTES));
    }

    #[test]
    fn transfer_classification() {
        let mut pt = PageTable::new();
        pt.set_range(0, 4 * PAGE_BYTES, PageState::CpuDirty);
        pt.set_range(4 * PAGE_BYTES, 4 * PAGE_BYTES, PageState::CpuClean);
        assert_eq!(pt.region_transfer_pages(0), 4);
        assert!(PageState::CpuDirty.needs_transfer());
        assert!(!PageState::CpuClean.needs_transfer());
        assert!(PageState::Untouched.local_eligible());
        assert!(!PageState::CpuClean.local_eligible());
    }
}
