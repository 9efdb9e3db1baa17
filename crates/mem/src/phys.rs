//! GPU physical memory allocator.
//!
//! [`crate::system::MemSystem`] owns the one pool, sized from
//! [`crate::MemConfig::gpu_mem_bytes`], and both fault handlers — the CPU
//! driver path and the GPU-local handler of use case 2 — back their
//! regions from it through its one backing path
//! ([`crate::system::MemSystem::back_fault`]). The real system of Section
//! 4.2 partitions the physical address space and uses lock-free structures
//! to avoid contention; our simulator is single-threaded, so the allocator
//! models *capacity* and provides the partitioning/accounting, while the
//! handlers' latency models capture the cost of the synchronization.
//! Under `PageSizePolicy::Small` nothing asks whether a block stayed
//! contiguous and no frame number is read: only the capacity shows.

use crate::large::SUBPAGES_PER_LARGE;
use gex_isa::PAGE_BYTES;
use std::collections::BTreeMap;

/// Who performed an allocation (for the paper's use-case-2 accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllocOwner {
    /// The CPU driver fault handler.
    Cpu,
    /// The GPU-local fault handler running on an SM.
    Gpu,
}

/// An allocator over GPU physical page frames with per-owner stats.
///
/// Frames are fungible for timing purposes: allocation tracks occupancy
/// and carves frame numbers out of per-frame blocks; [`PhysAllocator::free`]
/// returns capacity to the pool (memory oversubscription support — evicted
/// regions free their frames, and a NACKed fault service gives back the
/// frames it was admitted with).
#[derive(Debug, Clone)]
pub struct PhysAllocator {
    total_frames: u64,
    next_frame: u64,
    in_use: u64,
    cpu_frames: u64,
    gpu_frames: u64,
    freed: u64,
    /// Contiguity-conserving blocks, keyed by the 2 MB virtual frame they
    /// back ([`crate::large::frame_of`]).
    blocks: BTreeMap<u64, Block>,
}

/// One 2 MB-aligned physical block reserved for a single virtual frame
/// (Mosaic's contiguity-conserving allocation): all of the frame's
/// subpages land inside it, so promoting the frame to one large mapping
/// needs no copying.
#[derive(Debug, Clone)]
struct Block {
    /// First physical frame number; aligned to [`SUBPAGES_PER_LARGE`].
    base: u64,
    /// Frames carved out of the block so far, less those given back
    /// unmapped.
    carved: u64,
    /// Frames currently live (carved minus freed).
    live: u64,
    /// Owner of every carve so far; mixing owners breaks contiguity.
    owner: AllocOwner,
    /// Set when contiguity is lost: a carve spilled outside the block, a
    /// partial free of mapped frames punched a hole, or owners mixed.
    broken: bool,
}

impl PhysAllocator {
    /// An allocator over `bytes` of GPU physical memory.
    pub fn new(bytes: u64) -> Self {
        PhysAllocator {
            total_frames: bytes / PAGE_BYTES,
            next_frame: 0,
            in_use: 0,
            cpu_frames: 0,
            gpu_frames: 0,
            freed: 0,
            blocks: BTreeMap::new(),
        }
    }

    /// Allocate `frames` physical frames for virtual frame `key`
    /// ([`crate::large::frame_of`] of the faulting address). Returns the
    /// first frame number, or `None` if the pool is exhausted.
    ///
    /// Contiguity-conserving (Mosaic, Section 4): the frames are carved out
    /// of the 2 MB block reserved for `key`, creating the block — 2 MB-
    /// aligned — on first touch. Once the block can no longer satisfy a
    /// carve contiguously (full, freed-into, or touched by a different
    /// owner) it is marked broken and the carve falls back to a plain bump
    /// allocation; the frame then stays 4 KB-mapped forever (until fully
    /// freed, which resets the block). Only carved frames count against
    /// the pool, so every policy sees the same occupancy for the same
    /// resident set.
    pub fn alloc(&mut self, key: u64, frames: u64, owner: AllocOwner) -> Option<u64> {
        if self.in_use + frames > self.total_frames {
            return None;
        }
        if !self.blocks.contains_key(&key) {
            let base = self.next_frame.next_multiple_of(SUBPAGES_PER_LARGE);
            self.next_frame = base + SUBPAGES_PER_LARGE;
            self.blocks.insert(key, Block { base, carved: 0, live: 0, owner, broken: false });
        }
        let block = self.blocks.get_mut(&key).expect("block just ensured");
        if block.owner != owner {
            block.broken = true;
        }
        let carve = if !block.broken && block.carved + frames <= SUBPAGES_PER_LARGE {
            Some(block.base + block.carved)
        } else {
            // Contiguity lost: spill outside the block.
            block.broken = true;
            None
        };
        block.carved += frames;
        block.live += frames;
        let first = match carve {
            Some(f) => f,
            None => {
                let f = self.next_frame;
                self.next_frame += frames;
                f
            }
        };
        self.in_use += frames;
        match owner {
            AllocOwner::Cpu => self.cpu_frames += frames,
            AllocOwner::Gpu => self.gpu_frames += frames,
        }
        Some(first)
    }

    /// Return `frames` of virtual frame `key`'s block to the pool. Frames
    /// that backed `mapped` pages (an evicted region) leave a hole: a
    /// partial free breaks the block for coalescing. Frames never mapped
    /// (a NACKed service's) go back to the block's carve count, so the
    /// service's retry carves them again. Freeing the last live frame
    /// retires the block so a future re-fault starts a fresh contiguous
    /// one.
    pub fn free(&mut self, key: u64, frames: u64, mapped: bool) {
        debug_assert!(self.in_use >= frames, "freeing more frames than in use");
        self.in_use -= frames;
        self.freed += frames;
        if let Some(block) = self.blocks.get_mut(&key) {
            block.live = block.live.saturating_sub(frames);
            if block.live == 0 {
                self.blocks.remove(&key);
            } else if mapped {
                block.broken = true;
            } else {
                block.carved -= frames;
            }
        }
    }

    /// True if virtual frame `key`'s 512 subpages sit in one unbroken
    /// physical block under a single owner — the physical-side gate for
    /// coalescing it into a 2 MB mapping.
    pub fn frame_coalescible(&self, key: u64) -> bool {
        self.blocks.get(&key).is_some_and(|b| {
            !b.broken && b.carved == SUBPAGES_PER_LARGE && b.live == SUBPAGES_PER_LARGE
        })
    }

    /// Frames still available.
    pub fn free_frames(&self) -> u64 {
        self.total_frames - self.in_use
    }

    /// Frames freed so far (evictions and NACKed services).
    pub fn freed_frames(&self) -> u64 {
        self.freed
    }

    /// Frames allocated by the CPU handler.
    pub fn cpu_frames(&self) -> u64 {
        self.cpu_frames
    }

    /// Frames allocated by the GPU-local handler.
    pub fn gpu_frames(&self) -> u64 {
        self.gpu_frames
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_until_exhaustion() {
        let mut a = PhysAllocator::new(4 * PAGE_BYTES);
        assert_eq!(a.alloc(0, 2, AllocOwner::Cpu), Some(0));
        assert!(a.alloc(0, 1, AllocOwner::Gpu).is_some());
        assert_eq!(a.free_frames(), 1);
        assert_eq!(a.alloc(0, 2, AllocOwner::Gpu), None);
        assert!(a.alloc(0, 1, AllocOwner::Gpu).is_some());
        assert_eq!(a.cpu_frames(), 2);
        assert_eq!(a.gpu_frames(), 2);
    }

    #[test]
    fn freeing_returns_capacity() {
        let mut a = PhysAllocator::new(2 * PAGE_BYTES);
        assert!(a.alloc(0, 2, AllocOwner::Cpu).is_some());
        assert_eq!(a.alloc(0, 1, AllocOwner::Cpu), None);
        a.free(0, 1, true);
        assert_eq!(a.free_frames(), 1);
        assert!(a.alloc(0, 1, AllocOwner::Gpu).is_some());
        assert_eq!(a.freed_frames(), 1);
    }

    #[test]
    fn contiguous_carves_fill_one_block() {
        let mut a = PhysAllocator::new(4096 * PAGE_BYTES);
        let key = 0x40_0000;
        let mut first = None;
        for i in 0..32u64 {
            let f = a.alloc(key, 16, AllocOwner::Cpu).unwrap();
            let base = *first.get_or_insert(f);
            assert_eq!(f, base + i * 16, "carves stay contiguous");
        }
        assert!(a.frame_coalescible(key));
        assert_eq!(a.cpu_frames(), 512);
        // One more carve overflows the block and breaks it.
        assert!(a.alloc(key, 16, AllocOwner::Cpu).is_some());
        assert!(!a.frame_coalescible(key));
    }

    #[test]
    fn mixed_owner_breaks_contiguity() {
        let mut a = PhysAllocator::new(4096 * PAGE_BYTES);
        for _ in 0..31 {
            a.alloc(7, 16, AllocOwner::Cpu).unwrap();
        }
        a.alloc(7, 16, AllocOwner::Gpu).unwrap();
        assert!(!a.frame_coalescible(7));
    }

    #[test]
    fn partial_free_breaks_full_free_resets() {
        let mut a = PhysAllocator::new(4096 * PAGE_BYTES);
        for _ in 0..32 {
            a.alloc(9, 16, AllocOwner::Cpu).unwrap();
        }
        assert!(a.frame_coalescible(9));
        a.free(9, 16, true);
        assert!(!a.frame_coalescible(9));
        for _ in 0..31 {
            a.free(9, 16, true);
        }
        // Fully evicted: a re-fault starts a fresh contiguous block.
        for _ in 0..32 {
            a.alloc(9, 16, AllocOwner::Cpu).unwrap();
        }
        assert!(a.frame_coalescible(9));
    }

    #[test]
    fn blocks_do_not_disturb_plain_alloc_accounting() {
        let mut a = PhysAllocator::new(1024 * PAGE_BYTES);
        a.alloc(0, 16, AllocOwner::Cpu).unwrap();
        assert_eq!(a.free_frames(), 1024 - 16);
        assert!(a.alloc(0x40_0000, 1024 - 16, AllocOwner::Gpu).is_some());
        assert_eq!(a.alloc(0x40_0000, 1, AllocOwner::Gpu), None);
        assert_eq!(a.alloc(0x20_0000, 1, AllocOwner::Cpu), None);
    }

    #[test]
    fn frame_numbers_never_overlap() {
        let mut a = PhysAllocator::new(1024 * PAGE_BYTES);
        let mut seen = std::collections::HashSet::new();
        for i in 0..64 {
            let owner = if i % 2 == 0 { AllocOwner::Cpu } else { AllocOwner::Gpu };
            let first = a.alloc(i % 3, 16, owner).unwrap();
            for f in first..first + 16 {
                assert!(seen.insert(f), "frame {f} double-allocated");
            }
        }
    }
}
