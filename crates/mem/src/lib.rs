//! # gex-mem — the GPU memory system
//!
//! Cycle-level models of everything below the SM's load/store unit in the
//! baseline GPU of the paper (Figure 1 and Table 1):
//!
//! * per-SM L1 data caches and a shared L2, both set-associative with true
//!   LRU and finite [MSHR](mshr::MshrTable) tables;
//! * per-SM L1 TLBs, a shared L2 TLB and a fill unit with a pool of
//!   page-table walkers;
//! * a bandwidth/latency [DRAM channel](dram::Dram);
//! * the GPU [page table](page_table::PageTable) with the page-ownership
//!   states demand paging needs, and the fill unit's global
//!   [pending-fault queue](fault::FaultQueue);
//! * a [physical-frame allocator](phys::PhysAllocator) that [`MemSystem`]
//!   owns, behind the one backing path and frame ledger both the
//!   CPU-driver and GPU-local fault handlers use ([`MemSystem::back_fault`]);
//! * the simulator's one event queue, the [`EventWheel`] timing wheel that
//!   both [`MemSystem`] and the SM pipeline schedule on.
//!
//! The central type is [`MemSystem`], which SMs drive
//! with coalesced warp accesses and which reports the three events the
//! paper's pipeline schemes hinge on: *last TLB check*, *fault* and *data
//! complete*.

#![warn(missing_docs)]

pub mod config;
pub mod dram;
pub mod fault;
pub mod large;
pub mod mshr;
pub mod page_table;
pub mod phys;
pub mod setassoc;
pub mod system;
pub mod tlb;
pub mod wheel;

pub use config::{CacheConfig, Cycle, MemConfig, TlbConfig};
pub use fault::{FaultAdmission, FaultEntry, FaultKind, FaultQueue};
pub use large::{
    frame_of, LpStats, PageSizePolicy, LARGE_PAGE_BYTES, REGIONS_PER_LARGE, SUBPAGES_PER_LARGE,
};
pub use page_table::{region_of, PageState, PageTable, REGION_BYTES, REGION_PAGES};
pub use system::{AccessEvent, AccessKind, AccessToken, FaultMode, MemError, MemStats, MemSystem};
pub use tlb::TlbSizeStats;
pub use wheel::EventWheel;
