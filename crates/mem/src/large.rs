//! Large-page (2 MB) support: constants and the page-size policy knob.
//!
//! Mosaic-style application-transparent huge pages: the memory system
//! keeps 4 KB pages as the base translation granularity and *coalesces*
//! a 2 MB frame's 512 subpages into one large mapping when they are all
//! resident, contiguous in physical memory and owned by one allocator
//! (contiguity-conserving allocation makes that the common case). A
//! write-fault or eviction inside a large page *splinters* it back to
//! 4 KB mappings without stalling the SMs. Fault-handling granularity
//! stays at the 64 KB region ([`crate::page_table::REGION_BYTES`])
//! throughout — large pages change translation reach and fault rate, not
//! the fault protocol.

use crate::config::Cycle;
use gex_isa::PAGE_BYTES;

/// Bytes per large page (the x86/ARM 2 MB leaf).
pub const LARGE_PAGE_BYTES: u64 = 2 * 1024 * 1024;

/// 4 KB subpages per 2 MB frame.
pub const SUBPAGES_PER_LARGE: u64 = LARGE_PAGE_BYTES / PAGE_BYTES;

/// 64 KB fault regions per 2 MB frame.
pub const REGIONS_PER_LARGE: u64 = LARGE_PAGE_BYTES / crate::page_table::REGION_BYTES;

/// Cycles a background coalesce pass takes from trigger to the large
/// mapping going live (page-table rewrite plus the promote shootdown).
/// Faults that land on a frame mid-pass are *held* until the pass
/// settles, never dropped.
pub const COALESCE_CYCLES: Cycle = 2_000;

/// The 2 MB-aligned frame address containing `addr`.
pub fn frame_of(addr: u64) -> u64 {
    addr & !(LARGE_PAGE_BYTES - 1)
}

/// Counters for the large-page machinery (all zero under
/// [`PageSizePolicy::Small`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LpStats {
    /// Background coalesce passes scheduled.
    pub passes: u64,
    /// Frames promoted to one 2 MB mapping.
    pub coalesced: u64,
    /// Large mappings splintered back to 4 KB.
    pub splintered: u64,
    /// Passes cancelled (eviction or shootdown hit the frame mid-pass).
    pub cancelled: u64,
    /// Faults held — not dropped — because their frame had a pass in
    /// flight, then re-dispatched when the pass settled.
    pub held_faults: u64,
    /// Page-table walks that terminated at a 2 MB leaf (one level
    /// shorter than a 4 KB walk).
    pub walks_large: u64,
}

/// Page-size policy for a run (Mosaic's operating modes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PageSizePolicy {
    /// 4 KB pages only — the pre-large-page simulator, byte-for-byte.
    #[default]
    Small,
    /// 4 KB demand paging with transparent background coalescing to 2 MB
    /// (and splintering back under eviction or write faults).
    Transparent,
    /// Faults map the whole 2 MB frame up front: lowest fault rate,
    /// largest per-fault transfer and allocation bloat.
    HugeOnly,
}

impl PageSizePolicy {
    /// Stable lowercase wire token (campaign specs, CLI flags).
    pub fn token(self) -> &'static str {
        match self {
            PageSizePolicy::Small => "small",
            PageSizePolicy::Transparent => "transparent",
            PageSizePolicy::HugeOnly => "hugeonly",
        }
    }

    /// Parse a [`PageSizePolicy::token`] back.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "small" => Some(PageSizePolicy::Small),
            "transparent" => Some(PageSizePolicy::Transparent),
            "hugeonly" => Some(PageSizePolicy::HugeOnly),
            _ => None,
        }
    }

    /// True if the run uses any large-page machinery at all.
    pub fn uses_large_pages(self) -> bool {
        self != PageSizePolicy::Small
    }
}

impl std::fmt::Display for PageSizePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.token())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry() {
        assert_eq!(LARGE_PAGE_BYTES, 2 * 1024 * 1024);
        assert_eq!(SUBPAGES_PER_LARGE, 512);
        assert_eq!(REGIONS_PER_LARGE, 32);
        assert_eq!(frame_of(0), 0);
        assert_eq!(frame_of(LARGE_PAGE_BYTES - 1), 0);
        assert_eq!(frame_of(LARGE_PAGE_BYTES), LARGE_PAGE_BYTES);
        assert_eq!(frame_of(0x1234_5678), 0x1220_0000);
    }

    #[test]
    fn tokens_round_trip() {
        for p in [PageSizePolicy::Small, PageSizePolicy::Transparent, PageSizePolicy::HugeOnly] {
            assert_eq!(PageSizePolicy::parse(p.token()), Some(p));
            assert_eq!(format!("{p}"), p.token());
        }
        assert_eq!(PageSizePolicy::parse("huge"), None);
        assert_eq!(PageSizePolicy::default(), PageSizePolicy::Small);
    }
}
