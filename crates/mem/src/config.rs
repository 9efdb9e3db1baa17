//! Memory-system configuration (Table 1 of the paper).

use crate::large::PageSizePolicy;

/// Simulation time in SM clock cycles (the baseline runs at 1 GHz, so one
/// cycle is one nanosecond).
pub type Cycle = u64;

/// Geometry and timing of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub bytes: u64,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Line size in bytes.
    pub line: u64,
    /// Access latency in cycles.
    pub latency: Cycle,
    /// Miss-status holding registers (outstanding misses).
    pub mshrs: u32,
}

impl CacheConfig {
    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.bytes / (self.line * self.ways as u64)
    }
}

/// Geometry and timing of one TLB level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Total entries.
    pub entries: u32,
    /// Associativity.
    pub ways: u32,
    /// Access latency in cycles (0 means "checked in the same cycle").
    pub latency: Cycle,
    /// Outstanding-miss registers (L2 TLB only in the baseline).
    pub mshrs: u32,
}

impl TlbConfig {
    /// Number of sets.
    pub fn sets(&self) -> u32 {
        self.entries / self.ways
    }
}

/// Full memory-system configuration. [`MemConfig::kepler_k20`] reproduces
/// Table 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemConfig {
    /// Number of SMs sharing the L2 (each gets a private L1 + L1 TLB).
    pub num_sms: u32,
    /// Per-SM L1 data cache.
    pub l1: CacheConfig,
    /// Shared L2 cache.
    pub l2: CacheConfig,
    /// Per-SM L1 TLB.
    pub l1_tlb: TlbConfig,
    /// Shared L2 TLB.
    pub l2_tlb: TlbConfig,
    /// Page-table walkers attached to the fill unit.
    pub num_walkers: u32,
    /// Latency of one page-table walk in cycles.
    pub walk_latency: Cycle,
    /// DRAM access latency in cycles.
    pub dram_latency: Cycle,
    /// DRAM bandwidth in bytes per cycle (256 GB/s at 1 GHz = 256 B/cycle).
    pub dram_bytes_per_cycle: u64,
    /// GPU physical memory in bytes: the memory system's pool of frames
    /// ([`crate::system::MemSystem::phys`]).
    pub gpu_mem_bytes: u64,
    /// Page-size policy: [`PageSizePolicy::Small`] reproduces the 4 KB-only
    /// simulator exactly; the other policies enable the 2 MB machinery in
    /// [`crate::large`].
    pub page_size: PageSizePolicy,
    /// Whether the background coalescer runs under
    /// [`PageSizePolicy::Transparent`]. With `false`, `Transparent` builds
    /// the large-page structures but never promotes, degrading to `Small`
    /// behaviour (the equivalence keystone exercises exactly this).
    pub coalesce: bool,
}

impl MemConfig {
    /// The Table 1 baseline: a Kepler K20-like memory system with 16 SMs.
    pub fn kepler_k20() -> Self {
        MemConfig {
            num_sms: 16,
            l1: CacheConfig {
                bytes: 32 * 1024,
                ways: 4,
                line: 128,
                latency: 40,
                mshrs: 32,
            },
            l2: CacheConfig {
                bytes: 2 * 1024 * 1024,
                ways: 8,
                line: 128,
                latency: 70,
                mshrs: 512,
            },
            l1_tlb: TlbConfig { entries: 32, ways: 8, latency: 1, mshrs: 0 },
            l2_tlb: TlbConfig { entries: 1024, ways: 8, latency: 70, mshrs: 128 },
            num_walkers: 64,
            walk_latency: 500,
            dram_latency: 200,
            dram_bytes_per_cycle: 256,
            gpu_mem_bytes: 4 * 1024 * 1024 * 1024,
            page_size: PageSizePolicy::Small,
            coalesce: true,
        }
    }

    /// Scale the configuration to `n` SMs, keeping per-SM structures fixed
    /// (Section 5.5's scalability discussion varies only the SM count).
    pub fn with_sms(mut self, n: u32) -> Self {
        self.num_sms = n;
        self
    }
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig::kepler_k20()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_1_values() {
        let c = MemConfig::kepler_k20();
        assert_eq!(c.num_sms, 16);
        assert_eq!(c.l1.bytes, 32 * 1024);
        assert_eq!(c.l1.ways, 4);
        assert_eq!(c.l1.line, 128);
        assert_eq!(c.l1.latency, 40);
        assert_eq!(c.l1.mshrs, 32);
        assert_eq!(c.l2.bytes, 2 * 1024 * 1024);
        assert_eq!(c.l2.ways, 8);
        assert_eq!(c.l2.latency, 70);
        assert_eq!(c.l2.mshrs, 512);
        assert_eq!(c.l1_tlb.entries, 32);
        assert_eq!(c.l1_tlb.ways, 8);
        assert_eq!(c.l2_tlb.entries, 1024);
        assert_eq!(c.l2_tlb.mshrs, 128);
        assert_eq!(c.num_walkers, 64);
        assert_eq!(c.walk_latency, 500);
        assert_eq!(c.dram_latency, 200);
        assert_eq!(c.dram_bytes_per_cycle, 256);
    }

    #[test]
    fn derived_geometry() {
        let c = MemConfig::kepler_k20();
        assert_eq!(c.l1.sets(), 64); // 32KB / (128B * 4)
        assert_eq!(c.l2.sets(), 2048);
        assert_eq!(c.l1_tlb.sets(), 4);
        assert_eq!(c.l2_tlb.sets(), 128);
    }
}
