//! Initial data placement for a kernel launch.
//!
//! A [`Residency`] records where every buffer lives before the kernel
//! starts, in the vocabulary of the paper's demand-paging experiments:
//! input data is dirty in CPU memory (faults migrate it), output buffers
//! are unbacked (first-touch faults), and anything can be pre-mapped to run
//! fault-free.

use gex_mem::system::MemSystem;
use gex_mem::PageState;

/// One placed range of virtual memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Base virtual address.
    pub addr: u64,
    /// Length in bytes.
    pub len: u64,
    /// Initial page state of the range.
    pub state: PageState,
}

/// Initial placement of every buffer a kernel touches.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Residency {
    placements: Vec<Placement>,
    /// Ranges that are lazily backed: unmapped pages fault as first-touch
    /// instead of being invalid (device heap, lazy output buffers).
    lazy: Vec<(u64, u64)>,
}

impl Residency {
    /// An empty residency (every access would be invalid).
    pub fn new() -> Self {
        Residency::default()
    }

    /// Map `addr..addr+len` as resident in GPU memory (no faults).
    pub fn resident(mut self, addr: u64, len: u64) -> Self {
        self.placements.push(Placement { addr, len, state: PageState::Present });
        self
    }

    /// Place `addr..addr+len` in CPU memory with valid data: GPU faults
    /// trigger 64 KB migrations.
    pub fn cpu_dirty(mut self, addr: u64, len: u64) -> Self {
        self.placements.push(Placement { addr, len, state: PageState::CpuDirty });
        self
    }

    /// Mark `addr..addr+len` CPU-owned but clean: faults allocate without a
    /// data transfer.
    pub fn cpu_clean(mut self, addr: u64, len: u64) -> Self {
        self.placements.push(Placement { addr, len, state: PageState::CpuClean });
        self
    }

    /// Mark `addr..addr+len` unbacked: first touch faults, eligible for
    /// GPU-local handling (kernel output buffers, device heap).
    pub fn lazy(mut self, addr: u64, len: u64) -> Self {
        self.lazy.push((addr, len));
        self
    }

    /// Apply this placement to a memory system's page table.
    pub fn apply(&self, mem: &mut MemSystem) {
        for p in &self.placements {
            mem.page_table.set_range(p.addr, p.len, p.state);
        }
        for &(addr, len) in &self.lazy {
            mem.page_table.add_lazy_range(addr, len);
        }
    }

    /// A copy of this placement with every range offset by `offset` —
    /// the residency counterpart of `KernelTrace::rebased`, used by
    /// multi-tenant runs to move a tenant's buffers into its private
    /// address window.
    pub fn rebase(&self, offset: u64) -> Residency {
        Residency {
            placements: self
                .placements
                .iter()
                .map(|p| Placement { addr: p.addr + offset, len: p.len, state: p.state })
                .collect(),
            lazy: self.lazy.iter().map(|&(a, l)| (a + offset, l)).collect(),
        }
    }

    /// Bytes that would need migration from the CPU (dirty placements).
    pub fn dirty_bytes(&self) -> u64 {
        self.placements
            .iter()
            .filter(|p| p.state == PageState::CpuDirty)
            .map(|p| p.len)
            .sum()
    }

    /// The registered placements.
    pub fn placements(&self) -> &[Placement] {
        &self.placements
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gex_mem::system::FaultMode;
    use gex_mem::MemConfig;

    #[test]
    fn apply_sets_page_states() {
        let mut mem = MemSystem::new(MemConfig::kepler_k20().with_sms(1), FaultMode::SquashNotify);
        Residency::new()
            .resident(0x1000, 0x1000)
            .cpu_dirty(0x10_0000, 0x2000)
            .cpu_clean(0x20_0000, 0x1000)
            .lazy(0x4000_0000, 0x1_0000)
            .apply(&mut mem);
        assert_eq!(mem.page_table.state(0x1000), PageState::Present);
        assert_eq!(mem.page_table.state(0x10_0000), PageState::CpuDirty);
        assert_eq!(mem.page_table.state(0x20_0000), PageState::CpuClean);
        assert_eq!(mem.page_table.state(0x4000_0000), PageState::Untouched);
        assert_eq!(mem.page_table.state(0x5000_0000), PageState::Invalid);
    }

    #[test]
    fn dirty_bytes_counts_migration_volume() {
        let r = Residency::new().cpu_dirty(0, 4096).cpu_dirty(8192, 4096).resident(0x100000, 4096);
        assert_eq!(r.dirty_bytes(), 8192);
    }
}
