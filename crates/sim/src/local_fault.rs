//! GPU-local handling of first-touch faults (use case 2, Section 4.2).
//!
//! When a warp faults on a page that is not owned by the CPU, the warp
//! switches to system mode and runs the fault handler itself: it marks the
//! region GPU-owned, allocates physical memory, updates the GPU page table
//! and restarts — all without interrupting the CPU. The measured prototype
//! handler costs 20 us (Section 5.4), an order of magnitude more than the
//! CPU handler, but handlers run *concurrently* on every faulting SM, which
//! is the throughput win the paper reports.

use gex_mem::phys::{AllocOwner, PhysAllocator};
use gex_mem::system::MemSystem;
use gex_mem::{Cycle, FaultKind, REGION_PAGES};

/// Configuration of the GPU-local fault handler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalFaultConfig {
    /// Latency of one handler execution (paper: 20 us = 20000 cycles).
    pub handler_cycles: Cycle,
}

impl Default for LocalFaultConfig {
    fn default() -> Self {
        LocalFaultConfig { handler_cycles: 20_000 }
    }
}

/// Counters kept by the local handler.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LocalFaultStats {
    /// Regions resolved on the GPU.
    pub resolved: u64,
    /// Peak concurrent handler executions.
    pub peak_concurrency: u64,
    /// Regions evicted to make room (memory oversubscription).
    pub evictions: u64,
}

/// In-flight GPU-local handler executions.
#[derive(Debug)]
pub struct LocalFaultState {
    cfg: LocalFaultConfig,
    running: Vec<(Cycle, u64)>,
    stats: LocalFaultStats,
}

impl LocalFaultState {
    /// New state with the given configuration.
    pub fn new(cfg: LocalFaultConfig) -> Self {
        LocalFaultState {
            cfg,
            running: Vec::new(),
            stats: LocalFaultStats::default(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> LocalFaultStats {
        self.stats
    }

    /// Try to claim the fault on `region` for local handling. Only
    /// first-touch faults qualify (CPU-owned pages still go to the CPU,
    /// Section 4.2). Returns true if the region is now being handled
    /// locally.
    pub fn try_claim(&mut self, now: Cycle, region: u64, mem: &mut MemSystem) -> bool {
        let Some(entry) = mem.fault_queue.get(region) else {
            // Already claimed (by us or the CPU) — the waiter merges.
            return self.running.iter().any(|&(_, r)| r == region);
        };
        if entry.kind != FaultKind::FirstTouch {
            return false;
        }
        mem.fault_queue.take(region).expect("entry just seen");
        self.running.push((now + self.cfg.handler_cycles, region));
        self.stats.peak_concurrency = self.stats.peak_concurrency.max(self.running.len() as u64);
        true
    }

    /// Advance to `now`, resolving finished handlers. Returns the regions
    /// resolved this cycle for broadcast. `phys` provides the frames the
    /// handler allocates.
    pub fn tick(&mut self, now: Cycle, mem: &mut MemSystem, phys: &mut PhysAllocator) -> Vec<u64> {
        let mut done = Vec::new();
        let mut i = 0;
        while i < self.running.len() {
            let (when, region) = self.running[i];
            if when <= now {
                // The handler allocates physical memory, evicting the
                // oldest region if the GPU memory is oversubscribed (the
                // eviction cost is folded into the 20 us handler estimate).
                let mut ok = true;
                while phys.alloc(REGION_PAGES, AllocOwner::Gpu).is_none() {
                    match mem.page_table.evict_oldest_region(region) {
                        Some((victim, pages)) => {
                            mem.shootdown_region(victim);
                            phys.free(pages as u64);
                            self.stats.evictions += 1;
                        }
                        None => {
                            // Everything resident is still in flight; spin
                            // the handler a little longer and retry.
                            self.running[i].0 = now + 1_000;
                            ok = false;
                            break;
                        }
                    }
                }
                if ok {
                    self.running.swap_remove(i);
                    mem.resolve_region(region, now);
                    done.push(region);
                } else {
                    i += 1;
                }
            } else {
                i += 1;
            }
        }
        self.stats.resolved += done.len() as u64;
        done
    }

    /// True if no handler is running.
    pub fn idle(&self) -> bool {
        self.running.is_empty()
    }

    /// Earliest handler completion, for skip-ahead.
    pub fn next_event_cycle(&self) -> Option<Cycle> {
        self.running.iter().map(|&(w, _)| w).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gex_mem::system::FaultMode;
    use gex_mem::{MemConfig, PageState, REGION_BYTES};

    fn setup() -> (MemSystem, PhysAllocator) {
        let mut mem = MemSystem::new(MemConfig::kepler_k20(), FaultMode::SquashNotify);
        mem.page_table.add_lazy_range(0, 1 << 24);
        mem.page_table.set_range(1 << 24, 1 << 20, PageState::CpuDirty);
        (mem, PhysAllocator::new(1 << 30))
    }

    #[test]
    fn claims_first_touch_but_not_migrations() {
        let (mut mem, _phys) = setup();
        mem.fault_queue.report(0, FaultKind::FirstTouch, 0, 0);
        mem.fault_queue.report(1 << 24, FaultKind::Migration, 0, 0);
        let mut local = LocalFaultState::new(LocalFaultConfig::default());
        assert!(local.try_claim(0, 0, &mut mem));
        assert!(!local.try_claim(0, 1 << 24, &mut mem), "migrations stay with the CPU");
        assert_eq!(mem.fault_queue.len(), 1, "migration still queued for the CPU");
    }

    #[test]
    fn handlers_run_concurrently() {
        let (mut mem, mut phys) = setup();
        for i in 0..8u64 {
            mem.fault_queue.report(i * REGION_BYTES, FaultKind::FirstTouch, i as u32, 0);
        }
        let mut local = LocalFaultState::new(LocalFaultConfig::default());
        for i in 0..8u64 {
            assert!(local.try_claim(0, i * REGION_BYTES, &mut mem));
        }
        // All 8 resolve together at 20k cycles: concurrent, not serialized.
        assert!(local.tick(19_999, &mut mem, &mut phys).is_empty());
        let done = local.tick(20_000, &mut mem, &mut phys);
        assert_eq!(done.len(), 8);
        assert_eq!(local.stats().peak_concurrency, 8);
        assert!(mem.page_table.present(0));
        assert!(mem.page_table.present(7 * REGION_BYTES));
        assert_eq!(phys.gpu_frames(), 8 * REGION_PAGES);
    }

    #[test]
    fn duplicate_claim_merges() {
        let (mut mem, _phys) = setup();
        mem.fault_queue.report(0, FaultKind::FirstTouch, 0, 0);
        let mut local = LocalFaultState::new(LocalFaultConfig::default());
        assert!(local.try_claim(0, 0, &mut mem));
        // A second warp faulting the same region merges with the running
        // handler instead of spawning another.
        assert!(local.try_claim(5, 0, &mut mem));
        assert_eq!(local.stats().peak_concurrency, 1);
    }
}
