//! GPU-local handling of first-touch faults (use case 2, Section 4.2).
//!
//! When a warp faults on a page that is not owned by the CPU, the warp
//! switches to system mode and runs the fault handler itself: it marks the
//! region GPU-owned, allocates physical memory, updates the GPU page table
//! and restarts — all without interrupting the CPU. The measured prototype
//! handler costs 20 us (Section 5.4), an order of magnitude more than the
//! CPU handler, but handlers run *concurrently* on every faulting SM, which
//! is the throughput win the paper reports.
//!
//! Allocating and mapping is the memory system's one backing path
//! ([`MemSystem::back_fault`], [`MemSystem::resolve_fault`]), shared with
//! the CPU handler, so local handling honours the page-size policy: under
//! `HugeOnly` a handler maps its whole 2 MB frame. This module models the
//! handler's latency and concurrency.

use gex_mem::phys::AllocOwner;
use gex_mem::system::MemSystem;
use gex_mem::{Cycle, FaultKind};

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
    /// Handler executions that resolved their region.
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
    /// resolved this cycle for broadcast.
    pub fn tick(&mut self, now: Cycle, mem: &mut MemSystem) -> Vec<u64> {
        let mut done = Vec::new();
        let mut i = 0;
        while i < self.running.len() {
            let (when, region) = self.running[i];
            if when > now {
                i += 1;
                continue;
            }
            // The handler allocates physical memory, evicting the oldest
            // regions if the GPU memory is oversubscribed (the eviction cost
            // is folded into the 20 us handler estimate). Backing happens at
            // completion, so no other handler's frames cover this one.
            let backing = mem.back_fault(region, AllocOwner::Gpu, || false);
            self.stats.evictions += backing.evictions;
            if backing.frames.is_some() {
                self.running.swap_remove(i);
                mem.resolve_fault(region, now, &mut done);
                self.stats.resolved += 1;
            } else {
                // Everything resident is still in flight; spin the handler
                // a little longer and retry.
                self.running[i].0 = now + 1_000;
                i += 1;
            }
        }
        done
    }

    /// Earliest handler completion, for skip-ahead.
    pub fn next_event_cycle(&self) -> Option<Cycle> {
        self.running.iter().map(|&(w, _)| w).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gex_mem::system::{AccessEvent, AccessKind, FaultMode};
    use gex_mem::{MemConfig, PageState, REGION_BYTES, REGION_PAGES};

    fn setup() -> MemSystem {
        setup_in(MemConfig::kepler_k20())
    }

    fn setup_in(cfg: MemConfig) -> MemSystem {
        let mut mem = MemSystem::new(cfg, FaultMode::SquashNotify);
        mem.page_table.add_lazy_range(0, 1 << 24);
        mem.page_table.set_range(1 << 24, 1 << 20, PageState::CpuDirty);
        mem
    }

    #[test]
    fn claims_first_touch_but_not_migrations() {
        let mut mem = setup();
        mem.fault_queue.report(0, FaultKind::FirstTouch, 0, 0);
        mem.fault_queue.report(1 << 24, FaultKind::Migration, 0, 0);
        let mut local = LocalFaultState::new(LocalFaultConfig::default());
        assert!(local.try_claim(0, 0, &mut mem));
        assert!(!local.try_claim(0, 1 << 24, &mut mem), "migrations stay with the CPU");
        assert_eq!(mem.fault_queue.len(), 1, "migration still queued for the CPU");
    }

    #[test]
    fn handlers_run_concurrently() {
        let mut mem = setup();
        for i in 0..8u64 {
            mem.fault_queue.report(i * REGION_BYTES, FaultKind::FirstTouch, i as u32, 0);
        }
        let mut local = LocalFaultState::new(LocalFaultConfig::default());
        for i in 0..8u64 {
            assert!(local.try_claim(0, i * REGION_BYTES, &mut mem));
        }
        // All 8 resolve together at 20k cycles: concurrent, not serialized.
        assert!(local.tick(19_999, &mut mem).is_empty());
        let done = local.tick(20_000, &mut mem);
        assert_eq!(done.len(), 8);
        assert_eq!(local.stats().peak_concurrency, 8);
        assert!(mem.page_table.present(0));
        assert!(mem.page_table.present(7 * REGION_BYTES));
        assert_eq!(mem.phys().gpu_frames(), 8 * REGION_PAGES);
    }

    #[test]
    fn duplicate_claim_merges() {
        let mut mem = setup();
        mem.fault_queue.report(0, FaultKind::FirstTouch, 0, 0);
        let mut local = LocalFaultState::new(LocalFaultConfig::default());
        assert!(local.try_claim(0, 0, &mut mem));
        // A second warp faulting the same region merges with the running
        // handler instead of spawning another.
        assert!(local.try_claim(5, 0, &mut mem));
        assert_eq!(local.stats().peak_concurrency, 1);
    }

    /// Run SM 0's load of `addr` to its first terminal event.
    fn load(mem: &mut MemSystem, from: Cycle, addr: u64) -> (AccessEvent, Cycle) {
        mem.start_access(from, 0, AccessKind::Load, &[addr]);
        for t in from..from + 10_000 {
            mem.tick(t);
            let ev = mem
                .drain_events(0)
                .into_iter()
                .find(|e| matches!(e, AccessEvent::Data { .. } | AccessEvent::Fault { .. }));
            if let Some(ev) = ev {
                return (ev, t);
            }
        }
        panic!("the load of {addr:#x} never finished");
    }

    /// Room for two regions and four first-touch claims. While CPU
    /// services in flight hold every frame, a finished handler finds
    /// nothing to evict and retries 1 000 cycles later; once frames free,
    /// the later claims evict the oldest regions, shooting their
    /// translations down, and the frames balance.
    #[test]
    fn evicts_the_oldest_regions_and_waits_while_all_are_in_flight() {
        let mut mem =
            setup_in(MemConfig { gpu_mem_bytes: 2 * REGION_BYTES, ..MemConfig::kepler_k20() });
        let cpu_regions = [1 << 24, (1 << 24) + REGION_BYTES];
        for r in cpu_regions {
            assert_eq!(mem.back_fault(r, AllocOwner::Cpu, || false).frames, Some(REGION_PAGES));
        }
        let mut local = LocalFaultState::new(LocalFaultConfig::default());
        let claim = |local: &mut LocalFaultState, mem: &mut MemSystem, now, i: u64| {
            mem.fault_queue.report(i * REGION_BYTES, FaultKind::FirstTouch, 0, now);
            assert!(local.try_claim(now, i * REGION_BYTES, mem));
        };
        claim(&mut local, &mut mem, 0, 0);
        claim(&mut local, &mut mem, 0, 1);
        assert!(local.tick(20_000, &mut mem).is_empty(), "every frame is in flight");
        assert_eq!(local.next_event_cycle(), Some(21_000));
        claim(&mut local, &mut mem, 20_000, 2);
        claim(&mut local, &mut mem, 20_000, 3);
        // The CPU services are NACKed and give their frames back.
        for r in cpu_regions {
            mem.give_back(r, REGION_PAGES);
        }
        assert_eq!(local.tick(21_000, &mut mem), [0, REGION_BYTES]);
        assert_eq!(local.stats().evictions, 0);
        // Region 0's translation is cached before it is evicted.
        let (ev, t) = load(&mut mem, 21_001, 0);
        assert!(matches!(ev, AccessEvent::Data { .. }), "{ev:?}");
        assert_eq!(local.tick(40_000, &mut mem), [3 * REGION_BYTES, 2 * REGION_BYTES]);
        assert_eq!(local.stats().evictions, 2);
        assert_eq!(mem.page_table.resident_regions(), [3 * REGION_BYTES, 2 * REGION_BYTES]);
        assert_eq!(mem.page_table.state(0), PageState::CpuDirty);
        assert_eq!(mem.page_table.state(REGION_BYTES), PageState::CpuDirty);
        let (ev, _) = load(&mut mem, t.max(40_000) + 1, 0);
        assert!(matches!(ev, AccessEvent::Fault { .. }), "a stale translation served {ev:?}");
        let phys = mem.phys();
        assert_eq!((phys.gpu_frames(), phys.cpu_frames()), (4 * REGION_PAGES, 2 * REGION_PAGES));
        assert_eq!((phys.freed_frames(), phys.free_frames()), (4 * REGION_PAGES, 0));
    }
}
