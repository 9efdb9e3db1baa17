//! The CPU-driver fault handler (Figure 2's steps 2-7).
//!
//! Each fault region costs its interconnect-dependent **round-trip
//! latency** (Section 5.3: 12/10 us over NVLink, 25/12 us over PCIe for
//! migration / allocation-only faults). Faults pipeline, but two shared
//! resources serialize them:
//!
//! * the **CPU handler stage** — the paper estimates ~2 us of CPU work per
//!   fault (Section 5.4), so handler throughput tops out at one fault per
//!   2 us no matter how many are pending ("the large amount of concurrent
//!   faults can overwhelm the CPU", Section 2.4);
//! * the **interconnect data bandwidth** — each migrated 64 KB region
//!   occupies the link for `64 KB / link bandwidth`.
//!
//! Under a fault storm the pipeline degenerates to one resolution per
//! bottleneck-stage interval, which is exactly the contention that makes
//! GPU-local handling (20 us latency but massively concurrent) a
//! throughput win in use case 2.

use crate::inject::{InjectionPlan, InjectionStats, Injector};
use crate::interconnect::{Interconnect, CYCLES_PER_US};
use gex_mem::phys::{AllocOwner, PhysAllocator};
use gex_mem::system::MemSystem;
use gex_mem::{
    frame_of, Cycle, FaultEntry, FaultKind, PageSizePolicy, LARGE_PAGE_BYTES, REGIONS_PER_LARGE,
    REGION_BYTES, REGION_PAGES,
};

/// CPU work per fault (page pinning, allocation, page-table updates):
/// the paper's ~2 us estimate (Section 5.4).
pub const CPU_STAGE_CYCLES: Cycle = 2 * CYCLES_PER_US;

/// Counters kept by the CPU fault handler.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuHandlerStats {
    /// Regions resolved with a data migration.
    pub migrations: u64,
    /// Regions resolved with allocation only (clean or first touch).
    pub allocations: u64,
    /// Total cycles the CPU stage was occupied.
    pub busy_cycles: u64,
    /// Sum over resolved regions of (resolution - enqueue) time, for mean
    /// fault latency.
    pub latency_sum: u64,
    /// Peak faults in flight in the handler pipeline.
    pub peak_in_flight: u64,
    /// Regions evicted to make room (memory oversubscription).
    pub evictions: u64,
}

impl CpuHandlerStats {
    /// Regions resolved in total.
    pub fn resolved(&self) -> u64 {
        self.migrations + self.allocations
    }

    /// Mean cycles from fault enqueue to resolution.
    pub fn mean_latency(&self) -> f64 {
        if self.resolved() == 0 {
            0.0
        } else {
            self.latency_sum as f64 / self.resolved() as f64
        }
    }
}

#[derive(Debug, Clone)]
struct InFlight {
    entry: FaultEntry,
    done_at: Cycle,
    /// An injected duplicate round trip: its resolution must be harmless,
    /// and it is never NACKed (the original carries the retry state).
    dup: bool,
    /// A duplicate whose original was NACKed: it completes its round trip
    /// but resolves nothing. Marked rather than removed, so the `tick`
    /// walk that discovers the NACK never reorders `in_flight` under
    /// itself.
    dead: bool,
}

/// Pipelined CPU-side servicing of the global pending-fault queue.
#[derive(Debug, Clone)]
pub struct CpuHandler {
    interconnect: Interconnect,
    handle_first_touch: bool,
    /// Page-size policy: `Small` keeps every path below byte-identical to
    /// the pre-large-page handler; `Transparent` nudges the background
    /// coalescer after each resolution; `HugeOnly` maps whole 2 MB frames
    /// per fault.
    page_size: PageSizePolicy,
    /// Next cycle the serialized CPU stage is free.
    cpu_free: Cycle,
    /// Next cycle the link's data path is free.
    link_free: Cycle,
    in_flight: Vec<InFlight>,
    /// Fault-injection state; `None` means exact, unperturbed timing.
    injector: Option<Injector>,
    stats: CpuHandlerStats,
}

impl CpuHandler {
    /// A handler reached over `interconnect`.
    pub fn new(interconnect: Interconnect) -> Self {
        CpuHandler {
            interconnect,
            handle_first_touch: true,
            page_size: PageSizePolicy::Small,
            cpu_free: 0,
            link_free: 0,
            in_flight: Vec::new(),
            injector: None,
            stats: CpuHandlerStats::default(),
        }
    }

    /// Leave first-touch faults to the GPU-local handler (use case 2): the
    /// CPU services only CPU-owned pages.
    pub fn without_first_touch(mut self) -> Self {
        self.handle_first_touch = false;
        self
    }

    /// Service faults under `policy` (default [`PageSizePolicy::Small`]).
    pub fn with_page_size(mut self, policy: PageSizePolicy) -> Self {
        self.page_size = policy;
        self
    }

    /// Attach a fault-injection schedule. A no-op plan attaches nothing,
    /// so the unperturbed timing paths stay bit-exact.
    pub fn with_injection(mut self, plan: InjectionPlan) -> Self {
        self.injector = if plan.is_noop() { None } else { Some(Injector::new(plan)) };
        self
    }

    /// Injection counters, if an injector is attached.
    pub fn injection_stats(&self) -> Option<InjectionStats> {
        self.injector.as_ref().map(|i| i.stats())
    }

    /// NACKed faults parked in the injector, waiting out their backoff.
    pub fn deferred_faults(&self) -> usize {
        self.injector.as_ref().map_or(0, |i| i.deferred_faults())
    }

    /// The interconnect in use.
    pub fn interconnect(&self) -> Interconnect {
        self.interconnect
    }

    /// Statistics so far.
    pub fn stats(&self) -> CpuHandlerStats {
        self.stats
    }

    /// Advance to `now`: admit pending faults into the pipeline (as fast as
    /// the CPU stage allows) and resolve the ones whose round trip
    /// completed, returning the resolved regions for broadcast. `phys`
    /// provides the frames; when the pool is exhausted the handler evicts
    /// the oldest-mapped regions back to the CPU (memory oversubscription /
    /// swapping), paying the write-back on the link.
    pub fn tick(&mut self, now: Cycle, mem: &mut MemSystem, phys: &mut PhysAllocator) -> Vec<u64> {
        // NACKed faults whose backoff elapsed re-enter the pending queue.
        if let Some(inj) = &mut self.injector {
            inj.requeue_due(now, &mut mem.fault_queue);
        }
        // Resolve completed round trips.
        let mut resolved = Vec::new();
        let mut i = 0;
        while i < self.in_flight.len() {
            if self.in_flight[i].done_at <= now {
                let f = self.in_flight.swap_remove(i);
                if f.dead {
                    // The duplicate of a NACKed service: its round trip
                    // ends here with nothing to deliver.
                    continue;
                }
                // A spurious "retry later" NACK: the round trip completed
                // but resolved nothing. The entry parks for its backoff and
                // the faulted warps keep waiting.
                if let Some(inj) = &mut self.injector {
                    if f.dup {
                        // A duplicate of a NACKed service carries the same
                        // failed response; letting it resolve the region
                        // would mask the NACK (and hide a wedge from the
                        // watchdog).
                        if inj.is_parked(f.entry.region) {
                            continue;
                        }
                    } else if inj.try_nack(now, &f.entry) {
                        let region = f.entry.region;
                        for g in &mut self.in_flight {
                            if g.dup && g.entry.region == region {
                                g.dead = true;
                            }
                        }
                        continue;
                    }
                }
                if f.entry.kind == FaultKind::Migration {
                    // The migrated region lands in GPU memory through the
                    // same DRAM channel the SMs use. Under `HugeOnly` the
                    // whole 2 MB frame comes across.
                    let bytes = match self.page_size {
                        PageSizePolicy::HugeOnly => LARGE_PAGE_BYTES,
                        _ => REGION_BYTES,
                    };
                    mem.dram_mut().bulk_transfer(now, bytes);
                    if !f.dup {
                        self.stats.migrations += 1;
                    }
                } else if !f.dup {
                    self.stats.allocations += 1;
                }
                if !f.dup {
                    self.stats.latency_sum += now - f.entry.enqueued_at;
                }
                match self.page_size {
                    PageSizePolicy::Small => {
                        mem.resolve_region(f.entry.region, now);
                        resolved.push(f.entry.region);
                    }
                    PageSizePolicy::Transparent => {
                        mem.resolve_region(f.entry.region, now);
                        // Nudge the background coalescer: the physical
                        // allocator says whether the frame's subpages sit
                        // in one contiguous block.
                        let contiguous = phys.frame_coalescible(frame_of(f.entry.region));
                        mem.note_region_resolved(f.entry.region, now, contiguous);
                        resolved.push(f.entry.region);
                    }
                    PageSizePolicy::HugeOnly => {
                        // One fault maps the whole 2 MB frame; sibling
                        // regions' queued faults resolve with it.
                        let frame = frame_of(f.entry.region);
                        let promote = phys.frame_coalescible(frame);
                        let regions = mem.resolve_frame(frame, now, promote);
                        if regions.is_empty() {
                            // An injected duplicate of an already-resolved
                            // frame: still broadcast the region so stalled
                            // warps re-check, matching the `Small` path.
                            resolved.push(f.entry.region);
                        } else {
                            resolved.extend(regions);
                        }
                    }
                }
            } else {
                i += 1;
            }
        }
        // Admit new faults while the CPU stage has capacity.
        let hft = self.handle_first_touch;
        while self.cpu_free <= now {
            let pred = |e: &FaultEntry| hft || e.kind != FaultKind::FirstTouch;
            if !mem.fault_queue.iter().any(&pred) {
                break;
            }
            // Injected handler stalls / backpressure bursts freeze
            // admission. Rolled per admission opportunity (something is
            // pending and the CPU stage is free), not per simulated cycle.
            if let Some(inj) = &mut self.injector {
                if inj.admission_blocked(now) {
                    break;
                }
            }
            let entry = if let Some(inj) = &mut self.injector {
                inj.pick(&mut mem.fault_queue, pred)
            } else if hft {
                mem.fault_queue.pop()
            } else {
                mem.fault_queue.pop_where(pred)
            };
            let Some(entry) = entry else { break };
            let admit = self.cpu_free.max(now);
            // Frames for the incoming region; evict to make room if the GPU
            // memory is oversubscribed. If every resident region is still
            // in flight (mapped only at resolution), defer this fault until
            // one lands.
            let mut deferred = false;
            let need = match self.page_size {
                // The whole 2 MB frame is backed up front — unless a live
                // in-flight fault already covers the frame, in which case
                // its resolution maps this region too.
                PageSizePolicy::HugeOnly => {
                    let frame = frame_of(entry.region);
                    if self.in_flight.iter().any(|g| !g.dead && frame_of(g.entry.region) == frame)
                    {
                        0
                    } else {
                        mem.page_table.frame_mappable_pages(frame).max(1)
                    }
                }
                _ => REGION_PAGES,
            };
            // `need` is fixed for the whole backing loop: each turn either
            // allocates it in full and breaks, evicts a victim to free
            // room, or defers the fault.
            if need > 0 {
                loop {
                    let got = match self.page_size {
                        PageSizePolicy::Small => phys.alloc(need, AllocOwner::Cpu),
                        // Contiguity-conserving: carve out of the 2 MB block
                        // reserved for the faulting frame so the frame can
                        // later coalesce without copying.
                        _ => phys.alloc_in_frame(frame_of(entry.region), need, AllocOwner::Cpu),
                    };
                    if got.is_some() {
                        break;
                    }
                    match mem.page_table.evict_oldest_region(entry.region) {
                        Some((victim, pages)) => {
                            mem.shootdown_region(victim);
                            match self.page_size {
                                PageSizePolicy::Small => phys.free(pages as u64),
                                _ => phys.free_in_frame(frame_of(victim), pages as u64),
                            }
                            // The victim's data writes back over the link and
                            // costs the CPU another pass over its page tables.
                            let occ = self.interconnect.region_transfer_cycles();
                            self.link_free = self.link_free.max(admit) + occ;
                            self.cpu_free = self.cpu_free.max(admit) + CPU_STAGE_CYCLES;
                            self.stats.evictions += 1;
                        }
                        None => {
                            mem.fault_queue.push_front(entry.clone());
                            deferred = true;
                            break;
                        }
                    }
                }
            }
            if deferred {
                break;
            }
            self.cpu_free = self.cpu_free.max(admit) + CPU_STAGE_CYCLES;
            self.stats.busy_cycles += CPU_STAGE_CYCLES;
            // Every fault's signaling occupies the link; migrations add the
            // 64 KB of data on top. Injected link spikes and resolution
            // jitter stretch the round trip.
            let mut occ = self.interconnect.signal_cycles;
            if entry.kind == FaultKind::Migration {
                // `HugeOnly` ships the frame's 32 regions in one go.
                let regions = match self.page_size {
                    PageSizePolicy::HugeOnly => REGIONS_PER_LARGE,
                    _ => 1,
                };
                occ += self.interconnect.region_transfer_cycles() * regions;
            }
            let mut extra = 0;
            let mut dup = false;
            if let Some(inj) = &mut self.injector {
                occ += inj.link_spike();
                extra = inj.extra_latency();
                dup = inj.duplicate();
            }
            let start = self.link_free.max(admit);
            self.link_free = start + occ;
            let done =
                (admit + self.interconnect.fault_cost(entry.kind) + extra).max(start + occ);
            if dup {
                // The duplicated round trip lands shortly after the
                // original; its second resolution must be harmless.
                self.in_flight.push(InFlight {
                    entry: entry.clone(),
                    done_at: done + 500,
                    dup: true,
                    dead: false,
                });
            }
            self.in_flight.push(InFlight { entry, done_at: done, dup: false, dead: false });
            self.stats.peak_in_flight =
                self.stats.peak_in_flight.max(self.in_flight.len() as u64);
        }
        resolved
    }

    /// True if nothing is being serviced.
    pub fn idle(&self) -> bool {
        self.in_flight.is_empty()
    }

    /// Earliest upcoming handler event — an in-flight completion, a
    /// deferred NACK re-enqueue or a stall expiry — for skip-ahead.
    pub fn next_event_cycle(&self) -> Option<Cycle> {
        let mut next = self.in_flight.iter().map(|f| f.done_at).min();
        if let Some(inj) = &self.injector {
            next = match (next, inj.next_event_cycle()) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
        }
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gex_mem::system::FaultMode;
    use gex_mem::{MemConfig, PageState};

    fn mem_with_cpu_data() -> MemSystem {
        let mut m = MemSystem::new(MemConfig::kepler_k20(), FaultMode::SquashNotify);
        m.page_table.set_range(0, 1 << 24, PageState::CpuDirty);
        m.page_table.add_lazy_range(0x4000_0000, 1 << 24);
        m
    }

    fn run(cpu: &mut CpuHandler, mem: &mut MemSystem, horizon: Cycle) -> Vec<(Cycle, u64)> {
        let mut phys = PhysAllocator::new(1 << 30);
        let mut out = Vec::new();
        for t in 0..horizon {
            for r in cpu.tick(t, mem, &mut phys) {
                out.push((t, r));
            }
        }
        out
    }

    #[test]
    fn oversubscription_evicts_oldest_regions() {
        let mut mem = mem_with_cpu_data();
        // Room for only 2 regions; fault in 4.
        let mut phys = PhysAllocator::new(2 * REGION_BYTES);
        for i in 0..4u64 {
            mem.fault_queue.report(i * REGION_BYTES, FaultKind::Migration, 0, 0);
        }
        let mut cpu = CpuHandler::new(Interconnect::nvlink());
        let mut resolved = Vec::new();
        for t in 0..200_000 {
            resolved.extend(cpu.tick(t, &mut mem, &mut phys));
        }
        assert_eq!(resolved.len(), 4);
        assert_eq!(cpu.stats().evictions, 2, "regions 0 and 1 must be evicted");
        // Evicted regions are CPU-dirty again: touching them re-faults with
        // a migration.
        assert_eq!(mem.page_table.state(0), PageState::CpuDirty);
        assert!(mem.page_table.present(3 * REGION_BYTES));
        assert_eq!(phys.freed_frames(), 2 * 16);
    }

    #[test]
    fn faults_pipeline_at_cpu_stage_rate() {
        let mut mem = mem_with_cpu_data();
        for i in 0..4u64 {
            mem.fault_queue.report(i * 0x1_0000, FaultKind::Migration, 0, 0);
        }
        let mut cpu = CpuHandler::new(Interconnect::nvlink());
        let resolved = run(&mut cpu, &mut mem, 40_000);
        assert_eq!(resolved.len(), 4);
        // Round trips overlap: admissions at 0/2k/4k/6k, each 12 us latency
        // (the 1.6 us link occupancy hides inside it).
        assert_eq!(resolved[0].0, 12_000);
        assert_eq!(resolved[1].0, 14_000);
        assert_eq!(resolved[2].0, 16_000);
        assert_eq!(resolved[3].0, 18_000);
        assert_eq!(cpu.stats().migrations, 4);
        assert!(cpu.stats().peak_in_flight >= 4);
    }

    #[test]
    fn pcie_storms_become_link_bound() {
        // On PCIe a 64 KB migration occupies the link for ~5.4 us, longer
        // than the 2 us CPU stage: big storms drain at link rate.
        let mut mem = mem_with_cpu_data();
        for i in 0..16u64 {
            mem.fault_queue.report(i * 0x1_0000, FaultKind::Migration, 0, 0);
        }
        let mut cpu = CpuHandler::new(Interconnect::pcie());
        let resolved = run(&mut cpu, &mut mem, 400_000);
        assert_eq!(resolved.len(), 16);
        let occ = Interconnect::pcie().region_transfer_cycles();
        let last = resolved.last().unwrap().0;
        assert!(
            last >= 15 * occ && last <= 16 * occ + 25_000 + 4_000,
            "expected ~link-rate drain, got {last} (occ {occ})"
        );
    }

    #[test]
    fn alloc_only_faults_do_not_use_the_link() {
        let mut mem = mem_with_cpu_data();
        for i in 0..8u64 {
            mem.fault_queue.report(0x4000_0000 + i * 0x1_0000, FaultKind::FirstTouch, 0, 0);
        }
        let mut cpu = CpuHandler::new(Interconnect::pcie());
        let resolved = run(&mut cpu, &mut mem, 100_000);
        assert_eq!(resolved.len(), 8);
        // Admissions every 2 us + 12 us latency: last at ~12 + 2*7 us.
        assert_eq!(resolved.last().unwrap().0, 12_000 + 7 * 2_000);
        assert_eq!(cpu.stats().allocations, 8);
    }

    #[test]
    fn mean_latency_grows_under_contention() {
        let mut mem = mem_with_cpu_data();
        mem.fault_queue.report(0, FaultKind::Migration, 0, 0);
        let mut cpu = CpuHandler::new(Interconnect::nvlink());
        run(&mut cpu, &mut mem, 20_000);
        let single = cpu.stats().mean_latency();
        assert!((single - 12_000.0).abs() < 2.0, "unloaded latency {single}");

        let mut mem2 = mem_with_cpu_data();
        for i in 0..64u64 {
            mem2.fault_queue.report(i * 0x1_0000, FaultKind::Migration, 0, 0);
        }
        let mut cpu2 = CpuHandler::new(Interconnect::nvlink());
        run(&mut cpu2, &mut mem2, 400_000);
        assert!(
            cpu2.stats().mean_latency() > 1.5 * single,
            "storm latency {} vs unloaded {single}",
            cpu2.stats().mean_latency()
        );
    }
}
