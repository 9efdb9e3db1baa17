//! Push-wake exactness: the wake cycles a component *pushes* (via
//! `take_wake_update`, collected into a [`WakeQueue`]) must reproduce —
//! at every cycle — exactly the earliest event the linear scan
//! (`next_event_cycle`) reports. A missed wake would let the engine skip
//! past a due event (a hang or a timing divergence); an early wake that
//! the scan does not corroborate would mean the memoization is publishing
//! cycles that never become ready.
//!
//! Each test ticks one component cycle by cycle, harvests its wake update
//! after every mutation, and asserts `queue.earliest_after(now) ==
//! component.next_event_cycle()` — including under fault injection
//! (latency jitter, NACK park/retry, duplicate deliveries, admission
//! stalls) and the local handler's eviction-retry respin, where events
//! are rescheduled rather than consumed.

use gex_mem::phys::PhysAllocator;
use gex_mem::system::{AccessKind, FaultMode, MemSystem};
use gex_mem::{Cycle, FaultKind, MemConfig, PageState, REGION_BYTES};
use gex_sim::local_fault::{LocalFaultConfig, LocalFaultState};
use gex_sim::paging::CpuHandler;
use gex_sim::{InjectionPlan, Interconnect};
use gex_sm::WakeQueue;

/// Harvest one component's wake update into `queue`, then check the push
/// view against the scan view at `now`.
macro_rules! harvest_and_check {
    ($queue:expr, $comp:expr, $now:expr) => {{
        if let Some(c) = $comp.take_wake_update() {
            assert!(c > $now, "pushed wake {c} is not strictly future at cycle {}", $now);
            $queue.push(c);
        }
        assert_eq!(
            $queue.earliest_after($now),
            $comp.next_event_cycle(),
            "push/scan wake divergence at cycle {}",
            $now
        );
    }};
}

fn mem_with_cpu_data() -> MemSystem {
    let mut m = MemSystem::new(MemConfig::kepler_k20(), FaultMode::SquashNotify);
    m.page_table.set_range(0, 1 << 24, PageState::CpuDirty);
    m.page_table.add_lazy_range(0x4000_0000, 1 << 24);
    m
}

/// Drive a CpuHandler over `horizon` cycles with faults reported at the
/// scripted `(cycle, addr, kind)` points, checking wake exactness every
/// cycle. Returns (unique regions resolved, max deferred-NACK backlog
/// observed) — injected duplicate deliveries may broadcast a region's
/// resolution twice, which the engine treats idempotently.
fn drive_cpu(
    mut cpu: CpuHandler,
    mut mem: MemSystem,
    faults: &[(Cycle, u64, FaultKind)],
    horizon: Cycle,
) -> (usize, usize) {
    let mut phys = PhysAllocator::new(1 << 30);
    let mut queue = WakeQueue::new();
    let mut resolved = std::collections::HashSet::new();
    let mut peak_deferred = 0;
    for now in 0..horizon {
        for &(at, addr, kind) in faults {
            if at == now {
                mem.fault_queue.report(addr, kind, 0, 0);
            }
        }
        resolved.extend(cpu.tick(now, &mut mem, &mut phys));
        peak_deferred = peak_deferred.max(cpu.deferred_faults());
        harvest_and_check!(queue, cpu, now);
    }
    (resolved.len(), peak_deferred)
}

#[test]
fn cpu_handler_clean_schedule_pushes_exact_wakes() {
    // Staggered migrations + first-touch allocations on a clean link: the
    // only wake sources are in-flight completions.
    let faults: Vec<(Cycle, u64, FaultKind)> = (0..6u64)
        .map(|i| (i * 1_500, i * 0x1_0000, FaultKind::Migration))
        .chain((0..4u64).map(|i| (i * 3_700 + 11, 0x4000_0000 + i * 0x1_0000, FaultKind::FirstTouch)))
        .collect();
    let cpu = CpuHandler::new(Interconnect::nvlink());
    let (resolved, _) = drive_cpu(cpu, mem_with_cpu_data(), &faults, 80_000);
    assert_eq!(resolved, 10, "every scripted fault must resolve");
}

#[test]
fn cpu_handler_jittered_schedule_pushes_exact_wakes() {
    // Light injection adds per-round-trip latency jitter and occasional
    // reorders: completion cycles move around but must still be pushed
    // exactly once each time the minimum changes.
    for seed in [1, 7, 42] {
        let faults: Vec<(Cycle, u64, FaultKind)> =
            (0..8u64).map(|i| (i * 900, i * 0x1_0000, FaultKind::Migration)).collect();
        let cpu =
            CpuHandler::new(Interconnect::pcie()).with_injection(InjectionPlan::light(seed));
        let (resolved, _) = drive_cpu(cpu, mem_with_cpu_data(), &faults, 300_000);
        assert_eq!(resolved, 8, "seed {seed}: every fault must resolve despite jitter");
    }
}

#[test]
fn cpu_handler_nack_retry_paths_push_exact_wakes() {
    // Chaos injection exercises the full failure surface: NACK park +
    // deferred re-enqueue, duplicate deliveries (dead in-flights), link
    // spikes and admission stalls. The injector's deferred/stall clocks
    // feed `next_event_cycle`, so the pushed wakes must track them too.
    let mut saw_deferred = false;
    for seed in [3, 11, 29] {
        let faults: Vec<(Cycle, u64, FaultKind)> =
            (0..6u64).map(|i| (i * 2_000, i * 0x1_0000, FaultKind::Migration)).collect();
        let cpu =
            CpuHandler::new(Interconnect::pcie()).with_injection(InjectionPlan::chaos(seed));
        let (resolved, peak_deferred) = drive_cpu(cpu, mem_with_cpu_data(), &faults, 600_000);
        assert_eq!(resolved, 6, "seed {seed}: chaos must delay, never lose, faults");
        saw_deferred |= peak_deferred > 0;
    }
    assert!(saw_deferred, "at least one chaos seed must exercise the NACK-park path");
}

#[test]
fn local_fault_handler_pushes_exact_wakes() {
    let mut mem = MemSystem::new(MemConfig::kepler_k20(), FaultMode::SquashNotify);
    mem.page_table.add_lazy_range(0, 1 << 24);
    let mut phys = PhysAllocator::new(1 << 30);
    let mut local = LocalFaultState::new(LocalFaultConfig::default());
    let mut queue = WakeQueue::new();
    let mut resolved = 0;
    for now in 0..60_000 {
        // Stagger the claims so completions interleave rather than batch.
        if now % 4_000 == 0 && now < 24_000 {
            let region = (now / 4_000) * REGION_BYTES;
            mem.fault_queue.report(region, FaultKind::FirstTouch, 0, 0);
            assert!(local.try_claim(now, region, &mut mem));
        }
        resolved += local.tick(now, &mut mem, &mut phys).len();
        harvest_and_check!(queue, local, now);
    }
    assert_eq!(resolved, 6);
    assert!(local.idle());
}

#[test]
fn local_fault_eviction_respin_pushes_exact_wakes() {
    // With no allocatable memory the handler cannot finish: it respins
    // (reschedules itself 1000 cycles out) each attempt. Rescheduling —
    // not consuming — a pending event is exactly where a buggy memo would
    // leave a stale earlier wake in place.
    let mut mem = MemSystem::new(MemConfig::kepler_k20(), FaultMode::SquashNotify);
    mem.page_table.add_lazy_range(0, 1 << 24);
    let mut starved = PhysAllocator::new(REGION_BYTES / 2);
    let mut roomy = PhysAllocator::new(1 << 30);
    let mut local = LocalFaultState::new(LocalFaultConfig::default());
    mem.fault_queue.report(0, FaultKind::FirstTouch, 0, 0);
    assert!(local.try_claim(0, 0, &mut mem));
    let mut queue = WakeQueue::new();
    let mut resolved = 0;
    for now in 0..30_000 {
        // Starve the handler past several respins, then let it finish.
        let phys = if now < 23_500 { &mut starved } else { &mut roomy };
        resolved += local.tick(now, &mut mem, phys).len();
        harvest_and_check!(queue, local, now);
    }
    assert_eq!(resolved, 1, "handler must finish once memory frees up");
    assert!(local.idle());
}

#[test]
fn mem_system_pushes_exact_wakes() {
    let mut mem = MemSystem::new(MemConfig::kepler_k20(), FaultMode::SquashNotify);
    mem.page_table.set_range(0, 16 << 20, PageState::Present);
    let mut queue = WakeQueue::new();
    let mut quiet_at = None;
    for now in 0..20_000u64 {
        // A burst of multi-line loads and stores from two SMs, then a
        // re-run of one warm line so both cold and hot paths schedule.
        match now {
            0 => {
                mem.start_access(now, 0, AccessKind::Load, &[0x1000, 0x1080, 0x2000]);
            }
            3 => {
                mem.start_access(now, 1, AccessKind::Store, &[0x3000]);
            }
            5 => {
                mem.start_access(now, 0, AccessKind::Atomic, &[0x4000]);
            }
            2_000 => {
                mem.start_access(now, 1, AccessKind::Load, &[0x1000]);
            }
            _ => {}
        }
        mem.tick(now);
        mem.drain_events(0);
        mem.drain_events(1);
        harvest_and_check!(queue, mem, now);
        if now > 2_000 && mem.quiescent() && quiet_at.is_none() {
            quiet_at = Some(now);
        }
    }
    assert!(quiet_at.is_some(), "all accesses must retire");
}

#[test]
fn combined_components_share_one_wake_queue_exactly() {
    // The engine merges every component's pushes into one queue and asks
    // for the global earliest; mirror that with all three components live
    // at once and assert against the min of the three scans.
    let mut mem = mem_with_cpu_data();
    let mut phys = PhysAllocator::new(1 << 30);
    let mut cpu = CpuHandler::new(Interconnect::nvlink()).with_injection(InjectionPlan::light(9));
    let mut local = LocalFaultState::new(LocalFaultConfig::default());
    let mut queue = WakeQueue::new();
    let mut cpu_resolved = std::collections::HashSet::new();
    let mut local_resolved = 0;
    for now in 0..120_000u64 {
        match now {
            0 => {
                mem.start_access(now, 0, AccessKind::Load, &[0x1000, 0x1040]);
                mem.fault_queue.report(0x10_0000, FaultKind::Migration, 0, 0);
            }
            40 => {
                mem.fault_queue.report(0x4000_0000, FaultKind::FirstTouch, 1, 0);
                assert!(local.try_claim(now, 0x4000_0000, &mut mem));
            }
            777 => {
                mem.fault_queue.report(0x20_0000, FaultKind::Migration, 1, 0);
            }
            _ => {}
        }
        cpu_resolved.extend(cpu.tick(now, &mut mem, &mut phys));
        local_resolved += local.tick(now, &mut mem, &mut phys).len();
        mem.tick(now);
        mem.drain_events(0);
        mem.drain_events(1);
        for c in [cpu.take_wake_update(), local.take_wake_update(), mem.take_wake_update()]
            .into_iter()
            .flatten()
        {
            assert!(c > now, "pushed wake {c} is not strictly future at cycle {now}");
            queue.push(c);
        }
        let scan = [cpu.next_event_cycle(), local.next_event_cycle(), mem.next_event_cycle()]
            .into_iter()
            .flatten()
            .min();
        assert_eq!(queue.earliest_after(now), scan, "merged push/scan divergence at {now}");
    }
    // Two scripted migrations plus the one the squashed load at 0x1000
    // reports itself (its page is CPU-dirty).
    assert_eq!(cpu_resolved.len(), 3, "all migrations resolve on the CPU");
    assert_eq!(local_resolved, 1, "the first touch resolves locally");
}
