//! Pinned retry-storm digest: a seeded load/store/atomic storm through a
//! bare `MemSystem`, folded event by event into one FNV-1a digest.
//!
//! The Test/4-SM figure goldens rarely fill an MSHR table, so they cannot
//! see a change in the order the hierarchy dispatches same-cycle events or
//! re-polls a full table. This storm does: every SM fires wide accesses at
//! a footprint twice the L2, a few 64 KB regions start unmapped and resolve
//! on a fixed schedule, and the last resolution lets the coalescer settle a
//! 2 MB frame 2000 cycles later. It runs once with the Table 1 config and
//! once with shrunken MSHR tables (L1 2, L2 4, L2 TLB 2), under both
//! [`FaultMode`]s. The literals were recorded by running this same body
//! against the `BinaryHeap` event queue the `EventWheel` replaced.

use gex_mem::system::{AccessKind, FaultMode, MemSystem};
use gex_mem::{Cycle, MemConfig, PageSizePolicy, PageState, LARGE_PAGE_BYTES, REGION_BYTES};
use gex_prng::Prng;
use std::collections::BTreeSet;

const BASE: u64 = 64 << 20;
const FOOTPRINT: u64 = 2 * LARGE_PAGE_BYTES;
/// Regions (index from `BASE`) that start lazily backed and fault.
const LAZY_REGIONS: [u64; 6] = [3, 17, 29, 37, 52, 63];
const RESOLVE_DELAY: Cycle = 1_000;

struct Fnv(u64);

impl Fnv {
    fn fold(&mut self, s: &str) {
        for b in s.bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Fire accesses for the first `storm_cycles` cycles, then run until the
/// hierarchy drains; returns the digest.
fn storm(cfg: MemConfig, mode: FaultMode, storm_cycles: Cycle) -> u64 {
    let sms = cfg.num_sms;
    let mut mem = MemSystem::new(cfg, mode);
    for r in 0..FOOTPRINT / REGION_BYTES {
        let region = BASE + r * REGION_BYTES;
        if LAZY_REGIONS.contains(&r) {
            mem.page_table.add_lazy_range(region, REGION_BYTES);
        } else {
            mem.page_table.set_range(region, REGION_BYTES, PageState::Present);
        }
    }
    let mut rng = Prng::seed_from_u64(0x5707_3111);
    let mut digest = Fnv(0xcbf2_9ce4_8422_2325);
    let mut resolves: Vec<(Cycle, u64)> = Vec::new();
    let mut events = Vec::new();
    let mut now: Cycle = 0;
    loop {
        // Resolutions due now, in the order their faults were queued.
        while let Some(&(_, region)) = resolves.first().filter(|r| r.0 <= now) {
            resolves.remove(0);
            mem.resolve_region(region, now);
            mem.note_region_resolved(region, now, true);
        }
        if now < storm_cycles {
            for sm in 0..sms {
                if !rng.gen_bool(0.3) {
                    continue;
                }
                let kind = match rng.gen_range(0u32..10) {
                    0..=6 => AccessKind::Load,
                    7..=8 => AccessKind::Store,
                    _ => AccessKind::Atomic,
                };
                let n = rng.gen_range(1u64..=32);
                let lines: BTreeSet<u64> = if rng.gen_bool(0.5) {
                    // Coalesced: consecutive lines from a random start.
                    let first = rng.gen_range(0..FOOTPRINT / 128 - n);
                    (first..first + n).map(|l| BASE + l * 128).collect()
                } else {
                    (0..n).map(|_| BASE + rng.gen_range(0..FOOTPRINT / 128) * 128).collect()
                };
                let lines: Vec<u64> = lines.into_iter().collect();
                mem.start_access(now, sm, kind, &lines);
            }
        }
        mem.tick(now);
        assert!(mem.error().is_none(), "storm touched an unregistered page");
        for sm in 0..sms {
            mem.drain_events_into(sm, &mut events);
            for ev in &events {
                digest.fold(&format!("{now} {sm} {ev:?}\n"));
            }
        }
        while let Some(entry) = mem.fault_queue.pop() {
            resolves.push((now + RESOLVE_DELAY, entry.region));
        }
        if now >= storm_cycles && resolves.is_empty() && mem.quiescent() {
            break;
        }
        now += 1;
        assert!(now < 1_000_000, "storm did not drain");
    }
    let stats = mem.stats();
    assert!(stats.mshr_retries > 0 && stats.faulted_requests > 0, "a storm, not a drizzle: {stats:?}");
    assert!(mem.lp_stats().coalesced > 0, "the coalesce pass must settle");
    digest.fold(&format!("{now} {stats:?}\n"));
    digest.0
}

fn table1() -> MemConfig {
    MemConfig { page_size: PageSizePolicy::Transparent, ..MemConfig::kepler_k20() }
}

/// Four SMs: with four L2 MSHRs for the whole GPU, a 16-SM storm would
/// take millions of cycles to drain.
fn shrunken() -> MemConfig {
    let mut cfg = table1().with_sms(4);
    cfg.l1.mshrs = 2;
    cfg.l2.mshrs = 4;
    cfg.l2_tlb.mshrs = 2;
    cfg
}

#[test]
fn retry_storm_digests_are_pinned() {
    let got = [
        storm(table1(), FaultMode::StallReplay, 100),
        storm(table1(), FaultMode::SquashNotify, 100),
        storm(shrunken(), FaultMode::StallReplay, 20),
        storm(shrunken(), FaultMode::SquashNotify, 20),
    ];
    let want: [u64; 4] =
        [0x921857f1d1cce40a, 0xa8ddf47b3712017b, 0xdb42bcd738e72a17, 0xc8e79e8f63498f13];
    assert_eq!(got, want, "storm digests moved: {got:#018x?}");
}
