//! TLB: a set-associative array of virtual page numbers with hit/miss
//! accounting.
//!
//! TLBs only cache *present* translations; a page that is resident on the
//! CPU or unbacked never enters a TLB, so fault detection always happens at
//! the page-table walker.

use crate::config::TlbConfig;
use crate::setassoc::SetAssoc;
use std::collections::BTreeMap;

/// How many small entries one large-side entry replaces in capacity terms:
/// the large side gets `entries / LARGE_SIDE_DIVISOR` entries (min. one
/// set), matching real designs where the 2 MB array is a small fraction of
/// the 4 KB array.
const LARGE_SIDE_DIVISOR: u32 = 4;

/// Per-size hit/miss counters for a two-size TLB
/// ([`Tlb::enable_large`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbSizeStats {
    /// 4 KB-entry hits.
    pub small_hits: u64,
    /// 4 KB-entry misses (after the large side also missed).
    pub small_misses: u64,
    /// 2 MB-entry hits.
    pub large_hits: u64,
    /// 2 MB-entry misses (every dual lookup probes the large side first).
    pub large_misses: u64,
}

/// The 2 MB side of a two-size TLB: its own tag array (tags are 2 MB frame
/// numbers, `vpn >> 9`) and per-size counters.
#[derive(Debug, Clone)]
struct LargeSide {
    tags: SetAssoc,
    stats: TlbSizeStats,
}

/// One TLB level.
///
/// With a tenant shift configured (multi-tenant runs), hits and misses are
/// additionally attributed to the owning tenant — the tenant id lives in
/// the high bits of the virtual address, so for a virtual page number it
/// is `vpn >> (shift - 12)`.
///
/// With the large side enabled ([`Tlb::enable_large`]), the TLB holds 2 MB
/// entries in a separate array probed *before* the 4 KB array, and
/// maintains the exclusivity invariant that no VA is covered by both a
/// 2 MB and a 4 KB entry at once: [`Tlb::fill`] refuses small fills under
/// a cached large entry, and [`Tlb::fill_large`] shoots down every covered
/// small entry.
#[derive(Debug, Clone)]
pub struct Tlb {
    tags: SetAssoc,
    hits: u64,
    misses: u64,
    tenant_shift: Option<u32>,
    per_tenant: BTreeMap<u32, (u64, u64)>,
    large: Option<LargeSide>,
}

impl Tlb {
    /// Build a TLB from its configuration.
    pub fn new(cfg: &TlbConfig) -> Self {
        Tlb {
            tags: SetAssoc::new(cfg.sets() as u64, cfg.ways),
            hits: 0,
            misses: 0,
            tenant_shift: None,
            per_tenant: BTreeMap::new(),
            large: None,
        }
    }

    /// Add a 2 MB side sized off the same configuration
    /// (`entries / 4`, same associativity capped to the entry count).
    /// Idempotent; only large-page-policy runs call this.
    pub fn enable_large(&mut self, cfg: &TlbConfig) {
        if self.large.is_some() {
            return;
        }
        let entries = (cfg.entries / LARGE_SIDE_DIVISOR).max(1);
        let ways = cfg.ways.min(entries);
        let sets = (entries / ways).max(1) as u64;
        self.large = Some(LargeSide {
            tags: SetAssoc::new(sets.next_power_of_two(), ways),
            stats: TlbSizeStats::default(),
        });
    }

    /// Attribute future lookups to tenants: `shift` is the *address* shift
    /// (tenant = address >> shift), shared with the fault queue.
    pub fn set_tenant_shift(&mut self, shift: u32) {
        self.tenant_shift = Some(shift.saturating_sub(12));
    }

    /// Per-tenant `(hits, misses)`; zero unless a tenant shift is set.
    pub fn tenant_stats(&self, tenant: u32) -> (u64, u64) {
        self.per_tenant.get(&tenant).copied().unwrap_or((0, 0))
    }

    /// Look up `vpn`, updating LRU and counters.
    pub fn lookup(&mut self, vpn: u64) -> bool {
        let hit = self.tags.access(vpn);
        if let Some(s) = self.tenant_shift {
            let e = self.per_tenant.entry((vpn >> s) as u32).or_insert((0, 0));
            if hit {
                e.0 += 1;
            } else {
                e.1 += 1;
            }
        }
        if hit {
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            false
        }
    }

    /// Two-size lookup: probe the 2 MB side first, then fall back to the
    /// 4 KB array. Hits on either side count toward the aggregate
    /// [`Tlb::hits`]; per-size counters live in [`Tlb::size_stats`].
    /// Equivalent to [`Tlb::lookup`] when the large side is disabled or
    /// empty.
    pub fn lookup_dual(&mut self, vpn: u64) -> bool {
        if let Some(lg) = &mut self.large {
            if lg.tags.access(vpn >> 9) {
                lg.stats.large_hits += 1;
                self.hits += 1;
                if let Some(s) = self.tenant_shift {
                    self.per_tenant.entry((vpn >> s) as u32).or_insert((0, 0)).0 += 1;
                }
                return true;
            }
            lg.stats.large_misses += 1;
        }
        let hit = self.lookup(vpn);
        if let Some(lg) = &mut self.large {
            if hit {
                lg.stats.small_hits += 1;
            } else {
                lg.stats.small_misses += 1;
            }
        }
        hit
    }

    /// Install a translation for `vpn`. Dropped silently if a 2 MB entry
    /// already covers the VA (the exclusivity invariant: the large entry
    /// is the translation).
    pub fn fill(&mut self, vpn: u64) {
        if let Some(lg) = &self.large {
            if lg.tags.probe(vpn >> 9) {
                return;
            }
        }
        self.tags.fill(vpn);
    }

    /// Install a 2 MB translation for the frame containing page `fpn << 9`,
    /// shooting down every 4 KB entry it covers. No-op unless the large
    /// side is enabled.
    pub fn fill_large(&mut self, fpn: u64) {
        if let Some(lg) = &mut self.large {
            lg.tags.fill(fpn);
            self.tags.invalidate_where(|vpn| vpn >> 9 == fpn);
        }
    }

    /// Frame-granularity shootdown: drop the 2 MB entry for `fpn` *and*
    /// every 4 KB entry it covers. Used on promotion (the covered small
    /// entries become stale) and demotion (the large entry does).
    pub fn shootdown_frame(&mut self, fpn: u64) {
        self.invalidate_large(fpn);
        self.tags.invalidate_where(|vpn| vpn >> 9 == fpn);
    }

    /// Drop the 2 MB translation for frame number `fpn`, if cached.
    pub fn invalidate_large(&mut self, fpn: u64) -> bool {
        match &mut self.large {
            Some(lg) => lg.tags.invalidate(fpn),
            None => false,
        }
    }

    /// Non-mutating: is frame number `fpn` cached on the 2 MB side?
    pub fn has_large(&self, fpn: u64) -> bool {
        self.large.as_ref().is_some_and(|lg| lg.tags.probe(fpn))
    }

    /// Non-mutating: is `vpn` cached on the 4 KB side?
    pub fn holds_small(&self, vpn: u64) -> bool {
        self.tags.probe(vpn)
    }

    /// Per-size counters; all zero when the large side is disabled.
    pub fn size_stats(&self) -> TlbSizeStats {
        self.large.as_ref().map(|lg| lg.stats).unwrap_or_default()
    }

    /// Drop the translation for `vpn`, if cached.
    pub fn invalidate(&mut self, vpn: u64) -> bool {
        self.tags.invalidate(vpn)
    }

    /// Lookup hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookup misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MemConfig;

    #[test]
    fn miss_then_fill_then_hit() {
        let cfg = MemConfig::kepler_k20();
        let mut t = Tlb::new(&cfg.l1_tlb);
        assert!(!t.lookup(5));
        t.fill(5);
        assert!(t.lookup(5));
        assert_eq!(t.hits(), 1);
        assert_eq!(t.misses(), 1);
    }

    #[test]
    fn l1_tlb_capacity_is_32() {
        let cfg = MemConfig::kepler_k20();
        let mut t = Tlb::new(&cfg.l1_tlb);
        // Fill 33 pages that all map across the 4 sets; 32 fit, 1 evicts.
        for vpn in 0..33u64 {
            t.fill(vpn);
        }
        let resident = (0..33u64).filter(|&v| t.lookup(v)).count();
        assert_eq!(resident, 32);
    }

    #[test]
    fn invalidate_forces_miss() {
        let cfg = MemConfig::kepler_k20();
        let mut t = Tlb::new(&cfg.l2_tlb);
        t.fill(9);
        assert!(t.invalidate(9));
        assert!(!t.lookup(9));
    }

    #[test]
    fn dual_lookup_matches_plain_without_large_side() {
        let cfg = MemConfig::kepler_k20();
        let mut t = Tlb::new(&cfg.l1_tlb);
        t.fill(5);
        assert!(t.lookup_dual(5));
        assert!(!t.lookup_dual(6));
        assert_eq!((t.hits(), t.misses()), (1, 1));
        assert_eq!(t.size_stats(), TlbSizeStats::default());
    }

    #[test]
    fn large_probed_before_small() {
        let cfg = MemConfig::kepler_k20();
        let mut t = Tlb::new(&cfg.l1_tlb);
        t.enable_large(&cfg.l1_tlb);
        t.fill_large(0); // covers vpns 0..512
        assert!(t.lookup_dual(17));
        assert!(!t.lookup_dual(512)); // next frame
        let s = t.size_stats();
        assert_eq!(s.large_hits, 1);
        assert_eq!(s.large_misses, 1);
        assert_eq!(s.small_misses, 1);
    }

    #[test]
    fn exclusivity_small_fill_blocked_and_shot_down() {
        let cfg = MemConfig::kepler_k20();
        let mut t = Tlb::new(&cfg.l1_tlb);
        t.enable_large(&cfg.l1_tlb);
        t.fill(3); // small entry in frame 0
        t.fill_large(0); // promote: must shoot it down
        assert!(!t.holds_small(3));
        t.fill(3); // refused while the large entry is live
        assert!(!t.holds_small(3));
        assert!(t.invalidate_large(0));
        t.fill(3); // allowed again after splinter
        assert!(t.holds_small(3));
    }
}
