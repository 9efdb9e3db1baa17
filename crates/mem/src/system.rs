//! The whole memory hierarchy as one event-driven model.
//!
//! [`MemSystem`] owns the per-SM L1 caches and L1 TLBs, the shared L2 cache
//! and L2 TLB, the fill unit (page-table walker pool plus the global
//! pending-fault queue), the DRAM channel and the GPU page table. SMs
//! interact with it through warp-level *accesses*:
//!
//! 1. [`MemSystem::start_access`] submits the coalesced line requests of a
//!    global-memory warp instruction (one request per unique 128 B line,
//!    injected at one per cycle — the coalescer/LDST throughput).
//! 2. Each request translates (L1 TLB -> L2 TLB -> walker) and then
//!    accesses the data hierarchy (L1 -> L2 -> DRAM, with MSHR merging and
//!    capacity stalls).
//! 3. The SM drains [`AccessEvent`]s: **`LastTlbCheck`** when the final
//!    request passed translation (paper Figure 5 — the earliest point the
//!    instruction is guaranteed not to fault), **`Fault`** when translation
//!    found unmapped pages (preemptible schemes squash and later replay the
//!    instruction), and **`Data`** when all requests completed (the commit
//!    point).
//!
//! The [`FaultMode`] chooses between the baseline behaviour — faulted
//! requests stall inside the fill unit and replay transparently once the
//! page arrives ("treated as a very long TLB miss", Section 2.2) — and the
//! squash-and-notify behaviour required by the paper's preemptible-fault
//! schemes.

use crate::config::{Cycle, MemConfig};
use crate::dram::Dram;
use crate::fault::{FaultKind, FaultQueue};
use crate::large::{
    frame_of, LpStats, PageSizePolicy, COALESCE_CYCLES, LARGE_PAGE_BYTES, REGIONS_PER_LARGE,
};
use crate::mshr::{MshrAlloc, MshrTable};
use crate::page_table::{region_of, PageState, PageTable, REGION_BYTES, REGION_PAGES};
use crate::phys::{AllocOwner, PhysAllocator};
use crate::setassoc::SetAssoc;
use crate::tlb::Tlb;
use crate::wheel::EventWheel;
use gex_isa::{page_of, LINE_BYTES};
use std::collections::{BTreeMap, HashMap};

/// Identifies one in-flight warp access; unique while the access is live.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AccessToken {
    idx: u32,
    gen: u32,
}

/// Notifications delivered to the issuing SM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessEvent {
    /// Every request of the access passed its TLB check: the instruction
    /// can no longer fault.
    LastTlbCheck {
        /// The access.
        token: AccessToken,
    },
    /// Translation discovered unmapped pages (squash mode only). The access
    /// is dead; the SM must squash the instruction and replay it after the
    /// listed pages' regions are resolved.
    Fault {
        /// The access.
        token: AccessToken,
        /// Faulted page addresses.
        pages: Vec<u64>,
        /// Position of the (first) faulted region in the global pending
        /// fault queue when the fault completed — the local scheduler's
        /// context-switch signal (Section 4.1).
        queue_pos: u32,
    },
    /// All requests completed: loads have data, stores are accepted. The
    /// instruction may commit.
    Data {
        /// The access.
        token: AccessToken,
    },
}

impl AccessEvent {
    /// The access this event belongs to.
    pub fn token(&self) -> AccessToken {
        match self {
            AccessEvent::LastTlbCheck { token }
            | AccessEvent::Fault { token, .. }
            | AccessEvent::Data { token } => *token,
        }
    }
}

/// Fatal memory-system conditions. The hierarchy records the first one it
/// hits instead of panicking mid-event; the driving simulator picks it up
/// via [`MemSystem::take_error`] and aborts the run with a structured
/// report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemError {
    /// A translation reached a page no registered buffer covers: the
    /// workload touched memory outside every mapping the launch declared.
    InvalidPage {
        /// The unbacked page address.
        page: u64,
        /// SM whose access walked into it (first waiter).
        sm: u32,
    },
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemError::InvalidPage { page, sm } => write!(
                f,
                "access to invalid page {page:#x} from SM {sm}: the workload touched \
                 memory outside every registered buffer"
            ),
        }
    }
}

impl std::error::Error for MemError {}

/// What [`MemSystem::back_fault`] did for one fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backing {
    /// Frames the fault now holds, or `None` when the pool is full and
    /// every resident region is still in flight: the fault must wait for a
    /// landing.
    pub frames: Option<u64>,
    /// Regions evicted to make room; the caller charges their cost.
    pub evictions: u64,
}

/// What happens when translation faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Baseline: the faulted request parks in the fill unit and replays
    /// transparently when the page is mapped. The SM sees only a very slow
    /// access — and can never preempt the instruction.
    StallReplay,
    /// Preemptible schemes: the access dies with a [`AccessEvent::Fault`]
    /// notification so the SM can squash and later replay the instruction.
    SquashNotify,
}

/// Kind of data access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Read: completes when data returns from the hierarchy.
    Load,
    /// Write: completes when accepted by the L2 (write-through, no
    /// L1 allocate).
    Store,
    /// Read-modify-write at the L2: completes after the L2 (plus DRAM on an
    /// L2 miss).
    Atomic,
}

/// Aggregate memory-system statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Warp accesses started.
    pub accesses: u64,
    /// Line requests injected.
    pub requests: u64,
    /// L1 data hits / misses.
    pub l1_hits: u64,
    /// L1 data misses.
    pub l1_misses: u64,
    /// L2 data hits.
    pub l2_hits: u64,
    /// L2 data misses.
    pub l2_misses: u64,
    /// Page-table walks performed.
    pub walks: u64,
    /// Requests that faulted at translation.
    pub faulted_requests: u64,
    /// Accesses that died with a fault notification.
    pub faulted_accesses: u64,
    /// Retries caused by full MSHR tables.
    pub mshr_retries: u64,
    /// Requests refused admission to the fault queue because the owning
    /// tenant's fault budget was exhausted (always 0 without budgets).
    pub denied_requests: u64,
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    StartTranslate(u32),
    L2TlbLookup(u32),
    TransOk(u32),
    WalkDone(u64),
    /// A load re-polls the L1 MSHR table it found full; `fills` is the
    /// L1's [`Cache::fills`] at that poll.
    DataRetry { r: u32, fills: u32 },
    L2Lookup { line: u64, sm: u32 },
    L2Resp { line: u64, sm: u32 },
    DramReady { line: u64 },
    LineDone(u32),
    /// A background coalesce pass on this 2 MB frame settles. Fired only
    /// under large-page policies; cancelled passes leave the event in the
    /// wheel (lazy invalidation — the handler revalidates against the
    /// pending map).
    CoalesceDone(u64),
}

#[derive(Debug)]
struct Access {
    gen: u32,
    sm: u32,
    kind: AccessKind,
    /// Requests whose translation has not concluded (ok or fault).
    pending_checks: u32,
    /// Requests in the data phase.
    pending_data: u32,
    /// Requests not yet fully retired (slot recycling guard).
    outstanding: u32,
    faulted_pages: Vec<u64>,
    /// Terminal event emitted (Fault or Data).
    done: bool,
}

#[derive(Debug, Clone, Copy)]
struct Req {
    access: u32,
    line: u64,
    dead: bool,
    retired: bool,
}

#[derive(Debug)]
struct Cache {
    tags: SetAssoc,
    mshr: MshrTable,
    latency: Cycle,
    /// L1 only: bumped by [`MemSystem::ev_l2_resp`], the one place an L1
    /// line fills and an L1 MSHR entry frees. While it stands still, a
    /// full MSHR table stays full with the same keys and nothing enters
    /// the tags, so a load that found the table full finds it full again.
    fills: u32,
}

impl Cache {
    fn new(cfg: &crate::config::CacheConfig) -> Self {
        Cache {
            tags: SetAssoc::new(cfg.sets(), cfg.ways),
            mshr: MshrTable::new(cfg.mshrs),
            latency: cfg.latency,
            fills: 0,
        }
    }
}


/// Tag for the data caches: the line number (addresses are 128 B aligned,
/// so the raw address would alias every line into set 0).
#[inline]
fn line_tag(line: u64) -> u64 {
    line >> 7
}

/// Tag for the TLBs: the virtual page number.
#[inline]
fn page_tag(page: u64) -> u64 {
    page >> 12
}

/// Tag for the large TLB side: the 2 MB frame number.
#[inline]
fn frame_tag(addr: u64) -> u64 {
    addr >> 21
}

/// Runtime state of the large-page machinery; present only when the
/// configured [`PageSizePolicy`] uses large pages, so `Small` runs never
/// touch any of it.
#[derive(Debug)]
struct LpState {
    /// Whether the background coalescer may promote (Transparent with
    /// coalescing on). `HugeOnly` promotes synchronously on the fault
    /// path and ignores this.
    coalesce_enabled: bool,
    /// Frames with a coalesce pass in flight -> the pass's settle cycle.
    /// Shootdowns cancel a pass by removing its entry; the settle event
    /// revalidates against this map.
    pending: BTreeMap<u64, Cycle>,
    /// Faults that walked into a frame mid-pass, held until the pass
    /// settles: frame -> (page, walk waiters).
    held: HashMap<u64, Vec<(u64, Vec<u64>)>>,
    stats: LpStats,
}

/// The memory hierarchy. See the [module docs](self).
#[derive(Debug)]
pub struct MemSystem {
    cfg: MemConfig,
    fault_mode: FaultMode,
    l1: Vec<Cache>,
    l2: Cache,
    l1_tlb: Vec<Tlb>,
    l2_tlb: Tlb,
    l2_tlb_mshr: MshrTable,
    walkers_active: u32,
    walk_queue: std::collections::VecDeque<u64>,
    dram: Dram,
    /// The GPU page table (public: the paging engine mutates it directly).
    pub page_table: PageTable,
    /// GPU physical memory, sized from [`MemConfig::gpu_mem_bytes`].
    phys: PhysAllocator,
    /// The fill unit's pending fault queue (public: handlers drain it).
    pub fault_queue: FaultQueue,
    events: EventWheel<Ev>,
    accesses: Vec<Access>,
    free_accesses: Vec<u32>,
    reqs: Vec<Req>,
    free_reqs: Vec<u32>,
    outbox: Vec<Vec<AccessEvent>>,
    /// Stall-mode: faulted requests parked per 64 KB region.
    parked: HashMap<u64, Vec<u32>>,
    stats: MemStats,
    /// True once [`MemSystem::set_tenant_shift`] ran: per-tenant request
    /// counters update on the fault path. Off (the default) the counters
    /// stay empty and the fault path pays nothing.
    tenant_accounting: bool,
    /// Per-tenant `(faulted_requests, denied_requests)`.
    tenant_fault_counts: BTreeMap<u32, (u64, u64)>,
    /// Large-page machinery; `None` under [`PageSizePolicy::Small`], so
    /// the 4 KB-only paths execute byte-identically to the pre-large-page
    /// simulator.
    lp: Option<LpState>,
    /// First fatal condition hit (the hierarchy stops making progress on
    /// the affected requests; the simulator must abort the run).
    error: Option<MemError>,
}

impl MemSystem {
    /// Build the hierarchy for `cfg` with the given fault behaviour.
    pub fn new(cfg: MemConfig, fault_mode: FaultMode) -> Self {
        let n = cfg.num_sms as usize;
        let mut l1_tlb: Vec<Tlb> = (0..n).map(|_| Tlb::new(&cfg.l1_tlb)).collect();
        let mut l2_tlb = Tlb::new(&cfg.l2_tlb);
        let lp = cfg.page_size.uses_large_pages().then(|| {
            for tlb in &mut l1_tlb {
                tlb.enable_large(&cfg.l1_tlb);
            }
            l2_tlb.enable_large(&cfg.l2_tlb);
            LpState {
                coalesce_enabled: cfg.coalesce && cfg.page_size == PageSizePolicy::Transparent,
                pending: BTreeMap::new(),
                held: HashMap::new(),
                stats: LpStats::default(),
            }
        });
        MemSystem {
            l1: (0..n).map(|_| Cache::new(&cfg.l1)).collect(),
            l2: Cache::new(&cfg.l2),
            l1_tlb,
            l2_tlb,
            l2_tlb_mshr: MshrTable::new(cfg.l2_tlb.mshrs),
            walkers_active: 0,
            walk_queue: std::collections::VecDeque::new(),
            dram: Dram::new(cfg.dram_latency, cfg.dram_bytes_per_cycle),
            page_table: PageTable::new(),
            phys: PhysAllocator::new(cfg.gpu_mem_bytes),
            fault_queue: FaultQueue::new(),
            events: EventWheel::new(Self::wheel_horizon(&cfg)),
            accesses: Vec::new(),
            free_accesses: Vec::new(),
            reqs: Vec::new(),
            free_reqs: Vec::new(),
            outbox: vec![Vec::new(); n],
            parked: HashMap::new(),
            stats: MemStats::default(),
            tenant_accounting: false,
            tenant_fault_counts: BTreeMap::new(),
            error: None,
            lp,
            fault_mode,
            cfg,
        }
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// Statistics so far.
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// The first fatal condition hit, if any (without clearing it).
    pub fn error(&self) -> Option<&MemError> {
        self.error.as_ref()
    }

    /// Take the first fatal condition hit, if any. Once an error is
    /// recorded the affected requests make no further progress, so the
    /// caller should abort the run.
    pub fn take_error(&mut self) -> Option<MemError> {
        self.error.take()
    }

    /// Direct access to the DRAM channel (context-switch transfers share
    /// its bandwidth).
    pub fn dram_mut(&mut self) -> &mut Dram {
        &mut self.dram
    }

    /// Enable multi-tenant accounting: a virtual address belongs to the
    /// tenant in its high bits (`region >> shift` for the fault queue,
    /// equivalently `page >> shift` for the TLBs). Propagates the shift to
    /// the fault queue and every TLB so faults, denials, hits and misses
    /// are attributed per tenant.
    pub fn set_tenant_shift(&mut self, shift: u32) {
        self.tenant_accounting = true;
        self.fault_queue.set_tenant_shift(shift);
        for tlb in &mut self.l1_tlb {
            tlb.set_tenant_shift(shift);
        }
        self.l2_tlb.set_tenant_shift(shift);
    }

    /// Per-tenant fault-path request counters: `(faulted_requests,
    /// denied_requests)` attributed to `tenant`. All zero unless
    /// [`MemSystem::set_tenant_shift`] was called.
    pub fn tenant_fault_stats(&self, tenant: u32) -> (u64, u64) {
        self.tenant_fault_counts.get(&tenant).copied().unwrap_or((0, 0))
    }

    /// Per-tenant TLB accounting summed over the L1 TLBs and the L2 TLB:
    /// `(hits, misses)` attributed to `tenant`. All zero unless
    /// [`MemSystem::set_tenant_shift`] was called.
    pub fn tenant_tlb_stats(&self, tenant: u32) -> (u64, u64) {
        let mut hits = 0;
        let mut misses = 0;
        for tlb in self.l1_tlb.iter().chain(std::iter::once(&self.l2_tlb)) {
            let (h, m) = tlb.tenant_stats(tenant);
            hits += h;
            misses += m;
        }
        (hits, misses)
    }

    /// The event-wheel horizon: the longest fixed-latency delay a handler
    /// schedules, a page walk queued behind the L2 TLB lookup or a load
    /// missing to DRAM. Only DRAM queueing and coalesce passes land beyond
    /// it.
    fn wheel_horizon(cfg: &MemConfig) -> Cycle {
        (cfg.l2_tlb.latency + cfg.walk_latency)
            .max(cfg.l1.latency + cfg.l2.latency + cfg.dram_latency + 1)
    }

    fn schedule(&mut self, cycle: Cycle, ev: Ev) {
        self.events.push(cycle, ev);
    }

    /// The cycle of the earliest pending internal event, if any — lets the
    /// top-level simulator skip idle stretches.
    pub fn next_event_cycle(&self) -> Option<Cycle> {
        self.events.next_cycle()
    }

    /// True if no requests are in flight anywhere in the hierarchy.
    pub fn quiescent(&self) -> bool {
        self.events.is_empty()
            && self.parked.is_empty()
            && self.lp.as_ref().is_none_or(|lp| lp.held.is_empty())
    }

    /// Begin a warp access of `kind` touching the given unique cache lines,
    /// issued by SM `sm` at cycle `now`. Requests inject at one line per
    /// cycle starting next cycle.
    ///
    /// # Panics
    ///
    /// Panics if `lines` is empty — fully predicated-off accesses must not
    /// reach the memory system.
    pub fn start_access(
        &mut self,
        now: Cycle,
        sm: u32,
        kind: AccessKind,
        lines: &[u64],
    ) -> AccessToken {
        assert!(!lines.is_empty(), "access with no coalesced requests");
        let idx = if let Some(i) = self.free_accesses.pop() {
            let gen = self.accesses[i as usize].gen + 1;
            self.accesses[i as usize] = Access {
                gen,
                sm,
                kind,
                pending_checks: lines.len() as u32,
                pending_data: 0,
                outstanding: lines.len() as u32,
                faulted_pages: Vec::new(),
                done: false,
            };
            i
        } else {
            self.accesses.push(Access {
                gen: 0,
                sm,
                kind,
                pending_checks: lines.len() as u32,
                pending_data: 0,
                outstanding: lines.len() as u32,
                faulted_pages: Vec::new(),
                done: false,
            });
            (self.accesses.len() - 1) as u32
        };
        self.stats.accesses += 1;
        for (i, &line) in lines.iter().enumerate() {
            let r = self.alloc_req(Req { access: idx, line, dead: false, retired: false });
            self.stats.requests += 1;
            self.schedule(now + 1 + i as Cycle, Ev::StartTranslate(r));
        }
        AccessToken { idx, gen: self.accesses[idx as usize].gen }
    }

    fn alloc_req(&mut self, req: Req) -> u32 {
        if let Some(i) = self.free_reqs.pop() {
            self.reqs[i as usize] = req;
            i
        } else {
            self.reqs.push(req);
            (self.reqs.len() - 1) as u32
        }
    }

    /// Drain the pending notifications for SM `sm`.
    pub fn drain_events(&mut self, sm: u32) -> Vec<AccessEvent> {
        std::mem::take(&mut self.outbox[sm as usize])
    }

    /// Drain the pending notifications for SM `sm` into `buf` without
    /// allocating: `buf` is cleared and swapped with the outbox, so both
    /// vectors' capacities are recycled across ticks.
    pub fn drain_events_into(&mut self, sm: u32, buf: &mut Vec<AccessEvent>) {
        buf.clear();
        std::mem::swap(buf, &mut self.outbox[sm as usize]);
    }

    /// True if SM `sm` has undelivered events waiting in its outbox. Lets
    /// the engine skip ticking a stalled SM with nothing to deliver.
    pub fn has_pending_events(&self, sm: u32) -> bool {
        !self.outbox[sm as usize].is_empty()
    }

    /// Resolve the 64 KB region containing `addr`: map its pages and replay
    /// any requests parked on it (stall mode). The caller (the paging
    /// engine or a fault handler) invokes this when the fault service
    /// completes. Returns the number of pages newly mapped.
    pub fn resolve_region(&mut self, addr: u64, now: Cycle) -> u32 {
        let region = region_of(addr);
        let mapped = self.page_table.map_region(region);
        if let Some(parked) = self.parked.remove(&region) {
            for r in parked {
                let (sm, page) = {
                    let req = &self.reqs[r as usize];
                    (self.accesses[req.access as usize].sm, page_of(req.line))
                };
                self.l1_tlb[sm as usize].fill(page_tag(page));
                self.l2_tlb.fill(page_tag(page));
                self.schedule(now + 1, Ev::TransOk(r));
            }
        }
        self.fault_queue.finish_service(region);
        mapped
    }

    /// Invalidate every TLB entry of the 64 KB region containing `addr`
    /// (the shootdown an eviction requires under memory oversubscription).
    /// Under large-page policies this also drops any 2 MB entry covering
    /// the region and cancels a coalesce pass in flight on its frame — the
    /// eviction invalidated the pass's all-resident premise.
    pub fn shootdown_region(&mut self, addr: u64) {
        if let Some(lp) = &mut self.lp {
            let frame = frame_of(addr);
            if lp.pending.remove(&frame).is_some() {
                // Lazy cancellation: the settle event stays in the wheel and
                // revalidates, so held faults still drain when it fires.
                lp.stats.cancelled += 1;
            }
            for tlb in &mut self.l1_tlb {
                tlb.invalidate_large(frame_tag(addr));
            }
            self.l2_tlb.invalidate_large(frame_tag(addr));
        }
        let base = region_of(addr);
        for i in 0..crate::page_table::REGION_PAGES {
            let tag = page_tag(base + i * 4096);
            for tlb in &mut self.l1_tlb {
                tlb.invalidate(tag);
            }
            self.l2_tlb.invalidate(tag);
        }
    }

    /// GPU physical memory.
    pub fn phys(&self) -> &PhysAllocator {
        &self.phys
    }

    /// Back the fault on `region` with frames for `owner` under the
    /// page-size policy: the one backing path of both fault handlers.
    /// `HugeOnly` backs the pages of the region's 2 MB frame its
    /// resolution will map, or none when `covered` (asked only then) says
    /// a live fault of the caller already backs the frame; the other
    /// policies back the 64 KB region. While the pool is full, the
    /// oldest-mapped region other than `region` is evicted: shot down and
    /// its frames freed.
    pub fn back_fault(
        &mut self,
        region: u64,
        owner: AllocOwner,
        covered: impl FnOnce() -> bool,
    ) -> Backing {
        let frame = frame_of(region);
        let need = match self.cfg.page_size {
            PageSizePolicy::HugeOnly if covered() => 0,
            PageSizePolicy::HugeOnly => self.page_table.frame_mappable_pages(frame),
            _ => REGION_PAGES,
        };
        let mut evictions = 0;
        while need > 0 && self.phys.alloc(frame, need, owner).is_none() {
            let Some((victim, pages)) = self.page_table.evict_oldest_region(region) else {
                return Backing { frames: None, evictions };
            };
            self.shootdown_region(victim);
            self.phys.free(frame_of(victim), pages as u64, true);
            evictions += 1;
        }
        Backing { frames: Some(need), evictions }
    }

    /// Give back the `frames` a NACKed service of the fault on `region`
    /// was backed with. They were never mapped, so they return to their
    /// block without a hole; under `HugeOnly`, pages another fault mapped
    /// since keep theirs.
    pub fn give_back(&mut self, region: u64, frames: u64) {
        let frame = frame_of(region);
        let frames = match self.cfg.page_size {
            PageSizePolicy::HugeOnly => frames.min(self.page_table.frame_mappable_pages(frame)),
            _ => frames,
        };
        self.phys.free(frame, frames, false);
    }

    /// Resolve a serviced fault on `region` under the page-size policy,
    /// appending the regions it resolved to `resolved` (the handler's wake
    /// list). `Transparent` nudges the background coalescer. `HugeOnly`
    /// maps the whole 2 MB frame, sibling regions' queued faults with it,
    /// and promotes it at once when its block stayed contiguous.
    pub fn resolve_fault(&mut self, region: u64, now: Cycle, resolved: &mut Vec<u64>) {
        let frame = frame_of(region);
        match self.cfg.page_size {
            PageSizePolicy::Small => {
                self.resolve_region(region, now);
            }
            PageSizePolicy::Transparent => {
                self.resolve_region(region, now);
                let contiguous = self.phys.frame_coalescible(frame);
                self.note_region_resolved(region, now, contiguous);
            }
            PageSizePolicy::HugeOnly => {
                let before = resolved.len();
                for r in (0..REGIONS_PER_LARGE).map(|i| frame + i * REGION_BYTES) {
                    let was_pending = self.fault_queue.remove(r).is_some();
                    let was_parked = self.parked.contains_key(&r);
                    if self.resolve_region(r, now) > 0 || was_pending || was_parked {
                        resolved.push(r);
                    }
                }
                if self.phys.frame_coalescible(frame) {
                    self.promote(frame);
                }
                if resolved.len() > before {
                    return;
                }
                // A duplicate service of an already-resolved frame: still
                // report the region so its stalled warps re-check.
            }
        }
        resolved.push(region);
    }

    /// Bytes one migration moves from the CPU: the 64 KB region, or the
    /// whole 2 MB frame under `HugeOnly`.
    pub fn migration_bytes(&self) -> u64 {
        match self.cfg.page_size {
            PageSizePolicy::HugeOnly => LARGE_PAGE_BYTES,
            _ => REGION_BYTES,
        }
    }

    /// Promote `frame` to one 2 MB mapping if all its subpages are present,
    /// shooting down the now-stale 4 KB entries.
    fn promote(&mut self, frame: u64) {
        if self.page_table.try_coalesce(frame) {
            if let Some(lp) = &mut self.lp {
                lp.stats.coalesced += 1;
            }
            for tlb in &mut self.l1_tlb {
                tlb.shootdown_frame(frame_tag(frame));
            }
            self.l2_tlb.shootdown_frame(frame_tag(frame));
        }
    }

    /// Notify the large-page machinery that a fault region was resolved:
    /// if the region's 2 MB frame is now fully resident, physically
    /// contiguous (`contiguous`; [`MemSystem::resolve_fault`] asks the
    /// allocator) and not already promoted or mid-pass, schedule a
    /// background coalesce pass to settle [`COALESCE_CYCLES`] from now.
    /// No-op outside `Transparent`-with-coalescing runs.
    pub fn note_region_resolved(&mut self, region: u64, now: Cycle, contiguous: bool) {
        let frame = frame_of(region);
        let Some(lp) = &mut self.lp else {
            return;
        };
        if !lp.coalesce_enabled
            || !contiguous
            || lp.pending.contains_key(&frame)
            || self.page_table.large_mapped(frame)
            || !self.page_table.frame_fully_resident(frame)
        {
            return;
        }
        let due = now + COALESCE_CYCLES;
        lp.pending.insert(frame, due);
        lp.stats.passes += 1;
        self.schedule(due, Ev::CoalesceDone(frame));
    }

    /// A coalesce pass settles. If the pass is still the live one for its
    /// frame, promote (the all-resident premise was guarded by
    /// [`MemSystem::shootdown_region`] cancelling on eviction) and shoot
    /// down the now-stale 4 KB entries. Either way, faults held on the
    /// frame re-dispatch against the settled page table — held, never
    /// dropped.
    fn ev_coalesce_done(&mut self, t: Cycle, frame: u64) {
        let Some(lp) = &mut self.lp else {
            return;
        };
        match lp.pending.get(&frame).copied() {
            Some(due) if due == t => {
                lp.pending.remove(&frame);
                self.promote(frame);
            }
            Some(_) => {
                // A newer pass owns the frame; this event is stale. Keep
                // holding — the newer pass's settle event drains the queue.
                return;
            }
            None => {
                // Cancelled pass: nothing to promote, but held faults must
                // still drain below.
            }
        }
        let held = self
            .lp
            .as_mut()
            .and_then(|lp| lp.held.remove(&frame))
            .unwrap_or_default();
        for (page, waiters) in held {
            self.finish_walk(t, page, waiters);
        }
    }

    /// Demote the 2 MB mapping covering `addr` back to 4 KB pages (a
    /// write fault inside the large page, or a neighbor's pressure). The
    /// subpages stay present — SMs are never stalled; their next accesses
    /// simply re-walk and refill at 4 KB. Returns whether a mapping was
    /// splintered.
    pub fn splinter_frame(&mut self, addr: u64, _now: Cycle) -> bool {
        let frame = frame_of(addr);
        if !self.page_table.splinter(frame) {
            return false;
        }
        if let Some(lp) = &mut self.lp {
            lp.stats.splintered += 1;
        }
        for tlb in &mut self.l1_tlb {
            tlb.shootdown_frame(frame_tag(frame));
        }
        self.l2_tlb.shootdown_frame(frame_tag(frame));
        true
    }

    /// Large-page counters, combined with the page table's promote /
    /// demote totals (which also count evictions' implicit splinters).
    pub fn lp_stats(&self) -> LpStats {
        let mut s = self.lp.as_ref().map(|lp| lp.stats).unwrap_or_default();
        s.coalesced = self.page_table.coalesced_frames();
        s.splintered = self.page_table.splintered_frames();
        s
    }

    /// Advance the hierarchy to cycle `now`, processing every event due at
    /// or before it.
    pub fn tick(&mut self, now: Cycle) {
        while let Some((t, ev)) = self.events.pop_due(now) {
            self.dispatch(t, ev);
        }
    }

    fn dispatch(&mut self, t: Cycle, ev: Ev) {
        match ev {
            Ev::StartTranslate(r) => self.ev_start_translate(t, r),
            Ev::L2TlbLookup(r) => self.ev_l2_tlb_lookup(t, r),
            Ev::TransOk(r) => self.ev_trans_ok(t, r),
            Ev::WalkDone(page) => self.ev_walk_done(t, page),
            Ev::DataRetry { r, fills } => self.ev_data_retry(t, r, fills),
            Ev::L2Lookup { line, sm } => self.ev_l2_lookup(t, line, sm),
            Ev::L2Resp { line, sm } => self.ev_l2_resp(t, line, sm),
            Ev::DramReady { line } => self.ev_dram_ready(t, line),
            Ev::LineDone(r) => self.ev_line_done(t, r),
            Ev::CoalesceDone(frame) => self.ev_coalesce_done(t, frame),
        }
    }

    // ------------------------------------------------------- translation

    fn ev_start_translate(&mut self, t: Cycle, r: u32) {
        let req = self.reqs[r as usize];
        if req.dead {
            self.retire_req(r);
            return;
        }
        let sm = self.accesses[req.access as usize].sm;
        let page = page_of(req.line);
        let lat = self.cfg.l1_tlb.latency;
        let hit = if self.lp.is_some() {
            self.l1_tlb[sm as usize].lookup_dual(page_tag(page))
        } else {
            self.l1_tlb[sm as usize].lookup(page_tag(page))
        };
        if hit {
            self.schedule(t + lat, Ev::TransOk(r));
        } else {
            self.schedule(t + lat, Ev::L2TlbLookup(r));
        }
    }

    fn ev_l2_tlb_lookup(&mut self, t: Cycle, r: u32) {
        let req = self.reqs[r as usize];
        if req.dead {
            self.retire_req(r);
            return;
        }
        let sm = self.accesses[req.access as usize].sm;
        let page = page_of(req.line);
        let hit = if self.lp.is_some() {
            let hit = self.l2_tlb.lookup_dual(page_tag(page));
            if hit {
                // Propagate at matching size: a large L2 entry fills the
                // L1's large side, a small one the 4 KB side.
                if self.l2_tlb.has_large(frame_tag(page)) {
                    self.l1_tlb[sm as usize].fill_large(frame_tag(page));
                } else {
                    self.l1_tlb[sm as usize].fill(page_tag(page));
                }
            }
            hit
        } else {
            let hit = self.l2_tlb.lookup(page_tag(page));
            if hit {
                self.l1_tlb[sm as usize].fill(page_tag(page));
            }
            hit
        };
        if hit {
            self.schedule(t + self.cfg.l2_tlb.latency, Ev::TransOk(r));
            return;
        }
        match self.l2_tlb_mshr.allocate(page, r as u64) {
            MshrAlloc::Primary => {
                // The L2 TLB lookup latency applies before the walk starts.
                self.submit_walk(t + self.cfg.l2_tlb.latency, page);
            }
            MshrAlloc::Secondary => {}
            MshrAlloc::Full => {
                self.stats.mshr_retries += 1;
                self.schedule(t + 8, Ev::L2TlbLookup(r));
            }
        }
    }

    /// Walk latency for `page`, aware of the leaf size: a walk that
    /// terminates at a 2 MB leaf skips the last level (three levels
    /// instead of four).
    fn walk_latency_for(&self, page: u64) -> Cycle {
        if self.lp.is_some() && self.page_table.large_mapped(page) {
            self.cfg.walk_latency - self.cfg.walk_latency / 4
        } else {
            self.cfg.walk_latency
        }
    }

    fn start_walk(&mut self, t: Cycle, page: u64) {
        self.walkers_active += 1;
        self.stats.walks += 1;
        let lat = self.walk_latency_for(page);
        if lat != self.cfg.walk_latency {
            if let Some(lp) = &mut self.lp {
                lp.stats.walks_large += 1;
            }
        }
        self.schedule(t + lat, Ev::WalkDone(page));
    }

    fn submit_walk(&mut self, t: Cycle, page: u64) {
        if self.walkers_active < self.cfg.num_walkers {
            self.start_walk(t, page);
        } else {
            self.walk_queue.push_back(page);
        }
    }

    fn ev_walk_done(&mut self, t: Cycle, page: u64) {
        self.walkers_active -= 1;
        if let Some(next) = self.walk_queue.pop_front() {
            self.start_walk(t, next);
        }
        let waiters = self.l2_tlb_mshr.complete(page);
        // A fault under a pending coalesce pass is *held*, never dropped:
        // the pass may be splintering state out from under the walk, so the
        // dispatch is deferred to the pass's settle event and re-evaluated
        // against the then-current page table.
        if let Some(lp) = &mut self.lp {
            let frame = frame_of(page);
            if lp.pending.contains_key(&frame) && self.page_table.state(page) != PageState::Present
            {
                lp.stats.held_faults += 1;
                lp.held.entry(frame).or_default().push((page, waiters));
                return;
            }
        }
        self.finish_walk(t, page, waiters);
    }

    /// Dispatch a completed walk on `page` to its waiters (the tail of
    /// [`MemSystem::ev_walk_done`], also replayed when a held fault's
    /// coalesce pass settles).
    fn finish_walk(&mut self, t: Cycle, page: u64, waiters: Vec<u64>) {
        let state = self.page_table.state(page);
        match state {
            PageState::Present => {
                let large = self.lp.is_some() && self.page_table.large_mapped(page);
                if large {
                    self.l2_tlb.fill_large(frame_tag(page));
                } else {
                    self.l2_tlb.fill(page_tag(page));
                }
                for w in waiters {
                    let r = w as u32;
                    if self.reqs[r as usize].dead {
                        self.retire_req(r);
                        continue;
                    }
                    let sm = self.accesses[self.reqs[r as usize].access as usize].sm;
                    if large {
                        self.l1_tlb[sm as usize].fill_large(frame_tag(page));
                    } else {
                        self.l1_tlb[sm as usize].fill(page_tag(page));
                    }
                    self.schedule(t + 1, Ev::TransOk(r));
                }
            }
            PageState::Invalid => {
                // Record the fatal condition instead of panicking: the
                // waiters retire dead so the hierarchy stays consistent and
                // the driving simulator aborts with a structured error.
                let sm = waiters
                    .first()
                    .map(|&w| self.accesses[self.reqs[w as usize].access as usize].sm)
                    .unwrap_or(0);
                if self.error.is_none() {
                    self.error = Some(MemError::InvalidPage { page, sm });
                }
                for w in waiters {
                    let r = w as u32;
                    self.reqs[r as usize].dead = true;
                    self.retire_req(r);
                }
            }
            _ => {
                let kind = match state {
                    PageState::CpuDirty => FaultKind::Migration,
                    PageState::CpuClean => FaultKind::AllocOnly,
                    _ => FaultKind::FirstTouch,
                };
                for w in waiters {
                    let r = w as u32;
                    if self.reqs[r as usize].dead {
                        self.retire_req(r);
                        continue;
                    }
                    let a = self.reqs[r as usize].access;
                    let sm = self.accesses[a as usize].sm;
                    let admission = self.fault_queue.try_report(page, kind, sm, t);
                    if self.tenant_accounting {
                        let tenant = self.fault_queue.tenant_of(page);
                        let e = self.tenant_fault_counts.entry(tenant).or_insert((0, 0));
                        if admission == crate::fault::FaultAdmission::Denied {
                            e.1 += 1;
                        } else {
                            e.0 += 1;
                        }
                    }
                    if admission == crate::fault::FaultAdmission::Denied {
                        // Tenant fault budget exhausted: the fault is never
                        // queued, so its region will never resolve. The
                        // request dies here and the issuing warp stalls —
                        // containment, not service. The driving simulator
                        // observes the denial and quarantines the tenant.
                        self.stats.denied_requests += 1;
                        match self.fault_mode {
                            FaultMode::StallReplay => {
                                self.reqs[r as usize].dead = true;
                                self.retire_req(r);
                            }
                            FaultMode::SquashNotify => {
                                self.accesses[a as usize].faulted_pages.push(page);
                                self.accesses[a as usize].pending_checks -= 1;
                                self.reqs[r as usize].dead = true;
                                self.retire_req(r);
                                self.maybe_finish_checks(t, a);
                            }
                        }
                        continue;
                    }
                    self.stats.faulted_requests += 1;
                    match self.fault_mode {
                        FaultMode::StallReplay => {
                            self.parked.entry(region_of(page)).or_default().push(r);
                        }
                        FaultMode::SquashNotify => {
                            self.accesses[a as usize].faulted_pages.push(page);
                            self.accesses[a as usize].pending_checks -= 1;
                            self.reqs[r as usize].dead = true;
                            self.retire_req(r);
                            self.maybe_finish_checks(t, a);
                        }
                    }
                }
            }
        }
    }

    fn ev_trans_ok(&mut self, t: Cycle, r: u32) {
        let req = self.reqs[r as usize];
        if req.dead {
            self.retire_req(r);
            return;
        }
        let a = req.access;
        self.accesses[a as usize].pending_checks -= 1;
        if !self.accesses[a as usize].faulted_pages.is_empty() {
            // A sibling request already faulted (squash mode): this request
            // will be squashed with the instruction; skip the data phase.
            self.reqs[r as usize].dead = true;
            self.retire_req(r);
            self.maybe_finish_checks(t, a);
            return;
        }
        self.accesses[a as usize].pending_data += 1;
        self.maybe_finish_checks(t, a);
        self.ev_data_phase(t, r);
    }

    fn maybe_finish_checks(&mut self, t: Cycle, a: u32) {
        let acc = &mut self.accesses[a as usize];
        if acc.pending_checks > 0 || acc.done {
            return;
        }
        if acc.faulted_pages.is_empty() {
            let token = AccessToken { idx: a, gen: acc.gen };
            let sm = acc.sm;
            self.outbox[sm as usize].push(AccessEvent::LastTlbCheck { token });
        } else {
            acc.done = true;
            let token = AccessToken { idx: a, gen: acc.gen };
            let sm = acc.sm;
            let pages = std::mem::take(&mut acc.faulted_pages);
            self.stats.faulted_accesses += 1;
            let queue_pos = pages
                .iter()
                .filter_map(|p| self.fault_queue.position(region_of(*p)))
                .min()
                .unwrap_or(0);
            self.outbox[sm as usize].push(AccessEvent::Fault { token, pages, queue_pos });
            self.maybe_free_access(a);
        }
        let _ = t;
    }

    // -------------------------------------------------------- data phase

    fn ev_data_phase(&mut self, t: Cycle, r: u32) {
        let req = self.reqs[r as usize];
        let acc = &self.accesses[req.access as usize];
        let sm = acc.sm as usize;
        let line = req.line;
        let l1_lat = self.l1[sm].latency;
        let l2_lat = self.l2.latency;
        match acc.kind {
            AccessKind::Store => {
                // Stores retire into a write buffer as soon as they are
                // translated (they can no longer fault); the write-through
                // to the L2 and the eventual DRAM write-back proceed in the
                // background. L1 stays coherent by invalidation, no
                // allocate.
                self.l1[sm].tags.invalidate(line_tag(line));
                if self.l2.tags.access(line_tag(line)) {
                    self.stats.l2_hits += 1;
                } else {
                    self.stats.l2_misses += 1;
                    self.l2.tags.fill(line_tag(line));
                    // Eventual write-back consumes DRAM bandwidth.
                    self.dram.bulk_transfer(t + l1_lat + l2_lat, LINE_BYTES);
                }
                self.schedule(t + 2, Ev::LineDone(r));
            }
            AccessKind::Atomic => {
                // Performed at the L2; an L2 miss fetches the line first.
                self.l1[sm].tags.invalidate(line_tag(line));
                if self.l2.tags.access(line_tag(line)) {
                    self.stats.l2_hits += 1;
                    self.schedule(t + l1_lat + l2_lat, Ev::LineDone(r));
                } else {
                    self.stats.l2_misses += 1;
                    self.l2.tags.fill(line_tag(line));
                    let done = self.dram.transfer(t + l1_lat + l2_lat, LINE_BYTES);
                    self.schedule(done, Ev::LineDone(r));
                }
            }
            AccessKind::Load => {
                if self.l1[sm].tags.access(line_tag(line)) {
                    self.stats.l1_hits += 1;
                    self.schedule(t + l1_lat, Ev::LineDone(r));
                    return;
                }
                match self.l1[sm].mshr.allocate(line, r as u64) {
                    MshrAlloc::Primary => {
                        self.stats.l1_misses += 1;
                        self.schedule(t + l1_lat, Ev::L2Lookup { line, sm: sm as u32 });
                    }
                    MshrAlloc::Secondary => {
                        self.stats.l1_misses += 1;
                    }
                    MshrAlloc::Full => {
                        // Not a new miss: the request retries until an MSHR
                        // frees.
                        self.stats.mshr_retries += 1;
                        let fills = self.l1[sm].fills;
                        self.schedule(t + 8, Ev::DataRetry { r, fills });
                    }
                }
            }
        }
    }

    /// A load re-polls a full L1 MSHR table. If no fill reached the L1
    /// since the last poll, the poll is `Full` again (see [`Cache::fills`]):
    /// count it and re-arm without the tag probe or the table lookup.
    /// Skipping the probe's LRU tick is exact, because stamps stay strictly
    /// increasing in access order.
    fn ev_data_retry(&mut self, t: Cycle, r: u32, fills: u32) {
        let sm = self.accesses[self.reqs[r as usize].access as usize].sm as usize;
        if self.l1[sm].fills == fills {
            self.stats.mshr_retries += 1;
            self.schedule(t + 8, Ev::DataRetry { r, fills });
        } else {
            self.ev_data_phase(t, r);
        }
    }

    fn ev_l2_lookup(&mut self, t: Cycle, line: u64, sm: u32) {
        if self.l2.tags.access(line_tag(line)) {
            self.stats.l2_hits += 1;
            self.schedule(t + self.l2.latency, Ev::L2Resp { line, sm });
            return;
        }
        self.stats.l2_misses += 1;
        match self.l2.mshr.allocate(line, sm as u64) {
            MshrAlloc::Primary => {
                let done = self.dram.transfer(t + self.l2.latency, LINE_BYTES);
                self.schedule(done, Ev::DramReady { line });
            }
            MshrAlloc::Secondary => {}
            MshrAlloc::Full => {
                self.stats.mshr_retries += 1;
                self.schedule(t + 8, Ev::L2Lookup { line, sm });
            }
        }
    }

    fn ev_l2_resp(&mut self, t: Cycle, line: u64, sm: u32) {
        let l1 = &mut self.l1[sm as usize];
        l1.fills = l1.fills.wrapping_add(1);
        l1.tags.fill(line_tag(line));
        for w in l1.mshr.complete(line) {
            self.schedule(t, Ev::LineDone(w as u32));
        }
    }

    fn ev_dram_ready(&mut self, t: Cycle, line: u64) {
        self.l2.tags.fill(line_tag(line));
        for sm in self.l2.mshr.complete(line) {
            self.schedule(t, Ev::L2Resp { line, sm: sm as u32 });
        }
    }

    fn ev_line_done(&mut self, t: Cycle, r: u32) {
        let req = self.reqs[r as usize];
        if !req.dead && !req.retired {
            let a = req.access;
            self.accesses[a as usize].pending_data -= 1;
            let acc = &self.accesses[a as usize];
            if acc.pending_data == 0 && acc.pending_checks == 0 && !acc.done {
                let token = AccessToken { idx: a, gen: acc.gen };
                let sm = acc.sm;
                self.accesses[a as usize].done = true;
                self.outbox[sm as usize].push(AccessEvent::Data { token });
            }
        }
        self.retire_req(r);
        let _ = t;
    }

    fn retire_req(&mut self, r: u32) {
        let req = &mut self.reqs[r as usize];
        if req.retired {
            return;
        }
        req.retired = true;
        let a = req.access;
        self.free_reqs.push(r);
        self.accesses[a as usize].outstanding -= 1;
        self.maybe_free_access(a);
    }

    fn maybe_free_access(&mut self, a: u32) {
        let acc = &self.accesses[a as usize];
        if acc.outstanding == 0 && acc.done {
            self.free_accesses.push(a);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page_table::REGION_BYTES;
    use gex_isa::PAGE_BYTES;

    fn system(mode: FaultMode) -> MemSystem {
        let mut m = MemSystem::new(MemConfig::kepler_k20(), mode);
        // Map the first 16 MB as present so plain accesses translate.
        m.page_table.set_range(0, 16 << 20, PageState::Present);
        m
    }

    fn run_until_events(m: &mut MemSystem, sm: u32, horizon: Cycle) -> (Vec<AccessEvent>, Cycle) {
        let mut out = Vec::new();
        for t in 0..horizon {
            m.tick(t);
            let evs = m.drain_events(sm);
            if !evs.is_empty() {
                out.extend(evs);
            }
            if out.iter().any(|e| matches!(e, AccessEvent::Data { .. } | AccessEvent::Fault { .. }))
            {
                return (out, t);
            }
        }
        (out, horizon)
    }

    #[test]
    fn cold_load_goes_to_dram_then_warms_caches() {
        let mut m = system(FaultMode::SquashNotify);
        let tok = m.start_access(0, 0, AccessKind::Load, &[0x1000]);
        let (evs, t_cold) = run_until_events(&mut m, 0, 10_000);
        assert_eq!(evs[0], AccessEvent::LastTlbCheck { token: tok });
        assert_eq!(evs[1], AccessEvent::Data { token: tok });
        // Cold: TLB walk (~570) + L1 + L2 + DRAM (~310).
        assert!(t_cold > 800, "cold access too fast: {t_cold}");
        assert_eq!(m.stats().walks, 1);
        assert_eq!(m.stats().l1_misses, 1);
        assert_eq!(m.stats().l2_misses, 1);

        // Second access: TLB hit + L1 hit -> ~41 cycles.
        let start = t_cold + 1;
        let tok2 = m.start_access(start, 0, AccessKind::Load, &[0x1000]);
        let mut done_at = 0;
        for t in start..start + 200 {
            m.tick(t);
            for e in m.drain_events(0) {
                if e == (AccessEvent::Data { token: tok2 }) {
                    done_at = t;
                }
            }
            if done_at > 0 {
                break;
            }
        }
        let warm = done_at - start;
        assert!(warm <= 50, "warm hit took {warm} cycles");
        assert_eq!(m.stats().l1_hits, 1);
    }

    #[test]
    fn requests_inject_one_per_cycle_and_merge_in_mshrs() {
        let mut m = system(FaultMode::SquashNotify);
        // Two accesses to the same line from the same SM: the second merges.
        let t1 = m.start_access(0, 0, AccessKind::Load, &[0x2000]);
        let t2 = m.start_access(0, 0, AccessKind::Load, &[0x2000]);
        let mut done = std::collections::HashSet::new();
        for t in 0..10_000 {
            m.tick(t);
            for e in m.drain_events(0) {
                if let AccessEvent::Data { token } = e {
                    done.insert(token);
                }
            }
            if done.len() == 2 {
                break;
            }
        }
        assert!(done.contains(&t1) && done.contains(&t2));
        // Only one DRAM fill happened for the shared line.
        assert_eq!(m.stats().l2_misses, 1);
    }

    #[test]
    fn store_completes_at_l2() {
        let mut m = system(FaultMode::SquashNotify);
        let tok = m.start_access(0, 0, AccessKind::Store, &[0x3000]);
        let (evs, t) = run_until_events(&mut m, 0, 10_000);
        assert!(evs.contains(&AccessEvent::Data { token: tok }));
        // No DRAM latency on the store completion path: walk + L1 + L2 only.
        assert!(t < 800, "store waited for DRAM: {t}");
    }

    #[test]
    fn squash_mode_faults_notify_and_enqueue() {
        let mut m = MemSystem::new(MemConfig::kepler_k20(), FaultMode::SquashNotify);
        m.page_table.set_range(0, 1 << 20, PageState::CpuDirty);
        let tok = m.start_access(0, 3, AccessKind::Load, &[0x1000, 0x1000 + PAGE_BYTES]);
        let (evs, _) = run_until_events(&mut m, 3, 10_000);
        let fault = evs
            .iter()
            .find_map(|e| match e {
                AccessEvent::Fault { token, pages, queue_pos } => Some((token, pages, queue_pos)),
                _ => None,
            })
            .expect("fault event");
        assert_eq!(*fault.0, tok);
        assert_eq!(fault.1.len(), 2, "both pages reported in one fault");
        assert_eq!(*fault.2, 0);
        // Same 64 KB region: one queue entry.
        assert_eq!(m.fault_queue.len(), 1);
        assert_eq!(m.stats().faulted_accesses, 1);
        // No LastTlbCheck and no Data for a faulted access.
        assert!(!evs.iter().any(|e| matches!(e, AccessEvent::LastTlbCheck { .. })));
        assert!(!evs.iter().any(|e| matches!(e, AccessEvent::Data { .. })));
    }

    #[test]
    fn stall_mode_faults_resolve_transparently() {
        let mut m = MemSystem::new(MemConfig::kepler_k20(), FaultMode::StallReplay);
        m.page_table.set_range(0, 1 << 20, PageState::CpuDirty);
        let tok = m.start_access(0, 0, AccessKind::Load, &[0x1000]);
        // Run past the walk: the request parks, no SM notification.
        for t in 0..2_000 {
            m.tick(t);
            assert!(m.drain_events(0).is_empty(), "no events while stalled");
        }
        assert_eq!(m.fault_queue.len(), 1);
        let entry = m.fault_queue.pop().unwrap();
        assert_eq!(entry.kind, FaultKind::Migration);
        // Handler resolves the region at t=5000.
        let mapped = m.resolve_region(entry.region, 5_000);
        assert_eq!(mapped as u64, REGION_BYTES / PAGE_BYTES);
        let mut got = Vec::new();
        for t in 5_000..20_000 {
            m.tick(t);
            got.extend(m.drain_events(0));
            if got.iter().any(|e| matches!(e, AccessEvent::Data { .. })) {
                break;
            }
        }
        assert!(got.contains(&AccessEvent::LastTlbCheck { token: tok }));
        assert!(got.contains(&AccessEvent::Data { token: tok }));
    }

    #[test]
    fn squashed_access_replays_after_resolution() {
        let mut m = MemSystem::new(MemConfig::kepler_k20(), FaultMode::SquashNotify);
        m.page_table.add_lazy_range(0, 1 << 20); // first-touch region
        let tok = m.start_access(0, 0, AccessKind::Store, &[0x4000]);
        let (evs, t_fault) = run_until_events(&mut m, 0, 10_000);
        let AccessEvent::Fault { token, pages, .. } = &evs[0] else {
            panic!("expected fault, got {evs:?}");
        };
        assert_eq!(*token, tok);
        let entry = m.fault_queue.pop().unwrap();
        assert_eq!(entry.kind, FaultKind::FirstTouch);
        m.resolve_region(pages[0], t_fault + 100);
        // Replay the instruction: fresh access, must now succeed.
        let tok2 = m.start_access(t_fault + 101, 0, AccessKind::Store, &[0x4000]);
        let mut got = Vec::new();
        for t in t_fault + 101..t_fault + 10_000 {
            m.tick(t);
            got.extend(m.drain_events(0));
            if got.iter().any(|e| matches!(e, AccessEvent::Data { .. })) {
                break;
            }
        }
        assert!(got.contains(&AccessEvent::Data { token: tok2 }));
    }

    #[test]
    fn wide_access_reports_last_tlb_check_after_all_lines() {
        let mut m = system(FaultMode::SquashNotify);
        // 32 lines across 2 pages, cold TLB: check order and single events.
        let lines: Vec<u64> = (0..32).map(|i| 0x10_0000 + i * 128).collect();
        let tok = m.start_access(0, 0, AccessKind::Load, &lines);
        let (evs, _) = run_until_events(&mut m, 0, 50_000);
        let checks = evs.iter().filter(|e| matches!(e, AccessEvent::LastTlbCheck { .. })).count();
        let datas = evs.iter().filter(|e| matches!(e, AccessEvent::Data { .. })).count();
        assert_eq!((checks, datas), (1, 1));
        assert_eq!(evs.last().unwrap(), &AccessEvent::Data { token: tok });
        // 2 pages -> at most 2 walks (per-page dedup in the TLB MSHRs).
        assert!(m.stats().walks <= 2, "walks = {}", m.stats().walks);
    }

    #[test]
    fn l1_mshr_capacity_forces_retries() {
        let mut m = system(FaultMode::SquashNotify);
        // 40 distinct lines from one SM exceed the 32 L1 MSHRs.
        let lines: Vec<u64> = (0..40).map(|i| 0x20_0000 + i * 128).collect();
        let tok = m.start_access(0, 0, AccessKind::Load, &lines);
        let (evs, _) = run_until_events(&mut m, 0, 100_000);
        assert!(evs.contains(&AccessEvent::Data { token: tok }));
        assert!(m.stats().mshr_retries > 0, "expected MSHR-full retries");
    }

    #[test]
    fn token_generations_do_not_alias() {
        let mut m = system(FaultMode::SquashNotify);
        let t1 = m.start_access(0, 0, AccessKind::Load, &[0x5000]);
        let (evs, t_done) = run_until_events(&mut m, 0, 10_000);
        assert!(evs.contains(&AccessEvent::Data { token: t1 }));
        // The slot is recycled; the new token must differ.
        let t2 = m.start_access(t_done + 1, 0, AccessKind::Load, &[0x6000]);
        assert_ne!(t1, t2);
    }

    #[test]
    fn caches_use_all_sets() {
        // Regression: 128 B-aligned addresses must spread across cache
        // sets, not alias into set 0. 64 distinct lines fit the 32 KB L1
        // comfortably; a second pass must hit for all of them.
        let mut m = system(FaultMode::SquashNotify);
        let lines: Vec<u64> = (0..64u64).map(|i| 0x40_0000 + i * 128).collect();
        let t1 = m.start_access(0, 0, AccessKind::Load, &lines);
        let (evs, t_done) = run_until_events(&mut m, 0, 100_000);
        assert!(evs.contains(&AccessEvent::Data { token: t1 }));
        let misses_before = m.stats().l1_misses;
        assert_eq!(misses_before, 64);
        let t2 = m.start_access(t_done + 1, 0, AccessKind::Load, &lines);
        let mut done = false;
        for t in t_done + 1..t_done + 100_000 {
            m.tick(t);
            if m.drain_events(0).contains(&AccessEvent::Data { token: t2 }) {
                done = true;
                break;
            }
        }
        assert!(done);
        assert_eq!(m.stats().l1_misses, misses_before, "second pass must be all hits");
        assert_eq!(m.stats().l1_hits, 64);
        // And the TLBs likewise: 2 pages walked once each.
        assert_eq!(m.stats().walks, 2);
    }

    #[test]
    fn invalid_access_reports_typed_error() {
        let mut m = MemSystem::new(MemConfig::kepler_k20(), FaultMode::SquashNotify);
        m.start_access(0, 2, AccessKind::Load, &[0xdead_0000]);
        for t in 0..5_000 {
            m.tick(t);
        }
        let err = m.error().cloned().expect("invalid access must record an error");
        let MemError::InvalidPage { page, sm } = err;
        assert_eq!(page, gex_isa::page_of(0xdead_0000));
        assert_eq!(sm, 2);
        assert!(err.to_string().contains("invalid page"));
        // take_error clears it.
        assert!(m.take_error().is_some());
        assert!(m.take_error().is_none());
    }
}
