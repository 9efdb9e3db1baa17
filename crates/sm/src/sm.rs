//! The SM pipeline: fetch, dual issue, scoreboarding, backend units,
//! out-of-order commit — and the five exception designs of the paper.
//!
//! The pipeline is trace-driven: each warp replays the linear dynamic
//! instruction stream produced by the functional simulator. The stages map
//! to the paper's Figure 1/3 timeline:
//!
//! * **Fetch** — one warp per cycle refills its instruction buffer; fetch
//!   is disabled across control flow (baseline behaviour) and, under the
//!   warp-disable schemes, across global-memory instructions.
//! * **Issue** — up to two instructions per cycle from one or two warps, in
//!   program order per warp, gated by the scoreboard, unit occupancy and
//!   the active scheme (replay-queue source holds, operand-log capacity).
//! * **Operand read** — one cycle after issue; source scoreboards release
//!   here except for global-memory instructions under the replay queue,
//!   which hold until the last TLB check.
//! * **Execute/commit** — fixed-latency units complete internally;
//!   global-memory instructions complete when the memory system delivers
//!   `Data`, commit out of order, and may instead *fault*: the instruction
//!   is squashed, recorded for replay, and the warp parks until the fill
//!   unit broadcasts the region resolution.
//!
//! # Hot-path data layout
//!
//! The per-cycle state is organised for cache locality rather than
//! per-warp encapsulation:
//!
//! * Per-warp pipeline state lives in parallel arrays on [`BlockSlot`]
//!   (struct-of-arrays): the scheduling state, the two stream cursors, the
//!   fetch-block reason and the scoreboard are each one densely packed
//!   `Vec` indexed by warp, so issue/fetch walk contiguous memory. Rarely
//!   touched state (in-flight records, replay queues, fault bookkeeping)
//!   is segregated into [`WarpCold`] so it never pollutes the hot lines.
//! * There is no instruction-buffer container at all: because fetch
//!   appends strictly sequential trace indices and issue consumes them
//!   strictly in order, the buffered window is always exactly
//!   `[next_issue, next_fetch)` — two cursors replace the old per-warp
//!   `VecDeque`, and squashes just snap `next_fetch` back to `next_issue`.
//! * The `(slot, warp)` scheduling order is persistent and rebuilt lazily
//!   only when block residency changes (assign/restore/take/drain/
//!   complete), instead of being re-enumerated every cycle.
//! * The trace itself is one flat `DynInstr` array per block
//!   ([`BlockTrace::warp`] returns a subslice), so the issue/fetch/commit
//!   paths index into a single contiguous allocation.
//! * Internal pipeline events (source release, fixed-latency completes,
//!   trap returns) live in the simulator's one event queue,
//!   [`gex_mem::EventWheel`], which the memory hierarchy uses too: every
//!   delay is bounded by a config latency, so scheduling is a bucket push
//!   and a tick drains exactly the elapsed buckets, in the same
//!   `(cycle, seq)` order a heap would produce.

use crate::config::{SchedulerPolicy, SmConfig};
use crate::error::{SmError, SmStage};
use crate::exec::ExecUnits;
use crate::operand_log::OperandLog;
use crate::scheme::Scheme;
use crate::scoreboard::{Hazard, Scoreboard};
use crate::stats::SmStats;
use gex_isa::op::{Opcode, Space, Unit};
use gex_isa::reg::RegId;
use gex_isa::trace::{BlockTrace, DynInstr, DynKind};
use gex_mem::system::{AccessEvent, AccessKind, AccessToken, MemSystem};
use gex_mem::{region_of, Cycle, EventWheel};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Scheduling state of one warp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarpState {
    /// Fetching and issuing normally.
    Active,
    /// Arrived at a block barrier; waiting for siblings.
    AtBarrier,
    /// Squashed by a page fault; waiting for its regions to resolve.
    Faulted,
    /// Squashed by an arithmetic exception; running the trap handler.
    Trapped,
    /// All instructions committed.
    Done,
}

/// Why fetch is disabled for a warp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FetchBlock {
    None,
    /// Baseline: a fetched control-flow instruction blocks until commit.
    Branch(usize),
    /// Warp-disable schemes: a fetched global-memory instruction blocks
    /// until commit (WD-commit) or last TLB check (WD-lastcheck).
    Wd(usize),
}

#[derive(Debug, Clone)]
struct Inflight {
    idx: usize,
    dst: Option<RegId>,
    srcs: [Option<RegId>; 4],
    token: Option<AccessToken>,
    srcs_released: bool,
    log_slots: u32,
}

/// Multiply-xorshift hasher for the in-flight token map. [`AccessToken`]
/// is two `u32`s; the default SipHash is measurable on the issue/commit
/// paths, and a 64-bit multiplicative mix is ample for keys that are a
/// slot index plus a generation counter.
#[derive(Default)]
struct TokenHasher(u64);

impl std::hash::Hasher for TokenHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    fn write_u64(&mut self, v: u64) {
        let x = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = x ^ (x >> 29);
    }
}

type TokenMap<V> = HashMap<AccessToken, V, std::hash::BuildHasherDefault<TokenHasher>>;

/// Per-warp state that is only touched on faults, replays, traps and
/// context switches — kept out of the hot arrays.
#[derive(Debug, Default)]
struct WarpCold {
    inflight: Vec<Inflight>,
    /// Squashed global-memory instructions pending replay, program order.
    replay: VecDeque<usize>,
    waiting_regions: Vec<u64>,
    /// Trace indices whose arithmetic exception was already handled (their
    /// replay must commit, not re-trap).
    trap_handled: Vec<usize>,
}

/// Adjust the SM's Running-block active-warp count for one warp's state
/// change. Every warp-state write on a resident block funnels through
/// this (or adjusts the counter explicitly) so the count never drifts
/// from the slow scan it replaces.
fn count_transition(
    active_warps: &mut u32,
    block_state: BlockState,
    from: WarpState,
    to: WarpState,
) {
    if block_state != BlockState::Running || from == to {
        return;
    }
    if from == WarpState::Active {
        *active_warps -= 1;
    } else if to == WarpState::Active {
        *active_warps += 1;
    }
}

/// Run state of a resident block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockState {
    /// Executing normally.
    Running,
    /// Preparing for a context switch: no fetch/issue, in-flight work
    /// drains.
    Draining,
}

/// One resident block. Per-warp pipeline state is struct-of-arrays: each
/// field below marked "by warp" is a dense array indexed by warp id, so
/// the per-cycle issue/fetch loops touch contiguous memory.
#[derive(Debug)]
struct BlockSlot {
    block_id: u32,
    trace: Arc<BlockTrace>,
    run_state: BlockState,
    barrier_arrived: u32,
    /// Scheduling state, by warp.
    state: Vec<WarpState>,
    /// Next trace index to issue, by warp. The instruction buffer is the
    /// window `[next_issue, next_fetch)` — see the module docs.
    next_issue: Vec<u32>,
    /// Next trace index to fetch, by warp.
    next_fetch: Vec<u32>,
    /// Why fetch is disabled, by warp.
    fetch_block: Vec<FetchBlock>,
    /// Pending replay entries, by warp — a hot mirror of
    /// `cold[w].replay.len()` so the issue path never touches the cold
    /// array for the (overwhelmingly common) no-replay case.
    replay_len: Vec<u32>,
    /// Dynamic trace length, by warp — caches `trace.warp(w).len()` so
    /// the fetch/progress checks skip the subslice computation.
    trace_len: Vec<u32>,
    /// Register scoreboard, by warp.
    sb: Vec<Scoreboard>,
    /// Instructions committed this residency, by warp; folded into the
    /// SM-lifetime map when the block completes or is switched out.
    retired: Vec<u64>,
    /// Cold per-warp state (faults, replays, in-flight records), by warp.
    cold: Vec<WarpCold>,
}

impl BlockSlot {
    fn num_warps(&self) -> usize {
        self.state.len()
    }

    /// Instructions fetched but not yet issued for `w`.
    #[inline]
    fn buffered(&self, w: usize) -> u32 {
        self.next_fetch[w] - self.next_issue[w]
    }
}

/// Kernel-wide parameters an SM needs before blocks arrive.
#[derive(Debug, Clone, Copy)]
pub struct KernelSetup {
    /// Warps per block.
    pub warps_per_block: u32,
    /// Registers per thread (context sizing).
    pub regs_per_thread: u32,
    /// Shared memory per block in bytes (context sizing).
    pub shared_bytes: u32,
    /// Concurrent blocks per SM (occupancy; also the operand-log partition
    /// count).
    pub occupancy_blocks: u32,
}

/// A preempted block's architectural state, held off-chip (use case 1).
#[derive(Debug, Clone)]
pub struct SavedBlock {
    block_id: u32,
    trace: Arc<BlockTrace>,
    warps: Vec<SavedWarp>,
    barrier_arrived: u32,
    context_bytes: u64,
}

#[derive(Debug, Clone)]
struct SavedWarp {
    state: WarpState,
    next_issue: usize,
    replay: VecDeque<usize>,
    waiting_regions: Vec<u64>,
    trap_handled: Vec<usize>,
}

impl SavedBlock {
    /// The block this state belongs to.
    pub fn block_id(&self) -> u32 {
        self.block_id
    }

    /// Context size in bytes (registers + shared + control + replay/log
    /// state) — determines the save/restore transfer time.
    pub fn context_bytes(&self) -> u64 {
        self.context_bytes
    }

    /// Note that a fault region was resolved while the block was off-chip.
    pub fn resolve_region(&mut self, region: u64) {
        for w in &mut self.warps {
            w.waiting_regions.retain(|&r| r != region);
            if w.state == WarpState::Faulted && w.waiting_regions.is_empty() {
                w.state = WarpState::Active;
            }
        }
    }

    /// True if any warp still waits on an unresolved fault.
    pub fn has_pending_fault(&self) -> bool {
        self.warps.iter().any(|w| w.state == WarpState::Faulted)
    }
}

/// Scheduling snapshot of one resident warp — the watchdog's raw material
/// for explaining *why* a run stopped making progress.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarpDiag {
    /// SM id.
    pub sm: u32,
    /// Block id (global, not the slot index).
    pub block_id: u32,
    /// Warp index within the block.
    pub warp: u32,
    /// Scheduling state.
    pub state: WarpState,
    /// 64 KB regions the warp waits on (faulted warps).
    pub waiting_regions: Vec<u64>,
    /// Squashed instructions pending replay.
    pub replay_len: usize,
    /// Next instruction to issue.
    pub next_issue: usize,
    /// Length of the warp's dynamic trace.
    pub trace_len: usize,
}

/// A fault notification surfaced to the GPU-level scheduler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultNotice {
    /// Block slot that faulted.
    pub slot: u32,
    /// Warp index within the block.
    pub warp: u32,
    /// Position in the global pending-fault queue (Section 4.1's
    /// context-switch signal).
    pub queue_pos: u32,
    /// 64 KB regions the warp now waits on.
    pub regions: Vec<u64>,
}

/// Pipeline stage transition recorded by the probe (for reproducing the
/// paper's Figure 3/4/6/7 timing diagrams and for tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeStage {
    /// Instruction left the issue stage.
    Issue,
    /// Last TLB check passed (global memory only).
    LastCheck,
    /// Instruction committed.
    Commit,
    /// Instruction was squashed by a fault.
    Fault,
}

/// One probe record: instruction `idx` of `warp` in block `slot` reached
/// `stage` at `cycle`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeEvent {
    /// Block slot.
    pub slot: u32,
    /// Warp within the block.
    pub warp: u32,
    /// Trace index of the instruction.
    pub idx: usize,
    /// Stage reached.
    pub stage: ProbeStage,
    /// Cycle of the transition.
    pub cycle: Cycle,
}

#[derive(Debug, Clone, Copy)]
enum SmEv {
    /// Fixed-latency instruction completes (commit).
    Complete { slot: u32, warp: u32, idx: usize },
    /// Operand-read stage releases source scoreboards.
    SrcRelease { slot: u32, warp: u32, idx: usize },
    /// The arithmetic-exception handler finishes; the warp resumes and
    /// replays the trapped instruction.
    TrapDone { slot: u32, warp: u32 },
}

/// One streaming multiprocessor. See the [module docs](self).
#[derive(Debug)]
pub struct Sm {
    /// This SM's index (its L1/L1-TLB identity in the memory system).
    pub sm_id: u32,
    cfg: SmConfig,
    scheme: Scheme,
    setup: Option<KernelSetup>,
    slots: Vec<Option<BlockSlot>>,
    log: Option<OperandLog>,
    exec: ExecUnits,
    events: EventWheel<SmEv>,
    tokens: TokenMap<(u32, u32, usize)>,
    completed: Vec<u32>,
    notices: Vec<FaultNotice>,
    fetch_rr: usize,
    issue_rr: usize,
    /// Last warp that issued (greedy-then-oldest state).
    greedy_warp: Option<(u32, u32)>,
    stats: SmStats,
    probe_on: bool,
    probe: Vec<ProbeEvent>,
    /// Persistent `(slot, warp)` scheduling order over Running blocks, in
    /// slot-then-warp order. Rebuilt lazily (via `order_dirty`) only when
    /// block residency changes, not every cycle.
    order: Vec<(u32, u32)>,
    order_dirty: bool,
    /// Reused scratch for draining memory events without allocating.
    mem_evt_buf: Vec<AccessEvent>,
    /// Warps in [`WarpState::Active`] within [`BlockState::Running`]
    /// blocks, maintained incrementally at every state transition so
    /// [`Sm::is_stalled`] is O(1) instead of a per-cycle all-slot scan.
    active_warps: u32,
    /// Committed instructions per (block id, warp index) — survives block
    /// completion and context switches, so differential runs can compare
    /// exactly what every warp retired. Updated in bulk from the per-slot
    /// counters when a block completes or is switched out.
    retired: HashMap<(u32, u32), u64>,
    /// First fatal pipeline error (the run must abort).
    error: Option<SmError>,
}

impl Sm {
    /// The event-wheel horizon covers every delay `schedule` can see, so
    /// the SM never uses the wheel's overflow: completes land at
    /// `now + 1 + fixed_latency`, the trap handler at
    /// `now + trap_handler_cycles`.
    fn wheel_horizon(cfg: &SmConfig) -> Cycle {
        cfg.trap_handler_cycles.max(
            1 + cfg
                .alu_latency
                .max(cfg.sfu_latency)
                .max(cfg.branch_latency)
                .max(cfg.shared_latency)
                .max(cfg.malloc_latency)
                .max(1),
        )
    }

    /// A new SM with the given id, configuration and exception scheme.
    pub fn new(sm_id: u32, cfg: SmConfig, scheme: Scheme) -> Self {
        let exec = ExecUnits::new(cfg.math_units, cfg.sfu_units, cfg.ldst_units, cfg.branch_units);
        let events = EventWheel::new(Self::wheel_horizon(&cfg));
        Sm {
            sm_id,
            cfg,
            scheme,
            setup: None,
            slots: Vec::new(),
            log: None,
            exec,
            events,
            tokens: TokenMap::default(),
            completed: Vec::new(),
            notices: Vec::new(),
            fetch_rr: 0,
            issue_rr: 0,
            greedy_warp: None,
            stats: SmStats::default(),
            probe_on: false,
            probe: Vec::new(),
            order: Vec::new(),
            order_dirty: true,
            mem_evt_buf: Vec::new(),
            active_warps: 0,
            retired: HashMap::new(),
            error: None,
        }
    }

    /// Reset this SM to the observable state of a fresh [`Sm::new`] while
    /// keeping its heap allocations (event-wheel buckets, token map,
    /// scratch buffers) — the arena-reuse path between sweep points.
    ///
    /// The exhaustive destructuring is deliberate: adding a field to `Sm`
    /// without deciding its recycle story becomes a compile error.
    pub fn recycle(&mut self, sm_id: u32, cfg: SmConfig, scheme: Scheme) {
        let horizon = Self::wheel_horizon(&cfg);
        let new_exec =
            ExecUnits::new(cfg.math_units, cfg.sfu_units, cfg.ldst_units, cfg.branch_units);
        let Sm {
            sm_id: id,
            cfg: c,
            scheme: s,
            setup,
            slots,
            log,
            exec,
            events,
            tokens,
            completed,
            notices,
            fetch_rr,
            issue_rr,
            greedy_warp,
            stats,
            probe_on,
            probe,
            order,
            order_dirty,
            mem_evt_buf,
            active_warps,
            retired,
            error,
        } = self;
        *id = sm_id;
        *c = cfg;
        *s = scheme;
        *setup = None;
        // `configure_kernel` rebuilds the slot vector and operand log.
        slots.clear();
        *log = None;
        *exec = new_exec;
        events.reset(horizon);
        tokens.clear();
        completed.clear();
        notices.clear();
        *fetch_rr = 0;
        *issue_rr = 0;
        *greedy_warp = None;
        *stats = SmStats::default();
        *probe_on = false;
        probe.clear();
        order.clear();
        *order_dirty = true;
        mem_evt_buf.clear();
        *active_warps = 0;
        retired.clear();
        *error = None;
    }

    /// Record per-instruction stage transitions (issue, last TLB check,
    /// commit, fault) for timing-diagram reproduction. Off by default.
    pub fn enable_probe(&mut self) {
        self.probe_on = true;
    }

    /// Drain the recorded probe events.
    pub fn take_probe(&mut self) -> Vec<ProbeEvent> {
        std::mem::take(&mut self.probe)
    }

    fn record(&mut self, slot: u32, warp: u32, idx: usize, stage: ProbeStage, cycle: Cycle) {
        if self.probe_on {
            self.probe.push(ProbeEvent { slot, warp, idx, stage, cycle });
        }
    }

    /// The active scheme.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// Statistics so far.
    pub fn stats(&self) -> SmStats {
        self.stats
    }

    /// Instructions committed so far — the engine's per-cycle progress
    /// probe, kept separate from [`Sm::stats`] so the hot loop reads one
    /// counter instead of copying the whole stats block.
    pub fn committed(&self) -> u64 {
        self.stats.committed
    }

    /// Committed instruction counts per (block id, warp index).
    ///
    /// Counts for still-resident blocks are folded in only when the block
    /// completes or is switched out; once no blocks are resident the map is
    /// complete.
    pub fn warp_retired(&self) -> &HashMap<(u32, u32), u64> {
        &self.retired
    }

    /// Take the first fatal pipeline error, if one was recorded. Once set,
    /// the affected warp makes no further progress; the caller must abort.
    pub fn take_error(&mut self) -> Option<SmError> {
        self.error.take()
    }

    /// Snapshot of every resident warp's scheduling state, for the forward
    /// progress watchdog's diagnostics.
    ///
    /// This clones per-warp state, so it must only be called when an error
    /// is actually being constructed (the watchdog/abort path), never per
    /// cycle. [`Sm::append_warp_diagnostics`] lets multi-SM callers reuse
    /// one output vector.
    pub fn warp_diagnostics(&self) -> Vec<WarpDiag> {
        let mut out =
            Vec::with_capacity(self.slots.iter().flatten().map(|b| b.num_warps()).sum());
        self.append_warp_diagnostics(&mut out);
        out
    }

    /// Append this SM's warp diagnostics to `out` (no intermediate vector
    /// per SM when the engine snapshots the whole GPU).
    pub fn append_warp_diagnostics(&self, out: &mut Vec<WarpDiag>) {
        for b in self.slots.iter().flatten() {
            for w in 0..b.num_warps() {
                out.push(WarpDiag {
                    sm: self.sm_id,
                    block_id: b.block_id,
                    warp: w as u32,
                    state: b.state[w],
                    waiting_regions: b.cold[w].waiting_regions.clone(),
                    replay_len: b.cold[w].replay.len(),
                    next_issue: b.next_issue[w] as usize,
                    trace_len: b.trace.warp(w as u32).len(),
                });
            }
        }
    }

    fn fail(&mut self, err: SmError) {
        if self.error.is_none() {
            self.error = Some(err);
        }
    }

    /// Configure for a kernel: sizes the block slots and, for the
    /// operand-log scheme, partitions the log across the occupancy.
    pub fn configure_kernel(&mut self, setup: KernelSetup) {
        assert!(setup.occupancy_blocks > 0, "kernel does not fit on the SM");
        self.slots = (0..setup.occupancy_blocks).map(|_| None).collect();
        self.log = self.scheme.log_slots().map(|s| OperandLog::new(s, setup.occupancy_blocks));
        self.setup = Some(setup);
        self.order_dirty = true;
    }

    /// Index of a free block slot, if any.
    pub fn free_slot(&self) -> Option<u32> {
        self.slots.iter().position(|s| s.is_none()).map(|i| i as u32)
    }

    /// Number of resident blocks.
    pub fn resident_blocks(&self) -> u32 {
        self.slots.iter().filter(|s| s.is_some()).count() as u32
    }

    /// Place a fresh block into a free slot. Returns the slot index.
    ///
    /// # Panics
    ///
    /// Panics if no slot is free or the kernel was not configured.
    pub fn assign_block(&mut self, trace: Arc<BlockTrace>) -> u32 {
        let slot = self.free_slot().expect("no free block slot");
        let n = trace.num_warps() as usize;
        self.active_warps += n as u32;
        let trace_len = (0..n).map(|w| trace.warp(w as u32).len() as u32).collect();
        self.slots[slot as usize] = Some(BlockSlot {
            block_id: trace.block_id,
            trace,
            run_state: BlockState::Running,
            barrier_arrived: 0,
            state: vec![WarpState::Active; n],
            next_issue: vec![0; n],
            next_fetch: vec![0; n],
            fetch_block: vec![FetchBlock::None; n],
            replay_len: vec![0; n],
            trace_len,
            sb: vec![Scoreboard::new(); n],
            retired: vec![0; n],
            cold: (0..n).map(|_| WarpCold::default()).collect(),
        });
        self.order_dirty = true;
        slot
    }

    /// Block ids that finished since the last call.
    pub fn take_completed(&mut self) -> Vec<u32> {
        std::mem::take(&mut self.completed)
    }

    /// Count and forget the blocks that finished since the last call —
    /// the allocation-free variant of [`Sm::take_completed`] for callers
    /// that only tally completions.
    pub fn drain_completed(&mut self) -> u64 {
        let n = self.completed.len() as u64;
        self.completed.clear();
        n
    }

    /// True if completed blocks are waiting to be drained. The engine's
    /// dirty-list probe: blocks only complete inside a tick (commit →
    /// `after_progress`), so checking this right after ticking an SM
    /// replaces the per-cycle sweep over every SM.
    pub fn has_completions(&self) -> bool {
        !self.completed.is_empty()
    }

    /// Fault notifications since the last call (drives the local scheduler
    /// of use case 1 and the GPU-local handler of use case 2).
    pub fn take_fault_notices(&mut self) -> Vec<FaultNotice> {
        std::mem::take(&mut self.notices)
    }

    /// Move pending fault notifications into `out` without giving up the
    /// internal buffer's capacity (allocation-free in steady state).
    pub fn drain_fault_notices(&mut self, out: &mut Vec<FaultNotice>) {
        out.append(&mut self.notices);
    }

    /// True if no blocks are resident.
    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(|s| s.is_none())
    }

    /// True if the SM cannot make progress without an external event:
    /// every resident warp is faulted, at a barrier that cannot release,
    /// done, or draining, and no internal completions are pending.
    ///
    /// O(1): the active-warp count is maintained incrementally at every
    /// state transition instead of scanning all slots each cycle.
    pub fn is_stalled(&self) -> bool {
        debug_assert_eq!(
            self.active_warps,
            self.count_active_slow(),
            "incremental active-warp count drifted from the slot scan"
        );
        self.events.is_empty() && self.active_warps == 0
    }

    /// The slow all-slot scan the incremental count replaces; cross-checked
    /// against it by a `debug_assert` in [`Sm::is_stalled`].
    fn count_active_slow(&self) -> u32 {
        self.slots
            .iter()
            .flatten()
            .filter(|b| b.run_state == BlockState::Running)
            .flat_map(|b| &b.state)
            .filter(|&&s| s == WarpState::Active)
            .count() as u32
    }

    /// Earliest pending internal completion, for idle skip-ahead.
    pub fn next_event_cycle(&self) -> Option<Cycle> {
        self.events.next_cycle()
    }

    // ------------------------------------------------- context switching

    /// Begin draining `slot` for a context switch: fetch and issue stop,
    /// in-flight instructions complete.
    pub fn begin_drain(&mut self, slot: u32) {
        if let Some(b) = self.slots[slot as usize].as_mut() {
            if b.run_state == BlockState::Running {
                self.active_warps -=
                    b.state.iter().filter(|&&s| s == WarpState::Active).count() as u32;
            }
            b.run_state = BlockState::Draining;
            self.order_dirty = true;
        }
    }

    /// True if `slot` has no in-flight instructions left.
    pub fn drained(&self, slot: u32) -> bool {
        self.slots[slot as usize]
            .as_ref()
            .is_some_and(|b| b.cold.iter().all(|c| c.inflight.is_empty()))
    }

    /// Extract the architectural state of a drained block, freeing the
    /// slot.
    ///
    /// # Panics
    ///
    /// Panics if the slot is empty or not drained.
    pub fn take_block(&mut self, slot: u32) -> SavedBlock {
        assert!(self.drained(slot), "taking a block with in-flight instructions");
        let mut b = self.slots[slot as usize].take().expect("empty slot");
        if b.run_state == BlockState::Running {
            self.active_warps -=
                b.state.iter().filter(|&&s| s == WarpState::Active).count() as u32;
        }
        self.order_dirty = true;
        if let Some(log) = &mut self.log {
            log.reset_partition(slot);
        }
        let setup = self.setup.expect("kernel not configured");
        let nwarps = b.trace.num_warps() as u64;
        let threads = nwarps * 32;
        let mut context = threads * setup.regs_per_thread as u64 * 4
            + setup.shared_bytes as u64
            + nwarps * self.cfg.warp_control_bytes as u64;
        for c in &b.cold {
            context += c.replay.len() as u64 * self.cfg.replay_entry_bytes as u64;
        }
        if let Some(log) = &self.log {
            context += log.slots_per_partition() as u64 * crate::scheme::LOG_SLOT_BYTES as u64;
        }
        self.stats.blocks_switched_out += 1;
        // Fold this residency's commit counts into the SM-lifetime map; a
        // later restore starts its per-slot counters from zero again.
        for (w, &n) in b.retired.iter().enumerate() {
            if n > 0 {
                *self.retired.entry((b.block_id, w as u32)).or_insert(0) += n;
            }
        }
        let mut warps = Vec::with_capacity(b.num_warps());
        for w in 0..b.num_warps() {
            let c = std::mem::take(&mut b.cold[w]);
            warps.push(SavedWarp {
                state: b.state[w],
                next_issue: b.next_issue[w] as usize,
                replay: c.replay,
                waiting_regions: c.waiting_regions,
                trap_handled: c.trap_handled,
            });
        }
        SavedBlock {
            block_id: b.block_id,
            trace: b.trace,
            warps,
            barrier_arrived: b.barrier_arrived,
            context_bytes: context,
        }
    }

    /// Re-install a previously saved block into a free slot.
    ///
    /// # Panics
    ///
    /// Panics if no slot is free.
    pub fn restore_block(&mut self, saved: SavedBlock) -> u32 {
        let slot = self.free_slot().expect("no free slot for restore");
        let n = saved.warps.len();
        let mut state = Vec::with_capacity(n);
        let mut next_issue = Vec::with_capacity(n);
        let mut next_fetch = Vec::with_capacity(n);
        let mut cold = Vec::with_capacity(n);
        for s in saved.warps {
            let st = if s.state == WarpState::Trapped { WarpState::Active } else { s.state };
            state.push(st);
            next_issue.push(s.next_issue as u32);
            next_fetch.push(s.next_issue as u32);
            cold.push(WarpCold {
                inflight: Vec::new(),
                replay: s.replay,
                waiting_regions: s.waiting_regions,
                trap_handled: s.trap_handled,
            });
        }
        self.active_warps += state.iter().filter(|&&s| s == WarpState::Active).count() as u32;
        let replay_len = cold.iter().map(|c| c.replay.len() as u32).collect();
        let trace_len = (0..n).map(|w| saved.trace.warp(w as u32).len() as u32).collect();
        self.slots[slot as usize] = Some(BlockSlot {
            block_id: saved.block_id,
            trace: saved.trace,
            run_state: BlockState::Running,
            barrier_arrived: saved.barrier_arrived,
            state,
            next_issue,
            next_fetch,
            fetch_block: vec![FetchBlock::None; n],
            replay_len,
            trace_len,
            sb: vec![Scoreboard::new(); n],
            retired: vec![0; n],
            cold,
        });
        self.order_dirty = true;
        self.stats.blocks_restored += 1;
        slot
    }

    /// Context size of a *resident* block, for switch-cost decisions.
    pub fn context_bytes(&self, slot: u32) -> u64 {
        let setup = self.setup.expect("kernel not configured");
        let b = self.slots[slot as usize].as_ref().expect("empty slot");
        let nwarps = b.trace.num_warps() as u64;
        let threads = nwarps * 32;
        let mut context = threads * setup.regs_per_thread as u64 * 4
            + setup.shared_bytes as u64
            + nwarps * self.cfg.warp_control_bytes as u64;
        for c in &b.cold {
            context += c.replay.len() as u64 * self.cfg.replay_entry_bytes as u64;
        }
        if let Some(log) = &self.log {
            context += log.slots_per_partition() as u64 * crate::scheme::LOG_SLOT_BYTES as u64;
        }
        context
    }

    /// True if any warp of `slot` waits on an unresolved fault.
    pub fn block_has_pending_fault(&self, slot: u32) -> bool {
        self.slots[slot as usize]
            .as_ref()
            .is_some_and(|b| b.state.contains(&WarpState::Faulted))
    }

    /// Fill-unit broadcast: the 64 KB region containing `region` resolved.
    /// Faulted warps waiting only on it become runnable again and will
    /// replay their squashed instructions.
    pub fn on_region_resolved(&mut self, region: u64) {
        for b in self.slots.iter_mut().flatten() {
            for w in 0..b.num_warps() {
                b.cold[w].waiting_regions.retain(|&r| r != region);
                if b.state[w] == WarpState::Faulted && b.cold[w].waiting_regions.is_empty() {
                    count_transition(
                        &mut self.active_warps,
                        b.run_state,
                        b.state[w],
                        WarpState::Active,
                    );
                    b.state[w] = WarpState::Active;
                }
            }
        }
    }

    // ------------------------------------------------------------- tick

    /// Advance the SM by one cycle.
    pub fn tick(&mut self, now: Cycle, mem: &mut MemSystem) {
        self.stats.cycles += 1;
        self.drain_internal(now);
        self.drain_memory(now, mem);
        self.issue(now, mem);
        self.fetch(now);
    }

    fn schedule(&mut self, cycle: Cycle, ev: SmEv) {
        self.events.push(cycle, ev);
    }

    /// Dispatch every internal event due by `now`. Events left over from
    /// cycles the SM was not ticked (an idle jump) dispatch at `now`.
    fn drain_internal(&mut self, now: Cycle) {
        while let Some((_, ev)) = self.events.pop_due(now) {
            self.dispatch_ev(now, ev);
        }
    }

    fn dispatch_ev(&mut self, now: Cycle, ev: SmEv) {
        match ev {
            SmEv::Complete { slot, warp, idx } => self.commit(now, slot, warp, idx),
            SmEv::SrcRelease { slot, warp, idx } => self.release_sources(slot, warp, idx),
            SmEv::TrapDone { slot, warp } => {
                if let Some(b) = self.slots[slot as usize].as_mut() {
                    let w = warp as usize;
                    if b.state[w] == WarpState::Trapped {
                        count_transition(
                            &mut self.active_warps,
                            b.run_state,
                            b.state[w],
                            WarpState::Active,
                        );
                        b.state[w] = WarpState::Active;
                    }
                }
            }
        }
    }

    fn drain_memory(&mut self, now: Cycle, mem: &mut MemSystem) {
        // Swap the delivery queue into a reused scratch vector so the
        // drain allocates nothing in steady state.
        let mut buf = std::mem::take(&mut self.mem_evt_buf);
        mem.drain_events_into(self.sm_id, &mut buf);
        for ev in buf.drain(..) {
            self.on_mem_event(now, ev);
        }
        self.mem_evt_buf = buf;
    }

    fn on_mem_event(&mut self, now: Cycle, ev: AccessEvent) {
        match ev {
            AccessEvent::LastTlbCheck { token } => self.on_last_check(now, token),
            AccessEvent::Data { token } => {
                if let Some((slot, warp, idx)) = self.tokens.remove(&token) {
                    self.commit(now, slot, warp, idx);
                }
            }
            AccessEvent::Fault { token, pages, queue_pos } => {
                self.on_fault(now, token, &pages, queue_pos);
            }
        }
    }

    fn release_sources(&mut self, slot: u32, warp: u32, idx: usize) {
        let Some(b) = self.slots[slot as usize].as_mut() else { return };
        let w = warp as usize;
        if let Some(e) = b.cold[w].inflight.iter_mut().find(|e| e.idx == idx) {
            if !e.srcs_released {
                e.srcs_released = true;
                b.sb[w].release_sources(e.srcs.iter().flatten().copied());
            }
        }
    }

    fn on_last_check(&mut self, now: Cycle, token: AccessToken) {
        let Some(&(slot, warp, idx)) = self.tokens.get(&token) else { return };
        self.record(slot, warp, idx, ProbeStage::LastCheck, now);
        // Replay queue: delayed source release happens here.
        self.release_sources(slot, warp, idx);
        let Some(b) = self.slots[slot as usize].as_mut() else { return };
        let w = warp as usize;
        // Operand log entries release once the instruction cannot fault.
        if let Some(e) = b.cold[w].inflight.iter_mut().find(|e| e.idx == idx) {
            if e.log_slots > 0 {
                if let Some(log) = &mut self.log {
                    log.release(slot, e.log_slots);
                }
                e.log_slots = 0;
            }
        }
        // WD-lastcheck: fetch re-enables at the last TLB check.
        if self.scheme == Scheme::WdLastCheck && b.fetch_block[w] == FetchBlock::Wd(idx) {
            b.fetch_block[w] = FetchBlock::None;
        }
    }

    fn on_fault(&mut self, now: Cycle, token: AccessToken, pages: &[u64], queue_pos: u32) {
        let Some((slot, warp, idx)) = self.tokens.remove(&token) else { return };
        self.record(slot, warp, idx, ProbeStage::Fault, now);
        self.stats.faults += 1;
        self.stats.squashed += 1;
        let Some(b) = self.slots[slot as usize].as_mut() else { return };
        let w = warp as usize;
        // Squash: undo the instruction's scoreboard effects and remember it
        // for replay.
        let Some(pos) = b.cold[w].inflight.iter().position(|e| e.idx == idx) else {
            let sm = self.sm_id;
            self.fail(SmError::InflightMissing {
                stage: SmStage::FaultSquash,
                sm,
                slot,
                warp,
                idx,
                cycle: now,
            });
            return;
        };
        let e = b.cold[w].inflight.remove(pos);
        if !e.srcs_released {
            b.sb[w].release_sources(e.srcs.iter().flatten().copied());
        }
        b.sb[w].release_dest(e.dst);
        if e.log_slots > 0 {
            if let Some(log) = &mut self.log {
                log.release(slot, e.log_slots);
            }
        }
        // Insert in program order (multiple instructions can fault).
        let at =
            b.cold[w].replay.iter().position(|&r| r > idx).unwrap_or(b.cold[w].replay.len());
        b.cold[w].replay.insert(at, idx);
        b.replay_len[w] += 1;
        self.stats.peak_replay_entries =
            self.stats.peak_replay_entries.max(b.cold[w].replay.len() as u64);
        // The warp parks; younger fetched-but-unissued instructions flush
        // and will re-fetch after the replay drains.
        count_transition(&mut self.active_warps, b.run_state, b.state[w], WarpState::Faulted);
        b.state[w] = WarpState::Faulted;
        b.next_fetch[w] = b.next_issue[w];
        b.fetch_block[w] = FetchBlock::None;
        let mut regions: Vec<u64> = pages.iter().map(|&p| region_of(p)).collect();
        regions.sort_unstable();
        regions.dedup();
        for &r in &regions {
            if !b.cold[w].waiting_regions.contains(&r) {
                b.cold[w].waiting_regions.push(r);
            }
        }
        self.notices.push(FaultNotice { slot, warp, queue_pos, regions });
    }

    /// Commit `idx` of `warp` in `slot` (out-of-order commit stage).
    ///
    /// If the instruction raises an arithmetic exception (and the scheme is
    /// preemptible), it is squashed instead: the warp runs the trap handler
    /// and replays the instruction afterwards — the paper's extension of
    /// the schemes to non-memory exceptions (Sections 3.1/3.2).
    fn commit(&mut self, now: Cycle, slot: u32, warp: u32, idx: usize) {
        if self.scheme.preemptible() && self.trap_if_needed(now, slot, warp, idx) {
            return;
        }
        self.record(slot, warp, idx, ProbeStage::Commit, now);
        let Some(b) = self.slots[slot as usize].as_mut() else { return };
        let w = warp as usize;
        let Some(pos) = b.cold[w].inflight.iter().position(|e| e.idx == idx) else {
            let sm = self.sm_id;
            self.fail(SmError::InflightMissing {
                stage: SmStage::Commit,
                sm,
                slot,
                warp,
                idx,
                cycle: now,
            });
            return;
        };
        let e = b.cold[w].inflight.remove(pos);
        if !e.srcs_released {
            b.sb[w].release_sources(e.srcs.iter().flatten().copied());
        }
        b.sb[w].release_dest(e.dst);
        if e.log_slots > 0 {
            if let Some(log) = &mut self.log {
                log.release(slot, e.log_slots);
            }
        }
        if let Some(t) = e.token {
            self.tokens.remove(&t);
        }
        // Fetch re-enable points: branches at commit (baseline), WD at
        // commit (WD-commit; WD-lastcheck normally re-enabled earlier, but
        // commit also clears it as a safety net).
        match b.fetch_block[w] {
            FetchBlock::Branch(i) if i == idx => b.fetch_block[w] = FetchBlock::None,
            FetchBlock::Wd(i) if i == idx => b.fetch_block[w] = FetchBlock::None,
            _ => {}
        }
        self.stats.committed += 1;
        b.retired[w] += 1;
        if b.trace.warp(warp)[idx].kind == DynKind::Barrier {
            b.barrier_arrived += 1;
        }
        self.after_progress(slot, warp);
    }

    /// Squash a trapping instruction at its would-be commit point and run
    /// the handler. Returns true if a trap was taken (first execution only;
    /// the replay commits normally).
    fn trap_if_needed(&mut self, now: Cycle, slot: u32, warp: u32, idx: usize) -> bool {
        let Some(b) = self.slots[slot as usize].as_mut() else { return false };
        if !b.trace.warp(warp)[idx].traps {
            return false;
        }
        let w = warp as usize;
        if b.cold[w].trap_handled.contains(&idx) {
            return false; // replay after the handler: commit normally
        }
        let Some(pos) = b.cold[w].inflight.iter().position(|e| e.idx == idx) else {
            let sm = self.sm_id;
            self.fail(SmError::InflightMissing {
                stage: SmStage::Trap,
                sm,
                slot,
                warp,
                idx,
                cycle: now,
            });
            return true;
        };
        let e = b.cold[w].inflight.remove(pos);
        if !e.srcs_released {
            b.sb[w].release_sources(e.srcs.iter().flatten().copied());
        }
        b.sb[w].release_dest(e.dst);
        let at =
            b.cold[w].replay.iter().position(|&r| r > idx).unwrap_or(b.cold[w].replay.len());
        b.cold[w].replay.insert(at, idx);
        b.replay_len[w] += 1;
        b.cold[w].trap_handled.push(idx);
        count_transition(&mut self.active_warps, b.run_state, b.state[w], WarpState::Trapped);
        b.state[w] = WarpState::Trapped;
        b.next_fetch[w] = b.next_issue[w];
        b.fetch_block[w] = FetchBlock::None;
        self.record(slot, warp, idx, ProbeStage::Fault, now);
        self.stats.squashed += 1;
        self.stats.traps += 1;
        self.schedule(now + self.cfg.trap_handler_cycles, SmEv::TrapDone { slot, warp });
        true
    }

    /// Check warp-done, barrier release and block completion for `slot`.
    fn after_progress(&mut self, slot: u32, warp: u32) {
        let Some(b) = self.slots[slot as usize].as_mut() else { return };
        let w = warp as usize;
        let trace_len = b.trace_len[w];
        if b.state[w] != WarpState::Done
            && b.next_issue[w] >= trace_len
            && b.cold[w].replay.is_empty()
            && b.cold[w].inflight.is_empty()
        {
            count_transition(&mut self.active_warps, b.run_state, b.state[w], WarpState::Done);
            b.state[w] = WarpState::Done;
        }
        // Barrier release: every non-done warp has arrived.
        let total = b.num_warps() as u32;
        let done = b.state.iter().filter(|&&s| s == WarpState::Done).count() as u32;
        let at_bar = b.state.iter().filter(|&&s| s == WarpState::AtBarrier).count() as u32;
        if at_bar > 0 && b.barrier_arrived >= at_bar && at_bar + done == total {
            b.barrier_arrived = 0;
            for i in 0..b.num_warps() {
                if b.state[i] == WarpState::AtBarrier {
                    count_transition(
                        &mut self.active_warps,
                        b.run_state,
                        b.state[i],
                        WarpState::Active,
                    );
                    b.state[i] = WarpState::Active;
                }
            }
            self.stats.barriers += 1;
        }
        if done == total {
            // Fold the block's per-warp commit counts into the SM-lifetime
            // map before the slot is freed.
            for (i, &n) in b.retired.iter().enumerate() {
                if n > 0 {
                    *self.retired.entry((b.block_id, i as u32)).or_insert(0) += n;
                }
            }
            let id = b.block_id;
            self.slots[slot as usize] = None;
            self.order_dirty = true;
            if let Some(log) = &mut self.log {
                log.reset_partition(slot);
            }
            self.completed.push(id);
            self.stats.blocks_completed += 1;
        }
    }

    // -------------------------------------------------------- scheduling

    /// Rebuild the persistent `(slot, warp)` order if block residency
    /// changed since the last rebuild. Warp-state changes do not affect
    /// membership (the order lists every warp of every Running block), so
    /// in steady state this is a flag check.
    fn ensure_order(&mut self) {
        if !self.order_dirty {
            return;
        }
        self.order_dirty = false;
        self.order.clear();
        for s in 0..self.slots.len() {
            if let Some(b) = &self.slots[s] {
                if b.run_state != BlockState::Running {
                    continue;
                }
                for w in 0..b.num_warps() {
                    self.order.push((s as u32, w as u32));
                }
            }
        }
    }

    // ------------------------------------------------------------ issue

    fn issue(&mut self, now: Cycle, mem: &mut MemSystem) {
        let width = self.cfg.issue_width;
        if self.slots.is_empty() {
            return;
        }
        self.ensure_order();
        let len = self.order.len();
        if len == 0 {
            self.stats.idle_issue_cycles += 1;
            return;
        }
        let mut issued = 0u32;
        let mut warps_used: [(u32, u32); 2] = [(u32::MAX, u32::MAX); 2];
        let mut warps_used_n = 0usize;
        match self.cfg.scheduler {
            SchedulerPolicy::LooseRoundRobin => {
                let mut i = self.issue_rr % len;
                self.issue_rr = self.issue_rr.wrapping_add(1);
                for _ in 0..len {
                    if issued >= width {
                        break;
                    }
                    let (slot, warp) = self.order[i];
                    i += 1;
                    if i == len {
                        i = 0;
                    }
                    self.issue_from_warp(
                        now,
                        mem,
                        slot,
                        warp,
                        width,
                        &mut issued,
                        &mut warps_used,
                        &mut warps_used_n,
                    );
                }
            }
            SchedulerPolicy::GreedyThenOldest => {
                // The greedy warp goes first; the rest stay in age order
                // (slot then warp index).
                let greedy = match self.greedy_warp {
                    Some(g) if self.order.contains(&g) => Some(g),
                    _ => None,
                };
                if let Some((slot, warp)) = greedy {
                    self.issue_from_warp(
                        now,
                        mem,
                        slot,
                        warp,
                        width,
                        &mut issued,
                        &mut warps_used,
                        &mut warps_used_n,
                    );
                }
                for k in 0..len {
                    if issued >= width {
                        break;
                    }
                    let (slot, warp) = self.order[k];
                    if Some((slot, warp)) == greedy {
                        continue;
                    }
                    self.issue_from_warp(
                        now,
                        mem,
                        slot,
                        warp,
                        width,
                        &mut issued,
                        &mut warps_used,
                        &mut warps_used_n,
                    );
                }
            }
        }
        if issued == 0 {
            self.stats.idle_issue_cycles += 1;
        }
    }

    /// Issue as many instructions as allowed from one warp, in program
    /// order, honouring the dual-issue limit of two distinct warps.
    #[allow(clippy::too_many_arguments)]
    fn issue_from_warp(
        &mut self,
        now: Cycle,
        mem: &mut MemSystem,
        slot: u32,
        warp: u32,
        width: u32,
        issued: &mut u32,
        warps_used: &mut [(u32, u32); 2],
        warps_used_n: &mut usize,
    ) {
        if *warps_used_n >= 2 && !warps_used[..*warps_used_n].contains(&(slot, warp)) {
            return;
        }
        while *issued < width {
            if !self.try_issue_one(now, mem, slot, warp) {
                break;
            }
            *issued += 1;
            self.greedy_warp = Some((slot, warp));
            if !warps_used[..*warps_used_n].contains(&(slot, warp)) {
                warps_used[*warps_used_n] = (slot, warp);
                *warps_used_n += 1;
            }
        }
    }

    /// Try to issue the next instruction of `warp`; returns true on issue.
    fn try_issue_one(&mut self, now: Cycle, mem: &mut MemSystem, slot: u32, warp: u32) -> bool {
        let Some(b) = self.slots[slot as usize].as_ref() else { return false };
        let w = warp as usize;
        if b.state[w] != WarpState::Active {
            return false;
        }
        // Next instruction: replay entries first, then the buffered window.
        debug_assert_eq!(b.replay_len[w] as usize, b.cold[w].replay.len());
        let (idx, from_replay) = if b.replay_len[w] > 0 {
            (*b.cold[w].replay.front().expect("replay_len counted"), true)
        } else if b.buffered(w) > 0 {
            (b.next_issue[w] as usize, false)
        } else {
            return false;
        };
        let instr = &b.trace.warp(warp)[idx];
        // Scoreboard: one pass classifies the hazard (or clears the way).
        match b.sb[w].issue_hazard(instr.src_iter(), instr.dst) {
            Hazard::Raw => {
                self.stats.stall_raw += 1;
                return false;
            }
            Hazard::War => {
                self.stats.stall_war += 1;
                return false;
            }
            Hazard::None => {}
        }
        // Execution unit.
        let interval = self.initiation_interval(instr);
        if !self.exec.available(instr.unit, now) {
            self.stats.stall_unit += 1;
            return false;
        }
        // Operand log capacity.
        let log_slots = if self.log.is_some() { instr.log_slots() } else { 0 };
        if log_slots > 0 && !self.log.as_ref().expect("log").can_allocate(slot, log_slots) {
            self.stats.stall_log += 1;
            return false;
        }

        // --- All gates passed: issue. ---
        let reserved = self.exec.reserve(instr.unit, now, interval);
        debug_assert!(reserved);
        if log_slots > 0 {
            let ok = self.log.as_mut().expect("log").allocate(slot, log_slots);
            debug_assert!(ok);
        }
        let is_global = instr.can_fault();
        let dst = instr.dst;
        let srcs = instr.srcs;
        let kind = instr.kind;
        let op = instr.op;
        // Borrow the coalesced line list straight from the trace: the
        // memory system and the latency model only read it, so no per-issue
        // clone is needed — everything that uses it runs before the slot is
        // re-borrowed mutably below.
        let lines: &[u64] = instr.mem.as_ref().map(|m| m.lines.as_slice()).unwrap_or(&[]);
        let warp_disable = self.scheme.warp_disable();
        let mut token = None;
        if is_global {
            let access_kind = match op {
                Opcode::Atom(..) => AccessKind::Atomic,
                Opcode::St(..) => AccessKind::Store,
                _ => AccessKind::Load,
            };
            // The access starts after the operand-read stage.
            let t = mem.start_access(now + 1, self.sm_id, access_kind, lines);
            self.tokens.insert(t, (slot, warp, idx));
            token = Some(t);
        }
        let fixed_done = (!is_global).then(|| now + 1 + self.fixed_latency(op, kind, lines));
        {
            let b = self.slots[slot as usize].as_mut().expect("slot checked above");
            b.sb[w].issue(srcs.iter().flatten().copied(), dst);
            if from_replay {
                b.cold[w].replay.pop_front();
                b.replay_len[w] -= 1;
            } else {
                b.next_issue[w] += 1;
            }
            // Warp-disable: the barrier semantics follow the instruction
            // through replay too.
            if is_global && warp_disable {
                b.fetch_block[w] = FetchBlock::Wd(idx);
            }
            b.cold[w].inflight.push(Inflight {
                idx,
                dst,
                srcs,
                token,
                srcs_released: false,
                log_slots,
            });
            if kind == DynKind::Barrier {
                count_transition(
                    &mut self.active_warps,
                    b.run_state,
                    b.state[w],
                    WarpState::AtBarrier,
                );
                b.state[w] = WarpState::AtBarrier;
            }
        }
        let srcs_deferred = is_global && self.scheme.delayed_source_release();
        if !srcs_deferred {
            self.schedule(now + 1, SmEv::SrcRelease { slot, warp, idx });
        }
        if let Some(done) = fixed_done {
            self.schedule(done, SmEv::Complete { slot, warp, idx });
        }
        self.stats.issued += 1;
        self.record(slot, warp, idx, ProbeStage::Issue, now);
        true
    }

    fn initiation_interval(&self, instr: &DynInstr) -> Cycle {
        match instr.unit {
            Unit::Math | Unit::Branch => 1,
            Unit::Sfu => self.cfg.sfu_interval,
            Unit::LdSt => match &instr.mem {
                Some(m) if m.space == Space::Global && !m.lines.is_empty() => {
                    m.lines.len() as Cycle
                }
                _ => 2,
            },
        }
    }

    fn fixed_latency(&self, op: Opcode, kind: DynKind, lines: &[u64]) -> Cycle {
        match op {
            Opcode::Malloc => self.cfg.malloc_latency,
            Opcode::Ld(Space::Shared, _) | Opcode::St(Space::Shared, _) => self.cfg.shared_latency,
            // A fully predicated-off global access never leaves the SM.
            Opcode::Ld(..) | Opcode::St(..) | Opcode::Atom(..) if lines.is_empty() => 1,
            _ if kind != DynKind::Normal => self.cfg.branch_latency,
            _ if op.unit() == Unit::Sfu => self.cfg.sfu_latency,
            _ => self.cfg.alu_latency,
        }
    }

    // ------------------------------------------------------------ fetch

    fn fetch(&mut self, _now: Cycle) {
        // One warp per cycle refills its buffered window with up to
        // fetch_width instructions.
        self.ensure_order();
        let len = self.order.len();
        if len == 0 {
            return;
        }
        let mut i = self.fetch_rr % len;
        self.fetch_rr = self.fetch_rr.wrapping_add(1);
        for _ in 0..len {
            let (slot, warp) = self.order[i];
            i += 1;
            if i == len {
                i = 0;
            }
            let b = self.slots[slot as usize].as_mut().expect("enumerated above");
            let w = warp as usize;
            if b.state[w] != WarpState::Active && b.state[w] != WarpState::AtBarrier {
                continue;
            }
            if b.fetch_block[w] != FetchBlock::None {
                self.stats.fetch_blocked += 1;
                continue;
            }
            let trace_len = b.trace_len[w];
            if b.next_fetch[w] - b.next_issue[w] >= self.cfg.ibuffer_entries
                || b.next_fetch[w] >= trace_len
            {
                continue;
            }
            // This warp fetches this cycle.
            let trace = b.trace.warp(warp);
            for _ in 0..self.cfg.fetch_width {
                if b.next_fetch[w] - b.next_issue[w] >= self.cfg.ibuffer_entries
                    || b.next_fetch[w] >= trace_len
                {
                    break;
                }
                let idx = b.next_fetch[w] as usize;
                b.next_fetch[w] += 1;
                let instr = &trace[idx];
                if instr.op.is_control() {
                    b.fetch_block[w] = FetchBlock::Branch(idx);
                    break;
                }
                if self.scheme.warp_disable() && instr.can_fault() {
                    b.fetch_block[w] = FetchBlock::Wd(idx);
                    break;
                }
            }
            break; // only one warp fetches per cycle
        }
    }
}
