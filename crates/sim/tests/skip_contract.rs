//! The idle-skip contract, one property per source.
//!
//! The engine jumps its clock to the earliest cycle any SM or component
//! reports through `next_event_cycle()` whenever that cycle lies at least
//! two cycles ahead. That jump gives the result of ticking every cycle only
//! if each source keeps one promise: a tick in any cycle before the one it
//! reports hands the engine nothing and changes nothing the rest of the
//! machine can see, except what the source's skip credits.
//!
//! Each property builds one source twice from a random script of the
//! inputs other components hand it (fault reports, claims, landings,
//! context transfers, NACKs). One copy is stepped in every cycle; the
//! other only at the cycles it reports or has input, or at the next cycle
//! when its report lies in the past. In every cycle the second copy skips,
//! the first must hand back nothing and show the same state; whenever the
//! two meet they must agree. Each walk runs until its source reports
//! nothing and stays unchanged for another [`QUIET_STRETCH`] cycles.
//!
//! An SM is the one source whose skipped ticks are not empty: a quiet SM
//! counts each skipped cycle and its stall reasons, which `Sm::skip`
//! credits at once. It gets its own walk, [`walk_sm`], which leaves those
//! counters out of the comparison in skipped cycles and compares every
//! counter where the copies meet.

use gex_isa::asm::Asm;
use gex_isa::func::FuncSim;
use gex_isa::kernel::{Dim3, KernelBuilder};
use gex_isa::mem_image::MemImage;
use gex_isa::op::{CmpKind, CmpType};
use gex_isa::reg::{Pred, Reg};
use gex_isa::trace::{BlockTrace, KernelTrace};
use gex_mem::phys::AllocOwner;
use gex_mem::system::{AccessKind, FaultMode, MemStats, MemSystem};
use gex_mem::{Cycle, FaultEntry, FaultKind, FaultQueue, MemConfig, PageState, REGION_BYTES};
use gex_sim::block_switch::LocalScheduler;
use gex_sim::local_fault::{LocalFaultState, LocalFaultStats};
use gex_sim::paging::{CpuHandler, CpuHandlerStats, CPU_STAGE_CYCLES};
use gex_sim::{GpuConfig, InjectionPlan, InjectionStats, Injector, Interconnect, LocalFaultConfig};
use gex_sm::config::SchedulerPolicy;
use gex_sm::{KernelSetup, SavedBlock, Scheme, Sm, SmConfig, SmStats};
use gex_testkit::prelude::*;
use std::fmt::Debug;
use std::sync::Arc;

/// How long a walk keeps stepping its every-cycle copy after the source
/// reports nothing, checking that nothing changes, before it stops.
const QUIET_STRETCH: Cycle = 30_000;

/// A walk that has not gone quiet by this cycle is a failure.
const HORIZON: Cycle = 2_000_000;

/// Base of the CPU-resident (dirty) regions the scripts fault on.
const DIRTY: u64 = 0x100_0000;
/// Base of the never-touched (lazily backed) regions.
const LAZY: u64 = 0x4000_0000;

/// One idle-skip source, with the work the engine does on it each cycle.
trait Source {
    /// What the rest of the machine sees of the source.
    type Seen: PartialEq + Debug;
    /// The engine's work at `now`: the source's tick, plus the scripted
    /// inputs other components hand it in that cycle. Returns what the
    /// tick hands the engine (resolved regions, restored block ids).
    fn step(&mut self, now: Cycle) -> Vec<u64>;
    /// The source's report: ticks before this cycle change nothing.
    fn next_event_cycle(&self) -> Option<Cycle>;
    /// The script's next input cycle after `now`.
    fn next_input(&self, now: Cycle) -> Option<Cycle>;
    /// The source's visible state.
    fn seen(&self) -> Self::Seen;
}

/// Walk two copies of a source from cycle 0 until it goes quiet (see the
/// module docs), asserting the contract. Returns the number of jumps the
/// reporting copy took (steps of more than one cycle).
fn walk<S: Source>(build: impl Fn() -> S) -> u32 {
    let (mut jumper, mut every) = (build(), build());
    assert_eq!(jumper.step(0), every.step(0));
    let (mut now, mut jumps) = (0, 0);
    loop {
        assert!(now < HORIZON, "the walk did not go quiet by cycle {HORIZON}");
        let next = jumper.next_event_cycle().into_iter().chain(jumper.next_input(now)).min();
        let target = next.map_or(now + QUIET_STRETCH, |c| c.max(now + 1));
        let seen = jumper.seen();
        for t in now + 1..target {
            let handed = every.step(t);
            assert!(handed.is_empty(), "cycle {t} handed back {handed:?} before {target}");
            assert_eq!(every.seen(), seen, "cycle {t} changed the state before {target}");
        }
        if next.is_none() {
            return jumps;
        }
        jumps += u32::from(target > now + 1);
        assert_eq!(jumper.step(target), every.step(target), "the copies part at {target}");
        assert_eq!(jumper.seen(), every.seen(), "the copies part at {target}");
        now = target;
    }
}

/// Script entries due at `now`.
fn due<T: Copy>(script: &[(Cycle, T)], now: Cycle) -> impl Iterator<Item = T> + '_ {
    script.iter().filter(move |e| e.0 == now).map(|e| e.1)
}

/// The first script cycle after `now`.
fn after<T>(script: &[(Cycle, T)], now: Cycle) -> Option<Cycle> {
    script.iter().map(|e| e.0).filter(|&c| c > now).min()
}

/// A memory system whose `DIRTY` regions live on the CPU and whose `LAZY`
/// regions were never touched.
fn paged_mem(mode: FaultMode, gpu_mem_bytes: u64) -> MemSystem {
    let mut mem = MemSystem::new(MemConfig { gpu_mem_bytes, ..MemConfig::kepler_k20() }, mode);
    mem.page_table.set_range(DIRTY, 64 * REGION_BYTES, PageState::CpuDirty);
    mem.page_table.add_lazy_range(LAZY, 64 * REGION_BYTES);
    mem
}

// ------------------------------------------------------------ MemSystem

/// The memory hierarchy after a batch of warp accesses.
struct MemSource {
    mem: MemSystem,
}

#[derive(Debug, PartialEq)]
struct MemSeen {
    stats: MemStats,
    queue: Vec<FaultEntry>,
    deliveries: Vec<bool>,
    quiescent: bool,
}

impl Source for MemSource {
    type Seen = MemSeen;
    fn step(&mut self, now: Cycle) -> Vec<u64> {
        self.mem.tick(now);
        Vec::new()
    }
    fn next_event_cycle(&self) -> Option<Cycle> {
        self.mem.next_event_cycle()
    }
    fn next_input(&self, _: Cycle) -> Option<Cycle> {
        None
    }
    fn seen(&self) -> MemSeen {
        MemSeen {
            stats: self.mem.stats(),
            queue: self.mem.fault_queue.snapshot(),
            deliveries: (0..4).map(|sm| self.mem.has_pending_events(sm)).collect(),
            quiescent: self.mem.quiescent(),
        }
    }
}

// ----------------------------------------------------------- CpuHandler

/// The shapes of fault queue the CPU handler's report must cover.
#[derive(Debug, Clone, Copy)]
enum CpuCase {
    /// Faults arrive in a burst and queue behind the busy CPU stage.
    BusyStage,
    /// GPU-local handling owns first touches: after two migrations the
    /// queue holds only entries the CPU handler leaves alone.
    FirstTouchOnly,
    /// GPU memory holds fewer regions than fault, so admission defers
    /// while every resident region is still in flight.
    Deferred,
    /// The chaos injection plan over a mixed queue.
    Chaos,
    /// The chaos plan in small memory: its dice roll on every cycle a
    /// fault waits for memory, and a NACK gives back the frames its
    /// service was admitted with.
    DeferredChaos,
}

/// The CPU fault handler with the fill unit reporting scripted faults.
struct CpuSource {
    cpu: CpuHandler,
    mem: MemSystem,
    /// Fault reports: (cycle, (region, kind)).
    script: Vec<(Cycle, (u64, FaultKind))>,
}

#[derive(Debug, PartialEq)]
struct CpuSeen {
    stats: CpuHandlerStats,
    injected: Option<InjectionStats>,
    parked: usize,
    queue: Vec<FaultEntry>,
    in_service: Vec<u64>,
    resident: Vec<u64>,
}

impl CpuSource {
    fn new(case: CpuCase, link: Interconnect, faults: &[(Cycle, u8, u8)], seed: u64) -> Self {
        use FaultKind::{AllocOnly, FirstTouch, Migration};
        // Bursts arrive within two CPU stages. The memory-starved cases
        // fault on distinct regions, more of them than fit.
        let burst = !matches!(case, CpuCase::FirstTouchOnly | CpuCase::Chaos);
        let starved = matches!(case, CpuCase::Deferred | CpuCase::DeferredChaos);
        let script = faults
            .iter()
            .enumerate()
            .map(|(i, &(at, region, kind))| {
                let kind = match case {
                    CpuCase::FirstTouchOnly if i < 2 => Migration,
                    CpuCase::FirstTouchOnly => FirstTouch,
                    _ => [Migration, AllocOnly, FirstTouch][kind as usize % 3],
                };
                let base = if kind == FirstTouch { LAZY } else { DIRTY };
                let region = if starved { i as u64 } else { region as u64 };
                let at = if burst { at % (2 * CPU_STAGE_CYCLES) } else { at };
                (at, (base + region * REGION_BYTES, kind))
            })
            .collect();
        let regions = if starved { 1 + seed % (faults.len() as u64 - 1).min(3) } else { 1 << 14 };
        let cpu = CpuHandler::new(link);
        let cpu = match case {
            CpuCase::BusyStage | CpuCase::Deferred => cpu,
            CpuCase::FirstTouchOnly => cpu.without_first_touch(),
            CpuCase::Chaos | CpuCase::DeferredChaos => {
                cpu.with_injection(InjectionPlan::chaos(seed))
            }
        };
        CpuSource { cpu, mem: paged_mem(FaultMode::SquashNotify, regions * REGION_BYTES), script }
    }
}

impl Source for CpuSource {
    type Seen = CpuSeen;
    fn step(&mut self, now: Cycle) -> Vec<u64> {
        // The fill unit reports faults in `MemSystem::tick`, before the
        // handler's tick in the same cycle.
        for (region, kind) in due(&self.script, now) {
            self.mem.fault_queue.report(region, kind, 0, now);
        }
        self.cpu.tick(now, &mut self.mem)
    }
    fn next_event_cycle(&self) -> Option<Cycle> {
        self.cpu.next_event_cycle(&self.mem)
    }
    fn next_input(&self, now: Cycle) -> Option<Cycle> {
        after(&self.script, now)
    }
    fn seen(&self) -> CpuSeen {
        CpuSeen {
            stats: self.cpu.stats(),
            injected: self.cpu.injection_stats(),
            parked: self.cpu.deferred_faults(),
            queue: self.mem.fault_queue.snapshot(),
            in_service: self.mem.fault_queue.in_service_regions().to_vec(),
            resident: self.mem.page_table.resident_regions().to_vec(),
        }
    }
}

// ------------------------------------------------------ LocalFaultState

/// What other components hand the GPU-local handler.
#[derive(Debug, Clone, Copy)]
enum LocalInput {
    /// A warp's first touch of this region reaches the handler.
    Claim(u64),
    /// A CPU-handled fault on this region lands: it becomes resident (its
    /// frames were taken at admission) and so evictable.
    Land(u64),
}

/// The GPU-local handler in a GPU memory that in-flight CPU faults keep
/// full until they land.
struct LocalSource {
    local: LocalFaultState,
    mem: MemSystem,
    script: Vec<(Cycle, LocalInput)>,
}

#[derive(Debug, PartialEq)]
struct LocalSeen {
    stats: LocalFaultStats,
    queue: Vec<FaultEntry>,
    resident: Vec<u64>,
    gpu_frames: u64,
}

impl Source for LocalSource {
    type Seen = LocalSeen;
    fn step(&mut self, now: Cycle) -> Vec<u64> {
        // Landings come from the CPU handler's tick, before the local
        // handler's; claims from the SMs' fault notices, after it.
        for input in due(&self.script, now) {
            if let LocalInput::Land(region) = input {
                self.mem.resolve_fault(region, now, &mut Vec::new());
            }
        }
        let done = self.local.tick(now, &mut self.mem);
        for input in due(&self.script, now) {
            if let LocalInput::Claim(region) = input {
                self.mem.fault_queue.report(region, FaultKind::FirstTouch, 0, now);
                self.local.try_claim(now, region, &mut self.mem);
            }
        }
        done
    }
    fn next_event_cycle(&self) -> Option<Cycle> {
        self.local.next_event_cycle()
    }
    fn next_input(&self, now: Cycle) -> Option<Cycle> {
        after(&self.script, now)
    }
    fn seen(&self) -> LocalSeen {
        LocalSeen {
            stats: self.local.stats(),
            queue: self.mem.fault_queue.snapshot(),
            resident: self.mem.page_table.resident_regions().to_vec(),
            gpu_frames: self.mem.phys().gpu_frames(),
        }
    }
}

// ------------------------------------------------------- LocalScheduler

/// What the engine's context-switch pump hands a local scheduler: a save
/// or a restore of block `block` that completes `d` cycles on.
#[derive(Debug, Clone, Copy)]
struct Transfer {
    block: usize,
    restore: bool,
    d: Cycle,
}

/// One SM's block-switch scheduler with scripted context transfers.
struct SchedSource {
    sched: LocalScheduler,
    blocks: Vec<SavedBlock>,
    script: Vec<(Cycle, Transfer)>,
}

#[derive(Debug, PartialEq)]
struct SchedSeen {
    saving: Vec<(Cycle, u32)>,
    restoring: Vec<(Cycle, u32)>,
    off_chip: Vec<u32>,
}

/// `n` blocks' saved contexts, each taken from an SM right after dispatch.
fn saved_blocks(n: u32) -> Vec<SavedBlock> {
    let mut a = Asm::new();
    a.exit();
    let kernel = KernelBuilder::new("contexts", a.assemble().expect("assembles"))
        .grid(Dim3::x(n))
        .block(Dim3::x(64))
        .build()
        .expect("kernel");
    let trace = FuncSim::new().run(&kernel, &mut MemImage::new()).expect("runs").trace;
    let cfg = GpuConfig::kepler_k20().sm;
    trace
        .blocks
        .iter()
        .map(|b| {
            let mut sm = Sm::new(0, cfg.clone(), Scheme::ReplayQueue);
            sm.configure_kernel(KernelSetup::for_trace(&cfg, &trace));
            let slot = sm.assign_block(b.clone());
            sm.begin_drain(slot);
            sm.take_block(slot)
        })
        .collect()
}

impl Source for SchedSource {
    type Seen = SchedSeen;
    fn step(&mut self, now: Cycle) -> Vec<u64> {
        let ready = self.sched.tick(now);
        for t in due(&self.script, now) {
            let entry = (now + t.d, self.blocks[t.block].clone());
            if t.restore {
                self.sched.restoring.push(entry);
            } else {
                self.sched.saving.push(entry);
            }
        }
        ready.iter().map(|b| b.block_id() as u64).collect()
    }
    fn next_event_cycle(&self) -> Option<Cycle> {
        self.sched.next_event_cycle()
    }
    fn next_input(&self, now: Cycle) -> Option<Cycle> {
        after(&self.script, now)
    }
    fn seen(&self) -> SchedSeen {
        let ids = |v: &[(Cycle, SavedBlock)]| v.iter().map(|(c, b)| (*c, b.block_id())).collect();
        SchedSeen {
            saving: ids(&self.sched.saving),
            restoring: ids(&self.sched.restoring),
            off_chip: self.sched.off_chip.iter().map(SavedBlock::block_id).collect(),
        }
    }
}

// ------------------------------------------------------------- Injector

/// The CPU handler's calls into its injector at a cycle: NACK a service
/// of this region, or roll for a stall (the plan always stalls).
#[derive(Debug, Clone, Copy)]
enum InjectInput {
    Nack(u64),
    Stall,
}

/// A fault injector whose plan NACKs every service and stalls on every
/// admission roll.
struct InjectorSource {
    inj: Injector,
    queue: FaultQueue,
    script: Vec<(Cycle, InjectInput)>,
}

#[derive(Debug, PartialEq)]
struct InjectorSeen {
    stats: InjectionStats,
    parked: usize,
    stall_until: Cycle,
    queue: Vec<FaultEntry>,
    in_service: Vec<u64>,
}

impl Source for InjectorSource {
    type Seen = InjectorSeen;
    fn step(&mut self, now: Cycle) -> Vec<u64> {
        // `CpuHandler::tick` re-enqueues first, then resolves (NACKs) and
        // admits (rolls for stalls).
        self.inj.requeue_due(now, &mut self.queue);
        for input in due(&self.script, now) {
            match input {
                InjectInput::Nack(region) => {
                    self.queue.report(region, FaultKind::Migration, 0, now);
                    if let Some(e) = self.queue.pop_where(|e| e.region == region) {
                        assert!(self.inj.try_nack(now, &e), "the plan NACKs every service");
                    }
                }
                InjectInput::Stall => {
                    self.inj.admission_blocked(now);
                }
            }
        }
        Vec::new()
    }
    fn next_event_cycle(&self) -> Option<Cycle> {
        self.inj.next_event_cycle()
    }
    fn next_input(&self, now: Cycle) -> Option<Cycle> {
        after(&self.script, now)
    }
    fn seen(&self) -> InjectorSeen {
        InjectorSeen {
            stats: self.inj.stats(),
            parked: self.inj.deferred_faults(),
            stall_until: self.inj.stall_until(),
            queue: self.queue.snapshot(),
            in_service: self.queue.in_service_regions().to_vec(),
        }
    }
}

// ------------------------------------------------------------------- Sm

/// One SM and its memory system, driven as the engine drives each SM,
/// with a fault handler that resolves each reported region a fixed
/// latency after the report.
struct SmRig {
    sm: Sm,
    mem: MemSystem,
    /// Blocks not yet dispatched, last first.
    pending: Vec<Arc<BlockTrace>>,
    fault_cycles: Cycle,
    /// Regions in service: (resolution cycle, region).
    resolutions: Vec<(Cycle, u64)>,
}

/// What the rest of the machine sees of an SM and its memory system.
#[derive(Debug, PartialEq)]
struct SmSeen {
    stats: SmStats,
    retired: Vec<((u32, u32), u64)>,
    report: Option<Cycle>,
    mem: MemStats,
    mem_report: Option<Cycle>,
}

impl SmRig {
    /// An SM running `trace`, whose `LAZY` pages fault on first touch and
    /// every other page is mapped.
    fn new(
        trace: &KernelTrace,
        scheme: Scheme,
        policy: SchedulerPolicy,
        fault_cycles: Cycle,
    ) -> Self {
        let cfg = SmConfig { scheduler: policy, ..SmConfig::kepler_k20() };
        let mode =
            if scheme.preemptible() { FaultMode::SquashNotify } else { FaultMode::StallReplay };
        let mut mem = MemSystem::new(MemConfig::kepler_k20().with_sms(1), mode);
        mem.page_table.add_lazy_range(LAZY, 64 * REGION_BYTES);
        for &page in trace.touched_pages().iter().filter(|&&p| p < LAZY) {
            mem.page_table.set_range(page, 1, PageState::Present);
        }
        let mut sm = Sm::new(0, cfg.clone(), scheme);
        sm.configure_kernel(KernelSetup::for_trace(&cfg, trace));
        let pending = trace.blocks.iter().rev().cloned().collect();
        let mut rig = SmRig { sm, mem, pending, fault_cycles, resolutions: Vec::new() };
        rig.dispatch();
        rig
    }

    fn dispatch(&mut self) {
        while self.sm.free_slot().is_some() {
            let Some(b) = self.pending.pop() else { break };
            self.sm.assign_block(b);
        }
    }

    /// The engine's cycle for this SM: the memory system, the fault
    /// handler (resolutions broadcast, new reports taken into service),
    /// the SM, then dispatch into freed slots. Returns the blocks the tick
    /// finished and the fault notices it raised.
    fn step(&mut self, now: Cycle) -> (u64, usize) {
        self.mem.tick(now);
        for &(_, region) in self.resolutions.iter().filter(|r| r.0 == now) {
            self.mem.resolve_region(region, now);
            self.sm.on_region_resolved(region);
        }
        self.resolutions.retain(|r| r.0 > now);
        while let Some(e) = self.mem.fault_queue.pop() {
            self.resolutions.push((now + self.fault_cycles, e.region));
        }
        self.sm.tick(now, &mut self.mem);
        let done = self.sm.drain_completed();
        let mut notices = Vec::new();
        self.sm.drain_fault_notices(&mut notices);
        self.dispatch();
        (done, notices.len())
    }

    fn next_event_cycle(&self) -> Option<Cycle> {
        let resolution = self.resolutions.iter().map(|r| r.0).min();
        self.sm
            .next_event_cycle()
            .into_iter()
            .chain(self.mem.next_event_cycle())
            .chain(resolution)
            .min()
    }

    fn finished(&self) -> bool {
        self.pending.is_empty()
            && self.sm.is_empty()
            && self.mem.quiescent()
            && self.resolutions.is_empty()
    }

    fn seen(&self) -> SmSeen {
        let mut retired: Vec<_> = self.sm.warp_retired().iter().map(|(&k, &n)| (k, n)).collect();
        retired.sort_unstable();
        SmSeen {
            stats: self.sm.stats(),
            retired,
            report: self.sm.next_event_cycle(),
            mem: self.mem.stats(),
            mem_report: self.mem.next_event_cycle(),
        }
    }

    /// [`SmRig::seen`] without the counters a skipped tick adds to.
    fn seen_uncredited(&self) -> SmSeen {
        let stats = SmStats {
            cycles: 0,
            idle_issue_cycles: 0,
            stall_raw: 0,
            stall_war: 0,
            stall_unit: 0,
            stall_log: 0,
            fetch_blocked: 0,
            ..self.sm.stats()
        };
        SmSeen { stats, ..self.seen() }
    }
}

/// [`walk`] for an SM: one copy ticked in every cycle, the other only at
/// the earliest of its SM's and memory's reports and its next fault
/// resolution, crediting the cycles in between with `Sm::skip`. In a
/// skipped cycle the first copy must issue, commit, complete, notice and
/// send to memory nothing, and change nothing but the credited counters;
/// where the copies meet, everything must agree. Returns the number of
/// jumps.
fn walk_sm(build: impl Fn() -> SmRig) -> u32 {
    let (mut jumper, mut every) = (build(), build());
    assert_eq!(jumper.step(0), every.step(0));
    let (mut now, mut jumps) = (0, 0);
    while !jumper.finished() {
        assert!(now < HORIZON, "the SM did not finish by cycle {HORIZON}");
        let next = jumper.next_event_cycle().expect("an SM with work reports a cycle");
        let target = next.max(now + 1);
        let seen = jumper.seen_uncredited();
        for t in now + 1..target {
            assert_eq!(every.step(t), (0, 0), "cycle {t} finished or noticed before {target}");
            assert_eq!(every.seen_uncredited(), seen, "cycle {t} changed the SM before {target}");
        }
        if target > now + 1 {
            jumper.sm.skip(target - now - 1);
            jumps += 1;
        }
        assert_eq!(jumper.step(target), every.step(target), "the copies part at {target}");
        assert_eq!(jumper.seen(), every.seen(), "the copies part at {target}");
        now = target;
    }
    assert!(every.finished());
    jumps
}

/// A kernel with a little of everything an SM waits on: a global load
/// (from `base`), dependent ALU and SFU chains of uneven length per warp,
/// a divide that traps in half the lanes under the preemptible schemes, a
/// barrier, and a global store.
fn sm_kernel(base: u64, blocks: u32, warps: u32, iters: u64, trap: bool) -> KernelTrace {
    let mut a = Asm::new();
    let (tid, n, i, acc, x, addr, p) = (Reg(0), Reg(1), Reg(2), Reg(3), Reg(4), Reg(5), Pred(0));
    a.gtid(tid);
    a.shl_imm(addr, tid, 2);
    a.add(addr, addr, base);
    a.ld_global_u32(acc, addr, 0);
    a.flat_tid(n);
    a.shr_imm(n, n, 5);
    a.add(n, n, iters);
    a.mov_f32(x, 1.5);
    a.mov(i, 0u64);
    a.label("chain");
    a.mad(acc, acc, 3u64, 1u64);
    a.frsqrt(x, x);
    a.add(i, i, 1u64);
    a.setp(p, CmpKind::Lt, CmpType::U64, i, n);
    a.bra_if("chain", p, true);
    if trap {
        a.and(n, tid, 1u64);
        a.div(acc, acc, n);
    }
    a.bar();
    a.st_global_u32(addr, acc, 0);
    a.exit();
    let kernel = KernelBuilder::new("sm", a.assemble().expect("assembles"))
        .grid(Dim3::x(blocks))
        .block(Dim3::x(32 * warps))
        .build()
        .expect("kernel");
    FuncSim::new().run(&kernel, &mut MemImage::new()).expect("runs").trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// An SM reports nothing while stalled, its quiet record's expiry while
    /// quiet and a past cycle while busy, and `Sm::skip` credits exactly
    /// the ticks it skips: under every scheme and both warp schedulers,
    /// with its loads mapped or faulting on first touch.
    #[test]
    fn sm_changes_nothing_before_its_next_event(
        blocks in 1u32..5,
        warps in 1u32..5,
        iters in 1u64..6,
        trap in any::<bool>(),
        lazy in any::<bool>(),
        fault_cycles in 100u64..3_000,
    ) {
        let trace = sm_kernel(if lazy { LAZY } else { DIRTY }, blocks, warps, iters, trap);
        for scheme in Scheme::all() {
            for policy in [SchedulerPolicy::LooseRoundRobin, SchedulerPolicy::GreedyThenOldest] {
                let jumps = walk_sm(|| SmRig::new(&trace, scheme, policy, fault_cycles));
                prop_assert!(jumps > 0, "{scheme} {policy:?}: latency leaves cycles to skip");
            }
        }
    }

    /// The memory hierarchy's event wheel reports every cycle in which a
    /// translation, walk, fault report, cache or DRAM step happens.
    #[test]
    fn mem_system_changes_nothing_before_its_next_event(
        stall in any::<bool>(),
        states in collection::vec(0u8..3, 8),
        accesses in collection::vec((0u32..4, 0u8..3, 0u64..8, 0u64..12, 1u64..=6), 1..12),
    ) {
        let build = || {
            let mode = if stall { FaultMode::StallReplay } else { FaultMode::SquashNotify };
            let mut mem = MemSystem::new(MemConfig::kepler_k20(), mode);
            for (i, s) in states.iter().enumerate() {
                let base = DIRTY + i as u64 * REGION_BYTES;
                match s {
                    0 => mem.page_table.set_range(base, REGION_BYTES, PageState::Present),
                    1 => mem.page_table.set_range(base, REGION_BYTES, PageState::CpuDirty),
                    _ => mem.page_table.add_lazy_range(base, REGION_BYTES),
                }
            }
            for &(sm, kind, region, page, lines) in &accesses {
                let kind = [AccessKind::Load, AccessKind::Store, AccessKind::Atomic][kind as usize];
                let base = DIRTY + region * REGION_BYTES + page * 4096;
                let lines: Vec<u64> = (0..lines).map(|l| base + l * 1024).collect();
                mem.start_access(0, sm, kind, &lines);
            }
            MemSource { mem }
        };
        walk(build);
    }

    /// The CPU handler reports in-flight completions, NACK re-enqueues,
    /// stall expiries and the cycle its stage admits a queued fault, and
    /// no cycle while the queue holds only faults it leaves alone or a
    /// fault waits for memory (unless an injector rolls its dice on it).
    #[test]
    fn cpu_handler_changes_nothing_before_its_next_event(
        pcie in any::<bool>(),
        faults in collection::vec((0u64..60_000, 0u8..24, 0u8..6), 2..14),
        seed in 0u64..1_000,
    ) {
        let link = if pcie { Interconnect::pcie() } else { Interconnect::nvlink() };
        for case in [
            CpuCase::BusyStage,
            CpuCase::FirstTouchOnly,
            CpuCase::Deferred,
            CpuCase::Chaos,
            CpuCase::DeferredChaos,
        ] {
            let jumps = walk(|| CpuSource::new(case, link, &faults, seed));
            if matches!(case, CpuCase::BusyStage) {
                prop_assert!(jumps > 0, "a storm behind the CPU stage leaves cycles to skip");
            }
        }
    }

    /// The GPU-local handler reports each handler's completion, including
    /// the retry of one that found every resident region still in flight.
    #[test]
    fn local_handler_changes_nothing_before_its_next_event(
        handler in 1_000u64..30_000,
        claims in collection::vec(0u64..40_000, 1..10),
        landings in collection::vec(0u64..80_000, 0..3),
        room in 0u64..3,
    ) {
        let build = || {
            // Regions in flight to the CPU handler hold all but `room`
            // regions' worth of frames until they land; with none in
            // flight, at least one region fits.
            let room = if landings.is_empty() { room.max(1) } else { room };
            let bytes = (landings.len() as u64 + room) * REGION_BYTES;
            let mut mem = paged_mem(FaultMode::SquashNotify, bytes);
            let mut script: Vec<(Cycle, LocalInput)> = Vec::new();
            for (i, &at) in landings.iter().enumerate() {
                let region = DIRTY + i as u64 * REGION_BYTES;
                let backing = mem.back_fault(region, AllocOwner::Cpu);
                backing.frames.expect("room for in-flight regions");
                script.push((at, LocalInput::Land(region)));
            }
            for (i, &at) in claims.iter().enumerate() {
                script.push((at, LocalInput::Claim(LAZY + i as u64 * REGION_BYTES)));
            }
            let cfg = LocalFaultConfig { handler_cycles: handler };
            LocalSource { local: LocalFaultState::new(cfg), mem, script }
        };
        walk(build);
    }

    /// A block-switch scheduler reports every save and restore completion.
    #[test]
    fn local_scheduler_changes_nothing_before_its_next_event(
        transfers in collection::vec((0u64..20_000, 0usize..6, any::<bool>(), 1u64..5_000), 1..12),
    ) {
        let blocks = saved_blocks(6);
        let build = || SchedSource {
            sched: LocalScheduler::new(),
            blocks: blocks.clone(),
            script: transfers
                .iter()
                .map(|&(at, block, restore, d)| (at, Transfer { block, restore, d }))
                .collect(),
        };
        walk(build);
    }

    /// An injector reports every NACK re-enqueue and stall expiry.
    #[test]
    fn injector_changes_nothing_before_its_next_event(
        seed in any::<u64>(),
        backoff in 1u64..5_000,
        burst in (1u64..3_000, 0u64..10_000),
        inputs in collection::vec((0u64..40_000, any::<bool>()), 1..12),
    ) {
        let build = || {
            let plan = InjectionPlan {
                seed,
                stall_prob: 1.0,
                stall_cycles: (burst.0, burst.0 + burst.1),
                nack_prob: 1.0,
                max_nacks_per_region: u32::MAX,
                nack_backoff: backoff,
                ..InjectionPlan::none()
            };
            let script = inputs
                .iter()
                .enumerate()
                .map(|(i, &(at, nack))| {
                    let input = if nack {
                        InjectInput::Nack(DIRTY + i as u64 * REGION_BYTES)
                    } else {
                        InjectInput::Stall
                    };
                    (at, input)
                })
                .collect();
            InjectorSource { inj: Injector::new(plan), queue: FaultQueue::new(), script }
        };
        walk(build);
    }
}
