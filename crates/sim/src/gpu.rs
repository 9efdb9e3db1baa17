//! The whole-GPU simulator: SMs + memory system + global thread-block
//! scheduler + demand-paging machinery.
//!
//! [`Gpu::run`] executes one kernel launch end to end: the thread-block
//! scheduler fills every SM to its occupancy, pending blocks dispatch as
//! resident ones finish (Section 2.1), faults flow through the fill unit's
//! pending queue to the CPU handler (and optionally the GPU-local handler),
//! and the per-SM local schedulers optionally context-switch faulted blocks
//! (Section 4.1). The run ends when the last block commits its last
//! instruction — the paper's execution-time metric.

use crate::block_switch::{BlockSwitchConfig, LocalScheduler};
use crate::config::{GpuConfig, PagingMode};
use crate::error::{DeadlineDiagnostic, SimError, WatchdogDiagnostic};
use crate::inject::InjectionPlan;
use crate::local_fault::LocalFaultState;
use crate::paging::CpuHandler;
use crate::report::GpuRunReport;
use crate::residency::Residency;
use crate::tenant::{
    static_shares, PartitionPolicy, SharedRunReport, TenantRunReport, TenantWorkload,
    TENANT_SHIFT,
};
use gex_isa::trace::{BlockTrace, KernelTrace};
use gex_mem::system::{FaultMode, MemSystem};
use gex_mem::{Cycle, PageState};
use gex_sm::{FaultNotice, KernelSetup, RunBudget, Scheme, Sm, SmStats, WarpDiag};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// The GPU simulator front end. Construct once, [`Gpu::run`] per launch.
#[derive(Debug, Clone)]
pub struct Gpu {
    pub(crate) cfg: GpuConfig,
    scheme: Scheme,
    paging: PagingMode,
    inject: Option<InjectionPlan>,
    budget: RunBudget,
    fault_budget: Option<u32>,
}

impl Gpu {
    /// A GPU with the given configuration, SM exception scheme and paging
    /// mode. The watchdog window comes from `cfg`; the cycle bound is the
    /// run budget ([`Gpu::budget`]).
    pub fn new(cfg: GpuConfig, scheme: Scheme, paging: PagingMode) -> Self {
        Gpu {
            cfg,
            scheme,
            paging,
            inject: None,
            budget: RunBudget::none(),
            fault_budget: None,
        }
    }

    /// Cap the run's fresh fault-queue admissions (the whole-run fault
    /// budget: with no tenant windows configured every fault charges
    /// tenant 0). Once exhausted, further faults are *denied* — the
    /// faulting warps wedge and the run surfaces a watchdog error instead
    /// of consuming unbounded handler service. The containment primitive
    /// behind [`PartitionPolicy`](crate::tenant::PartitionPolicy)'s
    /// quarantine modes.
    pub fn fault_budget(mut self, budget: u32) -> Self {
        self.fault_budget = Some(budget);
        self
    }

    /// Attach a deterministic fault-injection schedule (resilience
    /// testing). Only demand paging has anything to perturb; the plan is
    /// ignored under [`PagingMode::AllResident`].
    pub fn inject(mut self, plan: InjectionPlan) -> Self {
        self.inject = Some(plan);
        self
    }

    /// Attach a cooperative [`RunBudget`] (cycle deadline, cancellation
    /// token) — the run's one cycle bound. Checked every iteration of the
    /// engine loop; a blown budget surfaces as [`SimError::Deadline`]
    /// rather than a hang. Without one the run meters the budget's
    /// fallback deadline.
    pub fn budget(mut self, b: RunBudget) -> Self {
        self.budget = b;
        self
    }

    /// The configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// The SM exception scheme.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// The paging mode.
    pub fn paging(&self) -> PagingMode {
        self.paging
    }

    /// The attached fault-injection schedule, if any.
    pub fn injection(&self) -> Option<&InjectionPlan> {
        self.inject.as_ref()
    }

    /// Execute `trace` with the given initial data placement.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit on an SM or the run aborts (see
    /// [`Gpu::try_run`] for the non-panicking form).
    pub fn run(&self, trace: &KernelTrace, residency: &Residency) -> GpuRunReport {
        match self.try_run(trace, residency) {
            Ok(report) => report,
            Err(e) => panic!("{e}"),
        }
    }

    /// Execute `trace`, returning a structured [`SimError`] if the run
    /// wedges (forward-progress watchdog), exceeds its budget, has
    /// stall-mode faults with no handler, or hits a fatal SM/memory
    /// condition.
    pub fn try_run(
        &self,
        trace: &KernelTrace,
        residency: &Residency,
    ) -> Result<GpuRunReport, SimError> {
        if self.cfg.num_sms() == 0 {
            return Err(SimError::Oversubscribed { tenants: 1, sms: 0 });
        }
        Engine::new(self, &[(trace, residency)]).run(trace)
    }

    /// Execute several tenants' kernel streams concurrently under
    /// `policy` (see [`crate::tenant`]).
    ///
    /// # Panics
    ///
    /// Panics if a *shared-engine* run aborts (watchdog, budget, fatal
    /// SM/memory error) — see [`Gpu::try_run_multi`]. Under
    /// [`PartitionPolicy::Static`] a failed sub-run is reported as that
    /// tenant's quarantine instead of panicking.
    pub fn run_multi(
        &self,
        tenants: &[TenantWorkload],
        policy: PartitionPolicy,
    ) -> SharedRunReport {
        match self.try_run_multi(tenants, policy) {
            Ok(report) => report,
            Err(e) => panic!("{e}"),
        }
    }

    /// Execute several tenants' kernel streams concurrently under
    /// `policy`, returning a structured [`SimError`] if a shared-engine
    /// run aborts.
    pub fn try_run_multi(
        &self,
        tenants: &[TenantWorkload],
        policy: PartitionPolicy,
    ) -> Result<SharedRunReport, SimError> {
        assert!(!tenants.is_empty(), "a multi-tenant run needs at least one tenant");
        // Each SM hosts one tenant's kernel at a time, so more tenants
        // than SMs can never be scheduled. Checked before *any* policy
        // branch (a static split would hand some tenant zero SMs) because
        // the tenant list is user-supplied over the campaign wire — a
        // typed reject, not a panic.
        if tenants.len() > self.cfg.num_sms() as usize {
            return Err(SimError::Oversubscribed {
                tenants: tenants.len(),
                sms: self.cfg.num_sms(),
            });
        }
        if policy == PartitionPolicy::Static {
            return Ok(self.run_static(tenants));
        }
        let mut gpu = self.clone();
        // Per-tenant budgets are set below; a whole-run budget would
        // double-charge tenant 0.
        gpu.fault_budget = None;
        // The noisy neighbor's storm perturbs the *shared* CPU handler —
        // the first tenant with a plan attaches it.
        gpu.inject = tenants.iter().find_map(|t| t.inject.clone());
        // Move every tenant after the first into its private address
        // window; tenant 0 keeps its addresses (and its memoized trace).
        let rebased: Vec<(KernelTrace, Residency)> = tenants
            .iter()
            .enumerate()
            .skip(1)
            .map(|(i, t)| {
                let off = (i as u64) << TENANT_SHIFT;
                (t.trace.rebased(off), t.residency.rebase(off))
            })
            .collect();
        let streams: Vec<(&KernelTrace, &Residency)> = tenants
            .iter()
            .enumerate()
            .map(|(i, t)| match i {
                0 => (&t.trace, &t.residency),
                _ => {
                    let (tr, r) = &rebased[i - 1];
                    (tr, r)
                }
            })
            .collect();
        let mut engine = Engine::new(&gpu, &streams);
        engine.mem.set_tenant_shift(TENANT_SHIFT);
        if policy == PartitionPolicy::Quarantine {
            for (i, t) in tenants.iter().enumerate() {
                if let Some(b) = t.fault_budget {
                    engine.mem.fault_queue.set_budget(i as u32, b);
                }
            }
        }
        engine.run_loop().map(|end| SharedRunReport {
            policy,
            cycles: end,
            tenants: tenants
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    let ctx = &engine.tenants[i];
                    let (faulted_requests, denied_requests) =
                        engine.mem.tenant_fault_stats(i as u32);
                    let (tlb_hits, tlb_misses) = engine.mem.tenant_tlb_stats(i as u32);
                    TenantRunReport {
                        tenant: t.id.clone(),
                        cycles: ctx.finished_at.unwrap_or(end),
                        blocks: ctx.total,
                        completed: ctx.completed,
                        quarantined: ctx.quarantined,
                        error: None,
                        faulted_requests,
                        denied_requests,
                        tlb_hits,
                        tlb_misses,
                        solo: None,
                    }
                })
                .collect(),
        })
    }

    /// [`PartitionPolicy::Static`]: fixed SM slices, each tenant an
    /// independent sub-simulation. A failed sub-run (e.g. the chaos
    /// tenant wedging on its exhausted fault budget) quarantines that
    /// tenant; every other tenant's report is untouched — and
    /// byte-identical to running it alone at the same SM count.
    fn run_static(&self, tenants: &[TenantWorkload]) -> SharedRunReport {
        let shares = static_shares(self.cfg.num_sms(), tenants.len());
        let mut out = Vec::with_capacity(tenants.len());
        let mut end: Cycle = 0;
        for (t, &share) in tenants.iter().zip(&shares) {
            let mut gpu = self.clone();
            gpu.cfg = gpu.cfg.with_sms(share);
            gpu.inject = t.inject.clone();
            gpu.fault_budget = t.fault_budget;
            match gpu.try_run(&t.trace, &t.residency) {
                Ok(r) => {
                    end = end.max(r.cycles);
                    out.push(TenantRunReport {
                        tenant: t.id.clone(),
                        cycles: r.cycles,
                        blocks: r.blocks,
                        completed: r.blocks,
                        quarantined: false,
                        error: None,
                        faulted_requests: r.mem.faulted_requests,
                        denied_requests: r.mem.denied_requests,
                        tlb_hits: 0,
                        tlb_misses: 0,
                        solo: Some(Box::new(r)),
                    });
                }
                Err(e) => out.push(TenantRunReport {
                    tenant: t.id.clone(),
                    cycles: 0,
                    blocks: t.trace.blocks.len() as u64,
                    completed: 0,
                    quarantined: true,
                    error: Some(e.to_string()),
                    faulted_requests: 0,
                    denied_requests: 0,
                    tlb_hits: 0,
                    tlb_misses: 0,
                    solo: None,
                }),
            }
        }
        SharedRunReport { policy: PartitionPolicy::Static, cycles: end, tenants: out }
    }
}

pub(crate) struct Engine {
    scheme_fault_mode: FaultMode,
    mem: MemSystem,
    pub(crate) sms: Vec<Sm>,
    scheds: Vec<LocalScheduler>,
    cpu: Option<CpuHandler>,
    local: Option<LocalFaultState>,
    block_cfg: Option<BlockSwitchConfig>,
    /// Per-tenant pending-block queues, indexed like `tenants`.
    queues: Vec<VecDeque<Arc<BlockTrace>>>,
    /// Owning tenant of each SM. An SM runs one tenant's kernel at a time
    /// (its `KernelSetup` is the owner's); ownership moves only when the
    /// SM is completely empty.
    sm_owner: Vec<usize>,
    /// Per-tenant scheduling state. Single-stream runs have exactly one.
    tenants: Vec<TenantCtx>,
    total_blocks: u64,
    completed: u64,
    switches: u64,
    dispatch_rr: usize,
    watchdog_cycles: Cycle,
    budget: RunBudget,
    /// Reused scratch for draining SM fault notices without allocating.
    notice_buf: Vec<FaultNotice>,
}

/// One tenant's scheduling state inside the engine.
#[derive(Debug, Clone)]
struct TenantCtx {
    /// The tenant's kernel geometry (every SM it owns is configured with
    /// this).
    setup: KernelSetup,
    /// Blocks the tenant launched.
    total: u64,
    /// Blocks completed so far.
    completed: u64,
    /// Cycle the last block completed.
    finished_at: Option<Cycle>,
    /// Locked out: budget denials were observed, its queue was cleared
    /// and its pending faults purged. Resident blocks wedge in place.
    quarantined: bool,
}

impl Engine {
    /// Build an engine over one or more concurrent kernel streams
    /// (tenants). Streams must already live in disjoint address windows.
    pub(crate) fn new(gpu: &Gpu, streams: &[(&KernelTrace, &Residency)]) -> Self {
        let num_sms = gpu.cfg.num_sms();
        assert!(!streams.is_empty(), "a run needs at least one kernel stream");
        assert!(
            streams.len() <= num_sms as usize,
            "more tenants ({}) than SMs ({num_sms})",
            streams.len()
        );
        let fault_mode = if gpu.scheme.preemptible() {
            FaultMode::SquashNotify
        } else {
            FaultMode::StallReplay
        };
        let (cpu, local, block_cfg) = match gpu.paging {
            PagingMode::AllResident => (None, None, None),
            PagingMode::Demand { interconnect, block_switch, local_handling } => {
                let mut cpu = CpuHandler::new(interconnect);
                if let Some(plan) = &gpu.inject {
                    cpu = cpu.with_injection(plan.clone());
                }
                if local_handling.is_some() {
                    assert!(
                        gpu.scheme.preemptible(),
                        "GPU-local fault handling needs a preemptible scheme"
                    );
                    cpu = cpu.without_first_touch();
                }
                (Some(cpu), local_handling.map(LocalFaultState::new), block_switch)
            }
        };
        let mut mem = MemSystem::new(gpu.cfg.mem.clone(), fault_mode);
        match gpu.paging {
            PagingMode::AllResident => {
                for (trace, _) in streams {
                    for &page in trace.touched_pages() {
                        mem.page_table.set_range(page, 1, PageState::Present);
                    }
                }
            }
            PagingMode::Demand { .. } => {
                for (_, residency) in streams {
                    residency.apply(&mut mem);
                }
            }
        }
        if let Some(b) = gpu.fault_budget {
            mem.fault_queue.set_budget(0, b);
        }
        let tenants: Vec<TenantCtx> = streams
            .iter()
            .map(|(trace, _)| TenantCtx {
                setup: KernelSetup::for_trace(&gpu.cfg.sm, trace),
                total: trace.blocks.len() as u64,
                completed: 0,
                finished_at: None,
                quarantined: false,
            })
            .collect();
        let mut sms: Vec<Sm> =
            (0..num_sms).map(|i| Sm::new(i, gpu.cfg.sm.clone(), gpu.scheme)).collect();
        // Initial SM ownership: round-robin over the tenants, each SM
        // configured with its owner's kernel geometry.
        let sm_owner: Vec<usize> = (0..num_sms as usize).map(|i| i % streams.len()).collect();
        for (sm, &owner) in sms.iter_mut().zip(&sm_owner) {
            sm.configure_kernel(tenants[owner].setup);
        }
        let queues: Vec<VecDeque<_>> = streams
            .iter()
            .map(|(trace, _)| trace.blocks.iter().cloned().collect())
            .collect();
        Engine {
            scheme_fault_mode: fault_mode,
            mem,
            sms,
            scheds: (0..num_sms).map(|_| LocalScheduler::new()).collect(),
            cpu,
            local,
            block_cfg,
            total_blocks: tenants.iter().map(|t| t.total).sum(),
            queues,
            sm_owner,
            tenants,
            completed: 0,
            switches: 0,
            dispatch_rr: 0,
            watchdog_cycles: gpu.cfg.watchdog_cycles,
            budget: gpu.budget.clone(),
            notice_buf: Vec::new(),
        }
    }

    /// Blocks still waiting for dispatch across all tenants.
    fn pending_blocks(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }

    fn broadcast_resolved(&mut self, region: u64) {
        for sm in &mut self.sms {
            sm.on_region_resolved(region);
        }
        for sched in &mut self.scheds {
            sched.resolve_region(region);
        }
    }

    /// Tick every SM for one cycle, in SM-index order: each [`Sm::tick`]
    /// issues its global-memory accesses straight into the shared
    /// [`MemSystem`], and the blocks it finished count toward the SM's
    /// owner then (ownership moves only in `dispatch_blocks`).
    fn tick_sms(&mut self, now: Cycle) -> Result<(), SimError> {
        for i in 0..self.sms.len() {
            self.sms[i].tick(now, &mut self.mem);
            if let Some(e) = self.sms[i].take_error() {
                return Err(e.into());
            }
            let done = self.sms[i].drain_completed();
            if done > 0 {
                self.completed += done;
                let t = &mut self.tenants[self.sm_owner[i]];
                t.completed += done;
                if t.completed == t.total {
                    t.finished_at.get_or_insert(now);
                }
            }
        }
        Ok(())
    }

    fn committed_total(&self) -> u64 {
        self.sms.iter().map(|s| s.committed()).sum()
    }

    fn warp_diagnostics(&self) -> Vec<WarpDiag> {
        let mut out = Vec::new();
        for s in &self.sms {
            s.append_warp_diagnostics(&mut out);
        }
        out
    }

    pub(crate) fn run(&mut self, trace: &KernelTrace) -> Result<GpuRunReport, SimError> {
        let now = self.run_loop()?;
        let mut sm_stats = SmStats::default();
        let mut warp_retired: BTreeMap<(u32, u32), u64> = BTreeMap::new();
        for sm in &self.sms {
            sm_stats.merge(&sm.stats());
            for (&key, &n) in sm.warp_retired() {
                *warp_retired.entry(key).or_insert(0) += n;
            }
        }
        Ok(GpuRunReport {
            kernel: trace.name.clone(),
            cycles: now,
            sm: sm_stats,
            mem: self.mem.stats(),
            cpu: self.cpu.as_ref().map(|c| c.stats()).unwrap_or_default(),
            local: self.local.as_ref().map(|l| l.stats()).unwrap_or_default(),
            blocks: self.total_blocks,
            switches: self.switches,
            resident_regions: self.mem.page_table.resident_regions().to_vec(),
            warp_retired,
            injection: self.cpu.as_ref().and_then(|c| c.injection_stats()),
        })
    }

    /// Lock a misbehaving tenant out: clear its pending blocks, purge its
    /// queued faults (the handler stops servicing its storm) and mark it
    /// quarantined. Its resident blocks wedge on their denied faults; its
    /// SMs stay captured until the run ends. Multi-tenant runs only — a
    /// solo run over budget wedges and surfaces a watchdog error instead,
    /// so supervision sees the failure.
    fn react_to_denials(&mut self, now: Cycle, last_progress: &mut Cycle) {
        for t in 0..self.tenants.len() {
            if self.tenants[t].quarantined {
                continue;
            }
            let (_, denied) = self.mem.tenant_fault_stats(t as u32);
            if denied == 0 {
                continue;
            }
            self.tenants[t].quarantined = true;
            self.queues[t].clear();
            self.mem.fault_queue.purge_tenant(t as u32);
            // Quarantining is forward progress: the run now has strictly
            // less outstanding work.
            *last_progress = now;
        }
    }

    /// The engine loop: tick every component until the launch finishes,
    /// returning the final cycle. Shared verbatim by single-stream runs
    /// (`run`) and multi-tenant runs (`Gpu::try_run_multi`).
    fn run_loop(&mut self) -> Result<Cycle, SimError> {
        let mut now: Cycle = 0;
        // Forward-progress watchdog state: the cycle of the last commit,
        // fault resolution, block completion or block dispatch.
        let mut last_progress: Cycle = 0;
        let mut last_committed: u64 = 0;
        let meter = self.budget.start();
        loop {
            if let Some(cause) = meter.check(now) {
                return Err(SimError::Deadline(Box::new(DeadlineDiagnostic {
                    cycle: now,
                    cause,
                    completed_blocks: self.completed,
                    total_blocks: self.total_blocks,
                    committed: self.committed_total(),
                })));
            }
            self.mem.tick(now);
            if let Some(e) = self.mem.take_error() {
                return Err(e.into());
            }
            if self.tenants.len() > 1 && self.mem.stats().denied_requests > 0 {
                self.react_to_denials(now, &mut last_progress);
            }
            if let Some(cpu) = &mut self.cpu {
                for region in cpu.tick(now, &mut self.mem) {
                    self.broadcast_resolved(region);
                    last_progress = now;
                }
            }
            let local_done =
                self.local.as_mut().map(|l| l.tick(now, &mut self.mem)).unwrap_or_default();
            for region in local_done {
                self.broadcast_resolved(region);
                last_progress = now;
            }

            self.tick_sms(now)?;
            self.handle_notices(now);
            self.pump_switching(now);
            let before_dispatch = self.pending_blocks();
            self.dispatch_blocks();
            if self.pending_blocks() != before_dispatch {
                last_progress = now;
            }

            if self.finished() {
                break;
            }

            // A block finishes only at a commit, so this covers completions.
            let committed = self.committed_total();
            if committed != last_committed {
                last_committed = committed;
                last_progress = now;
            } else if now - last_progress >= self.watchdog_cycles {
                return Err(SimError::Watchdog(Box::new(WatchdogDiagnostic {
                    cycle: now,
                    last_progress,
                    window: self.watchdog_cycles,
                    committed,
                    completed_blocks: self.completed,
                    total_blocks: self.total_blocks,
                    warps: self.warp_diagnostics(),
                    fault_queue: self.mem.fault_queue.snapshot(),
                    in_service: self.mem.fault_queue.in_service_regions().to_vec(),
                })));
            }

            // Idle skip: when no SM reports a change before `now + 2`, jump
            // to the next cycle at which anything can change, crediting the
            // SMs and the dispatch cursor the ticks in between. The SMs are
            // asked first: a busy one reports a past cycle, which ends the
            // scan before the components' costlier queries.
            if self.sms.iter().all(|sm| sm.next_event_cycle().is_none_or(|c| c > now + 1)) {
                let next = self.next_event_cycle();
                if next.is_none()
                    && self.scheme_fault_mode == FaultMode::StallReplay
                    && self.cpu.is_none()
                    && !self.mem.quiescent()
                {
                    // Stall-mode faults with no handler would hang forever;
                    // surface it instead.
                    return Err(SimError::NoFaultHandler {
                        pending_faults: self.mem.fault_queue.len()
                            + self.mem.fault_queue.in_service_count(),
                    });
                }
                // Never jump past the watchdog deadline or the budget's
                // cycle deadline: each must fire at its exact cycle. With
                // no event anywhere, nothing changes until one of them.
                let deadline = (last_progress + self.watchdog_cycles).min(meter.deadline_cycles());
                let target = next.map_or(deadline, |next| next.min(deadline));
                if target > now + 1 {
                    self.skip_quiet_cycles(target - now - 1);
                    now = target;
                    continue;
                }
            }
            now += 1;
        }
        Ok(now)
    }

    fn handle_notices(&mut self, now: Cycle) {
        let mut notices = std::mem::take(&mut self.notice_buf);
        for i in 0..self.sms.len() {
            notices.clear();
            self.sms[i].drain_fault_notices(&mut notices);
            for n in &notices {
                // Use case 2: claim first-touch faults for GPU-local
                // handling.
                if let Some(local) = &mut self.local {
                    for &region in &n.regions {
                        local.try_claim(now, region, &mut self.mem);
                    }
                }
                // Use case 1: switch the faulted block out if the wait
                // looks long and there is something else to run.
                if let Some(cfg) = self.block_cfg {
                    let sched = &self.scheds[i];
                    let replacement_available = (!self.queues[self.sm_owner[i]].is_empty()
                        && sched.extra_brought < cfg.max_extra_blocks)
                        || sched.has_restorable();
                    if n.queue_pos >= cfg.queue_pos_threshold
                        && replacement_available
                        && !sched.draining.contains(&n.slot)
                        && self.sms[i].block_has_pending_fault(n.slot)
                    {
                        self.sms[i].begin_drain(n.slot);
                        self.scheds[i].draining.push(n.slot);
                    }
                }
            }
        }
        self.notice_buf = notices;
    }

    fn pump_switching(&mut self, now: Cycle) {
        let Some(cfg) = self.block_cfg else { return };
        for i in 0..self.sms.len() {
            // Drained blocks start their save transfer.
            let drained: Vec<u32> = self.scheds[i]
                .draining
                .iter()
                .copied()
                .filter(|&slot| self.sms[i].drained(slot))
                .collect();
            for slot in drained {
                self.scheds[i].draining.retain(|&s| s != slot);
                let saved = self.sms[i].take_block(slot);
                let done = if cfg.ideal {
                    now + 1
                } else {
                    self.mem.dram_mut().bulk_transfer(now, saved.context_bytes())
                };
                self.switches += 1;
                self.scheds[i].saving.push((done, saved));
            }
            // Finished saves park off-chip; finished restores re-enter the
            // SM.
            for saved in self.scheds[i].tick(now) {
                self.sms[i].restore_block(saved);
            }
            // Start restores for resolved off-chip blocks while capacity
            // lasts.
            loop {
                let used = self.sms[i].resident_blocks() + self.scheds[i].slots_in_transit();
                if used >= self.tenants[self.sm_owner[i]].setup.occupancy_blocks {
                    break;
                }
                let Some(saved) = self.scheds[i].pop_restorable() else { break };
                let done = if cfg.ideal {
                    now + 1
                } else {
                    self.mem.dram_mut().bulk_transfer(now, saved.context_bytes())
                };
                self.scheds[i].restoring.push((done, saved));
            }
        }
    }

    pub(crate) fn dispatch_blocks(&mut self) {
        // Round-robin over SMs, one block per SM per pass, so no SM hoards
        // its pending queue when slots churn (the global scheduler hands
        // out blocks fairly). Each SM draws from its owning tenant's
        // queue; an empty, fully idle SM whose owner has no pending blocks
        // is handed to the next tenant that does (work conservation under
        // the shared policies — single-stream runs never reassign).
        let n = self.sms.len();
        loop {
            if self.pending_blocks() == 0 {
                return;
            }
            let mut assigned_any = false;
            for k in 0..n {
                if self.pending_blocks() == 0 {
                    return;
                }
                let i = (self.dispatch_rr + k) % n;
                let mut owner = self.sm_owner[i];
                if self.queues[owner].is_empty() {
                    // `configure_kernel` replaces the slot array, so
                    // ownership only moves when the SM is completely
                    // empty: no resident blocks, no context-switch state
                    // in flight.
                    let idle = self.tenants.len() > 1
                        && self.sms[i].resident_blocks() == 0
                        && self.scheds[i].quiescent();
                    let next = if idle {
                        (0..self.tenants.len()).find(|&t| !self.queues[t].is_empty())
                    } else {
                        None
                    };
                    let Some(t) = next else { continue };
                    self.sm_owner[i] = t;
                    self.sms[i].configure_kernel(self.tenants[t].setup);
                    owner = t;
                }
                let used = self.sms[i].resident_blocks() + self.scheds[i].slots_in_transit();
                if used >= self.tenants[owner].setup.occupancy_blocks {
                    continue;
                }
                // Bringing a block while this SM holds switched-out context
                // counts against the extra-block budget (Section 4.1).
                let is_extra = !self.scheds[i].quiescent();
                if is_extra {
                    let cfg = self.block_cfg.expect("switching state implies config");
                    if self.scheds[i].extra_brought >= cfg.max_extra_blocks {
                        continue;
                    }
                    self.scheds[i].extra_brought += 1;
                }
                let b = self.queues[owner].pop_front().expect("checked non-empty");
                self.sms[i].assign_block(b);
                assigned_any = true;
            }
            self.dispatch_rr = self.dispatch_rr.wrapping_add(1);
            if !assigned_any {
                return;
            }
        }
    }

    fn finished(&self) -> bool {
        // Every tenant either completed its launch or was quarantined
        // (its remaining blocks will never run). Single-stream runs
        // reduce to the old `completed == total_blocks`.
        self.tenants.iter().all(|t| t.completed == t.total || t.quarantined)
    }

    /// Account the `k` cycles an idle jump skips, as the every-cycle loop
    /// would have run them: each SM credits its skipped ticks, and with
    /// blocks pending each cycle runs one dispatch pass that assigns
    /// nothing and advances the round-robin cursor.
    fn skip_quiet_cycles(&mut self, k: Cycle) {
        for sm in &mut self.sms {
            sm.skip(k);
        }
        if self.pending_blocks() > 0 {
            self.dispatch_rr = self.dispatch_rr.wrapping_add(k as usize);
        }
    }

    /// The idle-skip query: the earliest of every SM's and every
    /// component's `next_event_cycle()`. Each source promises that ticking
    /// it in every cycle before the one it reports changes nothing but what
    /// its skip credits, so the jump gives the every-cycle loop's result
    /// (DESIGN.md, "The idle skip"). `None` means nothing will change
    /// before a deadline.
    fn next_event_cycle(&self) -> Option<Cycle> {
        debug_assert!(
            (0..self.sms.len()).all(|i| !self.mem.has_pending_events(i as u32)),
            "a memory delivery outlived the SM ticks of its cycle"
        );
        let cpu = self.cpu.as_ref().and_then(|c| c.next_event_cycle(&self.mem));
        let local = self.local.as_ref().and_then(LocalFaultState::next_event_cycle);
        self.mem
            .next_event_cycle()
            .into_iter()
            .chain(cpu)
            .chain(local)
            .chain(self.scheds.iter().filter_map(LocalScheduler::next_event_cycle))
            .chain(self.sms.iter().filter_map(Sm::next_event_cycle))
            .min()
    }
}
