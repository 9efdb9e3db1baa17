//! Multi-tenant (MPS-style) GPU sharing.
//!
//! A [`Gpu`](crate::Gpu) normally executes one kernel stream that owns the
//! whole machine. [`Gpu::run_multi`](crate::Gpu::run_multi) instead accepts
//! several concurrent [`TenantWorkload`]s — each a `KernelTrace` tagged
//! with a [`TenantId`] — and interleaves their thread blocks under a
//! [`PartitionPolicy`]:
//!
//! * [`PartitionPolicy::Shared`] — every tenant's blocks share one engine
//!   and one memory hierarchy. SMs are owned by one tenant at a time
//!   (kernel setups differ per tenant) but an SM whose owner runs out of
//!   blocks is handed to the next tenant with pending work. A noisy
//!   neighbor's fault storm contends for the shared fault queue and CPU
//!   handler, so victims slow down — the regime the containment figure
//!   quantifies.
//! * [`PartitionPolicy::Static`] — each tenant gets a fixed, private slice
//!   of the SMs and runs as an independent sub-simulation. No state is
//!   shared, so a victim's [`GpuRunReport`](crate::GpuRunReport) is
//!   byte-identical to running it alone at the same SM count, whatever its
//!   neighbors do.
//! * [`PartitionPolicy::Quarantine`] — the shared engine plus per-tenant
//!   fault-queue budgets. A tenant that exhausts its budget has further
//!   fault admissions *denied*; the engine reacts by draining its pending
//!   faults and locking it out (its queue is cleared, its resident blocks
//!   wedge) while the other tenants keep running.
//!
//! Tenant isolation in the shared engine comes from private address
//! windows: tenant `i`'s trace and residency are rebased by
//! `i << `[`TENANT_SHIFT`], so the memory system can attribute every
//! fault, denial and TLB lookup to its owner (`address >> TENANT_SHIFT`).

use crate::inject::InjectionPlan;
use crate::report::GpuRunReport;
use crate::residency::Residency;
use gex_isa::trace::KernelTrace;
use gex_mem::Cycle;

/// Address shift separating tenant windows in a shared run: tenant `i`
/// owns virtual addresses `[i << TENANT_SHIFT, (i + 1) << TENANT_SHIFT)`.
/// 1 TB per tenant — far above any workload's footprint, far below the
/// fault region granularity's 64-bit headroom.
pub const TENANT_SHIFT: u32 = 40;

/// Names one tenant (client identity) of a shared GPU.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub String);

impl TenantId {
    /// A tenant id from any string-like name.
    pub fn new(name: impl Into<String>) -> Self {
        TenantId(name.into())
    }
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// How SMs are divided between the tenants of a shared run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartitionPolicy {
    /// One engine, dynamic SM ownership, no fault budgets: maximum
    /// utilization, zero isolation.
    Shared,
    /// Fixed SM slices, fully independent sub-simulations: perfect
    /// isolation, stranded capacity.
    Static,
    /// The shared engine with per-tenant fault budgets and differential
    /// lockout of misbehaving tenants.
    Quarantine,
}

impl PartitionPolicy {
    /// Stable wire token (used by campaign specs); inverse of
    /// [`PartitionPolicy::parse`].
    pub fn token(self) -> &'static str {
        match self {
            PartitionPolicy::Shared => "shared",
            PartitionPolicy::Static => "static",
            PartitionPolicy::Quarantine => "quarantine",
        }
    }

    /// Parse a [`PartitionPolicy::token`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "shared" => Some(PartitionPolicy::Shared),
            "static" => Some(PartitionPolicy::Static),
            "quarantine" => Some(PartitionPolicy::Quarantine),
            _ => None,
        }
    }
}

impl std::fmt::Display for PartitionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.token())
    }
}

/// One tenant's kernel stream: what to run, where its data starts, and how
/// it (mis)behaves.
#[derive(Debug, Clone)]
pub struct TenantWorkload {
    /// Who this stream belongs to.
    pub id: TenantId,
    /// The kernel launch (un-rebased; the engine moves it into the
    /// tenant's address window when policies share a memory system).
    pub trace: KernelTrace,
    /// Initial data placement (un-rebased, like the trace).
    pub residency: Residency,
    /// Fault-injection schedule modeling this tenant's noisy behaviour
    /// (handler stalls, NACK floods). Under [`PartitionPolicy::Static`] it
    /// perturbs only this tenant's sub-run; under the shared policies the
    /// first tenant with a plan attaches it to the shared CPU handler.
    pub inject: Option<InjectionPlan>,
    /// Fault-queue budget: fresh fault admissions this tenant may consume
    /// before further faults are denied. Enforced under
    /// [`PartitionPolicy::Quarantine`] (in-engine lockout) and
    /// [`PartitionPolicy::Static`] (the solo sub-run wedges on denial and
    /// surfaces a watchdog error). Ignored under
    /// [`PartitionPolicy::Shared`].
    pub fault_budget: Option<u32>,
}

impl TenantWorkload {
    /// A well-behaved tenant: no injection, unlimited fault budget.
    pub fn new(id: TenantId, trace: KernelTrace, residency: Residency) -> Self {
        TenantWorkload { id, trace, residency, inject: None, fault_budget: None }
    }

    /// Attach a fault-injection schedule (the noisy-neighbor model).
    pub fn inject(mut self, plan: InjectionPlan) -> Self {
        self.inject = Some(plan);
        self
    }

    /// Cap this tenant's fresh fault admissions.
    pub fn fault_budget(mut self, budget: u32) -> Self {
        self.fault_budget = Some(budget);
        self
    }
}

/// Per-tenant outcome of a multi-tenant run.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantRunReport {
    /// The tenant.
    pub tenant: TenantId,
    /// Cycle its last block completed (or the run's end, if quarantined).
    pub cycles: Cycle,
    /// Blocks the tenant launched.
    pub blocks: u64,
    /// Blocks that completed.
    pub completed: u64,
    /// True if the tenant was locked out (quarantine policy) or its solo
    /// sub-run failed (static policy).
    pub quarantined: bool,
    /// The sub-run error that triggered quarantine under
    /// [`PartitionPolicy::Static`], if any.
    pub error: Option<String>,
    /// Fault-path requests attributed to this tenant.
    pub faulted_requests: u64,
    /// Fault-path requests denied by this tenant's budget.
    pub denied_requests: u64,
    /// TLB hits attributed to this tenant (L1s + L2).
    pub tlb_hits: u64,
    /// TLB misses attributed to this tenant (L1s + L2).
    pub tlb_misses: u64,
    /// The full solo report under [`PartitionPolicy::Static`] (the
    /// byte-identity containment contract compares this against a plain
    /// solo run); `None` under the shared-engine policies.
    pub solo: Option<Box<GpuRunReport>>,
}

/// Outcome of one multi-tenant run: the policy, the wall cycles of the
/// whole run, and every tenant's slice of it.
#[derive(Debug, Clone, PartialEq)]
pub struct SharedRunReport {
    /// The SM-partitioning policy the run used.
    pub policy: PartitionPolicy,
    /// Cycles until the last non-quarantined tenant finished.
    pub cycles: Cycle,
    /// Per-tenant outcomes, in submission order.
    pub tenants: Vec<TenantRunReport>,
}

impl SharedRunReport {
    /// The report of the tenant named `id`, if present.
    pub fn tenant(&self, id: &TenantId) -> Option<&TenantRunReport> {
        self.tenants.iter().find(|t| &t.tenant == id)
    }
}

/// The per-tenant SM shares of a static partition: `num_sms` split as
/// evenly as possible, earlier tenants taking the remainder, every tenant
/// getting at least one SM.
///
/// # Panics
///
/// Panics if there are more tenants than SMs (or no tenants).
pub fn static_shares(num_sms: u32, tenants: usize) -> Vec<u32> {
    assert!(tenants > 0, "static partition needs at least one tenant");
    assert!(
        tenants as u32 <= num_sms,
        "static partition needs an SM per tenant ({tenants} tenants, {num_sms} SMs)"
    );
    let base = num_sms / tenants as u32;
    let rem = (num_sms % tenants as u32) as usize;
    (0..tenants).map(|i| base + u32::from(i < rem)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_tokens_round_trip() {
        for p in
            [PartitionPolicy::Shared, PartitionPolicy::Static, PartitionPolicy::Quarantine]
        {
            assert_eq!(PartitionPolicy::parse(p.token()), Some(p));
        }
        assert_eq!(PartitionPolicy::parse("dynamic"), None);
    }

    #[test]
    fn static_shares_cover_all_sms() {
        assert_eq!(static_shares(13, 3), vec![5, 4, 4]);
        assert_eq!(static_shares(4, 4), vec![1, 1, 1, 1]);
        assert_eq!(static_shares(8, 2), vec![4, 4]);
        assert_eq!(static_shares(14, 2).iter().sum::<u32>(), 14);
    }

    #[test]
    #[should_panic(expected = "an SM per tenant")]
    fn static_shares_reject_oversubscription() {
        static_shares(2, 3);
    }
}
