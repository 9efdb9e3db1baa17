//! The one point runner: *(workload, scheme, GPU config, paging, budget)
//! → cycles*.
//!
//! The paper's whole evaluation is this operation repeated over a grid,
//! so there is exactly one implementation of it. A [`PointSpec`] names a
//! simulation point completely; [`run_point`] is the only place in the
//! `gex`, `gex-serve` and `gex-bench` crates that turns one into a
//! [`Gpu`] and runs it — through the result [`cache`] for single-stream
//! points, through [`Gpu::try_run_multi`] for two-tenant shared-GPU
//! points. The figure drivers, the campaign daemon and the ablations all
//! call it.
//!
//! An [`Outcome`] is what a point yields, and owns the one `u64`
//! encoding campaign journals store ([`Outcome::to_journal`] /
//! [`Outcome::from_journal`]).

use crate::cache;
use gex_sim::{
    Gpu, GpuConfig, GpuRunReport, InjectionPlan, PagingMode, PartitionPolicy, Residency, RunBudget,
    SimError, TenantId, TenantWorkload,
};
use gex_sm::Scheme;
use gex_workloads::Workload;
use std::sync::Arc;

/// One simulation point, fully specified.
#[derive(Debug, Clone)]
pub struct PointSpec<'a> {
    /// The kernel to run.
    pub workload: &'a Workload,
    /// SM exception scheme.
    pub scheme: Scheme,
    /// The simulated GPU.
    pub config: GpuConfig,
    /// Paging mode.
    pub paging: PagingMode,
    /// Initial data placement of `workload` (ignored by the engine under
    /// [`PagingMode::AllResident`], so sweeps share one empty residency
    /// there).
    pub residency: &'a Residency,
    /// Fault-injection schedule perturbing the workload's stream.
    pub inject: Option<InjectionPlan>,
    /// When set, `workload` runs as one of two tenants of a shared GPU
    /// instead of owning the machine.
    pub sharing: Option<Sharing<'a>>,
}

/// The two-tenant block of a [`PointSpec`]: the spec's workload is the
/// first tenant (the *stream*), `neighbor` the second.
#[derive(Debug, Clone)]
pub struct Sharing<'a> {
    /// How the SMs are divided between the two.
    pub policy: PartitionPolicy,
    /// Simulator identity of the stream.
    pub stream: TenantId,
    /// Fault-queue budget of the stream (fresh 64 KB fault regions).
    pub stream_fault_budget: Option<u32>,
    /// The other tenant, with its own identity, injection plan and fault
    /// budget (see [`neighbor`] and [`chaos_tenant`]).
    pub neighbor: &'a TenantWorkload,
}

impl<'a> PointSpec<'a> {
    /// A single-stream point with no fault injection.
    pub fn new(
        workload: &'a Workload,
        scheme: Scheme,
        config: GpuConfig,
        paging: PagingMode,
        residency: &'a Residency,
    ) -> Self {
        PointSpec { workload, scheme, config, paging, residency, inject: None, sharing: None }
    }

    /// The same point under a fault-injection schedule.
    pub fn inject(mut self, plan: InjectionPlan) -> Self {
        self.inject = Some(plan);
        self
    }

    /// The same point sharing its GPU with a neighbor.
    pub fn shared(mut self, sharing: Sharing<'a>) -> Self {
        self.sharing = Some(sharing);
        self
    }
}

/// A well-behaved neighbor tenant named `id` running `workload` under
/// its demand-paging residency.
pub fn neighbor(id: impl Into<String>, workload: &Workload) -> TenantWorkload {
    TenantWorkload::new(TenantId::new(id), workload.trace.clone(), workload.demand_residency())
}

/// Fault budget granted to the noisy tenant of the containment figures:
/// small enough that its chaos-injected fault storm exhausts it early
/// under [`PartitionPolicy::Quarantine`] and [`PartitionPolicy::Static`].
pub const MT_CHAOS_BUDGET: u32 = 6;

/// Injection seed of the containment figures' noisy tenant.
pub const MT_CHAOS_SEED: u64 = 0xC4A05;

/// The noisy-neighbor tenant of the containment figures: `workload`
/// running under the chaos injection plan (handler stalls, NACK floods,
/// link spikes) with the tight [`MT_CHAOS_BUDGET`] fault budget.
pub fn chaos_tenant(workload: &Workload) -> TenantWorkload {
    neighbor(format!("chaos-{}", workload.name), workload)
        .inject(InjectionPlan::chaos(MT_CHAOS_SEED))
        .fault_budget(MT_CHAOS_BUDGET)
}

/// What one point yields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Outcome {
    /// Cycles until the workload's last block completed.
    pub cycles: u64,
    /// The workload's requests that faulted at translation.
    pub faulted_requests: u64,
    /// A tenant holding a fault budget ended a shared run locked out: it
    /// exhausted the budget, or its budgeted static sub-run failed. Always
    /// false on single-stream points.
    pub locked_out: bool,
    /// Thread-block switches a single-stream run performed. Never
    /// journaled: `None` on points answered from a campaign journal.
    pub switches: Option<u64>,
}

/// Which counter rides beside the cycle count in a journaled [`Outcome`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalForm {
    /// Cycles in the low 63 bits.
    Cycles,
    /// Cycles above [`FAULT_BITS`], `faulted_requests` (clipped) below.
    CyclesFaults,
}

/// Width of the journaled fault count under [`JournalForm::CyclesFaults`].
pub const FAULT_BITS: u32 = 20;

const FAULT_MASK: u64 = (1 << FAULT_BITS) - 1;
const LOCKOUT: u64 = 1 << 63;

impl Outcome {
    /// The journal value: `locked_out` in bit 63, the `form`'s fields
    /// below. A single-stream outcome under [`JournalForm::Cycles`] is
    /// its plain cycle count.
    pub fn to_journal(&self, form: JournalForm) -> u64 {
        let body = match form {
            JournalForm::Cycles => self.cycles,
            JournalForm::CyclesFaults => {
                (self.cycles << FAULT_BITS) | self.faulted_requests.min(FAULT_MASK)
            }
        };
        debug_assert!(body < LOCKOUT, "cycle count overflows the journal value");
        body | if self.locked_out { LOCKOUT } else { 0 }
    }

    /// Inverse of [`Outcome::to_journal`] (up to fault-count clipping).
    pub fn from_journal(v: u64, form: JournalForm) -> Outcome {
        let body = v & !LOCKOUT;
        let (cycles, faulted_requests) = match form {
            JournalForm::Cycles => (body, 0),
            JournalForm::CyclesFaults => (body >> FAULT_BITS, body & FAULT_MASK),
        };
        Outcome { cycles, faulted_requests, locked_out: v & LOCKOUT != 0, switches: None }
    }
}

/// Run a single-stream point through the result cache.
pub(crate) fn run_solo(
    spec: &PointSpec<'_>,
    budget: &RunBudget,
) -> Result<Arc<GpuRunReport>, SimError> {
    let mut gpu = Gpu::new(spec.config.clone(), spec.scheme, spec.paging).budget(budget.clone());
    if let Some(plan) = &spec.inject {
        gpu = gpu.inject(plan.clone());
    }
    cache::run_cached(&gpu, spec.workload, spec.residency)
}

/// Simulate `spec` under `budget`.
///
/// Single-stream points answer from the process-wide result [`cache`]
/// when an identical point has already simulated (callers timing the
/// simulator disable it up front with [`cache::set_enabled`]). Shared
/// points run `[stream, neighbor]` under the sharing policy and bypass
/// the cache, which is keyed on single-stream runs.
pub fn run_point(spec: &PointSpec<'_>, budget: &RunBudget) -> Result<Outcome, SimError> {
    let Some(sh) = &spec.sharing else {
        let r = run_solo(spec, budget)?;
        return Ok(Outcome {
            cycles: r.cycles,
            faulted_requests: r.mem.faulted_requests,
            locked_out: false,
            switches: Some(r.switches),
        });
    };
    let mut stream =
        TenantWorkload::new(sh.stream.clone(), spec.workload.trace.clone(), spec.residency.clone());
    stream.inject = spec.inject.clone();
    stream.fault_budget = sh.stream_fault_budget;
    let gpu = Gpu::new(spec.config.clone(), spec.scheme, spec.paging).budget(budget.clone());
    let rep = gpu.try_run_multi(&[stream, sh.neighbor.clone()], sh.policy)?;
    let (mine, theirs) = (&rep.tenants[0], &rep.tenants[1]);
    Ok(Outcome {
        cycles: mine.cycles,
        faulted_requests: mine.faulted_requests,
        locked_out: (sh.stream_fault_budget.is_some() && mine.quarantined)
            || (sh.neighbor.fault_budget.is_some() && theirs.quarantined),
        switches: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gex_sim::Interconnect;
    use gex_workloads::{suite, Preset};

    #[test]
    fn decodes_the_values_earlier_builds_journaled() {
        // A plain campaign point (`histo/Baseline` at 2 SMs).
        let plain = Outcome::from_journal(12973, JournalForm::Cycles);
        assert_eq!((plain.cycles, plain.locked_out), (12973, false));
        // 119646 cycles with bit 63 set, as gex-served journaled a
        // partitioned point whose stream blew its in-run fault budget.
        let storm = Outcome::from_journal(9223372036854895454, JournalForm::Cycles);
        assert_eq!((storm.cycles, storm.locked_out), (119646, true));
        assert_eq!(storm.to_journal(JournalForm::Cycles), 9223372036854895454);
        // A Figure LP grid value: 55829 cycles above 1234 faults.
        let lp = Outcome::from_journal((55829 << 20) | 1234, JournalForm::CyclesFaults);
        assert_eq!((lp.cycles, lp.faulted_requests, lp.locked_out), (55829, 1234, false));
        assert_eq!(lp.to_journal(JournalForm::CyclesFaults), 58540950738);
    }

    #[test]
    fn journal_values_round_trip_at_the_field_boundaries() {
        let max = (1u64 << 63) - 1;
        for locked_out in [false, true] {
            for cycles in [0, 1, max] {
                let o = Outcome { cycles, locked_out, ..Outcome::default() };
                let v = o.to_journal(JournalForm::Cycles);
                assert_eq!(Outcome::from_journal(v, JournalForm::Cycles), o);
            }
            let max = max >> FAULT_BITS;
            for (cycles, faults) in [(0, 0), (1, FAULT_MASK), (max, FAULT_MASK), (max, 0)] {
                let o = Outcome { cycles, faulted_requests: faults, locked_out, switches: None };
                let v = o.to_journal(JournalForm::CyclesFaults);
                assert_eq!(Outcome::from_journal(v, JournalForm::CyclesFaults), o);
            }
        }
        // Fault counts past the field clip instead of bleeding into the
        // cycles; switch counts are not journaled at all.
        let big = Outcome {
            cycles: 7,
            faulted_requests: FAULT_MASK + 5,
            locked_out: false,
            switches: Some(3),
        };
        let v = big.to_journal(JournalForm::CyclesFaults);
        let back = Outcome::from_journal(v, JournalForm::CyclesFaults);
        assert_eq!((back.cycles, back.faulted_requests, back.switches), (7, FAULT_MASK, None));
    }

    #[test]
    fn a_shared_point_reports_the_budgeted_tenants_lockout() {
        let victim = suite::by_name("histo", Preset::Test).unwrap();
        let noisy = suite::by_name("lbm", Preset::Test).unwrap();
        let res = victim.demand_residency();
        let chaos = chaos_tenant(&noisy);
        let spec = |policy| {
            PointSpec::new(
                &victim,
                Scheme::ReplayQueue,
                GpuConfig::kepler_k20().with_sms(4),
                PagingMode::demand(Interconnect::nvlink()),
                &res,
            )
            .shared(Sharing {
                policy,
                stream: TenantId::new("victim"),
                stream_fault_budget: None,
                neighbor: &chaos,
            })
        };
        let shared = run_point(&spec(PartitionPolicy::Shared), &RunBudget::none()).unwrap();
        assert!(!shared.locked_out, "the shared policy enforces no budgets");
        let contained = run_point(&spec(PartitionPolicy::Quarantine), &RunBudget::none()).unwrap();
        assert!(contained.locked_out, "the chaos neighbor must blow its budget");
        assert!(contained.cycles > 0, "the victim still completes");
    }
}
