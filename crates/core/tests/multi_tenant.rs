//! Multi-tenant noisy-neighbor containment keystone.
//!
//! The contract of [`PartitionPolicy`] (ISSUE 8):
//!
//! * **Static** — a victim tenant's [`gex::GpuRunReport`] is
//!   *byte-identical* to running it alone at its SM share, whether its
//!   neighbor is quiet or a chaos-injected storm that exhausts its fault
//!   budget and wedges.
//! * **Shared** — the same neighbor measurably slows the victim down (the
//!   regime the containment figure quantifies).
//! * **Quarantine** — the shared engine denies the noisy tenant's faults
//!   once its budget is spent and locks it out; the victim still finishes
//!   every block.
//!
//! All three properties are asserted across every exception scheme.

use gex::workloads::{suite, Preset};
use gex::{
    Gpu, GpuConfig, InjectionPlan, Interconnect, PageSizePolicy, PagingMode, PartitionPolicy,
    Scheme, SimError, TenantId, TenantWorkload,
};

const SMS: u32 = 4;
const CHAOS_SEED: u64 = 7;
const CHAOS_BUDGET: u32 = 4;

const SCHEMES: [Scheme; 5] = [
    Scheme::Baseline,
    Scheme::WdCommit,
    Scheme::WdLastCheck,
    Scheme::ReplayQueue,
    Scheme::OperandLog { bytes: 8192 },
];

fn gpu(scheme: Scheme, sms: u32) -> Gpu {
    Gpu::new(
        GpuConfig::kepler_k20().with_sms(sms),
        scheme,
        PagingMode::demand(Interconnect::nvlink()),
    )
}

fn victim() -> TenantWorkload {
    let w = suite::by_name("histo", Preset::Test).unwrap();
    TenantWorkload::new(TenantId::new("victim"), w.trace.clone(), w.demand_residency())
}

/// A neighbor that faults heavily, perturbs the shared handler, and blows
/// through its fault budget. `lbm` touches ~20 fault regions under the
/// Test preset, so a budget of [`CHAOS_BUDGET`] regions always exhausts.
fn chaos() -> TenantWorkload {
    let w = suite::by_name("lbm", Preset::Test).unwrap();
    TenantWorkload::new(TenantId::new("chaos"), w.trace.clone(), w.demand_residency())
        .inject(InjectionPlan::chaos(CHAOS_SEED))
        .fault_budget(CHAOS_BUDGET)
}

/// The same neighbor behaving itself.
fn quiet() -> TenantWorkload {
    let w = suite::by_name("lbm", Preset::Test).unwrap();
    TenantWorkload::new(TenantId::new("chaos"), w.trace.clone(), w.demand_residency())
}

/// Static partitioning: the victim's full report is byte-identical to a
/// solo run at its SM share — with a quiet neighbor, and with a chaos
/// neighbor that wedges on an exhausted fault budget.
#[test]
fn static_partition_keeps_victims_byte_identical() {
    for scheme in SCHEMES {
        let w = suite::by_name("histo", Preset::Test).unwrap();
        // static_shares(4, 2) gives each tenant 2 SMs.
        let solo = gpu(scheme, SMS / 2).run(&w.trace, &w.demand_residency());

        let with_chaos = gpu(scheme, SMS).run_multi(&[victim(), chaos()], PartitionPolicy::Static);
        let with_quiet = gpu(scheme, SMS).run_multi(&[victim(), quiet()], PartitionPolicy::Static);

        let vid = TenantId::new("victim");
        let vc = with_chaos.tenant(&vid).unwrap();
        let vq = with_quiet.tenant(&vid).unwrap();
        assert!(!vc.quarantined && !vq.quarantined, "victim must never quarantine ({scheme:?})");
        assert_eq!(
            vc.solo.as_deref(),
            Some(&solo),
            "victim next to chaos diverged from its solo run ({scheme:?})"
        );
        assert_eq!(
            vq.solo.as_deref(),
            Some(&solo),
            "victim next to a quiet neighbor diverged from its solo run ({scheme:?})"
        );

        // The chaos tenant's private sub-run wedged on its budget and was
        // marked quarantined with a surfaced error.
        let c = with_chaos.tenant(&TenantId::new("chaos")).unwrap();
        assert!(c.quarantined, "chaos tenant must exhaust its budget and wedge ({scheme:?})");
        assert!(c.error.is_some(), "static quarantine must carry the sub-run error ({scheme:?})");
        // The quiet neighbor finishes normally.
        let q = with_quiet.tenant(&TenantId::new("chaos")).unwrap();
        assert!(!q.quarantined && q.completed == q.blocks, "quiet neighbor failed ({scheme:?})");
    }
}

/// Splinter-storm budget regression (ISSUE 9): under `HugeOnly` with a
/// deliberately tiny GPU memory, eviction pressure from the neighbor
/// splinters the victim's 2 MB huge pages over and over, and every
/// splinter makes the victim re-fault regions its budget already paid
/// for. Budgets meter *distinct regions*, not enqueues — so a victim
/// whose budget covers its fault footprint exactly once (lbm under
/// `HugeOnly` faults a single region: the first fault maps the whole
/// frame) must sail through the storm with zero denials and no
/// quarantine, while the re-faults show up as extra fault traffic
/// against an unconstrained run. With per-enqueue charging this exact
/// setup denies the victim's re-fault and locks it out.
#[test]
fn splinter_storm_refaults_never_exhaust_a_region_budget() {
    let build = |mem_bytes: Option<u64>| {
        let mut cfg =
            GpuConfig::kepler_k20().with_sms(SMS).with_page_size(PageSizePolicy::HugeOnly);
        if let Some(bytes) = mem_bytes {
            cfg.mem.gpu_mem_bytes = bytes;
        }
        Gpu::new(cfg, Scheme::ReplayQueue, PagingMode::demand(Interconnect::nvlink()))
    };
    // The victim is the fault-heaviest workload (lbm) with a budget of
    // exactly one region — its full distinct-region footprint here; the
    // neighbor is the same workload, well-behaved.
    let w = suite::by_name("lbm", Preset::Test).unwrap();
    let budgeted_victim =
        TenantWorkload::new(TenantId::new("victim"), w.trace.clone(), w.demand_residency())
            .fault_budget(1);
    let tenants = [budgeted_victim, quiet()];

    let roomy = build(None).run_multi(&tenants, PartitionPolicy::Quarantine);
    // One 2 MB frame for two tenants: every admission evicts (and
    // splinters) the neighbor, so both sides re-fault constantly.
    let tight = build(Some(2 * 1024 * 1024)).run_multi(&tenants, PartitionPolicy::Quarantine);

    let vid = TenantId::new("victim");
    let (rv, tv) = (roomy.tenant(&vid).unwrap(), tight.tenant(&vid).unwrap());
    assert!(
        tv.faulted_requests > rv.faulted_requests,
        "memory pressure must splinter and re-fault the victim \
         (tight {} vs roomy {} faulted requests)",
        tv.faulted_requests,
        rv.faulted_requests
    );
    for v in [rv, tv] {
        assert!(!v.quarantined, "re-faults of charged regions must never quarantine the victim");
        assert_eq!(v.denied_requests, 0, "re-faults of charged regions must be free");
        assert_eq!(v.completed, v.blocks, "victim must finish through the splinter storm");
    }
}

/// Sharing the engine with the chaos neighbor costs the victim cycles,
/// while quarantine denies the neighbor's faults, locks it out, and lets
/// the victim finish every block.
#[test]
fn shared_degrades_victims_and_quarantine_locks_out_chaos() {
    for scheme in SCHEMES {
        let w = suite::by_name("histo", Preset::Test).unwrap();
        let solo_full = gpu(scheme, SMS).run(&w.trace, &w.demand_residency());

        let shared = gpu(scheme, SMS).run_multi(&[victim(), chaos()], PartitionPolicy::Shared);
        let vid = TenantId::new("victim");
        let sv = shared.tenant(&vid).unwrap();
        assert!(!sv.quarantined, "shared policy never quarantines ({scheme:?})");
        assert_eq!(sv.completed, sv.blocks, "victim must finish under sharing ({scheme:?})");
        assert!(
            sv.cycles > solo_full.cycles,
            "a chaos neighbor must cost the victim: shared {} vs solo {} ({scheme:?})",
            sv.cycles,
            solo_full.cycles
        );
        // Shared runs attribute memory traffic per tenant.
        assert!(sv.faulted_requests > 0, "victim faults under demand paging ({scheme:?})");
        assert_eq!(sv.denied_requests, 0, "victim has no budget to deny ({scheme:?})");
        assert!(sv.tlb_hits + sv.tlb_misses > 0, "victim TLB traffic untracked ({scheme:?})");

        let quarantined =
            gpu(scheme, SMS).run_multi(&[victim(), chaos()], PartitionPolicy::Quarantine);
        let qc = quarantined.tenant(&TenantId::new("chaos")).unwrap();
        assert!(qc.quarantined, "chaos tenant must be locked out ({scheme:?})");
        assert!(qc.denied_requests > 0, "lockout must follow a denial ({scheme:?})");
        let qv = quarantined.tenant(&vid).unwrap();
        assert!(!qv.quarantined, "victim must survive the lockout ({scheme:?})");
        assert_eq!(qv.completed, qv.blocks, "victim must finish after the lockout ({scheme:?})");
        assert_eq!(qv.denied_requests, 0, "denials must charge only the noisy tenant ({scheme:?})");
    }
}

/// More tenants than SMs is a typed, recoverable configuration error —
/// never a panic — under every policy, because tenant lists arrive over
/// the campaign wire.
#[test]
fn oversubscription_is_a_typed_error() {
    let w = suite::by_name("histo", Preset::Test).unwrap();
    let mk = |id: &str| {
        TenantWorkload::new(TenantId::new(id), w.trace.clone(), w.demand_residency())
    };
    let tenants = [mk("a"), mk("b"), mk("c")];
    for policy in
        [PartitionPolicy::Shared, PartitionPolicy::Quarantine, PartitionPolicy::Static]
    {
        match gpu(Scheme::ReplayQueue, 2).try_run_multi(&tenants, policy) {
            Err(SimError::Oversubscribed { tenants: t, sms }) => {
                assert_eq!((t, sms), (3, 2), "under {policy}");
            }
            other => panic!("expected Oversubscribed under {policy}, got {other:?}"),
        }
    }
    // A zero-SM GPU rejects single-stream runs the same way.
    match gpu(Scheme::Baseline, 0).try_run(&w.trace, &w.demand_residency()) {
        Err(SimError::Oversubscribed { tenants: 1, sms: 0 }) => {}
        other => panic!("expected Oversubscribed, got {other:?}"),
    }
}
