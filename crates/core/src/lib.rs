//! # gex — preemptible exception handling for a simulated GPU
//!
//! A from-scratch reproduction of *"Efficient Exception Handling Support
//! for GPUs"* (Tanasic, Gelado, Jorda, Ayguade, Navarro — MICRO-50, 2017):
//! the full simulation stack (ISA + functional simulator, SM pipelines,
//! memory hierarchy, whole-GPU model), the paper's three preemptible-fault
//! pipeline designs, its two use cases, the benchmark suite and the
//! experiment drivers that regenerate every table and figure.
//!
//! ## Layers
//!
//! | crate | contents |
//! |---|---|
//! | [`isa`] | ISA, assembler DSL, functional simulator, traces |
//! | [`mem`] | caches, TLBs, page table, walkers, DRAM, fault queue |
//! | [`sm`] | SM pipeline + the five exception designs |
//! | [`sim`] | whole GPU: scheduler, demand paging, both use cases |
//! | [`workloads`] | Parboil-like, Halloc-like and quad-tree benchmarks |
//! | [`power`] | operand-log area/power model (Table 2) |
//! | [`exec`] | parallel sweep engine (scoped-thread `par_map`) |
//! | [`point`] | the one point runner: `PointSpec` → `run_point` → `Outcome` |
//! | [`experiments`] | drivers for Figures 10-14 and both tables |
//!
//! ## Quickstart
//!
//! ```
//! use gex::{GpuConfig, Scheme, PagingMode, run_workload};
//! use gex::workloads::{suite, Preset};
//!
//! let w = suite::by_name("sgemm", Preset::Test).expect("known benchmark");
//! let k20 = GpuConfig::kepler_k20();
//! let report = run_workload(&w, Scheme::ReplayQueue, PagingMode::AllResident, &k20);
//! assert!(report.cycles > 0);
//! assert_eq!(report.sm.committed, w.trace.dyn_instrs());
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod experiments;
pub mod journal;
pub mod point;
mod poison;
pub mod session;
pub mod supervise;

pub use gex_exec as exec;
pub use gex_isa as isa;
pub use gex_mem as mem;
pub use gex_power as power;
pub use gex_sim as sim;
/// The SM pipeline (`gex-sm`). Also re-exports `gex-sim`'s single-SM
/// harness, so `gex::sm::SingleSmHarness` resolves for callers not yet
/// importing it from `gex::sim`.
pub mod sm {
    pub use gex_sim::{SingleSmHarness, SingleSmRun};
    pub use gex_sm::*;
}
pub use gex_workloads as workloads;

pub use gex_sim::{
    geomean, BlockSwitchConfig, BudgetExceeded, CancelToken, DeadlineDiagnostic, Gpu, GpuConfig,
    GpuRunReport, InjectionPlan, InjectionStats, Interconnect, LocalFaultConfig, LpStats,
    PageSizePolicy, PagingMode, PartitionPolicy, Residency, RunBudget, SharedRunReport, SimError,
    TenantId, TenantRunReport, TenantWorkload, WatchdogDiagnostic, TENANT_SHIFT,
};
pub use gex_sm::Scheme;
pub use journal::{CampaignJournal, CampaignManifest};
pub use point::{run_point, JournalForm, Outcome, PointSpec, Sharing};
pub use session::Session;
pub use supervise::{
    run_supervised, FailureKind, QuarantineRecord, QuarantineReport, SupervisePolicy,
    SweepOptions, SweepOutcome,
};
pub use gex_workloads::{Preset, Workload};

/// Run `workload` on the GPU `config` describes under `scheme` and
/// `paging`.
///
/// For [`PagingMode::AllResident`] every touched page is pre-mapped; demand
/// modes use the workload's Figure 12 residency (inputs dirty on the CPU,
/// outputs CPU-clean, heap lazy).
///
/// Answers from the process-wide [`cache`] when an identical point has
/// already simulated (`cache::set_enabled(false)` turns it off).
pub fn run_workload(
    workload: &Workload,
    scheme: Scheme,
    paging: PagingMode,
    config: &GpuConfig,
) -> GpuRunReport {
    let residency = workload.demand_residency();
    let spec = PointSpec::new(workload, scheme, config.clone(), paging, &residency);
    match point::run_solo(&spec, &RunBudget::none()) {
        Ok(report) => (*report).clone(),
        Err(e) => panic!("{e}"),
    }
}

/// Normalized performance of `scheme` on `workload`: baseline (stall on
/// fault) cycles divided by `scheme` cycles in the fault-free
/// configuration on the GPU `config` describes — the y-axis of Figures 10
/// and 11 (1.0 = baseline speed).
///
/// The baseline run is shared through the [`cache`] across calls (and
/// with any figure campaign in the same process) instead of being
/// re-simulated per invocation.
pub fn normalized_performance(workload: &Workload, scheme: Scheme, config: &GpuConfig) -> f64 {
    let base = run_workload(workload, Scheme::Baseline, PagingMode::AllResident, config);
    let this = run_workload(workload, scheme, PagingMode::AllResident, config);
    base.cycles as f64 / this.cycles as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use gex_workloads::suite;

    #[test]
    fn facade_runs_a_workload_end_to_end() {
        let _serial = cache::serialize_cache_tests();
        let w = suite::by_name("histo", Preset::Test).unwrap();
        let config = GpuConfig::kepler_k20().with_sms(4);
        let r = run_workload(&w, Scheme::operand_log_kib(16), PagingMode::AllResident, &config);
        assert_eq!(r.sm.committed, w.trace.dyn_instrs());
    }

    #[test]
    fn normalized_performance_is_at_most_one_ish() {
        let _serial = cache::serialize_cache_tests();
        let w = suite::by_name("lbm", Preset::Test).unwrap();
        let config = GpuConfig::kepler_k20().with_sms(4);
        let p = normalized_performance(&w, Scheme::WdCommit, &config);
        assert!(p > 0.1 && p <= 1.001, "wd-commit relative perf {p}");
    }
}
