//! Self-timed benches: one group per table/figure of the paper.
//!
//! Each group times the experiment that regenerates the corresponding
//! result at the `Test` preset (the `fig` binary runs the full `Paper`
//! preset); traces are built once outside the measurement loop and the
//! result cache is switched off up front, so the benches time the
//! cycle-level simulation itself. Every group sweeps its independent
//! points through [`gex_exec::par_map`] and [`gex::run_point`], so
//! wall-clock scales with the worker count (`GEX_THREADS`; serial when
//! 1). Runs with the in-repo [`gex_bench::timing`] harness — the
//! workspace builds offline and cannot link Criterion.

use gex::workloads::{suite, Preset, Workload};
use gex::{
    BlockSwitchConfig, GpuConfig, InjectionPlan, Interconnect, LocalFaultConfig, PagingMode,
    PointSpec, Residency, RunBudget, Scheme,
};
use gex_bench::timing::BenchRunner;

/// `w` under `scheme` and `paging` on a `sms`-SM GPU.
fn spec<'a>(
    w: &'a Workload,
    res: &'a Residency,
    scheme: Scheme,
    paging: PagingMode,
    sms: u32,
) -> PointSpec<'a> {
    PointSpec::new(w, scheme, GpuConfig::kepler_k20().with_sms(sms), paging, res)
}

/// Sweep `specs` in parallel; cycles per point, in order.
fn sweep(specs: Vec<PointSpec<'_>>) -> Vec<u64> {
    gex_exec::par_map(specs, |s| match gex::run_point(&s, &RunBudget::none()) {
        Ok(outcome) => outcome.cycles,
        Err(e) => panic!("{e}"),
    })
}

/// Figure 10: normalized performance of the preemptible pipelines.
/// One bench per workload; the three schemes sweep in parallel.
fn bench_fig10(r: &mut BenchRunner) {
    let res = Residency::new();
    for name in ["sgemm", "lbm", "histo", "stencil"] {
        let w = suite::by_name(name, Preset::Test).expect("known workload");
        r.bench(&format!("fig10/scheme_sweep/{name}"), || {
            sweep(
                [Scheme::Baseline, Scheme::WdCommit, Scheme::ReplayQueue]
                    .map(|s| spec(&w, &res, s, PagingMode::AllResident, 2))
                    .into(),
            )
        });
    }
}

/// Figure 11: operand-log sizes on the log-sensitive benchmark, swept in
/// parallel.
fn bench_fig11(r: &mut BenchRunner) {
    let w = suite::by_name("lbm", Preset::Test).expect("lbm");
    let res = Residency::new();
    r.bench("fig11/operand_log/sweep", || {
        sweep(
            [8u32, 16, 32]
                .map(|kib| spec(&w, &res, Scheme::operand_log_kib(kib), PagingMode::AllResident, 2))
                .into(),
        )
    });
}

/// Figure 12: block switching vs plain demand paging, both points in
/// parallel.
fn bench_fig12(r: &mut BenchRunner) {
    let w = suite::by_name("sgemm", Preset::Test).expect("sgemm");
    let res = w.demand_residency();
    let interconnect = Interconnect::nvlink();
    r.bench("fig12/demand_sweep", || {
        sweep(
            [None, Some(BlockSwitchConfig::default())]
                .map(|block_switch| {
                    let paging =
                        PagingMode::Demand { interconnect, block_switch, local_handling: None };
                    spec(&w, &res, Scheme::ReplayQueue, paging, 4)
                })
                .into(),
        )
    });
}

/// CPU-handled vs GPU-local fault handling over PCIe, both points in
/// parallel (Figures 13 and 14 differ in workload and residency).
fn bench_local(r: &mut BenchRunner, id: &str, w: &Workload, res: &Residency) {
    let interconnect = Interconnect::pcie();
    r.bench(id, || {
        sweep(
            [None, Some(LocalFaultConfig::default())]
                .map(|local_handling| {
                    let paging =
                        PagingMode::Demand { interconnect, block_switch: None, local_handling };
                    spec(w, res, Scheme::ReplayQueue, paging, 4)
                })
                .into(),
        )
    });
}

/// Figure 13: malloc-backed faults.
fn bench_fig13(r: &mut BenchRunner) {
    let w = gex::workloads::halloc::fixed(Preset::Test);
    bench_local(r, "fig13/local_sweep", &w, &w.heap_lazy_residency());
}

/// Figure 14: output-page faults.
fn bench_fig14(r: &mut BenchRunner) {
    let w = suite::by_name("histo", Preset::Test).expect("histo");
    bench_local(r, "fig14/outputs_lazy_sweep", &w, &w.outputs_lazy_residency());
}

/// Tables 1 and 2 render from live models; timing them pins the power
/// model's cost (trivial) and keeps the renderers exercised.
fn bench_tables(r: &mut BenchRunner) {
    r.bench("tables/table1_render", gex::experiments::table1);
    r.bench("tables/table2_render", gex::experiments::table2);
}

/// The resilience harness: one clean and one chaos-injected demand run
/// (Figure-12 configuration), swept in parallel so the injector's
/// overhead stays visible.
fn bench_injection(r: &mut BenchRunner) {
    let w = suite::by_name("histo", Preset::Test).expect("histo");
    let res = w.demand_residency();
    r.bench("inject/clean_vs_chaos", || {
        sweep(
            [InjectionPlan::none(), InjectionPlan::chaos(7)]
                .map(|plan| {
                    let paging = PagingMode::demand(Interconnect::nvlink());
                    spec(&w, &res, Scheme::ReplayQueue, paging, 4).inject(plan)
                })
                .into(),
        )
    });
}

fn main() {
    // A hit would time a map lookup, not the simulator.
    gex::cache::set_enabled(false);
    let mut r = BenchRunner::from_args();
    bench_fig10(&mut r);
    bench_fig11(&mut r);
    bench_fig12(&mut r);
    bench_fig13(&mut r);
    bench_fig14(&mut r);
    bench_tables(&mut r);
    bench_injection(&mut r);
    r.finish();
}
