//! Cross-crate integration tests: whole-stack runs from assembler DSL
//! through functional simulation, the timing model, demand paging and both
//! use cases, exercised through the public `gex` facade.

use gex::workloads::{suite, Preset};
use gex::{
    normalized_performance, run_workload, BlockSwitchConfig, Gpu, GpuConfig, Interconnect,
    LocalFaultConfig, PagingMode, Scheme,
};

/// Every benchmark in every suite completes under every scheme, committing
/// exactly its trace (sparse-replay safety at full-stack scale).
#[test]
fn full_matrix_commits_exactly_once() {
    let config = GpuConfig::kepler_k20().with_sms(4);
    for w in suite::parboil(Preset::Test).into_iter().chain(suite::halloc(Preset::Test)) {
        for scheme in [Scheme::Baseline, Scheme::WdLastCheck, Scheme::operand_log_kib(16)] {
            let r = run_workload(&w, scheme, PagingMode::AllResident, &config);
            assert_eq!(
                r.sm.committed,
                w.trace.dyn_instrs(),
                "{} under {scheme}: lost or duplicated instructions",
                w.name
            );
            assert_eq!(r.sm.faults, 0, "{} under {scheme}: resident run must not fault", w.name);
        }
    }
}

/// Demand paging completes for every Parboil benchmark and migrates the
/// input footprint (at 64 KB granularity).
#[test]
fn demand_paging_migrates_every_input() {
    let config = GpuConfig::kepler_k20().with_sms(4);
    for w in suite::parboil(Preset::Test) {
        let paging = PagingMode::demand(Interconnect::nvlink());
        let r = run_workload(&w, Scheme::ReplayQueue, paging, &config);
        assert_eq!(r.sm.committed, w.trace.dyn_instrs(), "{}", w.name);
        assert!(
            r.cpu.resolved() > 0,
            "{}: demand paging must fault at least once",
            w.name
        );
    }
}

/// The normalized-performance metric of Figures 10/11 is sane for every
/// benchmark: in (0, 1.02] and ordered by scheme aggressiveness.
#[test]
fn scheme_ordering_holds_across_the_suite() {
    let config = GpuConfig::kepler_k20().with_sms(4);
    for w in suite::parboil(Preset::Test) {
        let wd = normalized_performance(&w, Scheme::WdCommit, &config);
        let wdl = normalized_performance(&w, Scheme::WdLastCheck, &config);
        let rq = normalized_performance(&w, Scheme::ReplayQueue, &config);
        let ol = normalized_performance(&w, Scheme::operand_log_kib(32), &config);
        let eps = 1.02; // dual-issue scheduling noise
        assert!(wd <= wdl * eps, "{}: wd-commit {wd} vs wd-lastcheck {wdl}", w.name);
        assert!(wdl <= rq * eps, "{}: wd-lastcheck {wdl} vs replay-queue {rq}", w.name);
        // The log is not a strict superset of the replay queue: a cold
        // store burst holds log slots through page walks while the replay
        // queue holds nothing for WAR-free stores, so allow a wider band
        // for this pair (the geomean-level OL >= RQ claim is checked by the
        // figure harness).
        assert!(rq <= ol * 1.15, "{}: replay-queue {rq} vs operand-log {ol}", w.name);
        assert!(ol <= eps, "{}: operand log exceeds baseline: {ol}", w.name);
        assert!(wd > 0.02, "{}: degenerate wd-commit {wd}", w.name);
    }
}

/// Use case 1 machinery runs end to end on a real benchmark.
#[test]
fn block_switching_on_sgemm_is_sound() {
    let w = suite::by_name("sgemm", Preset::Test).unwrap();
    let res = w.demand_residency();
    let cfg = GpuConfig::kepler_k20().with_sms(4);
    let plain =
        Gpu::new(cfg.clone(), Scheme::ReplayQueue, PagingMode::demand(Interconnect::nvlink()))
            .run(&w.trace, &res);
    let sw = Gpu::new(
        cfg,
        Scheme::ReplayQueue,
        PagingMode::Demand {
            interconnect: Interconnect::nvlink(),
            block_switch: Some(BlockSwitchConfig::default()),
            local_handling: None,
        },
    )
    .run(&w.trace, &res);
    assert_eq!(sw.sm.committed, w.trace.dyn_instrs());
    assert_eq!(sw.cpu.migrations, plain.cpu.migrations, "same faults either way");
    // Block switching must not catastrophically regress even when it does
    // not help (the paper's no-benchmark-degrades-much observation,
    // mri-gridding's 0.85x being the worst case).
    assert!(
        (sw.cycles as f64) < plain.cycles as f64 * 1.3,
        "switching {} vs plain {}",
        sw.cycles,
        plain.cycles
    );
}

/// Use case 2: at storm scale the GPU handler's concurrency beats the
/// CPU's lower latency (the paper's throughput-vs-latency tradeoff). At
/// tiny scales with only a handful of faults the CPU path may win, so this
/// runs the two storm-heaviest allocator benchmarks at bench scale.
#[test]
fn local_handling_wins_on_halloc_storms() {
    let ic = Interconnect::pcie();
    for w in [
        gex::workloads::halloc::fixed(Preset::Bench),
        gex::workloads::halloc::stream(Preset::Bench),
    ] {
        let res = w.heap_lazy_residency();
        let cfg = GpuConfig::kepler_k20().with_sms(4);
        let cpu = Gpu::new(cfg.clone(), Scheme::ReplayQueue, PagingMode::demand(ic))
            .run(&w.trace, &res);
        let local = Gpu::new(
            cfg,
            Scheme::ReplayQueue,
            PagingMode::Demand {
                interconnect: ic,
                block_switch: None,
                local_handling: Some(LocalFaultConfig::default()),
            },
        )
        .run(&w.trace, &res);
        assert_eq!(local.sm.committed, w.trace.dyn_instrs(), "{}", w.name);
        assert!(local.local.resolved > 0, "{}: no local handling happened", w.name);
        assert!(
            local.cycles < cpu.cycles,
            "{}: local {} vs cpu {}",
            w.name,
            local.cycles,
            cpu.cycles
        );
        assert!(local.local.peak_concurrency > 4, "{}: handlers must overlap", w.name);
    }
}

/// The experiment drivers run end to end at test scale and produce sane
/// aggregates.
#[test]
fn experiment_drivers_are_consistent() {
    let (cfg, opts) = (GpuConfig::kepler_k20().with_sms(2), gex::SweepOptions::default());
    let f10 = gex::experiments::fig10(Preset::Test, &cfg, &opts).expect_healthy();
    assert_eq!(f10.rows.len(), 11);
    let (wd, wdl, rq) = f10.geomeans();
    assert!(wd <= wdl && wdl <= rq && rq <= 1.02, "({wd}, {wdl}, {rq})");

    let f13 =
        gex::experiments::fig13(Preset::Test, &cfg, Interconnect::pcie(), &opts).expect_healthy();
    assert_eq!(f13.rows.len(), 5);
    // At test scale faults are sparse, so the 20 us GPU handler has little
    // concurrency to exploit; just require sanity here (the bench harness
    // checks the >1 geomean at storm scale).
    assert!(f13.geomean() > 0.5, "local handling geomean {}", f13.geomean());

    let t2 = gex::experiments::table2();
    assert!(t2.contains("1.47%"));
}
