//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. the local scheduler's fault-queue-position threshold and extra-block
//!    budget (Section 4.1's "set threshold" and "4 additional blocks");
//! 2. operand-log capacity beyond the paper's four studied sizes;
//! 3. the GPU-local handler latency (the paper measured ~20 us on a
//!    prototype; how sensitive is use case 2 to it?);
//! 4. the issue-stage warp scheduler (loose round-robin vs
//!    greedy-then-oldest) under each exception scheme.
//!
//! Every panel runs under sweep supervision ([`gex::experiments::sweep`]):
//! `--deadline N` budgets each point, `--resume` / `--journal PATH` make
//! the campaign resumable (one journal file per panel), and failed points
//! print as `NaN` with a quarantine report instead of taking the whole
//! run down. Each panel's reference point (plain / baseline / CPU-handled)
//! rides in its grid, so even the normalizer is supervised. Exits 2 if
//! anything was quarantined, and before anything runs on a malformed
//! command line.

use gex::experiments::{ratio, sweep, GridPoint};
use gex::sm::config::SchedulerPolicy;
use gex::workloads::{halloc, suite};
use gex::{
    BlockSwitchConfig, GpuConfig, Interconnect, LocalFaultConfig, Outcome, PagingMode, PointSpec,
    QuarantineReport, Scheme,
};

/// A point's cycle count, `NaN` if it was quarantined.
fn cycles(v: Option<Outcome>) -> String {
    v.map_or_else(|| "NaN".to_string(), |o| o.cycles.to_string())
}

fn main() {
    let args = gex_bench::BenchArgs::parse();
    args.apply_max_cycles();
    let preset = args.preset();
    let sms = gex_bench::sms_from_env();
    let cfg = GpuConfig::kepler_k20().with_sms(sms);
    let mut quarantine = QuarantineReport::default();
    // Run one panel's grid as its own resumable campaign.
    let mut panel = |name: &str, grid: Vec<GridPoint<'_>>| {
        let opts = args.sweep_options("ablation").panel(name);
        let out = sweep(&format!("ablation-{name}|{preset:?}|sms={sms}"), grid, &opts);
        quarantine.absorb(name, out.quarantine);
        out.fig
    };

    // ---- 1. block-switching policy sweep on sgemm (NVLink) ----
    let w = suite::by_name("sgemm", preset).expect("sgemm");
    let res = w.demand_residency();
    let ic = Interconnect::nvlink();
    let policies: Vec<(u32, u32)> = [0u32, 1, 2, 4, 8]
        .iter()
        .flat_map(|&t| [2u32, 4, 8].iter().map(move |&m| (t, m)))
        .collect();
    let point = |key: String, paging| {
        GridPoint::new(key, PointSpec::new(&w, Scheme::ReplayQueue, cfg.clone(), paging, &res))
    };
    let grid = std::iter::once(point("plain".to_string(), PagingMode::demand(ic)))
        .chain(policies.iter().map(|&(threshold, max_extra)| {
            let block_switch = Some(BlockSwitchConfig {
                queue_pos_threshold: threshold,
                max_extra_blocks: max_extra,
                ideal: false,
            });
            point(
                format!("t{threshold}/m{max_extra}"),
                PagingMode::Demand { interconnect: ic, block_switch, local_handling: None },
            )
        }))
        .collect();
    let out = panel("blockswitch", grid);
    println!(
        "Ablation 1: block-switching policy on sgemm ({ic}, plain = {} cycles)",
        cycles(out[0])
    );
    println!("{:<12} {:<12} {:>9} {:>9}", "threshold", "max-extra", "speedup", "switches");
    // Switch counts ride outside the journal (it records cycles only), so
    // resumed points print "-" in that column.
    for (&(t, m), &v) in policies.iter().zip(&out[1..]) {
        let sw = v.and_then(|o| o.switches).map_or_else(|| "-".to_string(), |s| s.to_string());
        println!("{:<12} {:<12} {:>9.3} {:>9}", t, m, ratio(out[0], v), sw);
    }

    // ---- 2. operand-log capacity sweep on lbm ----
    let w = suite::by_name("lbm", preset).expect("lbm");
    let res = w.demand_residency();
    let sizes = [4u32, 8, 12, 16, 20, 24, 32, 48, 64];
    let point = |key: String, scheme| {
        GridPoint::new(key, PointSpec::new(&w, scheme, cfg.clone(), PagingMode::AllResident, &res))
    };
    let grid = std::iter::once(point("baseline".to_string(), Scheme::Baseline))
        .chain(sizes.iter().map(|&kib| point(format!("{kib}kib"), Scheme::operand_log_kib(kib))))
        .collect();
    let out = panel("oplog", grid);
    println!("\nAblation 2: operand log capacity on lbm (baseline = {} cycles)", cycles(out[0]));
    println!("{:<10} {:>12} {:>12}", "log KiB", "normalized", "gpu area %");
    for (kib, &v) in sizes.iter().zip(&out[1..]) {
        let o = gex::power::operand_log_overheads(kib * 1024);
        println!("{:<10} {:>12.3} {:>12.2}", kib, ratio(out[0], v), o.gpu_area_pct);
    }

    // ---- 3. GPU-local handler latency sweep on halloc-fixed (PCIe) ----
    let w = halloc::fixed(preset);
    let res = w.heap_lazy_residency();
    let ic = Interconnect::pcie();
    let lats = [5u64, 10, 20, 40, 80];
    let point = |key: String, paging| {
        GridPoint::new(key, PointSpec::new(&w, Scheme::ReplayQueue, cfg.clone(), paging, &res))
    };
    let grid = std::iter::once(point("cpu".to_string(), PagingMode::demand(ic)))
        .chain(lats.iter().map(|&us| {
            let local_handling = Some(LocalFaultConfig { handler_cycles: us * 1000 });
            point(
                format!("{us}us"),
                PagingMode::Demand { interconnect: ic, block_switch: None, local_handling },
            )
        }))
        .collect();
    let out = panel("locallat", grid);
    println!(
        "\nAblation 3: local-handler latency on halloc-fixed ({ic}, CPU-handled = {} cycles)",
        cycles(out[0])
    );
    println!("{:<14} {:>9}", "handler us", "speedup");
    for (us, &v) in lats.iter().zip(&out[1..]) {
        println!("{:<14} {:>9.3}", us, ratio(out[0], v));
    }

    // ---- 4. warp scheduler policy per scheme on lbm (scheme-sensitive) ----
    let w = suite::by_name("lbm", preset).expect("lbm");
    let res = w.demand_residency();
    println!("\nAblation 4: warp scheduler policy on lbm (cycles)");
    println!("{:<16} {:>12} {:>12}", "scheme", "loose-rr", "greedy");
    const SCHEMES: [Scheme; 3] = [Scheme::Baseline, Scheme::WdCommit, Scheme::ReplayQueue];
    const POLICIES: [SchedulerPolicy; 2] =
        [SchedulerPolicy::LooseRoundRobin, SchedulerPolicy::GreedyThenOldest];
    let grid = SCHEMES
        .iter()
        .flat_map(|&s| POLICIES.iter().map(move |&p| (s, p)))
        .map(|(scheme, policy)| {
            let mut c = cfg.clone();
            c.sm.scheduler = policy;
            GridPoint::new(
                format!("{scheme}/{policy:?}"),
                PointSpec::new(&w, scheme, c, PagingMode::AllResident, &res),
            )
        })
        .collect();
    let out = panel("warpsched", grid);
    for (scheme, o) in SCHEMES.iter().zip(out.chunks(POLICIES.len())) {
        println!("{:<16} {:>12} {:>12}", scheme.to_string(), cycles(o[0]), cycles(o[1]));
    }

    if !quarantine.is_empty() {
        print!("{quarantine}");
        std::process::exit(2);
    }
}
