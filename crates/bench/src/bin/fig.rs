//! Regenerate the paper's tables and figures:
//!
//! ```text
//! cargo run -p gex-bench --release --bin fig -- <id>[,<id>...] [test|bench|paper] \
//!     [--deadline N] [--resume] [--journal PATH] [--pagesize P]
//! ```
//!
//! | id | prints |
//! |---|---|
//! | `10` | Table 1, then Figure 10: warp-disable and replay-queue performance normalized to the stall-on-fault baseline |
//! | `11` | Figure 11: operand-log performance across log sizes |
//! | `12` | Figure 12: thread-block switching on fault, NVLink and PCIe |
//! | `13` | Figure 13: GPU-local handling of dynamic-allocation faults, NVLink and PCIe |
//! | `14` | Figure 14: GPU-local handling of output-page faults, NVLink and PCIe |
//! | `lp` | Figure LP: demand-paging cost across the three page-size policies plus the splinter-storm leg (sweeps the policies itself, so `--pagesize` does not reach it) |
//! | `mt` | Figure MT: victim slowdown and noisy-neighbor containment across the SM-partitioning policies |
//! | `scalability` | Section 5.5: the SM-count sweep |
//! | `table1`, `table2` | the simulation parameters; the operand-log overheads |
//!
//! Several ids run in one process, so later figures answer shared points
//! from the result cache (`fig 10,11`: every Figure 11 baseline).
//!
//! Every figure runs on one simulated GPU, built once from the command
//! line ([`BenchArgs::gpu_config`]): Table 1's machine with `GEX_SMS`
//! SMs (default 16) and `--pagesize P`. Table 1 prints that machine;
//! `scalability` varies only its SM count.
//!
//! Every figure runs under sweep supervision: `--deadline N` budgets each
//! point to N simulated cycles (the one cycle bound; each point runs once),
//! `--resume` / `--journal PATH` make the campaign resumable (one
//! journal file per sweep: per figure, per interconnect panel, per inner
//! sweep of `scalability`), and failed points are quarantined (reported
//! below the figure) instead of taking the run down. Exits 2 if anything
//! was quarantined, and before anything runs on an unknown id, preset or
//! flag, an extra argument, a flag value that does not parse or a
//! `GEX_SMS` that is not a positive integer.

use gex::experiments::{self, Supervised};
use gex::{GpuConfig, Interconnect};
use gex_bench::BenchArgs;
use std::fmt::Display;

const IDS: [&str; 10] =
    ["10", "11", "12", "13", "14", "lp", "mt", "scalability", "table1", "table2"];

/// Print a supervised figure; true if every point was healthy.
fn show<F: Display>(fig: Supervised<F>) -> bool {
    println!("{fig}");
    fig.quarantine.is_empty()
}

/// Print one figure per interconnect, each journaling to its own file.
fn panels<F: Display>(
    args: &BenchArgs,
    name: &str,
    fig: impl Fn(Interconnect, &gex::SweepOptions) -> Supervised<F>,
) -> bool {
    [("nvlink", Interconnect::nvlink()), ("pcie", Interconnect::pcie())]
        .into_iter()
        .fold(true, |healthy, (panel, ic)| {
            show(fig(ic, &args.sweep_options(name).panel(panel))) & healthy
        })
}

/// Regenerate `id`; true if every point was healthy.
fn run(id: &str, args: &BenchArgs, cfg: &GpuConfig) -> bool {
    let preset = args.preset;
    match id {
        "10" => {
            println!("{}", experiments::table1(cfg));
            show(experiments::fig10(preset, cfg, &args.sweep_options("fig10")))
        }
        "11" => show(experiments::fig11(preset, cfg, &args.sweep_options("fig11"))),
        "12" => panels(args, "fig12", |ic, opts| experiments::fig12(preset, cfg, ic, opts)),
        "13" => panels(args, "fig13", |ic, opts| experiments::fig13(preset, cfg, ic, opts)),
        "14" => panels(args, "fig14", |ic, opts| experiments::fig14(preset, cfg, ic, opts)),
        "lp" => show(experiments::fig_lp(preset, cfg, &args.sweep_options("figlp"))),
        "mt" => show(experiments::fig_mt(preset, cfg, &args.sweep_options("figmt"))),
        "scalability" => {
            let opts = args.sweep_options("scalability");
            let sweep = experiments::scalability(preset, cfg, &[4, 8, 16, 32], &opts).map(|rows| {
                let mut table = "Section 5.5: scalability with SM count\n".to_string();
                table += &format!("{:<6} {:>14} {:>16}\n", "SMs", "replay-queue", "local-handling");
                for row in &rows {
                    table += &format!("{row}\n");
                }
                table
            });
            print!("{sweep}");
            sweep.quarantine.is_empty()
        }
        "table1" => {
            println!("{}", experiments::table1(cfg));
            true
        }
        "table2" => {
            println!("{}", experiments::table2());
            true
        }
        other => unreachable!("BenchArgs validated the ids, got {other:?}"),
    }
}

fn main() {
    let args = BenchArgs::parse(&IDS);
    let cfg = args.gpu_config();
    let healthy = args.ids.iter().fold(true, |healthy, id| run(id, &args, &cfg) & healthy);
    if !healthy {
        std::process::exit(2);
    }
}
