//! Regenerate the paper's tables and figures:
//!
//! ```text
//! cargo run -p gex-bench --release --bin fig -- <id>[,<id>...] [test|bench|paper] \
//!     [--deadline N] [--resume] [--journal PATH] [--pagesize P] [--max-cycles N]
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
//! Every figure runs under sweep supervision: `--deadline N` budgets each
//! point, `--resume` / `--journal PATH` make the campaign resumable (one
//! journal file per sweep: per figure, per interconnect panel, per inner
//! sweep of `scalability`), and failed points are quarantined (reported
//! below the figure) instead of taking the run down. Exits 2 if anything
//! was quarantined, and before anything runs on an unknown id, an unknown
//! flag or a flag value that does not parse.

use gex::experiments::{self, Supervised};
use gex::workloads::Preset;
use gex::Interconnect;
use gex_bench::{sms_from_env, BenchArgs};
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
fn run(id: &str, args: &BenchArgs, preset: Preset, sms: u32) -> bool {
    match id {
        "10" => {
            println!("{}", experiments::table1());
            show(experiments::fig10(preset, sms, &args.sweep_options("fig10")))
        }
        "11" => show(experiments::fig11(preset, sms, &args.sweep_options("fig11"))),
        "12" => panels(args, "fig12", |ic, opts| experiments::fig12(preset, sms, ic, opts)),
        "13" => panels(args, "fig13", |ic, opts| experiments::fig13(preset, sms, ic, opts)),
        "14" => panels(args, "fig14", |ic, opts| experiments::fig14(preset, sms, ic, opts)),
        "lp" => show(experiments::fig_lp(preset, sms, &args.sweep_options("figlp"))),
        "mt" => show(experiments::fig_mt(preset, sms, &args.sweep_options("figmt"))),
        "scalability" => {
            let opts = args.sweep_options("scalability");
            let sweep = experiments::scalability(preset, &[4, 8, 16, 32], &opts).map(|rows| {
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
            println!("{}", experiments::table1());
            true
        }
        "table2" => {
            println!("{}", experiments::table2());
            true
        }
        other => unreachable!("main validated the ids, got {other:?}"),
    }
}

fn main() {
    let mut args = BenchArgs::parse();
    let ids = if args.positional.is_empty() { String::new() } else { args.positional.remove(0) };
    let ids: Vec<&str> = ids.split(',').collect();
    if let Some(unknown) = ids.iter().find(|id| !IDS.contains(id)) {
        eprintln!("fig: unknown id {unknown:?} (valid ids: {})", IDS.join(", "));
        std::process::exit(2);
    }
    args.apply_max_cycles();
    args.apply_page_size();
    let preset = args.preset();
    let sms = sms_from_env();
    let healthy = ids.iter().fold(true, |healthy, id| run(id, &args, preset, sms) & healthy);
    if !healthy {
        std::process::exit(2);
    }
}
