//! `gex-campaign` — CLI client for the `gex-served` campaign daemon.
//!
//! ```text
//! gex-campaign ADDR submit TENANT NAME --workloads a,b --schemes S,S \
//!     [--preset test|bench|paper] [--sms N] [--weight N] [--seed N] \
//!     [--inject panic|deadline] [--partition shared|static|quarantine] \
//!     [--watch]
//! gex-campaign ADDR status  TENANT NAME
//! gex-campaign ADDR results TENANT NAME
//! gex-campaign ADDR watch   TENANT NAME
//! gex-campaign ADDR cancel  TENANT NAME
//! gex-campaign ADDR ping
//! gex-campaign ADDR shutdown
//! ```
//!
//! Scheme tokens: `Baseline`, `WdCommit`, `WdLastCheck`, `ReplayQueue`,
//! `OperandLog:<bytes>`. Exit status: 0 on success (including a campaign
//! that finishes `done`), 1 on a quarantined/cancelled campaign when
//! watching, 2 on usage or server rejection.
//!
//! The client retries connections with exponential backoff, so pointing
//! it at a daemon that is still starting (or restarting after a crash)
//! simply waits instead of failing.

use gex::workloads::Preset;
use gex_serve::wire::{parse_scheme, state, Inject};
use gex_serve::{CampaignSpec, Client, ClientConfig, Event, PointResult};

fn usage() -> ! {
    eprintln!(
        "usage: gex-campaign ADDR submit TENANT NAME --workloads a,b --schemes S,S\n\
         \x20          [--preset test|bench|paper] [--sms N] [--weight N] [--seed N]\n\
         \x20          [--inject panic|deadline] [--partition shared|static|quarantine]\n\
         \x20          [--watch]\n\
         \x20      gex-campaign ADDR status|results|watch|cancel TENANT NAME\n\
         \x20      gex-campaign ADDR ping|shutdown"
    );
    std::process::exit(2);
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("gex-campaign: {msg}");
    std::process::exit(2);
}

fn print_point(p: &PointResult) {
    match p {
        PointResult::Done { key, cycles } => println!("  {key:<40} {cycles} cycles"),
        PointResult::Quarantined { key, kind, error } => {
            println!("  {key:<40} QUARANTINED [{kind}] {error}")
        }
        PointResult::Cancelled { key } => println!("  {key:<40} cancelled"),
        PointResult::Pending { key } => println!("  {key:<40} pending"),
    }
}

fn watch_to_end(client: &mut Client, tenant: &str, name: &str) -> ! {
    let terminal = client
        .watch(tenant, name, |e| match e {
            Event::Point { key, cycles } => println!("  {key:<40} {cycles} cycles"),
            Event::Quarantine { key, kind, error } => {
                println!("  {key:<40} QUARANTINED [{kind}] {error}")
            }
            Event::State { state } => println!("campaign is {state}"),
        })
        .unwrap_or_else(|e| fail(e));
    std::process::exit(if terminal == state::DONE { 0 } else { 1 });
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() < 2 {
        usage();
    }
    let addr = &args[0];
    let op = args[1].as_str();
    let mut client =
        Client::connect(addr, ClientConfig::default()).unwrap_or_else(|e| fail(e));

    match op {
        "ping" => {
            client.ping().unwrap_or_else(|e| fail(e));
            println!("{addr} is alive");
        }
        "shutdown" => {
            client.shutdown().unwrap_or_else(|e| fail(e));
            println!("{addr} asked to stop");
        }
        "status" | "results" | "watch" | "cancel" => {
            if args.len() != 4 {
                usage();
            }
            let (tenant, name) = (&args[2], &args[3]);
            match op {
                "status" => {
                    let s = client.status(tenant, name).unwrap_or_else(|e| fail(e));
                    println!(
                        "{} is {}: {}/{} done, {} quarantined, {} cancelled, {} resumed",
                        s.id, s.state, s.done, s.points, s.quarantined, s.cancelled, s.resumed
                    );
                }
                "results" => {
                    let (s, points) = client.results(tenant, name).unwrap_or_else(|e| fail(e));
                    println!("{} is {}:", s.id, s.state);
                    for p in &points {
                        print_point(p);
                    }
                }
                "watch" => watch_to_end(&mut client, tenant, name),
                "cancel" => {
                    let s = client.cancel(tenant, name).unwrap_or_else(|e| fail(e));
                    println!("{} is {}", s.id, s.state);
                }
                _ => unreachable!(),
            }
        }
        "submit" => {
            if args.len() < 4 {
                usage();
            }
            let (tenant, name) = (&args[2], &args[3]);
            let mut spec = CampaignSpec::new(Preset::Test, 2, Vec::new(), Vec::new());
            let mut watch = false;
            let mut it = args[4..].iter();
            while let Some(flag) = it.next() {
                let mut value = |what: &str| -> &String {
                    it.next().unwrap_or_else(|| fail(format!("{flag} needs {what}")))
                };
                match flag.as_str() {
                    "--workloads" => {
                        spec.workloads =
                            value("names").split(',').map(str::to_string).collect()
                    }
                    "--schemes" => {
                        spec.schemes = value("tokens")
                            .split(',')
                            .map(|t| parse_scheme(t).unwrap_or_else(|e| fail(e)))
                            .collect()
                    }
                    "--preset" => {
                        let v = value("a preset");
                        let unknown = || fail(format!("unknown preset {v:?}"));
                        spec.preset = Preset::parse(v).unwrap_or_else(unknown)
                    }
                    "--sms" => {
                        spec.sms = value("a count").parse().unwrap_or_else(|e| fail(e))
                    }
                    "--weight" => {
                        spec.weight = value("a weight").parse().unwrap_or_else(|e| fail(e))
                    }
                    "--seed" => {
                        spec.seed = Some(value("a seed").parse().unwrap_or_else(|e| fail(e)))
                    }
                    "--inject" => {
                        spec.inject = Some(match value("a mode").as_str() {
                            "panic" => Inject::Panic,
                            "deadline" => Inject::Deadline,
                            other => fail(format!("unknown inject mode {other:?}")),
                        })
                    }
                    "--partition" => {
                        let v = value("a policy");
                        spec.partition = Some(
                            gex::PartitionPolicy::parse(v).unwrap_or_else(|| {
                                fail(format!(
                                    "unknown partition policy {v:?} (shared|static|quarantine)"
                                ))
                            }),
                        )
                    }
                    "--watch" => watch = true,
                    other => fail(format!("unknown flag {other}")),
                }
            }
            if spec.workloads.is_empty() || spec.schemes.is_empty() {
                fail("submit needs --workloads and --schemes");
            }
            let s = client.submit(tenant, name, &spec).unwrap_or_else(|e| fail(e));
            println!(
                "{} admitted as {}: {} points ({} already journaled)",
                s.id, s.state, s.points, s.resumed
            );
            if watch {
                watch_to_end(&mut client, tenant, name);
            }
        }
        _ => usage(),
    }
}
