//! The `campaign` workload: the simulator as a shared service.
//!
//! An in-process `gex-served` with a journal directory, two closed-loop
//! clients (tenants `alice` and `bob`, one connection each; the next
//! submit goes out when the previous campaign's results are in). Each
//! client first submits its **cold** campaigns — a distinct `seed` field
//! per campaign keys every point away from the result cache, so this is
//! simulation plus service — and then, after both clients are done, the
//! same specs again under new campaign names: **warm** campaigns, every
//! point a cache hit, the service alone (wire, manifest, scheduler waves,
//! journal).

use crate::points::{check_pass, Inputs, Outcome, Point, PRESET, SMS};
use crate::report::WorkloadResult;
use crate::stats::Summary;
use crate::sweep::{build_inputs, counts_of, run_pass, span_metrics, ServiceCounts};
use crate::trace::Tracer;
use crate::{probes, Args};
use gex::Scheme;
use gex_prng::Prng;
use gex_serve::{server, CampaignSpec, Client, ClientConfig, Event, PointResult};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Barrier;
use std::time::Instant;

/// The Figure 10 schemes: every campaign is one workload x these.
pub const SCHEMES: [Scheme; 4] = [
    Scheme::Baseline,
    Scheme::WdCommit,
    Scheme::WdLastCheck,
    Scheme::ReplayQueue,
];
const TENANTS: [&str; 2] = ["alice", "bob"];
/// Finished campaigns the journal directory holds when the timed server
/// starts, so that start-up takes the `recover()` path.
const RECOVERED: usize = 4;
/// The default bound (64) counts finished campaigns too, and they are
/// never evicted; a long run submits more than that.
const MAX_CAMPAIGNS: usize = 4096;
/// Pings timed in a traced run, after the timed pass.
const PINGS: usize = 10;

/// One campaign a client will submit, cold and then warm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Planned {
    pub name: String,
    pub seed: u64,
}

/// Each client's campaign list: one campaign per workload name (a submit
/// costs by the name, and two names would not fit 22 campaigns a phase
/// into a run), so a client simulates every name exactly once per phase
/// whatever the seed. The seed picks each client's order — who contends
/// with whom — and the injection seeds.
pub fn plan(names: &[String], per_client: usize, rng: &mut Prng) -> Vec<Vec<Planned>> {
    TENANTS
        .iter()
        .map(|_| {
            crate::points::shuffled(names.len(), rng)
                .into_iter()
                .take(per_client)
                .map(|i| Planned {
                    name: names[i].clone(),
                    seed: rng.next_u64() >> 16,
                })
                .collect()
        })
        .collect()
}

fn spec(name: &str, schemes: &[Scheme], seed: Option<u64>) -> CampaignSpec {
    let mut spec = CampaignSpec::new(PRESET, SMS, vec![name.to_string()], schemes.to_vec());
    spec.seed = seed;
    spec
}

/// What one timed campaign looked like from its client.
struct Record {
    warm: bool,
    points: usize,
    latency_ms: f64,
    ack_ms: f64,
    first_result_ms: f64,
    results_ms: f64,
    /// Returned `(key, cycles)`; empty if the campaign failed outright.
    cycles: Vec<(String, u64)>,
    /// Why the campaign as a whole counts as failed, if it does.
    error: Option<String>,
    shed: bool,
    quarantined: u64,
}

/// Submit one campaign, watch it to its terminal state, fetch results.
fn drive(
    client: &mut Client,
    tracer: &Tracer,
    parent: u32,
    tenant: &str,
    name: &str,
    spec: &CampaignSpec,
    warm: bool,
) -> Record {
    let id = format!("{tenant}/{name}");
    let span = tracer.span("campaign", parent, || id.clone());
    let mut rec = Record {
        warm,
        points: spec.points(),
        latency_ms: 0.0,
        ack_ms: 0.0,
        first_result_ms: 0.0,
        results_ms: 0.0,
        cycles: Vec::new(),
        error: None,
        shed: false,
        quarantined: 0,
    };
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    let ack = {
        let _s = tracer.span("serve.submit", span.id(), || id.clone());
        client.submit(tenant, name, spec)
    };
    rec.ack_ms = ms(start);
    match ack {
        Ok(status) if status.points as usize == rec.points => {}
        Ok(status) => {
            rec.error = Some(format!(
                "admitted {} of {} points",
                status.points, rec.points
            ))
        }
        Err(e) => {
            rec.shed = matches!(e, gex_serve::ClientError::Shed(_));
            rec.error = Some(format!("submit: {e}"));
            return rec;
        }
    }
    let terminal = {
        let _s = tracer.span("serve.watch", span.id(), || id.clone());
        client.watch(tenant, name, |event| {
            if rec.first_result_ms == 0.0 && matches!(event, Event::Point { .. }) {
                rec.first_result_ms = ms(start);
            }
        })
    };
    rec.latency_ms = ms(start);
    match terminal {
        Ok(state) if state == "done" => {}
        Ok(state) => rec.error = Some(format!("terminal state {state}")),
        Err(e) => rec.error = Some(format!("watch: {e}")),
    }
    let fetch = Instant::now();
    let results = {
        let _s = tracer.span("serve.results", span.id(), || id.clone());
        client.results(tenant, name)
    };
    rec.results_ms = ms(fetch);
    match results {
        Ok((status, points)) => {
            rec.quarantined = status.quarantined;
            if status.points as usize != rec.points || points.len() != rec.points {
                rec.error = Some(format!(
                    "{} results for {} points",
                    points.len(),
                    rec.points
                ));
            }
            rec.cycles = points
                .into_iter()
                .filter_map(|p| match p {
                    PointResult::Done { key, cycles } => Some((key, cycles)),
                    _ => None,
                })
                .collect();
        }
        Err(e) => rec.error = Some(format!("results: {e}")),
    }
    rec
}

/// Leave [`RECOVERED`] small finished campaigns in a fresh journal
/// directory, through a server of their own, for the timed restart.
fn preseed(dir: &Path, names: &[String]) -> Result<(), String> {
    let handle = server::start(server_config(dir)).map_err(|e| format!("preseed server: {e}"))?;
    let mut client = Client::connect(&handle.addr().to_string(), ClientConfig::default())
        .map_err(|e| format!("preseed connect: {e}"))?;
    let mut outcome = Ok(());
    for (i, name) in names.iter().cycle().take(RECOVERED).enumerate() {
        let campaign = format!("seed-{i}");
        let done = client
            .submit("carol", &campaign, &spec(name, &SCHEMES[..1], None))
            .and_then(|_| client.watch("carol", &campaign, |_| {}));
        match done {
            Ok(state) if state == "done" => {}
            Ok(state) => outcome = Err(format!("preseeded campaign ended {state}")),
            Err(e) => outcome = Err(format!("preseeded campaign: {e}")),
        }
    }
    handle.join();
    outcome
}

fn server_config(dir: &Path) -> server::ServerConfig {
    server::ServerConfig {
        journal_dir: Some(dir.to_path_buf()),
        max_campaigns: MAX_CAMPAIGNS,
        ..server::ServerConfig::default()
    }
}

/// The campaign points of `names` as direct `Gpu::run` points of this
/// process: what the service's cycle counts are checked against (and,
/// traced, the bare `par_map` reference its overhead is measured against).
fn direct_points(inputs: &Inputs, names: &[String]) -> Vec<Point> {
    let keys: Vec<String> = names
        .iter()
        .flat_map(|n| SCHEMES.iter().map(move |s| format!("steady/{n}/{s:?}")))
        .collect();
    crate::points::steady(inputs)
        .into_iter()
        .filter(|p| keys.contains(&p.key))
        .collect()
}

/// One timed pass: both clients' cold campaigns, then both clients' warm
/// ones.
struct PassOutcome {
    records: Vec<Record>,
    cold_s: f64,
    warm_s: f64,
    cache_hits: u64,
    cache_misses: u64,
}

fn timed_pass(
    pass: usize,
    clients: &mut [Client],
    plans: &[Vec<Planned>],
    tracer: &Tracer,
    parent: u32,
    failures: &mut Vec<String>,
) -> PassOutcome {
    let pass_span = tracer.span("pass", parent, || format!("timed-{pass}"));
    // Phase boundaries: start, cold done, warm start, warm done. The main
    // thread reads the clock and the cache counters at each.
    let barrier = Barrier::new(clients.len() + 1);
    let mut records: Vec<Record> = Vec::new();
    let mut marks = Vec::new();
    std::thread::scope(|scope| {
        let threads: Vec<_> = clients
            .iter_mut()
            .zip(TENANTS)
            .zip(plans)
            .map(|((client, tenant), plan)| {
                let (barrier, pass_id) = (&barrier, pass_span.id());
                scope.spawn(move || {
                    let mut recs = Vec::new();
                    for warm in [false, true] {
                        barrier.wait();
                        for (i, p) in plan.iter().enumerate() {
                            let phase = if warm { "warm" } else { "cold" };
                            let name = format!("{phase}-{pass}-{i}");
                            let spec = spec(&p.name, &SCHEMES, Some(p.seed + pass as u64));
                            recs.push(drive(client, tracer, pass_id, tenant, &name, &spec, warm));
                        }
                        barrier.wait();
                    }
                    recs
                })
            })
            .collect();
        for _ in 0..4 {
            barrier.wait();
            marks.push((Instant::now(), gex::cache::stats()));
        }
        for t in threads {
            records.extend(t.join().expect("client thread"));
        }
    });
    let (cold_s, warm_s) = (
        (marks[1].0 - marks[0].0).as_secs_f64(),
        (marks[3].0 - marks[2].0).as_secs_f64(),
    );
    let mut out = PassOutcome {
        records,
        cold_s,
        warm_s,
        cache_hits: 0,
        cache_misses: 0,
    };
    // Cold points must all simulate and warm points must all hit, or the
    // two phases do not measure what they claim to.
    for (warm, from) in [(false, 0), (true, 2)] {
        let delta = marks[from + 1].1.since(&marks[from].1);
        let points: u64 = out
            .records
            .iter()
            .filter(|r| r.warm == warm)
            .map(|r| r.points as u64)
            .sum();
        let expected = if warm { (points, 0) } else { (0, points) };
        if (delta.hits, delta.misses) != expected {
            let phase = if warm {
                "warm phase was not hits only"
            } else {
                "cold phase hit the cache"
            };
            failures.push(format!("{phase}: {delta}"));
            for r in out.records.iter_mut().filter(|r| r.warm == warm) {
                r.error.get_or_insert(phase.to_string());
            }
        }
        out.cache_hits += delta.hits;
        out.cache_misses += delta.misses;
    }
    out
}

/// Points of `records` that failed: every point of a campaign that broke
/// as a whole, and every cycle count that is missing or differs from
/// `expected`, the direct run of the same point in this process.
fn failed_points(
    records: &[Record],
    expected: &BTreeMap<String, u64>,
    failures: &mut Vec<String>,
) -> usize {
    records
        .iter()
        .map(|r| {
            if let Some(e) = &r.error {
                failures.push(format!("campaign failed: {e}"));
                return r.points;
            }
            let right = r
                .cycles
                .iter()
                .filter(|(key, cycles)| expected.get(key) == Some(cycles))
                .count();
            if right < r.points {
                failures.push(format!(
                    "{} of a campaign's {} cycle counts differ from a direct run",
                    r.points - right,
                    r.points
                ));
            }
            r.points - right
        })
        .sum()
}

pub fn run(args: &Args, tracer: &Tracer) -> WorkloadResult {
    let root = tracer.span("workload", 0, || args.workload.clone());
    let setup = tracer.span("setup", root.id(), String::new);
    let setup_start = Instant::now();
    let (inputs, build_s) = build_inputs(tracer, setup.id(), 1);
    let workers = crate::pool_workers();
    gex_exec::set_threads(workers);
    gex::cache::set_enabled(true);

    let mut rng = Prng::seed_from_u64(args.seed);
    let names: Vec<String> = inputs
        .parboil()
        .map(|i| inputs.workloads[i].name.clone())
        .collect();
    let per_client = if args.smoke { 1 } else { names.len() };
    let plans = plan(&names, per_client, &mut rng);

    let mut failures: Vec<String> = Vec::new();
    let scratch = crate::scratch_dir("campaign");
    {
        let _s = tracer.span("setup.preseed", setup.id(), String::new);
        failures.extend(preseed(scratch.path(), &names).err());
    }
    // The restart: `recover()` reloads the finished campaigns.
    let recover = Instant::now();
    let handle = {
        let _s = tracer.span("serve.start", setup.id(), String::new);
        server::start(server_config(scratch.path()))
            .unwrap_or_else(|e| panic!("cannot start the campaign server: {e}"))
    };
    let recover_ms = recover.elapsed().as_secs_f64() * 1e3;
    let addr = handle.addr().to_string();
    let mut clients: Vec<Client> = TENANTS
        .iter()
        .map(|_| {
            Client::connect(&addr, ClientConfig::default())
                .unwrap_or_else(|e| panic!("cannot connect to the campaign server: {e}"))
        })
        .collect();
    let setup_s = setup_start.elapsed().as_secs_f64();
    drop(setup);

    // Timed passes: normally one; more only once the service is so fast
    // that a pass no longer fills `--seconds`.
    let mut passes: Vec<PassOutcome> = Vec::new();
    let spans_before = tracer.len();
    let measuring = Instant::now();
    while crate::another_pass(args, &measuring, passes.last().map(|p| p.cold_s + p.warm_s)) {
        let pass = timed_pass(
            passes.len(),
            &mut clients,
            &plans,
            tracer,
            root.id(),
            &mut failures,
        );
        passes.push(pass);
    }

    let timed_spans = tracer.len() - spans_before;
    let mut ping_us = Vec::new();
    if args.traced {
        for _ in 0..PINGS {
            let t = Instant::now();
            let pong = {
                let _s = tracer.span("serve.ping", root.id(), String::new);
                clients[0].ping()
            };
            ping_us.push(t.elapsed().as_secs_f64() * 1e6);
            failures.extend(pong.err().map(|e| format!("ping: {e}")));
        }
    }
    drop(clients);
    handle.join();

    // Every returned cycle count must equal a direct run in this process.
    // The seed does not reach a fault-free run, so one direct run per
    // (name, scheme) answers every campaign. Traced, the same pass is the
    // bare `par_map` the service's overhead is measured against.
    let mut used: Vec<String> = plans.iter().flatten().map(|p| p.name.clone()).collect();
    used.sort_unstable();
    used.dedup();
    let direct = direct_points(&inputs, &used);
    gex::cache::set_enabled(false);
    let (reference_s, reference) =
        run_pass(&direct, &mut rng, &inputs, tracer, root.id(), "reference");
    failures.extend(check_pass(&direct, &inputs, &reference, None));
    let expected: BTreeMap<String, u64> = direct
        .iter()
        .zip(&reference)
        .filter_map(|(p, out)| match out {
            Ok(Outcome::Single(r)) => Some((p.key.replacen("steady/", "", 1), r.cycles)),
            _ => None,
        })
        .collect();
    let records: Vec<&Record> = passes.iter().flat_map(|p| &p.records).collect();
    let failed: usize = passes
        .iter()
        .map(|p| failed_points(&p.records, &expected, &mut failures))
        .sum();
    crate::report_failures(&failures);

    // A figure of every record, or of one phase's.
    let stat = |warm: Option<bool>, f: fn(&Record) -> f64| -> Summary {
        let of: Vec<f64> = records
            .iter()
            .filter(|r| warm.is_none_or(|w| r.warm == w))
            .map(|r| f(r))
            .collect();
        Summary::of(&of)
    };
    let cold = stat(Some(false), |r| r.latency_ms);
    let warm = stat(Some(true), |r| r.latency_ms);
    let cold_instrs: u64 = plans
        .iter()
        .flatten()
        .map(|p| {
            inputs.workloads[inputs.index_of(&p.name)]
                .trace
                .dyn_instrs()
        })
        .sum::<u64>()
        * SCHEMES.len() as u64;
    let kips: Vec<f64> = passes
        .iter()
        .map(|p| cold_instrs as f64 / p.cold_s / 1e3)
        .collect();
    let service = ServiceCounts {
        cache_hits: passes.iter().map(|p| p.cache_hits).sum(),
        cache_misses: passes.iter().map(|p| p.cache_misses).sum(),
        shed: records.iter().filter(|r| r.shed).count() as u64,
        quarantined: records.iter().map(|r| r.quarantined).sum(),
    };
    let (counts, hit_ratios) = counts_of(&inputs, &reference, service);
    let mut result = WorkloadResult {
        workload: args.workload.clone(),
        attempted: records.iter().map(|r| r.points as u64).sum(),
        failed: failed as u64,
        shape: format!(
            "{} timed pass(es) of {} clients x ({per_client} cold + {per_client} warm) campaigns \
             of 1 name x {} schemes, server W={workers}, result cache on, {RECOVERED} recovered \
             campaigns, journal on {}",
            passes.len(),
            TENANTS.len(),
            SCHEMES.len(),
            crate::filesystem_of(scratch.path()),
        ),
        e2e: Vec::new(),
        layers: Vec::new(),
        counts,
    };
    if args.traced {
        let cold_s = Summary::of(&passes.iter().map(|p| p.cold_s).collect::<Vec<_>>()).median;
        // The reference simulated each distinct point once; the cold
        // phase simulated `cold_instrs` worth of them.
        let reference_instrs: u64 = direct.iter().map(|p| p.instrs).sum();
        let bare_s = reference_s * cold_instrs as f64 / reference_instrs as f64;
        let mut layers = probes::build_metrics(&inputs, &build_s);
        layers.extend(span_metrics(
            &tracer.spans(),
            &direct,
            &reference,
            workers,
            "reference",
            "reference",
            reference_s,
        ));
        layers.extend(hit_ratios);
        layers.extend(
            [
                ("serve.campaign_cold_p50_ms", cold),
                ("serve.campaign_warm_p50_ms", warm),
                ("serve.campaign_cold_max_ms", Summary::single(cold.max)),
                ("serve.campaign_warm_max_ms", Summary::single(warm.max)),
                ("serve.submit_ack_ms_p50", stat(None, |r| r.ack_ms)),
                (
                    "serve.first_result_ms_p50",
                    stat(None, |r| r.first_result_ms),
                ),
                ("serve.results_fetch_ms_p50", stat(None, |r| r.results_ms)),
                ("serve.ping_us_p50", Summary::of(&ping_us)),
                ("serve.recover_ms", Summary::single(recover_ms)),
                ("serve.cold_overhead_x", Summary::single(cold_s / bare_s)),
            ]
            .map(|(n, s)| (n.to_string(), s)),
        );
        let timed = (
            timed_spans,
            passes.iter().map(|p| p.cold_s + p.warm_s).sum(),
        );
        probes::finish_traced(&mut result, layers, timed, &inputs, tracer, root.id());
    } else {
        let wall: Vec<f64> = passes.iter().map(|p| p.cold_s + p.warm_s).collect();
        result.e2e = vec![
            ("wall_s".to_string(), Summary::of(&wall)),
            ("sim_kips".to_string(), Summary::of(&kips)),
            (
                "peak_rss_mb".to_string(),
                Summary::single(crate::peak_rss_mb()),
            ),
            ("setup_s".to_string(), Summary::single(setup_s)),
            ("campaign_cold_p50_ms".to_string(), cold),
            ("campaign_warm_p50_ms".to_string(), warm),
        ];
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names() -> Vec<String> {
        [
            "bfs",
            "cutcp",
            "histo",
            "lbm",
            "mri-gridding",
            "mri-q",
            "sad",
            "sgemm",
            "spmv",
            "stencil",
            "tpacf",
        ]
        .map(String::from)
        .to_vec()
    }

    #[test]
    fn every_client_simulates_every_name_once_whatever_the_seed() {
        for seed in [1, 2, 99] {
            let plans = plan(&names(), 11, &mut Prng::seed_from_u64(seed));
            assert_eq!(plans.len(), 2);
            for client in &plans {
                let mut seen: Vec<String> = client.iter().map(|p| p.name.clone()).collect();
                seen.sort_unstable();
                assert_eq!(seen, names());
            }
            let mut seeds: Vec<u64> = plans.iter().flatten().map(|p| p.seed).collect();
            seeds.sort_unstable();
            seeds.dedup();
            assert_eq!(seeds.len(), 22, "every campaign has its own injection seed");
        }
        assert_eq!(plan(&names(), 1, &mut Prng::seed_from_u64(1))[1].len(), 1);
    }

    #[test]
    fn same_seed_same_campaigns_other_seed_other_order() {
        let a = plan(&names(), 11, &mut Prng::seed_from_u64(5));
        assert_eq!(a, plan(&names(), 11, &mut Prng::seed_from_u64(5)));
        assert_ne!(a, plan(&names(), 11, &mut Prng::seed_from_u64(6)));
    }
}
