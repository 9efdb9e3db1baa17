//! The three sweep workloads: `steady`, `paging`, `sweep-par`.
//!
//! A pass runs the workload's fixed point list once through
//! `gex_exec::par_map` (one worker takes its serial path) with the result
//! cache off. After input building and one untimed warm-up pass — which
//! is also the reference every later report must equal — passes repeat
//! until `--seconds` of measuring have gone by, and the median pass is
//! the workload's wall time.

use crate::points::{self, check_pass, Group, Inputs, Outcome, Point, SCHEME_LABELS};
use crate::report::{Counts, Metrics, WorkloadResult};
use crate::stats::{percentile, Summary};
use crate::trace::{Span, Tracer};
use crate::{probes, Args};
use gex_prng::Prng;
use std::collections::HashMap;
use std::time::Instant;

/// Input building repeats this often; `setup_s` takes the median.
const BUILD_REPS: usize = 3;

type Outcomes = Vec<Result<Outcome, String>>;

/// Build the inputs `reps` times under `workloads.build` spans; returns
/// the last build and every build's seconds.
pub fn build_inputs(tracer: &Tracer, parent: u32, reps: usize) -> (Inputs, Vec<f64>) {
    let mut secs = Vec::with_capacity(reps);
    let mut inputs = None;
    for _ in 0..reps {
        let _span = tracer.span("workloads.build", parent, String::new);
        let t = Instant::now();
        inputs = Some(Inputs::build());
        secs.push(t.elapsed().as_secs_f64());
    }
    (inputs.expect("at least one build"), secs)
}

/// One pass over `points` in a fresh seeded order; outcomes come back in
/// list order. Every pass draws its own order so that `wall_s`, a median
/// over passes, is a median over orders too: on the pool the order decides
/// which worker is left holding a long point at the end, and a single
/// order per run would make the result depend on the seed's luck.
pub fn run_pass(
    points: &[Point],
    rng: &mut Prng,
    inputs: &Inputs,
    tracer: &Tracer,
    parent: u32,
    label: &str,
) -> (f64, Outcomes) {
    let order = points::shuffled(points.len(), rng);
    let pass = tracer.span("pass", parent, || label.to_string());
    let t = Instant::now();
    let par = tracer.span("exec.par_map", pass.id(), || label.to_string());
    let par_id = par.id();
    let ran = gex_exec::par_map(order, |i| {
        let _span = tracer.span("sim.run", par_id, || points[i].key.clone());
        (i, points[i].run(inputs))
    });
    drop(par);
    let wall_s = t.elapsed().as_secs_f64();
    let mut outcomes: Outcomes = (0..points.len())
        .map(|_| Err("not run".to_string()))
        .collect();
    for (i, out) in ran {
        outcomes[i] = out;
    }
    (wall_s, outcomes)
}

/// What the service layers counted; all zero on a sweep.
#[derive(Default)]
pub struct ServiceCounts {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub shed: u64,
    pub quarantined: u64,
}

/// The exact counts of a workload — summed over one pass's outcomes, plus
/// the functional simulator's and the service's — and the cache hit
/// ratios the sums imply.
pub fn counts_of(
    inputs: &Inputs,
    outcomes: &[Result<Outcome, String>],
    service: ServiceCounts,
) -> (Counts, Metrics) {
    let mut sm = gex::sm::SmStats::default();
    let mut mem = gex::mem::MemStats::default();
    let (mut cycles, mut blocks, mut switches) = (0, 0, 0);
    let (mut migrations, mut resolved, mut evictions, mut local, mut quarantined) = (0, 0, 0, 0, 0);
    for out in outcomes.iter().flatten() {
        match out {
            Outcome::Single(r) => {
                sm.merge(&r.sm);
                let m = &r.mem;
                mem.accesses += m.accesses;
                mem.requests += m.requests;
                mem.l1_hits += m.l1_hits;
                mem.l1_misses += m.l1_misses;
                mem.l2_hits += m.l2_hits;
                mem.l2_misses += m.l2_misses;
                mem.walks += m.walks;
                mem.faulted_requests += m.faulted_requests;
                mem.mshr_retries += m.mshr_retries;
                mem.denied_requests += m.denied_requests;
                cycles += r.cycles;
                blocks += r.blocks;
                switches += r.switches;
                migrations += r.cpu.migrations;
                resolved += r.cpu.resolved();
                evictions += r.cpu.evictions;
                local += r.local.resolved;
            }
            // A shared run reports per tenant, not per SM.
            Outcome::Multi(r) => {
                cycles += r.cycles;
                for t in &r.tenants {
                    blocks += t.completed;
                    mem.faulted_requests += t.faulted_requests;
                    mem.denied_requests += t.denied_requests;
                    quarantined += u64::from(t.quarantined);
                }
            }
        }
    }
    let ratio = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
    let ratios = [
        ("mem.l1_hit_ratio", ratio(mem.l1_hits, mem.l1_misses)),
        ("mem.l2_hit_ratio", ratio(mem.l2_hits, mem.l2_misses)),
    ];
    let counts = [
        ("isa.dyn_instrs", inputs.func_instrs()),
        ("sm.issued", sm.issued),
        ("sm.committed", sm.committed),
        ("sm.squashed", sm.squashed),
        ("sm.faults", sm.faults),
        ("sm.idle_issue_cycles", sm.idle_issue_cycles),
        ("sm.stall_raw", sm.stall_raw),
        ("sm.stall_war", sm.stall_war),
        ("sm.stall_unit", sm.stall_unit),
        ("sm.stall_log", sm.stall_log),
        ("sm.fetch_blocked", sm.fetch_blocked),
        ("sm.blocks_switched_out", sm.blocks_switched_out),
        ("mem.accesses", mem.accesses),
        ("mem.requests", mem.requests),
        ("mem.walks", mem.walks),
        ("mem.faulted_requests", mem.faulted_requests),
        ("mem.mshr_retries", mem.mshr_retries),
        ("mem.denied_requests", mem.denied_requests),
        ("sim.cycles", cycles),
        ("sim.blocks", blocks),
        ("sim.switches", switches),
        ("sim.cpu_migrations", migrations),
        ("sim.cpu_resolved", resolved),
        ("sim.cpu_evictions", evictions),
        ("sim.local_resolved", local),
        ("sim.mt_quarantined", quarantined),
        ("core.cache.hits", service.cache_hits),
        ("core.cache.misses", service.cache_misses),
        ("serve.shed", service.shed),
        ("serve.quarantined", service.quarantined),
    ];
    (
        counts.map(|(n, c)| (n.to_string(), c)).to_vec(),
        ratios
            .map(|(n, r)| (n.to_string(), Summary::single(r)))
            .to_vec(),
    )
}

/// The `sim.*` and `exec.*` per-layer metrics, from the spans of the
/// traced passes. Passes whose label starts with `measured` feed the
/// point statistics; the pass labelled `serial` gives the Σ point time
/// that is the serial basis of `exec.scaling_x`, and `pass_wall_s` is
/// what that basis is divided by.
pub fn span_metrics(
    spans: &[Span],
    points: &[Point],
    reference: &[Result<Outcome, String>],
    workers: usize,
    measured: &str,
    serial: &str,
    pass_wall_s: f64,
) -> Metrics {
    let by_id: HashMap<u32, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let index: HashMap<&str, usize> = points
        .iter()
        .enumerate()
        .map(|(i, p)| (p.key.as_str(), i))
        .collect();
    let cycles_of = |i: usize| match &reference[i] {
        Ok(Outcome::Single(r)) => r.cycles,
        Ok(Outcome::Multi(r)) => r.cycles,
        Err(_) => 0,
    };
    // (point, seconds) of every measured sim.run span, and per par_map
    // span the Σ of its children.
    let mut runs: Vec<(usize, f64)> = Vec::new();
    let mut serial_s = 0.0;
    let mut busy: HashMap<u32, f64> = HashMap::new();
    for s in spans.iter().filter(|s| s.name == "sim.run") {
        let Some(par) = by_id.get(&s.parent) else {
            continue;
        };
        let secs = s.dur_ns() as f64 / 1e9;
        if par.req == serial {
            serial_s += secs;
        }
        if par.req.starts_with(measured) {
            runs.push((index[s.req.as_str()], secs));
            *busy.entry(par.id).or_default() += secs;
        }
    }
    let passes = busy.len().max(1) as f64;
    let total_s: f64 = runs.iter().map(|r| r.1).sum::<f64>() + 0.0;
    let rate = |work: f64, secs: f64| if secs > 0.0 { work / secs / 1e3 } else { 0.0 };
    let ms: Vec<f64> = runs.iter().map(|r| r.1 * 1e3).collect();

    let mut out = vec![
        ("sim.point_ms_p50".to_string(), Summary::of(&ms)),
        ("sim.point_ms_p90".to_string(), percentile(&ms, 90.0)),
        (
            "sim.kcycles_per_s".to_string(),
            Summary::single(rate(
                runs.iter().map(|r| cycles_of(r.0) as f64).sum(),
                total_s,
            )),
        ),
    ];
    for (label, scheme) in SCHEME_LABELS {
        let mine = || runs.iter().filter(|r| points[r.0].scheme == scheme);
        let kips = rate(
            mine().map(|r| points[r.0].instrs as f64).sum(),
            mine().map(|r| r.1).sum(),
        );
        out.push((format!("sim.kips.{label}"), Summary::single(kips)));
    }
    for g in Group::ALL {
        // `+ 0.0`: an empty float sum is -0.0.
        let group_s = runs
            .iter()
            .filter(|r| points[r.0].group == g)
            .map(|r| r.1)
            .sum::<f64>()
            + 0.0;
        out.push((
            format!("sim.group_ms.{}", g.label()),
            Summary::single(group_s * 1e3 / passes),
        ));
    }
    let shares: Vec<f64> = busy
        .iter()
        .map(|(par, busy_s)| busy_s / (workers as f64 * by_id[par].dur_ns() as f64 / 1e9))
        .collect();
    let scaling = if pass_wall_s > 0.0 {
        serial_s / pass_wall_s
    } else {
        0.0
    };
    out.push(("exec.scaling_x".to_string(), Summary::single(scaling)));
    out.push(("exec.worker_busy_share".to_string(), Summary::of(&shares)));
    out
}

/// Run one of the three sweep workloads.
pub fn run(args: &Args, tracer: &Tracer) -> WorkloadResult {
    let root = tracer.span("workload", 0, || args.workload.clone());
    let setup = tracer.span("setup", root.id(), String::new);
    let (inputs, build_s) =
        build_inputs(tracer, setup.id(), if args.smoke { 1 } else { BUILD_REPS });
    let after_build = Instant::now();

    let mut rng = Prng::seed_from_u64(args.seed);
    let points = match args.workload.as_str() {
        "steady" => points::steady(&inputs),
        "paging" => points::paging(&inputs, &mut rng),
        _ => {
            let mut p = points::steady(&inputs);
            p.extend(points::paging(&inputs, &mut rng));
            p
        }
    };
    let workers = if args.workload == "sweep-par" {
        crate::pool_workers()
    } else {
        1
    };
    gex::cache::set_enabled(false);
    gex_exec::set_threads(workers);

    let mut failures: Vec<String> = Vec::new();
    let mut executed = 0;
    // The warm-up pass, which is also the reference. A traced parallel
    // workload first runs it once more on one worker: Σ serial point time
    // is the basis of `exec.scaling_x`, and contention inflates the spans
    // of a parallel pass.
    let mut warmups = Vec::new();
    if !args.smoke {
        if args.traced && workers > 1 {
            warmups.push(("serial", 1));
        }
        warmups.push(("warmup", workers));
    }
    let mut reference: Option<Outcomes> = None;
    for &(label, threads) in &warmups {
        gex_exec::set_threads(threads);
        let (_, outcomes) = run_pass(&points, &mut rng, &inputs, tracer, setup.id(), label);
        failures.extend(check_pass(
            &points,
            &inputs,
            &outcomes,
            reference.as_deref(),
        ));
        executed += points.len();
        reference.get_or_insert(outcomes);
    }
    let setup_s = Summary::of(&build_s).median + after_build.elapsed().as_secs_f64();
    drop(setup);

    // Timed passes.
    let mut walls: Vec<f64> = Vec::new();
    let spans_before = tracer.len();
    let measuring = Instant::now();
    while crate::another_pass(args, &measuring, walls.last().copied()) {
        let label = format!("timed-{}", walls.len());
        let (wall_s, outcomes) = run_pass(&points, &mut rng, &inputs, tracer, root.id(), &label);
        failures.extend(check_pass(
            &points,
            &inputs,
            &outcomes,
            reference.as_deref(),
        ));
        executed += points.len();
        walls.push(wall_s);
        reference.get_or_insert(outcomes);
    }
    let timed_spans = tracer.len() - spans_before;
    let reference = reference.expect("at least one pass ran");
    crate::report_failures(&failures);

    let wall = Summary::of(&walls);
    let instrs: u64 = points.iter().map(|p| p.instrs).sum();
    let kips: Vec<f64> = walls.iter().map(|s| instrs as f64 / s / 1e3).collect();
    let (counts, hit_ratios) = counts_of(&inputs, &reference, ServiceCounts::default());
    let mut result = WorkloadResult {
        workload: args.workload.clone(),
        attempted: executed as u64,
        failed: failures.len() as u64,
        shape: format!(
            "{} points, {} warm-up + {} timed passes, W={workers}, result cache off",
            points.len(),
            warmups.len(),
            walls.len()
        ),
        e2e: Vec::new(),
        layers: Vec::new(),
        counts,
    };
    if args.traced {
        let serial = warmups.first().map_or("timed-0", |w| w.0);
        let mut layers = probes::build_metrics(&inputs, &build_s);
        layers.extend(span_metrics(
            &tracer.spans(),
            &points,
            &reference,
            workers,
            "timed-",
            serial,
            wall.median,
        ));
        layers.extend(hit_ratios);
        layers.extend(probes::serve_idle());
        let timed = (timed_spans, walls.iter().sum());
        probes::finish_traced(&mut result, layers, timed, &inputs, tracer, root.id());
    } else {
        result.e2e = vec![
            ("wall_s".to_string(), wall),
            ("sim_kips".to_string(), Summary::of(&kips)),
            (
                "peak_rss_mb".to_string(),
                Summary::single(crate::peak_rss_mb()),
            ),
            ("setup_s".to_string(), Summary::single(setup_s)),
        ];
    }
    result
}
