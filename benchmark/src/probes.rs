//! Layer probes: each drives one layer's public functions alone, so a
//! regression names its layer. They run in every traced run, after the
//! timed passes, and do not depend on the workload.

use crate::points::{Inputs, PRESET, SCHEME_LABELS, SMS};
use crate::report::{Counts, Metrics, WorkloadResult, PER_LAYER};
use crate::stats::{percentile, Summary};
use crate::trace::Tracer;
use gex::isa::op::{Opcode, Space};
use gex::isa::trace::KernelTrace;
use gex::mem::{
    frame_of, AccessEvent, AccessKind, AccessToken, Cycle, FaultMode, MemConfig, MemSystem,
    PageSizePolicy, LARGE_PAGE_BYTES, REGIONS_PER_LARGE, REGION_BYTES,
};
use gex::sm::SingleSmHarness;
use gex::{CampaignJournal, Gpu, GpuConfig, PagingMode, Residency, Scheme, SupervisePolicy};
use gex_serve::CampaignSpec;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of each micro-probe; the median is reported.
const REPS: usize = 5;
/// The traces the `sm` and `mem` probes replay: the heaviest Parboil
/// kernel, a compute-bound one and a divergent one.
const PROBE_TRACES: [&str; 3] = ["lbm", "sgemm", "mri-gridding"];
/// Accesses one SM keeps in flight in the `mem` replay.
const MEM_WINDOW: u32 = 8;
/// Cycles the `mem` probe's stand-in handler takes to resolve a fault.
const MEM_FAULT_DELAY: Cycle = 2_000;

/// Median of `REPS` timings of `f`, each divided by `per` (so the result
/// is per operation) and scaled by `scale` (seconds to the unit).
fn timed(per: usize, scale: f64, mut f: impl FnMut()) -> Summary {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * scale / per as f64
        })
        .collect();
    Summary::of(&samples)
}

/// `workloads.build_ms` and `isa.funcsim_kips`, from the set-up's builds.
pub fn build_metrics(inputs: &Inputs, build_s: &[f64]) -> Metrics {
    let ms: Vec<f64> = build_s.iter().map(|s| s * 1e3).collect();
    let kips: Vec<f64> = build_s
        .iter()
        .map(|s| inputs.func_instrs() as f64 / s / 1e3)
        .collect();
    vec![
        ("workloads.build_ms".to_string(), Summary::of(&ms)),
        ("isa.funcsim_kips".to_string(), Summary::of(&kips)),
    ]
}

/// The `serve.*` timings of a workload that never touches the service
/// (the codec probe aside): no samples, so every one reads 0 with n = 0.
pub fn serve_idle() -> Metrics {
    PER_LAYER
        .iter()
        .filter(|l| l.name.starts_with("serve.") && !l.name.starts_with("serve.wire."))
        .filter(|l| l.unit != "count")
        .map(|l| (l.name.to_string(), Summary::of(&[])))
        .collect()
}

/// `sm`: one SM alone, fault-free, per scheme.
fn sm_harness(inputs: &Inputs, failures: &mut Vec<String>) -> Metrics {
    let traces: Vec<&KernelTrace> = PROBE_TRACES
        .iter()
        .map(|n| &inputs.workloads[inputs.index_of(n)].trace)
        .collect();
    let instrs: u64 = traces.iter().map(|t| t.dyn_instrs()).sum();
    SCHEME_LABELS
        .iter()
        .map(|&(label, scheme)| {
            let t = Instant::now();
            for trace in &traces {
                match SingleSmHarness::new(scheme).try_run(trace) {
                    Ok(run) if run.sm_stats.committed == trace.dyn_instrs() => {}
                    Ok(run) => failures.push(format!(
                        "sm probe {label}/{}: committed {} of {}",
                        trace.name,
                        run.sm_stats.committed,
                        trace.dyn_instrs()
                    )),
                    Err(e) => failures.push(format!("sm probe {label}/{}: {e}", trace.name)),
                }
            }
            let kips = instrs as f64 / t.elapsed().as_secs_f64() / 1e3;
            (format!("sm.harness_kips.{label}"), Summary::single(kips))
        })
        .collect()
}

type Stream<'a> = Vec<(AccessKind, &'a [u64])>;

/// The global-memory line streams of the probe traces, one per SM
/// (blocks dealt round-robin), plus every 2 MB frame they touch.
fn mem_streams(inputs: &Inputs) -> (Vec<Stream<'_>>, BTreeSet<u64>) {
    let mut streams: Vec<Stream> = vec![Vec::new(); SMS as usize];
    let mut frames = BTreeSet::new();
    for name in PROBE_TRACES {
        for block in &inputs.workloads[inputs.index_of(name)].trace.blocks {
            let stream = &mut streams[(block.block_id % SMS) as usize];
            for instr in block.instrs() {
                let Some(m) = instr.mem.as_ref().filter(|m| m.space == Space::Global) else {
                    continue;
                };
                if m.lines.is_empty() {
                    continue;
                }
                let kind = match instr.op {
                    Opcode::Atom(..) => AccessKind::Atomic,
                    _ if m.is_store => AccessKind::Store,
                    _ => AccessKind::Load,
                };
                frames.extend(m.lines.iter().map(|&l| frame_of(l)));
                stream.push((kind, &m.lines[..]));
            }
        }
    }
    (streams, frames)
}

/// Replay `streams` through a bare `mem`: each SM starts at most one
/// access a cycle and keeps at most [`MEM_WINDOW`] in flight; idle
/// stretches jump to the next event. Faulted regions resolve
/// [`MEM_FAULT_DELAY`] cycles after the fault is queued and the access
/// replays after that. Returns the cycle the last access completed.
fn replay(mem: &mut MemSystem, streams: &[Stream]) -> Result<Cycle, String> {
    let total: usize = streams.iter().map(Vec::len).sum();
    let mut next = vec![0usize; streams.len()];
    let mut retry: Vec<VecDeque<usize>> = vec![VecDeque::new(); streams.len()];
    let mut outstanding = vec![0u32; streams.len()];
    let mut inflight: HashMap<AccessToken, usize> = HashMap::new();
    let mut parked: BinaryHeap<Reverse<(Cycle, usize, usize)>> = BinaryHeap::new();
    let mut resolves: BinaryHeap<Reverse<(Cycle, u64)>> = BinaryHeap::new();
    let mut events = Vec::new();
    let (mut now, mut done): (Cycle, usize) = (0, 0);
    while done < total {
        while let Some(&Reverse((due, region))) = resolves.peek().filter(|r| r.0 .0 <= now) {
            resolves.pop();
            mem.resolve_region(region, due.max(now));
            mem.note_region_resolved(region, now, true);
        }
        while let Some(&Reverse((_, sm, idx))) = parked.peek().filter(|p| p.0 .0 <= now) {
            parked.pop();
            retry[sm].push_back(idx);
        }
        let mut can_issue = false;
        for (sm, stream) in streams.iter().enumerate() {
            if outstanding[sm] < MEM_WINDOW {
                let idx = retry[sm].pop_front().or_else(|| {
                    (next[sm] < stream.len()).then(|| {
                        next[sm] += 1;
                        next[sm] - 1
                    })
                });
                if let Some(idx) = idx {
                    let (kind, lines) = stream[idx];
                    inflight.insert(mem.start_access(now, sm as u32, kind, lines), idx);
                    outstanding[sm] += 1;
                }
            }
            can_issue |=
                outstanding[sm] < MEM_WINDOW && (!retry[sm].is_empty() || next[sm] < stream.len());
        }
        mem.tick(now);
        if let Some(e) = mem.take_error() {
            return Err(e.to_string());
        }
        for (sm, in_flight) in outstanding.iter_mut().enumerate() {
            mem.drain_events_into(sm as u32, &mut events);
            for ev in events.drain(..) {
                match ev {
                    AccessEvent::LastTlbCheck { .. } => {}
                    AccessEvent::Data { token } => {
                        inflight.remove(&token);
                        *in_flight -= 1;
                        done += 1;
                    }
                    AccessEvent::Fault { token, .. } => {
                        let idx = inflight
                            .remove(&token)
                            .ok_or("fault on an unknown access")?;
                        *in_flight -= 1;
                        parked.push(Reverse((now + MEM_FAULT_DELAY + 1, sm, idx)));
                    }
                }
            }
        }
        while let Some(entry) = mem.fault_queue.pop() {
            resolves.push(Reverse((now + MEM_FAULT_DELAY, entry.region)));
        }
        now = if can_issue {
            now + 1
        } else {
            let wake = [
                mem.next_event_cycle(),
                resolves.peek().map(|r| r.0 .0),
                parked.peek().map(|p| p.0 .0),
            ];
            match wake.into_iter().flatten().min() {
                Some(c) => c.max(now + 1),
                None if done == total => now,
                None => return Err(format!("replay wedged at cycle {now}: {done}/{total} done")),
            }
        };
    }
    Ok(now)
}

/// `mem`: the hierarchy alone. Once with every page mapped (the hit and
/// miss path `steady` lives on), once with nothing mapped under
/// `SquashNotify` and transparent large pages (the fault path `paging`
/// lives on). The fault replay ends by making every touched frame fully
/// resident, letting the coalescer promote it, and splintering it again,
/// so the large-page counters are exercised even though Test-preset
/// buffers never fill a frame on their own.
fn mem_replay(inputs: &Inputs, failures: &mut Vec<String>) -> (Metrics, Counts) {
    let (streams, frames) = mem_streams(inputs);
    let accesses: usize = streams.iter().map(Vec::len).sum();
    let mut lp = gex::mem::LpStats::default();
    let mut rate = |name: &str, faulting: bool| {
        let samples: Vec<f64> = (0..REPS)
            .map(|_| {
                let mut cfg = MemConfig::kepler_k20().with_sms(SMS);
                cfg.page_size = if faulting {
                    PageSizePolicy::Transparent
                } else {
                    PageSizePolicy::Small
                };
                let mut mem = MemSystem::new(cfg, FaultMode::SquashNotify);
                for &frame in &frames {
                    if faulting {
                        mem.page_table.add_lazy_range(frame, LARGE_PAGE_BYTES);
                    } else {
                        mem.page_table.set_range(
                            frame,
                            LARGE_PAGE_BYTES,
                            gex::mem::PageState::Present,
                        );
                    }
                }
                let t = Instant::now();
                let end = replay(&mut mem, &streams);
                let secs = t.elapsed().as_secs_f64();
                let stats = mem.stats();
                match end {
                    Err(e) => failures.push(format!("mem probe {name}: {e}")),
                    Ok(_) if faulting == (stats.faulted_accesses == 0) => failures.push(format!(
                        "mem probe {name}: {} faulted accesses",
                        stats.faulted_accesses
                    )),
                    Ok(end) if faulting => {
                        for &frame in &frames {
                            for r in 0..REGIONS_PER_LARGE {
                                let region = frame + r * REGION_BYTES;
                                mem.resolve_region(region, end);
                                mem.note_region_resolved(region, end, true);
                            }
                        }
                        while let Some(c) = mem.next_event_cycle() {
                            mem.tick(c);
                        }
                        for &frame in &frames {
                            mem.splinter_frame(frame, end);
                        }
                        lp = mem.lp_stats();
                    }
                    Ok(_) => {}
                }
                accesses as f64 / secs / 1e3
            })
            .collect();
        (
            format!("mem.replay_{name}_kaccess_per_s"),
            Summary::of(&samples),
        )
    };
    let layers = vec![rate("hit", false), rate("fault", true)];
    let counts = vec![
        ("mem.lp_coalesced".to_string(), lp.coalesced),
        ("mem.lp_splintered".to_string(), lp.splintered),
    ];
    (layers, counts)
}

/// `exec`: what the pool costs per job when the job does nothing, and
/// `core.supervise`: the same under the supervisor.
fn exec_and_supervise() -> Metrics {
    const JOBS: usize = 200_000;
    const POINTS: usize = 2_000;
    let before = gex_exec::threads();
    gex_exec::set_threads(crate::pool_workers());
    let noop = timed(JOBS, 1e9, || {
        black_box(gex_exec::par_map((0..JOBS as u32).collect(), black_box));
    });
    let supervised = timed(POINTS, 1e6, || {
        let points = (0..POINTS).map(|i| (format!("p{i}"), i)).collect();
        let out = gex::run_supervised(points, &SupervisePolicy::default(), None, |&i, _| {
            Ok(black_box(i as u64))
        });
        black_box(out);
    });
    gex_exec::set_threads(before);
    vec![
        ("exec.noop_job_ns".to_string(), noop),
        ("core.supervise.noop_point_us".to_string(), supervised),
    ]
}

/// `core.cache`: a hit on a resident key.
fn cache_hit(inputs: &Inputs, failures: &mut Vec<String>) -> Metrics {
    const HITS: usize = 4_000;
    let was_on = gex::cache::enabled();
    gex::cache::set_enabled(true);
    let w = &inputs.workloads[inputs.index_of("histo")];
    let gpu = Gpu::new(
        GpuConfig::kepler_k20().with_sms(SMS),
        Scheme::Baseline,
        PagingMode::AllResident,
    );
    let res = Residency::new();
    let fill = gex::cache::run_cached(&gpu, w, &res);
    let before = gex::cache::stats();
    let hit = timed(HITS, 1e9, || {
        for _ in 0..HITS {
            let _ = black_box(gex::cache::run_cached(&gpu, w, &res));
        }
    });
    let delta = gex::cache::stats().since(&before);
    if fill.is_err() || delta.hits != (HITS * REPS) as u64 || delta.misses != 0 {
        failures.push(format!("cache probe: {delta}, fill ok = {}", fill.is_ok()));
    }
    gex::cache::set_enabled(was_on);
    vec![("core.cache.hit_ns".to_string(), hit)]
}

/// `core.journal`: append-and-flush per record, and reopening a
/// 10 k-line journal.
fn journal(failures: &mut Vec<String>) -> Metrics {
    const RECORDS: usize = 10_000;
    let dir = crate::scratch_dir("journal-probe");
    let path = dir.path().join("probe.jsonl");
    let mut record_us = Vec::with_capacity(RECORDS);
    match CampaignJournal::open(&path, 0xBE7C) {
        Ok(j) => {
            for i in 0..RECORDS {
                let key = format!("lbm/point-{i}");
                let t = Instant::now();
                j.record(&key, i as u64);
                record_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
        Err(e) => failures.push(format!("journal probe: {e}")),
    }
    let open = timed(1, 1e3, || match CampaignJournal::open(&path, 0xBE7C) {
        Ok(j) if j.resumed_points() == RECORDS => {}
        Ok(j) => failures.push(format!(
            "journal probe resumed {} records",
            j.resumed_points()
        )),
        Err(e) => failures.push(format!("journal probe: {e}")),
    });
    vec![
        (
            "core.journal.record_us_p50".to_string(),
            Summary::of(&record_us),
        ),
        (
            "core.journal.record_us_p90".to_string(),
            percentile(&record_us, 90.0),
        ),
        ("core.journal.open_ms".to_string(), open),
    ]
}

/// `serve.wire`: the spec codec on an 11-workload, 4-scheme campaign.
fn wire(inputs: &Inputs, failures: &mut Vec<String>) -> Metrics {
    const LOOPS: usize = 20_000;
    let names = inputs
        .parboil()
        .map(|i| inputs.workloads[i].name.clone())
        .collect();
    let spec = CampaignSpec::new(PRESET, SMS, names, crate::campaign::SCHEMES.to_vec());
    let line = spec.encode();
    if CampaignSpec::parse(&line).as_ref() != Ok(&spec) {
        failures.push("wire probe: spec does not round-trip".to_string());
    }
    let parse = timed(LOOPS, 1e9, || {
        for _ in 0..LOOPS {
            let _ = black_box(CampaignSpec::parse(black_box(&line)));
        }
    });
    let encode = timed(LOOPS, 1e9, || {
        for _ in 0..LOOPS {
            black_box(black_box(&spec).encode());
        }
    });
    vec![
        ("serve.wire.spec_parse_ns".to_string(), parse),
        ("serve.wire.spec_encode_ns".to_string(), encode),
    ]
}

/// What recording one span costs: a scratch tracer records spans whose
/// request is a point key, back to back.
fn span_cost_s() -> Summary {
    const SPANS: usize = 20_000;
    let key = "paging/mri-gridding/switch/nvlink".to_string();
    timed(SPANS, 1.0, || {
        let scratch = Tracer::new(true);
        for _ in 0..SPANS {
            drop(scratch.span("sim.run", 1, || key.clone()));
        }
        black_box(scratch.len());
    })
}

/// Finish a traced result: run every probe under a `probes` span and add
/// what they measured to the workload's own `layers`. The probes count as
/// one more attempted operation, failed if any of their checks did.
///
/// `timed` is the number of spans the timed passes recorded and their
/// total seconds. `trace.overhead_x` is 1 + spans x the measured cost of
/// recording one ÷ those seconds. Timing traced against untraced passes
/// instead would need the sandbox to repeat a pass within a few percent,
/// and it does not (see the README's noise section).
pub fn finish_traced(
    result: &mut WorkloadResult,
    mut layers: Metrics,
    timed: (usize, f64),
    inputs: &Inputs,
    tracer: &Tracer,
    parent: u32,
) {
    let all = tracer.span("probes", parent, String::new);
    let mut failures = Vec::new();
    let mut probe = |name: &'static str, f: &mut dyn FnMut(&mut Vec<String>) -> Metrics| {
        let _span = tracer.span(name, all.id(), String::new);
        layers.extend(f(&mut failures));
    };
    probe("probe.sm", &mut |fails| sm_harness(inputs, fails));
    probe("probe.mem", &mut |fails| {
        let (layers, lp_counts) = mem_replay(inputs, fails);
        result.counts.extend(lp_counts);
        layers
    });
    probe("probe.exec", &mut |_| exec_and_supervise());
    probe("probe.cache", &mut |fails| cache_hit(inputs, fails));
    probe("probe.journal", &mut journal);
    probe("probe.wire", &mut |fails| wire(inputs, fails));
    probe("probe.trace", &mut |_| {
        let overhead = 1.0 + timed.0 as f64 * span_cost_s().median / timed.1;
        vec![("trace.overhead_x".to_string(), Summary::single(overhead))]
    });
    crate::report_failures(&failures);
    result.attempted += 1;
    result.failed += u64::from(!failures.is_empty());
    result.layers = layers;
}
