//! The simulation points behind the three sweep workloads, how one point
//! runs, and the output checks that survive model fixes.
//!
//! Nothing here pins an absolute cycle count: a fidelity change may move
//! every one of them and may not edit the benchmark. The checks are
//! invariants of the architecture (what commits, what retires, that a
//! victim finishes) and self-consistency across passes.

use gex::workloads::{suite, Preset, Workload};
use gex::{
    BlockSwitchConfig, Gpu, GpuConfig, GpuRunReport, InjectionPlan, Interconnect, LocalFaultConfig,
    PageSizePolicy, PagingMode, PartitionPolicy, Residency, Scheme, SharedRunReport, TenantId,
    TenantWorkload,
};
use gex_prng::Prng;
use std::collections::BTreeMap;

/// Every workload simulates the paper's 16-SM machine.
pub const SMS: u32 = 16;
/// The `bench` preset's Figure 10 alone is four minutes serial; `Test`
/// fits the run-time cap. Its simulated statistics are not validated
/// against the paper.
pub const PRESET: Preset = Preset::Test;
/// Fault budget of the noisy neighbour on multi-tenant points (the
/// containment figure's value).
const CHAOS_FAULT_BUDGET: u32 = 6;

/// The five schemes the per-layer `kips` metrics break out, with the
/// names those metrics use.
pub const SCHEME_LABELS: [(&str, Scheme); 5] = [
    ("baseline", Scheme::Baseline),
    ("wd-commit", Scheme::WdCommit),
    ("wd-lastcheck", Scheme::WdLastCheck),
    ("replay-queue", Scheme::ReplayQueue),
    ("oplog16k", Scheme::OperandLog { bytes: 16 * 1024 }),
];

/// The figure a point belongs to; `sim.group_ms.*` is reported per group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Group {
    Steady,
    Fig12,
    Fig13,
    Fig14,
    Lp,
    Mt,
}

impl Group {
    pub const ALL: [Group; 6] = [
        Group::Steady,
        Group::Fig12,
        Group::Fig13,
        Group::Fig14,
        Group::Lp,
        Group::Mt,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Group::Steady => "steady",
            Group::Fig12 => "fig12",
            Group::Fig13 => "fig13",
            Group::Fig14 => "fig14",
            Group::Lp => "lp",
            Group::Mt => "mt",
        }
    }
}

/// Which of a workload's initial placements a point starts from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Placement {
    /// `AllResident` never reads the residency.
    None,
    Demand,
    HeapLazy,
    OutputsLazy,
}

/// The built inputs every point draws on: the sixteen workload traces
/// (Parboil then Halloc + quad-tree) and their three placements each.
pub struct Inputs {
    pub workloads: Vec<Workload>,
    residencies: Vec<[Residency; 4]>,
}

impl Inputs {
    /// Functionally simulate both suites and derive the placements. This
    /// is the `workloads.build` span and most of `setup_s` on `steady`.
    pub fn build() -> Inputs {
        let mut workloads = suite::parboil(PRESET);
        workloads.extend(suite::halloc(PRESET));
        let residencies = workloads
            .iter()
            .map(|w| {
                [
                    Residency::new(),
                    w.demand_residency(),
                    w.heap_lazy_residency(),
                    w.outputs_lazy_residency(),
                ]
            })
            .collect();
        Inputs {
            workloads,
            residencies,
        }
    }

    pub fn index_of(&self, name: &str) -> usize {
        self.workloads
            .iter()
            .position(|w| w.name == name)
            .unwrap_or_else(|| panic!("workload {name} is in neither suite"))
    }

    /// Indices of the eleven Parboil workloads.
    pub fn parboil(&self) -> std::ops::Range<usize> {
        0..11
    }

    /// Indices of the Halloc benchmarks and the quad-tree sample.
    fn halloc(&self) -> std::ops::Range<usize> {
        11..self.workloads.len()
    }

    fn residency(&self, w: usize, p: Placement) -> &Residency {
        &self.residencies[w][p as usize]
    }

    /// Σ functional-simulator instructions over the suites.
    pub fn func_instrs(&self) -> u64 {
        self.workloads.iter().map(|w| w.func.dyn_instrs).sum()
    }
}

enum Kind {
    Single {
        w: usize,
        gpu: Gpu,
        placement: Placement,
    },
    /// `tenants[0]` is the victim.
    Multi {
        gpu: Gpu,
        tenants: Box<[TenantWorkload; 2]>,
        policy: PartitionPolicy,
    },
}

/// One simulation point, ready to run.
pub struct Point {
    /// Unique within a workload's list; the request id of its spans.
    pub key: String,
    pub group: Group,
    pub scheme: Scheme,
    /// Σ `trace.dyn_instrs()` of what the point simulates.
    pub instrs: u64,
    kind: Kind,
}

/// What a point returned.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    Single(Box<GpuRunReport>),
    Multi(SharedRunReport),
}

fn gpu(scheme: Scheme, paging: PagingMode, page_size: PageSizePolicy) -> Gpu {
    Gpu::new(
        GpuConfig::kepler_k20()
            .with_sms(SMS)
            .with_page_size(page_size),
        scheme,
        paging,
    )
}

fn scheme_token(s: Scheme) -> String {
    match s {
        Scheme::OperandLog { bytes } => format!("OperandLog{}K", bytes / 1024),
        other => format!("{other:?}"),
    }
}

fn single(
    inputs: &Inputs,
    group: Group,
    w: usize,
    label: &str,
    gpu: Gpu,
    placement: Placement,
) -> Point {
    let workload = &inputs.workloads[w];
    Point {
        key: format!("{}/{}/{label}", group.label(), workload.name),
        group,
        scheme: gpu.scheme(),
        instrs: workload.trace.dyn_instrs(),
        kind: Kind::Single { w, gpu, placement },
    }
}

/// `steady`: the Figure 10 + 11 grid, fault-free. 11 Parboil x 8 schemes.
pub fn steady(inputs: &Inputs) -> Vec<Point> {
    let mut schemes = vec![
        Scheme::Baseline,
        Scheme::WdCommit,
        Scheme::WdLastCheck,
        Scheme::ReplayQueue,
    ];
    schemes.extend([8, 16, 20, 32].map(|kib| Scheme::OperandLog { bytes: kib * 1024 }));
    inputs
        .parboil()
        .flat_map(|w| {
            schemes.iter().map(move |&s| {
                let g = gpu(s, PagingMode::AllResident, PageSizePolicy::Small);
                single(
                    inputs,
                    Group::Steady,
                    w,
                    &scheme_token(s),
                    g,
                    Placement::None,
                )
            })
        })
        .collect()
}

/// `paging`: Figures 12-14 on both links, the large-page points and the
/// multi-tenant points. `rng` picks the noisy neighbour's chaos seeds.
pub fn paging(inputs: &Inputs, rng: &mut Prng) -> Vec<Point> {
    let rq = Scheme::ReplayQueue;
    let links = [
        ("nvlink", Interconnect::nvlink()),
        ("pcie", Interconnect::pcie()),
    ];
    let demand = |interconnect, block_switch, local_handling| PagingMode::Demand {
        interconnect,
        block_switch,
        local_handling,
    };
    let mut points = Vec::new();
    for (link, ic) in links {
        let switches = [
            ("demand", None),
            ("switch", Some(BlockSwitchConfig::default())),
            ("ideal", Some(BlockSwitchConfig::ideal())),
        ];
        for w in inputs.parboil() {
            for (label, bs) in switches {
                let g = gpu(rq, demand(ic, bs, None), PageSizePolicy::Small);
                let label = format!("{label}/{link}");
                points.push(single(
                    inputs,
                    Group::Fig12,
                    w,
                    &label,
                    g,
                    Placement::Demand,
                ));
            }
        }
        let handlers = [("cpu", None), ("local", Some(LocalFaultConfig::default()))];
        for (group, ws, placement) in [
            (Group::Fig13, inputs.halloc(), Placement::HeapLazy),
            (Group::Fig14, inputs.parboil(), Placement::OutputsLazy),
        ] {
            for w in ws {
                for (label, lh) in handlers {
                    let g = gpu(rq, demand(ic, None, lh), PageSizePolicy::Small);
                    let label = format!("{label}/{link}");
                    points.push(single(inputs, group, w, &label, g, placement));
                }
            }
        }
    }
    let nvlink = PagingMode::demand(Interconnect::nvlink());
    let lbm = inputs.index_of("lbm");
    for s in [rq, Scheme::OperandLog { bytes: 16 * 1024 }] {
        for policy in [
            PageSizePolicy::Small,
            PageSizePolicy::Transparent,
            PageSizePolicy::HugeOnly,
        ] {
            let label = format!("{}/{}", scheme_token(s), policy.token());
            points.push(single(
                inputs,
                Group::Lp,
                lbm,
                &label,
                gpu(s, nvlink, policy),
                Placement::Demand,
            ));
        }
    }
    let victim = &inputs.workloads[inputs.index_of("histo")];
    let neighbour = &inputs.workloads[lbm];
    for policy in [
        PartitionPolicy::Shared,
        PartitionPolicy::Static,
        PartitionPolicy::Quarantine,
    ] {
        let chaos_seed = rng.next_u64() >> 16;
        let tenants = [
            TenantWorkload::new(
                TenantId::new(victim.name.clone()),
                victim.trace.clone(),
                victim.demand_residency(),
            ),
            TenantWorkload::new(
                TenantId::new(format!("chaos-{}", neighbour.name)),
                neighbour.trace.clone(),
                neighbour.demand_residency(),
            )
            .inject(InjectionPlan::chaos(chaos_seed))
            .fault_budget(CHAOS_FAULT_BUDGET),
        ];
        points.push(Point {
            key: format!(
                "mt/{}+{}/{}/chaos-{chaos_seed:x}",
                victim.name,
                neighbour.name,
                policy.token()
            ),
            group: Group::Mt,
            scheme: rq,
            instrs: victim.trace.dyn_instrs() + neighbour.trace.dyn_instrs(),
            kind: Kind::Multi {
                gpu: gpu(rq, nvlink, PageSizePolicy::Small),
                tenants: Box::new(tenants),
                policy,
            },
        });
    }
    points
}

/// A seeded permutation of `0..n` (Fisher-Yates).
pub fn shuffled(n: usize, rng: &mut Prng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    order
}

impl Point {
    /// Simulate the point. An aborted run is an `Err` and fails the point.
    pub fn run(&self, inputs: &Inputs) -> Result<Outcome, String> {
        match &self.kind {
            Kind::Single { w, gpu, placement } => gpu
                .try_run(
                    &inputs.workloads[*w].trace,
                    inputs.residency(*w, *placement),
                )
                .map(|r| Outcome::Single(Box::new(r)))
                .map_err(|e| e.to_string()),
            Kind::Multi {
                gpu,
                tenants,
                policy,
            } => gpu
                .try_run_multi(&tenants[..], *policy)
                .map(Outcome::Multi)
                .map_err(|e| e.to_string()),
        }
    }

    /// Check one outcome on its own; `Err` names the broken invariant.
    fn check(&self, inputs: &Inputs, out: &Outcome) -> Result<(), String> {
        match (&self.kind, out) {
            (Kind::Single { w, .. }, Outcome::Single(r)) => {
                let trace = &inputs.workloads[*w].trace;
                if r.sm.committed != trace.dyn_instrs() {
                    return Err(format!(
                        "committed {} != trace instructions {}",
                        r.sm.committed,
                        trace.dyn_instrs()
                    ));
                }
                if r.blocks != trace.blocks.len() as u64 {
                    return Err(format!("ran {} of {} blocks", r.blocks, trace.blocks.len()));
                }
                Ok(())
            }
            (Kind::Multi { .. }, Outcome::Multi(r)) => {
                let victim = &r.tenants[0];
                if victim.completed != victim.blocks || victim.quarantined || victim.error.is_some()
                {
                    return Err(format!(
                        "victim finished {}/{} blocks, quarantined={}, error={:?}",
                        victim.completed, victim.blocks, victim.quarantined, victim.error
                    ));
                }
                Ok(())
            }
            _ => Err("outcome kind does not match the point".to_string()),
        }
    }
}

/// Check a whole pass: every point on its own, `warp_retired` identical
/// across every scheme and paging mode of the same workload (scheduling
/// and fault handling must never change what a warp executes), and — if
/// a reference pass is given — every outcome equal to the reference's.
/// Returns one message per failed point.
pub fn check_pass(
    points: &[Point],
    inputs: &Inputs,
    outcomes: &[Result<Outcome, String>],
    reference: Option<&[Result<Outcome, String>]>,
) -> Vec<String> {
    let mut retired: BTreeMap<usize, &BTreeMap<(u32, u32), u64>> = BTreeMap::new();
    let mut failures = Vec::new();
    for (i, (p, out)) in points.iter().zip(outcomes).enumerate() {
        let verdict = out.as_ref().map_err(String::clone).and_then(|o| {
            p.check(inputs, o)?;
            if let (Kind::Single { w, .. }, Outcome::Single(r)) = (&p.kind, o) {
                if *retired.entry(*w).or_insert(&r.warp_retired) != &r.warp_retired {
                    return Err("warp_retired differs from the workload's other points".into());
                }
            }
            match reference {
                Some(reference) if reference[i].as_ref() != Ok(o) => {
                    Err("report differs from the first pass's".to_string())
                }
                _ => Ok(()),
            }
        });
        if let Err(e) = verdict {
            failures.push(format!("{}: {e}", p.key));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(points: &[Point], order: &[usize]) -> Vec<String> {
        order.iter().map(|&i| points[i].key.clone()).collect()
    }

    #[test]
    fn lists_have_the_documented_sizes_and_unique_keys() {
        let inputs = Inputs::build();
        assert_eq!(inputs.workloads.len(), 16);
        assert_eq!(inputs.workloads[inputs.parboil().end - 1].name, "tpacf");
        let s = steady(&inputs);
        assert_eq!(s.len(), 88);
        let p = paging(&inputs, &mut Prng::seed_from_u64(1));
        assert_eq!(p.len(), 66 + 20 + 44 + 6 + 3);
        for (g, n) in [
            (Group::Fig12, 66),
            (Group::Fig13, 20),
            (Group::Fig14, 44),
            (Group::Lp, 6),
            (Group::Mt, 3),
        ] {
            assert_eq!(p.iter().filter(|x| x.group == g).count(), n, "{g:?}");
        }
        let mut all: Vec<&str> = s.iter().chain(&p).map(|x| x.key.as_str()).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 227);
    }

    #[test]
    fn same_seed_same_list_other_seed_same_multiset_in_another_order() {
        let inputs = Inputs::build();
        let list = |seed: u64| {
            let mut rng = Prng::seed_from_u64(seed);
            let points = paging(&inputs, &mut rng);
            let order = shuffled(points.len(), &mut rng);
            keys(&points, &order)
        };
        let (a, a2, b) = (list(7), list(7), list(8));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        // The chaos seed is part of a multi-tenant key and moves with the
        // seed by design; everything else is the same multiset.
        let fixed = |l: &[String]| {
            let mut v: Vec<String> = l
                .iter()
                .map(|k| k.split("/chaos-").next().unwrap().to_string())
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(fixed(&a), fixed(&b));
        // The fault-free grid has no seeded inputs at all.
        let s = steady(&inputs);
        let mut x = keys(&s, &shuffled(s.len(), &mut Prng::seed_from_u64(1)));
        let mut y = keys(&s, &shuffled(s.len(), &mut Prng::seed_from_u64(2)));
        assert_ne!(x, y);
        x.sort_unstable();
        y.sort_unstable();
        assert_eq!(x, y);
    }

    #[test]
    fn checks_catch_a_wrong_report() {
        let inputs = Inputs::build();
        let points: Vec<Point> = steady(&inputs)
            .into_iter()
            .filter(|p| p.key.starts_with("steady/histo/"))
            .collect();
        let outcomes: Vec<_> = points.iter().map(|p| p.run(&inputs)).collect();
        assert_eq!(
            check_pass(&points, &inputs, &outcomes, Some(&outcomes)),
            Vec::<String>::new()
        );

        let mut bad = outcomes.clone();
        let Ok(Outcome::Single(r)) = &mut bad[1] else {
            panic!()
        };
        r.sm.committed -= 1;
        let Ok(Outcome::Single(r)) = &mut bad[2] else {
            panic!()
        };
        *r.warp_retired.values_mut().next().unwrap() += 1;
        let Ok(Outcome::Single(r)) = &mut bad[3] else {
            panic!()
        };
        r.cycles += 1;
        bad[4] = Err("watchdog".to_string());
        let failures = check_pass(&points, &inputs, &bad, Some(&outcomes));
        assert_eq!(failures.len(), 4, "{failures:?}");
        assert!(failures[0].contains("committed"));
        assert!(failures[1].contains("warp_retired"));
        assert!(failures[2].contains("first pass"));
        assert!(failures[3].contains("watchdog"));
    }
}
