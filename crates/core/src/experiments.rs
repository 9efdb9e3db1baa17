//! Experiment drivers regenerating every table and figure of the paper's
//! evaluation (Section 5). Each driver returns plain data and renders a
//! text table via `Display`, so the harness binaries and tests share one
//! implementation.
//!
//! Every figure is a *grid builder* (the ordered list of [`GridPoint`]s)
//! plus an *assembler* (outcomes → rows) over the one shared [`sweep`],
//! which runs the grid under the [`crate::supervise`] supervisor:
//! per-point panic isolation, deadline retry with budget escalation, a
//! quarantine report rendered into the figure output, and journal-backed
//! resumption via [`SweepOptions::journal`]. There is one entry point per
//! figure; callers that want a failed point to panic chain
//! [`Supervised::expect_healthy`].

use crate::cache::{self, CacheStats};
use crate::journal::{digest, CampaignJournal};
use crate::point::{chaos_tenant, run_point, JournalForm, Outcome, PointSpec, Sharing};
use crate::supervise::{run_supervised, QuarantineReport, SweepOptions};
use crate::{geomean, GpuConfig, Interconnect, PagingMode, Residency, Scheme};
use gex_sim::{BlockSwitchConfig, LocalFaultConfig, PageSizePolicy, PartitionPolicy, TenantId};
use gex_workloads::{suite, Preset, Workload};
use std::fmt;
use std::sync::OnceLock;

/// A small ASCII bar for terminal figures: `width` columns represent
/// `full` (values above `full` saturate).
fn bar(value: f64, full: f64, width: usize) -> String {
    let filled = ((value / full) * width as f64).round().clamp(0.0, width as f64) as usize;
    let mut s = String::with_capacity(width);
    for i in 0..width {
        s.push(if i < filled { '#' } else { '.' });
    }
    s
}

/// A sweep's product plus the supervision diagnostics of the sweep that
/// produced it. Quarantined points render as `NaN` in a figure; the
/// report makes the gaps explicit.
#[derive(Debug, Clone)]
pub struct Supervised<F> {
    /// The assembled figure (partial if anything was quarantined).
    pub fig: F,
    /// Diagnostics for every point the sweep failed to produce.
    pub quarantine: QuarantineReport,
    /// Points answered from the campaign journal without re-simulation.
    pub resumed: usize,
    /// Points simulated by this run.
    pub simulated: usize,
    /// Result-cache counter delta over the sweep (see [`crate::cache`]):
    /// `cache.hits` is how many of this campaign's points were answered
    /// from an earlier identical simulation. Process-global counters, so
    /// concurrent unrelated sweeps inflate each other's deltas.
    pub cache: CacheStats,
}

impl<F> Supervised<F> {
    /// The same diagnostics around `f(fig)` — how a figure's assembler
    /// turns [`sweep`] outcomes into rows.
    pub fn map<G>(self, f: impl FnOnce(F) -> G) -> Supervised<G> {
        Supervised {
            fig: f(self.fig),
            quarantine: self.quarantine,
            resumed: self.resumed,
            simulated: self.simulated,
            cache: self.cache,
        }
    }

    /// Unwrap the figure, panicking (with the full quarantine report) if
    /// any point failed.
    pub fn expect_healthy(self) -> F {
        if !self.quarantine.is_empty() {
            panic!(
                "sweep quarantined {} point(s):\n{}",
                self.quarantine.records.len(),
                self.quarantine
            );
        }
        self.fig
    }
}

impl<F: fmt::Display> fmt::Display for Supervised<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.fig)?;
        writeln!(
            f,
            "sweep: {} point(s) simulated ({} from result cache), {} resumed from journal",
            self.simulated, self.cache.hits, self.resumed
        )?;
        if !self.quarantine.is_empty() {
            write!(f, "{}", self.quarantine)?;
        }
        Ok(())
    }
}

/// One entry of a figure's grid: a stable key (also the journal key), the
/// point itself, and how its outcome is journaled.
#[derive(Debug, Clone)]
pub struct GridPoint<'a> {
    /// Stable point key, unique within the grid.
    pub key: String,
    /// The simulation point.
    pub spec: PointSpec<'a>,
    /// Journal layout of the point's outcome.
    pub form: JournalForm,
}

impl<'a> GridPoint<'a> {
    /// A point journaling its cycle count (and lockout flag).
    pub fn new(key: String, spec: PointSpec<'a>) -> Self {
        GridPoint { key, spec, form: JournalForm::Cycles }
    }
}

/// Run `grid` through [`run_point`] under sweep supervision. With
/// `opts.journal` set the campaign is resumable: the journal is keyed by
/// a digest of `campaign` plus the full ordered key list, and an unusable
/// path degrades to running without resumption rather than failing the
/// sweep. Outcomes come back in grid order, `None` for quarantined
/// points.
pub fn sweep(
    campaign: &str,
    grid: Vec<GridPoint<'_>>,
    opts: &SweepOptions,
) -> Supervised<Vec<Option<Outcome>>> {
    let journal = opts.journal.as_ref().and_then(|path| {
        let keys: Vec<&str> = grid.iter().map(|p| p.key.as_str()).collect();
        let d = digest(&format!("{campaign}|{}", keys.join(",")));
        CampaignJournal::open(path, d)
            .map_err(|e| {
                eprintln!(
                    "warning: journal {} unusable ({e}); running without resume",
                    path.display()
                )
            })
            .ok()
    });
    let forms: Vec<JournalForm> = grid.iter().map(|p| p.form).collect();
    // Counters the journal does not carry (block switches) ride beside it
    // for the points this run simulates.
    let live: Vec<OnceLock<Outcome>> = grid.iter().map(|_| OnceLock::new()).collect();
    let points: Vec<(String, (usize, PointSpec<'_>))> =
        grid.into_iter().enumerate().map(|(i, p)| (p.key, (i, p.spec))).collect();
    let cache_before = cache::stats();
    let out = run_supervised(points, &opts.policy, journal.as_ref(), |(i, spec), budget| {
        let outcome = run_point(spec, budget)?;
        let _ = live[*i].set(outcome);
        Ok(outcome.to_journal(forms[*i]))
    });
    let outcomes = out
        .values
        .iter()
        .zip(&forms)
        .zip(&live)
        .map(|((v, &form), live)| {
            v.map(|v| Outcome {
                switches: live.get().and_then(|o| o.switches),
                ..Outcome::from_journal(v, form)
            })
        })
        .collect();
    Supervised {
        fig: outcomes,
        quarantine: out.quarantine,
        resumed: out.resumed,
        simulated: out.simulated,
        cache: cache::stats().since(&cache_before),
    }
}

/// `num/den` cycles as `f64`, `NaN` when either point was quarantined.
pub fn ratio(num: Option<Outcome>, den: Option<Outcome>) -> f64 {
    match (num, den) {
        (Some(n), Some(d)) => n.cycles as f64 / d.cycles as f64,
        _ => f64::NAN,
    }
}

/// A figure's simulation inputs, in row order: each workload with the
/// one residency every point of that workload shares.
type Inputs = Vec<(Workload, Residency)>;

fn with_residency(
    workloads: Vec<Workload>,
    residency_of: impl Fn(&Workload) -> Residency,
) -> Inputs {
    workloads
        .into_iter()
        .map(|w| {
            let residency = residency_of(&w);
            (w, residency)
        })
        .collect()
}

/// Inputs of Figures 10 and 11: Parboil, everything resident.
/// `AllResident` ignores the residency entirely — the engine pre-maps
/// every touched page — so the points share empty ones.
fn resident_inputs(preset: Preset) -> Inputs {
    with_residency(suite::parboil(preset), |_| Residency::new())
}

/// The workload-major grid every single-stream figure sweeps: each of
/// `inputs` under each `(label, scheme, paging)` variant, keyed
/// `workload/label`.
fn grid<'a>(
    inputs: &'a Inputs,
    sms: u32,
    variants: &[(String, Scheme, PagingMode)],
) -> Vec<GridPoint<'a>> {
    let cfg = GpuConfig::kepler_k20().with_sms(sms);
    inputs
        .iter()
        .flat_map(|(w, res)| {
            let cfg = &cfg;
            variants.iter().map(move |(label, scheme, paging)| {
                GridPoint::new(
                    format!("{}/{label}", w.name),
                    PointSpec::new(w, *scheme, cfg.clone(), *paging, res),
                )
            })
        })
        .collect()
}

/// The fault-free [`grid`] of Figures 10 and 11: one variant per scheme.
fn resident_grid<'a>(inputs: &'a Inputs, sms: u32, schemes: &[Scheme]) -> Vec<GridPoint<'a>> {
    let variants: Vec<_> =
        schemes.iter().map(|&s| (format!("{s:?}"), s, PagingMode::AllResident)).collect();
    grid(inputs, sms, &variants)
}

/// The replay-queue demand-paging [`grid`] of Figures 12-14: one variant
/// per `(label, block switching, local handling)` triple.
fn demand_grid<'a>(
    inputs: &'a Inputs,
    sms: u32,
    interconnect: Interconnect,
    variants: &[(&str, Option<BlockSwitchConfig>, Option<LocalFaultConfig>)],
) -> Vec<GridPoint<'a>> {
    let variants: Vec<_> = variants
        .iter()
        .map(|&(label, block_switch, local_handling)| {
            let paging = PagingMode::Demand { interconnect, block_switch, local_handling };
            (label.to_string(), Scheme::ReplayQueue, paging)
        })
        .collect();
    grid(inputs, sms, &variants)
}

/// A figure's rows: one per workload, from that workload's run of
/// consecutive outcomes.
fn rows<R>(
    inputs: &Inputs,
    out: &[Option<Outcome>],
    row: impl Fn(String, &[Option<Outcome>]) -> R,
) -> Vec<R> {
    inputs
        .iter()
        .zip(out.chunks(out.len() / inputs.len()))
        .map(|((w, _), o)| row(w.name.clone(), o))
        .collect()
}

// ---------------------------------------------------------------- Fig 10

/// One benchmark's bars in Figure 10.
#[derive(Debug, Clone)]
pub struct Fig10Row {
    /// Benchmark name.
    pub benchmark: String,
    /// WD-commit performance normalized to the baseline SM.
    pub wd_commit: f64,
    /// WD-lastcheck normalized performance.
    pub wd_lastcheck: f64,
    /// Replay-queue normalized performance.
    pub replay_queue: f64,
}

/// Figure 10: performance of warp-disable and replay-queue pipelines,
/// normalized to the stall-on-fault baseline (higher is better).
#[derive(Debug, Clone)]
pub struct Fig10 {
    /// Per-benchmark rows.
    pub rows: Vec<Fig10Row>,
}

impl Fig10 {
    /// Geometric means across benchmarks: `(wd_commit, wd_lastcheck,
    /// replay_queue)` — the paper reports 0.84 / 0.90 / 0.94.
    pub fn geomeans(&self) -> (f64, f64, f64) {
        (
            geomean(&self.rows.iter().map(|r| r.wd_commit).collect::<Vec<_>>()),
            geomean(&self.rows.iter().map(|r| r.wd_lastcheck).collect::<Vec<_>>()),
            geomean(&self.rows.iter().map(|r| r.replay_queue).collect::<Vec<_>>()),
        )
    }
}

const FIG10_SCHEMES: [Scheme; 4] =
    [Scheme::Baseline, Scheme::WdCommit, Scheme::WdLastCheck, Scheme::ReplayQueue];

/// Figure 10's grid: every Parboil workload under the baseline and the
/// three preemptible pipelines.
fn fig10_grid(inputs: &Inputs, sms: u32) -> Vec<GridPoint<'_>> {
    resident_grid(inputs, sms, &FIG10_SCHEMES)
}

/// Run the Figure 10 sweep. Every `(workload, scheme)` point is an
/// independent simulation, so the grid is flattened onto the parallel
/// sweep engine and rows are reassembled in workload order. Failed points
/// are quarantined (their rows show `NaN`), deadline overruns retry with
/// escalated budgets, and an attached journal makes the campaign
/// resumable.
pub fn fig10(preset: Preset, sms: u32, opts: &SweepOptions) -> Supervised<Fig10> {
    let inputs = resident_inputs(preset);
    sweep(&format!("fig10|{preset:?}|sms={sms}"), fig10_grid(&inputs, sms), opts).map(|out| Fig10 {
        rows: rows(&inputs, &out, |benchmark, o| Fig10Row {
            benchmark,
            wd_commit: ratio(o[0], o[1]),
            wd_lastcheck: ratio(o[0], o[2]),
            replay_queue: ratio(o[0], o[3]),
        }),
    })
}

impl fmt::Display for Fig10 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 10: normalized performance vs stall-on-fault baseline")?;
        writeln!(f, "{:<14} {:>10} {:>12} {:>13}", "benchmark", "wd-commit", "wd-lastcheck", "replay-queue")?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<14} {:>10.3} {:>12.3} {:>13.3}  |{}|",
                r.benchmark,
                r.wd_commit,
                r.wd_lastcheck,
                r.replay_queue,
                bar(r.replay_queue, 1.0, 20)
            )?;
        }
        let (a, b, c) = self.geomeans();
        writeln!(f, "{:<14} {:>10.3} {:>12.3} {:>13.3}", "geomean", a, b, c)?;
        writeln!(f, "paper:         geomean 0.84 / 0.90 / 0.94; lbm at 0.60 under replay-queue")
    }
}

// ---------------------------------------------------------------- Fig 11

/// One benchmark's bars in Figure 11.
#[derive(Debug, Clone)]
pub struct Fig11Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Normalized performance per studied log size, in the order of
    /// [`Fig11::sizes`].
    pub by_size: Vec<f64>,
}

/// Figure 11: operand-log performance across log sizes, normalized to the
/// baseline SM.
#[derive(Debug, Clone)]
pub struct Fig11 {
    /// Studied log sizes in bytes.
    pub sizes: Vec<u32>,
    /// Per-benchmark rows.
    pub rows: Vec<Fig11Row>,
}

impl Fig11 {
    /// Geometric mean per size (paper: 0.966 at 8 KB, 0.992 at 16 KB).
    pub fn geomeans(&self) -> Vec<f64> {
        (0..self.sizes.len())
            .map(|i| geomean(&self.rows.iter().map(|r| r.by_size[i]).collect::<Vec<_>>()))
            .collect()
    }
}

/// Figure 11's grid: per Parboil workload, the baseline plus one
/// operand-log run per entry of `sizes` (bytes).
fn fig11_grid<'a>(inputs: &'a Inputs, sms: u32, sizes: &[u32]) -> Vec<GridPoint<'a>> {
    let schemes: Vec<Scheme> = std::iter::once(Scheme::Baseline)
        .chain(sizes.iter().map(|&bytes| Scheme::OperandLog { bytes }))
        .collect();
    resident_grid(inputs, sms, &schemes)
}

/// Run the Figure 11 sweep over the paper's four log sizes (see
/// [`fig10`] for the supervision contract).
pub fn fig11(preset: Preset, sms: u32, opts: &SweepOptions) -> Supervised<Fig11> {
    let sizes: Vec<u32> = gex_power::studied_sizes().to_vec();
    let inputs = resident_inputs(preset);
    let grid = fig11_grid(&inputs, sms, &sizes);
    sweep(&format!("fig11|{preset:?}|sms={sms}"), grid, opts).map(|out| Fig11 {
        rows: rows(&inputs, &out, |benchmark, o| Fig11Row {
            benchmark,
            by_size: o[1..].iter().map(|&v| ratio(o[0], v)).collect(),
        }),
        sizes,
    })
}

impl fmt::Display for Fig11 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 11: operand log performance by log size (normalized)")?;
        write!(f, "{:<14}", "benchmark")?;
        for s in &self.sizes {
            write!(f, " {:>9}", format!("{}KB", s / 1024))?;
        }
        writeln!(f)?;
        for r in &self.rows {
            write!(f, "{:<14}", r.benchmark)?;
            for v in &r.by_size {
                write!(f, " {v:>9.3}")?;
            }
            writeln!(f)?;
        }
        write!(f, "{:<14}", "geomean")?;
        for g in self.geomeans() {
            write!(f, " {g:>9.3}")?;
        }
        writeln!(f)?;
        writeln!(f, "paper:         geomean 0.966 @8KB, 0.992 @16KB; lbm 0.60 -> 0.97 @16KB")
    }
}

// ---------------------------------------------------------------- Fig 12

/// One benchmark's bars in Figure 12, for one interconnect.
#[derive(Debug, Clone)]
pub struct Fig12Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Speedup of block switching over no-switching demand paging.
    pub switching: f64,
    /// Speedup with ideal (1-cycle) context switches.
    pub ideal: f64,
}

/// Figure 12: thread-block switching on fault, per interconnect.
#[derive(Debug, Clone)]
pub struct Fig12 {
    /// Interconnect of this panel.
    pub interconnect: Interconnect,
    /// Per-benchmark rows.
    pub rows: Vec<Fig12Row>,
}

/// Figure 12's grid. Per workload: plain demand paging, default
/// switching, ideal switching — three independent simulation points.
fn fig12_grid(inputs: &Inputs, sms: u32, interconnect: Interconnect) -> Vec<GridPoint<'_>> {
    let variants = [
        ("demand", None, None),
        ("switch", Some(BlockSwitchConfig::default()), None),
        ("ideal", Some(BlockSwitchConfig::ideal()), None),
    ];
    demand_grid(inputs, sms, interconnect, &variants)
}

/// Run one Figure 12 panel (see [`fig10`] for the supervision contract).
/// The baseline supports preemptible faults with the replay queue but
/// performs no switching, exactly as in Section 5.1.
pub fn fig12(
    preset: Preset,
    sms: u32,
    interconnect: Interconnect,
    opts: &SweepOptions,
) -> Supervised<Fig12> {
    // Demand paging reads the residency, so each workload needs its real
    // page set — one per workload, shared by its three points.
    let inputs = with_residency(suite::parboil(preset), Workload::demand_residency);
    let campaign = format!("fig12|{preset:?}|sms={sms}|{interconnect}");
    sweep(&campaign, fig12_grid(&inputs, sms, interconnect), opts).map(|out| Fig12 {
        interconnect,
        rows: rows(&inputs, &out, |benchmark, o| Fig12Row {
            benchmark,
            switching: ratio(o[0], o[1]),
            ideal: ratio(o[0], o[2]),
        }),
    })
}

impl fmt::Display for Fig12 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 12 ({}): speedup of block switching over no-switching demand paging",
            self.interconnect
        )?;
        writeln!(f, "{:<14} {:>10} {:>10}", "benchmark", "switching", "ideal-cs")?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<14} {:>10.3} {:>10.3}  |{}|",
                r.benchmark,
                r.switching,
                r.ideal,
                bar(r.switching, 1.5, 20)
            )?;
        }
        let g = geomean(&self.rows.iter().map(|r| r.switching).collect::<Vec<_>>());
        writeln!(f, "{:<14} {:>10.3}", "geomean", g)?;
        writeln!(
            f,
            "paper (NVLink): sgemm +13%, stencil +7%, histo +11%; mri-gridding 0.85x; flat mean"
        )
    }
}

// ------------------------------------------------------------ Fig 13/14

/// One benchmark's bars in Figures 13/14, for one interconnect.
#[derive(Debug, Clone)]
pub struct LocalHandlingRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Speedup of GPU-local fault handling over CPU handling.
    pub speedup: f64,
}

/// Figure 13 or 14: GPU-local handling of first-touch faults.
#[derive(Debug, Clone)]
pub struct LocalHandlingFig {
    /// Which figure this is ("13" or "14").
    pub figure: &'static str,
    /// Interconnect of this panel.
    pub interconnect: Interconnect,
    /// Per-benchmark rows.
    pub rows: Vec<LocalHandlingRow>,
}

impl LocalHandlingFig {
    /// Geometric-mean speedup (paper: Fig 13 1.56x NVLink / 1.75x PCIe;
    /// Fig 14 1.05x NVLink / 1.08x PCIe).
    pub fn geomean(&self) -> f64 {
        geomean(&self.rows.iter().map(|r| r.speedup).collect::<Vec<_>>())
    }
}

/// The grid of Figures 13 and 14. Per workload: CPU-handled and
/// GPU-local-handled demand paging.
fn local_handling_grid(
    inputs: &Inputs,
    sms: u32,
    interconnect: Interconnect,
) -> Vec<GridPoint<'_>> {
    let variants = [("cpu", None, None), ("local", None, Some(LocalFaultConfig::default()))];
    demand_grid(inputs, sms, interconnect, &variants)
}

fn local_handling_fig(
    figure: &'static str,
    preset: Preset,
    inputs: Inputs,
    sms: u32,
    interconnect: Interconnect,
    opts: &SweepOptions,
) -> Supervised<LocalHandlingFig> {
    let campaign = format!("fig{figure}|{preset:?}|sms={sms}|{interconnect}");
    sweep(&campaign, local_handling_grid(&inputs, sms, interconnect), opts).map(|out| {
        LocalHandlingFig {
            figure,
            interconnect,
            rows: rows(&inputs, &out, |benchmark, o| LocalHandlingRow {
                benchmark,
                speedup: ratio(o[0], o[1]),
            }),
        }
    })
}

/// Inputs of Figure 13: the Halloc benchmarks + quad-tree, heap lazily
/// backed.
fn fig13_inputs(preset: Preset) -> Inputs {
    with_residency(suite::halloc(preset), Workload::heap_lazy_residency)
}

/// Inputs of Figure 14: Parboil, outputs lazily backed.
fn fig14_inputs(preset: Preset) -> Inputs {
    with_residency(suite::parboil(preset), Workload::outputs_lazy_residency)
}

/// Figure 13: local handling of faults backing dynamically allocated
/// memory (see [`fig10`] for the supervision contract).
pub fn fig13(
    preset: Preset,
    sms: u32,
    interconnect: Interconnect,
    opts: &SweepOptions,
) -> Supervised<LocalHandlingFig> {
    local_handling_fig("13", preset, fig13_inputs(preset), sms, interconnect, opts)
}

/// Figure 14: local handling of faults on kernel output pages (see
/// [`fig10`] for the supervision contract).
pub fn fig14(
    preset: Preset,
    sms: u32,
    interconnect: Interconnect,
    opts: &SweepOptions,
) -> Supervised<LocalHandlingFig> {
    local_handling_fig("14", preset, fig14_inputs(preset), sms, interconnect, opts)
}

impl fmt::Display for LocalHandlingFig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure {} ({}): speedup of GPU-local fault handling over CPU handling",
            self.figure, self.interconnect
        )?;
        writeln!(f, "{:<14} {:>10}", "benchmark", "speedup")?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<14} {:>10.3}  |{}|",
                r.benchmark,
                r.speedup,
                bar(r.speedup, 3.0, 20)
            )?;
        }
        writeln!(f, "{:<14} {:>10.3}", "geomean", self.geomean())?;
        match self.figure {
            "13" => writeln!(f, "paper: geomean 1.56x NVLink, 1.75x PCIe"),
            _ => writeln!(f, "paper: geomean 1.05x NVLink, 1.08x PCIe"),
        }
    }
}

// ----------------------------------------------------------------- Tables

/// Render Table 1 (the simulation parameters) from the live configuration.
pub fn table1() -> String {
    let c = GpuConfig::kepler_k20();
    let mut s = String::new();
    use std::fmt::Write;
    let _ = writeln!(s, "Table 1: simulation parameters");
    let _ = writeln!(s, "SM:");
    let _ = writeln!(s, "  Frequency            1GHz");
    let _ = writeln!(s, "  Max TBs              {}", c.sm.max_blocks);
    let _ = writeln!(s, "  Max Warps            {}", c.sm.max_warps);
    let _ = writeln!(s, "  Register File        {}KB", c.sm.rf_bytes / 1024);
    let _ = writeln!(s, "  Shared memory        {}KB", c.sm.shared_bytes / 1024);
    let _ = writeln!(s, "  Issue ways           {} instructions from 1 or 2 warps", c.sm.issue_width);
    let _ = writeln!(
        s,
        "  Backend units        {} math, {} special func, {} ld/st, {} branch",
        c.sm.math_units, c.sm.sfu_units, c.sm.ldst_units, c.sm.branch_units
    );
    let _ = writeln!(
        s,
        "  L1 cache             {}KB / {}-way LRU / {}B line / {} MSHRs / {} clk / virtual",
        c.mem.l1.bytes / 1024,
        c.mem.l1.ways,
        c.mem.l1.line,
        c.mem.l1.mshrs,
        c.mem.l1.latency
    );
    let _ = writeln!(s, "  L1 TLB               {} entries / {}-way LRU", c.mem.l1_tlb.entries, c.mem.l1_tlb.ways);
    let _ = writeln!(s, "System:");
    let _ = writeln!(s, "  Number of SMs        {}", c.mem.num_sms);
    let _ = writeln!(
        s,
        "  L2 cache             {}MB / {}-way LRU / {}B line / {} clk / {} MSHRs",
        c.mem.l2.bytes / (1024 * 1024),
        c.mem.l2.ways,
        c.mem.l2.line,
        c.mem.l2.latency,
        c.mem.l2.mshrs
    );
    let _ = writeln!(
        s,
        "  L2 TLB               {} entries / {}-way LRU / {} MSHRs / {} clk",
        c.mem.l2_tlb.entries, c.mem.l2_tlb.ways, c.mem.l2_tlb.mshrs, c.mem.l2_tlb.latency
    );
    let _ = writeln!(s, "  Number of PT walkers {}", c.mem.num_walkers);
    let _ = writeln!(s, "  Walking latency      {} clk", c.mem.walk_latency);
    let _ = writeln!(s, "  DRAM bandwidth       {} GB/s", c.mem.dram_bytes_per_cycle);
    let _ = writeln!(s, "  DRAM latency         {} clk", c.mem.dram_latency);
    s
}

/// Render Table 2 (operand log overheads) from the power model.
pub fn table2() -> String {
    let mut s = String::new();
    use std::fmt::Write;
    let _ = writeln!(s, "Table 2: operand logging overheads");
    let _ = writeln!(
        s,
        "{:<9} {:>8} {:>9} {:>9} {:>10}",
        "Log Size", "SM Area", "GPU Area", "SM Power", "GPU Power"
    );
    for bytes in gex_power::studied_sizes() {
        let o = gex_power::operand_log_overheads(bytes);
        let _ = writeln!(
            s,
            "{:<9} {:>7.2}% {:>8.2}% {:>8.2}% {:>9.2}%",
            format!("{} KB", bytes / 1024),
            o.sm_area_pct,
            o.gpu_area_pct,
            o.sm_power_pct,
            o.gpu_power_pct
        );
    }
    s
}

// ------------------------------------------------------------ Scalability

/// One row of the Section 5.5 scalability sweep.
#[derive(Debug, Clone)]
pub struct ScalabilityRow {
    /// SM count.
    pub sms: u32,
    /// Geomean normalized performance of the replay queue (Fig 10 metric).
    pub replay_queue: f64,
    /// Geomean Figure 13 speedup of local handling (NVLink).
    pub local_handling: f64,
}

/// Section 5.5: sweep the SM count and observe that local handling gains
/// grow with it while the pipeline-scheme ordering is preserved. Each SM
/// count runs one Figure 10 and one Figure 13 (NVLink) campaign;
/// journal-backed runs give every inner sweep its own file via
/// [`SweepOptions::panel`] (`"4sm-fig10"`, `"4sm-fig13"`, ...), since
/// journals are digest-keyed per campaign and cannot be shared.
/// Quarantined points are reported with their panel prefixed to the key;
/// rows over quarantined points render as `NaN`.
pub fn scalability(
    preset: Preset,
    sm_counts: &[u32],
    opts: &SweepOptions,
) -> Supervised<Vec<ScalabilityRow>> {
    let cache_before = cache::stats();
    let mut rows = Vec::with_capacity(sm_counts.len());
    let mut quarantine = QuarantineReport::default();
    let (mut resumed, mut simulated) = (0, 0);
    for &sms in sm_counts {
        let f10 = fig10(preset, sms, &opts.panel(&format!("{sms}sm-fig10")));
        let f13 =
            fig13(preset, sms, Interconnect::nvlink(), &opts.panel(&format!("{sms}sm-fig13")));
        rows.push(ScalabilityRow {
            sms,
            replay_queue: f10.fig.geomeans().2,
            local_handling: f13.fig.geomean(),
        });
        quarantine.absorb(&format!("{sms}sm/fig10"), f10.quarantine);
        quarantine.absorb(&format!("{sms}sm/fig13"), f13.quarantine);
        resumed += f10.resumed + f13.resumed;
        simulated += f10.simulated + f13.simulated;
    }
    Supervised {
        fig: rows,
        quarantine,
        resumed,
        simulated,
        cache: cache::stats().since(&cache_before),
    }
}

impl fmt::Display for ScalabilityRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:<6} {:>14.3} {:>16.3}", self.sms, self.replay_queue, self.local_handling)
    }
}

// --------------------------------------------- Multi-tenant containment

/// Short human label for a scheme in figure rows (`Scheme`'s `Debug` form
/// is too wide for the operand log).
fn scheme_label(s: Scheme) -> String {
    match s {
        Scheme::OperandLog { bytes } => format!("OperandLog{}K", bytes / 1024),
        other => format!("{other:?}"),
    }
}

/// One scheme's row in the multi-tenant containment figure.
#[derive(Debug, Clone)]
pub struct FigMtRow {
    /// Exception-scheme label.
    pub scheme: String,
    /// Victim cycles running alone on the full machine (demand paging).
    pub solo_cycles: f64,
    /// Victim slowdown vs the solo run under each policy, in
    /// [`FigMt::POLICIES`] order (`NaN` over quarantined points).
    pub slowdown: Vec<f64>,
    /// Whether the noisy tenant ended the run locked out, per policy
    /// (expected under `static`/`quarantine`, never under `shared`).
    pub chaos_locked_out: Vec<bool>,
}

/// The multi-tenant containment figure: victim slowdown and noisy-tenant
/// lockout across the five exception schemes × the three SM-partitioning
/// policies, with a solo reference run per scheme.
#[derive(Debug, Clone)]
pub struct FigMt {
    /// Per-scheme rows.
    pub rows: Vec<FigMtRow>,
}

impl FigMt {
    /// Policy order of [`FigMtRow::slowdown`] and
    /// [`FigMtRow::chaos_locked_out`].
    pub const POLICIES: [PartitionPolicy; 3] =
        [PartitionPolicy::Shared, PartitionPolicy::Static, PartitionPolicy::Quarantine];
}

/// The five exception schemes the containment and large-page figures
/// sweep.
const FIVE_SCHEMES: [Scheme; 5] = [
    Scheme::Baseline,
    Scheme::WdCommit,
    Scheme::WdLastCheck,
    Scheme::ReplayQueue,
    Scheme::OperandLog { bytes: 8192 },
];

/// Run the multi-tenant containment sweep (see [`fig10`] for the
/// supervision contract). `histo` is the victim, `lbm` (under
/// [`chaos_tenant`]) the noisy neighbor; each scheme runs the pair under
/// every [`FigMt::POLICIES`] entry plus a solo victim reference. Each
/// point journals the victim's cycles with the noisy tenant's lockout
/// flag.
pub fn fig_mt(preset: Preset, sms: u32, opts: &SweepOptions) -> Supervised<FigMt> {
    /// Solo reference plus the three policies: the per-scheme mode grid.
    const MODES: [Option<PartitionPolicy>; 4] = [
        None,
        Some(PartitionPolicy::Shared),
        Some(PartitionPolicy::Static),
        Some(PartitionPolicy::Quarantine),
    ];
    // histo is the fault-heaviest small workload (the victim that notices
    // contention); lbm touches the most fault regions, so the chaos
    // neighbor reliably blows through MT_CHAOS_BUDGET (budgets charge per
    // fresh fault *region*, not per request).
    let victim = suite::by_name("histo", preset).expect("histo in suite");
    let noisy = suite::by_name("lbm", preset).expect("lbm in suite");
    let res = victim.demand_residency();
    let chaos = chaos_tenant(&noisy);
    let grid = FIVE_SCHEMES
        .iter()
        .flat_map(|&s| MODES.iter().map(move |&m| (s, m)))
        .map(|(s, mode)| {
            let solo = PointSpec::new(
                &victim,
                s,
                GpuConfig::kepler_k20().with_sms(sms),
                PagingMode::demand(Interconnect::nvlink()),
                &res,
            );
            match mode {
                None => GridPoint::new(format!("{s:?}/solo"), solo),
                Some(policy) => GridPoint::new(
                    format!("{s:?}/{}", policy.token()),
                    solo.shared(victim_beside(&victim, &chaos, policy)),
                ),
            }
        })
        .collect();
    let campaign = format!("figmt|{preset:?}|sms={sms}|{}+{}", victim.name, noisy.name);
    sweep(&campaign, grid, opts).map(|out| {
        let rows = FIVE_SCHEMES
            .iter()
            .zip(out.chunks(MODES.len()))
            .map(|(&s, o)| FigMtRow {
                scheme: scheme_label(s),
                solo_cycles: o[0].map_or(f64::NAN, |solo| solo.cycles as f64),
                slowdown: o[1..].iter().map(|&v| ratio(v, o[0])).collect(),
                chaos_locked_out: o[1..].iter().map(|v| v.is_some_and(|v| v.locked_out)).collect(),
            })
            .collect();
        FigMt { rows }
    })
}

/// `victim` as an unmetered stream under its own name, sharing the GPU
/// with the metered `chaos` tenant.
fn victim_beside<'a>(
    victim: &Workload,
    chaos: &'a gex_sim::TenantWorkload,
    policy: PartitionPolicy,
) -> Sharing<'a> {
    Sharing {
        policy,
        stream: TenantId::new(victim.name.clone()),
        stream_fault_budget: None,
        neighbor: chaos,
    }
}

impl fmt::Display for FigMt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure MT: victim slowdown under a noisy neighbor (two tenants, chaos injection)"
        )?;
        writeln!(
            f,
            "{:<14} {:>12} {:>9} {:>9} {:>11}   locked out",
            "scheme", "solo-cycles", "shared", "static", "quarantine"
        )?;
        for r in &self.rows {
            let locked: Vec<&str> = FigMt::POLICIES
                .iter()
                .zip(&r.chaos_locked_out)
                .filter(|&(_, &l)| l)
                .map(|(p, _)| p.token())
                .collect();
            writeln!(
                f,
                "{:<14} {:>12.0} {:>8.2}x {:>8.2}x {:>10.2}x   {}",
                r.scheme,
                r.solo_cycles,
                r.slowdown[0],
                r.slowdown[1],
                r.slowdown[2],
                if locked.is_empty() { "-".to_string() } else { locked.join(",") }
            )?;
        }
        writeln!(
            f,
            "victims under static partitioning are byte-identical to solo runs at their SM share;"
        )?;
        writeln!(
            f,
            "quarantine drains and locks out the noisy tenant once its fault budget is exhausted"
        )
    }
}

// ------------------------------------------------ Large pages (Figure LP)

/// One scheme's row in the large-page figure: cycles and translation
/// fault counts per page-size policy.
#[derive(Debug, Clone)]
pub struct FigLpRow {
    /// Exception-scheme label.
    pub scheme: String,
    /// End-to-end cycles per policy, in [`FigLp::POLICIES`] order (`NaN`
    /// over quarantined points).
    pub cycles: Vec<f64>,
    /// Requests that faulted at translation, per policy.
    pub faults: Vec<f64>,
}

/// Figure LP: demand-paging cost across page-size policies (Mosaic-style
/// transparent 2 MB pages), plus a splinter-storm containment leg.
#[derive(Debug, Clone)]
pub struct FigLp {
    /// Per-scheme rows.
    pub rows: Vec<FigLpRow>,
    /// Victim slowdown of the splinter-storm leg: a chaos neighbor
    /// splintering the victim's huge pages under `Transparent`,
    /// normalized to the same two-tenant run under `Small` (`NaN` if
    /// either leg was quarantined).
    pub storm_slowdown: f64,
    /// Whether the storm leg's noisy tenant ended the run quarantined
    /// (its fault budget meters distinct regions, so the splinter storm's
    /// re-faults alone must not lock it out).
    pub storm_locked_out: bool,
}

impl FigLp {
    /// Policy order of [`FigLpRow::cycles`] and [`FigLpRow::faults`].
    pub const POLICIES: [PageSizePolicy; 3] =
        [PageSizePolicy::Small, PageSizePolicy::Transparent, PageSizePolicy::HugeOnly];
}

/// Run the large-page sweep (see [`fig10`] for the supervision
/// contract): `lbm` (the most fault-region-heavy workload) across the
/// five schemes × the three page-size policies, plus the two
/// splinter-storm legs. Grid points journal `(cycles, faulted_requests)`
/// pairs; the storm legs journal `(victim cycles, lockout)` like the
/// multi-tenant figure.
pub fn fig_lp(preset: Preset, sms: u32, opts: &SweepOptions) -> Supervised<FigLp> {
    let w = suite::by_name("lbm", preset).expect("lbm in suite");
    let noisy = suite::by_name("histo", preset).expect("histo in suite");
    let res = w.demand_residency();
    let chaos = chaos_tenant(&noisy);
    let point = |s, policy| {
        PointSpec::new(
            &w,
            s,
            GpuConfig::kepler_k20().with_sms(sms).with_page_size(policy),
            PagingMode::demand(Interconnect::nvlink()),
            &res,
        )
    };
    let mut grid: Vec<GridPoint<'_>> = FIVE_SCHEMES
        .iter()
        .flat_map(|&s| FigLp::POLICIES.iter().map(move |&p| (s, p)))
        .map(|(s, p)| GridPoint {
            key: format!("{s:?}/{}", p.token()),
            spec: point(s, p),
            form: JournalForm::CyclesFaults,
        })
        .collect();
    // The chaos neighbor's write bursts and evictions splinter the
    // victim's coalesced frames; quarantine must meter its budget on
    // distinct regions, not splinter re-faults.
    for p in [PageSizePolicy::Small, PageSizePolicy::Transparent] {
        let storm = victim_beside(&w, &chaos, PartitionPolicy::Quarantine);
        grid.push(GridPoint::new(
            format!("storm/{}", p.token()),
            point(Scheme::ReplayQueue, p).shared(storm),
        ));
    }
    let campaign = format!("figlp|{preset:?}|sms={sms}|{}+{}", w.name, noisy.name);
    sweep(&campaign, grid, opts).map(|out| {
        let (grid, storm) = out.split_at(FIVE_SCHEMES.len() * FigLp::POLICIES.len());
        let column = |o: &[Option<Outcome>], f: fn(Outcome) -> u64| -> Vec<f64> {
            o.iter().map(|v| v.map_or(f64::NAN, |v| f(v) as f64)).collect()
        };
        let rows = FIVE_SCHEMES
            .iter()
            .zip(grid.chunks(FigLp::POLICIES.len()))
            .map(|(&s, o)| FigLpRow {
                scheme: scheme_label(s),
                cycles: column(o, |v| v.cycles),
                faults: column(o, |v| v.faulted_requests),
            })
            .collect();
        FigLp {
            rows,
            storm_slowdown: ratio(storm[1], storm[0]),
            storm_locked_out: storm[1].is_some_and(|v| v.locked_out),
        }
    })
}

impl fmt::Display for FigLp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure LP: demand paging across page-size policies (2 MB large pages)")?;
        writeln!(
            f,
            "{:<14} {:>10} {:>12} {:>10} {:>9} {:>11} {:>9}",
            "scheme", "small", "transparent", "hugeonly", "flt-sm", "flt-trans", "flt-huge"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<14} {:>10.0} {:>12.0} {:>10.0} {:>9.0} {:>11.0} {:>9.0}",
                r.scheme,
                r.cycles[0],
                r.cycles[1],
                r.cycles[2],
                r.faults[0],
                r.faults[1],
                r.faults[2]
            )?;
        }
        writeln!(
            f,
            "splinter storm: victim slowdown {:.2}x (transparent vs small), chaos tenant {}",
            self.storm_slowdown,
            if self.storm_locked_out { "locked out" } else { "not locked out" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bars_render_and_clamp() {
        assert_eq!(bar(0.5, 1.0, 10), "#####.....");
        assert_eq!(bar(2.0, 1.0, 10), "##########");
        assert_eq!(bar(-1.0, 1.0, 4), "....");
    }

    #[test]
    fn table_renderers_mention_key_parameters() {
        let t1 = table1();
        assert!(t1.contains("Max Warps            64"));
        assert!(t1.contains("Number of PT walkers 64"));
        let t2 = table2();
        assert!(t2.contains("1.04%"));
        assert!(t2.contains("2.37%"));
    }

    #[test]
    fn fig10_rows_are_in_unit_range() {
        // Tiny single-benchmark sanity: full sweeps run in the harness.
        let _serial = cache::serialize_cache_tests();
        let histo = vec![suite::by_name("histo", Preset::Test).unwrap()];
        let inputs = with_residency(histo, |_| Residency::new());
        let out = sweep("unit", fig10_grid(&inputs, 2), &SweepOptions::default()).expect_healthy();
        let wd_commit = ratio(out[0], out[1]);
        assert!(wd_commit <= 1.001 && wd_commit > 0.3);
    }
}
