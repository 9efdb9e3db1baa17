//! A single-SM execution harness.
//!
//! Runs a kernel trace to completion on a one-SM [`Gpu`] with every
//! touched page mapped: the engine's global block scheduler (Section 2.1)
//! restricted to one SM, with the engine's budget check, watchdog and
//! idle skip. Used by unit tests, the pipeline-diagram example
//! and quick scheme-vs-scheme comparisons.
//!
//! The one difference from a plain [`Gpu::run`] is that the harness
//! fills the SM before the first cycle. The engine dispatches at the end
//! of each cycle, so a plain run spends its cycle 0 empty and is exactly
//! one cycle longer, with identical [`SmStats`] and [`MemStats`].

use crate::config::{GpuConfig, PagingMode};
use crate::error::SimError;
use crate::gpu::{Engine, Gpu};
use crate::residency::Residency;
use gex_isa::trace::KernelTrace;
use gex_mem::{Cycle, MemStats};
use gex_sm::{ProbeEvent, RunBudget, Scheme, SmConfig, SmStats};

/// Result of a single-SM run.
#[derive(Debug, Clone)]
pub struct SingleSmRun {
    /// Cycle at which the last block finished.
    pub cycles: Cycle,
    /// SM pipeline counters.
    pub sm_stats: SmStats,
    /// Memory hierarchy counters.
    pub mem_stats: MemStats,
    /// Probe events, if probing was enabled.
    pub probe: Vec<ProbeEvent>,
}

/// Builder-style harness around a one-SM [`Gpu`].
#[derive(Debug)]
pub struct SingleSmHarness {
    gpu: Gpu,
    probe: bool,
}

impl SingleSmHarness {
    /// A harness for `scheme` with Table 1 configurations and a 50 M
    /// cycle budget ([`SingleSmHarness::budget`] replaces it).
    pub fn new(scheme: Scheme) -> Self {
        let cfg = GpuConfig::kepler_k20().with_sms(1);
        let gpu = Gpu::new(cfg, scheme, PagingMode::AllResident)
            .budget(RunBudget::cycles(50_000_000));
        SingleSmHarness { gpu, probe: false }
    }

    /// Override the SM configuration.
    pub fn sm_config(mut self, cfg: SmConfig) -> Self {
        self.gpu.cfg.sm = cfg;
        self
    }

    /// Record per-instruction pipeline stage transitions.
    pub fn probe(mut self) -> Self {
        self.probe = true;
        self
    }

    /// Replace the cooperative [`RunBudget`] (cycle deadline, cancellation
    /// token), checked every iteration of the engine loop.
    pub fn budget(mut self, b: RunBudget) -> Self {
        self.gpu = self.gpu.budget(b);
        self
    }

    /// Run every block of `trace` on one SM with all touched pages mapped
    /// (the fault-free configuration of Figures 10 and 11).
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit on the SM or the run aborts (see
    /// [`SingleSmHarness::try_run`] for the non-panicking form).
    pub fn run(&self, trace: &KernelTrace) -> SingleSmRun {
        match self.try_run(trace) {
            Ok(run) => run,
            Err(e) => panic!("{e}"),
        }
    }

    /// Run every block of `trace`, returning the engine's [`SimError`] if
    /// the run wedges (watchdog), exceeds its budget, or
    /// hits a fatal SM/memory condition.
    pub fn try_run(&self, trace: &KernelTrace) -> Result<SingleSmRun, SimError> {
        let mut engine = Engine::new(&self.gpu, &[(trace, &Residency::new())]);
        if self.probe {
            engine.sms[0].enable_probe();
        }
        engine.dispatch_blocks();
        let report = engine.run(trace)?;
        Ok(SingleSmRun {
            cycles: report.cycles,
            sm_stats: report.sm,
            mem_stats: report.mem,
            probe: engine.sms[0].take_probe(),
        })
    }
}
