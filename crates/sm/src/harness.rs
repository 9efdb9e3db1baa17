//! A single-SM execution harness.
//!
//! Runs a kernel trace to completion on one SM (with a private copy of the
//! whole memory hierarchy), dispatching pending blocks as slots free up —
//! exactly the global-scheduler behaviour of Section 2.1 restricted to one
//! SM. Used by unit tests, the pipeline-diagram example and quick
//! scheme-vs-scheme comparisons; the full multi-SM GPU lives in `gex-sim`.
//!
//! The harness carries the same robustness guards as the full simulator: a
//! forward-progress watchdog (no commit for a configurable window aborts
//! with per-warp diagnostics instead of spinning) and typed error
//! propagation from the SM pipeline and the memory system, surfaced via
//! [`SingleSmHarness::try_run`].
//!
//! It also idle-skips the way the engine does: when every resident warp
//! is waiting on an in-flight memory response, the loop skips the SM
//! tick and jumps the clock to the earlier of the memory system's and
//! the SM's next event, clamped so the watchdog, cycle cap and budget
//! deadline still fire at their exact cycles. End-to-end `cycles` and
//! all architectural results are unchanged by the skip; `SmStats.cycles`
//! and `idle_issue_cycles` now count only *ticked* cycles, matching the
//! multi-SM engine's long-standing accounting.
//!
//! The cycles it does tick get quiet ticks the same way the engine does,
//! inside [`Sm::tick`]: a tick that would repeat the last one that issued
//! and fetched nothing is replayed from its record (see "Quiet ticks" in
//! [`crate::sm`]), so the loop here needs no code of its own for it.

use crate::budget::{BudgetExceeded, RunBudget};
use crate::config::SmConfig;
use crate::error::SmError;
use crate::scheme::Scheme;
use crate::sm::{KernelSetup, ProbeEvent, Sm, WarpDiag};
use crate::stats::SmStats;
use gex_isa::trace::KernelTrace;
use gex_mem::system::{FaultMode, MemSystem};
use gex_mem::{Cycle, MemConfig, MemError, MemStats, PageState};
use std::collections::VecDeque;

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

/// Why a single-SM run aborted.
#[derive(Debug, Clone)]
pub enum HarnessError {
    /// No instruction committed for the watchdog window while blocks were
    /// still resident: the run is wedged.
    Watchdog {
        /// Cycle at which the watchdog fired.
        cycle: Cycle,
        /// The no-progress window that elapsed.
        window: Cycle,
        /// Instructions committed before the run wedged.
        committed: u64,
        /// Scheduling state of every resident warp.
        warps: Vec<WarpDiag>,
        /// Faults pending in the fill unit's queue.
        pending_faults: usize,
    },
    /// The run exceeded the configured cycle limit.
    CycleLimit {
        /// The configured limit.
        limit: Cycle,
    },
    /// The run blew its cooperative [`RunBudget`] (deadline, wall limit
    /// or cancellation).
    Budget {
        /// Which limit tripped.
        cause: BudgetExceeded,
        /// Cycle at which the budget check fired.
        cycle: Cycle,
        /// Instructions committed before the budget tripped.
        committed: u64,
    },
    /// The SM pipeline hit a fatal invariant violation.
    Sm(SmError),
    /// The memory system hit a fatal condition.
    Mem(MemError),
}

impl std::fmt::Display for HarnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HarnessError::Watchdog { cycle, window, committed, warps, pending_faults } => {
                write!(
                    f,
                    "single-SM watchdog: no commit for {window} cycles (at cycle {cycle}, \
                     {committed} committed, {} resident warps, {pending_faults} pending faults)",
                    warps.len()
                )
            }
            HarnessError::CycleLimit { limit } => {
                write!(f, "single-SM run exceeded {limit} cycles")
            }
            HarnessError::Budget { cause, cycle, committed } => {
                write!(f, "single-SM budget: {cause} (at cycle {cycle}, {committed} committed)")
            }
            HarnessError::Sm(e) => write!(f, "{e}"),
            HarnessError::Mem(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for HarnessError {}

/// Builder-style harness around one [`Sm`] and one [`MemSystem`].
#[derive(Debug)]
pub struct SingleSmHarness {
    sm_cfg: SmConfig,
    mem_cfg: MemConfig,
    scheme: Scheme,
    probe: bool,
    max_cycles: Cycle,
    watchdog_cycles: Cycle,
    budget: RunBudget,
}

impl SingleSmHarness {
    /// A harness for `scheme` with Table 1 configurations.
    pub fn new(scheme: Scheme) -> Self {
        SingleSmHarness {
            sm_cfg: SmConfig::kepler_k20(),
            mem_cfg: MemConfig::kepler_k20().with_sms(1),
            scheme,
            probe: false,
            max_cycles: 50_000_000,
            watchdog_cycles: 5_000_000,
            budget: RunBudget::none(),
        }
    }

    /// Override the SM configuration.
    pub fn sm_config(mut self, cfg: SmConfig) -> Self {
        self.sm_cfg = cfg;
        self
    }

    /// Record per-instruction pipeline stage transitions.
    pub fn probe(mut self) -> Self {
        self.probe = true;
        self
    }

    /// Abort if the run exceeds this many cycles.
    pub fn max_cycles(mut self, c: Cycle) -> Self {
        self.max_cycles = c;
        self
    }

    /// Abort if no instruction commits for this many consecutive cycles
    /// while work is still resident (forward-progress watchdog).
    pub fn watchdog_cycles(mut self, c: Cycle) -> Self {
        self.watchdog_cycles = c;
        self
    }

    /// Attach a cooperative [`RunBudget`] (cycle deadline, wall limit,
    /// cancellation token), checked every iteration of the tick loop.
    pub fn budget(mut self, b: RunBudget) -> Self {
        self.budget = b;
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

    /// Run every block of `trace`, returning a structured error if the run
    /// wedges (watchdog), exceeds the cycle limit, or hits a fatal
    /// SM/memory condition.
    pub fn try_run(&self, trace: &KernelTrace) -> Result<SingleSmRun, HarnessError> {
        let mode = if self.scheme.preemptible() {
            FaultMode::SquashNotify
        } else {
            FaultMode::StallReplay
        };
        let mut mem = MemSystem::new(self.mem_cfg.clone(), mode);
        // Pre-map everything the kernel touches: no faults occur.
        for &page in trace.touched_pages() {
            mem.page_table.set_range(page, 1, PageState::Present);
        }
        let mut sm = Sm::new(0, self.sm_cfg.clone(), self.scheme);
        if self.probe {
            sm.enable_probe();
        }
        sm.configure_kernel(KernelSetup::for_trace(&self.sm_cfg, trace));
        let mut pending: VecDeque<_> = trace.arc_blocks().iter().cloned().collect();

        let mut now: Cycle = 0;
        let mut last_progress: Cycle = 0;
        let mut last_committed: u64 = 0;
        let mut meter = self.budget.start();
        loop {
            if let Some(cause) = meter.check(now) {
                return Err(HarnessError::Budget {
                    cause,
                    cycle: now,
                    committed: sm.stats().committed,
                });
            }
            while sm.free_slot().is_some() && !pending.is_empty() {
                let b = pending.pop_front().expect("non-empty pending");
                sm.assign_block(b);
                last_progress = now;
            }
            mem.tick(now);
            if let Some(e) = mem.take_error() {
                return Err(HarnessError::Mem(e));
            }
            // Same gate as the multi-SM engine: a stalled SM with no
            // events to deliver cannot change state this cycle.
            let stalled = sm.is_stalled() && !mem.has_pending_events(0);
            if !stalled {
                sm.tick(now, &mut mem);
                if let Some(e) = sm.take_error() {
                    return Err(HarnessError::Sm(e));
                }
                sm.drain_completed();
            }
            if sm.is_empty() && pending.is_empty() {
                break;
            }
            let committed = sm.stats().committed;
            if committed != last_committed {
                last_committed = committed;
                last_progress = now;
            } else if now - last_progress >= self.watchdog_cycles {
                return Err(HarnessError::Watchdog {
                    cycle: now,
                    window: self.watchdog_cycles,
                    committed,
                    warps: sm.warp_diagnostics(),
                    pending_faults: mem.fault_queue.len(),
                });
            }
            // Idle skip: every warp is waiting on an in-flight memory
            // response, so jump to its arrival — clamped so the watchdog,
            // the cycle cap and the budget deadline each fire at their
            // exact cycle (the engine's contract).
            if stalled {
                let next = match (mem.next_event_cycle(), sm.next_event_cycle()) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
                if let Some(next) = next {
                    if next > now + 1 {
                        let mut deadline =
                            (last_progress + self.watchdog_cycles).min(self.max_cycles);
                        if let Some(d) = meter.deadline_cycles() {
                            deadline = deadline.min(d);
                        }
                        let target = next.min(deadline);
                        if target > now {
                            now = target;
                            continue;
                        }
                    }
                }
            }
            now += 1;
            if now >= self.max_cycles {
                return Err(HarnessError::CycleLimit { limit: self.max_cycles });
            }
        }
        Ok(SingleSmRun {
            cycles: now,
            sm_stats: sm.stats(),
            mem_stats: mem.stats(),
            probe: sm.take_probe(),
        })
    }
}
