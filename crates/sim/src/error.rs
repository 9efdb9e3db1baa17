//! Structured run-abort errors for the whole-GPU simulator.
//!
//! Every way a run can fail to finish — a wedged configuration caught by
//! the forward-progress watchdog, a blown run budget, stall-mode faults
//! with no handler, or a fatal SM/memory condition — surfaces through
//! [`Gpu::try_run`](crate::gpu::Gpu::try_run) as a [`SimError`] carrying
//! enough state to diagnose the hang: which warps are stuck on which
//! regions, and what the fault queue still holds.

use gex_mem::{Cycle, FaultEntry, MemError};
use gex_sm::{BudgetExceeded, SmError, WarpDiag, WarpState};

/// Diagnostic snapshot taken when the forward-progress watchdog fires.
#[derive(Debug, Clone)]
pub struct WatchdogDiagnostic {
    /// Cycle at which the watchdog fired.
    pub cycle: Cycle,
    /// Cycle of the last observed progress (commit, fault resolution or
    /// block dispatch).
    pub last_progress: Cycle,
    /// The configured no-progress window.
    pub window: Cycle,
    /// Warp instructions committed before the run wedged.
    pub committed: u64,
    /// Blocks completed out of the launch total.
    pub completed_blocks: u64,
    /// Total blocks in the launch.
    pub total_blocks: u64,
    /// Scheduling state of every resident warp (stuck warps included).
    pub warps: Vec<WarpDiag>,
    /// Pending entries in the fill unit's fault queue.
    pub fault_queue: Vec<FaultEntry>,
    /// Regions marked in-service by a handler when the run wedged.
    pub in_service: Vec<u64>,
}

impl WatchdogDiagnostic {
    /// The warps that cannot be scheduled (faulted or trapped).
    pub fn stuck_warps(&self) -> Vec<&WarpDiag> {
        self.warps
            .iter()
            .filter(|w| matches!(w.state, WarpState::Faulted | WarpState::Trapped))
            .collect()
    }
}

impl std::fmt::Display for WatchdogDiagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "no forward progress for {} cycles (cycle {}, last progress at {}): \
             {}/{} blocks done, {} instructions committed",
            self.window,
            self.cycle,
            self.last_progress,
            self.completed_blocks,
            self.total_blocks,
            self.committed
        )?;
        writeln!(
            f,
            "  fault queue: {} pending, {} in service",
            self.fault_queue.len(),
            self.in_service.len()
        )?;
        for e in self.fault_queue.iter().take(8) {
            writeln!(
                f,
                "    region {:#x} {:?} (first SM {}, enqueued at {}, {} retries)",
                e.region, e.kind, e.first_sm, e.enqueued_at, e.retries
            )?;
        }
        let stuck = self.stuck_warps();
        writeln!(f, "  stuck warps: {}", stuck.len())?;
        for w in stuck.iter().take(8) {
            writeln!(
                f,
                "    SM {} block {} warp {}: {:?}, waiting on {:x?}, {} replays, \
                 at instruction {}/{}",
                w.sm,
                w.block_id,
                w.warp,
                w.state,
                w.waiting_regions,
                w.replay_len,
                w.next_issue,
                w.trace_len
            )?;
        }
        Ok(())
    }
}

/// Diagnostic snapshot taken when a cooperative [`RunBudget`]
/// (see [`gex_sm::RunBudget`]) trips mid-run.
#[derive(Debug, Clone)]
pub struct DeadlineDiagnostic {
    /// Cycle at which the budget check fired.
    pub cycle: Cycle,
    /// Which limit tripped (cycle deadline or cancellation).
    pub cause: BudgetExceeded,
    /// Blocks completed out of the launch total when the budget tripped.
    pub completed_blocks: u64,
    /// Total blocks in the launch.
    pub total_blocks: u64,
    /// Warp instructions committed before the budget tripped.
    pub committed: u64,
}

impl std::fmt::Display for DeadlineDiagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} at cycle {} ({}/{} blocks done, {} instructions committed)",
            self.cause, self.cycle, self.completed_blocks, self.total_blocks, self.committed
        )
    }
}

/// Why a whole-GPU run aborted.
#[derive(Debug, Clone)]
pub enum SimError {
    /// The forward-progress watchdog fired: no warp committed, no fault
    /// resolved and no block dispatched for the configured window.
    Watchdog(Box<WatchdogDiagnostic>),
    /// The run blew its cooperative budget: the cycle deadline (the
    /// run's one cycle bound, a fallback when none is set) or
    /// cancellation.
    Deadline(Box<DeadlineDiagnostic>),
    /// Stall-mode faults are pending but the paging mode provides no
    /// handler to resolve them: the run can never finish.
    NoFaultHandler {
        /// Faults pending in the fill unit's queue.
        pending_faults: usize,
    },
    /// The run asked for more concurrent kernel streams than the GPU has
    /// SMs to host (each SM runs one tenant's kernel at a time), or for a
    /// GPU with no SMs at all. A configuration error, not a simulation
    /// failure — reachable from user-supplied campaign specs, so it must
    /// reject cleanly instead of panicking.
    Oversubscribed {
        /// Concurrent kernel streams requested.
        tenants: usize,
        /// SMs configured.
        sms: u32,
    },
    /// The SM pipeline hit a fatal invariant violation.
    Sm(SmError),
    /// The memory system hit a fatal condition (e.g. a workload touching
    /// unregistered memory).
    Mem(MemError),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Watchdog(d) => write!(f, "watchdog: {d}"),
            SimError::Deadline(d) => write!(f, "deadline: {d}"),
            SimError::NoFaultHandler { pending_faults } => write!(
                f,
                "{pending_faults} fault(s) pending but no handler configured: a \
                 non-preemptible scheme needs a CPU handler (demand paging) or full residency"
            ),
            SimError::Oversubscribed { tenants, sms } => write!(
                f,
                "cannot run {tenants} tenant(s) on {sms} SM(s): each tenant needs at \
                 least one SM"
            ),
            SimError::Sm(e) => write!(f, "{e}"),
            SimError::Mem(e) => write!(f, "{e}"),
        }
    }
}

impl SimError {
    /// True for budget overruns (cycle deadline or cancellation). The
    /// simulator is deterministic, so a campaign supervisor quarantines
    /// an overrun as it does every other error; this only classifies it.
    pub fn is_deadline(&self) -> bool {
        matches!(self, SimError::Deadline(_))
    }

    /// True when the budget tripped because its [`CancelToken`]
    /// (see [`gex_sm::CancelToken`]) was cancelled. Cancellation is a
    /// request to stop, not a resource overrun, so supervisors report it
    /// apart from a cycle-deadline overrun.
    pub fn is_cancelled(&self) -> bool {
        matches!(
            self,
            SimError::Deadline(d) if matches!(d.cause, BudgetExceeded::Cancelled)
        )
    }
}

impl std::error::Error for SimError {}

impl From<SmError> for SimError {
    fn from(e: SmError) -> Self {
        SimError::Sm(e)
    }
}

impl From<MemError> for SimError {
    fn from(e: MemError) -> Self {
        SimError::Mem(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watchdog_display_lists_stuck_state() {
        let d = WatchdogDiagnostic {
            cycle: 10_000,
            last_progress: 4_000,
            window: 6_000,
            committed: 42,
            completed_blocks: 1,
            total_blocks: 4,
            warps: vec![WarpDiag {
                sm: 0,
                block_id: 3,
                warp: 1,
                state: WarpState::Faulted,
                waiting_regions: vec![0x10000],
                replay_len: 2,
                next_issue: 17,
                trace_len: 99,
            }],
            fault_queue: Vec::new(),
            in_service: vec![0x10000],
        };
        assert_eq!(d.stuck_warps().len(), 1);
        let s = SimError::Watchdog(Box::new(d)).to_string();
        assert!(s.contains("no forward progress"), "{s}");
        assert!(s.contains("block 3 warp 1"), "{s}");
        let s = SimError::NoFaultHandler { pending_faults: 3 }.to_string();
        assert!(s.contains("no handler"), "{s}");
        let s = SimError::Oversubscribed { tenants: 5, sms: 4 }.to_string();
        assert!(s.contains("5 tenant(s) on 4 SM(s)"), "{s}");
    }
}
