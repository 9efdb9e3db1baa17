//! Cooperative run budgets and cancellation.
//!
//! A supervised sweep gives every simulation point a budget — a simulated
//! -cycle deadline or an externally triggered [`CancelToken`] — and the
//! one tick loop (the whole-GPU engine in `gex-sim`, which the single-SM
//! harness also runs) checks it cooperatively each iteration. A blown
//! budget surfaces as a structured error rather than a hang, so a runaway
//! point costs its budget and nothing more.
//!
//! The budget is the one cycle bound on a run. A budget without a
//! deadline still meters [`MAX_CYCLES_FALLBACK`], so every run is bounded;
//! the simulated machine itself has no cycle cap. The simulator is
//! deterministic, so an overrun is final: the campaign supervisor runs
//! each point once and quarantines an overrun rather than re-running it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The cycle deadline a budget without one meters: a fail-safe that ends
/// a runaway run with [`BudgetExceeded::Cycles`] instead of a hang.
pub const MAX_CYCLES_FALLBACK: u64 = 2_000_000_000;

/// A shared cancellation flag. Cloning shares the flag: cancelling any
/// clone cancels every run holding one.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    cancelled: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Request cancellation: every run checking this token aborts at its
    /// next tick-loop check.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// True once [`CancelToken::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }
}

/// Why a budget check tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetExceeded {
    /// The simulated-cycle deadline passed.
    Cycles {
        /// The configured deadline in simulated cycles.
        deadline: u64,
    },
    /// The attached [`CancelToken`] was cancelled.
    Cancelled,
}

impl std::fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BudgetExceeded::Cycles { deadline } => {
                write!(f, "cycle deadline of {deadline} simulated cycles exceeded")
            }
            BudgetExceeded::Cancelled => write!(f, "run cancelled"),
        }
    }
}

/// Per-run budget threaded into a tick loop. The default budget has no
/// token and meters [`MAX_CYCLES_FALLBACK`].
#[derive(Debug, Clone, Default)]
pub struct RunBudget {
    /// Abort once the simulated clock reaches this cycle
    /// ([`MAX_CYCLES_FALLBACK`] when `None`).
    pub deadline_cycles: Option<u64>,
    /// Abort when this token is cancelled.
    pub token: Option<CancelToken>,
}

impl RunBudget {
    /// No explicit budget: the run is bounded by [`MAX_CYCLES_FALLBACK`]
    /// and the forward-progress watchdog.
    pub fn none() -> Self {
        RunBudget::default()
    }

    /// Budget of `n` simulated cycles.
    pub fn cycles(n: u64) -> Self {
        RunBudget { deadline_cycles: Some(n), ..RunBudget::default() }
    }

    /// Attach a cancellation token.
    pub fn with_token(mut self, token: CancelToken) -> Self {
        self.token = Some(token);
        self
    }

    /// Start metering this budget for one run.
    pub fn start(&self) -> BudgetMeter {
        BudgetMeter {
            deadline_cycles: self.deadline_cycles.unwrap_or(MAX_CYCLES_FALLBACK),
            token: self.token.clone(),
        }
    }
}

/// One run's budget as its tick loop checks it; created by
/// [`RunBudget::start`] and polled once per iteration via
/// [`BudgetMeter::check`].
#[derive(Debug, Clone)]
pub struct BudgetMeter {
    deadline_cycles: u64,
    token: Option<CancelToken>,
}

impl BudgetMeter {
    /// Cooperative check, called once per tick-loop iteration with the
    /// current simulated cycle. Returns the first limit that tripped.
    #[inline]
    pub fn check(&self, now_cycles: u64) -> Option<BudgetExceeded> {
        if now_cycles >= self.deadline_cycles {
            return Some(BudgetExceeded::Cycles { deadline: self.deadline_cycles });
        }
        if let Some(t) = &self.token {
            if t.is_cancelled() {
                return Some(BudgetExceeded::Cancelled);
            }
        }
        None
    }

    /// The cycle deadline — tick loops that skip idle stretches clamp
    /// their jump target to this so the deadline fires at its exact cycle.
    pub fn deadline_cycles(&self) -> u64 {
        self.deadline_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_trips() {
        let m = RunBudget::none().start();
        for c in [0, 1_000_000, MAX_CYCLES_FALLBACK - 1] {
            assert_eq!(m.check(c), None);
        }
        assert_eq!(
            m.check(MAX_CYCLES_FALLBACK),
            Some(BudgetExceeded::Cycles { deadline: MAX_CYCLES_FALLBACK }),
            "a budget without a deadline still meters the fallback"
        );
    }

    #[test]
    fn cycle_deadline_trips_at_exactly_its_cycle() {
        let m = RunBudget::cycles(100).start();
        assert_eq!(m.check(99), None);
        assert_eq!(m.check(100), Some(BudgetExceeded::Cycles { deadline: 100 }));
        assert_eq!(m.deadline_cycles(), 100);
    }

    #[test]
    fn cancel_token_is_shared_across_clones() {
        let token = CancelToken::new();
        let m = RunBudget::none().with_token(token.clone()).start();
        assert_eq!(m.check(5), None);
        token.cancel();
        assert_eq!(m.check(6), Some(BudgetExceeded::Cancelled));
    }

    #[test]
    fn exceeded_renders_its_cause() {
        assert!(BudgetExceeded::Cycles { deadline: 7 }.to_string().contains('7'));
        assert!(BudgetExceeded::Cancelled.to_string().contains("cancelled"));
    }
}
