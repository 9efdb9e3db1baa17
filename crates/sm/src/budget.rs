//! Cooperative run budgets and cancellation.
//!
//! A supervised sweep gives every simulation point a budget — a simulated
//! -cycle deadline or an externally triggered [`CancelToken`] — and the
//! one tick loop (the whole-GPU engine in `gex-sim`, which the single-SM
//! harness also runs) checks it cooperatively each iteration. A blown
//! budget surfaces as a structured error rather than a hang, so a runaway
//! point costs its budget and nothing more.
//!
//! The budget is deliberately separate from the `max_cycles` runaway
//! guard: `max_cycles` is a fail-safe against simulator bugs, while a
//! budget is supervision policy (retryable, escalated across attempts by
//! the campaign supervisor).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

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

/// Per-run budget threaded into a tick loop. The default budget is
/// unlimited and adds no observable cost.
#[derive(Debug, Clone, Default)]
pub struct RunBudget {
    /// Abort once the simulated clock reaches this cycle.
    pub deadline_cycles: Option<u64>,
    /// Abort when this token is cancelled.
    pub token: Option<CancelToken>,
}

impl RunBudget {
    /// No budget: the run is bounded only by the runaway guards.
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

    /// True if no limit of any kind is configured.
    pub fn is_unlimited(&self) -> bool {
        self.deadline_cycles.is_none() && self.token.is_none()
    }

    /// The same budget with the cycle deadline multiplied by
    /// `1 << attempt` — the supervisor's escalation policy, so a deadline
    /// retry actually has room to succeed (the simulator is
    /// deterministic; retrying with the same budget would fail the same
    /// way).
    pub fn escalated(&self, attempt: u32) -> Self {
        let mut b = self.clone();
        if let Some(d) = b.deadline_cycles {
            b.deadline_cycles = Some(d.saturating_mul(1u64 << attempt.min(32)));
        }
        b
    }

    /// Start metering this budget for one run.
    pub fn start(&self) -> BudgetMeter {
        BudgetMeter { deadline_cycles: self.deadline_cycles, token: self.token.clone() }
    }
}

/// One run's budget as its tick loop checks it; created by
/// [`RunBudget::start`] and polled once per iteration via
/// [`BudgetMeter::check`].
#[derive(Debug, Clone)]
pub struct BudgetMeter {
    deadline_cycles: Option<u64>,
    token: Option<CancelToken>,
}

impl BudgetMeter {
    /// Cooperative check, called once per tick-loop iteration with the
    /// current simulated cycle. Returns the first limit that tripped.
    #[inline]
    pub fn check(&self, now_cycles: u64) -> Option<BudgetExceeded> {
        if let Some(d) = self.deadline_cycles {
            if now_cycles >= d {
                return Some(BudgetExceeded::Cycles { deadline: d });
            }
        }
        if let Some(t) = &self.token {
            if t.is_cancelled() {
                return Some(BudgetExceeded::Cancelled);
            }
        }
        None
    }

    /// The cycle deadline, if one is configured — tick loops that skip
    /// idle stretches clamp their jump target to this so the deadline
    /// fires at its exact cycle.
    pub fn deadline_cycles(&self) -> Option<u64> {
        self.deadline_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_trips() {
        let m = RunBudget::none().start();
        assert!(RunBudget::none().is_unlimited());
        for c in [0, 1_000_000, u64::MAX] {
            assert_eq!(m.check(c), None);
        }
    }

    #[test]
    fn cycle_deadline_trips_at_exactly_its_cycle() {
        let m = RunBudget::cycles(100).start();
        assert_eq!(m.check(99), None);
        assert_eq!(m.check(100), Some(BudgetExceeded::Cycles { deadline: 100 }));
        assert_eq!(m.deadline_cycles(), Some(100));
    }

    #[test]
    fn cancel_token_is_shared_across_clones() {
        let token = CancelToken::new();
        let m = RunBudget::none().with_token(token.clone()).start();
        assert!(!RunBudget::none().with_token(token.clone()).is_unlimited());
        assert_eq!(m.check(5), None);
        token.cancel();
        assert_eq!(m.check(6), Some(BudgetExceeded::Cancelled));
    }

    #[test]
    fn escalation_doubles_cycle_budgets_per_attempt() {
        let b = RunBudget::cycles(100);
        assert_eq!(b.escalated(0).deadline_cycles, Some(100));
        assert_eq!(b.escalated(1).deadline_cycles, Some(200));
        assert_eq!(b.escalated(3).deadline_cycles, Some(800));
        assert_eq!(RunBudget::none().escalated(4).deadline_cycles, None);
    }

    #[test]
    fn exceeded_renders_its_cause() {
        assert!(BudgetExceeded::Cycles { deadline: 7 }.to_string().contains('7'));
        assert!(BudgetExceeded::Cancelled.to_string().contains("cancelled"));
    }
}
