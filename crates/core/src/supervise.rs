//! Resilient sweep supervision: panic isolation, per-point budgets,
//! quarantine, and journal-backed resumption.
//!
//! A figure campaign is a grid of independent simulation points. Without
//! supervision, one pathological point — a panic in the simulator, a
//! configuration that needs 100x the cycles of its neighbours — takes the
//! whole campaign down and discards every finished result. The supervisor
//! wraps each point so a campaign always completes:
//!
//! * **Panic isolation** — a panicking point is caught at the job
//!   boundary (`gex_exec::try_par_map`) and quarantined with its payload;
//!   every other point is untouched and byte-identical to an undisturbed
//!   run.
//! * **Deadlines** — each point runs once under the policy's
//!   [`RunBudget`]; a blown budget surfaces as a typed error, never a
//!   hang. The simulator is deterministic, so re-running a failed point
//!   only repeats the failure: every failure — panic, overrun,
//!   cancellation or fatal simulator error — is quarantined after its
//!   one run.
//! * **Resumption** — with a [`CampaignJournal`] attached, completed
//!   points are recorded as they finish and skipped on re-run, so a
//!   killed campaign resumes where it stopped and reproduces the same
//!   figure bytes.

use crate::journal::CampaignJournal;
use gex_sim::{RunBudget, SimError};
use std::fmt;
use std::time::{Duration, Instant};

/// How the supervisor treats failures.
#[derive(Debug, Clone, Default)]
pub struct SupervisePolicy {
    /// Per-point budget. The default has no explicit deadline (points
    /// are bounded by the budget's fallback deadline and the watchdog).
    pub budget: RunBudget,
}

/// Why a point landed in quarantine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The point panicked; the payload is in the record.
    Panic,
    /// The point blew its cycle budget.
    Deadline,
    /// A fatal simulator error (wedge, missing handler, ...).
    Fatal,
    /// The point's budget token was cancelled mid-run: stopping was
    /// requested, nothing failed.
    Cancelled,
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureKind::Panic => write!(f, "panic"),
            FailureKind::Deadline => write!(f, "deadline"),
            FailureKind::Fatal => write!(f, "fatal"),
            FailureKind::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// One quarantined point.
#[derive(Debug, Clone)]
pub struct QuarantineRecord {
    /// The point's stable key (also its journal key).
    pub key: String,
    /// Failure classification.
    pub kind: FailureKind,
    /// Wall-clock time spent on the point.
    pub elapsed: Duration,
    /// The rendered error or panic payload.
    pub error: String,
}

/// Every point a sweep failed to produce, with diagnostics. Rendered into
/// figure output so a partial campaign is explicit about what is missing.
#[derive(Debug, Clone, Default)]
pub struct QuarantineReport {
    /// Quarantined points, in sweep order.
    pub records: Vec<QuarantineRecord>,
}

impl QuarantineReport {
    /// True when every point succeeded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The quarantined keys, in sweep order.
    pub fn keys(&self) -> Vec<&str> {
        self.records.iter().map(|r| r.key.as_str()).collect()
    }

    /// Fold one panel's quarantine into a run-wide report, prefixing its
    /// keys with `panel/`.
    pub fn absorb(&mut self, panel: &str, other: QuarantineReport) {
        self.records.extend(other.records.into_iter().map(|mut r| {
            r.key = format!("{panel}/{}", r.key);
            r
        }));
    }
}

impl fmt::Display for QuarantineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.records.is_empty() {
            return writeln!(f, "quarantine: empty (all points healthy)");
        }
        writeln!(f, "quarantine: {} point(s)", self.records.len())?;
        for r in &self.records {
            writeln!(
                f,
                "  {} [{}] in {:.1?}: {}",
                r.key, r.kind, r.elapsed, r.error
            )?;
        }
        Ok(())
    }
}

/// Everything a figure driver needs to know about how to run its sweep:
/// the failure policy plus an optional journal path for resumable
/// campaigns.
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Quarantine policy and per-point budget.
    pub policy: SupervisePolicy,
    /// Journal file for resumable campaigns; `None` disables journaling.
    pub journal: Option<std::path::PathBuf>,
}

impl SweepOptions {
    /// The same options for one panel of a multi-sweep campaign. Journals
    /// are digest-keyed per sweep and cannot be shared, so `panel` is
    /// appended to the journal's file stem (`camp.jsonl` →
    /// `camp-nvlink.jsonl`).
    pub fn panel(&self, panel: &str) -> SweepOptions {
        let journal = self.journal.as_ref().map(|p| {
            let stem = p.file_stem().and_then(|s| s.to_str()).unwrap_or("gex-campaign");
            let ext = p.extension().and_then(|s| s.to_str()).unwrap_or("jsonl");
            p.with_file_name(format!("{stem}-{panel}.{ext}"))
        });
        SweepOptions { policy: self.policy.clone(), journal }
    }
}

/// The result of a supervised sweep.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Per-point cycle counts in input order; `None` for quarantined
    /// points.
    pub values: Vec<Option<u64>>,
    /// Diagnostics for every missing point.
    pub quarantine: QuarantineReport,
    /// Points answered from the journal without re-simulation.
    pub resumed: usize,
    /// Points simulated by this run.
    pub simulated: usize,
}

/// One failed point, internal to the sweep job.
struct PointFailure {
    kind: FailureKind,
    elapsed: Duration,
    error: String,
}

/// Run every `(key, point)` through `run` on the parallel sweep engine
/// under `policy`, optionally resuming from / recording into `journal`.
///
/// `run` receives the point and the policy's budget, is called once per
/// point, and returns the point's cycle count or a [`SimError`]. Results come back
/// in input order regardless of worker interleaving, and a healthy
/// point's value is independent of other points' failures — the
/// keystone property that makes partial figures trustworthy.
pub fn run_supervised<P, F>(
    points: Vec<(String, P)>,
    policy: &SupervisePolicy,
    journal: Option<&CampaignJournal>,
    run: F,
) -> SweepOutcome
where
    P: Send,
    F: Fn(&P, &RunBudget) -> Result<u64, SimError> + Sync,
{
    let n = points.len();
    let mut values: Vec<Option<u64>> = vec![None; n];
    let mut resumed = 0;
    let mut pending: Vec<(usize, String, P)> = Vec::new();
    for (i, (key, p)) in points.into_iter().enumerate() {
        if let Some(v) = journal.and_then(|j| j.get(&key)) {
            values[i] = Some(v);
            resumed += 1;
        } else {
            pending.push((i, key, p));
        }
    }

    // (original index, key) per pending job, for mapping panics back —
    // `try_par_map` reports a panicking job only by its index.
    let meta: Vec<(usize, String)> =
        pending.iter().map(|(i, k, _)| (*i, k.clone())).collect();
    let results = gex_exec::try_par_map(pending, |(_, key, p)| {
        let started = Instant::now();
        match run(&p, &policy.budget) {
            Ok(cycles) => {
                if let Some(j) = journal {
                    // Journal as soon as the point completes, so a killed
                    // campaign keeps everything it finished.
                    j.record(&key, cycles);
                }
                Ok(cycles)
            }
            Err(e) => {
                let kind = if e.is_cancelled() {
                    FailureKind::Cancelled
                } else if e.is_deadline() {
                    FailureKind::Deadline
                } else {
                    FailureKind::Fatal
                };
                Err(PointFailure { kind, elapsed: started.elapsed(), error: e.to_string() })
            }
        }
    });

    let mut quarantine = QuarantineReport::default();
    let mut simulated = 0;
    for (j, result) in results.into_iter().enumerate() {
        let (orig, ref key) = meta[j];
        match result {
            Ok(Ok(cycles)) => {
                values[orig] = Some(cycles);
                simulated += 1;
            }
            Ok(Err(fail)) => quarantine.records.push(QuarantineRecord {
                key: key.clone(),
                kind: fail.kind,
                elapsed: fail.elapsed,
                error: fail.error,
            }),
            Err(job) => quarantine.records.push(QuarantineRecord {
                key: key.clone(),
                kind: FailureKind::Panic,
                elapsed: job.elapsed,
                error: job.payload,
            }),
        }
    }
    SweepOutcome { values, quarantine, resumed, simulated }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gex_sim::{BudgetExceeded, DeadlineDiagnostic};
    use std::sync::atomic::Ordering;

    fn deadline_err(cycle: u64) -> SimError {
        SimError::Deadline(Box::new(DeadlineDiagnostic {
            cycle,
            cause: BudgetExceeded::Cycles { deadline: cycle },
            completed_blocks: 0,
            total_blocks: 1,
            committed: 0,
        }))
    }

    #[test]
    fn healthy_points_pass_through_in_order() {
        let points: Vec<(String, u64)> =
            (0..8).map(|i| (format!("p{i}"), i * 10)).collect();
        let out = run_supervised(points, &SupervisePolicy::default(), None, |p, _| Ok(*p));
        assert_eq!(out.values, (0..8).map(|i| Some(i * 10)).collect::<Vec<_>>());
        assert!(out.quarantine.is_empty());
        assert_eq!((out.resumed, out.simulated), (0, 8));
    }

    #[test]
    fn a_policy_without_a_deadline_runs_points_unbudgeted() {
        // The regression this pins down: runners used to
        // `budget.deadline_cycles.unwrap()`, so a default policy (no
        // deadline) panicked inside the sweep and surfaced as a bogus
        // quarantine instead of running the point.
        let policy = SupervisePolicy::default();
        assert_eq!(policy.budget.deadline_cycles, None);
        let out = run_supervised(
            vec![("free".to_string(), 7u64)],
            &policy,
            None,
            |p, budget| match budget.deadline_cycles {
                Some(d) => Err(deadline_err(d)),
                None => Ok(*p),
            },
        );
        assert_eq!(out.values, vec![Some(7)]);
        assert!(out.quarantine.is_empty(), "{}", out.quarantine);
    }

    #[test]
    fn cancelled_points_never_retry_and_report_as_cancelled() {
        let cancelled_err = || {
            SimError::Deadline(Box::new(DeadlineDiagnostic {
                cycle: 5,
                cause: BudgetExceeded::Cancelled,
                completed_blocks: 0,
                total_blocks: 1,
                committed: 0,
            }))
        };
        let policy = SupervisePolicy::default();
        let calls = std::sync::atomic::AtomicU32::new(0);
        let out = run_supervised(vec![("c".to_string(), ())], &policy, None, |_, _| {
            calls.fetch_add(1, Ordering::Relaxed);
            Err(cancelled_err())
        });
        assert_eq!(out.values, vec![None]);
        let r = &out.quarantine.records[0];
        assert_eq!(r.kind, FailureKind::Cancelled);
        assert_eq!(calls.load(Ordering::Relaxed), 1, "cancellation must not be retried");
        assert!(out.quarantine.to_string().contains("[cancelled]"));
    }

    #[test]
    fn panics_quarantine_without_poisoning_neighbours() {
        let points: Vec<(String, u64)> =
            (0..6).map(|i| (format!("p{i}"), i)).collect();
        let out = run_supervised(points, &SupervisePolicy::default(), None, |p, _| {
            if *p == 3 {
                panic!("injected failure on p3");
            }
            Ok(*p * 2)
        });
        assert_eq!(out.quarantine.keys(), vec!["p3"]);
        assert_eq!(out.quarantine.records[0].kind, FailureKind::Panic);
        assert!(out.quarantine.records[0].error.contains("injected failure"));
        for (i, v) in out.values.iter().enumerate() {
            if i == 3 {
                assert_eq!(*v, None);
            } else {
                assert_eq!(*v, Some(i as u64 * 2));
            }
        }
        let rendered = out.quarantine.to_string();
        assert!(rendered.contains("p3 [panic]"), "{rendered}");
    }

    #[test]
    fn journal_resumes_and_records() {
        let mut path = std::env::temp_dir();
        path.push(format!("gex-supervise-journal-{}", std::process::id()));
        let digest = crate::journal::digest("supervise-test");
        {
            let j = CampaignJournal::open(&path, digest).unwrap();
            j.record("p1", 111);
        }
        let j = CampaignJournal::open(&path, digest).unwrap();
        let points: Vec<(String, u64)> =
            (0..3).map(|i| (format!("p{i}"), (i + 1) * 111)).collect();
        let out = run_supervised(points, &SupervisePolicy::default(), Some(&j), |p, _| Ok(*p));
        assert_eq!(out.values, vec![Some(111), Some(111), Some(333)]);
        assert_eq!((out.resumed, out.simulated), (1, 2));
        assert_eq!(j.len(), 3, "newly simulated points are journaled too");
        let _ = std::fs::remove_file(&path);
    }
}
