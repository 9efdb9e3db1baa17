//! Seeded, deterministic fault-injection for resilience testing.
//!
//! The timing simulator's correctness contract is that *scheduling* never
//! changes *architectural results*: whatever the fault-resolution timeline
//! looks like, every warp must retire exactly its trace and the final
//! memory image must be bit-identical to a clean run. The injector makes
//! that contract testable by perturbing every timing assumption the paging
//! engine rests on — while staying fully deterministic per seed, so any
//! failure reproduces from `(plan, seed)` alone.
//!
//! Perturbations (all strictly opt-in; a [`Gpu`](crate::gpu::Gpu) without
//! an [`InjectionPlan`] simulates exactly as before):
//!
//! * **Extra resolution delay / jitter** — uniform extra cycles on each
//!   fault's round trip.
//! * **Reordered service** — the handler picks a random pending entry
//!   instead of the queue head (a real fill unit does not guarantee FIFO
//!   under contention).
//! * **Duplicated service** — a region's round trip is issued twice; the
//!   second resolution must be harmless.
//! * **Handler stalls / backpressure bursts** — admission freezes for a
//!   burst, letting the pending queue back up.
//! * **Interconnect latency spikes** — sporadic extra link occupancy.
//! * **Spurious NACKs** — a completed service reports "retry later": the
//!   region stays unmapped and re-enqueues with exponential backoff,
//!   forcing the faulted warps to keep waiting and eventually re-replay.

use gex_mem::{Cycle, FaultEntry, FaultQueue};
use gex_prng::Prng;
use std::collections::HashMap;

/// A deterministic fault-injection schedule. All randomness derives from
/// `seed`; two runs with the same plan produce the same perturbations.
#[derive(Debug, Clone, PartialEq)]
pub struct InjectionPlan {
    /// PRNG seed; the sole source of randomness.
    pub seed: u64,
    /// Extra fault-resolution latency, uniform in `[lo, hi]` cycles.
    pub resolution_delay: (Cycle, Cycle),
    /// Probability a service pick takes a random queue entry instead of
    /// the head.
    pub reorder_prob: f64,
    /// Probability an admitted fault's round trip is issued twice.
    pub duplicate_prob: f64,
    /// Probability (per admission opportunity) that the handler stalls.
    pub stall_prob: f64,
    /// Handler stall burst length, uniform in `[lo, hi]` cycles.
    pub stall_cycles: (Cycle, Cycle),
    /// Probability of an interconnect latency spike on a round trip.
    pub link_spike_prob: f64,
    /// Link spike length, uniform in `[lo, hi]` cycles.
    pub link_spike_cycles: (Cycle, Cycle),
    /// Probability a completed service is NACKed ("retry later").
    pub nack_prob: f64,
    /// NACK budget per region; `u32::MAX` never gives up (wedges the run —
    /// the watchdog's test vector).
    pub max_nacks_per_region: u32,
    /// Base re-service backoff after a NACK; doubles per retry (capped).
    pub nack_backoff: Cycle,
}

impl InjectionPlan {
    /// No injection at all: the identity schedule.
    pub fn none() -> Self {
        InjectionPlan {
            seed: 0,
            resolution_delay: (0, 0),
            reorder_prob: 0.0,
            duplicate_prob: 0.0,
            stall_prob: 0.0,
            stall_cycles: (0, 0),
            link_spike_prob: 0.0,
            link_spike_cycles: (0, 0),
            nack_prob: 0.0,
            max_nacks_per_region: 0,
            nack_backoff: 0,
        }
    }

    /// Mild jitter: delays and occasional reordering, no NACKs or stalls.
    pub fn light(seed: u64) -> Self {
        InjectionPlan {
            seed,
            resolution_delay: (0, 2_000),
            reorder_prob: 0.10,
            ..InjectionPlan::none()
        }
    }

    /// Everything at once: delay, reorder, duplication, stalls, link
    /// spikes and bounded NACKs. The differential-validation workhorse.
    pub fn chaos(seed: u64) -> Self {
        InjectionPlan {
            seed,
            resolution_delay: (0, 10_000),
            reorder_prob: 0.35,
            duplicate_prob: 0.15,
            stall_prob: 0.10,
            stall_cycles: (1_000, 20_000),
            link_spike_prob: 0.20,
            link_spike_cycles: (500, 8_000),
            nack_prob: 0.25,
            max_nacks_per_region: 3,
            nack_backoff: 2_000,
        }
    }

    /// A schedule that NACKs every service forever: faults never resolve,
    /// the run wedges, and the forward-progress watchdog must catch it.
    pub fn wedge(seed: u64) -> Self {
        InjectionPlan {
            seed,
            nack_prob: 1.0,
            max_nacks_per_region: u32::MAX,
            nack_backoff: 1_000,
            ..InjectionPlan::none()
        }
    }

    /// True if this plan perturbs nothing.
    pub fn is_noop(&self) -> bool {
        self == &InjectionPlan::none() || self == &InjectionPlan { seed: self.seed, ..InjectionPlan::none() }
    }
}

impl Default for InjectionPlan {
    fn default() -> Self {
        InjectionPlan::none()
    }
}

/// Counters for every perturbation actually injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectionStats {
    /// Extra resolution-delay cycles injected in total.
    pub delay_cycles: u64,
    /// Services picked out of FIFO order.
    pub reorders: u64,
    /// Round trips issued twice.
    pub duplicates: u64,
    /// Handler stall bursts.
    pub stalls: u64,
    /// Total stalled cycles.
    pub stall_cycles: u64,
    /// Interconnect latency spikes.
    pub link_spikes: u64,
    /// Services NACKed ("retry later").
    pub nacks: u64,
}

/// Live injector state attached to the CPU fault handler.
#[derive(Debug, Clone)]
pub struct Injector {
    plan: InjectionPlan,
    rng: Prng,
    /// NACKs issued so far per region (enforces the budget).
    nacks: HashMap<u64, u32>,
    /// Admission frozen until this cycle (stall burst).
    stall_until: Cycle,
    /// NACKed entries waiting out their backoff before re-enqueuing.
    deferred: Vec<(Cycle, FaultEntry)>,
    stats: InjectionStats,
}

impl Injector {
    /// An injector executing `plan`.
    pub fn new(plan: InjectionPlan) -> Self {
        let rng = Prng::seed_from_u64(plan.seed);
        Injector {
            plan,
            rng,
            nacks: HashMap::new(),
            stall_until: 0,
            deferred: Vec::new(),
            stats: InjectionStats::default(),
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> InjectionStats {
        self.stats
    }

    /// NACKed entries still waiting out their backoff.
    pub fn deferred_faults(&self) -> usize {
        self.deferred.len()
    }

    fn sample(&mut self, (lo, hi): (Cycle, Cycle)) -> Cycle {
        if hi <= lo {
            lo
        } else {
            self.rng.gen_range(lo..=hi)
        }
    }

    /// Start-of-tick: NACKed entries whose backoff elapsed re-enqueue (at
    /// the back of the queue, retry count bumped). An expired stall burst
    /// is also retired here so [`Injector::next_event_cycle`] stops
    /// reporting a past cycle — a stale minimum pins the idle scan to
    /// `now` and suppresses jumps the machine is actually free to take.
    pub fn requeue_due(&mut self, now: Cycle, queue: &mut FaultQueue) {
        if self.stall_until != 0 && self.stall_until <= now {
            // `admission_blocked` only honours `stall_until > now`, so
            // clearing an expired burst cannot change admission decisions.
            self.stall_until = 0;
        }
        let mut i = 0;
        while i < self.deferred.len() {
            if self.deferred[i].0 <= now {
                let (_, e) = self.deferred.swap_remove(i);
                queue.requeue_nacked(e);
            } else {
                i += 1;
            }
        }
    }

    /// The cycle an injected stall burst ends (0 when none is pending):
    /// admission stays frozen before it.
    pub fn stall_until(&self) -> Cycle {
        self.stall_until
    }

    /// True if admission is frozen at `now`; may start a new stall burst.
    pub fn admission_blocked(&mut self, now: Cycle) -> bool {
        if self.stall_until > now {
            return true;
        }
        if self.plan.stall_prob > 0.0 && self.rng.gen_bool(self.plan.stall_prob) {
            let burst = self.sample(self.plan.stall_cycles).max(1);
            self.stall_until = now + burst;
            self.stats.stalls += 1;
            self.stats.stall_cycles += burst;
            return true;
        }
        false
    }

    /// Pick the next entry to service: usually the FIFO head, sometimes
    /// (per `reorder_prob`) a random pending entry.
    pub fn pick(
        &mut self,
        queue: &mut FaultQueue,
        pred: impl Fn(&FaultEntry) -> bool,
    ) -> Option<FaultEntry> {
        if self.plan.reorder_prob > 0.0
            && queue.len() > 1
            && self.rng.gen_bool(self.plan.reorder_prob)
        {
            let n = self.rng.gen_range(0..queue.len());
            let e = queue.pop_nth_where(n, pred);
            if e.is_some() {
                self.stats.reorders += 1;
            }
            return e;
        }
        queue.pop_where(pred)
    }

    /// Extra resolution latency for one round trip.
    pub fn extra_latency(&mut self) -> Cycle {
        let d = self.sample(self.plan.resolution_delay);
        self.stats.delay_cycles += d;
        d
    }

    /// Extra link occupancy, if a spike fires.
    pub fn link_spike(&mut self) -> Cycle {
        if self.plan.link_spike_prob > 0.0 && self.rng.gen_bool(self.plan.link_spike_prob) {
            self.stats.link_spikes += 1;
            self.sample(self.plan.link_spike_cycles)
        } else {
            0
        }
    }

    /// True if this admission should issue its round trip twice.
    pub fn duplicate(&mut self) -> bool {
        let dup = self.plan.duplicate_prob > 0.0 && self.rng.gen_bool(self.plan.duplicate_prob);
        if dup {
            self.stats.duplicates += 1;
        }
        dup
    }

    /// Decide whether a completed service is NACKed. On NACK the entry is
    /// parked here for its exponential backoff; the caller must *not*
    /// resolve the region (its in-service mark stays up so late fault
    /// reports keep merging instead of double-enqueuing).
    pub fn try_nack(&mut self, now: Cycle, entry: &FaultEntry) -> bool {
        if self.plan.nack_prob == 0.0 {
            return false;
        }
        let count = self.nacks.entry(entry.region).or_insert(0);
        if *count >= self.plan.max_nacks_per_region {
            return false;
        }
        if !self.rng.gen_bool(self.plan.nack_prob) {
            return false;
        }
        *count += 1;
        self.stats.nacks += 1;
        let backoff = self
            .plan
            .nack_backoff
            .max(1)
            .saturating_mul(1u64 << entry.retries.min(10));
        self.deferred.push((now + backoff, entry.clone()));
        true
    }

    /// True while `region` is parked waiting out a NACK backoff. A
    /// duplicated round trip of a NACKed service carries the same failed
    /// response, so its resolution must be suppressed too — otherwise a
    /// duplicate would resolve the region behind the NACK and mask a
    /// wedged handler from the watchdog.
    pub fn is_parked(&self, region: u64) -> bool {
        self.deferred.iter().any(|(_, e)| e.region == region)
    }

    /// Earliest deferred re-enqueue or stall expiry, for idle skip-ahead.
    pub fn next_event_cycle(&self) -> Option<Cycle> {
        let due = self.deferred.iter().map(|(c, _)| *c).min();
        match (due, (self.stall_until > 0).then_some(self.stall_until)) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gex_mem::{FaultKind, REGION_BYTES};

    #[test]
    fn presets_are_sane() {
        assert!(InjectionPlan::none().is_noop());
        assert!(InjectionPlan { seed: 9, ..InjectionPlan::none() }.is_noop());
        assert!(!InjectionPlan::light(1).is_noop());
        assert!(!InjectionPlan::chaos(1).is_noop());
        let w = InjectionPlan::wedge(1);
        assert_eq!(w.nack_prob, 1.0);
        assert_eq!(w.max_nacks_per_region, u32::MAX);
    }

    #[test]
    fn injector_is_deterministic_per_seed() {
        let roll = |seed| {
            let mut i = Injector::new(InjectionPlan::chaos(seed));
            (0..32).map(|_| i.extra_latency()).collect::<Vec<_>>()
        };
        assert_eq!(roll(7), roll(7));
        assert_ne!(roll(7), roll(8));
    }

    #[test]
    fn nack_budget_is_enforced_and_backoff_grows() {
        let plan = InjectionPlan {
            nack_prob: 1.0,
            max_nacks_per_region: 2,
            nack_backoff: 100,
            ..InjectionPlan::none()
        };
        let mut inj = Injector::new(plan);
        let mut q = FaultQueue::new();
        q.report(0, FaultKind::Migration, 0, 0);
        let e = q.pop().unwrap();
        assert!(inj.try_nack(10, &e));
        assert_eq!(inj.deferred_faults(), 1);
        // Backoff elapses: the entry re-enqueues with retries bumped.
        inj.requeue_due(110, &mut q);
        assert_eq!(inj.deferred_faults(), 0);
        let e = q.pop().unwrap();
        assert_eq!(e.retries, 1);
        // Second (and last budgeted) NACK backs off twice as long.
        assert!(inj.try_nack(200, &e));
        inj.requeue_due(200 + 199, &mut q);
        assert_eq!(inj.deferred_faults(), 1, "2x backoff not elapsed yet");
        inj.requeue_due(200 + 200, &mut q);
        let e = q.pop().unwrap();
        assert_eq!(e.retries, 2);
        // Budget exhausted: no third NACK.
        assert!(!inj.try_nack(900, &e));
        assert_eq!(inj.stats().nacks, 2);
    }

    #[test]
    fn reorder_pick_marks_in_service() {
        let plan = InjectionPlan { reorder_prob: 1.0, ..InjectionPlan::none() };
        let mut inj = Injector::new(plan);
        let mut q = FaultQueue::new();
        for i in 0..4u64 {
            q.report(i * REGION_BYTES, FaultKind::Migration, 0, 0);
        }
        let e = inj.pick(&mut q, |_| true).unwrap();
        assert_eq!(q.len(), 3);
        assert_eq!(q.in_service_regions(), &[e.region]);
    }
}
