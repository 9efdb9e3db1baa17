//! The fill unit's global pending-fault queue.
//!
//! The baseline fill unit maintains a queue of pending page faults
//! (Section 4.1); the SM's local scheduler uses a fault's *position* in
//! this queue to estimate how long the fault will take to resolve and
//! decide whether context switching pays off. Entries are deduplicated at
//! the 64 KB fault-handling granularity, since concurrent faults from many
//! warps usually target the same region ("it is very likely that other
//! warps are stalled on the same fault", Section 2.4).

use crate::config::Cycle;
use crate::page_table::region_of;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Why a region faulted — determines who can handle it and at what cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// CPU-dirty data: allocation + data transfer over the interconnect.
    Migration,
    /// CPU-owned but clean: allocation and page-table update only.
    AllocOnly,
    /// First touch of unbacked memory: eligible for GPU-local handling.
    FirstTouch,
}

/// One pending fault region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEntry {
    /// 64 KB-aligned region address.
    pub region: u64,
    /// Fault class.
    pub kind: FaultKind,
    /// SM that faulted first on this region.
    pub first_sm: u32,
    /// Cycle the region was enqueued.
    pub enqueued_at: Cycle,
    /// How many distinct fault reports merged into this entry.
    pub merged: u32,
    /// Times this entry was NACKed ("retry later") and re-enqueued.
    /// Drives the exponential backoff of the re-service attempt.
    pub retries: u32,
}

/// Outcome of a budget-aware fault report (see
/// [`FaultQueue::try_report`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAdmission {
    /// A fresh entry enqueued at this queue position.
    Enqueued(u32),
    /// The report merged into an existing (or in-service) entry at this
    /// position. Merges are free: they never charge a tenant's budget.
    Merged(u32),
    /// The reporting tenant's fault budget is exhausted: the fault was
    /// refused and nothing was enqueued. The caller must treat the
    /// request as permanently unserviceable — the denial NACKs only this
    /// tenant's faults; every other tenant's entries keep their positions
    /// and service order.
    Denied,
}

impl FaultAdmission {
    /// The queue position for admitted reports (`None` when denied).
    pub fn position(&self) -> Option<u32> {
        match self {
            FaultAdmission::Enqueued(p) | FaultAdmission::Merged(p) => Some(*p),
            FaultAdmission::Denied => None,
        }
    }
}

/// FIFO of pending fault regions with merge-on-duplicate.
///
/// Regions currently being serviced by a handler are tracked separately so
/// that late fault reports on them merge (position 0) instead of enqueuing
/// a redundant service request.
///
/// ## Multi-tenant budgets
///
/// Under MPS-style GPU sharing each tenant's kernel lives in its own
/// address window, so the owning tenant of a fault is a pure function of
/// the region address: `region >> tenant_shift`. With a shift configured
/// ([`FaultQueue::set_tenant_shift`]) the queue keeps per-tenant
/// charged/denied counters, and tenants given a finite budget
/// ([`FaultQueue::set_budget`]) are charged one unit per *distinct region*
/// on its first fresh enqueue (merges, NACK re-enqueues and re-faults of a
/// previously charged region — eviction churn, splinter storms — are free:
/// they add no new footprint).
/// A tenant whose budget hits zero has further reports
/// [`FaultAdmission::Denied`], which contains its fault storm without
/// touching any other tenant's entries. With no shift configured every
/// address maps to tenant 0 and, with no budget set, behaviour is
/// byte-identical to the single-tenant queue.
#[derive(Debug, Clone, Default)]
pub struct FaultQueue {
    queue: VecDeque<FaultEntry>,
    in_service: Vec<u64>,
    total_enqueued: u64,
    total_merged: u64,
    total_nacked: u64,
    /// Region-address shift mapping a region to its owning tenant.
    tenant_shift: Option<u32>,
    /// Remaining budget per tenant; absent = unlimited.
    budgets: BTreeMap<u32, u32>,
    /// Fresh enqueues charged per tenant (only tracked once a shift or a
    /// budget is configured).
    charged: BTreeMap<u32, u64>,
    /// Reports denied per tenant (budget exhausted).
    denied: BTreeMap<u32, u64>,
    /// Regions that already paid their budget charge. A region re-faulting
    /// after eviction — or a splintering storm re-faulting a demoted huge
    /// page region by region — is *work the tenant already paid for*, so
    /// it re-enqueues free and cannot be denied. Without this, a neighbor
    /// splintering a tenant's 2 MB page would bill the victim once per
    /// 4 KB re-fault and storm it straight into its own budget denial.
    charged_regions: BTreeSet<u64>,
}

impl FaultQueue {
    /// An empty queue.
    pub fn new() -> Self {
        FaultQueue::default()
    }

    /// Report a fault on the region containing `addr`.
    ///
    /// Returns the entry's position in the queue (0 = head, i.e. next to be
    /// serviced). Duplicate reports merge into the existing entry. A report
    /// denied by a tenant budget returns 0; budget-aware callers should use
    /// [`FaultQueue::try_report`] instead to observe the denial.
    pub fn report(&mut self, addr: u64, kind: FaultKind, sm: u32, now: Cycle) -> u32 {
        self.try_report(addr, kind, sm, now).position().unwrap_or(0)
    }

    /// Budget-aware fault report: like [`FaultQueue::report`] but returns
    /// whether the report enqueued, merged, or was denied because the
    /// owning tenant's fault budget is exhausted.
    pub fn try_report(
        &mut self,
        addr: u64,
        kind: FaultKind,
        sm: u32,
        now: Cycle,
    ) -> FaultAdmission {
        let region = region_of(addr);
        if self.in_service.contains(&region) {
            self.total_merged += 1;
            return FaultAdmission::Merged(0);
        }
        if let Some(pos) = self.queue.iter().position(|e| e.region == region) {
            self.queue[pos].merged += 1;
            self.total_merged += 1;
            return FaultAdmission::Merged(pos as u32);
        }
        // A fresh enqueue is the only thing that charges a budget: merges
        // piggyback on service already paid for, NACK re-enqueues re-submit
        // an entry that was already charged, and a region whose charge was
        // already paid (re-faulting after eviction or a splinter storm)
        // re-enqueues free — budgets meter distinct regions, not re-faults.
        if self.tenant_shift.is_some() || !self.budgets.is_empty() {
            let tenant = self.tenant_of(region);
            if !self.charged_regions.contains(&region) {
                if let Some(remaining) = self.budgets.get_mut(&tenant) {
                    if *remaining == 0 {
                        *self.denied.entry(tenant).or_insert(0) += 1;
                        return FaultAdmission::Denied;
                    }
                    *remaining -= 1;
                }
                *self.charged.entry(tenant).or_insert(0) += 1;
                self.charged_regions.insert(region);
            }
        }
        self.queue.push_back(FaultEntry {
            region,
            kind,
            first_sm: sm,
            enqueued_at: now,
            merged: 0,
            retries: 0,
        });
        self.total_enqueued += 1;
        FaultAdmission::Enqueued((self.queue.len() - 1) as u32)
    }

    /// Configure the region-address shift that maps a fault region to its
    /// owning tenant (`region >> shift`). Unset = every region is tenant 0.
    pub fn set_tenant_shift(&mut self, shift: u32) {
        self.tenant_shift = Some(shift);
    }

    /// Give `tenant` a finite fresh-enqueue budget. Once it reaches zero,
    /// further reports from that tenant are [`FaultAdmission::Denied`].
    pub fn set_budget(&mut self, tenant: u32, budget: u32) {
        self.budgets.insert(tenant, budget);
    }

    /// The tenant owning the region containing `addr` (0 when no shift is
    /// configured).
    pub fn tenant_of(&self, addr: u64) -> u32 {
        match self.tenant_shift {
            Some(s) => (region_of(addr) >> s) as u32,
            None => 0,
        }
    }

    /// Budget units remaining for `tenant`; `None` = unlimited.
    pub fn remaining_budget(&self, tenant: u32) -> Option<u32> {
        self.budgets.get(&tenant).copied()
    }

    /// Fresh enqueues charged to `tenant` so far.
    pub fn charged(&self, tenant: u32) -> u64 {
        self.charged.get(&tenant).copied().unwrap_or(0)
    }

    /// Reports denied to `tenant` (budget exhausted) so far.
    pub fn denied(&self, tenant: u32) -> u64 {
        self.denied.get(&tenant).copied().unwrap_or(0)
    }

    /// Drop every *pending* entry owned by `tenant` (differential
    /// quarantine: the misbehaving tenant's backlog is drained so it stops
    /// consuming handler service). In-service entries are left to complete
    /// — a handler mid-round-trip cannot be recalled. Returns the number
    /// of entries removed.
    pub fn purge_tenant(&mut self, tenant: u32) -> usize {
        let shift = self.tenant_shift;
        let before = self.queue.len();
        self.queue.retain(|e| match shift {
            Some(s) => (e.region >> s) as u32 != tenant,
            None => tenant != 0,
        });
        before - self.queue.len()
    }

    /// Take the fault at the head of the queue for servicing. The region is
    /// marked in-service until [`FaultQueue::finish_service`] is called, so
    /// late reports on it merge instead of re-enqueuing.
    pub fn pop(&mut self) -> Option<FaultEntry> {
        let e = self.queue.pop_front()?;
        self.in_service.push(e.region);
        Some(e)
    }

    /// Return an entry to the head of the queue (e.g. the handler admitted
    /// it but must defer it until memory can be freed). Clears its
    /// in-service mark.
    pub fn push_front(&mut self, e: FaultEntry) {
        self.in_service.retain(|&r| r != e.region);
        self.queue.push_front(e);
    }

    /// Re-enqueue an entry whose service was NACKed ("retry later"): the
    /// in-service mark clears, the retry count bumps, and the entry goes to
    /// the *back* of the queue so other pending faults are not starved.
    pub fn requeue_nacked(&mut self, mut e: FaultEntry) {
        self.in_service.retain(|&r| r != e.region);
        e.retries += 1;
        self.total_nacked += 1;
        self.queue.push_back(e);
    }

    /// Take the first pending fault matching `pred`, marking it in-service.
    /// Used by the CPU handler to skip fault classes another handler owns.
    pub fn pop_where(&mut self, pred: impl Fn(&FaultEntry) -> bool) -> Option<FaultEntry> {
        self.pop_nth_where(0, pred)
    }

    /// Take the `n`-th (0-based, wrapping) pending fault matching `pred`,
    /// marking it in-service. Out-of-order service — a real fill unit does
    /// not guarantee FIFO under contention, and the resilience injector
    /// uses this to exercise reordered service schedules.
    pub fn pop_nth_where(
        &mut self,
        n: usize,
        pred: impl Fn(&FaultEntry) -> bool,
    ) -> Option<FaultEntry> {
        let matches: Vec<usize> = self
            .queue
            .iter()
            .enumerate()
            .filter_map(|(i, e)| pred(e).then_some(i))
            .collect();
        if matches.is_empty() {
            return None;
        }
        let pos = matches[n % matches.len()];
        let e = self.queue.remove(pos).expect("position just found");
        self.in_service.push(e.region);
        Some(e)
    }

    /// Mark a region's service complete (after resolution), allowing future
    /// faults on it to enqueue again (e.g. if it is ever unmapped), and free
    /// of charge: under `HugeOnly` one fault maps and pays for its frame.
    pub fn finish_service(&mut self, region: u64) {
        self.in_service.retain(|&r| r != region);
        if self.tenant_shift.is_some() || !self.budgets.is_empty() {
            self.charged_regions.insert(region);
        }
    }

    /// Regions currently being serviced by a handler.
    pub fn in_service_count(&self) -> usize {
        self.in_service.len()
    }

    /// The regions currently marked in-service.
    pub fn in_service_regions(&self) -> &[u64] {
        &self.in_service
    }

    /// Iterate the pending entries in queue (FIFO) order.
    pub fn iter(&self) -> impl Iterator<Item = &FaultEntry> {
        self.queue.iter()
    }

    /// Owned snapshot of the pending entries in FIFO order, for diagnostic
    /// captures (e.g. the watchdog error path).
    pub fn snapshot(&self) -> Vec<FaultEntry> {
        self.queue.iter().cloned().collect()
    }

    /// Look at the head without removing it.
    pub fn peek(&self) -> Option<&FaultEntry> {
        self.queue.front()
    }

    /// Remove a specific region (serviced out of band, e.g. by a GPU-local
    /// handler). Returns the entry if it was pending.
    pub fn remove(&mut self, region: u64) -> Option<FaultEntry> {
        let pos = self.queue.iter().position(|e| e.region == region)?;
        self.queue.remove(pos)
    }

    /// Remove a specific region *and* mark it in-service — the GPU-local
    /// handler path (use case 2), where the faulting SM claims the region.
    pub fn take(&mut self, region: u64) -> Option<FaultEntry> {
        let e = self.remove(region)?;
        self.in_service.push(e.region);
        Some(e)
    }

    /// Current position of `region` in the queue, if pending.
    pub fn position(&self, region: u64) -> Option<u32> {
        self.queue.iter().position(|e| e.region == region).map(|p| p as u32)
    }

    /// The pending entry for `region`, if any.
    pub fn get(&self, region: u64) -> Option<&FaultEntry> {
        self.queue.iter().find(|e| e.region == region)
    }

    /// Pending entries.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True if no faults are pending.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Distinct regions ever enqueued.
    pub fn total_enqueued(&self) -> u64 {
        self.total_enqueued
    }

    /// Reports absorbed by merging.
    pub fn total_merged(&self) -> u64 {
        self.total_merged
    }

    /// Service attempts NACKed and re-enqueued.
    pub fn total_nacked(&self) -> u64 {
        self.total_nacked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page_table::REGION_BYTES;

    #[test]
    fn report_returns_fifo_position() {
        let mut q = FaultQueue::new();
        assert_eq!(q.report(0, FaultKind::Migration, 0, 10), 0);
        assert_eq!(q.report(REGION_BYTES, FaultKind::Migration, 1, 11), 1);
        assert_eq!(q.report(5 * REGION_BYTES, FaultKind::AllocOnly, 2, 12), 2);
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn same_region_merges() {
        let mut q = FaultQueue::new();
        q.report(0x100, FaultKind::Migration, 0, 1);
        // Another page of the same 64 KB region merges.
        assert_eq!(q.report(0x9000, FaultKind::Migration, 3, 2), 0);
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek().unwrap().merged, 1);
        assert_eq!(q.total_enqueued(), 1);
        assert_eq!(q.total_merged(), 1);
    }

    #[test]
    fn pop_is_fifo_and_positions_shift() {
        let mut q = FaultQueue::new();
        q.report(0, FaultKind::Migration, 0, 1);
        q.report(REGION_BYTES, FaultKind::FirstTouch, 0, 2);
        assert_eq!(q.position(REGION_BYTES), Some(1));
        let head = q.pop().unwrap();
        assert_eq!(head.region, 0);
        assert_eq!(q.position(REGION_BYTES), Some(0));
    }

    #[test]
    fn in_service_regions_absorb_reports() {
        let mut q = FaultQueue::new();
        q.report(0, FaultKind::Migration, 0, 1);
        let e = q.pop().unwrap();
        assert_eq!(q.in_service_count(), 1);
        // A late report on the in-service region merges at position 0.
        assert_eq!(q.report(0x2000, FaultKind::Migration, 1, 5), 0);
        assert!(q.is_empty());
        q.finish_service(e.region);
        assert_eq!(q.in_service_count(), 0);
        // After service completes, new faults enqueue again.
        assert_eq!(q.report(0, FaultKind::Migration, 0, 9), 0);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn take_marks_in_service() {
        let mut q = FaultQueue::new();
        q.report(0, FaultKind::FirstTouch, 0, 1);
        q.report(REGION_BYTES, FaultKind::FirstTouch, 0, 2);
        let e = q.take(REGION_BYTES).unwrap();
        assert_eq!(e.region, REGION_BYTES);
        assert_eq!(q.len(), 1);
        assert_eq!(q.in_service_count(), 1);
        assert_eq!(q.report(REGION_BYTES, FaultKind::FirstTouch, 1, 3), 0);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn nacked_entries_requeue_at_the_back_with_backoff_state() {
        let mut q = FaultQueue::new();
        q.report(0, FaultKind::Migration, 0, 1);
        q.report(REGION_BYTES, FaultKind::AllocOnly, 1, 2);
        let e = q.pop().unwrap();
        assert_eq!(e.region, 0);
        q.requeue_nacked(e);
        assert_eq!(q.in_service_count(), 0);
        assert_eq!(q.position(0), Some(1), "nacked entry goes to the back");
        assert_eq!(q.get(0).unwrap().retries, 1);
        assert_eq!(q.total_nacked(), 1);
        // A second nack keeps counting.
        let e = q.pop_where(|e| e.region == 0).unwrap();
        q.requeue_nacked(e);
        assert_eq!(q.get(0).unwrap().retries, 2);
        assert_eq!(q.total_nacked(), 2);
    }

    #[test]
    fn pop_nth_where_services_out_of_order() {
        let mut q = FaultQueue::new();
        for i in 0..4u64 {
            q.report(i * REGION_BYTES, FaultKind::Migration, 0, i);
        }
        let e = q.pop_nth_where(2, |_| true).unwrap();
        assert_eq!(e.region, 2 * REGION_BYTES);
        // Wraps modulo the match count.
        let e = q.pop_nth_where(7, |_| true).unwrap();
        assert_eq!(e.region, REGION_BYTES);
        assert_eq!(q.in_service_count(), 2);
    }

    #[test]
    fn refault_of_charged_region_is_free_and_admitted() {
        let mut q = FaultQueue::new();
        q.set_tenant_shift(20);
        q.set_budget(0, 2);
        // Charge the region once.
        assert_eq!(q.try_report(0, FaultKind::Migration, 0, 1), FaultAdmission::Enqueued(0));
        assert_eq!(q.charged(0), 1);
        let e = q.pop().unwrap();
        q.finish_service(e.region);
        // Re-fault after eviction: admitted without a second charge.
        assert_eq!(q.try_report(0, FaultKind::Migration, 0, 9), FaultAdmission::Enqueued(0));
        assert_eq!(q.charged(0), 1);
        assert_eq!(q.remaining_budget(0), Some(1));
        // Even with the budget exhausted, a charged region is never denied.
        assert_eq!(q.try_report(REGION_BYTES, FaultKind::Migration, 0, 10), FaultAdmission::Enqueued(1));
        assert_eq!(q.remaining_budget(0), Some(0));
        let e = q.remove(0).unwrap();
        q.finish_service(e.region);
        assert_eq!(q.try_report(0, FaultKind::Migration, 0, 20), FaultAdmission::Enqueued(1));
        // A genuinely new region is still denied.
        assert_eq!(q.try_report(7 * REGION_BYTES, FaultKind::Migration, 0, 21), FaultAdmission::Denied);
    }

    #[test]
    fn remove_out_of_band() {
        let mut q = FaultQueue::new();
        q.report(0, FaultKind::Migration, 0, 1);
        q.report(REGION_BYTES, FaultKind::FirstTouch, 0, 2);
        let e = q.remove(REGION_BYTES).unwrap();
        assert_eq!(e.kind, FaultKind::FirstTouch);
        assert_eq!(q.len(), 1);
        assert!(q.remove(REGION_BYTES).is_none());
    }
}
