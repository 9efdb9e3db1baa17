//! Thread-block switching on fault (use case 1, Section 4.1).
//!
//! This module holds the local scheduler's configuration and per-SM state;
//! the decision/drain/save/restore machinery is driven by
//! [`Gpu`](crate::gpu::Gpu) each cycle:
//!
//! 1. On a fault notice whose queue position is at or above the threshold,
//!    the block starts draining.
//! 2. Once drained, its context (registers, shared memory, control state,
//!    replay-queue and operand-log contents) streams to memory through the
//!    DRAM channel; the *ideal* variant saves and restores in one cycle
//!    (the comparison of Figure 12).
//! 3. The freed slot runs an off-chip block whose faults have resolved, or
//!    a fresh block from the global scheduler — limited to
//!    `max_extra_blocks` extra blocks per SM to bound the off-chip context
//!    memory, after which the SM only cycles through its own blocks.

use gex_mem::Cycle;
use gex_sm::SavedBlock;

/// Local-scheduler configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockSwitchConfig {
    /// Switch out only if the fault's position in the global pending-fault
    /// queue is at least this (a long expected wait).
    pub queue_pos_threshold: u32,
    /// Extra blocks an SM may bring beyond its occupancy (paper: 4).
    pub max_extra_blocks: u32,
    /// Ideal 1-cycle save and restore (Figure 12's idealized variant).
    pub ideal: bool,
}

impl Default for BlockSwitchConfig {
    /// Threshold 1: switch only when the fault queue shows backlog.
    /// Threshold 0 (switch on every fault) thrashes on kernels that fault
    /// often in small trickles (the context traffic then competes with
    /// demand traffic on the DRAM channel) — the waste the paper's
    /// threshold exists to avoid; the `ablation` binary sweeps it.
    fn default() -> Self {
        BlockSwitchConfig { queue_pos_threshold: 1, max_extra_blocks: 4, ideal: false }
    }
}

impl BlockSwitchConfig {
    /// The idealized variant with 1-cycle context save/restore.
    pub fn ideal() -> Self {
        BlockSwitchConfig { ideal: true, ..Default::default() }
    }
}

/// Per-SM local-scheduler state.
#[derive(Debug, Default)]
pub struct LocalScheduler {
    /// Slots currently draining for a switch.
    pub draining: Vec<u32>,
    /// Contexts streaming out: (transfer done, state).
    pub saving: Vec<(Cycle, SavedBlock)>,
    /// Contexts streaming back in: (transfer done, state).
    pub restoring: Vec<(Cycle, SavedBlock)>,
    /// Preempted blocks resident in memory.
    pub off_chip: Vec<SavedBlock>,
    /// Extra blocks brought from the global scheduler so far.
    pub extra_brought: u32,
}

impl LocalScheduler {
    /// Fresh state.
    pub fn new() -> Self {
        LocalScheduler::default()
    }

    /// Block-slot capacity consumed by switching machinery (contexts in
    /// transit occupy their slots' register file and shared memory).
    pub fn slots_in_transit(&self) -> u32 {
        (self.saving.len() + self.restoring.len()) as u32
    }

    /// True if some off-chip block has all its faults resolved.
    pub fn has_restorable(&self) -> bool {
        self.off_chip.iter().any(|b| !b.has_pending_fault())
    }

    /// Take the first restorable off-chip block.
    pub fn pop_restorable(&mut self) -> Option<SavedBlock> {
        let i = self.off_chip.iter().position(|b| !b.has_pending_fault())?;
        Some(self.off_chip.remove(i))
    }

    /// Propagate a resolved fault region to blocks held off-chip or in
    /// transit.
    pub fn resolve_region(&mut self, region: u64) {
        for b in &mut self.off_chip {
            b.resolve_region(region);
        }
        for (_, b) in &mut self.saving {
            b.resolve_region(region);
        }
        for (_, b) in &mut self.restoring {
            b.resolve_region(region);
        }
    }

    /// Advance to `now`: finished saves park off-chip, and finished
    /// restores are returned to re-enter the SM, in the order they started.
    pub fn tick(&mut self, now: Cycle) -> Vec<SavedBlock> {
        let (parked, saving): (Vec<_>, Vec<_>) =
            std::mem::take(&mut self.saving).into_iter().partition(|(when, _)| *when <= now);
        self.saving = saving;
        self.off_chip.extend(parked.into_iter().map(|(_, b)| b));
        let (ready, restoring): (Vec<_>, Vec<_>) =
            std::mem::take(&mut self.restoring).into_iter().partition(|(when, _)| *when <= now);
        self.restoring = restoring;
        ready.into_iter().map(|(_, b)| b).collect()
    }

    /// True if nothing is in transit and nothing is held off-chip.
    pub fn quiescent(&self) -> bool {
        self.draining.is_empty()
            && self.saving.is_empty()
            && self.restoring.is_empty()
            && self.off_chip.is_empty()
    }

    /// Earliest transfer completion, for skip-ahead.
    pub fn next_event_cycle(&self) -> Option<Cycle> {
        self.saving
            .iter()
            .map(|&(c, _)| c)
            .chain(self.restoring.iter().map(|&(c, _)| c))
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = BlockSwitchConfig::default();
        assert_eq!(c.max_extra_blocks, 4, "paper: 4 extra blocks per SM");
        assert_eq!(c.queue_pos_threshold, 1);
        assert!(!c.ideal);
        assert!(BlockSwitchConfig::ideal().ideal);
    }

    #[test]
    fn empty_scheduler_is_quiescent() {
        let s = LocalScheduler::new();
        assert!(s.quiescent());
        assert!(!s.has_restorable());
        assert_eq!(s.slots_in_transit(), 0);
        assert_eq!(s.next_event_cycle(), None);
    }
}
