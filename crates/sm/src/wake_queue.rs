//! The wake queue behind the tick loops' idle skip.
//!
//! When every warp in the machine is waiting on an external event (a DRAM
//! response, a fault round trip, a context-switch transfer), the tick
//! loops jump the clock straight to the earliest upcoming event instead
//! of crawling cycle by cycle. Components publish their exact next wake
//! cycle into a [`WakeQueue`] at the moment they schedule work, so the
//! idle query is [`WakeQueue::earliest_after`]: no component is polled.
//!
//! The reference for that query is a linear scan over every component's
//! `next_event_cycle()`. The tick loops keep the scan as a
//! `#[cfg(debug_assertions)]` oracle and assert it equal to the queue at
//! every idle window, so every debug-profile test checks the queue
//! against it; release builds compile the scan out.
//!
//! Budget deadlines, the forward-progress watchdog and the runaway cycle
//! cap are deliberately *not* wake sources: they clamp the jump target in
//! the tick loops, so each still fires at its exact cycle.

use gex_mem::Cycle;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A push-based wake-event queue.
///
/// Components push their *exact* next wake cycle at the moment they
/// schedule work (a DRAM transfer completing, a fault service finishing,
/// an injector retry coming due), instead of being polled during idle
/// windows. The idle query is [`WakeQueue::earliest_after`].
///
/// Bucketed like the SM-internal `EventWheel`, not a heap: wakes within
/// [`WakeQueue::HORIZON`] cycles of the drained front land in a
/// power-of-two ring of per-cycle counters (O(1) push, duplicate pushes
/// just bump a counter instead of growing a heap), with a 64-bit summary
/// bitmap per 64 buckets so queries skip empty stretches a word at a
/// time. The horizon covers every configured latency (the longest is a
/// PCIe fault migration plus injected stall, ~45k cycles); anything
/// farther spills to a small overflow min-heap that is compacted when
/// duplicates pile up.
///
/// Correctness rests on one invariant the tick loops uphold: **at query
/// time, every event at or before `now` has already been consumed** (the
/// components were ticked this cycle, and components only schedule
/// strictly-future events). Under that invariant an entry `<= now` is
/// necessarily stale — its event fired and was handled — so discarding
/// it cannot lose a wake. It also means queries are monotonic in `now`
/// and pushes are always strictly above the drained front.
#[derive(Debug, Clone)]
pub struct WakeQueue {
    /// Wake counts per cycle for cycles in `(drained, drained + HORIZON]`,
    /// indexed by `cycle & (HORIZON - 1)`.
    near: Vec<u32>,
    /// One bit per bucket (64 per word): set iff the bucket is nonzero.
    summary: Vec<u64>,
    /// Total count held in `near`.
    near_pending: u64,
    /// Lower bound on the earliest cycle with a `near` entry (exact after
    /// a query; pushes below it pull it down). Meaningless when
    /// `near_pending == 0`.
    min_hint: Cycle,
    /// Every cycle `<= drained` has been consumed or discarded.
    drained: Cycle,
    /// Wakes beyond the ring horizon at push time.
    far: BinaryHeap<Reverse<Cycle>>,
    /// `far` length after the last compaction; growth beyond 2x triggers
    /// the next one.
    far_compacted: usize,
}

impl Default for WakeQueue {
    fn default() -> Self {
        WakeQueue::new()
    }
}

impl WakeQueue {
    /// Ring span in cycles (power of two). Sized past the longest
    /// configured wake distance — a PCIe migration round trip plus the
    /// worst injected stall — so the overflow heap stays cold.
    pub const HORIZON: Cycle = 1 << 16;

    /// An empty queue.
    pub fn new() -> Self {
        WakeQueue {
            near: vec![0; Self::HORIZON as usize],
            summary: vec![0; (Self::HORIZON as usize) / 64],
            near_pending: 0,
            min_hint: 0,
            drained: 0,
            far: BinaryHeap::new(),
            far_compacted: 0,
        }
    }

    /// Reset to empty while keeping the ring allocation — the arena-reuse
    /// path between simulation points.
    pub fn clear(&mut self) {
        // A drained queue (the normal end-of-run state) already has an
        // all-zero ring; only a run abandoned mid-flight pays the fill.
        if self.near_pending > 0 {
            self.near.fill(0);
            self.summary.fill(0);
            self.near_pending = 0;
        }
        self.min_hint = 0;
        self.drained = 0;
        self.far.clear();
        self.far_compacted = 0;
    }

    #[inline]
    fn idx(cycle: Cycle) -> usize {
        (cycle & (Self::HORIZON - 1)) as usize
    }

    /// Record that some component wakes at exactly `cycle`.
    #[inline]
    pub fn push(&mut self, cycle: Cycle) {
        debug_assert!(
            cycle > self.drained,
            "wake at {cycle} pushed at or before the drained front {}",
            self.drained
        );
        if cycle <= self.drained {
            // Already consumed by the invariant; keep release builds safe.
            return;
        }
        if cycle - self.drained <= Self::HORIZON {
            let i = Self::idx(cycle);
            if self.near[i] == 0 {
                self.summary[i >> 6] |= 1 << (i & 63);
            }
            self.near[i] += 1;
            if self.near_pending == 0 || cycle < self.min_hint {
                self.min_hint = cycle;
            }
            self.near_pending += 1;
        } else {
            // Duplicate far pushes can pile up faster than queries retire
            // them; dedup when the heap doubles since last compaction.
            if self.far.len() > 4096.max(self.far_compacted * 2) {
                let mut entries = std::mem::take(&mut self.far).into_vec();
                entries.sort_unstable();
                entries.dedup();
                self.far = entries.into();
                self.far_compacted = self.far.len();
            }
            self.far.push(Reverse(cycle));
        }
    }

    /// First cycle in `[from, until]` whose bucket is nonzero, walking
    /// the summary bitmap a word at a time. Both bounds must lie within
    /// the current ring window.
    fn next_occupied(&self, from: Cycle, until: Cycle) -> Option<Cycle> {
        if from > until {
            return None;
        }
        let mut c = from;
        let mut i = Self::idx(c);
        // First word: mask off bits below the starting bucket.
        let mut word = self.summary[i >> 6] & (!0u64 << (i & 63));
        loop {
            if word != 0 {
                let bit = word.trailing_zeros() as usize;
                let found_i = (i & !63) + bit;
                // Distance in index space equals distance in cycle space
                // within one window.
                let c_found = c + ((found_i.wrapping_sub(Self::idx(c))) as Cycle
                    & (Self::HORIZON - 1));
                return (c_found <= until).then_some(c_found);
            }
            // Advance to the next summary word (wrapping).
            let next_i = ((i & !63) + 64) & (Self::HORIZON as usize - 1);
            c += (next_i.wrapping_sub(i) as Cycle) & (Self::HORIZON - 1);
            if c > until {
                return None;
            }
            i = next_i;
            word = self.summary[i >> 6];
        }
    }

    /// Zero one bucket and maintain the summary/pending bookkeeping.
    fn consume_bucket(&mut self, cycle: Cycle) {
        let i = Self::idx(cycle);
        self.near_pending -= self.near[i] as u64;
        self.near[i] = 0;
        self.summary[i >> 6] &= !(1 << (i & 63));
    }

    /// Discard every ring entry at or before `now` and advance the
    /// drained front.
    fn advance(&mut self, now: Cycle) {
        if now <= self.drained {
            return;
        }
        if self.near_pending > 0 {
            if now >= self.drained + Self::HORIZON {
                // The jump clears the whole window: every entry is stale.
                self.near.fill(0);
                self.summary.fill(0);
                self.near_pending = 0;
            } else {
                let mut c = self.min_hint.max(self.drained + 1);
                while self.near_pending > 0 {
                    match self.next_occupied(c, now) {
                        Some(e) => {
                            self.consume_bucket(e);
                            c = e + 1;
                        }
                        None => break,
                    }
                }
                self.min_hint = self.min_hint.max(now + 1);
            }
        }
        self.drained = now;
    }

    /// The earliest recorded wake strictly after `now`, discarding stale
    /// (already-consumed) entries on the way. `None` means no component
    /// has any upcoming event — matching the linear scan's `None` as
    /// long as every scheduled wake was pushed.
    pub fn earliest_after(&mut self, now: Cycle) -> Option<Cycle> {
        self.advance(now);
        let ring = if self.near_pending > 0 {
            let found = self
                .next_occupied(self.min_hint, self.drained + Self::HORIZON)
                .expect("near_pending > 0 implies an occupied bucket in the window");
            self.min_hint = found;
            Some(found)
        } else {
            None
        };
        while let Some(&Reverse(c)) = self.far.peek() {
            if c > now {
                break;
            }
            self.far.pop();
        }
        let far = self.far.peek().map(|&Reverse(c)| c);
        match (ring, far) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_queue_pops_stale_and_keeps_future() {
        let mut q = WakeQueue::new();
        q.push(5);
        q.push(12);
        q.push(9);
        assert_eq!(q.earliest_after(0), Some(5));
        // The cycle-5 event fires and is consumed; at now=5 its entry is
        // stale and must be skipped, not returned.
        assert_eq!(q.earliest_after(5), Some(9));
        assert_eq!(q.earliest_after(11), Some(12));
        assert_eq!(q.earliest_after(12), None);
        assert_eq!(q.earliest_after(100), None, "drained queue stays empty");
    }

    #[test]
    fn wake_queue_duplicates_are_harmless() {
        let mut q = WakeQueue::new();
        for _ in 0..10 {
            q.push(7);
        }
        q.push(3);
        assert_eq!(q.earliest_after(2), Some(3));
        assert_eq!(q.earliest_after(3), Some(7));
        assert_eq!(q.earliest_after(7), None);
    }

    #[test]
    fn wake_queue_entry_at_now_plus_one_is_live() {
        // An event scheduled for the very next cycle must be reported:
        // the tick loops jump only when `next > now + 1`, but the value
        // itself still participates in the min.
        let mut q = WakeQueue::new();
        q.push(43);
        assert_eq!(q.earliest_after(42), Some(43));
    }

    #[test]
    fn wake_queue_compaction_preserves_order() {
        let mut q = WakeQueue::new();
        // Flood with duplicates well past the compaction threshold, then
        // confirm the queue still reports the exact minimum.
        for i in 0..6_000u64 {
            q.push(1_000_000 + (i % 17));
        }
        q.push(999_999);
        assert_eq!(q.earliest_after(500_000), Some(999_999));
        assert_eq!(q.earliest_after(999_999), Some(1_000_000));
        assert_eq!(q.earliest_after(1_000_016), None);
    }

    #[test]
    fn wake_queue_ring_wraps_and_spills_to_far() {
        let mut q = WakeQueue::new();
        let h = WakeQueue::HORIZON;
        q.push(10); // within the ring
        q.push(h + 5); // beyond the horizon from a drained front of 0
        assert_eq!(q.earliest_after(9), Some(10));
        assert_eq!(q.earliest_after(10), Some(h + 5));
        // Push near the advanced front: these land on wrapped ring
        // indices and must still come out in cycle order.
        q.push(h + 6);
        q.push(2 * h);
        assert_eq!(q.earliest_after(h + 5), Some(h + 6));
        assert_eq!(q.earliest_after(h + 6), Some(2 * h));
        assert_eq!(q.earliest_after(2 * h), None);
    }

    #[test]
    fn wake_queue_clear_resets_for_reuse() {
        let mut q = WakeQueue::new();
        q.push(100);
        q.push(WakeQueue::HORIZON * 3);
        assert_eq!(q.earliest_after(50), Some(100));
        q.clear();
        assert_eq!(q.earliest_after(0), None, "cleared queue holds nothing");
        // Low cycles are valid again: the drained front reset too.
        q.push(5);
        assert_eq!(q.earliest_after(1), Some(5));
        assert_eq!(q.earliest_after(5), None);
    }

    #[test]
    fn wake_queue_matches_sorted_reference_under_random_traffic() {
        use std::collections::BTreeSet;
        let mut q = WakeQueue::new();
        let mut reference: BTreeSet<Cycle> = BTreeSet::new();
        let mut now: Cycle = 0;
        let mut x: u64 = 0x243f6a8885a308d3;
        let mut rng = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..20_000 {
            // A few pushes strictly above `now`, mixing DRAM-ish, fault
            // round-trip and beyond-horizon distances.
            for _ in 0..(rng() % 4) {
                let dist = match rng() % 4 {
                    0 => 1 + rng() % 16,
                    1 => 1 + rng() % 1_000,
                    2 => 1 + rng() % (WakeQueue::HORIZON - 1),
                    _ => 1 + rng() % (3 * WakeQueue::HORIZON),
                };
                q.push(now + dist);
                reference.insert(now + dist);
            }
            // Advance: usually small steps, sometimes a jump clean past
            // the horizon (a long idle window).
            now += match rng() % 8 {
                0 => WakeQueue::HORIZON + rng() % WakeQueue::HORIZON,
                1..=2 => 1 + rng() % 5_000,
                _ => 1 + rng() % 64,
            };
            let expect = reference.range(now + 1..).next().copied();
            assert_eq!(q.earliest_after(now), expect, "diverged at now={now}");
            reference = reference.split_off(&(now + 1));
        }
    }
}
