//! The simulator's one event queue: a timing wheel of per-cycle FIFO lists.
//!
//! Both the SM pipeline and the memory hierarchy schedule nearly all of
//! their events a bounded number of cycles ahead, so a power-of-two ring of
//! per-cycle buckets replaces a binary heap: scheduling appends to a list,
//! and a drain walks the buckets of the elapsed cycles. The order is a
//! heap's `(cycle, insertion)` order by construction: buckets are visited in
//! cycle order and each is a FIFO.
//!
//! Events are stored in one slab, linked into their bucket's list, so the
//! memory held tracks the live event count rather than peak per-cycle
//! occupancy times the bucket count. Events beyond the horizon wait in a
//! small ordered overflow map, one FIFO list per cycle; a cycle's overflow
//! list moves into its bucket as soon as the cycle enters the ring, which is
//! before anything can push to that bucket directly.

use crate::config::Cycle;
use std::collections::BTreeMap;

/// End of a list.
const NIL: u32 = u32::MAX;

/// A FIFO list threaded through the slab.
#[derive(Debug, Clone, Copy)]
struct List {
    head: u32,
    /// Meaningless while `head` is [`NIL`].
    tail: u32,
}

const EMPTY: List = List { head: NIL, tail: NIL };

#[derive(Debug, Clone, Copy)]
struct Node<E> {
    ev: E,
    /// Next node of the same list, or of the free list.
    next: u32,
}

/// A timing wheel of events of type `E`. See the [module docs](self).
#[derive(Debug)]
pub struct EventWheel<E> {
    /// One list per cycle residue: events at cycle `c` in
    /// `[cur, cur + buckets.len())` live in `buckets[c & mask]`.
    buckets: Vec<List>,
    mask: u64,
    /// Storage of every pending event; freed nodes chain from `free`.
    nodes: Vec<Node<E>>,
    free: u32,
    /// The cycle being drained: every earlier cycle has been dispatched.
    cur: Cycle,
    /// Events in `buckets`.
    near: usize,
    /// Events at or beyond `cur + buckets.len()`: per cycle, a list and
    /// its length.
    far: BTreeMap<Cycle, (List, usize)>,
}

impl<E: Copy> EventWheel<E> {
    /// An empty wheel at cycle 0 whose ring holds every event scheduled at
    /// most `horizon` cycles past the cycle being drained; later ones take
    /// the overflow map.
    pub fn new(horizon: Cycle) -> Self {
        let mut w = EventWheel {
            buckets: Vec::new(),
            mask: 0,
            nodes: Vec::new(),
            free: NIL,
            cur: 0,
            near: 0,
            far: BTreeMap::new(),
        };
        w.reset(horizon);
        w
    }

    /// Empty the wheel and rewind it to cycle 0, keeping its allocations —
    /// the arena-reuse path between simulation points. The ring is resized
    /// to `horizon`; its length changes where events wait, never the order
    /// they come out in.
    pub fn reset(&mut self, horizon: Cycle) {
        let len = (horizon + 1).next_power_of_two() as usize;
        self.buckets.clear();
        self.buckets.resize(len, EMPTY);
        self.mask = len as u64 - 1;
        self.nodes.clear();
        self.free = NIL;
        self.cur = 0;
        self.near = 0;
        self.far.clear();
    }

    /// True if no event is pending.
    pub fn is_empty(&self) -> bool {
        self.near == 0 && self.far.is_empty()
    }

    /// Schedule `ev` at `cycle`, behind every event already scheduled
    /// there. `cycle` may be the cycle being drained (the event comes out
    /// of the same drain) but not an earlier one.
    pub fn push(&mut self, cycle: Cycle, ev: E) {
        debug_assert!(
            cycle >= self.cur,
            "event scheduled at cycle {cycle}, but every cycle before {} was drained",
            self.cur
        );
        let i = if self.free == NIL {
            self.nodes.push(Node { ev, next: NIL });
            (self.nodes.len() - 1) as u32
        } else {
            let i = self.free;
            self.free = self.nodes[i as usize].next;
            self.nodes[i as usize] = Node { ev, next: NIL };
            i
        };
        let list = if cycle - self.cur < self.buckets.len() as u64 {
            self.near += 1;
            &mut self.buckets[(cycle & self.mask) as usize]
        } else {
            let (list, len) = self.far.entry(cycle).or_insert((EMPTY, 0));
            *len += 1;
            list
        };
        if list.head == NIL {
            list.head = i;
        } else {
            self.nodes[list.tail as usize].next = i;
        }
        list.tail = i;
    }

    /// The next event due at or before `now`, with its cycle: cycles in
    /// order, each in scheduling order, including events pushed at the
    /// cycle being drained while it drains. `None` once every cycle up to
    /// `now` is drained.
    pub fn pop_due(&mut self, now: Cycle) -> Option<(Cycle, E)> {
        while self.cur <= now {
            let bucket = &mut self.buckets[(self.cur & self.mask) as usize];
            let i = bucket.head;
            if i != NIL {
                let Node { ev, next } = self.nodes[i as usize];
                bucket.head = next;
                self.nodes[i as usize].next = self.free;
                self.free = i;
                self.near -= 1;
                return Some((self.cur, ev));
            }
            // `cur` is drained: step to the next cycle with work, or past
            // `now`. A non-empty ring bounds the walk by its length.
            let to = if self.near == 0 {
                self.far.keys().next().map_or(now + 1, |&c| c.min(now + 1))
            } else {
                let mut c = self.cur + 1;
                while c <= now && self.buckets[(c & self.mask) as usize].head == NIL {
                    c += 1;
                }
                c
            };
            self.advance(to);
        }
        None
    }

    /// Move the drain point to `to` and pull every overflow cycle that now
    /// falls inside the ring into its (still empty) bucket.
    fn advance(&mut self, to: Cycle) {
        self.cur = to;
        let end = to + self.buckets.len() as u64;
        while let Some(entry) = self.far.first_entry() {
            if *entry.key() >= end {
                break;
            }
            let (cycle, (list, len)) = entry.remove_entry();
            let bucket = &mut self.buckets[(cycle & self.mask) as usize];
            debug_assert_eq!(bucket.head, NIL, "overflow cycle {cycle} entered a busy bucket");
            *bucket = list;
            self.near += len;
        }
    }

    /// The earliest pending cycle. Walks at most one ring turn, and only
    /// when the ring holds something.
    pub fn next_cycle(&self) -> Option<Cycle> {
        if self.near == 0 {
            return self.far.keys().next().copied();
        }
        (self.cur..self.cur + self.buckets.len() as u64)
            .find(|&c| self.buckets[(c & self.mask) as usize].head != NIL)
    }
}
