//! Order equivalence of `EventWheel` with the binary heap it replaced: on
//! random schedules both dispatch the same `(cycle, event)` sequence and
//! report the same next pending cycle after every step. The schedules push
//! at the cycle being drained, far beyond the horizon, from inside and
//! outside a drain, and jump idle stretches through `next_cycle`.

use gex_mem::{Cycle, EventWheel};
use gex_testkit::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The reference: a heap ordered by `(cycle, insertion sequence)`.
#[derive(Default)]
struct Heap {
    heap: BinaryHeap<Reverse<(Cycle, u64, u32)>>,
    seq: u64,
}

impl Heap {
    fn push(&mut self, cycle: Cycle, ev: u32) {
        self.seq += 1;
        self.heap.push(Reverse((cycle, self.seq, ev)));
    }

    fn pop_due(&mut self, now: Cycle) -> Option<(Cycle, u32)> {
        let &Reverse((cycle, _, _)) = self.heap.peek()?;
        (cycle <= now).then(|| {
            let Reverse((cycle, _, ev)) = self.heap.pop().expect("peeked");
            (cycle, ev)
        })
    }

    fn next_cycle(&self) -> Option<Cycle> {
        self.heap.peek().map(|r| r.0 .0)
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Schedule from outside a drain, this many cycles past the first
    /// undrained cycle.
    Push(Cycle),
    /// Drain this many more cycles. The k-th event dispatched schedules one
    /// more `children[k]` cycles after its own cycle (0: the cycle being
    /// drained).
    Drain(Cycle, Vec<Cycle>),
    /// The idle skip: drain through `next_cycle()`, children as above.
    Jump(Vec<Cycle>),
}

fn delay() -> impl Strategy<Value = Cycle> {
    prop_oneof![Just(0u64), 1u64..8, 8u64..100, 100u64..3_000]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        delay().prop_map(Op::Push),
        delay().prop_map(Op::Push),
        (prop_oneof![1u64..4, 4u64..500], collection::vec(delay(), 0..6))
            .prop_map(|(step, children)| Op::Drain(step, children)),
        collection::vec(delay(), 0..6).prop_map(Op::Jump),
    ]
}

struct Pair {
    wheel: EventWheel<u32>,
    heap: Heap,
    /// First cycle not yet drained.
    floor: Cycle,
    next_id: u32,
}

impl Pair {
    fn push(&mut self, cycle: Cycle) {
        self.next_id += 1;
        self.wheel.push(cycle, self.next_id);
        self.heap.push(cycle, self.next_id);
    }

    fn drain(&mut self, now: Cycle, children: &[Cycle]) {
        let mut children = children.iter();
        loop {
            let got = self.wheel.pop_due(now);
            assert_eq!(got, self.heap.pop_due(now), "dispatch order diverged draining to {now}");
            let Some((cycle, _)) = got else { break };
            if let Some(&d) = children.next() {
                self.push(cycle + d);
            }
        }
        self.floor = now + 1;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn wheel_dispatches_in_heap_order(
        horizon in prop_oneof![0u64..16, 16u64..300],
        ops in collection::vec(op(), 1..80),
    ) {
        let mut p = Pair { wheel: EventWheel::new(horizon), heap: Heap::default(), floor: 0, next_id: 0 };
        for op in &ops {
            match op {
                Op::Push(d) => p.push(p.floor + d),
                Op::Drain(step, children) => p.drain(p.floor + step - 1, children),
                Op::Jump(children) => {
                    if let Some(next) = p.heap.next_cycle() {
                        p.drain(next, children);
                    }
                }
            }
            prop_assert_eq!(p.wheel.next_cycle(), p.heap.next_cycle());
            prop_assert_eq!(p.wheel.is_empty(), p.heap.heap.is_empty());
        }
    }
}

/// The heap silently ran an event scheduled into the past at its stale
/// cycle; the wheel's contract forbids it, and debug builds check it.
#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "was drained")]
fn scheduling_into_a_drained_cycle_panics() {
    let mut wheel = EventWheel::new(16);
    wheel.push(5, 0u32);
    while wheel.pop_due(5).is_some() {}
    wheel.push(5, 1);
}
