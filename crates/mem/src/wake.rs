//! Memoized wake-cycle publication for push-based idle scheduling.
//!
//! Latency-bearing components *push* their exact next wake cycle into a
//! shared queue (`gex_sm::wake_queue::WakeQueue`) at the moment they
//! schedule work, instead of being re-polled per idle window. [`WakeMemo`]
//! is the small helper every pushing component uses to avoid flooding the
//! queue: it remembers the last value published and yields a fresh value
//! only when the component's `next_event_cycle()` actually moved.
//!
//! Skipping the unchanged case is sound: components only ever schedule
//! *strictly-future* events and consume every due event when ticked, so a
//! component's minimum cannot be silently replaced by an equal value that
//! means a different (not yet published) event — if the minimum is
//! unchanged, the already-queued entry still covers it. Publishing a value
//! that later becomes stale is equally harmless: the wake queue pops
//! entries at or before `now` lazily.

use crate::config::Cycle;

/// Remembers the last published wake cycle of one component and yields
/// the current one only when it changed. See the [module docs](self).
#[derive(Debug, Clone, Default)]
pub struct WakeMemo {
    last: Option<Cycle>,
}

impl WakeMemo {
    /// A memo that has published nothing yet.
    pub fn new() -> Self {
        WakeMemo { last: None }
    }

    /// Publish `current` if it differs from the last published value.
    /// Returns the cycle to push into the wake queue, or `None` when the
    /// queue already covers this component's minimum.
    #[inline]
    pub fn update(&mut self, current: Option<Cycle>) -> Option<Cycle> {
        if current == self.last {
            None
        } else {
            self.last = current;
            current
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publishes_only_changes() {
        let mut m = WakeMemo::new();
        assert_eq!(m.update(Some(10)), Some(10));
        assert_eq!(m.update(Some(10)), None, "unchanged minimum stays quiet");
        assert_eq!(m.update(Some(7)), Some(7), "earlier minimum published");
        assert_eq!(m.update(None), None, "going quiet publishes nothing");
        assert_eq!(m.update(Some(7)), Some(7), "re-arming after quiet publishes again");
    }
}
