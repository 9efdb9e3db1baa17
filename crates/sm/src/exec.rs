//! Backend execution-unit occupancy.
//!
//! Each unit class has a number of instances (Table 1: 2 math, 1 SFU,
//! 1 ld/st, 1 branch). An instruction needs a free instance at issue and
//! occupies it for the op's initiation interval; the latency until the
//! result is available is tracked separately by the pipeline.

use gex_isa::op::Unit;
use gex_mem::Cycle;

/// Occupancy tracker for all backend units of one SM.
#[derive(Debug, Clone)]
pub struct ExecUnits {
    math: Vec<Cycle>,
    sfu: Vec<Cycle>,
    ldst: Vec<Cycle>,
    branch: Vec<Cycle>,
}

impl ExecUnits {
    /// Build the unit pool from instance counts.
    pub fn new(math: u32, sfu: u32, ldst: u32, branch: u32) -> Self {
        ExecUnits {
            math: vec![0; math.max(1) as usize],
            sfu: vec![0; sfu.max(1) as usize],
            ldst: vec![0; ldst.max(1) as usize],
            branch: vec![0; branch.max(1) as usize],
        }
    }

    fn pool(&mut self, unit: Unit) -> &mut Vec<Cycle> {
        match unit {
            Unit::Math => &mut self.math,
            Unit::Sfu => &mut self.sfu,
            Unit::LdSt => &mut self.ldst,
            Unit::Branch => &mut self.branch,
        }
    }

    /// True if some instance of `unit` is free at `now`.
    pub fn available(&mut self, unit: Unit, now: Cycle) -> bool {
        self.pool(unit).iter().any(|&busy| busy <= now)
    }

    /// The first cycle after `now` at which [`ExecUnits::available`] can
    /// change its answer: the earliest cycle at which a unit class whose
    /// every instance is busy at `now` gets one back. `None` if no class
    /// is fully busy. Availability only ever turns from busy to free as
    /// time passes, so every answer stands until then.
    pub fn next_free_after(&self, now: Cycle) -> Option<Cycle> {
        [&self.math, &self.sfu, &self.ldst, &self.branch]
            .into_iter()
            .filter_map(|pool| pool.iter().copied().min().filter(|&free| free > now))
            .min()
    }

    /// Reserve an instance of `unit` for `interval` cycles starting at
    /// `now`. Returns false (and reserves nothing) if all are busy.
    pub fn reserve(&mut self, unit: Unit, now: Cycle, interval: Cycle) -> bool {
        let pool = self.pool(unit);
        if let Some(slot) = pool.iter_mut().find(|busy| **busy <= now) {
            *slot = now + interval.max(1);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_math_units_dual_issue() {
        let mut u = ExecUnits::new(2, 1, 1, 1);
        assert!(u.reserve(Unit::Math, 0, 1));
        assert!(u.reserve(Unit::Math, 0, 1));
        assert!(!u.reserve(Unit::Math, 0, 1), "only two math units");
        assert!(u.reserve(Unit::Math, 1, 1), "free again next cycle");
    }

    #[test]
    fn initiation_interval_blocks_unit() {
        let mut u = ExecUnits::new(2, 1, 1, 1);
        assert!(u.reserve(Unit::Sfu, 0, 8));
        assert!(!u.available(Unit::Sfu, 4));
        assert!(u.available(Unit::Sfu, 8));
    }

    #[test]
    fn unit_classes_are_independent() {
        let mut u = ExecUnits::new(2, 1, 1, 1);
        assert!(u.reserve(Unit::LdSt, 0, 32));
        assert!(u.reserve(Unit::Branch, 0, 1));
        assert!(u.reserve(Unit::Math, 0, 1));
        assert!(!u.available(Unit::LdSt, 16), "coalescer busy");
    }

    #[test]
    fn next_free_after_is_the_first_class_to_free_up() {
        let mut u = ExecUnits::new(2, 1, 1, 1);
        assert_eq!(u.next_free_after(0), None, "nothing busy");
        // One of two math units busy: the class stays available, so its
        // free cycle is not a change point.
        assert!(u.reserve(Unit::Math, 0, 5));
        assert_eq!(u.next_free_after(0), None);
        assert!(u.reserve(Unit::Math, 0, 3));
        assert!(u.reserve(Unit::LdSt, 0, 32));
        assert!(u.reserve(Unit::Sfu, 0, 8));
        // Math frees first (its earlier instance at 3), then SFU, then ld/st.
        assert_eq!(u.next_free_after(0), Some(3));
        assert_eq!(u.next_free_after(2), Some(3));
        assert_eq!(u.next_free_after(3), Some(8));
        assert_eq!(u.next_free_after(8), Some(32));
        assert_eq!(u.next_free_after(32), None);
        // Every cycle before the answer sees the same availability.
        for t in 3..8 {
            assert!(u.available(Unit::Math, t) && !u.available(Unit::Sfu, t));
        }
    }
}
