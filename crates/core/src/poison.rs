//! Poison-recovering lock primitives.
//!
//! The journal and the result cache are shared across every worker thread
//! of the process — including the supervised sweep workers, whose whole
//! contract is that a panicking point is isolated and its siblings keep
//! running. `Mutex::lock().unwrap()` breaks that contract: a thread that
//! panics while holding the lock poisons it, and every *later* access
//! panics too, wedging the journal or cache for every other tenant of the
//! process. Both structures are written so their invariants hold at every
//! await-free critical-section boundary (single-field inserts, append +
//! flush), so the data behind a poisoned lock is still consistent; we
//! recover the guard and carry on.

use std::sync::{Condvar, Mutex, MutexGuard};

/// Lock `m`, recovering the guard if a previous holder panicked.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Wait on `cv` with `guard`, recovering the re-acquired guard if another
/// holder panicked while we were parked.
pub(crate) fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    match cv.wait(guard) {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn lock_recovers_after_a_holder_panics() {
        let m = Mutex::new(7u32);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = m.lock().unwrap();
            panic!("poison the mutex");
        }));
        assert!(m.is_poisoned(), "the panic above must have poisoned the lock");
        assert_eq!(*lock(&m), 7, "recovered guard still reads the value");
        *lock(&m) += 1;
        assert_eq!(*lock(&m), 8);
    }
}
