//! Seeded, deterministic pseudo-random numbers for the gex workspace.
//!
//! The simulator needs reproducible randomness in two places: workload
//! dataset generation (`gex-workloads`) and the fault-injection harness
//! (`gex-sim`). Both demand *bit-stable* streams — the same seed must
//! produce the same dataset and the same injection schedule on every
//! platform and in every build — so we carry our own tiny generator
//! instead of an external crate: splitmix64 to expand the seed,
//! xoshiro256** as the stream.
//!
//! The API mirrors the familiar `rand` surface (`seed_from_u64`,
//! `gen`, `gen_range`, `gen_bool`) for the handful of types the
//! workspace actually uses.

#![deny(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// Deterministic xoshiro256** generator, seeded via splitmix64.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Prng {
    /// Build a generator whose stream is a pure function of `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        Prng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, 1)` with 24 bits of precision.
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// A uniformly random value of `T` (ints over their full range,
    /// floats in `[0, 1)`).
    pub fn gen<T: Sample>(&mut self) -> T {
        T::sample(self)
    }

    /// A uniformly random value in `range` (half-open `a..b` or
    /// inclusive `a..=b`; integer or float).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Split off an independent child generator; the parent advances by
    /// one draw. Useful for giving subsystems their own streams.
    pub fn fork(&mut self) -> Prng {
        Prng::seed_from_u64(self.next_u64())
    }
}

/// Types [`Prng::gen`] can produce.
pub trait Sample {
    /// Draw one value.
    fn sample(rng: &mut Prng) -> Self;
}

macro_rules! sample_int {
    ($($t:ty),*) => {$(
        impl Sample for $t {
            fn sample(rng: &mut Prng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
sample_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Sample for bool {
    fn sample(rng: &mut Prng) -> Self {
        rng.next_u64() & 1 == 1
    }
}
impl Sample for f32 {
    fn sample(rng: &mut Prng) -> Self {
        rng.next_f32()
    }
}
impl Sample for f64 {
    fn sample(rng: &mut Prng) -> Self {
        rng.next_f64()
    }
}

/// Ranges [`Prng::gen_range`] can sample from.
pub trait SampleRange {
    /// Element type of the range.
    type Output;
    /// Draw one value from the range.
    fn sample(self, rng: &mut Prng) -> Self::Output;
}

/// Uniform u64 in `[0, span)` via widening multiply (deterministic,
/// bias < 2^-64 for the spans used here).
fn uniform_below(rng: &mut Prng, span: u64) -> u64 {
    ((rng.next_u64() as u128 * span as u128) >> 64) as u64
}

macro_rules! range_uint {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            fn sample(self, rng: &mut Prng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end - self.start) as u64;
                self.start + uniform_below(rng, span) as $t
            }
        }
        impl SampleRange for RangeInclusive<$t> {
            type Output = $t;
            fn sample(self, rng: &mut Prng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + uniform_below(rng, span + 1) as $t
            }
        }
    )*};
}
range_uint!(u8, u16, u32, u64, usize);

macro_rules! range_int {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            fn sample(self, rng: &mut Prng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as i64).wrapping_sub(self.start as i64) as u64;
                (self.start as i64).wrapping_add(uniform_below(rng, span) as i64) as $t
            }
        }
        impl SampleRange for RangeInclusive<$t> {
            type Output = $t;
            fn sample(self, rng: &mut Prng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi as i64).wrapping_sub(lo as i64) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (lo as i64).wrapping_add(uniform_below(rng, span + 1) as i64) as $t
            }
        }
    )*};
}
range_int!(i8, i16, i32, i64, isize);

impl SampleRange for Range<f32> {
    type Output = f32;
    fn sample(self, rng: &mut Prng) -> f32 {
        assert!(self.start < self.end, "empty range");
        self.start + rng.next_f32() * (self.end - self.start)
    }
}
impl SampleRange for Range<f64> {
    type Output = f64;
    fn sample(self, rng: &mut Prng) -> f64 {
        assert!(self.start < self.end, "empty range");
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Prng::seed_from_u64(42);
        let mut b = Prng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Prng::seed_from_u64(1);
        let mut b = Prng::seed_from_u64(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn stream_is_pinned() {
        // Guard against accidental algorithm changes: workload datasets
        // and injection schedules depend on these exact values.
        let mut r = Prng::seed_from_u64(0);
        assert_eq!(r.next_u64(), 0x99EC_5F36_CB75_F2B4);
        assert_eq!(r.next_u64(), 0xBF6E_1F78_4956_452A);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = Prng::seed_from_u64(7);
        for _ in 0..1000 {
            let v = r.gen_range(10u64..20);
            assert!((10..20).contains(&v));
            let w = r.gen_range(1u32..=5);
            assert!((1..=5).contains(&w));
            let x = r.gen_range(-3i32..3);
            assert!((-3..3).contains(&x));
            let f = r.gen_range(-1.0f32..1.0);
            assert!((-1.0..1.0).contains(&f));
            let u = r.gen_range(0usize..1);
            assert_eq!(u, 0);
        }
    }

    #[test]
    fn range_covers_endpoints() {
        let mut r = Prng::seed_from_u64(3);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[r.gen_range(0usize..4)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets hit: {seen:?}");
    }

    #[test]
    fn gen_bool_is_calibrated() {
        let mut r = Prng::seed_from_u64(11);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.25)).count();
        assert!((2200..2800).contains(&hits), "{hits}");
        assert!(!(0..100).any(|_| r.gen_bool(0.0)));
        assert!((0..100).all(|_| r.gen_bool(1.1)));
    }

    #[test]
    fn floats_in_unit_interval() {
        let mut r = Prng::seed_from_u64(5);
        for _ in 0..1000 {
            let f: f32 = r.gen();
            assert!((0.0..1.0).contains(&f));
            let d: f64 = r.gen();
            assert!((0.0..1.0).contains(&d));
        }
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut a = Prng::seed_from_u64(9);
        let mut c1 = a.fork();
        let mut c2 = a.fork();
        assert_ne!(c1.next_u64(), c2.next_u64());
    }
}
