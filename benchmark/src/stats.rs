//! Order statistics for timing samples: never a best-of, always the
//! median with its quartiles, the minimum and the sample count.

use crate::json::Json;

/// Five-number summary of one timing's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Summary of `samples` (any order). All fields are 0 for an empty
    /// slice: a layer the workload bypasses has no samples.
    pub fn of(samples: &[f64]) -> Summary {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let Some((&min, &max)) = s.first().zip(s.last()) else {
            return Summary {
                n: 0,
                min: 0.0,
                q1: 0.0,
                median: 0.0,
                q3: 0.0,
                max: 0.0,
            };
        };
        Summary {
            n: s.len(),
            min,
            q1: quantile(&s, 0.25),
            median: quantile(&s, 0.5),
            q3: quantile(&s, 0.75),
            max,
        }
    }

    /// A single measurement (peak memory, a count-derived rate).
    pub fn single(v: f64) -> Summary {
        Summary::point(v, 1)
    }

    /// One figure derived from `n` samples, such as a tail percentile.
    pub fn point(v: f64, n: usize) -> Summary {
        Summary {
            n,
            min: v,
            q1: v,
            median: v,
            q3: v,
            max: v,
        }
    }

    /// Interquartile distance of the samples as a share of their median.
    /// A single sample says nothing: 0.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    pub fn to_json(self) -> Json {
        Json::obj([
            ("n", Json::Num(self.n as f64)),
            ("min", Json::Num(self.min)),
            ("q1", Json::Num(self.q1)),
            ("median", Json::Num(self.median)),
            ("q3", Json::Num(self.q3)),
            ("max", Json::Num(self.max)),
        ])
    }

    pub fn from_json(j: &Json) -> Option<Summary> {
        Some(Summary {
            n: j.get("n")?.as_f64()? as usize,
            min: j.get("min")?.as_f64()?,
            q1: j.get("q1")?.as_f64()?,
            median: j.get("median")?.as_f64()?,
            q3: j.get("q3")?.as_f64()?,
            max: j.get("max")?.as_f64()?,
        })
    }
}

/// The `p`-quantile (0..=1) of ascending `sorted` samples, interpolating
/// between order statistics at position `p * (n + 1)` — the rule of
/// Python's `statistics.quantiles`, which the acceptance check uses, so
/// a spread computed here reads the same there (for two or three samples
/// Python extrapolates past the ends; this clamps to them).
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    assert!(n > 0, "quantile of no samples");
    let pos = p * (n as f64 + 1.0);
    let lo = (pos.floor() as usize).clamp(1, n);
    let hi = (lo + 1).min(n);
    let frac = (pos - lo as f64).clamp(0.0, 1.0);
    sorted[lo - 1] + (sorted[hi - 1] - sorted[lo - 1]) * frac
}

/// The highest percentile (0..=100) of `n` samples that still has at
/// least ten samples beyond it, or `None` below eleven samples. A tail
/// percentile is only reported up to this; with n = 24 it is the 58th,
/// so the median is the round figure a 24-campaign phase supports.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    (n > 10).then(|| (n - 10) as f64 * 100.0 / n as f64)
}

/// Whether percentile `p` of `n` samples has ten samples beyond it.
pub fn supported(n: usize, p: f64) -> bool {
    highest_supported_percentile(n).is_some_and(|h| p <= h)
}

/// Percentile `p` (0..=100) of unsorted `samples` with their count, or 0
/// when there are none.
pub fn percentile(samples: &[f64], p: f64) -> Summary {
    if samples.is_empty() {
        return Summary::point(0.0, 0);
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    Summary::point(quantile(&s, p / 100.0), s.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of(&[10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.n, s.min, s.max), (10, 1.0, 10.0));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        let s = Summary::of(&[1.0, 2.0, 4.0, 8.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.25, 3.0, 7.0));
    }

    #[test]
    fn degenerate_sample_sets() {
        let s = Summary::of(&[7.5]);
        assert_eq!(s, Summary::single(7.5));
        assert_eq!(s.spread(), 0.0);
        let e = Summary::of(&[]);
        assert_eq!((e.n, e.median, e.spread()), (0, 0.0, 0.0));
        // Four samples with quartiles 1.25 and 7 around a median of 3.
        let s = Summary::of(&[1.0, 2.0, 4.0, 8.0]);
        assert!((s.spread() - 5.75 / 3.0).abs() < 1e-12);
        assert_eq!(percentile(&[], 90.0), Summary::point(0.0, 0));
    }

    #[test]
    fn median_is_not_the_best_sample() {
        let s = Summary::of(&[1.0, 9.0, 9.0, 9.0, 9.0]);
        assert_eq!(s.median, 9.0);
        assert_eq!(s.min, 1.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert_eq!(highest_supported_percentile(10), None);
        // 24 campaigns: the 14th of 24 has ten beyond it, so the median
        // (not p90) is what the phase can report.
        let h = highest_supported_percentile(24).unwrap();
        assert!((h - 58.333).abs() < 0.01, "{h}");
        assert!(h >= 50.0);
        assert!(highest_supported_percentile(19).unwrap() < 50.0);
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        let many: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = percentile(&many, 90.0);
        assert!(p90.n == 100 && (p90.median - 90.9).abs() < 1e-9, "{p90:?}");
        assert!(supported(100, 90.0) && !supported(99, 90.0));
        assert!(!supported(24, 90.0) && supported(24, 50.0) && !supported(19, 50.0));
    }

    #[test]
    fn summary_round_trips_through_json() {
        let s = Summary::of(&[0.1, 0.25, 1.0 / 3.0, 2.0]);
        assert_eq!(Summary::from_json(&s.to_json()), Some(s));
    }
}
