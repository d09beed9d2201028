//! Statistics helpers for benchmark reporting.
//!
//! The paper reports each point as the mean of at least ten runs with the
//! standard deviation (Table 1 prints it in parentheses). [`OnlineStats`]
//! accumulates those moments in one pass (Welford's algorithm);
//! [`Summary`] is the frozen result. [`LogHist`] streams latency
//! distributions with bounded memory for tail quantiles.

use std::fmt;

/// One-pass accumulator of count/mean/variance/min/max (Welford).
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample standard deviation with Bessel's correction (0 if n < 2).
    pub fn stddev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).sqrt()
        }
    }

    /// Freezes into a [`Summary`].
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.n,
            mean: self.mean(),
            stddev: self.stddev(),
            min: if self.n == 0 { 0.0 } else { self.min },
            max: if self.n == 0 { 0.0 } else { self.max },
        }
    }
}

impl FromIterator<f64> for OnlineStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = OnlineStats::new();
        for x in iter {
            s.add(x);
        }
        s
    }
}

/// Frozen summary statistics of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: u64,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (Bessel-corrected).
    pub stddev: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
}

impl Summary {
    /// Computes the summary of a slice in one pass.
    pub fn of(xs: &[f64]) -> Summary {
        xs.iter().copied().collect::<OnlineStats>().summary()
    }

    /// Half-width of the ~95 % confidence interval of the mean
    /// (normal approximation; fine for the n >= 10 runs used here).
    pub fn ci95_half_width(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            1.96 * self.stddev / (self.count as f64).sqrt()
        }
    }

    /// Coefficient of variation (stddev / mean); 0 when the mean is 0.
    pub fn cv(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.stddev / self.mean
        }
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} ({:.2})", self.mean, self.stddev)
    }
}

/// Returns the `q`-quantile (0 <= q <= 1) of a sample by linear
/// interpolation, or `None` for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

/// Number of linear sub-buckets per octave in [`LogHist`] (power of two).
const LOG_SUB: u32 = 6;
const SUB: u64 = 1 << LOG_SUB;
/// Octaves with msb in `LOG_SUB..=63`, plus the exact low range `[0, SUB)`.
const LOG_BUCKETS: usize = (SUB as usize) * (64 - LOG_SUB as usize + 1);

/// A streaming log-bucketed histogram over `u64` values (e.g. latency in
/// nanoseconds) with bounded memory and exact, order-independent merging.
///
/// Values below [`SUB`] are counted exactly; every octave `[2^m, 2^(m+1))`
/// above that is split into [`SUB`] linear sub-buckets, so the bucket width
/// never exceeds `value / SUB` — quantiles carry a relative error of at
/// most `1/SUB` (~1.6 %). All state is integer counters: merging shard
/// histograms is element-wise addition, which makes `merge` commutative and
/// associative and a merged histogram bit-identical to one built
/// sequentially from the same observations in any order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHist {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LogHist {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHist {
    /// Creates an empty histogram (~30 KB of bucket counters).
    pub fn new() -> Self {
        LogHist {
            counts: vec![0; LOG_BUCKETS],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket_index(v: u64) -> usize {
        if v < SUB {
            v as usize
        } else {
            let msb = 63 - v.leading_zeros();
            let shift = msb - LOG_SUB;
            let sub = (v >> shift) - SUB;
            (SUB as usize) + (msb - LOG_SUB) as usize * SUB as usize + sub as usize
        }
    }

    /// Lower bound of bucket `i` (the representative value reported for it
    /// is the bucket midpoint).
    fn bucket_lo(i: usize) -> u64 {
        let i = i as u64;
        if i < SUB {
            i
        } else {
            let octave = (i - SUB) / SUB;
            let sub = (i - SUB) % SUB;
            (SUB + sub) << octave
        }
    }

    fn bucket_width(i: usize) -> u64 {
        if (i as u64) < SUB {
            1
        } else {
            1u64 << ((i as u64 - SUB) / SUB)
        }
    }

    /// Records one observation.
    pub fn add(&mut self, v: u64) {
        self.add_n(v, 1);
    }

    /// Records `n` identical observations.
    pub fn add_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[Self::bucket_index(v)] += n;
        self.total += n;
        self.sum += v as u128 * n as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Folds `other` into `self` (element-wise counter addition).
    pub fn merge(&mut self, other: &LogHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += *b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Sum of all observations (exact; u128 to survive 100k × hour-scale
    /// nanosecond latencies).
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Mean observation, or 0 for an empty histogram.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Smallest observation (exact), or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.total > 0).then_some(self.min)
    }

    /// Largest observation (exact), or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.total > 0).then_some(self.max)
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) as the midpoint of the bucket holding
    /// the rank-`⌊q·(n-1)⌋` observation, clamped to the observed min/max.
    /// Relative error vs. the exact order statistic is bounded by `1/SUB`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = (q * (self.total - 1) as f64).floor() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen > rank {
                let mid = Self::bucket_lo(i) + Self::bucket_width(i) / 2;
                return Some(mid.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Heap bytes held by the bucket array (the memory-footprint story).
    pub fn bytes(&self) -> usize {
        self.counts.capacity() * std::mem::size_of::<u64>()
    }

    /// Order-stable FNV-1a fingerprint over the non-empty buckets; equal
    /// histograms (however built) fingerprint identically.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |x: u64| {
            for b in x.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        fold(self.total);
        for (i, &c) in self.counts.iter().enumerate() {
            if c != 0 {
                fold(i as u64);
                fold(c);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_zero() {
        let s = OnlineStats::new().summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.stddev, 0.0);
    }

    #[test]
    fn mean_and_stddev_match_hand_computation() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean - 5.0).abs() < 1e-12);
        // Sample stddev of that classic set is sqrt(32/7).
        assert!((s.stddev - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
    }

    #[test]
    fn single_observation_has_zero_stddev() {
        let s = Summary::of(&[3.5]);
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.mean, 3.5);
        assert_eq!(s.ci95_half_width(), 0.0);
    }

    #[test]
    fn ci_narrows_with_sample_size() {
        let few = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        let many = Summary::of(&[1.0, 2.0, 3.0, 4.0].repeat(25));
        assert!(many.ci95_half_width() < few.ci95_half_width());
    }

    #[test]
    fn display_matches_paper_table_format() {
        let s = Summary::of(&[7.66, 7.66, 7.66]);
        assert_eq!(format!("{s}"), "7.66 (0.00)");
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(5.0));
        assert_eq!(quantile(&xs, 0.5), Some(3.0));
        assert_eq!(quantile(&xs, 0.25), Some(2.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn quantile_is_order_insensitive() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(quantile(&xs, 0.5), Some(3.0));
    }

    #[test]
    fn cv_of_constant_sample_is_zero() {
        let s = Summary::of(&[4.0; 10]);
        assert_eq!(s.cv(), 0.0);
    }

    #[test]
    fn loghist_small_values_are_exact() {
        let mut h = LogHist::new();
        for v in 0..128u64 {
            h.add(v);
        }
        assert_eq!(h.total(), 128);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(127));
        // Values below two octaves of SUB land in width-1 buckets.
        assert_eq!(h.quantile(0.0), Some(0));
        assert_eq!(h.quantile(1.0), Some(127));
        assert_eq!(h.quantile(0.5), Some(63));
    }

    #[test]
    fn loghist_relative_error_bound() {
        let mut h = LogHist::new();
        let v = 1_000_000_007u64;
        h.add(v);
        let got = h.quantile(0.5).unwrap();
        let err = got.abs_diff(v) as f64 / v as f64;
        assert!(err <= 1.0 / 64.0, "relative error {err} too large");
    }

    #[test]
    fn loghist_merge_is_elementwise() {
        let mut a = LogHist::new();
        let mut b = LogHist::new();
        let mut seq = LogHist::new();
        for v in [3u64, 70, 9_000, 1 << 40] {
            a.add(v);
            seq.add(v);
        }
        for v in [5u64, 70, 123_456] {
            b.add(v);
            seq.add(v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge must commute");
        assert_eq!(ab, seq, "merged == sequential");
        assert_eq!(ab.fingerprint(), seq.fingerprint());
    }

    #[test]
    fn loghist_empty_quantile_is_none() {
        assert_eq!(LogHist::new().quantile(0.5), None);
        assert_eq!(LogHist::new().min(), None);
    }

    #[test]
    fn from_iterator_collects() {
        let s: OnlineStats = vec![1.0, 2.0, 3.0].into_iter().collect();
        assert_eq!(s.count(), 3);
        assert!((s.mean() - 2.0).abs() < 1e-12);
    }
}
