//! Deterministic, stream-splittable random number generation.
//!
//! Every experiment takes a single `u64` seed. Components derive independent
//! [`SimRng`] streams from that seed plus a stream label, so adding a new
//! consumer of randomness in one component does not perturb the sequence seen
//! by any other component (a classic source of accidental non-reproducibility
//! in simulators).
//!
//! The generator is a self-contained xoshiro256++ (Blackman & Vigna) seeded
//! through a SplitMix64 finalizer — no external crates, so the whole
//! workspace builds offline and the byte-for-byte output of a seed is pinned
//! by this file alone, not by a dependency's minor version.

/// Mixes a seed and a stream label into a 64-bit state (SplitMix64 finalizer).
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One SplitMix64 step: advances `state` and returns the next output.
fn splitmix_next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Types [`SimRng::gen_range`] can sample uniformly.
///
/// Implemented for the integer types the simulator uses and for `f64`;
/// half-open (`a..b`) and inclusive (`a..=b`) ranges both work.
pub trait UniformSample: Sized {
    /// Samples uniformly from `[low, high]` (inclusive bounds).
    fn sample_inclusive(rng: &mut SimRng, low: Self, high: Self) -> Self;
}

/// Ranges accepted by [`SimRng::gen_range`].
pub trait SampleRange<T> {
    /// Draws a sample from this range using `rng`.
    fn sample(self, rng: &mut SimRng) -> T;
}

macro_rules! impl_uniform_int {
    ($($t:ty),*) => {$(
        impl UniformSample for $t {
            fn sample_inclusive(rng: &mut SimRng, low: Self, high: Self) -> Self {
                debug_assert!(low <= high);
                let span = (high as u64).wrapping_sub(low as u64);
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                low.wrapping_add(rng.bounded(span + 1) as $t)
            }
        }

        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample(self, rng: &mut SimRng) -> $t {
                assert!(self.start < self.end, "empty range");
                <$t>::sample_inclusive(rng, self.start, self.end - 1)
            }
        }

        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample(self, rng: &mut SimRng) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "empty range");
                <$t>::sample_inclusive(rng, lo, hi)
            }
        }
    )*};
}

impl_uniform_int!(u8, u16, u32, u64, usize, i32, i64);

impl UniformSample for f64 {
    fn sample_inclusive(rng: &mut SimRng, low: Self, high: Self) -> Self {
        low + rng.uniform01() * (high - low)
    }
}

impl SampleRange<f64> for core::ops::Range<f64> {
    fn sample(self, rng: &mut SimRng) -> f64 {
        assert!(self.start < self.end, "empty range");
        let x = self.start + rng.uniform01() * (self.end - self.start);
        // Guard the open upper bound against floating-point round-up.
        if x >= self.end {
            self.start
        } else {
            x
        }
    }
}

/// A seedable deterministic RNG stream (xoshiro256++).
///
/// # Examples
///
/// ```
/// use simcore::SimRng;
///
/// let mut a = SimRng::from_seed_and_stream(42, 0);
/// let mut b = SimRng::from_seed_and_stream(42, 0);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates a stream from a bare seed (stream label 0).
    pub fn new(seed: u64) -> Self {
        Self::from_seed_and_stream(seed, 0)
    }

    /// Creates an independent stream identified by `(seed, stream)`.
    pub fn from_seed_and_stream(seed: u64, stream: u64) -> Self {
        let mut sm = mix(seed, stream);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix_next(&mut sm);
        }
        // xoshiro's all-zero state is a fixed point; SplitMix64 cannot
        // produce four zeros from any input, but keep the guard explicit.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9e37_79b9_7f4a_7c15;
        }
        SimRng { s }
    }

    /// Derives a child stream; deterministic in the label.
    pub fn derive(&mut self, label: u64) -> SimRng {
        let s = self.next_u64();
        SimRng::from_seed_and_stream(s, label)
    }

    /// Returns the next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let out = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }

    /// Uniform sample in `[0, bound)` via rejection (no modulo bias).
    fn bounded(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        if bound.is_power_of_two() {
            return self.next_u64() & (bound - 1);
        }
        let zone = u64::MAX - (u64::MAX % bound) - 1;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return v % bound;
            }
        }
    }

    /// Samples uniformly from `range`.
    pub fn gen_range<T, R>(&mut self, range: R) -> T
    where
        T: UniformSample,
        R: SampleRange<T>,
    {
        range.sample(self)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.uniform01() < p
        }
    }

    /// Samples a uniform `f64` in `[0, 1)`.
    pub fn uniform01(&mut self) -> f64 {
        // 53 random mantissa bits: uniform over [0, 1) on the dyadic grid.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Samples a uniform `f64` in `(0, 1]` (safe to take `ln` of).
    fn uniform01_open_low(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Samples an exponentially distributed value with the given mean.
    ///
    /// Used for jittered service times (e.g. nfsiod marshalling); an
    /// exponential keeps the model memoryless and easy to reason about.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean >= 0.0, "exponential mean must be non-negative");
        if mean == 0.0 {
            return 0.0;
        }
        -mean * self.uniform01_open_low().ln()
    }

    /// Samples a normal value via Box-Muller.
    pub fn normal(&mut self, mean: f64, stddev: f64) -> f64 {
        let u1 = self.uniform01_open_low();
        let u2 = self.uniform01();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        mean + stddev * z
    }

    /// Shuffles a slice in place (Fisher-Yates).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.bounded(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Picks a uniformly random element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            let i = self.bounded(slice.len() as u64) as usize;
            Some(&slice[i])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_is_identical() {
        let mut a = SimRng::from_seed_and_stream(7, 3);
        let mut b = SimRng::from_seed_and_stream(7, 3);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_streams_diverge() {
        let mut a = SimRng::from_seed_and_stream(7, 0);
        let mut b = SimRng::from_seed_and_stream(7, 1);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "streams should be effectively independent");
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(1);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-5.0));
        assert!(r.chance(2.0));
    }

    #[test]
    fn chance_is_roughly_calibrated() {
        let mut r = SimRng::new(2);
        let hits = (0..10_000).filter(|_| r.chance(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "hits={hits}");
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut r = SimRng::new(3);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| r.exponential(5.0)).sum();
        let mean = sum / n as f64;
        assert!((4.8..5.2).contains(&mean), "mean={mean}");
    }

    #[test]
    fn exponential_zero_mean_is_zero() {
        let mut r = SimRng::new(4);
        assert_eq!(r.exponential(0.0), 0.0);
    }

    #[test]
    fn normal_moments_are_close() {
        let mut r = SimRng::new(6);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal(10.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((9.9..10.1).contains(&mean), "mean={mean}");
        assert!((3.6..4.4).contains(&var), "var={var}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SimRng::new(7);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>(), "50 elements should move");
    }

    #[test]
    fn choose_handles_empty_and_singleton() {
        let mut r = SimRng::new(8);
        let empty: [u8; 0] = [];
        assert_eq!(r.choose(&empty), None);
        assert_eq!(r.choose(&[42]), Some(&42));
    }

    #[test]
    fn derive_is_deterministic() {
        let mut a = SimRng::new(9);
        let mut b = SimRng::new(9);
        let mut da = a.derive(1);
        let mut db = b.derive(1);
        assert_eq!(da.next_u64(), db.next_u64());
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut r = SimRng::new(10);
        for _ in 0..1_000 {
            let x: u32 = r.gen_range(10..20);
            assert!((10..20).contains(&x));
        }
    }

    #[test]
    fn gen_range_inclusive_hits_both_ends() {
        let mut r = SimRng::new(11);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..1_000 {
            match r.gen_range(0u64..=3) {
                0 => lo_seen = true,
                3 => hi_seen = true,
                _ => {}
            }
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn gen_range_f64_stays_in_range() {
        let mut r = SimRng::new(12);
        for _ in 0..1_000 {
            let x: f64 = r.gen_range(0.25..0.75);
            assert!((0.25..0.75).contains(&x), "{x}");
        }
    }

    #[test]
    fn uniform01_is_half_open() {
        let mut r = SimRng::new(13);
        for _ in 0..10_000 {
            let u = r.uniform01();
            assert!((0.0..1.0).contains(&u));
        }
    }
}
