//! Simulated time.
//!
//! All simulation components share a single notion of time: a monotonically
//! non-decreasing count of nanoseconds since the start of the run, wrapped in
//! [`SimTime`]. Durations between instants are [`SimDuration`]. Both are thin
//! newtypes over `u64` so that arithmetic is cheap and `Copy`.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in nanoseconds since the start of the run.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable instant; useful as an "infinity" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Returns the raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the instant as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns the duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`; simulated time never runs
    /// backwards, so this indicates a logic error in the caller.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        assert!(
            earlier.0 <= self.0,
            "SimTime::since: earlier ({earlier:?}) is after self ({self:?})"
        );
        SimDuration(self.0 - earlier.0)
    }

    /// Returns the duration elapsed since `earlier`, saturating at zero.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Creates a duration from fractional seconds, rounding to nanoseconds.
    ///
    /// Negative inputs and NaN clamp to zero: physical service times are
    /// never negative, and clamping keeps jittered-model arithmetic total.
    /// Inputs beyond `u64::MAX` nanoseconds saturate.
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration(round_nanos(s * 1e9))
    }

    /// Creates a duration from fractional milliseconds.
    pub fn from_millis_f64(ms: f64) -> Self {
        Self::from_secs_f64(ms / 1e3)
    }

    /// Creates a duration from fractional microseconds.
    pub fn from_micros_f64(us: f64) -> Self {
        Self::from_secs_f64(us / 1e6)
    }

    /// Returns the raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the duration as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns the duration as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Multiplies the duration by an integer factor, saturating on overflow.
    pub fn saturating_mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }

    /// Scales the duration by a non-negative floating-point factor.
    pub fn mul_f64(self, k: f64) -> SimDuration {
        Self::from_secs_f64(self.as_secs_f64() * k)
    }

    /// Returns the larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// Returns the smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }
}

/// `x.round() as u64` without libm. The cast truncates (NaN and
/// negatives to 0, saturating at `u64::MAX`) and the fraction it drops,
/// `x - t`, is exact, so adding one from ½ rounds half away from zero.
#[inline]
fn round_nanos(x: f64) -> u64 {
    let t = x as u64;
    t.saturating_add(u64::from(x - t as f64 >= 0.5))
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        *self = *self + d;
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, d: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(d.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, d: SimDuration) {
        *self = *self + d;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;

    fn sub(self, d: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(d.0))
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}ns", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.2}us", self.0 as f64 / 1e3)
        } else if self.0 < 1_000_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else {
            write!(f, "{:.4}s", self.as_secs_f64())
        }
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_roundtrip_nanos() {
        let t = SimTime::from_nanos(123_456_789);
        assert_eq!(t.as_nanos(), 123_456_789);
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_micros(5).as_nanos(), 5_000);
        assert_eq!(SimDuration::from_millis(5).as_nanos(), 5_000_000);
        assert_eq!(SimDuration::from_secs(5).as_nanos(), 5_000_000_000);
        assert_eq!(SimDuration::from_secs_f64(0.5).as_nanos(), 500_000_000);
        assert_eq!(SimDuration::from_millis_f64(1.5).as_nanos(), 1_500_000);
        assert_eq!(SimDuration::from_micros_f64(2.5).as_nanos(), 2_500);
    }

    #[test]
    fn negative_float_duration_clamps_to_zero() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
    }

    /// The libm reference: `f64::round`, then the saturating cast.
    fn libm_nanos(s: f64) -> u64 {
        (s * 1e9).round() as u64
    }

    #[test]
    fn rounding_matches_libm_on_edge_values() {
        let below_half = 0.5f64.next_down();
        let mut xs = vec![
            0.0,
            -0.0,
            -0.4,
            -0.5,
            -0.6,
            -1.0,
            -1e300,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            below_half,
            0.5,
            1.5,
            2.5,
            1e9 + 0.5,
            2f64.powi(63),
            2f64.powi(64),
            u64::MAX as f64,
            1e30,
            f64::MAX,
        ];
        // Each .5 tie and the value just below it, up to where f64 still
        // carries a half.
        for k in [1u64, 2, 3, 1_000, 123_456_789, 1 << 40, (1 << 52) - 1] {
            let tie = k as f64 + 0.5;
            xs.extend([tie, tie.next_down(), tie.next_up()]);
        }
        for p in [52, 53] {
            let c = 2f64.powi(p);
            xs.extend([c - 1.0, c, c + 1.0, c.next_down(), c.next_up()]);
        }
        for x in xs {
            assert_eq!(round_nanos(x), x.round() as u64, "x = {x:e}");
            // The same values as seconds, through the public constructor.
            let s = x / 1e9;
            assert_eq!(
                SimDuration::from_secs_f64(s).as_nanos(),
                libm_nanos(s),
                "s = {s:e}"
            );
        }
        assert_eq!(round_nanos(below_half), 0);
        assert_eq!(round_nanos(2.5), 3, "ties round away from zero");
        assert_eq!(round_nanos(1e30), u64::MAX, "saturates");
    }

    #[test]
    fn rounding_matches_libm_on_random_values() {
        let mut rng = crate::SimRng::new(0x0D_5EC5);
        for i in 0..1_000_000u32 {
            let s = match i % 4 {
                // Every bit pattern: NaNs, infinities, subnormals, huge.
                0 => f64::from_bits(rng.next_u64()),
                // The simulator's range: nanoseconds to minutes.
                1 => rng.uniform01() * 100.0,
                2 => rng.uniform01() * 1e-6,
                // Exactly on a half nanosecond.
                _ => (rng.next_u64() >> 12) as f64 * 0.5e-9 + 0.5e-9,
            };
            assert_eq!(
                SimDuration::from_secs_f64(s).as_nanos(),
                libm_nanos(s),
                "s = {s:e} (bits {:#x})",
                s.to_bits()
            );
        }
    }

    #[test]
    fn add_duration_to_time() {
        let t = SimTime::from_nanos(100) + SimDuration::from_nanos(50);
        assert_eq!(t.as_nanos(), 150);
    }

    #[test]
    fn since_computes_difference() {
        let a = SimTime::from_nanos(100);
        let b = SimTime::from_nanos(350);
        assert_eq!(b.since(a).as_nanos(), 250);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "earlier")]
    fn since_panics_when_backwards() {
        let a = SimTime::from_nanos(100);
        let b = SimTime::from_nanos(350);
        let _ = a.since(b);
    }

    #[test]
    fn saturating_arithmetic_never_overflows() {
        let t = SimTime::MAX + SimDuration::from_secs(1);
        assert_eq!(t, SimTime::MAX);
        let d = SimDuration::from_nanos(u64::MAX).saturating_mul(2);
        assert_eq!(d.as_nanos(), u64::MAX);
    }

    #[test]
    fn mul_f64_scales() {
        let d = SimDuration::from_millis(10).mul_f64(2.5);
        assert_eq!(d.as_nanos(), 25_000_000);
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(SimTime::from_nanos(1) < SimTime::from_nanos(2));
        assert!(SimDuration::from_millis(1) < SimDuration::from_secs(1));
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_millis).sum();
        assert_eq!(total, SimDuration::from_millis(10));
    }

    #[test]
    fn display_formats_are_humane() {
        assert_eq!(format!("{}", SimDuration::from_nanos(10)), "10ns");
        assert_eq!(format!("{}", SimDuration::from_micros(10)), "10.00us");
        assert_eq!(format!("{}", SimDuration::from_millis(10)), "10.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(10)), "10.0000s");
    }
}
