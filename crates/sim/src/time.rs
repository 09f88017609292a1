//! Integer-microsecond simulation time.
//!
//! [`Time`] is an instant measured from the start of a simulation; [`Dur`]
//! is a span between instants. Both wrap a `u64` count of microseconds,
//! which covers ~584,000 years of simulated time — overflow is treated as a
//! logic bug and panics in debug builds via the standard integer semantics.
//!
//! Microseconds are the right grain for RTC simulation: a 1200-byte packet
//! on a 100 Mbps link lasts 96 µs, a video frame interval at 240 fps is
//! 4167 µs, and sub-microsecond effects (serialization on >10 Gbps links)
//! are below the fidelity of the queueing models built on top.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// A duration in integer microseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Dur(u64);

impl Dur {
    /// The zero-length duration.
    pub const ZERO: Dur = Dur(0);

    /// One microsecond.
    pub const MICRO: Dur = Dur(1);

    /// One millisecond.
    pub const MILLI: Dur = Dur(1_000);

    /// One second.
    pub const SECOND: Dur = Dur(1_000_000);

    /// Creates a duration from whole microseconds.
    #[inline]
    pub const fn micros(us: u64) -> Dur {
        Dur(us)
    }

    /// Creates a duration from whole milliseconds.
    #[inline]
    pub const fn millis(ms: u64) -> Dur {
        Dur(ms * 1_000)
    }

    /// Creates a duration from whole seconds.
    #[inline]
    pub const fn secs(s: u64) -> Dur {
        Dur(s * 1_000_000)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// microsecond. Negative or non-finite inputs clamp to zero: callers
    /// pass model outputs here (e.g. `bits / rate`) and a transiently
    /// negative intermediate must not wrap to 584 millennia.
    pub fn from_secs_f64(s: f64) -> Dur {
        if !s.is_finite() || s <= 0.0 {
            return Dur::ZERO;
        }
        Dur((s * 1e6).round() as u64)
    }

    /// Whole microseconds in this duration.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Whole milliseconds, truncating.
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// This duration in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This duration in fractional milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// True if this is the zero duration.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction: returns zero instead of underflowing.
    #[inline]
    pub const fn saturating_sub(self, rhs: Dur) -> Dur {
        Dur(self.0.saturating_sub(rhs.0))
    }

    /// Checked subtraction.
    #[inline]
    pub const fn checked_sub(self, rhs: Dur) -> Option<Dur> {
        match self.0.checked_sub(rhs.0) {
            Some(v) => Some(Dur(v)),
            None => None,
        }
    }

    /// The larger of two durations.
    #[inline]
    pub fn max(self, other: Dur) -> Dur {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The smaller of two durations.
    #[inline]
    pub fn min(self, other: Dur) -> Dur {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// The transmission time of `bits` at `rate_bps` bits per second.
    ///
    /// This is the single conversion the link and pacer models use, kept
    /// here so rounding is identical everywhere. Zero or negative rates
    /// yield [`Dur::ZERO`]; callers gate on link availability separately.
    pub fn for_bits(bits: u64, rate_bps: f64) -> Dur {
        if rate_bps <= 0.0 {
            return Dur::ZERO;
        }
        Dur::from_secs_f64(bits as f64 / rate_bps)
    }
}

impl Add for Dur {
    type Output = Dur;
    #[inline]
    fn add(self, rhs: Dur) -> Dur {
        Dur(self.0 + rhs.0)
    }
}

impl AddAssign for Dur {
    #[inline]
    fn add_assign(&mut self, rhs: Dur) {
        self.0 += rhs.0;
    }
}

impl Sub for Dur {
    type Output = Dur;
    #[inline]
    fn sub(self, rhs: Dur) -> Dur {
        Dur(self.0 - rhs.0)
    }
}

impl SubAssign for Dur {
    #[inline]
    fn sub_assign(&mut self, rhs: Dur) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Dur {
    type Output = Dur;
    #[inline]
    fn mul(self, rhs: u64) -> Dur {
        Dur(self.0 * rhs)
    }
}

impl Div<u64> for Dur {
    type Output = Dur;
    #[inline]
    fn div(self, rhs: u64) -> Dur {
        Dur(self.0 / rhs)
    }
}

impl Div<Dur> for Dur {
    type Output = f64;
    /// Ratio of two durations (dimensionless).
    #[inline]
    fn div(self, rhs: Dur) -> f64 {
        self.0 as f64 / rhs.0 as f64
    }
}

impl Rem<Dur> for Dur {
    type Output = Dur;
    #[inline]
    fn rem(self, rhs: Dur) -> Dur {
        Dur(self.0 % rhs.0)
    }
}

impl Sum for Dur {
    fn sum<I: Iterator<Item = Dur>>(iter: I) -> Dur {
        iter.fold(Dur::ZERO, Add::add)
    }
}

impl fmt::Debug for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

/// An instant on the simulation clock, measured from simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

impl Time {
    /// The simulation epoch (t = 0).
    pub const ZERO: Time = Time(0);

    /// The far future; useful as an "never fires" sentinel.
    pub const FAR_FUTURE: Time = Time(u64::MAX);

    /// Creates an instant `us` microseconds after the epoch.
    #[inline]
    pub const fn from_micros(us: u64) -> Time {
        Time(us)
    }

    /// Creates an instant `ms` milliseconds after the epoch.
    #[inline]
    pub const fn from_millis(ms: u64) -> Time {
        Time(ms * 1_000)
    }

    /// Creates an instant `s` seconds after the epoch.
    #[inline]
    pub const fn from_secs(s: u64) -> Time {
        Time(s * 1_000_000)
    }

    /// Microseconds since the epoch.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Fractional seconds since the epoch.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Fractional milliseconds since the epoch.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Duration since an earlier instant. Panics in debug builds if
    /// `earlier` is actually later.
    #[inline]
    pub fn since(self, earlier: Time) -> Dur {
        debug_assert!(
            self >= earlier,
            "Time::since: {self:?} is before {earlier:?}"
        );
        Dur::micros(self.0 - earlier.0)
    }

    /// Duration since an earlier instant, or zero if `earlier` is later.
    #[inline]
    pub fn saturating_since(self, earlier: Time) -> Dur {
        Dur::micros(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: Time) -> Time {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The earlier of two instants.
    #[inline]
    pub fn min(self, other: Time) -> Time {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add<Dur> for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Dur) -> Time {
        Time(self.0 + rhs.as_micros())
    }
}

impl AddAssign<Dur> for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Dur) {
        self.0 += rhs.as_micros();
    }
}

impl Sub<Dur> for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: Dur) -> Time {
        Time(self.0 - rhs.as_micros())
    }
}

impl Sub<Time> for Time {
    type Output = Dur;
    #[inline]
    fn sub(self, rhs: Time) -> Dur {
        self.since(rhs)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dur_constructors_agree() {
        assert_eq!(Dur::secs(2), Dur::micros(2_000_000));
        assert_eq!(Dur::millis(3), Dur::micros(3_000));
        assert_eq!(Dur::SECOND, Dur::secs(1));
        assert_eq!(Dur::MILLI, Dur::millis(1));
    }

    #[test]
    fn dur_from_secs_f64_rounds() {
        assert_eq!(Dur::from_secs_f64(0.0000014), Dur::micros(1));
        assert_eq!(Dur::from_secs_f64(0.0000016), Dur::micros(2));
    }

    #[test]
    fn dur_from_secs_f64_clamps_bad_inputs() {
        assert_eq!(Dur::from_secs_f64(-1.0), Dur::ZERO);
        assert_eq!(Dur::from_secs_f64(f64::NAN), Dur::ZERO);
        assert_eq!(Dur::from_secs_f64(f64::NEG_INFINITY), Dur::ZERO);
    }

    #[test]
    fn dur_arithmetic() {
        let a = Dur::millis(5);
        let b = Dur::millis(2);
        assert_eq!(a + b, Dur::millis(7));
        assert_eq!(a - b, Dur::millis(3));
        assert_eq!(a * 3, Dur::millis(15));
        assert_eq!(a / 5, Dur::MILLI);
        assert!((a / b - 2.5).abs() < 1e-12);
        assert_eq!(a % b, Dur::MILLI);
    }

    #[test]
    fn dur_saturating_sub() {
        assert_eq!(Dur::MILLI.saturating_sub(Dur::SECOND), Dur::ZERO);
        assert_eq!(Dur::SECOND.saturating_sub(Dur::MILLI), Dur::micros(999_000));
        assert_eq!(Dur::MILLI.checked_sub(Dur::SECOND), None);
    }

    #[test]
    fn dur_for_bits() {
        // 1200 bytes at 1 Mbps = 9.6 ms.
        assert_eq!(Dur::for_bits(9600, 1e6), Dur::micros(9600));
        assert_eq!(Dur::for_bits(9600, 0.0), Dur::ZERO);
        assert_eq!(Dur::for_bits(9600, -5.0), Dur::ZERO);
    }

    #[test]
    fn dur_sum() {
        let total: Dur = [Dur::MILLI, Dur::millis(2), Dur::millis(3)]
            .into_iter()
            .sum();
        assert_eq!(total, Dur::millis(6));
    }

    #[test]
    fn time_arithmetic() {
        let t = Time::from_secs(1);
        let u = t + Dur::millis(500);
        assert_eq!(u.as_micros(), 1_500_000);
        assert_eq!(u.since(t), Dur::millis(500));
        assert_eq!(u - t, Dur::millis(500));
        assert_eq!(u - Dur::millis(500), t);
    }

    #[test]
    fn time_saturating_since() {
        let t = Time::from_secs(1);
        let u = Time::from_secs(2);
        assert_eq!(t.saturating_since(u), Dur::ZERO);
        assert_eq!(u.saturating_since(t), Dur::SECOND);
    }

    #[test]
    fn time_min_max() {
        let t = Time::from_secs(1);
        let u = Time::from_secs(2);
        assert_eq!(t.max(u), u);
        assert_eq!(t.min(u), t);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Dur::micros(12)), "12us");
        assert_eq!(format!("{}", Dur::millis(12)), "12.000ms");
        assert_eq!(format!("{}", Dur::secs(2)), "2.000s");
        assert_eq!(format!("{}", Time::from_millis(1500)), "1.500000");
    }
}
