//! Trace combinators: scale, clamp, shift, pointwise minimum.
//!
//! Combinators let experiments derive families of conditions from one base
//! trace — e.g. E4 sweeps drop magnitude by scaling the post-drop segment,
//! and cross-traffic is modelled as `MinOf(link, capacity_left)`.

use ravel_sim::{Dur, Time};

use crate::BandwidthTrace;

/// Multiplies an inner trace's rate by a constant factor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scaled<T> {
    inner: T,
    factor: f64,
}

impl<T: BandwidthTrace> Scaled<T> {
    /// Wraps `inner`, multiplying all rates by `factor` (must be finite
    /// and non-negative).
    pub fn new(inner: T, factor: f64) -> Scaled<T> {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "Scaled: bad factor {factor}"
        );
        Scaled { inner, factor }
    }
}

impl<T: BandwidthTrace> BandwidthTrace for Scaled<T> {
    fn rate_bps(&self, at: Time) -> f64 {
        self.inner.rate_bps(at) * self.factor
    }

    fn rate_span(&self, at: Time) -> (f64, Time) {
        let (rate, until) = self.inner.rate_span(at);
        (rate * self.factor, until)
    }
}

/// Clamps an inner trace's rate into `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Clamped<T> {
    inner: T,
    lo: f64,
    hi: f64,
}

impl<T: BandwidthTrace> Clamped<T> {
    /// Wraps `inner`, clamping rates into `[lo, hi]`.
    pub fn new(inner: T, lo: f64, hi: f64) -> Clamped<T> {
        assert!(
            lo.is_finite() && hi.is_finite() && lo >= 0.0 && lo <= hi,
            "Clamped: bad range [{lo}, {hi}]"
        );
        Clamped { inner, lo, hi }
    }
}

impl<T: BandwidthTrace> BandwidthTrace for Clamped<T> {
    fn rate_bps(&self, at: Time) -> f64 {
        self.inner.rate_bps(at).clamp(self.lo, self.hi)
    }

    fn rate_span(&self, at: Time) -> (f64, Time) {
        let (rate, until) = self.inner.rate_span(at);
        (rate.clamp(self.lo, self.hi), until)
    }
}

/// Shifts an inner trace later in time: the inner t=0 maps to `offset`.
/// Queries before `offset` see the inner trace's t=0 rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shifted<T> {
    inner: T,
    offset: Dur,
}

impl<T: BandwidthTrace> Shifted<T> {
    /// Wraps `inner` delayed by `offset`.
    pub fn new(inner: T, offset: Dur) -> Shifted<T> {
        Shifted { inner, offset }
    }
}

impl<T: BandwidthTrace> Shifted<T> {
    /// The inner instant that `at` maps to.
    fn inner_at(&self, at: Time) -> Time {
        Time::from_micros(at.as_micros().saturating_sub(self.offset.as_micros()))
    }
}

impl<T: BandwidthTrace> BandwidthTrace for Shifted<T> {
    fn rate_bps(&self, at: Time) -> f64 {
        self.inner.rate_bps(self.inner_at(at))
    }

    /// Before `offset` every query maps to the inner t=0, so the span
    /// runs on to the end of the inner t=0 span, shifted. A span ending
    /// at [`Time::FAR_FUTURE`] stays there instead of overflowing.
    fn rate_span(&self, at: Time) -> (f64, Time) {
        let (rate, until) = self.inner.rate_span(self.inner_at(at));
        let until = until.as_micros().saturating_add(self.offset.as_micros());
        (rate, Time::from_micros(until))
    }
}

/// Pointwise minimum of two traces — e.g. a physical link capacity and
/// "capacity left over by cross-traffic".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MinOf<A, B> {
    a: A,
    b: B,
}

impl<A: BandwidthTrace, B: BandwidthTrace> MinOf<A, B> {
    /// Wraps `a` and `b`, returning the smaller rate at every instant.
    pub fn new(a: A, b: B) -> MinOf<A, B> {
        MinOf { a, b }
    }
}

impl<A: BandwidthTrace, B: BandwidthTrace> BandwidthTrace for MinOf<A, B> {
    fn rate_bps(&self, at: Time) -> f64 {
        self.a.rate_bps(at).min(self.b.rate_bps(at))
    }

    fn rate_span(&self, at: Time) -> (f64, Time) {
        let (a, a_until) = self.a.rate_span(at);
        let (b, b_until) = self.b.rate_span(at);
        (a.min(b), a_until.min(b_until))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConstantTrace, StepTrace};

    #[test]
    fn scaled_multiplies() {
        let t = ConstantTrace::new(2e6).scaled(1.5);
        assert_eq!(t.rate_bps(Time::ZERO), 3e6);
    }

    #[test]
    #[should_panic(expected = "bad factor")]
    fn scaled_rejects_negative() {
        ConstantTrace::new(1.0).scaled(-1.0);
    }

    #[test]
    fn clamped_bounds() {
        let t = StepTrace::sudden_drop(4e6, 0.1e6, Time::from_secs(1)).clamped(0.5e6, 3e6);
        assert_eq!(t.rate_bps(Time::ZERO), 3e6);
        assert_eq!(t.rate_bps(Time::from_secs(2)), 0.5e6);
    }

    #[test]
    fn shifted_delays_breakpoints() {
        let t = StepTrace::sudden_drop(4e6, 1e6, Time::from_secs(10)).shifted(Dur::secs(5));
        assert_eq!(t.rate_bps(Time::from_secs(12)), 4e6); // drop now at 15s
        assert_eq!(t.rate_bps(Time::from_secs(15)), 1e6);
        // Before the offset we see the inner t=0 rate.
        assert_eq!(t.rate_bps(Time::from_secs(2)), 4e6);
    }

    #[test]
    fn min_of_takes_smaller() {
        let a = StepTrace::sudden_drop(4e6, 1e6, Time::from_secs(10));
        let b = ConstantTrace::new(2e6);
        let m = MinOf::new(a, b);
        assert_eq!(m.rate_bps(Time::from_secs(5)), 2e6);
        assert_eq!(m.rate_bps(Time::from_secs(15)), 1e6);
    }

    #[test]
    fn combinators_nest() {
        let t = StepTrace::sudden_drop(4e6, 1e6, Time::from_secs(10))
            .scaled(2.0)
            .clamped(0.0, 6e6)
            .shifted(Dur::secs(1));
        assert_eq!(t.rate_bps(Time::from_secs(5)), 6e6); // 8e6 clamped
        assert_eq!(t.rate_bps(Time::from_secs(11)), 2e6); // dropped, shifted
    }

    proptest::proptest! {
        /// Clamp output is always within bounds for arbitrary queries.
        #[test]
        fn clamp_invariant(ms in 0u64..100_000, lo in 0.0f64..2e6, width in 0.0f64..4e6) {
            let hi = lo + width;
            let t = StepTrace::sudden_drop(5e6, 0.2e6, Time::from_secs(10)).clamped(lo, hi);
            let r = t.rate_bps(Time::from_millis(ms));
            proptest::prop_assert!(r >= lo && r <= hi);
        }
    }
}
