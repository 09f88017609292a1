//! The H.264 quantization parameter and its qscale mapping.
//!
//! H.264 QP is an integer in `[0, 51]`; the effective quantizer step
//! doubles every +6 QP. x264 works internally in "qscale" units with the
//! convention `qscale = 0.85 · 2^((QP − 12) / 6)`; we keep the same
//! constant so rate-control numbers are directly comparable to x264's.

use std::fmt;

/// A quantization parameter. Stored as `f64` because rate control deals
/// in fractional QPs internally (x264 does the same); it is rounded only
/// when "handed to the entropy coder", i.e. when a frame is emitted.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Qp(f64);

impl Qp {
    /// The lowest QP the encoder will use. Real-time encoders rarely go
    /// below ~10: the bitrate explodes for invisible quality gains.
    pub const MIN: Qp = Qp(10.0);

    /// The highest H.264 QP.
    pub const MAX: Qp = Qp(51.0);

    /// A typical steady-state operating point for 720p RTC at ~2 Mbps.
    pub const TYPICAL: Qp = Qp(30.0);

    /// Creates a QP, clamping into `[MIN, MAX]`.
    pub fn new(value: f64) -> Qp {
        assert!(value.is_finite(), "Qp::new: non-finite {value}");
        Qp(value.clamp(Self::MIN.0, Self::MAX.0))
    }

    /// The raw fractional value.
    #[inline]
    pub fn value(self) -> f64 {
        self.0
    }

    /// x264's qscale for this QP: `0.85 · 2^((QP − 12)/6)`.
    pub fn to_qscale(self) -> f64 {
        0.85 * ((self.0 - 12.0) / 6.0).exp2()
    }

    /// Inverse of [`Qp::to_qscale`], clamped into the valid QP range.
    pub fn from_qscale(qscale: f64) -> Qp {
        assert!(
            qscale.is_finite() && qscale > 0.0,
            "Qp::from_qscale: bad qscale {qscale}"
        );
        Qp::new(12.0 + 6.0 * (qscale / 0.85).log2())
    }

    /// This QP moved by `delta`, clamped to the valid range.
    pub fn offset(self, delta: f64) -> Qp {
        Qp::new(self.0 + delta)
    }

    /// Clamps `target` to within `max_step` of `self` — x264 limits
    /// frame-to-frame QP jumps to avoid visible quality pumping. The
    /// adaptive fast path deliberately bypasses this.
    pub fn step_toward(self, target: Qp, max_step: f64) -> Qp {
        debug_assert!(max_step >= 0.0);
        let delta = (target.0 - self.0).clamp(-max_step, max_step);
        Qp::new(self.0 + delta)
    }
}

impl fmt::Display for Qp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "QP{:.1}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qscale_reference_points() {
        // QP 12 is the anchor: qscale = 0.85.
        assert!((Qp::new(12.0).to_qscale() - 0.85).abs() < 1e-12);
        // +6 QP doubles qscale.
        assert!((Qp::new(18.0).to_qscale() - 1.70).abs() < 1e-12);
        assert!((Qp::new(30.0).to_qscale() - 6.80).abs() < 1e-12);
    }

    #[test]
    fn qscale_roundtrip() {
        for qp in [10.0, 15.5, 22.0, 30.0, 41.3, 51.0] {
            let q = Qp::new(qp);
            let rt = Qp::from_qscale(q.to_qscale());
            assert!((rt.value() - q.value()).abs() < 1e-9, "{qp}");
        }
    }

    #[test]
    fn new_clamps() {
        assert_eq!(Qp::new(-5.0).value(), Qp::MIN.value());
        assert_eq!(Qp::new(99.0).value(), Qp::MAX.value());
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn new_rejects_nan() {
        Qp::new(f64::NAN);
    }

    #[test]
    fn step_toward_limits_jump() {
        let cur = Qp::new(30.0);
        assert_eq!(cur.step_toward(Qp::new(40.0), 4.0).value(), 34.0);
        assert_eq!(cur.step_toward(Qp::new(20.0), 4.0).value(), 26.0);
        assert_eq!(cur.step_toward(Qp::new(31.0), 4.0).value(), 31.0);
    }

    #[test]
    fn offset_clamps_at_bounds() {
        assert_eq!(Qp::new(50.0).offset(5.0).value(), 51.0);
        assert_eq!(Qp::new(11.0).offset(-5.0).value(), 10.0);
    }

    proptest::proptest! {
        /// qscale is strictly increasing in QP.
        #[test]
        fn qscale_monotonic(a in 10.0f64..51.0, b in 10.0f64..51.0) {
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            proptest::prop_assume!(hi - lo > 1e-9);
            proptest::prop_assert!(Qp::new(lo).to_qscale() < Qp::new(hi).to_qscale());
        }

        /// from_qscale inverts to_qscale across the whole range.
        #[test]
        fn roundtrip_property(qp in 10.0f64..51.0) {
            let q = Qp::new(qp);
            let rt = Qp::from_qscale(q.to_qscale());
            proptest::prop_assert!((rt.value() - q.value()).abs() < 1e-9);
        }
    }
}
