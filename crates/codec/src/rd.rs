//! The rate–distortion model: bits as a function of content and QP.
//!
//! The model is the standard exponential rate–QP law used throughout the
//! rate-control literature (and implicitly by x264's `qscale` domain):
//!
//! ```text
//! bits(frame) = K · pixels · complexity / qscale(QP)
//! ```
//!
//! where `complexity` is the frame's temporal complexity for P-frames and
//! spatial complexity for I-frames, and `qscale` doubles every +6 QP —
//! i.e. bits halve every +6 QP, which is the empirical x264 behaviour.
//!
//! ## Calibration
//!
//! `K` is chosen so that reference talking-head content (temporal
//! complexity 0.35) at 720p30 and QP 30 produces ≈ 2 Mbps — the x264
//! operating point reported for comparable RTC configurations. With
//! `qscale(30) = 6.8`:
//!
//! ```text
//! K = 2e6/30 · 6.8 / (921600 · 0.35) ≈ 1.405
//! ```
//!
//! The inverse solve ([`RdModel::solve_qp`]) answers "what QP fits this
//! frame into `budget` bits" — the primitive the paper's fast
//! reconfiguration path is built on.

use ravel_video::FrameComplexity;

use crate::frame::FrameType;
use crate::qp::Qp;

/// The rate–distortion model, calibrated as the module doc derives.
pub struct RdModel;

impl RdModel {
    /// Rate constant `K` (bits per pixel·complexity at qscale 1).
    pub(crate) const K: f64 = 1.405;
    /// Size floor in bits: headers/syntax make even a skipped frame
    /// non-empty (~200 bytes).
    const MIN_FRAME_BITS: u64 = 1_600;

    /// The complexity that drives this frame's bits: spatial for
    /// I-frames, temporal for P-frames (motion-compensated residual).
    pub fn effective_complexity(complexity: FrameComplexity, frame_type: FrameType) -> f64 {
        match frame_type {
            FrameType::I => complexity.spatial,
            FrameType::P => complexity.temporal,
        }
    }

    /// Frame size in bits at quantizer `qp`.
    pub fn frame_bits(
        complexity: FrameComplexity,
        pixels: u64,
        frame_type: FrameType,
        qp: Qp,
    ) -> u64 {
        let cplx = Self::effective_complexity(complexity, frame_type);
        let bits = Self::K * pixels as f64 * cplx / qp.to_qscale();
        (bits.max(0.0) as u64).max(Self::MIN_FRAME_BITS)
    }

    /// The QP at which this frame fits into `budget_bits`, clamped into
    /// the valid range. Returns `Qp::MAX` for budgets below the frame
    /// floor (the caller may then choose to skip the frame instead).
    pub fn solve_qp(
        complexity: FrameComplexity,
        pixels: u64,
        frame_type: FrameType,
        budget_bits: u64,
    ) -> Qp {
        if budget_bits <= Self::MIN_FRAME_BITS {
            return Qp::MAX;
        }
        let cplx = Self::effective_complexity(complexity, frame_type);
        let qscale = Self::K * pixels as f64 * cplx / budget_bits as f64;
        Qp::from_qscale(qscale.max(1e-9))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ravel_video::Resolution;

    fn refc() -> FrameComplexity {
        FrameComplexity::reference()
    }

    #[test]
    fn calibration_point_2mbps_at_qp30() {
        // A steady stream of 720p P-frames at 30 fps.
        let bits = RdModel::frame_bits(
            refc(),
            Resolution::P720.pixels(),
            FrameType::P,
            Qp::new(30.0),
        );
        let rate = bits as f64 * 30.0;
        assert!(
            (rate - 2e6).abs() / 2e6 < 0.02,
            "calibration drifted: {rate} bps"
        );
    }

    #[test]
    fn i_frames_cost_more_than_p() {
        let px = Resolution::P720.pixels();
        let i = RdModel::frame_bits(refc(), px, FrameType::I, Qp::new(30.0));
        let p = RdModel::frame_bits(refc(), px, FrameType::P, Qp::new(30.0));
        // Reference content: spatial 1.0 vs temporal 0.35 → ~2.9× ratio,
        // in the published 2–5× I:P range.
        let ratio = i as f64 / p as f64;
        assert!(ratio > 2.0 && ratio < 5.0, "I:P ratio {ratio}");
    }

    #[test]
    fn solve_qp_inverts_frame_bits() {
        let px = Resolution::P720.pixels();
        for target in [20_000u64, 66_000, 150_000, 400_000] {
            let qp = RdModel::solve_qp(refc(), px, FrameType::P, target);
            if qp.value() < Qp::MAX.value() && qp.value() > Qp::MIN.value() {
                let bits = RdModel::frame_bits(refc(), px, FrameType::P, qp);
                let err = (bits as f64 - target as f64).abs() / target as f64;
                assert!(err < 0.01, "target {target} got {bits}");
            }
        }
    }

    #[test]
    fn solve_qp_tiny_budget_maxes_out() {
        let qp = RdModel::solve_qp(refc(), Resolution::P720.pixels(), FrameType::P, 100);
        assert_eq!(qp.value(), Qp::MAX.value());
    }

    #[test]
    fn frame_floor_applies() {
        // Minuscule complexity at max QP still pays the header floor.
        let c = FrameComplexity {
            spatial: 1e-6,
            temporal: 1e-6,
            scene_cut: false,
        };
        let bits = RdModel::frame_bits(c, 1000, FrameType::P, Qp::MAX);
        assert_eq!(bits, RdModel::MIN_FRAME_BITS);
    }

    #[test]
    fn lower_resolution_fewer_bits() {
        let hi = RdModel::frame_bits(refc(), Resolution::P720.pixels(), FrameType::P, Qp::TYPICAL);
        let lo = RdModel::frame_bits(refc(), Resolution::P360.pixels(), FrameType::P, Qp::TYPICAL);
        assert!((hi as f64 / lo as f64 - 4.0).abs() < 0.05);
    }

    proptest::proptest! {
        /// Bits halve per +6 QP at any QP, content, resolution and frame
        /// type, wherever the header floor does not bind.
        #[test]
        fn bits_halve_per_six_qp(
            qp in 10.0f64..45.0,
            content in (0.05f64..3.0, 0.02f64..1.5),
            rung in 0usize..Resolution::LADDER.len(),
            intra in 0u8..2,
        ) {
                let c = FrameComplexity {
                spatial: content.0,
                temporal: content.1,
                scene_cut: false,
            };
            let px = Resolution::LADDER[rung].pixels();
            let ft = if intra == 1 { FrameType::I } else { FrameType::P };
            let bits = RdModel::frame_bits(c, px, ft, Qp::new(qp));
            let halved = RdModel::frame_bits(c, px, ft, Qp::new(qp + 6.0));
            proptest::prop_assume!(halved > RdModel::MIN_FRAME_BITS);
            // Both sizes are truncated to whole bits.
            let err = bits as f64 - 2.0 * halved as f64;
            proptest::prop_assert!(err.abs() <= 2.0, "{bits} bits at QP {qp}, {halved} at +6");
        }

        /// frame_bits is monotonically non-increasing in QP.
        #[test]
        fn bits_decrease_with_qp(q1 in 10.0f64..51.0, q2 in 10.0f64..51.0) {
                let px = Resolution::P720.pixels();
            let (lo, hi) = if q1 < q2 { (q1, q2) } else { (q2, q1) };
            let b_lo = RdModel::frame_bits(refc(), px, FrameType::P, Qp::new(lo));
            let b_hi = RdModel::frame_bits(refc(), px, FrameType::P, Qp::new(hi));
            proptest::prop_assert!(b_lo >= b_hi);
        }

        /// solve_qp never exceeds the budget (when a feasible QP exists).
        #[test]
        fn solve_respects_budget(budget in 5_000u64..500_000) {
                let px = Resolution::P720.pixels();
            let qp = RdModel::solve_qp(refc(), px, FrameType::P, budget);
            let bits = RdModel::frame_bits(refc(), px, FrameType::P, qp);
            // Within rounding, and always within budget unless clamped at
            // QP::MAX (infeasible) or QP::MIN (budget more than needed).
            if qp.value() < Qp::MAX.value() - 1e-9 && qp.value() > Qp::MIN.value() + 1e-9 {
                proptest::prop_assert!(bits <= budget + budget / 100);
            }
        }
    }
}
