//! Quality models: SSIM and PSNR as functions of QP, content and scaling.
//!
//! The model captures the three effects the evaluation depends on:
//!
//! 1. **Quality falls with QP**, convexly: SSIM deficit grows
//!    exponentially in QP (`1 − SSIM = a·e^(k·QP)`), calibrated against
//!    published x264 QP↔SSIM curves (≈0.98 @ QP20, ≈0.95 @ QP30,
//!    ≈0.88 @ QP40 for reference content).
//! 2. **Complex content is harder**: the deficit scales with spatial
//!    complexity (more texture to get wrong).
//! 3. **Downscaled encodes lose detail**: encoding below capture
//!    resolution and upscaling for display costs a deficit proportional
//!    to the log of the pixel ratio.
//!
//! PSNR uses the standard near-linear QP law (`PSNR ≈ c₀ − c₁·QP`)
//! with a complexity shift, matching the ~0.5 dB/QP slope reported for
//! H.264.

use ravel_video::{FrameComplexity, Resolution};

use crate::qp::Qp;

/// The quality model, calibrated to x264 on 720p reference content.
pub struct QualityModel;

impl QualityModel {
    /// SSIM deficit exponent `k` per QP in `1 − SSIM = a·e^(k·QP)`:
    /// `a·e^(20k) = 0.02` and `a·e^(40k) = 0.12` give `k = ln(6)/20`.
    const SSIM_K: f64 = 0.08958797346140275;
    /// SSIM deficit coefficient `a = 0.02/e^(20k) = 0.02/6`.
    const SSIM_A: f64 = 0.0033333333333333335;
    /// How strongly spatial complexity scales the deficit
    /// (`deficit *= (1−w) + w·spatial`).
    const COMPLEXITY_WEIGHT: f64 = 0.5;
    /// SSIM deficit added per octave of upscale (encode → display).
    const UPSCALE_PENALTY_PER_OCTAVE: f64 = 0.012;
    /// PSNR at QP 0 for reference content.
    const PSNR_INTERCEPT_DB: f64 = 58.0;
    /// PSNR loss per QP step.
    const PSNR_SLOPE_DB: f64 = 0.5;

    /// SSIM of a frame encoded at `qp` and `encode_res`, displayed at
    /// `display_res`. Clamped into `[0, 1]`.
    pub fn ssim(
        qp: Qp,
        complexity: FrameComplexity,
        encode_res: Resolution,
        display_res: Resolution,
    ) -> f64 {
        let cplx_factor =
            (1.0 - Self::COMPLEXITY_WEIGHT) + Self::COMPLEXITY_WEIGHT * complexity.spatial;
        let mut deficit = Self::SSIM_A * (Self::SSIM_K * qp.value()).exp() * cplx_factor.max(0.1);
        if encode_res.pixels() < display_res.pixels() {
            let octaves = (display_res.pixels() as f64 / encode_res.pixels() as f64).log2();
            deficit += Self::UPSCALE_PENALTY_PER_OCTAVE * octaves * cplx_factor.max(0.1);
        }
        (1.0 - deficit).clamp(0.0, 1.0)
    }

    /// PSNR in dB for a frame encoded at `qp`.
    pub fn psnr_db(qp: Qp, complexity: FrameComplexity) -> f64 {
        let cplx_loss_db = 3.0 * complexity.spatial.max(0.1).log2();
        (Self::PSNR_INTERCEPT_DB - Self::PSNR_SLOPE_DB * qp.value() - cplx_loss_db).max(10.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn refc() -> FrameComplexity {
        FrameComplexity {
            spatial: 1.0,
            temporal: 0.35,
            scene_cut: false,
        }
    }

    #[test]
    fn ssim_calibration_points() {
        let s20 = QualityModel::ssim(Qp::new(20.0), refc(), Resolution::P720, Resolution::P720);
        let s30 = QualityModel::ssim(Qp::new(30.0), refc(), Resolution::P720, Resolution::P720);
        let s40 = QualityModel::ssim(Qp::new(40.0), refc(), Resolution::P720, Resolution::P720);
        assert!((s20 - 0.98).abs() < 0.005, "QP20 {s20}");
        assert!((s30 - 0.951).abs() < 0.01, "QP30 {s30}");
        assert!((s40 - 0.88).abs() < 0.01, "QP40 {s40}");
    }

    #[test]
    fn ssim_decreases_with_qp() {
        let mut prev = 2.0;
        for qp in 10..=51 {
            let s = QualityModel::ssim(
                Qp::new(qp as f64),
                refc(),
                Resolution::P720,
                Resolution::P720,
            );
            assert!(s < prev, "SSIM not decreasing at QP{qp}");
            assert!((0.0..=1.0).contains(&s));
            prev = s;
        }
    }

    #[test]
    fn complex_content_scores_lower() {
        let hard = FrameComplexity {
            spatial: 1.5,
            temporal: 1.0,
            scene_cut: false,
        };
        let s_ref = QualityModel::ssim(Qp::TYPICAL, refc(), Resolution::P720, Resolution::P720);
        let s_hard = QualityModel::ssim(Qp::TYPICAL, hard, Resolution::P720, Resolution::P720);
        assert!(s_hard < s_ref);
    }

    #[test]
    fn upscale_costs_quality() {
        let native = QualityModel::ssim(Qp::TYPICAL, refc(), Resolution::P720, Resolution::P720);
        let upscaled = QualityModel::ssim(Qp::TYPICAL, refc(), Resolution::P360, Resolution::P720);
        assert!(upscaled < native);
        // 2 octaves of upscale at the default penalty: ~0.024 deficit.
        assert!((native - upscaled - 0.024).abs() < 0.005);
    }

    #[test]
    fn downscale_display_has_no_penalty() {
        // Encoding above display resolution costs nothing extra.
        let a = QualityModel::ssim(Qp::TYPICAL, refc(), Resolution::P720, Resolution::P360);
        let b = QualityModel::ssim(Qp::TYPICAL, refc(), Resolution::P360, Resolution::P360);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn psnr_slope() {
        let p30 = QualityModel::psnr_db(Qp::new(30.0), refc());
        let p40 = QualityModel::psnr_db(Qp::new(40.0), refc());
        assert!((p30 - p40 - 5.0).abs() < 1e-9, "10 QP should cost 5 dB");
        assert!(p30 > 35.0 && p30 < 50.0, "QP30 PSNR {p30} implausible");
    }

    #[test]
    fn psnr_floor() {
        let p = QualityModel::psnr_db(
            Qp::MAX,
            FrameComplexity {
                spatial: 10.0,
                temporal: 5.0,
                scene_cut: false,
            },
        );
        assert!(p >= 10.0);
    }

    proptest::proptest! {
        /// SSIM is always within [0, 1] and monotone in QP for any content.
        #[test]
        fn ssim_bounds(qp in 10.0f64..51.0, spatial in 0.1f64..3.0) {
            let c = FrameComplexity { spatial, temporal: 0.5, scene_cut: false };
            let s = QualityModel::ssim(Qp::new(qp), c, Resolution::P720, Resolution::P720);
            proptest::prop_assert!((0.0..=1.0).contains(&s));
            let s_worse = QualityModel::ssim(Qp::new((qp + 2.0).min(51.0)), c, Resolution::P720, Resolution::P720);
            proptest::prop_assert!(s_worse <= s + 1e-12);
        }
    }
}
