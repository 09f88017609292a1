//! The encoder: GOP structure, rate control, VBV, and the two
//! reconfiguration paths.
//!
//! [`Encoder`] is the x264-behavioural model the whole evaluation runs
//! on. One call to [`Encoder::encode`] consumes one raw frame and
//! produces one [`EncodedFrame`]; the internal flow mirrors x264's:
//!
//! 1. pick the frame type (keyint expiry, scene cut, or forced IDR),
//! 2. plan a quantizer — via the ABR loop or a controller-supplied
//!    per-frame budget (the paper's fast path),
//! 3. clamp the plan against the VBV leaky bucket,
//! 4. realize bits through the R–D model and quality through the
//!    quality model,
//! 5. commit the result back into rate-control state.
//!
//! The two reconfiguration paths are the crux of the reproduction:
//!
//! * [`Encoder::set_target_bitrate`] — what applications get today
//!   (`x264_encoder_reconfig` semantics): the target changes, the state
//!   does not; output converges over seconds.
//! * [`Encoder::fast_reconfigure`] + [`Encoder::override_frame_budget`]
//!   — the poster's proposal: reseed rate control at the new target,
//!   rescale the VBV, and optionally pin the next frames to an explicit
//!   bit budget solved through the R–D model.

use ravel_sim::{Dur, Time};
use ravel_video::{RawFrame, Resolution};

use crate::frame::{EncodedFrame, FrameType};
use crate::quality::QualityModel;
use crate::ratecontrol::{AbrConfig, AbrState};
use crate::rd::RdModel;
use crate::vbv::Vbv;

/// Encode cost in milliseconds per megapixel for a P-frame of
/// reference complexity at x264 `ultrafast`, the preset most RTC
/// deployments run.
const MS_PER_MEGAPIXEL: f64 = 3.0;

/// Maximum GOP length in frames (x264 `keyint`; RTC commonly uses a
/// large value and relies on scene cuts / PLI for I-frames).
const KEYINT: u64 = 300;

/// Encoder configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EncoderConfig {
    /// Initial target bitrate (ABR) in bits/second.
    pub target_bps: f64,
    /// Frame rate.
    pub fps: u32,
    /// Capture (= display) resolution.
    pub capture_resolution: Resolution,
    /// VBV buffer depth in seconds of the target rate.
    pub vbv_buffer_secs: f64,
    /// Temporal layers (1 = plain IPPP, 2 = hierarchical-P with a
    /// droppable enhancement layer on every other frame). Two layers
    /// cost ~15-20% extra bits (base-layer frames predict across a
    /// doubled interval) but let the sender drop half the frames with
    /// no reference-chain risk.
    pub temporal_layers: u8,
}

impl EncoderConfig {
    /// A realistic RTC configuration: ABR at `target_bps`, 720p@`fps`,
    /// zerolatency-style short VBV (~5 frames — RTC deployments size the
    /// VBV in frames, not seconds, to bound I-frame bursts), ultrafast
    /// encode time, keyint 300.
    pub fn rtc(target_bps: f64, fps: u32) -> EncoderConfig {
        EncoderConfig {
            target_bps,
            fps,
            capture_resolution: Resolution::P720,
            vbv_buffer_secs: 0.15,
            temporal_layers: 1,
        }
    }
}

/// The x264-behavioural encoder.
///
/// ```
/// use ravel_codec::{Encoder, EncoderConfig};
/// use ravel_video::{ContentClass, Resolution, VideoSource};
///
/// let mut enc = Encoder::new(EncoderConfig::rtc(2e6, 30));
/// let mut src = VideoSource::new(
///     ContentClass::TalkingHead.profile(), Resolution::P720, 30, 42);
///
/// let frame = src.next_frame();
/// let encoded = enc.encode(&frame, frame.pts);
/// assert!(encoded.frame_type.is_intra()); // first frame is an IDR
/// assert!(encoded.size_bytes > 0);
///
/// // The paper's fast path: the very next frame lands on a new target.
/// enc.fast_reconfigure(0.5e6);
/// let frame = src.next_frame();
/// let encoded = enc.encode(&frame, frame.pts);
/// assert!(encoded.size_bits() < 2 * 500_000 / 30);
/// ```
#[derive(Debug, Clone)]
pub struct Encoder {
    cfg: EncoderConfig,
    abr: AbrState,
    vbv: Vbv,
    frames_since_idr: u64,
    force_idr: bool,
    /// The ladder rung frames are currently encoded at (≤ capture).
    encode_resolution: Resolution,
    /// While `Some`, every frame's QP is solved from the R–D model for
    /// this bit budget, bypassing the ABR planner (fast-path override).
    frame_budget_override: Option<u64>,
    /// Alternates TL0/TL1 when two temporal layers are configured
    /// (false → the next non-IDR frame is TL1... see `next_frame_layer`).
    layer_parity: bool,
    frame_interval: Dur,
    frames_encoded: u64,
    vbv_underflows: u64,
}

impl Encoder {
    /// Creates an encoder. Rate control is primed for reference-content
    /// complexity at the configured target, as x264 primes from its
    /// initial complexity guess.
    pub fn new(cfg: EncoderConfig) -> Encoder {
        assert!(cfg.fps > 0, "Encoder: zero fps");
        assert!(
            (1..=2).contains(&cfg.temporal_layers),
            "Encoder: temporal_layers must be 1 or 2"
        );
        let frame_interval = Dur::micros(1_000_000 / cfg.fps as u64);
        let init_satd = RdModel::K
            * cfg.capture_resolution.pixels() as f64
            * ravel_video::FrameComplexity::reference().temporal;
        Encoder {
            abr: AbrState::new(AbrConfig::new(cfg.target_bps, cfg.fps as f64), init_satd),
            vbv: Vbv::new(cfg.target_bps, cfg.vbv_buffer_secs),
            frames_since_idr: 0,
            force_idr: true,
            encode_resolution: cfg.capture_resolution,
            frame_budget_override: None,
            layer_parity: false,
            frame_interval,
            frames_encoded: 0,
            vbv_underflows: 0,
            cfg,
        }
    }

    /// The configured (current) target bitrate.
    pub fn target_bps(&self) -> f64 {
        self.abr.bitrate_bps()
    }

    /// The resolution frames are currently encoded at.
    pub fn encode_resolution(&self) -> Resolution {
        self.encode_resolution
    }

    /// Frames encoded so far.
    pub fn frames_encoded(&self) -> u64 {
        self.frames_encoded
    }

    /// VBV underflow events so far (oversized frames the VBV could not
    /// contain — each one is a latency bomb on a congested link).
    pub fn vbv_underflows(&self) -> u64 {
        self.vbv_underflows
    }

    /// Current rate-control overshoot vs. the target line, bits.
    pub fn overshoot_bits(&self) -> f64 {
        self.abr.overshoot_bits()
    }

    /// **Slow path.** Production reconfiguration semantics: the ABR
    /// target changes but accumulated rate-control state is kept, and —
    /// as in the common `x264_encoder_reconfig` usage that updates only
    /// `rc.i_bitrate` — the VBV keeps the maxrate and bucket it was
    /// sized with at session start. Output therefore converges over the
    /// ABR window while the stale VBV keeps admitting old-rate bursts:
    /// exactly the encoder-side lag the paper measures.
    pub fn set_target_bitrate(&mut self, bps: f64) {
        self.abr.set_bitrate(bps);
    }

    /// **Fast path.** Reseeds rate control at the new target for the
    /// current content complexity and rescales the VBV to the new rate,
    /// so the very next frame is on target. This is the paper's core
    /// mechanism; the two halves are independently callable for the E7
    /// ablation.
    pub fn fast_reconfigure(&mut self, bps: f64) {
        self.reseed_rate_control(bps);
        self.rescale_vbv(bps);
    }

    /// Fast-path half 1: reseed the ABR accumulators at the new target
    /// (the "fast QP" mechanism), leaving the VBV untouched.
    pub fn reseed_rate_control(&mut self, bps: f64) {
        self.abr.reseed(bps);
    }

    /// Fast-path half 2: rescale the VBV bucket to the new rate,
    /// preserving relative fullness, leaving rate control untouched.
    pub fn rescale_vbv(&mut self, bps: f64) {
        self.vbv.rescale(bps, self.cfg.vbv_buffer_secs);
    }

    /// Pins (or releases, with `None`) an explicit per-frame bit budget.
    /// While pinned, QP is solved from the R–D model each frame —
    /// compression efficiency is preserved because the solve uses the
    /// *measured* complexity, not a crude QP jump.
    pub fn override_frame_budget(&mut self, budget_bits: Option<u64>) {
        self.frame_budget_override = budget_bits;
    }

    /// Requests that the next encoded frame be an IDR (keyframe) — e.g.
    /// to repair the reference chain after a loss (PLI).
    pub fn force_idr(&mut self) {
        self.force_idr = true;
    }

    /// Steps the encode resolution to an explicit ladder rung.
    pub fn set_encode_resolution(&mut self, res: Resolution) {
        assert!(
            res.pixels() <= self.cfg.capture_resolution.pixels(),
            "encode resolution above capture resolution"
        );
        self.encode_resolution = res;
    }

    /// Records a frame deliberately skipped by the controller: VBV
    /// refills and the rate-control clock advances, but no bits are
    /// produced.
    pub fn skip_frame(&mut self) {
        self.vbv.refill(self.frame_interval);
        self.abr.commit_skip(self.frame_interval);
        if self.cfg.temporal_layers == 2 {
            // The skipped slot still advances the layer pattern.
            self.layer_parity = !self.layer_parity;
        }
    }

    /// The temporal layer the *next* encoded frame will occupy (0 when
    /// running a single layer, or when the next frame will be an IDR).
    /// The adaptive controller uses this to prefer skipping droppable
    /// enhancement-layer frames.
    pub fn next_frame_layer(&self) -> u8 {
        if self.cfg.temporal_layers == 2 && !self.force_idr && self.frames_since_idr < KEYINT {
            self.layer_parity as u8
        } else {
            0
        }
    }

    /// Encodes one raw frame at time `now` (when the frame reached the
    /// encoder).
    pub fn encode(&mut self, frame: &RawFrame, now: Time) -> EncodedFrame {
        // --- frame-type decision -------------------------------------
        let frame_type =
            if self.force_idr || frame.complexity.scene_cut || self.frames_since_idr >= KEYINT {
                FrameType::I
            } else {
                FrameType::P
            };

        // --- temporal layer -------------------------------------------
        let temporal_layer = if frame_type.is_intra() {
            0
        } else {
            self.next_frame_layer()
        };
        if self.cfg.temporal_layers == 2 {
            self.layer_parity = !self.layer_parity;
        }

        let pixels = self.encode_resolution.pixels();
        // Base-layer P-frames in a two-layer stream predict across two
        // frame intervals: residual (temporal complexity) grows ~1.6x.
        let layer_cplx_factor =
            if self.cfg.temporal_layers == 2 && temporal_layer == 0 && !frame_type.is_intra() {
                1.6
            } else {
                1.0
            };
        let satd = RdModel::K
            * pixels as f64
            * RdModel::effective_complexity(frame.complexity, frame_type)
            * layer_cplx_factor;

        // Complexity as the R-D model should see it for this layer.
        let rd_complexity = {
            let mut c = frame.complexity;
            c.temporal *= layer_cplx_factor;
            c
        };

        // --- QP planning ----------------------------------------------
        let mut qp = match self.frame_budget_override {
            Some(budget) => {
                // Fast-path override: exact R–D solve for the pinned
                // budget. Also inform the ABR planner so its blur keeps
                // tracking content (plan result discarded).
                let _ = self.abr.plan_frame(satd, frame_type, self.frame_interval);
                RdModel::solve_qp(rd_complexity, pixels, frame_type, budget)
            }
            None => self.abr.plan_frame(satd, frame_type, self.frame_interval),
        };

        // --- VBV clamp --------------------------------------------------
        self.vbv.refill(self.frame_interval);
        let planned_bits = RdModel::frame_bits(rd_complexity, pixels, frame_type, qp);
        let vbv_cap = self.vbv.max_frame_bits();
        if planned_bits > vbv_cap {
            // Raise QP until the frame fits the bucket.
            let vbv_qp = RdModel::solve_qp(rd_complexity, pixels, frame_type, vbv_cap);
            if vbv_qp.value() > qp.value() {
                qp = vbv_qp;
            }
        }

        // --- realize the frame ------------------------------------------
        let bits = RdModel::frame_bits(rd_complexity, pixels, frame_type, qp);
        if !self.vbv.commit_frame(bits) {
            self.vbv_underflows += 1;
        }
        self.abr.commit_frame(bits, qp, self.frame_interval);

        let ssim = QualityModel::ssim(
            qp,
            frame.complexity,
            self.encode_resolution,
            self.cfg.capture_resolution,
        );
        let psnr_db = QualityModel::psnr_db(qp, frame.complexity);
        let encode_time = self.encode_time(frame, frame_type);

        if frame_type.is_intra() {
            self.frames_since_idr = 0;
            self.force_idr = false;
        } else {
            self.frames_since_idr += 1;
        }
        self.frames_encoded += 1;

        EncodedFrame {
            index: frame.index,
            pts: frame.pts,
            encoded_at: now + encode_time,
            frame_type,
            size_bytes: (bits / 8).max(1),
            qp,
            ssim,
            psnr_db,
            encode_time,
            encode_resolution: self.encode_resolution,
            temporal_layer,
        }
    }

    /// The encode-time model: CPU cost scales with pixels and content
    /// complexity; intra frames cost ~20% extra (no motion search
    /// saved, more entropy coding).
    fn encode_time(&self, frame: &RawFrame, frame_type: FrameType) -> Dur {
        let mpix = self.encode_resolution.pixels() as f64 / 1e6;
        let cplx_factor = 0.6 + 0.4 * frame.complexity.spatial;
        let intra_factor = if frame_type.is_intra() { 1.2 } else { 1.0 };
        let ms = MS_PER_MEGAPIXEL * mpix * cplx_factor * intra_factor;
        Dur::from_secs_f64(ms / 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ravel_video::{ContentClass, VideoSource};

    fn source(seed: u64) -> VideoSource {
        VideoSource::new(
            ContentClass::TalkingHead.profile(),
            Resolution::P720,
            30,
            seed,
        )
    }

    fn run(enc: &mut Encoder, src: &mut VideoSource, frames: usize) -> Vec<EncodedFrame> {
        let mut out = Vec::with_capacity(frames);
        for _ in 0..frames {
            let f = src.next_frame();
            let now = f.pts;
            out.push(enc.encode(&f, now));
        }
        out
    }

    fn rate_bps(frames: &[EncodedFrame], fps: f64) -> f64 {
        frames.iter().map(|f| f.size_bits()).sum::<u64>() as f64 / frames.len() as f64 * fps
    }

    #[test]
    fn first_frame_is_idr() {
        let mut enc = Encoder::new(EncoderConfig::rtc(2e6, 30));
        let mut src = source(1);
        let frames = run(&mut enc, &mut src, 5);
        assert_eq!(frames[0].frame_type, FrameType::I);
    }

    #[test]
    fn steady_state_rate_near_target() {
        let mut enc = Encoder::new(EncoderConfig::rtc(2e6, 30));
        let mut src = source(2);
        let frames = run(&mut enc, &mut src, 600);
        let rate = rate_bps(&frames[300..], 30.0);
        assert!(
            (rate - 2e6).abs() / 2e6 < 0.12,
            "steady rate {rate} vs 2 Mbps"
        );
    }

    #[test]
    fn slow_reconfigure_overshoots_for_seconds() {
        let mut enc = Encoder::new(EncoderConfig::rtc(4e6, 30));
        let mut src = source(3);
        run(&mut enc, &mut src, 300);
        enc.set_target_bitrate(1e6);
        let after = run(&mut enc, &mut src, 300);
        let first_third_sec = rate_bps(&after[..10], 30.0);
        assert!(
            first_third_sec > 1.4e6,
            "baseline adapted suspiciously fast: {first_third_sec}"
        );
        // Converges to the target band; debt repayment (see the
        // ratecontrol tests) holds it at or slightly below target.
        let settled = rate_bps(&after[250..], 30.0);
        assert!(
            (0.4e6..1.2e6).contains(&settled),
            "did not converge into band: {settled}"
        );
    }

    #[test]
    fn fast_reconfigure_is_immediate() {
        let mut enc = Encoder::new(EncoderConfig::rtc(4e6, 30));
        let mut src = source(4);
        run(&mut enc, &mut src, 300);
        enc.fast_reconfigure(1e6);
        let after = run(&mut enc, &mut src, 15);
        let rate = rate_bps(&after, 30.0);
        assert!(
            (rate - 1e6).abs() / 1e6 < 0.3,
            "fast path missed: {rate} bps"
        );
    }

    #[test]
    fn budget_override_pins_frame_sizes() {
        let mut enc = Encoder::new(EncoderConfig::rtc(4e6, 30));
        let mut src = source(5);
        run(&mut enc, &mut src, 100);
        enc.fast_reconfigure(1e6);
        enc.override_frame_budget(Some(30_000));
        let after = run(&mut enc, &mut src, 20);
        for f in &after {
            if f.frame_type == FrameType::P {
                assert!(
                    f.size_bits() <= 33_000,
                    "frame {} bits {} exceeds pinned budget",
                    f.index,
                    f.size_bits()
                );
            }
        }
        enc.override_frame_budget(None);
    }

    #[test]
    fn keyint_forces_periodic_idr() {
        let mut enc = Encoder::new(EncoderConfig::rtc(2e6, 30));
        // Use a source with no scene cuts so only keyint triggers I.
        let mut profile = ContentClass::TalkingHead.profile();
        profile.scene_cuts_per_min = 0.0;
        let mut src = VideoSource::new(profile, Resolution::P720, 30, 6);
        let frames = run(&mut enc, &mut src, 2 * KEYINT as usize + 10);
        let i_frames: Vec<u64> = frames
            .iter()
            .filter(|f| f.frame_type.is_intra())
            .map(|f| f.index)
            .collect();
        assert!(i_frames.contains(&0));
        assert!(i_frames.contains(&(KEYINT + 1)) || i_frames.contains(&KEYINT));
        assert!(i_frames.len() >= 3);
    }

    #[test]
    fn force_idr_takes_effect_next_frame() {
        let mut enc = Encoder::new(EncoderConfig::rtc(2e6, 30));
        let mut src = source(7);
        run(&mut enc, &mut src, 10);
        enc.force_idr();
        let f = src.next_frame();
        let e = enc.encode(&f, f.pts);
        assert_eq!(e.frame_type, FrameType::I);
    }

    #[test]
    fn resolution_ladder_shrinks_frames() {
        let mut enc = Encoder::new(EncoderConfig::rtc(2e6, 30));
        let mut src = source(8);
        run(&mut enc, &mut src, 60);
        enc.override_frame_budget(None);
        // Compare instantaneous sizes at a pinned QP via CRF-like trick:
        // drop the resolution and verify encoded sizes shrink.
        let before = run(&mut enc, &mut src, 30);
        enc.set_encode_resolution(Resolution::P360);
        let after = run(&mut enc, &mut src, 5);
        // Immediately after the switch the rate controller still aims at
        // the same bitrate, but the *first* frame (planned with the old
        // rate factor over 4x fewer pixels) must be far smaller.
        assert!(after[0].size_bits() < before.last().unwrap().size_bits());
        assert_eq!(after[0].encode_resolution, Resolution::P360);
        // Quality reflects the upscale penalty.
        assert!(after[4].ssim < 1.0);
    }

    #[test]
    #[should_panic(expected = "above capture")]
    fn cannot_encode_above_capture() {
        let mut cfg = EncoderConfig::rtc(2e6, 30);
        cfg.capture_resolution = Resolution::P360;
        let mut enc = Encoder::new(cfg);
        enc.set_encode_resolution(Resolution::P720);
    }

    #[test]
    fn vbv_caps_scene_cut_burst() {
        let mut cfg = EncoderConfig::rtc(1e6, 30);
        cfg.vbv_buffer_secs = 0.5; // 500 kbit bucket
        let mut enc = Encoder::new(cfg);
        let mut src = source(9);
        let frames = run(&mut enc, &mut src, 300);
        for f in &frames[1..] {
            assert!(
                f.size_bits() <= 500_000 + 50_000,
                "frame {} of {} bits blew through VBV",
                f.index,
                f.size_bits()
            );
        }
    }

    #[test]
    fn skip_frame_advances_state() {
        let mut enc = Encoder::new(EncoderConfig::rtc(2e6, 30));
        let mut src = source(10);
        run(&mut enc, &mut src, 30);
        let overshoot_before = enc.overshoot_bits();
        for _ in 0..10 {
            let _ = src.next_frame();
            enc.skip_frame();
        }
        // Skipping frames while the wanted line accrues reduces
        // (more negative) overshoot.
        assert!(enc.overshoot_bits() < overshoot_before);
    }

    #[test]
    fn two_layer_stream_alternates() {
        let mut cfg = EncoderConfig::rtc(2e6, 30);
        cfg.temporal_layers = 2;
        let mut enc = Encoder::new(cfg);
        let mut profile = ContentClass::TalkingHead.profile();
        profile.scene_cuts_per_min = 0.0;
        let mut src = VideoSource::new(profile, Resolution::P720, 30, 20);
        let frames = run(&mut enc, &mut src, 20);
        // Frame 0 is IDR (TL0); thereafter layers alternate.
        assert_eq!(frames[0].temporal_layer, 0);
        for pair in frames[1..].windows(2) {
            assert_ne!(
                pair[0].temporal_layer,
                pair[1].temporal_layer,
                "layers must alternate: {:?}",
                frames.iter().map(|f| f.temporal_layer).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn single_layer_stream_is_all_base() {
        let mut enc = Encoder::new(EncoderConfig::rtc(2e6, 30));
        let mut src = source(21);
        for f in run(&mut enc, &mut src, 30) {
            assert_eq!(f.temporal_layer, 0);
        }
    }

    #[test]
    fn two_layer_overhead_is_moderate() {
        // The same content at the same target should still hit the
        // target (rate control absorbs the layer-0 complexity bump), so
        // overhead shows up as slightly higher QP, not higher rate.
        let mut cfg2 = EncoderConfig::rtc(2e6, 30);
        cfg2.temporal_layers = 2;
        let mut enc1 = Encoder::new(EncoderConfig::rtc(2e6, 30));
        let mut enc2 = Encoder::new(cfg2);
        let mut src1 = source(22);
        let mut src2 = source(22);
        let f1 = run(&mut enc1, &mut src1, 400);
        let f2 = run(&mut enc2, &mut src2, 400);
        let r1 = rate_bps(&f1[200..], 30.0);
        let r2 = rate_bps(&f2[200..], 30.0);
        assert!((r2 - r1).abs() / r1 < 0.15, "rates diverged: {r1} vs {r2}");
        let qp1: f64 = f1[200..].iter().map(|f| f.qp.value()).sum::<f64>() / 200.0;
        let qp2: f64 = f2[200..].iter().map(|f| f.qp.value()).sum::<f64>() / 200.0;
        assert!(qp2 > qp1, "two layers should cost QP: {qp1} vs {qp2}");
        assert!(
            qp2 - qp1 < 3.0,
            "layer overhead implausible: {qp1} vs {qp2}"
        );
    }

    #[test]
    fn skip_advances_layer_pattern() {
        let mut cfg = EncoderConfig::rtc(2e6, 30);
        cfg.temporal_layers = 2;
        let mut enc = Encoder::new(cfg);
        let mut src = source(23);
        run(&mut enc, &mut src, 4);
        let before = enc.next_frame_layer();
        let _ = src.next_frame();
        enc.skip_frame();
        assert_ne!(enc.next_frame_layer(), before);
    }

    #[test]
    fn vbv_underflow_counter_fires_on_impossible_frames() {
        // A tiny VBV with huge content: even QP 51 frames exceed the
        // bucket sometimes; the counter must record it without panicking.
        let mut cfg = EncoderConfig::rtc(0.2e6, 30);
        cfg.vbv_buffer_secs = 0.05; // 10 kbit bucket
        let mut enc = Encoder::new(cfg);
        let mut src = VideoSource::new(ContentClass::Sports.profile(), Resolution::P720, 30, 30);
        run(&mut enc, &mut src, 60);
        assert!(enc.vbv_underflows() > 0, "underflow never recorded");
    }

    #[test]
    fn deterministic_output() {
        let mk = || {
            let mut enc = Encoder::new(EncoderConfig::rtc(2e6, 30));
            let mut src = source(13);
            run(&mut enc, &mut src, 100)
        };
        assert_eq!(mk(), mk());
    }
}
