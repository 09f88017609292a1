//! # ravel-codec — an x264-behavioural video encoder model
//!
//! The paper's pathology is not in the network: it is in the *encoder's
//! rate-control dynamics*. x264-style average-bitrate (ABR) control
//! tracks a long-horizon bits budget; after the application lowers the
//! target bitrate, the per-frame quantizer converges over seconds, and
//! every oversized frame emitted in the meantime piles into the
//! bottleneck queue. This crate reproduces those dynamics without
//! encoding pixels:
//!
//! * [`qp`] — the H.264 quantizer scale: `qscale = 0.85·2^((QP−12)/6)`,
//!   so bits halve per +6 QP.
//! * [`rd`] — the rate–distortion model mapping (complexity, pixels, QP,
//!   frame type) to frame bits, and its inverse (solve QP for a bit
//!   budget). Calibrated so 720p30 talking-head content at 2 Mbps encodes
//!   near QP 30, matching published x264 operating points.
//! * [`vbv`] — the Video Buffering Verifier: the leaky bucket that caps
//!   short-term overshoot. VBV is sized in *seconds of target rate*, so a
//!   stale (pre-drop) VBV still admits seconds of oversized frames — one
//!   of the effects the adaptive controller corrects.
//! * [`ratecontrol`] — x264's ABR loop: blurred complexity, rate factor
//!   from windowed accumulators with `cbr_decay`, overflow compensation
//!   against the wanted-bits line, per-frame QP step limits. Its slow
//!   convergence after a target change is deliberate and load-bearing.
//! * [`encoder`] — [`Encoder`]: GOP structure, scene-cut I-frames,
//!   per-frame encode-time model, and **two reconfiguration paths**:
//!   [`Encoder::set_target_bitrate`] (the production slow path the
//!   baseline uses) and [`Encoder::fast_reconfigure`] /
//!   [`Encoder::override_frame_budget`] (the paper's fast path, used by
//!   `ravel-core`).
//! * [`quality`] — SSIM/PSNR as functions of QP, complexity, and
//!   resolution upscale penalty.
//! * [`decoder`] — reference-chain tracking: a lost or late frame freezes
//!   the display until the chain is repaired by an I-frame.

#![warn(missing_docs)]

pub mod decoder;
pub mod encoder;
pub mod frame;
pub mod qp;
pub mod quality;
pub mod ratecontrol;
pub mod rd;
pub mod vbv;

pub use decoder::{DecodeOutcome, Decoder};
pub use encoder::{Encoder, EncoderConfig};
pub use frame::{EncodedFrame, FrameType};
pub use qp::Qp;
pub use quality::QualityModel;
pub use ratecontrol::AbrState;
pub use rd::RdModel;
pub use vbv::Vbv;
