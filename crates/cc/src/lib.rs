//! # ravel-cc — congestion control for the RTC sender
//!
//! The baseline the paper measures against is Google Congestion Control
//! (GCC), the delay-based controller that ships in libwebrtc. This crate
//! is a behavioural port of its pipeline:
//!
//! ```text
//! feedback → InterArrival (packet grouping)
//!          → Trendline (delay-gradient slope)
//!          → OveruseDetector (adaptive threshold)
//!          → AimdRateControl (0.85× decrease / careful increase)
//!          → min(delay-based, loss-based) target
//! ```
//!
//! GCC's reaction to a sudden drop takes several feedback rounds: the
//! trendline needs enough packet groups to see the gradient, the
//! detector needs sustained overuse, and each AIMD decrease only cuts to
//! 0.85× the *measured received* rate. This multi-RTT lag — on top of
//! the encoder's own lag — is what the adaptive controller in
//! `ravel-core` bypasses.
//!
//! [`baselines`] adds the two strawmen used in E8: a fixed-rate sender
//! and a loss-only AIMD.
//!
//! ## The controller arena
//!
//! Beyond GCC, the crate ships three alternative controllers so the
//! paper's claim — one-frame encoder adaptation helps *regardless of
//! the CC underneath* — can be tested head-to-head (the harness E22
//! grid):
//!
//! * [`Nada`] — RFC 8698: one aggregate congestion signal
//!   (queuing delay + quadratic loss penalty) driving a PI rate law,
//!   with accelerated ramp-up on clean paths.
//! * [`Bbr`] — BBR-style: windowed max-filter over delivery-rate
//!   samples with periodic pacing-gain probe cycles.
//! * [`LossEma`] — beam's production loss loop: per-interval loss rate,
//!   EMA smoothing, threshold AIMD.
//!
//! All four implement [`CongestionController`] and pass the shared
//! conformance battery in `tests/conformance.rs` (finite/bounded
//! targets under arbitrary feedback, ramp-up, convergence, step-drop
//! reaction, blackout recovery, bit-exact determinism).

#![warn(missing_docs)]

pub mod aimd;
pub mod baselines;
pub mod bbr;
pub mod gcc;
pub mod interarrival;
pub mod loss;
pub mod loss_ema;
pub mod nada;
pub mod throughput;
pub mod trendline;

pub use aimd::{AimdRateControl, RateControlState};
pub use baselines::{FixedRate, NaiveAimd};
pub use bbr::Bbr;
pub use gcc::Gcc;
pub use interarrival::{InterArrival, PacketGroupDelta};
pub use loss::LossController;
pub use loss_ema::LossEma;
pub use nada::Nada;
pub use throughput::ThroughputEstimator;
pub use trendline::{BandwidthUsage, TrendlineEstimator};

use ravel_net::FeedbackReport;
use ravel_sim::Time;

/// Floor of every arena controller's target, and of the pipeline's
/// other rate paths that match it, in bits/second.
pub const MIN_BPS: f64 = 150_000.0;
/// Ceiling of every arena controller's target, in bits/second.
pub const MAX_BPS: f64 = 8e6;
const _: () = assert!(MIN_BPS > 0.0 && MIN_BPS <= MAX_BPS, "bad rate bounds");

/// A sender-side congestion controller driven by transport-wide feedback.
pub trait CongestionController {
    /// Ingests one feedback report; returns the (possibly updated) target
    /// bitrate in bits/second.
    fn on_feedback(&mut self, report: &FeedbackReport, now: Time) -> f64;

    /// The current target bitrate in bits/second.
    fn target_bps(&self) -> f64;

    /// A short name for experiment tables.
    fn name(&self) -> &'static str;

    /// A stable label for the controller's latest rate decision,
    /// consumed by the observability layer's `TargetChanged` events
    /// (e.g. GCC reports its detector state). Defaults to a generic
    /// label for controllers without internal modes.
    fn decision_reason(&self) -> &'static str {
        "feedback"
    }
}
