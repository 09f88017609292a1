//! The controller's ablation switches and its fixed tunables.
//!
//! [`AdaptiveConfig`] holds only what an experiment varies: the three
//! mechanism switches E7 ablates around the always-on fast-QP path, and
//! the two control modes E15 and E16 compare. Every other tunable is a
//! constant of the paper configuration, checked at compile time by
//! `check_tunables`.

use ravel_sim::Dur;

// --- detection --------------------------------------------------------
/// Queue-delay estimate (OWD above the windowed minimum) that signals a
/// drop.
pub(crate) const DETECT_QUEUE_DELAY: Dur = Dur::millis(40);
/// Delivered/target ratio below which throughput corroborates the delay
/// signal.
pub(crate) const DETECT_THROUGHPUT_RATIO: f64 = 0.85;
/// Minimum spacing between drop triggers.
pub(crate) const DETECT_COOLDOWN: Dur = Dur::millis(500);
/// Window for the one-way-delay minimum (baseline delay tracking).
pub(crate) const OWD_MIN_WINDOW: Dur = Dur::secs(10);

// --- reaction ---------------------------------------------------------
/// Fraction of the estimated capacity the encoder targets while the
/// queue drains (α < 1 leaves drain headroom).
pub(crate) const DRAIN_RATE_FRACTION: f64 = 0.85;
/// Fraction of capacity targeted in Recover (between drain and full).
pub(crate) const RECOVER_RATE_FRACTION: f64 = 0.95;
/// Queue-delay estimate below which Drain hands off to Recover.
pub(crate) const DRAIN_EXIT_QUEUE_DELAY: Dur = Dur::millis(15);
/// Time spent in Recover before returning to Steady (GCC control).
pub(crate) const RECOVER_HOLD: Dur = Dur::secs(1);

// --- frame skip -------------------------------------------------------
/// Skip frames while estimated queue delay exceeds this.
pub(crate) const SKIP_QUEUE_DELAY: Dur = Dur::millis(150);
/// Never skip more than this many consecutive frames (bounds the freeze
/// the skip itself causes).
pub(crate) const MAX_CONSECUTIVE_SKIPS: u32 = 2;

// --- recovery probing -------------------------------------------------
/// Spacing between probe attempts.
pub(crate) const PROBE_INTERVAL: Dur = Dur::secs(2);
/// Multiplier applied to the current target per probe.
pub(crate) const PROBE_FACTOR: f64 = 1.5;
/// How long a probe runs before being judged.
pub(crate) const PROBE_DURATION: Dur = Dur::millis(400);
/// Give up after this many failed probes (a success resets the count).
pub(crate) const MAX_PROBES: u32 = 6;

// --- resolution ladder ------------------------------------------------
/// Step down a rung when the budget-solved QP exceeds this.
pub(crate) const LADDER_DOWN_QP: f64 = 45.0;
/// Step up a rung (in Steady only) when QP stays below this.
pub(crate) const LADDER_UP_QP: f64 = 30.0;

/// Panics unless the tunables are mutually consistent. Evaluated on the
/// constants above at compile time.
const fn check_tunables(
    detect_throughput_ratio: f64,
    drain_rate_fraction: f64,
    recover_rate_fraction: f64,
    ladder_down_qp: f64,
    ladder_up_qp: f64,
    probe_factor: f64,
) {
    assert!(
        0.0 <= drain_rate_fraction && drain_rate_fraction <= 1.0,
        "drain_rate_fraction out of range"
    );
    assert!(
        0.0 <= recover_rate_fraction && recover_rate_fraction <= 1.0,
        "recover_rate_fraction out of range"
    );
    assert!(
        drain_rate_fraction <= recover_rate_fraction,
        "drain fraction above recover fraction"
    );
    assert!(
        0.0 <= detect_throughput_ratio && detect_throughput_ratio <= 1.0,
        "detect_throughput_ratio out of range"
    );
    assert!(ladder_down_qp > ladder_up_qp, "ladder thresholds inverted");
    assert!(
        probe_factor > 1.0 && probe_factor.is_finite(),
        "probe factor must exceed 1"
    );
}

const _: () = check_tunables(
    DETECT_THROUGHPUT_RATIO,
    DRAIN_RATE_FRACTION,
    RECOVER_RATE_FRACTION,
    LADDER_DOWN_QP,
    LADDER_UP_QP,
    PROBE_FACTOR,
);

/// The adaptive controller's switches. Defaults are the paper
/// configuration; the `enable_*` flags exist for the E7 ablation, and
/// `continuous` and `enable_recovery_probing` for E15 and E16. Reseeding
/// rate control at the new target (the fast QP path) is the mechanism
/// itself and is always on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Rescale the VBV bucket to the new rate.
    pub enable_vbv_rescale: bool,
    /// Skip frames while the backlog exceeds the skip threshold.
    pub enable_frame_skip: bool,
    /// Step the resolution ladder down when budget QP passes the ceiling.
    pub enable_resolution_ladder: bool,
    /// Continuous (Salsify-flavoured) control: instead of waiting for a
    /// drop trigger, the controller re-derives the encoder's parameters
    /// from the delivered-rate estimate on *every* feedback report and
    /// pins every frame's budget. The paper's drop-triggered design is
    /// the default; E15 compares the two.
    pub continuous: bool,
    /// After a handled drop, periodically probe the target upward to
    /// re-discover capacity faster than GCC's additive increase (WebRTC
    /// probes similarly with padding). Off by default — E16 evaluates it.
    pub enable_recovery_probing: bool,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            enable_vbv_rescale: true,
            enable_frame_skip: true,
            enable_resolution_ladder: true,
            continuous: false,
            enable_recovery_probing: false,
        }
    }
}

impl AdaptiveConfig {
    /// The paper configuration plus recovery probing (E16 comparator).
    pub fn with_probing() -> AdaptiveConfig {
        AdaptiveConfig {
            enable_recovery_probing: true,
            ..AdaptiveConfig::default()
        }
    }

    /// Salsify-flavoured continuous per-frame control (E15 comparator).
    pub fn continuous() -> AdaptiveConfig {
        AdaptiveConfig {
            continuous: true,
            ..AdaptiveConfig::default()
        }
    }

    /// The E7 "fast-QP only" ablation: reseed rate control, nothing else.
    pub fn fast_qp_only() -> AdaptiveConfig {
        AdaptiveConfig {
            enable_vbv_rescale: false,
            enable_frame_skip: false,
            enable_resolution_ladder: false,
            ..AdaptiveConfig::default()
        }
    }

    /// The E7 "+VBV" ablation.
    pub fn fast_qp_and_vbv() -> AdaptiveConfig {
        AdaptiveConfig {
            enable_frame_skip: false,
            enable_resolution_ladder: false,
            ..AdaptiveConfig::default()
        }
    }

    /// The E7 "+skip" ablation (everything except the ladder).
    pub fn without_ladder() -> AdaptiveConfig {
        AdaptiveConfig {
            enable_resolution_ladder: false,
            ..AdaptiveConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_validates() {
        // The compile-time check, run again where a test can see it.
        check_tunables(
            DETECT_THROUGHPUT_RATIO,
            DRAIN_RATE_FRACTION,
            RECOVER_RATE_FRACTION,
            LADDER_DOWN_QP,
            LADDER_UP_QP,
            PROBE_FACTOR,
        );
    }

    #[test]
    fn ablations_disable_expected_mechanisms() {
        let a = AdaptiveConfig::fast_qp_only();
        assert!(!a.enable_vbv_rescale && !a.enable_frame_skip && !a.enable_resolution_ladder);
        let b = AdaptiveConfig::fast_qp_and_vbv();
        assert!(b.enable_vbv_rescale && !b.enable_frame_skip);
        let c = AdaptiveConfig::without_ladder();
        assert!(c.enable_frame_skip && !c.enable_resolution_ladder);
    }

    #[test]
    #[should_panic(expected = "ladder thresholds")]
    fn inverted_ladder_rejected() {
        check_tunables(
            DETECT_THROUGHPUT_RATIO,
            DRAIN_RATE_FRACTION,
            RECOVER_RATE_FRACTION,
            20.0,
            LADDER_UP_QP,
            PROBE_FACTOR,
        );
    }

    #[test]
    #[should_panic(expected = "drain fraction")]
    fn drain_above_recover_rejected() {
        check_tunables(
            DETECT_THROUGHPUT_RATIO,
            0.99,
            0.9,
            LADDER_DOWN_QP,
            LADDER_UP_QP,
            PROBE_FACTOR,
        );
    }
}
