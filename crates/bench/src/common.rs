//! The session helper for the Criterion targets: one canonical drop
//! session.

use ravel_harness::experiments::{DROP_AT, PRE_RATE, SESSION_LEN};
use ravel_pipeline::{run_session, Scheme, SessionConfig, SessionResult};
use ravel_trace::StepTrace;
use ravel_video::ContentClass;

/// Runs one drop session: `PRE_RATE` falling to `after_bps` at
/// [`DROP_AT`], under `scheme` and `content`.
pub fn run_drop(scheme: Scheme, content: ContentClass, after_bps: f64) -> SessionResult {
    let mut cfg = SessionConfig::default_with(scheme);
    cfg.content = content;
    cfg.duration = SESSION_LEN;
    run_session(StepTrace::sudden_drop(PRE_RATE, after_bps, DROP_AT), cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ravel_harness::experiments::{fmt_reduction, pct_change};

    #[test]
    fn pct_change_signs() {
        assert!((pct_change(100.0, 50.0) + 50.0).abs() < 1e-12);
        assert!((pct_change(100.0, 150.0) - 50.0).abs() < 1e-12);
        assert_eq!(pct_change(0.0, 5.0), 0.0);
    }

    #[test]
    fn fmt_reduction_reads_positively_for_improvements() {
        assert_eq!(fmt_reduction(100.0, 25.0), "75.00%");
        assert_eq!(fmt_reduction(100.0, 125.0), "-25.00%");
    }

    #[test]
    fn run_drop_is_deterministic() {
        let a = run_drop(Scheme::adaptive(), ContentClass::TalkingHead, 1e6);
        let b = run_drop(Scheme::adaptive(), ContentClass::TalkingHead, 1e6);
        assert_eq!(a.recorder.records(), b.recorder.records());
    }
}
