//! The everything-on session: all optional subsystems enabled at once.
//!
//! Audio + RTX + FEC + temporal layers + resolution ladder + jitter +
//! random loss + a stochastic trace with drops — if feature interactions
//! break invariants, this is where it shows.

use ravel::core::AdaptiveConfig;
use ravel::pipeline::{run_session, Scheme, SessionConfig, SessionResult};
use ravel::sim::{Dur, Time};
use ravel::trace::{CellularProfile, StepTrace, StochasticTrace};

fn kitchen_sink_cfg(scheme: Scheme) -> SessionConfig {
    let mut cfg = SessionConfig::default_with(scheme);
    cfg.duration = Dur::secs(30);
    cfg.enable_audio = true;
    cfg.enable_rtx = true;
    cfg.enable_fec = true;
    cfg.fec_group_size = 8;
    cfg.temporal_layers = 2;
    cfg.link.random_loss = 0.02;
    cfg.link.jitter_std = Dur::millis(3);
    cfg
}

fn assert_invariants(result: &SessionResult) {
    assert_eq!(
        result.recorder.records().len() as u64,
        result.frames_captured
    );
    for r in result.recorder.records() {
        assert!((0.0..=1.0).contains(&r.ssim));
    }
    for &(_, l) in &result.audio_latencies {
        assert!(l >= Dur::millis(20));
    }
    assert!(result.frames_skipped <= result.frames_captured);
}

#[test]
fn all_features_on_stochastic_trace() {
    for scheme in [Scheme::baseline(), Scheme::adaptive()] {
        let trace = StochasticTrace::generate(&CellularProfile::lte_like(), Dur::secs(30), 11);
        let result = run_session(trace, kitchen_sink_cfg(scheme));
        assert_invariants(&result);
        // All subsystems actually engaged.
        assert!(result.retransmissions > 0, "{}: RTX idle", scheme.name());
        assert!(result.fec_parity_sent > 0, "{}: FEC idle", scheme.name());
        assert!(
            result.audio_latencies.len() > 1000,
            "{}: audio missing",
            scheme.name()
        );
        let s = result.recorder.summarize_all();
        // Threshold recalibrated (0.6 → 0.55) after fixing the
        // FeedbackBuilder double-reporting bug: late RTX repairs used to
        // be reported twice, inflating GCC's delivered-rate estimate and
        // with it the baseline's sending rate/quality on lossy traces.
        // See EXPERIMENTS.md "Reproduction notes".
        assert!(
            s.mean_ssim > 0.55,
            "{}: quality collapsed under combined features: {}",
            scheme.name(),
            s.mean_ssim
        );
    }
}

#[test]
fn all_features_on_clean_drop_adaptive_still_wins() {
    let mk = || StepTrace::sudden_drop(4e6, 1e6, Time::from_secs(10));
    let b = run_session(mk(), kitchen_sink_cfg(Scheme::baseline()));
    let a = run_session(mk(), kitchen_sink_cfg(Scheme::adaptive()));
    assert_invariants(&b);
    assert_invariants(&a);
    let bw = b
        .recorder
        .summarize(Time::from_secs(10), Time::from_secs(18));
    let aw = a
        .recorder
        .summarize(Time::from_secs(10), Time::from_secs(18));
    assert!(
        aw.mean_latency_ms < bw.mean_latency_ms,
        "adaptive lost with all features on: {} vs {}",
        aw.mean_latency_ms,
        bw.mean_latency_ms
    );
}

#[test]
fn all_features_deterministic() {
    let mk = || StochasticTrace::generate(&CellularProfile::wifi_like(), Dur::secs(20), 5);
    let mut cfg = kitchen_sink_cfg(Scheme::adaptive());
    cfg.duration = Dur::secs(20);
    let a = run_session(mk(), cfg);
    let b = run_session(mk(), cfg);
    assert_eq!(a.recorder.records(), b.recorder.records());
    assert_eq!(a.retransmissions, b.retransmissions);
    assert_eq!(a.fec_recovered, b.fec_recovered);
    assert_eq!(a.audio_latencies, b.audio_latencies);
}

#[test]
fn continuous_mode_with_all_features() {
    let trace = StochasticTrace::generate(&CellularProfile::lte_like(), Dur::secs(30), 3);
    let result = run_session(
        trace,
        kitchen_sink_cfg(Scheme::adaptive_with(AdaptiveConfig::continuous())),
    );
    assert_invariants(&result);
    let s = result.recorder.summarize_all();
    assert!(s.mean_latency_ms < 400.0, "latency {}", s.mean_latency_ms);
}
