//! Property-based tests over whole sessions: random capacity
//! trajectories and seeds must never violate the pipeline's invariants.

use proptest::prelude::*;
use ravel::pipeline::{run_session, Scheme, SessionConfig};
use ravel::sim::{Dur, Time};
use ravel::trace::StepTrace;

/// Builds an arbitrary piecewise-constant capacity trajectory within
/// RTC-plausible bounds.
fn arb_trace() -> impl Strategy<Value = StepTrace> {
    // 1-4 breakpoints after t=0, rates 0.3..6 Mbps, times 2..14 s.
    (
        0.3e6..6e6f64,
        proptest::collection::vec((2u64..14, 0.3e6..6e6f64), 1..4),
    )
        .prop_map(|(first, rest)| {
            let mut points = vec![(Time::ZERO, first)];
            let mut t = 0u64;
            for (dt, rate) in rest {
                t += dt;
                points.push((Time::from_secs(t), rate));
            }
            StepTrace::new(points)
        })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, // whole-session runs are the expensive kind
        ..ProptestConfig::default()
    })]

    /// Whatever the capacity trajectory and seed, the session terminates
    /// with complete, ordered, in-range accounting for both schemes.
    #[test]
    fn session_invariants(trace in arb_trace(), seed in 0u64..1000) {
        for scheme in [Scheme::baseline(), Scheme::adaptive()] {
            let mut cfg = SessionConfig::default_with(scheme);
            cfg.duration = Dur::secs(16);
            cfg.seed = seed;
            let result = run_session(&trace, cfg);

            // One record per captured frame, in pts order.
            prop_assert_eq!(
                result.recorder.records().len() as u64,
                result.frames_captured
            );
            let mut last_pts = Time::ZERO;
            for r in result.recorder.records() {
                prop_assert!(r.pts >= last_pts);
                last_pts = r.pts;
                prop_assert!((0.0..=1.0).contains(&r.ssim));
                if let Some(l) = r.latency {
                    // Latency is at least encode+render and at most the
                    // session length plus drain grace.
                    prop_assert!(l >= Dur::millis(5));
                    prop_assert!(l <= Dur::secs(70), "latency {l}");
                }
            }
            // Skips never exceed captures; counters are consistent.
            prop_assert!(result.frames_skipped <= result.frames_captured);
            let s = result.recorder.summarize_all();
            prop_assert_eq!(s.frames, result.frames_captured);
        }
    }

    /// The adaptive scheme's post-drop latency is never dramatically
    /// worse than the baseline's on a clean single drop, regardless of
    /// severity and seed.
    #[test]
    fn adaptive_never_catastrophically_worse(
        after_mbps in 0.5f64..3.5,
        seed in 0u64..100,
    ) {
        let mk = || StepTrace::sudden_drop(4e6, after_mbps * 1e6, Time::from_secs(8));
        let mut bcfg = SessionConfig::default_with(Scheme::baseline());
        bcfg.duration = Dur::secs(16);
        bcfg.seed = seed;
        let mut acfg = SessionConfig::default_with(Scheme::adaptive());
        acfg.duration = Dur::secs(16);
        acfg.seed = seed;
        let b = run_session(mk(), bcfg);
        let a = run_session(mk(), acfg);
        let bw = b.recorder.summarize(Time::from_secs(8), Time::from_secs(15));
        let aw = a.recorder.summarize(Time::from_secs(8), Time::from_secs(15));
        // "Never catastrophically worse": within 1.5x + a 40 ms allowance
        // (severities near 1x have near-zero baseline spikes, where the
        // detector's reaction can add small jitter).
        prop_assert!(
            aw.mean_latency_ms <= bw.mean_latency_ms * 1.5 + 40.0,
            "adaptive {} vs baseline {} (drop to {} Mbps, seed {})",
            aw.mean_latency_ms, bw.mean_latency_ms, after_mbps, seed
        );
    }
}
