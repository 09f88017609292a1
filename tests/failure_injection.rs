//! Failure injection: the pipeline must survive hostile conditions
//! without panicking, hanging, or producing nonsense accounting.

use ravel::cc::MIN_BPS;
use ravel::core::WatchdogConfig;
use ravel::net::{ChaosSchedule, FaultKind, FaultSegment, GilbertElliott, ReversePathConfig};
use ravel::pipeline::{run_session, run_spec, KernelWorkspace, RunSpec, Scheme, SessionConfig};
use ravel::sim::{Dur, Series, Time};
use ravel::trace::{ConstantTrace, StepTrace};
use ravel::video::Resolution;

fn cfg(scheme: Scheme) -> SessionConfig {
    let mut cfg = SessionConfig::default_with(scheme);
    cfg.duration = Dur::secs(20);
    cfg
}

/// Shared sanity assertions for any completed session.
fn assert_sane(result: &ravel::pipeline::SessionResult) {
    assert!(result.frames_captured > 0);
    assert_eq!(
        result.recorder.records().len() as u64,
        result.frames_captured
    );
    for r in result.recorder.records() {
        assert!(
            (0.0..=1.0).contains(&r.ssim),
            "SSIM out of range: {}",
            r.ssim
        );
        if let Some(l) = r.latency {
            // Nothing can arrive faster than propagation + render.
            assert!(
                l >= Dur::millis(5),
                "impossible latency {l} for frame at {:?}",
                r.pts
            );
        }
    }
}

#[test]
fn near_blackout_and_recovery() {
    // Capacity collapses to 20 kbps for 3 s — not even one frame per
    // second fits — then recovers.
    let trace = || {
        StepTrace::new(vec![
            (Time::ZERO, 4e6),
            (Time::from_secs(8), 20e3),
            (Time::from_secs(11), 4e6),
        ])
    };
    for scheme in [Scheme::baseline(), Scheme::adaptive()] {
        let result = run_session(trace(), cfg(scheme));
        assert_sane(&result);
        // The blackout must be visible as freezes or huge latencies.
        let during = result
            .recorder
            .summarize(Time::from_secs(8), Time::from_secs(11));
        assert!(
            during.frozen > 0 || during.max_latency_ms > 500.0,
            "{}: blackout left no trace",
            scheme.name()
        );
        // And the tail must have recovered.
        let tail = result
            .recorder
            .summarize(Time::from_secs(17), Time::from_secs(20));
        assert!(
            tail.mean_ssim > 0.5,
            "{}: never recovered (ssim {})",
            scheme.name(),
            tail.mean_ssim
        );
    }
}

#[test]
fn total_blackout_does_not_hang() {
    // A fully dead link: the serializer's safety ceiling bounds every
    // packet, so the session must still terminate.
    let result = run_session(ConstantTrace::new(0.0), cfg(Scheme::adaptive()));
    assert_sane(&result);
    let s = result.recorder.summarize_all();
    assert!(
        s.freeze_ratio() > 0.9,
        "dead link somehow displayed frames: {}",
        s.freeze_ratio()
    );
}

#[test]
fn heavy_loss_with_rtx_survives() {
    let mut c = cfg(Scheme::adaptive());
    c.link.random_loss = 0.2;
    let result = run_session(ConstantTrace::new(4e6), c);
    assert_sane(&result);
    assert!(result.retransmissions > 0, "RTX never engaged at 20% loss");
    let s = result.recorder.summarize_all();
    assert!(s.mean_ssim > 0.4, "quality collapsed: {}", s.mean_ssim);
}

#[test]
fn heavy_loss_without_rtx_survives() {
    let mut c = cfg(Scheme::baseline());
    c.link.random_loss = 0.2;
    c.enable_rtx = false;
    let result = run_session(ConstantTrace::new(4e6), c);
    assert_sane(&result);
    assert_eq!(result.retransmissions, 0);
    // PLI + IDR is the only recovery; freezes will be plentiful but the
    // session must not collapse entirely.
    let s = result.recorder.summarize_all();
    assert!(s.displayed > 0);
}

#[test]
fn jittery_link_never_reorders_into_panic() {
    let mut c = cfg(Scheme::adaptive());
    c.link.jitter_std = Dur::millis(15);
    let result = run_session(StepTrace::sudden_drop(4e6, 1e6, Time::from_secs(10)), c);
    assert_sane(&result);
}

#[test]
fn tiny_bottleneck_queue() {
    let mut c = cfg(Scheme::baseline());
    c.link.queue_capacity_bytes = 10_000; // < 8 MTU packets
    let result = run_session(StepTrace::sudden_drop(4e6, 1e6, Time::from_secs(10)), c);
    assert_sane(&result);
    assert!(result.queue_drops > 0, "tiny queue never dropped");
}

#[test]
fn extreme_frame_rates() {
    for fps in [5u32, 60] {
        let mut c = cfg(Scheme::adaptive());
        c.fps = fps;
        let result = run_session(ConstantTrace::new(4e6), c);
        assert_sane(&result);
        let expected = 20 * fps as u64;
        assert!(
            (result.frames_captured as i64 - expected as i64).unsigned_abs() <= 1,
            "fps {fps}: captured {} expected ~{expected}",
            result.frames_captured
        );
    }
}

#[test]
fn low_resolution_capture() {
    let mut c = cfg(Scheme::adaptive());
    c.resolution = Resolution::P360;
    c.start_rate_bps = 1e6;
    let result = run_session(StepTrace::sudden_drop(1e6, 0.3e6, Time::from_secs(10)), c);
    assert_sane(&result);
}

#[test]
fn sender_grossly_overprovisioned_from_start() {
    // 8 Mbps start target on a 0.5 Mbps link: the session begins in
    // catastrophe; the adaptive controller must engage and stabilize.
    let mut c = cfg(Scheme::adaptive());
    c.start_rate_bps = 8e6;
    let result = run_session(ConstantTrace::new(0.5e6), c);
    assert_sane(&result);
    assert!(result.drops_handled >= 1);
    let tail = result
        .recorder
        .summarize(Time::from_secs(15), Time::from_secs(20));
    assert!(
        tail.mean_latency_ms < 500.0,
        "never stabilized: {:.0}ms",
        tail.mean_latency_ms
    );
}

#[test]
fn repeated_drops_in_quick_succession() {
    let trace = || {
        StepTrace::new(vec![
            (Time::ZERO, 4e6),
            (Time::from_secs(6), 2e6),
            (Time::from_secs(9), 1e6),
            (Time::from_secs(12), 0.5e6),
            (Time::from_secs(15), 2e6),
        ])
    };
    let result = run_session(trace(), cfg(Scheme::adaptive()));
    assert_sane(&result);
    // The controller may handle the staircase as several triggers or as
    // one long Drain episode whose capacity estimate keeps re-anchoring;
    // either way at least one trigger fires and the tail stabilizes at
    // the final (recovered 2 Mbps) capacity.
    assert!(result.drops_handled >= 1, "no drop detected at all");
    let tail = result
        .recorder
        .summarize(Time::from_secs(17), Time::from_secs(20));
    assert!(
        tail.mean_latency_ms < 300.0,
        "staircase never stabilized: {:.0}ms",
        tail.mean_latency_ms
    );
}

// --- Control-plane (reverse-path) fault injection ---------------------

/// The canonical E17 drop: 4→1 Mbps at 10 s, 20 s session.
fn drop_trace() -> StepTrace {
    StepTrace::sudden_drop(4e6, 1e6, Time::from_secs(10))
}

fn watchdog_for(cfg: &SessionConfig) -> WatchdogConfig {
    WatchdogConfig::for_timing(cfg.feedback_interval, cfg.reverse_delay * 2)
}

#[test]
fn feedback_blackout_no_panic_sane_accounting() {
    // 30% feedback loss plus a 1 s feedback blackout starting exactly at
    // the capacity drop: both schemes, watchdog on, must complete with
    // sane accounting.
    for scheme in [Scheme::baseline(), Scheme::adaptive()] {
        let mut c = cfg(scheme);
        c.reverse_path = ReversePathConfig::with_loss(0.3)
            .add_blackout(Time::from_secs(10), Time::from_secs(11));
        c.watchdog = Some(watchdog_for(&c));
        let result = run_session(drop_trace(), c);
        assert_sane(&result);
        assert!(
            result.reverse_lost > 0,
            "{}: impaired reverse path lost nothing",
            scheme.name()
        );
        assert!(
            result.watchdog_timeouts > 0,
            "{}: watchdog never fired through a 1 s blackout",
            scheme.name()
        );
    }
}

#[test]
fn duplicate_storm_discards_replayed_reports() {
    // Nearly every feedback report and NACK batch arrives twice. The
    // report_seq gate must discard the replays and the session must not
    // double-process its way into nonsense.
    let mut c = cfg(Scheme::adaptive());
    c.reverse_path = ReversePathConfig {
        duplicate_prob: 0.9,
        ..ReversePathConfig::default()
    };
    let result = run_session(drop_trace(), c);
    assert_sane(&result);
    assert!(result.reverse_duplicates > 0, "no duplicates injected");
    assert!(
        result.reports_discarded > 0,
        "duplicated reports were not discarded"
    );
    // A clean-forward-path session under pure control-plane duplication
    // must still deliver reasonable quality.
    let s = result.recorder.summarize_all();
    assert!(s.mean_ssim > 0.5, "quality collapsed: {}", s.mean_ssim);
}

#[test]
fn reordered_reports_are_discarded_not_processed() {
    // Reverse-path jitter well above the base delay reorders reports in
    // flight; stale ones (report_seq <= last seen) must be dropped
    // before they reach GCC or the drop detector.
    let mut c = cfg(Scheme::adaptive());
    c.reverse_path = ReversePathConfig {
        jitter_std: Dur::millis(30),
        ..ReversePathConfig::default()
    };
    let result = run_session(drop_trace(), c);
    assert_sane(&result);
    assert!(
        result.reports_discarded > 0,
        "30 ms reverse jitter produced no out-of-order reports"
    );
}

#[test]
fn send_rate_decays_toward_floor_while_blind() {
    // A 3 s total feedback blackout: the watchdog must walk the target
    // down exponentially toward its floor while the loop is blind.
    let mut c = cfg(Scheme::adaptive());
    c.record_series = true;
    c.reverse_path =
        ReversePathConfig::default().add_blackout(Time::from_secs(10), Time::from_secs(13));
    let wd = watchdog_for(&c);
    c.watchdog = Some(wd);
    let result = run_session(drop_trace(), c);
    assert_sane(&result);
    assert!(result.watchdog_timeouts >= 10, "too few blind steps");
    let target = result
        .series
        .get(Series::TargetBps)
        .expect("series recorded");
    let early = target.mean_in(Time::from_secs(10), Time::from_millis(10_500));
    let late = target.mean_in(Time::from_millis(12_500), Time::from_secs(13));
    assert!(
        late < early,
        "target did not decay while blind: {early} -> {late}"
    );
    assert!(late >= MIN_BPS, "target fell through the floor: {late}");
    assert!(
        late <= MIN_BPS * 2.0,
        "3 s of backoff never approached the floor: {late}"
    );
}

#[test]
fn impaired_reverse_path_is_deterministic() {
    // Identical seeds and fault schedule => byte-identical results, even
    // with every impairment mechanism engaged at once.
    let mk = || {
        let mut c = cfg(Scheme::adaptive());
        c.reverse_path = ReversePathConfig {
            loss: 0.1,
            gilbert_elliott: Some(GilbertElliott::bursty()),
            jitter_std: Dur::millis(5),
            duplicate_prob: 0.2,
            ..ReversePathConfig::default()
        }
        .add_blackout(Time::from_secs(10), Time::from_secs(11));
        c.watchdog = Some(watchdog_for(&c));
        c
    };
    let a = run_session(drop_trace(), mk());
    let b = run_session(drop_trace(), mk());
    assert_eq!(a.recorder, b.recorder);
    assert_eq!(a.reverse_lost, b.reverse_lost);
    assert_eq!(a.reverse_duplicates, b.reverse_duplicates);
    assert_eq!(a.reports_discarded, b.reports_discarded);
    assert_eq!(a.watchdog_timeouts, b.watchdog_timeouts);
    assert_eq!(a.plis_sent, b.plis_sent);
    assert_eq!(a.retransmissions, b.retransmissions);
}

#[test]
fn watchdog_improves_p95_latency_under_blind_drop() {
    // The acceptance condition: 30% feedback loss + 1 s blackout over
    // the 4→1 Mbps drop. Cutting the rate while blind must strictly
    // reduce post-drop p95 latency versus flying blind at full rate.
    let mk = |watchdog: bool| {
        let mut c = cfg(Scheme::adaptive());
        c.reverse_path = ReversePathConfig::with_loss(0.3)
            .add_blackout(Time::from_secs(10), Time::from_secs(11));
        if watchdog {
            c.watchdog = Some(watchdog_for(&c));
        }
        run_session(drop_trace(), c)
    };
    let without = mk(false);
    let with = mk(true);
    assert_sane(&without);
    assert_sane(&with);
    let w_without = without
        .recorder
        .summarize(Time::from_secs(10), Time::from_secs(18));
    let w_with = with
        .recorder
        .summarize(Time::from_secs(10), Time::from_secs(18));
    assert!(
        w_with.p95_latency_ms < w_without.p95_latency_ms,
        "watchdog did not improve blind p95: {:.1} vs {:.1}",
        w_with.p95_latency_ms,
        w_without.p95_latency_ms
    );
}

#[test]
fn very_long_session_is_stable() {
    let mut c = cfg(Scheme::adaptive());
    c.duration = Dur::secs(180);
    let result = run_session(ConstantTrace::new(4e6), c);
    assert_sane(&result);
    let tail = result
        .recorder
        .summarize(Time::from_secs(170), Time::from_secs(180));
    assert!(tail.mean_latency_ms < 120.0);
    assert!(tail.mean_ssim > 0.9);
}

#[test]
fn forward_burst_loss_freeze_recovers_via_pli_keyframe() {
    // Forward-path Gilbert-Elliott burst loss severe enough to break
    // the reference chain (~95% bad-state occupancy, bad state lossless
    // for nobody: every packet in a burst dies). RTX abandons the gaps,
    // which must arm PLI; the PLI-forced keyframe must then repair the
    // decoder freeze once the impairment clears — the receiver-side
    // mirror of the reverse-path PLI tests above.
    let burst = FaultSegment {
        from: Time::from_secs(6),
        until: Time::from_secs(9),
        kind: FaultKind::BurstLoss(GilbertElliott {
            p_good_to_bad: 0.9,
            p_bad_to_good: 0.05,
            bad_loss: 1.0,
        }),
    };
    for scheme in [Scheme::baseline(), Scheme::adaptive()] {
        let schedule = ChaosSchedule::from_segments(vec![burst]);
        let spec = RunSpec {
            chaos: Some(schedule),
            ..RunSpec::new(ConstantTrace::new(4e6), cfg(scheme))
        };
        let result = run_spec(spec, &mut KernelWorkspace::new());
        assert_sane(&result);
        assert!(
            result.chain_breaks >= 1,
            "{}: burst loss should break the reference chain",
            scheme.name()
        );
        assert!(
            result.plis_sent >= 1,
            "{}: a broken chain must trigger a PLI",
            scheme.name()
        );
        // The freeze-termination invariant is the machine-checked form
        // of "the PLI keyframe repaired the freeze within bound".
        assert!(
            result.violations.is_empty(),
            "{}: {:?}",
            scheme.name(),
            result.violations
        );
        // And the tail must actually be healthy again.
        let tail = result
            .recorder
            .summarize(Time::from_secs(15), Time::from_secs(20));
        assert_eq!(
            tail.frozen,
            0,
            "{}: still frozen after impairment cleared",
            scheme.name()
        );
        // Quality is back too (gcc ramps its rate more slowly than the
        // adaptive scheme after the loss window, so the bar is modest).
        assert!(
            tail.mean_ssim > 0.8,
            "{}: tail SSIM {}",
            scheme.name(),
            tail.mean_ssim
        );
    }
}
