//! Property test: corrupted feedback, sanitized by [`FeedbackValidator`],
//! never destabilizes the arena's new controllers.
//!
//! PR 9's zero-false-positive suite proved the validator accepts every
//! honest report and rejects the corruptor's garbage. This extends the
//! property to the consumers: whatever subset of a corrupted stream
//! survives the session's duplicate gate + validator, feeding it to
//! NADA and the BBR-style controller never produces a NaN, negative, or
//! out-of-bounds target.
//!
//! Two corruption sources are exercised: the real [`FeedbackCorruptor`]
//! (the seven seeded `CorruptMode` mutations, driven by a generated
//! schedule exactly as a session would), and a free-form field fuzzer
//! that scrambles sequence numbers, timestamps, and sizes beyond what
//! the corruptor emits.

use ravel_cc::{Bbr, CongestionController, Nada, MAX_BPS, MIN_BPS};
use ravel_net::{
    CorruptSchedule, CorruptSpec, FeedbackCorruptor, FeedbackReport, FeedbackValidator,
    PacketResult,
};
use ravel_sim::{Dur, Time};

/// An honest 10-packet, 100 ms report: contiguous sequence numbers,
/// positive sizes, arrivals inside `[send, generated_at]`.
fn honest_report(idx: u64, owd_ms: u64, lost_every: u64) -> FeedbackReport {
    let start_ms = idx * 100;
    let packets = (0..10u64)
        .map(|i| {
            let send = Time::from_millis(start_ms + i * 10);
            let lost = lost_every > 0 && i % lost_every == 0;
            PacketResult {
                seq: idx * 10 + i,
                send_time: send,
                arrival: (!lost).then(|| send + Dur::millis(owd_ms)),
                size_bytes: if lost { 0 } else { 1200 },
            }
        })
        .collect();
    FeedbackReport {
        report_seq: idx + 1,
        generated_at: Time::from_millis(start_ms + 100 + owd_ms),
        packets,
    }
}

/// The session's control-plane ingress, in miniature: duplicate/stale
/// gate, then the validator; only accepted reports reach the
/// controllers. Asserts the bounded-target property after every report.
fn feed_sanitized(reports: Vec<FeedbackReport>) -> Result<(), proptest::TestCaseError> {
    let mut validator = FeedbackValidator::new();
    let mut last_seq: Option<u64> = None;
    let mut nada = Nada::new(1e6);
    let mut bbr = Bbr::new(1e6);
    let mut accepted = 0u64;
    for report in &reports {
        let now = report.generated_at + Dur::millis(5);
        if last_seq.is_some_and(|last| report.report_seq <= last) {
            continue;
        }
        if validator.check(report, last_seq).is_err() {
            continue;
        }
        last_seq = Some(report.report_seq);
        accepted += 1;
        for (name, target) in [
            ("nada", nada.on_feedback(report, now)),
            ("bbr", bbr.on_feedback(report, now)),
        ] {
            proptest::prop_assert!(
                target.is_finite() && (MIN_BPS..=MAX_BPS).contains(&target),
                "{name}: target {target} out of bounds after report_seq {}",
                report.report_seq
            );
        }
    }
    // The gates must not starve the controllers outright: an honest
    // prefix always exists (corruption segments start after 15 % of
    // the session), so at least one report is always accepted.
    proptest::prop_assert!(accepted > 0, "sanitizer rejected the entire stream");
    Ok(())
}

proptest::proptest! {
    /// The real corruption stage: a `(seed, intensity)`-generated
    /// schedule mutating an honest 6 s stream, exactly as the session's
    /// reverse path would.
    #[test]
    fn corruptor_mutations_survive_sanitization(
        seed in 0u64..2_000,
        intensity_pct in 5u32..101,
        owd_ms in 1u64..80,
        lost_every in 0u64..5,
    ) {
        let session_len = Dur::secs(6);
        let spec = CorruptSpec::new(seed, intensity_pct as f64 / 100.0);
        let schedule = CorruptSchedule::generate(spec, session_len);
        let mut corruptor = FeedbackCorruptor::new(schedule, seed);
        let reports = (0..60u64)
            .map(|idx| {
                let mut r = honest_report(idx, owd_ms, lost_every);
                let now = Time::from_millis(idx * 100 + 100);
                corruptor.corrupt(&mut r, now);
                r
            })
            .collect();
        feed_sanitized(reports)?;
    }

    /// Free-form field fuzzing beyond the corruptor's seven kinds:
    /// scramble one field of every k-th report with generated values.
    /// The first five reports stay honest (mirroring the corruptor's
    /// clean lead-in) so the non-starvation assertion holds even when
    /// `every == 1` invalidates the rest of the stream.
    #[test]
    fn field_fuzzing_survives_sanitization(
        every in 1u64..6,
        field in 0u64..6,
        scramble in 0u64..u64::MAX,
        owd_ms in 1u64..80,
    ) {
        let reports = (0..60u64)
            .map(|idx| {
                let mut r = honest_report(idx, owd_ms, 0);
                if idx >= 5 && idx % every == 0 {
                    match field {
                        0 => r.report_seq = scramble,
                        1 => r.generated_at = Time::from_millis(scramble % (1 << 40)),
                        2 => {
                            if let Some(p) = r.packets.first_mut() {
                                p.seq = scramble;
                            }
                        }
                        3 => {
                            if let Some(p) = r.packets.first_mut() {
                                p.size_bytes = scramble;
                            }
                        }
                        4 => {
                            if let Some(p) = r.packets.first_mut() {
                                p.send_time = Time::from_millis(scramble % (1 << 40));
                            }
                        }
                        _ => {
                            if let Some(p) = r.packets.last_mut() {
                                p.arrival = Some(Time::from_millis(scramble % (1 << 40)));
                            }
                        }
                    }
                }
                r
            })
            .collect();
        feed_sanitized(reports)?;
    }
}
