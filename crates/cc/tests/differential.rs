//! Differential test: [`NaiveAimd`] vs the loss-EMA AIMD on identical
//! feedback streams.
//!
//! `NaiveAimd` predates the arena and stays in the E8 baseline lineup;
//! this test documents — rather than silently supersedes — its two
//! known deficiencies, by pinning exactly where the production-shaped
//! [`LossEma`] loop diverges from it on the same inputs:
//!
//! 1. **Over-reaction**: NaiveAimd halves its target on *any* lost
//!    packet in a report. One stray drop in an otherwise clean stream
//!    costs it 50 % of its rate; the loss-EMA loop's interval
//!    accumulation + smoothing moves its estimate by well under the
//!    backoff threshold, so it does not decrease at all.
//! 2. **Freefall under sustained loss**: during a lossy burst NaiveAimd
//!    compounds a halving per 100 ms report (≈ 2¹⁰ per second) and
//!    bottoms out at the rate floor almost immediately, while the
//!    loss-EMA loop decreases once per stats interval and lands at a
//!    usable rate.

use ravel_cc::{CongestionController, LossEma, NaiveAimd, MAX_BPS, MIN_BPS};
use ravel_net::{FeedbackReport, PacketResult};
use ravel_sim::{Dur, Time};

const START_BPS: f64 = 2e6;

/// A 10-packet, 100 ms report starting at `start_ms` with the first
/// `lost` packets dropped.
fn report(start_ms: u64, lost: u64) -> FeedbackReport {
    let packets = (0..10u64)
        .map(|i| {
            let send = Time::from_millis(start_ms + i * 10);
            PacketResult {
                seq: start_ms / 10 + i,
                send_time: send,
                arrival: (i >= lost).then(|| send + Dur::millis(20)),
                size_bytes: if i >= lost { 1200 } else { 0 },
            }
        })
        .collect();
    FeedbackReport {
        report_seq: start_ms / 100,
        generated_at: Time::from_millis(start_ms + 130),
        packets,
    }
}

/// Feeds the identical stream to both controllers; returns the paired
/// target trajectories. `losses[i]` is the lost-packet count of report
/// `i`.
fn run_both(losses: &[u64]) -> (Vec<f64>, Vec<f64>) {
    let mut naive = NaiveAimd::new(START_BPS, MIN_BPS, MAX_BPS);
    let mut ema = LossEma::new(START_BPS);
    let mut naive_targets = Vec::new();
    let mut ema_targets = Vec::new();
    for (i, &lost) in losses.iter().enumerate() {
        let r = report(i as u64 * 100, lost);
        let now = Time::from_millis(i as u64 * 100 + 100);
        naive_targets.push(naive.on_feedback(&r, now));
        ema_targets.push(ema.on_feedback(&r, now));
    }
    (naive_targets, ema_targets)
}

#[test]
fn one_stray_loss_halves_naive_but_not_loss_ema() {
    // 30 clean reports with a single lost packet in report 10.
    let mut losses = vec![0u64; 30];
    losses[10] = 1;
    let (naive, ema) = run_both(&losses);

    // Divergence point: report 10. NaiveAimd halves on the spot...
    assert_eq!(
        naive[10],
        naive[9] / 2.0,
        "naive did not halve on the stray loss"
    );
    // ...while the loss-EMA loop never decreases anywhere in the
    // stream: the interval loss rate is 1 % and the smoothed estimate
    // peaks at 0.3 % — an order of magnitude under its 10 % backoff
    // threshold.
    for w in ema.windows(2) {
        assert!(w[1] >= w[0], "loss-ema decreased on a stray loss: {w:?}");
    }
    // The cost of the over-reaction, in rate terms: NaiveAimd's
    // trajectory minimum is half its pre-loss rate; the loss-EMA loop's
    // minimum is its starting rate.
    let naive_min = naive.iter().cloned().fold(f64::INFINITY, f64::min);
    let ema_min = ema.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(naive_min <= 0.51 * naive[9]);
    assert!(ema_min >= START_BPS);
}

#[test]
fn sustained_loss_floors_naive_but_leaves_loss_ema_usable() {
    // 2 s clean, then 3 s of 30 % loss, then 2 s clean.
    let mut losses = vec![0u64; 20];
    losses.extend(std::iter::repeat_n(3, 30));
    losses.extend(std::iter::repeat_n(0, 20));
    let (naive, ema) = run_both(&losses);

    // Freefall: halving per lossy report pins NaiveAimd at the floor
    // within the burst's first second (reports 20..30).
    assert_eq!(naive[29], MIN_BPS, "naive never bottomed out");
    // The loss-EMA loop reacts on its 1 s interval clock instead: it
    // backs off during the burst but stays well above the floor — it
    // sees a smoothed 30 % estimate, not 30 consecutive disasters.
    let ema_min = ema.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(
        ema_min > 2.0 * MIN_BPS,
        "loss-ema collapsed to {ema_min} like the naive baseline"
    );
    assert!(
        ema_min < START_BPS,
        "loss-ema never backed off under sustained loss"
    );
    // Both controllers end the stream recovering (non-decreasing tail)
    // once the loss clears.
    assert!(naive.last().unwrap() > &naive[29]);
    assert!(ema.last().unwrap() >= &ema_min);
}

#[test]
fn identical_streams_yield_identical_divergence_every_time() {
    // The divergence itself is deterministic: re-running the same
    // stream reproduces both trajectories bit for bit.
    let mut losses = vec![0u64; 15];
    losses[5] = 2;
    losses[11] = 4;
    let (n1, e1) = run_both(&losses);
    let (n2, e2) = run_both(&losses);
    let bits = |v: &[f64]| v.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&n1), bits(&n2));
    assert_eq!(bits(&e1), bits(&e2));
}
