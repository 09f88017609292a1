//! Loss-EMA AIMD congestion control.
//!
//! The production-representative low bar: the rate loop used by beam's
//! `abr.rs` (SNIPPETS.md §3). No delay model at all — the controller
//! accumulates sent/lost counts over a fixed stats interval, smooths
//! the interval loss rate with an exponential moving average
//! (`loss_ema ← 0.7·loss_ema + 0.3·loss_rate`), and applies classic
//! AIMD thresholds to the smoothed value:
//!
//! * `loss_ema > HIGH` → multiplicative decrease,
//! * `loss_ema < LOW` → gentle multiplicative probe upward,
//! * otherwise → hold.
//!
//! Compared to [`NaiveAimd`](crate::NaiveAimd) — which halves on *any*
//! loss in a single report — the EMA plus interval accumulation means
//! one stray drop moves the estimate by at most `0.3 / interval-packets`
//! and never crosses the decrease threshold. The differential test in
//! `crates/cc/tests/differential.rs` pins that divergence.

use ravel_net::FeedbackReport;
use ravel_sim::{Dur, Time};

use crate::{CongestionController, MAX_BPS, MIN_BPS};

/// Stats interval: decisions fire once per second, as in beam.
const INTERVAL: Dur = Dur::secs(1);
/// EMA weight kept from the previous estimate.
const EMA_KEEP: f64 = 0.7;
/// EMA weight of the fresh interval loss rate.
const EMA_NEW: f64 = 0.3;
/// Smoothed loss above this → multiplicative decrease.
const HIGH_LOSS: f64 = 0.10;
/// Smoothed loss below this → probe upward.
const LOW_LOSS: f64 = 0.02;
/// Multiplicative decrease factor.
const DECREASE: f64 = 0.7;
/// Multiplicative probe factor (beam ramps ~10% per interval).
const INCREASE: f64 = 1.10;

/// Loss-EMA AIMD controller.
#[derive(Debug, Clone)]
pub struct LossEma {
    target_bps: f64,
    /// Smoothed loss-rate estimate.
    loss_ema: f64,
    /// Packets covered by reports since the interval started.
    interval_sent: u64,
    /// Of those, how many were lost.
    interval_lost: u64,
    interval_start: Option<Time>,
    reason: &'static str,
}

impl LossEma {
    /// Creates a loss-EMA controller at `start_bps`, bounded to
    /// [`MIN_BPS`, `MAX_BPS`].
    pub fn new(start_bps: f64) -> LossEma {
        LossEma {
            target_bps: start_bps.clamp(MIN_BPS, MAX_BPS),
            loss_ema: 0.0,
            interval_sent: 0,
            interval_lost: 0,
            interval_start: None,
            reason: "loss-ema-hold",
        }
    }

    /// The current smoothed loss estimate (for tests/observability).
    pub fn loss_ema(&self) -> f64 {
        self.loss_ema
    }
}

impl CongestionController for LossEma {
    fn on_feedback(&mut self, report: &FeedbackReport, now: Time) -> f64 {
        self.interval_sent += report.packets.len() as u64;
        self.interval_lost += report.lost_count() as u64;
        let start = *self.interval_start.get_or_insert(now);
        if now.saturating_since(start) < INTERVAL {
            return self.target_bps;
        }

        // Interval closed: fold the interval loss rate into the EMA and
        // apply the AIMD thresholds.
        let loss_rate = if self.interval_sent == 0 {
            0.0
        } else {
            self.interval_lost as f64 / self.interval_sent as f64
        };
        self.loss_ema = EMA_KEEP * self.loss_ema + EMA_NEW * loss_rate;
        if self.loss_ema > HIGH_LOSS {
            self.target_bps *= DECREASE;
            self.reason = "loss-ema-backoff";
        } else if self.loss_ema < LOW_LOSS {
            self.target_bps *= INCREASE;
            self.reason = "loss-ema-probe";
        } else {
            self.reason = "loss-ema-hold";
        }
        self.target_bps = self.target_bps.clamp(MIN_BPS, MAX_BPS);
        self.interval_sent = 0;
        self.interval_lost = 0;
        self.interval_start = Some(now);
        self.target_bps
    }

    fn target_bps(&self) -> f64 {
        self.target_bps
    }

    fn name(&self) -> &'static str {
        "loss-ema"
    }

    fn decision_reason(&self) -> &'static str {
        self.reason
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ravel_net::PacketResult;

    /// A 10-packet report at `start_ms` with the first `lost` packets
    /// never arriving.
    fn report(first_seq: u64, start_ms: u64, lost: u64) -> FeedbackReport {
        let packets = (0..10u64)
            .map(|i| {
                let send = Time::from_millis(start_ms + i * 10);
                PacketResult {
                    seq: first_seq + i,
                    send_time: send,
                    arrival: (i >= lost).then(|| send + Dur::millis(20)),
                    size_bytes: if i >= lost { 1200 } else { 0 },
                }
            })
            .collect();
        FeedbackReport {
            report_seq: first_seq / 10,
            generated_at: Time::from_millis(start_ms + 130),
            packets,
        }
    }

    /// Runs `secs` seconds of reports (10/s) with `lost` losses each.
    fn run(cc: &mut LossEma, from_ms: u64, secs: u64, lost: u64) -> f64 {
        let mut target = cc.target_bps();
        for i in 0..secs * 10 {
            let ms = from_ms + i * 100;
            target = cc.on_feedback(&report(ms / 10, ms, lost), Time::from_millis(ms + 100));
        }
        target
    }

    #[test]
    fn decisions_fire_once_per_interval() {
        let mut cc = LossEma::new(1e6);
        // The interval clock starts at the first report; the ten
        // reports within that first second change nothing.
        for i in 0..10u64 {
            let t = cc.on_feedback(
                &report(i * 10, i * 100, 0),
                Time::from_millis(i * 100 + 100),
            );
            assert_eq!(t, 1e6, "changed mid-interval at report {i}");
        }
        let t = cc.on_feedback(&report(100, 1000, 0), Time::from_millis(1100));
        assert!(t > 1e6, "interval close did not probe: {t}");
    }

    #[test]
    fn clean_link_probes_upward() {
        let mut cc = LossEma::new(1e6);
        let target = run(&mut cc, 0, 20, 0);
        // 10%/s compounding for 20 s from 1 Mbps ≈ 6.7 Mbps.
        assert!(target > 5e6, "no ramp: {target}");
        assert_eq!(cc.decision_reason(), "loss-ema-probe");
    }

    #[test]
    fn sustained_loss_backs_off_smoothly() {
        let mut cc = LossEma::new(4e6);
        // 30% loss for 5 s: EMA crosses HIGH after two intervals, then
        // multiplicative decrease — but never the per-report freefall
        // NaiveAimd exhibits.
        let target = run(&mut cc, 0, 5, 3);
        assert!(target < 4e6 * 0.7, "no backoff: {target}");
        assert!(target > MIN_BPS, "over-reacted to smoothed loss: {target}");
        assert_eq!(cc.decision_reason(), "loss-ema-backoff");
    }

    #[test]
    fn single_stray_loss_never_triggers_backoff() {
        let mut cc = LossEma::new(1e6);
        run(&mut cc, 0, 2, 0);
        let before = cc.target_bps();
        // Nine clean reports, then one carrying a single lost packet:
        // the interval loss rate is 1%, the EMA lands at 0.003 — far
        // below both thresholds. NaiveAimd would have halved here.
        for i in 0..9u64 {
            let ms = 2000 + i * 100;
            cc.on_feedback(&report(ms / 10, ms, 0), Time::from_millis(ms + 100));
        }
        cc.on_feedback(&report(290, 2900, 1), Time::from_millis(3000));
        let target = run(&mut cc, 3000, 2, 0);
        assert!(
            target >= before,
            "stray loss caused a decrease: {target} < {before}"
        );
        assert!(cc.loss_ema() < LOW_LOSS);
    }

    #[test]
    fn rate_stays_within_bounds() {
        let mut cc = LossEma::new(7e6);
        assert_eq!(run(&mut cc, 0, 30, 0), MAX_BPS);
        let mut cc = LossEma::new(200_000.0);
        assert_eq!(run(&mut cc, 0, 30, 10), MIN_BPS);
    }
}
