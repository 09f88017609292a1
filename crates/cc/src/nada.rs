//! NADA congestion control (RFC 8698), behavioural port.
//!
//! NADA folds every congestion signal into one scalar — the *aggregate
//! congestion signal* `x_curr` — and runs a single rate law on it:
//!
//! ```text
//! x_curr = d_queuing + DLOSS_REF · (p_loss / PLR_REF)²
//! ```
//!
//! where `d_queuing` is the one-way queuing delay (OWD minus the minimum
//! OWD observed so far) and `p_loss` is an EMA of the per-report loss
//! fraction. The quadratic loss term means sub-reference loss barely
//! registers while sustained loss dominates the signal.
//!
//! Two update modes, per RFC 8698 §4.3:
//!
//! * **Accelerated ramp-up** — while the path shows no congestion (no
//!   recent loss, queuing delay under a small threshold), grow the rate
//!   multiplicatively by `γ = min(GAMMA_MAX, QBOUND / (rtt + δ))` per
//!   report. The bound ties the per-step overshoot to at most `QBOUND`
//!   of standing queue.
//! * **Gradual update** — otherwise run the PI controller
//!   `r ← r · (1 − κ·(δ/τ)·(x_offset + η·x_diff)/τ)` with
//!   `x_offset = x_curr − XREF` and `x_diff = x_curr − x_prev`. The
//!   proportional term (`x_diff`) damps oscillation; the integral term
//!   (`x_offset`) steers the standing signal toward `XREF`.
//!
//! Deviations from the RFC, in the spirit of this repo's behavioural
//! ports:
//!
//! * no sender-side pacing/video-jitter shaping (the pipeline's pacer
//!   owns that);
//! * δ comes from feedback-report spacing rather than a dedicated timer;
//! * the RTT is proxied from twice the base one-way delay, since the
//!   simulator's reverse path is not separately measured here;
//! * the gradual step scales the `x_diff` term by δ/τ as well, where
//!   §4.3's eq. (7) applies `κ·η·x_diff/τ` without it;
//! * `x_offset` is taken against a fixed `XREF`, not against
//!   `PRIO·XREF·RMAX/r_ref`;
//! * ramp-up multiplies the current rate by `1 + γ`, with γ over
//!   `rtt + δ`, where §4.3 takes `max(r_ref, (1 + γ)·r_recv)` with γ
//!   over `rtt + DELTA + DFILT`.
//!
//! The hand vectors in this module's tests pin the law as written here.

use ravel_net::FeedbackReport;
use ravel_sim::Time;

use crate::{CongestionController, MAX_BPS, MIN_BPS};

/// Reference delay penalty for loss at `PLR_REF` (ms). RFC 8698 `DLOSS`.
const DLOSS_REF_MS: f64 = 10.0;
/// Reference packet-loss ratio. RFC 8698 `PLRREF`.
const PLR_REF: f64 = 0.01;
/// Reference congestion signal the PI controller steers toward (ms).
const XREF_MS: f64 = 10.0;
/// Scaling parameter for the gradual-mode rate update.
const KAPPA: f64 = 0.5;
/// Weight of the proportional (delay-gradient) term.
const ETA: f64 = 2.0;
/// Upper bound of the filtering delay / PI time constant (ms).
const TAU_MS: f64 = 500.0;
/// Upper bound on self-inflicted queuing delay during ramp-up (ms).
const QBOUND_MS: f64 = 50.0;
/// Queuing delay below which ramp-up mode is eligible (ms).
const QEPS_MS: f64 = 10.0;
/// Hard cap on γ, the per-report ramp-up growth factor.
const GAMMA_MAX: f64 = 0.5;
/// EMA smoothing weight kept from the previous loss estimate.
const LOSS_EMA_KEEP: f64 = 0.9;
/// Loss EMA below which the path counts as loss-free for ramp-up.
const LOSS_FREE: f64 = 0.001;
/// Cap on the loss penalty term (ms) so blackout math stays tame.
const PENALTY_CAP_MS: f64 = 10_000.0;
/// Per-update rate-change clamp: never move more than ±50% per report.
const STEP_CLAMP: f64 = 0.5;
/// Assumed report spacing before the second report arrives (ms).
const DEFAULT_DELTA_MS: f64 = 100.0;

/// RFC 8698 NADA controller.
#[derive(Debug, Clone)]
pub struct Nada {
    rate_bps: f64,
    /// Minimum one-way delay observed so far (ms); the propagation-delay
    /// baseline that turns OWD samples into queuing delay.
    base_owd_ms: f64,
    /// EMA of the per-report loss fraction.
    p_loss: f64,
    /// Previous aggregate congestion signal (ms), for the x_diff term.
    x_prev_ms: f64,
    last_update: Option<Time>,
    reason: &'static str,
}

impl Nada {
    /// Creates a NADA controller at `start_bps`, bounded to
    /// [`MIN_BPS`, `MAX_BPS`].
    pub fn new(start_bps: f64) -> Nada {
        Nada {
            rate_bps: start_bps.clamp(MIN_BPS, MAX_BPS),
            base_owd_ms: f64::INFINITY,
            p_loss: 0.0,
            x_prev_ms: 0.0,
            last_update: None,
            reason: "nada-rampup",
        }
    }

    /// Minimum one-way delay across the report's received packets, if any.
    fn min_owd_ms(report: &FeedbackReport) -> Option<f64> {
        report
            .packets
            .iter()
            .filter_map(|p| {
                let arrival = p.arrival?;
                Some(arrival.saturating_since(p.send_time).as_millis_f64())
            })
            .fold(None, |acc: Option<f64>, owd| {
                Some(acc.map_or(owd, |a| a.min(owd)))
            })
    }
}

impl CongestionController for Nada {
    fn on_feedback(&mut self, report: &FeedbackReport, now: Time) -> f64 {
        // Congestion-signal inputs. A report with no arrivals (blackout
        // slice) contributes a pure loss sample and leaves the delay
        // estimate untouched.
        let d_queue_ms = match Nada::min_owd_ms(report) {
            Some(owd) if owd.is_finite() => {
                self.base_owd_ms = self.base_owd_ms.min(owd);
                owd - self.base_owd_ms
            }
            _ => 0.0,
        };
        let loss_sample = if report.packets.is_empty() {
            0.0
        } else {
            report.loss_fraction()
        };
        self.p_loss = LOSS_EMA_KEEP * self.p_loss + (1.0 - LOSS_EMA_KEEP) * loss_sample;

        let penalty_ms = (DLOSS_REF_MS * (self.p_loss / PLR_REF).powi(2)).min(PENALTY_CAP_MS);
        let x_curr_ms = d_queue_ms + penalty_ms;

        // Update interval δ, clamped so a long feedback gap cannot blow
        // up a single PI step.
        let delta_ms = match self.last_update {
            Some(last) => now
                .saturating_since(last)
                .as_millis_f64()
                .clamp(1.0, TAU_MS),
            None => DEFAULT_DELTA_MS,
        };
        // RTT proxy: twice the propagation baseline, floored at 10 ms.
        let rtt_ms = if self.base_owd_ms.is_finite() {
            (2.0 * self.base_owd_ms).max(10.0)
        } else {
            10.0
        };

        let clean = self.p_loss < LOSS_FREE && loss_sample == 0.0 && d_queue_ms < QEPS_MS;
        if clean {
            // Accelerated ramp-up.
            let gamma = (QBOUND_MS / (rtt_ms + delta_ms)).min(GAMMA_MAX);
            self.rate_bps *= 1.0 + gamma;
            self.reason = "nada-rampup";
        } else {
            // Gradual update: PI controller on the congestion signal.
            let x_offset = x_curr_ms - XREF_MS;
            let x_diff = x_curr_ms - self.x_prev_ms;
            let adjust = KAPPA * (delta_ms / TAU_MS) * (x_offset + ETA * x_diff) / TAU_MS;
            self.rate_bps *= 1.0 - adjust.clamp(-STEP_CLAMP, STEP_CLAMP);
            self.reason = "nada-gradual";
        }
        self.rate_bps = self.rate_bps.clamp(MIN_BPS, MAX_BPS);
        self.x_prev_ms = x_curr_ms;
        self.last_update = Some(now);
        self.rate_bps
    }

    fn target_bps(&self) -> f64 {
        self.rate_bps
    }

    fn name(&self) -> &'static str {
        "nada"
    }

    fn decision_reason(&self) -> &'static str {
        self.reason
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ravel_net::PacketResult;
    use ravel_sim::Time;

    /// A report of `n` packets sent `send_gap_ms` apart starting at
    /// `send_start_ms`, each arriving `owd_ms` later; every
    /// `lost_every`-th packet (if set) never arrives.
    fn report(
        first_seq: u64,
        n: u64,
        send_start_ms: u64,
        owd_ms: u64,
        lost_every: Option<u64>,
    ) -> FeedbackReport {
        let packets = (0..n)
            .map(|i| {
                let send = Time::from_millis(send_start_ms + i * 10);
                let lost = lost_every.is_some_and(|k| i % k == 0);
                PacketResult {
                    seq: first_seq + i,
                    send_time: send,
                    arrival: (!lost).then(|| send + ravel_sim::Dur::millis(owd_ms)),
                    size_bytes: 1200,
                }
            })
            .collect();
        FeedbackReport {
            report_seq: first_seq / n.max(1),
            generated_at: Time::from_millis(send_start_ms + n * 10 + owd_ms),
            packets,
        }
    }

    /// `got` within a relative 1e-12 of the hand-computed `want`.
    fn assert_close(got: f64, want: f64) {
        assert!(
            (got - want).abs() <= 1e-12 * want.abs().max(1.0),
            "{got} != {want}"
        );
    }

    #[test]
    fn composite_signal_matches_hand_vectors() {
        let mut cc = Nada::new(1e6);
        // A clean report at 20 ms OWD sets the base: x = 0.
        cc.on_feedback(&report(0, 10, 0, 20, None), Time::from_millis(100));
        assert_eq!(cc.x_prev_ms, 0.0);
        // 2 of 10 lost at 35 ms OWD: d_queue = 15 ms, p_loss = 0.1·0.2
        // = 0.02, so x = 15 + 10·(0.02/0.01)² = 15 + 40 = 55 ms.
        cc.on_feedback(&report(10, 10, 100, 35, Some(5)), Time::from_millis(200));
        assert_close(cc.p_loss, 0.02);
        assert_close(cc.x_prev_ms, 55.0);

        // Reports with every packet lost carry no delay, so x is the
        // penalty alone: p_loss = 0.1, 0.19, 0.271, 0.3439 gives
        // 10·10² = 1000, 10·19² = 3610, 10·27.1² = 7344.1, and then
        // 10·34.39² = 11826.97, which the cap holds at 10 000 ms.
        let mut cc = Nada::new(1e6);
        for (i, want) in [1000.0, 3610.0, 7344.1, 10_000.0].into_iter().enumerate() {
            let i = i as u64;
            cc.on_feedback(
                &report(i * 10, 10, i * 100, 20, Some(1)),
                Time::from_millis((i + 1) * 100),
            );
            assert_close(cc.x_prev_ms, want);
        }
    }

    #[test]
    fn ramp_up_factor_matches_hand_vectors() {
        // OWD 20 ms: rtt = 2·20 = 40 ms. The first report assumes
        // δ = 100 ms, so γ = 50/(40 + 100) = 5/14; the next comes
        // δ = 200 ms later, so γ = 50/(40 + 200) = 5/24.
        let mut cc = Nada::new(1e6);
        let r1 = cc.on_feedback(&report(0, 10, 0, 20, None), Time::from_millis(100));
        assert_close(r1, 1e6 * 19.0 / 14.0);
        let r2 = cc.on_feedback(&report(10, 10, 100, 20, None), Time::from_millis(300));
        assert_close(r2, 1e6 * 19.0 / 14.0 * 29.0 / 24.0);
        assert_eq!(cc.decision_reason(), "nada-rampup");

        // OWD 5 ms: rtt is floored at 10 ms. γ = 50/(10 + 100) = 5/11,
        // then δ = 50 ms gives 50/60 > GAMMA_MAX, so γ = 0.5.
        let mut cc = Nada::new(1e6);
        let r1 = cc.on_feedback(&report(0, 10, 0, 5, None), Time::from_millis(100));
        assert_close(r1, 1e6 * 16.0 / 11.0);
        let r2 = cc.on_feedback(&report(10, 10, 100, 5, None), Time::from_millis(150));
        assert_close(r2, 1e6 * 16.0 / 11.0 * 1.5);
    }

    #[test]
    fn gradual_step_matches_hand_vectors() {
        // The step is the module doc's
        // r ← r·(1 − κ·(δ/τ)·(x_offset + η·x_diff)/τ), clamped to ±50%,
        // with κ = 0.5, η = 2, τ = 500 ms and XREF = 10 ms.
        let mut cc = Nada::new(2e6);
        // Clean at 20 ms OWD: ramp by γ = 5/14, and x_prev = 0.
        let r1 = cc.on_feedback(&report(0, 10, 0, 20, None), Time::from_millis(100));
        assert_close(r1, 2e6 * 19.0 / 14.0);
        // OWD 50 ms, δ = 100 ms: x = 30, x_offset = 20, x_diff = 30,
        // adjust = 0.5·0.2·(20 + 60)/500 = 0.016.
        let r2 = cc.on_feedback(&report(10, 10, 100, 50, None), Time::from_millis(200));
        assert_close(r2, r1 * 0.984);
        assert_eq!(cc.decision_reason(), "nada-gradual");
        // OWD 320 ms, δ = 500 ms: x = 300, x_offset = 290, x_diff = 270,
        // adjust = 0.5·1·(290 + 540)/500 = 0.83, clamped to 0.5.
        let r3 = cc.on_feedback(&report(20, 10, 200, 320, None), Time::from_millis(700));
        assert_close(r3, r2 * 0.5);
        // OWD 32 ms, δ = 500 ms: x = 12 (not under QEPS, so still
        // gradual), x_offset = 2, x_diff = −288,
        // adjust = 0.5·(2 − 576)/500 = −0.574, clamped to −0.5.
        let r4 = cc.on_feedback(&report(30, 10, 300, 32, None), Time::from_millis(1200));
        assert_close(r4, r3 * 1.5);
        assert_eq!(cc.decision_reason(), "nada-gradual");
    }

    #[test]
    fn clean_link_ramps_up_multiplicatively() {
        let mut cc = Nada::new(500_000.0);
        let mut target = cc.target_bps();
        for i in 0..20u64 {
            let r = report(i * 10, 10, i * 100, 20, None);
            target = cc.on_feedback(&r, Time::from_millis((i + 1) * 100));
        }
        assert!(target > 2_000_000.0, "no accelerated ramp: {target}");
        assert_eq!(cc.decision_reason(), "nada-rampup");
    }

    #[test]
    fn queuing_delay_growth_forces_decrease() {
        let mut cc = Nada::new(4e6);
        // Establish the base delay.
        cc.on_feedback(&report(0, 10, 0, 20, None), Time::from_millis(100));
        let before = cc.target_bps();
        // Queuing delay climbing 15 ms per report above base.
        let mut target = before;
        for i in 1..10u64 {
            let r = report(i * 10, 10, i * 100, 20 + i * 15, None);
            target = cc.on_feedback(&r, Time::from_millis((i + 1) * 100));
        }
        assert!(
            target < before,
            "queue growth ignored: {target} >= {before}"
        );
        assert_eq!(cc.decision_reason(), "nada-gradual");
    }

    #[test]
    fn sustained_loss_dominates_the_signal() {
        let mut cc = Nada::new(4e6);
        let mut target = cc.target_bps();
        // 25% loss: (p_loss/PLR_REF)² grows toward 625 → penalty caps.
        for i in 0..30u64 {
            let r = report(i * 8, 8, i * 100, 20, Some(4));
            target = cc.on_feedback(&r, Time::from_millis((i + 1) * 100));
        }
        assert!(target < 1e6, "heavy loss not punished: {target}");
    }

    #[test]
    fn blackout_reports_drive_rate_to_floor_and_stay_finite() {
        let mut cc = Nada::new(4e6);
        cc.on_feedback(&report(0, 10, 0, 20, None), Time::from_millis(100));
        for i in 1..60u64 {
            // All packets lost.
            let r = report(i * 10, 10, i * 100, 20, Some(1));
            let t = cc.on_feedback(&r, Time::from_millis((i + 1) * 100));
            assert!(t.is_finite());
        }
        assert_eq!(cc.target_bps(), MIN_BPS);
    }

    #[test]
    fn rate_stays_within_bounds() {
        let mut cc = Nada::new(7.9e6);
        for i in 0..200u64 {
            let r = report(i * 10, 10, i * 100, 5, None);
            let t = cc.on_feedback(&r, Time::from_millis((i + 1) * 100));
            assert!((MIN_BPS..=MAX_BPS).contains(&t), "out of bounds: {t}");
        }
        assert_eq!(cc.target_bps(), MAX_BPS);
    }
}
