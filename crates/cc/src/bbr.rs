//! BBR-style delivery-rate congestion control.
//!
//! Where GCC and NADA reason about *delay signals*, this controller
//! reasons about the *delivery rate*: each feedback report yields a
//! sample of bytes-ACKed over the arrival span, a windowed max-filter
//! over those samples estimates the bottleneck bandwidth (`btlbw`), and
//! the target is `btlbw × gain`.
//!
//! Gain cycling, after BBR's PROBE_BW phase: most of the time the gain
//! is 1.0 (cruise at the estimated bottleneck), and roughly once a
//! second the controller raises it to 1.25 for a couple of reports to
//! probe for freed-up capacity. If the probe finds headroom the max
//! filter latches the higher delivery rate and the cruise level rises;
//! if not, the samples stay put and the target falls back.
//!
//! Startup: until the delivery rate stops growing (three consecutive
//! probes with < 3% `btlbw` growth), the probe gain applies on every
//! report, compounding ~1.25× per report — the analogue of BBR's
//! STARTUP exponential search, tamed to the probe gain so the exit
//! dip is bounded by 1/1.25 = 0.8 of the peak.
//!
//! Deviations from BBR proper: no pacing (the pipeline's pacer owns
//! packet spacing), no PROBE_RTT / drain phases (this controller only
//! emits a rate target; it never builds an inflight bubble it must
//! drain), and the min-RTT filter tracks one-way delay as an
//! observability aid rather than a cwnd input.

use std::collections::VecDeque;

use ravel_net::FeedbackReport;
use ravel_sim::{Dur, Time};

use crate::{CongestionController, MAX_BPS, MIN_BPS};

/// How long delivery-rate samples stay in the max filter.
const BTLBW_WINDOW: Dur = Dur::secs(2);
/// How often a probe cycle starts once startup has ended.
const PROBE_INTERVAL: Dur = Dur::secs(1);
/// How long the probe gain is held.
const PROBE_LEN: Dur = Dur::millis(250);
/// Gain applied while probing (and throughout startup).
const PROBE_GAIN: f64 = 1.25;
/// Gain applied while cruising.
const CRUISE_GAIN: f64 = 1.0;
/// Startup exits after this many probes without meaningful growth.
const STARTUP_FULL_COUNT: u32 = 3;
/// Minimum btlbw growth ratio that counts as "still filling the pipe".
const STARTUP_GROWTH: f64 = 1.03;

/// BBR-style delivery-rate controller.
#[derive(Debug, Clone)]
pub struct Bbr {
    target_bps: f64,
    /// Delivery-rate samples `(taken_at, bps)`; max over the window is
    /// the bottleneck-bandwidth estimate.
    samples: VecDeque<(Time, f64)>,
    /// Minimum one-way delay observed (ms); BBR's RTprop analogue.
    rtprop_ms: f64,
    /// Still in the startup exponential search?
    startup: bool,
    /// btlbw at the last startup growth check.
    startup_prev_btlbw: f64,
    /// Consecutive startup checks without meaningful growth.
    startup_flat: u32,
    /// When the current/last probe started.
    probe_started: Option<Time>,
    reason: &'static str,
}

impl Bbr {
    /// Creates a BBR-style controller at `start_bps`, bounded to
    /// [`MIN_BPS`, `MAX_BPS`].
    pub fn new(start_bps: f64) -> Bbr {
        Bbr {
            target_bps: start_bps.clamp(MIN_BPS, MAX_BPS),
            samples: VecDeque::new(),
            rtprop_ms: f64::INFINITY,
            startup: true,
            startup_prev_btlbw: 0.0,
            startup_flat: 0,
            probe_started: None,
            reason: "bbr-startup",
        }
    }

    /// The current bottleneck-bandwidth estimate, if any sample is live.
    pub fn btlbw_bps(&self) -> Option<f64> {
        self.samples
            .iter()
            .map(|&(_, bps)| bps)
            .fold(None, |acc: Option<f64>, s| {
                Some(acc.map_or(s, |a| a.max(s)))
            })
    }

    /// The minimum one-way delay seen so far (ms), if any.
    pub fn rtprop_ms(&self) -> Option<f64> {
        self.rtprop_ms.is_finite().then_some(self.rtprop_ms)
    }

    /// Whether the probe gain applies at `now`.
    fn gain(&mut self, now: Time) -> f64 {
        if self.startup {
            self.reason = "bbr-startup";
            return PROBE_GAIN;
        }
        match self.probe_started {
            Some(started) if now.saturating_since(started) < PROBE_LEN => {
                self.reason = "bbr-probe";
                PROBE_GAIN
            }
            Some(started) if now.saturating_since(started) < PROBE_INTERVAL => {
                self.reason = "bbr-cruise";
                CRUISE_GAIN
            }
            _ => {
                self.probe_started = Some(now);
                self.reason = "bbr-probe";
                PROBE_GAIN
            }
        }
    }
}

impl CongestionController for Bbr {
    fn on_feedback(&mut self, report: &FeedbackReport, now: Time) -> f64 {
        // Delivery-rate sample: bytes ACKed over the arrival span. A
        // degenerate report (under two arrivals) yields no sample; the
        // filter coasts on what it has.
        if let Some(rate) = report.delivered_rate_bps() {
            if rate.is_finite() && rate > 0.0 {
                // A burst draining a queue can momentarily "deliver"
                // far above the ceiling; cap the sample so one outlier
                // cannot wedge the max filter at the rail.
                self.samples.push_back((now, rate.min(MAX_BPS)));
            }
        }
        while let Some(&(taken, _)) = self.samples.front() {
            if now.saturating_since(taken) > BTLBW_WINDOW {
                self.samples.pop_front();
            } else {
                break;
            }
        }
        for p in &report.packets {
            if let Some(arrival) = p.arrival {
                let owd = arrival.saturating_since(p.send_time).as_millis_f64();
                self.rtprop_ms = self.rtprop_ms.min(owd);
            }
        }

        // Startup exit: three consecutive reports where the bottleneck
        // estimate stopped growing mean the pipe is full.
        let btlbw = self.btlbw_bps();
        if self.startup {
            if let Some(bw) = btlbw {
                if bw < self.startup_prev_btlbw * STARTUP_GROWTH {
                    self.startup_flat += 1;
                    if self.startup_flat >= STARTUP_FULL_COUNT {
                        self.startup = false;
                        self.probe_started = Some(now);
                    }
                } else {
                    self.startup_flat = 0;
                    self.startup_prev_btlbw = bw;
                }
            }
        }

        let gain = self.gain(now);
        if let Some(bw) = btlbw {
            self.target_bps = (bw * gain).clamp(MIN_BPS, MAX_BPS);
        } else {
            // No live delivery evidence (e.g. blackout): hold the last
            // target; the session watchdog owns drastic action.
            self.reason = "bbr-hold";
        }
        self.target_bps
    }

    fn target_bps(&self) -> f64 {
        self.target_bps
    }

    fn name(&self) -> &'static str {
        "bbr"
    }

    fn decision_reason(&self) -> &'static str {
        self.reason
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ravel_net::PacketResult;

    /// A report whose arrival pattern implies a delivery rate of
    /// roughly `rate_bps` over a 100 ms span starting at `start_ms`.
    fn report_at_rate(first_seq: u64, start_ms: u64, rate_bps: f64) -> FeedbackReport {
        let n = 10u64;
        let bytes = (rate_bps / 8.0 * 0.1 / n as f64) as u64;
        let packets = (0..n)
            .map(|i| {
                let send = Time::from_millis(start_ms + i * 10);
                PacketResult {
                    seq: first_seq + i,
                    send_time: send,
                    arrival: Some(send + Dur::millis(20)),
                    size_bytes: bytes.max(1),
                }
            })
            .collect();
        FeedbackReport {
            report_seq: first_seq / n,
            generated_at: Time::from_millis(start_ms + 130),
            packets,
        }
    }

    /// A report where nothing arrived.
    fn blackout_report(first_seq: u64, start_ms: u64) -> FeedbackReport {
        let packets = (0..10u64)
            .map(|i| PacketResult {
                seq: first_seq + i,
                send_time: Time::from_millis(start_ms + i * 10),
                arrival: None,
                size_bytes: 0,
            })
            .collect();
        FeedbackReport {
            report_seq: first_seq / 10,
            generated_at: Time::from_millis(start_ms + 130),
            packets,
        }
    }

    #[test]
    fn latches_onto_delivery_rate() {
        let mut cc = Bbr::new(500_000.0);
        let mut target = cc.target_bps();
        for i in 0..30u64 {
            let r = report_at_rate(i * 10, i * 100, 2e6);
            target = cc.on_feedback(&r, Time::from_millis((i + 1) * 100));
        }
        // Startup has exited; cruise/probe around the 2 Mbps estimate.
        let bw = cc.btlbw_bps().unwrap();
        assert!((1.6e6..=2.6e6).contains(&bw), "btlbw off: {bw}");
        assert!((1.6e6..=3.3e6).contains(&target), "target off: {target}");
    }

    #[test]
    fn startup_compounds_until_growth_stalls() {
        let mut cc = Bbr::new(200_000.0);
        // The "link" echoes back whatever the controller asked for,
        // capped at 3 Mbps — delivery grows while the pipe fills.
        let mut target = cc.target_bps();
        for i in 0..40u64 {
            let r = report_at_rate(i * 10, i * 100, target.min(3e6));
            target = cc.on_feedback(&r, Time::from_millis((i + 1) * 100));
        }
        assert!(!cc.startup, "startup never exited");
        assert!(target >= 2.5e6, "never filled the pipe: {target}");
    }

    #[test]
    fn probe_cycles_after_startup() {
        let mut cc = Bbr::new(1e6);
        let mut reasons = std::collections::BTreeSet::new();
        for i in 0..60u64 {
            let r = report_at_rate(i * 10, i * 100, 1e6);
            cc.on_feedback(&r, Time::from_millis((i + 1) * 100));
            reasons.insert(cc.decision_reason());
        }
        assert!(reasons.contains("bbr-probe"), "never probed: {reasons:?}");
        assert!(reasons.contains("bbr-cruise"), "never cruised: {reasons:?}");
    }

    #[test]
    fn step_drop_ages_out_of_the_max_filter() {
        let mut cc = Bbr::new(1e6);
        for i in 0..30u64 {
            let r = report_at_rate(i * 10, i * 100, 4e6);
            cc.on_feedback(&r, Time::from_millis((i + 1) * 100));
        }
        // Capacity drops to 1 Mbps; within the 2 s window the old
        // samples expire and the target follows.
        let mut target = cc.target_bps();
        for i in 30..60u64 {
            let r = report_at_rate(i * 10, i * 100, 1e6);
            target = cc.on_feedback(&r, Time::from_millis((i + 1) * 100));
        }
        assert!(target <= 1.4e6, "stale max survived: {target}");
    }

    #[test]
    fn blackout_holds_then_recovers() {
        let mut cc = Bbr::new(1e6);
        for i in 0..30u64 {
            let r = report_at_rate(i * 10, i * 100, 2e6);
            cc.on_feedback(&r, Time::from_millis((i + 1) * 100));
        }
        for i in 30..60u64 {
            let r = blackout_report(i * 10, i * 100);
            let t = cc.on_feedback(&r, Time::from_millis((i + 1) * 100));
            assert!(t.is_finite() && t >= MIN_BPS);
        }
        assert_eq!(cc.decision_reason(), "bbr-hold");
        let mut target = cc.target_bps();
        for i in 60..90u64 {
            let r = report_at_rate(i * 10, i * 100, 2e6);
            target = cc.on_feedback(&r, Time::from_millis((i + 1) * 100));
        }
        assert!(target >= 1.6e6, "no recovery: {target}");
    }

    /// `n` reports at random non-decreasing instants (gaps up to 1.5 s,
    /// so samples age out of the 2 s window), with random sizes, one-way
    /// delays and losses; some deliver far above the 8 Mbps ceiling and
    /// some carry fewer than two arrivals.
    fn random_reports(seed: u64, n: usize) -> Vec<(Time, FeedbackReport)> {
        let mut rng = ravel_sim::Rng::seed_from_u64(seed);
        let mut now = Time::ZERO;
        let mut seq = 0;
        (0..n as u64)
            .map(|report_seq| {
                now += Dur::micros(rng.below(1_500_000));
                let packets = (0..rng.below(8))
                    .map(|_| {
                        let send_time =
                            Time::from_micros(now.as_micros().saturating_sub(rng.below(300_000)));
                        seq += 1;
                        PacketResult {
                            seq,
                            send_time,
                            arrival: rng
                                .chance(0.8)
                                .then(|| send_time + Dur::micros(rng.below(200_000))),
                            size_bytes: 50 + rng.below(20_000),
                        }
                    })
                    .collect();
                let report = FeedbackReport {
                    report_seq,
                    generated_at: now,
                    packets,
                };
                (now, report)
            })
            .collect()
    }

    proptest::proptest! {
        /// The filters against naive references that share no code with
        /// them: `btlbw_bps` is the maximum of every delivery-rate sample
        /// (capped at the ceiling) taken at most 2 s ago, and
        /// `rtprop_ms` the minimum one-way delay over every arrival ever
        /// reported — no window, as documented.
        #[test]
        fn filters_match_naive_references(seed in 0u64..1_000_000, n in 1usize..60) {
            let mut cc = Bbr::new(1e6);
            let mut samples: Vec<(Time, f64)> = Vec::new();
            let mut min_owd: Option<f64> = None;
            for (now, report) in random_reports(seed, n) {
                cc.on_feedback(&report, now);
                if let Some(rate) = report.delivered_rate_bps() {
                    if rate.is_finite() && rate > 0.0 {
                        samples.push((now, rate.min(MAX_BPS)));
                    }
                }
                let mut btlbw: Option<f64> = None;
                for &(taken, bps) in &samples {
                    if now.saturating_since(taken) <= Dur::secs(2) {
                        btlbw = Some(btlbw.map_or(bps, |m| m.max(bps)));
                    }
                }
                for p in &report.packets {
                    if let Some(arrival) = p.arrival {
                        let owd = arrival.saturating_since(p.send_time).as_millis_f64();
                        min_owd = Some(min_owd.map_or(owd, |m| m.min(owd)));
                    }
                }
                proptest::prop_assert_eq!(cc.btlbw_bps(), btlbw, "btlbw at {:?}", now);
                proptest::prop_assert_eq!(cc.rtprop_ms(), min_owd, "rtprop at {:?}", now);
            }
        }
    }

    #[test]
    fn rate_stays_within_bounds() {
        let mut cc = Bbr::new(4e6);
        for i in 0..100u64 {
            let r = report_at_rate(i * 10, i * 100, 50e6);
            let t = cc.on_feedback(&r, Time::from_millis((i + 1) * 100));
            assert!((MIN_BPS..=MAX_BPS).contains(&t), "out of bounds: {t}");
        }
    }
}
