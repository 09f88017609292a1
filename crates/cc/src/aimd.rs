//! The AIMD rate controller (libwebrtc `AimdRateControl`).
//!
//! Maps detector states to target-rate changes through a three-state
//! machine:
//!
//! * **Overusing** → `Decrease`: cut the target to `β ×` the measured
//!   delivered rate (β = 0.85), then hold.
//! * **Underusing** → `Hold`: the queue is draining; don't push yet.
//! * **Normal** → `Increase` after the hold period: multiplicative (+8%/s)
//!   far from the last-known capacity, additive (~one packet per
//!   response time) near it.
//!
//! The decrease being anchored at 0.85× of *delivered* (not target) rate
//! means a deep capacity drop is tracked in a couple of decreases — but
//! each decrease needs a fresh sustained-overuse signal, so several
//! feedback RTTs pass in between. That staircase is visible in E3's
//! time series.

use ravel_sim::{Dur, Time};

use crate::trendline::BandwidthUsage;

/// The controller's state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RateControlState {
    /// Ramp the target up.
    Increase,
    /// Keep the target.
    Hold,
    /// Cut the target.
    Decrease,
}

/// AIMD target-rate controller.
#[derive(Debug, Clone)]
pub struct AimdRateControl {
    target_bps: f64,
    min_bps: f64,
    max_bps: f64,
    state: RateControlState,
    /// β: multiplicative-decrease factor applied to the delivered rate.
    beta: f64,
    /// Multiplicative increase per second when far from capacity.
    increase_per_sec: f64,
    /// Estimate of the link capacity from the last decrease; additive
    /// (careful) increase applies within ±3 std of it.
    link_capacity_bps: Option<f64>,
    last_change: Option<Time>,
    /// Feedback response time (RTT + processing); sets additive step.
    response_time: Dur,
    avg_packet_bits: f64,
}

impl AimdRateControl {
    /// Creates a controller starting at `start_bps`, clamped into
    /// `[min_bps, max_bps]`.
    pub fn new(start_bps: f64, min_bps: f64, max_bps: f64) -> AimdRateControl {
        assert!(min_bps > 0.0 && min_bps <= max_bps, "bad rate bounds");
        AimdRateControl {
            target_bps: start_bps.clamp(min_bps, max_bps),
            min_bps,
            max_bps,
            state: RateControlState::Hold,
            beta: 0.85,
            increase_per_sec: 0.08,
            link_capacity_bps: None,
            last_change: None,
            response_time: Dur::millis(140),
            avg_packet_bits: 1200.0 * 8.0,
        }
    }

    /// The current target rate.
    pub fn target_bps(&self) -> f64 {
        self.target_bps
    }

    /// The current state.
    pub fn state(&self) -> RateControlState {
        self.state
    }

    /// Updates the target given the detector verdict and the measured
    /// delivered rate (if known). Returns the new target.
    pub fn update(&mut self, usage: BandwidthUsage, delivered_bps: Option<f64>, now: Time) -> f64 {
        // State transitions (libwebrtc ChangeState).
        self.state = match (usage, self.state) {
            (BandwidthUsage::Overusing, _) => RateControlState::Decrease,
            (BandwidthUsage::Underusing, _) => RateControlState::Hold,
            (BandwidthUsage::Normal, RateControlState::Hold) => RateControlState::Increase,
            (BandwidthUsage::Normal, s) => {
                if s == RateControlState::Decrease {
                    RateControlState::Hold
                } else {
                    s
                }
            }
        };

        let dt = match self.last_change {
            Some(last) => now.saturating_since(last),
            None => Dur::millis(100),
        };

        match self.state {
            RateControlState::Decrease => {
                let anchor = delivered_bps.unwrap_or(self.target_bps);
                let new_target = (self.beta * anchor).min(self.target_bps);
                self.link_capacity_bps = Some(anchor);
                self.target_bps = new_target.clamp(self.min_bps, self.max_bps);
                self.last_change = Some(now);
                // After a decrease, hold until the next Normal signal.
                self.state = RateControlState::Hold;
            }
            RateControlState::Increase => {
                let near_capacity = self
                    .link_capacity_bps
                    .map(|cap| self.target_bps > 0.9 * cap)
                    .unwrap_or(false);
                let dt_s = dt.as_secs_f64().min(1.0);
                let increased = if near_capacity {
                    // Additive: roughly one packet per response time.
                    let additive =
                        (self.avg_packet_bits / self.response_time.as_secs_f64()).max(1_000.0);
                    self.target_bps + additive * dt_s
                } else {
                    self.target_bps * (1.0 + self.increase_per_sec).powf(dt_s)
                };
                // Never *grow* far beyond what the path demonstrably
                // delivers — but never pull the target down here either:
                // a low delivered rate during Increase usually means the
                // application is sending less than the target
                // (application-limited, e.g. encoder debt repayment), not
                // that capacity fell. Reductions only happen on overuse
                // or loss evidence. (libwebrtc reaches the same end via
                // ALR detection.)
                let cap = delivered_bps
                    .map(|d| 1.5 * d + 10_000.0)
                    .unwrap_or(f64::MAX);
                self.target_bps = increased
                    .min(cap)
                    .max(self.target_bps)
                    .clamp(self.min_bps, self.max_bps);
                self.last_change = Some(now);
            }
            RateControlState::Hold => {
                self.last_change = Some(now);
            }
        }
        self.target_bps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> Time {
        Time::from_millis(ms)
    }

    #[test]
    fn overuse_cuts_to_beta_times_delivered() {
        let mut rc = AimdRateControl::new(4e6, 0.1e6, 10e6);
        let target = rc.update(BandwidthUsage::Overusing, Some(1e6), t(100));
        assert!((target - 0.85e6).abs() < 1.0, "target {target}");
    }

    #[test]
    fn decrease_never_raises_target() {
        let mut rc = AimdRateControl::new(1e6, 0.1e6, 10e6);
        // Delivered above target (e.g. burst drain): keep target.
        let target = rc.update(BandwidthUsage::Overusing, Some(5e6), t(100));
        assert!(target <= 1e6);
    }

    #[test]
    fn normal_then_increase_ramps_up() {
        let mut rc = AimdRateControl::new(1e6, 0.1e6, 10e6);
        let mut target = rc.target_bps();
        for i in 1..50 {
            target = rc.update(BandwidthUsage::Normal, Some(3e6), t(i * 100));
        }
        assert!(target > 1.2e6, "no ramp: {target}");
    }

    #[test]
    fn increase_capped_by_delivered_rate() {
        let mut rc = AimdRateControl::new(1e6, 0.1e6, 100e6);
        let mut target = rc.target_bps();
        for i in 1..200 {
            target = rc.update(BandwidthUsage::Normal, Some(1e6), t(i * 100));
        }
        assert!(target <= 1.5e6 + 20_000.0, "ran away: {target}");
    }

    #[test]
    fn underuse_holds() {
        let mut rc = AimdRateControl::new(2e6, 0.1e6, 10e6);
        let before = rc.target_bps();
        let after = rc.update(BandwidthUsage::Underusing, Some(3e6), t(100));
        assert_eq!(before, after);
        assert_eq!(rc.state(), RateControlState::Hold);
    }

    #[test]
    fn staircase_down_on_repeated_overuse() {
        let mut rc = AimdRateControl::new(4e6, 0.1e6, 10e6);
        // Delivered rate reflects a 1 Mbps bottleneck.
        let t1 = rc.update(BandwidthUsage::Overusing, Some(2.5e6), t(100));
        rc.update(BandwidthUsage::Normal, Some(1.5e6), t(200));
        let t2 = rc.update(BandwidthUsage::Overusing, Some(1.5e6), t(300));
        rc.update(BandwidthUsage::Normal, Some(1e6), t(400));
        let t3 = rc.update(BandwidthUsage::Overusing, Some(1e6), t(500));
        assert!(t1 > t2 && t2 > t3, "staircase {t1} {t2} {t3}");
        assert!((t3 - 0.85e6).abs() < 1.0);
    }

    #[test]
    fn respects_min_and_max() {
        let mut rc = AimdRateControl::new(0.5e6, 0.3e6, 1e6);
        let low = rc.update(BandwidthUsage::Overusing, Some(0.1e6), t(100));
        assert_eq!(low, 0.3e6);
        let mut high = low;
        for i in 2..500 {
            high = rc.update(BandwidthUsage::Normal, Some(50e6), t(i * 100));
        }
        assert_eq!(high, 1e6);
    }

    #[test]
    fn additive_increase_near_capacity() {
        let mut rc = AimdRateControl::new(1e6, 0.1e6, 10e6);
        // Establish link capacity via a decrease.
        rc.update(BandwidthUsage::Overusing, Some(1.2e6), t(100));
        // target = 1.02e6, capacity anchor 1.2e6 → near capacity.
        rc.update(BandwidthUsage::Normal, Some(1.2e6), t(200)); // hold->increase
        let before = rc.target_bps();
        let after = rc.update(BandwidthUsage::Normal, Some(1.2e6), t(300));
        let step = after - before;
        // Additive step ~ avg_packet_bits/response_time * 0.1s ≈ 6.9 kbps.
        assert!(step > 0.0 && step < 50_000.0, "step {step}");
    }

    #[test]
    fn decrease_hand_vectors() {
        // β · delivered = 0.85 · 1 Mbps = 850 kbps, below the 2 Mbps
        // target, so it becomes the target; the state settles on Hold.
        let mut rc = AimdRateControl::new(2e6, 0.1e6, 10e6);
        assert_eq!(
            rc.update(BandwidthUsage::Overusing, Some(1e6), t(1000)),
            850_000.0
        );
        assert_eq!(rc.state(), RateControlState::Hold);
        assert_eq!(rc.link_capacity_bps, Some(1e6));
        // 0.85 · 5 Mbps = 4.25 Mbps is above the 1 Mbps target: capped.
        let mut rc = AimdRateControl::new(1e6, 0.1e6, 10e6);
        assert_eq!(
            rc.update(BandwidthUsage::Overusing, Some(5e6), t(1000)),
            1e6
        );
        assert_eq!(rc.state(), RateControlState::Hold);
        // No delivered rate: anchored at the target, 0.85 · 4 Mbps.
        let mut rc = AimdRateControl::new(4e6, 0.1e6, 10e6);
        assert_eq!(
            rc.update(BandwidthUsage::Overusing, None, t(1000)),
            3_400_000.0
        );
        // Held: underuse keeps the target, whatever the delivered rate.
        assert_eq!(
            rc.update(BandwidthUsage::Underusing, Some(9e6), t(1100)),
            3_400_000.0
        );
    }

    #[test]
    fn multiplicative_increase_hand_vectors() {
        // Far from capacity (none known yet) the target grows by
        // 1.08^dt, dt in seconds since the last change.
        let mut rc = AimdRateControl::new(1e6, 0.1e6, 10e6);
        let mut expect = |at_ms, want: f64| {
            let got = rc.update(BandwidthUsage::Normal, None, t(at_ms));
            assert!(
                (got - want).abs() < 1e-6,
                "at {at_ms} ms: {got}, want {want}"
            );
        };
        // First update: dt is taken as 100 ms, 1e6 · 1.08^0.1.
        expect(5_000, 1_007_725.795_242_674_8);
        // 3 s later: dt is capped at 1 s, one full step of 8%.
        expect(8_000, 1_088_343.858_862_088_8);
        // 250 ms later: · 1.08^0.25.
        expect(8_250, 1_109_486.621_888_604_5);
    }

    #[test]
    fn additive_increase_hand_vectors() {
        // Capacity 1 Mbps from a decrease to 850 kbps; one multiplicative
        // second takes the target to 918 kbps, past 0.9 · capacity.
        let mut rc = AimdRateControl::new(2e6, 0.1e6, 10e6);
        rc.update(BandwidthUsage::Overusing, Some(1e6), t(1000));
        let target = rc.update(BandwidthUsage::Normal, None, t(2000));
        assert!((target - 918_000.0).abs() < 1e-6, "{target}");
        // Near capacity the step is 9600 bit / 140 ms ≈ 68 571 bps per
        // second: half of it after 500 ms.
        let per_sec = 9_600.0 / 0.14;
        let target = rc.update(BandwidthUsage::Normal, None, t(2500));
        assert!(
            (target - (918_000.0 + per_sec * 0.5)).abs() < 1e-6,
            "{target}"
        );
        // dt is capped at 1 s here too.
        let target = rc.update(BandwidthUsage::Normal, None, t(4500));
        assert!(
            (target - (918_000.0 + per_sec * 1.5)).abs() < 1e-6,
            "{target}"
        );
        // A response time long enough to push the step under 1 kbps per
        // second meets the floor: 9600 bit / 20 s = 480 bps → 1 kbps.
        rc.response_time = Dur::secs(20);
        let before = rc.target_bps();
        let target = rc.update(BandwidthUsage::Normal, None, t(6500));
        assert!((target - (before + 1_000.0)).abs() < 1e-6, "{target}");
    }

    #[test]
    fn delivered_ceiling_hand_vectors() {
        // 1e6 · 1.08 = 1.08 Mbps exceeds 1.5 · 680 kbps + 10 kbps =
        // 1.03 Mbps, so the ceiling binds.
        let mut rc = AimdRateControl::new(1e6, 0.1e6, 10e6);
        rc.update(BandwidthUsage::Underusing, None, t(0));
        assert_eq!(
            rc.update(BandwidthUsage::Normal, Some(680e3), t(1000)),
            1_030_000.0
        );
        // A ceiling below the target (1.5 · 500 kbps + 10 kbps = 760
        // kbps) never pulls it down: the target stays put.
        let mut rc = AimdRateControl::new(1e6, 0.1e6, 10e6);
        assert_eq!(rc.update(BandwidthUsage::Normal, Some(500e3), t(1000)), 1e6);
        assert_eq!(rc.state(), RateControlState::Increase);
    }
}
