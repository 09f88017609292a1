//! Google Congestion Control: the assembled pipeline.

use ravel_net::FeedbackReport;
use ravel_sim::{Dur, Time};

use crate::aimd::AimdRateControl;
use crate::interarrival::InterArrival;
use crate::loss::LossController;
use crate::throughput::ThroughputEstimator;
use crate::trendline::{BandwidthUsage, TrendlineEstimator};
use crate::{CongestionController, MAX_BPS, MIN_BPS};

/// The assembled GCC controller.
///
/// ```
/// use ravel_cc::{CongestionController, Gcc};
/// use ravel_net::{FeedbackReport, PacketResult};
/// use ravel_sim::Time;
///
/// let mut gcc = Gcc::new(2e6);
/// let report = FeedbackReport {
///     report_seq: 0,
///     generated_at: Time::from_millis(100),
///     packets: (0..10)
///         .map(|i| PacketResult {
///             seq: i,
///             send_time: Time::from_millis(i * 10),
///             arrival: Some(Time::from_millis(i * 10 + 30)),
///             size_bytes: 1250,
///         })
///         .collect(),
/// };
/// let target = gcc.on_feedback(&report, Time::from_millis(150));
/// assert!(target > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Gcc {
    interarrival: InterArrival,
    trendline: TrendlineEstimator,
    aimd: AimdRateControl,
    loss: LossController,
    throughput: ThroughputEstimator,
    target_bps: f64,
}

impl Gcc {
    /// Creates a GCC instance at `start_bps`, bounded to
    /// [`MIN_BPS`, `MAX_BPS`].
    pub fn new(start_bps: f64) -> Gcc {
        Gcc {
            interarrival: InterArrival::default(),
            trendline: TrendlineEstimator::new(),
            aimd: AimdRateControl::new(start_bps, MIN_BPS, MAX_BPS),
            loss: LossController::new(start_bps, MIN_BPS, MAX_BPS),
            throughput: ThroughputEstimator::new(Dur::millis(500)),
            target_bps: start_bps,
        }
    }

    /// The delay-based detector's current verdict.
    fn detector_state(&self) -> BandwidthUsage {
        self.trendline.state()
    }
}

impl CongestionController for Gcc {
    fn on_feedback(&mut self, report: &FeedbackReport, now: Time) -> f64 {
        // 1. Feed arrivals through grouping → trendline.
        let mut new_deltas = 0u32;
        for p in &report.packets {
            if let Some(arrival) = p.arrival {
                self.throughput.on_bytes(p.size_bytes, arrival);
                if let Some(delta) = self.interarrival.on_packet(p.send_time, arrival) {
                    self.trendline.update(&delta);
                    new_deltas += 1;
                }
            }
        }

        // 2. Delay-based target via AIMD — but only on fresh evidence.
        //    A report that completed no packet group leaves the detector
        //    state stale; acting on it would re-apply the same overuse
        //    verdict every report and cascade decreases.
        let delivered = self.throughput.rate_bps(now);
        let delay_target = if new_deltas > 0 {
            self.aimd.update(self.trendline.state(), delivered, now)
        } else {
            self.aimd.target_bps()
        };

        // 3. Loss-based target.
        let loss_target = self.loss.update(report.loss_fraction(), now);

        self.target_bps = delay_target.min(loss_target);
        self.target_bps
    }

    fn target_bps(&self) -> f64 {
        self.target_bps
    }

    fn name(&self) -> &'static str {
        "gcc"
    }

    fn decision_reason(&self) -> &'static str {
        match self.detector_state() {
            BandwidthUsage::Normal => "gcc-normal",
            BandwidthUsage::Overusing => "gcc-overuse",
            BandwidthUsage::Underusing => "gcc-underuse",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ravel_net::PacketResult;

    /// Builds a report of `n` packets sent every `send_gap_ms` and
    /// arriving with spacing `arrival_gap_ms`, starting at the given
    /// times.
    fn report(
        first_seq: u64,
        n: u64,
        send_start_ms: u64,
        send_gap_ms: u64,
        arrival_start_ms: u64,
        arrival_gap_ms: u64,
        lost_every: Option<u64>,
    ) -> FeedbackReport {
        let packets = (0..n)
            .map(|i| {
                let lost = lost_every.map(|k| i % k == k - 1).unwrap_or(false);
                PacketResult {
                    seq: first_seq + i,
                    send_time: Time::from_millis(send_start_ms + i * send_gap_ms),
                    arrival: if lost {
                        None
                    } else {
                        Some(Time::from_millis(arrival_start_ms + i * arrival_gap_ms))
                    },
                    size_bytes: 1250,
                }
            })
            .collect();
        FeedbackReport {
            report_seq: 0,
            generated_at: Time::from_millis(arrival_start_ms + n * arrival_gap_ms),
            packets,
        }
    }

    #[test]
    fn stable_path_allows_ramp_up() {
        let mut gcc = Gcc::new(1e6);
        let mut seq = 0;
        let mut target = 1e6;
        for round in 0..40u64 {
            // 10 packets per 100 ms round, matched send/arrival spacing.
            let r = report(seq, 10, round * 100, 10, round * 100 + 30, 10, None);
            seq += 10;
            target = gcc.on_feedback(&r, Time::from_millis((round + 1) * 100));
        }
        assert!(target > 1e6, "no ramp: {target}");
    }

    #[test]
    fn queue_growth_forces_decrease() {
        let mut gcc = Gcc::new(4e6);
        let mut seq = 0;
        // Warm up stable.
        for round in 0..10u64 {
            let r = report(seq, 10, round * 100, 10, round * 100 + 30, 10, None);
            seq += 10;
            gcc.on_feedback(&r, Time::from_millis((round + 1) * 100));
        }
        let before = gcc.target_bps();
        // Arrival spacing 15 ms for 10 ms sends: queue grows 5 ms/packet.
        let mut target = before;
        for round in 10..25u64 {
            let r = report(
                seq,
                10,
                round * 100,
                10,
                1030 + (round - 10) * 150,
                15,
                None,
            );
            seq += 10;
            target = gcc.on_feedback(&r, Time::from_millis((round + 1) * 100));
        }
        assert!(target < before * 0.95, "no decrease: {before} -> {target}");
    }

    #[test]
    fn heavy_loss_caps_target() {
        let mut gcc = Gcc::new(4e6);
        let mut seq = 0;
        let mut target = 4e6;
        for round in 0..10u64 {
            // Every 3rd packet lost: ~33% loss.
            let r = report(seq, 9, round * 100, 10, round * 100 + 30, 10, Some(3));
            seq += 9;
            target = gcc.on_feedback(&r, Time::from_millis((round + 1) * 100));
        }
        assert!(target < 4e6 * 0.5, "loss ignored: {target}");
    }

    #[test]
    fn target_is_min_of_arms() {
        let mut gcc = Gcc::new(2e6);
        let r = report(0, 10, 0, 10, 30, 10, None);
        let t = gcc.on_feedback(&r, Time::from_millis(200));
        assert!(t <= gcc.loss.target_bps() + 1.0);
        assert!(t <= gcc.aimd.target_bps() + 1.0);
    }

    #[test]
    fn name_is_gcc() {
        assert_eq!(Gcc::new(1e6).name(), "gcc");
    }

    #[test]
    fn reaction_takes_multiple_reports() {
        // The property the paper exploits: a sudden drop is not fully
        // tracked by the first post-drop report.
        let mut gcc = Gcc::new(4e6);
        let mut seq = 0;
        for round in 0..10u64 {
            let r = report(seq, 10, round * 100, 10, round * 100 + 30, 10, None);
            seq += 10;
            gcc.on_feedback(&r, Time::from_millis((round + 1) * 100));
        }
        // After the drop, arrivals stretch 4x (40 ms spacing) but reports
        // still flush every 100 ms, so each post-drop report carries only
        // ~3 packets. One report is not enough to fully track the drop...
        let r = report(seq, 3, 1000, 10, 1030, 40, None);
        seq += 3;
        let after_one = gcc.on_feedback(&r, Time::from_millis(1100));
        // Post-drop delivered rate in this synthetic stream is ~250 kbps;
        // full tracking would be 0.85x that. One report must not get
        // there (the 1.5x-delivered cap reacts first, the AIMD decrease
        // needs sustained overuse evidence).
        assert!(
            after_one > 0.5e6,
            "GCC fully tracked a 4x drop in one report: {after_one}"
        );
        // ...but a second or two of reports gets it most of the way down.
        let mut target = after_one;
        for round in 1..20u64 {
            let r = report(seq, 3, 1000 + round * 100, 10, 1030 + round * 120, 40, None);
            seq += 3;
            target = gcc.on_feedback(&r, Time::from_millis(1100 + round * 100));
        }
        assert!(target < after_one, "never converged: {target}");
    }
}
