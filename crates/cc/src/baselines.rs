//! Strawman controllers for E8: fixed-rate and loss-only AIMD.

use ravel_net::FeedbackReport;
use ravel_sim::Time;

use crate::CongestionController;

/// Sends at a fixed configured rate regardless of feedback. The
/// "no congestion control" lower bound.
#[derive(Debug, Clone, Copy)]
pub struct FixedRate {
    rate_bps: f64,
}

impl FixedRate {
    /// Creates a fixed-rate controller.
    pub fn new(rate_bps: f64) -> FixedRate {
        assert!(rate_bps > 0.0 && rate_bps.is_finite(), "bad rate");
        FixedRate { rate_bps }
    }
}

impl CongestionController for FixedRate {
    fn on_feedback(&mut self, _report: &FeedbackReport, _now: Time) -> f64 {
        self.rate_bps
    }

    fn target_bps(&self) -> f64 {
        self.rate_bps
    }

    fn name(&self) -> &'static str {
        "fixed"
    }
}

/// TCP-flavoured loss-only AIMD: halve on any loss in a report, add a
/// fixed increment otherwise. Blind to delay, so it discovers a drop
/// only after the bottleneck queue overflows — the latency worst case.
#[derive(Debug, Clone)]
pub struct NaiveAimd {
    target_bps: f64,
    min_bps: f64,
    max_bps: f64,
    /// Additive increase per feedback report, bits/second.
    add_per_report: f64,
}

impl NaiveAimd {
    /// Creates a loss-only AIMD controller.
    pub fn new(start_bps: f64, min_bps: f64, max_bps: f64) -> NaiveAimd {
        assert!(min_bps > 0.0 && min_bps <= max_bps, "bad rate bounds");
        NaiveAimd {
            target_bps: start_bps.clamp(min_bps, max_bps),
            min_bps,
            max_bps,
            add_per_report: 50_000.0,
        }
    }
}

impl CongestionController for NaiveAimd {
    fn on_feedback(&mut self, report: &FeedbackReport, _now: Time) -> f64 {
        if report.lost_count() > 0 {
            self.target_bps /= 2.0;
        } else {
            self.target_bps += self.add_per_report;
        }
        self.target_bps = self.target_bps.clamp(self.min_bps, self.max_bps);
        self.target_bps
    }

    fn target_bps(&self) -> f64 {
        self.target_bps
    }

    fn name(&self) -> &'static str {
        "naive-aimd"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ravel_net::PacketResult;

    fn report(lost: usize, received: usize) -> FeedbackReport {
        let mut packets = Vec::new();
        for i in 0..(lost + received) as u64 {
            packets.push(PacketResult {
                seq: i,
                send_time: Time::ZERO,
                arrival: if (i as usize) < received {
                    Some(Time::from_millis(10 + i))
                } else {
                    None
                },
                size_bytes: 1250,
            });
        }
        FeedbackReport {
            report_seq: 0,
            generated_at: Time::from_millis(100),
            packets,
        }
    }

    #[test]
    fn fixed_rate_never_moves() {
        let mut fx = FixedRate::new(3e6);
        assert_eq!(fx.on_feedback(&report(5, 5), Time::from_millis(100)), 3e6);
        assert_eq!(fx.on_feedback(&report(0, 10), Time::from_millis(200)), 3e6);
        assert_eq!(fx.name(), "fixed");
    }

    #[test]
    fn naive_aimd_halves_on_loss() {
        let mut cc = NaiveAimd::new(4e6, 0.1e6, 10e6);
        let t = cc.on_feedback(&report(1, 9), Time::from_millis(100));
        assert_eq!(t, 2e6);
    }

    #[test]
    fn naive_aimd_adds_on_clean_report() {
        let mut cc = NaiveAimd::new(1e6, 0.1e6, 10e6);
        let t = cc.on_feedback(&report(0, 10), Time::from_millis(100));
        assert_eq!(t, 1.05e6);
    }

    #[test]
    fn naive_aimd_clamps() {
        let mut cc = NaiveAimd::new(0.2e6, 0.15e6, 0.3e6);
        cc.on_feedback(&report(1, 1), Time::from_millis(100));
        assert_eq!(cc.target_bps(), 0.15e6);
        for i in 0..20 {
            cc.on_feedback(&report(0, 10), Time::from_millis(200 + i));
        }
        assert_eq!(cc.target_bps(), 0.3e6);
    }
}
