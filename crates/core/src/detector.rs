//! Fast bandwidth-drop detection from raw transport feedback.
//!
//! The detector answers one question as early as physically possible:
//! *has the path's capacity just fallen below what we are sending, and
//! if so to what?* It fuses two signals, both computable from a single
//! feedback report:
//!
//! * **Queue delay** — each packet's one-way delay (arrival − send)
//!   compared against a windowed minimum. The minimum tracks the
//!   propagation baseline; the excess is queueing. A sudden capacity
//!   drop shows up as OWD climbing monotonically across one report.
//! * **Delivered-rate corroboration** — the short-window delivered
//!   throughput falling clearly below the send target. This filters
//!   out delay wobbles that are not capacity related (e.g. jitter).
//!
//! When both trip, the detector emits a [`DropSignal`] carrying its
//! capacity estimate — the delivered rate measured over the most recent
//! packets, which during a congested period equals the bottleneck rate
//! (the link is busy 100% of the time, so arrivals are spaced at exactly
//! the service rate).

use std::collections::VecDeque;

use ravel_net::FeedbackReport;
use ravel_sim::{Dur, Time};

use crate::config::{DETECT_COOLDOWN, DETECT_QUEUE_DELAY, DETECT_THROUGHPUT_RATIO, OWD_MIN_WINDOW};

/// A detected bandwidth drop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DropSignal {
    /// When the detector fired.
    pub at: Time,
    /// Estimated post-drop capacity, bits/second.
    pub capacity_bps: f64,
    /// Estimated standing queue delay at detection time.
    pub queue_delay: Dur,
    /// Severity: send target / estimated capacity (≥ 1).
    pub severity: f64,
}

/// Sliding-minimum tracker for the one-way-delay baseline.
#[derive(Debug, Clone)]
struct WindowedMin {
    window: Dur,
    /// (time, owd) samples, kept ascending in owd (monotonic deque).
    deque: VecDeque<(Time, Dur)>,
}

impl WindowedMin {
    fn new(window: Dur) -> WindowedMin {
        WindowedMin {
            window,
            deque: VecDeque::new(),
        }
    }

    fn push(&mut self, at: Time, owd: Dur) {
        while matches!(self.deque.back(), Some(&(_, v)) if v >= owd) {
            self.deque.pop_back();
        }
        self.deque.push_back((at, owd));
        let cutoff = Time::from_micros(at.as_micros().saturating_sub(self.window.as_micros()));
        while matches!(self.deque.front(), Some(&(t, _)) if t < cutoff) {
            self.deque.pop_front();
        }
    }

    fn min(&self) -> Option<Dur> {
        self.deque.front().map(|&(_, v)| v)
    }
}

/// The drop detector.
#[derive(Debug, Clone)]
pub struct DropDetector {
    owd_min: WindowedMin,
    /// Smoothed one-way delay (EWMA over packets).
    smoothed_owd: Option<Dur>,
    /// Recent (arrival, bytes) for short-window delivered rate.
    recent: VecDeque<(Time, u64)>,
    /// Short throughput window.
    rate_window: Dur,
    last_trigger: Option<Time>,
    /// Smoothed OWD at the end of the previous report, for the rising
    /// check.
    prev_report_owd: Option<Dur>,
    /// True if the last report showed one-way delay still climbing.
    owd_rising: bool,
    triggers: u64,
}

impl Default for DropDetector {
    fn default() -> Self {
        DropDetector::new()
    }
}

impl DropDetector {
    /// Creates a detector with the paper configuration's thresholds.
    pub fn new() -> DropDetector {
        DropDetector {
            owd_min: WindowedMin::new(OWD_MIN_WINDOW),
            smoothed_owd: None,
            recent: VecDeque::new(),
            rate_window: Dur::millis(250),
            last_trigger: None,
            prev_report_owd: None,
            owd_rising: false,
            triggers: 0,
        }
    }

    /// Lifetime trigger count.
    pub fn triggers(&self) -> u64 {
        self.triggers
    }

    /// The current queue-delay estimate (smoothed OWD minus baseline).
    pub fn queue_delay(&self) -> Dur {
        match (self.smoothed_owd, self.owd_min.min()) {
            (Some(owd), Some(base)) => owd.saturating_sub(base),
            _ => Dur::ZERO,
        }
    }

    /// The short-window delivered rate, if measurable.
    pub fn delivered_bps(&self) -> Option<f64> {
        if self.recent.len() < 4 {
            return None;
        }
        let first = self.recent.front().expect("non-empty").0;
        let last = self.recent.back().expect("non-empty").0;
        let span = last.saturating_since(first);
        if span < Dur::millis(10) {
            return None;
        }
        // Exclude the first packet's bytes: N packets span N-1 service
        // intervals.
        let bytes: u64 = self.recent.iter().skip(1).map(|&(_, b)| b).sum();
        Some(bytes as f64 * 8.0 / span.as_secs_f64())
    }

    /// Capacity estimate from *busy-period* arrivals: the harmonic rate
    /// over adjacent-arrival gaps short enough to be service-spaced
    /// (idle gaps — frame intervals, skip holes — are excluded). While
    /// the bottleneck has a standing queue this equals the service rate;
    /// unlike [`DropDetector::delivered_bps`] it is not diluted by idle
    /// time, so it does not under-estimate capacity during drain.
    pub fn busy_rate_bps(&self) -> Option<f64> {
        let mut bytes = 0u64;
        let mut busy = Dur::ZERO;
        for (&(t0, _), &(t1, b1)) in self.recent.iter().zip(self.recent.iter().skip(1)) {
            let gap = t1.saturating_since(t0);
            if gap <= Dur::millis(25) && !gap.is_zero() {
                bytes += b1;
                busy += gap;
            }
        }
        if busy < Dur::millis(5) || bytes == 0 {
            return None;
        }
        Some(bytes as f64 * 8.0 / busy.as_secs_f64())
    }

    /// Ingests one feedback report while the sender targets
    /// `target_bps`; returns a signal if a drop is detected.
    pub fn on_feedback(
        &mut self,
        report: &FeedbackReport,
        target_bps: f64,
        now: Time,
    ) -> Option<DropSignal> {
        for p in &report.packets {
            let Some(arrival) = p.arrival else { continue };
            let owd = arrival.saturating_since(p.send_time);
            self.owd_min.push(arrival, owd);
            // EWMA with modest smoothing: responsive within a few packets.
            self.smoothed_owd = Some(match self.smoothed_owd {
                None => owd,
                Some(prev) => {
                    let alpha = 0.3;
                    Dur::from_secs_f64(
                        prev.as_secs_f64() * (1.0 - alpha) + owd.as_secs_f64() * alpha,
                    )
                }
            });
            self.recent.push_back((arrival, p.size_bytes));
            let cutoff = Time::from_micros(
                arrival
                    .as_micros()
                    .saturating_sub(self.rate_window.as_micros()),
            );
            while matches!(self.recent.front(), Some(&(t, _)) if t < cutoff) {
                self.recent.pop_front();
            }
            // Also bound by packet count so the estimate weights the
            // *newest* inter-arrival spacing — right after a drop, stale
            // pre-drop arrivals would otherwise inflate the capacity
            // estimate for a whole window.
            while self.recent.len() > 12 {
                self.recent.pop_front();
            }
        }

        // Rising check: a capacity drop shows OWD *climbing* across
        // reports; a draining queue shows it falling. Only the former may
        // trigger — otherwise the drain tail of a handled drop re-triggers
        // on its own sparse arrivals.
        if let Some(owd) = self.smoothed_owd {
            self.owd_rising = match self.prev_report_owd {
                Some(prev) => owd > prev + Dur::millis(1),
                None => false,
            };
            self.prev_report_owd = Some(owd);
        }

        // Cooldown gate.
        if let Some(last) = self.last_trigger {
            if now.saturating_since(last) < DETECT_COOLDOWN {
                return None;
            }
        }

        let queue_delay = self.queue_delay();
        if queue_delay < DETECT_QUEUE_DELAY || !self.owd_rising {
            return None;
        }
        let delivered = self.delivered_bps()?;
        if delivered >= DETECT_THROUGHPUT_RATIO * target_bps {
            return None;
        }

        self.last_trigger = Some(now);
        self.triggers += 1;
        // Prefer the busy-period estimate for capacity: during the
        // congested burst it measures the bottleneck's service rate
        // exactly; the windowed delivered rate is the fallback.
        let capacity = self.busy_rate_bps().unwrap_or(delivered);
        Some(DropSignal {
            at: now,
            capacity_bps: capacity,
            queue_delay,
            severity: (target_bps / capacity).max(1.0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ravel_net::PacketResult;

    /// Builds a report whose packets were sent every `send_gap_ms` and
    /// arrived every `arrival_gap_ms` starting at the given offsets.
    fn report(
        first_seq: u64,
        n: u64,
        send_start_ms: u64,
        send_gap_ms: u64,
        arrival_start_ms: u64,
        arrival_gap_ms: u64,
    ) -> FeedbackReport {
        FeedbackReport {
            report_seq: 0,
            generated_at: Time::from_millis(arrival_start_ms + n * arrival_gap_ms),
            packets: (0..n)
                .map(|i| PacketResult {
                    seq: first_seq + i,
                    send_time: Time::from_millis(send_start_ms + i * send_gap_ms),
                    arrival: Some(Time::from_millis(arrival_start_ms + i * arrival_gap_ms)),
                    size_bytes: 1250,
                })
                .collect(),
        }
    }

    /// Warm the detector with a healthy 4 Mbps-ish stream: 1250 B every
    /// 2.5 ms, 20 ms OWD.
    fn warm(det: &mut DropDetector) -> u64 {
        let mut seq = 0;
        for round in 0..20u64 {
            let r = FeedbackReport {
                report_seq: 0,
                generated_at: Time::from_millis((round + 1) * 100),
                packets: (0..40)
                    .map(|i| PacketResult {
                        seq: seq + i,
                        send_time: Time::from_micros((round * 100_000) + i * 2_500),
                        arrival: Some(Time::from_micros((round * 100_000) + i * 2_500 + 20_000)),
                        size_bytes: 1250,
                    })
                    .collect(),
            };
            seq += 40;
            let sig = det.on_feedback(&r, 4e6, Time::from_millis((round + 1) * 100));
            assert!(sig.is_none(), "false positive during warm-up");
        }
        seq
    }

    #[test]
    fn no_trigger_on_healthy_path() {
        let mut det = DropDetector::new();
        warm(&mut det);
        assert_eq!(det.triggers(), 0);
        assert!(det.queue_delay() < Dur::millis(5));
        let delivered = det.delivered_bps().unwrap();
        assert!((delivered - 4e6).abs() / 4e6 < 0.1, "delivered {delivered}");
    }

    #[test]
    fn detects_capacity_drop_with_estimate() {
        let mut det = DropDetector::new();
        let seq = warm(&mut det);
        // Capacity drops 4x: arrivals now every 10 ms and OWD climbing
        // (each packet waits behind a growing queue).
        let r = FeedbackReport {
            report_seq: 0,
            generated_at: Time::from_millis(2100),
            packets: (0..10u64)
                .map(|i| PacketResult {
                    seq: seq + i,
                    send_time: Time::from_millis(2000 + i * 3),
                    arrival: Some(Time::from_millis(2020 + i * 10 + i * 5)),
                    size_bytes: 1250,
                })
                .collect(),
        };
        let sig = det
            .on_feedback(&r, 4e6, Time::from_millis(2100))
            .expect("drop not detected");
        // Delivered estimate should be near 1250*8/15ms ≈ 0.67 Mbps
        // (the synthetic arrival spacing), certainly far below 4 Mbps.
        assert!(sig.capacity_bps < 1.5e6, "estimate {}", sig.capacity_bps);
        assert!(sig.severity > 2.0);
        assert!(sig.queue_delay >= Dur::millis(40));
    }

    #[test]
    fn cooldown_suppresses_retrigger() {
        let mut det = DropDetector::new();
        let seq = warm(&mut det);
        // A persisting (unhandled) drop keeps the queue — and thus OWD —
        // climbing across reports; `base` sets each report's OWD floor.
        let mk = |seq0: u64, t0: u64, base: u64| FeedbackReport {
            report_seq: 0,
            generated_at: Time::from_millis(t0 + 100),
            packets: (0..10u64)
                .map(|i| PacketResult {
                    seq: seq0 + i,
                    send_time: Time::from_millis(t0 + i * 3),
                    arrival: Some(Time::from_millis(t0 + base + i * 15)),
                    size_bytes: 1250,
                })
                .collect(),
        };
        assert!(det
            .on_feedback(&mk(seq, 2000, 20), 4e6, Time::from_millis(2100))
            .is_some());
        // 100 ms later: still in cooldown even though OWD keeps rising.
        assert!(det
            .on_feedback(&mk(seq + 10, 2100, 150), 4e6, Time::from_millis(2200))
            .is_none());
        assert_eq!(det.triggers(), 1);
        // After the cooldown, the still-climbing queue retriggers.
        assert!(det
            .on_feedback(&mk(seq + 20, 2700, 300), 4e6, Time::from_millis(2800))
            .is_some());
    }

    #[test]
    fn delay_without_throughput_drop_does_not_trigger() {
        // OWD rises (e.g. route change) but delivery keeps pace with the
        // 4 Mbps target: not a capacity drop.
        let mut det = DropDetector::new();
        let seq = warm(&mut det);
        let r = FeedbackReport {
            report_seq: 0,
            generated_at: Time::from_millis(2100),
            packets: (0..40u64)
                .map(|i| PacketResult {
                    seq: seq + i,
                    send_time: Time::from_micros(2_000_000 + i * 2_500),
                    // OWD jumped to 80 ms but spacing is unchanged.
                    arrival: Some(Time::from_micros(2_000_000 + i * 2_500 + 80_000)),
                    size_bytes: 1250,
                })
                .collect(),
        };
        assert!(det.on_feedback(&r, 4e6, Time::from_millis(2100)).is_none());
    }

    #[test]
    fn throughput_dip_without_queue_delay_does_not_trigger() {
        // The sender simply sent less (e.g. quiet content): delivery is
        // below target but OWD stays at baseline.
        let mut det = DropDetector::new();
        let seq = warm(&mut det);
        let r = report(seq, 10, 2000, 10, 2020, 10);
        assert!(det.on_feedback(&r, 4e6, Time::from_millis(2100)).is_none());
        assert_eq!(det.triggers(), 0);
    }

    #[test]
    fn lost_packets_are_ignored_gracefully() {
        let mut det = DropDetector::new();
        let r = FeedbackReport {
            report_seq: 0,
            generated_at: Time::from_millis(100),
            packets: vec![PacketResult {
                seq: 0,
                send_time: Time::from_millis(0),
                arrival: None,
                size_bytes: 0,
            }],
        };
        assert!(det.on_feedback(&r, 4e6, Time::from_millis(100)).is_none());
        assert_eq!(det.queue_delay(), Dur::ZERO);
        assert!(det.delivered_bps().is_none());
    }

    #[test]
    fn windowed_min_tracks_baseline_shift() {
        let mut wm = WindowedMin::new(Dur::secs(1));
        wm.push(Time::from_millis(0), Dur::millis(20));
        wm.push(Time::from_millis(100), Dur::millis(25));
        assert_eq!(wm.min(), Some(Dur::millis(20)));
        // Baseline rises; old min ages out of the window.
        wm.push(Time::from_millis(1500), Dur::millis(40));
        assert_eq!(wm.min(), Some(Dur::millis(40)));
    }
}
