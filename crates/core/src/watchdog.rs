//! Feedback watchdog: graceful degradation when the control loop goes
//! blind.
//!
//! Every rate decision in the pipeline — GCC, the drop detector, the
//! adaptive controller — is driven by receiver feedback. When the
//! reverse path fails (burst loss, a modem retrain, a cellular
//! handover), the sender keeps transmitting at the last commanded rate
//! into a network it can no longer see. If capacity dropped at the same
//! time (the common case: impairments correlate across directions), the
//! bottleneck queue grows unboundedly for the whole blind period.
//!
//! [`FeedbackWatchdog`] bounds that damage. It tracks the arrival of
//! *valid* (fresh, non-duplicate, validator-accepted) feedback reports;
//! when none arrives within a timeout, it fires a degradation step, and
//! keeps firing one per elapsed timeout until feedback resumes. Reports
//! the sender's `FeedbackValidator` rejects must **not** be fed to
//! [`FeedbackWatchdog::on_valid_report`]: arriving bytes are not
//! liveness, and a reverse path full of corrupted reports has to
//! degrade exactly like a silent one — otherwise a corrupting attacker
//! doubles as a watchdog-suppression attacker, holding the sender at
//! full rate while feeding it garbage. Each step multiplies the
//! send target by a backoff factor, decaying it exponentially toward a
//! floor — the same "cut while blind" behavior production RTC stacks
//! implement. When feedback resumes, the caller hands control back
//! through its normal recovery path.
//!
//! The watchdog is deliberately scheme-agnostic: it computes *when* to
//! back off and *to what rate*; the baseline applies that directly to
//! the encoder, the adaptive controller routes it through its
//! `Degraded` phase.

use ravel_cc::MIN_BPS;
use ravel_sim::{Dur, Time};

/// Multiplicative target-rate cut per step, in `(0, 1)`. The backoff
/// decays toward, but never crosses, the arena controllers' floor
/// [`MIN_BPS`].
const BACKOFF_FACTOR: f64 = 0.7;

/// Panics unless the backoff factor is in range. Evaluated on
/// [`BACKOFF_FACTOR`] at compile time.
const fn check_backoff(backoff_factor: f64) {
    assert!(
        backoff_factor > 0.0 && backoff_factor < 1.0,
        "watchdog: backoff factor not in (0, 1)"
    );
}

const _: () = check_backoff(BACKOFF_FACTOR);

/// Configuration for the feedback watchdog. Each step cuts the target
/// by 0.7×, never below the 150 kbps floor the arena controllers share,
/// and the sender skips alternate frames while blind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchdogConfig {
    /// Blind interval after which a degradation step fires. Production
    /// guidance: ≈ 3 feedback intervals + one RTT, so ordinary jitter
    /// and a single lost report never trigger it.
    pub timeout: Dur,
}

impl Default for WatchdogConfig {
    /// Defaults for the pipeline's stock 50 ms feedback interval and
    /// 40 ms RTT: a 200 ms timeout.
    fn default() -> WatchdogConfig {
        WatchdogConfig {
            timeout: Dur::millis(200),
        }
    }
}

impl WatchdogConfig {
    /// Derives the production-guidance timeout from a session's feedback
    /// interval and round-trip time: `3 × interval + rtt`.
    pub fn for_timing(feedback_interval: Dur, rtt: Dur) -> WatchdogConfig {
        WatchdogConfig {
            timeout: feedback_interval * 3 + rtt,
        }
    }
}

/// Tracks feedback liveness and drives exponential blind backoff.
#[derive(Debug, Clone)]
pub struct FeedbackWatchdog {
    cfg: WatchdogConfig,
    /// Earliest instant the next degradation step may fire.
    next_fire: Time,
    /// Steps fired since feedback was last seen (0 = healthy).
    degraded_steps: u32,
    /// Lifetime count of degradation steps.
    timeouts_total: u64,
    /// Lifetime count of blind episodes (healthy → degraded edges).
    episodes: u64,
}

impl FeedbackWatchdog {
    /// Creates a watchdog; the clock starts at `Time::ZERO` with the
    /// first deadline one timeout out.
    pub fn new(cfg: WatchdogConfig) -> FeedbackWatchdog {
        assert!(!cfg.timeout.is_zero(), "watchdog: zero timeout");
        FeedbackWatchdog {
            cfg,
            next_fire: Time::ZERO + cfg.timeout,
            degraded_steps: 0,
            timeouts_total: 0,
            episodes: 0,
        }
    }

    /// Records a valid (fresh, non-duplicate, validator-accepted)
    /// feedback report. Returns true if the watchdog had fired since
    /// the previous valid report — i.e. this report ends a blind
    /// episode and the caller should run its recovery hand-off. Callers
    /// must not invoke this for reports their validator rejected: a
    /// rejected report does not re-arm the deadline (see the module
    /// doc on corruption-as-silence).
    pub fn on_valid_report(&mut self, now: Time) -> bool {
        let was_degraded = self.degraded_steps > 0;
        self.next_fire = now + self.cfg.timeout;
        self.degraded_steps = 0;
        was_degraded
    }

    /// Checks the deadline; returns true when a degradation step fires
    /// (at most one per call — poll at least once per timeout). After a
    /// step, the next deadline is one timeout later.
    pub fn poll(&mut self, now: Time) -> bool {
        if now < self.next_fire {
            return false;
        }
        if self.degraded_steps == 0 {
            self.episodes += 1;
        }
        self.degraded_steps += 1;
        self.timeouts_total += 1;
        self.next_fire = now + self.cfg.timeout;
        true
    }

    /// The rate a target should be cut to on the step that just fired:
    /// one backoff factor down, clamped at the floor.
    pub fn apply_backoff(&self, current_bps: f64) -> f64 {
        (current_bps * BACKOFF_FACTOR).max(MIN_BPS)
    }

    /// True while at least one step has fired without feedback since.
    pub fn is_degraded(&self) -> bool {
        self.degraded_steps > 0
    }

    /// Lifetime count of degradation steps.
    pub fn timeouts(&self) -> u64 {
        self.timeouts_total
    }

    /// Lifetime count of blind episodes.
    pub fn episodes(&self) -> u64 {
        self.episodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> WatchdogConfig {
        WatchdogConfig::default()
    }

    #[test]
    fn quiet_start_fires_after_timeout() {
        let mut wd = FeedbackWatchdog::new(cfg());
        assert!(!wd.poll(Time::from_millis(199)));
        assert!(wd.poll(Time::from_millis(200)));
        assert!(wd.is_degraded());
        assert_eq!(wd.degraded_steps, 1);
    }

    #[test]
    fn healthy_feedback_never_fires() {
        let mut wd = FeedbackWatchdog::new(cfg());
        for ms in (50..2000).step_by(50) {
            assert!(!wd.on_valid_report(Time::from_millis(ms)));
            assert!(!wd.poll(Time::from_millis(ms + 10)));
        }
        assert_eq!(wd.timeouts(), 0);
        assert!(!wd.is_degraded());
    }

    #[test]
    fn successive_timeouts_step_and_resume_reports_edge() {
        let mut wd = FeedbackWatchdog::new(cfg());
        wd.on_valid_report(Time::from_millis(100));
        // Blind from here: steps at 300, 500, 700.
        assert!(wd.poll(Time::from_millis(300)));
        assert!(!wd.poll(Time::from_millis(400)));
        assert!(wd.poll(Time::from_millis(500)));
        assert!(wd.poll(Time::from_millis(700)));
        assert_eq!(wd.degraded_steps, 3);
        assert_eq!(wd.timeouts(), 3);
        assert_eq!(wd.episodes(), 1);
        // Feedback resumes: the edge is reported exactly once.
        assert!(wd.on_valid_report(Time::from_millis(750)));
        assert!(!wd.on_valid_report(Time::from_millis(800)));
        assert!(!wd.is_degraded());
        // The deadline re-arms one timeout after the last report.
        assert!(!wd.poll(Time::from_millis(999)));
        assert!(wd.poll(Time::from_millis(1000)));
    }

    #[test]
    fn backoff_decays_to_floor() {
        let wd = {
            let mut wd = FeedbackWatchdog::new(cfg());
            wd.poll(Time::from_millis(200));
            wd
        };
        let mut rate = 4e6;
        let mut seen_floor = false;
        for _ in 0..12 {
            rate = wd.apply_backoff(rate);
            assert!(rate >= MIN_BPS);
            if rate == MIN_BPS {
                seen_floor = true;
            }
        }
        assert!(seen_floor, "never reached the floor: {rate}");
    }

    #[test]
    fn for_timing_matches_production_guidance() {
        let wd = WatchdogConfig::for_timing(Dur::millis(50), Dur::millis(40));
        assert_eq!(wd.timeout, Dur::millis(190));
    }

    #[test]
    fn counts_episodes_separately_from_steps() {
        let mut wd = FeedbackWatchdog::new(cfg());
        wd.poll(Time::from_millis(200));
        wd.poll(Time::from_millis(400));
        wd.on_valid_report(Time::from_millis(450));
        wd.poll(Time::from_millis(650));
        assert_eq!(wd.timeouts(), 3);
        assert_eq!(wd.episodes(), 2);
        assert_eq!(wd.degraded_steps, 1);
    }

    #[test]
    #[should_panic(expected = "backoff factor")]
    fn rejects_bad_backoff() {
        check_backoff(1.0);
    }
}
