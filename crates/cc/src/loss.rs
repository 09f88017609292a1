//! The loss-based controller (GCC's second arm).
//!
//! Delay tells GCC about queue growth; loss tells it the queue already
//! overflowed. The classic GCC loss rules (per the RMCAT draft):
//!
//! * loss > 10%: `target ×= (1 − 0.5·loss)`
//! * 2% ≤ loss ≤ 10%: hold
//! * loss < 2%: `target ×= 1.05` (gentle probe)
//!
//! The final GCC target is the min of the delay-based and loss-based
//! estimates.

use ravel_sim::Time;

/// Loss-based target estimator.
#[derive(Debug, Clone)]
pub struct LossController {
    target_bps: f64,
    min_bps: f64,
    max_bps: f64,
    last_update: Option<Time>,
}

impl LossController {
    /// Creates a loss controller starting at `start_bps`.
    pub fn new(start_bps: f64, min_bps: f64, max_bps: f64) -> LossController {
        assert!(min_bps > 0.0 && min_bps <= max_bps, "bad rate bounds");
        LossController {
            target_bps: start_bps.clamp(min_bps, max_bps),
            min_bps,
            max_bps,
            last_update: None,
        }
    }

    /// The current loss-based target.
    pub fn target_bps(&self) -> f64 {
        self.target_bps
    }

    /// Updates from one report's loss fraction. Increases are rate
    /// limited to once per ~200 ms so bursts of reports don't compound.
    pub fn update(&mut self, loss_fraction: f64, now: Time) -> f64 {
        debug_assert!((0.0..=1.0).contains(&loss_fraction));
        if loss_fraction > 0.10 {
            self.target_bps *= 1.0 - 0.5 * loss_fraction;
            self.last_update = Some(now);
        } else if loss_fraction < 0.02 {
            let due = match self.last_update {
                Some(last) => now.saturating_since(last).as_millis_f64() >= 200.0,
                None => true,
            };
            if due {
                self.target_bps *= 1.05;
                self.last_update = Some(now);
            }
        } else {
            self.last_update = Some(now);
        }
        self.target_bps = self.target_bps.clamp(self.min_bps, self.max_bps);
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
    fn heavy_loss_cuts_rate() {
        let mut lc = LossController::new(2e6, 0.1e6, 10e6);
        let target = lc.update(0.2, t(100));
        assert!((target - 2e6 * 0.9).abs() < 1.0);
    }

    #[test]
    fn moderate_loss_holds() {
        let mut lc = LossController::new(2e6, 0.1e6, 10e6);
        let target = lc.update(0.05, t(100));
        assert_eq!(target, 2e6);
    }

    #[test]
    fn low_loss_probes_up() {
        let mut lc = LossController::new(2e6, 0.1e6, 10e6);
        let target = lc.update(0.0, t(100));
        assert!((target - 2.1e6).abs() < 1.0);
    }

    #[test]
    fn increase_is_rate_limited() {
        let mut lc = LossController::new(2e6, 0.1e6, 10e6);
        lc.update(0.0, t(100));
        let after = lc.update(0.0, t(150)); // only 50 ms later
        assert!((after - 2.1e6).abs() < 1.0, "compounded too fast: {after}");
        let later = lc.update(0.0, t(350));
        assert!(later > after);
    }

    /// Hand vectors for the three RMCAT rules from 1 Mbps, one fresh
    /// controller per report, at the exact 2% and 10% edges (both
    /// belong to the hold band) and just either side of each. The
    /// expected targets are worked out by hand, not by the formula
    /// under test.
    #[test]
    fn rmcat_rules_at_and_around_the_two_and_ten_percent_edges() {
        let vectors: [(f64, f64); 14] = [
            // loss < 2%: probe, ×1.05.
            (0.0, 1_050_000.0),
            (0.0199, 1_050_000.0),
            (1.0 / 51.0, 1_050_000.0),
            // 2% ≤ loss ≤ 10%: hold, including both edges exactly.
            (0.02, 1_000_000.0),
            (1.0 / 50.0, 1_000_000.0),
            (0.0201, 1_000_000.0),
            (0.05, 1_000_000.0),
            (0.0999, 1_000_000.0),
            (0.10, 1_000_000.0),
            (10.0 / 100.0, 1_000_000.0),
            // loss > 10%: cut, ×(1 − loss/2).
            (0.1001, 949_950.0),
            (0.11, 945_000.0),
            (0.5, 750_000.0),
            (1.0, 500_000.0),
        ];
        for (loss, want) in vectors {
            let mut lc = LossController::new(1e6, 0.1e6, 10e6);
            let got = lc.update(loss, t(1_000));
            assert!(
                (got - want).abs() < 1e-6,
                "loss {loss}: target {got}, hand value {want}"
            );
            assert_eq!(lc.target_bps(), got);
        }
    }

    /// The probe compounds at most once per 200 ms: 1 Mbps → 1.05 at
    /// 0 ms, unchanged at 199 ms, 1.1025 at exactly 200 ms. A hold
    /// restarts that clock; a cut applies at once, whenever it lands.
    #[test]
    fn rmcat_probe_spacing_by_hand() {
        let mut lc = LossController::new(1e6, 0.1e6, 10e6);
        assert!((lc.update(0.0, t(0)) - 1_050_000.0).abs() < 1e-6);
        assert!((lc.update(0.01, t(199)) - 1_050_000.0).abs() < 1e-6);
        assert!((lc.update(0.0199, t(200)) - 1_102_500.0).abs() < 1e-6);
        assert!((lc.update(0.02, t(300)) - 1_102_500.0).abs() < 1e-6);
        assert!((lc.update(0.0, t(450)) - 1_102_500.0).abs() < 1e-6);
        assert!((lc.update(0.2, t(451)) - 992_250.0).abs() < 1e-6);
        assert!((lc.update(0.2, t(452)) - 893_025.0).abs() < 1e-6);
        assert!((lc.update(0.0, t(652)) - 937_676.25).abs() < 1e-6);
    }

    #[test]
    fn clamped_to_bounds() {
        let mut lc = LossController::new(0.2e6, 0.1e6, 0.3e6);
        for i in 0..50 {
            lc.update(0.5, t(i * 100));
        }
        assert_eq!(lc.target_bps(), 0.1e6);
        let mut hi = LossController::new(0.29e6, 0.1e6, 0.3e6);
        for i in 0..50 {
            hi.update(0.0, t(i * 300));
        }
        assert_eq!(hi.target_bps(), 0.3e6);
    }
}
