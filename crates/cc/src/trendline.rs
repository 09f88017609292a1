//! Trendline delay-gradient estimation and overuse detection
//! (libwebrtc `TrendlineEstimator` + adaptive threshold).
//!
//! The estimator keeps a short window of (time, smoothed accumulated
//! delay) points and fits a line; the slope — scaled by the number of
//! deltas and a gain — is compared against an *adaptive* threshold γ.
//! Sustained positive trend above γ signals overuse; below −γ signals
//! underuse (queue draining).

use ravel_sim::Time;

use crate::interarrival::PacketGroupDelta;

/// The detector's three-valued output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BandwidthUsage {
    /// Queue is stable.
    Normal,
    /// Queue is growing: the path is over-used.
    Overusing,
    /// Queue is draining: the path is under-used.
    Underusing,
}

/// Points the trend is fitted over (libwebrtc: 20).
const WINDOW: usize = 20;

/// Trendline estimator with libwebrtc's default tuning.
#[derive(Debug, Clone)]
pub struct TrendlineEstimator {
    /// Ring of the last `WINDOW` (arrival seconds, smoothed delay ms)
    /// points; `next` is the slot the next point goes to, which is the
    /// oldest point's once the ring is full.
    window: [(f64, f64); WINDOW],
    /// Points held, up to `WINDOW`.
    len: usize,
    next: usize,
    /// EWMA coefficient for the accumulated delay.
    smoothing: f64,
    /// Accumulated (summed) delay variation, ms.
    accumulated_delay_ms: f64,
    /// Smoothed accumulated delay, ms.
    smoothed_delay_ms: f64,
    /// Number of deltas seen so far.
    num_deltas: u64,
    /// Gain applied to the fitted slope (libwebrtc: 4.0).
    threshold_gain: f64,
    /// Adaptive threshold γ in ms (initial 12.5).
    threshold_ms: f64,
    /// Adaptive threshold gains (libwebrtc k_up/k_down).
    k_up: f64,
    k_down: f64,
    /// Time the current overuse hypothesis started.
    overuse_start: Option<Time>,
    /// Sustained-overuse requirement (libwebrtc: 10 ms).
    overuse_time_threshold_ms: f64,
    /// Consecutive overuse samples.
    overuse_counter: u32,
    last_update: Option<Time>,
    state: BandwidthUsage,
    last_trend: f64,
}

impl Default for TrendlineEstimator {
    fn default() -> Self {
        Self::new()
    }
}

impl TrendlineEstimator {
    /// Creates an estimator with libwebrtc default parameters.
    pub fn new() -> TrendlineEstimator {
        TrendlineEstimator {
            window: [(0.0, 0.0); WINDOW],
            len: 0,
            next: 0,
            smoothing: 0.9,
            accumulated_delay_ms: 0.0,
            smoothed_delay_ms: 0.0,
            num_deltas: 0,
            threshold_gain: 4.0,
            threshold_ms: 12.5,
            k_up: 0.0087,
            k_down: 0.039,
            overuse_start: None,
            overuse_time_threshold_ms: 10.0,
            overuse_counter: 0,
            last_update: None,
            state: BandwidthUsage::Normal,
            last_trend: 0.0,
        }
    }

    /// The current detector state.
    pub fn state(&self) -> BandwidthUsage {
        self.state
    }

    /// Feeds one inter-group delta; returns the updated state.
    pub fn update(&mut self, delta: &PacketGroupDelta) -> BandwidthUsage {
        self.num_deltas += 1;
        self.accumulated_delay_ms += delta.delay_variation_ms;
        self.smoothed_delay_ms = self.smoothing * self.smoothed_delay_ms
            + (1.0 - self.smoothing) * self.accumulated_delay_ms;

        self.push_point(delta.arrival.as_secs_f64(), self.smoothed_delay_ms);

        let trend = self.linear_fit_slope().unwrap_or(0.0);
        // Modified trend: slope scaled by sample count (capped) and gain,
        // in ms — comparable against γ.
        let samples = (self.num_deltas.min(60)) as f64;
        let modified_trend = trend * samples * self.threshold_gain;
        self.last_trend = modified_trend;

        self.detect(modified_trend, delta.arrival);
        self.adapt_threshold(modified_trend, delta.arrival);
        self.state
    }

    /// Appends `(x, y)` to the window, overwriting the oldest point once
    /// the window is full.
    fn push_point(&mut self, x: f64, y: f64) {
        self.window[self.next] = (x, y);
        self.next = (self.next + 1) % WINDOW;
        self.len = (self.len + 1).min(WINDOW);
    }

    /// The window's points, oldest first.
    fn points(&self) -> impl Iterator<Item = &(f64, f64)> {
        let oldest = if self.len < WINDOW { 0 } else { self.next };
        let (newer, older) = self.window[..self.len].split_at(oldest);
        older.iter().chain(newer)
    }

    /// Least-squares slope of the window, in ms per second.
    fn linear_fit_slope(&self) -> Option<f64> {
        let n = self.len;
        if n < 2 {
            return None;
        }
        // Summed oldest to newest, so every slope is bit-identical to a
        // fit over the points in arrival order.
        let (sum_x, sum_y): (f64, f64) = self
            .points()
            .fold((0.0, 0.0), |(sx, sy), &(x, y)| (sx + x, sy + y));
        let mean_x = sum_x / n as f64;
        let mean_y = sum_y / n as f64;
        let (num, den) = self.points().fold((0.0, 0.0), |(num, den), &(x, y)| {
            (
                num + (x - mean_x) * (y - mean_y),
                den + (x - mean_x).powi(2),
            )
        });
        if den.abs() < 1e-12 {
            None
        } else {
            // x in seconds, y in ms → slope is ms/s; scale to "ms per
            // group" using a nominal 1 group ≈ 1/trendline-rate; libwebrtc
            // works in ms/ms — dividing by 1000 matches its magnitude.
            Some(num / den / 1000.0)
        }
    }

    fn detect(&mut self, modified_trend: f64, now: Time) {
        if modified_trend > self.threshold_ms {
            let start = *self.overuse_start.get_or_insert(now);
            self.overuse_counter += 1;
            let sustained_ms = now.saturating_since(start).as_millis_f64();
            if sustained_ms >= self.overuse_time_threshold_ms && self.overuse_counter > 1 {
                self.state = BandwidthUsage::Overusing;
            }
        } else if modified_trend < -self.threshold_ms {
            self.overuse_start = None;
            self.overuse_counter = 0;
            self.state = BandwidthUsage::Underusing;
        } else {
            self.overuse_start = None;
            self.overuse_counter = 0;
            self.state = BandwidthUsage::Normal;
        }
    }

    /// Adapts γ toward |trend| (fast down, slow up) so transient spikes
    /// do not permanently desensitize the detector.
    fn adapt_threshold(&mut self, modified_trend: f64, now: Time) {
        let dt_ms = match self.last_update {
            Some(last) => now.saturating_since(last).as_millis_f64().min(100.0),
            None => 100.0,
        };
        self.last_update = Some(now);
        let abs_trend = modified_trend.abs();
        // libwebrtc ignores samples far above the threshold to avoid
        // adapting to its own overuse.
        if abs_trend > self.threshold_ms + 15.0 {
            return;
        }
        let k = if abs_trend < self.threshold_ms {
            self.k_down
        } else {
            self.k_up
        };
        self.threshold_ms += k * (abs_trend - self.threshold_ms) * dt_ms;
        self.threshold_ms = self.threshold_ms.clamp(6.0, 600.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ravel_sim::Dur;

    fn delta(var_ms: f64, at_ms: u64) -> PacketGroupDelta {
        PacketGroupDelta {
            delay_variation_ms: var_ms,
            arrival: Time::from_millis(at_ms),
            send_delta: Dur::millis(10),
        }
    }

    /// The window's least-squares slope after `points` are pushed.
    fn fit(points: impl IntoIterator<Item = (f64, f64)>) -> Option<f64> {
        let mut est = TrendlineEstimator::new();
        for (x, y) in points {
            est.push_point(x, y);
        }
        est.linear_fit_slope()
    }

    #[test]
    fn slope_matches_hand_computed_least_squares() {
        // x = 1..4 s, y = 1, 3, 2, 5 ms: means 2.5 and 2.75,
        // Σ(x−x̄)(y−ȳ) = 2.625 − 0.125 − 0.375 + 3.375 = 5.5 and
        // Σ(x−x̄)² = 5, so 1.1 ms/s, reported per 1000 as 0.0011.
        let slope = fit([(1.0, 1.0), (2.0, 3.0), (3.0, 2.0), (4.0, 5.0)]).unwrap();
        assert!((slope - 0.0011).abs() < 1e-15, "{slope}");
        // An exact line y = 2x + 3 has slope 2 ms/s.
        let slope = fit((0..7).map(|i| (i as f64 * 0.01, 2.0 * i as f64 * 0.01 + 3.0))).unwrap();
        assert!((slope - 0.002).abs() < 1e-15, "{slope}");
        // Fewer than two points, or all at one instant, fit nothing.
        assert_eq!(fit([(1.0, 1.0)]), None);
        assert_eq!(fit([(1.0, 1.0), (1.0, 4.0), (1.0, 9.0)]), None);
    }

    #[test]
    fn slope_covers_only_the_last_twenty_points() {
        // y = x² over x = 0..25: the window keeps x = 5..24, whose
        // least-squares slope is 2·x̄ = 2·14.5 = 29 ms/s (the centred
        // square is symmetric about x̄, so it adds nothing).
        let slope = fit((0..25).map(|x| (x as f64, (x * x) as f64))).unwrap();
        assert!((slope - 0.029).abs() < 1e-15, "{slope}");
    }

    proptest::proptest! {
        /// The ring fits exactly what a refit of the last 20 points in
        /// arrival order gives, bit for bit, at every fill level.
        #[test]
        fn ring_fit_is_the_in_order_fit(
            points in proptest::collection::vec((0.0f64..1e3, -1e3f64..1e3), 0..70),
        ) {
            let mut est = TrendlineEstimator::new();
            for (i, &(x, y)) in points.iter().enumerate() {
                est.push_point(x, y);
                let last = &points[(i + 1).saturating_sub(WINDOW)..=i];
                let n = last.len() as f64;
                let mean_x = last.iter().map(|p| p.0).sum::<f64>() / n;
                let mean_y = last.iter().map(|p| p.1).sum::<f64>() / n;
                let num: f64 = last.iter().map(|p| (p.0 - mean_x) * (p.1 - mean_y)).sum();
                let den: f64 = last.iter().map(|p| (p.0 - mean_x) * (p.0 - mean_x)).sum();
                let want = (last.len() >= 2 && den.abs() >= 1e-12).then(|| num / den / 1000.0);
                proptest::prop_assert_eq!(
                    est.linear_fit_slope().map(f64::to_bits),
                    want.map(f64::to_bits),
                    "after point {}",
                    i
                );
            }
        }

        /// Finite packet-group deltas keep the modified trend and γ
        /// finite, and every verdict agrees with the trend against the
        /// γ it was judged by: underuse below −γ, normal within ±γ, and
        /// overuse only above γ (where an unconfirmed rise keeps the
        /// previous verdict, as in libwebrtc).
        #[test]
        fn finite_deltas_keep_trend_finite_and_verdict_valid(
            deltas in proptest::collection::vec((-1f64..1.0, 0u64..200), 0..120),
            log_scale in -2f64..6.0,
        ) {
            // Variations of up to 10^log_scale ms, so a case may be a
            // quiet path or a wild one; about half the groups arrive at
            // the previous group's instant.
            let scale = 10f64.powf(log_scale);
            let mut est = TrendlineEstimator::new();
            let mut at_ms = 0;
            for (i, &(unit, gap_ms)) in deltas.iter().enumerate() {
                at_ms += gap_ms.saturating_sub(100);
                let gamma = est.threshold_ms;
                let verdict = est.update(&delta(unit * scale, at_ms));
                let trend = est.last_trend;
                proptest::prop_assert!(trend.is_finite(), "trend {} after delta {}", trend, i);
                proptest::prop_assert!(
                    (6.0..=600.0).contains(&est.threshold_ms),
                    "threshold {} after delta {}",
                    est.threshold_ms,
                    i
                );
                proptest::prop_assert_eq!(verdict, est.state());
                if trend < -gamma {
                    proptest::prop_assert_eq!(verdict, BandwidthUsage::Underusing);
                }
                if verdict == BandwidthUsage::Overusing {
                    proptest::prop_assert!(trend > gamma, "overuse at trend {} ≤ γ {}", trend, gamma);
                }
                if trend.abs() <= gamma {
                    proptest::prop_assert_eq!(verdict, BandwidthUsage::Normal);
                }
            }
        }
    }

    #[test]
    fn threshold_adapts_with_libwebrtc_gains() {
        let ms = Time::from_millis;
        // γ starts at 12.5 ms. The first update assumes dt = 100 ms;
        // a trend equal to γ leaves it where it is.
        let primed = || {
            let mut est = TrendlineEstimator::new();
            est.adapt_threshold(12.5, ms(0));
            assert_eq!(est.threshold_ms, 12.5);
            est
        };
        // 5 ms later, a trend of 20 (above γ) raises γ with k_up:
        // 12.5 + 0.0087 · (20 − 12.5) · 5 = 12.82625.
        let mut est = primed();
        est.adapt_threshold(20.0, ms(5));
        assert!((est.threshold_ms - 12.82625).abs() < 1e-12);
        // A trend of −10 (|−10| below γ) lowers it with k_down:
        // 12.5 + 0.039 · (10 − 12.5) · 5 = 12.0125.
        let mut est = primed();
        est.adapt_threshold(-10.0, ms(5));
        assert!((est.threshold_ms - 12.0125).abs() < 1e-12);
        // A trend more than 15 ms above γ is an outlier: γ stays, but
        // the clock moves, so the next step spans 5 ms, not 10.
        let mut est = primed();
        est.adapt_threshold(28.0, ms(5));
        assert_eq!(est.threshold_ms, 12.5);
        est.adapt_threshold(20.0, ms(10));
        assert!((est.threshold_ms - 12.82625).abs() < 1e-12);
        // Steps longer than 100 ms count as 100 ms:
        // 12.5 + 0.0087 · 1 · 100 = 13.37.
        let mut est = primed();
        est.adapt_threshold(13.5, ms(500));
        assert!((est.threshold_ms - 13.37).abs() < 1e-12);
        // γ never leaves [6, 600]: 12.5 − 0.039 · 12.5 · 100 < 6.
        let mut est = primed();
        est.adapt_threshold(0.0, ms(100));
        assert_eq!(est.threshold_ms, 6.0);
    }

    #[test]
    fn overuse_needs_two_samples_over_ten_milliseconds() {
        let ms = Time::from_millis;
        let mut est = TrendlineEstimator::new();
        // Above γ = 12.5 once: one sample is not enough.
        est.detect(20.0, ms(0));
        assert_eq!(est.state(), BandwidthUsage::Normal);
        // Twice, but only 5 ms apart: not yet sustained.
        est.detect(20.0, ms(5));
        assert_eq!(est.state(), BandwidthUsage::Normal);
        // Three samples spanning 10 ms: overuse.
        est.detect(20.0, ms(10));
        assert_eq!(est.state(), BandwidthUsage::Overusing);
        // A trend inside ±γ resets the hypothesis; a single later
        // sample above γ, 20 ms on, cannot restore overuse alone.
        est.detect(0.0, ms(15));
        assert_eq!(est.state(), BandwidthUsage::Normal);
        est.detect(20.0, ms(35));
        assert_eq!(est.state(), BandwidthUsage::Normal);
        // Below −γ is underuse at once.
        est.detect(-13.0, ms(40));
        assert_eq!(est.state(), BandwidthUsage::Underusing);
    }

    #[test]
    fn stable_path_is_normal() {
        let mut est = TrendlineEstimator::new();
        for i in 0..100 {
            let s = est.update(&delta(0.0, i * 10));
            assert_eq!(s, BandwidthUsage::Normal);
        }
    }

    #[test]
    fn growing_queue_detected_as_overuse() {
        let mut est = TrendlineEstimator::new();
        // Warm up stable.
        for i in 0..30 {
            est.update(&delta(0.0, i * 10));
        }
        // Queue grows 5 ms per group — a clear capacity drop signature.
        let mut overused = false;
        for i in 30..60 {
            if est.update(&delta(5.0, i * 10)) == BandwidthUsage::Overusing {
                overused = true;
                break;
            }
        }
        assert!(overused, "never detected overuse; trend {}", est.last_trend);
    }

    #[test]
    fn draining_queue_detected_as_underuse() {
        let mut est = TrendlineEstimator::new();
        for i in 0..30 {
            est.update(&delta(0.0, i * 10));
        }
        let mut underused = false;
        for i in 30..60 {
            if est.update(&delta(-5.0, i * 10)) == BandwidthUsage::Underusing {
                underused = true;
                break;
            }
        }
        assert!(underused);
    }

    #[test]
    fn overuse_requires_sustained_trend() {
        let mut est = TrendlineEstimator::new();
        for i in 0..30 {
            est.update(&delta(0.0, i * 10));
        }
        // One spiky group must not trigger.
        let s = est.update(&delta(30.0, 300));
        assert_ne!(s, BandwidthUsage::Overusing);
    }

    #[test]
    fn threshold_adapts_down_on_quiet_path() {
        let mut est = TrendlineEstimator::new();
        let initial = est.threshold_ms;
        for i in 0..300 {
            est.update(&delta(0.0, i * 10));
        }
        assert!(est.threshold_ms < initial);
        assert!(est.threshold_ms >= 6.0);
    }

    #[test]
    fn recovery_returns_to_normal() {
        let mut est = TrendlineEstimator::new();
        for i in 0..30 {
            est.update(&delta(0.0, i * 10));
        }
        for i in 30..60 {
            est.update(&delta(5.0, i * 10));
        }
        // Drain, then stabilize.
        for i in 60..90 {
            est.update(&delta(-5.0, i * 10));
        }
        for i in 90..150 {
            est.update(&delta(0.0, i * 10));
        }
        assert_eq!(est.state(), BandwidthUsage::Normal);
    }
}
