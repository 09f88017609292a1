//! Streaming moments and exact percentiles.

/// Welford-style streaming mean with min/max.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    min: f64,
    max: f64,
    /// Non-finite samples (NaN, ±inf), rejected rather than folded in.
    rejected: u64,
}

impl RunningStats {
    /// Creates empty stats.
    pub fn new() -> RunningStats {
        RunningStats {
            count: 0,
            mean: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            rejected: 0,
        }
    }

    /// Adds one sample. Non-finite samples are counted as rejected
    /// instead of being folded in: one NaN would otherwise poison the
    /// mean, min and max for the rest of the stream (a `debug_assert`
    /// alone lets release builds corrupt silently).
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            self.rejected += 1;
            return;
        }
        self.count += 1;
        self.mean += (x - self.mean) / self.count as f64;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Smallest sample (+∞ when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample (−∞ when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Non-finite samples rejected by [`RunningStats::push`].
    pub fn rejected(&self) -> u64 {
        self.rejected
    }
}

/// The type-7 `q`-quantile of `n > 0` ranked samples, where `ranked(i)`
/// is the `i`-th smallest. The one interpolation every percentile in the
/// crate goes through, so two callers that rank the same values agree
/// bit for bit.
pub(crate) fn interpolate(n: usize, q: f64, ranked: impl Fn(usize) -> f64) -> f64 {
    let pos = q * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    ranked(lo) * (1.0 - frac) + ranked(hi) * frac
}

/// Exact percentiles over a retained sample set.
///
/// Retains all samples (experiments are bounded); uses the
/// nearest-rank-with-interpolation definition (type 7, the numpy
/// default).
#[derive(Debug, Clone, Default)]
pub struct Percentiles {
    samples: Vec<f64>,
    sorted: bool,
    rejected: u64,
}

impl Percentiles {
    /// Creates an empty collector.
    pub fn new() -> Percentiles {
        Percentiles::default()
    }

    /// Adds one sample. Non-finite samples are rejected (counted, not
    /// retained): a single NaN would otherwise panic the comparison
    /// sort inside [`Percentiles::quantile`].
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            self.rejected += 1;
            return;
        }
        self.samples.push(x);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Non-finite samples rejected by [`Percentiles::push`].
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// The `q`-quantile for `q` in `[0, 1]`, or `None` when empty.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        if self.samples.is_empty() {
            return None;
        }
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
            self.sorted = true;
        }
        Some(interpolate(self.samples.len(), q, |i| self.samples[i]))
    }

    /// Convenience: the median.
    pub fn p50(&mut self) -> Option<f64> {
        self.quantile(0.50)
    }

    /// Convenience: the 95th percentile.
    pub fn p95(&mut self) -> Option<f64> {
        self.quantile(0.95)
    }

    /// Convenience: the 99th percentile.
    pub fn p99(&mut self) -> Option<f64> {
        self.quantile(0.99)
    }

    /// Mean of all samples.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_stats_moments() {
        let mut s = RunningStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn running_stats_empty() {
        let s = RunningStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn running_stats_rejects_non_finite_without_poisoning() {
        let mut s = RunningStats::new();
        s.push(2.0);
        // Regression: in release builds these used to sail past the
        // debug_assert and poison mean/min/max with NaN forever.
        s.push(f64::NAN);
        s.push(f64::INFINITY);
        s.push(f64::NEG_INFINITY);
        s.push(4.0);
        assert_eq!(s.count(), 2);
        assert_eq!(s.rejected(), 3);
        assert!((s.mean() - 3.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 4.0);
    }

    #[test]
    fn percentiles_reject_non_finite() {
        let mut p = Percentiles::new();
        p.push(1.0);
        p.push(f64::NAN);
        p.push(3.0);
        assert_eq!(p.count(), 2);
        assert_eq!(p.rejected(), 1);
        // The sort inside quantile() must survive the NaN push.
        assert_eq!(p.p50(), Some(2.0));
    }

    #[test]
    fn percentiles_known_values() {
        let mut p = Percentiles::new();
        for i in 1..=100 {
            p.push(i as f64);
        }
        assert!((p.p50().unwrap() - 50.5).abs() < 1e-9);
        assert!((p.quantile(0.0).unwrap() - 1.0).abs() < 1e-12);
        assert!((p.quantile(1.0).unwrap() - 100.0).abs() < 1e-12);
        assert!((p.p95().unwrap() - 95.05).abs() < 1e-9);
    }

    #[test]
    fn percentiles_interleaved_push_and_query() {
        let mut p = Percentiles::new();
        p.push(10.0);
        assert_eq!(p.p50(), Some(10.0));
        p.push(20.0);
        assert_eq!(p.p50(), Some(15.0));
        p.push(0.0);
        assert_eq!(p.p50(), Some(10.0));
    }

    #[test]
    fn percentiles_empty() {
        let mut p = Percentiles::new();
        assert_eq!(p.p50(), None);
        assert_eq!(p.mean(), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn quantile_range_checked() {
        Percentiles::new().quantile(1.5);
    }

    proptest::proptest! {
        /// Quantiles are monotone in q and bounded by min/max.
        #[test]
        fn quantile_monotone(mut xs in proptest::collection::vec(-1e6f64..1e6, 2..200),
                             q1 in 0.0f64..1.0, q2 in 0.0f64..1.0) {
            let mut p = Percentiles::new();
            for &x in &xs {
                p.push(x);
            }
            let (lo, hi) = if q1 < q2 { (q1, q2) } else { (q2, q1) };
            let v_lo = p.quantile(lo).unwrap();
            let v_hi = p.quantile(hi).unwrap();
            proptest::prop_assert!(v_lo <= v_hi + 1e-9);
            xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            proptest::prop_assert!(v_lo >= xs[0] - 1e-9);
            proptest::prop_assert!(v_hi <= xs[xs.len() - 1] + 1e-9);
        }
    }
}
