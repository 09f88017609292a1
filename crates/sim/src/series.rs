//! Time-series recording for experiment output.
//!
//! Every ravel experiment produces figures as `(time, value)` series —
//! send rate, link capacity, queue delay, frame latency. [`TimeSeries`]
//! is the shared recorder; [`SeriesSet`] groups the series of one
//! simulation run and renders them as CSV for EXPERIMENTS.md.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::time::Time;

/// A single named `(time, value)` series.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    points: Vec<(Time, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> TimeSeries {
        TimeSeries { points: Vec::new() }
    }

    /// Creates an empty series with room for `capacity` samples, so
    /// per-feedback recording loops don't pay repeated reallocation.
    pub fn with_capacity(capacity: usize) -> TimeSeries {
        TimeSeries {
            points: Vec::with_capacity(capacity),
        }
    }

    /// Appends a sample. Samples must be pushed in non-decreasing time
    /// order; out-of-order pushes panic because they indicate a model bug.
    pub fn push(&mut self, at: Time, value: f64) {
        if let Some(&(last, _)) = self.points.last() {
            assert!(at >= last, "time series sample out of order");
        }
        self.points.push((at, value));
    }

    /// All samples in time order.
    pub fn points(&self) -> &[(Time, f64)] {
        &self.points
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Mean of all sample values (0.0 for an empty series).
    pub fn mean(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|&(_, v)| v).sum::<f64>() / self.points.len() as f64
    }

    /// Maximum sample value.
    pub fn max(&self) -> f64 {
        self.points
            .iter()
            .map(|&(_, v)| v)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Minimum sample value.
    pub fn min(&self) -> f64 {
        self.points
            .iter()
            .map(|&(_, v)| v)
            .fold(f64::INFINITY, f64::min)
    }

    /// Last sample value, if any.
    pub fn last(&self) -> Option<f64> {
        self.points.last().map(|&(_, v)| v)
    }

    /// Mean over the samples that fall in `[from, to)`. Points are in
    /// time order, so the window is located by binary search and summed
    /// in place — no intermediate allocation.
    pub fn mean_in(&self, from: Time, to: Time) -> f64 {
        let start = self.points.partition_point(|&(t, _)| t < from);
        let end = start + self.points[start..].partition_point(|&(t, _)| t < to);
        let window = &self.points[start..end];
        if window.is_empty() {
            0.0
        } else {
            window.iter().map(|&(_, v)| v).sum::<f64>() / window.len() as f64
        }
    }
}

/// A named collection of series belonging to one simulation run.
#[derive(Debug, Clone, Default)]
pub struct SeriesSet {
    series: BTreeMap<String, TimeSeries>,
}

impl SeriesSet {
    /// Creates an empty set.
    pub fn new() -> SeriesSet {
        SeriesSet::default()
    }

    /// Appends a sample to the named series, creating it on first use.
    /// The common case (series already exists) borrows `name` without
    /// allocating; only the first sample of a series pays `to_owned`.
    pub fn push(&mut self, name: &str, at: Time, value: f64) {
        if let Some(series) = self.series.get_mut(name) {
            series.push(at, value);
        } else {
            let mut series = TimeSeries::with_capacity(256);
            series.push(at, value);
            self.series.insert(name.to_owned(), series);
        }
    }

    /// Looks up a series by name.
    pub fn get(&self, name: &str) -> Option<&TimeSeries> {
        self.series.get(name)
    }

    /// Iterates over `(name, series)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &TimeSeries)> {
        self.series.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Names of all recorded series, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.series.keys().map(String::as_str).collect()
    }

    /// Renders one series as `time_s,value` CSV lines with a header.
    pub fn to_csv(&self, name: &str) -> Option<String> {
        let s = self.series.get(name)?;
        let mut out = String::with_capacity(s.len() * 16 + 32);
        let _ = writeln!(out, "time_s,{name}");
        for &(t, v) in s.points() {
            let _ = writeln!(out, "{:.6},{v}", t.as_secs_f64());
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Time {
        Time::from_millis(v)
    }

    #[test]
    fn push_and_stats() {
        let mut s = TimeSeries::new();
        s.push(ms(0), 1.0);
        s.push(ms(10), 3.0);
        s.push(ms(20), 5.0);
        assert_eq!(s.len(), 3);
        assert!((s.mean() - 3.0).abs() < 1e-12);
        assert_eq!(s.max(), 5.0);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.last(), Some(5.0));
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn out_of_order_panics() {
        let mut s = TimeSeries::new();
        s.push(ms(10), 1.0);
        s.push(ms(5), 2.0);
    }

    #[test]
    fn equal_time_samples_allowed() {
        let mut s = TimeSeries::new();
        s.push(ms(10), 1.0);
        s.push(ms(10), 2.0);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn mean_in_window() {
        let mut s = TimeSeries::new();
        for i in 0..10 {
            s.push(ms(i * 10), i as f64);
        }
        // window [20ms, 50ms) covers samples 2,3,4
        assert!((s.mean_in(ms(20), ms(50)) - 3.0).abs() < 1e-12);
        assert_eq!(s.mean_in(ms(500), ms(600)), 0.0);
    }

    #[test]
    fn series_set_roundtrip() {
        let mut set = SeriesSet::new();
        set.push("rate", ms(0), 1e6);
        set.push("rate", ms(10), 2e6);
        set.push("delay", ms(0), 0.04);
        assert_eq!(set.names(), vec!["delay", "rate"]);
        let csv = set.to_csv("rate").unwrap();
        assert!(csv.starts_with("time_s,rate\n"));
        assert_eq!(csv.lines().count(), 3);
        assert!(set.to_csv("missing").is_none());
    }
}
