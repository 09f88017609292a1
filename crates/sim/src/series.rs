//! Time-series recording for experiment output.
//!
//! Every ravel experiment produces figures as `(time, value)` series —
//! send rate, link capacity, queue delay, frame latency. [`TimeSeries`]
//! is the shared recorder; [`SeriesSet`] holds the series of one
//! simulation run, one fixed slot per [`Series`] kind.

use crate::time::Time;

/// A single `(time, value)` series.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    points: Vec<(Time, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> TimeSeries {
        TimeSeries { points: Vec::new() }
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

/// The series a session records, declared in name order: the order
/// [`SeriesSet::iter`] yields them in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Series {
    /// Link capacity at each accepted feedback report, bits/s.
    CapacityBps,
    /// Each received frame's latency, at its capture time, ms.
    FrameLatencyMs,
    /// Link queueing delay at each accepted report, ms.
    LinkQueueMs,
    /// Each encoded frame's size times the frame rate, bits/s.
    SendRateBps,
    /// The encoder target after every retarget, bits/s.
    TargetBps,
}

impl Series {
    /// Every kind, in name order.
    pub const ALL: [Series; 5] = [
        Series::CapacityBps,
        Series::FrameLatencyMs,
        Series::LinkQueueMs,
        Series::SendRateBps,
        Series::TargetBps,
    ];

    /// The series' name in figures and reports.
    pub fn name(self) -> &'static str {
        match self {
            Series::CapacityBps => "capacity_bps",
            Series::FrameLatencyMs => "frame_latency_ms",
            Series::LinkQueueMs => "link_queue_ms",
            Series::SendRateBps => "send_rate_bps",
            Series::TargetBps => "target_bps",
        }
    }
}

/// The series of one simulation run, one slot per [`Series`]. A series
/// counts as recorded once it holds a sample.
#[derive(Debug, Clone, Default)]
pub struct SeriesSet {
    slots: [TimeSeries; Series::ALL.len()],
}

impl SeriesSet {
    /// Creates an empty set.
    pub fn new() -> SeriesSet {
        SeriesSet::default()
    }

    /// Makes room for `additional` more samples of `series`, so a run
    /// that can estimate its sample counts up front rarely reallocates.
    pub fn reserve(&mut self, series: Series, additional: usize) {
        self.slots[series as usize].points.reserve_exact(additional);
    }

    /// Appends a sample to `series`.
    #[inline]
    pub fn push(&mut self, series: Series, at: Time, value: f64) {
        self.slots[series as usize].push(at, value);
    }

    /// `series`, if it holds a sample.
    pub fn get(&self, series: Series) -> Option<&TimeSeries> {
        Some(&self.slots[series as usize]).filter(|s| !s.is_empty())
    }

    /// Iterates over the recorded series in name order.
    pub fn iter(&self) -> impl Iterator<Item = (Series, &TimeSeries)> {
        Series::ALL
            .into_iter()
            .zip(&self.slots)
            .filter(|(_, s)| !s.is_empty())
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
        assert_eq!(s.points().last(), Some(&(ms(20), 5.0)));
        assert!((s.mean_in(ms(0), ms(30)) - 3.0).abs() < 1e-12);
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
    fn series_are_declared_in_name_order() {
        for (i, pair) in Series::ALL.windows(2).enumerate() {
            assert!(pair[0].name() < pair[1].name(), "{pair:?}");
            assert_eq!(pair[0] as usize, i);
        }
    }

    #[test]
    fn series_set_roundtrip() {
        let mut set = SeriesSet::new();
        set.reserve(Series::TargetBps, 8);
        assert!(
            set.get(Series::TargetBps).is_none(),
            "reserved is not recorded"
        );
        set.push(Series::TargetBps, ms(0), 1e6);
        set.push(Series::TargetBps, ms(10), 2e6);
        set.push(Series::CapacityBps, ms(0), 4e6);
        let names: Vec<&str> = set.iter().map(|(s, _)| s.name()).collect();
        assert_eq!(names, ["capacity_bps", "target_bps"]);
        assert_eq!(set.get(Series::TargetBps).map(TimeSeries::len), Some(2));
        assert!(set.get(Series::LinkQueueMs).is_none());
    }
}
