//! Time-series recording for experiment output.
//!
//! Every ravel experiment produces figures as `(time, value)` series —
//! send rate, link capacity, queue delay, encoder target. [`TimeSeries`]
//! is the shared recorder; [`SeriesSet`] holds the series of one
//! simulation run, one fixed slot per [`Series`] kind. [`window_means`]
//! averages any time-ordered points, a series' or a frame recorder's,
//! over a run of windows.

use std::collections::VecDeque;
use std::fmt;

use crate::coding::{ByteReader, ByteStore, Xor};
use crate::time::Time;

/// A single `(time, value)` series, held in a [`ByteStore`] and decoded
/// only when read.
///
/// Each point is a record of a header byte, then the time step, then the value:
///
/// * the header is the value's [`Xor`] header (the count of trailing
///   zero bytes trimmed from the XOR of its bits with the previous
///   value's, and of bytes kept), with bit 7 set when the time step
///   from the previous point equals the previous step;
/// * the step in µs is a LEB128 varint, present only when bit 7 is
///   clear (a series sampled at a fixed cadence almost never has one);
/// * the value is the kept XOR bytes, little-endian.
///
/// Values read back bit for bit (NaN payloads, ±inf and −0.0
/// included). The encoding depends only on the points, so two series
/// compare equal when their bytes do.
#[derive(Clone, Default)]
pub struct TimeSeries {
    store: ByteStore,
    /// What the next point is encoded against.
    last: Context,
}

/// Header bit: the point's time step equals the previous point's.
const SAME_STEP: u8 = 0x80;

/// The state each point is encoded against, and decoded with: the
/// previous time, the step that reached it, and the previous value's
/// bits.
#[derive(Debug, Clone, Copy, Default)]
struct Context {
    at_us: u64,
    step_us: u64,
    bits: u64,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> TimeSeries {
        TimeSeries::default()
    }

    /// Appends a sample. Samples must be pushed in non-decreasing time
    /// order; out-of-order pushes panic because they indicate a model bug.
    pub fn push(&mut self, at: Time, value: f64) {
        let at_us = at.as_micros();
        let last = &mut self.last;
        assert!(at_us >= last.at_us, "time series sample out of order");
        let step_us = at_us - last.at_us;
        let xor = Xor::new(&mut last.bits, value.to_bits());
        let same_step = step_us == last.step_us;
        self.store.append(|s| {
            if same_step {
                s.put(xor.header | SAME_STEP);
            } else {
                s.put(xor.header);
                s.put_varint(step_us);
            }
            s.put_low_bytes(xor.value, xor.kept);
        });
        last.at_us = at_us;
        last.step_us = step_us;
    }

    /// All samples in time order, decoded as they are reached.
    pub fn points(&self) -> Points<'_> {
        Points {
            reader: self.store.reader(),
            last: Context::default(),
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Mean over the samples that fall in `[from, to)`, summed in time
    /// order; 0.0 when none do. Decoding stops at the window's end.
    pub fn mean_in(&self, from: Time, to: Time) -> f64 {
        mean(
            self.points()
                .skip_while(|&(t, _)| t < from)
                .take_while(|&(t, _)| t < to)
                .map(|(_, v)| v),
        )
    }
}

/// The mean of the `points` in each window `[from, to)` in turn, each
/// summed in time order and 0.0 when none fall in it (for one window,
/// [`TimeSeries::mean_in`]). `points` must be in non-decreasing time
/// order and is read once. Windows may overlap, but neither end may
/// move backwards from one window to the next; only the points of the
/// current window are held.
pub fn window_means(
    points: impl IntoIterator<Item = (Time, f64)>,
    windows: impl IntoIterator<Item = (Time, Time)>,
) -> Vec<f64> {
    let mut points = points.into_iter().peekable();
    let mut held = VecDeque::new();
    let mut prev = (Time::ZERO, Time::ZERO);
    windows
        .into_iter()
        .map(|(from, to)| {
            assert!(
                from >= prev.0 && to >= prev.1,
                "windows must not move backwards"
            );
            prev = (from, to);
            // Every held point is before the previous window's end, so
            // before this one's.
            while let Some(p) = points.next_if(|&(t, _)| t < to) {
                held.push_back(p);
            }
            while held.front().is_some_and(|&(t, _)| t < from) {
                held.pop_front();
            }
            mean(held.iter().map(|&(_, v)| v))
        })
        .collect()
}

/// The mean of `values`, 0.0 when there are none. The sum is the
/// iterator's, in order, so every way of reading a window agrees to
/// the bit.
fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let mut n = 0usize;
    let sum: f64 = values.inspect(|_| n += 1).sum();
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Equal series hold equal bytes, which decode to equal points bit for
/// bit.
impl PartialEq for TimeSeries {
    fn eq(&self, other: &TimeSeries) -> bool {
        self.store == other.store
    }
}

impl fmt::Debug for TimeSeries {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.points()).finish()
    }
}

/// Iterator over a series' samples, oldest first, decoding each one as
/// it is reached. Returned by [`TimeSeries::points`]; cloning it is
/// cheap and resumes from the same sample.
#[derive(Debug, Clone)]
pub struct Points<'a> {
    reader: ByteReader<'a>,
    last: Context,
}

impl Iterator for Points<'_> {
    type Item = (Time, f64);

    fn next(&mut self) -> Option<(Time, f64)> {
        if !self.reader.next_record() {
            return None;
        }
        let last = &mut self.last;
        let header = self.reader.byte();
        if header & SAME_STEP == 0 {
            last.step_us = self.reader.varint();
        }
        last.at_us += last.step_us;
        let value = self.reader.xor(&mut last.bits, header);
        Some((Time::from_micros(last.at_us), value))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.reader.left();
        (left, Some(left))
    }
}

impl ExactSizeIterator for Points<'_> {}

/// The series a session records, declared in name order: the order
/// [`SeriesSet::iter`] yields them in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Series {
    /// Link capacity at each accepted feedback report, bits/s.
    CapacityBps,
    /// Link queueing delay at each accepted report, ms.
    LinkQueueMs,
    /// Each encoded frame's size times the frame rate, bits/s.
    SendRateBps,
    /// The encoder target after every retarget, bits/s.
    TargetBps,
}

impl Series {
    /// Every kind, in name order.
    pub const ALL: [Series; 4] = [
        Series::CapacityBps,
        Series::LinkQueueMs,
        Series::SendRateBps,
        Series::TargetBps,
    ];

    /// The series' name in figures and reports.
    pub fn name(self) -> &'static str {
        match self {
            Series::CapacityBps => "capacity_bps",
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

    /// Frees the spare capacity of every series' last chunk, so a
    /// finished run's series hold little more than their points. Later
    /// pushes still work.
    pub fn trim(&mut self) {
        for s in &mut self.slots {
            s.store.trim();
        }
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
    use proptest::prelude::*;

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
        assert_eq!(s.points().last(), Some((ms(20), 5.0)));
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
        set.push(Series::TargetBps, ms(0), 1e6);
        set.push(Series::TargetBps, ms(10), 2e6);
        set.push(Series::CapacityBps, ms(0), 4e6);
        let names: Vec<&str> = set.iter().map(|(s, _)| s.name()).collect();
        assert_eq!(names, ["capacity_bps", "target_bps"]);
        assert_eq!(set.get(Series::TargetBps).map(TimeSeries::len), Some(2));
        assert!(set.get(Series::LinkQueueMs).is_none());
    }

    #[test]
    fn window_means_match_mean_in_one_window_at_a_time() {
        let mut s = TimeSeries::new();
        let mut at = 0;
        for i in 0..200u64 {
            // Irregular steps, repeated instants and -0.0 runs.
            at += (i % 4) * 3 + i % 7;
            let v = if i % 17 < 3 {
                -0.0
            } else {
                (i as f64).sin() * 1e6
            };
            s.push(ms(at), v);
        }
        let windows: Vec<(Time, Time)> = (0..160u64)
            .map(|k| (ms(k * 10), ms(k * 10 + 25 + k % 4)))
            .collect();
        let means = window_means(s.points(), windows.iter().copied());
        assert_eq!(means.len(), windows.len());
        for (&(from, to), got) in windows.iter().zip(&means) {
            assert_eq!(
                got.to_bits(),
                s.mean_in(from, to).to_bits(),
                "[{from}, {to})"
            );
        }
        assert_eq!(window_means(s.points(), [(ms(5_000), ms(6_000))]), [0.0]);
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn window_means_refuse_a_window_that_moves_back() {
        window_means([], [(ms(10), ms(20)), (ms(5), ms(20))]);
    }

    #[test]
    fn a_fixed_cadence_point_with_a_repeated_value_takes_one_byte() {
        let mut s = TimeSeries::new();
        for i in 0..100 {
            s.push(ms(33 * i), 4e6);
        }
        assert_eq!(s.clone(), s);
        // The first two points carry their steps and the first value.
        let bytes = s.store.byte_len();
        assert!(bytes <= 100 + 2 + 8, "{bytes} bytes");
    }

    /// Float bit patterns that must survive exactly.
    const EDGES: [u64; 8] = [
        0x0000_0000_0000_0000,
        0x8000_0000_0000_0000,
        0x0000_0000_0000_0001,
        0x7ff0_0000_0000_0000,
        0xfff0_0000_0000_0000,
        0x7ff8_0000_0000_0000,
        0x7ff0_0000_dead_beef,
        0xfff8_0000_0000_0001,
    ];

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn every_point_round_trips_bit_for_bit(
            rows in proptest::collection::vec((0u64..u64::MAX, 0u64..u64::MAX, 0u64..8), 0..120)
        ) {
            // Steps repeat, stay at zero, vary or jump near u64::MAX;
            // values are edge patterns, repeats, round numbers or noise.
            let mut at = 0u64;
            let mut step = 0u64;
            let mut value = 0u64;
            let mut want = Vec::new();
            for &(a, b, pick) in &rows {
                step = match a % 5 {
                    0 => step,
                    1 => 0,
                    2 => a % 100_000,
                    3 => (u64::MAX - at) / 2,
                    _ => u64::MAX - at,
                }
                .min(u64::MAX - at);
                at += step;
                value = match pick {
                    0 | 1 => EDGES[(b % 8) as usize],
                    2 => value,
                    3 => ((b % 10_000) as f64 * 1e3).to_bits(),
                    _ => b,
                };
                want.push((at, value));
            }
            let mut s = TimeSeries::new();
            for &(at, bits) in &want {
                s.push(Time::from_micros(at), f64::from_bits(bits));
            }
            prop_assert_eq!(s.len(), want.len());
            let points = s.points();
            prop_assert_eq!(points.len(), want.len());
            let got: Vec<(u64, u64)> = points.map(|(t, v)| (t.as_micros(), v.to_bits())).collect();
            prop_assert_eq!(got, want);
        }
    }
}
