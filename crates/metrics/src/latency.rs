//! Per-frame latency and quality accounting.
//!
//! The paper's primary metric is per-frame glass-to-glass latency —
//! capture timestamp to display instant — and its summary statistics
//! over a measurement window. [`LatencyRecorder`] collects one
//! [`FrameRecord`] per frame slot and produces a [`LatencySummary`]
//! over any time window (experiments window around the drop instant).

use std::sync::OnceLock;

use ravel_sim::{Dur, Time};

use crate::stats::{interpolate, RunningStats};

/// How one frame slot ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameOutcomeKind {
    /// Displayed on time.
    Displayed,
    /// Never displayed: lost, too late, undecodable, or skipped at the
    /// sender.
    Frozen,
}

/// One frame slot's measurements, as a session reports them. The
/// recorder stores each one as a 32-byte [`PackedFrameRecord`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameRecord {
    /// Capture timestamp.
    pub pts: Time,
    /// Displayed or frozen.
    pub outcome: FrameOutcomeKind,
    /// Glass-to-glass latency for displayed frames.
    pub latency: Option<Dur>,
    /// SSIM the viewer experienced for this slot.
    pub ssim: f64,
    /// PSNR for displayed frames (dB).
    pub psnr_db: Option<f64>,
}

/// Largest pts, in µs, a [`PackedFrameRecord`] holds: 2^61 − 1 µs, about
/// 73 000 years of session.
const PTS_MAX_US: u64 = (1 << 61) - 1;
const LATENCY_BIT: u64 = 1 << 61;
const DISPLAYED_BIT: u64 = 1 << 62;
const PSNR_BIT: u64 = 1 << 63;

/// One frame slot's measurements in 32 bytes, losslessly: pts in µs and
/// three presence/outcome flags share one word, the latency is whole
/// µs, and SSIM and PSNR keep their raw `f64` bits (NaN and ±inf
/// included, so the finite-metrics check still sees them). An absent
/// latency or PSNR is stored as zero, so equal records compare equal
/// bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedFrameRecord {
    /// Bits 0–60: pts in µs; bit 61: latency present; bit 62:
    /// displayed; bit 63: PSNR present.
    pts_flags: u64,
    latency_us: u64,
    ssim_bits: u64,
    psnr_bits: u64,
}

const _: () = assert!(std::mem::size_of::<PackedFrameRecord>() == 32);

impl PackedFrameRecord {
    /// Packs one slot's measurements.
    ///
    /// # Panics
    ///
    /// If `pts` is at or beyond 2^61 µs.
    pub fn new(
        pts: Time,
        outcome: FrameOutcomeKind,
        latency: Option<Dur>,
        ssim: f64,
        psnr_db: Option<f64>,
    ) -> PackedFrameRecord {
        let pts_us = pts.as_micros();
        assert!(
            pts_us <= PTS_MAX_US,
            "frame pts {pts_us} µs is beyond the packed record's 2^61 µs range"
        );
        let mut pts_flags = pts_us;
        if latency.is_some() {
            pts_flags |= LATENCY_BIT;
        }
        if outcome == FrameOutcomeKind::Displayed {
            pts_flags |= DISPLAYED_BIT;
        }
        if psnr_db.is_some() {
            pts_flags |= PSNR_BIT;
        }
        PackedFrameRecord {
            pts_flags,
            latency_us: latency.map_or(0, Dur::as_micros),
            ssim_bits: ssim.to_bits(),
            psnr_bits: psnr_db.map_or(0, f64::to_bits),
        }
    }

    /// Capture timestamp.
    pub fn pts(&self) -> Time {
        Time::from_micros(self.pts_flags & PTS_MAX_US)
    }

    /// Displayed or frozen.
    pub fn outcome(&self) -> FrameOutcomeKind {
        if self.pts_flags & DISPLAYED_BIT != 0 {
            FrameOutcomeKind::Displayed
        } else {
            FrameOutcomeKind::Frozen
        }
    }

    /// Glass-to-glass latency for frames that arrived.
    pub fn latency(&self) -> Option<Dur> {
        (self.pts_flags & LATENCY_BIT != 0).then_some(Dur::micros(self.latency_us))
    }

    /// SSIM the viewer experienced for this slot.
    pub fn ssim(&self) -> f64 {
        f64::from_bits(self.ssim_bits)
    }

    /// PSNR for displayed frames (dB).
    pub fn psnr_db(&self) -> Option<f64> {
        (self.pts_flags & PSNR_BIT != 0).then_some(f64::from_bits(self.psnr_bits))
    }

    /// True when every float in the record is finite and the SSIM is a
    /// valid similarity (in `[0, 1]`). The session's finite-metrics
    /// invariant checks this before the record can poison a summary.
    pub fn is_finite(&self) -> bool {
        let ssim = self.ssim();
        ssim.is_finite() && (0.0..=1.0).contains(&ssim) && self.psnr_db().is_none_or(f64::is_finite)
    }
}

/// Aggregated latency/quality over a window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Frame slots in the window.
    pub frames: u64,
    /// Slots that displayed fresh frames.
    pub displayed: u64,
    /// Slots that froze.
    pub frozen: u64,
    /// Mean G2G latency of displayed frames, ms.
    pub mean_latency_ms: f64,
    /// Median G2G latency, ms.
    pub p50_latency_ms: f64,
    /// 95th-percentile G2G latency, ms.
    pub p95_latency_ms: f64,
    /// 99th-percentile G2G latency, ms.
    pub p99_latency_ms: f64,
    /// Maximum G2G latency, ms.
    pub max_latency_ms: f64,
    /// Mean per-slot SSIM (displayed + frozen).
    pub mean_ssim: f64,
    /// Mean PSNR of displayed frames, dB.
    pub mean_psnr_db: f64,
    /// Non-finite samples the underlying collectors rejected instead of
    /// folding in (latency, SSIM and PSNR streams combined). Zero on
    /// every healthy session; a nonzero value means some stage emitted
    /// NaN/±inf and the means above silently exclude those slots.
    pub rejected: u64,
}

impl LatencySummary {
    /// Freeze ratio in the window.
    pub fn freeze_ratio(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.frozen as f64 / self.frames as f64
        }
    }
}

/// Collects per-frame records across a session.
#[derive(Debug, Clone, Default)]
pub struct LatencyRecorder {
    records: Vec<PackedFrameRecord>,
    /// The whole-session summary, computed by the first
    /// [`LatencyRecorder::summarize_all`] and cleared by every `push`, so
    /// all readers of a finished session share one computation.
    whole: OnceLock<LatencySummary>,
}

impl LatencyRecorder {
    /// Creates an empty recorder.
    pub fn new() -> LatencyRecorder {
        LatencyRecorder::default()
    }

    /// Creates an empty recorder with room for `capacity` frame slots
    /// (the session knows its frame count up front).
    pub fn with_capacity(capacity: usize) -> LatencyRecorder {
        LatencyRecorder {
            records: Vec::with_capacity(capacity),
            whole: OnceLock::new(),
        }
    }

    /// Appends one frame slot (pts must be non-decreasing).
    pub fn push(&mut self, record: FrameRecord) {
        if let Some(last) = self.records.last() {
            assert!(record.pts >= last.pts(), "frame records out of order");
        }
        self.whole.take();
        self.records.push(PackedFrameRecord::new(
            record.pts,
            record.outcome,
            record.latency,
            record.ssim,
            record.psnr_db,
        ));
    }

    /// All records, in pts order.
    pub fn records(&self) -> &[PackedFrameRecord] {
        &self.records
    }

    /// Summarizes frames with `from <= pts < to`.
    pub fn summarize(&self, from: Time, to: Time) -> LatencySummary {
        // `push` keeps the records sorted by pts, so the window is one
        // contiguous run.
        let start = self.records.partition_point(|r| r.pts() < from);
        let end = start + self.records[start..].partition_point(|r| r.pts() < to);
        let window = &self.records[start..end];
        let mut lat_us = Vec::with_capacity(window.len());
        let mut lat_stats = RunningStats::new();
        let mut ssim = RunningStats::new();
        let mut psnr = RunningStats::new();
        let mut displayed = 0u64;
        let mut frozen = 0u64;
        for r in window {
            ssim.push(r.ssim());
            // Latency counts for every frame that *arrived*, displayed
            // or not — a frame shown stale because it blew its playout
            // deadline still has a measured glass-to-glass latency (the
            // quantity the paper reports).
            if let Some(l) = r.latency() {
                lat_us.push(l.as_micros());
                lat_stats.push(l.as_millis_f64());
            }
            match r.outcome() {
                FrameOutcomeKind::Displayed => {
                    displayed += 1;
                    if let Some(p) = r.psnr_db() {
                        psnr.push(p);
                    }
                }
                FrameOutcomeKind::Frozen => frozen += 1,
            }
        }
        // Ranking the integer µs ranks their ms values too (the map is
        // monotone), so the quantiles equal `Percentiles`' bit for bit
        // without its float comparison sort.
        lat_us.sort_unstable();
        let quantile = |q| match lat_us.len() {
            0 => 0.0,
            n => interpolate(n, q, |i| Dur::micros(lat_us[i]).as_millis_f64()),
        };
        LatencySummary {
            frames: displayed + frozen,
            displayed,
            frozen,
            mean_latency_ms: lat_stats.mean(),
            p50_latency_ms: quantile(0.50),
            p95_latency_ms: quantile(0.95),
            p99_latency_ms: quantile(0.99),
            max_latency_ms: if lat_stats.count() > 0 {
                lat_stats.max()
            } else {
                0.0
            },
            mean_ssim: ssim.mean(),
            mean_psnr_db: psnr.mean(),
            // `lat_us` holds integers, which nothing rejects.
            rejected: lat_stats.rejected() + ssim.rejected() + psnr.rejected(),
        }
    }

    /// Summarizes the whole session. Memoized: the summary is computed
    /// once per recorder state and shared by every later call.
    pub fn summarize_all(&self) -> LatencySummary {
        *self
            .whole
            .get_or_init(|| self.summarize(Time::ZERO, Time::FAR_FUTURE))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(pts_ms: u64, latency_ms: Option<u64>, ssim: f64) -> FrameRecord {
        FrameRecord {
            pts: Time::from_millis(pts_ms),
            outcome: if latency_ms.is_some() {
                FrameOutcomeKind::Displayed
            } else {
                FrameOutcomeKind::Frozen
            },
            latency: latency_ms.map(Dur::millis),
            ssim,
            psnr_db: latency_ms.map(|_| 40.0),
        }
    }

    #[test]
    fn summary_counts_and_means() {
        let mut r = LatencyRecorder::new();
        r.push(rec(0, Some(100), 0.95));
        r.push(rec(33, Some(200), 0.94));
        r.push(rec(66, None, 0.80));
        let s = r.summarize_all();
        assert_eq!(s.frames, 3);
        assert_eq!(s.displayed, 2);
        assert_eq!(s.frozen, 1);
        assert!((s.mean_latency_ms - 150.0).abs() < 1e-9);
        assert!((s.mean_ssim - (0.95 + 0.94 + 0.80) / 3.0).abs() < 1e-12);
        assert!((s.freeze_ratio() - 1.0 / 3.0).abs() < 1e-12);
        assert!((s.mean_psnr_db - 40.0).abs() < 1e-12);
        assert_eq!(s.max_latency_ms, 200.0);
    }

    #[test]
    fn windowing_excludes_outside_frames() {
        let mut r = LatencyRecorder::new();
        for i in 0..10 {
            r.push(rec(i * 100, Some(50 + i), 0.9));
        }
        let s = r.summarize(Time::from_millis(300), Time::from_millis(600));
        assert_eq!(s.frames, 3); // pts 300, 400, 500
        assert!((s.mean_latency_ms - 54.0).abs() < 1e-9);
        // Repeated pts on both edges: the window stays half-open.
        r.push(rec(900, Some(70), 0.9));
        r.push(rec(1000, Some(80), 0.9));
        let s = r.summarize(Time::from_millis(900), Time::from_millis(1000));
        assert_eq!(s.frames, 2); // both slots at pts 900
        assert!((s.mean_latency_ms - 64.5).abs() < 1e-9);
        // Windows past the records, or reversed, are empty.
        for (from, to) in [(1001, 5000), (600, 300)] {
            let s = r.summarize(Time::from_millis(from), Time::from_millis(to));
            assert_eq!(s.frames, 0, "window [{from}, {to}) ms");
        }
    }

    #[test]
    fn percentiles_present() {
        let mut r = LatencyRecorder::new();
        for i in 0..100u64 {
            r.push(rec(i * 33, Some(i + 1), 0.9));
        }
        let s = r.summarize_all();
        assert!(s.p50_latency_ms > 49.0 && s.p50_latency_ms < 52.0);
        assert!(s.p95_latency_ms > 94.0 && s.p95_latency_ms < 97.0);
        assert!(s.p99_latency_ms > 98.0);
    }

    #[test]
    fn push_clears_the_memoized_summary() {
        let mut r = LatencyRecorder::new();
        r.push(rec(0, Some(100), 0.95));
        assert_eq!(r.summarize_all().frames, 1);
        r.push(rec(33, Some(300), 0.9));
        let s = r.summarize_all();
        assert_eq!(s.frames, 2);
        assert_eq!(s.max_latency_ms, 300.0);
        assert_eq!(s, r.summarize(Time::ZERO, Time::FAR_FUTURE));
        // A clone carries the memo and answers the same.
        assert_eq!(r.clone().summarize_all(), s);
    }

    #[test]
    fn empty_summary_is_zeroed() {
        let r = LatencyRecorder::new();
        let s = r.summarize_all();
        assert_eq!(s.frames, 0);
        assert_eq!(s.mean_latency_ms, 0.0);
        assert_eq!(s.freeze_ratio(), 0.0);
        assert_eq!(s.max_latency_ms, 0.0);
    }

    #[test]
    fn rejected_samples_are_counted_not_dropped() {
        // Regression: rejected non-finite samples used to vanish — the
        // collectors counted them but the summary never surfaced the
        // count, so a poisoned session looked clean downstream.
        let mut r = LatencyRecorder::new();
        r.push(rec(0, Some(100), 0.95));
        r.push(FrameRecord {
            pts: Time::from_millis(33),
            outcome: FrameOutcomeKind::Displayed,
            latency: Some(Dur::millis(50)),
            ssim: f64::NAN,
            psnr_db: Some(f64::INFINITY),
        });
        let s = r.summarize_all();
        assert_eq!(s.frames, 2);
        // One NaN SSIM + one infinite PSNR.
        assert_eq!(s.rejected, 2);
        assert!(s.mean_ssim.is_finite());
        assert!(s.mean_psnr_db.is_finite());

        let clean = {
            let mut r = LatencyRecorder::new();
            r.push(rec(0, Some(100), 0.95));
            r.summarize_all()
        };
        assert_eq!(clean.rejected, 0);
    }

    /// Picks `0`, `max` or `raw`, so the range ends come up often.
    fn edge_or(pick: u8, max: u64, raw: u64) -> u64 {
        match pick {
            0 => 0,
            1 => max,
            _ => raw,
        }
    }

    /// The floats a packed record must keep bit for bit, or `raw`'s bits.
    fn special_or(pick: usize, raw: u64) -> f64 {
        [
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
        ]
        .get(pick)
        .copied()
        .unwrap_or(f64::from_bits(raw))
    }

    proptest::proptest! {
        /// Every field comes back exactly as packed: all eight flag
        /// combinations (a displayed frame without PSNR included),
        /// `Some(Dur::ZERO)` apart from `None`, pts at both ends of its
        /// range, and NaN/±inf/±0 SSIM and PSNR bit for bit.
        #[test]
        fn packed_record_round_trips(
            flags in 0u8..8,
            pts in (0u8..4, 0u64..PTS_MAX_US),
            latency in (0u8..4, 0u64..u64::MAX),
            ssim in (0usize..12, 0u64..u64::MAX),
            psnr in (0usize..12, 0u64..u64::MAX),
        ) {
            let pts = Time::from_micros(edge_or(pts.0, PTS_MAX_US, pts.1));
            let outcome = if flags & 1 != 0 {
                FrameOutcomeKind::Displayed
            } else {
                FrameOutcomeKind::Frozen
            };
            let latency = (flags & 2 != 0).then(|| Dur::micros(edge_or(latency.0, u64::MAX, latency.1)));
            let ssim = special_or(ssim.0, ssim.1);
            let psnr_db = (flags & 4 != 0).then(|| special_or(psnr.0, psnr.1));
            let r = PackedFrameRecord::new(pts, outcome, latency, ssim, psnr_db);
            proptest::prop_assert_eq!(r.pts(), pts);
            proptest::prop_assert_eq!(r.outcome(), outcome);
            proptest::prop_assert_eq!(r.latency(), latency);
            proptest::prop_assert_eq!(r.ssim().to_bits(), ssim.to_bits());
            proptest::prop_assert_eq!(r.psnr_db().map(f64::to_bits), psnr_db.map(f64::to_bits));
        }
    }

    proptest::proptest! {
        /// The quantiles ranked on integer µs equal `Percentiles`' over
        /// the same latencies in ms, bit for bit: small windows, ties,
        /// and µs values past 2^53 where distinct µs share one `f64`.
        #[test]
        fn integer_ranked_quantiles_match_percentiles(
            raw in proptest::collection::vec((0u8..4, 0u64..5_000_000, 0u64..u64::MAX), 1..300),
            frozen_every in 2usize..9,
        ) {
            let mut r = LatencyRecorder::new();
            let mut reference = crate::stats::Percentiles::new();
            for (i, &(pick, small, any)) in raw.iter().enumerate() {
                let us = match pick {
                    0 => small % 50,
                    1 => any,
                    _ => small,
                };
                let latency = (i % frozen_every != 0).then_some(Dur::micros(us));
                if let Some(l) = latency {
                    reference.push(l.as_millis_f64());
                }
                r.push(FrameRecord {
                    pts: Time::from_millis(i as u64),
                    outcome: FrameOutcomeKind::Displayed,
                    latency,
                    ssim: 0.9,
                    psnr_db: None,
                });
            }
            let s = r.summarize_all();
            let bits = |x: Option<f64>| x.unwrap_or(0.0).to_bits();
            proptest::prop_assert_eq!(s.p50_latency_ms.to_bits(), bits(reference.p50()));
            proptest::prop_assert_eq!(s.p95_latency_ms.to_bits(), bits(reference.p95()));
            proptest::prop_assert_eq!(s.p99_latency_ms.to_bits(), bits(reference.p99()));
        }
    }

    #[test]
    #[should_panic(expected = "beyond the packed record's 2^61 µs range")]
    fn packing_rejects_pts_past_its_range() {
        PackedFrameRecord::new(
            Time::from_micros(PTS_MAX_US + 1),
            FrameOutcomeKind::Frozen,
            None,
            0.5,
            None,
        );
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn rejects_unordered_records() {
        let mut r = LatencyRecorder::new();
        r.push(rec(100, Some(10), 0.9));
        r.push(rec(50, Some(10), 0.9));
    }
}
