//! Per-frame latency and quality accounting.
//!
//! The paper's primary metric is per-frame glass-to-glass latency —
//! capture timestamp to display instant — and its summary statistics
//! over a measurement window. [`LatencyRecorder`] collects one
//! [`FrameRecord`] per frame slot and produces a [`LatencySummary`]
//! over any time window (experiments window around the drop instant).

use std::fmt;
use std::sync::OnceLock;

use ravel_sim::coding::{ByteReader, ByteStore, Xor};
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
/// recorder stores each one as a few bytes of its stream.
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

impl FrameRecord {
    /// True when every float in the record is finite and the SSIM is a
    /// valid similarity (in `[0, 1]`). The session's finite-metrics
    /// invariant checks this before the record can poison a summary.
    pub fn is_finite(&self) -> bool {
        (0.0..=1.0).contains(&self.ssim) && self.psnr_db.is_none_or(f64::is_finite)
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

/// Collects per-frame records across a session, one record per frame
/// slot in a [`ByteStore`], decoded only when read.
///
/// Each record starts with its headers:
///
/// * a flag byte: the latency's byte count (low nibble; 0 when absent),
///   displayed, PSNR present, and pts step equal to the previous step;
/// * for the SSIM, and the PSNR when present, a header byte holding the
///   count of trailing zero bytes trimmed from the XOR of its bits with
///   the previous value's (high nibble) and of bytes kept (low nibble).
///
/// Then the fields: the latency in µs as that many little-endian bytes,
/// each float's kept XOR bytes, little-endian, and the pts step from the
/// previous record in µs as a LEB128 varint, only when it differs from
/// the previous step (a session captures at a fixed frame interval, so
/// it almost never does). With every length in the headers, the decoder
/// finds the next record without waiting on this one's fields.
///
/// Every field reads back exactly, `f64`s bit for bit (NaN payloads,
/// ±inf and −0.0 included), so the finite-metrics check and the
/// determinism suites see what was pushed. The encoding depends only
/// on the records, so two recorders compare equal when their bytes do.
#[derive(Clone, Default)]
pub struct LatencyRecorder {
    store: ByteStore,
    /// What the next record is encoded against.
    last: Context,
    /// The whole-session summary, computed by the first
    /// [`LatencyRecorder::summarize_all`] and cleared by every `push`, so
    /// all readers of a finished session share one computation.
    whole: OnceLock<LatencySummary>,
}

/// Flag-byte bits above the latency's byte count.
const DISPLAYED: u8 = 1 << 4;
const PSNR: u8 = 1 << 5;
const SAME_STEP: u8 = 1 << 6;

/// The latency quantiles a summary reports, in increasing order.
const QUANTILES: [f64; 3] = [0.50, 0.95, 0.99];

/// The state each record is encoded against, and decoded with: the
/// previous pts, the step that reached it, and the last SSIM and PSNR
/// bits.
#[derive(Debug, Clone, Copy, Default)]
struct Context {
    pts_us: u64,
    step_us: u64,
    ssim_bits: u64,
    psnr_bits: u64,
}

impl LatencyRecorder {
    /// Creates an empty recorder.
    pub fn new() -> LatencyRecorder {
        LatencyRecorder::default()
    }

    /// Creates an empty recorder. The store grows in chunks as records
    /// arrive, so `capacity` (the frame slots expected) sizes nothing.
    pub fn with_capacity(_capacity: usize) -> LatencyRecorder {
        LatencyRecorder::default()
    }

    /// Appends one frame slot (pts must be non-decreasing).
    pub fn push(&mut self, record: FrameRecord) {
        let pts_us = record.pts.as_micros();
        let last = &mut self.last;
        assert!(pts_us >= last.pts_us, "frame records out of order");
        self.whole.take();
        let step_us = pts_us - last.pts_us;
        let latency_us = record.latency.map(Dur::as_micros);
        // At least one byte, so a zero latency stays apart from none.
        let latency_len = latency_us.map_or(0, |us| (8 - us.leading_zeros() / 8).max(1));
        let mut flags = latency_len as u8;
        if record.outcome == FrameOutcomeKind::Displayed {
            flags |= DISPLAYED;
        }
        if record.psnr_db.is_some() {
            flags |= PSNR;
        }
        if step_us == last.step_us {
            flags |= SAME_STEP;
        }
        let ssim = Xor::new(&mut last.ssim_bits, record.ssim.to_bits());
        let psnr = record
            .psnr_db
            .map(|p| Xor::new(&mut last.psnr_bits, p.to_bits()));
        let same_step = step_us == last.step_us;
        self.store.append(|e| {
            e.put(flags);
            e.put(ssim.header);
            if let Some(psnr) = psnr {
                e.put(psnr.header);
            }
            if let Some(us) = latency_us {
                e.put_low_bytes(us, latency_len);
            }
            e.put_low_bytes(ssim.value, ssim.kept);
            if let Some(psnr) = psnr {
                e.put_low_bytes(psnr.value, psnr.kept);
            }
            if !same_step {
                e.put_varint(step_us);
            }
        });
        last.pts_us = pts_us;
        last.step_us = step_us;
    }

    /// Frees the spare capacity of the store's last chunk, so a
    /// finished session's recorder holds little more than its records.
    /// Later pushes still work.
    pub fn trim(&mut self) {
        self.store.trim();
    }

    /// All records, in pts order, decoded as they are reached.
    pub fn records(&self) -> FrameRecords<'_> {
        FrameRecords {
            reader: self.store.reader(),
            last: Context::default(),
        }
    }

    /// `(pts, latency in ms)` of each record that has a latency, in pts
    /// order: the per-frame latency points a figure averages.
    pub fn latencies_ms(&self) -> impl Iterator<Item = (Time, f64)> + Clone + '_ {
        self.records()
            .filter_map(|r| Some((r.pts, r.latency?.as_millis_f64())))
    }

    /// Summarizes frames with `from <= pts < to`.
    pub fn summarize(&self, from: Time, to: Time) -> LatencySummary {
        // `push` keeps the records sorted by pts, so the window is one
        // contiguous run and decoding stops at its end.
        let window = self
            .records()
            .skip_while(|r| r.pts < from)
            .take_while(|r| r.pts < to);
        let mut lat_us = Vec::with_capacity(self.store.len());
        let mut lat_stats = RunningStats::new();
        let mut ssim = RunningStats::new();
        let mut psnr = RunningStats::new();
        let mut displayed = 0u64;
        let mut frozen = 0u64;
        for r in window {
            ssim.push(r.ssim);
            // Latency counts for every frame that *arrived*, displayed
            // or not — a frame shown stale because it blew its playout
            // deadline still has a measured glass-to-glass latency (the
            // quantity the paper reports).
            if let Some(l) = r.latency {
                lat_us.push(l.as_micros());
                lat_stats.push(l.as_millis_f64());
            }
            match r.outcome {
                FrameOutcomeKind::Displayed => {
                    displayed += 1;
                    if let Some(p) = r.psnr_db {
                        psnr.push(p);
                    }
                }
                FrameOutcomeKind::Frozen => frozen += 1,
            }
        }
        // Ranking the integer µs ranks their ms values too (the map is
        // monotone), so the quantiles equal `Percentiles`' bit for bit
        // without its float comparison sort. Only the ranks they read
        // are put in place, lowest first: each selection leaves larger
        // values after its rank, where the next one is selected.
        let n = lat_us.len();
        let mut placed = 0;
        for q in QUANTILES {
            let pos = q * n.saturating_sub(1) as f64;
            for rank in [pos.floor() as usize, pos.ceil() as usize] {
                if rank >= placed && rank < n {
                    lat_us[placed..].select_nth_unstable(rank - placed);
                    placed = rank + 1;
                }
            }
        }
        let quantile = |q| match n {
            0 => 0.0,
            n => interpolate(n, q, |i| Dur::micros(lat_us[i]).as_millis_f64()),
        };
        let [p50, p95, p99] = QUANTILES.map(quantile);
        LatencySummary {
            frames: displayed + frozen,
            displayed,
            frozen,
            mean_latency_ms: lat_stats.mean(),
            p50_latency_ms: p50,
            p95_latency_ms: p95,
            p99_latency_ms: p99,
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

/// Equal recorders hold equal bytes, which decode to equal records bit
/// for bit; the memoized summary takes no part.
impl PartialEq for LatencyRecorder {
    fn eq(&self, other: &LatencyRecorder) -> bool {
        self.store == other.store
    }
}

impl fmt::Debug for LatencyRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.records()).finish()
    }
}

/// Iterator over a recorder's frame records, oldest first, decoding
/// each one as it is reached. Returned by
/// [`LatencyRecorder::records`]; cloning it is cheap and resumes from
/// the same record.
#[derive(Debug, Clone)]
pub struct FrameRecords<'a> {
    reader: ByteReader<'a>,
    last: Context,
}

impl Iterator for FrameRecords<'_> {
    type Item = FrameRecord;

    fn next(&mut self) -> Option<FrameRecord> {
        let r = &mut self.reader;
        if !r.next_record() {
            return None;
        }
        // The flag byte and the float headers, whose lengths place every
        // field of the record.
        let head = r.peek_word();
        let flags = head as u8;
        let has_psnr = flags & PSNR != 0;
        r.skip(2 + usize::from(has_psnr));
        let mut last = self.last;
        let latency_len = u32::from(flags & 0xf);
        let latency = (latency_len != 0).then(|| Dur::micros(r.low_bytes(latency_len)));
        let ssim = r.xor(&mut last.ssim_bits, (head >> 8) as u8);
        let psnr_db = has_psnr.then(|| r.xor(&mut last.psnr_bits, (head >> 16) as u8));
        if flags & SAME_STEP == 0 {
            last.step_us = r.varint();
        }
        last.pts_us += last.step_us;
        self.last = last;
        Some(FrameRecord {
            pts: Time::from_micros(last.pts_us),
            outcome: if flags & DISPLAYED != 0 {
                FrameOutcomeKind::Displayed
            } else {
                FrameOutcomeKind::Frozen
            },
            latency,
            ssim,
            psnr_db,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.reader.left();
        (left, Some(left))
    }
}

impl ExactSizeIterator for FrameRecords<'_> {}

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

    /// Floats a record must keep bit for bit: signed zeros, a
    /// subnormal, infinities and NaNs with distinct payloads.
    const FLOATS: [u64; 8] = [
        0x0000_0000_0000_0000,
        0x8000_0000_0000_0000,
        0x0000_0000_0000_0001,
        0x7ff0_0000_0000_0000,
        0xfff0_0000_0000_0000,
        0x7ff8_0000_0000_0000,
        0x7ff0_0000_dead_beef,
        0xfff8_0000_0000_0001,
    ];

    /// A special float, raw bits, a plausible SSIM, or one repeated
    /// value (whose XOR with its predecessor is zero).
    fn float(x: u64) -> f64 {
        match x % 4 {
            0 => f64::from_bits(FLOATS[(x / 4) as usize % FLOATS.len()]),
            1 => f64::from_bits(x),
            2 => (x % 1000) as f64 / 1000.0,
            _ => 0.9,
        }
    }

    /// Expands one generated row of raw draws into the next record:
    /// pts steps that repeat, stay zero, vary or jump to the end of the
    /// `u64` range, and every presence combination of the optional
    /// fields.
    fn record(pts_us: &mut u64, raw: (u64, u64, u64, u64)) -> FrameRecord {
        let (a, b, c, d) = raw;
        let room = u64::MAX - *pts_us;
        let step = match a % 6 {
            0..=2 => 33_333,
            3 => 0,
            4 => b % 1_000_000,
            _ => room - (b % 3).min(room),
        };
        *pts_us += step.min(room);
        let latency = match a / 6 % 5 {
            0 => None,
            1 => Some(0),
            2 => Some(u64::MAX),
            3 => Some(c),
            _ => Some(c % 500_000),
        };
        FrameRecord {
            pts: Time::from_micros(*pts_us),
            outcome: if a / 30 % 2 == 0 {
                FrameOutcomeKind::Displayed
            } else {
                FrameOutcomeKind::Frozen
            },
            latency: latency.map(Dur::micros),
            ssim: float(c ^ d),
            psnr_db: (a / 60 % 3 != 0).then(|| float(d)),
        }
    }

    proptest::proptest! {
        /// Every record reads back exactly as pushed: NaN payloads, ±inf
        /// and −0.0 bit for bit, zero and irregular pts steps, pts up to
        /// `u64::MAX`, and latency absent, zero or huge.
        #[test]
        fn records_round_trip_bit_for_bit(
            raw in proptest::collection::vec((0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX), 1..200),
        ) {
            let mut pts_us = 0;
            let pushed: Vec<FrameRecord> = raw.iter().map(|&r| record(&mut pts_us, r)).collect();
            let mut r = LatencyRecorder::new();
            for &p in &pushed {
                r.push(p);
            }
            let read = r.records();
            proptest::prop_assert_eq!(read.len(), pushed.len());
            let bits = |x: &FrameRecord| {
                (x.pts, x.outcome, x.latency, x.ssim.to_bits(), x.psnr_db.map(f64::to_bits))
            };
            for (got, want) in read.zip(&pushed) {
                proptest::prop_assert_eq!(bits(&got), bits(want));
            }
            // The encoding depends only on the records.
            let mut again = LatencyRecorder::with_capacity(pushed.len());
            for &p in &pushed {
                again.push(p);
            }
            proptest::prop_assert!(again == r);
        }
    }

    #[test]
    fn pts_round_trips_to_the_end_of_its_range() {
        let mut r = LatencyRecorder::new();
        for us in [0, 1 << 61, u64::MAX - 1, u64::MAX, u64::MAX] {
            r.push(FrameRecord {
                pts: Time::from_micros(us),
                outcome: FrameOutcomeKind::Frozen,
                latency: None,
                ssim: 0.5,
                psnr_db: None,
            });
        }
        let pts: Vec<u64> = r.records().map(|x| x.pts.as_micros()).collect();
        assert_eq!(pts, [0, 1 << 61, u64::MAX - 1, u64::MAX, u64::MAX]);
    }

    #[test]
    fn a_repeated_slot_takes_two_bytes() {
        // A frozen slot at the previous cadence with the previous SSIM:
        // the flag byte and an empty XOR header.
        let mut r = LatencyRecorder::new();
        for i in 0..3 {
            r.push(rec(i * 33, None, 0.8));
        }
        let before = r.store.byte_len();
        r.push(rec(99, None, 0.8));
        assert_eq!(r.store.byte_len() - before, 2);
    }

    #[test]
    fn latencies_are_the_records_that_have_one_in_pts_order() {
        let mut r = LatencyRecorder::new();
        let latencies = [Some(120), None, Some(0), Some(95), None, None, Some(300)];
        for (i, &l) in (0..).zip(&latencies) {
            // Two slots share each pts, and a frozen slot may still
            // carry the latency of a frame that arrived late.
            let mut record = rec(i / 2 * 33, l, 0.9);
            if i == 3 {
                record.outcome = FrameOutcomeKind::Frozen;
            }
            r.push(record);
        }
        let got: Vec<(Time, f64)> = r.latencies_ms().collect();
        let ms = |pts, l| (Time::from_millis(pts), l);
        assert_eq!(
            got,
            [ms(0, 120.0), ms(33, 0.0), ms(33, 95.0), ms(99, 300.0)]
        );
    }

    #[test]
    fn equality_compares_the_encoded_records_only() {
        let mut a = LatencyRecorder::new();
        let mut b = LatencyRecorder::with_capacity(100);
        for r in [&mut a, &mut b] {
            r.push(rec(0, Some(100), 0.95));
            r.push(rec(33, None, 0.9));
        }
        // A memoized summary and spare capacity take no part.
        a.summarize_all();
        assert_eq!(a, b);
        b.push(rec(66, None, 0.9));
        assert_ne!(a, b);
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
    #[should_panic(expected = "out of order")]
    fn rejects_unordered_records() {
        let mut r = LatencyRecorder::new();
        r.push(rec(100, Some(10), 0.9));
        r.push(rec(50, Some(10), 0.9));
    }
}
