//! Control-plane corruption: seeded field-level mutation of in-flight
//! feedback, plus the sender-side validator that contains it.
//!
//! [`chaos`](crate::chaos) attacks the forward data path and
//! [`impair`](crate::impair) makes reverse-path messages *absent*
//! (lost, late, duplicated). This module covers the remaining fault
//! class: reverse-path messages that **arrive but lie**. A
//! [`CorruptSchedule`] — the shared [`Schedule`] over [`CorruptKind`],
//! a mutation mode plus its rate — is a reproducible timeline of
//! corruption segments generated from `(seed, intensity)`; while a
//! segment is active, [`FeedbackCorruptor`] mutates delivered
//! [`FeedbackReport`]s at the field level:
//!
//! * **Seq replay** — `report_seq` warped backwards, replaying an
//!   already-processed report number.
//! * **Seq warp** — `report_seq` jumped far forward, which would poison
//!   the sender's freshness gate if accepted.
//! * **Time warp** — `generated_at` pulled backwards, breaking report
//!   monotonicity (and putting arrivals in the report's future).
//! * **Arrival-before-send** — a received packet's echoed send time
//!   pushed past its arrival, inverting the one-way-delay sign.
//! * **Size bomb** — a received packet's size zeroed or inflated to an
//!   absurd value, wrecking any rate computed from reported bytes.
//! * **Truncate** — an interior packet removed, tearing the report's
//!   contiguous sequence range.
//! * **Forge** — a fabricated packet appended past the report's range.
//!
//! PLI messages have no mutable fields worth lying about, so corruption
//! renders them unparseable: [`FeedbackCorruptor::suppress_pli`] eats
//! them with the segment's rate.
//!
//! The same passthrough discipline as the other fault stages applies:
//! an empty schedule — and every instant outside an active segment —
//! consumes **zero** RNG draws, so sessions without corruption stay
//! byte-identical.
//!
//! [`FeedbackValidator`] is the defense: a stateful sanitizer the
//! session runs on every arriving report *before* the congestion
//! controller, the drop detector, or the watchdog sees it. It never
//! rejects a report an honest [`FeedbackBuilder`](crate::FeedbackBuilder)
//! can produce (a property test pins this), and it counts rejections by
//! reason so harness reports can break garbage feedback down.

use ravel_sim::{Dur, Rng, Time};

use crate::feedback::{FeedbackReport, PacketResult};
use crate::schedule::{draw_span, num, Schedule, Segment, SegmentKind};

/// RNG substream tag for control-plane corruption (distinct from the
/// forward link's `0x11F0`, the reverse path's `0x2EF0`, and forward
/// chaos' `0xC4A0`).
const CORRUPT_STREAM: u64 = 0xFEED;

/// Largest forward jump in `report_seq` the validator accepts past the
/// newest processed report. Honest senders see gaps only from dropped
/// reports — bounded by session length over the feedback interval, far
/// below this.
pub const MAX_SEQ_JUMP: u64 = 10_000;

/// Largest per-packet size the validator accepts, in bytes. Honest
/// packets are MTU-bounded (~1.5 kB); 16 MiB is absurd for any of them.
pub const MAX_PACKET_BYTES: u64 = 1 << 24;

/// Everything needed to reproduce a corruption run: a schedule seed and
/// an overall severity knob.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorruptSpec {
    /// Seed of the schedule's RNG substream.
    pub seed: u64,
    /// Severity in `(0, 1]`: scales segment count and duration.
    pub intensity: f64,
}

impl CorruptSpec {
    /// A corruption spec. Panics unless `intensity` is in `(0, 1]`.
    pub fn new(seed: u64, intensity: f64) -> CorruptSpec {
        assert!(
            intensity > 0.0 && intensity <= 1.0,
            "CorruptSpec: intensity must be in (0, 1], got {intensity}"
        );
        CorruptSpec { seed, intensity }
    }
}

/// How a corruption segment mutates delivered feedback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptMode {
    /// `report_seq` warped backwards (replay of an old report number).
    SeqReplay,
    /// `report_seq` jumped far forward.
    SeqWarp,
    /// `generated_at` pulled backwards in time.
    TimeWarp,
    /// A received packet's send time pushed past its arrival.
    ArrivalBeforeSend,
    /// A received packet's size zeroed or inflated absurdly.
    SizeBomb,
    /// An interior packet removed from the report.
    Truncate,
    /// A fabricated packet appended past the report's range.
    Forge,
}

impl CorruptMode {
    /// Stable mode name, used in reproducer specs.
    pub fn name(&self) -> &'static str {
        match self {
            CorruptMode::SeqReplay => "seq-replay",
            CorruptMode::SeqWarp => "seq-warp",
            CorruptMode::TimeWarp => "time-warp",
            CorruptMode::ArrivalBeforeSend => "arrival-before-send",
            CorruptMode::SizeBomb => "size-bomb",
            CorruptMode::Truncate => "truncate",
            CorruptMode::Forge => "forge",
        }
    }
}

/// A corruption segment's payload: the mutation mode and the
/// probability that a message crossing the segment is mutated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorruptKind {
    /// How delivered feedback is mutated.
    pub mode: CorruptMode,
    /// Probability that a message crossing the segment is mutated.
    pub rate: f64,
}

impl SegmentKind for CorruptKind {
    type Spec = CorruptSpec;

    const STREAM: u64 = CORRUPT_STREAM;

    fn seed_intensity(spec: &CorruptSpec) -> (u64, f64) {
        (spec.seed, spec.intensity)
    }

    /// One corruption segment: the mode, then the span, then the rate.
    fn draw(rng: &mut Rng, intensity: f64, window: (f64, f64)) -> CorruptSegment {
        let mode = match rng.below(7) {
            0 => CorruptMode::SeqReplay,
            1 => CorruptMode::SeqWarp,
            2 => CorruptMode::TimeWarp,
            3 => CorruptMode::ArrivalBeforeSend,
            4 => CorruptMode::SizeBomb,
            5 => CorruptMode::Truncate,
            _ => CorruptMode::Forge,
        };
        let (start, dur) = draw_span(rng, intensity, window);
        let rate = 0.6 + 0.4 * rng.uniform();
        Segment::spanning(start, dur, CorruptKind { mode, rate })
    }

    fn name(&self) -> &'static str {
        self.mode.name()
    }

    fn detail(&self) -> String {
        format!(" rate={}", self.rate)
    }

    fn parse(name: &str, detail: &str) -> Result<CorruptKind, String> {
        let mode = match name {
            "seq-replay" => CorruptMode::SeqReplay,
            "seq-warp" => CorruptMode::SeqWarp,
            "time-warp" => CorruptMode::TimeWarp,
            "arrival-before-send" => CorruptMode::ArrivalBeforeSend,
            "size-bomb" => CorruptMode::SizeBomb,
            "truncate" => CorruptMode::Truncate,
            "forge" => CorruptMode::Forge,
            other => return Err(format!("unknown corruption kind '{other}'")),
        };
        Ok(CorruptKind {
            mode,
            rate: num(detail, "rate")?,
        })
    }
}

/// A corruption segment active over `[from, until)`.
pub type CorruptSegment = Segment<CorruptKind>;

/// A reproducible timeline of control-plane corruption. When segments
/// overlap, the earliest-starting one decides a message's fate.
pub type CorruptSchedule = Schedule<CorruptKind>;

/// Per-message corruption applied at the reverse path's send boundary.
///
/// RNG draws are only consumed while a segment is active, so the clean
/// head and tail of a corrupted session — and all of a session with an
/// empty schedule — consume zero draws.
#[derive(Debug, Clone)]
pub struct FeedbackCorruptor {
    schedule: CorruptSchedule,
    rng: Rng,
    corrupted: u64,
    plis_suppressed: u64,
}

impl FeedbackCorruptor {
    /// Creates the corruption stage for `schedule`, seeded from the
    /// session seed on the corruption substream.
    pub fn new(schedule: CorruptSchedule, seed: u64) -> FeedbackCorruptor {
        FeedbackCorruptor {
            schedule,
            rng: Rng::substream(seed, CORRUPT_STREAM),
            corrupted: 0,
            plis_suppressed: 0,
        }
    }

    /// Reports mutated so far.
    pub fn corrupted(&self) -> u64 {
        self.corrupted
    }

    /// PLI messages rendered unparseable so far.
    pub fn plis_suppressed(&self) -> u64 {
        self.plis_suppressed
    }

    fn active(&self, at: Time) -> Option<CorruptKind> {
        self.schedule
            .segments
            .iter()
            .find(|s| s.active(at))
            .map(|s| s.kind)
    }

    /// Mutates one delivered report copy in place. Returns the applied
    /// kind's name, or `None` when no segment is active or the rate draw
    /// passes the message through untouched.
    pub fn corrupt(&mut self, report: &mut FeedbackReport, now: Time) -> Option<&'static str> {
        let CorruptKind { mode, rate } = self.active(now)?;
        if !self.rng.chance(rate) {
            return None;
        }
        self.corrupted += 1;
        match mode {
            CorruptMode::SeqReplay => {
                report.report_seq = report.report_seq.saturating_sub(1 + self.rng.below(8));
            }
            CorruptMode::SeqWarp => {
                report.report_seq = report
                    .report_seq
                    .wrapping_add(1_000_000 + self.rng.below(1_000));
            }
            CorruptMode::TimeWarp => {
                let half = report.generated_at.since(Time::ZERO).as_secs_f64() * 0.5;
                report.generated_at = Time::ZERO + Dur::from_secs_f64(half);
            }
            CorruptMode::ArrivalBeforeSend => {
                if let Some(p) = report.packets.iter_mut().find(|p| p.arrival.is_some()) {
                    p.send_time = p.arrival.expect("found received") + Dur::millis(1);
                }
            }
            CorruptMode::SizeBomb => {
                let absurd = self.rng.chance(0.5);
                if let Some(p) = report.packets.iter_mut().find(|p| p.arrival.is_some()) {
                    p.size_bytes = if absurd { 1 << 30 } else { 0 };
                }
            }
            CorruptMode::Truncate => {
                if report.packets.len() >= 3 {
                    let mid = report.packets.len() / 2;
                    report.packets.remove(mid);
                }
            }
            CorruptMode::Forge => {
                let last = report.packets.last().map_or(0, |p| p.seq);
                report.packets.push(PacketResult {
                    seq: last + 2 + self.rng.below(16),
                    send_time: report.generated_at,
                    arrival: Some(report.generated_at),
                    size_bytes: 1250,
                });
            }
        }
        Some(mode.name())
    }

    /// Decides whether a PLI crossing the reverse path at `now` is
    /// rendered unparseable (dropped at the sender).
    pub fn suppress_pli(&mut self, now: Time) -> bool {
        let Some(CorruptKind { rate, .. }) = self.active(now) else {
            return false;
        };
        let hit = self.rng.chance(rate);
        if hit {
            self.plis_suppressed += 1;
        }
        hit
    }
}

/// Rejection reasons, in the fixed order reports break them down.
pub const REJECT_REASONS: [&str; 8] = [
    "empty-report",
    "seq-warp",
    "non-monotone-time",
    "non-contiguous-seq",
    "arrival-before-send",
    "future-arrival",
    "zero-size",
    "absurd-size",
];

/// Sender-side report sanitizer.
///
/// The session runs [`FeedbackValidator::check`] on every report that
/// survives the duplicate/stale gate, *before* the congestion
/// controller, the drop detector, or the watchdog sees it. A rejected
/// report is dropped on the floor: it neither advances the freshness
/// gate nor resets the watchdog's feedback deadline, so sustained
/// garbage trips `Degraded` exactly like silence does.
///
/// The validator accepts every report an honest
/// [`FeedbackBuilder`](crate::FeedbackBuilder) can produce (zero false
/// positives, property-tested), and its only state is the newest
/// accepted `generated_at` — updated on accept only, so one rejected
/// report cannot poison the monotonicity baseline for the next.
#[derive(Debug, Clone, Default)]
pub struct FeedbackValidator {
    last_generated_at: Time,
    counts: [u64; REJECT_REASONS.len()],
}

impl FeedbackValidator {
    /// A fresh validator: nothing accepted, nothing rejected.
    pub fn new() -> FeedbackValidator {
        FeedbackValidator::default()
    }

    /// Validates `report` against the newest accepted report sequence
    /// (`last_report_seq`, `None` before the first accept). `Ok` means
    /// the report is internally consistent and safe to consume; `Err`
    /// names the (counted) rejection reason.
    pub fn check(
        &mut self,
        report: &FeedbackReport,
        last_report_seq: Option<u64>,
    ) -> Result<(), &'static str> {
        match self.find_violation(report, last_report_seq) {
            Some(reason) => {
                let idx = REJECT_REASONS
                    .iter()
                    .position(|r| *r == reason)
                    .expect("reason is registered");
                self.counts[idx] += 1;
                Err(reason)
            }
            None => {
                self.last_generated_at = report.generated_at;
                Ok(())
            }
        }
    }

    fn find_violation(
        &self,
        report: &FeedbackReport,
        last_report_seq: Option<u64>,
    ) -> Option<&'static str> {
        if report.packets.is_empty() {
            // An honest flush with nothing to report returns `None`
            // instead of an empty report.
            return Some("empty-report");
        }
        let newest = last_report_seq.unwrap_or(0);
        if report.report_seq > newest + MAX_SEQ_JUMP {
            return Some("seq-warp");
        }
        if report.generated_at < self.last_generated_at {
            return Some("non-monotone-time");
        }
        let first_seq = report.packets[0].seq;
        for (expected, p) in (first_seq..).zip(&report.packets) {
            if p.seq != expected {
                return Some("non-contiguous-seq");
            }
            if let Some(arrival) = p.arrival {
                if arrival < p.send_time {
                    return Some("arrival-before-send");
                }
                if arrival > report.generated_at {
                    return Some("future-arrival");
                }
                if p.size_bytes == 0 {
                    return Some("zero-size");
                }
                if p.size_bytes > MAX_PACKET_BYTES {
                    return Some("absurd-size");
                }
            }
        }
        None
    }

    /// Total reports rejected.
    pub fn rejected(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Nonzero rejection counts in [`REJECT_REASONS`] order.
    pub fn by_reason(&self) -> Vec<(&'static str, u64)> {
        REJECT_REASONS
            .iter()
            .zip(self.counts)
            .filter(|&(_, n)| n > 0)
            .map(|(r, n)| (*r, n))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feedback::FeedbackBuilder;
    use crate::packet::{MediaKind, Packet};

    fn pkt(seq: u64, send_ms: u64) -> Packet {
        Packet {
            kind: MediaKind::Video,
            seq,
            frame_index: 0,
            fragment: 0,
            num_fragments: 1,
            size_bytes: 1250,
            pts: Time::ZERO,
            send_time: Time::from_millis(send_ms),
            is_keyframe: false,
        }
    }

    /// A small honest report: seqs `0..n` arriving 10 ms apart.
    fn honest_report(n: u64) -> FeedbackReport {
        let mut fb = FeedbackBuilder::new();
        for seq in 0..n {
            fb.on_packet(&pkt(seq, seq * 10), Time::from_millis(30 + seq * 10));
        }
        fb.flush(Time::from_millis(100 + n * 10))
            .expect("non-empty")
    }

    #[test]
    fn generated_rates_are_probabilities() {
        for seed in 0..200 {
            for intensity in [0.1, 0.4, 0.8, 1.0] {
                let s = CorruptSchedule::generate(CorruptSpec::new(seed, intensity), Dur::secs(30));
                for seg in &s.segments {
                    assert!(seg.kind.rate > 0.0 && seg.kind.rate <= 1.0, "{seg:?}");
                }
            }
        }
    }

    #[test]
    fn corruptor_is_passthrough_outside_segments() {
        let s = CorruptSchedule::from_segments(vec![CorruptSegment {
            from: Time::from_secs(10),
            until: Time::from_secs(11),
            kind: CorruptKind {
                mode: CorruptMode::SeqWarp,
                rate: 1.0,
            },
        }]);
        let mut c = FeedbackCorruptor::new(s, 7);
        let pristine = honest_report(5);
        let mut copy = pristine.clone();
        assert_eq!(c.corrupt(&mut copy, Time::from_secs(1)), None);
        assert_eq!(copy, pristine);
        assert!(!c.suppress_pli(Time::from_secs(1)));
        assert_eq!(c.corrupted() + c.plis_suppressed(), 0);
    }

    #[test]
    fn every_kind_mutates_into_a_rejectable_report() {
        // At rate 1.0 inside the segment, each kind must turn an honest
        // report into one the validator (or the stale gate, for
        // seq-replay) refuses. The validator has already accepted one
        // honest report, as it always has mid-session — a time warp is
        // only detectable against that monotonicity baseline.
        for mode in [
            CorruptMode::SeqWarp,
            CorruptMode::TimeWarp,
            CorruptMode::ArrivalBeforeSend,
            CorruptMode::SizeBomb,
            CorruptMode::Truncate,
            CorruptMode::Forge,
        ] {
            let s = CorruptSchedule::from_segments(vec![CorruptSegment {
                from: Time::ZERO,
                until: Time::from_secs(100),
                kind: CorruptKind { mode, rate: 1.0 },
            }]);
            let mut c = FeedbackCorruptor::new(s, 7);
            let mut v = FeedbackValidator::new();
            let prior = honest_report(6);
            assert_eq!(v.check(&prior, None), Ok(()));
            let mut report = honest_report(6);
            report.report_seq = prior.report_seq + 1;
            let applied = c.corrupt(&mut report, Time::from_secs(1));
            assert_eq!(applied, Some(mode.name()));
            assert!(
                v.check(&report, Some(prior.report_seq)).is_err(),
                "{}: corrupted report passed validation",
                mode.name()
            );
            assert_eq!(v.rejected(), 1);
        }
    }

    #[test]
    fn seq_replay_regresses_the_report_seq() {
        let s = CorruptSchedule::from_segments(vec![CorruptSegment {
            from: Time::ZERO,
            until: Time::from_secs(100),
            kind: CorruptKind {
                mode: CorruptMode::SeqReplay,
                rate: 1.0,
            },
        }]);
        let mut c = FeedbackCorruptor::new(s, 7);
        let mut report = honest_report(4);
        report.report_seq = 50;
        c.corrupt(&mut report, Time::from_secs(1));
        // The regressed seq is absorbed by the sender's existing
        // duplicate/stale gate, not the validator.
        assert!(report.report_seq < 50);
    }

    #[test]
    fn pli_suppression_counts_and_respects_segments() {
        let s = CorruptSchedule::from_segments(vec![CorruptSegment {
            from: Time::from_secs(1),
            until: Time::from_secs(2),
            kind: CorruptKind {
                mode: CorruptMode::Forge,
                rate: 1.0,
            },
        }]);
        let mut c = FeedbackCorruptor::new(s, 7);
        assert!(!c.suppress_pli(Time::from_millis(500)));
        assert!(c.suppress_pli(Time::from_millis(1_500)));
        assert!(!c.suppress_pli(Time::from_millis(2_500)));
        assert_eq!(c.plis_suppressed(), 1);
    }

    #[test]
    fn validator_accepts_honest_reports_and_tracks_time() {
        let mut v = FeedbackValidator::new();
        let r = honest_report(5);
        assert_eq!(v.check(&r, None), Ok(()));
        assert_eq!(v.rejected(), 0);
        assert!(v.by_reason().is_empty());
        // A later report with an earlier generated_at is refused.
        let mut stale = honest_report(5);
        stale.report_seq = r.report_seq + 1;
        stale.generated_at = Time::from_millis(1);
        // Keep its packets from tripping future-arrival first.
        for p in &mut stale.packets {
            p.arrival = None;
            p.size_bytes = 0;
        }
        assert_eq!(
            v.check(&stale, Some(r.report_seq)),
            Err("non-monotone-time")
        );
        assert_eq!(v.by_reason(), vec![("non-monotone-time", 1)]);
    }

    #[test]
    fn validator_rejects_each_field_level_lie() {
        type Lie = Box<dyn Fn(&mut FeedbackReport)>;
        let base = honest_report(6);
        let cases: Vec<(&str, Lie)> = vec![
            ("empty-report", Box::new(|r| r.packets.clear())),
            ("seq-warp", Box::new(|r| r.report_seq += MAX_SEQ_JUMP + 1)),
            (
                "non-contiguous-seq",
                Box::new(|r| {
                    r.packets.remove(2);
                }),
            ),
            (
                "arrival-before-send",
                Box::new(|r| {
                    r.packets[1].send_time = r.packets[1].arrival.unwrap() + Dur::millis(5)
                }),
            ),
            (
                "future-arrival",
                Box::new(|r| r.packets[1].arrival = Some(r.generated_at + Dur::millis(5))),
            ),
            ("zero-size", Box::new(|r| r.packets[1].size_bytes = 0)),
            (
                "absurd-size",
                Box::new(|r| r.packets[1].size_bytes = MAX_PACKET_BYTES + 1),
            ),
        ];
        for (want, mutate) in cases {
            let mut v = FeedbackValidator::new();
            let mut report = base.clone();
            mutate(&mut report);
            assert_eq!(v.check(&report, None), Err(want));
            assert_eq!(v.by_reason(), vec![(want, 1)]);
            assert_eq!(v.rejected(), 1);
        }
    }

    #[test]
    fn rejection_does_not_poison_the_monotonicity_baseline() {
        let mut v = FeedbackValidator::new();
        let good = honest_report(4);
        assert!(v.check(&good, None).is_ok());
        // A time-warped-forward forgery is rejected on another ground;
        // its absurd generated_at must not become the baseline.
        let mut forged = honest_report(4);
        forged.report_seq = good.report_seq + 1;
        forged.generated_at = Time::from_secs(9_000);
        forged.packets.remove(1);
        assert_eq!(
            v.check(&forged, Some(good.report_seq)),
            Err("non-contiguous-seq")
        );
        // An honest successor (generated_at just past `good`'s) passes.
        let mut next = honest_report(4);
        next.report_seq = good.report_seq + 1;
        next.generated_at = good.generated_at + Dur::millis(50);
        for p in &mut next.packets {
            if let Some(a) = p.arrival {
                assert!(a <= next.generated_at);
            }
        }
        assert_eq!(v.check(&next, Some(good.report_seq)), Ok(()));
    }

    #[test]
    fn explicit_segments_of_every_kind_roundtrip() {
        let modes = [
            CorruptMode::SeqReplay,
            CorruptMode::SeqWarp,
            CorruptMode::TimeWarp,
            CorruptMode::ArrivalBeforeSend,
            CorruptMode::SizeBomb,
            CorruptMode::Truncate,
            CorruptMode::Forge,
        ];
        let segments = modes
            .into_iter()
            .enumerate()
            .map(|(i, mode)| CorruptSegment {
                from: Time::from_micros(1_234_567 + i as u64),
                until: Time::from_secs(2 + i as u64),
                kind: CorruptKind {
                    mode,
                    rate: 0.625 + 0.03125 * i as f64,
                },
            })
            .collect();
        let s = CorruptSchedule::from_segments(segments);
        assert_eq!(CorruptSchedule::parse_reproducer(&s.reproducer()), Ok(s));
    }

    #[test]
    fn malformed_reproducers_are_rejected_with_context() {
        let cases = [
            ("forge 1.000000 .. 2.000000", "malformed segment line"),
            ("forge [1.000000 .. 2.000000", "unterminated time span"),
            ("forge [1.000000 - 2.000000]", "malformed time span"),
            ("forge [1.5 .. 2.000000] rate=1", "malformed instant"),
            (
                "gaslight [1.000000 .. 2.000000] rate=1",
                "unknown corruption kind",
            ),
            ("forge [1.000000 .. 2.000000]", "missing field 'rate'"),
            (
                "forge [1.000000 .. 2.000000] rate=lots",
                "malformed field 'rate'",
            ),
        ];
        for (line, want) in cases {
            let err = CorruptSchedule::parse_reproducer(line).unwrap_err();
            assert!(err.contains(want), "'{line}' gave '{err}', want '{want}'");
        }
    }

    proptest::proptest! {
        /// Zero false positives: whatever the arrival pattern and
        /// whichever reports the reverse path drops, the validator
        /// accepts every report an honest `FeedbackBuilder` flushes.
        #[test]
        fn validator_never_rejects_honest_builder_reports(
            arrivals in proptest::collection::vec((0u64..400, 0u64..50), 1..120),
            flush_every in 1usize..20,
            drop_mask in proptest::collection::vec(0u64..2, 32..33),
        ) {
            let mut fb = FeedbackBuilder::new();
            let mut v = FeedbackValidator::new();
            let mut last_accepted: Option<u64> = None;
            let mut now_ms = 0;
            for (i, chunk) in arrivals.chunks(flush_every).enumerate() {
                for &(seq, jitter_ms) in chunk {
                    now_ms += 1;
                    fb.on_packet(&pkt(seq, now_ms), Time::from_millis(now_ms + jitter_ms));
                }
                // The flush instant must not precede any recorded
                // arrival, exactly like the session's feedback timer.
                now_ms += 100;
                let Some(report) = fb.flush(Time::from_millis(now_ms)) else {
                    continue;
                };
                // Simulate reverse-path loss: some reports never reach
                // the sender, leaving gaps in what the validator sees.
                if drop_mask[i % drop_mask.len()] == 1 {
                    continue;
                }
                proptest::prop_assert_eq!(
                    v.check(&report, last_accepted),
                    Ok(()),
                    "honest report {} rejected",
                    report.report_seq
                );
                last_accepted = Some(report.report_seq);
            }
            proptest::prop_assert_eq!(v.rejected(), 0);
        }
    }
}
