//! Seeded fault schedules, generic over the fault plane.
//!
//! Forward-path chaos ([`chaos`](crate::chaos)) and control-plane
//! corruption ([`corrupt`](crate::corrupt)) share one shape: a timeline
//! of [`Segment`]s, each a fault active over `[from, until)`, generated
//! from `(seed, intensity)` on the plane's own RNG substream, printed as
//! a one-line-per-segment reproducer and parsed back exactly.
//! [`Schedule`] owns that shape once. A plane supplies only its
//! [`SegmentKind`]: the per-segment draw (so each plane keeps its exact
//! RNG draw order) and how one kind prints and parses.

use std::fmt::Debug;

use ravel_sim::{Dur, Rng, Time};

/// One fault plane's segment payload.
pub trait SegmentKind: Copy + PartialEq + Debug {
    /// The generator input ([`ChaosSpec`](crate::ChaosSpec),
    /// [`CorruptSpec`](crate::CorruptSpec)).
    type Spec: Copy;

    /// RNG substream tag of the plane's schedule generator.
    const STREAM: u64;

    /// `(seed, intensity)` of `spec`.
    fn seed_intensity(spec: &Self::Spec) -> (u64, f64);

    /// Draws one segment inside `window` (session seconds). Consumes
    /// the plane's per-segment draws in their fixed order.
    fn draw(rng: &mut Rng, intensity: f64, window: (f64, f64)) -> Segment<Self>;

    /// Stable kind name, the first word of a reproducer line.
    fn name(&self) -> &'static str;

    /// The reproducer text after the time span: ` key=value` fields,
    /// or empty.
    fn detail(&self) -> String;

    /// Parses a kind back from its [`SegmentKind::name`] and
    /// (trimmed) [`SegmentKind::detail`].
    fn parse(name: &str, detail: &str) -> Result<Self, String>;
}

/// A fault of kind `K` active over `[from, until)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment<K> {
    /// First instant of the fault (inclusive).
    pub from: Time,
    /// End of the fault (exclusive).
    pub until: Time,
    /// What goes wrong.
    pub kind: K,
}

impl<K> Segment<K> {
    /// True if the fault is active at `at`.
    pub fn active(&self, at: Time) -> bool {
        self.from <= at && at < self.until
    }

    /// A segment starting `start` seconds into the session and lasting
    /// `dur` seconds.
    pub(crate) fn spanning(start: f64, dur: f64, kind: K) -> Segment<K> {
        let from = Time::ZERO + Dur::from_secs_f64(start);
        Segment {
            from,
            until: from + Dur::from_secs_f64(dur),
            kind,
        }
    }
}

/// Draws a segment's start and duration (seconds) inside `window`, the
/// span draw every plane shares: a uniform start, then a duration
/// scaled by intensity and clamped to the window's end.
pub(crate) fn draw_span(rng: &mut Rng, intensity: f64, (start, end): (f64, f64)) -> (f64, f64) {
    let from = rng.uniform_in(start, end);
    let max_len = (end - from).max(0.05);
    let dur = (0.3 + 2.2 * intensity * rng.uniform()).clamp(0.05, max_len);
    (from, dur)
}

/// A reproducible timeline of faults of kind `K`.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule<K> {
    /// The segments, sorted by `(from, until)` when generated
    /// (explicitly-built schedules keep their caller's order). Segments
    /// may overlap.
    pub segments: Vec<Segment<K>>,
}

impl<K> Default for Schedule<K> {
    fn default() -> Self {
        Schedule {
            segments: Vec::new(),
        }
    }
}

impl<K: SegmentKind> Schedule<K> {
    /// The empty schedule: no faults, exact passthrough.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Builds a schedule from explicit segments (tests, shrinking).
    pub fn from_segments(segments: Vec<Segment<K>>) -> Self {
        Schedule { segments }
    }

    /// Generates the schedule for `spec` over a session of `session_len`.
    ///
    /// Deterministic: the same `(seed, intensity, session_len)` always
    /// yields the same segments. `1 + floor(5 · intensity)` segments are
    /// confined to the `[15%, 60%]` window of the session, so every
    /// schedule leaves a clean tail in which freeze termination and
    /// rate recovery are checkable. The segments come out sorted by
    /// `(from, until)` (the stable sort keeps draw order for exact
    /// ties), so reproducers read chronologically and overlapping
    /// faults resolve to the earliest-starting segment.
    pub fn generate(spec: K::Spec, session_len: Dur) -> Self {
        let (seed, intensity) = K::seed_intensity(&spec);
        let mut rng = Rng::substream(seed, K::STREAM);
        let len = session_len.as_secs_f64();
        let window = (0.15 * len, 0.60 * len);
        let count = 1 + (intensity * 5.0).floor() as usize;
        let mut segments: Vec<Segment<K>> = (0..count)
            .map(|_| K::draw(&mut rng, intensity, window))
            .collect();
        segments.sort_by_key(|seg| (seg.from, seg.until));
        Schedule { segments }
    }

    /// True if the schedule injects nothing.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// End of the last segment, if any.
    pub fn last_end(&self) -> Option<Time> {
        self.segments.iter().map(|s| s.until).max()
    }

    /// A human-readable reproducer spec: one line per segment. Printed
    /// by the shrinker as the minimal failing schedule.
    pub fn reproducer(&self) -> String {
        if self.segments.is_empty() {
            return "  (empty schedule)\n".to_string();
        }
        let mut out = String::new();
        for seg in &self.segments {
            out.push_str(&format!(
                "  {} [{} .. {}]{}\n",
                seg.kind.name(),
                seg.from,
                seg.until,
                seg.kind.detail()
            ));
        }
        out
    }

    /// Parses a [`Schedule::reproducer`] spec back into a schedule.
    ///
    /// Exact inverse for every schedule the generators can produce:
    /// instants print with full microsecond precision (`{:.6}` seconds
    /// over an integer-µs clock), fault parameters print with `f64`'s
    /// shortest-roundtrip formatting, and generated reorder jitter
    /// (3–30 ms) lands in the µs-exact millisecond tier of [`Dur`]'s
    /// display — so `parse_reproducer(s.reproducer()) == Ok(s)`. The
    /// only lossy corner is a hand-built `Dur` of ≥ 1 s with sub-ms
    /// digits, which the display tier rounds. Any other text is an
    /// `Err`, never a panic; a segment ending before it starts is
    /// rejected.
    pub fn parse_reproducer(text: &str) -> Result<Self, String> {
        let mut segments = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line == "(empty schedule)" {
                continue;
            }
            let (name, rest) = line
                .split_once(" [")
                .ok_or_else(|| format!("malformed segment line '{line}'"))?;
            let (span, detail) = rest
                .split_once(']')
                .ok_or_else(|| format!("unterminated time span in '{line}'"))?;
            let (from, until) = span
                .split_once(" .. ")
                .ok_or_else(|| format!("malformed time span '{span}'"))?;
            let (from, until) = (parse_instant(from)?, parse_instant(until)?);
            if until < from {
                return Err(format!("segment ends before it starts in '{line}'"));
            }
            segments.push(Segment {
                from,
                until,
                kind: K::parse(name, detail.trim())?,
            });
        }
        Ok(Schedule { segments })
    }
}

/// Parses `Time`'s display form — seconds with exactly six decimals —
/// back to the integer-microsecond instant, digit-exactly. Only ASCII
/// digits are accepted, and an instant past `u64` microseconds is an
/// error rather than an overflow.
fn parse_instant(s: &str) -> Result<Time, String> {
    let bad = || format!("malformed instant '{s}' (want seconds with 6 decimals)");
    let (whole, frac) = s.split_once('.').ok_or_else(bad)?;
    let digits = |d: &str| !d.is_empty() && d.bytes().all(|b| b.is_ascii_digit());
    if frac.len() != 6 || !digits(whole) || !digits(frac) {
        return Err(bad());
    }
    let secs: u64 = whole.parse().map_err(|_| bad())?;
    let micros: u64 = frac.parse().map_err(|_| bad())?;
    secs.checked_mul(1_000_000)
        .and_then(|us| us.checked_add(micros))
        .map(Time::from_micros)
        .ok_or_else(bad)
}

/// Parses one `key=value` detail field out of `detail`.
pub(crate) fn field<'a>(detail: &'a str, key: &str) -> Result<&'a str, String> {
    detail
        .split_whitespace()
        .find_map(|pair| pair.strip_prefix(key).and_then(|p| p.strip_prefix('=')))
        .ok_or_else(|| format!("missing field '{key}' in '{detail}'"))
}

/// Parses one numeric `key=value` detail field out of `detail`.
pub(crate) fn num<T: std::str::FromStr>(detail: &str, key: &str) -> Result<T, String> {
    field(detail, key)?
        .parse()
        .map_err(|_| format!("malformed field '{key}' in '{detail}'"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChaosSpec, CorruptKind, CorruptSpec, FaultKind};

    /// Checks one plane's generator over a 30 s session: deterministic
    /// in the spec, `1 + floor(5 · intensity)` segments, all inside the
    /// fault window with positive duration.
    fn check_generator<K: SegmentKind>(spec: impl Fn(u64, f64) -> K::Spec) {
        let len = Dur::secs(30);
        let a = Schedule::<K>::generate(spec(42, 0.7), len);
        assert_eq!(a, Schedule::<K>::generate(spec(42, 0.7), len));
        assert_ne!(a, Schedule::<K>::generate(spec(43, 0.7), len));
        assert_eq!(Schedule::<K>::generate(spec(1, 0.1), len).segments.len(), 1);
        assert_eq!(Schedule::<K>::generate(spec(1, 1.0), len).segments.len(), 6);
        for seed in 0..50 {
            for intensity in [0.1, 0.4, 0.8, 1.0] {
                let s = Schedule::<K>::generate(spec(seed, intensity), len);
                assert!(s.last_end().is_some());
                for seg in &s.segments {
                    assert!(seg.from < seg.until, "empty segment {seg:?}");
                    assert!(seg.from >= Time::ZERO + Dur::from_secs_f64(30.0 * 0.15));
                    assert!(
                        seg.until <= Time::ZERO + Dur::from_secs_f64(30.0 * 0.60) + Dur::SECOND
                    );
                }
            }
        }
    }

    #[test]
    fn chaos_generation_is_deterministic_and_windowed() {
        check_generator::<FaultKind>(ChaosSpec::new);
    }

    #[test]
    fn corrupt_generation_is_deterministic_and_windowed() {
        check_generator::<CorruptKind>(CorruptSpec::new);
    }

    #[test]
    fn empty_schedules_are_passthrough_and_roundtrip() {
        fn check<K: SegmentKind>() {
            let empty = Schedule::<K>::empty();
            assert!(empty.is_empty());
            assert_eq!(empty.last_end(), None);
            assert_eq!(empty.reproducer(), "  (empty schedule)\n");
            assert_eq!(Schedule::parse_reproducer(&empty.reproducer()), Ok(empty));
        }
        check::<FaultKind>();
        check::<CorruptKind>();
    }

    #[test]
    fn instants_parse_digit_exactly_and_reject_everything_else() {
        assert_eq!(parse_instant("1.000001"), Ok(Time::from_micros(1_000_001)));
        assert_eq!(parse_instant("0.000000"), Ok(Time::ZERO));
        assert_eq!(
            parse_instant("18446744073709.551615"),
            Ok(Time::from_micros(u64::MAX))
        );
        for bad in [
            "18446744073710.000000",
            "18446744073709.551616",
            "1.+00001",
            "+1.000001",
            "-1.000001",
            ".000001",
            "1.00000",
            "1.0000001",
            "1.00000a",
            "1 .000001",
        ] {
            assert!(parse_instant(bad).is_err(), "'{bad}' parsed");
        }
    }

    #[test]
    fn segments_ending_before_they_start_are_rejected() {
        fn check<K: SegmentKind>(line: &str) {
            let err = Schedule::<K>::parse_reproducer(line).unwrap_err();
            assert!(
                err.contains("ends before it starts"),
                "'{line}' gave '{err}'"
            );
        }
        check::<FaultKind>("blackout [2.000000 .. 1.000000]");
        check::<CorruptKind>("forge [2.000000 .. 1.000000] rate=1");
    }

    /// Characters reproducer text is made of, plus a few it is not.
    const ALPHABET: &[u8] = b"0123456789. []=+-_\nabcdefgkloprstuwxyz()e";

    /// Parses `text` as both planes' reproducers; neither may panic.
    fn parse_both(text: &str) {
        let _ = Schedule::<FaultKind>::parse_reproducer(text);
        let _ = Schedule::<CorruptKind>::parse_reproducer(text);
    }

    /// `parse_reproducer(s.reproducer()) == Ok(s)` for a generated `s`,
    /// and `s` comes out sorted by `(from, until)` with every segment
    /// spanning positive time.
    fn roundtrips<K: SegmentKind>(spec: K::Spec, len: Dur) -> Result<(), String> {
        let s = Schedule::<K>::generate(spec, len);
        if s.segments.iter().any(|seg| seg.from >= seg.until)
            || s.segments
                .windows(2)
                .any(|w| (w[0].from, w[0].until) > (w[1].from, w[1].until))
        {
            return Err(format!("unordered or empty segment: {s:?}"));
        }
        match Schedule::parse_reproducer(&s.reproducer()) {
            Ok(parsed) if parsed == s => Ok(()),
            other => Err(format!("{s:?} parsed back as {other:?}")),
        }
    }

    proptest::proptest! {
        /// For both planes: generated schedules are time-ordered and
        /// their reproducers parse back exactly, and arbitrary text —
        /// random characters, or a real reproducer with one byte
        /// replaced — parses to a value or an error, never a panic.
        #[test]
        fn reproducers_roundtrip_and_parsing_never_panics(
            seed in 0u64..5_000,
            intensity_pct in 1u32..101,
            len_s in 10u64..61,
            noise in proptest::collection::vec(0usize..ALPHABET.len(), 0..80),
            splice in (0usize..4096, 0usize..ALPHABET.len()),
        ) {
            let intensity = intensity_pct as f64 / 100.0;
            let len = Dur::secs(len_s);
            proptest::prop_assert_eq!(
                roundtrips::<FaultKind>(ChaosSpec::new(seed, intensity), len),
                Ok(())
            );
            proptest::prop_assert_eq!(
                roundtrips::<CorruptKind>(CorruptSpec::new(seed, intensity), len),
                Ok(())
            );
            let random: String = noise.iter().map(|&i| ALPHABET[i] as char).collect();
            parse_both(&random);
            for text in [
                Schedule::<FaultKind>::generate(ChaosSpec::new(seed, intensity), len).reproducer(),
                Schedule::<CorruptKind>::generate(CorruptSpec::new(seed, intensity), len)
                    .reproducer(),
            ] {
                let mut bytes = text.into_bytes();
                let at = splice.0 % bytes.len();
                bytes[at] = ALPHABET[splice.1];
                parse_both(&String::from_utf8(bytes).expect("ASCII stays UTF-8"));
            }
        }
    }
}
