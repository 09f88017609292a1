//! File-backed traces: replay externally captured capacity series.
//!
//! The on-disk format is deliberately simple JSON — an object with a
//! `samples` array of `[seconds, bits_per_second]` pairs — so traces
//! exported from mahimahi/pantheon-style capture tools convert with a
//! one-liner. Samples are interpreted as a step function (each rate holds
//! until the next sample). Parsing uses the crate-local JSON module, so
//! loading traces works in offline builds with no external dependencies.

use std::fmt;
use std::fs;
use std::path::Path;

use ravel_sim::Time;

use crate::json;
use crate::{BandwidthTrace, StepTrace};

/// Errors loading a trace file.
#[derive(Debug)]
pub enum TraceFileError {
    /// Filesystem-level failure.
    Io(std::io::Error),
    /// The file is not valid trace JSON.
    Parse(String),
    /// The file parsed but violates trace invariants.
    Invalid(String),
}

impl fmt::Display for TraceFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceFileError::Io(e) => write!(f, "trace file I/O error: {e}"),
            TraceFileError::Parse(e) => write!(f, "trace file parse error: {e}"),
            TraceFileError::Invalid(msg) => write!(f, "invalid trace file: {msg}"),
        }
    }
}

impl std::error::Error for TraceFileError {}

impl From<std::io::Error> for TraceFileError {
    fn from(e: std::io::Error) -> Self {
        TraceFileError::Io(e)
    }
}

/// A capacity trace loaded from (or saved to) a JSON file.
#[derive(Debug, Clone, PartialEq)]
pub struct FileTrace {
    path: StepTrace,
    note: String,
}

impl FileTrace {
    /// Loads a trace from a JSON file.
    pub fn load(path: &Path) -> Result<FileTrace, TraceFileError> {
        let text = fs::read_to_string(path)?;
        FileTrace::from_json(&text)
    }

    /// Parses a trace from JSON text.
    pub fn from_json(text: &str) -> Result<FileTrace, TraceFileError> {
        let doc = json::parse(text).map_err(TraceFileError::Parse)?;
        let note = match doc.get("note") {
            None => String::new(),
            Some(v) => v
                .as_str()
                .map(str::to_owned)
                .ok_or_else(|| TraceFileError::Parse("\"note\" is not a string".into()))?,
        };
        let samples = doc
            .get("samples")
            .ok_or_else(|| TraceFileError::Parse("missing \"samples\" array".into()))?
            .as_array()
            .ok_or_else(|| TraceFileError::Parse("\"samples\" is not an array".into()))?;
        let mut pairs = Vec::with_capacity(samples.len());
        for sample in samples {
            let pair = sample.as_array().filter(|p| p.len() == 2).ok_or_else(|| {
                TraceFileError::Parse("sample is not a [seconds, bps] pair".into())
            })?;
            match (pair[0].as_f64(), pair[1].as_f64()) {
                (Some(s), Some(b)) => pairs.push((s, b)),
                _ => {
                    return Err(TraceFileError::Parse(
                        "sample entries must be numbers".into(),
                    ))
                }
            }
        }
        Ok(FileTrace {
            path: StepTrace::new(points_from_samples(&pairs)?),
            note,
        })
    }

    /// Builds a trace directly from `(seconds, bps)` samples (used by
    /// tools that synthesize traces and then save them). Samples are
    /// validated in place — a NaN or negative entry fails with the same
    /// descriptive `Invalid` error `from_json` gives, instead of being
    /// rendered to JSON first (where NaN is not even representable and
    /// used to surface as an opaque parse error).
    pub fn from_samples(note: &str, samples: &[(f64, f64)]) -> Result<FileTrace, TraceFileError> {
        Ok(FileTrace {
            path: StepTrace::new(points_from_samples(samples)?),
            note: note.to_string(),
        })
    }

    /// Serializes this trace to JSON.
    pub fn to_json(&self) -> String {
        let samples: Vec<(f64, f64)> = self
            .path
            .points()
            .iter()
            .map(|&(t, r)| (t.as_secs_f64(), r))
            .collect();
        render_json(&self.note, &samples)
    }

    /// Saves this trace to a JSON file.
    pub fn save(&self, path: &Path) -> Result<(), TraceFileError> {
        fs::write(path, self.to_json())?;
        Ok(())
    }

    /// The provenance note stored with the trace.
    pub fn note(&self) -> &str {
        &self.note
    }

    /// The underlying step path.
    pub fn path(&self) -> &StepTrace {
        &self.path
    }
}

/// Validates raw `(seconds, bps)` samples and converts them to step
/// points — the single checkpoint both `from_json` and `from_samples`
/// funnel through, so NaN/negative/unordered inputs fail with the same
/// descriptive errors no matter how the trace arrives.
fn points_from_samples(samples: &[(f64, f64)]) -> Result<Vec<(Time, f64)>, TraceFileError> {
    if samples.is_empty() {
        return Err(TraceFileError::Invalid("no samples".into()));
    }
    let mut points = Vec::with_capacity(samples.len());
    let mut last_us: Option<u64> = None;
    for &(secs, bps) in samples {
        if !secs.is_finite() || secs < 0.0 {
            return Err(TraceFileError::Invalid(format!("bad timestamp {secs}")));
        }
        if !bps.is_finite() || bps < 0.0 {
            return Err(TraceFileError::Invalid(format!("bad rate {bps}")));
        }
        let us = (secs * 1e6).round() as u64;
        if last_us.is_some_and(|prev| us <= prev) {
            return Err(TraceFileError::Invalid(
                "timestamps not strictly increasing".into(),
            ));
        }
        last_us = Some(us);
        points.push((Time::from_micros(us), bps));
    }
    Ok(points)
}

/// Renders the on-disk JSON form. `f64`'s `Display` prints the shortest
/// representation that parses back to the same value, so round-trips
/// are exact.
fn render_json(note: &str, samples: &[(f64, f64)]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"note\": ");
    json::write_string(&mut out, note);
    out.push_str(",\n  \"samples\": [\n");
    for (i, &(secs, bps)) in samples.iter().enumerate() {
        out.push_str("    [");
        out.push_str(&format!("{secs}, {bps}"));
        out.push(']');
        if i + 1 < samples.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

impl BandwidthTrace for FileTrace {
    fn rate_bps(&self, at: Time) -> f64 {
        self.path.rate_bps(at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrip() {
        let t =
            FileTrace::from_samples("unit test", &[(0.0, 4e6), (10.0, 1e6), (30.0, 4e6)]).unwrap();
        let json = t.to_json();
        let t2 = FileTrace::from_json(&json).unwrap();
        assert_eq!(t, t2);
        assert_eq!(t2.note(), "unit test");
        assert_eq!(t2.rate_bps(Time::from_secs(15)), 1e6);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir();
        let path = dir.join("ravel_trace_test.json");
        let t = FileTrace::from_samples("disk", &[(0.0, 2e6), (5.0, 1e6)]).unwrap();
        t.save(&path).unwrap();
        let t2 = FileTrace::load(&path).unwrap();
        assert_eq!(t, t2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rejects_empty() {
        let err = FileTrace::from_json(r#"{"samples": []}"#).unwrap_err();
        assert!(matches!(err, TraceFileError::Invalid(_)));
    }

    #[test]
    fn rejects_unsorted() {
        let err = FileTrace::from_json(r#"{"samples": [[1.0, 5.0], [1.0, 6.0]]}"#).unwrap_err();
        assert!(err.to_string().contains("strictly increasing"));
    }

    #[test]
    fn rejects_negative_rate() {
        let err = FileTrace::from_json(r#"{"samples": [[0.0, -5.0]]}"#).unwrap_err();
        assert!(err.to_string().contains("bad rate"));
    }

    #[test]
    fn from_samples_rejects_non_finite_entries_descriptively() {
        // Regression: these used to take the JSON round-trip, where NaN
        // has no representation, and die with an opaque parse error.
        // Direct validation names the offending value.
        let err = FileTrace::from_samples("t", &[(0.0, f64::NAN)]).unwrap_err();
        assert!(err.to_string().contains("bad rate NaN"), "{err}");
        let err = FileTrace::from_samples("t", &[(0.0, f64::INFINITY)]).unwrap_err();
        assert!(err.to_string().contains("bad rate inf"), "{err}");
        let err = FileTrace::from_samples("t", &[(f64::NAN, 1e6)]).unwrap_err();
        assert!(err.to_string().contains("bad timestamp NaN"), "{err}");
        let err = FileTrace::from_samples("t", &[(-1.0, 1e6)]).unwrap_err();
        assert!(err.to_string().contains("bad timestamp -1"), "{err}");
        let err = FileTrace::from_samples("t", &[(0.0, -2.0)]).unwrap_err();
        assert!(err.to_string().contains("bad rate -2"), "{err}");
    }

    #[test]
    fn from_samples_matches_from_json_on_shared_invariants() {
        // Both entry points funnel through the same validator, so the
        // non-shape errors are word-for-word identical.
        let via_samples = FileTrace::from_samples("t", &[(1.0, 5.0), (1.0, 6.0)]).unwrap_err();
        let via_json =
            FileTrace::from_json(r#"{"samples": [[1.0, 5.0], [1.0, 6.0]]}"#).unwrap_err();
        assert_eq!(via_samples.to_string(), via_json.to_string());
        let via_samples = FileTrace::from_samples("t", &[]).unwrap_err();
        let via_json = FileTrace::from_json(r#"{"samples": []}"#).unwrap_err();
        assert_eq!(via_samples.to_string(), via_json.to_string());
    }

    #[test]
    fn rejects_bad_json() {
        let err = FileTrace::from_json("not json").unwrap_err();
        assert!(matches!(err, TraceFileError::Parse(_)));
    }

    #[test]
    fn rejects_wrong_shapes() {
        for bad in [
            r#"{"samples": 5}"#,
            r#"{"samples": [[1.0]]}"#,
            r#"{"samples": [[1.0, 2.0, 3.0]]}"#,
            r#"{"samples": [["a", 2.0]]}"#,
            r#"{"note": 7, "samples": [[0.0, 1.0]]}"#,
            r#"[1, 2]"#,
        ] {
            let err = FileTrace::from_json(bad).unwrap_err();
            assert!(matches!(err, TraceFileError::Parse(_)), "{bad}");
        }
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = FileTrace::load(Path::new("/nonexistent/ravel.json")).unwrap_err();
        assert!(matches!(err, TraceFileError::Io(_)));
    }

    #[test]
    fn note_defaults_empty() {
        let t = FileTrace::from_json(r#"{"samples": [[0.0, 1.0]]}"#).unwrap();
        assert_eq!(t.note(), "");
    }

    #[test]
    fn note_with_special_characters_roundtrips() {
        let t = FileTrace::from_samples("a\"b\\c\nd", &[(0.0, 1.0)]).unwrap();
        let t2 = FileTrace::from_json(&t.to_json()).unwrap();
        assert_eq!(t2.note(), "a\"b\\c\nd");
    }

    /// Characters hostile text is drawn from: JSON punctuation, escapes,
    /// digits, literal letters, whitespace, a control character and
    /// multi-byte UTF-8.
    const ALPHABET: &[char] = &[
        '{', '}', '[', ']', ',', ':', '"', '\\', '/', '-', '+', '.', '0', '1', '9', 'e', 'E', 'n',
        'u', 'l', 't', 'r', 'f', 'a', 's', ' ', '\n', '\t', '\u{0}', 'é', '😀',
    ];

    proptest::proptest! {
        /// Microsecond-aligned samples round-trip through `to_json` /
        /// `from_json` exactly, and arbitrary text — random bytes,
        /// random JSON-ish characters, or a real trace file with one
        /// character replaced — parses to a value or an error, never a
        /// panic.
        #[test]
        fn samples_roundtrip_and_parsing_never_panics(
            steps in proptest::collection::vec((1u64..5_000_000, 0u64..20_000_000), 1..12),
            note in proptest::collection::vec(0usize..ALPHABET.len(), 0..20),
            noise in proptest::collection::vec(0usize..ALPHABET.len(), 0..80),
            bytes in proptest::collection::vec(0u16..256, 0..80),
            splice in (0usize..4096, 0usize..ALPHABET.len()),
        ) {
            let mut at_us = 0u64;
            let samples: Vec<(f64, f64)> = steps
                .iter()
                .map(|&(gap_us, rate)| {
                    let sample = (at_us as f64 / 1e6, rate as f64 * 0.37);
                    at_us += gap_us;
                    sample
                })
                .collect();
            let note: String = note.iter().map(|&i| ALPHABET[i]).collect();
            let trace = FileTrace::from_samples(&note, &samples).unwrap();
            let text = trace.to_json();
            proptest::prop_assert_eq!(FileTrace::from_json(&text).ok(), Some(trace));

            let mut chars: Vec<char> = text.chars().collect();
            let at = splice.0 % chars.len();
            chars[at] = ALPHABET[splice.1];
            let spliced: String = chars.into_iter().collect();
            let random: String = noise.iter().map(|&i| ALPHABET[i]).collect();
            let raw: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
            for hostile in [spliced, random, String::from_utf8_lossy(&raw).into_owned()] {
                let _ = json::parse(&hostile);
                let _ = FileTrace::from_json(&hostile);
            }
        }
    }
}
