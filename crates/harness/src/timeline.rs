//! JSONL timeline export for `--obs full`.
//!
//! One JSON object per recorded observability event, one event per
//! line, in deterministic order: experiments in canonical order, cells
//! in grid order, events in simulation order. [`write_timeline`] writes
//! each line field by field; [`record_json`] builds the same line as a
//! [`ravel_trace::json`] value (no serde, so offline builds work) and
//! is the reference its tests compare against. Every field is a pure
//! simulation fact (sim-time, sequence numbers, byte counts) — no wall
//! clock ever enters a line, which is what makes `diff` a valid
//! determinism gate on two timelines from different pool widths.
//!
//! Line shape:
//!
//! ```json
//! {"cell":"4->1M/gcc+adaptive","t":3.01644,"event":"target-changed",
//!  "old_bps":2934000.0,"new_bps":2640600.0,"reason":"gcc-overuse"}
//! ```
//!
//! `t` is the event's sim-time in seconds; `event` is the kebab-case
//! kind discriminator from [`ObsEvent::kind`]; the remaining fields are
//! the variant's payload.

use std::fmt::Write as _;
use std::io::{self, BufWriter, Write};

use ravel_obs::{ObsEvent, ObsRecord};
use ravel_trace::json::{write_string, Json};

use crate::experiments::ExperimentRun;

fn num(x: f64) -> Json {
    Json::Num(x)
}

/// Serializes one observability record as a single JSON object with the
/// owning cell's label attached.
pub fn record_json(cell: &str, rec: &ObsRecord) -> Json {
    let mut fields = vec![
        ("cell".to_string(), Json::Str(cell.to_string())),
        ("t".to_string(), num(rec.at.as_secs_f64())),
        ("event".to_string(), Json::Str(rec.event.kind().to_string())),
    ];
    let mut push = |key: &str, value: Json| fields.push((key.to_string(), value));
    match &rec.event {
        ObsEvent::FrameCaptured { index } => push("index", num(*index as f64)),
        ObsEvent::FrameEncoded {
            index,
            size_bytes,
            qp,
            target_bps,
        } => {
            push("index", num(*index as f64));
            push("size_bytes", num(*size_bytes as f64));
            push("qp", num(*qp));
            push("target_bps", num(*target_bps));
        }
        ObsEvent::PacketSent { seq, size_bytes } => {
            push("seq", num(*seq as f64));
            push("size_bytes", num(*size_bytes as f64));
        }
        ObsEvent::PacketDelivered { seq } => push("seq", num(*seq as f64)),
        ObsEvent::PacketDropped { seq, reason } => {
            push("seq", num(*seq as f64));
            push("reason", Json::Str(reason.to_string()));
        }
        ObsEvent::FeedbackReceived { report_seq, lost } => {
            push("report_seq", num(*report_seq as f64));
            push("lost", num(*lost as f64));
        }
        ObsEvent::TargetChanged {
            old_bps,
            new_bps,
            reason,
        } => {
            push("old_bps", num(*old_bps));
            push("new_bps", num(*new_bps));
            push("reason", Json::Str(reason.to_string()));
        }
        ObsEvent::PliSent | ObsEvent::KeyframeEmitted => {}
        ObsEvent::ChaosSegmentEntered { kind, from, until } => {
            push("kind", Json::Str(kind.to_string()));
            push("from", num(from.as_secs_f64()));
            push("until", num(until.as_secs_f64()));
        }
        ObsEvent::InvariantViolated { name, detail } => {
            push("name", Json::Str(name.to_string()));
            push("detail", Json::Str(detail.clone()));
        }
        ObsEvent::FeedbackRejected { report_seq, reason } => {
            push("report_seq", num(*report_seq as f64));
            push("reason", Json::Str(reason.to_string()));
        }
    }
    Json::Obj(fields)
}

/// Streams the full JSONL timeline of a run to `out`, buffered: every
/// recorded event of every cell of every experiment, one object per
/// line, each ending with a newline (nothing at all when nothing was
/// recorded, e.g. `--obs off` or `counters`). Returns the number of
/// records written.
///
/// Each line is written field by field into one reused buffer, byte
/// for byte what [`record_json`] renders.
pub fn write_timeline(experiments: &[ExperimentRun], out: &mut impl Write) -> io::Result<u64> {
    let mut out = BufWriter::new(out);
    let mut line = String::new();
    let mut records = 0;
    for exp in experiments {
        for cell in &exp.cells {
            let mut head = String::from("{\"cell\":");
            write_string(&mut head, &cell.label);
            for rec in cell.result.obs.events() {
                line.clear();
                line.push_str(&head);
                write_fields(&mut line, &rec);
                line.push_str("}\n");
                out.write_all(line.as_bytes())?;
                records += 1;
            }
        }
    }
    out.flush()?;
    Ok(records)
}

/// Appends `rec`'s fields after the cell label, in [`record_json`]'s
/// order and number format.
fn write_fields(out: &mut String, rec: &ObsRecord) {
    field_num(out, "t", rec.at.as_secs_f64());
    field_str(out, "event", rec.event.kind());
    match &rec.event {
        ObsEvent::FrameCaptured { index } => field_num(out, "index", *index as f64),
        ObsEvent::FrameEncoded {
            index,
            size_bytes,
            qp,
            target_bps,
        } => {
            field_num(out, "index", *index as f64);
            field_num(out, "size_bytes", *size_bytes as f64);
            field_num(out, "qp", *qp);
            field_num(out, "target_bps", *target_bps);
        }
        ObsEvent::PacketSent { seq, size_bytes } => {
            field_num(out, "seq", *seq as f64);
            field_num(out, "size_bytes", *size_bytes as f64);
        }
        ObsEvent::PacketDelivered { seq } => field_num(out, "seq", *seq as f64),
        ObsEvent::PacketDropped { seq, reason } => {
            field_num(out, "seq", *seq as f64);
            field_str(out, "reason", reason);
        }
        ObsEvent::FeedbackReceived { report_seq, lost } => {
            field_num(out, "report_seq", *report_seq as f64);
            field_num(out, "lost", *lost as f64);
        }
        ObsEvent::TargetChanged {
            old_bps,
            new_bps,
            reason,
        } => {
            field_num(out, "old_bps", *old_bps);
            field_num(out, "new_bps", *new_bps);
            field_str(out, "reason", reason);
        }
        ObsEvent::PliSent | ObsEvent::KeyframeEmitted => {}
        ObsEvent::ChaosSegmentEntered { kind, from, until } => {
            field_str(out, "kind", kind);
            field_num(out, "from", from.as_secs_f64());
            field_num(out, "until", until.as_secs_f64());
        }
        ObsEvent::InvariantViolated { name, detail } => {
            field_str(out, "name", name);
            field_str(out, "detail", detail);
        }
        ObsEvent::FeedbackRejected { report_seq, reason } => {
            field_num(out, "report_seq", *report_seq as f64);
            field_str(out, "reason", reason);
        }
    }
}

/// Appends `,"key":` for a key that needs no escaping.
fn key(out: &mut String, key: &str) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
}

/// Appends a number field formatted as `Json::Num` renders it.
fn field_num(out: &mut String, name: &str, x: f64) {
    key(out, name);
    if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

fn field_str(out: &mut String, name: &str, s: &str) {
    key(out, name);
    write_string(out, s);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::Output;
    use crate::pool::{CellRun, CellStatus};
    use ravel_obs::{ObsLog, ObsMode};
    use ravel_pipeline::SessionResult;
    use ravel_sim::Time;
    use ravel_trace::json::parse;
    use std::sync::Arc;
    use std::time::Duration;

    /// A finished cell whose `Full` obs log holds `events`, one per
    /// millisecond.
    fn cell_with(label: &str, events: &[ObsEvent]) -> CellRun {
        let mut obs = ObsLog::new(ObsMode::Full);
        for (i, event) in events.iter().enumerate() {
            obs.record(Time::from_millis(i as u64), || event.clone());
        }
        CellRun {
            label: label.to_string(),
            sim_secs: 1.0,
            wall: Duration::ZERO,
            cache_hit: false,
            controller: None,
            status: CellStatus::Ok,
            failure: None,
            result: Arc::new(SessionResult {
                obs,
                ..SessionResult::default()
            }),
            contracts: Vec::new(),
        }
    }

    #[test]
    fn write_timeline_streams_one_rendered_record_per_line() {
        let exp = |id, cells| ExperimentRun {
            id,
            title: "t",
            output: Output::Text(String::new()),
            cells,
        };
        let experiments = vec![
            exp(
                "a",
                vec![
                    cell_with("a/0", &[ObsEvent::PliSent, ObsEvent::KeyframeEmitted]),
                    cell_with("a/1", &[]),
                ],
            ),
            exp(
                "b",
                vec![cell_with(
                    "b/0",
                    &[
                        ObsEvent::PacketSent {
                            seq: 7,
                            size_bytes: 1200,
                        },
                        ObsEvent::PacketDelivered { seq: 7 },
                        ObsEvent::FrameCaptured { index: 3 },
                    ],
                )],
            ),
        ];
        let mut expected = String::new();
        for exp in &experiments {
            for cell in &exp.cells {
                for rec in cell.result.obs.events() {
                    expected.push_str(&record_json(&cell.label, &rec).render());
                    expected.push('\n');
                }
            }
        }
        let mut out = Vec::new();
        let records = write_timeline(&experiments, &mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap(), expected);
        assert_eq!(records, expected.lines().count() as u64);
        assert_eq!(records, 5);
        // Nothing recorded writes nothing.
        let mut empty = Vec::new();
        assert_eq!(write_timeline(&[exp("c", vec![])], &mut empty).unwrap(), 0);
        assert!(empty.is_empty());
    }

    #[test]
    fn write_timeline_matches_record_json_on_every_variant_and_edge() {
        let big = (1u64 << 53) + 1;
        let events = [
            ObsEvent::FrameCaptured { index: u64::MAX },
            ObsEvent::FrameEncoded {
                index: big,
                size_bytes: 1 << 60,
                qp: f64::NAN,
                target_bps: f64::INFINITY,
            },
            ObsEvent::FrameEncoded {
                index: 3,
                size_bytes: 0,
                qp: -0.0,
                target_bps: f64::from_bits(1),
            },
            ObsEvent::PacketSent {
                seq: big,
                size_bytes: u64::MAX,
            },
            ObsEvent::PacketDelivered {
                seq: 12_345_678_901_234_567_890,
            },
            ObsEvent::PacketDropped {
                seq: 1 << 53,
                reason: "queue",
            },
            ObsEvent::FeedbackReceived {
                report_seq: u64::MAX - 1,
                lost: 7,
            },
            ObsEvent::FeedbackRejected {
                report_seq: big,
                reason: "seq-warp",
            },
            ObsEvent::TargetChanged {
                old_bps: f64::NEG_INFINITY,
                new_bps: 1.5e300,
                reason: "gcc-overuse",
            },
            ObsEvent::TargetChanged {
                old_bps: -f64::NAN,
                new_bps: 0.1 + 0.2,
                reason: "watchdog",
            },
            ObsEvent::PliSent,
            ObsEvent::KeyframeEmitted,
            ObsEvent::ChaosSegmentEntered {
                kind: "blackout",
                from: Time::from_micros(u64::MAX),
                until: Time::from_micros(1),
            },
            ObsEvent::InvariantViolated {
                name: "conservation",
                detail: "a \"quoted\" \\ back\n\r\t \u{1}\u{1f}\u{7f} é ✓ 🎥".to_string(),
            },
        ];
        // Times that step backwards, repeat and reach the top of `u64`.
        let times = [0, u64::MAX, 5, 5, 1, 1 << 53, 3_000_001, 999_999_999_999];
        let mut obs = ObsLog::new(ObsMode::Full);
        for (i, event) in events.iter().enumerate() {
            obs.record(Time::from_micros(times[i % times.len()]), || event.clone());
        }
        let mut cell = cell_with("e\"1\"/gcc é\n\u{2}", &[]);
        Arc::make_mut(&mut cell.result).obs = obs;
        let experiments = vec![ExperimentRun {
            id: "x",
            title: "t",
            output: Output::Text(String::new()),
            cells: vec![cell, cell_with("plain", &events)],
        }];
        let mut expected = String::new();
        for cell in &experiments[0].cells {
            for rec in cell.result.obs.events() {
                expected.push_str(&record_json(&cell.label, &rec).render());
                expected.push('\n');
            }
        }
        let mut out = Vec::new();
        let records = write_timeline(&experiments, &mut out).unwrap();
        assert_eq!(records, 2 * events.len() as u64);
        assert_eq!(String::from_utf8(out).unwrap(), expected);
        assert!(
            expected.contains("null"),
            "non-finite values must render as null"
        );
    }

    #[test]
    fn record_json_round_trips_payload_fields() {
        let rec = ObsRecord {
            at: Time::from_millis(3125),
            event: ObsEvent::TargetChanged {
                old_bps: 4e6,
                new_bps: 3.4e6,
                reason: "gcc-overuse",
            },
        };
        let line = record_json("cell-a", &rec).render();
        let doc = parse(&line).unwrap();
        assert_eq!(doc.get("cell").and_then(Json::as_str), Some("cell-a"));
        assert_eq!(doc.get("t").and_then(Json::as_f64), Some(3.125));
        assert_eq!(
            doc.get("event").and_then(Json::as_str),
            Some("target-changed")
        );
        assert_eq!(doc.get("old_bps").and_then(Json::as_f64), Some(4e6));
        assert_eq!(doc.get("new_bps").and_then(Json::as_f64), Some(3.4e6));
        assert_eq!(
            doc.get("reason").and_then(Json::as_str),
            Some("gcc-overuse")
        );
    }

    #[test]
    fn payload_free_events_carry_only_the_envelope() {
        let rec = ObsRecord {
            at: Time::from_secs(1),
            event: ObsEvent::PliSent,
        };
        let line = record_json("c", &rec).render();
        assert_eq!(line, r#"{"cell":"c","t":1,"event":"pli-sent"}"#);
    }

    #[test]
    fn violation_detail_is_escaped() {
        let rec = ObsRecord {
            at: Time::ZERO,
            event: ObsEvent::InvariantViolated {
                name: "conservation",
                detail: "lost \"quote\" and\nnewline".to_string(),
            },
        };
        let line = record_json("c", &rec).render();
        assert!(!line.contains('\n'), "JSONL line must stay one line");
        let doc = parse(&line).unwrap();
        assert_eq!(
            doc.get("detail").and_then(Json::as_str),
            Some("lost \"quote\" and\nnewline")
        );
    }
}
