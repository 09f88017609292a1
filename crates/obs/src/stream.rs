//! Compact storage for a `Full` log: one record per event in a
//! [`ByteStore`], decoded back to [`ObsRecord`]s only when read.
//!
//! Each record is a tag byte, then its time as the signed step in µs
//! from the previous record (zigzag LEB128 varint, so time may go
//! backwards), then the payload in field order:
//!
//! * a packet `seq` (`PacketSent`, `PacketDelivered`, `PacketDropped`)
//!   as the zigzag varint step from the previous packet record's seq, a
//!   frame `index` (`FrameCaptured`, `FrameEncoded`) from the previous
//!   frame record's index, and a `FeedbackReceived` `report_seq` from
//!   the previous `FeedbackReceived`'s: consecutive records of a kind
//!   number their subjects closely, so most of these take one byte, and
//!   any value (backwards, 0, `u64::MAX`) still reads back exactly;
//! * other `u64` fields and payload [`Time`]s as LEB128 varints;
//! * `f64` fields as their 8 raw little-endian bytes, so every value,
//!   NaN payloads included, reads back bit for bit;
//! * `&'static str` names as a varint index into the stream's intern
//!   table (one byte for the first 128 distinct names);
//! * an `InvariantViolated` detail as the next entry of a side list.
//!
//! The longest record, `FrameEncoded` (a tag, the time step, two
//! varints and two floats), takes 47 bytes, within the store's
//! [`RECORD_MAX`](ravel_sim::coding::RECORD_MAX).

use ravel_sim::coding::{apply_step, step, ByteReader, ByteStore, Slot};
use ravel_sim::Time;

use crate::{ObsEvent, ObsRecord};

/// The encoded records of one log, oldest first.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct EventStream {
    store: ByteStore,
    /// Interned `&'static str` payloads, in first-use order.
    names: Vec<&'static str>,
    /// `InvariantViolated` details, in record order.
    details: Vec<String>,
    /// What the next record's steps are taken from.
    last: Bases,
}

/// The previous value of each step-coded field: the base its next
/// value is coded against, on both encode and decode.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct Bases {
    /// Time of the last record, µs.
    at_us: u64,
    /// Seq of the last packet record.
    seq: u64,
    /// Index of the last frame record.
    index: u64,
    /// `report_seq` of the last `FeedbackReceived`.
    report_seq: u64,
}

impl Bases {
    /// The step from the previous value in `field` to `value`, which
    /// becomes the new base.
    fn step(field: &mut u64, value: u64) -> u64 {
        step(std::mem::replace(field, value), value)
    }

    /// The value a stored step leads to from `field`, which becomes
    /// the new base.
    fn apply(field: &mut u64, step: u64) -> u64 {
        *field = apply_step(*field, step);
        *field
    }
}

impl EventStream {
    /// Records stored.
    pub(crate) fn len(&self) -> usize {
        self.store.len()
    }

    /// Appends one record, encoding it in place in the store.
    pub(crate) fn push(&mut self, at: Time, event: ObsEvent) {
        let last = &mut self.last;
        let time_step = Bases::step(&mut last.at_us, at.as_micros());
        let (names, details) = (&mut self.names, &mut self.details);
        self.store.append(|e| {
            e.put(tag(&event));
            e.put_varint(time_step);
            match event {
                ObsEvent::FrameCaptured { index } => {
                    e.put_varint(Bases::step(&mut last.index, index))
                }
                ObsEvent::FrameEncoded {
                    index,
                    size_bytes,
                    qp,
                    target_bps,
                } => {
                    e.put_varint(Bases::step(&mut last.index, index));
                    e.put_varint(size_bytes);
                    put_float(e, qp);
                    put_float(e, target_bps);
                }
                ObsEvent::PacketSent { seq, size_bytes } => {
                    e.put_varint(Bases::step(&mut last.seq, seq));
                    e.put_varint(size_bytes);
                }
                ObsEvent::PacketDelivered { seq } => e.put_varint(Bases::step(&mut last.seq, seq)),
                ObsEvent::PacketDropped { seq, reason } => {
                    e.put_varint(Bases::step(&mut last.seq, seq));
                    e.put_varint(intern(names, reason));
                }
                ObsEvent::FeedbackReceived { report_seq, lost } => {
                    e.put_varint(Bases::step(&mut last.report_seq, report_seq));
                    e.put_varint(lost);
                }
                ObsEvent::FeedbackRejected { report_seq, reason } => {
                    e.put_varint(report_seq);
                    e.put_varint(intern(names, reason));
                }
                ObsEvent::TargetChanged {
                    old_bps,
                    new_bps,
                    reason,
                } => {
                    put_float(e, old_bps);
                    put_float(e, new_bps);
                    e.put_varint(intern(names, reason));
                }
                ObsEvent::PliSent | ObsEvent::KeyframeEmitted => {}
                ObsEvent::ChaosSegmentEntered { kind, from, until } => {
                    e.put_varint(intern(names, kind));
                    e.put_varint(from.as_micros());
                    e.put_varint(until.as_micros());
                }
                ObsEvent::InvariantViolated { name, detail } => {
                    e.put_varint(intern(names, name));
                    details.push(detail);
                }
            }
        });
    }

    /// Frees the store's spare capacity.
    pub(crate) fn trim(&mut self) {
        self.store.trim();
    }

    /// A decoder over every record, oldest first.
    pub(crate) fn records(&self) -> Records<'_> {
        Records {
            stream: self,
            reader: self.store.reader(),
            last: Bases::default(),
            detail: 0,
        }
    }
}

/// The index of `name` in the stream's intern table, added on first use.
fn intern(names: &mut Vec<&'static str>, name: &'static str) -> u64 {
    let found = names.iter().position(|&n| n == name);
    let index = found.unwrap_or_else(|| {
        names.push(name);
        names.len() - 1
    });
    index as u64
}

fn tag(event: &ObsEvent) -> u8 {
    match event {
        ObsEvent::FrameCaptured { .. } => 0,
        ObsEvent::FrameEncoded { .. } => 1,
        ObsEvent::PacketSent { .. } => 2,
        ObsEvent::PacketDelivered { .. } => 3,
        ObsEvent::PacketDropped { .. } => 4,
        ObsEvent::FeedbackReceived { .. } => 5,
        ObsEvent::FeedbackRejected { .. } => 6,
        ObsEvent::TargetChanged { .. } => 7,
        ObsEvent::PliSent => 8,
        ObsEvent::KeyframeEmitted => 9,
        ObsEvent::ChaosSegmentEntered { .. } => 10,
        ObsEvent::InvariantViolated { .. } => 11,
    }
}

/// Writes a raw float field.
fn put_float(e: &mut Slot<'_>, x: f64) {
    e.put_low_bytes(x.to_bits(), 8);
}

/// Reads a raw float field.
fn float(d: &mut ByteReader<'_>) -> f64 {
    f64::from_bits(d.low_bytes(8))
}

/// Reads a payload [`Time`] field.
fn time(d: &mut ByteReader<'_>) -> Time {
    Time::from_micros(d.varint())
}

/// Iterator over a log's retained records, oldest first, decoding each
/// one as it is reached. Returned by [`crate::ObsLog::events`]; cloning
/// it is cheap and resumes from the same record.
#[derive(Debug, Clone)]
pub struct Records<'a> {
    stream: &'a EventStream,
    reader: ByteReader<'a>,
    last: Bases,
    /// Index of the next `InvariantViolated` detail.
    detail: usize,
}

impl Iterator for Records<'_> {
    type Item = ObsRecord;

    fn next(&mut self) -> Option<ObsRecord> {
        let d = &mut self.reader;
        if !d.next_record() {
            return None;
        }
        let stream = self.stream;
        let tag = d.byte();
        let last = &mut self.last;
        let at_us = Bases::apply(&mut last.at_us, d.varint());
        let name = |d: &mut ByteReader<'_>| stream.names[d.varint() as usize];
        let event = match tag {
            0 => ObsEvent::FrameCaptured {
                index: Bases::apply(&mut last.index, d.varint()),
            },
            1 => ObsEvent::FrameEncoded {
                index: Bases::apply(&mut last.index, d.varint()),
                size_bytes: d.varint(),
                qp: float(d),
                target_bps: float(d),
            },
            2 => ObsEvent::PacketSent {
                seq: Bases::apply(&mut last.seq, d.varint()),
                size_bytes: d.varint(),
            },
            3 => ObsEvent::PacketDelivered {
                seq: Bases::apply(&mut last.seq, d.varint()),
            },
            4 => ObsEvent::PacketDropped {
                seq: Bases::apply(&mut last.seq, d.varint()),
                reason: name(d),
            },
            5 => ObsEvent::FeedbackReceived {
                report_seq: Bases::apply(&mut last.report_seq, d.varint()),
                lost: d.varint(),
            },
            6 => ObsEvent::FeedbackRejected {
                report_seq: d.varint(),
                reason: name(d),
            },
            7 => ObsEvent::TargetChanged {
                old_bps: float(d),
                new_bps: float(d),
                reason: name(d),
            },
            8 => ObsEvent::PliSent,
            9 => ObsEvent::KeyframeEmitted,
            10 => ObsEvent::ChaosSegmentEntered {
                kind: name(d),
                from: time(d),
                until: time(d),
            },
            11 => {
                let name = name(d);
                self.detail += 1;
                ObsEvent::InvariantViolated {
                    name,
                    detail: stream.details[self.detail - 1].clone(),
                }
            }
            _ => unreachable!("obs stream tag {tag} was never written"),
        };
        Some(ObsRecord {
            at: Time::from_micros(at_us),
            event,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.reader.left();
        (left, Some(left))
    }
}

impl ExactSizeIterator for Records<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reason sets drawn from, so a stream interns names from several
    /// sources, some copied to distinct allocations with equal contents.
    const REASONS: [&[&str]; 3] = [
        &["queue", "loss", "chaos"],
        &["gcc-overuse", "gcc-normal", "watchdog", "nada", "bbr"],
        &["seq-warp", "zero-size", "blackout", "conservation"],
    ];

    /// Floats that must survive exactly: signed zeros, subnormals,
    /// infinities and NaNs with distinct payloads.
    const FLOATS: [u64; 9] = [
        0x8000_0000_0000_0000,
        0x0000_0000_0000_0001,
        0x800f_ffff_ffff_ffff,
        0x7ff0_0000_0000_0000,
        0xfff0_0000_0000_0000,
        0x7ff8_0000_0000_0000,
        0x7ff0_0000_dead_beef,
        0xfff8_0000_0000_0001,
        0x4150_0000_0000_0000,
    ];

    /// A random stream input: `(time, event)` pairs with times that
    /// step backwards, stay put and jump the whole `u64` range.
    type Case = Vec<(u64, ObsEvent)>;

    /// Expands one generated row of raw draws into a record.
    fn record(prev_us: &mut u64, raw: (u64, u64, u64, u64), set: usize) -> (u64, ObsEvent) {
        let (a, b, c, d) = raw;
        let pick = |x: u64| match x % 5 {
            0 => u64::MAX,
            1 => x >> (x % 64),
            2 => x % 128,
            _ => x,
        };
        let float = |x: u64| match x % 3 {
            0 => f64::from_bits(FLOATS[(x / 3) as usize % FLOATS.len()]),
            1 => f64::from_bits(x),
            _ => (x % 10_000_000) as f64 / 7.0,
        };
        let names = REASONS[(set + (b % 2) as usize) % REASONS.len()];
        let name = names[(c % names.len() as u64) as usize];
        // Copy the name into a fresh leak so interning cannot lean on
        // pointer identity alone.
        let name: &'static str = if d % 4 == 0 {
            Box::leak(name.to_string().into_boxed_str())
        } else {
            name
        };
        *prev_us = match a % 4 {
            0 => *prev_us,
            1 => prev_us.wrapping_sub(b % 1_000_000),
            2 => pick(b),
            _ => prev_us.wrapping_add(b % 100_000),
        };
        let event = match a / 4 % 12 {
            0 => ObsEvent::FrameCaptured { index: pick(b) },
            1 => ObsEvent::FrameEncoded {
                index: pick(b),
                size_bytes: pick(c),
                qp: float(d),
                target_bps: float(c ^ d),
            },
            2 => ObsEvent::PacketSent {
                seq: pick(c),
                size_bytes: pick(d),
            },
            3 => ObsEvent::PacketDelivered { seq: pick(d) },
            4 => ObsEvent::PacketDropped {
                seq: pick(b),
                reason: name,
            },
            5 => ObsEvent::FeedbackReceived {
                report_seq: pick(c),
                lost: pick(d),
            },
            6 => ObsEvent::FeedbackRejected {
                report_seq: pick(d),
                reason: name,
            },
            7 => ObsEvent::TargetChanged {
                old_bps: float(b),
                new_bps: float(d),
                reason: name,
            },
            8 => ObsEvent::PliSent,
            9 => ObsEvent::KeyframeEmitted,
            10 => ObsEvent::ChaosSegmentEntered {
                kind: name,
                from: Time::from_micros(pick(c)),
                until: Time::from_micros(pick(d)),
            },
            _ => ObsEvent::InvariantViolated {
                name,
                detail: format!("d{b:x} \"{}\"\n", c % 1000),
            },
        };
        (*prev_us, event)
    }

    fn case(rows: Vec<(u64, u64, u64, u64)>, set: usize) -> Case {
        let mut prev = 0;
        rows.into_iter()
            .map(|raw| record(&mut prev, raw, set))
            .collect()
    }

    /// Equality that compares floats by their bits (NaN != NaN under
    /// `PartialEq`).
    fn same(want: &ObsEvent, got: &ObsEvent) -> bool {
        match (want, got) {
            (
                ObsEvent::FrameEncoded {
                    index: i1,
                    size_bytes: s1,
                    qp: q1,
                    target_bps: t1,
                },
                ObsEvent::FrameEncoded {
                    index: i2,
                    size_bytes: s2,
                    qp: q2,
                    target_bps: t2,
                },
            ) => {
                i1 == i2 && s1 == s2 && q1.to_bits() == q2.to_bits() && t1.to_bits() == t2.to_bits()
            }
            (
                ObsEvent::TargetChanged {
                    old_bps: o1,
                    new_bps: n1,
                    reason: r1,
                },
                ObsEvent::TargetChanged {
                    old_bps: o2,
                    new_bps: n2,
                    reason: r2,
                },
            ) => o1.to_bits() == o2.to_bits() && n1.to_bits() == n2.to_bits() && r1 == r2,
            _ => want == got,
        }
    }

    fn check_round_trip(case: &Case) -> Result<(), TestCaseError> {
        let mut stream = EventStream::default();
        for (us, event) in case {
            stream.push(Time::from_micros(*us), event.clone());
        }
        prop_assert_eq!(stream.len(), case.len());
        let records = stream.records();
        prop_assert_eq!(records.len(), case.len());
        let mut n = 0;
        for ((us, want), got) in case.iter().zip(records) {
            prop_assert_eq!(got.at.as_micros(), *us, "time of record {}", n);
            prop_assert!(
                same(want, &got.event),
                "record {n}: wrote {want:?}, read {:?}",
                got.event
            );
            n += 1;
        }
        prop_assert_eq!(n, case.len());
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn every_record_round_trips_bit_for_bit(
            rows in proptest::collection::vec(
                (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
                0..120,
            ),
            set in 0usize..3,
        ) {
            check_round_trip(&case(rows, set))?;
        }

        #[test]
        fn step_coded_fields_round_trip(
            rows in proptest::collection::vec((0u64..u64::MAX, 0u64..u64::MAX), 0..160),
        ) {
            // Each row moves one walk (packet seqs, frame indexes or
            // report seqs) by a small step either way, to 0 or
            // u64::MAX, or anywhere, wrapping past either end.
            let mut walks = [0u64; 3];
            let case: Case = rows
                .into_iter()
                .enumerate()
                .map(|(i, (a, b))| {
                    let walk = &mut walks[(a % 3) as usize];
                    *walk = match a / 3 % 6 {
                        0 => walk.wrapping_add(b % 8),
                        1 => walk.wrapping_sub(b % 8),
                        2 => 0,
                        3 => u64::MAX,
                        4 => walk.wrapping_add(b),
                        _ => b,
                    };
                    let v = *walk;
                    let event = match (a % 3, b % 3) {
                        (0, 0) => ObsEvent::PacketSent { seq: v, size_bytes: b },
                        (0, 1) => ObsEvent::PacketDelivered { seq: v },
                        (0, _) => ObsEvent::PacketDropped { seq: v, reason: "queue" },
                        (1, 0) => ObsEvent::FrameCaptured { index: v },
                        (1, _) => ObsEvent::FrameEncoded {
                            index: v,
                            size_bytes: b,
                            qp: 30.0,
                            target_bps: 1e6,
                        },
                        _ => ObsEvent::FeedbackReceived { report_seq: v, lost: b % 4 },
                    };
                    (i as u64 * 1_000, event)
                })
                .collect();
            check_round_trip(&case)?;
        }
    }

    #[test]
    fn consecutive_packet_seqs_take_one_byte() {
        let mut stream = EventStream::default();
        for seq in 1_000_000..1_000_100 {
            stream.push(Time::from_micros(seq), ObsEvent::PacketDelivered { seq });
        }
        let bytes = stream.store.byte_len();
        // Tag, time step and seq step after the first record.
        assert_eq!(bytes, 3 * 100 + 2 + 2);
    }
}
