//! Compact storage for a `Full` log: one append-only byte stream,
//! decoded back to [`ObsRecord`]s only when read.
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
//! The bytes live in chunks that never move once allocated. Chunk `k`
//! holds up to `CHUNK_MIN << k` bytes, capped at `CHUNK_MAX`. Each
//! record is encoded straight into its chunk's spare capacity: a chunk
//! takes a record only while at least `SLOT` bytes (the longest record,
//! rounded up) are free, so no record straddles two chunks, appending
//! never copies stored bytes, and the unused tail stays under one chunk.
//! The split depends only on the records, so equal streams compare
//! equal chunk for chunk.

use std::mem::MaybeUninit;

use ravel_sim::coding::{apply_step, step, ByteReader, ByteSink, VARINT_MAX};
use ravel_sim::Time;

use crate::{ObsEvent, ObsRecord};

/// Capacity of the first chunk.
const CHUNK_MIN: usize = 256;
/// Capacity of every chunk from the ninth on.
const CHUNK_MAX: usize = CHUNK_MIN << 8;
/// Longest encoding of one record: `FrameEncoded`'s tag, time step,
/// two varints and two floats.
const RECORD_MAX: usize = 1 + 3 * VARINT_MAX + 8 + 8;
/// Spare bytes a chunk must have to take the next record: `RECORD_MAX`
/// rounded up to a power of two, so the encoder masks its write index
/// into range instead of checking it per byte.
const SLOT: usize = RECORD_MAX.next_power_of_two();

/// The encoded records of one log, oldest first.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct EventStream {
    chunks: Vec<Vec<u8>>,
    /// Interned `&'static str` payloads, in first-use order.
    names: Vec<&'static str>,
    /// `InvariantViolated` details, in record order.
    details: Vec<String>,
    /// What the next record's steps are taken from.
    last: Bases,
    len: usize,
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
        self.len
    }

    /// Appends one record, encoding it in place at the end of the last
    /// chunk.
    pub(crate) fn push(&mut self, at: Time, event: ObsEvent) {
        let last = &mut self.last;
        let time_step = Bases::step(&mut last.at_us, at.as_micros());
        let names = &mut self.names;
        let chunk = chunk_with_room(&mut self.chunks);
        let spare: &mut [MaybeUninit<u8>; SLOT] = (&mut chunk.spare_capacity_mut()[..SLOT])
            .try_into()
            .expect("a slice of SLOT bytes");
        let mut e = Encoder { buf: spare, len: 0 };
        e.put(tag(&event));
        e.put_varint(time_step);
        match event {
            ObsEvent::FrameCaptured { index } => e.put_varint(Bases::step(&mut last.index, index)),
            ObsEvent::FrameEncoded {
                index,
                size_bytes,
                qp,
                target_bps,
            } => {
                e.put_varint(Bases::step(&mut last.index, index));
                e.put_varint(size_bytes);
                e.float(qp);
                e.float(target_bps);
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
                e.float(old_bps);
                e.float(new_bps);
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
                self.details.push(detail);
            }
        }
        let written = e.len;
        // Below SLOT the masked index never wrapped, so the encoder wrote
        // each of bytes `0..written` of the spare slot once, in order.
        assert!(written <= RECORD_MAX, "obs record of {written} bytes");
        // SAFETY: the `[..SLOT]` slice above exists only if `chunk` has
        // at least SLOT bytes of spare capacity, and the assert shows the
        // encoder initialized the first `written` (< SLOT) of them.
        unsafe { chunk.set_len(chunk.len() + written) };
        self.len += 1;
    }

    /// A decoder over every record, oldest first.
    pub(crate) fn records(&self) -> Records<'_> {
        Records {
            stream: self,
            chunk: 0,
            pos: 0,
            last: Bases::default(),
            detail: 0,
            left: self.len,
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

/// The last chunk, after opening a new one if fewer than `SLOT` bytes of
/// the last are free. A cloned stream's chunks hold no spare capacity;
/// the reserve restores it without changing where chunks split.
fn chunk_with_room(chunks: &mut Vec<Vec<u8>>) -> &mut Vec<u8> {
    let count = chunks.len();
    if count == 0 || chunks[count - 1].len() + SLOT > chunk_capacity(count - 1) {
        chunks.push(Vec::with_capacity(chunk_capacity(count)));
    }
    let chunk = chunks.last_mut().expect("a chunk was just ensured");
    chunk.reserve(SLOT);
    chunk
}

fn chunk_capacity(index: usize) -> usize {
    (CHUNK_MIN << index.min(8)).min(CHUNK_MAX)
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

/// Writes one record's bytes into the spare slot of its chunk.
struct Encoder<'a> {
    buf: &'a mut [MaybeUninit<u8>; SLOT],
    len: usize,
}

impl ByteSink for Encoder<'_> {
    #[inline]
    fn put(&mut self, b: u8) {
        self.buf[self.len % SLOT].write(b);
        self.len += 1;
    }
}

impl Encoder<'_> {
    fn float(&mut self, x: f64) {
        self.put_low_bytes(x.to_bits(), 8);
    }
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
    chunk: usize,
    pos: usize,
    last: Bases,
    /// Index of the next `InvariantViolated` detail.
    detail: usize,
    left: usize,
}

impl Iterator for Records<'_> {
    type Item = ObsRecord;

    fn next(&mut self) -> Option<ObsRecord> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let stream = self.stream;
        if self.pos == stream.chunks[self.chunk].len() {
            self.chunk += 1;
            self.pos = 0;
        }
        let mut d = ByteReader::new(&stream.chunks[self.chunk][self.pos..]);
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
                qp: float(&mut d),
                target_bps: float(&mut d),
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
                reason: name(&mut d),
            },
            5 => ObsEvent::FeedbackReceived {
                report_seq: Bases::apply(&mut last.report_seq, d.varint()),
                lost: d.varint(),
            },
            6 => ObsEvent::FeedbackRejected {
                report_seq: d.varint(),
                reason: name(&mut d),
            },
            7 => ObsEvent::TargetChanged {
                old_bps: float(&mut d),
                new_bps: float(&mut d),
                reason: name(&mut d),
            },
            8 => ObsEvent::PliSent,
            9 => ObsEvent::KeyframeEmitted,
            10 => ObsEvent::ChaosSegmentEntered {
                kind: name(&mut d),
                from: time(&mut d),
                until: time(&mut d),
            },
            11 => {
                let name = name(&mut d);
                self.detail += 1;
                ObsEvent::InvariantViolated {
                    name,
                    detail: stream.details[self.detail - 1].clone(),
                }
            }
            _ => unreachable!("obs stream tag {tag} was never written"),
        };
        self.pos += d.pos();
        Some(ObsRecord {
            at: Time::from_micros(at_us),
            event,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
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
        let bytes: usize = stream.chunks.iter().map(Vec::len).sum();
        // Tag, time step and seq step after the first record.
        assert_eq!(bytes, 3 * 100 + 2 + 2);
    }

    #[test]
    fn records_never_straddle_chunks_and_clones_resume() {
        let mut stream = EventStream::default();
        let n = 40_000u64;
        for i in 0..n {
            stream.push(
                Time::from_micros(i * 37),
                ObsEvent::FrameEncoded {
                    index: i,
                    size_bytes: i * 1009,
                    qp: i as f64 / 3.0,
                    target_bps: 1e6,
                },
            );
        }
        assert!(
            stream.chunks.len() > 9,
            "the test must reach full-size chunks"
        );
        for (k, chunk) in stream.chunks.iter().enumerate() {
            assert!(chunk.len() <= chunk_capacity(k));
            assert!(chunk.len() + SLOT > chunk_capacity(k) || k + 1 == stream.chunks.len());
        }
        let all: Vec<ObsRecord> = stream.records().collect();
        assert_eq!(all.len() as u64, n);
        for (i, rec) in (0..n).zip(&all) {
            assert_eq!(rec.at.as_micros(), i * 37);
            assert!(matches!(rec.event, ObsEvent::FrameEncoded { index, .. } if index == i));
        }
        let mut it = stream.records();
        it.nth(20_000);
        let rest: Vec<ObsRecord> = it.clone().collect();
        assert_eq!(rest, all[20_001..]);
        assert_eq!(it.len(), rest.len());
        // A clone keeps no spare capacity; appending to it must still
        // match appending to the original.
        let mut copy = stream.clone();
        for s in [&mut stream, &mut copy] {
            s.push(Time::from_micros(n * 37), ObsEvent::PliSent);
        }
        assert_eq!(copy, stream);
        assert_eq!(copy.records().last(), stream.records().last());
    }
}
