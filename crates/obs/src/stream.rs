//! Compact storage for a `Full` log: one append-only byte stream,
//! decoded back to [`ObsRecord`]s only when read.
//!
//! Each record is a tag byte, then its time as the signed step in µs
//! from the previous record (zigzag LEB128 varint, so time may go
//! backwards), then the payload in field order:
//!
//! * `u64` fields and payload [`Time`]s as LEB128 varints;
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

use ravel_sim::Time;

use crate::{ObsEvent, ObsRecord};

/// Capacity of the first chunk.
const CHUNK_MIN: usize = 256;
/// Capacity of every chunk from the ninth on.
const CHUNK_MAX: usize = CHUNK_MIN << 8;
/// Longest encoding of one record: `FrameEncoded`'s tag, time step,
/// two varints and two floats.
const RECORD_MAX: usize = 1 + 10 + 10 + 10 + 8 + 8;
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
    /// Time of the last record in µs: the base of the next time step.
    last_us: u64,
    len: usize,
}

impl EventStream {
    /// Records stored.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Appends one record, encoding it in place at the end of the last
    /// chunk.
    pub(crate) fn push(&mut self, at: Time, event: ObsEvent) {
        let us = at.as_micros();
        let step = zigzag(us.wrapping_sub(self.last_us) as i64);
        self.last_us = us;
        let names = &mut self.names;
        let chunk = chunk_with_room(&mut self.chunks);
        let spare: &mut [MaybeUninit<u8>; SLOT] = (&mut chunk.spare_capacity_mut()[..SLOT])
            .try_into()
            .expect("a slice of SLOT bytes");
        let mut e = Encoder { buf: spare, len: 0 };
        e.byte(tag(&event));
        e.varint(step);
        match event {
            ObsEvent::FrameCaptured { index } => e.varint(index),
            ObsEvent::FrameEncoded {
                index,
                size_bytes,
                qp,
                target_bps,
            } => {
                e.varint(index);
                e.varint(size_bytes);
                e.float(qp);
                e.float(target_bps);
            }
            ObsEvent::PacketSent { seq, size_bytes } => {
                e.varint(seq);
                e.varint(size_bytes);
            }
            ObsEvent::PacketDelivered { seq } => e.varint(seq),
            ObsEvent::PacketDropped { seq, reason } => {
                e.varint(seq);
                e.varint(intern(names, reason));
            }
            ObsEvent::FeedbackReceived { report_seq, lost } => {
                e.varint(report_seq);
                e.varint(lost);
            }
            ObsEvent::FeedbackRejected { report_seq, reason } => {
                e.varint(report_seq);
                e.varint(intern(names, reason));
            }
            ObsEvent::TargetChanged {
                old_bps,
                new_bps,
                reason,
            } => {
                e.float(old_bps);
                e.float(new_bps);
                e.varint(intern(names, reason));
            }
            ObsEvent::PliSent | ObsEvent::KeyframeEmitted => {}
            ObsEvent::ChaosSegmentEntered { kind, from, until } => {
                e.varint(intern(names, kind));
                e.varint(from.as_micros());
                e.varint(until.as_micros());
            }
            ObsEvent::InvariantViolated { name, detail } => {
                e.varint(intern(names, name));
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
            last_us: 0,
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

fn zigzag(step: i64) -> u64 {
    ((step << 1) ^ (step >> 63)) as u64
}

fn unzigzag(z: u64) -> i64 {
    (z >> 1) as i64 ^ -((z & 1) as i64)
}

/// Writes one record's bytes into the spare slot of its chunk.
struct Encoder<'a> {
    buf: &'a mut [MaybeUninit<u8>; SLOT],
    len: usize,
}

impl Encoder<'_> {
    fn byte(&mut self, b: u8) {
        self.buf[self.len % SLOT].write(b);
        self.len += 1;
    }

    fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.byte(v as u8 | 0x80);
            v >>= 7;
        }
        self.byte(v as u8);
    }

    fn float(&mut self, x: f64) {
        for b in x.to_bits().to_le_bytes() {
            self.byte(b);
        }
    }
}

/// Reads one record's fields from the front of a chunk's tail.
struct Decoder<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Decoder<'_> {
    fn byte(&mut self) -> u8 {
        let b = self.bytes[self.pos];
        self.pos += 1;
        b
    }

    fn varint(&mut self) -> u64 {
        let mut v = 0u64;
        let mut shift = 0;
        loop {
            let b = self.byte();
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return v;
            }
            shift += 7;
        }
    }

    fn float(&mut self) -> f64 {
        let mut raw = [0; 8];
        raw.copy_from_slice(&self.bytes[self.pos..self.pos + 8]);
        self.pos += 8;
        f64::from_bits(u64::from_le_bytes(raw))
    }

    fn time(&mut self) -> Time {
        Time::from_micros(self.varint())
    }
}

/// Iterator over a log's retained records, oldest first, decoding each
/// one as it is reached. Returned by [`crate::ObsLog::events`]; cloning
/// it is cheap and resumes from the same record.
#[derive(Debug, Clone)]
pub struct Records<'a> {
    stream: &'a EventStream,
    chunk: usize,
    pos: usize,
    last_us: u64,
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
        let mut d = Decoder {
            bytes: &stream.chunks[self.chunk][self.pos..],
            pos: 0,
        };
        let tag = d.byte();
        self.last_us = self.last_us.wrapping_add(unzigzag(d.varint()) as u64);
        let name = |d: &mut Decoder<'_>| stream.names[d.varint() as usize];
        let event = match tag {
            0 => ObsEvent::FrameCaptured { index: d.varint() },
            1 => ObsEvent::FrameEncoded {
                index: d.varint(),
                size_bytes: d.varint(),
                qp: d.float(),
                target_bps: d.float(),
            },
            2 => ObsEvent::PacketSent {
                seq: d.varint(),
                size_bytes: d.varint(),
            },
            3 => ObsEvent::PacketDelivered { seq: d.varint() },
            4 => ObsEvent::PacketDropped {
                seq: d.varint(),
                reason: name(&mut d),
            },
            5 => ObsEvent::FeedbackReceived {
                report_seq: d.varint(),
                lost: d.varint(),
            },
            6 => ObsEvent::FeedbackRejected {
                report_seq: d.varint(),
                reason: name(&mut d),
            },
            7 => ObsEvent::TargetChanged {
                old_bps: d.float(),
                new_bps: d.float(),
                reason: name(&mut d),
            },
            8 => ObsEvent::PliSent,
            9 => ObsEvent::KeyframeEmitted,
            10 => ObsEvent::ChaosSegmentEntered {
                kind: name(&mut d),
                from: d.time(),
                until: d.time(),
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
        self.pos += d.pos;
        Some(ObsRecord {
            at: Time::from_micros(self.last_us),
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
