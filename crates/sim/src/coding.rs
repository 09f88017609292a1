//! The one byte store of the compact recorders, and the coding they
//! share: LEB128 varints, zigzag-coded signed steps and XOR-trimmed
//! floats.
//!
//! The `Full` obs log, the per-frame latency recorder and each
//! [`crate::TimeSeries`] hold their records in a [`ByteStore`]: chunks
//! that never move, written in place one record at a time through a
//! [`Slot`] and read back through a [`ByteReader`]. Each recorder keeps
//! its own record format and the previous values its fields are coded
//! against; the store owns only the bytes and how they grow. Records
//! are decoded only when read, and every piece reads back exactly:
//! integers to the bit, floats bit for bit (NaN payloads, ±inf and
//! −0.0 included).

use std::mem::MaybeUninit;

/// Maps a signed step to an unsigned one, so a small step of either
/// sign takes few varint bytes: 0, −1, 1, −2, … become 0, 1, 2, 3, ….
fn zigzag(step: i64) -> u64 {
    ((step << 1) ^ (step >> 63)) as u64
}

/// The inverse of [`zigzag`].
fn unzigzag(z: u64) -> i64 {
    (z >> 1) as i64 ^ -((z & 1) as i64)
}

/// The wrapping step from `last` to `next`, zigzag-coded: the varint
/// form of a field stored as its change from the previous value. Any
/// two `u64`s have a step, so the field may go backwards or jump.
pub fn step(last: u64, next: u64) -> u64 {
    zigzag(next.wrapping_sub(last) as i64)
}

/// The value a [`step`] leads to from `last`.
pub fn apply_step(last: u64, step: u64) -> u64 {
    last.wrapping_add(unzigzag(step) as u64)
}

/// Capacity of a store's first chunk.
const CHUNK_MIN: usize = 256;
/// Capacity of every chunk from the ninth on.
const CHUNK_MAX: usize = CHUNK_MIN << 8;

/// Longest record a [`ByteStore`] takes, and the spare bytes a chunk
/// must have to take the next one. A power of two, so [`Slot`] masks
/// its write index into range instead of checking it per byte.
pub const RECORD_MAX: usize = 64;

/// An append-only store of variable-length records, the one container
/// every compact recorder holds its bytes in.
///
/// The bytes live in chunks that never move once allocated. Chunk `k`
/// holds up to `256 << k` bytes, capped at 64 KiB from the ninth on.
/// [`ByteStore::append`] encodes each record straight into its chunk's
/// spare capacity: a chunk takes a record only while at least
/// [`RECORD_MAX`] bytes are free, so no record straddles two chunks,
/// appending never copies stored bytes, and the unused tail stays under
/// one chunk. The split depends only on the records, so equal stores
/// compare equal chunk for chunk. The store knows nothing of a record's
/// format: each recorder writes its own and reads it back through
/// [`ByteStore::reader`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ByteStore {
    chunks: Vec<Vec<u8>>,
    /// Records stored.
    len: usize,
}

impl ByteStore {
    /// Records stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no record was stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes the records take, without the chunks' spare capacity.
    pub fn byte_len(&self) -> usize {
        self.chunks.iter().map(Vec::len).sum()
    }

    /// Appends one record, which `write` encodes in place at the end of
    /// the last chunk. Panics if the record is longer than
    /// [`RECORD_MAX`] bytes.
    #[inline]
    pub fn append(&mut self, write: impl FnOnce(&mut Slot<'_>)) {
        let chunk = self.chunk_with_room();
        let spare: &mut [MaybeUninit<u8>; RECORD_MAX] = (&mut chunk.spare_capacity_mut()
            [..RECORD_MAX])
            .try_into()
            .expect("a slice of RECORD_MAX bytes");
        let mut slot = Slot { buf: spare, len: 0 };
        write(&mut slot);
        let written = slot.len;
        // Up to RECORD_MAX the masked index never wrapped, so the slot
        // wrote each of bytes `0..written` of the spare capacity once,
        // in order.
        assert!(written <= RECORD_MAX, "a record of {written} bytes");
        // SAFETY: the `[..RECORD_MAX]` slice above exists only if `chunk`
        // has at least RECORD_MAX bytes of spare capacity, and the assert
        // shows the slot initialized the first `written` of them.
        unsafe { chunk.set_len(chunk.len() + written) };
        self.len += 1;
    }

    /// Frees the last chunk's spare capacity, which is all the store
    /// holds beyond its records and the slack at the other chunks'
    /// ends. Later appends still work and split where they would have.
    pub fn trim(&mut self) {
        if let Some(last) = self.chunks.last_mut() {
            last.shrink_to_fit();
        }
    }

    /// The last chunk, after opening a new one if fewer than
    /// [`RECORD_MAX`] bytes of the last are free. A cloned or trimmed
    /// store's last chunk holds no spare capacity; the reserve restores
    /// it without changing where chunks split.
    fn chunk_with_room(&mut self) -> &mut Vec<u8> {
        let chunks = &mut self.chunks;
        let count = chunks.len();
        if count == 0 || chunks[count - 1].len() + RECORD_MAX > chunk_capacity(count - 1) {
            chunks.push(Vec::with_capacity(chunk_capacity(count)));
        }
        let chunk = chunks.last_mut().expect("a chunk was just ensured");
        chunk.reserve(RECORD_MAX);
        chunk
    }

    /// A reader before the first record.
    pub fn reader(&self) -> ByteReader<'_> {
        ByteReader {
            bytes: &[],
            rest: &self.chunks,
            pos: 0,
            left: self.len,
        }
    }
}

fn chunk_capacity(index: usize) -> usize {
    (CHUNK_MIN << index.min(8)).min(CHUNK_MAX)
}

/// Writes one record into the spare capacity of a store's last chunk.
/// Handed out by [`ByteStore::append`].
pub struct Slot<'a> {
    buf: &'a mut [MaybeUninit<u8>; RECORD_MAX],
    len: usize,
}

impl Slot<'_> {
    /// Appends one byte.
    #[inline]
    pub fn put(&mut self, b: u8) {
        self.buf[self.len % RECORD_MAX].write(b);
        self.len += 1;
    }

    /// Appends `v` as an LEB128 varint: seven bits a byte, low bits
    /// first, the high bit set on every byte but the last.
    #[inline]
    pub fn put_varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.put(v as u8 | 0x80);
            v >>= 7;
        }
        self.put(v as u8);
    }

    /// Appends the low `n` (at most eight) bytes of `v`, little-endian.
    #[inline]
    pub fn put_low_bytes(&mut self, v: u64, n: u32) {
        for &b in &v.to_le_bytes()[..n as usize] {
            self.put(b);
        }
    }
}

/// A float coded as the XOR of its bits with the previous value's,
/// trimmed of zero bytes at both ends. Slowly changing values share
/// their sign, exponent and high mantissa bits with their predecessor,
/// and round values end in zero bits, so most floats keep a few bytes;
/// a repeated value keeps none.
#[derive(Debug, Clone, Copy)]
pub struct Xor {
    /// The count of trailing zero bytes trimmed (bits 4–6) and of bytes
    /// kept (bits 0–3). Bit 7 is always clear, free for the caller.
    pub header: u8,
    /// The XOR shifted down past its trimmed trailing bytes: only its
    /// low `kept` bytes can be nonzero.
    pub value: u64,
    /// Bytes of `value` to store, 0 to 8.
    pub kept: u32,
}

impl Xor {
    /// Codes `bits` against `*last` and makes it the next value's base.
    #[inline]
    pub fn new(last: &mut u64, bits: u64) -> Xor {
        let x = bits ^ *last;
        *last = bits;
        let trailing = if x == 0 { 0 } else { x.trailing_zeros() / 8 };
        let kept = 8 - x.leading_zeros() / 8 - trailing;
        Xor {
            header: (trailing << 4 | kept) as u8,
            value: x >> (8 * trailing),
            kept,
        }
    }
}

/// Reads a store's records front to back. Returned by
/// [`ByteStore::reader`]; cloning it is cheap and resumes from the same
/// record.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    /// The chunk being read.
    bytes: &'a [u8],
    /// The chunks after it.
    rest: &'a [Vec<u8>],
    pos: usize,
    /// Records not yet started.
    left: usize,
}

impl ByteReader<'_> {
    /// Moves to the next record's first byte, into the next chunk once
    /// this one is read to its end; false once every record was started.
    /// A decoder calls it before reading each record.
    #[inline]
    pub fn next_record(&mut self) -> bool {
        if self.left == 0 {
            return false;
        }
        self.left -= 1;
        if self.pos == self.bytes.len() {
            if let Some((next, rest)) = self.rest.split_first() {
                (self.bytes, self.rest, self.pos) = (next, rest, 0);
            }
        }
        true
    }

    /// Records not yet started.
    pub fn left(&self) -> usize {
        self.left
    }

    /// Moves the read position `n` bytes on.
    #[inline]
    pub fn skip(&mut self, n: usize) {
        self.pos += n;
    }

    /// Reads one byte.
    #[inline]
    pub fn byte(&mut self) -> u8 {
        let b = self.bytes[self.pos];
        self.pos += 1;
        b
    }

    /// Reads an LEB128 varint.
    #[inline]
    pub fn varint(&mut self) -> u64 {
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

    /// The eight bytes from the read position on as a little-endian
    /// word, zero past the end of the chunk. Does not move the read
    /// position.
    #[inline]
    pub fn peek_word(&self) -> u64 {
        let mut raw = [0; 8];
        match self.bytes.get(self.pos..self.pos + 8) {
            Some(word) => raw.copy_from_slice(word),
            None => {
                let tail = &self.bytes[self.pos..];
                raw[..tail.len()].copy_from_slice(tail);
            }
        }
        u64::from_le_bytes(raw)
    }

    /// Reads `n` (at most eight) little-endian bytes.
    #[inline]
    pub fn low_bytes(&mut self, n: u32) -> u64 {
        let v = self.peek_word() & u64::MAX.checked_shr(64 - 8 * n).unwrap_or(0);
        self.pos += n as usize;
        v
    }

    /// Reads the float whose [`Xor`] `header` describes against
    /// `*last`, and makes it the next value's base. Bit 7 of the header
    /// is ignored.
    #[inline]
    pub fn xor(&mut self, last: &mut u64, header: u8) -> f64 {
        let kept = u32::from(header & 0xf);
        *last ^= self.low_bytes(kept) << (8 * u32::from(header >> 4 & 0x7));
        f64::from_bits(*last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Float bit patterns that must survive exactly.
    const EDGES: [u64; 8] = [
        0,
        0x8000_0000_0000_0000,
        0x0000_0000_0000_0001,
        0x7ff0_0000_0000_0000,
        0xfff0_0000_0000_0000,
        0x7ff8_0000_0000_0000,
        0x7ff0_0000_dead_beef,
        u64::MAX,
    ];

    #[test]
    fn zigzag_orders_small_steps_first() {
        let steps = [0, -1, 1, -2, 2, i64::MIN, i64::MAX];
        let coded = [0, 1, 2, 3, 4, u64::MAX, u64::MAX - 1];
        for (s, z) in steps.into_iter().zip(coded) {
            assert_eq!(zigzag(s), z, "{s}");
            assert_eq!(unzigzag(z), s, "{z}");
        }
        for (a, b) in [(0, u64::MAX), (u64::MAX, 0), (5, 3), (7, 7)] {
            assert_eq!(apply_step(a, step(a, b)), b, "{a} -> {b}");
        }
        assert_eq!(step(41, 42), 2, "a step of one fits a byte");
    }

    #[test]
    fn varint_lengths_and_edges() {
        for (v, len) in [(0, 1), (127, 1), (128, 2), (u64::MAX, 10)] {
            let mut store = ByteStore::default();
            store.append(|s| s.put_varint(v));
            assert_eq!(store.byte_len(), len, "{v}");
            let mut r = store.reader();
            assert!(r.next_record());
            assert_eq!(r.varint(), v);
        }
    }

    #[test]
    fn a_repeated_float_keeps_no_bytes() {
        let mut last = 0;
        Xor::new(&mut last, 1.5f64.to_bits());
        let again = Xor::new(&mut last, 1.5f64.to_bits());
        assert_eq!((again.header, again.kept), (0, 0));
    }

    /// Appends `len` bytes, each a function of the record's number and
    /// its own position.
    fn append_numbered(store: &mut ByteStore, number: usize, len: usize) {
        store.append(|s| {
            for i in 0..len {
                s.put((number * 31 + i) as u8);
            }
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn mixed_fields_round_trip(
            rows in proptest::collection::vec((0u64..u64::MAX, 0u64..u64::MAX, 0usize..8), 0..64)
        ) {
            let float = |bits: u64, pick: usize| if pick < EDGES.len() / 2 {
                EDGES[(bits % EDGES.len() as u64) as usize]
            } else {
                bits >> (bits % 64)
            };
            let mut store = ByteStore::default();
            let (mut last_int, mut last_bits) = (0, 0);
            for &(a, b, pick) in &rows {
                let x = Xor::new(&mut last_bits, float(b, pick));
                store.append(|s| {
                    s.put(x.header);
                    s.put_varint(step(last_int, a));
                    s.put_low_bytes(x.value, x.kept);
                });
                last_int = a;
            }
            prop_assert_eq!(store.len(), rows.len());
            let mut r = store.reader();
            let (mut last_int, mut last_bits) = (0, 0);
            for &(a, b, pick) in &rows {
                prop_assert!(r.next_record());
                let header = r.byte();
                last_int = apply_step(last_int, r.varint());
                prop_assert_eq!(last_int, a);
                prop_assert_eq!(r.xor(&mut last_bits, header).to_bits(), float(b, pick));
            }
            prop_assert!(!r.next_record());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

        /// Records of every length from 1 to `RECORD_MAX` bytes fill
        /// the store past its full-size chunks: none straddles two
        /// chunks, each reads back whole, a reader cloned midway resumes
        /// at its record, and a cloned store, which keeps no spare
        /// capacity, takes the next record exactly as the original does.
        #[test]
        fn records_never_straddle_chunks_and_clones_resume(
            lens in proptest::collection::vec(1usize..RECORD_MAX + 1, 1..64),
            runs in proptest::collection::vec(0usize..64, 1..8),
            resume_at in 0usize..usize::MAX,
        ) {
            // Runs of one length (a series at a fixed cadence) between
            // mixed lengths (obs records), to well past 9 chunks.
            let mut want = Vec::new();
            while want.iter().sum::<usize>() < 3 * CHUNK_MAX {
                for (k, &len) in lens.iter().enumerate() {
                    let repeat = 1 + runs[k % runs.len()] * (k % 3);
                    want.extend(std::iter::repeat_n(len, repeat));
                }
            }
            let mut store = ByteStore::default();
            for (n, &len) in want.iter().enumerate() {
                append_numbered(&mut store, n, len);
            }
            prop_assert!(store.chunks.len() > 9, "the case must reach full-size chunks");
            let last = store.chunks.len() - 1;
            for (k, chunk) in store.chunks.iter().enumerate() {
                prop_assert!(chunk.len() <= chunk_capacity(k));
                prop_assert!(chunk.len() + RECORD_MAX > chunk_capacity(k) || k == last);
            }
            prop_assert_eq!(store.len(), want.len());
            prop_assert_eq!(store.byte_len(), want.iter().sum::<usize>());

            let read = |r: &mut ByteReader<'_>, n: usize| -> Result<(), TestCaseError> {
                prop_assert!(r.next_record(), "record {} is missing", n);
                for i in 0..want[n] {
                    prop_assert_eq!(r.byte(), (n * 31 + i) as u8, "byte {} of record {}", i, n);
                }
                Ok(())
            };
            let mut r = store.reader();
            let resume = resume_at % want.len();
            let mut midway = None;
            for n in 0..want.len() {
                if n == resume {
                    midway = Some(r.clone());
                }
                read(&mut r, n)?;
            }
            prop_assert!(!r.next_record());
            let mut midway = midway.expect("a record to resume at");
            prop_assert_eq!(midway.left(), want.len() - resume);
            for n in resume..want.len() {
                read(&mut midway, n)?;
            }

            let mut copy = store.clone();
            for s in [&mut store, &mut copy] {
                append_numbered(s, want.len(), RECORD_MAX);
            }
            prop_assert_eq!(&copy, &store);
        }
    }
}
