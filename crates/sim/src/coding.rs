//! Byte-stream coding shared by the compact recorders: LEB128 varints,
//! zigzag-coded signed steps and XOR-trimmed floats.
//!
//! The `Full` obs log, the per-frame latency recorder and
//! [`crate::TimeSeries`] each hold their records as one append-only
//! byte stream built from these pieces, and decode it only when read.
//! Every piece reads back exactly: integers to the bit, floats bit for
//! bit (NaN payloads, ±inf and −0.0 included).

/// Longest LEB128 encoding of a `u64`.
pub const VARINT_MAX: usize = 10;

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

/// Where an encoder writes its bytes.
pub trait ByteSink {
    /// Appends one byte.
    fn put(&mut self, b: u8);

    /// Appends `v` as an LEB128 varint: seven bits a byte, low bits
    /// first, the high bit set on every byte but the last.
    #[inline]
    fn put_varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.put(v as u8 | 0x80);
            v >>= 7;
        }
        self.put(v as u8);
    }

    /// Appends the low `n` (at most eight) bytes of `v`, little-endian.
    #[inline]
    fn put_low_bytes(&mut self, v: u64, n: u32) {
        for &b in &v.to_le_bytes()[..n as usize] {
            self.put(b);
        }
    }
}

impl ByteSink for Vec<u8> {
    #[inline]
    fn put(&mut self, b: u8) {
        self.push(b);
    }

    #[inline]
    fn put_low_bytes(&mut self, v: u64, n: u32) {
        self.extend_from_slice(&v.to_le_bytes()[..n as usize]);
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

/// Reads a stream written through a [`ByteSink`], front to back.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> ByteReader<'a> {
        ByteReader { bytes, pos: 0 }
    }

    /// Bytes read so far.
    pub fn pos(&self) -> usize {
        self.pos
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
    /// word, zero past the end of the stream. Does not move the read
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
        for (v, len) in [(0, 1), (127, 1), (128, 2), (u64::MAX, VARINT_MAX)] {
            let mut buf = Vec::new();
            buf.put_varint(v);
            assert_eq!(buf.len(), len, "{v}");
            assert_eq!(ByteReader::new(&buf).varint(), v);
        }
    }

    #[test]
    fn a_repeated_float_keeps_no_bytes() {
        let mut last = 0;
        Xor::new(&mut last, 1.5f64.to_bits());
        let again = Xor::new(&mut last, 1.5f64.to_bits());
        assert_eq!((again.header, again.kept), (0, 0));
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
            let mut buf = Vec::new();
            let (mut last_int, mut last_bits) = (0, 0);
            for &(a, b, pick) in &rows {
                let x = Xor::new(&mut last_bits, float(b, pick));
                buf.put(x.header);
                buf.put_varint(step(last_int, a));
                last_int = a;
                buf.put_low_bytes(x.value, x.kept);
            }
            let mut r = ByteReader::new(&buf);
            let (mut last_int, mut last_bits) = (0, 0);
            for &(a, b, pick) in &rows {
                let header = r.byte();
                last_int = apply_step(last_int, r.varint());
                prop_assert_eq!(last_int, a);
                prop_assert_eq!(r.xor(&mut last_bits, header).to_bits(), float(b, pick));
            }
            prop_assert_eq!(r.pos(), buf.len());
        }
    }
}
