//! The Video Buffering Verifier (VBV) — H.264's leaky-bucket rate cap.
//!
//! The VBV models the decoder-side buffer: it fills at `maxrate` and each
//! frame drains its own size. If a frame would drain more than the
//! buffer holds, a compliant encoder must shrink it (raise QP). The VBV
//! is the only mechanism in stock x264 that bounds *short-term*
//! overshoot — and because it is sized in seconds of the *configured*
//! rate, a stale VBV after a bandwidth drop still admits seconds' worth
//! of oversized frames. `ravel-core`'s fast path rescales it immediately.
//!
//! Convention: `occupancy` is the fullness of the decoder buffer in bits;
//! encoding a frame of `b` bits *decreases* occupancy by `b` and time
//! passing *increases* it at `maxrate`, capped at `buffer_bits`.

use ravel_sim::Dur;

/// Leaky-bucket VBV state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Vbv {
    /// Fill rate in bits/second (the stream's hard rate cap).
    maxrate_bps: f64,
    /// Buffer size in bits.
    buffer_bits: f64,
    /// Current decoder-buffer fullness in bits, in `[0, buffer_bits]`.
    occupancy_bits: f64,
}

impl Vbv {
    /// Creates a VBV with `buffer_secs` seconds of buffering at
    /// `maxrate_bps`, initially full (x264 default `vbv-init` ≈ 0.9; we
    /// start full — the difference washes out in the first second).
    pub fn new(maxrate_bps: f64, buffer_secs: f64) -> Vbv {
        assert!(
            maxrate_bps.is_finite() && maxrate_bps > 0.0,
            "Vbv: bad maxrate {maxrate_bps}"
        );
        assert!(
            buffer_secs.is_finite() && buffer_secs > 0.0,
            "Vbv: bad buffer {buffer_secs}"
        );
        let buffer_bits = maxrate_bps * buffer_secs;
        Vbv {
            maxrate_bps,
            buffer_bits,
            occupancy_bits: buffer_bits,
        }
    }

    /// The configured fill rate.
    pub fn maxrate_bps(&self) -> f64 {
        self.maxrate_bps
    }

    /// The buffer size in bits.
    pub fn buffer_bits(&self) -> f64 {
        self.buffer_bits
    }

    /// Current fullness in bits.
    pub fn occupancy_bits(&self) -> f64 {
        self.occupancy_bits
    }

    /// Fullness as a fraction of the buffer size.
    pub fn fullness(&self) -> f64 {
        self.occupancy_bits / self.buffer_bits
    }

    /// Refills the buffer for `elapsed` wall time at `maxrate`.
    pub fn refill(&mut self, elapsed: Dur) {
        self.occupancy_bits =
            (self.occupancy_bits + self.maxrate_bps * elapsed.as_secs_f64()).min(self.buffer_bits);
    }

    /// The largest frame (in bits) that can be emitted right now without
    /// underflowing the buffer.
    pub fn max_frame_bits(&self) -> u64 {
        self.occupancy_bits.max(0.0) as u64
    }

    /// Records a frame of `bits` being emitted. Returns `true` if the
    /// frame fit; `false` means the frame violated VBV (underflow), in
    /// which case occupancy is floored at zero and the violation is the
    /// caller's to handle (x264 logs "VBV underflow" and carries on).
    pub fn commit_frame(&mut self, bits: u64) -> bool {
        let ok = bits as f64 <= self.occupancy_bits + 1e-9;
        self.occupancy_bits = (self.occupancy_bits - bits as f64).max(0.0);
        ok
    }

    /// Reconfigures rate and buffer size *preserving relative fullness* —
    /// the fast path's VBV rescale. A stale 2-second buffer at 4 Mbps
    /// (8 Mbit) becomes a 2-second buffer at 1 Mbps (2 Mbit) with the same
    /// fractional occupancy, so overshoot headroom shrinks immediately.
    pub fn rescale(&mut self, new_maxrate_bps: f64, buffer_secs: f64) {
        assert!(
            new_maxrate_bps.is_finite() && new_maxrate_bps > 0.0,
            "Vbv::rescale: bad maxrate {new_maxrate_bps}"
        );
        assert!(
            buffer_secs.is_finite() && buffer_secs > 0.0,
            "Vbv::rescale: bad buffer {buffer_secs}"
        );
        let fullness = self.fullness();
        self.maxrate_bps = new_maxrate_bps;
        self.buffer_bits = new_maxrate_bps * buffer_secs;
        self.occupancy_bits = self.buffer_bits * fullness;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_full() {
        let v = Vbv::new(2e6, 1.5);
        assert_eq!(v.buffer_bits(), 3e6);
        assert_eq!(v.occupancy_bits(), 3e6);
        assert!((v.fullness() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn commit_drains_refill_fills() {
        let mut v = Vbv::new(1e6, 1.0); // 1 Mbit buffer
        assert!(v.commit_frame(400_000));
        assert_eq!(v.occupancy_bits(), 600_000.0);
        v.refill(Dur::millis(100)); // +100 kbit
        assert!((v.occupancy_bits() - 700_000.0).abs() < 1.0);
    }

    #[test]
    fn refill_caps_at_buffer_size() {
        let mut v = Vbv::new(1e6, 1.0);
        v.refill(Dur::secs(100));
        assert_eq!(v.occupancy_bits(), 1e6);
    }

    #[test]
    fn underflow_detected_and_floored() {
        let mut v = Vbv::new(1e6, 1.0);
        assert!(!v.commit_frame(2_000_000));
        assert_eq!(v.occupancy_bits(), 0.0);
        assert_eq!(v.max_frame_bits(), 0);
    }

    #[test]
    fn max_frame_bits_tracks_occupancy() {
        let mut v = Vbv::new(1e6, 1.0);
        v.commit_frame(300_000);
        assert_eq!(v.max_frame_bits(), 700_000);
    }

    #[test]
    fn rescale_preserves_fullness() {
        let mut v = Vbv::new(4e6, 2.0); // 8 Mbit
        v.commit_frame(4_000_000); // 50% full
        v.rescale(1e6, 2.0); // 2 Mbit buffer
        assert!((v.fullness() - 0.5).abs() < 1e-12);
        assert!((v.occupancy_bits() - 1e6).abs() < 1.0);
        assert_eq!(v.maxrate_bps(), 1e6);
    }

    #[test]
    #[should_panic(expected = "bad maxrate")]
    fn rejects_zero_rate() {
        Vbv::new(0.0, 1.0);
    }

    proptest::proptest! {
        /// Occupancy is always within [0, buffer] under arbitrary
        /// interleavings of commits and refills.
        #[test]
        fn occupancy_bounded(ops in proptest::collection::vec((0u64..2_000_000, 0u64..500), 1..50)) {
            let mut v = Vbv::new(1e6, 1.0);
            for (bits, refill_ms) in ops {
                v.commit_frame(bits);
                v.refill(Dur::millis(refill_ms));
                proptest::prop_assert!(v.occupancy_bits() >= 0.0);
                proptest::prop_assert!(v.occupancy_bits() <= v.buffer_bits() + 1e-9);
            }
        }
    }
}
