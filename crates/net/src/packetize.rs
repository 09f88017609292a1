//! Frame → packets fragmentation and receiver-side reassembly.

use ravel_codec::EncodedFrame;
use ravel_sim::Time;

use crate::packet::{MediaKind, Packet, HEADER_BYTES, PAYLOAD_MTU};

/// Splits encoded frames into MTU-sized packets with transport-wide
/// sequence numbers.
#[derive(Debug, Clone)]
pub struct Packetizer {
    next_seq: u64,
    payload_mtu: u64,
}

impl Default for Packetizer {
    fn default() -> Packetizer {
        Packetizer {
            next_seq: 0,
            payload_mtu: PAYLOAD_MTU,
        }
    }
}

impl Packetizer {
    /// Creates a packetizer starting at sequence 0 with the default
    /// [`PAYLOAD_MTU`].
    pub fn new() -> Packetizer {
        Packetizer::default()
    }

    /// The payload MTU currently in effect.
    pub fn payload_mtu(&self) -> u64 {
        self.payload_mtu
    }

    /// Overrides the payload MTU (chaos MTU-shrink); `None` restores the
    /// default [`PAYLOAD_MTU`]. Clamped to ≥ 64 bytes so a hostile value
    /// cannot explode the fragment count.
    pub fn set_payload_mtu(&mut self, mtu: Option<u64>) {
        self.payload_mtu = mtu.unwrap_or(PAYLOAD_MTU).max(64);
    }

    /// The next sequence number that will be assigned.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Allocates one transport-wide sequence number for a non-video
    /// packet (audio shares the same feedback sequence space in WebRTC).
    pub fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Fragments one encoded frame. Every packet carries `HEADER_BYTES`
    /// of overhead; payload is split into at most `PAYLOAD_MTU`-byte
    /// chunks. `send_time` is left at the frame's encode-completion time
    /// and restamped by the pacer when the packet actually hits the wire.
    pub fn packetize(&mut self, frame: &EncodedFrame) -> Vec<Packet> {
        let mut packets = Vec::new();
        self.packetize_into(frame, &mut packets);
        packets
    }

    /// [`Packetizer::packetize`] into a caller-owned buffer, the
    /// hot-path form: `out` is cleared, reserved to the exact
    /// `div_ceil`-derived fragment count, and filled — a session reusing
    /// one scratch buffer amortizes the allocation to zero after the
    /// largest frame.
    pub fn packetize_into(&mut self, frame: &EncodedFrame, out: &mut Vec<Packet>) {
        let payload = frame.size_bytes.max(1);
        let num_fragments = payload.div_ceil(self.payload_mtu) as u16;
        out.clear();
        out.reserve(num_fragments as usize);
        let capacity_before = out.capacity();
        let mut remaining = payload;
        for fragment in 0..num_fragments {
            let chunk = remaining.min(self.payload_mtu);
            remaining -= chunk;
            out.push(Packet {
                kind: MediaKind::Video,
                seq: self.next_seq,
                frame_index: frame.index,
                fragment,
                num_fragments,
                size_bytes: chunk + HEADER_BYTES,
                pts: frame.pts,
                send_time: frame.encoded_at,
                is_keyframe: frame.frame_type.is_intra(),
            });
            self.next_seq += 1;
        }
        // The reserve above sized the buffer exactly; any growth inside
        // the loop means the fragment-count derivation went wrong.
        debug_assert_eq!(
            out.capacity(),
            capacity_before,
            "packetize_into reallocated on the hot path"
        );
    }
}

/// A frame fully reassembled at the receiver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReassembledFrame {
    /// The frame's capture index.
    pub frame_index: u64,
    /// Capture timestamp.
    pub pts: Time,
    /// Arrival time of the *last* fragment — the frame is usable only
    /// from this instant.
    pub complete_at: Time,
    /// Whether the frame is a keyframe.
    pub is_keyframe: bool,
    /// Total received payload+header bytes.
    pub total_bytes: u64,
}

/// Receiver-side reassembly: collects fragments until a frame is
/// complete. Frames abandoned by newer completions are reported lost.
#[derive(Debug, Clone, Default)]
pub struct FrameAssembler {
    /// Incomplete frames in frame-index order. Only a few frames are in
    /// flight at once and most arrivals belong to the newest, so the
    /// window is searched from its back.
    pending: Vec<PendingFrame>,
    /// Fragment maps of finished and evicted frames, reused by the next
    /// new frame: in steady state reassembly allocates nothing.
    spare: Vec<Vec<bool>>,
}

#[derive(Debug, Clone)]
struct PendingFrame {
    frame_index: u64,
    received: Vec<bool>,
    received_count: u16,
    bytes: u64,
    pts: Time,
    is_keyframe: bool,
    last_arrival: Time,
}

impl FrameAssembler {
    /// Incomplete frames older than this many frames behind the newest
    /// completion are unrecoverable (RTX has long given up) and evicted.
    const REPAIR_HORIZON: u64 = 64;

    /// Creates an empty assembler.
    pub fn new() -> FrameAssembler {
        FrameAssembler::default()
    }

    /// Number of incomplete frames currently buffered.
    #[cfg(test)]
    fn pending_frames(&self) -> usize {
        self.pending.len()
    }

    /// Feeds one arrived packet; returns the frame if this packet
    /// completed it.
    pub fn push(&mut self, packet: &Packet, arrival: Time) -> Option<ReassembledFrame> {
        let index = packet.frame_index;
        let before = self.pending.iter().rposition(|f| f.frame_index <= index);
        let at = match before {
            Some(i) if self.pending[i].frame_index == index => i,
            _ => {
                let mut received = self.spare.pop().unwrap_or_default();
                received.clear();
                received.resize(packet.num_fragments as usize, false);
                let at = before.map_or(0, |i| i + 1);
                self.pending.insert(
                    at,
                    PendingFrame {
                        frame_index: index,
                        received,
                        received_count: 0,
                        bytes: 0,
                        pts: packet.pts,
                        is_keyframe: packet.is_keyframe,
                        last_arrival: arrival,
                    },
                );
                at
            }
        };
        let entry = &mut self.pending[at];
        let idx = packet.fragment as usize;
        if idx >= entry.received.len() || entry.received[idx] {
            // Duplicate or malformed fragment; ignore.
            return None;
        }
        entry.received[idx] = true;
        entry.received_count += 1;
        entry.bytes += packet.size_bytes;
        entry.last_arrival = entry.last_arrival.max(arrival);

        if entry.received_count as usize == entry.received.len() {
            let done = self.pending.remove(at);
            self.spare.push(done.received);
            // Keep older incomplete frames: with NACK/RTX their missing
            // fragments may still arrive, and the playout jitter buffer
            // can decode them in capture order afterwards. Only evict
            // frames that have fallen beyond any plausible repair horizon.
            let horizon = index.saturating_sub(Self::REPAIR_HORIZON);
            let stale = self.pending.partition_point(|f| f.frame_index < horizon);
            let evicted = self.pending.drain(..stale).map(|f| f.received);
            self.spare.extend(evicted);
            Some(ReassembledFrame {
                frame_index: index,
                pts: done.pts,
                complete_at: done.last_arrival.max(arrival),
                is_keyframe: done.is_keyframe,
                total_bytes: done.bytes,
            })
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ravel_codec::{FrameType, Qp};
    use ravel_sim::Dur;
    use ravel_video::Resolution;

    fn frame(index: u64, size_bytes: u64) -> EncodedFrame {
        EncodedFrame {
            index,
            pts: Time::from_millis(index * 33),
            encoded_at: Time::from_millis(index * 33 + 5),
            frame_type: if index == 0 {
                FrameType::I
            } else {
                FrameType::P
            },
            size_bytes,
            qp: Qp::TYPICAL,
            ssim: 0.95,
            psnr_db: 40.0,
            encode_time: Dur::millis(5),
            encode_resolution: Resolution::P720,
            temporal_layer: 0,
        }
    }

    #[test]
    fn fragments_cover_payload() {
        let mut p = Packetizer::new();
        let pkts = p.packetize(&frame(0, 3000));
        assert_eq!(pkts.len(), 3);
        let payload: u64 = pkts.iter().map(|p| p.size_bytes - HEADER_BYTES).sum();
        assert_eq!(payload, 3000);
        assert_eq!(pkts[0].size_bytes, 1240);
        assert_eq!(pkts[2].size_bytes, 600 + 40);
    }

    #[test]
    fn shrunken_mtu_multiplies_fragments_and_reset_restores_default() {
        let mut p = Packetizer::new();
        assert_eq!(p.payload_mtu(), PAYLOAD_MTU);
        p.set_payload_mtu(Some(300));
        let pkts = p.packetize(&frame(0, 3000));
        assert_eq!(pkts.len(), 10);
        let payload: u64 = pkts.iter().map(|p| p.size_bytes - HEADER_BYTES).sum();
        assert_eq!(payload, 3000);
        assert!(pkts.iter().all(|p| p.size_bytes <= 300 + HEADER_BYTES));
        p.set_payload_mtu(None);
        assert_eq!(p.payload_mtu(), PAYLOAD_MTU);
        assert_eq!(p.packetize(&frame(1, 3000)).len(), 3);
        // Hostile values clamp instead of exploding the fragment count.
        p.set_payload_mtu(Some(1));
        assert_eq!(p.payload_mtu(), 64);
    }

    #[test]
    fn packetize_into_reuses_buffer_without_reallocation() {
        let mut p = Packetizer::new();
        let mut buf = Vec::new();
        p.packetize_into(&frame(0, 3000), &mut buf);
        assert_eq!(buf.len(), 3);
        let cap = buf.capacity();
        let ptr = buf.as_ptr();
        // A same-size frame reuses the allocation verbatim.
        p.packetize_into(&frame(1, 3000), &mut buf);
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.capacity(), cap);
        assert_eq!(buf.as_ptr(), ptr);
        assert_eq!(buf[0].frame_index, 1);
        // A smaller frame fits in place too.
        p.packetize_into(&frame(2, 500), &mut buf);
        assert_eq!(buf.len(), 1);
        assert_eq!(buf.capacity(), cap);
        // Matches the allocating form exactly.
        let mut q = Packetizer::new();
        q.take_seq();
        q.take_seq();
        q.take_seq();
        q.take_seq();
        q.take_seq();
        q.take_seq();
        assert_eq!(buf, q.packetize(&frame(2, 500)));
    }

    #[test]
    fn sequence_numbers_are_transport_wide() {
        let mut p = Packetizer::new();
        let a = p.packetize(&frame(0, 2500));
        let b = p.packetize(&frame(1, 1000));
        assert_eq!(a.iter().map(|p| p.seq).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(b[0].seq, 3);
        assert_eq!(p.next_seq(), 4);
    }

    #[test]
    fn single_packet_frame() {
        let mut p = Packetizer::new();
        let pkts = p.packetize(&frame(0, 500));
        assert_eq!(pkts.len(), 1);
        assert!(pkts[0].is_last_fragment());
        assert!(pkts[0].is_keyframe);
    }

    #[test]
    fn reassembly_in_order() {
        let mut p = Packetizer::new();
        let mut asm = FrameAssembler::new();
        let pkts = p.packetize(&frame(0, 3000));
        let t0 = Time::from_millis(100);
        assert!(asm.push(&pkts[0], t0).is_none());
        assert!(asm.push(&pkts[1], t0 + Dur::millis(1)).is_none());
        let done = asm.push(&pkts[2], t0 + Dur::millis(2)).unwrap();
        assert_eq!(done.frame_index, 0);
        assert_eq!(done.complete_at, t0 + Dur::millis(2));
        assert_eq!(done.total_bytes, 3000 + 3 * HEADER_BYTES);
        assert_eq!(asm.pending_frames(), 0);
    }

    #[test]
    fn reassembly_out_of_order() {
        let mut p = Packetizer::new();
        let mut asm = FrameAssembler::new();
        let pkts = p.packetize(&frame(0, 3000));
        let t0 = Time::from_millis(100);
        assert!(asm.push(&pkts[2], t0).is_none());
        assert!(asm.push(&pkts[0], t0 + Dur::millis(3)).is_none());
        let done = asm.push(&pkts[1], t0 + Dur::millis(1)).unwrap();
        // complete_at is the max arrival, not the completing packet's.
        assert_eq!(done.complete_at, t0 + Dur::millis(3));
    }

    #[test]
    fn duplicate_fragment_ignored() {
        let mut p = Packetizer::new();
        let mut asm = FrameAssembler::new();
        let pkts = p.packetize(&frame(0, 2000));
        let t = Time::from_millis(1);
        assert!(asm.push(&pkts[0], t).is_none());
        assert!(asm.push(&pkts[0], t).is_none());
        assert!(asm.push(&pkts[1], t).is_some());
    }

    #[test]
    fn older_incomplete_frame_survives_newer_completion() {
        let mut p = Packetizer::new();
        let mut asm = FrameAssembler::new();
        let f0 = p.packetize(&frame(0, 3000));
        let f1 = p.packetize(&frame(1, 500));
        let t = Time::from_millis(1);
        // Frame 0 partially arrives, then frame 1 completes.
        asm.push(&f0[0], t);
        assert!(asm.push(&f1[0], t).is_some());
        // Frame 0 stays pending: RTX may still repair it.
        assert_eq!(asm.pending_frames(), 1);
        asm.push(&f0[1], Time::from_millis(30));
        let done = asm.push(&f0[2], Time::from_millis(31)).unwrap();
        assert_eq!(done.frame_index, 0);
        assert_eq!(done.complete_at, Time::from_millis(31));
    }

    #[test]
    fn frames_beyond_repair_horizon_are_evicted() {
        let mut p = Packetizer::new();
        let mut asm = FrameAssembler::new();
        let f0 = p.packetize(&frame(0, 3000));
        let t = Time::from_millis(1);
        asm.push(&f0[0], t);
        assert_eq!(asm.pending_frames(), 1);
        // A frame far beyond the horizon completes; frame 0 is evicted.
        let late_frame = p.packetize(&frame(100, 500));
        assert!(asm.push(&late_frame[0], Time::from_millis(4000)).is_some());
        assert_eq!(asm.pending_frames(), 0);
    }

    #[test]
    fn interleaved_frames_reassemble_independently() {
        let mut p = Packetizer::new();
        let mut asm = FrameAssembler::new();
        let f0 = p.packetize(&frame(0, 2400));
        let f1 = p.packetize(&frame(1, 2400));
        let t = Time::from_millis(1);
        assert!(asm.push(&f0[0], t).is_none());
        assert!(asm.push(&f1[0], t).is_none());
        assert!(asm.push(&f1[1], t).is_some());
        // f0 remains pending within the repair horizon.
        assert_eq!(asm.pending_frames(), 1);
        assert!(asm.push(&f0[1], t).is_some());
    }

    #[test]
    fn mtu_shrink_mid_stream_round_trips_at_chaos_boundaries() {
        // The chaos MtuShrink fault only ever narrows the payload MTU to
        // 300/600/900 bytes (see `ChaosSchedule::generate`). Frames
        // packetized immediately before, during and after the shrink
        // must all reassemble, with transport-wide sequence numbers
        // staying contiguous across the boundary.
        for shrunk in [300u64, 600, 900] {
            let mut p = Packetizer::new();
            let mut asm = FrameAssembler::new();
            let before = p.packetize(&frame(0, 3100));
            p.set_payload_mtu(Some(shrunk));
            let during = p.packetize(&frame(1, 3100));
            p.set_payload_mtu(None);
            let after = p.packetize(&frame(2, 3100));

            assert!(during.len() > before.len(), "mtu={shrunk}");
            assert_eq!(after.len(), before.len());
            for (expect_seq, pkt) in before.iter().chain(&during).chain(&after).enumerate() {
                assert_eq!(pkt.seq, expect_seq as u64, "seq gap across MTU shrink");
            }

            let mut t = Time::from_millis(1);
            let mut completed = Vec::new();
            for pkt in before.iter().chain(&during).chain(&after) {
                if let Some(done) = asm.push(pkt, t) {
                    completed.push(done);
                }
                t += Dur::millis(1);
            }
            assert_eq!(completed.len(), 3, "mtu={shrunk}");
            for (i, done) in completed.iter().enumerate() {
                assert_eq!(done.frame_index, i as u64);
                let n = [&before, &during, &after][i].len() as u64;
                assert_eq!(done.total_bytes, 3100 + n * HEADER_BYTES);
            }
        }
    }

    /// The map-per-frame assembler the window replaced, kept as the
    /// oracle: one entry per frame index, evicting on completion every
    /// frame beyond the repair horizon.
    #[derive(Default)]
    struct MapAssembler {
        pending: std::collections::BTreeMap<u64, (Vec<bool>, u64, Time, bool, Time)>,
    }

    impl MapAssembler {
        fn push(&mut self, packet: &Packet, arrival: Time) -> Option<ReassembledFrame> {
            let (received, bytes, _, _, last) =
                self.pending.entry(packet.frame_index).or_insert_with(|| {
                    (
                        vec![false; packet.num_fragments as usize],
                        0,
                        packet.pts,
                        packet.is_keyframe,
                        arrival,
                    )
                });
            let idx = packet.fragment as usize;
            if idx >= received.len() || received[idx] {
                return None;
            }
            received[idx] = true;
            *bytes += packet.size_bytes;
            *last = (*last).max(arrival);
            if received.iter().any(|&r| !r) {
                return None;
            }
            let (_, bytes, pts, is_keyframe, last) =
                self.pending.remove(&packet.frame_index).expect("present");
            let horizon = packet
                .frame_index
                .saturating_sub(FrameAssembler::REPAIR_HORIZON);
            self.pending.retain(|&i, _| i >= horizon);
            Some(ReassembledFrame {
                frame_index: packet.frame_index,
                pts,
                complete_at: last.max(arrival),
                is_keyframe,
                total_bytes: bytes,
            })
        }
    }

    proptest::proptest! {
        /// Round-trip: packetize → reassemble recovers the frame for any
        /// size and any payload MTU — including hostile values below the
        /// 64-byte clamp and the chaos shrink range — under any rotation
        /// of the fragment arrival order.
        #[test]
        fn packetize_reassembly_round_trips(
            size in 1u64..500_000,
            mtu in 1u64..2_000,
            rot in 0usize..64,
        ) {
            let mut p = Packetizer::new();
            p.set_payload_mtu(Some(mtu));
            let effective = p.payload_mtu();
            proptest::prop_assert!(effective >= 64);
            let f = frame(7, size);
            let pkts = p.packetize(&f);
            let payload: u64 = pkts.iter().map(|p| p.size_bytes - HEADER_BYTES).sum();
            proptest::prop_assert_eq!(payload, size.max(1));
            for pkt in &pkts {
                proptest::prop_assert!(pkt.size_bytes - HEADER_BYTES <= effective);
            }

            // Deliver fragments rotated by `rot`: the frame must
            // complete exactly on the last distinct fragment, whichever
            // position it arrives in.
            let mut asm = FrameAssembler::new();
            let t0 = Time::from_millis(10);
            let n = pkts.len();
            let mut done = None;
            for i in 0..n {
                let arrival = t0 + Dur::millis(i as u64);
                let completed = asm.push(&pkts[(i + rot) % n], arrival);
                if i + 1 < n {
                    proptest::prop_assert!(completed.is_none());
                } else {
                    done = completed;
                }
            }
            let done = done.expect("last fragment completes the frame");
            proptest::prop_assert_eq!(done.frame_index, 7);
            proptest::prop_assert_eq!(done.pts, f.pts);
            proptest::prop_assert!(!done.is_keyframe);
            proptest::prop_assert_eq!(
                done.total_bytes,
                size.max(1) + n as u64 * HEADER_BYTES
            );
            proptest::prop_assert_eq!(done.complete_at, t0 + Dur::millis(n as u64 - 1));
            proptest::prop_assert_eq!(asm.pending_frames(), 0);
        }

        /// The window assembler completes exactly the frames the map
        /// assembler does, with the same fields, over arrivals that
        /// reorder, duplicate, drop, repeat finished frames, jump past
        /// the repair horizon and carry malformed fragment numbers.
        #[test]
        fn window_matches_the_map_assembler(
            arrivals in proptest::collection::vec((0u64..200, 0u16..7), 0..400),
        ) {
            let mut window = FrameAssembler::new();
            let mut map = MapAssembler::default();
            for (i, &(frame, fragment)) in (0u64..).zip(&arrivals) {
                // Frame indexes mostly climb, with stragglers and jumps.
                let frame_index = match frame % 8 {
                    0 => frame * 3,
                    1 => frame / 4,
                    _ => i / 3 + frame % 3,
                };
                let packet = Packet {
                    kind: MediaKind::Video,
                    seq: i,
                    frame_index,
                    // Fragment numbers reach past the count: malformed.
                    fragment,
                    num_fragments: 1 + (frame_index % 5) as u16,
                    size_bytes: 100 + frame,
                    pts: Time::from_millis(frame_index * 33),
                    send_time: Time::from_millis(i),
                    is_keyframe: frame_index % 30 == 0,
                };
                // Arrival times step back now and then.
                let arrival = Time::from_millis(i + (i * 7) % 50);
                proptest::prop_assert_eq!(
                    window.push(&packet, arrival),
                    map.push(&packet, arrival),
                    "arrival {}",
                    i
                );
                proptest::prop_assert_eq!(window.pending_frames(), map.pending.len());
            }
        }

        /// Packetize always produces fragments that sum to the payload
        /// and carry contiguous fragment numbers.
        #[test]
        fn packetize_total(size in 1u64..2_000_000) {
            let mut p = Packetizer::new();
            let pkts = p.packetize(&frame(0, size));
            let payload: u64 = pkts.iter().map(|p| p.size_bytes - HEADER_BYTES).sum();
            proptest::prop_assert_eq!(payload, size);
            for (i, pkt) in pkts.iter().enumerate() {
                proptest::prop_assert_eq!(pkt.fragment as usize, i);
                proptest::prop_assert!(pkt.size_bytes - HEADER_BYTES <= PAYLOAD_MTU);
            }
        }
    }
}
