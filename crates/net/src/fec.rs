//! Forward error correction (FlexFEC-style XOR parity).
//!
//! NACK/RTX repairs a loss in one round-trip; on long paths or during
//! the exact moment a bandwidth drop already stresses the reverse
//! channel, that round-trip is expensive. FEC trades constant bitrate
//! overhead for zero-RTT recovery: every `group_size` media packets the
//! sender emits one XOR parity packet; the receiver can reconstruct any
//! *single* missing packet of the group once the other members and the
//! parity have arrived.
//!
//! The model tracks which payloads a parity packet covers rather than
//! XORing real bytes — recovery succeeds exactly when a real XOR decoder
//! would succeed (all-but-one of the group present).
//!
//! * [`FecEncoder`] — sender side: buffers outgoing packet metadata and
//!   emits a parity [`Packet`] per full group.
//! * [`FecDecoder`] — receiver side: tracks group membership and reports
//!   recovered sequence numbers.
//!
//! Overhead: one parity packet (max member size + headers) per
//! `group_size` media packets — e.g. ~10% at `group_size = 10`.

use std::collections::BTreeMap;

use ravel_sim::Time;

use crate::packet::{MediaKind, Packet, HEADER_BYTES};

/// Identifies a FEC group: consecutive media packets share a group until
/// the group fills.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct GroupId(pub u64);

/// Sender-side FEC: collects outgoing media packets into groups and
/// emits one parity packet per full group.
#[derive(Debug, Clone)]
pub struct FecEncoder {
    group_size: usize,
    /// Members (seqs) of the group being filled. Other flows (audio,
    /// other parities) may interleave sequence numbers between members;
    /// the emitted parity covers the whole seq *span* and the decoder
    /// tracks every arrival in it.
    current: Vec<u64>,
    /// Largest member wire size (parity must cover the biggest payload).
    current_max_bytes: u64,
    next_group: u64,
    parity_sent: u64,
}

impl FecEncoder {
    /// Creates an encoder emitting one parity packet per `group_size`
    /// media packets.
    pub fn new(group_size: usize) -> FecEncoder {
        assert!(
            (2..=48).contains(&group_size),
            "FecEncoder: group size {group_size} out of range"
        );
        FecEncoder {
            group_size,
            current: Vec::with_capacity(group_size),
            current_max_bytes: 0,
            next_group: 0,
            parity_sent: 0,
        }
    }

    /// Parity packets emitted so far.
    pub fn parity_sent(&self) -> u64 {
        self.parity_sent
    }

    /// Registers one outgoing media packet; returns a parity packet when
    /// this packet completes a group. `parity_seq` is invoked **only**
    /// when a parity is actually emitted (it allocates a transport-wide
    /// sequence number; calling it eagerly would burn a seq per media
    /// packet and fill the stream with fake gaps).
    pub fn on_media_packet(
        &mut self,
        packet: &Packet,
        parity_seq: impl FnOnce() -> u64,
        now: Time,
    ) -> Option<Packet> {
        debug_assert_ne!(packet.kind, MediaKind::Fec, "FEC over FEC");
        self.current.push(packet.seq);
        self.current_max_bytes = self.current_max_bytes.max(packet.size_bytes);
        if self.current.len() < self.group_size {
            return None;
        }
        let group = GroupId(self.next_group);
        self.next_group += 1;
        let first = *self.current.first().expect("non-empty group");
        let last = *self.current.last().expect("non-empty group");
        // Cover the full seq span: interleaved packets from other flows
        // become members too (the decoder sees all arrivals).
        let span = (last - first + 1) as u16;
        let size = self.current_max_bytes;
        self.current.clear();
        self.current_max_bytes = 0;
        self.parity_sent += 1;
        Some(
            Packet {
                kind: MediaKind::Fec,
                seq: parity_seq(),
                // Parity packets encode their group in the frame_index field
                // (disjoint namespace) and the first covered seq in
                // `fragment`-adjacent fields via pts reuse being unnecessary:
                // the decoder re-derives membership from first_seq + size.
                frame_index: FEC_GROUP_BASE + group.0,
                fragment: 0,
                num_fragments: 1,
                size_bytes: size.max(HEADER_BYTES + 1),
                pts: now,
                send_time: now,
                is_keyframe: false,
            }
            .with_group_info(first, span),
        )
    }
}

/// Namespace offset for parity-packet `frame_index` values.
pub const FEC_GROUP_BASE: u64 = 1 << 48;

/// Helpers for encoding group membership into the packet header fields.
trait GroupInfo {
    fn with_group_info(self, first_seq: u64, count: u16) -> Packet;
    fn group_first_seq(&self) -> u64;
    fn group_count(&self) -> u16;
}

impl GroupInfo for Packet {
    /// Stores `(first covered seq, member count)` in the pts field
    /// (unused for parity) and `num_fragments`.
    fn with_group_info(mut self, first_seq: u64, count: u16) -> Packet {
        self.pts = Time::from_micros(first_seq);
        self.num_fragments = count;
        self
    }

    fn group_first_seq(&self) -> u64 {
        self.pts.as_micros()
    }

    fn group_count(&self) -> u16 {
        self.num_fragments
    }
}

/// Receiver-side FEC: tracks arrivals per group and recovers single
/// losses.
#[derive(Debug, Clone)]
pub struct FecDecoder {
    /// Group state: covered seq range → (arrived members, parity seen).
    groups: BTreeMap<u64, GroupState>,
    /// Recent media arrivals (bounded log), so a parity that opens a new
    /// group can replay members that arrived before it.
    recent_arrivals: std::collections::VecDeque<u64>,
    recovered: u64,
    /// Groups retained at most (old ones evicted FIFO).
    max_groups: usize,
}

#[derive(Debug, Clone)]
struct GroupState {
    first_seq: u64,
    count: u16,
    arrived: Vec<bool>,
    parity_arrived: bool,
    recovered: bool,
}

impl GroupState {
    fn missing(&self) -> Vec<u64> {
        self.arrived
            .iter()
            .enumerate()
            .filter(|&(_, &a)| !a)
            .map(|(i, _)| self.first_seq + i as u64)
            .collect()
    }
}

impl Default for FecDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl FecDecoder {
    /// Creates a decoder retaining up to 64 in-flight groups.
    pub fn new() -> FecDecoder {
        FecDecoder {
            groups: BTreeMap::new(),
            recent_arrivals: std::collections::VecDeque::new(),
            recovered: 0,
            max_groups: 64,
        }
    }

    /// Packets recovered so far.
    pub fn recovered(&self) -> u64 {
        self.recovered
    }

    /// Feeds one arrived media packet (by seq). Returns the seq numbers
    /// newly recoverable (zero or one — XOR parity repairs single
    /// losses).
    pub fn on_media_packet(&mut self, seq: u64) -> Vec<u64> {
        self.recent_arrivals.push_back(seq);
        while self.recent_arrivals.len() > 1024 {
            self.recent_arrivals.pop_front();
        }
        let mut out = Vec::new();
        for state in self.groups.values_mut() {
            if seq >= state.first_seq && seq < state.first_seq + state.count as u64 {
                state.arrived[(seq - state.first_seq) as usize] = true;
                if let Some(r) = try_recover(state) {
                    out.push(r);
                    self.recovered += 1;
                }
            }
        }
        out
    }

    /// Feeds one arrived parity packet. Returns newly recoverable seqs.
    pub fn on_parity_packet(&mut self, parity: &Packet) -> Vec<u64> {
        debug_assert_eq!(parity.kind, MediaKind::Fec);
        let first = parity.group_first_seq();
        let count = parity.group_count();
        let group_key = parity.frame_index;
        let recent = &self.recent_arrivals;
        let state = self.groups.entry(group_key).or_insert_with(|| {
            // Members may have arrived before this parity: replay them
            // from the arrival log, then run a single recovery check.
            let mut arrived = vec![false; count as usize];
            for &seq in recent {
                if seq >= first && seq < first + count as u64 {
                    arrived[(seq - first) as usize] = true;
                }
            }
            GroupState {
                first_seq: first,
                count,
                arrived,
                parity_arrived: false,
                recovered: false,
            }
        });
        state.parity_arrived = true;
        let mut out = Vec::new();
        if let Some(r) = try_recover(state) {
            out.push(r);
            self.recovered += 1;
        }
        // Evict stale groups.
        while self.groups.len() > self.max_groups {
            let oldest = *self.groups.keys().next().expect("non-empty");
            self.groups.remove(&oldest);
        }
        out
    }
}

/// One group becomes recoverable when the parity plus all-but-one member
/// are present.
fn try_recover(state: &mut GroupState) -> Option<u64> {
    if state.recovered || !state.parity_arrived {
        return None;
    }
    let missing = state.missing();
    if missing.len() == 1 {
        state.recovered = true;
        let seq = missing[0];
        state.arrived[(seq - state.first_seq) as usize] = true;
        Some(seq)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn media(seq: u64, bytes: u64) -> Packet {
        Packet {
            kind: MediaKind::Video,
            seq,
            frame_index: seq / 3,
            fragment: 0,
            num_fragments: 1,
            size_bytes: bytes,
            pts: Time::ZERO,
            send_time: Time::ZERO,
            is_keyframe: false,
        }
    }

    fn build_group(enc: &mut FecEncoder, seqs: std::ops::Range<u64>) -> Option<Packet> {
        let mut parity = None;
        for s in seqs {
            parity = enc.on_media_packet(&media(s, 1000 + s), || 10_000 + s, Time::from_millis(s));
        }
        parity
    }

    #[test]
    fn parity_emitted_per_group() {
        let mut enc = FecEncoder::new(5);
        assert!(build_group(&mut enc, 0..4).is_none());
        let parity = enc
            .on_media_packet(&media(4, 1004), || 99, Time::from_millis(4))
            .expect("group complete");
        assert_eq!(parity.kind, MediaKind::Fec);
        assert_eq!(parity.group_first_seq(), 0);
        assert_eq!(parity.group_count(), 5);
        // Parity covers the largest member.
        assert_eq!(parity.size_bytes, 1004);
        assert_eq!(enc.parity_sent(), 1);
    }

    #[test]
    fn single_loss_recovered() {
        let mut enc = FecEncoder::new(4);
        let parity = build_group(&mut enc, 0..4).expect("parity");
        let mut dec = FecDecoder::new();
        // Realistic order: members 0, 2, 3 arrive (1 lost), then parity.
        assert!(dec.on_media_packet(0).is_empty());
        assert!(dec.on_media_packet(2).is_empty());
        assert!(dec.on_media_packet(3).is_empty());
        let recovered = dec.on_parity_packet(&parity);
        assert_eq!(recovered, vec![1]);
        assert_eq!(dec.recovered(), 1);
    }

    #[test]
    fn double_loss_not_recoverable() {
        let mut enc = FecEncoder::new(4);
        let parity = build_group(&mut enc, 0..4).expect("parity");
        let mut dec = FecDecoder::new();
        dec.on_media_packet(0);
        dec.on_media_packet(3); // 1 and 2 both missing
        let out = dec.on_parity_packet(&parity);
        assert!(out.is_empty());
        assert_eq!(dec.recovered(), 0);
    }

    #[test]
    fn late_member_after_parity_triggers_recovery() {
        // Parity outruns the last member (possible with RTX reordering):
        // the decoder opens the group from its arrival log and recovers
        // when the group reaches all-but-one.
        let mut enc = FecEncoder::new(3);
        let parity = build_group(&mut enc, 0..3).expect("parity");
        let mut dec = FecDecoder::new();
        assert!(dec.on_media_packet(0).is_empty());
        assert_eq!((parity.group_first_seq(), parity.group_count()), (0, 3));
        // At parity time members 1 and 2 are missing: no recovery yet.
        assert!(dec.on_parity_packet(&parity).is_empty());
        // Member 2 arrives late: now only 1 is missing -> reconstruct it.
        let out = dec.on_media_packet(2);
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn no_loss_no_recovery() {
        // Realistic order on an in-order link: members first, then the
        // parity (it is sent after the group completes). With nothing
        // missing at parity time, no reconstruction happens.
        let mut enc = FecEncoder::new(3);
        let parity = build_group(&mut enc, 0..3).expect("parity");
        let mut dec = FecDecoder::new();
        for s in 0..3 {
            assert!(dec.on_media_packet(s).is_empty());
        }
        assert!(dec.on_parity_packet(&parity).is_empty());
        assert_eq!(dec.recovered(), 0);
    }

    #[test]
    fn groups_are_independent() {
        let mut enc = FecEncoder::new(2);
        let p0 = build_group(&mut enc, 0..2).expect("parity 0");
        let p1 = build_group(&mut enc, 2..4).expect("parity 1");
        let mut dec = FecDecoder::new();
        // Group 0 loses seq 1, group 1 loses seq 2.
        dec.on_media_packet(0);
        assert_eq!(dec.on_parity_packet(&p0), vec![1]);
        dec.on_media_packet(3);
        assert_eq!(dec.on_parity_packet(&p1), vec![2]);
        assert_eq!(dec.groups.len(), 2);
        assert_eq!(dec.recovered(), 2);
    }

    #[test]
    fn eviction_bounds_state() {
        let mut enc = FecEncoder::new(2);
        let mut dec = FecDecoder::new();
        for g in 0..200u64 {
            let parity = build_group(&mut enc, g * 2..g * 2 + 2).expect("parity");
            dec.on_parity_packet(&parity);
        }
        assert!(dec.groups.len() <= 64);
    }

    #[test]
    #[should_panic(expected = "group size")]
    fn rejects_tiny_group() {
        FecEncoder::new(1);
    }

    proptest::proptest! {
        /// For any single-loss-per-group pattern, with the realistic
        /// arrival order (members, then parity, then replay), exactly the
        /// lost packet is reconstructed.
        #[test]
        fn single_losses_always_recovered(lost_member in 0u64..6, group in 0u64..4) {
            let gs = 6usize;
            let mut enc = FecEncoder::new(gs);
            let mut dec = FecDecoder::new();
            let mut reconstructed = Vec::new();
            for g in 0..4u64 {
                let base = g * gs as u64;
                let mut parity = None;
                for s in base..base + gs as u64 {
                    parity = enc.on_media_packet(&media(s, 1000), || 90_000 + s, Time::ZERO);
                    let lost = g == group && s == base + lost_member;
                    if !lost {
                        reconstructed.extend(dec.on_media_packet(s));
                    }
                }
                reconstructed.extend(dec.on_parity_packet(&parity.expect("group complete")));
            }
            proptest::prop_assert_eq!(
                reconstructed,
                vec![group * gs as u64 + lost_member]
            );
        }
    }
}
