//! NACK-driven retransmission (RTX), as WebRTC does loss recovery.
//!
//! Random (wireless) loss would otherwise freeze the receiver until a
//! PLI round-trip and a full keyframe — expensive at exactly the moment
//! capacity is scarce. Real RTC stacks instead retransmit: the receiver
//! NACKs sequence-number gaps, and the sender replays the packets from a
//! short history buffer.
//!
//! Two halves:
//!
//! * [`RtxBuffer`] — sender-side history of recently sent packets,
//!   bounded by age and count.
//! * [`NackGenerator`] — receiver-side gap tracking: detects missing
//!   sequence numbers as arrivals advance, emits NACK batches, and
//!   retries with backoff until the packet arrives or the entry expires
//!   (at which point recovery is the PLI path's job).
//!
//! Retransmissions reuse the original sequence number. Our link never
//! reorders, so a gap is actionable on the packet *after* it; a small
//! reorder-tolerance is still configurable for jittery links.

use std::collections::{BTreeMap, VecDeque};

use ravel_sim::{Dur, Time};

use crate::packet::Packet;

/// Sender-side packet history for retransmission.
///
/// Packets live in a window indexed by `seq - base`: one slot per
/// sequence number from the lowest retained one up, `None` where a seq
/// was never stored (or has been evicted). Sequence numbers are nearly
/// ascending in send order, so the window stays about as long as the
/// history, and a store or lookup is an index rather than a tree walk.
#[derive(Debug, Clone)]
pub struct RtxBuffer {
    /// Retained packets; slot `i` holds seq `base + i`. Never starts
    /// with an empty slot.
    window: VecDeque<Option<Packet>>,
    /// The seq of `window[0]`.
    base: u64,
    /// Occupied slots in `window`.
    live: usize,
    /// Insertion order for age eviction: (send time, seq).
    order: VecDeque<(Time, u64)>,
    /// Maximum retention age.
    max_age: Dur,
    /// Maximum retained packets.
    max_count: usize,
    retransmissions: u64,
}

impl RtxBuffer {
    /// Creates a buffer retaining packets for `max_age` or until
    /// `max_count` is exceeded, whichever trims first.
    pub fn new(max_age: Dur, max_count: usize) -> RtxBuffer {
        assert!(max_count > 0, "RtxBuffer: zero capacity");
        RtxBuffer {
            window: VecDeque::new(),
            base: 0,
            live: 0,
            order: VecDeque::new(),
            max_age,
            max_count,
            retransmissions: 0,
        }
    }

    /// Packets currently retained.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no packets are retained.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total retransmissions served.
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions
    }

    /// Records a packet as sent at `now`. Storing a retained seq again
    /// replaces the packet (a retransmission carries its new send time).
    pub fn store(&mut self, packet: &Packet, now: Time) {
        self.insert(*packet);
        self.order.push_back((now, packet.seq));
        self.evict(now);
    }

    /// Places `packet` in its slot, growing the window at whichever end
    /// it falls beyond: audio bypasses the pacer, so a video packet
    /// released later can carry a lower seq than one already stored.
    fn insert(&mut self, packet: Packet) {
        let seq = packet.seq;
        if self.window.is_empty() {
            self.base = seq;
        }
        while seq < self.base {
            self.window.push_front(None);
            self.base -= 1;
        }
        let i = (seq - self.base) as usize;
        if i >= self.window.len() {
            self.window.resize(i + 1, None);
        }
        if self.window[i].replace(packet).is_none() {
            self.live += 1;
        }
    }

    fn get(&self, seq: u64) -> Option<&Packet> {
        let i = seq.checked_sub(self.base)? as usize;
        self.window.get(i)?.as_ref()
    }

    /// Clears `seq`'s slot, then drops the window's leading empty slots.
    fn remove(&mut self, seq: u64) {
        let slot = seq
            .checked_sub(self.base)
            .and_then(|i| self.window.get_mut(i as usize));
        if slot.and_then(Option::take).is_some() {
            self.live -= 1;
        }
        while let Some(None) = self.window.front() {
            self.window.pop_front();
            self.base += 1;
        }
    }

    /// Looks up packets for a NACK batch; increments the retransmission
    /// counter for each hit. Misses (already evicted) are silently
    /// skipped — the receiver's PLI path covers them.
    pub fn retransmit(&mut self, seqs: &[u64]) -> Vec<Packet> {
        let mut out = Vec::with_capacity(seqs.len());
        for &seq in seqs {
            if let Some(p) = self.get(seq) {
                out.push(*p);
                self.retransmissions += 1;
            }
        }
        out
    }

    fn evict(&mut self, now: Time) {
        let cutoff = Time::from_micros(now.as_micros().saturating_sub(self.max_age.as_micros()));
        while let Some(&(t, seq)) = self.order.front() {
            if t < cutoff || self.order.len() > self.max_count {
                self.remove(seq);
                self.order.pop_front();
            } else {
                break;
            }
        }
    }
}

/// One NACK batch requested by the receiver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NackBatch {
    /// Missing sequence numbers, ascending.
    pub seqs: Vec<u64>,
    /// When the receiver generated the batch.
    pub generated_at: Time,
}

/// Receiver-side gap detection and NACK scheduling.
#[derive(Debug, Clone)]
pub struct NackGenerator {
    /// Next sequence number we expect (highest seen + 1).
    next_expected: u64,
    /// Outstanding gaps: seq → (first seen missing, retries left, next
    /// retry due).
    missing: BTreeMap<u64, MissingEntry>,
    /// Retry spacing.
    retry_interval: Dur,
    /// Maximum NACK attempts per packet before giving up.
    max_retries: u32,
    /// Entries older than this are abandoned (PLI territory).
    give_up_after: Dur,
    nacks_sent: u64,
    abandoned: u64,
}

#[derive(Debug, Clone, Copy)]
struct MissingEntry {
    first_missing_at: Time,
    retries_left: u32,
    next_due: Time,
}

impl NackGenerator {
    /// Creates a generator with WebRTC-flavoured defaults supplied by
    /// the caller (typical: 20–50 ms retry, 3–10 retries).
    pub fn new(retry_interval: Dur, max_retries: u32, give_up_after: Dur) -> NackGenerator {
        assert!(max_retries > 0, "NackGenerator: zero retries");
        NackGenerator {
            next_expected: 0,
            missing: BTreeMap::new(),
            retry_interval,
            max_retries,
            give_up_after,
            nacks_sent: 0,
            abandoned: 0,
        }
    }

    /// Outstanding missing packets.
    pub fn outstanding(&self) -> usize {
        self.missing.len()
    }

    /// Total individual NACKs sent (per packet per attempt).
    pub fn nacks_sent(&self) -> u64 {
        self.nacks_sent
    }

    /// Gaps abandoned after exhausting retries or aging out.
    pub fn abandoned(&self) -> u64 {
        self.abandoned
    }

    /// Records one arrival; newly discovered gaps become NACK
    /// candidates (due immediately), and a filled gap is cleared.
    pub fn on_packet(&mut self, seq: u64, now: Time) {
        if seq >= self.next_expected {
            for missing in self.next_expected..seq {
                self.missing.insert(
                    missing,
                    MissingEntry {
                        first_missing_at: now,
                        retries_left: self.max_retries,
                        next_due: now,
                    },
                );
            }
            self.next_expected = seq + 1;
        } else {
            // A retransmission (or duplicate) filled a gap.
            self.missing.remove(&seq);
        }
    }

    /// Collects the NACK batch due at `now`, if any. Each included seq
    /// consumes one retry and is rescheduled at `retry_interval`.
    pub fn poll(&mut self, now: Time) -> Option<NackBatch> {
        // Abandon hopeless entries first.
        let give_up = self.give_up_after;
        let before = self.missing.len();
        self.missing.retain(|_, e| {
            e.retries_left > 0 && now.saturating_since(e.first_missing_at) <= give_up
        });
        self.abandoned += (before - self.missing.len()) as u64;

        let mut seqs = Vec::new();
        for (&seq, entry) in self.missing.iter_mut() {
            if entry.next_due <= now {
                seqs.push(seq);
                entry.retries_left -= 1;
                entry.next_due = now + self.retry_interval;
            }
        }
        if seqs.is_empty() {
            return None;
        }
        self.nacks_sent += seqs.len() as u64;
        Some(NackBatch {
            seqs,
            generated_at: now,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::MediaKind;

    fn pkt(seq: u64) -> Packet {
        Packet {
            kind: MediaKind::Video,
            seq,
            frame_index: seq / 3,
            fragment: (seq % 3) as u16,
            num_fragments: 3,
            size_bytes: 1250,
            pts: Time::ZERO,
            send_time: Time::ZERO,
            is_keyframe: false,
        }
    }

    fn ms(v: u64) -> Time {
        Time::from_millis(v)
    }

    #[test]
    fn buffer_stores_and_retransmits() {
        let mut buf = RtxBuffer::new(Dur::secs(1), 100);
        for i in 0..10 {
            buf.store(&pkt(i), ms(i * 10));
        }
        let out = buf.retransmit(&[3, 7]);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].seq, 3);
        assert_eq!(buf.retransmissions(), 2);
    }

    #[test]
    fn buffer_evicts_by_age() {
        let mut buf = RtxBuffer::new(Dur::millis(100), 1000);
        buf.store(&pkt(0), ms(0));
        buf.store(&pkt(1), ms(200)); // evicts seq 0
        assert!(buf.retransmit(&[0]).is_empty());
        assert_eq!(buf.retransmit(&[1]).len(), 1);
    }

    #[test]
    fn buffer_evicts_by_count() {
        let mut buf = RtxBuffer::new(Dur::secs(100), 5);
        for i in 0..10 {
            buf.store(&pkt(i), ms(i));
        }
        assert!(buf.len() <= 6);
        assert!(buf.retransmit(&[0]).is_empty());
        assert_eq!(buf.retransmit(&[9]).len(), 1);
    }

    #[test]
    fn gap_detection_and_fill() {
        let mut nack = NackGenerator::new(Dur::millis(20), 3, Dur::millis(500));
        nack.on_packet(0, ms(0));
        nack.on_packet(3, ms(10)); // gaps: 1, 2
        assert_eq!(nack.outstanding(), 2);
        let batch = nack.poll(ms(10)).unwrap();
        assert_eq!(batch.seqs, vec![1, 2]);
        // Retransmission of seq 1 arrives.
        nack.on_packet(1, ms(40));
        assert_eq!(nack.outstanding(), 1);
    }

    #[test]
    fn retries_with_backoff_then_abandons() {
        let mut nack = NackGenerator::new(Dur::millis(20), 2, Dur::secs(10));
        nack.on_packet(0, ms(0));
        nack.on_packet(2, ms(0)); // gap: 1
        assert!(nack.poll(ms(0)).is_some()); // retry 1
        assert!(nack.poll(ms(5)).is_none()); // not due yet
        assert!(nack.poll(ms(25)).is_some()); // retry 2 (last)
        assert!(nack.poll(ms(50)).is_none()); // exhausted -> abandoned
        assert_eq!(nack.abandoned(), 1);
        assert_eq!(nack.outstanding(), 0);
        assert_eq!(nack.nacks_sent(), 2);
    }

    #[test]
    fn old_entries_age_out() {
        let mut nack = NackGenerator::new(Dur::millis(20), 100, Dur::millis(100));
        nack.on_packet(0, ms(0));
        nack.on_packet(2, ms(0));
        assert!(nack.poll(ms(0)).is_some());
        // 200 ms later the entry exceeded give_up_after.
        assert!(nack.poll(ms(200)).is_none());
        assert_eq!(nack.abandoned(), 1);
    }

    #[test]
    fn in_order_stream_never_nacks() {
        let mut nack = NackGenerator::new(Dur::millis(20), 3, Dur::millis(500));
        for i in 0..100 {
            nack.on_packet(i, ms(i));
        }
        assert!(nack.poll(ms(200)).is_none());
        assert_eq!(nack.nacks_sent(), 0);
    }

    #[test]
    fn duplicate_arrivals_are_harmless() {
        let mut nack = NackGenerator::new(Dur::millis(20), 3, Dur::millis(500));
        nack.on_packet(0, ms(0));
        nack.on_packet(0, ms(1));
        nack.on_packet(1, ms(2));
        assert_eq!(nack.outstanding(), 0);
    }

    /// The history as a `BTreeMap` keyed by seq, with the same eviction
    /// order and rule: the reference the window is checked against.
    struct MapHistory {
        packets: BTreeMap<u64, Packet>,
        order: VecDeque<(Time, u64)>,
        max_age: Dur,
        max_count: usize,
        retransmissions: u64,
    }

    impl MapHistory {
        fn store(&mut self, packet: &Packet, now: Time) {
            self.packets.insert(packet.seq, *packet);
            self.order.push_back((now, packet.seq));
            let cutoff =
                Time::from_micros(now.as_micros().saturating_sub(self.max_age.as_micros()));
            while let Some(&(t, seq)) = self.order.front() {
                if t < cutoff || self.order.len() > self.max_count {
                    self.packets.remove(&seq);
                    self.order.pop_front();
                } else {
                    break;
                }
            }
        }

        fn retransmit(&mut self, seqs: &[u64]) -> Vec<Packet> {
            let out: Vec<Packet> = seqs
                .iter()
                .filter_map(|seq| self.packets.get(seq).copied())
                .collect();
            self.retransmissions += out.len() as u64;
            out
        }
    }

    proptest::proptest! {
        /// The seq-indexed window behaves exactly like a map keyed by
        /// seq under any interleaving of ascending stores, re-stores of
        /// retained seqs, stores below the window, time jumps and NACK
        /// batches: every batch, the retransmission count and the
        /// length agree after every step, and a probe over the whole
        /// seq range finds the same packets.
        #[test]
        fn window_matches_a_map_history(
            limits in (20u64..400, 1usize..40),
            ops in proptest::collection::vec((0u8..10, 0u64..1000, 0u64..1000), 1..300),
        ) {
            let (max_age_ms, max_count) = limits;
            let mut window = RtxBuffer::new(Dur::millis(max_age_ms), max_count);
            let mut map = MapHistory {
                packets: BTreeMap::new(),
                order: VecDeque::new(),
                max_age: Dur::millis(max_age_ms),
                max_count,
                retransmissions: 0,
            };
            let mut now = ms(0);
            let mut next_seq = 100u64;
            for (op, a, b) in ops {
                let stored = match op {
                    // Ascending store, sometimes skipping seqs.
                    0..=4 => {
                        next_seq += 1 + a % 3;
                        Some(next_seq)
                    }
                    // Re-store a retained seq (a retransmission).
                    5 => map.packets.keys().nth(a as usize % map.packets.len().max(1)).copied(),
                    // Store below the lowest retained seq.
                    6 => {
                        let low = map.packets.keys().next().copied().unwrap_or(next_seq);
                        Some(low.saturating_sub(1 + a % 6))
                    }
                    // Jump the clock; the next store evicts by age.
                    7 => {
                        now += Dur::millis(a % 500);
                        None
                    }
                    // A NACK batch around the live range.
                    _ => {
                        let lo = next_seq.saturating_sub(30 + a % 20);
                        let seqs: Vec<u64> =
                            (lo..next_seq + 3).filter(|s| (s ^ b) % 3 != 0).collect();
                        proptest::prop_assert_eq!(window.retransmit(&seqs), map.retransmit(&seqs));
                        None
                    }
                };
                if let Some(seq) = stored {
                    now += Dur::millis(b % 20);
                    let mut packet = pkt(seq);
                    packet.send_time = now;
                    window.store(&packet, now);
                    map.store(&packet, now);
                }
                proptest::prop_assert_eq!(window.len(), map.packets.len());
                proptest::prop_assert_eq!(window.is_empty(), map.packets.is_empty());
                let probe: Vec<u64> = (0..next_seq + 2).collect();
                proptest::prop_assert_eq!(window.retransmit(&probe), map.retransmit(&probe));
                proptest::prop_assert_eq!(window.retransmissions(), map.retransmissions);
            }
        }

        /// Whatever the loss pattern, every missing seq below the highest
        /// arrival is either outstanding, filled, or abandoned — never
        /// silently forgotten.
        #[test]
        fn accounting_complete(arrivals in proptest::collection::btree_set(0u64..200, 1..120)) {
            let mut nack = NackGenerator::new(Dur::millis(20), 1, Dur::secs(10));
            for (i, &seq) in arrivals.iter().enumerate() {
                nack.on_packet(seq, ms(i as u64));
            }
            let highest = *arrivals.iter().max().unwrap();
            let missing_count = (0..=highest).filter(|s| !arrivals.contains(s)).count();
            proptest::prop_assert_eq!(nack.outstanding(), missing_count);
        }
    }
}
