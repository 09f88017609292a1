//! The send-side pacer.
//!
//! WebRTC never dumps a whole encoded frame onto the wire at once: a
//! pacer releases packets at `pacing_factor ×` the target bitrate
//! (libwebrtc default 2.5×), turning frame bursts into a smooth(er)
//! packet train. The pacer matters to this paper in two ways:
//!
//! * it sets how fast an oversized frame *enters* the bottleneck (the
//!   queue builds at the pacer rate, not instantaneously), and
//! * its own queue is a second place latency hides — packets can sit in
//!   the pacer for tens of milliseconds after a drop while the stale
//!   pacing rate drains the backlog.

use std::collections::VecDeque;

use ravel_sim::{Dur, Time};

use crate::packet::Packet;

/// A leaky-bucket pacer.
#[derive(Debug, Clone)]
pub struct Pacer {
    /// Wire rate the bucket drains at (bits/second).
    pacing_rate_bps: f64,
    /// Multiplier applied by [`Pacer::set_target_bitrate`].
    pacing_factor: f64,
    /// Queued packets, FIFO.
    queue: VecDeque<Packet>,
    /// The instant the pacer may release the next packet.
    next_release: Time,
    /// Bytes currently queued.
    queued_bytes: u64,
    /// Upper bound on how long a packet may sit in the pacer: when the
    /// backlog would take longer than this to drain at the nominal rate,
    /// the drain rate is raised to clear it in time (libwebrtc's
    /// max-queue-time rule). Without this, a target collapse strands the
    /// already-encoded backlog at the new tiny rate.
    max_queue_time: Dur,
}

impl Pacer {
    /// Creates a pacer draining at `pacing_factor × target_bps`.
    pub fn new(target_bps: f64, pacing_factor: f64) -> Pacer {
        assert!(target_bps > 0.0 && target_bps.is_finite(), "bad target");
        assert!(
            pacing_factor >= 1.0 && pacing_factor.is_finite(),
            "pacing factor must be >= 1"
        );
        Pacer {
            pacing_rate_bps: target_bps * pacing_factor,
            pacing_factor,
            queue: VecDeque::with_capacity(64),
            next_release: Time::ZERO,
            queued_bytes: 0,
            max_queue_time: Dur::secs(2),
        }
    }

    /// The effective drain rate right now: the nominal pacing rate,
    /// raised if needed so the current backlog clears within
    /// `max_queue_time`.
    fn effective_rate_bps(&self) -> f64 {
        let drain_floor = self.queued_bytes as f64 * 8.0 / self.max_queue_time.as_secs_f64();
        self.pacing_rate_bps.max(drain_floor)
    }

    /// Current drain rate in bits/second.
    pub fn pacing_rate_bps(&self) -> f64 {
        self.pacing_rate_bps
    }

    /// Packets waiting in the pacer.
    #[cfg(test)]
    fn queued_packets(&self) -> usize {
        self.queue.len()
    }

    /// Expected time to drain the current queue at the effective rate.
    #[cfg(test)]
    fn drain_time(&self) -> Dur {
        Dur::for_bits(self.queued_bytes * 8, self.effective_rate_bps())
    }

    /// Re-targets the pacer to `pacing_factor × target_bps`.
    pub fn set_target_bitrate(&mut self, target_bps: f64) {
        assert!(target_bps > 0.0 && target_bps.is_finite(), "bad target");
        self.pacing_rate_bps = target_bps * self.pacing_factor;
    }

    /// Enqueues packets for paced release.
    pub fn enqueue(&mut self, packets: impl IntoIterator<Item = Packet>) {
        for p in packets {
            self.queued_bytes += p.size_bytes;
            self.queue.push_back(p);
        }
    }

    /// Releases every packet whose pacing slot has arrived by `now`.
    /// Each released packet is stamped with its wire-entry time
    /// (`send_time`), which feedback echoes for delay measurement.
    pub fn release(&mut self, now: Time) -> Vec<Packet> {
        let mut out = Vec::new();
        self.release_into(now, &mut out);
        out
    }

    /// [`Pacer::release`] into a caller-owned buffer, the hot-path form:
    /// `out` is cleared and refilled, so a session reusing one scratch
    /// buffer stops allocating per pacer tick.
    pub fn release_into(&mut self, now: Time, out: &mut Vec<Packet>) {
        out.clear();
        while let Some(front) = self.queue.front() {
            let slot = self.next_release.max(Time::ZERO);
            if slot > now {
                break;
            }
            let mut p = *front;
            self.queue.pop_front();
            self.queued_bytes -= p.size_bytes;
            // The loop guard guarantees `slot <= now`, so the release
            // stamp is simply the slot — unless the packet carries a
            // later pre-stamped `send_time`, which must never be moved
            // backward (it would corrupt delay measurement downstream).
            p.send_time = slot.max(p.send_time);
            // Next slot: this packet's serialization time at the
            // effective (possibly backlog-boosted) rate.
            let tx = Dur::for_bits(p.size_bits(), self.effective_rate_bps());
            self.next_release = p.send_time.max(self.next_release) + tx;
            out.push(p);
        }
    }

    /// The instant the next queued packet becomes releasable, if any.
    pub fn next_release_time(&self) -> Option<Time> {
        if self.queue.is_empty() {
            None
        } else {
            Some(self.next_release)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::MediaKind;

    fn pkt(seq: u64, size_bytes: u64) -> Packet {
        Packet {
            kind: MediaKind::Video,
            seq,
            frame_index: 0,
            fragment: 0,
            num_fragments: 1,
            size_bytes,
            pts: Time::ZERO,
            send_time: Time::ZERO,
            is_keyframe: false,
        }
    }

    #[test]
    fn paces_at_factor_times_target() {
        // 1 Mbps target, 2.5x factor -> 2.5 Mbps pacing. 1250-byte
        // packets take 4 ms each.
        let mut pacer = Pacer::new(1e6, 2.5);
        pacer.enqueue((0..5).map(|i| pkt(i, 1250)));
        let first = pacer.release(Time::ZERO);
        assert_eq!(first.len(), 1, "only one packet per slot at t=0");
        let later = pacer.release(Time::from_millis(12));
        // Slots at 4, 8, 12 ms have passed.
        assert_eq!(later.len(), 3);
        assert_eq!(later[0].send_time, Time::from_millis(4));
        assert_eq!(later[2].send_time, Time::from_millis(12));
        assert_eq!(pacer.queued_packets(), 1);
    }

    #[test]
    fn release_into_matches_release_and_clears_stale_contents() {
        let mk = || {
            let mut p = Pacer::new(1e6, 2.5);
            p.enqueue((0..5).map(|i| pkt(i, 1250)));
            p
        };
        let mut a = mk();
        let mut b = mk();
        let mut buf = vec![pkt(99, 1)]; // stale content must be dropped
        b.release_into(Time::from_millis(12), &mut buf);
        assert_eq!(buf, a.release(Time::from_millis(12)));
        assert_eq!(a.queued_packets(), b.queued_packets());
    }

    #[test]
    fn empty_pacer_releases_nothing() {
        let mut pacer = Pacer::new(1e6, 2.5);
        assert!(pacer.release(Time::from_secs(1)).is_empty());
        assert_eq!(pacer.next_release_time(), None);
    }

    #[test]
    fn rate_change_affects_future_slots() {
        let mut pacer = Pacer::new(1e6, 2.5);
        pacer.enqueue((0..4).map(|i| pkt(i, 1250)));
        pacer.release(Time::ZERO);
        pacer.set_target_bitrate(0.5e6); // slots now 8 ms apart
        let out = pacer.release(Time::from_millis(16));
        // Old next_release was 4 ms; packet 1 at 4 ms, then +8 ms -> 12 ms.
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].send_time, Time::from_millis(4));
        assert_eq!(out[1].send_time, Time::from_millis(12));
    }

    #[test]
    fn drain_time_tracks_queue() {
        let mut pacer = Pacer::new(1e6, 2.0); // 2 Mbps
        pacer.enqueue((0..10).map(|i| pkt(i, 1250)));
        // 100 kbit at 2 Mbps = 50 ms.
        assert_eq!(pacer.drain_time(), Dur::millis(50));
        assert_eq!(pacer.queued_bytes, 12_500);
    }

    #[test]
    fn send_time_is_never_in_the_future() {
        let mut pacer = Pacer::new(1e6, 2.5);
        pacer.enqueue((0..3).map(|i| pkt(i, 1250)));
        let now = Time::from_millis(100);
        for p in pacer.release(now) {
            assert!(p.send_time <= now);
        }
    }

    #[test]
    fn pre_stamped_send_time_is_never_moved_backward() {
        // Packets enter the pacer stamped with their encode-completion
        // time (see `Packetizer`); the release stamp may only move that
        // forward to the pacing slot, never backward.
        let mut pacer = Pacer::new(1e6, 2.5);
        let mut a = pkt(0, 1250);
        a.send_time = Time::from_millis(3); // later than its 0 ms slot
        let mut b = pkt(1, 1250);
        b.send_time = Time::from_millis(1); // earlier than its slot
        pacer.enqueue([a, b]);
        let out = pacer.release(Time::from_millis(100));
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].send_time, Time::from_millis(3));
        // b's slot is a's stamp plus one 4 ms serialization slot.
        assert_eq!(out[1].send_time, Time::from_millis(7));
    }

    #[test]
    #[should_panic(expected = "pacing factor")]
    fn rejects_sub_unit_factor() {
        Pacer::new(1e6, 0.5);
    }

    proptest::proptest! {
        /// Generalizes `pre_stamped_send_time_is_never_moved_backward`
        /// to random schedules: under any interleaving of enqueues
        /// (with arbitrary pre-stamps), rate changes and release polls,
        /// every released stamp is (a) at least the packet's pre-stamp,
        /// (b) monotone non-decreasing across the whole run, and (c) no
        /// later than `max(now, pre-stamp)`.
        #[test]
        fn release_stamps_never_move_backward_under_random_schedules(
            stamps in proptest::collection::vec(0u64..200, 1..60),
            sizes in proptest::collection::vec(100u64..1500, 1..60),
            gaps in proptest::collection::vec(0u64..20, 1..60),
            rates in proptest::collection::vec(1u64..40, 1..60),
        ) {
            let mut pacer = Pacer::new(1e6, 2.5);
            let mut pre = std::collections::HashMap::new();
            let mut now = Time::ZERO;
            let mut released: Vec<(Packet, Time)> = Vec::new();
            let n = stamps.len();
            for i in 0..n {
                let mut p = pkt(i as u64, sizes[i % sizes.len()]);
                p.send_time = Time::from_millis(stamps[i]);
                pre.insert(p.seq, p.send_time);
                pacer.enqueue([p]);
                if i % 3 == 2 {
                    // 0.1–4 Mbps retarget mid-stream.
                    pacer.set_target_bitrate(rates[i % rates.len()] as f64 * 1e5);
                }
                now += Dur::millis(gaps[i % gaps.len()]);
                released.extend(pacer.release(now).into_iter().map(|p| (p, now)));
            }
            // Drain: backlog boost bounds queue time at 2 s, pre-stamps
            // at 200 ms, so a few seconds of polling empties the queue.
            for _ in 0..100 {
                if pacer.queued_packets() == 0 {
                    break;
                }
                now += Dur::millis(100);
                released.extend(pacer.release(now).into_iter().map(|p| (p, now)));
            }
            proptest::prop_assert_eq!(released.len(), n, "queue failed to drain");

            let mut last = Time::ZERO;
            for &(p, at) in &released {
                let stamp = p.send_time;
                let pre_stamp = pre[&p.seq];
                proptest::prop_assert!(stamp >= pre_stamp, "pre-stamp moved backward");
                proptest::prop_assert!(stamp >= last, "release stamps not monotone");
                proptest::prop_assert!(stamp <= at.max(pre_stamp), "stamp from the future");
                last = stamp;
            }
        }
    }

    #[test]
    fn backlog_boosts_drain_rate() {
        // A huge backlog at a tiny nominal rate must still drain within
        // the max queue time (2 s): 2 Mbit at a nominal 0.25 Mbps would
        // take 8 s; the boost raises the effective rate to 1 Mbps.
        let mut pacer = Pacer::new(0.1e6, 2.5); // nominal 0.25 Mbps
        pacer.enqueue((0..200).map(|i| pkt(i, 1250))); // 2 Mbit
        assert!(pacer.effective_rate_bps() >= 1e6 - 1.0);
        assert!(pacer.drain_time() <= Dur::secs(2));
        // Small queues keep the nominal rate.
        let mut small = Pacer::new(1e6, 2.5);
        small.enqueue([pkt(0, 1250)]);
        assert_eq!(small.effective_rate_bps(), 2.5e6);
    }
}
