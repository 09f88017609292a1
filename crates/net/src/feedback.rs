//! Transport-wide congestion-control feedback (RFC 8888-style).
//!
//! The receiver records, for every media packet, its transport-wide
//! sequence number, the sender's wire-entry timestamp (echoed from the
//! packet), its own arrival timestamp, and the size. Periodically it
//! flushes these into a [`FeedbackReport`] that travels back to the
//! sender over the (uncongested) reverse path.
//!
//! Both the GCC baseline and the paper's drop detector are *consumers*
//! of these reports; the report interval and the reverse-path delay
//! together set the floor on how fast *any* sender-side mechanism can
//! react — which is why E5 sweeps the feedback RTT.

use ravel_sim::Time;

use crate::packet::Packet;

/// One packet's fate, as the receiver saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketResult {
    /// Transport-wide sequence number.
    pub seq: u64,
    /// Sender wire-entry time (echoed).
    pub send_time: Time,
    /// Arrival time, or `None` if the packet was declared lost (a gap in
    /// sequence numbers that never filled before the report flushed).
    pub arrival: Option<Time>,
    /// Wire size in bytes.
    pub size_bytes: u64,
}

/// A batch of packet results flushed by the receiver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeedbackReport {
    /// Monotone report sequence number assigned by the receiver at
    /// flush time. The reverse path can drop, duplicate, and reorder
    /// reports, so the sender uses this to discard duplicates and
    /// stale (older-than-newest-processed) reports before they reach
    /// the congestion controller or the drop detector.
    pub report_seq: u64,
    /// When the receiver generated this report.
    pub generated_at: Time,
    /// Results ordered by sequence number.
    pub packets: Vec<PacketResult>,
}

impl FeedbackReport {
    /// Number of packets reported received.
    pub fn received_count(&self) -> usize {
        self.packets.iter().filter(|p| p.arrival.is_some()).count()
    }

    /// Number of packets reported lost.
    pub fn lost_count(&self) -> usize {
        self.packets.iter().filter(|p| p.arrival.is_none()).count()
    }

    /// Fraction of reported packets that were lost (0 if empty).
    pub fn loss_fraction(&self) -> f64 {
        if self.packets.is_empty() {
            0.0
        } else {
            self.lost_count() as f64 / self.packets.len() as f64
        }
    }

    /// Delivered throughput over the report's arrival span, if at least
    /// two packets arrived (bits/second).
    ///
    /// Defensive by construction — these degenerate shapes can reach a
    /// caller through a corrupted reverse path, so they are handled
    /// here rather than at every consumer:
    ///
    /// * fewer than two arrivals, or a zero-duration arrival span
    ///   (all packets stamped with one instant) → `None`, never a
    ///   division by zero;
    /// * arrivals out of order → the span is `max − min`, not
    ///   `last − first`;
    /// * absurd sizes → the byte total saturates instead of wrapping.
    pub fn delivered_rate_bps(&self) -> Option<f64> {
        let mut first: Option<Time> = None;
        let mut last: Option<Time> = None;
        let mut bytes = 0u64;
        for p in &self.packets {
            if let Some(a) = p.arrival {
                first = Some(first.map_or(a, |f: Time| f.min(a)));
                last = Some(last.map_or(a, |l: Time| l.max(a)));
                bytes = bytes.saturating_add(p.size_bytes);
            }
        }
        let (first, last) = (first?, last?);
        let span = last.saturating_since(first);
        if span.is_zero() {
            return None;
        }
        Some(bytes as f64 * 8.0 / span.as_secs_f64())
    }
}

/// Receiver-side feedback accumulator.
///
/// Tracks arrivals by sequence number; on [`FeedbackBuilder::flush`],
/// every sequence number up to the highest seen is reported — gaps as
/// losses. Real transports wait a reordering window before declaring
/// loss; this builder does not, so a gap that is only out of order at
/// flush time is reported lost. Two cases produce such gaps:
///
/// * `ForwardChaos` reorder segments deliver packets out of order (E18's
///   `chaos/seed23` cells report more loss than the link dropped, e.g.
///   82 lost against 67 dropped at intensity 0.5).
/// * Audio and FEC parity take their seqs outside pacer order, so their
///   seqs can arrive above video packets still waiting in the pacer.
///
/// ROADMAP item 1 tracks the fix.
#[derive(Debug, Clone, Default)]
pub struct FeedbackBuilder {
    /// Results accumulated since the last flush, keyed by seq.
    pending: Vec<PacketResult>,
    /// The seq after the highest ever reported (for gap detection).
    next_expected_seq: u64,
    /// Info about known-sent packets we use for declaring gaps: the
    /// receiver can only infer a gap's send metadata approximately, so
    /// lost packets carry the previous packet's send time.
    last_send_time: Time,
    /// Sequence number assigned to the next flushed report.
    next_report_seq: u64,
    /// Emptied `packets` buffers of spent reports, reused by the next
    /// flushes.
    spare: Vec<Vec<PacketResult>>,
}

impl FeedbackBuilder {
    /// Creates an empty builder.
    pub fn new() -> FeedbackBuilder {
        FeedbackBuilder::default()
    }

    /// Spent report buffers kept for reuse. A duplicating reverse path
    /// hands back more buffers than flushes take; the rest are dropped.
    const SPARE_REPORTS: usize = 8;

    /// Takes back a spent report's `packets` buffer, so a later flush
    /// reuses it instead of allocating.
    pub fn recycle(&mut self, mut packets: Vec<PacketResult>) {
        if self.spare.len() < Self::SPARE_REPORTS {
            packets.clear();
            self.spare.push(packets);
        }
    }

    /// Records one arrived packet.
    pub fn on_packet(&mut self, packet: &Packet, arrival: Time) {
        self.pending.push(PacketResult {
            seq: packet.seq,
            send_time: packet.send_time,
            arrival: Some(arrival),
            size_bytes: packet.size_bytes,
        });
        self.last_send_time = self.last_send_time.max(packet.send_time);
    }

    /// Produces a report covering every sequence number from the last
    /// report's end through the highest arrival recorded, marking gaps as
    /// lost. Returns `None` when nothing new arrived.
    pub fn flush(&mut self, now: Time) -> Option<FeedbackReport> {
        if self.pending.is_empty() {
            return None;
        }
        self.pending.sort_by_key(|p| p.seq);
        let highest = self.pending.last().expect("non-empty").seq;
        if highest < self.next_expected_seq {
            // Everything pending duplicates an already-reported seq
            // (e.g. an RTX repair landing after its gap was declared
            // lost). Reporting it again — or regressing the window to
            // `highest + 1` — would double-report packets downstream,
            // so drop the batch and keep the window where it is.
            self.pending.clear();
            return None;
        }
        let mut packets = self.spare.pop().unwrap_or_default();
        packets.reserve(self.pending.len());
        let mut iter = self.pending.drain(..).peekable();
        for seq in self.next_expected_seq..=highest {
            // Discard duplicates and below-window stragglers without
            // letting them consume the slot for `seq`.
            while iter.peek().is_some_and(|p| p.seq < seq) {
                iter.next();
            }
            match iter.peek() {
                Some(p) if p.seq == seq => {
                    let p = iter.next().expect("peeked");
                    packets.push(p);
                }
                _ => {
                    packets.push(PacketResult {
                        seq,
                        send_time: self.last_send_time,
                        arrival: None,
                        size_bytes: 0,
                    });
                }
            }
        }
        self.next_expected_seq = highest + 1;
        let report_seq = self.next_report_seq;
        self.next_report_seq += 1;
        Some(FeedbackReport {
            report_seq,
            generated_at: now,
            packets,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::MediaKind;
    use ravel_sim::Dur;

    fn pkt(seq: u64, send_ms: u64) -> Packet {
        Packet {
            kind: MediaKind::Video,
            seq,
            frame_index: 0,
            fragment: 0,
            num_fragments: 1,
            size_bytes: 1250,
            pts: Time::ZERO,
            send_time: Time::from_millis(send_ms),
            is_keyframe: false,
        }
    }

    #[test]
    fn flush_reports_arrivals_in_order() {
        let mut fb = FeedbackBuilder::new();
        fb.on_packet(&pkt(1, 10), Time::from_millis(40));
        fb.on_packet(&pkt(0, 5), Time::from_millis(35));
        let report = fb.flush(Time::from_millis(50)).unwrap();
        assert_eq!(report.packets.len(), 2);
        assert_eq!(report.packets[0].seq, 0);
        assert_eq!(report.received_count(), 2);
        assert_eq!(report.lost_count(), 0);
    }

    #[test]
    fn gaps_are_losses() {
        let mut fb = FeedbackBuilder::new();
        fb.on_packet(&pkt(0, 5), Time::from_millis(30));
        fb.on_packet(&pkt(3, 20), Time::from_millis(45));
        let report = fb.flush(Time::from_millis(50)).unwrap();
        assert_eq!(report.packets.len(), 4);
        assert_eq!(report.lost_count(), 2);
        assert!((report.loss_fraction() - 0.5).abs() < 1e-12);
        assert!(report.packets[1].arrival.is_none());
        assert!(report.packets[2].arrival.is_none());
    }

    #[test]
    fn recycled_report_buffers_are_reused() {
        let mut fb = FeedbackBuilder::new();
        fb.on_packet(&pkt(0, 5), Time::from_millis(30));
        fb.on_packet(&pkt(1, 6), Time::from_millis(31));
        let first = fb.flush(Time::from_millis(50)).unwrap();
        let buffer = first.packets.as_ptr();
        fb.recycle(first.packets);
        fb.on_packet(&pkt(3, 8), Time::from_millis(61));
        let second = fb.flush(Time::from_millis(100)).unwrap();
        assert_eq!(
            second.packets.as_ptr(),
            buffer,
            "the spent buffer is reused"
        );
        let seqs: Vec<u64> = second.packets.iter().map(|p| p.seq).collect();
        assert_eq!(seqs, [2, 3]);
        assert_eq!(second.lost_count(), 1);
        // A flood of handed-back buffers is bounded.
        for _ in 0..100 {
            fb.recycle(Vec::with_capacity(4));
        }
        assert_eq!(fb.spare.len(), FeedbackBuilder::SPARE_REPORTS);
    }

    #[test]
    fn empty_flush_is_none() {
        let mut fb = FeedbackBuilder::new();
        assert!(fb.flush(Time::from_millis(50)).is_none());
        fb.on_packet(&pkt(0, 5), Time::from_millis(30));
        assert!(fb.flush(Time::from_millis(50)).is_some());
        assert!(fb.flush(Time::from_millis(100)).is_none());
    }

    #[test]
    fn consecutive_reports_cover_disjoint_ranges() {
        let mut fb = FeedbackBuilder::new();
        fb.on_packet(&pkt(0, 5), Time::from_millis(30));
        fb.on_packet(&pkt(1, 10), Time::from_millis(35));
        let r1 = fb.flush(Time::from_millis(40)).unwrap();
        fb.on_packet(&pkt(4, 30), Time::from_millis(60));
        let r2 = fb.flush(Time::from_millis(70)).unwrap();
        assert_eq!(r1.packets.last().unwrap().seq, 1);
        // Seqs 2 and 3 fall into the second report as losses.
        assert_eq!(r2.packets.first().unwrap().seq, 2);
        assert_eq!(r2.lost_count(), 2);
        assert_eq!(r2.received_count(), 1);
    }

    #[test]
    fn delivered_rate_computation() {
        let mut fb = FeedbackBuilder::new();
        // 5 packets of 1250 B arriving 10 ms apart: span 40 ms,
        // delivered bytes 6250 -> 50 kbit / 0.04 s = 1.25 Mbps.
        for i in 0..5 {
            fb.on_packet(&pkt(i, 0), Time::from_millis(100 + i * 10));
        }
        let report = fb.flush(Time::from_millis(200)).unwrap();
        let rate = report.delivered_rate_bps().unwrap();
        assert!((rate - 1.25e6).abs() < 1e3, "rate {rate}");
    }

    #[test]
    fn delivered_rate_needs_span() {
        let mut fb = FeedbackBuilder::new();
        fb.on_packet(&pkt(0, 0), Time::from_millis(100));
        let report = fb.flush(Time::from_millis(200)).unwrap();
        assert!(report.delivered_rate_bps().is_none());
    }

    /// A report with several packets stamped with one arrival instant —
    /// producible only via corruption — has a zero-duration span and
    /// must yield `None`, not an infinite or NaN rate.
    #[test]
    fn delivered_rate_zero_duration_span_is_none() {
        let report = FeedbackReport {
            report_seq: 0,
            generated_at: Time::from_millis(200),
            packets: (0..3)
                .map(|seq| PacketResult {
                    seq,
                    send_time: Time::from_millis(10),
                    arrival: Some(Time::from_millis(100)),
                    size_bytes: 1250,
                })
                .collect(),
        };
        assert!(report.delivered_rate_bps().is_none());
    }

    /// Size-bombed packets (u64::MAX) must saturate the byte totals
    /// instead of wrapping them back toward zero.
    #[test]
    fn absurd_sizes_saturate_instead_of_wrapping() {
        let report = FeedbackReport {
            report_seq: 0,
            generated_at: Time::from_millis(300),
            packets: (0..4)
                .map(|seq| PacketResult {
                    seq,
                    send_time: Time::from_millis(10),
                    arrival: Some(Time::from_millis(100 + seq * 10)),
                    size_bytes: u64::MAX,
                })
                .collect(),
        };
        let rate = report.delivered_rate_bps().unwrap();
        assert!(rate.is_finite() && rate > 0.0, "rate {rate}");
    }

    /// A lost-only report (arrival `None` everywhere) exercises every
    /// accessor's empty-arrival path at once.
    #[test]
    fn lost_only_report_degenerates_cleanly() {
        let report = FeedbackReport {
            report_seq: 0,
            generated_at: Time::from_millis(100),
            packets: (0..3)
                .map(|seq| PacketResult {
                    seq,
                    send_time: Time::from_millis(10),
                    arrival: None,
                    size_bytes: 0,
                })
                .collect(),
        };
        assert_eq!(report.received_count(), 0);
        assert!((report.loss_fraction() - 1.0).abs() < 1e-12);
        assert!(report.delivered_rate_bps().is_none());
    }

    /// Corruption can reorder arrival stamps; the rate span must be
    /// `max − min`, never a negative/saturated `last − first`.
    #[test]
    fn out_of_order_arrivals_still_yield_a_rate() {
        let report = FeedbackReport {
            report_seq: 0,
            generated_at: Time::from_millis(300),
            packets: vec![
                PacketResult {
                    seq: 0,
                    send_time: Time::from_millis(10),
                    arrival: Some(Time::from_millis(140)),
                    size_bytes: 1250,
                },
                PacketResult {
                    seq: 1,
                    send_time: Time::from_millis(12),
                    arrival: Some(Time::from_millis(100)),
                    size_bytes: 1250,
                },
            ],
        };
        // 2500 B over 40 ms = 500 kbit/s.
        let rate = report.delivered_rate_bps().unwrap();
        assert!((rate - 5e5).abs() < 1e3, "rate {rate}");
    }

    #[test]
    fn received_bytes_excludes_losses() {
        let mut fb = FeedbackBuilder::new();
        fb.on_packet(&pkt(0, 5), Time::from_millis(30));
        fb.on_packet(&pkt(2, 15), Time::from_millis(40));
        let report = fb.flush(Time::from_millis(50)).unwrap();
        // Seq 1 is reported lost; the delivered rate counts only the
        // 2 × 1250 B that arrived, over their 10 ms span.
        assert_eq!(report.lost_count(), 1);
        let rate = report.delivered_rate_bps().unwrap();
        assert!((rate - 2e6).abs() < 1.0, "rate {rate}");
    }

    #[test]
    fn one_way_delays_derivable() {
        let mut fb = FeedbackBuilder::new();
        fb.on_packet(&pkt(0, 10), Time::from_millis(40));
        let report = fb.flush(Time::from_millis(50)).unwrap();
        let p = report.packets[0];
        let owd = p.arrival.unwrap().since(p.send_time);
        assert_eq!(owd, Dur::millis(30));
    }

    #[test]
    fn report_seq_increments_per_flush() {
        let mut fb = FeedbackBuilder::new();
        fb.on_packet(&pkt(0, 5), Time::from_millis(30));
        let r0 = fb.flush(Time::from_millis(40)).unwrap();
        // An empty interval does not consume a report seq.
        assert!(fb.flush(Time::from_millis(50)).is_none());
        fb.on_packet(&pkt(1, 45), Time::from_millis(60));
        let r1 = fb.flush(Time::from_millis(70)).unwrap();
        assert_eq!(r0.report_seq, 0);
        assert_eq!(r1.report_seq, 1);
    }

    #[test]
    fn late_duplicate_does_not_regress_window() {
        let mut fb = FeedbackBuilder::new();
        fb.on_packet(&pkt(0, 5), Time::from_millis(30));
        fb.on_packet(&pkt(5, 10), Time::from_millis(35));
        let r1 = fb.flush(Time::from_millis(40)).unwrap();
        assert_eq!(r1.packets.len(), 6); // 0..=5, gaps as losses
                                         // An RTX repair for seq 2 lands after it was declared lost:
                                         // it must not be re-reported, and the window must not regress.
        fb.on_packet(&pkt(2, 8), Time::from_millis(50));
        assert!(fb.flush(Time::from_millis(55)).is_none());
        fb.on_packet(&pkt(6, 45), Time::from_millis(60));
        let r2 = fb.flush(Time::from_millis(70)).unwrap();
        assert_eq!(r2.packets.first().unwrap().seq, 6);
        assert_eq!(r2.packets.len(), 1);
    }

    proptest::proptest! {
        /// Whatever the arrival pattern — reordered, duplicated, with
        /// gaps — consecutive reports cover disjoint, monotonically
        /// increasing seq ranges and never double-report a packet.
        #[test]
        fn reports_partition_seq_space(
            arrivals in proptest::collection::vec((0u64..400, 0u64..50), 1..120),
            flush_every in 1usize..20,
        ) {
            let mut fb = FeedbackBuilder::new();
            let mut reported = std::collections::BTreeSet::new();
            let mut next_uncovered = 0u64;
            let mut last_report_seq: Option<u64> = None;
            let mut now_ms = 0;
            for (chunk_idx, chunk) in arrivals.chunks(flush_every).enumerate() {
                for &(seq, jitter_ms) in chunk {
                    now_ms += 1;
                    fb.on_packet(&pkt(seq, now_ms), Time::from_millis(now_ms + jitter_ms));
                }
                let Some(report) = fb.flush(Time::from_millis(now_ms + 100)) else {
                    // Every chunk records at least one packet, so a
                    // flush can only be empty if all its seqs were
                    // already covered by earlier reports.
                    proptest::prop_assert!(
                        chunk.iter().all(|&(seq, _)| seq < next_uncovered),
                        "empty flush with novel seqs (chunk {chunk_idx})"
                    );
                    continue;
                };
                // Report seq numbers strictly increase.
                if let Some(prev) = last_report_seq {
                    proptest::prop_assert!(report.report_seq > prev);
                }
                last_report_seq = Some(report.report_seq);
                // The report covers a contiguous range that starts
                // exactly where the previous report ended.
                proptest::prop_assert_eq!(
                    report.packets.first().unwrap().seq,
                    next_uncovered
                );
                for p in &report.packets {
                    proptest::prop_assert_eq!(p.seq, next_uncovered, "non-contiguous report");
                    proptest::prop_assert!(
                        reported.insert(p.seq),
                        "seq {} double-reported",
                        p.seq
                    );
                    next_uncovered += 1;
                }
            }
        }
    }
}
