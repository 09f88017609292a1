//! The network between the two ends of a session: the forward
//! bottleneck link with its chaos stages, and the reverse path that
//! carries feedback, NACKs and PLIs back to the sender, with its
//! corruption stage.
//!
//! The path is the only code that schedules an arrival at either end:
//! `Arrival` at the receiver, and `FeedbackArrive`, `NackArrive` and
//! `PliArrive` at the sender. It also keeps the forward conservation
//! counts.

use ravel_net::{
    ChaosSchedule, ChaosTrace, CorruptSchedule, Delivery, FeedbackCorruptor, FeedbackReport,
    ForwardChaos, Link, NackBatch, Packet, Packetizer, ReversePath,
};
use ravel_obs::ObsEvent;
use ravel_sim::Time;
use ravel_trace::BandwidthTrace;

use crate::invariants::Invariant;
use crate::queue::{Event, Queue};
use crate::session::{Ctx, SessionConfig};

/// Forward-path accounting for the conservation invariant.
#[derive(Debug, Default)]
pub(crate) struct ForwardAcct {
    /// Packets handed to the link (`Link::send` calls).
    pub(crate) sent: u64,
    /// Arrival events the loop processed.
    pub(crate) arrivals: u64,
    /// Arrival events still queued when the session ended.
    pub(crate) inflight: u64,
}

/// The forward link and the reverse path of one session.
pub(crate) struct Path<T: BandwidthTrace> {
    /// The bottleneck. It always sees a chaos-wrapped trace: outside
    /// every capacity fault (and always, for the empty schedule) the
    /// wrapper multiplies by exactly 1.0, so chaos-free sessions stay
    /// byte-identical.
    pub(crate) link: Link<ChaosTrace<T>>,
    /// The chaos schedule, for its MTU-shrink faults.
    schedule: Option<ChaosSchedule>,
    /// Per-packet chaos (burst loss, reordering, duplication) applied
    /// after the link's delivery decision, at the send boundary — the
    /// link itself enforces FIFO, so reordering must live outside it.
    pub(crate) fwd_chaos: Option<ForwardChaos>,
    /// All receiver → sender traffic crosses this (possibly impaired)
    /// reverse path.
    pub(crate) reverse: ReversePath,
    /// Control-plane corruption applied to delivered feedback/PLI
    /// copies at the reverse path's send boundary. `None` is exact
    /// passthrough.
    pub(crate) corruptor: Option<FeedbackCorruptor>,
    pub(crate) acct: ForwardAcct,
}

impl<T: BandwidthTrace> Path<T> {
    /// Builds the path over `trace`. Empty schedules are passthrough.
    pub(crate) fn new(
        trace: T,
        cfg: &SessionConfig,
        schedule: Option<ChaosSchedule>,
        corrupt: Option<CorruptSchedule>,
    ) -> Path<T> {
        let schedule = schedule.filter(|s| !s.is_empty());
        let corrupt = corrupt.filter(|s| !s.is_empty());
        Path {
            link: Link::new(
                ChaosTrace::new(trace, schedule.clone().unwrap_or_default()),
                cfg.link,
                cfg.seed,
            ),
            fwd_chaos: schedule
                .as_ref()
                .map(|s| ForwardChaos::new(s.clone(), cfg.seed)),
            schedule,
            corruptor: corrupt.map(|s| FeedbackCorruptor::new(s, cfg.seed)),
            reverse: ReversePath::new(cfg.reverse_path, cfg.reverse_delay, cfg.seed),
            acct: ForwardAcct::default(),
        }
    }

    /// The chaos segments, for the kernel's obs announcements.
    pub(crate) fn schedule(&self) -> Option<&ChaosSchedule> {
        self.schedule.as_ref()
    }

    /// Applies the payload MTU in force at `now` (chaos MTU shrink) to
    /// the sender's packetizer. Without a schedule the packetizer keeps
    /// its default.
    pub(crate) fn apply_mtu(&self, now: Time, packetizer: &mut Packetizer) {
        if let Some(sched) = &self.schedule {
            packetizer.set_payload_mtu(sched.payload_mtu(now));
        }
    }

    /// Sends one packet over the link, routing a delivered packet
    /// through the per-packet chaos stage (which may drop it, jitter
    /// its arrival past FIFO order, or inject a duplicate) and
    /// recording the send for conservation.
    pub(crate) fn send(&mut self, now: Time, packet: Packet, ctx: &mut Ctx, queue: &mut Queue) {
        self.acct.sent += 1;
        ctx.obs.record(now, || ObsEvent::PacketSent {
            seq: packet.seq,
            size_bytes: packet.size_bytes,
        });
        let dropped = |reason| ObsEvent::PacketDropped {
            seq: packet.seq,
            reason,
        };
        match self.link.send(&packet, now) {
            Delivery::At(arrival) => match self.fwd_chaos.as_mut() {
                Some(ch) => {
                    let fate = ch.transit(now, arrival);
                    if let Some(at) = fate.duplicate {
                        queue.push_arrival(at, packet);
                    }
                    match fate.arrival {
                        Some(at) => queue.push_arrival(at, packet),
                        None => ctx.obs.record(now, || dropped("chaos")),
                    }
                }
                None => queue.push_arrival(arrival, packet),
            },
            Delivery::QueueDrop => ctx.obs.record(now, || dropped("queue")),
            Delivery::Lost => ctx.obs.record(now, || dropped("loss")),
        }
    }

    /// Counts a packet leaving the link at the receiver, and checks it
    /// did not arrive before it was sent.
    pub(crate) fn on_arrival(&mut self, now: Time, packet: &Packet, ctx: &mut Ctx) {
        self.acct.arrivals += 1;
        ctx.obs
            .record(now, || ObsEvent::PacketDelivered { seq: packet.seq });
        if now < packet.send_time {
            ctx.violate(
                now,
                Invariant::MonotonicDelivery,
                format!(
                    "packet seq {} arrived at {now} before its send time {}",
                    packet.seq, packet.send_time
                ),
            );
        }
    }

    /// Flags the link backlog if it ever exceeds the queue bound.
    pub(crate) fn check_backlog(&mut self, now: Time, ctx: &mut Ctx) {
        let backlog = self.link.backlog_bytes(now);
        let capacity = ctx.cfg.link.queue_capacity_bytes;
        ctx.check(now, Invariant::BoundedBacklog, backlog <= capacity, || {
            format!("link backlog {backlog} B exceeds queue capacity {capacity} B at {now}")
        });
    }

    /// Carries a feedback report back to the sender. Only a duplicate
    /// costs a copy, taken before anything is corrupted: each delivered
    /// copy is corrupted independently, so a duplicated reverse path can
    /// deliver one honest and one mutated copy of the same report.
    pub(crate) fn send_feedback(&mut self, now: Time, report: FeedbackReport, queue: &mut Queue) {
        let [Some(first), second] = self.reverse.transit(now) else {
            return;
        };
        let duplicate = second.map(|at| (at, report.clone()));
        for (at, mut copy) in std::iter::once((first, report)).chain(duplicate) {
            if let Some(c) = self.corruptor.as_mut() {
                c.corrupt(&mut copy, now);
            }
            queue.push_feedback(at, copy);
        }
    }

    /// Carries a NACK batch back to the sender.
    pub(crate) fn send_nack(&mut self, now: Time, batch: &NackBatch, queue: &mut Queue) {
        for at in self.reverse.transit(now).into_iter().flatten() {
            queue.push_nack(at, batch.clone());
        }
    }

    /// Carries a PLI back to the sender. A corrupted PLI is unparseable
    /// at the sender: the delivery slot is consumed but nothing
    /// arrives. The requester's retry loop keeps the request alive.
    pub(crate) fn send_pli(&mut self, now: Time, queue: &mut Queue) {
        for at in self.reverse.transit(now).into_iter().flatten() {
            if self.corruptor.as_mut().is_some_and(|c| c.suppress_pli(now)) {
                continue;
            }
            queue.push(at, Event::PliArrive);
        }
    }

    /// The conservation invariant: every sent packet (plus every chaos
    /// duplicate) arrived, is still in flight, or was dropped.
    pub(crate) fn check_conservation(&self, at: Time, ctx: &mut Ctx) {
        let chaos_lost = self.fwd_chaos.as_ref().map_or(0, |c| c.lost());
        let chaos_duplicates = self.fwd_chaos.as_ref().map_or(0, |c| c.duplicated());
        let acct = &self.acct;
        let (queue_drops, random_losses) = (self.link.queue_drops(), self.link.random_losses());
        let expected = acct.arrivals + acct.inflight + queue_drops + random_losses + chaos_lost;
        ctx.check(
            at,
            Invariant::Conservation,
            acct.sent + chaos_duplicates == expected,
            || {
                format!(
                    "sent {} + chaos duplicates {chaos_duplicates} != arrivals {} + in-flight {} \
                     + queue drops {queue_drops} + random losses {random_losses} + chaos losses {chaos_lost}",
                    acct.sent, acct.arrivals, acct.inflight
                )
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::Scheme;
    use ravel_net::{CorruptKind, CorruptMode, CorruptSegment, PacketResult, ReversePathConfig};
    use ravel_trace::ConstantTrace;

    /// A path whose reverse direction duplicates every message, under
    /// one corruption segment of `mode` at rate 1 over the first second.
    fn duplicating_path(mode: CorruptMode) -> Path<ConstantTrace> {
        let mut cfg = SessionConfig::default_with(Scheme::baseline());
        cfg.reverse_path = ReversePathConfig {
            duplicate_prob: 0.999_999,
            ..ReversePathConfig::default()
        };
        let corrupt = CorruptSchedule::from_segments(vec![CorruptSegment {
            from: Time::ZERO,
            until: Time::from_secs(1),
            kind: CorruptKind { mode, rate: 1.0 },
        }]);
        Path::new(ConstantTrace::new(4e6), &cfg, None, Some(corrupt))
    }

    /// Every event in `queue`, in pop order.
    fn drain(queue: &mut Queue) -> Vec<Event> {
        std::iter::from_fn(|| queue.pop().map(|s| s.event)).collect()
    }

    #[test]
    fn duplicated_feedback_copies_are_corrupted_independently() {
        let mut path = duplicating_path(CorruptMode::SeqWarp);
        let now = Time::from_millis(100);
        let report = FeedbackReport {
            report_seq: 7,
            generated_at: now,
            packets: vec![PacketResult {
                seq: 0,
                send_time: Time::from_millis(40),
                arrival: Some(Time::from_millis(80)),
                size_bytes: 1250,
            }],
        };
        let mut queue = Queue::default();
        path.send_feedback(now, report, &mut queue);
        let seqs: Vec<u64> = drain(&mut queue)
            .into_iter()
            .map(|e| match e {
                Event::FeedbackArrive(slot) => queue.reports.take(slot).report_seq,
                _ => panic!("only feedback copies expected"),
            })
            .collect();
        assert_eq!(seqs.len(), 2, "one report, two delivered copies");
        // Each copy drew its own warp.
        assert!(seqs.iter().all(|&s| s >= 7 + 1_000_000), "{seqs:?}");
        assert_ne!(seqs[0], seqs[1], "both copies drew the same warp");
        assert_eq!(path.corruptor.as_ref().map(|c| c.corrupted()), Some(2));
    }

    #[test]
    fn suppressed_pli_uses_its_slot_and_pushes_nothing() {
        let mut path = duplicating_path(CorruptMode::Truncate);
        let mut queue = Queue::default();
        path.send_pli(Time::from_millis(100), &mut queue);
        assert!(queue.is_empty());
        // The reverse path still delivered the message and its copy.
        assert_eq!(path.reverse.delivered(), 1);
        assert_eq!(path.reverse.duplicated(), 1);
        let corruptor = path.corruptor.as_ref().expect("corruption armed");
        assert_eq!(corruptor.plis_suppressed(), 2);
        // Past the segment both copies arrive.
        path.send_pli(Time::from_secs(2), &mut queue);
        let events = drain(&mut queue);
        assert_eq!(events.len(), 2);
        assert!(events.iter().all(|e| matches!(e, Event::PliArrive)));
    }
}
