//! The receiving end of a session: frame reassembly, FEC repair,
//! NACK generation, PLI retries and the transport-feedback reports
//! that drive the sender's congestion controller.

use ravel_net::{
    FecDecoder, FeedbackBuilder, FeedbackReport, FrameAssembler, MediaKind, NackGenerator, Packet,
    PliRequester,
};
use ravel_obs::ObsEvent;
use ravel_sim::{Dur, Time};
use ravel_trace::BandwidthTrace;

use crate::path::Path;
use crate::queue::{Event, Queue};
use crate::sender::SentVideoWindow;
use crate::session::{Ctx, SessionConfig, MAX_PLAYOUT_DELAY};

/// Receiver NACK poll cadence.
pub(crate) const NACK_POLL_EVERY: Dur = Dur::millis(10);

/// Frame completion instants, dense by frame index (video frame indexes
/// start at 0 and grow by 1 per capture), 8 bytes a frame: a frame that
/// has not assembled holds [`Time::FAR_FUTURE`], which no completion
/// reaches.
#[derive(Debug, Default)]
pub(crate) struct CompletedFrames {
    slots: Vec<Time>,
}

impl CompletedFrames {
    /// Room for `frames` frames before the first reallocation.
    pub(crate) fn with_capacity(frames: usize) -> CompletedFrames {
        CompletedFrames {
            slots: Vec::with_capacity(frames),
        }
    }

    /// Records the first completion of `frame_index` (duplicates and
    /// FEC/RTX re-completions keep the earliest instant).
    pub(crate) fn note(&mut self, frame_index: u64, at: Time) {
        debug_assert!(at < Time::FAR_FUTURE, "completion at the end of time");
        let idx = frame_index as usize;
        if idx >= self.slots.len() {
            self.slots.resize(idx + 1, Time::FAR_FUTURE);
        }
        let slot = &mut self.slots[idx];
        if *slot == Time::FAR_FUTURE {
            *slot = at;
        }
    }

    /// The completion instant of `frame_index`, if it ever assembled.
    pub(crate) fn get(&self, frame_index: u64) -> Option<Time> {
        let at = *self.slots.get(frame_index as usize)?;
        (at < Time::FAR_FUTURE).then_some(at)
    }
}

/// The receiver's state.
pub(crate) struct Receiver {
    assembler: FrameAssembler,
    feedback: FeedbackBuilder,
    pub(crate) nack_gen: NackGenerator,
    pub(crate) fec_decoder: FecDecoder,
    /// Keeps a keyframe request alive until a post-request keyframe
    /// actually lands.
    pub(crate) pli: PliRequester,
    pub(crate) completed: CompletedFrames,
    pub(crate) audio_latencies: Vec<(Time, Dur)>,
}

impl Receiver {
    /// A receiver for `cfg`: NACK retries every 30 ms, at most 5 per
    /// gap, given up at the playout deadline (PLI takes over).
    pub(crate) fn new(cfg: &SessionConfig) -> Receiver {
        Receiver {
            assembler: FrameAssembler::new(),
            feedback: FeedbackBuilder::new(),
            nack_gen: NackGenerator::new(Dur::millis(30), 5, MAX_PLAYOUT_DELAY),
            fec_decoder: FecDecoder::new(),
            pli: PliRequester::new(),
            completed: CompletedFrames::with_capacity(cfg.expected_frames()),
            audio_latencies: Vec::new(),
        }
    }

    /// A packet reached the receiver. `sent_video` stands in for the
    /// bytes an XOR decoder would hold, to materialize FEC recoveries.
    pub(crate) fn on_arrival<T: BandwidthTrace>(
        &mut self,
        now: Time,
        packet: Packet,
        sent_video: &SentVideoWindow,
        path: &mut Path<T>,
        ctx: &mut Ctx,
    ) {
        path.on_arrival(now, &packet, ctx);
        self.feedback.on_packet(&packet, now);
        if ctx.cfg.enable_rtx {
            self.nack_gen.on_packet(packet.seq, now);
        }
        if ctx.cfg.enable_fec && packet.kind != MediaKind::Fec {
            // Every non-parity arrival in a covered span counts
            // toward that span's recovery bookkeeping.
            let recovered = self.fec_decoder.on_media_packet(packet.seq);
            self.on_fec_recovered(recovered, sent_video, now);
        }
        match packet.kind {
            MediaKind::Audio => {
                self.audio_latencies
                    .push((packet.pts, now.saturating_since(packet.pts)));
            }
            MediaKind::Fec => {
                let recovered = self.fec_decoder.on_parity_packet(&packet);
                self.on_fec_recovered(recovered, sent_video, now);
            }
            MediaKind::Video => self.assemble(&packet, now),
        }
    }

    /// Receives FEC-recovered video packets as if they had arrived.
    fn on_fec_recovered(&mut self, seqs: Vec<u64>, sent_video: &SentVideoWindow, now: Time) {
        for seq in seqs {
            if let Some(rec) = sent_video.get(seq) {
                self.nack_gen.on_packet(seq, now);
                self.assemble(&rec, now);
            }
        }
    }

    /// Feeds a received video packet to the assembler and notes the
    /// frame it completes, if any. Only a COMPLETE keyframe satisfies an
    /// outstanding PLI (a lone fragment may never assemble; retries must
    /// go on).
    fn assemble(&mut self, packet: &Packet, now: Time) {
        if let Some(done) = self.assembler.push(packet, now) {
            if done.is_keyframe {
                self.pli.on_keyframe(packet.send_time);
            }
            self.completed.note(done.frame_index, done.complete_at);
        }
    }

    /// Flushes a feedback report (and any due PLI) onto the reverse
    /// path, and schedules the next flush.
    pub(crate) fn on_feedback_flush<T: BandwidthTrace>(
        &mut self,
        now: Time,
        path: &mut Path<T>,
        ctx: &mut Ctx,
        queue: &mut Queue,
    ) {
        path.check_backlog(now, ctx);
        if let Some(report) = self.feedback.flush(now) {
            // Reported losses mean some frame will be undecodable: arm
            // (or keep alive) the keyframe request. It stays armed
            // until a post-request keyframe actually arrives.
            if report.lost_count() > 0 {
                self.pli.request(now);
            }
            path.send_feedback(now, report, queue);
        }
        // PLI emission (first send and backoff retries) shares the
        // feedback cadence — and the impaired reverse path.
        if self.pli.poll(now) {
            ctx.obs.record(now, || ObsEvent::PliSent);
            path.send_pli(now, queue);
        }
        let next = now + ctx.cfg.feedback_interval;
        if next <= ctx.hard_end() {
            queue.push(next, Event::FeedbackFlush);
        }
    }

    /// Takes back a report the sender is done with, so the next flushes
    /// reuse its buffer.
    pub(crate) fn recycle_report(&mut self, report: FeedbackReport) {
        self.feedback.recycle(report.packets);
    }

    /// Sends a NACK for any gap (or due retry), and schedules the next
    /// poll.
    pub(crate) fn on_nack_poll<T: BandwidthTrace>(
        &mut self,
        now: Time,
        path: &mut Path<T>,
        ctx: &Ctx,
        queue: &mut Queue,
    ) {
        let abandoned_before = self.nack_gen.abandoned();
        let batch = self.nack_gen.poll(now);
        if self.nack_gen.abandoned() > abandoned_before {
            // RTX gave up on a gap: some frame will never assemble and
            // the reference chain will break when playout reaches it.
            // Feedback already reported the loss (possibly while an
            // earlier PLI was pending and got satisfied by a keyframe
            // that predates this gap), so this is the receiver's only
            // remaining signal — recovery is the PLI path's job now.
            self.pli.request(now);
        }
        if let Some(batch) = batch {
            path.send_nack(now, &batch, queue);
        }
        let next = now + NACK_POLL_EVERY;
        if next <= ctx.hard_end() {
            queue.push(next, Event::NackPoll);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::Scheme;
    use ravel_net::FecEncoder;
    use ravel_obs::ObsMode;
    use ravel_trace::ConstantTrace;

    /// A keyframe request is pending from 5 ms. A two-fragment frame
    /// goes out at 10 ms under FEC (one parity per two packets); its
    /// second fragment is lost, and the first and the parity arrive at
    /// 40 and 41 ms.
    fn recover_lost_fragment(keyframe: bool) -> (Receiver, Path<ConstantTrace>, Ctx) {
        let mut cfg = SessionConfig::default_with(Scheme::baseline());
        cfg.enable_fec = true;
        let mut ctx = Ctx::new(cfg, ObsMode::Off);
        let mut path = Path::new(ConstantTrace::new(4e6), &cfg, None, None);
        let mut receiver = Receiver::new(&cfg);
        receiver.pli.request(Time::from_millis(5));
        let sent_at = Time::from_millis(10);
        let media = [0, 1].map(|seq| Packet {
            kind: MediaKind::Video,
            seq,
            frame_index: 0,
            fragment: seq as u16,
            num_fragments: 2,
            size_bytes: 1000,
            pts: sent_at,
            send_time: sent_at,
            is_keyframe: keyframe,
        });
        let mut window = SentVideoWindow::default();
        let mut fec = FecEncoder::new(2);
        let mut parity = None;
        for p in media {
            window.insert(p);
            parity = fec.on_media_packet(&p, || 2, sent_at);
        }
        let parity = parity.expect("a full group emits its parity");
        let first_at = Time::from_millis(40);
        receiver.on_arrival(first_at, media[0], &window, &mut path, &mut ctx);
        assert_eq!(receiver.completed.get(0), None, "half a frame");
        let parity_at = Time::from_millis(41);
        receiver.on_arrival(parity_at, parity, &window, &mut path, &mut ctx);
        assert_eq!(receiver.fec_decoder.recovered(), 1);
        assert_eq!(receiver.completed.get(0), Some(parity_at));
        assert_eq!(path.acct.arrivals, 2, "a recovery is not an arrival");
        (receiver, path, ctx)
    }

    #[test]
    fn fec_recovered_keyframe_completes_and_satisfies_the_pli() {
        let (receiver, _, _) = recover_lost_fragment(true);
        assert!(!receiver.pli.is_pending());
    }

    #[test]
    fn fec_recovered_delta_frame_leaves_the_pli_pending() {
        let (mut receiver, mut path, mut ctx) = recover_lost_fragment(false);
        assert!(receiver.pli.is_pending());
        // The next feedback flush sends the report and retries the PLI.
        let mut queue = Queue::default();
        receiver.on_feedback_flush(Time::from_millis(50), &mut path, &mut ctx, &mut queue);
        let events: Vec<Event> = std::iter::from_fn(|| queue.pop().map(|s| s.event)).collect();
        assert!(matches!(
            events[..],
            [
                Event::FeedbackArrive(_),
                Event::PliArrive,
                Event::FeedbackFlush
            ]
        ));
    }
}
