//! The sending end of a session: capture, the adaptation controller
//! and encoder, congestion control, pacing, RTX and FEC, plus the
//! feedback validator and watchdog that guard the control loop.

use std::collections::VecDeque;
use std::mem;

use ravel_cc::CongestionController;
use ravel_codec::{Decodable, EncodedFrame, Encoder, EncoderConfig, FrameType};
use ravel_core::{AdaptiveController, FeedbackWatchdog, FrameDecision};
use ravel_net::{
    FecEncoder, FeedbackReport, FeedbackValidator, MediaKind, NackBatch, Pacer, Packet, Packetizer,
    RtxBuffer,
};
use ravel_obs::ObsEvent;
use ravel_sim::{Dur, Series, Time};
use ravel_trace::BandwidthTrace;
use ravel_video::VideoSource;

use crate::invariants::Invariant;
use crate::path::Path;
use crate::queue::{Event, Queue};
use crate::session::{Ctx, SessionConfig};

/// Fraction of the current video target the RTX token bucket refills at.
/// libwebrtc similarly bounds retransmission bitrate so congestion losses
/// cannot trigger a self-sustaining RTX storm.
const RTX_RATE_FRACTION: f64 = 0.1;

/// Tokens one retransmitted packet costs: a generous bound on the wire
/// size of an MTU packet (1250 B = 10 kbit).
const RTX_GRANT_BITS: f64 = 10_000.0;

/// Cap on accumulated RTX tokens — at most ~13 back-to-back
/// retransmissions after an idle stretch.
const RTX_BURST_BITS: f64 = 128_000.0;

/// Tokens available at session start (half a burst: enough to repair an
/// early loss without funding a storm).
const RTX_INITIAL_TOKENS_BITS: f64 = 64_000.0;

/// The pacer never drains slower than this, even if the encoder target
/// collapses — matching libwebrtc's minimum pacing rate, which keeps
/// feedback flowing so recovery stays possible.
pub(crate) const PACER_FLOOR_BPS: f64 = 100_000.0;

/// The pacer drains at this multiple of the target.
const PACING_FACTOR: f64 = 2.5;

/// Sender-side PLI rate limit: requests inside this window coalesce into
/// one IDR, so a lossy burst cannot trigger an IDR storm.
const PLI_MIN_INTERVAL: Dur = Dur::millis(300);

/// One Opus frame per tick.
const AUDIO_TICK: Dur = Dur::millis(20);

/// Audio payload bitrate when audio is enabled.
const AUDIO_BITRATE_BPS: f64 = 32_000.0;

/// Media packets covered per FEC parity packet.
const FEC_GROUP_SIZE: usize = 10;

/// Audio packets carry frame indexes in a disjoint namespace so they
/// never collide with video frames in feedback-side bookkeeping.
const AUDIO_INDEX_BASE: u64 = 1 << 40;

/// Most recent sent video packets the simulation retains for FEC
/// reconstruction (the omniscient sent-video window).
pub(crate) const SENT_VIDEO_WINDOW: usize = 4096;

/// What the display post-pass reads of one captured frame, kept for
/// the whole session in at most 40 bytes a slot; the whole
/// [`EncodedFrame`] lives only until its `EncodeDone`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FrameSlot {
    /// Capture timestamp.
    pub(crate) pts: Time,
    /// The source frame's temporal complexity, which prices a freeze.
    pub(crate) temporal: f64,
    /// `None` when the sender skipped the frame.
    pub(crate) coded: Option<CodedSlot>,
}

/// The encoded frame's part of a [`FrameSlot`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct CodedSlot {
    /// Intra or predicted.
    pub(crate) frame_type: FrameType,
    /// Temporal layer: 1 is an enhancement frame nothing references.
    pub(crate) temporal_layer: u8,
    /// Modelled encode quality: SSIM, and PSNR in dB.
    pub(crate) ssim: f64,
    pub(crate) psnr_db: f64,
}

impl CodedSlot {
    /// What the decoder reads of the frame.
    pub(crate) fn decodable(&self) -> Decodable {
        Decodable {
            frame_type: self.frame_type,
            ssim: self.ssim,
        }
    }
}

const _: () = assert!(std::mem::size_of::<FrameSlot>() <= 40);

/// The simulation's bounded omniscient view of sent video packets, used
/// to materialize FEC-reconstructed packets (a real XOR decoder holds
/// the actual recovered bytes; the metadata is identical).
///
/// Packet seqs are handed out monotonically, so the window is a plain
/// ring of packets in seq order: O(1) insert/evict, binary-search get —
/// the struct-of-arrays replacement for the old `BTreeMap`, with no
/// panic path when the window is empty.
#[derive(Debug, Default)]
pub(crate) struct SentVideoWindow {
    pub(crate) packets: VecDeque<Packet>,
}

impl SentVideoWindow {
    /// Records a sent packet, evicting the oldest past the window bound.
    pub(crate) fn insert(&mut self, p: Packet) {
        debug_assert!(
            self.packets.back().is_none_or(|b| b.seq < p.seq),
            "sent-video seqs must be monotone"
        );
        self.packets.push_back(p);
        while self.packets.len() > SENT_VIDEO_WINDOW {
            self.packets.pop_front();
        }
    }

    /// Looks a packet up by seq; `None` when evicted, never recorded,
    /// or the window is empty.
    pub(crate) fn get(&self, seq: u64) -> Option<Packet> {
        let idx = self.packets.partition_point(|p| p.seq < seq);
        self.packets.get(idx).filter(|p| p.seq == seq).copied()
    }
}

/// Where a new encoder target comes from.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Retarget<'a> {
    /// A validated feedback report and the congestion controller's
    /// rate for it.
    Report(&'a FeedbackReport, f64),
    /// The watchdog's blind-period backoff to this rate.
    Watchdog(f64),
}

/// The sender's state.
pub(crate) struct Sender {
    source: VideoSource,
    pub(crate) encoder: Encoder,
    cc: Box<dyn CongestionController>,
    pub(crate) controller: Option<AdaptiveController>,
    packetizer: Packetizer,
    pacer: Pacer,
    pub(crate) rtx_buffer: RtxBuffer,
    pub(crate) fec_encoder: Option<FecEncoder>,
    rtx_tokens_bits: f64,
    rtx_tokens_updated: Time,
    pub(crate) watchdog: Option<FeedbackWatchdog>,
    blind_skip_toggle: bool,
    last_pli: Time,
    last_report_seq: Option<u64>,
    pub(crate) reports_discarded: u64,
    /// Sanitizes every arriving report before any estimator sees it.
    /// Always armed: on clean runs it draws no randomness and rejects
    /// nothing, so it costs only the per-report field scan.
    pub(crate) validator: FeedbackValidator,
    /// Encoded frames whose `EncodeDone` has not fired yet, in capture
    /// order: only the frames still in the encoder's pipeline.
    encoding: VecDeque<EncodedFrame>,
    /// Every captured frame's post-pass facts, by capture index.
    pub(crate) slots: Vec<FrameSlot>,
    pub(crate) sent_video: SentVideoWindow,
    pub(crate) frames_encoded: u64,
    audio_seq_count: u64,
    /// The rate-recovery window, from the last fault clearing to the
    /// recovery deadline (`None` without chaos), and the highest target
    /// set inside it.
    pub(crate) recovery: Option<(Time, Time)>,
    pub(crate) peak_target_in_recovery: f64,
    /// True while a `PacerTick` is in the queue. One outstanding tick
    /// is always enough: `Pacer::next_release` only moves forward, and
    /// until the pending tick fires every re-poll computes the same
    /// release instant — so deduplicating changes no release time, it
    /// only stops the queue population from growing without bound (the
    /// E20 event storm).
    pacer_tick_pending: bool,
    /// Hot-path scratch buffers, reused across the whole session so
    /// packetization, pacer release, and NACK admission stop allocating
    /// per event.
    pkt_scratch: Vec<Packet>,
    release_scratch: Vec<Packet>,
    affordable_scratch: Vec<u64>,
}

impl Sender {
    /// The sender for `cfg`, tracking its target through `recovery`.
    pub(crate) fn new(cfg: &SessionConfig, recovery: Option<(Time, Time)>) -> Sender {
        let mut enc_cfg = EncoderConfig::rtc(cfg.start_rate_bps, cfg.fps);
        enc_cfg.capture_resolution = cfg.resolution;
        enc_cfg.temporal_layers = cfg.temporal_layers;
        let controller = cfg.scheme.adaptive.map(|acfg| {
            let mut ctl = AdaptiveController::new(acfg, cfg.fps);
            // Tell the controller what the transport adds around the
            // encoder's payload: ~4% packet headers, plus FEC parity, plus
            // the audio flow's wire rate.
            let mut factor = 1.04;
            if cfg.enable_fec {
                factor *= 1.0 + 1.0 / FEC_GROUP_SIZE as f64;
            }
            let reserved = if cfg.enable_audio {
                // Audio wire rate: payload bitrate plus 40 B of headers on
                // each of the 50 packets per second.
                AUDIO_BITRATE_BPS + 40.0 * 8.0 * 50.0
            } else {
                0.0
            };
            ctl.set_rate_overheads(factor, reserved);
            ctl
        });
        let expected_frames = cfg.expected_frames();
        Sender {
            source: VideoSource::new(cfg.content.profile(), cfg.resolution, cfg.fps, cfg.seed),
            encoder: Encoder::new(enc_cfg),
            cc: cfg.scheme.cc.build(cfg.start_rate_bps),
            controller,
            packetizer: Packetizer::new(),
            pacer: Pacer::new(cfg.start_rate_bps, PACING_FACTOR),
            // WebRTC-flavoured RTX: 1 s of sender history.
            rtx_buffer: RtxBuffer::new(Dur::SECOND, 2048),
            fec_encoder: cfg.enable_fec.then(|| FecEncoder::new(FEC_GROUP_SIZE)),
            rtx_tokens_bits: RTX_INITIAL_TOKENS_BITS,
            rtx_tokens_updated: Time::ZERO,
            watchdog: cfg.watchdog.map(FeedbackWatchdog::new),
            blind_skip_toggle: false,
            last_pli: Time::ZERO,
            last_report_seq: None,
            reports_discarded: 0,
            validator: FeedbackValidator::new(),
            encoding: VecDeque::new(),
            slots: Vec::with_capacity(expected_frames),
            sent_video: SentVideoWindow::default(),
            frames_encoded: 0,
            audio_seq_count: 0,
            recovery,
            peak_target_in_recovery: 0.0,
            pacer_tick_pending: false,
            pkt_scratch: Vec::new(),
            release_scratch: Vec::new(),
            affordable_scratch: Vec::new(),
        }
    }

    /// Captures the next frame, lets the controller skip it or encode
    /// it, and schedules the next capture.
    pub(crate) fn on_capture(&mut self, now: Time, ctx: &mut Ctx, queue: &mut Queue) {
        let frame = self.source.next_frame();
        debug_assert_eq!(frame.pts, now, "capture clock drift");
        ctx.obs
            .record(now, || ObsEvent::FrameCaptured { index: frame.index });
        // While the feedback loop is blind, skip every other frame
        // (both schemes): at a given target rate this halves the data
        // fired into an unobservable network.
        let blind_skip = self
            .watchdog
            .as_ref()
            .is_some_and(FeedbackWatchdog::is_degraded)
            && {
                self.blind_skip_toggle = !self.blind_skip_toggle;
                self.blind_skip_toggle
            };
        let decision = if blind_skip {
            self.encoder.skip_frame();
            FrameDecision::Skip
        } else {
            match self.controller.as_mut() {
                Some(ctl) => ctl.on_frame(&frame, now, &mut self.encoder),
                None => FrameDecision::Encode,
            }
        };
        let mut slot = FrameSlot {
            pts: frame.pts,
            temporal: frame.complexity.temporal,
            coded: None,
        };
        match decision {
            FrameDecision::Skip => {}
            FrameDecision::Encode => {
                let encoded = self.encoder.encode(&frame, now);
                self.frames_encoded += 1;
                ctx.obs.record(now, || ObsEvent::FrameEncoded {
                    index: encoded.index,
                    size_bytes: encoded.size_bytes,
                    qp: encoded.qp.value(),
                    target_bps: self.encoder.target_bps(),
                });
                if encoded.frame_type.is_intra() {
                    ctx.obs.record(now, || ObsEvent::KeyframeEmitted);
                }
                if ctx.cfg.record_series {
                    let send_rate = encoded.size_bits() as f64 * ctx.cfg.fps as f64;
                    ctx.series.push(Series::SendRateBps, now, send_rate);
                }
                queue.push(encoded.encoded_at, Event::EncodeDone(frame.index));
                slot.coded = Some(CodedSlot {
                    frame_type: encoded.frame_type,
                    temporal_layer: encoded.temporal_layer,
                    ssim: encoded.ssim,
                    psnr_db: encoded.psnr_db,
                });
                self.encoding.push_back(encoded);
            }
        }
        self.slots.push(slot);
        let next_pts = self.source.pts_of(frame.index + 1);
        if next_pts < ctx.capture_end() {
            queue.push(next_pts, Event::Capture);
        }
    }

    /// Packetizes the frame captured as `index` (plus FEC parity) into
    /// the pacer and releases what is due.
    pub(crate) fn on_encode_done<T: BandwidthTrace>(
        &mut self,
        now: Time,
        index: u64,
        path: &mut Path<T>,
        ctx: &mut Ctx,
        queue: &mut Queue,
    ) {
        // Frames usually finish in capture order, so this is the front.
        let at = self.encoding.iter().position(|f| f.index == index);
        let frame = at
            .and_then(|at| self.encoding.remove(at))
            .expect("on_capture queues the frame of every EncodeDone");
        path.apply_mtu(now, &mut self.packetizer);
        let mut pkts = mem::take(&mut self.pkt_scratch);
        self.packetizer.packetize_into(&frame, &mut pkts);
        if let Some(fec) = self.fec_encoder.as_mut() {
            for p in pkts.drain(..) {
                self.sent_video.insert(p);
                let parity = fec.on_media_packet(&p, || self.packetizer.take_seq(), now);
                self.pacer.enqueue(std::iter::once(p).chain(parity));
            }
        } else {
            self.pacer.enqueue(pkts.drain(..));
        }
        self.pkt_scratch = pkts;
        self.release_pacer(now, path, ctx, queue);
    }

    /// The outstanding pacer tick fired.
    pub(crate) fn on_pacer_tick<T: BandwidthTrace>(
        &mut self,
        now: Time,
        path: &mut Path<T>,
        ctx: &mut Ctx,
        queue: &mut Queue,
    ) {
        self.pacer_tick_pending = false;
        self.release_pacer(now, path, ctx, queue);
    }

    /// Releases due packets from the pacer onto the link, recording
    /// them in the RTX history when retransmission is enabled, and
    /// keeps exactly one `PacerTick` outstanding for the next release.
    fn release_pacer<T: BandwidthTrace>(
        &mut self,
        now: Time,
        path: &mut Path<T>,
        ctx: &mut Ctx,
        queue: &mut Queue,
    ) {
        let mut scratch = mem::take(&mut self.release_scratch);
        self.pacer.release_into(now, &mut scratch);
        for packet in scratch.drain(..) {
            if ctx.cfg.enable_rtx {
                self.rtx_buffer.store(&packet, now);
            }
            path.send(now, packet, ctx, queue);
        }
        self.release_scratch = scratch;
        if !self.pacer_tick_pending {
            if let Some(next) = self.pacer.next_release_time() {
                self.pacer_tick_pending = true;
                queue.push(next.max(now), Event::PacerTick);
            }
        }
    }

    /// Emits one Opus frame straight onto the link, and schedules the
    /// next.
    pub(crate) fn on_audio_tick<T: BandwidthTrace>(
        &mut self,
        now: Time,
        path: &mut Path<T>,
        ctx: &mut Ctx,
        queue: &mut Queue,
    ) {
        // One Opus frame: bitrate x 20 ms of payload + headers.
        let payload = ((AUDIO_BITRATE_BPS * AUDIO_TICK.as_secs_f64()) / 8.0).ceil() as u64;
        let audio = Packet {
            kind: MediaKind::Audio,
            seq: self.packetizer.take_seq(),
            frame_index: AUDIO_INDEX_BASE + self.audio_seq_count,
            fragment: 0,
            num_fragments: 1,
            size_bytes: payload + ravel_net::packet::HEADER_BYTES,
            pts: now,
            send_time: now,
            is_keyframe: false,
        };
        self.audio_seq_count += 1;
        // Audio bypasses the video pacer (WebRTC sends it directly) but
        // shares the bottleneck and feedback.
        if ctx.cfg.enable_rtx {
            self.rtx_buffer.store(&audio, now);
        }
        path.send(now, audio, ctx, queue);
        let next = now + AUDIO_TICK;
        if next < ctx.capture_end() {
            queue.push(next, Event::AudioTick);
        }
    }

    /// A feedback report arrived: gate it, validate it, and retarget.
    pub(crate) fn on_feedback_arrive<T: BandwidthTrace>(
        &mut self,
        now: Time,
        report: &FeedbackReport,
        path: &mut Path<T>,
        ctx: &mut Ctx,
    ) {
        // Report integrity: a duplicated or reordered reverse path may
        // deliver a report twice, or deliver an older report after a
        // newer one. Both would corrupt GCC's inter-arrival model and
        // the drop detector's windows — discard them before any
        // estimator sees them.
        if self
            .last_report_seq
            .is_some_and(|last| report.report_seq <= last)
        {
            self.reports_discarded += 1;
            return;
        }
        // Field-level sanitation, after the cheap duplicate gate and
        // before ANY estimator state advances. A rejected report is
        // dropped whole: it does not move the freshness gate (the next
        // honest report must still be accepted) and it does NOT reset
        // the watchdog's feedback deadline — an attacker feeding
        // garbage looks like silence, and sustained garbage trips
        // `Degraded` exactly like a blackout does.
        if let Err(reason) = self.validator.check(report, self.last_report_seq) {
            ctx.obs.record(now, || ObsEvent::FeedbackRejected {
                report_seq: report.report_seq,
                reason,
            });
            return;
        }
        self.last_report_seq = Some(report.report_seq);
        ctx.obs.record(now, || ObsEvent::FeedbackReceived {
            report_seq: report.report_seq,
            lost: report.lost_count() as u64,
        });
        if let Some(wd) = self.watchdog.as_mut() {
            wd.on_valid_report(now);
        }
        let gcc_target = self.cc.on_feedback(report, now);
        self.retarget(now, Retarget::Report(report, gcc_target), ctx);
        let target = self.encoder.target_bps();
        if !target.is_finite() || !gcc_target.is_finite() {
            ctx.violate(
                now,
                Invariant::FiniteMetrics,
                format!("non-finite rate at {now}: encoder {target}, gcc {gcc_target}"),
            );
        }
        // Recovery-within-T: the target counts as recovered if it
        // reaches the goal at any point between the last fault
        // clearing and the deadline.
        if self
            .recovery
            .is_some_and(|(clear, deadline)| now >= clear && now <= deadline)
        {
            self.peak_target_in_recovery = self.peak_target_in_recovery.max(target);
        }
        if ctx.cfg.record_series {
            let series = &mut ctx.series;
            series.push(Series::CapacityBps, now, path.link.rate_bps(now));
            let link_queue = path.link.queue_delay(now);
            series.push(Series::LinkQueueMs, now, link_queue.as_millis_f64());
        }
    }

    /// Sets a new encoder target: the adaptive controller routes it
    /// (its feedback or Degraded path), the baseline takes the
    /// production slow path. The pacer follows, never below
    /// [`PACER_FLOOR_BPS`]; a moved target is logged, and the
    /// `target_bps` series records every call.
    pub(crate) fn retarget(&mut self, now: Time, how: Retarget<'_>, ctx: &mut Ctx) {
        let old_bps = self.encoder.target_bps();
        match (how, self.controller.as_mut()) {
            (Retarget::Report(report, rate), Some(ctl)) => {
                ctl.on_feedback(report, rate, now, &mut self.encoder)
            }
            (Retarget::Watchdog(rate), Some(ctl)) => {
                ctl.on_feedback_timeout(rate, now, &mut self.encoder)
            }
            (Retarget::Report(_, rate) | Retarget::Watchdog(rate), None) => {
                self.encoder.set_target_bitrate(rate)
            }
        }
        let new_bps = self.encoder.target_bps();
        self.pacer.set_target_bitrate(new_bps.max(PACER_FLOOR_BPS));
        if new_bps != old_bps {
            ctx.obs.record(now, || ObsEvent::TargetChanged {
                old_bps,
                new_bps,
                reason: match how {
                    Retarget::Report(..) => self.cc.decision_reason(),
                    Retarget::Watchdog(_) => "watchdog",
                },
            });
        }
        if ctx.cfg.record_series {
            ctx.series.push(Series::TargetBps, now, new_bps);
        }
    }

    /// Grants what the RTX token bucket affords of a NACK batch and
    /// queues those retransmissions.
    pub(crate) fn on_nack_arrive<T: BandwidthTrace>(
        &mut self,
        now: Time,
        batch: &NackBatch,
        path: &mut Path<T>,
        ctx: &mut Ctx,
        queue: &mut Queue,
    ) {
        // Refill the RTX bucket, capped at one burst.
        let elapsed = now.saturating_since(self.rtx_tokens_updated);
        self.rtx_tokens_updated = now;
        self.rtx_tokens_bits = (self.rtx_tokens_bits
            + RTX_RATE_FRACTION * self.encoder.target_bps() * elapsed.as_secs_f64())
        .min(RTX_BURST_BITS);
        let mut affordable = mem::take(&mut self.affordable_scratch);
        affordable.clear();
        for &seq in batch.seqs.iter() {
            if self.rtx_tokens_bits >= RTX_GRANT_BITS {
                self.rtx_tokens_bits -= RTX_GRANT_BITS;
                affordable.push(seq);
            } else {
                break;
            }
        }
        let packets = self.rtx_buffer.retransmit(&affordable);
        self.affordable_scratch = affordable;
        if !packets.is_empty() {
            self.pacer.enqueue(packets);
            self.release_pacer(now, path, ctx, queue);
        }
    }

    /// Sender-side IDR generation, rate-limited so a burst of (possibly
    /// duplicated) PLIs coalesces into one keyframe.
    pub(crate) fn on_pli_arrive(&mut self, now: Time) {
        if now.saturating_since(self.last_pli) >= PLI_MIN_INTERVAL {
            self.encoder.force_idr();
            self.last_pli = now;
        }
    }

    /// Backs the target off when no valid report arrived within the
    /// watchdog's timeout, and schedules the next check.
    pub(crate) fn on_watchdog_tick(&mut self, now: Time, ctx: &mut Ctx, queue: &mut Queue) {
        let Some(wd) = self.watchdog.as_mut() else {
            return;
        };
        // Capture ends at `capture_end`; the receiver goes quiet once
        // the pipe drains, so missing feedback in the drain tail is
        // expected, not a blind episode.
        let capture_end = ctx.capture_end();
        if now <= capture_end && wd.poll(now) {
            // No valid report within the timeout: back the target off
            // toward the floor. The adaptive controller routes it
            // through its Degraded phase (fast reconfigure + Recover
            // hand-off when feedback resumes). FeedbackArrive cannot
            // log while blind, so the decay is recorded here.
            let target = wd.apply_backoff(self.encoder.target_bps());
            self.retarget(now, Retarget::Watchdog(target), ctx);
        }
        let next = now + ctx.cfg.feedback_interval;
        if next <= capture_end {
            queue.push(next, Event::WatchdogTick);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::Scheme;
    use ravel_core::WatchdogConfig;
    use ravel_obs::ObsMode;

    /// The reason of every `TargetChanged` in the log, in order.
    fn target_changes(ctx: &Ctx) -> Vec<&'static str> {
        ctx.obs
            .events()
            .filter_map(|r| match r.event {
                ObsEvent::TargetChanged { reason, .. } => Some(reason),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn retarget_floors_the_pacer_and_logs_only_real_moves() {
        for scheme in [Scheme::baseline(), Scheme::adaptive()] {
            let mut cfg = SessionConfig::default_with(scheme);
            cfg.record_series = true;
            let mut ctx = Ctx::new(cfg, ObsMode::Full);
            let mut sender = Sender::new(&cfg, None);
            let now = Time::from_secs(1);
            // A backoff far below the pacer floor: the encoder follows,
            // the pacer stops at the floor.
            sender.retarget(now, Retarget::Watchdog(50_000.0), &mut ctx);
            let low = sender.encoder.target_bps();
            assert!(low < PACER_FLOOR_BPS, "{}: target {low}", scheme.name());
            assert_eq!(
                sender.pacer.pacing_rate_bps(),
                PACER_FLOOR_BPS * PACING_FACTOR
            );
            // The same target again moves nothing and logs nothing.
            sender.retarget(now, Retarget::Watchdog(low), &mut ctx);
            assert_eq!(sender.encoder.target_bps(), low);
            // Above the floor the pacer tracks the target itself.
            sender.retarget(now, Retarget::Watchdog(2e6), &mut ctx);
            let high = sender.encoder.target_bps();
            assert!(high > PACER_FLOOR_BPS, "{}: target {high}", scheme.name());
            assert_eq!(sender.pacer.pacing_rate_bps(), high * PACING_FACTOR);
            assert_eq!(
                target_changes(&ctx),
                ["watchdog", "watchdog"],
                "{}",
                scheme.name()
            );
            // Every call records the target, moved or not.
            let series = ctx.series.get(Series::TargetBps).expect("series recorded");
            assert_eq!(series.len(), 3);
        }
    }

    #[test]
    fn report_retarget_logs_the_controllers_reason() {
        let cfg = SessionConfig::default_with(Scheme::baseline());
        let mut ctx = Ctx::new(cfg, ObsMode::Full);
        let mut sender = Sender::new(&cfg, None);
        let report = FeedbackReport {
            report_seq: 0,
            generated_at: Time::from_millis(50),
            packets: Vec::new(),
        };
        let now = Time::from_millis(70);
        sender.retarget(now, Retarget::Report(&report, 2e6), &mut ctx);
        assert_eq!(sender.encoder.target_bps(), 2e6);
        assert_eq!(sender.pacer.pacing_rate_bps(), 2e6 * PACING_FACTOR);
        assert_eq!(target_changes(&ctx), [sender.cc.decision_reason()]);
        assert_ne!(sender.cc.decision_reason(), "watchdog");
    }

    #[test]
    fn watchdog_tick_backs_off_and_reschedules() {
        let mut cfg = SessionConfig::default_with(Scheme::adaptive());
        cfg.watchdog = Some(WatchdogConfig::for_timing(
            cfg.feedback_interval,
            cfg.reverse_delay * 2,
        ));
        let mut ctx = Ctx::new(cfg, ObsMode::Full);
        let mut sender = Sender::new(&cfg, None);
        let mut queue = Queue::default();
        // No report has arrived by 1 s: the watchdog fires.
        let now = Time::from_secs(1);
        sender.on_watchdog_tick(now, &mut ctx, &mut queue);
        assert!(sender.encoder.target_bps() < cfg.start_rate_bps);
        assert_eq!(target_changes(&ctx), ["watchdog"]);
        let next = queue.pop().expect("next tick scheduled");
        assert_eq!(next.at, now + cfg.feedback_interval);
        assert!(matches!(next.event, Event::WatchdogTick));
        assert!(queue.is_empty());
    }
}
