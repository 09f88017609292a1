//! The layer-replay driver: a cut-down session loop composed from the
//! workspace's public layer types, run over a workload's own cells
//! (their traces, contents, seeds, fault schedules and link settings),
//! timing every call into each layer.
//!
//! It mirrors the real kernel's event structure — capture, encode,
//! packetize, pace, link, arrive, feedback flush and arrival, plus the
//! periodic NACK, audio and watchdog ticks as timing-only events — so the
//! event queue sees the workload's own population, event rate and
//! timestamp ties. It leaves out retransmission, FEC, PLI and the
//! display post-pass, which is why its counts are checked against the
//! real run's only within a tolerance.

use std::time::Instant;

use ravel_codec::{EncodedFrame, Encoder, EncoderConfig};
use ravel_core::{AdaptiveController, FrameDecision};
use ravel_harness::Cell;
use ravel_metrics::{FrameOutcomeKind, FrameRecord, LatencyRecorder};
use ravel_net::{
    ChaosSchedule, ChaosTrace, CorruptSchedule, Delivery, FeedbackBuilder, FeedbackCorruptor,
    FeedbackReport, FeedbackValidator, ForwardChaos, FrameAssembler, Link, MediaKind, Pacer,
    Packet, Packetizer, ReversePath,
};
use ravel_obs::{ObsEvent, ObsLog, ObsMode};
use ravel_pipeline::CcKind;
use ravel_sim::{Dur, EventQueue, Time};
use ravel_trace::BandwidthTrace;
use ravel_video::VideoSource;

/// Session tail after capture ends (the kernel's drain grace).
const DRAIN_GRACE: Dur = Dur::secs(2);
/// The kernel's pacer rate floor.
const PACER_FLOOR_BPS: f64 = 100_000.0;
/// The kernel's NACK poll and audio tick cadences.
const NACK_POLL_EVERY: Dur = Dur::millis(10);
const AUDIO_TICK: Dur = Dur::millis(20);

/// The timed layer calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `EventQueue::push`.
    QueuePush,
    /// `EventQueue::pop`.
    QueuePop,
    /// `VideoSource::next_frame`.
    NextFrame,
    /// `Encoder::encode`.
    Encode,
    /// `AdaptiveController::on_frame`.
    CoreOnFrame,
    /// `AdaptiveController::on_feedback`.
    CoreOnFeedback,
    /// `Packetizer::packetize_into`.
    Packetize,
    /// `Pacer::release_into`.
    PacerRelease,
    /// `Link::send`.
    LinkSend,
    /// `FeedbackBuilder::on_packet`.
    FeedbackOnPacket,
    /// `FeedbackBuilder::flush`.
    FeedbackFlush,
    /// `FrameAssembler::push`.
    AssemblerPush,
    /// `FeedbackValidator::check`.
    ValidatorCheck,
    /// `CongestionController::on_feedback` of GCC, NADA, BBR, loss-EMA.
    CcGcc,
    /// See [`Layer::CcGcc`].
    CcNada,
    /// See [`Layer::CcGcc`].
    CcBbr,
    /// See [`Layer::CcGcc`].
    CcLossEma,
    /// `LatencyRecorder::push` (timed in bulk).
    RecorderPush,
    /// `ObsLog::record` in `Off`, `Counters` and `Full` mode (timed in
    /// bulk over the cell's recorded events).
    ObsOff,
    /// See [`Layer::ObsOff`].
    ObsCounters,
    /// See [`Layer::ObsOff`].
    ObsFull,
    /// `BandwidthTrace::rate_bps` on the link's trace.
    RateBps,
    /// `ChaosSchedule::generate`.
    ChaosGenerate,
    /// `CorruptSchedule::generate`.
    CorruptGenerate,
}

const LAYERS: usize = Layer::CorruptGenerate as usize + 1;

/// The arena controllers every replayed report is fed to, with the
/// layer each is timed under.
pub const ARENA: [(CcKind, Layer); 4] = [
    (CcKind::Gcc, Layer::CcGcc),
    (CcKind::Nada, Layer::CcNada),
    (CcKind::Bbr, Layer::CcBbr),
    (CcKind::LossEma, Layer::CcLossEma),
];

/// Calls and summed host time per layer, plus the replay's own counts.
#[derive(Debug, Clone, Default)]
pub struct LayerCosts {
    calls: [u64; LAYERS],
    ns: [u64; LAYERS],
    /// Estimated cost of one empty timer pair, subtracted per call.
    pub timer_ns: f64,
    /// Cells replayed.
    pub cells: u64,
    /// Simulated seconds replayed.
    pub sim_secs: f64,
    /// Events popped.
    pub events: u64,
    /// Frames captured.
    pub frames_captured: u64,
    /// Frames encoded.
    pub frames_encoded: u64,
    /// Packets handed to the link.
    pub packets_sent: u64,
    /// Feedback reports checked by the validator.
    pub reports_checked: u64,
    /// Feedback reports the validator rejected.
    pub reports_rejected: u64,
}

impl LayerCosts {
    fn add(&mut self, layer: Layer, t: Instant) {
        self.calls[layer as usize] += 1;
        self.ns[layer as usize] += t.elapsed().as_nanos() as u64;
    }

    /// Calls into `layer`.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }

    /// Adds `calls` calls into `layer` timed together since `t`.
    fn add_bulk(&mut self, layer: Layer, calls: u64, t: Instant) {
        self.calls[layer as usize] += calls;
        // One timer pair for the whole batch: pre-pay its overhead so
        // `ns_per_call`'s per-call subtraction nets out to it.
        self.ns[layer as usize] +=
            t.elapsed().as_nanos() as u64 + (self.timer_ns * calls.saturating_sub(1) as f64) as u64;
    }

    /// Mean host ns per call into `layer`, net of the timer's own cost.
    pub fn ns_per_call(&self, layer: Layer) -> f64 {
        let calls = self.calls[layer as usize];
        if calls == 0 {
            return 0.0;
        }
        (self.ns[layer as usize] as f64 / calls as f64 - self.timer_ns).max(0.0)
    }

    /// Event-queue cost per popped event: one pop plus the pushes per
    /// pop the replay made.
    pub fn push_pop_ns(&self) -> f64 {
        let pops = self.calls(Layer::QueuePop).max(1) as f64;
        self.ns_per_call(Layer::QueuePop)
            + self.ns_per_call(Layer::QueuePush) * self.calls(Layer::QueuePush) as f64 / pops
    }

    /// Calls into `layer` per replayed simulated second.
    pub fn calls_per_sim_s(&self, layer: Layer) -> f64 {
        self.calls[layer as usize] as f64 / self.sim_secs.max(f64::MIN_POSITIVE)
    }
}

/// Times `$e` under `$layer`.
macro_rules! timed {
    ($costs:expr, $layer:expr, $e:expr) => {{
        let t = Instant::now();
        let r = $e;
        $costs.add($layer, t);
        r
    }};
}

/// The cost of timing nothing, in ns per timer pair.
fn timer_overhead_ns() -> f64 {
    const N: u32 = 200_000;
    let mut sum = 0u128;
    for _ in 0..N {
        let t = Instant::now();
        sum += std::hint::black_box(t.elapsed()).as_nanos();
    }
    sum as f64 / N as f64
}

enum Ev {
    Capture,
    EncodeDone(Box<EncodedFrame>),
    PacerTick,
    Arrival(Packet),
    Flush,
    FeedbackArrive(FeedbackReport),
    /// NACK poll, audio and watchdog cadences: queue traffic only.
    Tick(Dur),
}

/// The cell's observability events, buffered during the replay and
/// recorded afterwards into one log per mode, each timed in bulk (a
/// disabled `record` is a single branch, far below one timer pair).
#[derive(Default)]
struct Obs(Vec<(Time, ObsEvent)>);

impl Obs {
    fn record(&mut self, at: Time, event: impl FnOnce() -> ObsEvent) {
        self.0.push((at, event()));
    }

    fn replay_into_logs(&self, costs: &mut LayerCosts) {
        for (mode, layer) in [
            (ObsMode::Off, Layer::ObsOff),
            (ObsMode::Counters, Layer::ObsCounters),
            (ObsMode::Full, Layer::ObsFull),
        ] {
            let mut log = ObsLog::new(mode);
            let t = Instant::now();
            for (at, event) in &self.0 {
                log.record(*at, || event.clone());
            }
            costs.add_bulk(layer, self.0.len() as u64, t);
            std::hint::black_box(log.recorded());
        }
    }
}

struct Replay<'c, T: BandwidthTrace> {
    costs: &'c mut LayerCosts,
    q: EventQueue<Ev>,
    source: VideoSource,
    encoder: Encoder,
    controller: Option<AdaptiveController>,
    arena: Vec<(CcKind, Layer, Box<dyn ravel_cc::CongestionController>)>,
    own: Option<Box<dyn ravel_cc::CongestionController>>,
    cc_kind: CcKind,
    packetizer: Packetizer,
    pacer: Pacer,
    link: Link<ChaosTrace<T>>,
    fwd_chaos: Option<ForwardChaos>,
    reverse: ReversePath,
    corruptor: Option<FeedbackCorruptor>,
    validator: FeedbackValidator,
    last_report_seq: Option<u64>,
    feedback: FeedbackBuilder,
    assembler: FrameAssembler,
    obs: Obs,
    frames: Vec<(Time, f64, f64, Option<Time>)>,
    pkts: Vec<Packet>,
    released: Vec<Packet>,
    tick_pending: bool,
}

impl<T: BandwidthTrace> Replay<'_, T> {
    fn push(&mut self, at: Time, ev: Ev) {
        timed!(self.costs, Layer::QueuePush, self.q.push(at, ev));
    }

    fn release(&mut self, now: Time) {
        let mut released = std::mem::take(&mut self.released);
        timed!(
            self.costs,
            Layer::PacerRelease,
            self.pacer.release_into(now, &mut released)
        );
        for packet in released.drain(..) {
            self.costs.packets_sent += 1;
            self.obs.record(now, || ObsEvent::PacketSent {
                seq: packet.seq,
                size_bytes: packet.size_bytes,
            });
            std::hint::black_box(timed!(
                self.costs,
                Layer::RateBps,
                self.link.trace().rate_bps(now)
            ));
            match timed!(self.costs, Layer::LinkSend, self.link.send(&packet, now)) {
                Delivery::At(arrival) => match self.fwd_chaos.as_mut() {
                    Some(ch) => {
                        let fate = ch.transit(now, arrival);
                        for at in [fate.duplicate, fate.arrival].into_iter().flatten() {
                            self.push(at, Ev::Arrival(packet));
                        }
                    }
                    None => self.push(arrival, Ev::Arrival(packet)),
                },
                Delivery::QueueDrop | Delivery::Lost => {
                    self.obs.record(now, || ObsEvent::PacketDropped {
                        seq: packet.seq,
                        reason: "queue",
                    })
                }
            }
        }
        self.released = released;
        if !self.tick_pending {
            if let Some(next) = self.pacer.next_release_time() {
                self.tick_pending = true;
                self.push(next.max(now), Ev::PacerTick);
            }
        }
    }

    fn on_capture(&mut self, now: Time, capture_end: Time) {
        let frame = timed!(self.costs, Layer::NextFrame, self.source.next_frame());
        self.costs.frames_captured += 1;
        self.obs
            .record(now, || ObsEvent::FrameCaptured { index: frame.index });
        let decision = match self.controller.as_mut() {
            Some(ctl) => timed!(
                self.costs,
                Layer::CoreOnFrame,
                ctl.on_frame(&frame, now, &mut self.encoder)
            ),
            None => FrameDecision::Encode,
        };
        let mut slot = (frame.pts, 0.0, 0.0, None);
        if decision == FrameDecision::Encode {
            let encoded = timed!(self.costs, Layer::Encode, self.encoder.encode(&frame, now));
            self.costs.frames_encoded += 1;
            self.obs.record(now, || ObsEvent::FrameEncoded {
                index: encoded.index,
                size_bytes: encoded.size_bytes,
                qp: encoded.qp.value(),
                target_bps: self.encoder.target_bps(),
            });
            slot.1 = encoded.ssim;
            slot.2 = encoded.psnr_db;
            self.push(encoded.encoded_at, Ev::EncodeDone(Box::new(encoded)));
        }
        self.frames.push(slot);
        let next = self.source.pts_of(frame.index + 1);
        if next < capture_end {
            self.push(next, Ev::Capture);
        }
    }

    fn on_encode_done(&mut self, now: Time, encoded: &EncodedFrame) {
        let mut pkts = std::mem::take(&mut self.pkts);
        timed!(
            self.costs,
            Layer::Packetize,
            self.packetizer.packetize_into(encoded, &mut pkts)
        );
        self.pacer.enqueue(pkts.drain(..));
        self.pkts = pkts;
        self.release(now);
    }

    fn on_arrival(&mut self, now: Time, packet: Packet) {
        self.obs
            .record(now, || ObsEvent::PacketDelivered { seq: packet.seq });
        timed!(
            self.costs,
            Layer::FeedbackOnPacket,
            self.feedback.on_packet(&packet, now)
        );
        if packet.kind == MediaKind::Video {
            if let Some(done) = timed!(
                self.costs,
                Layer::AssemblerPush,
                self.assembler.push(&packet, now)
            ) {
                if let Some(slot) = self.frames.get_mut(done.frame_index as usize) {
                    slot.3.get_or_insert(done.complete_at);
                }
            }
        }
    }

    fn on_flush(&mut self, now: Time, interval: Dur, hard_end: Time) {
        if let Some(report) = timed!(self.costs, Layer::FeedbackFlush, self.feedback.flush(now)) {
            for at in self.reverse.transit(now).into_iter().flatten() {
                let mut copy = report.clone();
                if let Some(c) = self.corruptor.as_mut() {
                    c.corrupt(&mut copy, now);
                }
                self.push(at, Ev::FeedbackArrive(copy));
            }
        }
        if now + interval <= hard_end {
            self.push(now + interval, Ev::Flush);
        }
    }

    fn on_feedback(&mut self, now: Time, report: &FeedbackReport) {
        if self
            .last_report_seq
            .is_some_and(|last| report.report_seq <= last)
        {
            return;
        }
        self.costs.reports_checked += 1;
        let verdict = timed!(
            self.costs,
            Layer::ValidatorCheck,
            self.validator.check(report, self.last_report_seq)
        );
        if let Err(reason) = verdict {
            self.costs.reports_rejected += 1;
            self.obs.record(now, || ObsEvent::FeedbackRejected {
                report_seq: report.report_seq,
                reason,
            });
            return;
        }
        self.last_report_seq = Some(report.report_seq);
        self.obs.record(now, || ObsEvent::FeedbackReceived {
            report_seq: report.report_seq,
            lost: report.lost_count() as u64,
        });
        let mut target = None;
        for (kind, layer, cc) in self.arena.iter_mut() {
            let t = timed!(self.costs, *layer, cc.on_feedback(report, now));
            if *kind == self.cc_kind {
                target = Some(t);
            }
        }
        let target = match (target, self.own.as_mut()) {
            (Some(t), _) => t,
            (None, Some(cc)) => cc.on_feedback(report, now),
            (None, None) => unreachable!("a replay always has its own controller"),
        };
        match self.controller.as_mut() {
            Some(ctl) => timed!(
                self.costs,
                Layer::CoreOnFeedback,
                ctl.on_feedback(report, target, now, &mut self.encoder)
            ),
            None => self.encoder.set_target_bitrate(target),
        }
        self.pacer
            .set_target_bitrate(self.encoder.target_bps().max(PACER_FLOOR_BPS));
    }
}

/// Replays `cell`, adding its layer costs to `costs`.
pub fn replay_cell(cell: &Cell, costs: &mut LayerCosts) {
    let cfg = cell.cfg;
    let schedule = cfg.chaos.map(|spec| {
        timed!(
            costs,
            Layer::ChaosGenerate,
            ChaosSchedule::generate(spec, cfg.duration)
        )
    });
    let corrupt = cfg.corrupt.map(|spec| {
        timed!(
            costs,
            Layer::CorruptGenerate,
            CorruptSchedule::generate(spec, cfg.duration)
        )
    });
    let mut enc_cfg = EncoderConfig::rtc(cfg.start_rate_bps, cfg.fps);
    enc_cfg.capture_resolution = cfg.resolution;
    enc_cfg.temporal_layers = cfg.temporal_layers;
    let controller = cfg.scheme.adaptive.map(|acfg| {
        let mut ctl = AdaptiveController::new(acfg, cfg.fps);
        ctl.set_rate_overheads(1.04, 0.0);
        ctl
    });
    let arena_kind = ARENA.iter().any(|(k, _)| *k == cfg.scheme.cc);
    let capture_end = Time::ZERO + cfg.duration;
    let hard_end = capture_end + DRAIN_GRACE;
    let expected_frames = (cfg.duration.as_secs_f64() * cfg.fps as f64).ceil() as usize + 1;
    let mut r = Replay {
        q: EventQueue::new(),
        source: VideoSource::new(cfg.content.profile(), cfg.resolution, cfg.fps, cfg.seed),
        encoder: Encoder::new(enc_cfg),
        controller,
        arena: ARENA
            .iter()
            .map(|&(kind, layer)| (kind, layer, kind.build(cfg.start_rate_bps)))
            .collect(),
        own: (!arena_kind).then(|| cfg.scheme.cc.build(cfg.start_rate_bps)),
        cc_kind: cfg.scheme.cc,
        packetizer: Packetizer::new(),
        pacer: Pacer::new(cfg.start_rate_bps, 2.5),
        link: Link::new(
            ChaosTrace::new(cell.trace.build(), schedule.clone().unwrap_or_default()),
            cfg.link,
            cfg.seed,
        ),
        fwd_chaos: schedule.map(|s| ForwardChaos::new(s, cfg.seed)),
        reverse: ReversePath::new(cfg.reverse_path, cfg.reverse_delay, cfg.seed),
        corruptor: corrupt.map(|s| FeedbackCorruptor::new(s, cfg.seed)),
        validator: FeedbackValidator::new(),
        last_report_seq: None,
        feedback: FeedbackBuilder::new(),
        assembler: FrameAssembler::new(),
        obs: Obs::default(),
        frames: Vec::with_capacity(expected_frames),
        pkts: Vec::new(),
        released: Vec::new(),
        tick_pending: false,
        costs,
    };
    r.push(Time::ZERO, Ev::Capture);
    r.push(Time::ZERO + cfg.feedback_interval, Ev::Flush);
    if cfg.enable_rtx {
        r.push(Time::ZERO + NACK_POLL_EVERY, Ev::Tick(NACK_POLL_EVERY));
    }
    if cfg.watchdog.is_some() {
        r.push(
            Time::ZERO + cfg.feedback_interval,
            Ev::Tick(cfg.feedback_interval),
        );
    }
    if cfg.enable_audio {
        r.push(Time::ZERO, Ev::Tick(AUDIO_TICK));
    }
    loop {
        let t = Instant::now();
        let Some(next) = r.q.pop() else { break };
        r.costs.add(Layer::QueuePop, t);
        let now = next.at;
        if now > hard_end {
            break;
        }
        r.costs.events += 1;
        match next.event {
            Ev::Capture => r.on_capture(now, capture_end),
            Ev::EncodeDone(encoded) => r.on_encode_done(now, &encoded),
            Ev::PacerTick => {
                r.tick_pending = false;
                r.release(now);
            }
            Ev::Arrival(packet) => r.on_arrival(now, packet),
            Ev::Flush => r.on_flush(now, cfg.feedback_interval, hard_end),
            Ev::FeedbackArrive(report) => r.on_feedback(now, &report),
            Ev::Tick(every) => {
                let end = if every == AUDIO_TICK {
                    capture_end
                } else {
                    hard_end
                };
                if now + every <= end {
                    r.push(now + every, Ev::Tick(every));
                }
            }
        }
    }
    r.obs.replay_into_logs(r.costs);
    let records: Vec<FrameRecord> = r
        .frames
        .iter()
        .map(|&(pts, ssim, psnr, done)| match done {
            Some(at) => FrameRecord {
                pts,
                outcome: FrameOutcomeKind::Displayed,
                latency: Some(at.saturating_since(pts)),
                ssim,
                psnr_db: Some(psnr),
            },
            None => FrameRecord {
                pts,
                outcome: FrameOutcomeKind::Frozen,
                latency: None,
                ssim: 0.0,
                psnr_db: None,
            },
        })
        .collect();
    let mut recorder = LatencyRecorder::with_capacity(records.len());
    let t = Instant::now();
    for record in records {
        recorder.push(record);
    }
    r.costs
        .add_bulk(Layer::RecorderPush, recorder.records().len() as u64, t);
    std::hint::black_box(recorder.records().len());
    r.costs.cells += 1;
    r.costs.sim_secs += cfg.duration.as_secs_f64();
}

/// Replays `cells` on the calling thread.
pub fn replay(cells: &[&Cell]) -> LayerCosts {
    let mut costs = LayerCosts {
        timer_ns: timer_overhead_ns(),
        ..LayerCosts::default()
    };
    for cell in cells {
        replay_cell(cell, &mut costs);
    }
    costs
}
