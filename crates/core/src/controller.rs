//! The adaptive controller: Steady → Drain → Recover.
//!
//! The controller sits between the congestion controller and the
//! encoder. In **Steady** it is transparent: GCC's target flows to the
//! encoder through the ordinary slow path, exactly as in the baseline.
//! When the [`DropDetector`] fires it
//! takes over:
//!
//! * **Drain** — the encoder is fast-reconfigured to
//!   `α · capacity` (α < 1 so the bottleneck queue drains), every frame
//!   is pinned to an R–D-solved budget, frames are skipped while the
//!   standing queue exceeds the skip threshold, and the resolution
//!   ladder steps down if the budget would push QP past the quality
//!   ceiling.
//! * **Recover** — the queue has drained; the encoder runs at
//!   `recover_fraction · capacity` without the per-frame pin while GCC's
//!   own estimate catches up. After `RECOVER_HOLD`, control returns to
//!   **Steady**.
//!
//! Compression efficiency is preserved throughout because every QP the
//! fast path produces comes from the same R–D model the encoder uses —
//! the controller never "panics" the quantizer beyond what the bit
//! budget actually requires.

use ravel_cc::MAX_BPS;
use ravel_codec::{Encoder, FrameType, RdModel};
use ravel_net::FeedbackReport;
use ravel_sim::{Dur, Time};
use ravel_video::RawFrame;

use crate::config::{
    AdaptiveConfig, DETECT_QUEUE_DELAY, DRAIN_EXIT_QUEUE_DELAY, DRAIN_RATE_FRACTION,
    LADDER_DOWN_QP, LADDER_UP_QP, MAX_CONSECUTIVE_SKIPS, MAX_PROBES, PROBE_DURATION, PROBE_FACTOR,
    PROBE_INTERVAL, RECOVER_HOLD, RECOVER_RATE_FRACTION, SKIP_QUEUE_DELAY,
};
use crate::detector::{DropDetector, DropSignal};

/// The controller's phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControllerPhase {
    /// Transparent: GCC drives the encoder.
    Steady,
    /// A drop is being absorbed; the queue is draining.
    Drain,
    /// The queue has drained; easing control back to GCC.
    Recover,
    /// The feedback loop is blind (watchdog fired); the target is being
    /// backed off toward a floor until reports resume.
    Degraded,
}

/// Per-frame verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameDecision {
    /// Encode this frame (possibly at a stepped-down resolution).
    Encode,
    /// Skip this frame to accelerate queue drain.
    Skip,
}

/// One in-flight or scheduled probe cycle.
#[derive(Debug, Clone, Copy)]
struct ProbeState {
    /// When the next probe may start (or started, if `active`).
    at: Time,
    /// The target to restore if the probe fails.
    fallback_bps: f64,
    /// True while the elevated target is live.
    active: bool,
    /// When the active probe is judged.
    judge_at: Time,
    /// Failed probes so far in this cycle.
    failures: u32,
}

/// The adaptive encoder controller.
#[derive(Debug, Clone)]
pub struct AdaptiveController {
    cfg: AdaptiveConfig,
    phase: ControllerPhase,
    phase_since: Time,
    detector: DropDetector,
    /// Capacity estimate while adapting (Drain/Recover).
    capacity_bps: f64,
    fps: f64,
    consecutive_skips: u32,
    /// Consecutive frames whose prospective next-rung-up QP was below the
    /// step-up threshold (hysteresis).
    ladder_up_streak: u32,
    drops_handled: u64,
    frames_skipped: u64,
    /// Recovery-probing state (None when no probe cycle is active or
    /// configured).
    probe: Option<ProbeState>,
    /// The target in force before the last handled drop — the level
    /// probing tries to climb back to.
    last_good_bps: f64,
    /// Floor adopted from successful probes: GCC pass-through may not
    /// pull the target below a level the path demonstrably carried.
    probe_floor_bps: f64,
    /// Wire bits per encoder (media payload) bit: packet headers, FEC
    /// parity, RTX — everything the transport adds around the encoder's
    /// output. Capacity estimates measure the *wire*; encoder targets
    /// spend *payload*, so capacity-derived targets divide by this.
    rate_overhead_factor: f64,
    /// Wire rate reserved for other flows on the same path (audio).
    reserved_bps: f64,
}

impl AdaptiveController {
    /// Creates a controller for a stream at `fps`.
    pub fn new(cfg: AdaptiveConfig, fps: u32) -> AdaptiveController {
        assert!(fps > 0, "zero fps");
        AdaptiveController {
            detector: DropDetector::new(),
            cfg,
            phase: ControllerPhase::Steady,
            phase_since: Time::ZERO,
            capacity_bps: 0.0,
            fps: fps as f64,
            consecutive_skips: 0,
            ladder_up_streak: 0,
            drops_handled: 0,
            frames_skipped: 0,
            probe: None,
            last_good_bps: 0.0,
            probe_floor_bps: 0.0,
            rate_overhead_factor: 1.05,
            reserved_bps: 0.0,
        }
    }

    /// Declares the transport's rate overheads so capacity-derived
    /// encoder targets leave room for them: `factor` is wire bits per
    /// media payload bit (headers, FEC parity), `reserved_bps` is wire
    /// rate owned by co-flows (audio). Call once at session setup.
    pub fn set_rate_overheads(&mut self, factor: f64, reserved_bps: f64) {
        assert!(factor >= 1.0 && factor.is_finite(), "bad overhead factor");
        assert!(reserved_bps >= 0.0, "negative reserved rate");
        self.rate_overhead_factor = factor;
        self.reserved_bps = reserved_bps;
    }

    /// Converts a wire-capacity share into an encoder (payload) target.
    fn wire_to_media(&self, wire_bps: f64) -> f64 {
        ((wire_bps - self.reserved_bps) / self.rate_overhead_factor).max(100_000.0)
    }

    /// Current phase.
    pub fn phase(&self) -> ControllerPhase {
        self.phase
    }

    /// Drops handled so far.
    pub fn drops_handled(&self) -> u64 {
        self.drops_handled
    }

    /// Frames skipped so far.
    pub fn frames_skipped(&self) -> u64 {
        self.frames_skipped
    }

    /// The detector's current queue-delay estimate.
    pub fn queue_delay(&self) -> Dur {
        self.detector.queue_delay()
    }

    /// The capacity estimate the controller is currently working to
    /// (0 in Steady before any drop).
    pub fn capacity_bps(&self) -> f64 {
        self.capacity_bps
    }

    /// Ingests a feedback report. `gcc_target_bps` is the congestion
    /// controller's current target; the controller decides what actually
    /// reaches the encoder.
    pub fn on_feedback(
        &mut self,
        report: &FeedbackReport,
        gcc_target_bps: f64,
        now: Time,
        encoder: &mut Encoder,
    ) {
        if self.cfg.continuous {
            self.on_feedback_continuous(report, gcc_target_bps, now, encoder);
            return;
        }
        let signal = self.detector.on_feedback(report, encoder.target_bps(), now);

        if self.phase == ControllerPhase::Degraded {
            // First report after a blind episode: hand control back
            // through the ordinary Recover path. Reseed the capacity
            // estimate from the backed-off target (the only rate the
            // blind period validated) so Recover's
            // `RECOVER_RATE_FRACTION · capacity` lands on it rather than
            // on a pre-blackout estimate.
            self.capacity_bps = (encoder.target_bps() * self.rate_overhead_factor
                + self.reserved_bps)
                / RECOVER_RATE_FRACTION;
            self.enter_recover(now, encoder);
        }

        match self.phase {
            ControllerPhase::Steady => {
                if let Some(sig) = signal {
                    self.enter_drain(sig, now, encoder);
                } else if self.cfg.enable_recovery_probing && self.step_probe(now, encoder) {
                    // A probe is driving the target this round.
                } else {
                    // The adaptive system keeps *all* codec parameters in
                    // sync with the network: target via the rate control
                    // seed-free slow path (no drop in progress, nothing
                    // to re-seed) and the VBV sized at the live target —
                    // this is part of the contribution (the baseline's
                    // VBV stays sized at the session-start rate).
                    // Successful probes establish a floor: the path
                    // demonstrably carried that rate, so GCC's slower
                    // estimate may not pull the target back below it.
                    let target = gcc_target_bps.max(self.probe_floor_bps);
                    encoder.set_target_bitrate(target);
                    if self.cfg.enable_vbv_rescale {
                        encoder.rescale_vbv(target);
                    }
                }
            }
            ControllerPhase::Drain => {
                if let Some(sig) = signal {
                    // Deeper (or repeated) drop while draining: re-anchor.
                    self.enter_drain(sig, now, encoder);
                    return;
                }
                // Track the capacity estimate as fresh arrivals refine
                // it — but only while the link is demonstrably saturated
                // (standing queue above the exit threshold). Once the
                // queue empties, arrivals pace at the *send* rate and the
                // delivered estimate stops meaning capacity.
                if self.detector.queue_delay() > DRAIN_EXIT_QUEUE_DELAY {
                    if let Some(delivered) = self
                        .detector
                        .busy_rate_bps()
                        .or_else(|| self.detector.delivered_bps())
                    {
                        self.capacity_bps += 0.5 * (delivered - self.capacity_bps);
                        let target = self.wire_to_media(DRAIN_RATE_FRACTION * self.capacity_bps);
                        encoder.set_target_bitrate(target);
                        encoder.override_frame_budget(Some((target / self.fps) as u64));
                    }
                }
                if self.detector.queue_delay() <= DRAIN_EXIT_QUEUE_DELAY {
                    self.enter_recover(now, encoder);
                }
            }
            // Converted to Recover above.
            ControllerPhase::Degraded => unreachable!("Degraded resolved before dispatch"),
            ControllerPhase::Recover => {
                if let Some(sig) = signal {
                    self.enter_drain(sig, now, encoder);
                    return;
                }
                if now.saturating_since(self.phase_since) >= RECOVER_HOLD {
                    self.phase = ControllerPhase::Steady;
                    self.phase_since = now;
                    encoder.set_target_bitrate(gcc_target_bps);
                    if self.cfg.enable_vbv_rescale {
                        encoder.rescale_vbv(gcc_target_bps);
                    }
                } else {
                    // Cap GCC's optimism by what we measured.
                    let cap = self.wire_to_media(RECOVER_RATE_FRACTION * self.capacity_bps);
                    let target = gcc_target_bps.min(cap);
                    encoder.set_target_bitrate(target);
                    if self.cfg.enable_vbv_rescale {
                        encoder.rescale_vbv(target);
                    }
                }
            }
        }
    }

    /// Feedback-watchdog hook: no valid report has arrived within the
    /// timeout, and the watchdog has already computed the backed-off
    /// `target_bps` (media rate). Enters the `Degraded` phase and drives
    /// the encoder there through the fast path; successive timeouts call
    /// this again with ever-lower targets. The next valid report routes
    /// control back through `Recover`.
    pub fn on_feedback_timeout(&mut self, target_bps: f64, now: Time, encoder: &mut Encoder) {
        self.phase = ControllerPhase::Degraded;
        self.phase_since = now;
        // A probe cycle mid-blindness is meaningless — there is no
        // feedback to judge it with.
        self.probe = None;
        encoder.override_frame_budget(None);
        encoder.reseed_rate_control(target_bps);
        if self.cfg.enable_vbv_rescale {
            encoder.rescale_vbv(target_bps);
        }
    }

    /// Per-frame hook: decides skip/encode and manages the resolution
    /// ladder. Call once per captured frame *before*
    /// [`Encoder::encode`]; on [`FrameDecision::Skip`] the controller
    /// has already advanced the encoder's skip accounting.
    pub fn on_frame(
        &mut self,
        frame: &RawFrame,
        _now: Time,
        encoder: &mut Encoder,
    ) -> FrameDecision {
        match self.phase {
            ControllerPhase::Drain => {
                // Enhancement-layer frames are free to drop (nothing
                // references them), so they skip at half the queue
                // threshold; base-layer skips need the full threshold.
                let threshold = if encoder.next_frame_layer() == 1 {
                    SKIP_QUEUE_DELAY / 2
                } else {
                    SKIP_QUEUE_DELAY
                };
                if self.cfg.enable_frame_skip
                    && self.detector.queue_delay() > threshold
                    && self.consecutive_skips < MAX_CONSECUTIVE_SKIPS
                {
                    self.consecutive_skips += 1;
                    self.frames_skipped += 1;
                    encoder.skip_frame();
                    return FrameDecision::Skip;
                }
                self.consecutive_skips = 0;
                if self.cfg.enable_resolution_ladder {
                    self.maybe_step_down(frame, encoder);
                }
                FrameDecision::Encode
            }
            ControllerPhase::Steady | ControllerPhase::Recover => {
                self.consecutive_skips = 0;
                if self.cfg.enable_resolution_ladder {
                    self.maybe_step_up(frame, encoder);
                }
                FrameDecision::Encode
            }
            // Blind-period frame skipping is a session policy (it applies
            // to the baseline too), not a controller decision; here the
            // ladder just holds its rung until feedback resumes.
            ControllerPhase::Degraded => {
                self.consecutive_skips = 0;
                FrameDecision::Encode
            }
        }
    }

    /// Salsify-flavoured continuous control: every feedback report
    /// re-derives the encoder target from the path estimate — no trigger,
    /// no state machine. Congestion (standing queue) tracks capacity with
    /// drain headroom; a clear path probes gently upward, bounded by the
    /// delivered rate so the estimate cannot run away.
    fn on_feedback_continuous(
        &mut self,
        report: &FeedbackReport,
        gcc_target_bps: f64,
        now: Time,
        encoder: &mut Encoder,
    ) {
        let _ = self.detector.on_feedback(report, encoder.target_bps(), now);
        let qd = self.detector.queue_delay();
        let cur = encoder.target_bps();
        let delivered = self
            .detector
            .busy_rate_bps()
            .or_else(|| self.detector.delivered_bps());

        let target = if qd > DETECT_QUEUE_DELAY {
            // Standing queue: the path is saturated; the busy rate *is*
            // the capacity. Track it with drain headroom.
            let cap = delivered.unwrap_or(cur);
            self.capacity_bps = cap;
            self.phase = ControllerPhase::Drain;
            self.wire_to_media(DRAIN_RATE_FRACTION * cap)
        } else if qd <= DRAIN_EXIT_QUEUE_DELAY {
            // Clear path: probe upward a couple of percent per report,
            // never beyond 1.25x what the path demonstrably delivered
            // (or GCC's estimate when we are application-limited).
            self.phase = ControllerPhase::Steady;
            let probe_cap = delivered
                .map(|d| self.wire_to_media(1.25 * d))
                .unwrap_or(f64::MAX)
                .max(gcc_target_bps);
            (cur * 1.02).min(probe_cap).min(MAX_BPS)
        } else {
            self.phase = ControllerPhase::Recover;
            cur
        };
        let target = target.max(100_000.0);

        encoder.reseed_rate_control(target);
        encoder.override_frame_budget(Some((target / self.fps) as u64));
        if self.cfg.enable_vbv_rescale {
            encoder.rescale_vbv(target);
        }
    }

    /// Advances the recovery-probe state machine; returns true while a
    /// probe owns the encoder target (the normal GCC pass-through must
    /// not overwrite it).
    fn step_probe(&mut self, now: Time, encoder: &mut Encoder) -> bool {
        let Some(mut p) = self.probe else {
            return false;
        };
        let cur = encoder.target_bps();
        if p.active {
            let qd = self.detector.queue_delay();
            if qd > DETECT_QUEUE_DELAY {
                // The probe congested the path: revert immediately.
                encoder.fast_reconfigure(p.fallback_bps);
                p.active = false;
                p.failures += 1;
                p.at = now + PROBE_INTERVAL;
                self.probe = (p.failures < MAX_PROBES).then_some(p);
                return true;
            }
            if now >= p.judge_at {
                // Survived the probe window: adopt the elevated target
                // as the new floor.
                self.probe_floor_bps = cur;
                p.active = false;
                p.failures = 0;
                p.at = now + PROBE_INTERVAL;
                if cur >= 0.95 * self.last_good_bps {
                    // Back at the pre-drop level: probing is done.
                    self.probe = None;
                } else {
                    self.probe = Some(p);
                }
            } else {
                self.probe = Some(p);
            }
            return true;
        }
        // Idle: time for the next attempt?
        if now >= p.at && cur < 0.95 * self.last_good_bps {
            let target = (cur * PROBE_FACTOR).min(self.last_good_bps.max(cur));
            p.fallback_bps = cur;
            p.active = true;
            p.judge_at = now + PROBE_DURATION;
            encoder.fast_reconfigure(target);
            self.probe = Some(p);
            return true;
        }
        false
    }

    fn enter_drain(&mut self, sig: DropSignal, now: Time, encoder: &mut Encoder) {
        if self.cfg.enable_recovery_probing {
            // Remember the pre-drop level and schedule the probe cycle
            // for after recovery completes. Any previous probe floor is
            // void: the path just proved it can no longer carry it.
            self.probe_floor_bps = 0.0;
            self.last_good_bps = self.last_good_bps.max(encoder.target_bps());
            self.probe = Some(ProbeState {
                at: now + RECOVER_HOLD + PROBE_INTERVAL,
                fallback_bps: 0.0,
                active: false,
                judge_at: now,
                failures: 0,
            });
        }
        self.capacity_bps = sig.capacity_bps;
        self.drops_handled += 1;
        self.phase = ControllerPhase::Drain;
        self.phase_since = now;
        self.ladder_up_streak = 0;
        let target = self.wire_to_media(DRAIN_RATE_FRACTION * sig.capacity_bps);
        encoder.reseed_rate_control(target);
        if self.cfg.enable_vbv_rescale {
            encoder.rescale_vbv(target);
        }
        encoder.override_frame_budget(Some((target / self.fps) as u64));
    }

    fn enter_recover(&mut self, now: Time, encoder: &mut Encoder) {
        self.phase = ControllerPhase::Recover;
        self.phase_since = now;
        encoder.override_frame_budget(None);
        let target = self.wire_to_media(RECOVER_RATE_FRACTION * self.capacity_bps);
        encoder.reseed_rate_control(target);
        if self.cfg.enable_vbv_rescale {
            encoder.rescale_vbv(target);
        }
    }

    /// Steps the ladder down if the current budget would force QP past
    /// the quality ceiling at the current rung.
    fn maybe_step_down(&mut self, frame: &RawFrame, encoder: &mut Encoder) {
        let budget = (DRAIN_RATE_FRACTION * self.capacity_bps / self.fps) as u64;
        if budget == 0 {
            return;
        }
        loop {
            let res = encoder.encode_resolution();
            let qp = RdModel::solve_qp(frame.complexity, res.pixels(), FrameType::P, budget);
            if qp.value() <= LADDER_DOWN_QP {
                break;
            }
            match res.step_down() {
                Some(down) => encoder.set_encode_resolution(down),
                None => break,
            }
        }
    }

    /// Steps the ladder up (with hysteresis) when the next rung up would
    /// still encode below the step-up QP threshold.
    fn maybe_step_up(&mut self, frame: &RawFrame, encoder: &mut Encoder) {
        let res = encoder.encode_resolution();
        let Some(up) = res.step_up() else {
            self.ladder_up_streak = 0;
            return;
        };
        let budget = (encoder.target_bps() / self.fps) as u64;
        if budget == 0 {
            self.ladder_up_streak = 0;
            return;
        }
        let qp_up = RdModel::solve_qp(frame.complexity, up.pixels(), FrameType::P, budget);
        if qp_up.value() < LADDER_UP_QP {
            self.ladder_up_streak += 1;
            // ~1 second of consistent headroom before stepping up.
            if self.ladder_up_streak as f64 >= self.fps {
                if up.pixels() <= frame.resolution.pixels() {
                    encoder.set_encode_resolution(up);
                }
                self.ladder_up_streak = 0;
            }
        } else {
            self.ladder_up_streak = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ravel_codec::EncoderConfig;
    use ravel_net::PacketResult;
    use ravel_video::{ContentClass, Resolution, VideoSource};

    fn encoder(target: f64) -> Encoder {
        Encoder::new(EncoderConfig::rtc(target, 30))
    }

    fn source() -> VideoSource {
        VideoSource::new(ContentClass::TalkingHead.profile(), Resolution::P720, 30, 1)
    }

    /// A healthy feedback round: 40 packets at 2.5 ms spacing, 20 ms OWD.
    fn healthy_report(seq: &mut u64, round: u64) -> FeedbackReport {
        let packets = (0..40u64)
            .map(|i| PacketResult {
                seq: *seq + i,
                send_time: Time::from_micros(round * 100_000 + i * 2_500),
                arrival: Some(Time::from_micros(round * 100_000 + i * 2_500 + 20_000)),
                size_bytes: 1250,
            })
            .collect();
        *seq += 40;
        FeedbackReport {
            report_seq: 0,
            generated_at: Time::from_millis((round + 1) * 100),
            packets,
        }
    }

    /// A post-drop round: arrivals stretched and OWD climbing.
    fn congested_report(seq: &mut u64, t0_ms: u64, owd_ms: u64) -> FeedbackReport {
        let packets = (0..10u64)
            .map(|i| PacketResult {
                seq: *seq + i,
                send_time: Time::from_millis(t0_ms + i * 3),
                arrival: Some(Time::from_millis(t0_ms + owd_ms + i * 12)),
                size_bytes: 1250,
            })
            .collect();
        *seq += 10;
        FeedbackReport {
            report_seq: 0,
            generated_at: Time::from_millis(t0_ms + 100),
            packets,
        }
    }

    fn warm(ctl: &mut AdaptiveController, enc: &mut Encoder, seq: &mut u64) {
        for round in 0..20u64 {
            let r = healthy_report(seq, round);
            ctl.on_feedback(&r, 4e6, Time::from_millis((round + 1) * 100), enc);
            assert_eq!(ctl.phase(), ControllerPhase::Steady);
        }
    }

    #[test]
    fn steady_is_transparent() {
        let mut ctl = AdaptiveController::new(AdaptiveConfig::default(), 30);
        let mut enc = encoder(4e6);
        let mut seq = 0;
        warm(&mut ctl, &mut enc, &mut seq);
        // GCC's target flowed through the slow path.
        assert_eq!(enc.target_bps(), 4e6);
        assert_eq!(ctl.drops_handled(), 0);
    }

    #[test]
    fn drop_enters_drain_and_reconfigures_encoder() {
        let mut ctl = AdaptiveController::new(AdaptiveConfig::default(), 30);
        let mut enc = encoder(4e6);
        let mut seq = 0;
        warm(&mut ctl, &mut enc, &mut seq);
        let r = congested_report(&mut seq, 2000, 60);
        ctl.on_feedback(&r, 4e6, Time::from_millis(2100), &mut enc);
        assert_eq!(ctl.phase(), ControllerPhase::Drain);
        assert_eq!(ctl.drops_handled(), 1);
        // Encoder target collapsed to α x capacity estimate (< 1.5 Mbps).
        assert!(
            enc.target_bps() < 1.5e6,
            "encoder target {} after drop",
            enc.target_bps()
        );
    }

    #[test]
    fn drain_skips_frames_while_queue_deep() {
        let mut ctl = AdaptiveController::new(AdaptiveConfig::default(), 30);
        let mut enc = encoder(4e6);
        let mut seq = 0;
        warm(&mut ctl, &mut enc, &mut seq);
        // Deep congestion: 150 ms of standing queue.
        let r = congested_report(&mut seq, 2000, 150);
        ctl.on_feedback(&r, 4e6, Time::from_millis(2100), &mut enc);
        assert_eq!(ctl.phase(), ControllerPhase::Drain);
        let mut src = source();
        let f = src.next_frame();
        let d = ctl.on_frame(&f, Time::from_millis(2100), &mut enc);
        assert_eq!(d, FrameDecision::Skip);
        assert_eq!(ctl.frames_skipped(), 1);
    }

    #[test]
    fn skip_run_is_bounded() {
        let mut ctl = AdaptiveController::new(AdaptiveConfig::default(), 30);
        let mut enc = encoder(4e6);
        let mut seq = 0;
        warm(&mut ctl, &mut enc, &mut seq);
        let r = congested_report(&mut seq, 2000, 200);
        ctl.on_feedback(&r, 4e6, Time::from_millis(2100), &mut enc);
        let mut src = source();
        let mut decisions = Vec::new();
        // Two full runs: each is MAX_CONSECUTIVE_SKIPS skips, then one
        // forced encode.
        let run = MAX_CONSECUTIVE_SKIPS as usize + 1;
        for _ in 0..2 * run {
            let f = src.next_frame();
            decisions.push(ctl.on_frame(&f, Time::from_millis(2100), &mut enc));
        }
        let want: Vec<FrameDecision> = (0..2 * run)
            .map(|i| {
                if i % run == run - 1 {
                    FrameDecision::Encode
                } else {
                    FrameDecision::Skip
                }
            })
            .collect();
        assert_eq!(decisions, want);
    }

    #[test]
    fn drain_exits_to_recover_then_steady() {
        let mut ctl = AdaptiveController::new(AdaptiveConfig::default(), 30);
        let mut enc = encoder(4e6);
        let mut seq = 0;
        warm(&mut ctl, &mut enc, &mut seq);
        let r = congested_report(&mut seq, 2000, 60);
        ctl.on_feedback(&r, 4e6, Time::from_millis(2100), &mut enc);
        assert_eq!(ctl.phase(), ControllerPhase::Drain);
        // Queue drains: healthy reports with baseline OWD again.
        for round in 22..30u64 {
            let r = healthy_report(&mut seq, round);
            ctl.on_feedback(&r, 4e6, Time::from_millis((round + 1) * 100), &mut enc);
        }
        assert_eq!(ctl.phase(), ControllerPhase::Recover);
        // After the hold, control returns to GCC.
        for round in 30..45u64 {
            let r = healthy_report(&mut seq, round);
            ctl.on_feedback(&r, 3e6, Time::from_millis((round + 1) * 100), &mut enc);
        }
        assert_eq!(ctl.phase(), ControllerPhase::Steady);
        assert_eq!(enc.target_bps(), 3e6);
    }

    #[test]
    fn recover_caps_gcc_optimism() {
        let mut ctl = AdaptiveController::new(AdaptiveConfig::default(), 30);
        let mut enc = encoder(4e6);
        let mut seq = 0;
        warm(&mut ctl, &mut enc, &mut seq);
        let r = congested_report(&mut seq, 2000, 60);
        ctl.on_feedback(&r, 4e6, Time::from_millis(2100), &mut enc);
        for round in 22..26u64 {
            let r = healthy_report(&mut seq, round);
            // GCC still believes 4 Mbps.
            ctl.on_feedback(&r, 4e6, Time::from_millis((round + 1) * 100), &mut enc);
        }
        assert_eq!(ctl.phase(), ControllerPhase::Recover);
        // Encoder target must be capped by the measured capacity, not
        // GCC's stale 4 Mbps. (The healthy reports deliver ~4 Mbps so the
        // blend may raise the estimate, but never above GCC's ask.)
        assert!(enc.target_bps() <= 4e6);
    }

    #[test]
    fn ladder_steps_down_under_savage_budget() {
        let mut ctl = AdaptiveController::new(AdaptiveConfig::default(), 30);
        let mut enc = encoder(4e6);
        let mut seq = 0;
        warm(&mut ctl, &mut enc, &mut seq);
        // Very deep drop: delivered ~ 0.2 Mbps at 720p would need QP>45.
        let packets = (0..10u64)
            .map(|i| PacketResult {
                seq: seq + i,
                send_time: Time::from_millis(2000 + i * 3),
                arrival: Some(Time::from_millis(2080 + i * 50)),
                size_bytes: 1250,
            })
            .collect();
        let r = FeedbackReport {
            report_seq: 0,
            generated_at: Time::from_millis(2100),
            packets,
        };
        ctl.on_feedback(&r, 4e6, Time::from_millis(2100), &mut enc);
        assert_eq!(ctl.phase(), ControllerPhase::Drain);
        let mut src = source();
        // Push frames until one is encoded (skips may come first).
        for _ in 0..10 {
            let f = src.next_frame();
            if ctl.on_frame(&f, Time::from_millis(2100), &mut enc) == FrameDecision::Encode {
                break;
            }
        }
        assert!(
            enc.encode_resolution().pixels() < Resolution::P720.pixels(),
            "ladder did not step down: {}",
            enc.encode_resolution()
        );
    }

    #[test]
    fn ladder_steps_back_up_in_steady() {
        let mut ctl = AdaptiveController::new(AdaptiveConfig::default(), 30);
        let mut enc = encoder(4e6);
        enc.set_encode_resolution(Resolution::P360);
        let mut src = source();
        // Plenty of budget at 4 Mbps: next rung up solves well below the
        // step-up threshold. Needs fps-worth of consecutive headroom.
        let mut stepped = false;
        for i in 0..120 {
            let f = src.next_frame();
            ctl.on_frame(&f, Time::from_millis(i * 33), &mut enc);
            if enc.encode_resolution().pixels() > Resolution::P360.pixels() {
                stepped = true;
                break;
            }
        }
        assert!(stepped, "ladder never stepped up");
    }

    #[test]
    fn ablation_disables_skip() {
        let mut ctl = AdaptiveController::new(AdaptiveConfig::fast_qp_and_vbv(), 30);
        let mut enc = encoder(4e6);
        let mut seq = 0;
        warm(&mut ctl, &mut enc, &mut seq);
        let r = congested_report(&mut seq, 2000, 200);
        ctl.on_feedback(&r, 4e6, Time::from_millis(2100), &mut enc);
        let mut src = source();
        let f = src.next_frame();
        assert_eq!(
            ctl.on_frame(&f, Time::from_millis(2100), &mut enc),
            FrameDecision::Encode
        );
        assert_eq!(ctl.frames_skipped(), 0);
    }

    #[test]
    fn continuous_mode_tracks_capacity_every_report() {
        let mut ctl = AdaptiveController::new(AdaptiveConfig::continuous(), 30);
        let mut enc = encoder(4e6);
        let mut seq = 0;
        // Healthy rounds: target probes gently upward (bounded).
        for round in 0..20u64 {
            let r = healthy_report(&mut seq, round);
            ctl.on_feedback(&r, 4e6, Time::from_millis((round + 1) * 100), &mut enc);
        }
        assert!(enc.target_bps() >= 4e6, "no probe: {}", enc.target_bps());
        assert!(
            enc.target_bps() <= 6e6,
            "runaway probe: {}",
            enc.target_bps()
        );
        // Congested round: target snaps toward the delivered rate
        // without any drop trigger.
        let r = congested_report(&mut seq, 2000, 60);
        ctl.on_feedback(&r, 4e6, Time::from_millis(2100), &mut enc);
        assert!(
            enc.target_bps() < 1.5e6,
            "continuous mode missed the drop: {}",
            enc.target_bps()
        );
        // No drop events are counted (there is no trigger).
        assert_eq!(ctl.drops_handled(), 0);
    }

    #[test]
    fn continuous_mode_probe_bounded_by_delivered() {
        let mut ctl = AdaptiveController::new(AdaptiveConfig::continuous(), 30);
        let mut enc = encoder(1e6);
        let mut seq = 0;
        // Reports delivering ~4 Mbps with low OWD: the target may ramp
        // but never beyond 1.25x delivered (+GCC allowance).
        for round in 0..200u64 {
            let r = healthy_report(&mut seq, round);
            ctl.on_feedback(&r, 2e6, Time::from_millis((round + 1) * 100), &mut enc);
        }
        assert!(
            enc.target_bps() <= 1.25 * 4.1e6,
            "probe exceeded delivered bound: {}",
            enc.target_bps()
        );
    }

    #[test]
    fn probing_climbs_back_after_recovery() {
        let mut ctl = AdaptiveController::new(AdaptiveConfig::with_probing(), 30);
        let mut enc = encoder(4e6);
        let mut seq = 0;
        warm(&mut ctl, &mut enc, &mut seq);
        // Drop detected, drained, recovered (healthy reports resume).
        let r = congested_report(&mut seq, 2000, 60);
        ctl.on_feedback(&r, 4e6, Time::from_millis(2100), &mut enc);
        for round in 22..34u64 {
            let r = healthy_report(&mut seq, round);
            // GCC's estimate stays pessimistic at 1 Mbps.
            ctl.on_feedback(&r, 1e6, Time::from_millis((round + 1) * 100), &mut enc);
        }
        assert_eq!(ctl.phase(), ControllerPhase::Steady);
        let before_probe = enc.target_bps();
        // Run several more seconds of healthy feedback: probes fire
        // (healthy arrivals keep the queue-delay estimate low, so each
        // probe is judged a success) and the target climbs past GCC's
        // pessimistic 1 Mbps.
        for round in 34..120u64 {
            let r = healthy_report(&mut seq, round);
            ctl.on_feedback(&r, 1e6, Time::from_millis((round + 1) * 100), &mut enc);
        }
        // Only a probe judged a success sets the floor that holds the
        // target above GCC's estimate.
        assert!(
            enc.target_bps() > 1e6,
            "no probe held: {}",
            enc.target_bps()
        );
        assert!(
            enc.target_bps() > before_probe,
            "probing never raised the target: {} -> {}",
            before_probe,
            enc.target_bps()
        );
    }

    #[test]
    fn probing_disabled_by_default() {
        let mut ctl = AdaptiveController::new(AdaptiveConfig::default(), 30);
        let mut enc = encoder(4e6);
        let mut seq = 0;
        warm(&mut ctl, &mut enc, &mut seq);
        let r = congested_report(&mut seq, 2000, 60);
        ctl.on_feedback(&r, 4e6, Time::from_millis(2100), &mut enc);
        // No probe lifts the target above GCC's 1 Mbps estimate.
        for round in 22..120u64 {
            let r = healthy_report(&mut seq, round);
            ctl.on_feedback(&r, 1e6, Time::from_millis((round + 1) * 100), &mut enc);
            assert!(
                enc.target_bps() <= 1e6,
                "round {round}: {}",
                enc.target_bps()
            );
        }
    }

    #[test]
    fn feedback_timeout_enters_degraded_and_cuts_rate() {
        let mut ctl = AdaptiveController::new(AdaptiveConfig::default(), 30);
        let mut enc = encoder(4e6);
        let mut seq = 0;
        warm(&mut ctl, &mut enc, &mut seq);
        // The watchdog (session-side) computed successive backoffs.
        ctl.on_feedback_timeout(2.8e6, Time::from_millis(2200), &mut enc);
        assert_eq!(ctl.phase(), ControllerPhase::Degraded);
        assert!((enc.target_bps() - 2.8e6).abs() < 1.0);
        ctl.on_feedback_timeout(1.96e6, Time::from_millis(2400), &mut enc);
        assert_eq!(ctl.phase(), ControllerPhase::Degraded);
        assert!((enc.target_bps() - 1.96e6).abs() < 1.0);
        // Frames still encode while degraded (skip policy is sessions').
        let mut src = source();
        let f = src.next_frame();
        assert_eq!(
            ctl.on_frame(&f, Time::from_millis(2400), &mut enc),
            FrameDecision::Encode
        );
    }

    #[test]
    fn degraded_resumes_through_recover() {
        let mut ctl = AdaptiveController::new(AdaptiveConfig::default(), 30);
        let mut enc = encoder(4e6);
        let mut seq = 0;
        warm(&mut ctl, &mut enc, &mut seq);
        ctl.on_feedback_timeout(1.5e6, Time::from_millis(2200), &mut enc);
        let degraded_target = enc.target_bps();
        // Feedback resumes with a healthy report.
        let r = healthy_report(&mut seq, 26);
        ctl.on_feedback(&r, 4e6, Time::from_millis(2700), &mut enc);
        assert_eq!(ctl.phase(), ControllerPhase::Recover);
        // Recover's capacity was reseeded from the degraded target, so
        // the hand-off does not jump the rate back up blindly.
        assert!(
            enc.target_bps() <= degraded_target * 1.05,
            "recover jumped: {} -> {}",
            degraded_target,
            enc.target_bps()
        );
        // And after the hold, GCC resumes control as usual.
        for round in 28..45u64 {
            let r = healthy_report(&mut seq, round);
            ctl.on_feedback(&r, 3e6, Time::from_millis((round + 1) * 100), &mut enc);
        }
        assert_eq!(ctl.phase(), ControllerPhase::Steady);
        assert_eq!(enc.target_bps(), 3e6);
    }

    #[test]
    fn repeated_blind_episodes_reenter_degraded() {
        // E17 regime: the reverse path blacks out twice. Each blind
        // episode must re-enter Degraded, and each resumption must route
        // control back through Recover to Steady — the second blackout
        // behaves like the first, not like a controller stuck in a
        // stale phase.
        let mut ctl = AdaptiveController::new(AdaptiveConfig::default(), 30);
        let mut enc = encoder(4e6);
        let mut seq = 0;
        warm(&mut ctl, &mut enc, &mut seq);
        let mut round = 20u64;
        for episode in 0..2 {
            // Watchdog-computed backoffs while blind.
            let t = Time::from_millis((round + 2) * 100);
            ctl.on_feedback_timeout(2.8e6, t, &mut enc);
            ctl.on_feedback_timeout(1.96e6, t + Dur::millis(200), &mut enc);
            assert_eq!(
                ctl.phase(),
                ControllerPhase::Degraded,
                "episode {episode} never degraded"
            );
            // Feedback resumes: Recover, then (after the hold) Steady.
            round += 5;
            let r = healthy_report(&mut seq, round);
            ctl.on_feedback(&r, 4e6, Time::from_millis((round + 1) * 100), &mut enc);
            assert_eq!(
                ctl.phase(),
                ControllerPhase::Recover,
                "episode {episode} resumed outside Recover"
            );
            for _ in 0..20 {
                round += 1;
                let r = healthy_report(&mut seq, round);
                ctl.on_feedback(&r, 4e6, Time::from_millis((round + 1) * 100), &mut enc);
            }
            assert_eq!(
                ctl.phase(),
                ControllerPhase::Steady,
                "episode {episode} never settled back to Steady"
            );
            assert_eq!(enc.target_bps(), 4e6);
        }
    }

    #[test]
    fn repeated_drop_reanchors_capacity() {
        let mut ctl = AdaptiveController::new(AdaptiveConfig::default(), 30);
        let mut enc = encoder(4e6);
        let mut seq = 0;
        warm(&mut ctl, &mut enc, &mut seq);
        let r = congested_report(&mut seq, 2000, 60);
        ctl.on_feedback(&r, 4e6, Time::from_millis(2100), &mut enc);
        let first_cap = ctl.capacity_bps();
        // 600 ms later (past cooldown), a deeper drop arrives.
        let packets = (0..10u64)
            .map(|i| PacketResult {
                seq: seq + i,
                send_time: Time::from_millis(2700 + i * 3),
                arrival: Some(Time::from_millis(2780 + i * 40)),
                size_bytes: 1250,
            })
            .collect();
        let r2 = FeedbackReport {
            report_seq: 0,
            generated_at: Time::from_millis(2800),
            packets,
        };
        ctl.on_feedback(&r2, 4e6, Time::from_millis(2800), &mut enc);
        assert_eq!(ctl.drops_handled(), 2);
        assert!(ctl.capacity_bps() < first_cap);
    }
}
