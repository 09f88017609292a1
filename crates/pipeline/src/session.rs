//! The discrete-event session kernel.
//!
//! A session is a sender, the network path and a receiver (the
//! `sender`, `path` and `receiver` modules), sharing one context of
//! config, observability log, invariant checker and series. The kernel,
//! [`run_spec`], pops the session's events off the workspace's queue: it
//! first admits each one past the runaway guards, fault injection and
//! chaos-segment announcements, then routes it to the side that
//! handles it. A session is described by a [`RunSpec`]; the plain run
//! is [`run_session`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use ravel_codec::Decoder;
use ravel_core::WatchdogConfig;
use ravel_metrics::{FrameOutcomeKind, FrameRecord, LatencyRecorder};
use ravel_net::{
    ChaosSchedule, ChaosSpec, CorruptSchedule, CorruptSpec, LinkConfig, ReversePathConfig,
    SegmentKind,
};
use ravel_obs::{ObsEvent, ObsLog, ObsMode};
use ravel_sim::{Dur, Scheduled, SeriesSet, Time};
use ravel_trace::BandwidthTrace;
use ravel_video::{ContentClass, Resolution};

use crate::invariants::{Invariant, InvariantChecker, InvariantViolation};
use crate::path::Path;
use crate::queue::{Event, Queue};
use crate::receiver::{Receiver, NACK_POLL_EVERY};
use crate::scheme::Scheme;
use crate::sender::{FrameSlot, Sender};

/// Playout deadline: a frame arriving later than this after capture is
/// decoded (keeping the reference chain healthy) but displayed stale —
/// the libwebrtc jitter buffer's bounded-delay behaviour.
pub(crate) const MAX_PLAYOUT_DELAY: Dur = Dur::millis(600);

/// Everything one experiment run needs to know.
#[derive(Debug, Clone, Copy)]
pub struct SessionConfig {
    /// The sender scheme under test.
    pub scheme: Scheme,
    /// Content class driving frame complexity.
    pub content: ContentClass,
    /// Frame rate.
    pub fps: u32,
    /// Capture resolution.
    pub resolution: Resolution,
    /// Session length (capture stops here; in-flight media drains after).
    pub duration: Dur,
    /// Initial target bitrate for encoder + congestion controller.
    pub start_rate_bps: f64,
    /// Bottleneck parameters (propagation, queue bound, jitter, loss).
    pub link: LinkConfig,
    /// How often the receiver flushes feedback.
    pub feedback_interval: Dur,
    /// One-way delay of the (uncongested) reverse path.
    pub reverse_delay: Dur,
    /// Impairments applied to ALL receiver → sender traffic (feedback
    /// reports, NACKs, PLIs). The default is pass-through.
    pub reverse_path: ReversePathConfig,
    /// Feedback watchdog: blind-period rate backoff when no valid report
    /// arrives within a timeout. `None` (the default) disables it —
    /// the sender then transmits at the last commanded rate for the
    /// whole blind period, which is the failure mode E17 measures.
    pub watchdog: Option<WatchdogConfig>,
    /// NACK/RTX loss recovery (standard WebRTC behaviour, on for both
    /// schemes; disable to study raw loss).
    pub enable_rtx: bool,
    /// Temporal layers for the encoder (1 = plain IPPP, 2 = hierarchical-P
    /// with a droppable enhancement layer).
    pub temporal_layers: u8,
    /// FlexFEC-style XOR parity: one parity packet per ten video
    /// packets, recovering single losses with zero round-trips at ~10%
    /// bitrate overhead.
    pub enable_fec: bool,
    /// Run a 32 kbps Opus-style audio flow (one packet per 20 ms) alongside the
    /// video on the same bottleneck; its per-packet latency is recorded.
    /// Audio bypasses the video pacer, as in WebRTC.
    pub enable_audio: bool,
    /// Master seed: drives content, link jitter/loss, and traces.
    pub seed: u64,
    /// Record time series (costs memory; on for figure experiments).
    pub record_series: bool,
    /// Forward-path chaos: when set, a fault schedule is generated from
    /// `(spec.seed, spec.intensity)` and applied to the forward link
    /// (burst loss, blackouts, capacity collapse, reordering,
    /// duplication, MTU shrink). `None` (the default) adds no faults and
    /// consumes no randomness, so existing runs stay byte-identical.
    pub chaos: Option<ChaosSpec>,
    /// Control-plane corruption: when set, a corruption schedule is
    /// generated from `(spec.seed, spec.intensity)` and applied to
    /// in-flight feedback reports and PLIs on the reverse path (seq
    /// replay/warp, time warps, size bombs, truncated/forged packet
    /// vectors). `None` (the default) adds no corruption and consumes
    /// no randomness, so existing runs stay byte-identical.
    pub corrupt: Option<CorruptSpec>,
    /// Test-only fault injection used by the harness's fault-isolation
    /// fixtures: a deterministic mid-session panic or a self-scheduling
    /// runaway event storm. [`InjectedFault::None`] (the default) is
    /// exact passthrough.
    pub inject: InjectedFault,
}

/// A deterministic fault injected into the event loop — the fixture
/// mechanism behind the harness's panic-quarantine and runaway-guard
/// tests. Injection is keyed to the *simulation* clock, so a fixture
/// cell fails identically at any worker count and on cache hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InjectedFault {
    /// No injection (the default; zero-cost passthrough).
    #[default]
    None,
    /// Panic on the first event at or after `at`.
    Panic {
        /// Simulation instant the panic fires at.
        at: Time,
    },
    /// From the first event at or after `at`, schedule a self-renewing
    /// event at the current instant forever — a sim-time livelock the
    /// runaway guard must cut off.
    Runaway {
        /// Simulation instant the storm starts at.
        at: Time,
    },
}

impl SessionConfig {
    /// The canonical E1 setup: 720p30 talking-head, 60 s, 4 Mbps start,
    /// typical link (40 ms RTT), 50 ms feedback.
    pub fn default_with(scheme: Scheme) -> SessionConfig {
        SessionConfig {
            scheme,
            content: ContentClass::TalkingHead,
            fps: 30,
            resolution: Resolution::P720,
            duration: Dur::secs(60),
            start_rate_bps: 4e6,
            link: LinkConfig::typical(),
            feedback_interval: Dur::millis(50),
            reverse_delay: Dur::millis(20),
            reverse_path: ReversePathConfig::default(),
            watchdog: None,
            enable_rtx: true,
            enable_fec: false,
            temporal_layers: 1,
            enable_audio: false,
            seed: 1,
            record_series: false,
            chaos: None,
            corrupt: None,
            inject: InjectedFault::None,
        }
    }

    /// Frames the session captures, plus one.
    pub(crate) fn expected_frames(&self) -> usize {
        (self.duration.as_secs_f64() * self.fps as f64).ceil() as usize + 1
    }
}

/// Event-count allowance per simulated second of session length
/// (capture plus drain). The busiest committed cells process on the
/// order of a few thousand events per simulated second; this budget
/// leaves well over an order of magnitude of headroom while still
/// cutting off a self-scheduling storm in well under a second of wall
/// time.
pub const RUNAWAY_EVENTS_PER_SIM_SEC: u64 = 100_000;

/// Flat event allowance on top of the per-second budget, so very short
/// sessions keep proportionally generous headroom.
pub const RUNAWAY_BASE_EVENTS: u64 = 200_000;

/// Slack past the drain deadline before the sim-time horizon trips.
/// The event loop already stops at `capture_end + DRAIN_GRACE`; the
/// horizon is the independent backstop that survives a bug in that
/// logic.
const HORIZON_MARGIN: Dur = Dur::secs(1);

/// Runaway protection for one session: an event-count budget and a
/// sim-time horizon derived from the trace spec (session duration),
/// plus an optional cooperative cancellation flag a supervisor thread
/// can set when wall-clock time runs out.
///
/// Exceeding the budget or horizon terminates the session with a
/// [`Invariant::RunawayTermination`] violation; a set cancellation flag
/// terminates it with [`SessionResult::cancelled`] raised. Both paths
/// return a well-formed (truncated) result instead of hanging a worker.
#[derive(Debug, Clone)]
pub struct SessionGuard {
    /// Maximum events the loop may pop before the guard trips.
    pub max_events: u64,
    /// Latest simulation instant the loop may reach before the guard
    /// trips.
    pub horizon: Time,
    /// Cooperative cancellation, polled every
    /// [`CANCEL_POLL_EVERY_EVENTS`] events. `None` disables it.
    pub cancel: Option<Arc<AtomicBool>>,
}

/// How often (in popped events) the loop polls the cancellation flag.
/// Power of two so the check compiles to a mask.
pub const CANCEL_POLL_EVERY_EVENTS: u64 = 1024;

impl SessionGuard {
    /// The standard guard for `cfg`: event budget and horizon scaled to
    /// the session duration, no cancellation.
    pub fn for_config(cfg: &SessionConfig) -> SessionGuard {
        let sim_secs = cfg.duration.as_secs_f64().ceil() as u64 + DRAIN_GRACE.as_secs_f64() as u64;
        SessionGuard {
            max_events: RUNAWAY_BASE_EVENTS + sim_secs * RUNAWAY_EVENTS_PER_SIM_SEC,
            horizon: Time::ZERO + cfg.duration + DRAIN_GRACE + HORIZON_MARGIN,
            cancel: None,
        }
    }

    /// True when `popped` exceeds the budget.
    fn over_budget(&self, popped: u64) -> bool {
        popped > self.max_events
    }

    /// True when `now` is past the horizon.
    fn over_horizon(&self, now: Time) -> bool {
        now > self.horizon
    }

    /// Polls the cancellation flag (cheaply: only every
    /// [`CANCEL_POLL_EVERY_EVENTS`] popped events).
    fn cancelled(&self, popped: u64) -> bool {
        popped.is_multiple_of(CANCEL_POLL_EVERY_EVENTS)
            && self
                .cancel
                .as_ref()
                .is_some_and(|flag| flag.load(Ordering::Relaxed))
    }
}

/// Fixed render/decode latency added to every displayed frame.
const DECODE_RENDER_DELAY: Dur = Dur::millis(5);

/// How long after capture stops the session keeps draining in-flight
/// media and feedback.
const DRAIN_GRACE: Dur = Dur::secs(2);

/// What the session produced.
#[derive(Debug, Clone, Default)]
pub struct SessionResult {
    /// Per-frame latency/quality records (capture order).
    pub recorder: LatencyRecorder,
    /// Time series (empty unless `record_series`).
    pub series: SeriesSet,
    /// Frames captured.
    pub frames_captured: u64,
    /// Frames the sender skipped (adaptive drain).
    pub frames_skipped: u64,
    /// Frames actually encoded (captured minus skipped).
    pub frames_encoded: u64,
    /// Simulation events processed by the event loop — the cell's true
    /// unit of work, reported by the harness as events/second.
    pub events_processed: u64,
    /// Packets the bottleneck link delivered to the receiver.
    pub packets_delivered: u64,
    /// Packets dropped at the bottleneck queue.
    pub queue_drops: u64,
    /// Packets lost to random loss.
    pub random_losses: u64,
    /// Drop events the adaptive controller handled (0 for baseline).
    pub drops_handled: u64,
    /// Packets retransmitted via NACK/RTX.
    pub retransmissions: u64,
    /// Packets reconstructed by FEC.
    pub fec_recovered: u64,
    /// Parity packets sent.
    pub fec_parity_sent: u64,
    /// One-way audio latencies (send → arrival), one per delivered audio
    /// packet; empty unless audio was enabled.
    pub audio_latencies: Vec<(Time, Dur)>,
    /// Individual NACKs the receiver sent.
    pub nacks_sent: u64,
    /// VBV underflows at the encoder.
    pub vbv_underflows: u64,
    /// Reverse-path messages lost (stochastic loss + blackout drops).
    pub reverse_lost: u64,
    /// Reverse-path messages duplicated in transit.
    pub reverse_duplicates: u64,
    /// Feedback reports the sender discarded as duplicate or stale.
    pub reports_discarded: u64,
    /// Feedback reports the sender's validator rejected as internally
    /// inconsistent (corrupted or forged), total.
    pub rejected_reports: u64,
    /// The rejections broken down by reason, nonzero entries only, in
    /// [`ravel_net::REJECT_REASONS`] order.
    pub rejected_by_reason: Vec<(&'static str, u64)>,
    /// Feedback report copies the corruption stage mutated in transit
    /// (0 without corruption).
    pub feedback_corrupted: u64,
    /// PLI deliveries the corruption stage rendered unparseable
    /// (0 without corruption).
    pub plis_suppressed: u64,
    /// Watchdog degradation steps fired (0 without a watchdog).
    pub watchdog_timeouts: u64,
    /// Distinct blind episodes the watchdog saw (0 without a watchdog):
    /// consecutive timeout steps count as one episode, closed by the
    /// next valid report.
    pub watchdog_episodes: u64,
    /// PLI messages the receiver emitted (including retries).
    pub plis_sent: u64,
    /// Forward packets eaten by chaos burst loss (0 without chaos).
    pub chaos_lost: u64,
    /// Duplicate forward packets injected by chaos (0 without chaos).
    pub chaos_duplicates: u64,
    /// Reference-chain breaks the receiver's decoder suffered.
    pub chain_breaks: u64,
    /// Session invariants violated (empty on a healthy run). Collected,
    /// not panicked: the harness reports these per cell and can shrink
    /// the chaos schedule that caused them.
    pub violations: Vec<InvariantViolation>,
    /// True if a supervisor cancelled the session via its
    /// [`SessionGuard`] before it finished: the result is a truncated
    /// prefix, and the pool reports the cell as timed out.
    pub cancelled: bool,
    /// Observability log: empty (and cost-free) unless the session was
    /// started through an `_obs` entry point with a mode other than
    /// [`ObsMode::Off`]. Stamped exclusively with simulation time, so
    /// its digest is byte-identical across reruns, worker counts, and
    /// cache hits.
    pub obs: ObsLog,
}

/// Bound on how long after the last fault clears the decoder's
/// reference chain may stay broken: a (PLI-requested) keyframe must
/// land and repair it within this window. Covers PLI retry backoff (up
/// to 1.2 s), a keyframe's transit, and backlog drain after a blackout.
/// Display may still be *stale* past this point (that latency tail is
/// exactly what the experiments measure), but it must be decodable.
const FREEZE_TERMINATION_BOUND: Dur = Dur::secs(4);

/// Sampling step when probing the post-fault capacity floor for the
/// rate-recovery invariant.
const RECOVERY_CAPACITY_PROBE: Dur = Dur::millis(500);

/// One session to run: the trace and config plus the run's optional
/// overrides.
///
/// [`RunSpec::new`] is the plain run — fault schedules generated from
/// `cfg.chaos` / `cfg.corrupt`, observation off, the standard runaway
/// guard for the config. Override fields with struct-update syntax:
///
/// ```
/// # use ravel_pipeline::{run_spec, KernelWorkspace, RunSpec, Scheme, SessionConfig};
/// # use ravel_obs::ObsMode;
/// # use ravel_trace::ConstantTrace;
/// let mut cfg = SessionConfig::default_with(Scheme::adaptive());
/// cfg.duration = ravel_sim::Dur::secs(2);
/// let spec = RunSpec {
///     obs: ObsMode::Counters,
///     ..RunSpec::new(ConstantTrace::new(3e6), cfg)
/// };
/// let result = run_spec(spec, &mut KernelWorkspace::new());
/// assert!(result.frames_captured > 0);
/// ```
#[derive(Debug)]
pub struct RunSpec<T> {
    /// The capacity process the link serves.
    pub trace: T,
    /// The session configuration.
    pub cfg: SessionConfig,
    /// An explicit chaos schedule, bypassing generation from
    /// `cfg.chaos` (the shrinker's entry point). Recovery bounds for
    /// the chaos invariants still come from `cfg.chaos`. An empty
    /// schedule is exact passthrough: zero extra RNG draws, capacity
    /// multiplied by exactly `1.0`.
    pub chaos: Option<ChaosSchedule>,
    /// An explicit corruption schedule, bypassing generation from
    /// `cfg.corrupt`. An empty schedule is exact passthrough.
    pub corrupt: Option<CorruptSchedule>,
    /// Observability mode. `ObsMode::Off` is exact passthrough (every
    /// hook inlines to an early return); the other modes populate
    /// [`SessionResult::obs`] without perturbing the simulation — event
    /// order, RNG draws and all measurements stay byte-identical.
    pub obs: ObsMode,
    /// Runaway protection and optional cooperative cancellation.
    pub guard: SessionGuard,
}

impl<T: BandwidthTrace> RunSpec<T> {
    /// The plain run of `cfg` over `trace`.
    pub fn new(trace: T, cfg: SessionConfig) -> RunSpec<T> {
        RunSpec {
            trace,
            guard: SessionGuard::for_config(&cfg),
            cfg,
            chaos: None,
            corrupt: None,
            obs: ObsMode::Off,
        }
    }
}

/// Runs one session over `trace` and returns its measurements — the
/// plain [`RunSpec::new`] through [`run_spec`].
pub fn run_session<T: BandwidthTrace>(trace: T, cfg: SessionConfig) -> SessionResult {
    run_spec(RunSpec::new(trace, cfg), &mut KernelWorkspace::new())
}

/// Reusable per-worker kernel scratch: the session's event queue and
/// the slabs holding its events' packets, reports and NACK batches.
///
/// A worker that runs session after session through one workspace
/// keeps the queue's bucket `Vec`s and the slabs, with their capacity,
/// across resets. [`run_spec`] resets the queue on entry, so a
/// workspace left dirty by a panicked session is clean on its next use,
/// and again when the session ends, so no payload outlives its run.
#[derive(Default)]
pub struct KernelWorkspace {
    queue: Queue,
}

impl KernelWorkspace {
    /// An empty workspace.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The session kernel: runs one session on the calling thread, through
/// `ws`'s queue. Fault schedules the spec leaves `None` are generated
/// from its config here.
pub fn run_spec<T: BandwidthTrace>(spec: RunSpec<T>, ws: &mut KernelWorkspace) -> SessionResult {
    let queue = &mut ws.queue;
    queue.reset();
    let mut state = SessionState::new(spec);
    state.start(queue);
    while let Some(Scheduled { at, event, .. }) = queue.pop() {
        if !state.admit(at, queue) {
            // The session is over. Each packet still in the slab belongs
            // to a queued arrival, the refused event's included: it is
            // in flight for conservation.
            state.path.acct.inflight += queue.packets.live() as u64;
            break;
        }
        state.dispatch(at, event, queue);
    }
    queue.reset();
    state.finish()
}

/// What every part of a session shares: the config, the observability
/// log, the invariant checker and the recorded series.
pub(crate) struct Ctx {
    pub(crate) cfg: SessionConfig,
    pub(crate) obs: ObsLog,
    pub(crate) checker: InvariantChecker,
    pub(crate) series: SeriesSet,
}

impl Ctx {
    /// A fresh context for `cfg`, observed at `obs`.
    pub(crate) fn new(cfg: SessionConfig, obs: ObsMode) -> Ctx {
        Ctx {
            series: SeriesSet::new(),
            cfg,
            obs: ObsLog::new(obs),
            checker: InvariantChecker::new(),
        }
    }

    /// When capture stops.
    pub(crate) fn capture_end(&self) -> Time {
        Time::ZERO + self.cfg.duration
    }

    /// When the drain window after capture closes: the session's end.
    pub(crate) fn hard_end(&self) -> Time {
        self.capture_end() + DRAIN_GRACE
    }

    /// Recovery bounds for the chaos invariants: `cfg.chaos`, or the
    /// defaults when only an explicit schedule was given.
    fn chaos_bounds(&self) -> ChaosSpec {
        self.cfg.chaos.unwrap_or_else(|| ChaosSpec::new(0, 1.0))
    }

    /// Flags `invariant` and mirrors it into the obs log, stamped at
    /// `at`. Only an invariant's first violation is kept, and logged.
    pub(crate) fn violate(&mut self, at: Time, invariant: Invariant, detail: String) {
        let flagged = self.checker.violations().len();
        self.checker.violate(invariant, detail);
        if let Some(v) = self.checker.violations().get(flagged) {
            self.obs.record(at, || ObsEvent::InvariantViolated {
                name: v.invariant.name(),
                detail: v.detail.clone(),
            });
        }
    }

    /// Checks `condition`, flagging `invariant` with `detail()` if false.
    pub(crate) fn check(
        &mut self,
        at: Time,
        invariant: Invariant,
        condition: bool,
        detail: impl FnOnce() -> String,
    ) {
        if !condition {
            self.violate(at, invariant, detail());
        }
    }
}

/// Staleness (in frame intervals) of a late frame. A late verdict
/// implies a completion record; if bookkeeping ever desyncs, this
/// records a [`Invariant::FiniteMetrics`] violation (stamped at `at`)
/// and displays the frame un-stale instead of aborting the cell.
pub(crate) fn late_staleness(latency: Option<Dur>, pts: Time, at: Time, ctx: &mut Ctx) -> f64 {
    match latency {
        Some(l) => l / Dur::micros(1_000_000 / ctx.cfg.fps as u64),
        None => {
            ctx.violate(
                at,
                Invariant::FiniteMetrics,
                format!("late frame at pts {pts} has no completion record"),
            );
            0.0
        }
    }
}

/// One session's complete state, stepped event-by-event by the kernel:
/// the two ends, the path between them, and the kernel's own guard
/// bookkeeping.
struct SessionState<T: BandwidthTrace> {
    ctx: Ctx,
    sender: Sender,
    path: Path<T>,
    receiver: Receiver,
    guard: SessionGuard,
    /// Chaos segments announced as the event clock crosses their start.
    /// Empty when obs is off, so the admit-time scan is free.
    seg_meta: Vec<(Time, Time, &'static str)>,
    seg_cursor: usize,
    last_event_at: Time,
    cancelled: bool,
    runaway_armed: bool,
    /// Events this session has processed.
    popped: u64,
}

impl<T: BandwidthTrace> SessionState<T> {
    /// Builds the initial state, generating the fault schedules the
    /// spec leaves to its config.
    fn new(spec: RunSpec<T>) -> SessionState<T> {
        let cfg = spec.cfg;
        let chaos = spec.chaos.or_else(|| {
            cfg.chaos
                .map(|chaos| ChaosSchedule::generate(chaos, cfg.duration))
        });
        let corrupt = spec.corrupt.or_else(|| {
            cfg.corrupt
                .map(|corrupt| CorruptSchedule::generate(corrupt, cfg.duration))
        });
        let ctx = Ctx::new(cfg, spec.obs);
        let path = Path::new(spec.trace, &cfg, chaos, corrupt);
        let mut seg_meta: Vec<(Time, Time, &'static str)> = match path.schedule() {
            Some(s) if ctx.obs.enabled() => s
                .segments
                .iter()
                .map(|seg| (seg.from, seg.until, seg.kind.name()))
                .collect(),
            _ => Vec::new(),
        };
        seg_meta.sort_by_key(|&(from, _, _)| from);
        // Recovery invariants are anchored to the end of the last fault.
        let recovery = path
            .schedule()
            .and_then(ChaosSchedule::last_end)
            .map(|clear| (clear, clear + ctx.chaos_bounds().recovery_within));
        SessionState {
            sender: Sender::new(&cfg, recovery),
            receiver: Receiver::new(&cfg),
            path,
            ctx,
            guard: spec.guard,
            seg_meta,
            seg_cursor: 0,
            last_event_at: Time::ZERO,
            cancelled: false,
            runaway_armed: false,
            popped: 0,
        }
    }

    /// Schedules the session's seed events (same order as the
    /// historical loop, so FIFO tie-breaks are preserved).
    fn start(&self, queue: &mut Queue) {
        let cfg = &self.ctx.cfg;
        queue.push(Time::ZERO, Event::Capture);
        queue.push(Time::ZERO + cfg.feedback_interval, Event::FeedbackFlush);
        if cfg.enable_rtx {
            queue.push(Time::ZERO + NACK_POLL_EVERY, Event::NackPoll);
        }
        if cfg.watchdog.is_some() {
            queue.push(Time::ZERO + cfg.feedback_interval, Event::WatchdogTick);
        }
        if cfg.enable_audio {
            queue.push(Time::ZERO, Event::AudioTick);
        }
    }

    /// Decides whether the event popped at `now` may run; false ends
    /// the session. The check order (monotonic clock, budget, horizon,
    /// cancellation, drain deadline, then fault injection and
    /// chaos-segment announcements) matches the historical loop
    /// exactly, so guard trips and violation details are
    /// byte-identical.
    fn admit(&mut self, now: Time, queue: &mut Queue) -> bool {
        self.popped += 1;
        if now < self.last_event_at {
            let detail = format!(
                "event clock ran backwards: {now} after {}",
                self.last_event_at
            );
            self.ctx.violate(now, Invariant::MonotonicDelivery, detail);
        }
        self.last_event_at = now;
        // Runaway guard. Details carry simulation values only (the
        // popped-event count at trip time is `budget + 1` on every
        // run), so the violation is byte-identical at any worker count
        // and on cache hits.
        if self.guard.over_budget(self.popped) {
            let detail = format!(
                "event budget exhausted at {now}: {} events popped (budget {})",
                self.popped, self.guard.max_events
            );
            self.ctx.violate(now, Invariant::RunawayTermination, detail);
            return false;
        }
        if self.guard.over_horizon(now) {
            let detail = format!("sim-time horizon {} exceeded at {now}", self.guard.horizon);
            self.ctx.violate(now, Invariant::RunawayTermination, detail);
            return false;
        }
        if self.guard.cancelled(self.popped) {
            self.cancelled = true;
            return false;
        }
        if now > self.ctx.hard_end() {
            return false;
        }
        match self.ctx.cfg.inject {
            InjectedFault::None => {}
            InjectedFault::Panic { at } => {
                if now >= at {
                    panic!("injected panic fixture at {at}");
                }
            }
            InjectedFault::Runaway { at } => {
                if now >= at && !self.runaway_armed {
                    self.runaway_armed = true;
                    queue.push(now, Event::RunawayTick);
                }
            }
        }
        while let Some(&(from, until, kind)) = self.seg_meta.get(self.seg_cursor) {
            if from > now {
                break;
            }
            self.ctx
                .obs
                .record(now, || ObsEvent::ChaosSegmentEntered { kind, from, until });
            self.seg_cursor += 1;
        }
        true
    }

    /// Routes one admitted event to the part of the session that
    /// handles it.
    fn dispatch(&mut self, now: Time, event: Event, queue: &mut Queue) {
        let SessionState {
            ctx,
            sender,
            path,
            receiver,
            ..
        } = self;
        match event {
            Event::Capture => sender.on_capture(now, ctx, queue),
            Event::EncodeDone(index) => sender.on_encode_done(now, index, path, ctx, queue),
            Event::PacerTick => sender.on_pacer_tick(now, path, ctx, queue),
            Event::Arrival(slot) => {
                let packet = queue.packets.take(slot);
                receiver.on_arrival(now, packet, &sender.sent_video, path, ctx)
            }
            Event::FeedbackFlush => receiver.on_feedback_flush(now, path, ctx, queue),
            Event::FeedbackArrive(slot) => {
                let report = queue.reports.take(slot);
                sender.on_feedback_arrive(now, &report, path, ctx);
                receiver.recycle_report(report);
            }
            Event::NackPoll => receiver.on_nack_poll(now, path, ctx, queue),
            Event::AudioTick => sender.on_audio_tick(now, path, ctx, queue),
            Event::NackArrive(slot) => {
                let batch = queue.nacks.take(slot);
                sender.on_nack_arrive(now, &batch, path, ctx, queue)
            }
            Event::PliArrive => sender.on_pli_arrive(now),
            Event::WatchdogTick => sender.on_watchdog_tick(now, ctx, queue),
            // The fixture's storm: re-schedule at the current instant
            // so simulation time never advances and the event budget
            // is what stops the session.
            Event::RunawayTick => queue.push(now, Event::RunawayTick),
        }
    }

    /// End-of-run checks and result assembly: conservation, the display
    /// post-pass, chaos-conditioned invariants, finite-metrics sweep.
    /// Every end-of-run verdict is stamped at the last event-loop
    /// instant.
    fn finish(mut self) -> SessionResult {
        let last_event_at = self.last_event_at;
        let ctx = &mut self.ctx;
        self.path.check_conservation(last_event_at, ctx);
        // The session is over, so the series and the obs log stop growing
        // (only an invariant violation may still be logged): free their
        // last chunks' spare capacity before the recorder fills.
        ctx.series.trim();
        ctx.obs.trim();

        // --- display post-pass --------------------------------------------
        let chaos_clear = self.sender.recovery.map(|(clear, _)| clear);
        let capture_end = ctx.capture_end();
        let mut decoder = Decoder::new();
        let mut recorder = LatencyRecorder::new();
        let mut frames_skipped = 0u64;
        // First capture instant at/after the last fault cleared where the
        // reference chain was healthy (freeze-termination invariant).
        let mut chain_ok_after_clear: Option<Time> = None;
        // Pts of the first record holding a non-finite metric, found as
        // the records are pushed (the finite-metrics invariant below).
        let mut non_finite_at: Option<Time> = None;
        for (idx, slot) in self.sender.slots.iter().enumerate() {
            let FrameSlot { pts, temporal, .. } = *slot;
            let record = match slot.coded {
                None => {
                    frames_skipped += 1;
                    // Sender-side skips freeze one slot but do not break the
                    // reference chain (the encoder references the last
                    // *encoded* frame, which the receiver has).
                    let outcome = decoder.feed_sender_skip(temporal);
                    FrameRecord {
                        pts,
                        outcome: FrameOutcomeKind::Frozen,
                        latency: None,
                        ssim: outcome.displayed_ssim(),
                        psnr_db: None,
                    }
                }
                Some(coded) => {
                    let complete_at = self.receiver.completed.get(idx as u64);
                    let latency =
                        complete_at.map(|c| (c + DECODE_RENDER_DELAY).saturating_since(pts));
                    let late = latency.is_some_and(|l| l > MAX_PLAYOUT_DELAY);
                    let outcome = if late {
                        // Blew the playout deadline: decoded for reference,
                        // displayed stale.
                        let staleness = late_staleness(latency, pts, last_event_at, ctx);
                        decoder.feed_late(coded.decodable(), staleness, temporal)
                    } else if complete_at.is_none() && coded.temporal_layer == 1 {
                        // A lost enhancement-layer frame: nothing references
                        // it, so the display freezes one slot but the chain
                        // survives — exactly like a sender-side skip.
                        decoder.feed_sender_skip(temporal)
                    } else {
                        decoder.feed(complete_at.map(|_| coded.decodable()), temporal)
                    };
                    let displayed = outcome.is_displayed();
                    FrameRecord {
                        pts,
                        outcome: if displayed {
                            FrameOutcomeKind::Displayed
                        } else {
                            FrameOutcomeKind::Frozen
                        },
                        // Late frames still carry their measured latency.
                        latency,
                        ssim: outcome.displayed_ssim(),
                        psnr_db: displayed.then_some(coded.psnr_db),
                    }
                }
            };
            let pts = record.pts;
            if non_finite_at.is_none() && !record.is_finite() {
                non_finite_at = Some(pts);
            }
            recorder.push(record);
            if chain_ok_after_clear.is_none()
                && chaos_clear.is_some_and(|clear| pts >= clear && !decoder.chain_broken())
            {
                chain_ok_after_clear = Some(pts);
            }
        }
        recorder.trim();

        // --- chaos-conditioned invariants ---------------------------------
        // Freeze termination: once the last fault clears, the PLI → keyframe
        // path must repair the reference chain within a bound (checkable
        // only if capture extends past the bound).
        if let Some(clear) = chaos_clear {
            let bound_end = clear + FREEZE_TERMINATION_BOUND;
            if bound_end <= capture_end {
                let repaired = chain_ok_after_clear.is_some_and(|t| t <= bound_end);
                ctx.check(
                    last_event_at,
                    Invariant::FreezeTermination,
                    repaired,
                    || {
                        format!(
                            "reference chain not repaired within {FREEZE_TERMINATION_BOUND} \
                         of the last fault clearing at {clear} (first healthy capture: {:?})",
                            chain_ok_after_clear
                        )
                    },
                );
            }
        }
        // Rate recovery: the encoder target must climb back to a fraction of
        // the available rate within the configured bound after the faults.
        if let Some((clear, deadline)) = self.sender.recovery {
            if deadline <= capture_end {
                let mut capacity_floor = ctx.cfg.start_rate_bps;
                let mut t = deadline;
                while t <= capture_end {
                    capacity_floor = capacity_floor.min(self.path.link.trace().rate_bps(t));
                    t += RECOVERY_CAPACITY_PROBE;
                }
                let goal = ctx.chaos_bounds().recovery_fraction * capacity_floor;
                let peak = self.sender.peak_target_in_recovery;
                ctx.check(last_event_at, Invariant::RateRecovery, peak >= goal, || {
                    format!(
                        "target peaked at {peak:.0} bps after {deadline} \
                         (last fault cleared {clear}); needed {goal:.0} bps"
                    )
                });
            }
        }
        // Finite metrics: nothing non-finite may reach the recorder or the
        // recorded series.
        if let Some(pts) = non_finite_at {
            let detail = format!("non-finite frame record at pts {pts}");
            ctx.violate(last_event_at, Invariant::FiniteMetrics, detail);
        }
        let non_finite = ctx.series.iter().find_map(|(series, s)| {
            let (at, v) = s.points().find(|(_, v)| !v.is_finite())?;
            Some(format!(
                "series {} holds non-finite value {v} at {at}",
                series.name()
            ))
        });
        if let Some(detail) = non_finite {
            ctx.violate(last_event_at, Invariant::FiniteMetrics, detail);
        }

        let (sender, path, receiver) = (self.sender, self.path, self.receiver);
        let chaos = path.fwd_chaos.as_ref();
        let corruptor = path.corruptor.as_ref();
        let watchdog = sender.watchdog.as_ref();
        SessionResult {
            recorder,
            series: self.ctx.series,
            frames_captured: sender.slots.len() as u64,
            frames_skipped,
            frames_encoded: sender.frames_encoded,
            events_processed: self.popped,
            packets_delivered: path.link.delivered(),
            queue_drops: path.link.queue_drops(),
            random_losses: path.link.random_losses(),
            drops_handled: sender.controller.map_or(0, |c| c.drops_handled()),
            retransmissions: sender.rtx_buffer.retransmissions(),
            fec_recovered: receiver.fec_decoder.recovered(),
            fec_parity_sent: sender.fec_encoder.map_or(0, |f| f.parity_sent()),
            audio_latencies: receiver.audio_latencies,
            nacks_sent: receiver.nack_gen.nacks_sent(),
            vbv_underflows: sender.encoder.vbv_underflows(),
            reverse_lost: path.reverse.lost() + path.reverse.blackout_dropped(),
            reverse_duplicates: path.reverse.duplicated(),
            reports_discarded: sender.reports_discarded,
            rejected_reports: sender.validator.rejected(),
            rejected_by_reason: sender.validator.by_reason(),
            feedback_corrupted: corruptor.map_or(0, |c| c.corrupted()),
            plis_suppressed: corruptor.map_or(0, |c| c.plis_suppressed()),
            watchdog_timeouts: watchdog.map_or(0, |wd| wd.timeouts()),
            watchdog_episodes: watchdog.map_or(0, |wd| wd.episodes()),
            plis_sent: receiver.pli.sent(),
            chaos_lost: chaos.map_or(0, |c| c.lost()),
            chaos_duplicates: chaos.map_or(0, |c| c.duplicated()),
            chain_breaks: decoder.chain_breaks(),
            violations: self.ctx.checker.into_violations(),
            cancelled: self.cancelled,
            obs: self.ctx.obs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::receiver::CompletedFrames;
    use crate::scheme::CcKind;
    use crate::sender::{SentVideoWindow, SENT_VIDEO_WINDOW};
    use ravel_net::{MediaKind, Packet};
    use ravel_sim::Series;
    use ravel_trace::{ConstantTrace, StepTrace};

    /// Runs `spec` on a fresh workspace.
    fn solo<T: BandwidthTrace>(spec: RunSpec<T>) -> SessionResult {
        run_spec(spec, &mut KernelWorkspace::new())
    }

    fn short_cfg(scheme: Scheme) -> SessionConfig {
        let mut cfg = SessionConfig::default_with(scheme);
        cfg.duration = Dur::secs(20);
        cfg
    }

    #[test]
    fn steady_link_delivers_everything_promptly() {
        let cfg = short_cfg(Scheme::baseline());
        let result = run_session(ConstantTrace::new(4.5e6), cfg);
        let s = result.recorder.summarize_all();
        // 20 s at 33.333 ms per frame -> 601 captures (frame 600 lands
        // at 19.9998 s, inside the window).
        assert_eq!(result.frames_captured, 601);
        assert!(s.freeze_ratio() < 0.02, "freezes {}", s.freeze_ratio());
        // ~40 ms propagation+serialization+encode: well under 150 ms.
        assert!(
            s.mean_latency_ms < 150.0,
            "steady latency {}",
            s.mean_latency_ms
        );
        assert!(s.mean_ssim > 0.9, "steady ssim {}", s.mean_ssim);
        assert_eq!(result.drops_handled, 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let cfg = short_cfg(Scheme::adaptive());
        let trace = || StepTrace::sudden_drop(4e6, 1e6, Time::from_secs(10));
        let a = run_session(trace(), cfg);
        let b = run_session(trace(), cfg);
        assert_eq!(a.recorder, b.recorder);
        assert_eq!(a.frames_skipped, b.frames_skipped);
    }

    #[test]
    fn drop_spikes_baseline_latency() {
        let cfg = short_cfg(Scheme::baseline());
        let result = run_session(StepTrace::sudden_drop(4e6, 1e6, Time::from_secs(10)), cfg);
        // Skip the first seconds: GCC's startup probe transient.
        let before = result
            .recorder
            .summarize(Time::from_secs(5), Time::from_secs(10));
        let after = result
            .recorder
            .summarize(Time::from_secs(10), Time::from_secs(16));
        assert!(
            after.p95_latency_ms > before.p95_latency_ms * 2.0,
            "no latency spike: before p95 {} after p95 {}",
            before.p95_latency_ms,
            after.p95_latency_ms
        );
    }

    #[test]
    fn adaptive_cuts_post_drop_latency() {
        let mk = || StepTrace::sudden_drop(4e6, 1e6, Time::from_secs(10));
        let base = run_session(mk(), short_cfg(Scheme::baseline()));
        let adap = run_session(mk(), short_cfg(Scheme::adaptive()));
        let w = (Time::from_secs(10), Time::from_secs(18));
        let b = base.recorder.summarize(w.0, w.1);
        let a = adap.recorder.summarize(w.0, w.1);
        assert!(adap.drops_handled >= 1, "adaptive never triggered");
        assert!(
            a.mean_latency_ms < b.mean_latency_ms,
            "adaptive {} vs baseline {}",
            a.mean_latency_ms,
            b.mean_latency_ms
        );
    }

    #[test]
    fn session_counters_consistent() {
        let cfg = short_cfg(Scheme::adaptive());
        let result = run_session(StepTrace::sudden_drop(4e6, 0.5e6, Time::from_secs(10)), cfg);
        assert_eq!(
            result.recorder.records().len() as u64,
            result.frames_captured
        );
        assert!(result.frames_skipped <= result.frames_captured);
        assert_eq!(
            result.frames_captured,
            result.frames_skipped + result.frames_encoded
        );
        // Every capture, packet arrival and feedback flush is an event.
        assert!(result.events_processed > result.frames_captured);
        assert!(result.packets_delivered > 0);
    }

    /// Compares two session results field-by-field on everything the
    /// harness report derives from (LatencyRecorder/SeriesSet don't
    /// implement PartialEq wholesale).
    fn assert_results_identical(a: &SessionResult, b: &SessionResult) {
        assert_eq!(a.recorder, b.recorder);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.frames_captured, b.frames_captured);
        assert_eq!(a.frames_encoded, b.frames_encoded);
        assert_eq!(a.frames_skipped, b.frames_skipped);
        assert_eq!(a.packets_delivered, b.packets_delivered);
        assert_eq!(a.drops_handled, b.drops_handled);
        assert_eq!(a.violations, b.violations);
        assert_eq!(a.cancelled, b.cancelled);
    }

    #[test]
    fn pooled_workspace_reuses_boxes_and_leaks_nothing() {
        // A known cell: baseline scheme, 4 s on a constant 3 Mbps link —
        // the same fixture the harness quarantine tests use.
        let mut cfg = SessionConfig::default_with(Scheme::baseline());
        cfg.duration = Dur::secs(4);
        let mut ws = KernelWorkspace::new();
        let first = run_spec(RunSpec::new(ConstantTrace::new(3e6), cfg), &mut ws);
        // The kernel empties its queue and slabs: no event or payload of
        // this session is left behind for the next session through the
        // workspace.
        assert!(ws.queue.is_empty(), "events leaked past the run");
        assert_eq!(ws.queue.packets.live(), 0, "packets leaked past the run");
        // Leave a stray event and packet behind, as a panicked session
        // would: the next run resets the reused queue on entry and is
        // unaffected.
        ws.queue.push(Time::from_millis(5), Event::EncodeDone(0));
        ws.queue.push_arrival(Time::from_millis(6), test_packet(0));
        let second = run_spec(RunSpec::new(ConstantTrace::new(3e6), cfg), &mut ws);
        assert!(ws.queue.is_empty(), "events leaked past the run");
        assert_eq!(ws.queue.packets.live(), 0, "packets leaked past the run");
        assert_results_identical(&first, &second);
    }

    // Sessions run one after another through one reused workspace must
    // give the same results as fresh workspaces, result-for-result
    // across seeds, drop depths, and session counts — and a second
    // pass through the workspace equals the first.
    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig {
            cases: 24,
            ..proptest::ProptestConfig::default()
        })]
        #[test]
        fn pooled_kernel_matches_allocating_kernel(
            seed in 0u64..1_000,
            after_kbps in 200u64..2_000,
            n in 1usize..4,
        ) {
            let sessions = || -> Vec<RunSpec<StepTrace>> {
                (0..n)
                    .map(|i| {
                        let scheme = if i % 2 == 0 {
                            Scheme::baseline()
                        } else {
                            Scheme::adaptive()
                        };
                        let mut cfg = SessionConfig::default_with(scheme);
                        cfg.duration = Dur::secs(4);
                        cfg.seed = seed + i as u64;
                        let trace = StepTrace::sudden_drop(
                            4e6,
                            after_kbps as f64 * 1e3,
                            Time::from_secs(2),
                        );
                        RunSpec::new(trace, cfg)
                    })
                    .collect()
            };
            let through = |ws: &mut KernelWorkspace| -> Vec<SessionResult> {
                sessions().into_iter().map(|spec| run_spec(spec, ws)).collect()
            };
            let mut ws = KernelWorkspace::new();
            let first = through(&mut ws);
            let reused = through(&mut ws);
            let fresh: Vec<SessionResult> = sessions().into_iter().map(solo).collect();
            proptest::prop_assert_eq!(reused.len(), fresh.len());
            for ((a, b), c) in reused.iter().zip(&fresh).zip(&first) {
                assert_results_identical(a, b);
                assert_results_identical(a, c);
            }
        }
    }

    #[test]
    fn series_recorded_when_enabled() {
        let mut cfg = short_cfg(Scheme::adaptive());
        cfg.record_series = true;
        let result = run_session(StepTrace::sudden_drop(4e6, 1e6, Time::from_secs(10)), cfg);
        for series in Series::ALL {
            assert!(result.series.get(series).is_some(), "{series:?} missing");
        }
    }

    #[test]
    fn audio_flow_records_latencies() {
        let mut cfg = short_cfg(Scheme::adaptive());
        cfg.enable_audio = true;
        let result = run_session(ConstantTrace::new(4.5e6), cfg);
        // 20 s at one packet per 20 ms; a handful may drop-tail during
        // the GCC startup transient.
        assert!(
            result.audio_latencies.len() > 900,
            "audio packets missing: {}",
            result.audio_latencies.len()
        );
        for &(_, l) in &result.audio_latencies {
            assert!(l >= Dur::millis(20), "audio beat propagation: {l}");
        }
        // After GCC settles, audio rides a near-empty queue.
        let settled: Vec<Dur> = result
            .audio_latencies
            .iter()
            .filter(|&&(t, _)| t >= Time::from_secs(8))
            .map(|&(_, l)| l)
            .collect();
        assert!(!settled.is_empty());
        let mean_ms = settled.iter().map(|l| l.as_millis_f64()).sum::<f64>() / settled.len() as f64;
        assert!(mean_ms < 60.0, "settled audio latency {mean_ms:.1}ms");
    }

    #[test]
    fn audio_disabled_records_nothing() {
        let cfg = short_cfg(Scheme::baseline());
        let result = run_session(ConstantTrace::new(4e6), cfg);
        assert!(result.audio_latencies.is_empty());
    }

    #[test]
    fn audio_coexists_with_video_through_a_drop() {
        // With an audio flow present, GCC sees a continuous fine-grained
        // arrival signal, so the post-drop damage concentrates in the
        // *video pacer* (which audio bypasses): audio survives for both
        // schemes, and the adaptive controller must still fix the video.
        let mk = || StepTrace::sudden_drop(4e6, 1e6, Time::from_secs(10));
        let run_one = |scheme| {
            let mut cfg = short_cfg(scheme);
            cfg.enable_audio = true;
            run_session(mk(), cfg)
        };
        let base = run_one(Scheme::baseline());
        let adpt = run_one(Scheme::adaptive());
        let window = (Time::from_secs(10), Time::from_secs(18));
        for (name, r) in [("baseline", &base), ("adaptive", &adpt)] {
            let delivered = r
                .audio_latencies
                .iter()
                .filter(|&&(t, _)| t >= window.0 && t < window.1)
                .count();
            assert!(
                delivered > 350,
                "{name}: audio delivery collapsed: {delivered} of ~400"
            );
        }
        let bw = base.recorder.summarize(window.0, window.1);
        let aw = adpt.recorder.summarize(window.0, window.1);
        assert!(
            aw.mean_latency_ms < bw.mean_latency_ms,
            "video not improved with audio present: {} vs {}",
            aw.mean_latency_ms,
            bw.mean_latency_ms
        );
    }

    #[test]
    fn fec_recovers_losses_without_rtt() {
        let mut with_fec = short_cfg(Scheme::adaptive());
        with_fec.link.random_loss = 0.03;
        with_fec.enable_fec = true;
        with_fec.enable_rtx = false;
        let mut without = with_fec;
        without.enable_fec = false;
        let f = run_session(ConstantTrace::new(4e6), with_fec);
        let n = run_session(ConstantTrace::new(4e6), without);
        assert!(f.fec_parity_sent > 0, "no parity sent");
        assert!(f.fec_recovered > 0, "nothing recovered at 3% loss");
        let fs = f.recorder.summarize_all();
        let ns = n.recorder.summarize_all();
        assert!(
            fs.freeze_ratio() < ns.freeze_ratio(),
            "FEC did not reduce freezes: {} vs {}",
            fs.freeze_ratio(),
            ns.freeze_ratio()
        );
    }

    #[test]
    fn fec_disabled_sends_no_parity() {
        let cfg = short_cfg(Scheme::baseline());
        let result = run_session(ConstantTrace::new(4e6), cfg);
        assert_eq!(result.fec_parity_sent, 0);
        assert_eq!(result.fec_recovered, 0);
    }

    #[test]
    fn series_absent_when_disabled() {
        let cfg = short_cfg(Scheme::baseline());
        let result = run_session(ConstantTrace::new(4e6), cfg);
        assert!(result.series.iter().next().is_none());
    }

    #[test]
    fn clean_runs_satisfy_all_invariants() {
        for scheme in [Scheme::baseline(), Scheme::adaptive()] {
            let mut cfg = short_cfg(scheme);
            cfg.enable_audio = true;
            cfg.record_series = true;
            let result = run_session(StepTrace::sudden_drop(4e6, 1e6, Time::from_secs(10)), cfg);
            assert!(
                result.violations.is_empty(),
                "{}: {:?}",
                scheme.name(),
                result.violations
            );
            assert_eq!(result.chaos_lost, 0);
            assert_eq!(result.chaos_duplicates, 0);
        }
    }

    #[test]
    fn second_blackout_redegrades_and_rate_still_recovers() {
        // The E17 control-plane regime, twice over: the reverse path
        // blacks out at 8 s and again at 18 s with the watchdog armed.
        // Each blackout must be its own blind episode (Degraded
        // re-entry, not a stale phase), and after the *second* recovery
        // the target must climb back toward the unchanged 4 Mbps
        // capacity — the rate-recovery contract holds across repeats.
        let mut cfg = short_cfg(Scheme::adaptive());
        cfg.duration = Dur::secs(40);
        cfg.record_series = true;
        cfg.reverse_path = ReversePathConfig::with_loss(0.0)
            .add_blackout(Time::from_secs(8), Time::from_secs(10))
            .add_blackout(Time::from_secs(18), Time::from_secs(20));
        cfg.watchdog = Some(WatchdogConfig::for_timing(
            cfg.feedback_interval,
            cfg.reverse_delay * 2,
        ));
        let result = run_session(ConstantTrace::new(4e6), cfg);
        assert!(result.violations.is_empty(), "{:?}", result.violations);
        assert_eq!(result.watchdog_episodes, 2, "one episode per blackout");
        assert!(
            result.watchdog_timeouts >= 4,
            "2 s blackouts should each fire several backoff steps, got {}",
            result.watchdog_timeouts
        );
        let tgt = result
            .series
            .get(Series::TargetBps)
            .expect("series recorded");
        let blind = tgt.mean_in(Time::from_secs(9), Time::from_secs(10));
        let recovered = tgt.mean_in(Time::from_secs(34), Time::from_secs(40));
        assert!(
            blind < 1e6,
            "watchdog never cut the target while blind: {blind:.0} bps"
        );
        assert!(
            recovered >= 0.55 * 4e6,
            "target did not recover after the second blackout: {recovered:.0} bps"
        );
    }

    #[test]
    fn chaos_none_equals_empty_schedule_byte_for_byte() {
        // The passthrough contract: an explicitly empty schedule must be
        // indistinguishable from no chaos at all.
        let cfg = short_cfg(Scheme::adaptive());
        let mk = || StepTrace::sudden_drop(4e6, 1e6, Time::from_secs(10));
        let plain = run_session(mk(), cfg);
        let empty = solo(RunSpec {
            chaos: Some(ChaosSchedule::empty()),
            ..RunSpec::new(mk(), cfg)
        });
        assert_eq!(plain.recorder, empty.recorder);
        assert_eq!(plain.events_processed, empty.events_processed);
        assert_eq!(plain.packets_delivered, empty.packets_delivered);
    }

    #[test]
    fn chaos_sessions_hold_invariants_and_are_deterministic() {
        for seed in [1u64, 7, 23] {
            for intensity in [0.3, 1.0] {
                let mut cfg = short_cfg(Scheme::adaptive());
                cfg.duration = Dur::secs(30);
                cfg.seed = seed;
                cfg.chaos = Some(ChaosSpec::new(seed, intensity));
                let a = run_session(ConstantTrace::new(4e6), cfg);
                assert!(
                    a.violations.is_empty(),
                    "seed {seed} intensity {intensity}: {:?}",
                    a.violations
                );
                let b = run_session(ConstantTrace::new(4e6), cfg);
                assert_eq!(a.recorder, b.recorder);
                assert_eq!(a.chaos_lost, b.chaos_lost);
                assert_eq!(a.chaos_duplicates, b.chaos_duplicates);
            }
        }
    }

    #[test]
    fn corrupt_none_equals_empty_schedule_byte_for_byte() {
        // Same passthrough contract as chaos: an explicitly empty
        // corruption schedule must be indistinguishable from none.
        let cfg = short_cfg(Scheme::adaptive());
        let mk = || StepTrace::sudden_drop(4e6, 1e6, Time::from_secs(10));
        let plain = run_session(mk(), cfg);
        let empty = solo(RunSpec {
            corrupt: Some(CorruptSchedule::empty()),
            ..RunSpec::new(mk(), cfg)
        });
        assert_eq!(plain.recorder, empty.recorder);
        assert_eq!(plain.events_processed, empty.events_processed);
        assert_eq!(plain.packets_delivered, empty.packets_delivered);
        assert_eq!(plain.rejected_reports, 0);
        assert_eq!(empty.rejected_reports, 0);
        assert_eq!(empty.feedback_corrupted, 0);
        assert!(empty.rejected_by_reason.is_empty());
    }

    #[test]
    fn pure_corruption_trips_the_watchdog_like_silence() {
        // The blind-time regression (satellite of ISSUE 9): reports that
        // ARRIVE but are rejected must not reset the feedback deadline.
        // Zero-loss, zero-blackout reverse path; one explicit corruption
        // segment at rate 1.0 over [8 s, 12 s) — every report crossing
        // it is truncated and rejected, so the watchdog must see a blind
        // episode even though a report lands every interval.
        use ravel_net::{CorruptKind, CorruptMode, CorruptSegment};
        let mut cfg = short_cfg(Scheme::adaptive());
        cfg.duration = Dur::secs(40);
        cfg.record_series = true;
        cfg.reverse_path = ReversePathConfig::with_loss(0.0);
        cfg.watchdog = Some(WatchdogConfig::for_timing(
            cfg.feedback_interval,
            cfg.reverse_delay * 2,
        ));
        let schedule = CorruptSchedule::from_segments(vec![CorruptSegment {
            from: Time::from_secs(8),
            until: Time::from_secs(12),
            kind: CorruptKind {
                mode: CorruptMode::Truncate,
                rate: 1.0,
            },
        }]);
        let result = solo(RunSpec {
            corrupt: Some(schedule.clone()),
            ..RunSpec::new(ConstantTrace::new(4e6), cfg)
        });
        assert!(result.violations.is_empty(), "{:?}", result.violations);
        assert_eq!(result.reverse_lost, 0, "reverse path must be clean");
        assert!(result.feedback_corrupted > 0);
        assert!(
            result.rejected_reports > 0,
            "every report in the segment should be rejected"
        );
        assert_eq!(
            result.rejected_by_reason,
            vec![("non-contiguous-seq", result.rejected_reports)]
        );
        // The exact episode count is a regression pin. It is > 1 because
        // the blind window self-oscillates: once the watchdog cuts the
        // target, reports shrink below the 3 packets truncation needs, an
        // honest report slips through and re-arms the deadline, the rate
        // climbs, and truncation bites again. Any feedback-path change
        // that shifts this number deserves scrutiny.
        assert_eq!(
            result.watchdog_episodes, 6,
            "pure corruption must trip repeated blind episodes"
        );
        assert!(
            result.watchdog_timeouts >= result.watchdog_episodes,
            "each blind episode starts with at least one timeout"
        );
        // While blind, the watchdog cuts the target; afterwards the
        // next honest report must be accepted (the freshness gate did
        // not advance on rejected seqs) and the rate must recover.
        let tgt = result
            .series
            .get(Series::TargetBps)
            .expect("series recorded");
        let blind = tgt.mean_in(Time::from_secs(8), Time::from_secs(12));
        let recovered = tgt.mean_in(Time::from_secs(34), Time::from_secs(40));
        assert!(
            blind < 0.5 * recovered,
            "watchdog never cut while garbage flowed: blind {blind:.0} vs recovered {recovered:.0}"
        );
        assert!(
            recovered >= 0.55 * 4e6,
            "no recovery after corruption: {recovered:.0}"
        );
        // The obs layer sees the same rejections the validator counted.
        let observed = solo(RunSpec {
            corrupt: Some(schedule),
            obs: ObsMode::Counters,
            ..RunSpec::new(ConstantTrace::new(4e6), cfg)
        });
        assert_eq!(
            observed.obs.counters.feedback_rejected,
            observed.rejected_reports
        );
        assert_eq!(observed.rejected_reports, result.rejected_reports);
        assert_eq!(observed.recorder, result.recorder);
    }

    #[test]
    fn corrupt_sessions_hold_invariants_and_are_deterministic() {
        let mut total_rejected = 0u64;
        for seed in [1u64, 7, 23] {
            for intensity in [0.3, 1.0] {
                let mut cfg = short_cfg(Scheme::adaptive());
                cfg.duration = Dur::secs(30);
                cfg.seed = seed;
                cfg.corrupt = Some(ravel_net::CorruptSpec::new(seed, intensity));
                cfg.watchdog = Some(WatchdogConfig::for_timing(
                    cfg.feedback_interval,
                    cfg.reverse_delay * 2,
                ));
                let a = run_session(ConstantTrace::new(4e6), cfg);
                assert!(
                    a.violations.is_empty(),
                    "seed {seed} intensity {intensity}: {:?}",
                    a.violations
                );
                assert!(a.feedback_corrupted > 0, "schedule never fired");
                total_rejected += a.rejected_reports;
                let b = run_session(ConstantTrace::new(4e6), cfg);
                assert_eq!(a.recorder, b.recorder);
                assert_eq!(a.rejected_reports, b.rejected_reports);
                assert_eq!(a.rejected_by_reason, b.rejected_by_reason);
                assert_eq!(a.feedback_corrupted, b.feedback_corrupted);
                assert_eq!(a.events_processed, b.events_processed);
            }
        }
        // Individual schedules can draw only stale-gate-absorbed kinds;
        // across the grid the validator must have real work.
        assert!(total_rejected > 0);
    }

    #[test]
    fn obs_capture_does_not_perturb_the_session() {
        // Recording a full timeline must be a pure observer: all
        // measurements stay byte-identical to an unobserved run.
        let mut cfg = short_cfg(Scheme::adaptive());
        cfg.chaos = Some(ChaosSpec::new(3, 0.5));
        let mk = || StepTrace::sudden_drop(4e6, 1e6, Time::from_secs(10));
        let off = run_session(mk(), cfg);
        let full = solo(RunSpec {
            obs: ObsMode::Full,
            ..RunSpec::new(mk(), cfg)
        });
        assert_eq!(off.recorder, full.recorder);
        assert_eq!(off.events_processed, full.events_processed);
        assert_eq!(off.packets_delivered, full.packets_delivered);
        assert_eq!(off.violations, full.violations);
        // And the observed run actually saw the session.
        assert_eq!(full.obs.counters.frames_captured, full.frames_captured);
        assert_eq!(full.obs.counters.frames_encoded, full.frames_encoded);
        // Delivered events include chaos duplicates and exclude packets
        // still in flight at session end, so compare loosely.
        assert!(full.obs.counters.packets_delivered > 0);
        assert!(
            full.obs.counters.packets_sent + full.chaos_duplicates
                >= full.obs.counters.packets_delivered
        );
        assert!(full.obs.counters.chaos_segments > 0);
        assert!(full.obs.counters.target_changes > 0);
        assert!(full.obs.recorded() > 0);
        // Off mode records nothing at all.
        assert_eq!(off.obs.recorded(), 0);
        assert_eq!(off.obs.counters.total(), 0);
        // Counters mode tallies identically to full capture.
        let counters = solo(RunSpec {
            obs: ObsMode::Counters,
            ..RunSpec::new(mk(), cfg)
        });
        assert_eq!(counters.obs.counters, full.obs.counters);
        assert!(counters.obs.events().next().is_none());
        // The timeline digest is deterministic across reruns.
        let full2 = solo(RunSpec {
            obs: ObsMode::Full,
            ..RunSpec::new(mk(), cfg)
        });
        assert_eq!(full.obs.digest("cell"), full2.obs.digest("cell"));
    }

    #[test]
    fn event_budget_trips_runaway_termination() {
        let cfg = short_cfg(Scheme::baseline());
        let mut guard = SessionGuard::for_config(&cfg);
        // Far below what a healthy 20 s session needs: the guard must
        // cut the session off and flag it, not hang or panic.
        guard.max_events = 500;
        let result = solo(RunSpec {
            guard,
            ..RunSpec::new(ConstantTrace::new(4e6), cfg)
        });
        assert_eq!(result.violations.len(), 1, "{:?}", result.violations);
        assert_eq!(
            result.violations[0].invariant,
            Invariant::RunawayTermination
        );
        assert!(result.violations[0].detail.contains("event budget"));
        assert!(!result.cancelled);
    }

    #[test]
    fn sim_time_horizon_trips_runaway_termination() {
        let cfg = short_cfg(Scheme::baseline());
        let mut guard = SessionGuard::for_config(&cfg);
        guard.horizon = Time::from_secs(5);
        let result = solo(RunSpec {
            guard,
            ..RunSpec::new(ConstantTrace::new(4e6), cfg)
        });
        assert!(
            result
                .violations
                .iter()
                .any(|v| v.invariant == Invariant::RunawayTermination
                    && v.detail.contains("horizon")),
            "{:?}",
            result.violations
        );
        // The session stopped right past the horizon.
        assert!(result.frames_captured < 200);
    }

    #[test]
    fn runaway_guard_is_deterministic() {
        let mut cfg = short_cfg(Scheme::adaptive());
        cfg.inject = InjectedFault::Runaway {
            at: Time::from_secs(2),
        };
        let a = run_session(ConstantTrace::new(4e6), cfg);
        let b = run_session(ConstantTrace::new(4e6), cfg);
        assert!(
            a.violations
                .iter()
                .any(|v| v.invariant == Invariant::RunawayTermination),
            "{:?}",
            a.violations
        );
        assert_eq!(a.violations, b.violations);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.recorder, b.recorder);
    }

    #[test]
    fn injected_panic_fires_at_the_configured_instant() {
        let mut cfg = short_cfg(Scheme::baseline());
        cfg.inject = InjectedFault::Panic {
            at: Time::from_secs(2),
        };
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_session(ConstantTrace::new(4e6), cfg)
        }));
        let payload = caught.expect_err("injected panic did not fire");
        let msg = payload
            .downcast_ref::<String>()
            .expect("panic payload is a formatted string");
        assert_eq!(msg, "injected panic fixture at 2.000000");
    }

    #[test]
    fn cancellation_flag_truncates_the_session() {
        let cfg = short_cfg(Scheme::baseline());
        let flag = Arc::new(AtomicBool::new(true));
        let guard = SessionGuard {
            cancel: Some(flag),
            ..SessionGuard::for_config(&cfg)
        };
        let result = solo(RunSpec {
            guard,
            ..RunSpec::new(ConstantTrace::new(4e6), cfg)
        });
        assert!(result.cancelled);
        assert!(result.violations.is_empty(), "{:?}", result.violations);
        assert!(result.events_processed <= CANCEL_POLL_EVERY_EVENTS);
    }

    #[test]
    fn default_guard_never_fires_on_healthy_sessions() {
        let mut cfg = short_cfg(Scheme::adaptive());
        cfg.enable_audio = true;
        cfg.chaos = Some(ChaosSpec::new(3, 1.0));
        cfg.duration = Dur::secs(30);
        let result = run_session(ConstantTrace::new(4e6), cfg);
        assert!(result.violations.is_empty(), "{:?}", result.violations);
        assert!(!result.cancelled);
        let budget = SessionGuard::for_config(&cfg).max_events;
        assert!(
            result.events_processed * 10 < budget,
            "headroom too thin: {} of {budget}",
            result.events_processed
        );
    }

    #[test]
    fn impossible_recovery_bound_is_caught_not_panicked() {
        // A deliberately broken invariant: no controller can reach 300%
        // of capacity, so the rate-recovery check must flag (and only
        // flag — the run completes normally).
        let mut cfg = short_cfg(Scheme::adaptive());
        cfg.duration = Dur::secs(30);
        let mut spec = ChaosSpec::new(5, 0.5);
        spec.recovery_fraction = 3.0;
        cfg.chaos = Some(spec);
        let result = run_session(ConstantTrace::new(4e6), cfg);
        assert!(
            result
                .violations
                .iter()
                .any(|v| v.invariant == Invariant::RateRecovery),
            "expected a rate-recovery violation: {:?}",
            result.violations
        );
        assert_eq!(result.frames_captured, 901);
    }

    fn test_packet(seq: u64) -> Packet {
        Packet {
            kind: MediaKind::Video,
            seq,
            frame_index: seq / 10,
            fragment: 0,
            num_fragments: 1,
            size_bytes: 1250,
            pts: Time::ZERO,
            send_time: Time::ZERO,
            is_keyframe: false,
        }
    }

    #[test]
    fn sent_video_window_handles_empty_and_evicts_in_order() {
        let mut w = SentVideoWindow::default();
        // Empty window: lookups are graceful, never a panic.
        assert_eq!(w.get(0), None);
        assert_eq!(w.get(u64::MAX), None);
        let total = SENT_VIDEO_WINDOW as u64 + 10;
        for seq in 0..total {
            w.insert(test_packet(seq));
        }
        // Bounded: the oldest 10 were evicted, in order.
        assert_eq!(w.packets.len(), SENT_VIDEO_WINDOW);
        for seq in 0..10 {
            assert_eq!(w.get(seq), None, "seq {seq} should be evicted");
        }
        assert_eq!(w.get(10).map(|p| p.seq), Some(10));
        assert_eq!(w.get(total - 1).map(|p| p.seq), Some(total - 1));
        // Misses inside and past the window are graceful too.
        assert_eq!(w.get(total + 100), None);
    }

    #[test]
    fn completed_frames_keep_first_completion() {
        let mut c = CompletedFrames::default();
        assert_eq!(c.get(0), None);
        c.note(3, Time::from_secs(1));
        c.note(3, Time::from_secs(2));
        assert_eq!(c.get(3), Some(Time::from_secs(1)));
        assert_eq!(c.get(2), None);
        assert_eq!(c.get(1000), None);
    }

    #[test]
    fn late_frame_without_completion_records_violation_not_panic() {
        // The desync path: a frame judged late with no completion record
        // must flag finite-metrics and display un-stale, not abort.
        let cfg = SessionConfig::default_with(Scheme::baseline());
        let mut ctx = Ctx::new(cfg, ObsMode::Off);
        let s = late_staleness(None, Time::from_secs(1), Time::from_secs(2), &mut ctx);
        assert_eq!(s, 0.0);
        let v = ctx.checker.into_violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, Invariant::FiniteMetrics);
        assert!(
            v[0].detail.contains("no completion record"),
            "{}",
            v[0].detail
        );
        // The healthy path is the plain ratio, with nothing flagged.
        let mut ctx = Ctx::new(cfg, ObsMode::Off);
        let s = late_staleness(Some(Dur::millis(100)), Time::ZERO, Time::ZERO, &mut ctx);
        assert!((s - 3.0).abs() < 0.01, "staleness {s}");
        assert!(ctx.checker.into_violations().is_empty());
    }

    #[test]
    fn pacer_ticks_stay_bounded_under_sustained_backlog() {
        // A fixed-rate sender over a link at a third of its rate keeps
        // the pacer backlogged for the whole session — the E20 soak
        // regime. With one outstanding tick at a time the event count
        // stays a few thousand per simulated second; the historical
        // storm grew it past 100k/sim-s.
        let cfg = SessionConfig {
            duration: Dur::secs(20),
            ..SessionConfig::default_with(Scheme {
                cc: CcKind::Fixed,
                adaptive: None,
            })
        };
        let result = run_session(ConstantTrace::new(1.5e6), cfg);
        assert!(result.violations.is_empty(), "{:?}", result.violations);
        let per_sim_sec = result.events_processed / 20;
        assert!(
            per_sim_sec < 20_000,
            "pacer tick storm: {} events/sim-s",
            per_sim_sec
        );
    }

    #[test]
    fn multi_session_kernel_matches_single_session_runs() {
        // Running sessions one after another through one workspace
        // must reproduce each fresh-workspace run byte-for-byte,
        // including guard bookkeeping, violations, and obs timelines.
        let mk_cfg = |seed: u64| {
            let mut cfg = short_cfg(if seed.is_multiple_of(2) {
                Scheme::baseline()
            } else {
                Scheme::adaptive()
            });
            cfg.seed = seed;
            if seed == 3 {
                cfg.chaos = Some(ChaosSpec::new(3, 0.5));
            }
            cfg
        };
        let mk_trace = || StepTrace::sudden_drop(4e6, 1e6, Time::from_secs(10));
        let spec = |seed: u64| RunSpec {
            obs: ObsMode::Counters,
            ..RunSpec::new(mk_trace(), mk_cfg(seed))
        };
        let singles: Vec<SessionResult> = (1..=3).map(|seed| solo(spec(seed))).collect();
        let mut ws = KernelWorkspace::new();
        let reused: Vec<SessionResult> =
            (1..=3).map(|seed| run_spec(spec(seed), &mut ws)).collect();
        assert_eq!(reused.len(), 3);
        for (i, (a, b)) in singles.iter().zip(reused.iter()).enumerate() {
            assert_eq!(a.recorder, b.recorder, "session {i}");
            assert_eq!(a.events_processed, b.events_processed, "session {i}");
            assert_eq!(a.packets_delivered, b.packets_delivered, "session {i}");
            assert_eq!(a.frames_skipped, b.frames_skipped, "session {i}");
            assert_eq!(a.violations, b.violations, "session {i}");
            assert_eq!(a.obs.counters, b.obs.counters, "session {i}");
        }
    }
}
