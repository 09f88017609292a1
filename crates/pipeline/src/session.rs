//! The discrete-event session loop.
//!
//! The session is an explicit poll-based state machine: [`SessionState`]
//! holds every piece of sender/receiver state, and the one event kernel,
//! [`run_sessions`], pops events off a shared [`EventQueue`] and feeds
//! them to [`SessionState::step`]. Each session is described by a
//! [`RunSpec`]; one worker thread can interleave thousands of them, and
//! a solo run — [`run_session`] — is a population of one.

use std::collections::VecDeque;
use std::mem;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use ravel_cc::CongestionController;
use ravel_codec::{Decoder, EncodedFrame, Encoder, EncoderConfig};
use ravel_core::{AdaptiveController, FeedbackWatchdog, FrameDecision, WatchdogConfig};
use ravel_metrics::{FrameOutcomeKind, FrameRecord, LatencyRecorder};
use ravel_net::{
    ChaosSchedule, ChaosSpec, ChaosTrace, CorruptSchedule, CorruptSpec, Delivery, FecDecoder,
    FecEncoder, FeedbackBuilder, FeedbackCorruptor, FeedbackReport, FeedbackValidator,
    ForwardChaos, FrameAssembler, Link, LinkConfig, MediaKind, NackBatch, NackGenerator, Pacer,
    Packet, Packetizer, PliRequester, ReversePath, ReversePathConfig, RtxBuffer, SegmentKind,
};
use ravel_obs::{ObsEvent, ObsLog, ObsMode};
use ravel_sim::{ArenaStats, BoxPool, Dur, EventQueue, SeriesSet, Time};
use ravel_trace::BandwidthTrace;
use ravel_video::{ContentClass, RawFrame, Resolution, VideoSource};

use crate::invariants::{Invariant, InvariantChecker, InvariantViolation};
use crate::scheme::Scheme;

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
    /// Playout deadline: a frame arriving later than this after capture
    /// is decoded (keeping the reference chain healthy) but displayed
    /// stale — the libwebrtc jitter buffer's bounded-delay behaviour.
    pub max_playout_delay: Dur,
    /// NACK/RTX loss recovery (standard WebRTC behaviour, on for both
    /// schemes; disable to study raw loss).
    pub enable_rtx: bool,
    /// Temporal layers for the encoder (1 = plain IPPP, 2 = hierarchical-P
    /// with a droppable enhancement layer).
    pub temporal_layers: u8,
    /// FlexFEC-style XOR parity: one parity packet per `fec_group_size`
    /// video packets, recovering single losses with zero round-trips at
    /// ~1/group_size bitrate overhead.
    pub enable_fec: bool,
    /// Media packets covered per parity packet when FEC is enabled.
    pub fec_group_size: usize,
    /// Run an Opus-style audio flow (one packet per 20 ms) alongside the
    /// video on the same bottleneck; its per-packet latency is recorded.
    /// Audio bypasses the video pacer, as in WebRTC.
    pub enable_audio: bool,
    /// Audio bitrate when enabled.
    pub audio_bitrate_bps: f64,
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
            max_playout_delay: Dur::millis(600),
            enable_rtx: true,
            enable_fec: false,
            fec_group_size: 10,
            temporal_layers: 1,
            enable_audio: false,
            audio_bitrate_bps: 32_000.0,
            seed: 1,
            record_series: false,
            chaos: None,
            corrupt: None,
            inject: InjectedFault::None,
        }
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
#[derive(Debug, Clone, Default)]
pub struct SessionGuard {
    /// Maximum events the loop may pop before the guard trips.
    /// `0` disables the budget.
    pub max_events: u64,
    /// Latest simulation instant the loop may reach before the guard
    /// trips. [`Time::ZERO`] disables the horizon.
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

    /// True when the budget is enabled and `popped` exceeds it.
    fn over_budget(&self, popped: u64) -> bool {
        self.max_events > 0 && popped > self.max_events
    }

    /// True when the horizon is enabled and `now` is past it.
    fn over_horizon(&self, now: Time) -> bool {
        self.horizon > Time::ZERO && now > self.horizon
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
const PACER_FLOOR_BPS: f64 = 100_000.0;

/// Sender-side PLI rate limit: requests inside this window coalesce into
/// one IDR, so a lossy burst cannot trigger an IDR storm.
const PLI_MIN_INTERVAL: Dur = Dur::millis(300);

/// Receiver NACK poll cadence.
const NACK_POLL_EVERY: Dur = Dur::millis(10);

/// One Opus frame per tick.
const AUDIO_TICK: Dur = Dur::millis(20);

/// Audio packets carry frame indexes in a disjoint namespace so they
/// never collide with video frames in feedback-side bookkeeping.
const AUDIO_INDEX_BASE: u64 = 1 << 40;

/// Most recent sent video packets the simulation retains for FEC
/// reconstruction (the omniscient sent-video window).
const SENT_VIDEO_WINDOW: usize = 4096;

/// What the session produced.
#[derive(Debug, Clone)]
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

/// Per-captured-frame sender-side record for the display post-pass.
#[derive(Debug, Clone)]
enum SentFrame {
    Skipped { pts: Time, temporal: f64 },
    Encoded { frame: EncodedFrame, temporal: f64 },
}

/// Events in the session's queue.
enum Event {
    /// Capture the next frame.
    Capture,
    /// An encoded frame is ready to packetize (encode finished). Boxed:
    /// frames are ~30/s against thousands of packet events, and boxing
    /// halves the size of every queued event.
    EncodeDone(Box<EncodedFrame>),
    /// The pacer may have packets due.
    PacerTick,
    /// A packet reached the receiver.
    Arrival(Packet),
    /// The receiver flushes feedback.
    FeedbackFlush,
    /// A feedback report reached the sender.
    FeedbackArrive(FeedbackReport),
    /// The receiver checks for NACK-able gaps / due retries.
    NackPoll,
    /// The audio encoder emits its next 20 ms frame.
    AudioTick,
    /// A NACK batch reached the sender.
    NackArrive(NackBatch),
    /// A receiver PLI reached the sender.
    PliArrive,
    /// The feedback watchdog checks its deadline.
    WatchdogTick,
    /// The [`InjectedFault::Runaway`] fixture's self-renewing event.
    RunawayTick,
}

impl SessionResult {
    /// A zeroed result standing in for a computation that produced
    /// nothing: the harness pool substitutes this for quarantined
    /// (panicked or timed-out) cells so downstream table assembly stays
    /// deterministic without special-casing every consumer.
    pub fn empty() -> SessionResult {
        SessionResult {
            recorder: LatencyRecorder::new(),
            series: SeriesSet::new(),
            frames_captured: 0,
            frames_skipped: 0,
            frames_encoded: 0,
            events_processed: 0,
            packets_delivered: 0,
            queue_drops: 0,
            random_losses: 0,
            drops_handled: 0,
            retransmissions: 0,
            fec_recovered: 0,
            fec_parity_sent: 0,
            audio_latencies: Vec::new(),
            nacks_sent: 0,
            vbv_underflows: 0,
            reverse_lost: 0,
            reverse_duplicates: 0,
            reports_discarded: 0,
            rejected_reports: 0,
            rejected_by_reason: Vec::new(),
            feedback_corrupted: 0,
            plis_suppressed: 0,
            watchdog_timeouts: 0,
            watchdog_episodes: 0,
            plis_sent: 0,
            chaos_lost: 0,
            chaos_duplicates: 0,
            chain_breaks: 0,
            violations: Vec::new(),
            cancelled: false,
            obs: ObsLog::new(ObsMode::Off),
        }
    }
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
/// # use ravel_pipeline::{run_sessions, KernelWorkspace, RunSpec, Scheme, SessionConfig};
/// # use ravel_obs::ObsMode;
/// # use ravel_trace::ConstantTrace;
/// let mut cfg = SessionConfig::default_with(Scheme::adaptive());
/// cfg.duration = ravel_sim::Dur::secs(2);
/// let spec = RunSpec {
///     obs: ObsMode::Counters,
///     ..RunSpec::new(ConstantTrace::new(3e6), cfg)
/// };
/// let results = run_sessions(vec![spec], &mut KernelWorkspace::allocating());
/// assert!(results[0].frames_captured > 0);
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

/// Runs one session over `trace` and returns its measurements — a
/// population of one through [`run_sessions`].
pub fn run_session<T: BandwidthTrace>(trace: T, cfg: SessionConfig) -> SessionResult {
    let mut results = run_sessions(
        vec![RunSpec::new(trace, cfg)],
        &mut KernelWorkspace::allocating(),
    );
    results.pop().expect("one spec in, one result out")
}

/// Reusable per-worker kernel scratch: the shared multi-session event
/// queue and the boxed-payload arena.
///
/// A worker that drives batch after batch through one workspace gets
/// allocation-free steady-state event processing: the queue's bucket
/// `Vec`s keep their capacity across [`EventQueue::reset`], and the
/// [`BoxPool`] free list carries recycled `EncodeDone` boxes from one
/// batch into the next. The arena counters accumulate across batches —
/// harvest them once per worker with [`KernelWorkspace::arena_stats`].
pub struct KernelWorkspace {
    queue: EventQueue<(u32, Event)>,
    pool: BoxPool<EncodedFrame>,
}

impl KernelWorkspace {
    /// A workspace whose arena recycles event payload boxes.
    pub fn new() -> Self {
        KernelWorkspace {
            queue: EventQueue::new(),
            pool: BoxPool::pooled(),
        }
    }

    /// A workspace whose arena is a pure allocating passthrough —
    /// behaviourally the pre-arena kernel, used as the test oracle.
    pub fn allocating() -> Self {
        KernelWorkspace {
            queue: EventQueue::new(),
            pool: BoxPool::disabled(),
        }
    }

    /// Arena counters accumulated over every batch this workspace ran.
    pub fn arena_stats(&self) -> ArenaStats {
        self.pool.stats()
    }

    /// Discards all scratch state — used after an aborted (panicked)
    /// batch leaves the queue and free list possibly inconsistent —
    /// while carrying the arena's lifetime counters forward.
    /// `outstanding` resets to zero: boxes that were live during the
    /// unwind were dropped with the queue.
    pub fn quarantine_reset(&mut self) {
        let stats = self.pool.stats();
        let pooled = self.pool.is_pooled();
        self.queue = EventQueue::new();
        self.pool = if pooled {
            BoxPool::pooled()
        } else {
            BoxPool::disabled()
        };
        self.pool.set_stats(ArenaStats {
            outstanding: 0,
            ..stats
        });
    }
}

impl Default for KernelWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

/// The session kernel: runs a population of sessions interleaved over
/// ONE shared event queue on the calling thread, recycling event
/// payload boxes through the workspace's arena. A solo run is a
/// population of one.
///
/// Each session's result is byte-identical to running it alone:
/// sessions share no state, the shared queue's FIFO tie-break preserves
/// every per-session event order, and the arena only changes *where* a
/// payload box's memory comes from, never its contents. Fault schedules
/// a spec leaves `None` are generated from its config here.
pub fn run_sessions<T: BandwidthTrace>(
    specs: Vec<RunSpec<T>>,
    ws: &mut KernelWorkspace,
) -> Vec<SessionResult> {
    let queue = &mut ws.queue;
    let pool = &mut ws.pool;
    queue.reset();
    let mut states: Vec<(SessionState<T>, bool)> = Vec::with_capacity(specs.len());
    for (session, spec) in specs.into_iter().enumerate() {
        let cfg = spec.cfg;
        let chaos = spec.chaos.or_else(|| {
            cfg.chaos
                .map(|chaos| ChaosSchedule::generate(chaos, cfg.duration))
        });
        let corrupt = spec.corrupt.or_else(|| {
            cfg.corrupt
                .map(|corrupt| CorruptSchedule::generate(corrupt, cfg.duration))
        });
        let mut state = SessionState::new(spec.trace, cfg, chaos, corrupt, spec.obs, spec.guard);
        state.start(&mut TaggedSink {
            queue,
            session: session as u32,
        });
        states.push((state, false));
    }
    while let Some(scheduled) = queue.pop() {
        let (session, event) = scheduled.event;
        let (state, stopped) = &mut states[session as usize];
        if *stopped {
            // A stopped session's leftovers count as in-flight for the
            // conservation invariant.
            state.note_leftover(&event);
            reclaim(event, pool);
            continue;
        }
        let mut sink = TaggedSink { queue, session };
        if let Step::Stop = state.step(scheduled.at, event, &mut sink, pool) {
            *stopped = true;
        }
    }
    states
        .into_iter()
        .map(|(state, _stopped)| state.finish())
        .collect()
}

/// Returns an event's boxed payload (if any) to the worker's arena.
fn reclaim(event: Event, pool: &mut BoxPool<EncodedFrame>) {
    if let Event::EncodeDone(frame) = event {
        pool.recycle(frame);
    }
}

/// Where a stepped session schedules its future events: a view of the
/// shared population queue that stamps the session id onto every push.
struct TaggedSink<'a> {
    queue: &'a mut EventQueue<(u32, Event)>,
    session: u32,
}

impl TaggedSink<'_> {
    /// Schedules `event` at `at`.
    fn push(&mut self, at: Time, event: Event) {
        self.queue.push(at, (self.session, event));
    }
}

/// What [`SessionState::step`] tells the kernel after each event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// Keep stepping.
    Continue,
    /// The session is done (end of drain window, guard trip, or
    /// cancellation): stop feeding it events and route the remainder to
    /// [`SessionState::note_leftover`].
    Stop,
}

/// The simulation's bounded omniscient view of sent video packets, used
/// to materialize FEC-reconstructed packets (a real XOR decoder holds
/// the actual recovered bytes; the metadata is identical).
///
/// Packet seqs are handed out monotonically, so the window is a plain
/// ring of packets in seq order: O(1) insert/evict, binary-search get —
/// the struct-of-arrays replacement for the old `BTreeMap`, with no
/// panic path when the window is empty.
#[derive(Debug, Default)]
struct SentVideoWindow {
    packets: VecDeque<Packet>,
}

impl SentVideoWindow {
    /// Records a sent packet, evicting the oldest past the window bound.
    fn insert(&mut self, p: Packet) {
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
    fn get(&self, seq: u64) -> Option<Packet> {
        let idx = self.packets.partition_point(|p| p.seq < seq);
        self.packets.get(idx).filter(|p| p.seq == seq).copied()
    }
}

/// Frame completion instants, dense by frame index (video frame indexes
/// start at 0 and grow by 1 per capture) — the struct-of-arrays
/// replacement for the old `BTreeMap<u64, Time>`.
#[derive(Debug, Default)]
struct CompletedFrames {
    slots: Vec<Option<Time>>,
}

impl CompletedFrames {
    /// Records the first completion of `frame_index` (duplicates and
    /// FEC/RTX re-completions keep the earliest instant).
    fn note(&mut self, frame_index: u64, at: Time) {
        let idx = frame_index as usize;
        if idx >= self.slots.len() {
            self.slots.resize(idx + 1, None);
        }
        let slot = &mut self.slots[idx];
        if slot.is_none() {
            *slot = Some(at);
        }
    }

    /// The completion instant of `frame_index`, if it ever assembled.
    fn get(&self, frame_index: u64) -> Option<Time> {
        self.slots.get(frame_index as usize).copied().flatten()
    }
}

/// Staleness (in frame intervals) of a late frame. A late verdict
/// implies a completion record; if bookkeeping ever desyncs, this
/// records a [`Invariant::FiniteMetrics`] violation and displays the
/// frame un-stale instead of aborting the cell.
fn late_staleness(
    latency: Option<Dur>,
    fps: u32,
    pts: Time,
    checker: &mut InvariantChecker,
) -> f64 {
    match latency {
        Some(l) => l / frame_interval(fps),
        None => {
            checker.violate(
                Invariant::FiniteMetrics,
                format!("late frame at pts {pts} has no completion record"),
            );
            0.0
        }
    }
}

/// One session's complete state, stepped event-by-event by the kernel.
///
/// Everything the historical monolithic loop held in locals lives here,
/// so the kernel can interleave thousands of sessions on one thread:
/// pop an event, call [`SessionState::step`], repeat.
struct SessionState<T: BandwidthTrace> {
    cfg: SessionConfig,
    guard: SessionGuard,
    schedule: Option<ChaosSchedule>,

    // --- sender ---------------------------------------------------------
    source: VideoSource,
    encoder: Encoder,
    cc: Box<dyn CongestionController>,
    controller: Option<AdaptiveController>,
    packetizer: Packetizer,
    pacer: Pacer,
    rtx_buffer: RtxBuffer,
    fec_encoder: Option<FecEncoder>,
    rtx_tokens_bits: f64,
    rtx_tokens_updated: Time,
    watchdog: Option<FeedbackWatchdog>,
    blind_skip_toggle: bool,
    last_pli: Time,
    last_report_seq: Option<u64>,
    reports_discarded: u64,
    /// Sanitizes every arriving report before any estimator sees it.
    /// Always armed: on clean runs it draws no randomness and rejects
    /// nothing, so it costs only the per-report field scan.
    validator: FeedbackValidator,

    // --- network --------------------------------------------------------
    link: Link<ChaosTrace<T>>,
    fwd_chaos: Option<ForwardChaos>,
    reverse: ReversePath,
    /// Control-plane corruption applied to delivered feedback/PLI
    /// copies at the reverse path's send boundary. `None` is exact
    /// passthrough.
    corruptor: Option<FeedbackCorruptor>,
    acct: ForwardAcct,

    // --- receiver -------------------------------------------------------
    assembler: FrameAssembler,
    feedback: FeedbackBuilder,
    nack_gen: NackGenerator,
    fec_decoder: FecDecoder,
    pli: PliRequester,
    sent_video: SentVideoWindow,
    completed: CompletedFrames,
    audio_seq_count: u64,
    audio_latencies: Vec<(Time, Dur)>,

    // --- bookkeeping ----------------------------------------------------
    checker: InvariantChecker,
    obs: ObsLog,
    /// Violations already mirrored into the obs log (index into the
    /// checker's first-flagged order).
    obs_violations_seen: usize,
    /// Chaos segments announced as the event clock crosses their start.
    /// Empty when obs is off, so the step-top scan is free.
    seg_meta: Vec<(Time, Time, &'static str)>,
    seg_cursor: usize,
    chaos_bounds: ChaosSpec,
    chaos_clear: Option<Time>,
    recovery_deadline: Option<Time>,
    max_target_after_deadline: f64,
    last_event_at: Time,
    sent: Vec<SentFrame>,
    series: SeriesSet,
    frames_encoded: u64,
    /// Hot-path scratch buffers, reused across the whole session so
    /// packetization, pacer release, and NACK admission stop allocating
    /// per event.
    pkt_scratch: Vec<Packet>,
    release_scratch: Vec<Packet>,
    affordable_scratch: Vec<u64>,

    // --- kernel ---------------------------------------------------------
    capture_end: Time,
    hard_end: Time,
    cancelled: bool,
    runaway_armed: bool,
    /// Events this session has processed (the per-session equivalent of
    /// the old private queue's popped counter).
    popped: u64,
    /// True while a `PacerTick` is in the queue. One outstanding tick
    /// is always enough: `Pacer::next_release` only moves forward, and
    /// until the pending tick fires every re-poll computes the same
    /// release instant — so deduplicating changes no release time, it
    /// only stops the queue population from growing without bound (the
    /// E20 event storm).
    pacer_tick_pending: bool,
}

impl<T: BandwidthTrace> SessionState<T> {
    /// Builds the initial state. Mirrors the historical setup section
    /// exactly, including its RNG draw order.
    fn new(
        trace: T,
        cfg: SessionConfig,
        schedule: Option<ChaosSchedule>,
        corrupt: Option<CorruptSchedule>,
        obs_mode: ObsMode,
        guard: SessionGuard,
    ) -> SessionState<T> {
        let schedule = schedule.filter(|s| !s.is_empty());
        let corrupt = corrupt.filter(|s| !s.is_empty());
        let source = VideoSource::new(cfg.content.profile(), cfg.resolution, cfg.fps, cfg.seed);
        let mut enc_cfg = EncoderConfig::rtc(cfg.start_rate_bps, cfg.fps);
        enc_cfg.capture_resolution = cfg.resolution;
        enc_cfg.temporal_layers = cfg.temporal_layers;
        let encoder = Encoder::new(enc_cfg);
        let cc = cfg.scheme.cc.build(cfg.start_rate_bps);
        let controller = cfg.scheme.adaptive.map(|acfg| {
            let mut ctl = AdaptiveController::new(acfg, cfg.fps);
            // Tell the controller what the transport adds around the
            // encoder's payload: ~4% packet headers, plus FEC parity, plus
            // the audio flow's wire rate.
            let mut factor = 1.04;
            if cfg.enable_fec {
                factor *= 1.0 + 1.0 / cfg.fec_group_size as f64;
            }
            let reserved = if cfg.enable_audio {
                // Audio wire rate: payload bitrate plus 40 B of headers on
                // each of the 50 packets per second.
                cfg.audio_bitrate_bps + 40.0 * 8.0 * 50.0
            } else {
                0.0
            };
            ctl.set_rate_overheads(factor, reserved);
            ctl
        });
        // The link always sees a chaos-wrapped trace: outside every capacity
        // fault (and always, for the empty schedule) the wrapper multiplies
        // by exactly 1.0, so chaos-free sessions stay byte-identical.
        let link = Link::new(
            ChaosTrace::new(trace, schedule.clone().unwrap_or_default()),
            cfg.link,
            cfg.seed,
        );
        // Per-packet chaos (burst loss, reordering, duplication) applied
        // after the link's delivery decision, at the send boundary — the
        // link itself enforces FIFO, so reordering must live outside it.
        let fwd_chaos = schedule
            .as_ref()
            .map(|s| ForwardChaos::new(s.clone(), cfg.seed));
        let obs = ObsLog::new(obs_mode);
        let seg_meta: Vec<(Time, Time, &'static str)> = if obs.enabled() {
            let mut meta: Vec<_> = schedule
                .as_ref()
                .map(|s| {
                    s.segments
                        .iter()
                        .map(|seg| (seg.from, seg.until, seg.kind.name()))
                        .collect()
                })
                .unwrap_or_default();
            meta.sort_by_key(|&(from, _, _)| from);
            meta
        } else {
            Vec::new()
        };
        // Recovery invariants are anchored to the end of the last fault.
        let chaos_bounds = cfg.chaos.unwrap_or_else(|| ChaosSpec::new(0, 1.0));
        let chaos_clear = schedule.as_ref().and_then(|s| s.last_end());
        let recovery_deadline = chaos_clear.map(|c| c + chaos_bounds.recovery_within);
        let expected_frames = (cfg.duration.as_secs_f64() * cfg.fps as f64).ceil() as usize + 1;
        let capture_end = Time::ZERO + cfg.duration;
        SessionState {
            guard,
            source,
            encoder,
            cc,
            controller,
            packetizer: Packetizer::new(),
            pacer: Pacer::new(cfg.start_rate_bps, 2.5),
            // WebRTC-flavoured RTX: 30 ms NACK retries, give up after the
            // playout deadline (PLI takes over), 1 s of sender history.
            rtx_buffer: RtxBuffer::new(Dur::SECOND, 2048),
            fec_encoder: cfg.enable_fec.then(|| FecEncoder::new(cfg.fec_group_size)),
            rtx_tokens_bits: RTX_INITIAL_TOKENS_BITS,
            rtx_tokens_updated: Time::ZERO,
            watchdog: cfg.watchdog.map(FeedbackWatchdog::new),
            blind_skip_toggle: false,
            last_pli: Time::ZERO,
            last_report_seq: None,
            reports_discarded: 0,
            validator: FeedbackValidator::new(),
            link,
            fwd_chaos,
            corruptor: corrupt.map(|s| FeedbackCorruptor::new(s, cfg.seed)),
            // All receiver → sender traffic crosses the (possibly impaired)
            // reverse path; the receiver keeps PLI requests alive until a
            // post-request keyframe actually lands.
            reverse: ReversePath::new(cfg.reverse_path, cfg.reverse_delay, cfg.seed),
            acct: ForwardAcct::default(),
            assembler: FrameAssembler::new(),
            feedback: FeedbackBuilder::new(),
            nack_gen: NackGenerator::new(Dur::millis(30), 5, cfg.max_playout_delay),
            fec_decoder: FecDecoder::new(),
            pli: PliRequester::new(),
            sent_video: SentVideoWindow::default(),
            completed: CompletedFrames::default(),
            audio_seq_count: 0,
            audio_latencies: Vec::new(),
            checker: InvariantChecker::new(),
            obs,
            obs_violations_seen: 0,
            seg_meta,
            seg_cursor: 0,
            chaos_bounds,
            chaos_clear,
            recovery_deadline,
            max_target_after_deadline: 0.0,
            last_event_at: Time::ZERO,
            sent: Vec::with_capacity(expected_frames),
            series: SeriesSet::new(),
            frames_encoded: 0,
            pkt_scratch: Vec::new(),
            release_scratch: Vec::new(),
            affordable_scratch: Vec::new(),
            capture_end,
            hard_end: capture_end + DRAIN_GRACE,
            cancelled: false,
            runaway_armed: false,
            popped: 0,
            pacer_tick_pending: false,
            cfg,
            schedule,
        }
    }

    /// Schedules the session's seed events (same order as the
    /// historical loop, so FIFO tie-breaks are preserved).
    fn start(&mut self, sink: &mut TaggedSink<'_>) {
        sink.push(Time::ZERO, Event::Capture);
        sink.push(
            Time::ZERO + self.cfg.feedback_interval,
            Event::FeedbackFlush,
        );
        if self.cfg.enable_rtx {
            sink.push(Time::ZERO + NACK_POLL_EVERY, Event::NackPoll);
        }
        if self.watchdog.is_some() {
            sink.push(Time::ZERO + self.cfg.feedback_interval, Event::WatchdogTick);
        }
        if self.cfg.enable_audio {
            sink.push(Time::ZERO, Event::AudioTick);
        }
    }

    /// Counts an unprocessed leftover event: queued arrivals are
    /// in-flight packets for the conservation invariant.
    fn note_leftover(&mut self, event: &Event) {
        if matches!(event, Event::Arrival(_)) {
            self.acct.inflight += 1;
        }
    }

    /// Mirrors any violations the checker flagged since the last call
    /// into the observability log, stamped at `at`.
    fn note_violations(&mut self, at: Time) {
        if !self.obs.enabled() {
            return;
        }
        let all = self.checker.violations();
        while self.obs_violations_seen < all.len() {
            let v = &all[self.obs_violations_seen];
            self.obs.record(at, || ObsEvent::InvariantViolated {
                name: v.invariant.name(),
                detail: v.detail.clone(),
            });
            self.obs_violations_seen += 1;
        }
    }

    /// Processes one popped event. The check order (monotonic clock,
    /// budget, horizon, cancellation, drain deadline, fault injection,
    /// chaos-segment announcements, then the event itself) matches the
    /// historical loop exactly, so guard trips and violation details
    /// are byte-identical.
    fn step(
        &mut self,
        now: Time,
        event: Event,
        sink: &mut TaggedSink<'_>,
        pool: &mut BoxPool<EncodedFrame>,
    ) -> Step {
        self.popped += 1;
        if now < self.last_event_at {
            self.checker.violate(
                Invariant::MonotonicDelivery,
                format!(
                    "event clock ran backwards: {now} after {}",
                    self.last_event_at
                ),
            );
            self.note_violations(now);
        }
        self.last_event_at = now;
        // Runaway guard. Details carry simulation values only (the
        // popped-event count at trip time is `budget + 1` on every
        // run), so the violation is byte-identical at any worker count
        // and on cache hits.
        if self.guard.over_budget(self.popped) {
            self.checker.violate(
                Invariant::RunawayTermination,
                format!(
                    "event budget exhausted at {now}: {} events popped (budget {})",
                    self.popped, self.guard.max_events
                ),
            );
            self.note_violations(now);
            self.note_leftover(&event);
            reclaim(event, pool);
            return Step::Stop;
        }
        if self.guard.over_horizon(now) {
            self.checker.violate(
                Invariant::RunawayTermination,
                format!("sim-time horizon {} exceeded at {now}", self.guard.horizon),
            );
            self.note_violations(now);
            self.note_leftover(&event);
            reclaim(event, pool);
            return Step::Stop;
        }
        if self.guard.cancelled(self.popped) {
            self.cancelled = true;
            self.note_leftover(&event);
            reclaim(event, pool);
            return Step::Stop;
        }
        if now > self.hard_end {
            // The popped event is past the session's end; if it was an
            // arrival, the packet is in flight for conservation.
            self.note_leftover(&event);
            reclaim(event, pool);
            return Step::Stop;
        }
        match self.cfg.inject {
            InjectedFault::None => {}
            InjectedFault::Panic { at } => {
                if now >= at {
                    panic!("injected panic fixture at {at}");
                }
            }
            InjectedFault::Runaway { at } => {
                if now >= at && !self.runaway_armed {
                    self.runaway_armed = true;
                    sink.push(now, Event::RunawayTick);
                }
            }
        }
        while self.seg_cursor < self.seg_meta.len() && self.seg_meta[self.seg_cursor].0 <= now {
            let (from, until, kind) = self.seg_meta[self.seg_cursor];
            self.obs
                .record(now, || ObsEvent::ChaosSegmentEntered { kind, from, until });
            self.seg_cursor += 1;
        }
        match event {
            Event::Capture => self.on_capture(now, sink, pool),
            Event::EncodeDone(encoded) => {
                self.on_encode_done(now, &encoded, sink);
                pool.recycle(encoded);
            }
            Event::PacerTick => {
                self.pacer_tick_pending = false;
                self.release_pacer(sink, now);
            }
            Event::Arrival(packet) => self.on_arrival(now, packet),
            Event::FeedbackFlush => self.on_feedback_flush(now, sink),
            Event::FeedbackArrive(report) => self.on_feedback_arrive(now, &report),
            Event::NackPoll => self.on_nack_poll(now, sink),
            Event::AudioTick => self.on_audio_tick(now, sink),
            Event::NackArrive(batch) => self.on_nack_arrive(now, &batch, sink),
            Event::PliArrive => {
                // Sender-side IDR generation, rate-limited so a burst of
                // (possibly duplicated) PLIs coalesces into one keyframe.
                if now.saturating_since(self.last_pli) >= PLI_MIN_INTERVAL {
                    self.encoder.force_idr();
                    self.last_pli = now;
                }
            }
            Event::WatchdogTick => self.on_watchdog_tick(now, sink),
            Event::RunawayTick => {
                // The fixture's storm: re-schedule at the current
                // instant so simulation time never advances and the
                // event budget is what stops the session.
                sink.push(now, Event::RunawayTick);
            }
        }
        Step::Continue
    }

    fn on_capture(
        &mut self,
        now: Time,
        sink: &mut TaggedSink<'_>,
        pool: &mut BoxPool<EncodedFrame>,
    ) {
        let frame = self.source.next_frame();
        debug_assert_eq!(frame.pts, now, "capture clock drift");
        self.obs
            .record(now, || ObsEvent::FrameCaptured { index: frame.index });
        // While the feedback loop is blind, optionally skip every
        // other frame (both schemes): at a given target rate this
        // halves the data fired into an unobservable network.
        let blind_skip = self
            .watchdog
            .as_ref()
            .is_some_and(|wd| wd.is_degraded() && wd.config().skip_while_blind)
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
        match decision {
            FrameDecision::Skip => {
                self.sent.push(SentFrame::Skipped {
                    pts: frame.pts,
                    temporal: frame.complexity.temporal,
                });
            }
            FrameDecision::Encode => {
                let encoded = self.encoder.encode(&frame, now);
                self.frames_encoded += 1;
                self.obs.record(now, || ObsEvent::FrameEncoded {
                    index: encoded.index,
                    size_bytes: encoded.size_bytes,
                    qp: encoded.qp.value(),
                    target_bps: self.encoder.target_bps(),
                });
                if encoded.frame_type.is_intra() {
                    self.obs.record(now, || ObsEvent::KeyframeEmitted);
                }
                if self.cfg.record_series {
                    self.series.push("qp", now, encoded.qp.value());
                    self.series.push(
                        "send_rate_bps",
                        now,
                        encoded.size_bits() as f64 * self.cfg.fps as f64,
                    );
                }
                sink.push(encoded.encoded_at, Event::EncodeDone(pool.alloc(encoded)));
                self.sent.push(SentFrame::Encoded {
                    frame: encoded,
                    temporal: frame.complexity.temporal,
                });
            }
        }
        let next_pts = self.source.pts_of(frame.index + 1);
        if next_pts < self.capture_end {
            sink.push(next_pts, Event::Capture);
        }
    }

    fn on_encode_done(&mut self, now: Time, encoded: &EncodedFrame, sink: &mut TaggedSink<'_>) {
        if let Some(sched) = self.schedule.as_ref() {
            self.packetizer.set_payload_mtu(sched.payload_mtu(now));
        }
        let mut pkts = mem::take(&mut self.pkt_scratch);
        self.packetizer.packetize_into(encoded, &mut pkts);
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
        self.release_pacer(sink, now);
    }

    fn on_arrival(&mut self, now: Time, packet: Packet) {
        self.acct.arrivals += 1;
        self.obs
            .record(now, || ObsEvent::PacketDelivered { seq: packet.seq });
        if now < packet.send_time {
            self.checker.violate(
                Invariant::MonotonicDelivery,
                format!(
                    "packet seq {} arrived at {now} before its send time {}",
                    packet.seq, packet.send_time
                ),
            );
            self.note_violations(now);
        }
        self.feedback.on_packet(&packet, now);
        if self.cfg.enable_rtx {
            self.nack_gen.on_packet(packet.seq, now);
        }
        if self.cfg.enable_fec && packet.kind != MediaKind::Fec {
            // Every non-parity arrival in a covered span counts
            // toward that span's recovery bookkeeping.
            for seq in self.fec_decoder.on_media_packet(packet.seq) {
                if let Some(rec) = self.sent_video.get(seq) {
                    self.nack_gen.on_packet(seq, now);
                    if let Some(done) = self.assembler.push(&rec, now) {
                        // Only a COMPLETE keyframe satisfies an
                        // outstanding PLI (a lone fragment may
                        // never assemble; retries must go on).
                        if done.is_keyframe {
                            self.pli.on_keyframe(rec.send_time);
                        }
                        self.completed.note(done.frame_index, done.complete_at);
                    }
                }
            }
        }
        match packet.kind {
            MediaKind::Audio => {
                self.audio_latencies
                    .push((packet.pts, now.saturating_since(packet.pts)));
            }
            MediaKind::Fec => {
                for seq in self.fec_decoder.on_parity_packet(&packet) {
                    if let Some(rec) = self.sent_video.get(seq) {
                        self.nack_gen.on_packet(seq, now);
                        if let Some(done) = self.assembler.push(&rec, now) {
                            if done.is_keyframe {
                                self.pli.on_keyframe(rec.send_time);
                            }
                            self.completed.note(done.frame_index, done.complete_at);
                        }
                    }
                }
            }
            MediaKind::Video => {
                if let Some(done) = self.assembler.push(&packet, now) {
                    if done.is_keyframe {
                        self.pli.on_keyframe(packet.send_time);
                    }
                    self.completed.note(done.frame_index, done.complete_at);
                }
            }
        }
    }

    fn on_feedback_flush(&mut self, now: Time, sink: &mut TaggedSink<'_>) {
        let backlog = self.link.backlog_bytes(now);
        self.checker.check(
            Invariant::BoundedBacklog,
            backlog <= self.cfg.link.queue_capacity_bytes,
            || {
                format!(
                    "link backlog {backlog} B exceeds queue capacity {} B at {now}",
                    self.cfg.link.queue_capacity_bytes
                )
            },
        );
        self.note_violations(now);
        if let Some(report) = self.feedback.flush(now) {
            // Reported losses mean some frame will be
            // undecodable: arm (or keep alive) the keyframe
            // request. It stays armed until a post-request
            // keyframe actually arrives.
            if report.lost_count() > 0 {
                self.pli.request(now);
            }
            // Each delivered copy is corrupted independently — a
            // duplicated reverse path can deliver one honest and one
            // mutated copy of the same report.
            for at in self.reverse.transit(now).into_iter().flatten() {
                let mut copy = report.clone();
                if let Some(c) = self.corruptor.as_mut() {
                    c.corrupt(&mut copy, now);
                }
                sink.push(at, Event::FeedbackArrive(copy));
            }
        }
        // PLI emission (first send and backoff retries) shares
        // the feedback cadence — and the impaired reverse path.
        if self.pli.poll(now) {
            self.obs.record(now, || ObsEvent::PliSent);
            for at in self.reverse.transit(now).into_iter().flatten() {
                // A corrupted PLI is unparseable at the sender: the
                // delivery slot is consumed but nothing arrives. The
                // requester's retry loop keeps the request alive.
                if self.corruptor.as_mut().is_some_and(|c| c.suppress_pli(now)) {
                    continue;
                }
                sink.push(at, Event::PliArrive);
            }
        }
        let next = now + self.cfg.feedback_interval;
        if next <= self.hard_end {
            sink.push(next, Event::FeedbackFlush);
        }
    }

    fn on_feedback_arrive(&mut self, now: Time, report: &FeedbackReport) {
        // Report integrity: a duplicated or reordered reverse
        // path may deliver a report twice, or deliver an older
        // report after a newer one. Both would corrupt GCC's
        // inter-arrival model and the drop detector's windows —
        // discard them before any estimator sees them.
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
        let old_target = self.encoder.target_bps();
        if let Some(wd) = self.watchdog.as_mut() {
            wd.on_valid_report(now);
        }
        let gcc_target = self.cc.on_feedback(report, now);
        match self.controller.as_mut() {
            Some(ctl) => {
                ctl.on_feedback(report, gcc_target, now, &mut self.encoder);
            }
            None => {
                // Baseline: production slow path.
                self.encoder.set_target_bitrate(gcc_target);
            }
        }
        self.pacer
            .set_target_bitrate(self.encoder.target_bps().max(PACER_FLOOR_BPS));
        let target = self.encoder.target_bps();
        if target != old_target {
            self.obs.record(now, || ObsEvent::TargetChanged {
                old_bps: old_target,
                new_bps: target,
                reason: self.cc.decision_reason(),
            });
        }
        if !target.is_finite() || !gcc_target.is_finite() {
            self.checker.violate(
                Invariant::FiniteMetrics,
                format!("non-finite rate at {now}: encoder {target}, gcc {gcc_target}"),
            );
            self.note_violations(now);
        }
        // Recovery-within-T: the target counts as recovered if
        // it reaches the goal at any point between the last
        // fault clearing and the deadline.
        if self.chaos_clear.is_some_and(|c| now >= c)
            && self.recovery_deadline.is_some_and(|d| now <= d)
        {
            self.max_target_after_deadline = self.max_target_after_deadline.max(target);
        }
        if self.cfg.record_series {
            self.series
                .push("target_bps", now, self.encoder.target_bps());
            self.series.push("gcc_target_bps", now, gcc_target);
            if let Some(gcc) = self.cc.as_any().downcast_ref::<ravel_cc::Gcc>() {
                let state = match gcc.detector_state() {
                    ravel_cc::BandwidthUsage::Normal => 0.0,
                    ravel_cc::BandwidthUsage::Overusing => 1.0,
                    ravel_cc::BandwidthUsage::Underusing => -1.0,
                };
                self.series.push("gcc_detector", now, state);
                self.series.push("gcc_trend_ms", now, gcc.trend_ms());
            }
            self.series
                .push("capacity_bps", now, self.link.trace().rate_bps(now));
            self.series.push(
                "link_queue_ms",
                now,
                self.link.queue_delay(now).as_millis_f64(),
            );
            self.series.push(
                "pacer_queue_ms",
                now,
                self.pacer.drain_time().as_millis_f64(),
            );
        }
    }

    fn on_nack_poll(&mut self, now: Time, sink: &mut TaggedSink<'_>) {
        let abandoned_before = self.nack_gen.abandoned();
        let batch = self.nack_gen.poll(now);
        if self.nack_gen.abandoned() > abandoned_before {
            // RTX gave up on a gap: some frame will never
            // assemble and the reference chain will break when
            // playout reaches it. Feedback already reported the
            // loss (possibly while an earlier PLI was pending and
            // got satisfied by a keyframe that predates this
            // gap), so this is the receiver's only remaining
            // signal — recovery is the PLI path's job now.
            self.pli.request(now);
        }
        if let Some(batch) = batch {
            for at in self.reverse.transit(now).into_iter().flatten() {
                sink.push(at, Event::NackArrive(batch.clone()));
            }
        }
        let next = now + NACK_POLL_EVERY;
        if next <= self.hard_end {
            sink.push(next, Event::NackPoll);
        }
    }

    fn on_audio_tick(&mut self, now: Time, sink: &mut TaggedSink<'_>) {
        // One Opus frame: bitrate x 20 ms of payload + headers.
        let payload = ((self.cfg.audio_bitrate_bps * AUDIO_TICK.as_secs_f64()) / 8.0).ceil() as u64;
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
        // Audio bypasses the video pacer (WebRTC sends it
        // directly) but shares the bottleneck and feedback.
        if self.cfg.enable_rtx {
            self.rtx_buffer.store(&audio, now);
        }
        self.send_forward(sink, audio, now);
        let next = now + AUDIO_TICK;
        if next < self.capture_end {
            sink.push(next, Event::AudioTick);
        }
    }

    fn on_nack_arrive(&mut self, now: Time, batch: &NackBatch, sink: &mut TaggedSink<'_>) {
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
            self.release_pacer(sink, now);
        }
    }

    fn on_watchdog_tick(&mut self, now: Time, sink: &mut TaggedSink<'_>) {
        if let Some(wd) = self.watchdog.as_mut() {
            // Capture ends at `capture_end`; the receiver goes
            // quiet once the pipe drains, so missing feedback in
            // the drain tail is expected, not a blind episode.
            if now <= self.capture_end && wd.poll(now) {
                // No valid report within the timeout: back the
                // target off toward the floor. The baseline gets
                // the same production-equivalent cut through the
                // slow path; the adaptive controller routes it
                // through its Degraded phase (fast reconfigure +
                // Recover hand-off when feedback resumes).
                let old_target = self.encoder.target_bps();
                let target = wd.apply_backoff(old_target);
                match self.controller.as_mut() {
                    Some(ctl) => ctl.on_feedback_timeout(target, now, &mut self.encoder),
                    None => self.encoder.set_target_bitrate(target),
                }
                self.pacer
                    .set_target_bitrate(self.encoder.target_bps().max(PACER_FLOOR_BPS));
                let new_target = self.encoder.target_bps();
                if new_target != old_target {
                    self.obs.record(now, || ObsEvent::TargetChanged {
                        old_bps: old_target,
                        new_bps: new_target,
                        reason: "watchdog",
                    });
                }
                if self.cfg.record_series {
                    // FeedbackArrive cannot log while blind, so
                    // the decay is recorded here.
                    self.series
                        .push("target_bps", now, self.encoder.target_bps());
                }
            }
            let next = now + self.cfg.feedback_interval;
            if next <= self.capture_end {
                sink.push(next, Event::WatchdogTick);
            }
        }
    }

    /// Releases due packets from the pacer onto the link, recording
    /// them in the RTX history when retransmission is enabled, and
    /// keeps exactly one `PacerTick` outstanding for the next release.
    fn release_pacer(&mut self, sink: &mut TaggedSink<'_>, now: Time) {
        let mut scratch = mem::take(&mut self.release_scratch);
        self.pacer.release_into(now, &mut scratch);
        for packet in scratch.drain(..) {
            if self.cfg.enable_rtx {
                self.rtx_buffer.store(&packet, now);
            }
            self.send_forward(sink, packet, now);
        }
        self.release_scratch = scratch;
        if !self.pacer_tick_pending {
            if let Some(next) = self.pacer.next_release_time() {
                self.pacer_tick_pending = true;
                sink.push(next.max(now), Event::PacerTick);
            }
        }
    }

    /// Sends one packet over the link, routing a delivered packet
    /// through the per-packet chaos stage (which may drop it, jitter
    /// its arrival past FIFO order, or inject a duplicate) and
    /// recording the send for conservation.
    fn send_forward(&mut self, sink: &mut TaggedSink<'_>, packet: Packet, now: Time) {
        self.acct.sent += 1;
        self.obs.record(now, || ObsEvent::PacketSent {
            seq: packet.seq,
            size_bytes: packet.size_bytes,
        });
        match self.link.send(&packet, now) {
            Delivery::At(arrival) => match self.fwd_chaos.as_mut() {
                Some(ch) => {
                    let fate = ch.transit(now, arrival);
                    if let Some(at) = fate.duplicate {
                        sink.push(at, Event::Arrival(packet));
                    }
                    match fate.arrival {
                        Some(at) => sink.push(at, Event::Arrival(packet)),
                        None => self.obs.record(now, || ObsEvent::PacketDropped {
                            seq: packet.seq,
                            reason: "chaos",
                        }),
                    }
                }
                None => sink.push(arrival, Event::Arrival(packet)),
            },
            Delivery::QueueDrop => self.obs.record(now, || ObsEvent::PacketDropped {
                seq: packet.seq,
                reason: "queue",
            }),
            Delivery::Lost => self.obs.record(now, || ObsEvent::PacketDropped {
                seq: packet.seq,
                reason: "loss",
            }),
        }
    }

    /// End-of-run checks and result assembly: conservation, the display
    /// post-pass, chaos-conditioned invariants, finite-metrics sweep.
    fn finish(mut self) -> SessionResult {
        let events_processed = self.popped;
        let chaos_lost = self.fwd_chaos.as_ref().map(|c| c.lost()).unwrap_or(0);
        let chaos_duplicates = self.fwd_chaos.as_ref().map(|c| c.duplicated()).unwrap_or(0);
        let expected = self.acct.arrivals
            + self.acct.inflight
            + self.link.queue_drops()
            + self.link.random_losses()
            + chaos_lost;
        self.checker.check(
            Invariant::Conservation,
            self.acct.sent + chaos_duplicates == expected,
            || {
                format!(
                    "sent {} + chaos duplicates {} != arrivals {} + in-flight {} \
                     + queue drops {} + random losses {} + chaos losses {}",
                    self.acct.sent,
                    chaos_duplicates,
                    self.acct.arrivals,
                    self.acct.inflight,
                    self.link.queue_drops(),
                    self.link.random_losses(),
                    chaos_lost
                )
            },
        );
        let last_event_at = self.last_event_at;
        self.note_violations(last_event_at);

        // --- display post-pass --------------------------------------------
        let mut decoder = Decoder::new();
        let mut recorder = LatencyRecorder::with_capacity(self.sent.len());
        let mut frames_skipped = 0u64;
        // First capture instant at/after the last fault cleared where the
        // reference chain was healthy (freeze-termination invariant).
        let mut chain_ok_after_clear: Option<Time> = None;
        for (idx, sf) in self.sent.iter().enumerate() {
            let idx = idx as u64;
            match sf {
                SentFrame::Skipped { pts, temporal } => {
                    frames_skipped += 1;
                    // Sender-side skips freeze one slot but do not break the
                    // reference chain (the encoder references the last
                    // *encoded* frame, which the receiver has).
                    let outcome = decoder.feed_sender_skip(*temporal);
                    recorder.push(FrameRecord {
                        pts: *pts,
                        outcome: FrameOutcomeKind::Frozen,
                        latency: None,
                        ssim: outcome.displayed_ssim(),
                        psnr_db: None,
                    });
                }
                SentFrame::Encoded { frame, temporal } => {
                    let complete_at = self.completed.get(idx);
                    let latency =
                        complete_at.map(|c| (c + DECODE_RENDER_DELAY).saturating_since(frame.pts));
                    let late = latency
                        .map(|l| l > self.cfg.max_playout_delay)
                        .unwrap_or(false);
                    let outcome = if late {
                        // Blew the playout deadline: decoded for reference,
                        // displayed stale.
                        let staleness =
                            late_staleness(latency, self.cfg.fps, frame.pts, &mut self.checker);
                        decoder.feed_late(frame, staleness, *temporal)
                    } else if complete_at.is_none() && frame.temporal_layer == 1 {
                        // A lost enhancement-layer frame: nothing references
                        // it, so the display freezes one slot but the chain
                        // survives — exactly like a sender-side skip.
                        decoder.feed_sender_skip(*temporal)
                    } else {
                        decoder.feed(frame.as_opt(complete_at), true, *temporal)
                    };
                    if outcome.is_displayed() {
                        recorder.push(FrameRecord {
                            pts: frame.pts,
                            outcome: FrameOutcomeKind::Displayed,
                            latency,
                            ssim: outcome.displayed_ssim(),
                            psnr_db: Some(frame.psnr_db),
                        });
                    } else {
                        recorder.push(FrameRecord {
                            pts: frame.pts,
                            outcome: FrameOutcomeKind::Frozen,
                            // Late frames still carry their measured latency.
                            latency,
                            ssim: outcome.displayed_ssim(),
                            psnr_db: None,
                        });
                    }
                    if self.cfg.record_series {
                        if let Some(c) = complete_at {
                            self.series.push(
                                "frame_latency_ms",
                                frame.pts,
                                (c + DECODE_RENDER_DELAY)
                                    .saturating_since(frame.pts)
                                    .as_millis_f64(),
                            );
                        }
                    }
                }
            }
            if chain_ok_after_clear.is_none() {
                if let Some(clear) = self.chaos_clear {
                    let pts = match sf {
                        SentFrame::Skipped { pts, .. } => *pts,
                        SentFrame::Encoded { frame, .. } => frame.pts,
                    };
                    if pts >= clear && !decoder.chain_broken() {
                        chain_ok_after_clear = Some(pts);
                    }
                }
            }
        }

        // --- chaos-conditioned invariants ---------------------------------
        // Freeze termination: once the last fault clears, the PLI → keyframe
        // path must repair the reference chain within a bound (checkable
        // only if capture extends past the bound).
        if let Some(clear) = self.chaos_clear {
            let bound_end = clear + FREEZE_TERMINATION_BOUND;
            if bound_end <= self.capture_end {
                let repaired = chain_ok_after_clear.is_some_and(|t| t <= bound_end);
                self.checker
                    .check(Invariant::FreezeTermination, repaired, || {
                        format!(
                            "reference chain not repaired within {FREEZE_TERMINATION_BOUND} \
                         of the last fault clearing at {clear} (first healthy capture: {:?})",
                            chain_ok_after_clear
                        )
                    });
            }
        }
        // Rate recovery: the encoder target must climb back to a fraction of
        // the available rate within the configured bound after the faults.
        if let (Some(clear), Some(deadline)) = (self.chaos_clear, self.recovery_deadline) {
            if deadline <= self.capture_end {
                let mut capacity_floor = self.cfg.start_rate_bps;
                let mut t = deadline;
                while t <= self.capture_end {
                    capacity_floor = capacity_floor.min(self.link.trace().rate_bps(t));
                    t += RECOVERY_CAPACITY_PROBE;
                }
                let goal = self.chaos_bounds.recovery_fraction * capacity_floor;
                let max_target_after_deadline = self.max_target_after_deadline;
                self.checker.check(
                    Invariant::RateRecovery,
                    max_target_after_deadline >= goal,
                    || {
                        format!(
                            "target peaked at {max_target_after_deadline:.0} bps after {deadline} \
                             (last fault cleared {clear}); needed {goal:.0} bps"
                        )
                    },
                );
            }
        }
        // Finite metrics: nothing non-finite may reach the recorder or the
        // recorded series.
        if let Some(r) = recorder.records().iter().find(|r| !r.is_finite()) {
            self.checker.violate(
                Invariant::FiniteMetrics,
                format!("non-finite frame record at pts {}", r.pts),
            );
        }
        'series: for (name, s) in self.series.iter() {
            for &(at, v) in s.points() {
                if !v.is_finite() {
                    self.checker.violate(
                        Invariant::FiniteMetrics,
                        format!("series {name} holds non-finite value {v} at {at}"),
                    );
                    break 'series;
                }
            }
        }
        // Post-pass invariants (freeze termination, rate recovery, finite
        // metrics) are stamped at the last event-loop instant: they are
        // end-of-run verdicts, not point-in-time observations.
        self.note_violations(last_event_at);

        SessionResult {
            recorder,
            series: self.series,
            frames_captured: self.sent.len() as u64,
            frames_skipped,
            frames_encoded: self.frames_encoded,
            events_processed,
            packets_delivered: self.link.delivered(),
            queue_drops: self.link.queue_drops(),
            random_losses: self.link.random_losses(),
            drops_handled: self.controller.map(|c| c.drops_handled()).unwrap_or(0),
            retransmissions: self.rtx_buffer.retransmissions(),
            fec_recovered: self.fec_decoder.recovered(),
            fec_parity_sent: self.fec_encoder.map(|f| f.parity_sent()).unwrap_or(0),
            audio_latencies: self.audio_latencies,
            nacks_sent: self.nack_gen.nacks_sent(),
            vbv_underflows: self.encoder.vbv_underflows(),
            reverse_lost: self.reverse.lost() + self.reverse.blackout_dropped(),
            reverse_duplicates: self.reverse.duplicated(),
            reports_discarded: self.reports_discarded,
            rejected_reports: self.validator.rejected(),
            rejected_by_reason: self.validator.by_reason(),
            feedback_corrupted: self.corruptor.as_ref().map(|c| c.corrupted()).unwrap_or(0),
            plis_suppressed: self
                .corruptor
                .as_ref()
                .map(|c| c.plis_suppressed())
                .unwrap_or(0),
            watchdog_timeouts: self.watchdog.as_ref().map(|wd| wd.timeouts()).unwrap_or(0),
            watchdog_episodes: self.watchdog.as_ref().map(|wd| wd.episodes()).unwrap_or(0),
            plis_sent: self.pli.sent(),
            chaos_lost,
            chaos_duplicates,
            chain_breaks: decoder.chain_breaks(),
            violations: self.checker.into_violations(),
            cancelled: self.cancelled,
            obs: self.obs,
        }
    }
}

/// Forward-path accounting for the conservation invariant.
#[derive(Debug, Default)]
struct ForwardAcct {
    /// Packets handed to the link (`Link::send` calls).
    sent: u64,
    /// Arrival events the loop processed.
    arrivals: u64,
    /// Arrival events still queued when the session ended.
    inflight: u64,
}

/// One frame interval at the session's frame rate.
fn frame_interval(fps: u32) -> Dur {
    Dur::micros(1_000_000 / fps as u64)
}

/// Helper: a displayed frame needs both its metadata and a completion.
trait AsOpt {
    fn as_opt(&self, complete_at: Option<Time>) -> Option<&EncodedFrame>;
}

impl AsOpt for EncodedFrame {
    fn as_opt(&self, complete_at: Option<Time>) -> Option<&EncodedFrame> {
        complete_at.map(|_| self)
    }
}

// Re-export the raw-frame type for doc examples.
pub use ravel_video::RawFrame as _RawFrame;
const _: () = {
    // Compile-time sanity: RawFrame stays in the public dependency graph.
    fn _assert(_: RawFrame) {}
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::CcKind;
    use ravel_trace::{ConstantTrace, StepTrace};

    /// Runs `spec` alone: a population of one.
    fn solo<T: BandwidthTrace>(spec: RunSpec<T>) -> SessionResult {
        run_sessions(vec![spec], &mut KernelWorkspace::allocating()).remove(0)
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
        assert_eq!(a.recorder.records(), b.recorder.records());
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
        assert_eq!(a.recorder.records(), b.recorder.records());
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
        let first = run_sessions(vec![RunSpec::new(ConstantTrace::new(3e6), cfg)], &mut ws);
        let after_first = ws.arena_stats();
        // Every EncodeDone box must come back: a leak here would mean a
        // payload escaped the recycle sites in `step`.
        assert_eq!(after_first.outstanding, 0, "payload boxes leaked");
        // The capture→encode pipeline keeps at most a couple of encoded
        // frames in flight at once; the observed peak for this cell is
        // exactly one box live at a time.
        assert_eq!(after_first.high_water, 1);
        // Same cell again through the same workspace: the free list is
        // warm, so every payload allocation is now served from it.
        let second = run_sessions(vec![RunSpec::new(ConstantTrace::new(3e6), cfg)], &mut ws);
        let after_second = ws.arena_stats();
        assert_eq!(after_second.outstanding, 0);
        assert_eq!(after_second.high_water, 1);
        assert_eq!(
            after_second.allocs_avoided - after_first.allocs_avoided,
            second[0].frames_encoded,
            "second batch should alloc entirely from the free list"
        );
        assert_results_identical(&first[0], &second[0]);
    }

    // The arena only changes where payload boxes come from — pooled
    // populations must match the allocating oracle result-for-result
    // across seeds, drop depths, and population sizes.
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
            let mut ws = KernelWorkspace::new();
            let pooled = run_sessions(sessions(), &mut ws);
            let allocating = run_sessions(sessions(), &mut KernelWorkspace::allocating());
            proptest::prop_assert_eq!(pooled.len(), allocating.len());
            for (a, b) in pooled.iter().zip(&allocating) {
                assert_results_identical(a, b);
            }
            proptest::prop_assert_eq!(ws.arena_stats().outstanding, 0);
        }
    }

    #[test]
    fn series_recorded_when_enabled() {
        let mut cfg = short_cfg(Scheme::adaptive());
        cfg.record_series = true;
        let result = run_session(StepTrace::sudden_drop(4e6, 1e6, Time::from_secs(10)), cfg);
        for name in [
            "target_bps",
            "gcc_target_bps",
            "capacity_bps",
            "link_queue_ms",
            "qp",
            "send_rate_bps",
            "frame_latency_ms",
        ] {
            assert!(
                result
                    .series
                    .get(name)
                    .map(|s| !s.is_empty())
                    .unwrap_or(false),
                "series {name} missing"
            );
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
        assert!(result.series.names().is_empty());
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
        let tgt = result.series.get("target_bps").expect("series recorded");
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
        assert_eq!(plain.recorder.records(), empty.recorder.records());
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
                assert_eq!(a.recorder.records(), b.recorder.records());
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
        assert_eq!(plain.recorder.records(), empty.recorder.records());
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
        let tgt = result.series.get("target_bps").expect("series recorded");
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
        assert_eq!(observed.recorder.records(), result.recorder.records());
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
                assert_eq!(a.recorder.records(), b.recorder.records());
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
        assert_eq!(off.recorder.records(), full.recorder.records());
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
        assert!(counters.obs.events().is_empty());
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
        assert_eq!(a.recorder.records(), b.recorder.records());
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
        let mut checker = InvariantChecker::new();
        let s = late_staleness(None, 30, Time::from_secs(1), &mut checker);
        assert_eq!(s, 0.0);
        let v = checker.into_violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, Invariant::FiniteMetrics);
        assert!(
            v[0].detail.contains("no completion record"),
            "{}",
            v[0].detail
        );
        // The healthy path is the plain ratio, with nothing flagged.
        let mut checker = InvariantChecker::new();
        let s = late_staleness(Some(Dur::millis(100)), 30, Time::ZERO, &mut checker);
        assert!((s - 3.0).abs() < 0.01, "staleness {s}");
        assert!(checker.into_violations().is_empty());
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
        // Interleaving sessions over one shared queue must reproduce
        // each single-session run byte-for-byte, including guard
        // bookkeeping, violations, and obs timelines.
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
        let batch = run_sessions(
            (1..=3).map(spec).collect(),
            &mut KernelWorkspace::allocating(),
        );
        assert_eq!(batch.len(), 3);
        for (i, (a, b)) in singles.iter().zip(batch.iter()).enumerate() {
            assert_eq!(a.recorder.records(), b.recorder.records(), "session {i}");
            assert_eq!(a.events_processed, b.events_processed, "session {i}");
            assert_eq!(a.packets_delivered, b.packets_delivered, "session {i}");
            assert_eq!(a.frames_skipped, b.frames_skipped, "session {i}");
            assert_eq!(a.violations, b.violations, "session {i}");
            assert_eq!(a.obs.counters, b.obs.counters, "session {i}");
        }
    }
}
