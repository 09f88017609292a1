//! Deterministic observability for ravel sessions.
//!
//! A session threaded with an [`ObsLog`] produces a *byte-reproducible*
//! event timeline: every record is stamped with simulation time (never
//! wall-clock), event payloads carry only simulation values, and the
//! capture order is the event-loop order — so two runs of the same cell
//! yield identical timelines at any worker count, and a checked-in
//! digest can regression-lock the entire causal chain
//! drop → feedback → target change → frame-size response.
//!
//! Three pieces:
//!
//! * [`ObsMode`] — `Off` (hot path compiles to no-ops), `Counters`
//!   (per-subsystem tallies only), `Full` (tallies plus every event).
//! * [`ObsLog`] — the recorder. [`ObsLog::record`] takes the event as a
//!   closure so that in `Off` mode the payload is never even built.
//! * [`ObsLog::digest`] — a compact deterministic text rendering:
//!   counters, the opening events, and a context window around each
//!   rate-cut / invariant-violation anchor. Golden-timeline tests
//!   compare these byte-for-byte.

#![warn(missing_docs)]

use std::fmt;

use ravel_sim::Time;

/// How much a session records. Parsed from the harness `--obs` flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ObsMode {
    /// Record nothing; every hook is an inlined early return.
    #[default]
    Off,
    /// Maintain per-subsystem counters but store no events.
    Counters,
    /// Counters plus the full event timeline.
    Full,
}

impl ObsMode {
    /// Parses a CLI spelling (`off`, `counters`, `full`).
    pub fn parse(s: &str) -> Option<ObsMode> {
        match s {
            "off" => Some(ObsMode::Off),
            "counters" => Some(ObsMode::Counters),
            "full" => Some(ObsMode::Full),
            _ => None,
        }
    }

    /// The canonical CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            ObsMode::Off => "off",
            ObsMode::Counters => "counters",
            ObsMode::Full => "full",
        }
    }
}

/// One typed simulation event. Payloads hold only deterministic
/// simulation values; `&'static str` reasons keep records cheap to
/// clone and impossible to contaminate with wall-clock content.
#[derive(Debug, Clone, PartialEq)]
pub enum ObsEvent {
    /// The source produced a raw frame.
    FrameCaptured {
        /// Capture index of the frame.
        index: u64,
    },
    /// The encoder finished a frame.
    FrameEncoded {
        /// Capture index of the frame.
        index: u64,
        /// Encoded size in bytes.
        size_bytes: u64,
        /// Quantization parameter used.
        qp: f64,
        /// Encoder target bitrate at encode time (bps).
        target_bps: f64,
    },
    /// A packet was handed to the forward link.
    PacketSent {
        /// Transport sequence number.
        seq: u64,
        /// On-wire size in bytes (payload + header).
        size_bytes: u64,
    },
    /// A packet arrived at the receiver.
    PacketDelivered {
        /// Transport sequence number.
        seq: u64,
    },
    /// A packet was lost in transit.
    PacketDropped {
        /// Transport sequence number.
        seq: u64,
        /// Why: `queue` (drop-tail), `loss` (random), `chaos` (fault).
        reason: &'static str,
    },
    /// The sender accepted a transport-wide feedback report.
    FeedbackReceived {
        /// Report sequence number.
        report_seq: u64,
        /// Packets the report marked lost.
        lost: u64,
    },
    /// The sender's validator rejected an arriving feedback report
    /// before any estimator saw it (corrupted or forged control plane).
    FeedbackRejected {
        /// Report sequence number as claimed by the (possibly lying)
        /// report.
        report_seq: u64,
        /// Stable rejection reason (one of
        /// `ravel_net::REJECT_REASONS`).
        reason: &'static str,
    },
    /// The encoder target bitrate changed.
    TargetChanged {
        /// Previous target (bps).
        old_bps: f64,
        /// New target (bps).
        new_bps: f64,
        /// Who decided: a controller label or `watchdog`.
        reason: &'static str,
    },
    /// The receiver emitted a Picture Loss Indication.
    PliSent,
    /// The encoder produced an intra (keyframe) frame.
    KeyframeEmitted,
    /// The session clock entered a chaos fault segment.
    ChaosSegmentEntered {
        /// Fault kind name (e.g. `blackout`, `mtu-shrink`).
        kind: &'static str,
        /// Segment start.
        from: Time,
        /// Segment end.
        until: Time,
    },
    /// A session invariant was violated.
    InvariantViolated {
        /// Stable invariant name (e.g. `conservation`).
        name: &'static str,
        /// Deterministic detail string.
        detail: String,
    },
}

impl fmt::Display for ObsEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObsEvent::FrameCaptured { index } => write!(f, "FrameCaptured index={index}"),
            ObsEvent::FrameEncoded {
                index,
                size_bytes,
                qp,
                target_bps,
            } => write!(
                f,
                "FrameEncoded index={index} size={size_bytes}B qp={qp:.2} target={target_bps:.0}bps"
            ),
            ObsEvent::PacketSent { seq, size_bytes } => {
                write!(f, "PacketSent seq={seq} size={size_bytes}B")
            }
            ObsEvent::PacketDelivered { seq } => write!(f, "PacketDelivered seq={seq}"),
            ObsEvent::PacketDropped { seq, reason } => {
                write!(f, "PacketDropped seq={seq} reason={reason}")
            }
            ObsEvent::FeedbackReceived { report_seq, lost } => {
                write!(f, "FeedbackReceived report={report_seq} lost={lost}")
            }
            ObsEvent::FeedbackRejected { report_seq, reason } => {
                write!(f, "FeedbackRejected report={report_seq} reason={reason}")
            }
            ObsEvent::TargetChanged {
                old_bps,
                new_bps,
                reason,
            } => write!(f, "TargetChanged {old_bps:.0} -> {new_bps:.0} ({reason})"),
            ObsEvent::PliSent => write!(f, "PliSent"),
            ObsEvent::KeyframeEmitted => write!(f, "KeyframeEmitted"),
            ObsEvent::ChaosSegmentEntered { kind, from, until } => {
                write!(
                    f,
                    "ChaosSegmentEntered kind={kind} from={from} until={until}"
                )
            }
            ObsEvent::InvariantViolated { name, detail } => {
                write!(f, "InvariantViolated {name}: {detail}")
            }
        }
    }
}

impl ObsEvent {
    /// Stable event-kind name, used as the JSONL `event` field.
    pub fn kind(&self) -> &'static str {
        match self {
            ObsEvent::FrameCaptured { .. } => "frame-captured",
            ObsEvent::FrameEncoded { .. } => "frame-encoded",
            ObsEvent::PacketSent { .. } => "packet-sent",
            ObsEvent::PacketDelivered { .. } => "packet-delivered",
            ObsEvent::PacketDropped { .. } => "packet-dropped",
            ObsEvent::FeedbackReceived { .. } => "feedback-received",
            ObsEvent::FeedbackRejected { .. } => "feedback-rejected",
            ObsEvent::TargetChanged { .. } => "target-changed",
            ObsEvent::PliSent => "pli-sent",
            ObsEvent::KeyframeEmitted => "keyframe-emitted",
            ObsEvent::ChaosSegmentEntered { .. } => "chaos-segment-entered",
            ObsEvent::InvariantViolated { .. } => "invariant-violated",
        }
    }
}

/// A sim-time-stamped event record.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsRecord {
    /// Simulation time the event was observed.
    pub at: Time,
    /// The event itself.
    pub event: ObsEvent,
}

impl fmt::Display for ObsRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.at, self.event)
    }
}

/// Per-subsystem event tallies, maintained in `Counters` and `Full`
/// modes. All fields count events of the matching [`ObsEvent`] kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObsCounters {
    /// Frames captured from the source.
    pub frames_captured: u64,
    /// Frames the encoder produced.
    pub frames_encoded: u64,
    /// Intra (key) frames among them.
    pub keyframes: u64,
    /// Packets handed to the forward link.
    pub packets_sent: u64,
    /// Packets delivered to the receiver.
    pub packets_delivered: u64,
    /// Packets lost (queue + random + chaos).
    pub packets_dropped: u64,
    /// PLI messages emitted by the receiver.
    pub plis_sent: u64,
    /// Chaos fault segments entered.
    pub chaos_segments: u64,
    /// Feedback reports the sender accepted.
    pub feedback_received: u64,
    /// Feedback reports the sender's validator rejected.
    pub feedback_rejected: u64,
    /// Encoder target-bitrate changes.
    pub target_changes: u64,
    /// Invariant violations observed.
    pub invariant_violations: u64,
}

impl ObsCounters {
    fn bump(&mut self, event: &ObsEvent) {
        match event {
            ObsEvent::FrameCaptured { .. } => self.frames_captured += 1,
            ObsEvent::FrameEncoded { .. } => self.frames_encoded += 1,
            ObsEvent::KeyframeEmitted => self.keyframes += 1,
            ObsEvent::PacketSent { .. } => self.packets_sent += 1,
            ObsEvent::PacketDelivered { .. } => self.packets_delivered += 1,
            ObsEvent::PacketDropped { .. } => self.packets_dropped += 1,
            ObsEvent::PliSent => self.plis_sent += 1,
            ObsEvent::ChaosSegmentEntered { .. } => self.chaos_segments += 1,
            ObsEvent::FeedbackReceived { .. } => self.feedback_received += 1,
            ObsEvent::FeedbackRejected { .. } => self.feedback_rejected += 1,
            ObsEvent::TargetChanged { .. } => self.target_changes += 1,
            ObsEvent::InvariantViolated { .. } => self.invariant_violations += 1,
        }
    }

    /// Sum of all counters.
    pub fn total(&self) -> u64 {
        self.frames_captured
            + self.frames_encoded
            + self.keyframes
            + self.packets_sent
            + self.packets_delivered
            + self.packets_dropped
            + self.plis_sent
            + self.chaos_segments
            + self.feedback_received
            + self.feedback_rejected
            + self.target_changes
            + self.invariant_violations
    }
}

/// Where recorded events go.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum ObsSink {
    /// Store nothing (`Off` and `Counters` modes).
    #[default]
    None,
    /// Keep every event in order.
    Full(Vec<ObsRecord>),
}

impl ObsSink {
    fn push(&mut self, rec: ObsRecord) {
        match self {
            ObsSink::None => {}
            ObsSink::Full(v) => v.push(rec),
        }
    }
}

/// The session event log: mode, counters, and the configured sink.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ObsLog {
    mode: ObsMode,
    /// Per-subsystem tallies (zero in `Off` mode).
    pub counters: ObsCounters,
    sink: ObsSink,
    /// Events recorded, whether or not the sink stores them.
    recorded: u64,
}

impl ObsLog {
    /// A log for `mode`: `Full` gets a full-capture sink, the other
    /// modes store no events.
    pub fn new(mode: ObsMode) -> ObsLog {
        let sink = match mode {
            ObsMode::Full => ObsSink::Full(Vec::new()),
            ObsMode::Off | ObsMode::Counters => ObsSink::None,
        };
        ObsLog {
            mode,
            counters: ObsCounters::default(),
            sink,
            recorded: 0,
        }
    }

    /// The configured mode.
    pub fn mode(&self) -> ObsMode {
        self.mode
    }

    /// True unless the log is `Off`. Gate any work beyond a plain
    /// `record` call (payload precomputation, window scans) on this.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.mode != ObsMode::Off
    }

    /// Records one event at sim-time `at`. The payload closure is only
    /// evaluated when the log is enabled, so an `Off` log reduces to a
    /// single predictable branch on the hot path.
    #[inline]
    pub fn record(&mut self, at: Time, make: impl FnOnce() -> ObsEvent) {
        if self.mode == ObsMode::Off {
            return;
        }
        let event = make();
        self.counters.bump(&event);
        self.recorded += 1;
        if self.mode == ObsMode::Full {
            self.sink.push(ObsRecord { at, event });
        }
    }

    /// Total events recorded (independent of sink retention).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// The retained records, oldest first.
    pub fn events(&self) -> Vec<&ObsRecord> {
        match &self.sink {
            ObsSink::None => Vec::new(),
            ObsSink::Full(v) => v.iter().collect(),
        }
    }

    /// Renders the deterministic timeline digest for this log.
    ///
    /// Layout: a header with `label`, the per-subsystem counters, the
    /// first [`DIGEST_HEAD`] events, then up to [`DIGEST_ANCHORS`]
    /// anchor windows — &plusmn;[`DIGEST_CONTEXT`] events around each
    /// rate *cut* (`TargetChanged` with `new < old`) and each
    /// `InvariantViolated`. Pure function of the recorded events, so
    /// golden snapshots can compare it byte-for-byte.
    pub fn digest(&self, label: &str) -> String {
        use std::fmt::Write as _;
        let c = &self.counters;
        let mut out = String::new();
        let _ = writeln!(out, "== timeline digest: {label} ==");
        let _ = writeln!(out, "mode: {}", self.mode.name());
        let _ = writeln!(
            out,
            "pipeline: captured={} encoded={} keyframes={}",
            c.frames_captured, c.frames_encoded, c.keyframes
        );
        let _ = writeln!(
            out,
            "net: sent={} delivered={} dropped={} plis={} chaos-segments={}",
            c.packets_sent, c.packets_delivered, c.packets_dropped, c.plis_sent, c.chaos_segments
        );
        // The rejected counter renders only when nonzero so clean-run
        // digests (every golden snapshot predating corruption) stay
        // byte-identical.
        if c.feedback_rejected > 0 {
            let _ = writeln!(
                out,
                "cc: feedback={} rejected={} target-changes={}",
                c.feedback_received, c.feedback_rejected, c.target_changes
            );
        } else {
            let _ = writeln!(
                out,
                "cc: feedback={} target-changes={}",
                c.feedback_received, c.target_changes
            );
        }
        let _ = writeln!(out, "violations: {}", c.invariant_violations);
        let events = self.events();
        let _ = writeln!(
            out,
            "events: {} recorded, {} retained",
            self.recorded,
            events.len()
        );
        if events.is_empty() {
            return out;
        }
        let head = events.len().min(DIGEST_HEAD);
        let _ = writeln!(out, "first {head} events:");
        for rec in &events[..head] {
            let _ = writeln!(out, "  {rec}");
        }
        let anchors: Vec<usize> = events
            .iter()
            .enumerate()
            .filter(|(_, rec)| {
                matches!(
                    rec.event,
                    ObsEvent::TargetChanged { old_bps, new_bps, .. } if new_bps < old_bps
                ) || matches!(rec.event, ObsEvent::InvariantViolated { .. })
            })
            .map(|(i, _)| i)
            .collect();
        let shown = anchors.len().min(DIGEST_ANCHORS);
        let _ = writeln!(
            out,
            "anchors (rate cuts + violations): {} ({shown} shown)",
            anchors.len()
        );
        for (n, &i) in anchors.iter().take(DIGEST_ANCHORS).enumerate() {
            let lo = i.saturating_sub(DIGEST_CONTEXT);
            let hi = (i + DIGEST_CONTEXT + 1).min(events.len());
            let _ = writeln!(out, "anchor {}: {}", n + 1, events[i]);
            for (j, rec) in events[lo..hi].iter().enumerate() {
                let marker = if lo + j == i { ">" } else { " " };
                let _ = writeln!(out, "  {marker} {rec}");
            }
        }
        out
    }
}

/// Opening events shown by [`ObsLog::digest`].
pub const DIGEST_HEAD: usize = 8;
/// Maximum anchor windows shown by [`ObsLog::digest`].
pub const DIGEST_ANCHORS: usize = 3;
/// Events of context on each side of a digest anchor.
pub const DIGEST_CONTEXT: usize = 4;

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ms: u64) -> Time {
        Time::from_millis(ms)
    }

    #[test]
    fn mode_parses_cli_spellings() {
        assert_eq!(ObsMode::parse("off"), Some(ObsMode::Off));
        assert_eq!(ObsMode::parse("counters"), Some(ObsMode::Counters));
        assert_eq!(ObsMode::parse("full"), Some(ObsMode::Full));
        assert_eq!(ObsMode::parse("FULL"), None);
        assert_eq!(ObsMode::parse(""), None);
        for m in [ObsMode::Off, ObsMode::Counters, ObsMode::Full] {
            assert_eq!(ObsMode::parse(m.name()), Some(m));
        }
    }

    #[test]
    fn off_mode_never_evaluates_the_payload() {
        let mut log = ObsLog::new(ObsMode::Off);
        log.record(at(1), || panic!("payload built in Off mode"));
        assert!(!log.enabled());
        assert_eq!(log.recorded(), 0);
        assert_eq!(log.counters.total(), 0);
        assert!(log.events().is_empty());
    }

    #[test]
    fn counters_mode_tallies_without_storing() {
        let mut log = ObsLog::new(ObsMode::Counters);
        log.record(at(1), || ObsEvent::FrameCaptured { index: 0 });
        log.record(at(2), || ObsEvent::PacketSent {
            seq: 0,
            size_bytes: 1240,
        });
        log.record(at(3), || ObsEvent::PacketDelivered { seq: 0 });
        assert_eq!(log.counters.frames_captured, 1);
        assert_eq!(log.counters.packets_sent, 1);
        assert_eq!(log.counters.packets_delivered, 1);
        assert_eq!(log.recorded(), 3);
        assert!(log.events().is_empty());
    }

    #[test]
    fn full_mode_stores_in_order() {
        let mut log = ObsLog::new(ObsMode::Full);
        for i in 0..5u64 {
            log.record(at(i), || ObsEvent::FrameCaptured { index: i });
        }
        let ev = log.events();
        assert_eq!(ev.len(), 5);
        assert_eq!(ev[0].at, at(0));
        assert_eq!(ev[4].event, ObsEvent::FrameCaptured { index: 4 });
    }

    #[test]
    fn every_event_kind_bumps_exactly_one_counter() {
        let all = [
            ObsEvent::FrameCaptured { index: 0 },
            ObsEvent::FrameEncoded {
                index: 0,
                size_bytes: 1,
                qp: 30.0,
                target_bps: 1e6,
            },
            ObsEvent::PacketSent {
                seq: 0,
                size_bytes: 1,
            },
            ObsEvent::PacketDelivered { seq: 0 },
            ObsEvent::PacketDropped {
                seq: 0,
                reason: "queue",
            },
            ObsEvent::FeedbackReceived {
                report_seq: 0,
                lost: 0,
            },
            ObsEvent::FeedbackRejected {
                report_seq: 0,
                reason: "seq-warp",
            },
            ObsEvent::TargetChanged {
                old_bps: 2e6,
                new_bps: 1e6,
                reason: "feedback",
            },
            ObsEvent::PliSent,
            ObsEvent::KeyframeEmitted,
            ObsEvent::ChaosSegmentEntered {
                kind: "blackout",
                from: at(0),
                until: at(1),
            },
            ObsEvent::InvariantViolated {
                name: "conservation",
                detail: "x".into(),
            },
        ];
        let mut log = ObsLog::new(ObsMode::Counters);
        for (i, e) in all.iter().enumerate() {
            log.record(at(i as u64), || e.clone());
        }
        assert_eq!(log.counters.total(), all.len() as u64);
        // Kind names are unique (JSONL relies on them as discriminators).
        let mut kinds: Vec<&str> = all.iter().map(|e| e.kind()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), all.len());
    }

    #[test]
    fn display_is_stable() {
        let rec = ObsRecord {
            at: Time::from_micros(1_234_567),
            event: ObsEvent::TargetChanged {
                old_bps: 4_000_000.0,
                new_bps: 3_400_000.4,
                reason: "gcc-overuse",
            },
        };
        assert_eq!(
            rec.to_string(),
            "[1.234567] TargetChanged 4000000 -> 3400000 (gcc-overuse)"
        );
        let rec = ObsRecord {
            at: at(2),
            event: ObsEvent::FrameEncoded {
                index: 7,
                size_bytes: 5432,
                qp: 31.25,
                target_bps: 2_000_000.0,
            },
        };
        assert_eq!(
            rec.to_string(),
            "[0.002000] FrameEncoded index=7 size=5432B qp=31.25 target=2000000bps"
        );
    }

    #[test]
    fn digest_anchors_on_rate_cuts_and_violations() {
        let mut log = ObsLog::new(ObsMode::Full);
        for i in 0..20u64 {
            log.record(at(i), || ObsEvent::FrameCaptured { index: i });
        }
        log.record(at(20), || ObsEvent::TargetChanged {
            old_bps: 4e6,
            new_bps: 2e6,
            reason: "gcc-overuse",
        });
        // A rate *increase* is not an anchor.
        log.record(at(21), || ObsEvent::TargetChanged {
            old_bps: 2e6,
            new_bps: 3e6,
            reason: "gcc-normal",
        });
        log.record(at(22), || ObsEvent::InvariantViolated {
            name: "conservation",
            detail: "1 unaccounted".into(),
        });
        let d = log.digest("cell-x");
        assert!(d.starts_with("== timeline digest: cell-x ==\n"));
        assert!(d.contains("anchors (rate cuts + violations): 2 (2 shown)"));
        assert!(d.contains("anchor 1: [0.020000] TargetChanged 4000000 -> 2000000 (gcc-overuse)"));
        assert!(d.contains("anchor 2: [0.022000] InvariantViolated conservation: 1 unaccounted"));
        assert!(d.contains("first 8 events:"));
        // Digest is a pure function: same log renders identically.
        assert_eq!(d, log.digest("cell-x"));
    }

    #[test]
    fn rejected_counter_renders_only_when_nonzero() {
        let mut clean = ObsLog::new(ObsMode::Counters);
        clean.record(at(1), || ObsEvent::FeedbackReceived {
            report_seq: 0,
            lost: 0,
        });
        let d = clean.digest("c");
        assert!(d.contains("cc: feedback=1 target-changes=0\n"));
        assert!(!d.contains("rejected"));

        let mut dirty = ObsLog::new(ObsMode::Counters);
        dirty.record(at(1), || ObsEvent::FeedbackRejected {
            report_seq: 9,
            reason: "zero-size",
        });
        let d = dirty.digest("c");
        assert!(d.contains("cc: feedback=0 rejected=1 target-changes=0\n"));
    }

    #[test]
    fn digest_in_counters_mode_has_no_event_lines() {
        let mut log = ObsLog::new(ObsMode::Counters);
        log.record(at(5), || ObsEvent::PliSent);
        let d = log.digest("c");
        assert!(d.contains("plis=1"));
        assert!(d.contains("events: 1 recorded, 0 retained"));
        assert!(!d.contains("first "));
        assert!(!d.contains("anchor"));
    }
}
