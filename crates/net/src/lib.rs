//! # ravel-net — the RTC transport substrate
//!
//! Everything between the encoder's output and the decoder's input:
//!
//! * [`packet`] — RTP-like packets with transport-wide sequence numbers.
//! * [`packetize`] — MTU fragmentation of encoded frames and receiver-side
//!   frame reassembly.
//! * [`pacer`] — the WebRTC-style leaky-bucket pacer that smooths frame
//!   bursts onto the wire at a multiple of the target rate.
//! * [`link`] — the bottleneck: a drop-tail queue in front of a
//!   time-varying-capacity serializer, plus propagation delay, optional
//!   jitter, and random loss. The queueing delay this link develops when
//!   the encoder overshoots *is* the latency spike the paper measures.
//! * [`feedback`] — transport-wide congestion-control feedback
//!   (RFC 8888-style): the receiver periodically reports per-packet
//!   arrival times back to the sender; both GCC and the adaptive
//!   controller consume these reports.
//! * [`rtx`] — NACK-driven retransmission: receiver-side gap detection
//!   and a sender-side packet history, so random wireless loss is
//!   repaired in one RTT instead of a PLI + keyframe round.
//! * [`fec`] — FlexFEC-style XOR parity: one parity packet per group
//!   recovers any single loss with zero round-trips, at a constant
//!   bitrate overhead.
//! * [`impair`] — reverse-path (receiver → sender) fault injection:
//!   seeded i.i.d. and Gilbert–Elliott loss, jitter-induced reordering,
//!   duplication, and scheduled blackouts applied to feedback, NACKs,
//!   and PLIs.
//! * [`pli`] — receiver-side Picture Loss Indication with exponential
//!   retry until a post-request keyframe actually arrives.
//! * [`chaos`] — forward-path chaos injection: seeded multi-fault
//!   timelines (burst loss, blackouts, capacity collapse, reordering,
//!   duplication, MTU shrink) reproducible from `(seed, intensity)`.
//! * [`schedule`] — the seeded fault-segment timeline both fault planes
//!   share: generation, reproducer printing and exact parsing, generic
//!   over the plane's segment kind.
//! * [`corrupt`] — control-plane corruption: seeded field-level
//!   mutation of in-flight feedback (seq replay/warp, time warps,
//!   forged/truncated packet vectors, size bombs) plus the sender-side
//!   [`FeedbackValidator`] that sanitizes every report before the
//!   congestion controller sees it.
//!
//! The link is modelled analytically (delivery times computed at send
//! time against the capacity trace) rather than with per-byte events;
//! this is exact for piecewise-constant traces sampled at ≥1 ms and keeps
//! experiments fast and deterministic.

#![warn(missing_docs)]

pub mod chaos;
pub mod corrupt;
pub mod fec;
pub mod feedback;
pub mod impair;
pub mod link;
pub mod pacer;
pub mod packet;
pub mod packetize;
pub mod pli;
pub mod rtx;
pub mod schedule;

pub use chaos::{ChaosSchedule, ChaosSpec, ChaosTrace, FaultKind, FaultSegment, ForwardChaos};
pub use corrupt::{
    CorruptKind, CorruptMode, CorruptSchedule, CorruptSegment, CorruptSpec, FeedbackCorruptor,
    FeedbackValidator, REJECT_REASONS,
};
pub use fec::{FecDecoder, FecEncoder};
pub use feedback::{FeedbackBuilder, FeedbackReport, PacketResult};
pub use impair::{Blackout, GilbertElliott, ReversePath, ReversePathConfig};
pub use link::{Delivery, Link, LinkConfig};
pub use pacer::Pacer;
pub use packet::{MediaKind, Packet};
pub use packetize::{FrameAssembler, Packetizer, ReassembledFrame};
pub use pli::PliRequester;
pub use rtx::{NackBatch, NackGenerator, RtxBuffer};
pub use schedule::{Schedule, Segment, SegmentKind};
