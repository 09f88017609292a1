//! # ravel-pipeline — the end-to-end RTC session
//!
//! Wires every substrate into one deterministic discrete-event session:
//!
//! ```text
//! VideoSource → [AdaptiveController?] → Encoder → Packetizer → Pacer
//!      → Link (bottleneck: queue + capacity trace + propagation)
//!      → FrameAssembler → display accounting (→ Decoder model)
//!      ↖ FeedbackBuilder ← per-packet arrivals
//!        (reports return over the reverse path → GCC → controller)
//! ```
//!
//! One call to [`run_session`] produces a [`SessionResult`] holding the
//! per-frame latency/quality records and optional time series — the raw
//! material for every table and figure in EXPERIMENTS.md. Everything
//! beyond the plain run — explicit fault schedules, observability, a
//! cancellable guard, a reused workspace — is a [`RunSpec`] handed to
//! the one kernel, [`run_spec`]. Inside, a session is a sender, the
//! network path and a receiver, each in its own module; the kernel's
//! dispatch only routes events between them.
//!
//! The **baseline** scheme is GCC driving the encoder through the
//! production slow path (`set_target_bitrate`); the **adaptive** scheme
//! inserts `ravel-core`'s controller in between. Everything else —
//! content, codec, pacing, link, feedback timing, seeds — is identical
//! across schemes, so measured deltas are attributable to the paper's
//! mechanism alone.

#![warn(missing_docs)]

pub mod contracts;
pub mod invariants;
mod path;
mod queue;
mod receiver;
pub mod scheme;
mod sender;
pub mod session;

pub use contracts::{all_pass, evaluate, ContractSpec, ContractVerdict};
pub use invariants::{Invariant, InvariantChecker, InvariantViolation};
pub use scheme::{CcKind, Scheme};
pub use session::{
    run_session, run_spec, InjectedFault, KernelWorkspace, RunSpec, SessionConfig, SessionGuard,
    SessionResult,
};
