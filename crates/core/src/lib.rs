//! # ravel-core — the adaptive video encoder controller
//!
//! This crate is the paper's contribution: a sender-side controller that
//! makes the encoder adapt to *sudden network bandwidth drops* within
//! roughly one frame of the feedback arriving, instead of the seconds
//! the stock congestion-control + rate-control pipeline takes.
//!
//! ## Why the stock pipeline is slow
//!
//! After the bottleneck capacity falls, three lags stack up:
//!
//! 1. **Feedback lag** — the receiver's report must travel back (≥ one
//!    RTT). Nothing sender-side can beat this; E5 sweeps it.
//! 2. **Congestion-control lag** — GCC needs sustained trendline
//!    evidence and then steps down 0.85× per decision (`ravel-cc`).
//! 3. **Encoder lag** — even once the target drops, x264-style ABR
//!    converges over its windowed accumulators and a stale VBV keeps
//!    admitting oversized frames (`ravel-codec`).
//!
//! ## What this controller does
//!
//! * [`DropDetector`] watches raw transport feedback directly — one-way
//!   delay vs. a windowed minimum, plus delivered-rate discontinuity —
//!   and fires a [`DropSignal`] with a capacity estimate as soon as the
//!   first post-drop report lands, without waiting for GCC.
//! * [`AdaptiveController`] then drives the encoder's fast
//!   reconfiguration path:
//!   - `fast_reconfigure(α·C)` — reseed rate control + rescale VBV,
//!   - per-frame budget override solved through the encoder's own R–D
//!     model (compression efficiency is preserved by construction),
//!   - optional frame skipping while the bottleneck backlog drains,
//!   - optional resolution-ladder step-down when the budget would force
//!     QP past the quality ceiling,
//!
//!   and hands control back to GCC once the queue has drained
//!   (`Drain → Recover → Steady`).
//!
//! Reseeding rate control (the fast-QP path) is always on: it is the
//! mechanism itself. VBV rescaling, frame skipping and the resolution
//! ladder each have an enable flag in [`AdaptiveConfig`] so E7 can
//! ablate them; its other fields pick the control mode (E15) and turn
//! on recovery probing (E16). Every threshold is a constant.
//!
//! * [`FeedbackWatchdog`] covers the failure mode the detector cannot:
//!   feedback that never arrives. When the reverse path goes dark it
//!   backs the target off exponentially toward a floor (the controller's
//!   `Degraded` phase), and hands control back through `Recover` when
//!   reports resume.

#![warn(missing_docs)]

pub mod config;
pub mod controller;
pub mod detector;
pub mod watchdog;

pub use config::AdaptiveConfig;
pub use controller::{AdaptiveController, ControllerPhase, FrameDecision};
pub use detector::{DropDetector, DropSignal};
pub use watchdog::{FeedbackWatchdog, WatchdogConfig};
