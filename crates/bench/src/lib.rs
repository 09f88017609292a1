//! # ravel-bench — Criterion benches
//!
//! Two bench targets, both timing rather than table printing (the
//! experiment tables come from `cargo run --release -p ravel-harness --
//! -e eN`):
//!
//! * `e10_overhead` — per-call cost of the adaptive controller, the
//!   encoder and GCC;
//! * `single_session` — one full canonical-drop session end to end.
//!
//! [`common`] holds the session helper `single_session` uses.

#![warn(missing_docs)]

pub mod common;
