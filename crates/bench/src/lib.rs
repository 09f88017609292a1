//! # ravel-bench — Criterion benches
//!
//! Three bench targets, all timing rather than table printing (the
//! experiment tables come from `cargo run --release -p ravel-harness --
//! -e eN`):
//!
//! * `e10_overhead` — per-call cost of the adaptive controller, the
//!   encoder and GCC;
//! * `single_session` — one full canonical-drop session end to end;
//! * `e18_multi_session` — population throughput of the interleaved
//!   multi-session kernel.
//!
//! [`common`] holds the serial session helpers they share.

#![warn(missing_docs)]

pub mod common;
