//! # ravel-metrics — statistics and experiment tables
//!
//! Shared measurement machinery: streaming moments ([`RunningStats`]),
//! exact percentiles ([`Percentiles`]), per-frame latency accounting
//! ([`LatencyRecorder`]), and the fixed-width table / CSV renderers the
//! experiment harnesses print ([`Table`]).

#![warn(missing_docs)]

pub mod latency;
pub mod stats;
pub mod table;

pub use latency::{FrameOutcomeKind, FrameRecord, LatencyRecorder, LatencySummary};
pub use stats::{Percentiles, RunningStats};
pub use table::Table;
