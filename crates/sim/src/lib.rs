//! # ravel-sim — deterministic discrete-event simulation kernel
//!
//! The ravel RTC stack is evaluated in simulation: every experiment must be
//! exactly reproducible from a seed, so the kernel is built around three
//! deliberately boring pieces:
//!
//! * [`Time`] / [`Dur`] — integer-microsecond instants and durations.
//!   Floating-point clocks drift and compare non-deterministically; integer
//!   microseconds are exact, cheap, and fine-grained enough for per-packet
//!   events on multi-Gbps links.
//! * [`EventQueue`] — a monotonic priority queue with FIFO tie-breaking, so
//!   two events scheduled for the same instant always pop in insertion
//!   order regardless of heap internals.
//! * [`Rng`] — a self-contained xoshiro256** generator. We do not depend on
//!   `StdRng` for simulation state because its algorithm may change between
//!   `rand` releases; the experiments in EXPERIMENTS.md must replay bit-for-bit.
//!
//! The kernel is synchronous and single-threaded on purpose. The session
//! coding guides' tokio tutorial is explicit that an async runtime buys
//! nothing for CPU-bound work, and the smoltcp guide's "simplicity and
//! robustness" design goals are the idiom we follow: event-driven, no
//! hidden allocation, extensively documented.

#![warn(missing_docs)]

pub mod event;
pub mod rng;
pub mod series;
pub mod time;

pub use event::{EventQueue, Scheduled};
pub use rng::Rng;
pub use series::{SeriesSet, TimeSeries};
pub use time::{Dur, Time};
