//! # ravel-trace — network bandwidth traces
//!
//! The poster's subject is the *sudden bandwidth drop*: the bottleneck
//! capacity falls by 2–8× within one RTT, long before the sender's
//! congestion controller or encoder can react. This crate supplies the
//! capacity processes the experiments run over:
//!
//! * [`ConstantTrace`] — a fixed-rate link (sanity baselines).
//! * [`StepTrace`] — piecewise-constant capacity from explicit
//!   breakpoints; [`StepTrace::sudden_drop`] builds the canonical
//!   E1 "4 Mbps → 1 Mbps at t=10 s" shape.
//! * [`OscillatingTrace`] — square- or sine-wave capacity for
//!   oscillation/convergence tests.
//! * [`StochasticTrace`] — a seeded Markov-modulated process reproducing
//!   the statistics of cellular (LTE-like) capacity series: sticky states
//!   with occasional deep fades. The path is *precomputed* at
//!   construction, so queries are pure functions of time and every run
//!   replays exactly.
//! * [`FileTrace`] — `(seconds, bits-per-second)` samples loaded from a
//!   JSON file, for replaying externally captured traces.
//!
//! Combinators ([`Scaled`], [`Clamped`], [`Shifted`], [`MinOf`]) compose
//! traces without allocation at query time.
//!
//! All rates are in bits per second (`f64`); all queries take a
//! [`ravel_sim::Time`] and are `O(log n)` or better.

#![warn(missing_docs)]

pub mod combinators;
pub mod file;
pub mod json;
pub mod oscillating;
pub mod step;
pub mod stochastic;

pub use combinators::{Clamped, MinOf, Scaled, Shifted};
pub use file::{FileTrace, TraceFileError};
pub use oscillating::{OscillatingTrace, Waveform};
pub use step::{ConstantTrace, StepTrace};
pub use stochastic::{CellularProfile, StochasticTrace};

use ravel_sim::{Dur, Time};

/// A bottleneck-capacity process: bits per second as a function of time.
///
/// Implementations must be pure: the same `at` always returns the same
/// rate. Stochastic traces achieve this by sampling their whole path up
/// front from a seed.
///
/// # Constant spans
///
/// [`rate_span`](BandwidthTrace::rate_span) lets a consumer that walks
/// time forward (the bottleneck link's serializer) look the rate up once
/// per constant stretch instead of once per step. `rate_span(at)`
/// returns `(r, until)` with:
///
/// * `until > at`;
/// * `r` equal to `rate_bps(at)` bit for bit;
/// * `rate_bps(s) == r` for every `s` in `[at, until)`.
///
/// `until` may end a span early (at a breakpoint where the rate happens
/// not to change) but never late. The default promises nothing beyond
/// `at` itself — a one-microsecond span — so it is always correct, and
/// a trace that does not override it costs one `rate_bps` call per step
/// as before. Piecewise-constant traces override it.
pub trait BandwidthTrace {
    /// Capacity in bits per second at instant `at`. Must be finite and
    /// non-negative.
    fn rate_bps(&self, at: Time) -> f64;

    /// The rate at `at` and the first instant after `at` at which the
    /// rate may change (see *Constant spans* above).
    fn rate_span(&self, at: Time) -> (f64, Time) {
        (self.rate_bps(at), at + Dur::MICRO)
    }

    /// The mean rate over `[from, from + span)`, approximated by sampling
    /// at `step` intervals. Implementations with closed forms may
    /// override.
    fn mean_rate_bps(&self, from: Time, span: Dur, step: Dur) -> f64 {
        assert!(!step.is_zero(), "mean_rate_bps: zero step");
        let mut t = from;
        let end = from + span;
        let mut sum = 0.0;
        let mut n = 0u64;
        while t < end {
            sum += self.rate_bps(t);
            n += 1;
            t += step;
        }
        if n == 0 {
            self.rate_bps(from)
        } else {
            sum / n as f64
        }
    }

    /// Wraps `self` so that all rates are multiplied by `factor`.
    fn scaled(self, factor: f64) -> Scaled<Self>
    where
        Self: Sized,
    {
        Scaled::new(self, factor)
    }

    /// Wraps `self` so that rates are clamped into `[lo, hi]`.
    fn clamped(self, lo: f64, hi: f64) -> Clamped<Self>
    where
        Self: Sized,
    {
        Clamped::new(self, lo, hi)
    }

    /// Wraps `self` shifted later in time by `offset` (the trace's t=0
    /// maps to simulation time `offset`; earlier queries see the t=0 rate).
    fn shifted(self, offset: Dur) -> Shifted<Self>
    where
        Self: Sized,
    {
        Shifted::new(self, offset)
    }
}

/// Blanket impl so `&T` traces compose.
impl<T: BandwidthTrace + ?Sized> BandwidthTrace for &T {
    fn rate_bps(&self, at: Time) -> f64 {
        (**self).rate_bps(at)
    }

    fn rate_span(&self, at: Time) -> (f64, Time) {
        (**self).rate_span(at)
    }
}

/// Blanket impl so boxed trait objects are traces too.
impl<T: BandwidthTrace + ?Sized> BandwidthTrace for Box<T> {
    fn rate_bps(&self, at: Time) -> f64 {
        (**self).rate_bps(at)
    }

    fn rate_span(&self, at: Time) -> (f64, Time) {
        (**self).rate_span(at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blanket_impls_delegate() {
        let c = ConstantTrace::new(2e6);
        let r: &dyn BandwidthTrace = &c;
        assert_eq!(r.rate_bps(Time::ZERO), 2e6);
        let b: Box<dyn BandwidthTrace> = Box::new(ConstantTrace::new(3e6));
        assert_eq!(b.rate_bps(Time::from_secs(5)), 3e6);
    }

    #[test]
    fn default_mean_rate_samples() {
        let t = StepTrace::sudden_drop(4e6, 1e6, Time::from_secs(10));
        // Over [5s, 15s): 5s at 4 Mbps then 5s at 1 Mbps -> mean 2.5 Mbps.
        let mean = t.mean_rate_bps(Time::from_secs(5), Dur::secs(10), Dur::millis(100));
        assert!((mean - 2.5e6).abs() < 0.05e6, "mean {mean}");
    }

    /// Checks the span contract at `at`, then at the start of each of the
    /// next `spans − 1` spans, so breakpoints themselves get probed: each
    /// span is non-empty, its rate is `rate_bps` at its start bit for
    /// bit, and that rate holds at nine evenly spaced instants from the
    /// start through `until − 1 µs`.
    fn span_contract_holds<T: BandwidthTrace + ?Sized>(
        trace: &T,
        mut at: Time,
        spans: usize,
    ) -> Result<(), String> {
        for _ in 0..spans {
            let (rate, until) = trace.rate_span(at);
            if until <= at {
                return Err(format!("empty span at {at:?}: until {until:?}"));
            }
            let last = until.as_micros() - 1;
            let width = u128::from(last - at.as_micros());
            for k in 0..=8u128 {
                let s = Time::from_micros(at.as_micros() + (width * k / 8) as u64);
                let got = trace.rate_bps(s);
                if got.to_bits() != rate.to_bits() {
                    return Err(format!(
                        "span [{at:?}, {until:?}) claims {rate} bps, but rate_bps({s:?}) = {got}"
                    ));
                }
            }
            if until == Time::FAR_FUTURE {
                break;
            }
            at = until;
        }
        Ok(())
    }

    /// Every trace kind, built from `seed`; `offset` shifts the shifted
    /// ones.
    fn span_traces(seed: u64, offset: Dur) -> Vec<(&'static str, Box<dyn BandwidthTrace>)> {
        let mut rng = ravel_sim::Rng::seed_from_u64(seed);
        let mut points = vec![(Time::ZERO, 4e6)];
        let mut t = Time::ZERO;
        for _ in 0..20 {
            t += Dur::micros(1 + rng.below(5_000_000));
            // Rates repeat now and then, so some breakpoints change nothing.
            points.push((t, [0.0, 0.5e6, 1e6, 4e6][rng.below(4) as usize]));
        }
        let step = StepTrace::new(points);
        let lte = StochasticTrace::generate(&CellularProfile::lte_like(), Dur::secs(60), seed);
        let samples: Vec<(f64, f64)> = (0..50)
            .map(|i| (i as f64 * 0.25, 1e6 + (rng.below(8) as f64) * 0.5e6))
            .collect();
        let file = FileTrace::from_samples("span", &samples).expect("valid samples");
        vec![
            ("constant", Box::new(ConstantTrace::new(2e6))),
            ("dead", Box::new(ConstantTrace::new(0.0))),
            ("step", Box::new(step.clone())),
            ("stochastic", Box::new(lte.clone())),
            ("file", Box::new(file)),
            ("scaled", Box::new(lte.clone().scaled(0.7))),
            ("clamped", Box::new(step.clone().clamped(0.6e6, 3e6))),
            ("shifted-step", Box::new(step.clone().shifted(offset))),
            (
                "shifted-constant",
                Box::new(ConstantTrace::new(1e6).shifted(offset)),
            ),
            ("min-of", Box::new(MinOf::new(step.clone(), lte.clone()))),
            (
                "oscillating",
                Box::new(OscillatingTrace::new(
                    1e6,
                    4e6,
                    Dur::millis(700),
                    Waveform::Square,
                )),
            ),
            (
                "nested",
                Box::new(
                    MinOf::new(lte, ConstantTrace::new(3e6))
                        .scaled(1.5)
                        .clamped(0.5e6, 5e6)
                        .shifted(offset),
                ),
            ),
        ]
    }

    #[test]
    fn spans_end_at_breakpoints() {
        let t = StepTrace::new(vec![
            (Time::from_secs(1), 4e6),
            (Time::from_secs(10), 1e6),
            (Time::from_secs(30), 1e6),
        ]);
        // Before the first breakpoint the first rate holds up to it.
        assert_eq!(t.rate_span(Time::ZERO), (4e6, Time::from_secs(1)));
        assert_eq!(t.rate_span(Time::from_secs(1)), (4e6, Time::from_secs(10)));
        assert_eq!(
            t.rate_span(Time::from_micros(9_999_999)),
            (4e6, Time::from_secs(10))
        );
        // A breakpoint that keeps the rate still ends the span (early
        // is allowed, late is not); the last span runs forever.
        assert_eq!(t.rate_span(Time::from_secs(10)), (1e6, Time::from_secs(30)));
        assert_eq!(t.rate_span(Time::from_secs(30)), (1e6, Time::FAR_FUTURE));
        assert_eq!(
            ConstantTrace::new(2e6).rate_span(Time::from_secs(7)),
            (2e6, Time::FAR_FUTURE)
        );
    }

    #[test]
    fn shifted_span_saturates_and_covers_the_lead_in() {
        let offset = Dur::secs(5);
        // An inner span ending at FAR_FUTURE stays there.
        let c = ConstantTrace::new(1e6).shifted(offset);
        assert_eq!(c.rate_span(Time::from_secs(2)), (1e6, Time::FAR_FUTURE));
        assert_eq!(c.rate_span(Time::from_secs(9)), (1e6, Time::FAR_FUTURE));
        // Before the offset every query sees the inner t=0 span.
        let s = StepTrace::sudden_drop(4e6, 1e6, Time::from_secs(10)).shifted(offset);
        assert_eq!(s.rate_span(Time::from_secs(2)), (4e6, Time::from_secs(15)));
        assert_eq!(s.rate_span(Time::from_secs(15)), (1e6, Time::FAR_FUTURE));
    }

    #[test]
    fn default_span_is_one_microsecond() {
        let t = OscillatingTrace::new(1e6, 4e6, Dur::secs(1), Waveform::Sine);
        let at = Time::from_millis(250);
        assert_eq!(t.rate_span(at), (t.rate_bps(at), at + Dur::MICRO));
    }

    proptest::proptest! {
        /// Every trace kind keeps the span contract from random instants
        /// on, across the next few span edges, directly and through `&T`.
        #[test]
        fn every_trace_keeps_the_span_contract(
            at_us in 0u64..80_000_000,
            seed in 0u64..1_000,
            offset_ms in 0u64..20_000,
        ) {
            let at = Time::from_micros(at_us);
            for (name, trace) in span_traces(seed, Dur::millis(offset_ms)) {
                let by_ref: &dyn BandwidthTrace = &*trace;
                for result in [
                    span_contract_holds(&trace, at, 4),
                    span_contract_holds(&by_ref, at, 4),
                ] {
                    proptest::prop_assert!(result.is_ok(), "{name}: {}", result.unwrap_err());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "zero step")]
    fn mean_rate_zero_step_panics() {
        // StepTrace uses the default mean_rate_bps implementation, which
        // guards against a zero sampling step. (ConstantTrace overrides it
        // with a closed form and never samples.)
        StepTrace::sudden_drop(2.0, 1.0, Time::from_secs(1)).mean_rate_bps(
            Time::ZERO,
            Dur::SECOND,
            Dur::ZERO,
        );
    }
}
