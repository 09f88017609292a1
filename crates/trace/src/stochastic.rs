//! Seeded stochastic capacity traces with cellular-like statistics.
//!
//! Real RTC sessions ride on cellular or Wi-Fi links whose capacity is a
//! *sticky* random process: long stretches near a nominal rate, punctuated
//! by deep fades (handover, shadowing, contention) — exactly the sudden
//! drops the paper targets. [`StochasticTrace`] models this with a
//! Markov-modulated process: a small set of capacity states with dwell
//! times, plus multiplicative short-term noise.
//!
//! The whole path is sampled at construction from a seed, so
//! [`BandwidthTrace::rate_bps`] queries are pure and O(log n), and every
//! experiment replays bit-for-bit from its recorded seed.

use ravel_sim::{Dur, Rng, Time};

use crate::{BandwidthTrace, StepTrace};

/// Parameters of the Markov capacity model.
#[derive(Debug, Clone, PartialEq)]
pub struct CellularProfile {
    /// Capacity states in bits per second (e.g. good / degraded / fade).
    pub states_bps: Vec<f64>,
    /// Mean dwell time in each state (exponential); same length as
    /// `states_bps`.
    pub mean_dwell: Vec<Dur>,
    /// Row-stochastic transition matrix (self-transitions allowed but
    /// wasteful); `probs[i][j]` is P(next = j | current = i).
    pub transition: Vec<Vec<f64>>,
    /// Std-dev of multiplicative log-normal-ish noise applied per sample
    /// (0 disables noise).
    pub noise_rel_std: f64,
    /// Sample spacing of the precomputed path.
    pub sample_every: Dur,
}

impl CellularProfile {
    /// An LTE-like profile: mostly a 4 Mbps "good" state, a 2 Mbps
    /// "degraded" state, and a 0.8 Mbps "fade" state, with dwell times of
    /// a few seconds — the regime in which encoder-side adaptation matters.
    pub fn lte_like() -> CellularProfile {
        CellularProfile {
            states_bps: vec![4e6, 2e6, 0.8e6],
            mean_dwell: vec![Dur::secs(8), Dur::secs(3), Dur::secs(2)],
            transition: vec![
                vec![0.0, 0.7, 0.3],
                vec![0.6, 0.0, 0.4],
                vec![0.7, 0.3, 0.0],
            ],
            noise_rel_std: 0.05,
            sample_every: Dur::millis(100),
        }
    }

    /// A Wi-Fi-like profile: higher nominal rate, shallower but more
    /// frequent dips from contention.
    pub fn wifi_like() -> CellularProfile {
        CellularProfile {
            states_bps: vec![8e6, 5e6, 2.5e6],
            mean_dwell: vec![Dur::secs(5), Dur::secs(2), Dur::millis(1500)],
            transition: vec![
                vec![0.0, 0.8, 0.2],
                vec![0.7, 0.0, 0.3],
                vec![0.5, 0.5, 0.0],
            ],
            noise_rel_std: 0.08,
            sample_every: Dur::millis(100),
        }
    }

    fn validate(&self) {
        assert!(
            !self.states_bps.is_empty(),
            "CellularProfile: no capacity states"
        );
        for (i, &s) in self.states_bps.iter().enumerate() {
            assert!(
                s.is_finite() && s > 0.0,
                "CellularProfile: state {i} rate {s} is not a positive finite rate"
            );
        }
        assert_eq!(
            self.states_bps.len(),
            self.mean_dwell.len(),
            "CellularProfile: dwell/state length mismatch"
        );
        assert_eq!(
            self.states_bps.len(),
            self.transition.len(),
            "CellularProfile: transition/state length mismatch"
        );
        for (i, row) in self.transition.iter().enumerate() {
            assert_eq!(
                row.len(),
                self.states_bps.len(),
                "CellularProfile: transition row {i} wrong length"
            );
            let sum: f64 = row.iter().sum();
            assert!(
                (sum - 1.0).abs() < 1e-9 || self.states_bps.len() == 1,
                "CellularProfile: transition row {i} sums to {sum}"
            );
        }
        assert!(
            !self.sample_every.is_zero(),
            "CellularProfile: zero sample step"
        );
    }
}

/// A precomputed stochastic capacity path.
///
/// ```
/// use ravel_sim::{Dur, Time};
/// use ravel_trace::{BandwidthTrace, CellularProfile, StochasticTrace};
///
/// let trace = StochasticTrace::generate(
///     &CellularProfile::lte_like(), Dur::secs(60), 42);
/// let rate = trace.rate_bps(Time::from_secs(30));
/// assert!(rate > 0.0);
/// // Same seed, same path — always.
/// let again = StochasticTrace::generate(
///     &CellularProfile::lte_like(), Dur::secs(60), 42);
/// assert_eq!(rate, again.rate_bps(Time::from_secs(30)));
/// ```
#[derive(Debug, Clone)]
pub struct StochasticTrace {
    /// The sampled path as a step trace (O(log n) lookup, pure queries).
    path: StepTrace,
    seed: u64,
}

impl StochasticTrace {
    /// Samples a path of length `duration` from `profile` using `seed`.
    /// Queries beyond `duration` hold the final sample.
    pub fn generate(profile: &CellularProfile, duration: Dur, seed: u64) -> StochasticTrace {
        profile.validate();
        let mut rng = Rng::substream(seed, 0xB44D);
        let mut state = 0usize;
        let mut state_until = Time::ZERO + sample_dwell(&mut rng, profile.mean_dwell[state]);

        let mut points = Vec::new();
        let mut t = Time::ZERO;
        let end = Time::ZERO + duration;
        while t < end {
            while t >= state_until {
                state = next_state(&mut rng, &profile.transition[state]);
                state_until += sample_dwell(&mut rng, profile.mean_dwell[state]);
            }
            let base = profile.states_bps[state];
            let noisy = if profile.noise_rel_std > 0.0 {
                (base * (1.0 + profile.noise_rel_std * rng.normal())).max(base * 0.2)
            } else {
                base
            };
            points.push((t, noisy));
            t += profile.sample_every;
        }
        StochasticTrace {
            path: StepTrace::new(points),
            seed,
        }
    }

    /// The seed this path was generated from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The underlying sampled step path.
    pub fn path(&self) -> &StepTrace {
        &self.path
    }
}

fn sample_dwell(rng: &mut Rng, mean: Dur) -> Dur {
    // Exponential dwell, floored at one sample so states are observable.
    Dur::from_secs_f64(rng.exponential(mean.as_secs_f64())).max(Dur::millis(100))
}

fn next_state(rng: &mut Rng, row: &[f64]) -> usize {
    if row.len() == 1 {
        return 0;
    }
    let u = rng.uniform();
    let mut acc = 0.0;
    for (j, &p) in row.iter().enumerate() {
        acc += p;
        if u < acc {
            return j;
        }
    }
    row.len() - 1
}

impl BandwidthTrace for StochasticTrace {
    fn rate_bps(&self, at: Time) -> f64 {
        self.path.rate_bps(at)
    }

    fn rate_span(&self, at: Time) -> (f64, Time) {
        self.path.rate_span(at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_path() {
        let p = CellularProfile::lte_like();
        let a = StochasticTrace::generate(&p, Dur::secs(60), 7);
        let b = StochasticTrace::generate(&p, Dur::secs(60), 7);
        for s in (0..60_000).step_by(37) {
            let t = Time::from_millis(s);
            assert_eq!(a.rate_bps(t), b.rate_bps(t));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let p = CellularProfile::lte_like();
        let a = StochasticTrace::generate(&p, Dur::secs(60), 1);
        let b = StochasticTrace::generate(&p, Dur::secs(60), 2);
        let diffs = (0..600)
            .filter(|&i| {
                let t = Time::from_millis(i * 100);
                a.rate_bps(t) != b.rate_bps(t)
            })
            .count();
        assert!(diffs > 300, "only {diffs} samples differ");
    }

    #[test]
    fn rates_stay_positive_and_bounded() {
        let p = CellularProfile::lte_like();
        let t = StochasticTrace::generate(&p, Dur::secs(120), 3);
        for s in 0..1200 {
            let r = t.rate_bps(Time::from_millis(s * 100));
            assert!(r > 0.0, "non-positive rate {r}");
            assert!(r < 4e6 * 1.5, "implausible rate {r}");
        }
    }

    #[test]
    fn visits_multiple_states() {
        let p = CellularProfile::lte_like();
        let t = StochasticTrace::generate(&p, Dur::secs(300), 11);
        // Classify samples by nearest nominal state; all three states
        // should appear in a 5-minute path.
        let mut seen = [false; 3];
        for s in 0..3000 {
            let r = t.rate_bps(Time::from_millis(s * 100));
            let (idx, _) = p
                .states_bps
                .iter()
                .enumerate()
                .min_by(|a, b| (a.1 - r).abs().total_cmp(&(b.1 - r).abs()))
                .unwrap();
            seen[idx] = true;
        }
        assert_eq!(seen, [true, true, true]);
    }

    #[test]
    fn holds_final_sample_beyond_duration() {
        let p = CellularProfile::wifi_like();
        let t = StochasticTrace::generate(&p, Dur::secs(10), 5);
        let at_end = t.rate_bps(Time::from_millis(9_900));
        assert_eq!(t.rate_bps(Time::from_secs(100)), at_end);
    }

    #[test]
    #[should_panic(expected = "transition row 0 sums")]
    fn bad_transition_matrix_panics() {
        let mut p = CellularProfile::lte_like();
        p.transition[0][1] = 0.2; // row no longer sums to 1
        StochasticTrace::generate(&p, Dur::secs(1), 0);
    }

    #[test]
    #[should_panic(expected = "state 1 rate NaN")]
    fn nan_state_rate_is_rejected_up_front() {
        // Regression: a NaN capacity state used to survive validation
        // and only blow up later in float comparisons (an opaque
        // `partial_cmp().unwrap()` panic); now it is rejected at
        // construction with a message naming the bad state.
        let mut p = CellularProfile::lte_like();
        p.states_bps[1] = f64::NAN;
        StochasticTrace::generate(&p, Dur::secs(1), 0);
    }

    #[test]
    #[should_panic(expected = "state 0 rate inf")]
    fn infinite_state_rate_is_rejected_up_front() {
        let mut p = CellularProfile::lte_like();
        p.states_bps[0] = f64::INFINITY;
        StochasticTrace::generate(&p, Dur::secs(1), 0);
    }

    #[test]
    fn nearest_state_classification_is_total_on_nan() {
        // The classifier used by these tests must not panic even when a
        // distance is NaN (total_cmp orders NaN instead of unwrapping).
        let states = [4e6, 2e6, f64::NAN];
        let r = 3.9e6;
        let (idx, _) = states
            .iter()
            .enumerate()
            .min_by(|a, b| (a.1 - r).abs().total_cmp(&(b.1 - r).abs()))
            .unwrap();
        assert_eq!(idx, 0);
    }

    #[test]
    fn wifi_profile_validates() {
        let p = CellularProfile::wifi_like();
        let t = StochasticTrace::generate(&p, Dur::secs(30), 9);
        assert!(t.path().points().len() > 100);
        assert_eq!(t.seed(), 9);
    }
}
