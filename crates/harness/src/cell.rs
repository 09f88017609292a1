//! The unit of parallel work: one `(scheme, trace, content, seed)`
//! session, labelled for deterministic aggregation.

use ravel_pipeline::{ContractSpec, RunSpec, SessionConfig};
use ravel_sim::{Dur, Time};
use ravel_trace::{BandwidthTrace, CellularProfile, ConstantTrace, StepTrace, StochasticTrace};

/// A self-contained, `Send`-able description of a bandwidth trace.
///
/// Sessions run on worker threads, so cells cannot hold a live trace
/// (stochastic traces precompute their whole path); instead each cell
/// carries this spec and the worker materializes the trace right before
/// the run. Construction is deterministic: the same spec always builds
/// the same trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceSpec {
    /// A fixed-rate link.
    Constant(f64),
    /// The canonical step: `pre_bps` falling to `after_bps` at `at`.
    SuddenDrop {
        /// Rate before the drop, bits/second.
        pre_bps: f64,
        /// Rate after the drop, bits/second.
        after_bps: f64,
        /// Drop instant.
        at: Time,
    },
    /// A drop that recovers: `pre → after` at `at`, back to `pre` at
    /// `recover_at`.
    DropRecover {
        /// Rate before the drop and after recovery, bits/second.
        pre_bps: f64,
        /// Rate during the drop, bits/second.
        after_bps: f64,
        /// Drop instant.
        at: Time,
        /// Recovery instant.
        recover_at: Time,
    },
    /// A seeded Markov-modulated LTE-like cellular trace.
    LteLike {
        /// Trace seed (independent of the session seed).
        seed: u64,
        /// Precomputed path length.
        len: Dur,
    },
}

impl TraceSpec {
    /// A canonical, content-addressed rendering of this spec.
    ///
    /// Two specs produce the same key iff they build the same trace:
    /// the derived `Debug` form spells out the variant and every field,
    /// `f64` renders via shortest-roundtrip formatting, `Time` to the µs
    /// and `Dur` exactly, so distinct values never collapse to one
    /// string.
    pub fn canonical_key(&self) -> String {
        format!("{self:?}")
    }

    /// Materializes the trace this spec describes.
    pub fn build(&self) -> Box<dyn BandwidthTrace> {
        match *self {
            TraceSpec::Constant(bps) => Box::new(ConstantTrace::new(bps)),
            TraceSpec::SuddenDrop {
                pre_bps,
                after_bps,
                at,
            } => Box::new(StepTrace::sudden_drop(pre_bps, after_bps, at)),
            TraceSpec::DropRecover {
                pre_bps,
                after_bps,
                at,
                recover_at,
            } => Box::new(StepTrace::drop_and_recover(
                pre_bps, after_bps, at, recover_at,
            )),
            TraceSpec::LteLike { seed, len } => Box::new(StochasticTrace::generate(
                &CellularProfile::lte_like(),
                len,
                seed,
            )),
        }
    }
}

/// One independent grid cell.
///
/// The identity tuple the issue of record calls
/// `(scheme, content, drop severity, seed)` lives inside `cfg`
/// (`cfg.scheme`, `cfg.content`, `cfg.seed`) and `trace`; `label` names
/// the cell uniquely within its experiment so aggregated output can be
/// ordered deterministically regardless of which worker ran it.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Unique-within-experiment, human-readable identity.
    pub label: String,
    /// The capacity process to run over.
    pub trace: TraceSpec,
    /// Full session configuration (scheme, content, seed, tweaks).
    pub cfg: SessionConfig,
    /// Recovery contract this cell is held to, if any. Deliberately
    /// *outside* [`Cell::canonical_key`]: verdicts are a pure function
    /// of the finished session result, so two cells that differ only
    /// in contract share one simulation and re-derive their own
    /// verdicts from the cached result.
    pub contracts: Option<ContractSpec>,
}

impl Cell {
    /// The cell's session as a plain [`RunSpec`]: a freshly built
    /// trace and the cell's config, with fault schedules generated from
    /// the config, observation off and the standard runaway guard. Pure:
    /// same cell, same run, on any thread. The pool sets the run's obs
    /// mode and deadline cancel flag; neither is part of
    /// [`Cell::canonical_key`], because neither changes what the session
    /// computes. The shrinker swaps in explicit fault schedules.
    pub fn spec(&self) -> RunSpec<Box<dyn BandwidthTrace>> {
        RunSpec::new(self.trace.build(), self.cfg)
    }

    /// The cell's content address: a canonical string covering every
    /// input [`Cell::spec`] consumes — the full trace spec and the full
    /// session config (scheme, content, link, seeds, duration, every
    /// toggle). The *label* is deliberately excluded: it names the cell
    /// in tables but does not change the computation, so two cells that
    /// differ only in label share one address (and one simulation).
    ///
    /// The `cell-v1|` prefix versions the key format itself: if the
    /// rendering ever changes, bump it so stale addresses cannot alias.
    pub fn canonical_key(&self) -> String {
        format!(
            "cell-v1|trace={}|cfg={:?}",
            self.trace.canonical_key(),
            self.cfg
        )
    }

    /// A 64-bit FNV-1a fingerprint of [`Cell::canonical_key`], cheap to
    /// compare and log. The in-process cache keys on the full string
    /// (collision-proof); the fingerprint exists for compact display and
    /// for the injectivity property test over the experiment grid.
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = FNV_OFFSET;
        for byte in self.canonical_key().bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(FNV_PRIME);
        }
        hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ravel_pipeline::Scheme;

    #[test]
    fn trace_specs_build_expected_shapes() {
        let t = TraceSpec::SuddenDrop {
            pre_bps: 4e6,
            after_bps: 1e6,
            at: Time::from_secs(10),
        }
        .build();
        assert_eq!(t.rate_bps(Time::from_secs(5)), 4e6);
        assert_eq!(t.rate_bps(Time::from_secs(15)), 1e6);

        let r = TraceSpec::DropRecover {
            pre_bps: 4e6,
            after_bps: 1e6,
            at: Time::from_secs(10),
            recover_at: Time::from_secs(18),
        }
        .build();
        assert_eq!(r.rate_bps(Time::from_secs(20)), 4e6);

        assert_eq!(TraceSpec::Constant(2e6).build().rate_bps(Time::ZERO), 2e6);
    }

    #[test]
    fn lte_spec_is_deterministic() {
        let spec = TraceSpec::LteLike {
            seed: 3,
            len: Dur::secs(10),
        };
        let (a, b) = (spec.build(), spec.build());
        for s in 0..10 {
            let at = Time::from_secs(s);
            assert_eq!(a.rate_bps(at), b.rate_bps(at));
        }
    }

    #[test]
    fn canonical_key_ignores_label_but_separates_configs() {
        let mut cfg = SessionConfig::default_with(Scheme::adaptive());
        cfg.duration = Dur::secs(5);
        let mk = |label: &str, cfg: SessionConfig| Cell {
            label: label.into(),
            trace: TraceSpec::Constant(3e6),
            cfg,
            contracts: None,
        };
        let a = mk("first", cfg);
        let b = mk("renamed", cfg);
        assert_eq!(a.canonical_key(), b.canonical_key());
        assert_eq!(a.fingerprint(), b.fingerprint());

        let mut other = cfg;
        other.seed = cfg.seed + 1;
        let c = mk("first", other);
        assert_ne!(a.canonical_key(), c.canonical_key());
        assert_ne!(a.fingerprint(), c.fingerprint());

        let mut d = mk("first", cfg);
        d.trace = TraceSpec::Constant(3.000_001e6);
        assert_ne!(a.canonical_key(), d.canonical_key());

        // Contracts are derived from the result, not part of the sim:
        // attaching one must not split the content address.
        let mut e = mk("first", cfg);
        e.contracts = Some(ContractSpec::for_drop(Time::from_secs(10), 1e6));
        assert_eq!(a.canonical_key(), e.canonical_key());
        assert_eq!(a.fingerprint(), e.fingerprint());
    }

    #[test]
    fn canonical_key_is_injective_across_the_controller_axis() {
        use ravel_core::AdaptiveConfig;
        use ravel_pipeline::CcKind;
        use std::collections::HashMap;

        // Two cells differing only in controller must never share a
        // cache slot — otherwise E22's memoization would serve one
        // controller's results as another's, and an aliasing pair of
        // adaptive configs would merge E7/E15/E16 cells. Check keys and
        // (FNV) fingerprints over the full kind × (baseline, each named
        // adaptive config) product.
        let adaptive = [
            AdaptiveConfig::default(),
            AdaptiveConfig::fast_qp_only(),
            AdaptiveConfig::fast_qp_and_vbv(),
            AdaptiveConfig::without_ladder(),
            AdaptiveConfig::continuous(),
            AdaptiveConfig::with_probing(),
        ];
        let kinds = [
            CcKind::Gcc,
            CcKind::Fixed,
            CcKind::NaiveAimd,
            CcKind::Nada,
            CcKind::Bbr,
            CcKind::LossEma,
        ];
        let mut by_key: HashMap<String, String> = HashMap::new();
        let mut by_fp: HashMap<u64, String> = HashMap::new();
        for kind in kinds {
            let schemes = std::iter::once(None)
                .chain(adaptive.map(Some))
                .map(|adaptive| Scheme { cc: kind, adaptive });
            for scheme in schemes {
                let mut cfg = SessionConfig::default_with(scheme);
                cfg.duration = Dur::secs(5);
                let cell = Cell {
                    // One shared label: the controller must split the
                    // key on config content alone.
                    label: "arena".into(),
                    trace: TraceSpec::Constant(3e6),
                    cfg,
                    contracts: None,
                };
                let name = format!("{scheme:?}");
                if let Some(prev) = by_key.insert(cell.canonical_key(), name.clone()) {
                    panic!("key collision: {prev} vs {name}");
                }
                if let Some(prev) = by_fp.insert(cell.fingerprint(), name.clone()) {
                    panic!("fingerprint collision: {prev} vs {name}");
                }
            }
        }
        assert_eq!(by_key.len(), kinds.len() * (1 + adaptive.len()));
    }

    #[test]
    fn canonical_key_separates_durations_that_round_alike() {
        // Regression: `Dur`'s `Debug` printed every duration of a second
        // or more as `{:.3}s`, so 1.000400 s and 1 s shared one key and
        // the cache served one cell's result for the other.
        let mk = |duration: Dur, reverse_delay: Dur| {
            let mut cfg = SessionConfig::default_with(Scheme::adaptive());
            cfg.duration = duration;
            cfg.reverse_delay = reverse_delay;
            Cell {
                label: "same".into(),
                trace: TraceSpec::LteLike {
                    seed: 3,
                    len: duration,
                },
                cfg,
                contracts: None,
            }
        };
        let base = mk(Dur::SECOND, Dur::secs(2));
        for (duration, reverse_delay) in [
            (Dur::micros(1_000_400), Dur::secs(2)),
            (Dur::micros(1_000_001), Dur::secs(2)),
            (Dur::SECOND, Dur::micros(2_000_004)),
        ] {
            let other = mk(duration, reverse_delay);
            assert_ne!(base.canonical_key(), other.canonical_key());
            assert_ne!(base.fingerprint(), other.fingerprint());
        }
        // Durations the old form rendered exactly keep their bytes, so
        // no existing address moves.
        for (d, old) in [
            (Dur::SECOND, "1.000s"),
            (Dur::millis(1_500), "1.500s"),
            (Dur::secs(60), "60.000s"),
            (Dur::millis(250), "250.000ms"),
            (Dur::micros(1_500), "1.500ms"),
            (Dur::micros(999), "999us"),
        ] {
            assert_eq!(format!("{d:?}"), old);
        }
        assert_eq!(format!("{:?}", Dur::micros(1_000_400)), "1000400us");
        assert_eq!(format!("{}", Dur::micros(1_000_400)), "1.000s");
    }

    #[test]
    fn cell_run_is_reproducible() {
        let mut cfg = SessionConfig::default_with(Scheme::adaptive());
        cfg.duration = Dur::secs(5);
        let cell = Cell {
            label: "smoke".into(),
            trace: TraceSpec::Constant(3e6),
            cfg,
            contracts: None,
        };
        let mut ws = ravel_pipeline::KernelWorkspace::new();
        let mut run = || ravel_pipeline::run_spec(cell.spec(), &mut ws);
        let (a, b) = (run(), run());
        assert_eq!(a.recorder, b.recorder);
    }
}
