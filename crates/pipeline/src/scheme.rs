//! Sender schemes: which congestion controller, and whether the
//! adaptive encoder controller is in the loop.

use ravel_cc::{
    Bbr, CongestionController, FixedRate, Gcc, LossEma, Nada, NaiveAimd, MAX_BPS, MIN_BPS,
};
use ravel_core::AdaptiveConfig;

/// Which congestion controller drives the long-term target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CcKind {
    /// Google Congestion Control (the realistic baseline).
    Gcc,
    /// No congestion control: fixed at the start rate.
    Fixed,
    /// Loss-only AIMD (TCP-flavoured strawman).
    NaiveAimd,
    /// RFC 8698 NADA (arena controller).
    Nada,
    /// BBR-style delivery-rate estimator (arena controller).
    Bbr,
    /// beam's loss-EMA AIMD loop (arena controller).
    LossEma,
}

impl CcKind {
    /// Instantiates the controller at `start_bps`.
    pub fn build(self, start_bps: f64) -> Box<dyn CongestionController> {
        match self {
            CcKind::Gcc => Box::new(Gcc::new(start_bps)),
            CcKind::Fixed => Box::new(FixedRate::new(start_bps)),
            CcKind::NaiveAimd => Box::new(NaiveAimd::new(start_bps, MIN_BPS, MAX_BPS)),
            CcKind::Nada => Box::new(Nada::new(start_bps)),
            CcKind::Bbr => Box::new(Bbr::new(start_bps)),
            CcKind::LossEma => Box::new(LossEma::new(start_bps)),
        }
    }

    /// Short name for experiment tables and CLI selection.
    pub fn cc_name(self) -> &'static str {
        match self {
            CcKind::Gcc => "gcc",
            CcKind::Fixed => "fixed",
            CcKind::NaiveAimd => "naive-aimd",
            CcKind::Nada => "nada",
            CcKind::Bbr => "bbr",
            CcKind::LossEma => "loss-ema",
        }
    }

    /// `Some(name)` for the E22 arena controllers (schema ≥ 8 reports
    /// carry this as the per-cell `controller` field); `None` for the
    /// pre-arena kinds so e1–e21 report bytes are unchanged.
    pub fn arena_name(self) -> Option<&'static str> {
        match self {
            CcKind::Nada | CcKind::Bbr | CcKind::LossEma => Some(self.cc_name()),
            CcKind::Gcc | CcKind::Fixed | CcKind::NaiveAimd => None,
        }
    }
}

/// A complete sender scheme.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scheme {
    /// The congestion controller.
    pub cc: CcKind,
    /// The adaptive encoder controller, if enabled.
    pub adaptive: Option<AdaptiveConfig>,
}

impl Scheme {
    /// The paper's baseline: GCC + slow-path encoder reconfiguration.
    pub fn baseline() -> Scheme {
        Scheme {
            cc: CcKind::Gcc,
            adaptive: None,
        }
    }

    /// The paper's system: GCC + the adaptive controller (full config).
    pub fn adaptive() -> Scheme {
        Scheme {
            cc: CcKind::Gcc,
            adaptive: Some(AdaptiveConfig::default()),
        }
    }

    /// The paper's system with a specific (e.g. ablated) config.
    pub fn adaptive_with(cfg: AdaptiveConfig) -> Scheme {
        Scheme {
            cc: CcKind::Gcc,
            adaptive: Some(cfg),
        }
    }

    /// An arbitrary controller without the adaptive encoder loop.
    pub fn cc_baseline(cc: CcKind) -> Scheme {
        Scheme { cc, adaptive: None }
    }

    /// An arbitrary controller with the full adaptive encoder loop.
    pub fn cc_adaptive(cc: CcKind) -> Scheme {
        Scheme {
            cc,
            adaptive: Some(AdaptiveConfig::default()),
        }
    }

    /// Short name for experiment tables.
    pub fn name(&self) -> String {
        let cc = self.cc.cc_name();
        if self.adaptive.is_some() {
            format!("{cc}+adaptive")
        } else {
            cc.to_string()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every kind the scheme layer knows about.
    pub const ALL_KINDS: [CcKind; 6] = [
        CcKind::Gcc,
        CcKind::Fixed,
        CcKind::NaiveAimd,
        CcKind::Nada,
        CcKind::Bbr,
        CcKind::LossEma,
    ];

    #[test]
    fn names() {
        assert_eq!(Scheme::baseline().name(), "gcc");
        assert_eq!(Scheme::adaptive().name(), "gcc+adaptive");
        assert_eq!(Scheme::cc_baseline(CcKind::Fixed).name(), "fixed");
        assert_eq!(Scheme::cc_adaptive(CcKind::Nada).name(), "nada+adaptive");
        assert_eq!(Scheme::cc_baseline(CcKind::Bbr).name(), "bbr");
        assert_eq!(Scheme::cc_baseline(CcKind::LossEma).name(), "loss-ema");
    }

    #[test]
    fn cc_builders_start_at_requested_rate() {
        for kind in ALL_KINDS {
            let cc = kind.build(2e6);
            assert_eq!(cc.target_bps(), 2e6, "{kind:?}");
        }
    }

    #[test]
    fn cc_names_are_unique_and_match_controllers() {
        let mut seen = std::collections::BTreeSet::new();
        for kind in ALL_KINDS {
            assert!(seen.insert(kind.cc_name()), "duplicate name for {kind:?}");
            assert_eq!(kind.build(1e6).name(), kind.cc_name(), "{kind:?}");
        }
    }

    #[test]
    fn arena_names_cover_exactly_the_new_controllers() {
        let arena: Vec<_> = ALL_KINDS.iter().filter_map(|k| k.arena_name()).collect();
        assert_eq!(arena, ["nada", "bbr", "loss-ema"]);
    }
}
