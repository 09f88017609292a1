//! Machine-checked recovery contracts.
//!
//! The paper's headline claim is fast *recovery* — the encoder adapts
//! within a frame of learning about a bandwidth drop, instead of
//! riding the congestion controller's decay down. The invariants in
//! [`invariants`](crate::invariants) assert that a session is *sane*;
//! a [`ContractSpec`] asserts that it is *good*: an SLO-style,
//! declarative bound evaluated per cell from the metrics a session
//! already records, yielding one pass/fail [`ContractVerdict`] per
//! clause.
//!
//! Four clauses, all anchored at the cell's drop instant:
//!
//! * **recover-rate** — the encoder target must climb back to
//!   ≥ `recover_fraction` of the post-drop capacity within
//!   `recover_within` of the drop.
//! * **max-freeze** — no consecutive run of frozen frame slots may
//!   exceed `max_freeze`.
//! * **post-p95-latency** — the p95 glass-to-glass latency over the
//!   post-drop window must stay under `post_p95_ms`.
//! * **target-envelope** — once recovery time has elapsed, the target
//!   must never overshoot the post-drop capacity by more than
//!   `envelope_headroom` (a sender that "recovers" by blasting past
//!   capacity is building the very queue the paper's mechanism
//!   exists to avoid).
//!
//! Evaluation is a pure function of the [`SessionResult`], so verdicts
//! are byte-identical across reruns, worker counts, and cache hits,
//! and belong inside the harness report's byte-identity contract.

use ravel_metrics::FrameOutcomeKind;
use ravel_sim::{Dur, Time};

use crate::session::SessionResult;

/// Fallback frame interval when a cell recorded fewer than two frame
/// slots (30 fps, the canonical grid's rate).
const FALLBACK_FRAME_INTERVAL: Dur = Dur::micros(33_333);

/// A declarative recovery contract for one cell. All four clauses are
/// always evaluated; tune the bounds per scheme — the baseline's decay
/// needs far looser latency bounds than one-frame adaptation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContractSpec {
    /// The drop instant the clauses anchor to.
    pub drop_at: Time,
    /// Link capacity after the drop (bps).
    pub post_capacity_bps: f64,
    /// `recover-rate`: fraction of `post_capacity_bps` the target must
    /// reach back.
    pub recover_fraction: f64,
    /// `recover-rate`: how long after `drop_at` the target has to get
    /// there.
    pub recover_within: Dur,
    /// `max-freeze`: longest tolerated consecutive frozen stretch.
    pub max_freeze: Dur,
    /// `post-p95-latency`: p95 glass-to-glass bound over the post-drop
    /// window, in milliseconds.
    pub post_p95_ms: f64,
    /// `target-envelope`: tolerated overshoot above `post_capacity_bps`
    /// after recovery time has elapsed (0.10 = 10%).
    pub envelope_headroom: f64,
}

impl ContractSpec {
    /// A contract for a drop to `post_capacity_bps` at `drop_at`, with
    /// bounds every committed scheme meets on the canonical grid:
    /// recover to ≥ 50% of post-drop capacity within 8 s, never freeze
    /// longer than 2 s, and never overshoot capacity by more than 30%
    /// once recovered. The p95 bound is scheme-shaped — set it with
    /// [`ContractSpec::with_post_p95_ms`].
    pub fn for_drop(drop_at: Time, post_capacity_bps: f64) -> ContractSpec {
        ContractSpec {
            drop_at,
            post_capacity_bps,
            recover_fraction: 0.5,
            recover_within: Dur::secs(8),
            max_freeze: Dur::secs(2),
            post_p95_ms: 2_000.0,
            envelope_headroom: 0.3,
        }
    }

    /// This contract with a different post-drop p95 latency bound.
    pub fn with_post_p95_ms(mut self, bound_ms: f64) -> ContractSpec {
        self.post_p95_ms = bound_ms;
        self
    }

    /// This contract with a different recovery deadline.
    pub fn with_recover_within(mut self, within: Dur) -> ContractSpec {
        self.recover_within = within;
        self
    }
}

/// One clause's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ContractVerdict {
    /// Stable clause name (`recover-rate`, `max-freeze`,
    /// `post-p95-latency`, `target-envelope`).
    pub name: &'static str,
    /// Whether the session honored the clause.
    pub pass: bool,
    /// Deterministic measurement detail (simulation values only).
    pub detail: String,
}

impl ContractVerdict {
    fn new(name: &'static str, pass: bool, detail: String) -> ContractVerdict {
        ContractVerdict { name, pass, detail }
    }
}

/// Evaluates every clause of `spec` against a finished session. The
/// rate clauses need the `target_bps` series, so contract cells must
/// run with `record_series`; an absent series fails the clause rather
/// than silently passing it.
pub fn evaluate(spec: &ContractSpec, result: &SessionResult) -> Vec<ContractVerdict> {
    vec![
        recover_rate(spec, result),
        max_freeze(spec, result),
        post_p95(spec, result),
        target_envelope(spec, result),
    ]
}

/// True when every verdict passed.
pub fn all_pass(verdicts: &[ContractVerdict]) -> bool {
    verdicts.iter().all(|v| v.pass)
}

fn recover_rate(spec: &ContractSpec, result: &SessionResult) -> ContractVerdict {
    let goal = spec.recover_fraction * spec.post_capacity_bps;
    let Some(series) = result.series.get("target_bps") else {
        return ContractVerdict::new(
            "recover-rate",
            false,
            "target_bps series absent (cell must record series)".into(),
        );
    };
    let recovered_at = series
        .points()
        .iter()
        .find(|&&(at, v)| at >= spec.drop_at && v >= goal)
        .map(|&(at, _)| at);
    match recovered_at {
        Some(at) => {
            let took = at.saturating_since(spec.drop_at);
            ContractVerdict::new(
                "recover-rate",
                took <= spec.recover_within,
                format!(
                    "target reached {goal:.0} bps {took} after the drop (bound {})",
                    spec.recover_within
                ),
            )
        }
        None => ContractVerdict::new(
            "recover-rate",
            false,
            format!(
                "target never reached {goal:.0} bps after the drop at {}",
                spec.drop_at
            ),
        ),
    }
}

fn max_freeze(spec: &ContractSpec, result: &SessionResult) -> ContractVerdict {
    let records = result.recorder.records();
    // Slot duration from the recorded cadence itself, so the clause
    // needs no side channel for the frame rate.
    let dt = match (records.first(), records.last()) {
        (Some(first), Some(last)) if records.len() >= 2 => Dur::from_secs_f64(
            last.pts.saturating_since(first.pts).as_secs_f64() / (records.len() - 1) as f64,
        ),
        _ => FALLBACK_FRAME_INTERVAL,
    };
    let mut longest = 0usize;
    let mut run = 0usize;
    for r in records {
        if r.outcome == FrameOutcomeKind::Frozen {
            run += 1;
            longest = longest.max(run);
        } else {
            run = 0;
        }
    }
    let worst = Dur::from_secs_f64(longest as f64 * dt.as_secs_f64());
    ContractVerdict::new(
        "max-freeze",
        worst <= spec.max_freeze,
        format!(
            "longest freeze {worst} ({longest} slots at {dt}/slot, bound {})",
            spec.max_freeze
        ),
    )
}

fn post_p95(spec: &ContractSpec, result: &SessionResult) -> ContractVerdict {
    let s = result.recorder.summarize(spec.drop_at, Time::FAR_FUTURE);
    ContractVerdict::new(
        "post-p95-latency",
        s.p95_latency_ms <= spec.post_p95_ms,
        format!(
            "post-drop p95 {:.1} ms over {} frames (bound {:.0} ms)",
            s.p95_latency_ms, s.frames, spec.post_p95_ms
        ),
    )
}

fn target_envelope(spec: &ContractSpec, result: &SessionResult) -> ContractVerdict {
    let ceiling = spec.post_capacity_bps * (1.0 + spec.envelope_headroom);
    let settle = spec.drop_at + spec.recover_within;
    let Some(series) = result.series.get("target_bps") else {
        return ContractVerdict::new(
            "target-envelope",
            false,
            "target_bps series absent (cell must record series)".into(),
        );
    };
    let worst = series
        .points()
        .iter()
        .filter(|&&(at, _)| at >= settle)
        .map(|&(_, v)| v)
        .fold(0.0f64, f64::max);
    ContractVerdict::new(
        "target-envelope",
        worst <= ceiling,
        format!("post-recovery target peaked at {worst:.0} bps (ceiling {ceiling:.0} bps)"),
    )
}

#[cfg(test)]
// `&[300..320]` below really is a one-element slice of frozen-frame
// index ranges, not a mistyped `[300, 320]` pair.
#[allow(clippy::single_range_in_vec_init)]
mod tests {
    use super::*;
    use ravel_metrics::FrameRecord;

    /// A synthetic post-drop session: capacity drops 4 Mbps → 1 Mbps at
    /// t=10 s, the target follows `targets` (one sample per second from
    /// t=0), and `frozen` names the frozen frame-slot indexes of a
    /// 30 fps run from t=0 to t=20 s.
    fn synthetic(targets: &[(u64, f64)], frozen: &[std::ops::Range<usize>]) -> SessionResult {
        let mut result = SessionResult::empty();
        for &(sec, bps) in targets {
            result.series.push("target_bps", Time::from_secs(sec), bps);
        }
        let slots = 20 * 30;
        for i in 0..slots {
            let is_frozen = frozen.iter().any(|r| r.contains(&i));
            result.recorder.push(FrameRecord {
                pts: Time::from_millis(i as u64 * 33),
                outcome: if is_frozen {
                    FrameOutcomeKind::Frozen
                } else {
                    FrameOutcomeKind::Displayed
                },
                latency: (!is_frozen).then(|| Dur::millis(80)),
                ssim: if is_frozen { 0.7 } else { 0.95 },
                psnr_db: (!is_frozen).then_some(38.0),
            });
        }
        result
    }

    fn spec() -> ContractSpec {
        ContractSpec::for_drop(Time::from_secs(10), 1e6).with_post_p95_ms(200.0)
    }

    #[test]
    fn healthy_recovery_passes_every_clause() {
        // Target drops with the link, then climbs back over 0.5 Mbps
        // (50% of post capacity) well within 8 s.
        let result = synthetic(
            &[
                (0, 4e6),
                (5, 4e6),
                (10, 3e5),
                (12, 6e5),
                (14, 9.5e5),
                (19, 9.5e5),
            ],
            &[300..320],
        );
        let verdicts = evaluate(&spec(), &result);
        assert_eq!(verdicts.len(), 4);
        assert!(all_pass(&verdicts), "verdicts: {verdicts:#?}");
        let names: Vec<_> = verdicts.iter().map(|v| v.name).collect();
        assert_eq!(
            names,
            [
                "recover-rate",
                "max-freeze",
                "post-p95-latency",
                "target-envelope"
            ]
        );
    }

    #[test]
    fn unrecovered_target_fails_recover_rate() {
        // Stuck at 0.3 Mbps < 50% of 1 Mbps forever after the drop.
        let result = synthetic(&[(0, 4e6), (10, 3e5), (19, 3e5)], &[]);
        let verdicts = evaluate(&spec(), &result);
        let v = &verdicts[0];
        assert_eq!(v.name, "recover-rate");
        assert!(!v.pass);
        assert!(v.detail.contains("never reached"), "{}", v.detail);
    }

    #[test]
    fn slow_recovery_fails_the_deadline() {
        // Recovers, but 9.5 s after the drop — past the 8 s bound. The
        // envelope clause must not be confused by the late climb.
        let result = synthetic(&[(0, 4e6), (10, 3e5), (19, 6e5)], &[]);
        let verdicts = evaluate(&spec(), &result);
        assert!(!verdicts[0].pass, "{}", verdicts[0].detail);
    }

    #[test]
    fn long_freeze_fails_max_freeze() {
        // 90 consecutive frozen slots at ~33 ms ≈ 3 s > the 2 s bound.
        let result = synthetic(&[(0, 4e6), (12, 9e5)], &[310..400]);
        let verdicts = evaluate(&spec(), &result);
        let v = &verdicts[1];
        assert_eq!(v.name, "max-freeze");
        assert!(!v.pass, "{}", v.detail);
        // Two shorter runs summing past the bound still pass: the
        // clause bounds CONSECUTIVE freezes.
        let result = synthetic(&[(0, 4e6), (12, 9e5)], &[310..355, 400..445]);
        assert!(evaluate(&spec(), &result)[1].pass);
    }

    #[test]
    fn latency_tail_fails_post_p95() {
        let mut result = synthetic(&[(0, 4e6), (12, 9e5)], &[]);
        // Rewrite the post-drop tail with 400 ms latencies: p95 over
        // the post-drop window blows the 200 ms bound.
        let mut doctored = SessionResult::empty();
        for r in result.recorder.records() {
            let mut r = *r;
            if r.pts >= Time::from_secs(10) {
                r.latency = Some(Dur::millis(400));
            }
            doctored.recorder.push(r);
        }
        mem_swap_series(&mut result, &mut doctored);
        let verdicts = evaluate(&spec(), &doctored);
        let v = &verdicts[2];
        assert_eq!(v.name, "post-p95-latency");
        assert!(!v.pass, "{}", v.detail);
    }

    /// Moves the series from `a` into `b` (SessionResult has no Clone
    /// for doctoring in place).
    fn mem_swap_series(a: &mut SessionResult, b: &mut SessionResult) {
        std::mem::swap(&mut a.series, &mut b.series);
    }

    #[test]
    fn overshoot_after_recovery_fails_the_envelope() {
        // Climbs back — and keeps going to 2 Mbps, 2x the post-drop
        // capacity: "recovered" by building a standing queue.
        let result = synthetic(&[(0, 4e6), (10, 3e5), (14, 9e5), (19, 2e6)], &[]);
        let verdicts = evaluate(&spec(), &result);
        let v = &verdicts[3];
        assert_eq!(v.name, "target-envelope");
        assert!(!v.pass, "{}", v.detail);
        // Overshoot DURING the recovery window is not a violation (the
        // controller may probe); only the settled tail is bounded.
        let result = synthetic(&[(0, 4e6), (10, 3e5), (14, 2e6), (19, 9e5)], &[]);
        assert!(evaluate(&spec(), &result)[3].pass);
    }

    #[test]
    fn missing_series_fails_closed() {
        let mut result = SessionResult::empty();
        result.recorder.push(FrameRecord {
            pts: Time::ZERO,
            outcome: FrameOutcomeKind::Displayed,
            latency: Some(Dur::millis(50)),
            ssim: 0.95,
            psnr_db: Some(38.0),
        });
        let verdicts = evaluate(&spec(), &result);
        assert!(!verdicts[0].pass);
        assert!(!verdicts[3].pass);
        assert!(verdicts[0].detail.contains("series absent"));
        // The recorder-based clauses still evaluate.
        assert!(verdicts[1].pass);
        assert!(verdicts[2].pass);
    }

    #[test]
    fn verdicts_are_deterministic() {
        let result = synthetic(&[(0, 4e6), (10, 3e5), (14, 9e5)], &[305..330]);
        assert_eq!(evaluate(&spec(), &result), evaluate(&spec(), &result));
    }
}
