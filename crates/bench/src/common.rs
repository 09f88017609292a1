//! Shared experiment plumbing: canonical scenario constants (now owned
//! by `ravel-harness`, re-exported here for compatibility) and serial
//! session helpers for the Criterion targets.

use ravel_pipeline::{
    run_session, run_sessions, KernelWorkspace, RunSpec, Scheme, SessionConfig, SessionResult,
};
use ravel_sim::Dur;
use ravel_trace::{BandwidthTrace, StepTrace};
use ravel_video::ContentClass;

pub use ravel_harness::{
    fmt_reduction, pct_change, window_after, DROP_AT, POST_WINDOW, PRE_RATE, SESSION_LEN,
};

/// Runs one drop session: `PRE_RATE` falling to `after_bps` at
/// [`DROP_AT`], under `scheme` and `content`.
pub fn run_drop(scheme: Scheme, content: ContentClass, after_bps: f64) -> SessionResult {
    let mut cfg = SessionConfig::default_with(scheme);
    cfg.content = content;
    cfg.duration = SESSION_LEN;
    run_session(StepTrace::sudden_drop(PRE_RATE, after_bps, DROP_AT), cfg)
}

/// Builds a mixed population of `n` drop sessions: schemes, content
/// classes, drop depths, and seeds all vary with the session index so
/// the interleaved kernel sees heterogeneous per-session state.
pub fn population(n: usize, duration: Dur) -> Vec<RunSpec<StepTrace>> {
    let contents = [
        ContentClass::TalkingHead,
        ContentClass::ScreenShare,
        ContentClass::Gaming,
        ContentClass::Sports,
    ];
    (0..n)
        .map(|i| {
            let scheme = if i % 2 == 0 {
                Scheme::baseline()
            } else {
                Scheme::adaptive()
            };
            let mut cfg = SessionConfig::default_with(scheme);
            cfg.content = contents[i % contents.len()];
            cfg.duration = duration;
            cfg.seed = i as u64 + 1;
            let after_bps = 0.8e6 + 0.2e6 * (i % 5) as f64;
            RunSpec::new(StepTrace::sudden_drop(PRE_RATE, after_bps, DROP_AT), cfg)
        })
        .collect()
}

/// Runs a [`population`] on the interleaved multi-session kernel —
/// every session stepped from one shared event queue on one thread.
pub fn run_population(n: usize, duration: Dur) -> Vec<SessionResult> {
    run_sessions(population(n, duration), &mut KernelWorkspace::allocating())
}

/// Runs a [`population`] through the kernel in batches of `batch`
/// sessions, reusing ONE workspace across batches —
/// the shape of work a batched harness worker performs. `pooled`
/// selects the recycling payload arena; `false` is the allocating
/// oracle, byte-identical in results.
pub fn run_population_batched(
    n: usize,
    duration: Dur,
    batch: usize,
    pooled: bool,
) -> Vec<SessionResult> {
    let mut ws = if pooled {
        KernelWorkspace::new()
    } else {
        KernelWorkspace::allocating()
    };
    let mut sessions = population(n, duration);
    let mut out = Vec::with_capacity(n);
    while !sessions.is_empty() {
        let rest = sessions.split_off(batch.max(1).min(sessions.len()));
        let chunk = std::mem::replace(&mut sessions, rest);
        out.extend(run_sessions(chunk, &mut ws));
    }
    out
}

/// Runs one session over an arbitrary trace with config tweaks applied
/// by `adjust`.
pub fn run_with<T: BandwidthTrace>(
    scheme: Scheme,
    trace: T,
    adjust: impl FnOnce(&mut SessionConfig),
) -> SessionResult {
    let mut cfg = SessionConfig::default_with(scheme);
    cfg.duration = SESSION_LEN;
    adjust(&mut cfg);
    run_session(trace, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_change_signs() {
        assert!((pct_change(100.0, 50.0) + 50.0).abs() < 1e-12);
        assert!((pct_change(100.0, 150.0) - 50.0).abs() < 1e-12);
        assert_eq!(pct_change(0.0, 5.0), 0.0);
    }

    #[test]
    fn fmt_reduction_reads_positively_for_improvements() {
        assert_eq!(fmt_reduction(100.0, 25.0), "75.00%");
        assert_eq!(fmt_reduction(100.0, 125.0), "-25.00%");
    }

    #[test]
    fn population_kernel_matches_sequential_sessions() {
        let dur = Dur::secs(8);
        let interleaved = run_population(4, dur);
        let sequential: Vec<SessionResult> = population(4, dur)
            .into_iter()
            .map(|spec| run_session(spec.trace, spec.cfg))
            .collect();
        assert_eq!(interleaved.len(), sequential.len());
        for (a, b) in interleaved.iter().zip(&sequential) {
            assert_eq!(a.events_processed, b.events_processed);
            assert_eq!(a.recorder.records(), b.recorder.records());
            assert_eq!(a.violations, b.violations);
        }
    }

    #[test]
    fn batched_pooled_population_matches_the_full_kernel() {
        // Chunked through a reused pooled workspace == one allocating
        // kernel call over the whole population, per session.
        let dur = Dur::secs(8);
        let whole = run_population(6, dur);
        for (batch, pooled) in [(1, true), (2, true), (4, false), (64, true)] {
            let chunked = run_population_batched(6, dur, batch, pooled);
            assert_eq!(chunked.len(), whole.len());
            for (a, b) in chunked.iter().zip(&whole) {
                assert_eq!(a.events_processed, b.events_processed);
                assert_eq!(a.recorder.records(), b.recorder.records());
                assert_eq!(a.violations, b.violations);
            }
        }
    }

    #[test]
    fn run_drop_is_deterministic() {
        let a = run_drop(Scheme::adaptive(), ContentClass::TalkingHead, 1e6);
        let b = run_drop(Scheme::adaptive(), ContentClass::TalkingHead, 1e6);
        assert_eq!(a.recorder.records(), b.recorder.records());
    }
}
