//! Chaos-mode acceptance: a deliberately broken invariant is caught
//! (collected, not panicked), and the shrinker minimizes the failing
//! schedule down to a printable minimal reproducer.

use ravel_harness::{shrink_cell, shrink_schedule, Cell, TraceSpec, MIN_SEGMENT};
use ravel_net::{ChaosSchedule, ChaosSpec, FaultKind, FaultSegment};
use ravel_pipeline::{run_sessions, Invariant, KernelWorkspace, RunSpec, Scheme, SessionConfig};
use ravel_sim::{Dur, Time};

/// Runs `cell` under an explicit chaos schedule.
fn run_under(cell: &Cell, schedule: &ChaosSchedule) -> ravel_pipeline::SessionResult {
    let spec = RunSpec {
        chaos: Some(schedule.clone()),
        ..cell.spec()
    };
    run_sessions(vec![spec], &mut KernelWorkspace::new()).remove(0)
}

fn blackout(from_s: u64, until_s: u64) -> FaultSegment {
    FaultSegment {
        from: Time::from_secs(from_s),
        until: Time::from_secs(until_s),
        kind: FaultKind::Blackout,
    }
}

/// A cell whose rate-recovery bound is impossible (1000% of capacity):
/// any schedule with a fault clearing inside the session violates.
fn broken_cell() -> Cell {
    let mut cfg = SessionConfig::default_with(Scheme::adaptive());
    cfg.duration = Dur::secs(30);
    cfg.seed = 7;
    let mut spec = ChaosSpec::new(7, 0.5);
    spec.recovery_fraction = 10.0;
    cfg.chaos = Some(spec);
    Cell {
        label: "broken-invariant".to_string(),
        trace: TraceSpec::Constant(4e6),
        cfg,
        contracts: None,
    }
}

#[test]
fn broken_invariant_is_caught_and_shrunk_to_a_minimal_reproducer() {
    let cell = broken_cell();
    // Three faults; only the *presence* of a cleared fault matters to
    // the (deliberately impossible) recovery bound, so two of the three
    // segments are noise the shrinker must strip.
    let schedule =
        ChaosSchedule::from_segments(vec![blackout(2, 3), blackout(5, 7), blackout(9, 10)]);

    // Caught: the session completes and reports the violation instead
    // of panicking.
    let result = run_under(&cell, &schedule);
    assert!(
        result
            .violations
            .iter()
            .any(|v| v.invariant == Invariant::RateRecovery),
        "expected a rate-recovery violation: {:?}",
        result.violations
    );

    // Shrunk: one segment survives, halved down to the shrinker floor,
    // and the minimized schedule still violates.
    let min = shrink_cell(&cell, &schedule).expect("violating schedule must shrink");
    assert_eq!(min.segments.len(), 1, "reproducer: {}", min.reproducer());
    let dur = min.segments[0].until.saturating_since(min.segments[0].from);
    assert!(dur >= MIN_SEGMENT && dur < Dur::SECOND, "dur={dur}");
    let re_run = run_under(&cell, &min);
    assert!(
        !re_run.violations.is_empty(),
        "minimized schedule must still violate"
    );

    // The reproducer spec is printable and names the surviving fault.
    assert!(
        min.reproducer().contains("blackout"),
        "{}",
        min.reproducer()
    );

    // Deterministic: shrinking the same cell twice gives the same spec.
    let again = shrink_cell(&cell, &schedule).unwrap();
    assert_eq!(min, again);
}

#[test]
fn healthy_cell_has_nothing_to_shrink() {
    // Same cell with the calibrated default bounds: the canonical
    // generated schedule runs clean, so shrink_cell declines.
    let mut cell = broken_cell();
    cell.cfg.chaos = Some(ChaosSpec::new(7, 0.5));
    let schedule = ChaosSchedule::generate(ChaosSpec::new(7, 0.5), cell.cfg.duration);
    assert!(!schedule.is_empty());
    assert!(shrink_cell(&cell, &schedule).is_none());
}

#[test]
fn shrinker_never_returns_a_passing_schedule() {
    // Property over the public shrinker: whatever the oracle, the
    // output still satisfies it (shrink_schedule only keeps candidates
    // the oracle accepted).
    let sched = ChaosSchedule::from_segments(vec![blackout(1, 4), blackout(6, 9)]);
    let oracle = |s: &ChaosSchedule| {
        s.segments
            .iter()
            .map(|g| g.until.saturating_since(g.from))
            .fold(Dur::ZERO, |a, d| a + d)
            >= Dur::SECOND
    };
    let min = shrink_schedule(&sched, oracle);
    assert!(oracle(&min), "shrunk schedule stopped violating");
}
