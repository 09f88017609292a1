//! Failing-schedule minimization, on either fault plane.
//!
//! When a cell fails under a fault schedule, the raw schedule is a poor
//! bug report: it interleaves several faults, most of which are
//! irrelevant to the failure. [`shrink_schedule`] minimizes it the way
//! property-testing shrinkers do — greedily, against a caller-supplied
//! oracle — so the printed reproducer carries only the segments (at
//! close to their minimal durations) that still trigger the failure.
//! [`shrink_cell`] supplies the oracle for a real cell: the seeded
//! session re-run under each candidate schedule. Both are generic over
//! the [`FaultPlane`], so forward-path chaos schedules and feedback
//! corruption schedules shrink through the same code.
//!
//! The shrinker is deterministic: candidate order is a pure function of
//! the schedule, and the oracle re-runs the *same* seeded session, so
//! the same failing cell always minimizes to the same reproducer.

use std::panic::{catch_unwind, AssertUnwindSafe};

use ravel_net::{CorruptKind, FaultKind, Schedule, SegmentKind};
use ravel_obs::ObsMode;
use ravel_pipeline::{
    all_pass, evaluate, run_sessions, KernelWorkspace, RunSpec, SessionConfig, SessionResult,
};
use ravel_sim::Dur;

use crate::cell::Cell;

/// Shortest fault duration the shrinker will propose. Below this the
/// segment is indistinguishable from no fault for every fault kind (a
/// sub-100 ms blackout is one pacer tick).
pub const MIN_SEGMENT: Dur = Dur::millis(100);

/// A fault plane a cell's schedule can be shrunk on: where the plane's
/// spec sits in a session config, and where an explicit schedule goes
/// in a run.
pub trait FaultPlane: SegmentKind {
    /// The config's spec on this plane, if it carries one.
    fn spec_of(cfg: &SessionConfig) -> Option<Self::Spec>;

    /// Runs `run` under `schedule` on this plane instead of the one its
    /// config generates.
    fn install<T>(run: &mut RunSpec<T>, schedule: Schedule<Self>);
}

impl FaultPlane for FaultKind {
    fn spec_of(cfg: &SessionConfig) -> Option<Self::Spec> {
        cfg.chaos
    }

    fn install<T>(run: &mut RunSpec<T>, schedule: Schedule<Self>) {
        run.chaos = Some(schedule);
    }
}

impl FaultPlane for CorruptKind {
    fn spec_of(cfg: &SessionConfig) -> Option<Self::Spec> {
        cfg.corrupt
    }

    fn install<T>(run: &mut RunSpec<T>, schedule: Schedule<Self>) {
        run.corrupt = Some(schedule);
    }
}

/// Minimizes `schedule` while `violates` keeps returning `true`.
///
/// Two greedy passes, both run to fixpoint:
///
/// 1. **Segment removal** — try dropping each segment (first to last);
///    keep any removal that still violates. Repeats until no single
///    removal survives the oracle.
/// 2. **Duration halving** — for each surviving segment, repeatedly
///    halve its duration (down to [`MIN_SEGMENT`]) while the schedule
///    still violates.
///
/// The result is 1-minimal with respect to these operations: removing
/// any remaining segment, or halving any remaining duration, makes the
/// violation disappear. `violates(&schedule)` must be `true` on entry —
/// callers should only shrink schedules they have already seen fail.
pub fn shrink_schedule<K: SegmentKind>(
    schedule: &Schedule<K>,
    mut violates: impl FnMut(&Schedule<K>) -> bool,
) -> Schedule<K> {
    let mut current = schedule.clone();

    // Pass 1: drop whole segments to fixpoint.
    loop {
        let mut removed_any = false;
        let mut i = 0;
        while i < current.segments.len() {
            let mut candidate = current.clone();
            candidate.segments.remove(i);
            if violates(&candidate) {
                current = candidate;
                removed_any = true;
                // Same index now holds the next segment.
            } else {
                i += 1;
            }
        }
        if !removed_any {
            break;
        }
    }

    // Pass 2: halve each surviving segment's duration to fixpoint.
    for i in 0..current.segments.len() {
        loop {
            let seg = &current.segments[i];
            let dur = seg.until.saturating_since(seg.from);
            let halved = Dur::from_secs_f64(dur.as_secs_f64() / 2.0);
            if halved < MIN_SEGMENT {
                break;
            }
            let mut candidate = current.clone();
            candidate.segments[i].until = candidate.segments[i].from + halved;
            if violates(&candidate) {
                current = candidate;
            } else {
                break;
            }
        }
    }

    current
}

/// Re-runs `cell`'s seeded session with `schedule` on plane `K` (the
/// other plane still generates from the config).
fn run_under<K: FaultPlane>(cell: &Cell, schedule: &Schedule<K>, obs: ObsMode) -> SessionResult {
    let mut run = RunSpec { obs, ..cell.spec() };
    K::install(&mut run, schedule.clone());
    run_sessions(vec![run], &mut KernelWorkspace::new()).remove(0)
}

/// Shrinks the schedule that made `cell` fail, using a fresh
/// deterministic session per probe as the oracle. A probe fails if it
/// reports any invariant violation (including
/// [`runaway-termination`](ravel_pipeline::Invariant::RunawayTermination)),
/// breaks a clause of the cell's recovery contract (a corruption
/// schedule's usual damage is a broken recovery promise, not a broken
/// conservation law), **or** panics outright — panicking probes are
/// quarantined with `catch_unwind`, so shrinking a crashing cell
/// minimizes the crash reproducer instead of tearing down the harness.
/// The cell's schedule on the other plane stays active throughout, so
/// the minimized schedule is valid in the exact environment that
/// failed. Returns the minimal schedule, or `None` if the cell does not
/// actually fail with the given schedule (nothing to shrink — e.g. the
/// failure was a harness bug, not a session one).
pub fn shrink_cell<K: FaultPlane>(cell: &Cell, schedule: &Schedule<K>) -> Option<Schedule<K>> {
    let violates = |s: &Schedule<K>| {
        catch_unwind(AssertUnwindSafe(|| {
            let result = run_under(cell, s, ObsMode::Off);
            !result.violations.is_empty()
                || cell
                    .contracts
                    .as_ref()
                    .is_some_and(|spec| !all_pass(&evaluate(spec, &result)))
        }))
        .unwrap_or(true)
    };
    if !violates(schedule) {
        return None;
    }
    Some(shrink_schedule(schedule, violates))
}

/// Re-runs the cell's seeded session under `schedule` with full
/// observability and renders the timeline digest — the event-level bug
/// report that accompanies a minimized reproducer. Deterministic: the
/// same cell and schedule always print the same digest (observation
/// never perturbs the simulation).
/// Panicking cells have no timeline to render; for those the digest is
/// replaced with a fixed placeholder so callers printing a minimized
/// crash reproducer still get deterministic output.
pub fn violating_timeline<K: FaultPlane>(cell: &Cell, schedule: &Schedule<K>) -> String {
    catch_unwind(AssertUnwindSafe(|| {
        run_under(cell, schedule, ObsMode::Full)
            .obs
            .digest(&cell.label)
    }))
    .unwrap_or_else(|_| format!("{}: (session panicked; no timeline)\n", cell.label))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::TraceSpec;
    use ravel_net::{ChaosSchedule, CorruptMode, CorruptSchedule, CorruptSegment, FaultSegment};
    use ravel_pipeline::{InjectedFault, Scheme, SessionConfig};
    use ravel_sim::Time;

    fn seg(from_s: u64, until_s: u64) -> FaultSegment {
        FaultSegment {
            from: Time::from_secs(from_s),
            until: Time::from_secs(until_s),
            kind: FaultKind::Blackout,
        }
    }

    #[test]
    fn drops_irrelevant_segments() {
        // Oracle: violates iff a segment overlaps t=10s.
        let sched = ChaosSchedule::from_segments(vec![seg(2, 3), seg(9, 11), seg(15, 16)]);
        let min = shrink_schedule(&sched, |s| {
            s.segments
                .iter()
                .any(|g| g.from <= Time::from_secs(10) && g.until >= Time::from_secs(10))
        });
        assert_eq!(min.segments.len(), 1);
        assert_eq!(min.segments[0].from, Time::from_secs(9));
    }

    #[test]
    fn halves_durations_to_the_oracle_boundary() {
        // Violates while the (single) segment is at least 1 s long.
        let sched = ChaosSchedule::from_segments(vec![seg(5, 13)]);
        let min = shrink_schedule(&sched, |s| {
            s.segments
                .iter()
                .any(|g| g.until.saturating_since(g.from) >= Dur::SECOND)
        });
        assert_eq!(min.segments.len(), 1);
        let dur = min.segments[0].until.saturating_since(min.segments[0].from);
        // 8s -> 4s -> 2s -> 1s; halving again (0.5s) stops violating.
        assert_eq!(dur, Dur::SECOND);
    }

    #[test]
    fn can_shrink_to_empty_when_oracle_always_fires() {
        let sched = ChaosSchedule::from_segments(vec![seg(1, 2), seg(3, 4)]);
        let min = shrink_schedule(&sched, |_| true);
        assert!(min.is_empty());
    }

    #[test]
    fn panicking_cells_shrink_instead_of_tearing_down_the_shrinker() {
        let mut cfg = SessionConfig::default_with(Scheme::adaptive());
        cfg.duration = Dur::secs(4);
        cfg.inject = InjectedFault::Panic {
            at: Time::from_secs(1),
        };
        let cell = Cell {
            label: "boom".into(),
            trace: TraceSpec::Constant(3e6),
            cfg,
            contracts: None,
        };
        let sched = ChaosSchedule::from_segments(vec![seg(1, 2), seg(3, 4)]);
        let min = shrink_cell(&cell, &sched).expect("a panicking probe counts as failing");
        // The injected panic fires regardless of the schedule, so every
        // segment is irrelevant and the reproducer shrinks to empty.
        assert!(min.is_empty());
        assert_eq!(
            violating_timeline(&cell, &min),
            "boom: (session panicked; no timeline)\n"
        );
    }

    #[test]
    fn shrinking_is_deterministic() {
        let sched = ChaosSchedule::from_segments(vec![seg(2, 6), seg(8, 12), seg(14, 18)]);
        let oracle = |s: &ChaosSchedule| s.segments.len() >= 2;
        let a = shrink_schedule(&sched, oracle);
        let b = shrink_schedule(&sched, oracle);
        assert_eq!(a, b);
        assert_eq!(a.segments.len(), 2);
    }

    fn cseg(from_s: u64, until_s: u64) -> CorruptSegment {
        CorruptSegment {
            from: Time::from_secs(from_s),
            until: Time::from_secs(until_s),
            kind: CorruptKind {
                mode: CorruptMode::Truncate,
                rate: 1.0,
            },
        }
    }

    #[test]
    fn corrupt_shrinker_drops_irrelevant_segments_and_halves() {
        let sched = CorruptSchedule::from_segments(vec![cseg(2, 3), cseg(8, 16), cseg(20, 21)]);
        // Oracle: violates iff a segment at least 1 s long overlaps
        // t=10 s.
        let min = shrink_schedule(&sched, |s| {
            s.segments.iter().any(|g| {
                g.from <= Time::from_secs(10)
                    && g.until >= Time::from_secs(10)
                    && g.until.saturating_since(g.from) >= Dur::SECOND
            })
        });
        assert_eq!(min.segments.len(), 1);
        assert_eq!(min.segments[0].from, Time::from_secs(8));
        let dur = min.segments[0].until.saturating_since(min.segments[0].from);
        assert_eq!(
            dur,
            Dur::secs(2),
            "8s halves to 4s then 2s; 1s no longer spans t=10"
        );
    }

    #[test]
    fn corrupt_cell_shrinks_against_its_contract() {
        // A cell whose recovery contract is impossible (demands full
        // pre-drop rate within 1 s of a 4x drop) fails under ANY
        // schedule, so the shrinker must strip every corruption segment.
        let mut cfg = SessionConfig::default_with(Scheme::adaptive());
        cfg.duration = Dur::secs(20);
        cfg.record_series = true;
        let cell = Cell {
            label: "impossible".into(),
            trace: TraceSpec::SuddenDrop {
                pre_bps: 4e6,
                after_bps: 1e6,
                at: Time::from_secs(10),
            },
            cfg,
            contracts: Some(
                ravel_pipeline::ContractSpec {
                    recover_fraction: 4.0,
                    ..ravel_pipeline::ContractSpec::for_drop(Time::from_secs(10), 1e6)
                }
                .with_recover_within(Dur::SECOND),
            ),
        };
        let sched = CorruptSchedule::from_segments(vec![cseg(2, 4), cseg(6, 8)]);
        let min = shrink_cell(&cell, &sched).expect("contract failure counts");
        assert!(min.is_empty(), "{}", min.reproducer());
        // And the timeline digest for the minimized schedule renders.
        let digest = violating_timeline(&cell, &min);
        assert!(
            digest.starts_with("== timeline digest: impossible =="),
            "{digest}"
        );
    }

    #[test]
    fn healthy_corrupt_cell_yields_no_reproducer() {
        let mut cfg = SessionConfig::default_with(Scheme::adaptive());
        cfg.duration = Dur::secs(10);
        let cell = Cell {
            label: "fine".into(),
            trace: TraceSpec::Constant(3e6),
            cfg,
            contracts: None,
        };
        let sched = CorruptSchedule::from_segments(vec![cseg(2, 4)]);
        assert!(shrink_cell(&cell, &sched).is_none());
    }
}
