//! The fault-isolation gate: an injected panic or runaway in one grid
//! cell must be quarantined — reported with a stable status and digest
//! at any `--jobs` count and on cache hits — while every surviving
//! cell's output stays byte-identical to a clean run.

use ravel_harness::{
    experiments, run_suite_opts, BatchMode, CellRun, CellStatus, ExperimentRun, PoolOptions,
};
use ravel_pipeline::InjectedFault;

fn run_fixture(fault: InjectedFault, jobs: usize) -> ExperimentRun {
    run_fixture_batched(fault, jobs, BatchMode::Auto)
}

fn run_fixture_batched(fault: InjectedFault, jobs: usize, batch: BatchMode) -> ExperimentRun {
    let exps = [experiments::fixture(fault)];
    let opts = PoolOptions {
        batch,
        ..PoolOptions::default()
    };
    let (mut runs, _) = run_suite_opts(&exps, jobs, opts);
    runs.remove(0)
}

/// The fixture's rendered table with the injected cell's row removed
/// and column padding normalized (the failure row widens two columns):
/// every surviving *value* the grid printed around the fault.
fn survivor_rows(run: &ExperimentRun) -> Vec<Vec<String>> {
    run.output
        .render()
        .lines()
        .filter(|l| !l.contains("fx/panic") && !l.contains("fx/runaway") && !l.contains("fx/none"))
        .filter(|l| !l.starts_with('-'))
        .map(|l| l.split_whitespace().map(str::to_string).collect())
        .collect()
}

#[test]
fn injected_panic_is_isolated_and_stable_across_job_counts() {
    let at_1 = run_fixture(
        InjectedFault::Panic {
            at: experiments::FIXTURE_FAULT_AT,
        },
        1,
    );
    let faulty: Vec<&CellRun> = at_1.cells.iter().filter(|c| !c.ok()).collect();
    assert_eq!(faulty.len(), 1, "exactly the injected cell fails");
    assert_eq!(faulty[0].label, "fx/panic");
    assert_eq!(faulty[0].status, CellStatus::Panicked);
    let digest = faulty[0].failure.as_ref().unwrap().digest();
    assert_eq!(digest.len(), 16, "digest is 16 hex chars: {digest}");
    for c in at_1.cells.iter().filter(|c| c.ok()) {
        assert_eq!(c.status, CellStatus::Ok);
        assert!(
            c.result.frames_captured > 0,
            "{} produced no frames",
            c.label
        );
    }
    // The whole rendered experiment — survivors and failure row alike —
    // is byte-identical at any worker count, and the failing cell keeps
    // the same status and digest.
    for jobs in [2, 8] {
        let at_n = run_fixture(
            InjectedFault::Panic {
                at: experiments::FIXTURE_FAULT_AT,
            },
            jobs,
        );
        assert_eq!(
            at_1.output.render(),
            at_n.output.render(),
            "fixture table diverged between jobs=1 and jobs={jobs}"
        );
        let f = at_n.cells.iter().find(|c| !c.ok()).unwrap();
        assert_eq!(f.status, CellStatus::Panicked);
        assert_eq!(f.failure.as_ref().unwrap().digest(), digest);
    }
}

#[test]
fn injected_runaway_is_isolated_and_stable_across_job_counts() {
    let at_1 = run_fixture(
        InjectedFault::Runaway {
            at: experiments::FIXTURE_FAULT_AT,
        },
        1,
    );
    let faulty: Vec<&CellRun> = at_1.cells.iter().filter(|c| !c.ok()).collect();
    assert_eq!(faulty.len(), 1);
    assert_eq!(faulty[0].label, "fx/runaway");
    assert_eq!(faulty[0].status, CellStatus::Runaway);
    // A runaway is terminated, not torn down: it still carries its
    // truncated metrics and the RunawayTermination violation.
    assert_eq!(faulty[0].result.violations.len(), 1);
    assert!(faulty[0].result.events_processed > 0);
    let digest = faulty[0].failure.as_ref().unwrap().digest();
    let at_8 = run_fixture(
        InjectedFault::Runaway {
            at: experiments::FIXTURE_FAULT_AT,
        },
        8,
    );
    assert_eq!(at_1.output.render(), at_8.output.render());
    let f = at_8.cells.iter().find(|c| !c.ok()).unwrap();
    assert_eq!(f.failure.as_ref().unwrap().digest(), digest);
}

#[test]
fn survivors_are_byte_identical_to_a_clean_run() {
    // Replace the injected cell with a healthy one (InjectedFault::None)
    // and nothing else: every surviving row must not change by a byte.
    let clean = run_fixture(InjectedFault::None, 4);
    for fault in [
        InjectedFault::Panic {
            at: experiments::FIXTURE_FAULT_AT,
        },
        InjectedFault::Runaway {
            at: experiments::FIXTURE_FAULT_AT,
        },
    ] {
        let faulted = run_fixture(fault, 4);
        assert_eq!(
            survivor_rows(&clean),
            survivor_rows(&faulted),
            "{fault:?} perturbed a surviving cell"
        );
    }
}

#[test]
fn panic_inside_a_batch_quarantines_without_poisoning_batch_mates() {
    // `BatchMode` is ignored, so `Fixed(8)` must give the `Fixed(1)`
    // bytes: the panicking cell keeps its per-cell status and digest,
    // and the cells run after it on the same worker workspace are
    // byte-identical to a clean run.
    let fault = || InjectedFault::Panic {
        at: experiments::FIXTURE_FAULT_AT,
    };
    let oracle = run_fixture_batched(fault(), 1, BatchMode::Fixed(1));
    let oracle_digest = oracle
        .cells
        .iter()
        .find(|c| !c.ok())
        .unwrap()
        .failure
        .as_ref()
        .unwrap()
        .digest();
    let clean = run_fixture_batched(InjectedFault::None, 1, BatchMode::Fixed(8));
    for jobs in [1, 2, 8] {
        let batched = run_fixture_batched(fault(), jobs, BatchMode::Fixed(8));
        assert_eq!(
            oracle.output.render(),
            batched.output.render(),
            "jobs={jobs}: Fixed(8) fixture table diverged from the Fixed(1) oracle"
        );
        let faulty: Vec<&CellRun> = batched.cells.iter().filter(|c| !c.ok()).collect();
        assert_eq!(faulty.len(), 1, "jobs={jobs}: exactly one cell fails");
        assert_eq!(faulty[0].label, "fx/panic");
        assert_eq!(faulty[0].status, CellStatus::Panicked);
        assert_eq!(
            faulty[0].failure.as_ref().unwrap().digest(),
            oracle_digest,
            "jobs={jobs}: digest changed under Fixed(8)"
        );
        assert_eq!(
            survivor_rows(&clean),
            survivor_rows(&batched),
            "jobs={jobs}: a cell was poisoned by the panic"
        );
    }
}

#[test]
fn cached_positions_echo_the_recorded_failure() {
    // Two grid positions with the same content address, one simulation:
    // the failure is recorded once and echoed at both positions with
    // the same status and digest.
    let mut exp = experiments::fixture(InjectedFault::Panic {
        at: experiments::FIXTURE_FAULT_AT,
    });
    let dup = exp.cells[2].clone();
    exp.cells.push(dup);
    let (runs, stats) = run_suite_opts(&[exp], 2, PoolOptions::default());
    let cells = &runs[0].cells;
    assert_eq!(stats.total_cells, 6);
    assert_eq!(stats.executed, 5, "the duplicate must not re-simulate");
    assert_eq!(stats.cache_hits, 1);
    let first = &cells[2];
    let echoed = &cells[5];
    assert_eq!(first.status, CellStatus::Panicked);
    assert_eq!(echoed.status, CellStatus::Panicked);
    assert!(echoed.cache_hit);
    assert_eq!(
        first.failure.as_ref().unwrap().digest(),
        echoed.failure.as_ref().unwrap().digest()
    );
    assert_eq!(
        first.failure.as_ref().unwrap().detail,
        echoed.failure.as_ref().unwrap().detail
    );
}
